//! Elementary Householder reflector generation and application.
//!
//! Conventions follow LAPACK `larfg`/`larf`: a reflector
//! `H = I − tau·v·vᵀ` with `v[0] = 1` maps a vector `x` onto
//! `beta·e₁` with `|beta| = ‖x‖`. `H` is orthogonal and symmetric.

// Index-based loops mirror the BLAS/LAPACK reference formulations these
// kernels follow; iterator rewrites obscure the subscript arithmetic.
#![allow(clippy::needless_range_loop)]

use tcevd_matrix::blas1::{dot, dot_lanes, nrm2, scal};
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::MatMut;

/// Generate a Householder reflector for the vector `[alpha, x]`.
///
/// On return `x` is overwritten with the tail of `v` (the head `v[0] = 1` is
/// implicit) and `(beta, tau)` is returned such that
/// `(I − tau·v·vᵀ)·[alpha; x] = [beta; 0]`.
///
/// `tau = 0` (and `beta = alpha`) when the input is already collinear with
/// `e₁` — applying `H = I` is then a no-op, the LAPACK convention.
pub fn larfg<T: Scalar>(alpha: T, x: &mut [T]) -> (T, T) {
    let xnorm = nrm2(x);
    if xnorm == T::ZERO {
        return (alpha, T::ZERO);
    }
    // beta = -sign(alpha)·‖[alpha, x]‖ avoids cancellation in alpha − beta.
    let beta = -alpha.sign1() * alpha.hypot(xnorm);
    let tau = (beta - alpha) / beta;
    // v_tail = x / (alpha − beta)
    scal(T::ONE / (alpha - beta), x);
    (beta, tau)
}

/// Partial sums of [`apply_reflector_left`]'s per-column dot.
const REFLECTOR_LANES: usize = 8;

/// Apply `H = I − tau·v·vᵀ` from the left to `c`: `C ← H·C`.
/// `v` has length `c.rows()` with `v[0]` stored explicitly (pass 1 there).
pub fn apply_reflector_left<T: Scalar>(tau: T, v: &[T], mut c: MatMut<'_, T>) {
    if tau == T::ZERO {
        return;
    }
    assert_eq!(v.len(), c.rows());
    // The per-column dot runs in REFLECTOR_LANES partial sums: the lane
    // count is a constant, so the result is the same bits at every vector
    // length and thread count while the independent chains vectorize. The
    // update is row-local and routes through the (bit-identical) row
    // kernel.
    let rk = tcevd_matrix::tile::row_kernels::<T>(c.rows());
    for j in 0..c.cols() {
        let col = c.col_mut(j);
        let w = dot_lanes::<T, REFLECTOR_LANES>(v, col);
        (rk.sub)(tau * w, v, col);
    }
}

/// Apply `H = I − tau·v·vᵀ` from the right to `c`: `C ← C·H`.
///
/// The column sweeps are row-local (`w[i]` only ever meets `col[i]`), so
/// they route through the row kernels
/// ([`tcevd_matrix::tile::row_kernels`]) — the lane form blocks the loops
/// for vector FMAs with **bit-identical** results, preserving this
/// function's role in the bulge-chase bitwise-equivalence tests.
pub fn apply_reflector_right<T: Scalar>(tau: T, v: &[T], mut c: MatMut<'_, T>) {
    if tau == T::ZERO {
        return;
    }
    assert_eq!(v.len(), c.cols());
    let m = c.rows();
    let rk = tcevd_matrix::tile::row_kernels::<T>(m);
    // w = C·v, then C ← C − tau·w·vᵀ
    let mut w = vec![T::ZERO; m];
    for j in 0..c.cols() {
        let vj = v[j];
        if vj != T::ZERO {
            (rk.acc)(vj, c.col_mut(j), &mut w);
        }
    }
    for j in 0..c.cols() {
        let t = tau * v[j];
        if t != T::ZERO {
            (rk.sub)(t, &w, c.col_mut(j));
        }
    }
}

/// Two-sided application to a symmetric matrix, lower triangle only:
/// `A ← H·A·H` where `H = I − tau·v·vᵀ` (LAPACK `latrd`-style rank-2 form).
///
/// Uses `A ← A − v·wᵀ − w·vᵀ` with `w = tau·(A·v − ½·tau·(vᵀAv)·v)`.
pub fn apply_reflector_two_sided_sym<T: Scalar>(tau: T, v: &[T], mut a: MatMut<'_, T>) {
    if tau == T::ZERO {
        return;
    }
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(v.len(), n);
    // p = tau·A·v (symmetric, lower stored)
    let mut p = vec![T::ZERO; n];
    tcevd_matrix::blas2::symv_lower(tau, a.as_ref(), v, T::ZERO, &mut p);
    // w = p − (tau/2)(pᵀv)·v
    let alpha = T::HALF * tau * dot(&p, v);
    for i in 0..n {
        p[i] -= alpha * v[i];
    }
    // A ← A − v·wᵀ − w·vᵀ (lower triangle)
    tcevd_matrix::blas2::syr2_lower(-T::ONE, v, &p, a.as_mut());
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcevd_matrix::Mat;

    #[test]
    fn larfg_annihilates() {
        let alpha = 3.0f64;
        let mut x = vec![4.0, 0.0, 0.0];
        let (beta, tau) = larfg(alpha, &mut x);
        assert!((beta.abs() - 5.0).abs() < 1e-14);
        assert!(beta < 0.0); // -sign(alpha)·norm

        // verify H·[alpha; x_orig] = [beta; 0]
        let v = [1.0, x[0], x[1], x[2]];
        let orig = [3.0, 4.0, 0.0, 0.0];
        let w: f64 = v.iter().zip(orig.iter()).map(|(a, b)| a * b).sum();
        let out: Vec<f64> = (0..4).map(|i| orig[i] - tau * w * v[i]).collect();
        assert!((out[0] - beta).abs() < 1e-14);
        for &o in &out[1..] {
            assert!(o.abs() < 1e-14);
        }
    }

    #[test]
    fn larfg_zero_tail_is_identity() {
        let mut x = vec![0.0f32, 0.0];
        let (beta, tau) = larfg(5.0, &mut x);
        assert_eq!(beta, 5.0);
        assert_eq!(tau, 0.0);
    }

    #[test]
    fn larfg_negative_alpha() {
        let mut x = vec![3.0f64];
        let (beta, tau) = larfg(-4.0, &mut x);
        assert!((beta - 5.0).abs() < 1e-14); // -sign(-4)*5 = +5
        assert!(tau > 0.0 && tau <= 2.0);
    }

    #[test]
    fn reflector_is_orthogonal_and_symmetric() {
        let mut x = vec![1.0f64, -2.0, 0.5];
        let (_, tau) = larfg(2.0, &mut x);
        let v = [1.0, x[0], x[1], x[2]];
        let n = 4;
        let mut h = Mat::<f64>::identity(n, n);
        for j in 0..n {
            for i in 0..n {
                h[(i, j)] -= tau * v[i] * v[j];
            }
        }
        // H·Hᵀ = I and H = Hᵀ
        let hht = tcevd_matrix::blas3::matmul(
            h.as_ref(),
            tcevd_matrix::Op::NoTrans,
            h.as_ref(),
            tcevd_matrix::Op::Trans,
        );
        assert!(hht.max_abs_diff(&Mat::identity(n, n)) < 1e-14);
        assert!(h.max_abs_diff(&h.transpose()) < 1e-15);
    }

    #[test]
    fn left_and_right_application_match_explicit() {
        let mut x = vec![0.7f64, -1.3];
        let (_, tau) = larfg(1.1, &mut x);
        let v = vec![1.0, x[0], x[1]];
        let n = 3;
        let mut h = Mat::<f64>::identity(n, n);
        for j in 0..n {
            for i in 0..n {
                h[(i, j)] -= tau * v[i] * v[j];
            }
        }
        let c = Mat::<f64>::from_fn(n, 4, |i, j| (i * 4 + j) as f64 * 0.3 - 1.0);
        let mut c1 = c.clone();
        apply_reflector_left(tau, &v, c1.as_mut());
        let want = tcevd_matrix::blas3::matmul(
            h.as_ref(),
            tcevd_matrix::Op::NoTrans,
            c.as_ref(),
            tcevd_matrix::Op::NoTrans,
        );
        assert!(c1.max_abs_diff(&want) < 1e-13);

        let ct = c.transpose();
        let mut c2 = ct.clone();
        apply_reflector_right(tau, &v, c2.as_mut());
        let want_r = tcevd_matrix::blas3::matmul(
            ct.as_ref(),
            tcevd_matrix::Op::NoTrans,
            h.as_ref(),
            tcevd_matrix::Op::NoTrans,
        );
        assert!(c2.max_abs_diff(&want_r) < 1e-13);
    }

    #[test]
    fn two_sided_symmetric_matches_explicit() {
        let n = 5;
        // symmetric test matrix
        let mut a = Mat::<f64>::from_fn(n, n, |i, j| ((i + 1) * (j + 1)) as f64 / 7.0);
        for j in 0..n {
            for i in 0..j {
                a[(i, j)] = a[(j, i)];
            }
        }
        let mut x = vec![0.3f64, -0.9, 2.0, 0.1];
        let (_, tau) = larfg(1.0, &mut x);
        let v = vec![1.0, x[0], x[1], x[2], x[3]];

        let mut h = Mat::<f64>::identity(n, n);
        for j in 0..n {
            for i in 0..n {
                h[(i, j)] -= tau * v[i] * v[j];
            }
        }
        let hah = tcevd_matrix::blas3::matmul(
            tcevd_matrix::blas3::matmul(
                h.as_ref(),
                tcevd_matrix::Op::NoTrans,
                a.as_ref(),
                tcevd_matrix::Op::NoTrans,
            )
            .as_ref(),
            tcevd_matrix::Op::NoTrans,
            h.as_ref(),
            tcevd_matrix::Op::NoTrans,
        );

        let mut a2 = a.clone();
        apply_reflector_two_sided_sym(tau, &v, a2.as_mut());
        // compare lower triangles
        for j in 0..n {
            for i in j..n {
                assert!(
                    (a2[(i, j)] - hah[(i, j)]).abs() < 1e-12,
                    "({i},{j}): {} vs {}",
                    a2[(i, j)],
                    hah[(i, j)]
                );
            }
        }
    }
}
