//! Matrix–vector (BLAS-2) kernels over strided views.
//!
//! `gemv` (Trans) and `symv_lower` replace their serial dot-product
//! reductions with the lane-partial form ([`crate::blas1::dot_lanes`]) for
//! vectors of at least `tile::SMALL_DIM` (48) elements. The lane reductions are
//! deterministic (pure functions of shape + inputs, thread-count
//! independent) but not bit-identical to the serial ones — reductions
//! regroup under lane splitting — so only tolerance-tested callers route
//! through them; the bit-exact reflector paths use
//! [`crate::tile::row_kernels`] instead, whose per-element arithmetic is
//! the same in both forms.

// Index-based loops mirror the BLAS/LAPACK reference formulations these
// kernels follow; iterator rewrites obscure the subscript arithmetic.
#![allow(clippy::needless_range_loop)]

use crate::blas1::{axpy, dot, dot_lanes};
use crate::mat::{MatMut, MatRef};
use crate::microkernel::LANES;
use crate::scalar::Scalar;
use crate::tile::SMALL_DIM;

/// Transposition flag for GEMM-family routines.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Op {
    NoTrans,
    Trans,
}

/// `y ← alpha·op(A)·x + beta·y`.
pub fn gemv<T: Scalar>(alpha: T, a: MatRef<'_, T>, op: Op, x: &[T], beta: T, y: &mut [T]) {
    let (m, n) = (a.rows(), a.cols());
    match op {
        Op::NoTrans => {
            assert_eq!(x.len(), n);
            assert_eq!(y.len(), m);
            if beta != T::ONE {
                for v in y.iter_mut() {
                    *v *= beta;
                }
            }
            for j in 0..n {
                axpy(alpha * x[j], a.col(j), y);
            }
        }
        Op::Trans => {
            assert_eq!(x.len(), m);
            assert_eq!(y.len(), n);
            let wide = m >= SMALL_DIM;
            for j in 0..n {
                let d = if wide {
                    dot_lanes::<T, LANES>(a.col(j), x)
                } else {
                    dot(a.col(j), x)
                };
                y[j] = alpha * d + beta * y[j];
            }
        }
    }
}

/// Symmetric matrix–vector product `y ← alpha·A·x + beta·y` reading only the
/// lower triangle of `A` (LAPACK `symv`, uplo = 'L').
pub fn symv_lower<T: Scalar>(alpha: T, a: MatRef<'_, T>, x: &[T], beta: T, y: &mut [T]) {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), n);
    if beta != T::ONE {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
    if n >= SMALL_DIM {
        // The fused loop's serial `t` reduction blocks vectorization, so
        // split it — a row-local axpy for the column contribution plus a
        // lane-partial dot for the reduction. Both halves stream the same
        // column once each; still O(n²/2) reads. Deterministic,
        // tolerance-equal (not bit-equal) to the serial form below.
        for j in 0..n {
            let col = a.col(j);
            y[j] += alpha * col[j] * x[j];
            axpy(alpha * x[j], &col[j + 1..], &mut y[j + 1..]);
            y[j] += alpha * dot_lanes::<T, LANES>(&col[j + 1..], &x[j + 1..]);
        }
        return;
    }
    for j in 0..n {
        let col = a.col(j);
        // diagonal
        y[j] += alpha * col[j] * x[j];
        // below-diagonal entries serve both (i,j) and (j,i)
        let mut t = T::ZERO;
        for i in j + 1..n {
            y[i] += alpha * col[i] * x[j];
            t += col[i] * x[i];
        }
        y[j] += alpha * t;
    }
}

/// Symmetric rank-2 update `A ← A + alpha(x·yᵀ + y·xᵀ)`, lower triangle only.
pub fn syr2_lower<T: Scalar>(alpha: T, x: &[T], y: &[T], mut a: MatMut<'_, T>) {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), n);
    for j in 0..n {
        let (xj, yj) = (x[j], y[j]);
        let col = a.col_mut(j);
        for i in j..n {
            col[i] += alpha * (x[i] * yj + y[i] * xj);
        }
    }
}

/// Solve `op(L)·x = b` in place for triangular `L`.
/// `unit` means an implicit unit diagonal (the stored diagonal is ignored).
pub fn trsv<T: Scalar>(a: MatRef<'_, T>, op: Op, lower: bool, unit: bool, x: &mut [T]) {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(x.len(), n);
    // Four cases reduce to two loops: effective-lower forward solve and
    // effective-upper backward solve.
    let eff_lower = lower ^ (op == Op::Trans);
    let at = |i: usize, j: usize| -> T {
        match op {
            Op::NoTrans => a.get(i, j),
            Op::Trans => a.get(j, i),
        }
    };
    if eff_lower {
        for i in 0..n {
            let mut s = x[i];
            for j in 0..i {
                s -= at(i, j) * x[j];
            }
            x[i] = if unit { s } else { s / at(i, i) };
        }
    } else {
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in i + 1..n {
                s -= at(i, j) * x[j];
            }
            x[i] = if unit { s } else { s / at(i, i) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    #[test]
    fn gemv_notrans() {
        let a = Mat::<f64>::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let mut y = vec![1.0, 1.0];
        gemv(2.0, a.as_ref(), Op::NoTrans, &[1.0, 0.0, -1.0], 3.0, &mut y);
        // A*x = [1-3, 4-6] = [-2, -2]; y = 2*(-2) + 3*1 = -1
        assert_eq!(y, vec![-1.0, -1.0]);
    }

    #[test]
    fn gemv_trans() {
        let a = Mat::<f64>::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let mut y = vec![0.0; 3];
        gemv(1.0, a.as_ref(), Op::Trans, &[1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn symv_reads_only_lower() {
        // Upper triangle poisoned with garbage: symv must ignore it.
        let mut a = Mat::<f64>::from_rows(3, 3, &[2., 999., 999., 1., 3., 999., 0., -1., 4.]);
        let x = [1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        symv_lower(1.0, a.as_ref(), &x, 0.0, &mut y);
        a.symmetrize_from_lower();
        let mut y_ref = vec![0.0; 3];
        gemv(1.0, a.as_ref(), Op::NoTrans, &x, 0.0, &mut y_ref);
        for i in 0..3 {
            assert!((y[i] - y_ref[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn symv_wide_path_matches_serial_form() {
        // n = 100 clears SMALL_DIM; compare against the written-out serial
        // symv of the same problem.
        let n = 100;
        let mut a = Mat::<f64>::zeros(n, n);
        for j in 0..n {
            for i in j..n {
                a[(i, j)] = ((i * 31 + j * 17) % 23) as f64 * 0.125 - 1.0;
            }
        }
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut y = vec![0.5; n];
        symv_lower(1.25, a.as_ref(), &x, 2.0, &mut y);
        let mut y_ref = vec![0.5 * 2.0; n];
        for j in 0..n {
            let col = a.col(j);
            y_ref[j] += 1.25 * col[j] * x[j];
            let mut t = 0.0;
            for i in j + 1..n {
                y_ref[i] += 1.25 * col[i] * x[j];
                t += col[i] * x[i];
            }
            y_ref[j] += 1.25 * t;
        }
        for i in 0..n {
            let scale = y_ref[i].abs().max(1.0);
            assert!((y[i] - y_ref[i]).abs() <= 1e-12 * scale, "row {i}");
        }
        // and the wide result is itself deterministic call-to-call
        let mut y2 = vec![0.5; n];
        symv_lower(1.25, a.as_ref(), &x, 2.0, &mut y2);
        assert_eq!(y, y2);
    }

    #[test]
    fn gemv_trans_wide_path_matches_serial_form() {
        let (m, n) = (96, 5);
        let mut a = Mat::<f64>::zeros(m, n);
        for j in 0..n {
            for i in 0..m {
                a[(i, j)] = ((i * 13 + j * 41) % 29) as f64 * 0.0625 - 0.5;
            }
        }
        let x: Vec<f64> = (0..m).map(|i| ((i * 11) % 17) as f64 * 0.5 - 4.0).collect();
        let mut y = vec![1.0; n];
        gemv(0.75, a.as_ref(), Op::Trans, &x, -1.0, &mut y);
        for j in 0..n {
            let mut d = 0.0;
            for i in 0..m {
                d += a[(i, j)] * x[i];
            }
            let want = 0.75 * d - 1.0;
            assert!((y[j] - want).abs() <= 1e-12 * want.abs().max(1.0));
        }
    }

    #[test]
    fn syr2_matches_dense() {
        let n = 4;
        let mut a = Mat::<f64>::zeros(n, n);
        let x = [1.0, -2.0, 0.5, 3.0];
        let y = [2.0, 1.0, -1.0, 0.0];
        syr2_lower(0.5, &x, &y, a.as_mut());
        for j in 0..n {
            for i in j..n {
                let want = 0.5 * (x[i] * y[j] + y[i] * x[j]);
                assert!((a[(i, j)] - want).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn trsv_all_cases() {
        // L = [2 0; 1 3], U = L^T
        let l = Mat::<f64>::from_rows(2, 2, &[2., 0., 1., 3.]);
        let b = [4.0, 7.0];

        let mut x = b;
        trsv(l.as_ref(), Op::NoTrans, true_lower(), false, &mut x);
        // forward: x0 = 2, x1 = (7-2)/3
        assert!((x[0] - 2.0).abs() < 1e-15);
        assert!((x[1] - 5.0 / 3.0).abs() < 1e-15);

        // L^T x = b (backward)
        let mut x = b;
        trsv(l.as_ref(), Op::Trans, true, false, &mut x);
        // x1 = 7/3; x0 = (4 - 1*7/3)/2
        assert!((x[1] - 7.0 / 3.0).abs() < 1e-15);
        assert!((x[0] - (4.0 - 7.0 / 3.0) / 2.0).abs() < 1e-15);

        // unit diagonal ignores stored diag
        let mut x = [4.0, 7.0];
        trsv(l.as_ref(), Op::NoTrans, true, true, &mut x);
        assert!((x[0] - 4.0).abs() < 1e-15);
        assert!((x[1] - 3.0).abs() < 1e-15);
    }

    fn true_lower() -> bool {
        true
    }
}
