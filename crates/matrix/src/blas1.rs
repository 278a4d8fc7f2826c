//! Vector (BLAS-1) kernels on contiguous slices.
//!
//! These run inside the innermost loops of every factorization, so they are
//! written as plain indexed loops over slices — the form rustc/LLVM
//! auto-vectorizes reliably (see the Rust Performance Book guidance on
//! bounds-check elimination via equal-length slices).

use crate::scalar::Scalar;

/// Dot product `xᵀy`.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len());
    let mut acc = T::ZERO;
    for i in 0..x.len() {
        acc += x[i] * y[i];
    }
    acc
}

/// Dot product with `LANES` independent partial accumulators, reduced in a
/// fixed order, remainder appended sequentially.
///
/// The lane partials break the serial dependence chain of [`dot`] so LLVM
/// emits vector arithmetic. The result is **deterministic** (a pure
/// function of the inputs and `LANES`: the same bits on every call and
/// thread) but **not bit-identical to [`dot`]**: lane splitting regroups
/// the additions of a single reduction. A caller that always uses it, with
/// a lane count of its own, gets the same bits at every vector length: the
/// reflector application (`tcevd_factor::householder::apply_reflector_left`)
/// does. `symv` and `gemv` Trans choose between it and [`dot`] by vector
/// length, so they are tolerance-tested instead. Code that promises bit-exactness against
/// [`dot`] itself must not use it.
#[inline]
pub fn dot_lanes<T: Scalar, const LANES: usize>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len());
    assert!(LANES > 0);
    let n = x.len();
    let body = n - n % LANES;
    let mut acc = [T::ZERO; LANES];
    for (xc, yc) in x[..body]
        .chunks_exact(LANES)
        .zip(y[..body].chunks_exact(LANES))
    {
        let (Ok(xc), Ok(yc)) = (<&[T; LANES]>::try_from(xc), <&[T; LANES]>::try_from(yc)) else {
            continue; // unreachable: chunks_exact yields LANES-length slices
        };
        for l in 0..LANES {
            acc[l] += xc[l] * yc[l];
        }
    }
    // fixed left-to-right lane reduction, then the tail in order
    let mut s = T::ZERO;
    for a in acc {
        s += a;
    }
    for i in body..n {
        s += x[i] * y[i];
    }
    s
}

/// `y ← y + alpha x`.
#[inline]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len());
    if alpha == T::ZERO {
        return;
    }
    for i in 0..x.len() {
        y[i] += alpha * x[i];
    }
}

/// `x ← alpha x`.
#[inline]
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for v in x {
        *v *= alpha;
    }
}

/// Euclidean norm, scaled to avoid overflow/underflow (LAPACK `snrm2` style).
pub fn nrm2<T: Scalar>(x: &[T]) -> T {
    let mut scale = T::ZERO;
    let mut ssq = T::ONE;
    for &v in x {
        if v != T::ZERO {
            let a = v.abs();
            if scale < a {
                let r = scale / a;
                ssq = T::ONE + ssq * r * r;
                scale = a;
            } else {
                let r = a / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0f64, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot::<f32>(&[], &[]), 0.0);
    }

    #[test]
    fn dot_lanes_is_deterministic_and_accurate() {
        // length exercises body + remainder (203 = 25*8 + 3)
        let x: Vec<f64> = (0..203)
            .map(|i| ((i * 37 + 11) % 101) as f64 - 50.0)
            .collect();
        let y: Vec<f64> = (0..203)
            .map(|i| ((i * 53 + 7) % 97) as f64 * 0.25)
            .collect();
        let a = dot_lanes::<f64, 8>(&x, &y);
        let b = dot_lanes::<f64, 8>(&x, &y);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "must be a pure function of inputs"
        );
        let reference = dot(&x, &y);
        let scale: f64 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum();
        assert!((a - reference).abs() <= 1e-12 * scale.max(1.0));
        // short inputs (all remainder) match dot exactly: same order
        let xs = [1.0f32, 2.0, 3.0];
        let ys = [4.0f32, -1.0, 0.5];
        assert_eq!(dot_lanes::<f32, 8>(&xs, &ys), dot(&xs, &ys));
        assert_eq!(dot_lanes::<f32, 8>(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_and_scal() {
        let mut y = vec![1.0f32, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        scal(0.5, &mut y);
        assert_eq!(y, vec![3.5, 4.5]);
    }

    #[test]
    fn axpy_zero_alpha_is_noop() {
        let mut y = vec![1.0f32, 2.0];
        axpy(0.0, &[f32::NAN, f32::NAN], &mut y); // must not touch y
        assert_eq!(y, vec![1.0, 2.0]);
    }

    #[test]
    fn nrm2_matches_naive() {
        let x = [3.0f64, 4.0];
        assert!((nrm2(&x) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn nrm2_no_overflow() {
        let x = [1e20f32, 1e20, 1e20];
        let n = nrm2(&x);
        assert!(n.is_finite());
        assert!((n - 1e20 * 3.0f32.sqrt()).abs() / n < 1e-6);
    }

    #[test]
    fn nrm2_no_underflow() {
        let x = [1e-30f32, 1e-30];
        let n = nrm2(&x);
        assert!(n > 0.0);
        assert!((n / (1e-30 * 2.0f32.sqrt()) - 1.0).abs() < 1e-6);
    }
}
