//! LU factorizations.
//!
//! The WY-reconstruction algorithm (paper §5.2, after Ballard et al.) needs
//! an LU factorization *without pivoting* — the matrix `S − Q₁` it factors
//! is provably such that non-pivoted LU exists and is stable. The
//! partial-pivoting variant backs `reconstruct_wy_pivoted`, the panel
//! recovery ladder's fallback when a non-pivoted pivot degenerates.

use tcevd_matrix::blas1::axpy;
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::{Mat, MatMut};

/// Error from a failed factorization. Every variant carries the offending
/// pivot index and its magnitude so the recovery ladder can report exactly
/// why it escalated.
#[derive(Debug, Clone, PartialEq)]
pub enum LuError {
    /// Pivot was exactly zero (or subnormal).
    ZeroPivot {
        /// Elimination step at which the breakdown occurred.
        index: usize,
        /// `|pivot|` observed (zero or subnormal).
        magnitude: f64,
    },
    /// Pivot was nonzero but below the relative threshold `ε·‖A‖_max`,
    /// meaning the factorization would amplify rounding error unboundedly.
    TinyPivot {
        /// Elimination step at which the tiny pivot was hit.
        index: usize,
        /// `|pivot|` observed.
        magnitude: f64,
        /// The relative threshold it fell below.
        threshold: f64,
    },
    /// The input shape is unusable for the requested factorization
    /// (e.g. WY reconstruction needs a tall matrix, m ≥ b).
    BadShape {
        /// Rows of the offending input.
        rows: usize,
        /// Columns of the offending input.
        cols: usize,
    },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::ZeroPivot { index, magnitude } => {
                write!(f, "zero pivot at index {index} (|pivot| = {magnitude:.3e}) in LU factorization")
            }
            LuError::TinyPivot {
                index,
                magnitude,
                threshold,
            } => write!(
                f,
                "tiny pivot at index {index}: |pivot| = {magnitude:.3e} below relative threshold {threshold:.3e}"
            ),
            LuError::BadShape { rows, cols } => {
                write!(f, "bad shape {rows}x{cols} for factorization")
            }
        }
    }
}

impl std::error::Error for LuError {}

/// In-place LU without pivoting: on success `a` holds `U` in its upper
/// triangle and the strictly-lower part of unit-lower `L` below.
///
/// Pivots are validated against a *relative* threshold `ε·‖A‖_max` computed
/// from the input at entry — a tiny-but-nonzero pivot is as fatal for the
/// downstream triangular solves as an exact zero, and is reported as
/// [`LuError::TinyPivot`] with its index and magnitude.
pub fn lu_nopivot<T: Scalar>(mut a: MatMut<'_, T>) -> Result<(), LuError> {
    let n = a.rows().min(a.cols());
    let mut scale = 0.0f64;
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            scale = scale.max(a.get(i, j).abs().to_f64());
        }
    }
    let threshold = T::EPSILON.to_f64() * scale;
    let poisoned = crate::fault::take_poisoned_pivot();
    for k in 0..n {
        let pivot = a.get(k, k);
        let mut magnitude = pivot.abs().to_f64();
        if poisoned == Some(k) {
            // Injected fault: pretend the pivot collapsed by 30 orders of
            // magnitude, driving the genuine threshold path below.
            magnitude *= 1e-30;
        }
        if magnitude < T::MIN_POSITIVE.to_f64() {
            return Err(LuError::ZeroPivot {
                index: k,
                magnitude,
            });
        }
        if magnitude < threshold {
            return Err(LuError::TinyPivot {
                index: k,
                magnitude,
                threshold,
            });
        }
        let m = a.rows();
        // scale multipliers
        {
            let col = a.col_mut(k);
            for v in &mut col[k + 1..m] {
                *v /= pivot;
            }
        }
        // rank-1 trailing update
        for j in k + 1..a.cols() {
            let u = a.get(k, j);
            if u != T::ZERO {
                let (lcol, jcol) = two_cols(a.as_mut(), k, j);
                axpy(-u, &lcol[k + 1..m], &mut jcol[k + 1..m]);
            }
        }
    }
    Ok(())
}

/// Borrow column `k` immutably and column `j` mutably (k < j).
fn two_cols<'a, T: Scalar>(a: MatMut<'a, T>, k: usize, j: usize) -> (&'a [T], &'a mut [T]) {
    assert!(k < j);
    let rows = a.rows();
    let ld = a.ld();
    let data = a.into_slice();
    let (left, right) = data.split_at_mut(j * ld);
    (&left[k * ld..k * ld + rows], &mut right[..rows])
}

/// In-place LU with partial (row) pivoting: returns the pivot permutation
/// `piv` where row `i` of `PA` is row `piv[i]` of `A`.
pub fn lu_partial_pivot<T: Scalar>(a: &mut Mat<T>) -> Result<Vec<usize>, LuError> {
    let m = a.rows();
    let n = a.cols();
    if crate::fault::take_partial_failure() {
        return Err(LuError::ZeroPivot {
            index: 0,
            magnitude: 0.0,
        });
    }
    let kmax = m.min(n);
    let mut piv: Vec<usize> = (0..m).collect();
    for k in 0..kmax {
        // find pivot row
        let mut p = k;
        let mut pv = a[(k, k)].abs();
        for i in k + 1..m {
            let v = a[(i, k)].abs();
            if v > pv {
                pv = v;
                p = i;
            }
        }
        if pv < T::MIN_POSITIVE {
            return Err(LuError::ZeroPivot {
                index: k,
                magnitude: pv.to_f64(),
            });
        }
        if p != k {
            piv.swap(k, p);
            for j in 0..n {
                let t = a[(k, j)];
                a[(k, j)] = a[(p, j)];
                a[(p, j)] = t;
            }
        }
        let pivot = a[(k, k)];
        for i in k + 1..m {
            a[(i, k)] /= pivot;
        }
        for j in k + 1..n {
            let u = a[(k, j)];
            if u != T::ZERO {
                for i in k + 1..m {
                    let l = a[(i, k)];
                    a[(i, j)] -= l * u;
                }
            }
        }
    }
    Ok(piv)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Reassemble `L·U` from a packed (non-pivoted) factorization.
    fn lu_reconstruct<T: Scalar>(packed: &Mat<T>) -> Mat<T> {
        let m = packed.rows();
        let n = packed.cols();
        let k = m.min(n);
        let mut out = Mat::<T>::zeros(m, n);
        for j in 0..n {
            for i in 0..m {
                let mut s = T::ZERO;
                let lim = i.min(j + 1).min(k);
                for l in 0..lim {
                    let lv = packed[(i, l)]; // L(i,l), i > l
                    let uv = packed[(l, j)];
                    s += lv * uv;
                }
                // diagonal of L is 1
                if i <= j && i < k {
                    s += packed[(i, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        Mat::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn diag_dominant(n: usize, seed: u64) -> Mat<f64> {
        let mut a = rand_mat(n, n, seed);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn nopivot_reconstructs() {
        let a = diag_dominant(8, 1);
        let mut p = a.clone();
        lu_nopivot(p.as_mut()).unwrap();
        let lu = lu_reconstruct(&p);
        assert!(lu.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn nopivot_rectangular_tall() {
        let mut a = rand_mat(10, 4, 2);
        for i in 0..4 {
            a[(i, i)] += 10.0;
        }
        let orig = a.clone();
        lu_nopivot(a.as_mut()).unwrap();
        let lu = lu_reconstruct(&a);
        assert!(lu.max_abs_diff(&orig) < 1e-12);
    }

    #[test]
    fn nopivot_detects_zero_pivot() {
        let mut a = Mat::<f64>::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        assert_eq!(
            lu_nopivot(a.as_mut()),
            Err(LuError::ZeroPivot {
                index: 0,
                magnitude: 0.0
            })
        );
    }

    #[test]
    fn nopivot_rejects_tiny_relative_pivot() {
        // Leading pivot is 1e-18 while the matrix scale is O(1): far below
        // ε·‖A‖_max, so the factorization must refuse rather than divide.
        let mut a = Mat::<f64>::from_rows(2, 2, &[1e-18, 1.0, 1.0, 1.0]);
        match lu_nopivot(a.as_mut()) {
            Err(LuError::TinyPivot {
                index,
                magnitude,
                threshold,
            }) => {
                assert_eq!(index, 0);
                assert!((magnitude - 1e-18).abs() < 1e-30);
                assert!(threshold > magnitude);
            }
            other => panic!("expected TinyPivot, got {other:?}"),
        }
    }

    #[test]
    fn nopivot_accepts_uniformly_small_matrix() {
        // A well-conditioned matrix scaled down by 1e-12 must still factor:
        // the threshold is relative to the entry scale, not absolute.
        let mut a = diag_dominant(6, 9);
        for j in 0..6 {
            for i in 0..6 {
                a[(i, j)] *= 1e-12;
            }
        }
        let orig = a.clone();
        lu_nopivot(a.as_mut()).unwrap();
        let lu = lu_reconstruct(&a);
        assert!(lu.max_abs_diff(&orig) < 1e-24);
    }

    #[test]
    fn poisoned_pivot_fires_once_then_clears() {
        crate::fault::poison_nopivot_pivot(1);
        let mut a = diag_dominant(4, 11);
        match lu_nopivot(a.as_mut()) {
            Err(LuError::TinyPivot { index, .. } | LuError::ZeroPivot { index, .. }) => {
                assert_eq!(index, 1)
            }
            other => panic!("expected poisoned pivot failure, got {other:?}"),
        }
        // hook is consumed: the same factorization now succeeds
        let mut b = diag_dominant(4, 11);
        lu_nopivot(b.as_mut()).unwrap();
    }

    #[test]
    fn forced_partial_pivot_failure() {
        crate::fault::fail_next_partial_pivot(1);
        let mut a = diag_dominant(4, 12);
        assert!(lu_partial_pivot(&mut a).is_err());
        let mut b = diag_dominant(4, 12);
        assert!(lu_partial_pivot(&mut b).is_ok());
    }

    #[test]
    fn partial_pivot_handles_permutation() {
        let mut a = Mat::<f64>::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let orig = a.clone();
        let piv = lu_partial_pivot(&mut a).unwrap();
        assert_eq!(piv, vec![1, 0]);
        // PA = LU
        let lu = lu_reconstruct(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert!((lu[(i, j)] - orig[(piv[i], j)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn partial_pivot_random() {
        let a = rand_mat(12, 12, 3);
        let mut p = a.clone();
        let piv = lu_partial_pivot(&mut p).unwrap();
        let lu = lu_reconstruct(&p);
        for i in 0..12 {
            for j in 0..12 {
                assert!((lu[(i, j)] - a[(piv[i], j)]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn partial_pivot_singular_fails() {
        let mut a = rand_mat(6, 6, 23);
        // make column 3 a copy of column 1 → singular
        for i in 0..6 {
            let v = a[(i, 1)];
            a[(i, 3)] = v;
        }
        assert!(lu_partial_pivot(&mut a).is_err());
    }

    #[test]
    fn unit_lower_solve_consistency() {
        // LU from no-pivot then solve via trsm: A·x = b round trip
        use tcevd_matrix::blas3::{trsm, Side};
        use tcevd_matrix::Op;
        let a = diag_dominant(6, 4);
        let mut p = a.clone();
        lu_nopivot(p.as_mut()).unwrap();
        let x_true = rand_mat(6, 2, 5);
        let b = tcevd_matrix::blas3::matmul(a.as_ref(), Op::NoTrans, x_true.as_ref(), Op::NoTrans);
        let mut x = b.clone();
        trsm(
            Side::Left,
            1.0,
            p.as_ref(),
            Op::NoTrans,
            true,
            true,
            x.as_mut(),
        ); // L
        trsm(
            Side::Left,
            1.0,
            p.as_ref(),
            Op::NoTrans,
            false,
            false,
            x.as_mut(),
        ); // U
        assert!(x.max_abs_diff(&x_true) < 1e-11);
    }
}
