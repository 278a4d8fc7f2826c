//! Communication-avoiding Tall-Skinny QR (TSQR).
//!
//! The panel factorization at the heart of the paper's §5.1: the m×b panel
//! is split into row blocks, each block is QR-factorized independently
//! (Householder per block — *not* modified Gram–Schmidt — for stability,
//! exactly the modification the paper makes to the QR of Zhang et al.), and the
//! stacked R factors are reduced pairwise up a binary tree. Walking back
//! down the tree yields the explicit thin `Q`.
//!
//! On the GPU each leaf is a warp; here each leaf is a rayon task spawned
//! through `rayon::join`, giving the same tree parallelism on CPU cores.

use crate::qr::{extract_r, geqr2, orgqr};
use tcevd_matrix::blas3::matmul;
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::{Mat, MatRef, Op};
use tcevd_trace::{span, TraceSink};

/// Minimum rows per leaf before recursion stops (≥ 2·cols keeps leaves tall).
///
/// Chosen by measurement, and a function of the shape only (never of the
/// thread count, so the tree — and every bit of `Q` and `R` — is the same
/// at any pool size). Each tree level adds a `2n×n` QR, two `Q` products
/// and copies, about `2mn²` flops per level; a flat Householder leaf costs
/// none of that. On one Sapphire Rapids core (f32, n = 32), every SBR panel
/// of an n = 1024, b = 32 reduction (m = 992, 960, …, 32) took 0.080 s in
/// total at a 64-row leaf, 0.061 s at 128, 0.043 s at 256, 0.035 s at 512
/// and 0.029 s at 1024, where every one of those panels is a single leaf.
/// Taller panels still split, which keeps independent leaves for
/// `rayon::join` on multi-core hosts; on one core that split costs 25% over
/// a flat leaf at 2048×32, nothing at 4096×32 and 40% at 16384×32.
const MIN_LEAF_ROWS: usize = 1024;

/// Tall-skinny QR: returns `(Q, R)` with `Q` the explicit thin m×n
/// orthonormal factor and `R` upper triangular n×n, `A = Q·R`.
///
/// Requires `m ≥ n`. Runs the reduction tree in parallel via `rayon::join`.
///
/// ```
/// use tcevd_factor::tsqr;
/// use tcevd_matrix::{Mat, Op, norms::orthogonality_residual, blas3::matmul};
///
/// let a = Mat::<f64>::from_fn(500, 8, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
/// let (q, r) = tsqr(a.as_ref());
/// assert!(orthogonality_residual(q.as_ref()) < 1e-12);
/// let qr = matmul(q.as_ref(), Op::NoTrans, r.as_ref(), Op::NoTrans);
/// assert!(qr.max_abs_diff(&a) < 1e-11);
/// ```
pub fn tsqr<T: Scalar>(a: MatRef<'_, T>) -> (Mat<T>, Mat<T>) {
    tsqr_with(a, &TraceSink::disabled())
}

/// [`tsqr`] with observability: emits a `tsqr` span and counts leaf
/// factorizations (`tsqr_leaves`) into `sink`.
pub fn tsqr_with<T: Scalar>(a: MatRef<'_, T>, sink: &TraceSink) -> (Mat<T>, Mat<T>) {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "TSQR requires a tall matrix (m ≥ n), got {m}×{n}");
    let _span = span!(sink, "tsqr", m, n);
    if n == 0 {
        return (Mat::zeros(m, 0), Mat::zeros(0, 0));
    }
    tsqr_rec(a, sink)
}

fn tsqr_rec<T: Scalar>(a: MatRef<'_, T>, sink: &TraceSink) -> (Mat<T>, Mat<T>) {
    let (m, n) = (a.rows(), a.cols());
    let leaf_rows = MIN_LEAF_ROWS.max(2 * n);
    if m <= leaf_rows {
        sink.add("tsqr_leaves", 1);
        return qr_leaf(a);
    }
    // Split rows in half, keeping both halves ≥ n rows.
    let half = (m / 2).max(n);
    let top = a.view(0, 0, half, n);
    let bot = a.view(half, 0, m - half, n);
    let ((q1, r1), (q2, r2)) = rayon::join(|| tsqr_rec(top, sink), || tsqr_rec(bot, sink));

    // Combine: QR of the stacked [R1; R2] (2n×n).
    let mut stacked = Mat::<T>::zeros(2 * n, n);
    stacked.view_mut(0, 0, n, n).copy_from(r1.as_ref());
    stacked.view_mut(n, 0, n, n).copy_from(r2.as_ref());
    let (q3, r) = qr_leaf(stacked.as_ref());

    // Q = [Q1·Q3_top; Q2·Q3_bot]
    let mut q = Mat::<T>::zeros(m, n);
    let (q3t, q3b) = (q3.view(0, 0, n, n), q3.view(n, 0, n, n));
    rayon::join(
        || {
            let prod = matmul(q1.as_ref(), Op::NoTrans, q3t, Op::NoTrans);
            prod
        },
        || matmul(q2.as_ref(), Op::NoTrans, q3b, Op::NoTrans),
    )
    .pipe(|(qt, qb)| {
        q.view_mut(0, 0, half, n).copy_from(qt.as_ref());
        q.view_mut(half, 0, m - half, n).copy_from(qb.as_ref());
    });
    (q, r)
}

/// Base case: dense Householder QR producing explicit Q and R.
fn qr_leaf<T: Scalar>(a: MatRef<'_, T>) -> (Mat<T>, Mat<T>) {
    let mut packed = a.to_owned();
    let tau = geqr2(packed.as_mut());
    let q = orgqr(packed.as_ref(), &tau);
    let n = a.cols();
    let r = extract_r(packed.view(0, 0, a.rows().min(n), n));
    (q, r)
}

/// Small pipe helper to keep the join/copy flow readable.
trait Pipe: Sized {
    fn pipe<R>(self, f: impl FnOnce(Self) -> R) -> R {
        f(self)
    }
}
impl<T> Pipe for T {}

/// Flop count of TSQR on an m×n panel (for the performance model):
/// leaf QRs + tree combines + Q formation, ≈ 4mn² + O(n³·log).
pub fn tsqr_flops(m: usize, n: usize) -> u64 {
    let (m, n) = (m as u64, n as u64);
    // 2mn² (factor) + 2mn² (form Q) as the leading terms
    4 * m * n * n
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcevd_matrix::norms::orthogonality_residual;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(99);
        Mat::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn check_tsqr(m: usize, n: usize, seed: u64, tol: f64) {
        let a = rand_mat(m, n, seed);
        let (q, r) = tsqr(a.as_ref());
        assert_eq!((q.rows(), q.cols()), (m, n));
        assert_eq!((r.rows(), r.cols()), (n, n));
        // R upper triangular
        for j in 0..n {
            for i in j + 1..n {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
        // Q orthonormal
        assert!(
            orthogonality_residual(q.as_ref()) < tol * m as f64,
            "orthogonality {} at {}x{}",
            orthogonality_residual(q.as_ref()),
            m,
            n
        );
        // A = Q·R
        let qr = matmul(q.as_ref(), Op::NoTrans, r.as_ref(), Op::NoTrans);
        assert!(qr.max_abs_diff(&a) < tol * (m as f64), "A != QR at {m}x{n}");
    }

    #[test]
    fn leaf_sized_panel() {
        check_tsqr(48, 8, 1, 1e-13);
    }

    /// Leaves in the tree of an m×n panel, counted through the trace sink.
    fn leaves(m: usize, n: usize) -> u64 {
        let sink = TraceSink::enabled();
        let _ = tsqr_with(rand_mat(m, n, 9).as_ref(), &sink);
        sink.counter("tsqr_leaves")
    }

    #[test]
    fn leaf_count_follows_the_leaf_height() {
        assert_eq!(leaves(MIN_LEAF_ROWS, 32), 1);
        assert_eq!(leaves(MIN_LEAF_ROWS + 1, 32), 2);
        assert_eq!(leaves(4500, 32), 8);
    }

    #[test]
    fn one_level_tree() {
        check_tsqr(1500, 16, 2, 1e-13);
    }

    #[test]
    fn deep_tree() {
        // 4500 → 2250 → 1125 → 562/563: three levels, eight leaves
        check_tsqr(4500, 32, 3, 1e-13);
    }

    #[test]
    fn ragged_split_sizes() {
        check_tsqr(2333, 7, 4, 1e-13);
        check_tsqr(1029, 5, 5, 1e-13);
    }

    #[test]
    fn square_input_allowed() {
        check_tsqr(16, 16, 6, 1e-12);
    }

    #[test]
    fn single_column() {
        check_tsqr(500, 1, 7, 1e-13);
    }

    #[test]
    #[should_panic(expected = "TSQR requires a tall matrix")]
    fn wide_input_panics() {
        let a = Mat::<f64>::zeros(3, 5);
        let _ = tsqr(a.as_ref());
    }

    #[test]
    fn r_matches_direct_qr_up_to_signs() {
        let a = rand_mat(2100, 10, 8);
        let (_, r_tree) = tsqr(a.as_ref());
        let mut p = a.clone();
        let _tau = geqr2(p.as_mut());
        let r_direct = extract_r(p.view(0, 0, 10, 10));
        // R factors agree up to row signs
        for i in 0..10 {
            let s = if (r_tree[(i, i)] >= 0.0) == (r_direct[(i, i)] >= 0.0) {
                1.0
            } else {
                -1.0
            };
            for j in i..10 {
                assert!(
                    (r_tree[(i, j)] - s * r_direct[(i, j)]).abs() < 1e-11,
                    "({i},{j})"
                );
            }
        }
    }
}
