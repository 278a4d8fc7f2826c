//! General band → band reduction sweeps — the "successive" in Successive
//! Band Reduction (Bischof, Lang & Sun's framework, the paper's reference
//! [6]).
//!
//! [`band_reduce_sweep`] reduces bandwidth `b_from` to any `b_to < b_from`
//! with one chasing sweep (the tridiagonal chase is the `b_to = 1` special
//! case); [`multi_sweep_tridiagonalize`] composes sweeps along a bandwidth
//! schedule, e.g. `128 → 32 → 8 → 1`. Multi-sweep schedules do not reduce
//! the flop count, but each sweep's reflectors are long enough to block —
//! the direction the paper's §7 names for moving stage 2 onto the GPU.

use crate::bulge_packed::{chase_room, sweep};
use crate::storage::SymBand;
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::Mat;
use tcevd_trace::TraceSink;

/// One chasing sweep reducing a packed band matrix from its bandwidth to
/// `b_to` (`1 ≤ b_to < bandwidth`). Optionally accumulates the orthogonal
/// factor into `q` (right-multiplication), so composed sweeps share one Q.
pub fn band_reduce_sweep<T: Scalar>(
    band: &SymBand<T>,
    b_to: usize,
    q: Option<&mut Mat<T>>,
) -> SymBand<T> {
    let n = band.n();
    let b_from = band.bandwidth();
    assert!(b_to >= 1);
    if b_to >= b_from || n <= b_to + 1 {
        return band.clone();
    }
    let mut a = SymBand::pack_with_room(n, b_from, chase_room(n, b_from), |i, j| band.get(i, j));
    sweep(&mut a, b_from, b_to, q, &TraceSink::disabled());
    SymBand::pack_with_room(n, b_to, b_to, |i, j| a.get(i, j))
}

/// Reduce a band matrix to tridiagonal through a schedule of intermediate
/// bandwidths (each entry strictly smaller than the previous; a final `1`
/// is appended if missing). Returns `(diag, offdiag, Q)`.
pub fn multi_sweep_tridiagonalize<T: Scalar>(
    band: &SymBand<T>,
    schedule: &[usize],
    accumulate_q: bool,
) -> (Vec<T>, Vec<T>, Option<Mat<T>>) {
    let n = band.n();
    let mut q = accumulate_q.then(|| Mat::<T>::identity(n, n));
    let mut cur = band.clone();
    let mut last_b = cur.bandwidth();
    for &b_to in schedule.iter().chain(std::iter::once(&1)) {
        if b_to >= last_b {
            continue;
        }
        cur = band_reduce_sweep(&cur, b_to, q.as_mut());
        last_b = b_to;
        if last_b == 1 {
            break;
        }
    }
    if cur.bandwidth() != 1 {
        cur = band_reduce_sweep(&cur, 1, q.as_mut());
    }
    let (d, e) = cur.tridiagonal_parts();
    (d, e, q)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::bulge_packed::bulge_chase_packed;
    use tcevd_matrix::blas3::matmul;
    use tcevd_matrix::norms::{frobenius, orthogonality_residual};
    use tcevd_matrix::Op;

    fn band_matrix(n: usize, b: usize, seed: u64) -> SymBand<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(17);
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = Mat::<f64>::zeros(n, n);
        for j in 0..n {
            for i in j..(j + b + 1).min(n) {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        SymBand::from_dense(&a, b)
    }

    fn backward_error(orig: &SymBand<f64>, reduced: &SymBand<f64>, q: &Mat<f64>) -> f64 {
        let n = orig.n();
        let a = orig.to_dense();
        let b = reduced.to_dense();
        let qb = matmul(q.as_ref(), Op::NoTrans, b.as_ref(), Op::NoTrans);
        let qbqt = matmul(qb.as_ref(), Op::NoTrans, q.as_ref(), Op::Trans);
        let mut diff = a.clone();
        for j in 0..n {
            for i in 0..n {
                diff[(i, j)] -= qbqt[(i, j)];
            }
        }
        (frobenius(diff.as_ref()) / frobenius(a.as_ref())) / n as f64
    }

    #[test]
    fn single_sweep_reduces_bandwidth() {
        let src = band_matrix(40, 8, 1);
        let mut q = Mat::<f64>::identity(40, 40);
        let out = band_reduce_sweep(&src, 3, Some(&mut q));
        assert_eq!(out.bandwidth(), 3);
        assert!(orthogonality_residual(q.as_ref()) < 1e-12);
        assert!(backward_error(&src, &out, &q) < 1e-15);
    }

    #[test]
    fn sweep_to_tridiagonal_matches_direct_chase() {
        // b_to = 1 is the direct chase's own sweep: identical bits
        let src = band_matrix(30, 6, 2);
        let direct = bulge_chase_packed(&src, false);
        let swept = band_reduce_sweep(&src, 1, None);
        let (d, e) = swept.tridiagonal_parts();
        assert_eq!(d, direct.diag);
        assert_eq!(e, direct.offdiag);
    }

    #[test]
    fn multi_sweep_schedule_is_a_similarity() {
        let src = band_matrix(36, 12, 3);
        let (d, e, q) = multi_sweep_tridiagonalize(&src, &[6, 3], true);
        let q = q.unwrap();
        assert!(orthogonality_residual(q.as_ref()) < 1e-12 * 36.0);
        // rebuild tridiagonal and check the similarity
        let n = 36;
        let mut tri = SymBand::<f64>::zeros(n, 1);
        for i in 0..n {
            tri.set(i, i, d[i]);
            if i + 1 < n {
                tri.set(i + 1, i, e[i]);
            }
        }
        assert!(backward_error(&src, &tri, &q) < 1e-14);
    }

    #[test]
    fn schedules_agree_on_spectrum() {
        // different schedules must produce similar tridiagonals
        let src = band_matrix(32, 8, 4);
        let (d1, e1, _) = multi_sweep_tridiagonalize(&src, &[], false); // direct
        let (d2, e2, _) = multi_sweep_tridiagonalize(&src, &[4, 2], false);
        let m1: f64 =
            d1.iter().map(|x| x * x).sum::<f64>() + 2.0 * e1.iter().map(|x| x * x).sum::<f64>();
        let m2: f64 =
            d2.iter().map(|x| x * x).sum::<f64>() + 2.0 * e2.iter().map(|x| x * x).sum::<f64>();
        assert!((m1 - m2).abs() < 1e-10 * m1.abs().max(1.0));
        let t1: f64 = d1.iter().sum();
        let t2: f64 = d2.iter().sum();
        assert!((t1 - t2).abs() < 1e-11);
    }

    #[test]
    fn degenerate_schedules() {
        let src = band_matrix(12, 3, 5);
        // b_to ≥ bandwidth: unchanged
        let same = band_reduce_sweep(&src, 3, None);
        assert_eq!(same.to_dense().max_abs_diff(&src.to_dense()), 0.0);
        // schedule entries that don't decrease are skipped
        let (d, _, _) = multi_sweep_tridiagonalize(&src, &[5, 3, 3, 2], false);
        assert_eq!(d.len(), 12);
    }
}
