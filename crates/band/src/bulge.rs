//! Bulge chasing from dense band storage: band → tridiagonal (stage 2).
//!
//! [`bulge_chase_with`] packs the lower band of a dense matrix at the
//! chase's working width and runs the one chase in
//! [`crate::bulge_packed`], so dense and packed inputs go through the same
//! kernel and return the same bits.

use crate::bulge_packed::{chase, chase_room};
use crate::storage::SymBand;
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::Mat;
use tcevd_trace::TraceSink;

/// Result of a band→tridiagonal reduction: `B = Q·T·Qᵀ`.
pub struct BulgeResult<T: Scalar> {
    /// Diagonal of `T` (length n).
    pub diag: Vec<T>,
    /// Sub-diagonal of `T` (length n−1).
    pub offdiag: Vec<T>,
    /// Accumulated orthogonal factor (if requested).
    pub q: Option<Mat<T>>,
}

/// Reduce a symmetric band matrix (dense storage, half-bandwidth `b`) to
/// tridiagonal form by bulge chasing.
pub fn bulge_chase<T: Scalar>(band: &Mat<T>, b: usize, accumulate_q: bool) -> BulgeResult<T> {
    bulge_chase_with(band, b, accumulate_q, &TraceSink::disabled())
}

/// [`bulge_chase`] with observability: emits a `bulge_chase` span and
/// tallies `bulge_sweeps` / `bulge_reflectors` into `sink`. Reads the lower
/// band only; the result is bit-identical to
/// [`bulge_chase_packed_with`](crate::bulge_chase_packed_with) on
/// `SymBand::from_dense(band, b)`.
pub fn bulge_chase_with<T: Scalar>(
    band: &Mat<T>,
    b: usize,
    accumulate_q: bool,
    sink: &TraceSink,
) -> BulgeResult<T> {
    assert!(band.is_square());
    assert!(b >= 1);
    let n = band.rows();
    let work = SymBand::pack_with_room(n, b, chase_room(n, b), |i, j| band[(i, j)]);
    chase(work, b, accumulate_q, sink)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::bulge_chase_packed_with;
    use tcevd_factor::householder::{apply_reflector_left, apply_reflector_right, larfg};
    use tcevd_matrix::blas3::matmul;
    use tcevd_matrix::norms::{frobenius, orthogonality_residual};
    use tcevd_matrix::Op;

    /// The dense left/right chase the packed kernel replaced, kept as the
    /// oracle: same reflector schedule, each reflector applied as a left
    /// and a right sweep over the dense window `[src_col, e + b)`. Returns
    /// the tridiagonal `(diag, offdiag)` and the sweeps and reflectors it
    /// counted.
    fn dense_chase<T: Scalar>(band: &Mat<T>, b: usize) -> (Vec<T>, Vec<T>, u64, u64) {
        let n = band.rows();
        let mut a = band.clone();
        let (mut sweeps, mut reflectors) = (0, 0);
        if b > 1 && n > 2 {
            let mut v = vec![T::ZERO; b + 1];
            for j in 0..n - 2 {
                sweeps += 1;
                let mut src_col = j;
                let mut s = j + 1;
                loop {
                    let e = (s + b).min(n);
                    let len = e - s;
                    if len <= 1 {
                        break;
                    }
                    let alpha = a[(s, src_col)];
                    for (t, i) in (s + 1..e).enumerate() {
                        v[t + 1] = a[(i, src_col)];
                    }
                    let (beta, tau) = larfg(alpha, &mut v[1..len]);
                    v[0] = T::ONE;
                    reflectors += 1;
                    if tau != T::ZERO {
                        let wl = src_col;
                        let wh = (e + b).min(n);
                        apply_reflector_left(tau, &v[..len], a.view_mut(s, wl, len, wh - wl));
                        apply_reflector_right(tau, &v[..len], a.view_mut(wl, s, wh - wl, len));
                    }
                    a[(s, src_col)] = beta;
                    a[(src_col, s)] = beta;
                    for i in s + 1..e {
                        a[(i, src_col)] = T::ZERO;
                        a[(src_col, i)] = T::ZERO;
                    }
                    src_col = s;
                    s += b;
                    if s >= n {
                        break;
                    }
                }
            }
        }
        let diag = (0..n).map(|i| a[(i, i)]).collect();
        let offdiag = (0..n.saturating_sub(1)).map(|i| a[(i + 1, i)]).collect();
        (diag, offdiag, sweeps, reflectors)
    }

    /// Build a random symmetric band matrix.
    fn band_matrix(n: usize, b: usize, seed: u64) -> Mat<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
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
        a
    }

    fn tridiag_to_dense(d: &[f64], e: &[f64]) -> Mat<f64> {
        let n = d.len();
        let mut t = Mat::<f64>::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = d[i];
            if i + 1 < n {
                t[(i + 1, i)] = e[i];
                t[(i, i + 1)] = e[i];
            }
        }
        t
    }

    /// Eigenvalues of the symmetric tridiagonal `(d, e)`, ascending, by
    /// Sturm-count bisection in f64 to full precision.
    fn tridiag_eigenvalues(d: &[f64], e: &[f64]) -> Vec<f64> {
        let n = d.len();
        let r = (0..n)
            .map(|i| {
                let l = if i > 0 { e[i - 1].abs() } else { 0.0 };
                let u = if i + 1 < n { e[i].abs() } else { 0.0 };
                d[i].abs() + l + u
            })
            .fold(0.0, f64::max);
        // Number of eigenvalues below x.
        let count = |x: f64| {
            let mut q = 1.0;
            let mut below = 0;
            for i in 0..n {
                let off = if i > 0 { e[i - 1] * e[i - 1] / q } else { 0.0 };
                q = d[i] - x - off;
                if q == 0.0 {
                    q = -f64::MIN_POSITIVE;
                }
                below += usize::from(q < 0.0);
            }
            below
        };
        (0..n)
            .map(|k| {
                let (mut lo, mut hi) = (-r - 1.0, r + 1.0);
                for _ in 0..200 {
                    let mid = 0.5 * (lo + hi);
                    if mid == lo || mid == hi {
                        break;
                    }
                    if count(mid) > k {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                0.5 * (lo + hi)
            })
            .collect()
    }

    fn to_f64<T: Scalar>(x: &[T]) -> Vec<f64> {
        x.iter().map(|v| v.to_f64()).collect()
    }

    fn bits<T: Scalar>(x: &[T]) -> Vec<u64> {
        x.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// The constant `c` of the `c·n·u` bounds, `u` the precision's unit
    /// roundoff. The largest ratio over [`shapes`] is 1.9 (backward error,
    /// f64, n = 4, b = 3).
    const C: f64 = 4.0;

    /// Run the chase on one random band of precision `T` and hold it to the
    /// dense oracle and to backward stability:
    /// * `bulge_chase_with` and `bulge_chase_packed_with` agree bit for bit;
    /// * the sweep and reflector counts are the oracle's;
    /// * the spectrum of T is the oracle's within `c·n·u·‖B‖_F`;
    /// * `‖B − Q·T·Qᵀ‖_F ≤ c·n·u·‖B‖_F` and `‖QᵀQ − I‖ ≤ c·n·u`.
    fn check_against_oracle<T: Scalar>(n: usize, b: usize, seed: u64) {
        let a: Mat<T> = band_matrix(n, b, seed).cast();
        let sink = TraceSink::enabled();
        let r = bulge_chase_with(&a, b, true, &sink);
        let rp = bulge_chase_packed_with(&SymBand::from_dense(&a, b), true, &TraceSink::disabled());
        let q = r.q.as_ref().unwrap();
        let tag = format!("{} n={n} b={b}", T::NAME);
        assert_eq!(bits(&r.diag), bits(&rp.diag), "{tag}: diag");
        assert_eq!(bits(&r.offdiag), bits(&rp.offdiag), "{tag}: offdiag");
        assert_eq!(
            bits(q.as_slice()),
            bits(rp.q.as_ref().unwrap().as_slice()),
            "{tag}: Q"
        );

        let (oracle_d, oracle_e, sweeps, reflectors) = dense_chase(&a, b);
        assert_eq!(sink.counter("bulge_sweeps"), sweeps, "{tag}: sweeps");
        assert_eq!(
            sink.counter("bulge_reflectors"),
            reflectors,
            "{tag}: reflectors"
        );
        // The band work's count stays 6n²b; forming Q adds the group GEMMs'.
        let (n64, b64) = (n as u64, b as u64);
        assert_eq!(sink.counter("kernel_flops.bulge"), 6 * n64 * n64 * b64);
        let groups = sink.counter("bulge_q_groups");
        assert_eq!(groups > 0, reflectors > 0, "{tag}: groups");
        assert_eq!(sink.counter("kernel_flops.bulge_q") > 0, groups > 0);

        let a64: Mat<f64> = a.cast();
        let norm = frobenius(a64.as_ref());
        let unit = n as f64 * T::EPSILON.to_f64() * 0.5;
        let got = tridiag_eigenvalues(&to_f64(&r.diag), &to_f64(&r.offdiag));
        let want = tridiag_eigenvalues(&to_f64(&oracle_d), &to_f64(&oracle_e));
        let spec = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max);
        assert!(
            spec <= C * unit * norm,
            "{tag}: spectrum off by {:.2} n·u·‖B‖",
            spec / (unit * norm)
        );

        let q64: Mat<f64> = q.cast();
        let t = tridiag_to_dense(&to_f64(&r.diag), &to_f64(&r.offdiag));
        let qt = matmul(q64.as_ref(), Op::NoTrans, t.as_ref(), Op::NoTrans);
        let qtqt = matmul(qt.as_ref(), Op::NoTrans, q64.as_ref(), Op::Trans);
        let mut diff = a64.clone();
        for j in 0..n {
            for i in 0..n {
                diff[(i, j)] -= qtqt[(i, j)];
            }
        }
        let backward = frobenius(diff.as_ref());
        assert!(
            backward <= C * unit * norm,
            "{tag}: backward error {:.2} n·u·‖B‖",
            backward / (unit * norm)
        );
        let orth = orthogonality_residual(q64.as_ref());
        assert!(
            orth <= C * unit,
            "{tag}: orthogonality {:.2} n·u",
            orth / unit
        );
    }

    /// The shapes around every boundary of the schedule — n at b+1, b+2,
    /// 2b, 2b+1, 3b+1, a dense band (b = n−1) — plus the shapes the
    /// previous per-case tests used.
    fn shapes() -> Vec<(usize, usize)> {
        let mut shapes = vec![
            (8, 2),
            (8, 3),
            (10, 2),
            (12, 3),
            (12, 4),
            (16, 4),
            (24, 10),
            (25, 8),
            (32, 4),
            (33, 4),
            (37, 5),
            (40, 5),
            (40, 6),
        ];
        for b in [2, 3, 8] {
            for n in [3, 4, b + 1, b + 2, 2 * b, 2 * b + 1, 3 * b + 1, 100] {
                shapes.push((n, b));
                shapes.push((n, n - 1));
            }
        }
        shapes.sort_unstable();
        shapes.dedup();
        shapes
    }

    #[test]
    fn matches_dense_oracle_f64() {
        for (k, (n, b)) in shapes().into_iter().enumerate() {
            check_against_oracle::<f64>(n, b, k as u64);
        }
    }

    #[test]
    fn matches_dense_oracle_f32() {
        for (k, (n, b)) in shapes().into_iter().enumerate() {
            check_against_oracle::<f32>(n, b, 1000 + k as u64);
        }
    }

    #[test]
    fn already_tridiagonal_passthrough() {
        let a = band_matrix(10, 1, 9);
        let r = bulge_chase(&a, 1, true);
        for i in 0..10 {
            assert_eq!(r.diag[i], a[(i, i)]);
            if i + 1 < 10 {
                assert_eq!(r.offdiag[i], a[(i + 1, i)]);
            }
        }
        // Q must be identity
        let q = r.q.unwrap();
        assert_eq!(q.max_abs_diff(&Mat::identity(10, 10)), 0.0);
    }

    #[test]
    fn eigenvalue_preservation_via_trace_moments() {
        // tr(T) = tr(B) and tr(T²) = tr(B²) under similarity.
        let n = 20;
        let a = band_matrix(n, 3, 10);
        let r = bulge_chase(&a, 3, false);
        let tr_a: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let tr_t: f64 = r.diag.iter().sum();
        assert!((tr_a - tr_t).abs() < 1e-12);
        let a2 = matmul(a.as_ref(), Op::NoTrans, a.as_ref(), Op::NoTrans);
        let tr_a2: f64 = (0..n).map(|i| a2[(i, i)]).sum();
        let tr_t2: f64 = r.diag.iter().map(|d| d * d).sum::<f64>()
            + 2.0 * r.offdiag.iter().map(|e| e * e).sum::<f64>();
        assert!((tr_a2 - tr_t2).abs() < 1e-11 * tr_a2.abs().max(1.0));
    }

    #[test]
    fn tiny_matrices() {
        for n in [1usize, 2, 3] {
            let a = band_matrix(n, (n.max(2)) - 1, 11 + n as u64);
            let b = (n.max(2)) - 1;
            let r = bulge_chase(&a, b.max(1), true);
            assert_eq!(r.diag.len(), n);
            assert_eq!(r.offdiag.len(), n.saturating_sub(1));
        }
    }
}
