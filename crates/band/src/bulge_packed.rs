//! The bulge chase: symmetric band → tridiagonal (the second stage of
//! two-stage tridiagonalization; MAGMA's `ssytrd_sb2st` stand-in), on
//! packed band storage — O(n·b) memory instead of a dense O(n²) copy.
//!
//! Householder-based chase (Schwarz / SBR-toolbox style): for each column
//! `j`, a length-≤b reflector annihilates the below-subdiagonal band
//! entries; the two-sided application pushes a bulge `b` rows down, which
//! the next reflector annihilates, until the bulge falls off the matrix.
//! While it is chased the band widens to 2b, so the input is packed once
//! into a [`SymBand`] of bandwidth `2b`.
//!
//! Each reflector only touches the window of rows and columns
//! `[src, e + b)` (its source column through one bandwidth below its
//! support `[s, e)`), so the chase costs `O(n²·b)` — the complexity the
//! paper cites when discussing why the bandwidth cannot grow unboundedly.
//! Reflectors are applied in the symmetric rank-2 form
//! `A ← A − v·wᵀ − w·vᵀ` (with `w = τ(A·v − ½τ(vᵀA·v)v)`), which in lower
//! packed storage is a set of dots and axpys over contiguous column
//! slices; see [`two_sided_packed`].
//!
//! When `Q₂` is requested, the reflectors of 16 consecutive sweeps are
//! buffered and applied to it as compact-WY groups, two thin GEMMs each,
//! in an order that keeps the sequential product (see [`crate::qupdate`]).
//! The band work and its bits do not depend on it.
//!
//! Generic over [`Scalar`]: the f32 pipeline and the f64 reference use the
//! same code.

use crate::bulge::BulgeResult;
use crate::qupdate::QAccumulator;
use crate::storage::SymBand;
use tcevd_factor::householder::larfg;
use tcevd_matrix::blas1::dot;
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::tile::{row_kernels, RowKernels};
use tcevd_matrix::Mat;
use tcevd_trace::{span, TraceSink};

/// Band → tridiagonal reduction on packed storage.
///
/// `accumulate_q` builds the dense n×n orthogonal factor (the only O(n²)
/// object; leave it off for eigenvalues-only pipelines).
pub fn bulge_chase_packed<T: Scalar>(band: &SymBand<T>, accumulate_q: bool) -> BulgeResult<T> {
    bulge_chase_packed_with(band, accumulate_q, &TraceSink::disabled())
}

/// [`bulge_chase_packed`] with observability: emits a `bulge_chase` span
/// and tallies `bulge_sweeps` / `bulge_reflectors` into `sink`.
pub fn bulge_chase_packed_with<T: Scalar>(
    band: &SymBand<T>,
    accumulate_q: bool,
    sink: &TraceSink,
) -> BulgeResult<T> {
    let (n, b) = (band.n(), band.bandwidth());
    let work = SymBand::pack_with_room(n, b, chase_room(n, b), |i, j| band.get(i, j));
    chase(work, b, accumulate_q, sink)
}

/// Working bandwidth of a chase of bandwidth `b`: room for the bulge.
pub(crate) fn chase_room(n: usize, b: usize) -> usize {
    (2 * b).min(n.saturating_sub(1)).max(1)
}

/// Chase the band of bandwidth `b` held in `a` (packed with
/// [`chase_room`]) down to tridiagonal form.
pub(crate) fn chase<T: Scalar>(
    mut a: SymBand<T>,
    b: usize,
    accumulate_q: bool,
    sink: &TraceSink,
) -> BulgeResult<T> {
    let n = a.n();
    let _span = span!(sink, "bulge_chase", n, b);
    // Stage-2 leading-term flop count (6n²b), matching the perfmodel.
    sink.add("kernel_flops.bulge", 6 * (n as u64) * (n as u64) * b as u64);
    let mut q = accumulate_q.then(|| Mat::<T>::identity(n, n));
    if b > 1 && n > 2 {
        sweep(&mut a, b, q.as_mut(), sink);
    }
    let diag = (0..n).map(|i| a.get(i, i)).collect();
    let offdiag = (0..n.saturating_sub(1)).map(|i| a.get(i + 1, i)).collect();
    BulgeResult { diag, offdiag, q }
}

/// The chasing sweeps reducing the band of bandwidth `b` held in `a`
/// (packed with [`chase_room`]) to tridiagonal, optionally accumulating the
/// reflectors into `q` (right-multiplication). Outer iteration `j`
/// annihilates column `j` below row `j + 1` and chases the bulge this
/// creates off the bottom of the band; tallies `bulge_sweeps` /
/// `bulge_reflectors` into `sink`.
fn sweep<T: Scalar>(a: &mut SymBand<T>, b: usize, q: Option<&mut Mat<T>>, sink: &TraceSink) {
    let n = a.n();
    // Q accumulation is the chase's O(n³) term (the band work is only
    // O(n²·b)); see `crate::qupdate` for how it groups the reflectors into
    // GEMMs and how it skips the rows of Q that are still zero.
    let mut acc = q.map(|q| QAccumulator::new(q, b));
    let mut ws = Workspace::new(n, b);
    for j in 0..n.saturating_sub(2) {
        sink.add("bulge_sweeps", 1);
        let (mut src, mut s) = (j, j + 1);
        while s < n {
            let e = (s + b).min(n);
            if e - s <= 1 {
                break;
            }
            let tau = annihilate(a, src, s, e, (e + b).min(n), &mut ws);
            sink.add("bulge_reflectors", 1);
            if let Some(acc) = acc.as_mut().filter(|_| tau != T::ZERO) {
                acc.push(s, tau, &ws.v[..e - s]);
            }
            src = s;
            s += b;
        }
        if let Some(acc) = acc.as_mut() {
            acc.end_sweep();
        }
    }
    if let Some(acc) = acc.as_mut() {
        acc.finish();
        sink.add("bulge_q_groups", acc.groups);
        sink.add("kernel_flops.bulge_q", acc.flops);
    }
}

/// Scratch for one sweep: the reflector, the `A·v` product over a window,
/// and the row kernels, selected once per sweep.
struct Workspace<T> {
    v: Vec<T>,
    w: Vec<T>,
    rk: RowKernels<T>,
}

impl<T: Scalar> Workspace<T> {
    /// Scratch for reflectors of length ≤ `len` on an n×n band.
    fn new(n: usize, len: usize) -> Self {
        Workspace {
            v: vec![T::ZERO; len],
            // The window (src, e + len) spans fewer than 3·len rows: src is
            // at least s − len, and e at most s + len.
            w: vec![T::ZERO; 3 * len],
            rk: row_kernels::<T>(n),
        }
    }
}

/// One chase step: annihilate `A[s+1..e, src]` with a Householder
/// reflector `H` that keeps `A[s, src]`, and apply `A ← H·A·H` over the
/// window `(src, hi)`. Returns `τ`; the reflector is left in `ws.v[..e − s]`.
fn annihilate<T: Scalar>(
    a: &mut SymBand<T>,
    src: usize,
    s: usize,
    e: usize,
    hi: usize,
    ws: &mut Workspace<T>,
) -> T {
    let len = e - s;
    let x = &a.col(src)[s - src..e - src];
    ws.v[1..len].copy_from_slice(&x[1..]);
    let (beta, tau) = larfg(x[0], &mut ws.v[1..len]);
    ws.v[0] = T::ONE;
    if tau != T::ZERO {
        two_sided_packed(a, src, s, e, hi, tau, ws);
    }
    // Exact zeros in the annihilated entries.
    let x = &mut a.col_mut(src)[s - src..e - src];
    x[0] = beta;
    x[1..].fill(T::ZERO);
    tau
}

/// Symmetric two-sided reflector application on packed storage:
/// `A ← H·A·H` with `H = I − τ·v·vᵀ`, `v = ws.v` supported on rows
/// `[s, e)`, restricted to the rows and columns `(src, hi)` outside which
/// the chase schedule keeps the reflector's rows and columns zero. Column
/// `src` is left to the caller, which overwrites it with the annihilated
/// result.
///
/// With `w = τ(A·v − ½τ(vᵀA·v)v)` indexed from row `src + 1`, the update
/// `A ← A − v·wᵀ − w·vᵀ` of the lower band is, column by column:
/// * `c ∈ (src, s)`: rows `[s, e)` less `w_c·v`;
/// * `c ∈ [s, e)`: rows `[c, hi)` less `v_c·w`, rows `[c, e)` less `w_c·v`.
///
/// Each is one contiguous column slice, and so is each part of `A·v`.
fn two_sided_packed<T: Scalar>(
    a: &mut SymBand<T>,
    src: usize,
    s: usize,
    e: usize,
    hi: usize,
    tau: T,
    ws: &mut Workspace<T>,
) {
    let lo = src + 1;
    let Workspace { v, w, rk } = ws;
    let v = &v[..e - s];
    let w = &mut w[..hi - lo];

    // w = τ·A·v: the rows above the support read column r against v, the
    // support's columns add their lower part and its transpose.
    for (r, wr) in (lo..s).zip(w.iter_mut()) {
        *wr = dot(&a.col(r)[s - r..e - r], v);
    }
    w[s - lo..].fill(T::ZERO);
    for (c, &vc) in (s..e).zip(v.iter()) {
        let col = a.col(c);
        (rk.acc)(vc, &col[..hi - c], &mut w[c - lo..]);
        w[c - lo] += dot(&col[1..e - c], &v[c + 1 - s..]);
    }
    for x in w.iter_mut() {
        *x *= tau;
    }
    // w −= ½τ(wᵀv)·v on the support.
    let alpha = T::HALF * tau * dot(&w[s - lo..e - lo], v);
    (rk.sub)(alpha, v, &mut w[s - lo..e - lo]);

    for (c, &wc) in (lo..s).zip(w.iter()) {
        (rk.sub)(wc, v, &mut a.col_mut(c)[s - c..e - c]);
    }
    for (c, &vc) in (s..e).zip(v.iter()) {
        let col = a.col_mut(c);
        (rk.sub)(vc, &w[c - lo..], &mut col[..hi - c]);
        (rk.sub)(w[c - lo], &v[c - s..], &mut col[..e - c]);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

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

    #[test]
    fn tridiagonal_passthrough() {
        let dense = band_matrix(8, 1, 8);
        let packed = SymBand::from_dense(&dense, 1);
        let r = bulge_chase_packed(&packed, false);
        for i in 0..8 {
            assert_eq!(r.diag[i], dense[(i, i)]);
        }
    }

    #[test]
    fn eigenvalues_preserved() {
        // moments check without Q
        let n = 30;
        let dense = band_matrix(n, 4, 9);
        let packed = SymBand::from_dense(&dense, 4);
        let r = bulge_chase_packed(&packed, false);
        let tr_a: f64 = (0..n).map(|i| dense[(i, i)]).sum();
        let tr_t: f64 = r.diag.iter().sum();
        assert!((tr_a - tr_t).abs() < 1e-11);
    }
}
