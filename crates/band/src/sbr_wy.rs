//! The blocked successive band reduction: the paper's Algorithm 1 (WY) and
//! the detached band reduction (DBR, Wang et al., arXiv 2410.02170) as one
//! loop with the block-end update as a parameter.
//!
//! The key idea: inside a *large* block of `nb` columns (`nb ≫ b`), only the
//! **next panel's columns** are updated after each panel QR — always against
//! the *original* trailing matrix `OA` of the current recursion level, using
//! the aggregated `W`, `Y`:
//!
//! ```text
//! GA = (I − W·Yᵀ)ᵀ · OA · (I − W·Yᵀ)   restricted to the next b columns
//! ```
//!
//! The full trailing matrix is updated only once per big block, with inner
//! GEMM dimension `k = nb` — a near-square shape Tensor Cores run at full
//! rate, instead of the `k = b ≤ 256` tall-skinny shapes of the ZY method.
//! The price (paper Table 2): the aggregated `W` must be maintained
//! (`w ← w − W·(Yᵀ·w)`), and the inner-loop updates recompute `OA·W` with
//! growing `k` — more flops, but spent in fat GEMMs.
//!
//! Unlike the ZY form, no `Z` (which depends on the *fully updated* trailing
//! matrix) is ever needed — that is precisely why the update can be deferred
//! (paper §4.2.1 vs §4.2.2).
//!
//! The once-per-block trailing update expands to
//!
//! ```text
//! GA = OA − T1·Yᵀ − Y·T1ᵀ + Y·T2·Yᵀ ,     T1 = OA·W ,  T2 = Wᵀ·T1
//! ```
//!
//! and [`BlockEnd`] picks how it is written. [`BlockEnd::ThreeGemm`] is the
//! paper's form: three full rank-`k` GEMMs plus `Y·T2`. [`BlockEnd::Syr2k`]
//! is DBR's: `T2` is symmetric (since `OA` is), so the middle term folds into
//! one wing, `V = T1 − ½·Y·T2`, and `GA = OA − V·Yᵀ − Y·Vᵀ` is a single
//! rank-`nb` syr2k — half the trailing arithmetic on an engine with a native
//! symmetric kernel, and on any engine the near-square shape the recursive
//! `tcevd_matrix::blas3::syr2k_lower` splits into packed GEMMs. That frees
//! `nb` from `b`: `b` stays small for cheap bulge chasing while `nb` grows
//! (the crossover sweep lives in `reproduce dbr`).
//!
//! At `nb = b` the syr2k end is the conventional ZY reduction (Dongarra,
//! Sorensen & Hammarling 1989; MAGMA's `ssytrd_sy2sb`). Each level has one
//! panel, so the block end covers the level's whole trailing block and the
//! next-panel update is skipped: per panel, `AW = OA·W` (`wy_aw_append`),
//! `Wᵀ·AW` (`wy_final_waw`), `Z = AW − ½·Y·(Wᵀ·AW)` (`dbr_final_v`) and one
//! rank-2b syr2k (`dbr_syr2k`), every GEMM at inner dimension `b`. With one
//! panel per level nothing is deferred, so `Z`, which needs the fully
//! updated trailing matrix, is at hand.
//!
//! # Workspace
//!
//! The loop holds only what the next step reads. Each level needs its
//! original trailing matrix `OA` (mp×mp, `mp = m − b`), which only the
//! panel loop reads; the block end takes `T1` from the cached `AW` and
//! updates `a`'s trailing block in place, since the panel loop writes only
//! the rows and columns above `processed` and leaves `OA_t` there. Where
//! `OA` comes from depends on the level:
//!
//! * level 0 reads it from the caller's input, which the loop never
//!   writes;
//! * the one-panel (ZY) setting reads it from `a`'s trailing block, since
//!   its one panel writes only columns `off..off+b` and their mirror;
//! * every other level copies it, because the next-panel updates overwrite
//!   `a`'s trailing block while the panel loop still reads `OA`. The copy
//!   is dropped when the panel loop ends.
//!
//! The level's `(W, Y)` is recorded only when the caller asks for it (the
//! FormW back-transformation reads it; the eigenvalues-only pipeline does
//! not), and only after the block end, its last reader in the loop, so a
//! full-width aggregate moves into the level instead of being copied. At
//! the sizes `tests/stage_workspace.rs` measures (b = 32,
//! nb = 256, n = 1024) the peak is at level 1's first panel, with these
//! buffers alive:
//!
//! * the working copy of the input (n×n);
//! * level 1's copy of `OA` (mp×mp);
//! * the aggregates `W`, `Y` and `AW` (mp×kmax each, `kmax = min(nb, mp)`);
//! * the panel temporaries: the factored panel's `W`, `Y` and reduced
//!   panel, the panel's mirror, and the next-panel update's `X`, its
//!   written rows and their mirror (seven mp×b blocks), plus `WX` (k×b);
//! * when levels are recorded, level 0's `(W, Y)`.
//!
//! Level 0 holds the same list with its larger mp but without the `OA`
//! copy, and peaks below level 1 at this size. That test holds the
//! measured peak to this list.

use crate::common::{accumulate_q_right, symmetrize_band, symmetrize_view};
use crate::panel::{factor_panel_with, PanelKind};
use tcevd_matrix::{Mat, MatMut, MatRef, Op};
use tcevd_tensorcore::GemmContext;
use tcevd_trace::span;

/// Configuration for the blocked SBR.
#[derive(Copy, Clone, Debug)]
pub struct WyOptions {
    /// Target bandwidth `b` (panel width).
    pub bandwidth: usize,
    /// Big-block width `nb` (rounded down to a multiple of `b`, min `b`).
    /// The paper's sweet spot on A100 is 1024 (its Figure 5).
    pub block: usize,
    /// Panel factorization algorithm.
    pub panel: PanelKind,
    /// Accumulate the orthogonal transform.
    pub accumulate_q: bool,
}

impl Default for WyOptions {
    fn default() -> Self {
        WyOptions {
            bandwidth: 32,
            block: 256,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        }
    }
}

/// How [`sbr_blocked`] writes the once-per-block trailing update
/// `OA − T1·Yᵀ − Y·T1ᵀ + Y·T2·Yᵀ`. Both compute the same transform in a
/// different arithmetic order; the panel and next-panel recursion is shared.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BlockEnd {
    /// The paper's WY form: `Y·T2` plus three rank-`k` GEMMs
    /// (`wy_final_u1..u3`).
    ThreeGemm,
    /// The detached band reduction: `V = T1 − ½·Y·T2` (`dbr_final_v`), then
    /// one syr2k `OA − V·Yᵀ − Y·Vᵀ` (`dbr_syr2k`). At `nb = b` this is the
    /// conventional ZY reduction, with `V` its `Z`.
    Syr2k,
}

/// Per-level aggregated `(W, Y)` pair, for the recursive FormW
/// back-transformation (paper Algorithm 2). Rows are in *global* matrix
/// coordinates starting at `row_offset`.
pub struct LevelWy {
    pub row_offset: usize,
    pub w: Mat<f32>,
    pub y: Mat<f32>,
}

/// Result of the blocked SBR: the band matrix, optional accumulated `Q`,
/// and the per-level WY factors (inputs to [`crate::formw`]).
pub struct WySbrResult {
    pub band: Mat<f32>,
    pub q: Option<Mat<f32>>,
    pub levels: Vec<LevelWy>,
}

/// Reduce symmetric `a` to band form with the recursive WY algorithm
/// (paper Algorithm 1): [`sbr_blocked`] with [`BlockEnd::ThreeGemm`],
/// recording every level's `(W, Y)`.
///
/// Returns [`crate::BandError`] (rather than panicking) on a non-square
/// input, a zero bandwidth, or non-finite entries.
///
/// ```
/// use tcevd_band::{sbr_wy, WyOptions, PanelKind, max_outside_band};
/// use tcevd_tensorcore::{Engine, GemmContext};
/// use tcevd_matrix::Mat;
///
/// let a: Mat<f32> = tcevd_testmat::generate(48, tcevd_testmat::MatrixType::Normal, 1).cast();
/// let ctx = GemmContext::new(Engine::Tc);
/// let r = sbr_wy(&a, &WyOptions {
///     bandwidth: 8, block: 16, panel: PanelKind::Tsqr, accumulate_q: false,
/// }, &ctx).expect("finite square input");
/// assert_eq!(max_outside_band(r.band.as_ref(), 8), 0.0);
/// ```
pub fn sbr_wy(
    a: &Mat<f32>,
    opts: &WyOptions,
    ctx: &GemmContext,
) -> Result<WySbrResult, crate::BandError> {
    sbr_blocked(a, opts, BlockEnd::ThreeGemm, true, ctx)
}

/// Reduce symmetric `a` to band form with the blocked SBR, writing each
/// block's trailing update as `end` says. With `record_levels` set, each
/// level's `(W, Y)` factors are kept in [`WySbrResult::levels`], so
/// FormW serves either block end, ZY (`Syr2k` at `nb = b`) included;
/// without it `levels` is empty and the band is the same, bit for bit.
///
/// Returns [`crate::BandError`] (rather than panicking) on a non-square
/// input, a zero bandwidth, or non-finite entries.
///
/// ```
/// use tcevd_band::{sbr_blocked, BlockEnd, WyOptions, PanelKind, max_outside_band};
/// use tcevd_tensorcore::{Engine, GemmContext};
/// use tcevd_matrix::Mat;
///
/// let a: Mat<f32> = tcevd_testmat::generate(48, tcevd_testmat::MatrixType::Normal, 1).cast();
/// let ctx = GemmContext::new(Engine::Sgemm);
/// let r = sbr_blocked(&a, &WyOptions {
///     bandwidth: 8, block: 32, panel: PanelKind::Tsqr, accumulate_q: false,
/// }, BlockEnd::Syr2k, false, &ctx).expect("finite square input");
/// assert_eq!(max_outside_band(r.band.as_ref(), 8), 0.0);
/// assert!(r.levels.is_empty());
/// ```
pub fn sbr_blocked(
    a: &Mat<f32>,
    opts: &WyOptions,
    end: BlockEnd,
    record_levels: bool,
    ctx: &GemmContext,
) -> Result<WySbrResult, crate::BandError> {
    let mut r = sbr_unfinished(a, opts, end, record_levels, ctx)?;
    symmetrize_band(&mut r.band, opts.bandwidth);
    Ok(r)
}

/// [`sbr_blocked`] before its last pass: the band still differs from its
/// transpose by the roundoff of the one-sided updates, and the entries
/// outside it hold roundoff instead of zeros.
fn sbr_unfinished(
    a: &Mat<f32>,
    opts: &WyOptions,
    end: BlockEnd,
    record_levels: bool,
    ctx: &GemmContext,
) -> Result<WySbrResult, crate::BandError> {
    crate::error::check_sbr_input(a, opts.bandwidth)?;
    let n = a.rows();
    let b = opts.bandwidth;
    let nb = (opts.block / b).max(1) * b;

    // ZY: with one panel per level the syr2k end covers the level's whole
    // trailing block, so the next-panel update is redundant. The paper's WY
    // at nb = b keeps Algorithm 1's inner update: its Table 2 row counts it.
    let one_panel = end == BlockEnd::Syr2k && nb == b;

    let sink = ctx.sink().clone();
    let _sbr_span = span!(sink, "sbr_wy", n, b, nb, end = format!("{end:?}"));

    let input = a;
    let mut a = a.clone();
    let mut q = opts.accumulate_q.then(|| Mat::<f32>::identity(n, n));
    let mut levels = Vec::new();

    let mut off = 0; // recursion offset: current trailing matrix is a[off.., off..]
    while off + b < n {
        // Cooperative cancellation at the level boundary: a level in flight
        // always completes, so a retried run is bit-identical to a fresh one.
        if ctx.cancel_requested() {
            return Err(crate::BandError::Cancelled);
        }
        let m = n - off; // current trailing size
        let mp = m - b; // rows below the first band block ("OA'" of the paper)

        // The original trailing matrix of this level (paper line 3:
        // OA = oriA(b+1:n, b+1:n)). Level 0 reads it from the input, which
        // the loop never writes. The one-panel setting reads a's trailing
        // block: its only reader is the level's one `wy_aw_append`, and the
        // panel write-back touches only columns off..off+b and their
        // mirror. Every other level copies it before the next-panel
        // updates overwrite a's trailing block.
        let oa_copy = (off > 0 && !one_panel).then(|| a.submatrix(off + b, off + b, mp, mp));

        // Aggregated W, Y over this big block (mp × ≤nb), and the cached
        // product AW = OA·W, maintained incrementally: appending the new
        // aggregated column block `w` only costs OA·w, and the invariant
        // AW = OA·W holds because W gains exactly those columns.
        let kmax = nb.min(mp);
        let mut wacc = Mat::<f32>::zeros(mp, kmax);
        let mut yacc = Mat::<f32>::zeros(mp, kmax);
        let mut aw = Mat::<f32>::zeros(mp, kmax);
        let mut k = 0usize;

        let mut i = 0; // local column offset inside the big block
        sink.add("sbr_levels", 1);
        let _level_span = span!(sink, "sbr_level", off, m);
        while i < nb && i + b < m {
            // Cancellation seam at block-column granularity (lint R9): a
            // deadline hit mid-level aborts before the next panel + trailing
            // GEMMs rather than after the whole level.
            if ctx.cancel_requested() {
                return Err(crate::BandError::Cancelled);
            }
            let prows = m - i - b; // = mp - i
                                   // 1. Panel QR of the (already current) panel.
            let panel = a.view(off + i + b, off + i, prows, b);
            let f = factor_panel_with(panel, opts.panel, &sink);
            let kf = f.w.cols();

            // Write back the reduced panel and its mirror.
            a.view_mut(off + i + b, off + i, prows, b)
                .copy_from(f.reduced.as_ref());
            let rt = f.reduced.transpose();
            a.view_mut(off + i, off + i + b, b, prows)
                .copy_from(rt.as_ref());

            // 2. Aggregate: W ← [W | w − W·(Yᵀ·w)], Y ← [Y | y]
            //    (panel vectors embedded at OA' rows i..mp).
            {
                let mut w_emb = Mat::<f32>::zeros(mp, kf);
                let mut y_emb = Mat::<f32>::zeros(mp, kf);
                w_emb.view_mut(i, 0, prows, kf).copy_from(f.w.as_ref());
                y_emb.view_mut(i, 0, prows, kf).copy_from(f.y.as_ref());

                if k > 0 {
                    // t = Yᵀ·w  (k×kf)
                    let mut t = Mat::<f32>::zeros(k, kf);
                    ctx.gemm(
                        "wy_acc_ytw",
                        1.0,
                        yacc.view(0, 0, mp, k),
                        Op::Trans,
                        w_emb.as_ref(),
                        Op::NoTrans,
                        0.0,
                        t.as_mut(),
                    );
                    // w ← w − W·t
                    ctx.gemm(
                        "wy_acc_w",
                        -1.0,
                        wacc.view(0, 0, mp, k),
                        Op::NoTrans,
                        t.as_ref(),
                        Op::NoTrans,
                        1.0,
                        w_emb.as_mut(),
                    );
                }
                // Extend the cached AW with the new aggregated columns:
                // AW[:, k..k+kf] = OA·w_emb.
                ctx.gemm(
                    "wy_aw_append",
                    1.0,
                    oa_view(&oa_copy, input, &a, off, b),
                    Op::NoTrans,
                    w_emb.as_ref(),
                    Op::NoTrans,
                    0.0,
                    aw.view_mut(0, k, mp, kf),
                );
                wacc.view_mut(0, k, mp, kf).copy_from(w_emb.as_ref());
                yacc.view_mut(0, k, mp, kf).copy_from(y_emb.as_ref());
                k += kf;
            }

            // 3. Update only the NEXT panel's columns, from the original OA:
            //    GA = [(I − Y·Wᵀ)·OA·(I − W·Yᵀ)][:, c'] ,  c' = i..i+cw.
            if !one_panel {
                let cw = b.min(mp - i); // next-block width (clipped at the edge)
                let _update_span = span!(sink, "block_update", i, k, cw);
                let w_k = wacc.view(0, 0, mp, k);
                let y_k = yacc.view(0, 0, mp, k);
                let aw_k = aw.view(0, 0, mp, k);

                // X = OA[:, c'] − AW·Y[c',:]ᵀ
                let mut x = oa_view(&oa_copy, input, &a, off, b)
                    .view(0, i, mp, cw)
                    .to_owned();
                ctx.gemm(
                    "wy_inner_x",
                    -1.0,
                    aw_k,
                    Op::NoTrans,
                    yacc.view(i, 0, cw, k),
                    Op::Trans,
                    1.0,
                    x.as_mut(),
                );
                // WX = Wᵀ·X (k×cw)
                let mut wx = Mat::<f32>::zeros(k, cw);
                ctx.gemm(
                    "wy_inner_wx",
                    1.0,
                    w_k,
                    Op::Trans,
                    x.as_ref(),
                    Op::NoTrans,
                    0.0,
                    wx.as_mut(),
                );
                // GA = X − Y·WX
                ctx.gemm(
                    "wy_inner_ga",
                    -1.0,
                    y_k,
                    Op::NoTrans,
                    wx.as_ref(),
                    Op::NoTrans,
                    1.0,
                    x.as_mut(),
                );

                // Write rows i..mp of the updated columns (lower part incl.
                // the diagonal block) and the symmetric mirror.
                let ga = x.submatrix(i, 0, mp - i, cw);
                a.view_mut(off + b + i, off + b + i, mp - i, cw)
                    .copy_from(ga.as_ref());
                let gat = ga.transpose();
                a.view_mut(off + b + i, off + b + i, cw, mp - i)
                    .copy_from(gat.as_ref());
            }

            i += b;
        }
        let processed = i;
        // Only the panel loop reads OA; the block end takes T1 from AW.
        drop(oa_copy);

        if let Some(q) = q.as_mut() {
            if k > 0 {
                accumulate_q_right(
                    ctx,
                    q.view_mut(0, off + b, n, mp),
                    wacc.view(0, 0, mp, k),
                    yacc.view(0, 0, mp, k),
                );
            }
        }
        // The next-panel updates already wrote the last level's trailing
        // block; the one-panel setting leaves it to the block end.
        let last = processed + b >= m && !one_panel;
        if !last {
            // The next-panel updates wrote the columns before `processed`.
            let start = if one_panel { 0 } else { processed };
            block_end(
                ctx,
                end,
                a.view_mut(off + b + start, off + b + start, mp - start, mp - start),
                wacc.view(0, 0, mp, k),
                yacc.view(start, 0, mp - start, k),
                aw.view(0, 0, mp, k),
            );
        }
        // Record after the block end, its last reader, so that a full-width
        // aggregate moves into the level instead of being copied.
        if k > 0 && record_levels {
            levels.push(LevelWy {
                row_offset: off + b,
                w: leading_cols(wacc, k),
                y: leading_cols(yacc, k),
            });
        }
        if last {
            break;
        }

        off += processed;
    }

    Ok(WySbrResult { band: a, q, levels })
}

/// Step 4 of a level, the big trailing update with the squeezed inner
/// dimension `k = nb`: `M_t ← [(I − Y·Wᵀ)·OA·(I − W·Yᵀ)][t', t']` on the
/// trailing block `m_t`, which still holds `OA_t`, written as `end` says.
/// `w_k` and `t1 = AW = OA·W` are the level's mp×k aggregates, and `y_t`
/// holds the last `mt` rows of `Y`, those `m_t` covers. `T1` is the cached
/// `AW`, so no extra GEMM is needed; everything runs with inner dimension
/// `k = nb`, the near-square shapes this algorithm exists for.
fn block_end(
    ctx: &GemmContext,
    end: BlockEnd,
    mut m_t: MatMut<'_, f32>,
    w_k: MatRef<'_, f32>,
    y_t: MatRef<'_, f32>,
    t1: MatRef<'_, f32>,
) {
    let (mt, k) = (y_t.rows(), y_t.cols());
    let start = t1.rows() - mt;
    let _trailing_span = span!(ctx.sink(), "trailing_update", mt, k);
    // T2 = Wᵀ·T1 (k×k)
    let mut t2 = Mat::<f32>::zeros(k, k);
    ctx.gemm(
        "wy_final_waw",
        1.0,
        w_k,
        Op::Trans,
        t1,
        Op::NoTrans,
        0.0,
        t2.as_mut(),
    );

    // M_t ← OA_t − T1_t·Y_tᵀ − Y_t·T1_tᵀ + Y_t·T2·Y_tᵀ, in place: the
    // panel loop writes only rows and columns above `start`, so a's
    // trailing block still holds OA_t.
    let mut t1t = t1.view(start, 0, mt, k).to_owned();
    match end {
        BlockEnd::ThreeGemm => {
            ctx.gemm(
                "wy_final_u1",
                -1.0,
                t1t.as_ref(),
                Op::NoTrans,
                y_t,
                Op::Trans,
                1.0,
                m_t.as_mut(),
            );
            ctx.gemm(
                "wy_final_u2",
                -1.0,
                y_t,
                Op::NoTrans,
                t1t.as_ref(),
                Op::Trans,
                1.0,
                m_t.as_mut(),
            );
            let mut yt2 = Mat::<f32>::zeros(mt, k);
            ctx.gemm(
                "wy_final_yt2",
                1.0,
                y_t,
                Op::NoTrans,
                t2.as_ref(),
                Op::NoTrans,
                0.0,
                yt2.as_mut(),
            );
            ctx.gemm(
                "wy_final_u3",
                1.0,
                yt2.as_ref(),
                Op::NoTrans,
                y_t,
                Op::Trans,
                1.0,
                m_t.as_mut(),
            );
        }
        BlockEnd::Syr2k => {
            // V_t = T1_t − ½·Y_t·T2, in place of the T1_t copy, then
            // M_t ← OA_t − V_t·Y_tᵀ − Y_t·V_tᵀ as one syr2k.
            ctx.gemm(
                "dbr_final_v",
                -0.5,
                y_t,
                Op::NoTrans,
                t2.as_ref(),
                Op::NoTrans,
                1.0,
                t1t.as_mut(),
            );
            ctx.syr2k_update("dbr_syr2k", y_t, t1t.as_ref(), m_t.as_mut());
        }
    }
    symmetrize_view(m_t);
}

/// The first `k` columns of `m`: `m` itself when that is all of it.
fn leading_cols(m: Mat<f32>, k: usize) -> Mat<f32> {
    if m.cols() == k {
        m
    } else {
        m.submatrix(0, 0, m.rows(), k)
    }
}

/// The original trailing matrix `OA` of the level at offset `off`, the
/// mp×mp block at `(off + b, off + b)`: the level's copy if it made one,
/// else the input's block at level 0, else `a`'s trailing block.
fn oa_view<'m>(
    copy: &'m Option<Mat<f32>>,
    input: &'m Mat<f32>,
    a: &'m Mat<f32>,
    off: usize,
    b: usize,
) -> MatRef<'m, f32> {
    let mp = a.rows() - off - b;
    match copy {
        Some(c) => c.as_ref(),
        None if off == 0 => input.view(b, b, mp, mp),
        None => a.view(off + b, off + b, mp, mp),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::common::max_outside_band;
    use tcevd_matrix::blas3::matmul;
    use tcevd_matrix::norms::{frobenius, orthogonality_residual};
    use tcevd_tensorcore::Engine;
    use tcevd_testmat::{generate, MatrixType};

    const ENDS: [BlockEnd; 2] = [BlockEnd::ThreeGemm, BlockEnd::Syr2k];

    /// Both block ends at `nb = 4b`, and ZY: the syr2k end at `nb = b`.
    /// Entries are `(end, nb / b)`.
    const SETTINGS: [(BlockEnd, usize); 3] = [
        (BlockEnd::ThreeGemm, 4),
        (BlockEnd::Syr2k, 4),
        (BlockEnd::Syr2k, 1),
    ];

    fn test_matrix(n: usize, seed: u64) -> Mat<f32> {
        generate(n, MatrixType::Normal, seed).cast()
    }

    fn backward_error(a: &Mat<f32>, band: &Mat<f32>, q: &Mat<f32>) -> f32 {
        let n = a.rows() as f32;
        let qb = matmul(q.as_ref(), Op::NoTrans, band.as_ref(), Op::NoTrans);
        let qbqt = matmul(qb.as_ref(), Op::NoTrans, q.as_ref(), Op::Trans);
        let mut diff = a.clone();
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                diff[(i, j)] -= qbqt[(i, j)];
            }
        }
        frobenius(diff.as_ref()) / (n * frobenius(a.as_ref()))
    }

    fn opts(b: usize, nb: usize, acc: bool) -> WyOptions {
        WyOptions {
            bandwidth: b,
            block: nb,
            panel: PanelKind::Tsqr,
            accumulate_q: acc,
        }
    }

    /// The band-only last pass equals the full-matrix `symmetrize` and
    /// `clip_to_band` it replaced, bit for bit, on each engine's SBR output
    /// and in every setting; `sbr_blocked` returns exactly that band, with
    /// the levels recorded or not.
    #[test]
    fn band_symmetrize_matches_the_full_pass_bitwise() {
        use crate::common::{clip_to_band, symmetrize};
        let bits =
            |m: &Mat<f32>| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
        // the pass is not a no-op on these inputs
        let mut changed = false;
        for engine in [Engine::Sgemm, Engine::Tc, Engine::EcTc, Engine::Tf32] {
            let ctx = GemmContext::new(engine);
            for n in [3, 9, 97, 300] {
                let b = 8.min(n - 1);
                for (end, blocks) in SETTINGS {
                    let o = opts(b, b * blocks, false);
                    let a = test_matrix(n, n as u64);
                    let raw = sbr_unfinished(&a, &o, end, true, &ctx).unwrap().band;
                    let mut want = raw.clone();
                    symmetrize(&mut want);
                    clip_to_band(&mut want, b);
                    changed |= bits(&raw) != bits(&want);
                    let mut got = raw;
                    symmetrize_band(&mut got, b);
                    let tag = format!("{engine:?} n={n} {end:?} nb={}", b * blocks);
                    assert!(bits(&got) == bits(&want), "{tag}");
                    let band = sbr_blocked(&a, &o, end, true, &ctx).unwrap().band;
                    assert!(bits(&band) == bits(&want), "{tag}: sbr_blocked");
                    let bare = sbr_blocked(&a, &o, end, false, &ctx).unwrap();
                    assert!(bits(&bare.band) == bits(&want), "{tag}: without levels");
                    assert!(bare.levels.is_empty(), "{tag}: recorded levels");
                }
            }
        }
        assert!(changed);
    }

    #[test]
    fn produces_band_structure() {
        let a = test_matrix(96, 1);
        let ctx = GemmContext::new(Engine::Sgemm);
        for (end, blocks) in SETTINGS {
            let r = sbr_blocked(&a, &opts(8, 8 * blocks, false), end, true, &ctx)
                .expect("sbr reduction");
            assert_eq!(
                max_outside_band(r.band.as_ref(), 8),
                0.0,
                "{end:?} nb={blocks}b"
            );
            assert_eq!(
                r.band.max_abs_diff(&r.band.transpose()),
                0.0,
                "{end:?} nb={blocks}b"
            );
        }
    }

    #[test]
    fn backward_stable_sgemm() {
        let a = test_matrix(96, 2);
        let ctx = GemmContext::new(Engine::Sgemm);
        for (end, blocks) in SETTINGS {
            let r = sbr_blocked(&a, &opts(8, 8 * blocks, true), end, true, &ctx)
                .expect("sbr reduction");
            let q = r.q.as_ref().unwrap();
            assert!(
                orthogonality_residual(q.as_ref()) / 96.0 < 1e-5,
                "{end:?} nb={blocks}b"
            );
            let be = backward_error(&a, &r.band, q);
            assert!(be < 1e-6, "{end:?} nb={blocks}b: backward error {be}");
        }
    }

    #[test]
    fn backward_stable_tensor_core() {
        let a = test_matrix(96, 3);
        let ctx = GemmContext::new(Engine::Tc);
        for (end, blocks) in SETTINGS {
            let r = sbr_blocked(&a, &opts(8, 8 * blocks, true), end, true, &ctx)
                .expect("sbr reduction");
            let be = backward_error(&a, &r.band, r.q.as_ref().unwrap());
            assert!(be < 1e-4, "{end:?} nb={blocks}b: backward error {be}"); // TC machine-eps level
        }
    }

    #[test]
    fn matches_zy_band_eigenvalues_via_similarity() {
        // WY and ZY band matrices are different but both similar to A:
        // check both against A via their Qs.
        let a = test_matrix(64, 4);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r_wy = sbr_wy(&a, &opts(8, 16, true), &ctx).expect("sbr reduction");
        let r_zy = sbr_blocked(&a, &opts(8, 8, true), BlockEnd::Syr2k, true, &ctx).expect("zy");
        assert!(backward_error(&a, &r_wy.band, r_wy.q.as_ref().unwrap()) < 1e-6);
        assert!(backward_error(&a, &r_zy.band, r_zy.q.as_ref().unwrap()) < 1e-6);
    }

    #[test]
    fn preserves_trace() {
        // similarity transforms preserve the trace
        let a = test_matrix(80, 4);
        let ctx = GemmContext::new(Engine::Sgemm);
        let tr_a: f32 = (0..80).map(|i| a[(i, i)]).sum();
        for (end, blocks) in SETTINGS {
            let r = sbr_blocked(&a, &opts(16, 16 * blocks, false), end, true, &ctx).expect("sbr");
            let tr_b: f32 = (0..80).map(|i| r.band[(i, i)]).sum();
            assert!(
                (tr_a - tr_b).abs() < 1e-3 * tr_a.abs().max(1.0),
                "{end:?} nb={blocks}b"
            );
        }
    }

    #[test]
    fn householder_panel_variant_matches() {
        // The band matrices of the two panel kinds are similar (not equal:
        // sign choices differ), so compare via the backward error of each.
        let a = test_matrix(64, 5);
        let ctx = GemmContext::new(Engine::Sgemm);
        for (end, blocks) in SETTINGS {
            for panel in [PanelKind::Tsqr, PanelKind::Householder] {
                let o = WyOptions {
                    panel,
                    ..opts(8, 8 * blocks, true)
                };
                let r = sbr_blocked(&a, &o, end, true, &ctx).expect("sbr reduction");
                let be = backward_error(&a, &r.band, r.q.as_ref().unwrap());
                assert!(
                    be < 1e-6,
                    "{end:?} nb={blocks}b {panel:?}: backward error {be}"
                );
            }
        }
    }

    #[test]
    fn bandwidth_not_dividing_n() {
        let a = test_matrix(70, 6); // 70 = 8*8 + 6
        let ctx = GemmContext::new(Engine::Sgemm);
        for (end, blocks) in SETTINGS {
            let r = sbr_blocked(&a, &opts(8, 8 * blocks, true), end, true, &ctx)
                .expect("sbr reduction");
            assert_eq!(
                max_outside_band(r.band.as_ref(), 8),
                0.0,
                "{end:?} nb={blocks}b"
            );
            let be = backward_error(&a, &r.band, r.q.as_ref().unwrap());
            assert!(be < 1e-6, "{end:?} nb={blocks}b: backward error {be}");
        }
    }

    #[test]
    fn bandwidth_one_gives_tridiagonal() {
        let a = test_matrix(24, 8);
        let ctx = GemmContext::new(Engine::Sgemm);
        for (end, blocks) in SETTINGS {
            let r =
                sbr_blocked(&a, &opts(1, blocks, true), end, true, &ctx).expect("sbr reduction");
            assert_eq!(
                max_outside_band(r.band.as_ref(), 1),
                0.0,
                "{end:?} nb={blocks}b"
            );
            let be = backward_error(&a, &r.band, r.q.as_ref().unwrap());
            assert!(be < 1e-5, "{end:?} nb={blocks}b: backward error {be}");
        }
    }

    #[test]
    fn nb_equal_b_degenerates_correctly() {
        let a = test_matrix(48, 5);
        let ctx = GemmContext::new(Engine::Sgemm);
        for end in ENDS {
            let r = sbr_blocked(&a, &opts(8, 8, true), end, true, &ctx).expect("sbr reduction");
            assert_eq!(max_outside_band(r.band.as_ref(), 8), 0.0, "{end:?}");
            assert!(
                backward_error(&a, &r.band, r.q.as_ref().unwrap()) < 1e-6,
                "{end:?}"
            );
        }
    }

    #[test]
    fn nb_larger_than_matrix() {
        let a = test_matrix(40, 6);
        let ctx = GemmContext::new(Engine::Sgemm);
        for end in ENDS {
            let r = sbr_blocked(&a, &opts(8, 1024, true), end, true, &ctx).expect("sbr reduction");
            assert_eq!(max_outside_band(r.band.as_ref(), 8), 0.0, "{end:?}");
            assert!(
                backward_error(&a, &r.band, r.q.as_ref().unwrap()) < 1e-6,
                "{end:?}"
            );
        }
    }

    #[test]
    fn odd_sizes_and_blocks() {
        for end in ENDS {
            for (n, b, nb) in [(67, 8, 16), (50, 4, 12), (33, 8, 32), (20, 16, 32)] {
                let a = test_matrix(n, 7 + n as u64);
                let ctx = GemmContext::new(Engine::Sgemm);
                let r =
                    sbr_blocked(&a, &opts(b, nb, true), end, true, &ctx).expect("sbr reduction");
                assert_eq!(
                    max_outside_band(r.band.as_ref(), b),
                    0.0,
                    "{end:?} n={n} b={b} nb={nb}"
                );
                let be = backward_error(&a, &r.band, r.q.as_ref().unwrap());
                assert!(
                    be < 1e-5,
                    "{end:?} n={n} b={b} nb={nb}: backward error {be}"
                );
            }
        }
    }

    #[test]
    fn inner_gemms_have_squeezed_shapes() {
        // With nb = 4b, aggregated inner dimension must reach nb.
        let a = test_matrix(128, 8);
        let ctx = GemmContext::new(Engine::Tc).with_trace();
        let _ = sbr_wy(&a, &opts(8, 32, false), &ctx).expect("sbr reduction");
        let tr = ctx.take_trace();
        // the big trailing updates (the syr2k replacement) run at k = nb
        let max_k_final = tr
            .iter()
            .filter(|r| r.label == "wy_final_u1")
            .map(|r| r.k)
            .max()
            .unwrap();
        assert_eq!(max_k_final, 32, "final update must use k = nb");
        // and the inner panel updates aggregate beyond one panel width
        let max_k_inner = tr
            .iter()
            .filter(|r| r.label == "wy_inner_x")
            .map(|r| r.k)
            .max()
            .unwrap();
        assert_eq!(max_k_inner, 32);
    }

    #[test]
    fn trace_records_tall_skinny_shapes() {
        // ZY (the syr2k end at nb = b): every product runs at inner
        // dimension ≤ b, and no next-panel update is issued.
        let a = test_matrix(64, 7);
        let ctx = GemmContext::new(Engine::Tc).with_trace();
        let _ = sbr_blocked(&a, &opts(8, 8, false), BlockEnd::Syr2k, true, &ctx).expect("zy");
        let tr = ctx.take_trace();
        assert!(!tr.is_empty());
        for rec in tr.iter().filter(|r| r.label == "dbr_syr2k") {
            assert!(rec.k <= 8, "syr2k inner dim {} > b", rec.k);
            assert_eq!(rec.m, rec.n); // outer product is square output
        }
        assert!(tr.iter().any(|r| r.label == "wy_aw_append"));
        assert!(tr.iter().all(|r| !r.label.starts_with("wy_inner")));
    }

    #[test]
    fn trace_flops_exceed_zy() {
        // Table 2: WY does more arithmetic than ZY at the same bandwidth.
        let a = test_matrix(128, 9);
        let ctx_wy = GemmContext::new(Engine::Tc).with_trace();
        let _ = sbr_wy(&a, &opts(8, 32, false), &ctx_wy).expect("sbr reduction");
        let ctx_zy = GemmContext::new(Engine::Tc).with_trace();
        let _ = sbr_blocked(&a, &opts(8, 8, false), BlockEnd::Syr2k, true, &ctx_zy).expect("zy");
        let f_wy = ctx_wy.total_flops();
        let f_zy = ctx_zy.total_flops();
        assert!(f_wy > f_zy, "WY {f_wy} should exceed ZY {f_zy}");
    }

    #[test]
    fn levels_capture_all_reflectors() {
        let a = test_matrix(96, 10);
        let ctx = GemmContext::new(Engine::Sgemm);
        for end in ENDS {
            let r = sbr_blocked(&a, &opts(8, 16, false), end, true, &ctx).expect("sbr reduction");
            let total_k: usize = r.levels.iter().map(|l| l.w.cols()).sum();
            // every column block except those inside the final band gets reflectors
            assert!(total_k >= 96 - 2 * 8, "{end:?}");
            for l in &r.levels {
                assert_eq!(l.w.rows(), l.y.rows());
                assert_eq!(l.w.cols(), l.y.cols());
            }
        }
    }

    #[test]
    fn dbr_band_matches_wy_bitwise_until_the_trailing_update() {
        // The two block ends share the panel + inner recursion exactly; they
        // differ only in the trailing update arithmetic. On a problem with a
        // single level and no trailing update (nb ≥ n), the two must agree
        // to the last bit.
        let a = test_matrix(40, 11);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r_dbr = sbr_blocked(&a, &opts(8, 64, false), BlockEnd::Syr2k, true, &ctx).expect("dbr");
        let r_wy = sbr_wy(&a, &opts(8, 64, false), &ctx).expect("wy");
        assert_eq!(r_dbr.band.max_abs_diff(&r_wy.band), 0.0);
    }

    #[test]
    fn dbr_agrees_with_wy_numerically() {
        // With real trailing updates in play the two block ends compute the
        // same two-sided transform in different arithmetic orders: same
        // band matrix up to f32 rounding.
        let a = test_matrix(96, 4);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r_dbr = sbr_blocked(&a, &opts(8, 16, true), BlockEnd::Syr2k, true, &ctx).expect("dbr");
        let r_wy = sbr_wy(&a, &opts(8, 16, true), &ctx).expect("wy");
        assert!(backward_error(&a, &r_dbr.band, r_dbr.q.as_ref().unwrap()) < 1e-6);
        let d = r_dbr.band.max_abs_diff(&r_wy.band);
        let scale = frobenius(a.as_ref());
        assert!(d < 1e-4 * scale, "DBR vs WY band diff {d} (scale {scale})");
    }

    #[test]
    fn dbr_trailing_update_is_one_syr2k_per_level() {
        // The point of detaching nb from b: per trailing update, exactly one
        // syr2k record at k = nb on a native-syr2k engine, versus WY's four
        // rectangular GEMMs.
        let a = test_matrix(128, 8);
        let ctx = GemmContext::new(Engine::Sgemm).with_trace();
        let _ = sbr_blocked(&a, &opts(8, 32, false), BlockEnd::Syr2k, true, &ctx).expect("sbr");
        let tr = ctx.take_trace();
        let syr2k: Vec<_> = tr.iter().filter(|r| r.label == "dbr_syr2k").collect();
        assert!(!syr2k.is_empty());
        let max_k = syr2k.iter().map(|r| r.k).max().unwrap();
        assert_eq!(max_k, 32, "trailing syr2k must run at k = nb");
        // one record per trailing update: as many as wy_final_waw calls
        let waw = tr.iter().filter(|r| r.label == "wy_final_waw").count();
        assert_eq!(syr2k.len(), waw);
        // and no WY-style four-GEMM expansion anywhere: T2 is the only
        // wy_final_* product the folded update shares
        assert!(tr
            .iter()
            .filter(|r| r.label.starts_with("wy_final"))
            .all(|r| r.label == "wy_final_waw"));
    }

    #[test]
    fn dbr_trailing_flops_are_below_wy() {
        // The folded syr2k formulation does ~half the trailing arithmetic
        // of WY's four-GEMM expansion at the same (n, b, nb).
        let a = test_matrix(160, 9);
        let ctx_dbr = GemmContext::new(Engine::Sgemm).with_trace();
        let _ = sbr_blocked(&a, &opts(8, 32, false), BlockEnd::Syr2k, true, &ctx_dbr).expect("dbr");
        let ctx_wy = GemmContext::new(Engine::Sgemm).with_trace();
        let _ = sbr_wy(&a, &opts(8, 32, false), &ctx_wy).expect("wy");
        let trailing = |tr: &[tcevd_tensorcore::GemmRecord], prefix: &str| -> u64 {
            tr.iter()
                .filter(|r| r.label.starts_with(prefix))
                .map(|r| r.flops())
                .sum()
        };
        let dbr_tr = ctx_dbr.take_trace();
        let wy_tr = ctx_wy.take_trace();
        let f_dbr = trailing(&dbr_tr, "wy_final_") + trailing(&dbr_tr, "dbr_");
        let f_wy = trailing(&wy_tr, "wy_final_");
        assert!(
            f_dbr * 3 < f_wy * 2,
            "DBR trailing {f_dbr} should be well below WY {f_wy}"
        );
    }
}
