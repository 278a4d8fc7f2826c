//! Recursive construction of the aggregate `W` — the paper's Algorithm 2.
//!
//! The WY-based SBR leaves one `(W_l, Y_l)` pair per big block, with
//! `Q_total = Q_1·Q_2⋯Q_L` and `Q_l = I − W_l·Y_lᵀ`. For the
//! back-transformation (forming eigenvectors) the blocks are merged
//! pairwise,
//!
//! ```text
//! [W_a | W_b]  →  [W_a | W_b − W_a·(Y_aᵀ·W_b)]
//! ```
//!
//! recursively over halves, so the merge GEMMs have inner dimension that
//! doubles up the tree — 'squeezed' shapes again, which is why the paper
//! measures the WY back-transformation at 320 ms vs 420 ms for ZY (§4.4).
//!
//! The merge runs in place. `W` and `Y` are allocated as n×K, with `K`
//! the sum of the level widths, and each level is copied into its own
//! column block. `Y` is then already the concatenation `[Y_a | Y_b]`, and
//! each merge overwrites `W_b`'s column block with `W_b − W_a·(Y_aᵀ·W_b)`.
//! The only other buffer is the merge's `ka×kb` product `t`, so the
//! workspace is `2·n·K + max ka·kb` elements (on one worker; see
//! `tcevd_perfmodel::formw_memory`).
//!
//! [`form_wy_owned`] takes the levels by value and drops each level's `W`
//! once it is copied, before `Y` is allocated, and each level's `Y` once it
//! is copied, so the levels and the n×K pair are never all alive at once.
//! [`form_wy`] borrows them. Both run the same code and give the same bits.

use crate::sbr_wy::LevelWy;
use std::borrow::Borrow;
use tcevd_matrix::{Mat, MatMut, MatRef, Op};
use tcevd_tensorcore::GemmContext;
use tcevd_trace::span;

/// Merge the per-level WY factors into a single `(W, Y)` with
/// `Q_total = I − W·Yᵀ` over the full n×n space (paper Algorithm 2).
/// Infallible given a non-empty level list (asserted on entry).
// tcevd-lint: allow(R4) — pure merge of already-validated factors; no failure mode to surface.
pub fn form_wy(levels: &[LevelWy], n: usize, ctx: &GemmContext) -> (Mat<f32>, Mat<f32>) {
    merge_levels(
        n,
        levels.iter().map(|l| (l.row_offset, &l.w)).collect(),
        levels.iter().map(|l| (l.row_offset, &l.y)).collect(),
        ctx,
    )
}

/// [`form_wy`] on levels it owns, bit for bit: it drops each level's `W`
/// once it is copied into the n×K `W`, then does the same for `Y`, so the
/// merge tree runs with no level alive.
// tcevd-lint: allow(R4) — pure merge of already-validated factors; no failure mode to surface.
pub fn form_wy_owned(levels: Vec<LevelWy>, n: usize, ctx: &GemmContext) -> (Mat<f32>, Mat<f32>) {
    let (ws, ys) = levels
        .into_iter()
        .map(|l| ((l.row_offset, l.w), (l.row_offset, l.y)))
        .unzip();
    merge_levels(n, ws, ys, ctx)
}

/// Stack the levels' `W` blocks into the n×K `W`, then their `Y` blocks
/// into `Y`, then run the merge tree.
fn merge_levels<M: Borrow<Mat<f32>>>(
    n: usize,
    ws: Vec<(usize, M)>,
    ys: Vec<(usize, M)>,
    ctx: &GemmContext,
) -> (Mat<f32>, Mat<f32>) {
    assert!(!ws.is_empty(), "need at least one WY level");
    let sink = ctx.sink();
    let nlevels = ws.len();
    let _span = span!(sink, "formw", n, nlevels);
    let widths: Vec<usize> = ws.iter().map(|(_, w)| w.borrow().cols()).collect();
    let mut w = stack(n, ws);
    let y = stack(n, ys);
    form_rec(&widths, w.as_mut(), y.as_ref(), ctx);
    (w, y)
}

/// The n×K stack of `blocks`: each block at its row offset, in the next
/// column block. An owned block is dropped as soon as it is copied.
fn stack<M: Borrow<Mat<f32>>>(n: usize, blocks: Vec<(usize, M)>) -> Mat<f32> {
    let k = blocks.iter().map(|(_, m)| m.borrow().cols()).sum();
    let mut out = Mat::<f32>::zeros(n, k);
    let mut c = 0;
    for (row, m) in blocks {
        let m = m.borrow();
        out.view_mut(row, c, m.rows(), m.cols())
            .copy_from(m.as_ref());
        c += m.cols();
    }
    out
}

/// Merge the levels of `widths`, whose column blocks `w` and `y` hold:
/// the halves on disjoint column ranges, then the halves into each other.
fn form_rec(widths: &[usize], w: MatMut<'_, f32>, y: MatRef<'_, f32>, ctx: &GemmContext) {
    if widths.len() <= 1 {
        return;
    }
    let (lo, hi) = widths.split_at(widths.len() / 2);
    let ka = lo.iter().sum();
    let (mut wa, mut wb) = w.split_cols_at(ka);
    let (ya, yb) = (
        y.view(0, 0, y.rows(), ka),
        y.view(0, ka, y.rows(), y.cols() - ka),
    );
    rayon::join(
        || form_rec(lo, wa.as_mut(), ya, ctx),
        || form_rec(hi, wb.as_mut(), yb, ctx),
    );
    merge(wa.as_ref(), ya, wb, ctx);
}

/// `(I − W_a·Y_aᵀ)(I − W_b·Y_bᵀ) = I − [W_a | W_b − W_a(Y_aᵀW_b)]·[Y_a | Y_b]ᵀ`,
/// overwriting `W_b` in place.
fn merge(wa: MatRef<'_, f32>, ya: MatRef<'_, f32>, wb: MatMut<'_, f32>, ctx: &GemmContext) {
    ctx.sink().add("formw_merges", 1);
    // t = Y_aᵀ·W_b (ka×kb)
    let mut t = Mat::<f32>::zeros(wa.cols(), wb.cols());
    ctx.gemm(
        "formw_ytw",
        1.0,
        ya,
        Op::Trans,
        wb.as_ref(),
        Op::NoTrans,
        0.0,
        t.as_mut(),
    );
    // W_b ← W_b − W_a·t
    ctx.gemm(
        "formw_w",
        -1.0,
        wa,
        Op::NoTrans,
        t.as_ref(),
        Op::NoTrans,
        1.0,
        wb,
    );
}

/// Apply `Q_total = I − W·Yᵀ` to a matrix from the left:
/// `V ← V − W·(Yᵀ·V)` — the eigenvector back-transformation.
// tcevd-lint: allow(R4) — two fixed GEMMs on shape-checked inputs; infallible by construction.
pub fn apply_q(w: MatRef<'_, f32>, y: MatRef<'_, f32>, v: &mut Mat<f32>, ctx: &GemmContext) {
    let k = w.cols();
    let mut t = Mat::<f32>::zeros(k, v.cols());
    ctx.gemm(
        "backtransform_ytv",
        1.0,
        y,
        Op::Trans,
        v.as_ref(),
        Op::NoTrans,
        0.0,
        t.as_mut(),
    );
    ctx.gemm(
        "backtransform_wv",
        -1.0,
        w,
        Op::NoTrans,
        t.as_ref(),
        Op::NoTrans,
        1.0,
        v.as_mut(),
    );
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::panel::PanelKind;
    use crate::sbr_wy::{sbr_wy, WyOptions};
    use tcevd_matrix::norms::orthogonality_residual;
    use tcevd_tensorcore::Engine;
    use tcevd_testmat::{generate, MatrixType};

    #[test]
    fn formw_reproduces_accumulated_q() {
        let n = 96;
        let a: Mat<f32> = generate(n, MatrixType::Normal, 21).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let opts = WyOptions {
            bandwidth: 8,
            block: 16,
            panel: PanelKind::Tsqr,
            accumulate_q: true,
        };
        let r = sbr_wy(&a, &opts, &ctx).expect("sbr reduction");
        assert!(r.levels.len() > 1, "want a multi-level case");

        let (w, y) = form_wy(&r.levels, n, &ctx);
        // Q_formw = I − W·Yᵀ must equal the incrementally accumulated Q.
        let mut q_formw = Mat::<f32>::identity(n, n);
        tcevd_matrix::blas3::gemm(
            -1.0,
            w.as_ref(),
            Op::NoTrans,
            y.as_ref(),
            Op::Trans,
            1.0,
            q_formw.as_mut(),
        );
        let q_acc = r.q.as_ref().unwrap();
        let diff = q_formw.max_abs_diff(q_acc);
        assert!(diff < 1e-4, "diff={diff}");
        assert!(orthogonality_residual(q_formw.as_ref()) / (n as f32) < 1e-5);
    }

    #[test]
    fn apply_q_matches_explicit_multiplication() {
        let n = 64;
        let a: Mat<f32> = generate(n, MatrixType::Uniform, 22).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let opts = WyOptions {
            bandwidth: 8,
            block: 32,
            panel: PanelKind::Tsqr,
            accumulate_q: true,
        };
        let r = sbr_wy(&a, &opts, &ctx).expect("sbr reduction");
        let (w, y) = form_wy(&r.levels, n, &ctx);

        let v: Mat<f32> = generate(n, MatrixType::Normal, 23).cast();
        let mut v1 = v.clone();
        apply_q(w.as_ref(), y.as_ref(), &mut v1, &ctx);
        let v2 = tcevd_matrix::blas3::matmul(
            r.q.as_ref().unwrap().as_ref(),
            Op::NoTrans,
            v.as_ref(),
            Op::NoTrans,
        );
        assert!(v1.max_abs_diff(&v2) < 1e-3);
    }

    #[test]
    fn single_level_embedding() {
        let l = LevelWy {
            row_offset: 2,
            w: Mat::from_fn(3, 2, |i, j| (i + j) as f32),
            y: Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f32),
        };
        let ctx = GemmContext::new(Engine::Sgemm);
        let (w, y) = form_wy(&[l], 6, &ctx);
        assert_eq!(w.rows(), 6);
        assert_eq!(w[(0, 0)], 0.0);
        assert_eq!(w[(2, 0)], 0.0 + 0.0); // (i=0,j=0) of source
        assert_eq!(w[(3, 1)], 2.0); // source (1,1)
        assert_eq!(y[(4, 0)], 4.0); // source (2,0)
    }

    #[test]
    fn merge_gemm_shapes_double_up_the_tree() {
        let n = 128;
        let a: Mat<f32> = generate(n, MatrixType::Normal, 24).cast();
        let ctx = GemmContext::new(Engine::Tc).with_trace();
        let opts = WyOptions {
            bandwidth: 8,
            block: 16,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        };
        let r = sbr_wy(&a, &opts, &ctx).expect("sbr reduction");
        let _ = ctx.take_trace();
        let _ = form_wy(&r.levels, n, &ctx);
        let tr = ctx.take_trace();
        let ks: Vec<usize> = tr
            .iter()
            .filter(|r| r.label == "formw_w")
            .map(|r| r.k)
            .collect();
        assert!(!ks.is_empty());
        // merges near the root have larger inner dimension than the leaves
        assert!(ks.iter().max().unwrap() > ks.iter().min().unwrap());
    }
}
