//! Dry-run shape traces: the exact GEMM/panel sequence each SBR variant
//! issues, generated *without executing* the numerics.
//!
//! The paper's evaluation runs at n up to 32768 — far beyond what a software
//! fp16 GEMM can execute, but the *shape profile* of the algorithms is a
//! pure function of (n, b, nb). These generators mirror the loop structure
//! of [`sbr_blocked()`](crate::sbr_wy::sbr_blocked) one GEMM call for one
//! GEMM call (tests assert exact equality against the instrumented real
//! runs at small n), so replaying them through the calibrated throughput
//! model reproduces the paper's timing figures at full scale. Like the real
//! reduction, the blocked generator takes the [`BlockEnd`] as a parameter:
//! only the once-per-block trailing update differs between the two, and the
//! conventional ZY reduction is `blocked_trace_on(n, b, b, BlockEnd::Syr2k,
//! engine)`.

use crate::sbr_wy::BlockEnd;
use tcevd_tensorcore::{Engine, GemmRecord};

/// A panel factorization's shape (handled by a separate cost model — panels
/// are not GEMMs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PanelOp {
    pub rows: usize,
    pub cols: usize,
}

/// Shape trace of one SBR run: every GEMM and every panel factorization.
#[derive(Clone, Debug, Default)]
pub struct SbrTrace {
    pub gemms: Vec<GemmRecord>,
    pub panels: Vec<PanelOp>,
    /// Aggregated width `k` of each level's `(W, Y)` — the FormW inputs;
    /// one panel's width per level for ZY.
    pub level_widths: Vec<usize>,
}

impl SbrTrace {
    /// Total GEMM flops (2mnk convention).
    pub fn gemm_flops(&self) -> u64 {
        self.gemms.iter().map(|r| r.flops()).sum()
    }

    /// Total panel flops (TSQR ≈ 4mn² leading term).
    pub fn panel_flops(&self) -> u64 {
        self.panels
            .iter()
            .map(|p| tcevd_factor::tsqr_flops(p.rows, p.cols))
            .sum()
    }
}

fn rec_on(engine: Engine, label: &'static str, m: usize, n: usize, k: usize) -> GemmRecord {
    GemmRecord {
        m,
        n,
        k,
        engine,
        label,
    }
}

/// GEMM/panel trace of the WY-based SBR (mirrors [`crate::sbr_wy::sbr_wy`]
/// without Q accumulation) on the default Tensor-Core engine.
pub fn wy_trace(n: usize, b: usize, block: usize) -> SbrTrace {
    wy_trace_on(n, b, block, Engine::Tc)
}

/// Engine-faithful WY trace ([`wy_trace`] with records carrying `engine`).
/// The WY block end issues no rank-2k updates, so the shape sequence is
/// engine-independent; only the recorded engine differs.
pub fn wy_trace_on(n: usize, b: usize, block: usize, engine: Engine) -> SbrTrace {
    blocked_trace_on(n, b, block, BlockEnd::ThreeGemm, engine)
}

/// Engine-faithful trace of the blocked SBR (mirrors
/// [`crate::sbr_wy::sbr_blocked`] without Q accumulation). The panel and
/// next-panel recursion is shared; the trailing update follows `end`. The
/// [`BlockEnd::Syr2k`] update is recorded the way the engine executes it,
/// one native record on [`Engine::Sgemm`] and two full outer products on
/// the Tensor-Core engines (mirroring
/// [`GemmContext::syr2k_update`](tcevd_tensorcore::GemmContext::syr2k_update)
/// record for record). [`BlockEnd::Syr2k`] at `block = b` is the ZY trace:
/// no next-panel update, and every level ends with the trailing update of
/// its whole `mp×mp` block.
pub fn blocked_trace_on(
    n: usize,
    b: usize,
    block: usize,
    end: BlockEnd,
    engine: Engine,
) -> SbrTrace {
    let rec = |label, m, n, k| rec_on(engine, label, m, n, k);
    let nb = (block / b).max(1) * b;
    let one_panel = end == BlockEnd::Syr2k && nb == b;
    let mut t = SbrTrace::default();
    let mut off = 0;
    while off + b < n {
        let m = n - off;
        let mp = m - b;
        let mut k = 0usize;
        let mut i = 0;
        while i < nb && i + b < m {
            let prows = m - i - b;
            let kf = prows.min(b);
            t.panels.push(PanelOp {
                rows: prows,
                cols: b,
            });
            if k > 0 {
                t.gemms.push(rec("wy_acc_ytw", k, kf, mp));
                t.gemms.push(rec("wy_acc_w", mp, kf, k));
            }
            t.gemms.push(rec("wy_aw_append", mp, kf, mp));
            k += kf;
            if !one_panel {
                let cw = b.min(mp - i);
                t.gemms.push(rec("wy_inner_x", mp, cw, k));
                t.gemms.push(rec("wy_inner_wx", k, cw, mp));
                t.gemms.push(rec("wy_inner_ga", mp, cw, k));
            }
            i += b;
        }
        t.level_widths.push(k);
        let processed = i;
        if processed + b >= m && !one_panel {
            break;
        }
        let mt = if one_panel { mp } else { mp - processed };
        t.gemms.push(rec("wy_final_waw", k, k, mp));
        match end {
            BlockEnd::ThreeGemm => {
                t.gemms.push(rec("wy_final_u1", mt, mt, k));
                t.gemms.push(rec("wy_final_u2", mt, mt, k));
                t.gemms.push(rec("wy_final_yt2", mt, k, k));
                t.gemms.push(rec("wy_final_u3", mt, mt, k));
            }
            BlockEnd::Syr2k => {
                t.gemms.push(rec("dbr_final_v", mt, k, k));
                t.gemms.push(rec("dbr_syr2k", mt, mt, k));
                if !matches!(engine, Engine::Sgemm) {
                    t.gemms.push(rec("dbr_syr2k", mt, mt, k));
                }
            }
        }
        off += processed;
    }
    t
}

/// Trace of the recursive FormW merge tree (paper Algorithm 2) over the
/// level widths a WY run with these parameters produces, plus the final
/// back-transformation GEMMs onto an n×nev eigenvector block, on the
/// default Tensor-Core engine.
pub fn formw_trace(n: usize, b: usize, block: usize, nev: usize) -> Vec<GemmRecord> {
    formw_trace_on(n, b, block, nev, Engine::Tc)
}

/// Engine-faithful FormW trace ([`formw_trace`] with records carrying
/// `engine`).
pub fn formw_trace_on(
    n: usize,
    b: usize,
    block: usize,
    nev: usize,
    engine: Engine,
) -> Vec<GemmRecord> {
    let rec = |label, m, n, k| rec_on(engine, label, m, n, k);
    let widths = wy_trace_on(n, b, block, engine).level_widths;
    let mut out = Vec::new();
    merge_rec(&widths, n, engine, &mut out);
    let ktot: usize = widths.iter().sum();
    if nev > 0 {
        out.push(rec("backtransform_ytv", ktot, nev, n));
        out.push(rec("backtransform_wv", n, nev, ktot));
    }
    out
}

fn merge_rec(widths: &[usize], n: usize, engine: Engine, out: &mut Vec<GemmRecord>) -> usize {
    if widths.len() <= 1 {
        return widths.iter().sum();
    }
    let half = widths.len() / 2;
    let ka = merge_rec(&widths[..half], n, engine, out);
    let kb = merge_rec(&widths[half..], n, engine, out);
    out.push(rec_on(engine, "formw_ytw", ka, kb, n));
    out.push(rec_on(engine, "formw_w", n, kb, ka));
    ka + kb
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::panel::PanelKind;
    use crate::sbr_wy::{sbr_blocked, sbr_wy, WyOptions};
    use tcevd_matrix::Mat;
    use tcevd_tensorcore::GemmContext;
    use tcevd_testmat::{generate, MatrixType};

    fn shapes(v: &[GemmRecord]) -> Vec<(&'static str, usize, usize, usize)> {
        v.iter().map(|r| (r.label, r.m, r.n, r.k)).collect()
    }

    /// Run the real ZY reduction (the syr2k end at `nb = b`) on a traced
    /// context and return its GEMM records.
    fn real_zy_trace(n: usize, b: usize, seed: u64, engine: Engine) -> Vec<GemmRecord> {
        let a: Mat<f32> = generate(n, MatrixType::Normal, seed).cast();
        let ctx = GemmContext::new(engine).with_trace();
        let opts = WyOptions {
            bandwidth: b,
            block: b,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        };
        let _ = sbr_blocked(&a, &opts, BlockEnd::Syr2k, true, &ctx).expect("sbr reduction");
        ctx.take_trace()
    }

    #[test]
    fn one_panel_syr2k_trace_is_the_zy_sequence() {
        // The conventional ZY reduction written out: per b-wide panel of
        // mp = n − i − b rows, AW = A·W, Wᵀ·AW, Z = AW − ½·Y·(WᵀAW), then
        // one rank-2b syr2k over the mp×mp trailing block — one native
        // record on Sgemm, two outer-product GEMMs on the Tensor-Core
        // engines. The blocked trace at nb = b must be exactly this.
        for engine in [Engine::Sgemm, Engine::Tc, Engine::EcTc] {
            for (n, b) in [
                (64, 8),
                (70, 8),
                (96, 16),
                (130, 4),
                (257, 32),
                (20, 16),
                (9, 8),
            ] {
                let mut gemms = Vec::new();
                let mut panels = Vec::new();
                let mut i = 0;
                while i + b < n {
                    let mp = n - i - b;
                    let kf = mp.min(b);
                    panels.push(PanelOp { rows: mp, cols: b });
                    gemms.push(rec_on(engine, "wy_aw_append", mp, kf, mp));
                    gemms.push(rec_on(engine, "wy_final_waw", kf, kf, mp));
                    gemms.push(rec_on(engine, "dbr_final_v", mp, kf, kf));
                    gemms.push(rec_on(engine, "dbr_syr2k", mp, mp, kf));
                    if engine != Engine::Sgemm {
                        gemms.push(rec_on(engine, "dbr_syr2k", mp, mp, kf));
                    }
                    i += b;
                }
                let model = blocked_trace_on(n, b, b, BlockEnd::Syr2k, engine);
                assert_eq!(model.gemms, gemms, "{engine:?} n={n} b={b}");
                assert_eq!(model.panels, panels, "{engine:?} n={n} b={b}");
            }
        }
    }

    #[test]
    fn model_labels_are_all_registered() {
        // The dry-run models must emit labels from the closed registry in
        // `tcevd-tensorcore::labels`, or fault plans / sanitizer reports /
        // per-label flop counters keyed on real traces can never match them.
        let mut recs = Vec::new();
        recs.extend(blocked_trace_on(64, 8, 8, BlockEnd::Syr2k, Engine::Tc).gemms);
        recs.extend(wy_trace(64, 8, 16).gemms);
        recs.extend(blocked_trace_on(64, 8, 16, BlockEnd::Syr2k, Engine::Tc).gemms);
        recs.extend(formw_trace(64, 8, 16, 64));
        assert!(!recs.is_empty());
        for r in &recs {
            assert!(
                tcevd_tensorcore::is_registered(r.label),
                "trace-model label {:?} missing from GEMM_LABELS",
                r.label
            );
        }
    }

    #[test]
    fn zy_model_matches_real_trace() {
        for (n, b) in [(96, 8), (70, 8), (64, 16), (30, 4)] {
            let real = real_zy_trace(n, b, 31, Engine::Tc);
            let model = blocked_trace_on(n, b, b, BlockEnd::Syr2k, Engine::Tc);
            assert_eq!(shapes(&real), shapes(&model.gemms), "n={n} b={b}");
        }
    }

    #[test]
    fn wy_model_matches_real_trace() {
        for (end, seed) in [(BlockEnd::ThreeGemm, 32), (BlockEnd::Syr2k, 36)] {
            for (n, b, nb) in [
                (96, 8, 16),
                (96, 8, 32),
                (67, 8, 16),
                (128, 16, 64),
                (50, 4, 12),
            ] {
                let a: Mat<f32> = generate(n, MatrixType::Normal, seed).cast();
                let ctx = GemmContext::new(Engine::Tc).with_trace();
                let _ = sbr_blocked(
                    &a,
                    &WyOptions {
                        bandwidth: b,
                        block: nb,
                        panel: PanelKind::Tsqr,
                        accumulate_q: false,
                    },
                    end,
                    true,
                    &ctx,
                )
                .expect("sbr reduction");
                let real = ctx.take_trace();
                let model = blocked_trace_on(n, b, nb, end, Engine::Tc);
                assert_eq!(
                    shapes(&real),
                    shapes(&model.gemms),
                    "{end:?} n={n} b={b} nb={nb}"
                );
            }
        }
    }

    #[test]
    fn dbr_flops_below_wy_at_every_block_size() {
        // The folded trailing update does strictly less arithmetic than
        // WY's four-GEMM expansion at every (n, b, nb) — while keeping the
        // same panel and inner-update work.
        let n = 32768;
        let b = 128;
        for nb in [256usize, 512, 1024, 2048, 4096] {
            let dbr = blocked_trace_on(n, b, nb, BlockEnd::Syr2k, Engine::Tc).gemm_flops();
            let wy = wy_trace(n, b, nb).gemm_flops();
            assert!(dbr < wy, "nb={nb}: DBR {dbr} must be below WY {wy}");
        }
        // and a native-syr2k engine halves the trailing term again
        let tc = blocked_trace_on(n, b, 1024, BlockEnd::Syr2k, Engine::Tc).gemm_flops();
        let sg = blocked_trace_on(n, b, 1024, BlockEnd::Syr2k, Engine::Sgemm).gemm_flops();
        assert!(sg < tc);
    }

    #[test]
    fn formw_model_matches_real_trace() {
        let (n, b, nb) = (96, 8, 16);
        let a: Mat<f32> = generate(n, MatrixType::Normal, 33).cast();
        let ctx = GemmContext::new(Engine::Tc).with_trace();
        let r = sbr_wy(
            &a,
            &WyOptions {
                bandwidth: b,
                block: nb,
                panel: PanelKind::Tsqr,
                accumulate_q: false,
            },
            &ctx,
        )
        .expect("sbr reduction");
        let _ = ctx.take_trace();
        let _ = crate::formw::form_wy(&r.levels, n, &ctx);
        let real = ctx.take_trace();
        let model = formw_trace(n, b, nb, 0);
        // rayon::join may interleave subtree traces; compare as multisets
        let mut s1 = shapes(&real);
        let mut s2 = shapes(&model);
        s1.sort_unstable();
        s2.sort_unstable();
        assert_eq!(s1, s2);
    }

    #[test]
    fn zy_model_engine_matches_real_trace_exactly() {
        // Full-record equality (engine included): the model must record the
        // engine the run actually used, and on Sgemm the single native
        // syr2k record the real path emits.
        for engine in [Engine::Sgemm, Engine::Tc, Engine::EcTc] {
            let (n, b) = (64, 8);
            let real = real_zy_trace(n, b, 34, engine);
            let model = blocked_trace_on(n, b, b, BlockEnd::Syr2k, engine);
            assert_eq!(real, model.gemms, "engine {engine:?}");
        }
    }

    #[test]
    fn sgemm_zy_model_halves_syr2k_flops() {
        let (n, b) = (512, 32);
        let tc = blocked_trace_on(n, b, b, BlockEnd::Syr2k, Engine::Tc);
        let sg = blocked_trace_on(n, b, b, BlockEnd::Syr2k, Engine::Sgemm);
        assert!(sg.gemms.len() < tc.gemms.len());
        let syr2k_flops = |t: &SbrTrace| -> u64 {
            t.gemms
                .iter()
                .filter(|r| r.label == "dbr_syr2k")
                .map(|r| r.flops())
                .sum()
        };
        assert_eq!(2 * syr2k_flops(&sg), syr2k_flops(&tc));
    }

    #[test]
    fn wy_model_engine_matches_real_trace_exactly() {
        // Full-record equality (engine included): with the syr2k block end
        // the trailing update is one native record on Sgemm and two full
        // GEMMs on the TC engines.
        for (end, engine, (n, b, nb), seed) in [
            (BlockEnd::ThreeGemm, Engine::Sgemm, (64, 8, 16), 35),
            (BlockEnd::Syr2k, Engine::Sgemm, (96, 8, 32), 37),
            (BlockEnd::Syr2k, Engine::Tc, (96, 8, 32), 37),
            (BlockEnd::Syr2k, Engine::EcTc, (96, 8, 32), 37),
        ] {
            let a: Mat<f32> = generate(n, MatrixType::Normal, seed).cast();
            let ctx = GemmContext::new(engine).with_trace();
            let _ = sbr_blocked(
                &a,
                &WyOptions {
                    bandwidth: b,
                    block: nb,
                    panel: PanelKind::Tsqr,
                    accumulate_q: false,
                },
                end,
                true,
                &ctx,
            )
            .expect("sbr reduction");
            let real = ctx.take_trace();
            let model = blocked_trace_on(n, b, nb, end, engine);
            assert_eq!(real, model.gemms, "{end:?} engine {engine:?}");
        }
    }

    #[test]
    fn wy_flops_grow_with_block_size() {
        // Table 2's monotone growth
        let n = 32768;
        let b = 128;
        let mut last = 0u64;
        for nb in [128usize, 256, 512, 1024, 2048, 4096] {
            let f = wy_trace(n, b, nb).gemm_flops();
            assert!(f > last, "flops must grow with nb (nb={nb}: {f} <= {last})");
            last = f;
        }
        // and ZY does fewer
        let zy = blocked_trace_on(n, b, b, BlockEnd::Syr2k, Engine::Tc).gemm_flops();
        assert!(zy < wy_trace(n, b, 128).gemm_flops());
    }

    #[test]
    fn table2_magnitudes_match_paper() {
        // Paper Table 2: ZY(128) = 0.70e14; WY(128) = 0.93e14; WY(4096) = 1.31e14.
        let n = 32768;
        let zy = blocked_trace_on(n, 128, 128, BlockEnd::Syr2k, Engine::Tc).gemm_flops() as f64;
        assert!((zy / 0.70e14 - 1.0).abs() < 0.15, "ZY flops {zy:.3e}");
        let wy128 = wy_trace(n, 128, 128).gemm_flops() as f64;
        assert!(
            (wy128 / 0.93e14 - 1.0).abs() < 0.20,
            "WY(128) flops {wy128:.3e}"
        );
        let wy4096 = wy_trace(n, 128, 4096).gemm_flops() as f64;
        assert!(
            (wy4096 / 1.31e14 - 1.0).abs() < 0.30,
            "WY(4096) flops {wy4096:.3e}"
        );
    }
}
