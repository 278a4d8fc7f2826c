//! The A100 cost model: turns shape traces into simulated wall-clock.
//!
//! Every constant is either taken from the paper (Table 1 rates, the
//! 12 GB/s device-to-host rate of §6.4.1) or calibrated once against a
//! stated claim of the paper (panel speeds against Figure 8's ~5×,
//! stage-2 plus divide & conquer against Figure 11's MAGMA bars).
//! DESIGN.md documents each; nothing is fitted per-figure.

use crate::rates::{
    classify, interp_rate, ShapeClass, EC_RATE_CAP, SGEMM_OUTER, SGEMM_SQUARE_TALL, TC_OUTER,
    TC_SQUARE_TALL,
};
use tcevd_band::trace_model::{PanelOp, SbrTrace};
use tcevd_tensorcore::{Engine, GemmRecord};

/// Panel-factorization cost model to use (Figure 8's three contenders).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PanelCost {
    /// The paper's warp-parallel TSQR + WY reconstruction.
    Tsqr,
    /// cuSOLVER `sgeqrf` + `sorgqr` panel.
    Cusolver,
    /// MAGMA's `ssytrd_sy2sb` internal panel.
    Magma,
}

/// A breakdown of simulated SBR time.
#[derive(Copy, Clone, Debug, Default)]
pub struct SbrCost {
    pub gemm_s: f64,
    pub panel_s: f64,
}

impl SbrCost {
    pub fn total(&self) -> f64 {
        self.gemm_s + self.panel_s
    }
}

/// The A100 timing model.
#[derive(Copy, Clone, Debug)]
pub struct A100Model {
    /// Kernel-launch + sync overhead per GEMM (s). The paper notes "the
    /// time cost of launching kernel in TCGEMMs is not trivial" (§4.1).
    pub launch_overhead_s: f64,
    /// Device→host transfer rate (§6.4.1: "around 12GB/s").
    pub d2h_bytes_per_s: f64,
    /// Effective panel throughput, TFLOPS: TSQR.
    pub tsqr_tflops: f64,
    /// Panel fixed cost per call (s): TSQR (tree of small kernels).
    pub tsqr_overhead_s: f64,
    /// cuSOLVER panel throughput / per-call overhead.
    pub cusolver_tflops: f64,
    pub cusolver_overhead_s: f64,
    /// MAGMA sy2sb panel throughput / per-call overhead.
    pub magma_tflops: f64,
    pub magma_overhead_s: f64,
    /// CPU rate for bulge chasing (stage 2 runs on host via MAGMA+MKL).
    pub bulge_flops_per_s: f64,
    /// Effective per-n² coefficient for the host divide & conquer
    /// (eigenvalues only; massive deflation makes it ~O(n²) in practice).
    pub dc_coeff_s_per_n2: f64,
}

impl Default for A100Model {
    fn default() -> Self {
        A100Model {
            launch_overhead_s: 8e-6,
            d2h_bytes_per_s: 12e9,
            // Calibrated to Figure 8 (~5× faster panels than the library
            // baselines at SBR sizes):
            tsqr_tflops: 3.0,
            tsqr_overhead_s: 25e-6,
            cusolver_tflops: 0.6,
            cusolver_overhead_s: 120e-6,
            magma_tflops: 0.55,
            magma_overhead_s: 100e-6,
            // Calibrated to Figure 11's MAGMA end-to-end bars (host side
            // ≈ 0.7–0.8 s at n = 32768, b = 128 — the residual that bounds
            // the end-to-end speedup at ≈2× despite the 3× SBR win):
            bulge_flops_per_s: 1.5e12,
            dc_coeff_s_per_n2: 2e-10,
        }
    }
}

impl A100Model {
    /// Simulated time for one GEMM on a given engine.
    pub fn gemm_time(&self, rec: &GemmRecord, engine: Engine) -> f64 {
        let (class, small) = classify(rec.m, rec.n, rec.k);
        let rate_tflops = match (engine, class) {
            (Engine::Sgemm, ShapeClass::SquareTall) => interp_rate(&SGEMM_SQUARE_TALL, small),
            (Engine::Sgemm, ShapeClass::Outer) => interp_rate(&SGEMM_OUTER, small),
            (Engine::Tc, ShapeClass::SquareTall) => interp_rate(&TC_SQUARE_TALL, small),
            (Engine::Tc, ShapeClass::Outer) => interp_rate(&TC_OUTER, small),
            // TF32 Tensor-Core peak is half the fp16 peak on A100
            // (156 vs 312 TFLOPS); scale the measured fp16 profile.
            (Engine::Tf32, ShapeClass::SquareTall) => 0.5 * interp_rate(&TC_SQUARE_TALL, small),
            (Engine::Tf32, ShapeClass::Outer) => 0.5 * interp_rate(&TC_OUTER, small),
            (Engine::EcTc, class) => {
                // EC issues 3 reduced-precision products, but the CUTLASS
                // kernel fuses them (operand loads amortized): effective
                // rate ≈ half the plain-TC rate, capped at the 51 TFLOPS
                // Ootomo & Yokota report on A100.
                let tc = match class {
                    ShapeClass::SquareTall => interp_rate(&TC_SQUARE_TALL, small),
                    ShapeClass::Outer => interp_rate(&TC_OUTER, small),
                };
                (tc / 2.0).min(EC_RATE_CAP)
            }
        };
        rec.flops() as f64 / (rate_tflops * 1e12) + self.launch_overhead_s
    }

    /// Simulated time for one panel factorization.
    pub fn panel_time(&self, p: &PanelOp, kind: PanelCost) -> f64 {
        let flops = tcevd_factor::tsqr_flops(p.rows, p.cols) as f64;
        let (tflops, overhead) = match kind {
            PanelCost::Tsqr => (self.tsqr_tflops, self.tsqr_overhead_s),
            PanelCost::Cusolver => (self.cusolver_tflops, self.cusolver_overhead_s),
            PanelCost::Magma => (self.magma_tflops, self.magma_overhead_s),
        };
        flops / (tflops * 1e12) + overhead
    }

    /// Simulated SBR time from a shape trace.
    ///
    /// `syr2k_native`: MAGMA's FP32 path issues real `ssyr2k` (half the
    /// flops of the two full outer products Tensor Cores require — the
    /// paper's §4.1 observation); set it for the MAGMA baseline profile.
    pub fn sbr_time(
        &self,
        trace: &SbrTrace,
        engine: Engine,
        panel: PanelCost,
        syr2k_native: bool,
    ) -> SbrCost {
        let mut gemm_s = 0.0;
        for rec in &trace.gemms {
            let mut t = self.gemm_time(rec, engine);
            if syr2k_native && rec.label.ends_with("syr2k") {
                t = (t - self.launch_overhead_s) * 0.5 + self.launch_overhead_s;
            }
            gemm_s += t;
        }
        let panel_s: f64 = trace.panels.iter().map(|p| self.panel_time(p, panel)).sum();
        SbrCost { gemm_s, panel_s }
    }

    /// Only the GEMM portion of a trace (Figures 5–7 plot GEMM time alone).
    pub fn gemm_time_total(&self, recs: &[GemmRecord], engine: Engine) -> f64 {
        recs.iter().map(|r| self.gemm_time(r, engine)).sum()
    }

    /// Achieved TFLOPS of a record set under the model.
    pub fn achieved_tflops(&self, recs: &[GemmRecord], engine: Engine) -> f64 {
        let flops: u64 = recs.iter().map(|r| r.flops()).sum();
        flops as f64 / self.gemm_time_total(recs, engine) / 1e12
    }

    /// Device→host transfer of the band matrix (f32, full n×n storage).
    pub fn transfer_time(&self, n: usize) -> f64 {
        4.0 * (n as f64) * (n as f64) / self.d2h_bytes_per_s
    }

    /// Host stage-2 (bulge chasing, O(n²b)) + divide & conquer
    /// (eigenvalues only) — the MAGMA/MKL part both contenders share in
    /// Figure 11.
    pub fn stage2_dc_time(&self, n: usize, b: usize) -> f64 {
        let bulge_flops = 6.0 * (n as f64) * (n as f64) * b as f64;
        bulge_flops / self.bulge_flops_per_s + self.dc_coeff_s_per_n2 * (n as f64) * (n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcevd_band::trace_model::{blocked_trace_on, wy_trace};
    use tcevd_band::BlockEnd;

    fn rec(m: usize, n: usize, k: usize) -> GemmRecord {
        GemmRecord {
            m,
            n,
            k,
            engine: Engine::Tc,
            label: "t",
        }
    }

    #[test]
    fn big_square_gemm_hits_tc_peak() {
        let m = A100Model::default();
        let r = rec(32768, 32768, 4096);
        let t = m.gemm_time(&r, Engine::Tc);
        let tflops = r.flops() as f64 / t / 1e12;
        assert!((tflops - 140.85).abs() < 2.0, "got {tflops}");
    }

    #[test]
    fn tall_skinny_is_slow_on_tc() {
        let m = A100Model::default();
        let r = rec(32768, 32768, 32);
        let tc = m.gemm_time(&r, Engine::Tc);
        let sg = m.gemm_time(&r, Engine::Sgemm);
        // at k = 32 the outer-product TC rate (20) still beats SGEMM (9.3),
        // but a square-tall k=32 GEMM is slower on TC than SGEMM:
        let r2 = rec(32768, 32, 32768);
        assert!(m.gemm_time(&r2, Engine::Tc) > m.gemm_time(&r2, Engine::Sgemm));
        assert!(tc < sg);
    }

    #[test]
    fn ec_is_slower_than_tc_but_faster_than_sgemm_at_scale() {
        let m = A100Model::default();
        let r = rec(20000, 20000, 1024);
        let t_tc = m.gemm_time(&r, Engine::Tc);
        let t_ec = m.gemm_time(&r, Engine::EcTc);
        let t_sg = m.gemm_time(&r, Engine::Sgemm);
        assert!(t_tc < t_ec && t_ec < t_sg);
    }

    #[test]
    fn panel_ordering_matches_figure8() {
        let m = A100Model::default();
        let p = PanelOp {
            rows: 16384,
            cols: 128,
        };
        let tsqr = m.panel_time(&p, PanelCost::Tsqr);
        let cus = m.panel_time(&p, PanelCost::Cusolver);
        let mag = m.panel_time(&p, PanelCost::Magma);
        assert!(tsqr * 3.0 < cus, "TSQR should be ~5x faster");
        assert!(tsqr * 3.0 < mag);
        assert!((cus / tsqr) < 10.0);
    }

    #[test]
    fn wy_beats_zy_on_tc_at_scale_but_not_sgemm() {
        // the core claim (Figures 6 vs 7) falls out of the model
        let m = A100Model::default();
        let n = 32768;
        let wy = wy_trace(n, 128, 1024);
        let zy = blocked_trace_on(n, 128, 128, BlockEnd::Syr2k, Engine::Tc);
        let wy_tc = m.gemm_time_total(&wy.gemms, Engine::Tc);
        let zy_tc = m.gemm_time_total(&zy.gemms, Engine::Tc);
        assert!(wy_tc < zy_tc, "WY {wy_tc} should beat ZY {zy_tc} on TC");
        let wy_sg = m.gemm_time_total(&wy.gemms, Engine::Sgemm);
        let zy_sg = m.gemm_time_total(&zy.gemms, Engine::Sgemm);
        assert!(wy_sg > zy_sg, "ZY {zy_sg} should beat WY {wy_sg} on SGEMM");
    }

    #[test]
    fn transfer_matches_paper_rate() {
        let m = A100Model::default();
        // 32768² f32 ≈ 4.3 GB at 12 GB/s ≈ 0.36 s
        let t = m.transfer_time(32768);
        assert!((t - 0.357).abs() < 0.01, "{t}");
    }
}
