//! Named experiment configurations — the lines/bars of the paper's figures.

use crate::cost::{A100Model, PanelCost, SbrCost};
use tcevd_band::trace_model::{blocked_trace_on, wy_trace};
use tcevd_band::BlockEnd;
use tcevd_tensorcore::Engine;

/// One SBR configuration as plotted in Figures 9 and 10.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SbrConfig {
    /// The paper's algorithm: WY SBR, Tensor Core, TSQR panel.
    WyTc { nb: usize },
    /// WY SBR with error-corrected TCGEMMs (single-precision accuracy).
    WyEcTc { nb: usize },
    /// WY SBR with Tensor Core off (FP32 SGEMM), TSQR panel.
    WySgemm { nb: usize },
    /// WY SBR with Tensor Core on but the cuSOLVER panel (TSQR off).
    WyTcNoTsqr { nb: usize },
    /// Conventional ZY SBR on Tensor Core (two outer products per syr2k).
    ZyTc,
    /// MAGMA `ssytrd_sy2sb` baseline: ZY shapes, FP32 rates, native
    /// `ssyr2k` (half flops), MAGMA panel.
    Magma,
}

impl SbrConfig {
    pub fn label(&self) -> String {
        match self {
            SbrConfig::WyTc { nb } => format!("WY TC (nb={nb})"),
            SbrConfig::WyEcTc { nb } => format!("WY EC-TC (nb={nb})"),
            SbrConfig::WySgemm { nb } => format!("WY SGEMM (nb={nb})"),
            SbrConfig::WyTcNoTsqr { nb } => format!("WY TC cuSOLVER-panel (nb={nb})"),
            SbrConfig::ZyTc => "ZY TC".to_string(),
            SbrConfig::Magma => "MAGMA sy2sb".to_string(),
        }
    }
}

/// Simulated SBR cost for a configuration at size n, bandwidth b.
pub fn sbr_cost(model: &A100Model, n: usize, b: usize, config: SbrConfig) -> SbrCost {
    match config {
        SbrConfig::WyTc { nb } => {
            model.sbr_time(&wy_trace(n, b, nb), Engine::Tc, PanelCost::Tsqr, false)
        }
        SbrConfig::WyEcTc { nb } => {
            model.sbr_time(&wy_trace(n, b, nb), Engine::EcTc, PanelCost::Tsqr, false)
        }
        SbrConfig::WySgemm { nb } => {
            model.sbr_time(&wy_trace(n, b, nb), Engine::Sgemm, PanelCost::Tsqr, false)
        }
        SbrConfig::WyTcNoTsqr { nb } => {
            model.sbr_time(&wy_trace(n, b, nb), Engine::Tc, PanelCost::Cusolver, false)
        }
        SbrConfig::ZyTc => model.sbr_time(
            &blocked_trace_on(n, b, b, BlockEnd::Syr2k, Engine::Tc),
            Engine::Tc,
            PanelCost::Tsqr,
            false,
        ),
        SbrConfig::Magma => {
            // engine-faithful trace: the Sgemm path already records its
            // rank-2k updates as single native-syr2k GEMMs (half flops), so
            // no post-hoc halving (`syr2k_native = false`) is needed.
            model.sbr_time(
                &blocked_trace_on(n, b, b, BlockEnd::Syr2k, Engine::Sgemm),
                Engine::Sgemm,
                PanelCost::Magma,
                false,
            )
        }
    }
}

/// Simulated end-to-end EVD time (no eigenvectors), Figure 11: SBR on GPU,
/// band transfer to host, MAGMA bulge chasing + divide & conquer on CPU.
/// The MAGMA baseline keeps everything on its own path (no extra
/// transfer — its sy2sb already leaves the band on the host side).
pub fn evd_time(model: &A100Model, n: usize, b: usize, config: SbrConfig) -> f64 {
    let sbr = sbr_cost(model, n, b, config).total();
    let transfer = match config {
        SbrConfig::Magma => 0.0,
        _ => model.transfer_time(n),
    };
    sbr + transfer + model.stage2_dc_time(n, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: usize = 128;
    const NB: usize = 1024;

    #[test]
    fn headline_sbr_speedups_match_paper() {
        // Paper: WY-TC vs MAGMA up to 3.7×; WY-EC ~1.3–1.8×; WY vs ZY ~1.3×
        let m = A100Model::default();
        let n = 32768;
        let wy = sbr_cost(&m, n, B, SbrConfig::WyTc { nb: NB }).total();
        let magma = sbr_cost(&m, n, B, SbrConfig::Magma).total();
        let zy = sbr_cost(&m, n, B, SbrConfig::ZyTc).total();
        let ec = sbr_cost(&m, n, B, SbrConfig::WyEcTc { nb: NB }).total();

        let s_magma = magma / wy;
        assert!(
            (2.5..=5.0).contains(&s_magma),
            "WY vs MAGMA speedup {s_magma:.2} out of the paper's band"
        );
        let s_zy = zy / wy;
        assert!((1.1..=1.8).contains(&s_zy), "WY vs ZY speedup {s_zy:.2}");
        let s_ec = magma / ec;
        assert!((1.0..=2.5).contains(&s_ec), "EC vs MAGMA speedup {s_ec:.2}");
    }

    #[test]
    fn small_sizes_favor_baselines_less() {
        // Figure 10: at 4096 the gap is small; it widens with n.
        let m = A100Model::default();
        let s_small = sbr_cost(&m, 4096, B, SbrConfig::Magma).total()
            / sbr_cost(&m, 4096, B, SbrConfig::WyTc { nb: NB }).total();
        let s_big = sbr_cost(&m, 32768, B, SbrConfig::Magma).total()
            / sbr_cost(&m, 32768, B, SbrConfig::WyTc { nb: NB }).total();
        assert!(
            s_big > s_small,
            "speedup must grow with n: {s_small} vs {s_big}"
        );
    }

    #[test]
    fn tensor_core_off_is_worse_than_magma_at_scale() {
        // Figure 9: "without Tensor Core, the performance of the WY-based
        // algorithm is even worse than MAGMA when the matrix size is large"
        let m = A100Model::default();
        let n = 32768;
        let wy_sg = sbr_cost(&m, n, B, SbrConfig::WySgemm { nb: NB }).total();
        let magma = sbr_cost(&m, n, B, SbrConfig::Magma).total();
        assert!(wy_sg > magma, "{wy_sg} vs {magma}");
    }

    #[test]
    fn evd_speedup_matches_paper_band() {
        // Paper: up to 2.3× end-to-end (Figure 11 shows ~2× at 32768).
        let m = A100Model::default();
        let n = 32768;
        let ours = evd_time(&m, n, B, SbrConfig::WyTc { nb: NB });
        let magma = evd_time(&m, n, B, SbrConfig::Magma);
        let s = magma / ours;
        assert!((1.6..=2.6).contains(&s), "EVD speedup {s:.2}");
    }

    #[test]
    fn nb_sweep_has_interior_optimum() {
        // Figure 5: best nb is interior (1024 on the A100 data).
        let m = A100Model::default();
        let n = 32768;
        let times: Vec<f64> = [128usize, 256, 512, 1024, 2048, 4096]
            .iter()
            .map(|&nb| m.gemm_time_total(&wy_trace(n, B, nb).gemms, Engine::Tc))
            .collect();
        let best = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(best > 0, "optimum should not be the smallest nb: {times:?}");
        assert!(best < 5, "optimum should not be the largest nb: {times:?}");
    }
}
