//! The bridge between the numeric implementation and the performance
//! model: dry-run shape traces must agree with what the instrumented
//! algorithms actually execute, and the flop accounting must line up with
//! the paper's Table 2.

use tcevd::band::form_wy;
use tcevd::band::{
    blocked_trace_on, formw_trace, sbr_blocked, sbr_wy, wy_trace, wy_trace_on, BlockEnd, PanelKind,
    WyOptions,
};
use tcevd::matrix::Mat;
use tcevd::perfmodel::{sbr_cost, A100Model, SbrConfig};
use tcevd::tensorcore::{Engine, GemmContext};
use tcevd::testmat::{generate, MatrixType};

/// The conventional ZY reduction: the blocked SBR's syr2k end at nb = b.
fn zy_options(b: usize) -> WyOptions {
    WyOptions {
        bandwidth: b,
        block: b,
        panel: PanelKind::Tsqr,
        accumulate_q: false,
    }
}

#[test]
fn real_and_model_traces_agree_across_configs() {
    for (n, b, nb) in [(120usize, 8usize, 16usize), (96, 12, 24), (150, 10, 40)] {
        let a: Mat<f32> = generate(n, MatrixType::Normal, 5).cast();

        let ctx = GemmContext::new(Engine::Tc).with_trace();
        let _ = sbr_wy(
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
        let real: Vec<_> = ctx
            .take_trace()
            .iter()
            .map(|r| (r.label, r.m, r.n, r.k))
            .collect();
        let model: Vec<_> = wy_trace(n, b, nb)
            .gemms
            .iter()
            .map(|r| (r.label, r.m, r.n, r.k))
            .collect();
        assert_eq!(real, model, "WY n={n} b={b} nb={nb}");

        let ctx = GemmContext::new(Engine::Tc).with_trace();
        let _ =
            sbr_blocked(&a, &zy_options(b), BlockEnd::Syr2k, true, &ctx).expect("sbr reduction");
        let real: Vec<_> = ctx
            .take_trace()
            .iter()
            .map(|r| (r.label, r.m, r.n, r.k))
            .collect();
        let model: Vec<_> = blocked_trace_on(n, b, b, BlockEnd::Syr2k, Engine::Tc)
            .gemms
            .iter()
            .map(|r| (r.label, r.m, r.n, r.k))
            .collect();
        assert_eq!(real, model, "ZY n={n} b={b}");
    }
}

#[test]
fn real_and_model_engine_fields_agree() {
    // The model traces must record the engine the context actually
    // dispatches — full GemmRecord equality, engine field included. This
    // covers the Sgemm path's native-syr2k shape (one record, half flops)
    // vs the Tensor-Core decomposition (two outer products).
    let (n, b, nb) = (96usize, 8usize, 16usize);
    let a: Mat<f32> = generate(n, MatrixType::Normal, 9).cast();
    for engine in [Engine::Sgemm, Engine::Tc, Engine::EcTc] {
        let ctx = GemmContext::new(engine).with_trace();
        let _ =
            sbr_blocked(&a, &zy_options(b), BlockEnd::Syr2k, true, &ctx).expect("sbr reduction");
        assert_eq!(
            ctx.take_trace(),
            blocked_trace_on(n, b, b, BlockEnd::Syr2k, engine).gemms,
            "ZY {engine:?}"
        );

        let ctx = GemmContext::new(engine).with_trace();
        let _ = sbr_wy(
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
        assert_eq!(
            ctx.take_trace(),
            wy_trace_on(n, b, nb, engine).gemms,
            "WY {engine:?}"
        );
    }
}

#[test]
fn formw_trace_matches_real_merge_tree() {
    let (n, b, nb) = (144usize, 8, 16);
    let a: Mat<f32> = generate(n, MatrixType::Uniform, 6).cast();
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
    let _ = form_wy(&r.levels, n, &ctx);
    let mut real: Vec<_> = ctx
        .take_trace()
        .iter()
        .map(|r| (r.label, r.m, r.n, r.k))
        .collect();
    let mut model: Vec<_> = formw_trace(n, b, nb, 0)
        .iter()
        .map(|r| (r.label, r.m, r.n, r.k))
        .collect();
    real.sort_unstable();
    model.sort_unstable();
    assert_eq!(real, model);
}

#[test]
fn table2_flop_counts_in_paper_band() {
    // the absolute numbers of the paper's Table 2
    let n = 32768;
    let checks = [
        (
            blocked_trace_on(n, 128, 128, BlockEnd::Syr2k, Engine::Tc).gemm_flops() as f64,
            0.70e14,
            0.15,
        ),
        (wy_trace(n, 128, 128).gemm_flops() as f64, 0.93e14, 0.20),
        (wy_trace(n, 128, 1024).gemm_flops() as f64, 1.17e14, 0.25),
        (wy_trace(n, 128, 4096).gemm_flops() as f64, 1.31e14, 0.30),
    ];
    for (got, want, tol) in checks {
        assert!(
            (got / want - 1.0).abs() < tol,
            "flops {got:.3e} vs paper {want:.3e}"
        );
    }
}

#[test]
fn model_speedups_hold_the_paper_shape() {
    let m = A100Model::default();
    let (b, nb) = (128, 1024);
    // monotone speedup growth over n, crossing ~3x at the top size
    let mut last = 0.0;
    for n in [4096usize, 8192, 16384, 32768] {
        let wy = sbr_cost(&m, n, b, SbrConfig::WyTc { nb }).total();
        let magma = sbr_cost(&m, n, b, SbrConfig::Magma).total();
        let s = magma / wy;
        assert!(s > last, "speedup should grow with n");
        last = s;
    }
    assert!(last > 2.5, "peak SBR speedup {last:.2} too low");
    // WY-vs-ZY crossover: ZY wins at 4096, WY wins at 32768 (Figure 6)
    let wy_small = sbr_cost(&m, 4096, b, SbrConfig::WyTc { nb }).gemm_s;
    let zy_small = sbr_cost(&m, 4096, b, SbrConfig::ZyTc).gemm_s;
    assert!(
        zy_small < wy_small,
        "at 4096 ZY should win: {zy_small} vs {wy_small}"
    );
    let wy_big = sbr_cost(&m, 32768, b, SbrConfig::WyTc { nb }).gemm_s;
    let zy_big = sbr_cost(&m, 32768, b, SbrConfig::ZyTc).gemm_s;
    assert!(
        wy_big < zy_big,
        "at 32768 WY should win: {wy_big} vs {zy_big}"
    );
}
