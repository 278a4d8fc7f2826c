//! Sanitizer attribution suite
//! (`cargo test --features fault-inject,sanitize --test sanitize_attribution`).
//!
//! The runtime sanitizer scans every GEMM output (and, on the f16 engines,
//! the operands about to be truncated) for non-finite values and values
//! outside fp16 range. These tests inject each [`FaultMode`] through the
//! deterministic fault plan and assert the sanitizer catches it and
//! attributes it to the *producing* GEMM's step label — not just to the
//! stage, which is all the plain finiteness gates can say.

use tcevd::band::PanelKind;
use tcevd::evd::{
    fault, sym_eig, EvdError, EvdStage, RecoveryPolicy, SbrVariant, SymEigOptions, SymEigResult,
    TridiagSolver,
};
use tcevd::matrix::Mat;
use tcevd::tensorcore::{is_registered, Engine, GemmContext};
use tcevd::testmat::{generate, FaultPlan, MatrixType};
use tcevd::trace::TraceSink;

const N: usize = 64;
const SEED: u64 = 5;

fn opts(sbr: SbrVariant) -> SymEigOptions {
    SymEigOptions {
        bandwidth: 4,
        sbr,
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors: true,
        trace: true,
        recovery: RecoveryPolicy::default(),
        threads: 0,
    }
}

fn run_plan_on(
    engine: Engine,
    plan_json: &str,
    opts: &SymEigOptions,
) -> (Result<SymEigResult, EvdError>, TraceSink) {
    let a: Mat<f32> = generate(N, MatrixType::Normal, SEED).cast();
    let sink = TraceSink::enabled();
    let ctx = GemmContext::new(engine).with_sink(sink.clone());
    let plan = FaultPlan::parse_json(plan_json).expect("test plan parses");
    fault::apply_plan(&plan, &ctx);
    let r = sym_eig(&a, opts, &ctx);
    fault::reset();
    ctx.clear_faults();
    (r, sink)
}

fn run_plan(plan_json: &str, opts: &SymEigOptions) -> (Result<SymEigResult, EvdError>, TraceSink) {
    run_plan_on(Engine::Sgemm, plan_json, opts)
}

/// The injected violation must surface as `EvdError::Sanitizer` carrying
/// the exact producing label and stage, with the per-label counter bumped.
fn assert_attributed(
    r: &Result<SymEigResult, EvdError>,
    sink: &TraceSink,
    label: &str,
    stage: EvdStage,
) {
    match r {
        Err(EvdError::Sanitizer {
            label: l,
            stage: s,
            detail,
        }) => {
            assert_eq!(*l, label, "attributed label (detail: {detail})");
            assert_eq!(*s, stage, "attributed stage (detail: {detail})");
            assert!(
                detail.contains(label),
                "detail should echo the label: {detail}"
            );
        }
        other => panic!("expected Sanitizer({label:?}) error, got {other:?}"),
    }
    assert_eq!(sink.counter("sanitize.violation"), 1, "global counter");
    assert_eq!(
        sink.counter(&format!("sanitize.violation.{label}")),
        1,
        "per-label counter"
    );
}

#[test]
fn clean_sanitized_run_has_no_violations() {
    let (r, sink) = run_plan("[]", &opts(SbrVariant::Wy { block: 16 }));
    r.expect("clean run passes under the sanitizer");
    assert_eq!(sink.counter("sanitize.violation"), 0);
}

#[test]
fn nan_fault_is_attributed_to_the_producing_label() {
    let (r, sink) = run_plan(
        r#"[{"kind": "gemm", "label": "evd_q2z", "mode": "nan"}]"#,
        &opts(SbrVariant::Wy { block: 16 }),
    );
    assert_eq!(sink.counter("fault.gemm_injected"), 1);
    assert_attributed(&r, &sink, "evd_q2z", EvdStage::BackTransform);
}

#[test]
fn inf_fault_is_attributed_to_the_producing_label() {
    let (r, sink) = run_plan(
        r#"[{"kind": "gemm", "label": "evd_q2z", "mode": "inf"}]"#,
        &opts(SbrVariant::Wy { block: 16 }),
    );
    assert_eq!(sink.counter("fault.gemm_injected"), 1);
    assert_attributed(&r, &sink, "evd_q2z", EvdStage::BackTransform);
}

#[test]
fn finite_f16_overflow_is_caught_without_a_residual_check() {
    // the value 7e4 is finite, so no finiteness gate can see it — only the
    // sanitizer's fp16-range scan, which is gated on the truncating engines
    // (on Sgemm a huge finite f32 is legitimate); attribution still names
    // the GEMM
    let (r, sink) = run_plan_on(
        Engine::Tc,
        r#"[{"kind": "gemm", "label": "evd_q2z", "mode": "f16_overflow"}]"#,
        &opts(SbrVariant::Wy { block: 16 }),
    );
    assert_eq!(sink.counter("fault.gemm_injected"), 1);
    assert_attributed(&r, &sink, "evd_q2z", EvdStage::BackTransform);
    assert_eq!(
        sink.counter("recovery.residual_resolve"),
        0,
        "sanitizer must fire before the residual rung is ever consulted"
    );
}

#[test]
fn sbr_stage_fault_is_attributed_with_sbr_stage() {
    let (r, sink) = run_plan(
        r#"[{"kind": "gemm", "label": "wy_inner_x", "mode": "nan"}]"#,
        &opts(SbrVariant::Wy { block: 16 }),
    );
    assert_eq!(sink.counter("fault.gemm_injected"), 1);
    assert_attributed(&r, &sink, "wy_inner_x", EvdStage::Sbr);
}

#[test]
fn zy_variant_fault_is_attributed_with_sbr_stage() {
    // ZY is Dbr at nb = b; its A·W product is `wy_aw_append`.
    let (r, sink) = run_plan(
        r#"[{"kind": "gemm", "label": "wy_aw_append", "mode": "inf"}]"#,
        &opts(SbrVariant::Dbr { block: 4 }),
    );
    assert_eq!(sink.counter("fault.gemm_injected"), 1);
    assert_attributed(&r, &sink, "wy_aw_append", EvdStage::Sbr);
}

#[test]
fn untargeted_fault_is_attributed_to_the_first_gemm() {
    let (r, sink) = run_plan(
        r#"[{"kind": "gemm", "mode": "nan", "nth": 1}]"#,
        &opts(SbrVariant::Wy { block: 16 }),
    );
    assert_eq!(sink.counter("fault.gemm_injected"), 1);
    match &r {
        Err(EvdError::Sanitizer { label, stage, .. }) => {
            assert!(
                is_registered(label),
                "attributed label {label:?} must come from the registry"
            );
            assert_eq!(*stage, EvdStage::Sbr, "first GEMM is in stage 1");
            assert_eq!(
                sink.counter(&format!("sanitize.violation.{label}")),
                1,
                "per-label counter for {label:?}"
            );
        }
        other => panic!("expected a Sanitizer error, got {other:?}"),
    }
    assert_eq!(
        sink.counter("sanitize.violation"),
        1,
        "first violation wins; later cascading hits are not double-counted"
    );
}

#[test]
fn attribution_is_identical_across_thread_counts() {
    // With workers scanning GEMM outputs concurrently, the *selected* first
    // violation must still be deterministic: the same fault plan has to
    // produce the same label, stage, and counter totals at 1 and 4 threads.
    let plan = r#"[{"kind": "gemm", "label": "evd_q2z", "mode": "nan"}]"#;
    let mut results = Vec::new();
    for threads in [1usize, 4] {
        let mut o = opts(SbrVariant::Wy { block: 16 });
        o.threads = threads;
        let (r, sink) = run_plan(plan, &o);
        assert_attributed(&r, &sink, "evd_q2z", EvdStage::BackTransform);
        let counters: Vec<(String, u64)> = sink
            .counters()
            .into_iter()
            .filter(|(k, _)| k.starts_with("sanitize.") || k.starts_with("fault."))
            .collect();
        let (label, stage) = match r {
            Err(EvdError::Sanitizer { label, stage, .. }) => (label, stage),
            other => panic!("expected Sanitizer error, got {other:?}"),
        };
        results.push((label, stage, counters));
    }
    assert_eq!(
        results[0], results[1],
        "attribution must not depend on the worker-pool size"
    );
}

#[test]
fn sanitizer_reports_are_consumed_by_the_failing_run() {
    // a violated run must not leave a stale report behind that poisons the
    // next run on the same context
    let a: Mat<f32> = generate(N, MatrixType::Normal, SEED).cast();
    let sink = TraceSink::enabled();
    let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
    let plan = FaultPlan::parse_json(r#"[{"kind": "gemm", "label": "evd_q2z", "mode": "nan"}]"#)
        .expect("plan parses");
    fault::apply_plan(&plan, &ctx);
    let o = opts(SbrVariant::Wy { block: 16 });
    let r1 = sym_eig(&a, &o, &ctx);
    fault::reset();
    ctx.clear_faults();
    assert!(matches!(r1, Err(EvdError::Sanitizer { .. })), "{r1:?}");
    let r2 = sym_eig(&a, &o, &ctx);
    r2.expect("fresh run on the same context is clean");
}
