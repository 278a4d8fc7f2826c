//! Deterministic fault-injection suite for the recovery ladder
//! (`cargo test --features fault-inject --test fault_injection`).
//!
//! Each test arms one declarative [`FaultPlan`](tcevd::testmat::FaultPlan)
//! against an otherwise healthy n = 64 problem (chosen because its baseline
//! run exercises *no* ladder rung — verified by `clean_run_baseline`), runs
//! the real pipeline, and asserts that exactly the targeted rung fired
//! exactly once while the result still meets the residual tolerances.

use tcevd::band::PanelKind;
use tcevd::evd::{
    eigenpair_residual, fault, orthogonality, sym_eig, EvdError, EvdStage, RecoveryPolicy,
    SbrVariant, SymEigOptions, SymEigResult, TridiagSolver,
};
use tcevd::matrix::Mat;
use tcevd::tensorcore::{Engine, GemmContext};
use tcevd::testmat::{generate, FaultPlan, MatrixType};
use tcevd::trace::TraceSink;

const N: usize = 64;
const SEED: u64 = 5;
const RESIDUAL_TOL: f32 = 5e-3;

/// Every ladder counter, for exhaustive "no other rung fired" assertions.
const LADDER: [&str; 6] = [
    "recovery.lu_pivot_escalation",
    "recovery.panel_householder_fallback",
    "recovery.dc_to_ql",
    "recovery.ql_budget_retry",
    "recovery.ql_to_bisect",
    "recovery.residual_resolve",
];

fn opts(solver: TridiagSolver) -> SymEigOptions {
    SymEigOptions {
        bandwidth: 4,
        sbr: SbrVariant::Wy { block: 16 },
        panel: PanelKind::Tsqr,
        solver,
        vectors: true,
        trace: true,
        recovery: RecoveryPolicy::default(),
        threads: 0,
    }
}

/// Arm `plan_json`, run `sym_eig`, disarm everything, and hand back the
/// result together with the sink holding the ladder counters.
fn run_plan_on(
    engine: Engine,
    plan_json: &str,
    opts: &SymEigOptions,
) -> (Result<SymEigResult, EvdError>, TraceSink, Mat<f32>) {
    let a: Mat<f32> = generate(N, MatrixType::Normal, SEED).cast();
    let sink = TraceSink::enabled();
    let ctx = GemmContext::new(engine).with_sink(sink.clone());
    let plan = FaultPlan::parse_json(plan_json).expect("test plan parses");
    fault::apply_plan(&plan, &ctx);
    let r = sym_eig(&a, opts, &ctx);
    fault::reset();
    ctx.clear_faults();
    (r, sink, a)
}

fn run_plan(
    plan_json: &str,
    opts: &SymEigOptions,
) -> (Result<SymEigResult, EvdError>, TraceSink, Mat<f32>) {
    run_plan_on(Engine::Sgemm, plan_json, opts)
}

/// Counters must match `expected` exactly: a rung that fires twice, or a
/// neighbouring rung that fires at all, is a bug in the ladder.
fn assert_counters(sink: &TraceSink, expected: &[(&str, u64)]) {
    for name in LADDER {
        let want = expected
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(sink.counter(name), want, "counter {name}");
    }
}

fn assert_accurate(a: &Mat<f32>, r: &SymEigResult) {
    let x = r.vectors.as_ref().expect("vectors requested");
    let resid = eigenpair_residual(a.as_ref(), &r.values, x.as_ref());
    let orth = orthogonality(x.as_ref());
    assert!(resid < RESIDUAL_TOL, "residual {resid}");
    assert!(orth < RESIDUAL_TOL, "orthogonality {orth}");
}

#[test]
fn clean_run_baseline() {
    // the premise of every exact-count assertion below: no rung fires
    // organically at this size
    let (r, sink, a) = run_plan("[]", &opts(TridiagSolver::DivideConquer));
    let r = r.expect("clean run succeeds");
    assert_counters(&sink, &[]);
    assert_eq!(sink.counter("fault.gemm_injected"), 0);
    assert_accurate(&a, &r);
}

#[test]
fn gemm_nan_is_caught_at_the_sbr_stage() {
    // untargeted NaN fault: fires on the first instrumented GEMM, which is
    // inside stage 1 — the finite-ness gate tags the error with Sbr instead
    // of letting NaN spin the solvers to their iteration budgets
    let (r, sink, _) = run_plan(
        r#"[{"kind": "gemm", "mode": "nan", "nth": 1}]"#,
        &opts(TridiagSolver::DivideConquer),
    );
    assert_eq!(sink.counter("fault.gemm_injected"), 1);
    #[cfg(not(feature = "sanitize"))]
    assert!(
        matches!(
            r,
            Err(EvdError::NonFinite {
                stage: EvdStage::Sbr
            })
        ),
        "{r:?}"
    );
    // Under the sanitizer the violation is caught at the producing GEMM's
    // output scan and attributed to its label, upgrading the stage-level
    // NonFinite into the label-carrying Sanitizer error.
    #[cfg(feature = "sanitize")]
    assert!(
        matches!(
            r,
            Err(EvdError::Sanitizer {
                stage: EvdStage::Sbr,
                ..
            })
        ),
        "{r:?}"
    );
}

#[test]
fn gemm_inf_in_back_transform_is_stage_tagged() {
    let (r, sink, _) = run_plan(
        r#"[{"kind": "gemm", "label": "evd_q2z", "mode": "inf"}]"#,
        &opts(TridiagSolver::DivideConquer),
    );
    assert_eq!(sink.counter("fault.gemm_injected"), 1);
    #[cfg(not(feature = "sanitize"))]
    assert!(
        matches!(
            r,
            Err(EvdError::NonFinite {
                stage: EvdStage::BackTransform
            })
        ),
        "{r:?}"
    );
    #[cfg(feature = "sanitize")]
    assert!(
        matches!(
            r,
            Err(EvdError::Sanitizer {
                label: "evd_q2z",
                stage: EvdStage::BackTransform,
                ..
            })
        ),
        "{r:?}"
    );
}

#[test]
fn poisoned_pivot_escalates_to_partial_pivoting_once() {
    let (r, sink, a) = run_plan(
        r#"[{"kind": "poison_pivot", "index": 2}]"#,
        &opts(TridiagSolver::DivideConquer),
    );
    let r = r.expect("pivoted reconstruction recovers");
    assert_counters(&sink, &[("recovery.lu_pivot_escalation", 1)]);
    assert_accurate(&a, &r);
}

#[test]
fn double_lu_failure_falls_back_to_householder_once() {
    let (r, sink, a) = run_plan(
        r#"[{"kind": "poison_pivot", "index": 2}, {"kind": "partial_pivot_fail"}]"#,
        &opts(TridiagSolver::DivideConquer),
    );
    let r = r.expect("householder panel recovers");
    assert_counters(
        &sink,
        &[
            ("recovery.lu_pivot_escalation", 1),
            ("recovery.panel_householder_fallback", 1),
        ],
    );
    assert_accurate(&a, &r);
}

#[test]
fn dc_breakdown_recovers_via_ql_once() {
    let (r, sink, a) = run_plan(
        r#"[{"kind": "dc_fail"}]"#,
        &opts(TridiagSolver::DivideConquer),
    );
    let r = r.expect("QL fallback recovers");
    assert_counters(&sink, &[("recovery.dc_to_ql", 1)]);
    assert_accurate(&a, &r);
}

#[test]
fn values_only_dc_breakdown_recovers_via_ql_once() {
    // the values path runs D&C keeping two rows per subproblem; its
    // breakdown takes the same rung to QL's eigenvalues-only solve
    let mut o = opts(TridiagSolver::DivideConquer);
    o.vectors = false;
    let (r, sink, a) = run_plan(r#"[{"kind": "dc_fail"}]"#, &o);
    let r = r.expect("QL fallback recovers");
    assert_counters(&sink, &[("recovery.dc_to_ql", 1)]);
    assert!(r.vectors.is_none());

    // exactly QL's values ...
    let mut ql = opts(TridiagSolver::Ql);
    ql.vectors = false;
    let (want, _, _) = run_plan("[]", &ql);
    let want = want.expect("clean QL run").values;
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r.values), bits(&want));
    // ... within the accuracy check of the full solve they stand in for
    let (full, _, _) = run_plan("[]", &opts(TridiagSolver::DivideConquer));
    let full = full.expect("clean run succeeds");
    assert_accurate(&a, &full);
    let scale = tcevd::matrix::norms::frobenius(a.as_ref());
    for (got, reference) in r.values.iter().zip(&full.values) {
        let err = (got - reference).abs() / scale;
        assert!(err < RESIDUAL_TOL, "eigenvalue error {err}");
    }
}

#[test]
fn ql_nonconvergence_retries_with_enlarged_budget_once() {
    let (r, sink, a) = run_plan(r#"[{"kind": "ql_fail"}]"#, &opts(TridiagSolver::Ql));
    let r = r.expect("budget retry recovers");
    assert_counters(&sink, &[("recovery.ql_budget_retry", 1)]);
    assert_accurate(&a, &r);
}

#[test]
fn ql_exhaustion_falls_back_to_bisection_once() {
    let (r, sink, a) = run_plan(
        r#"[{"kind": "ql_fail", "times": 2}]"#,
        &opts(TridiagSolver::Ql),
    );
    let r = r.expect("bisection recovers");
    assert_counters(
        &sink,
        &[
            ("recovery.ql_budget_retry", 1),
            ("recovery.ql_to_bisect", 1),
        ],
    );
    assert_accurate(&a, &r);
}

#[test]
#[cfg(not(feature = "sanitize"))]
fn silent_f16_overflow_is_caught_by_the_residual_check() {
    // F16Overflow writes a *finite* out-of-range value — no NaN gate can
    // see it, only the opt-in post-solve verification rung
    let mut o = opts(TridiagSolver::DivideConquer);
    o.recovery.verify_tol = Some(1e-2);
    let (r, sink, a) = run_plan(
        r#"[{"kind": "gemm", "label": "evd_q2z", "mode": "f16_overflow"}]"#,
        &o,
    );
    let r = r.expect("one re-solve recovers");
    assert_eq!(sink.counter("fault.gemm_injected"), 1);
    assert_eq!(sink.counter("recovery.residual_resolve"), 1);
    assert_accurate(&a, &r);
}

#[test]
#[cfg(feature = "sanitize")]
fn f16_overflow_is_preempted_by_the_sanitizer() {
    // with the sanitizer on, the finite out-of-range value is caught at the
    // producing GEMM — the residual rung never needs to fire. The range
    // scan is gated on the fp16-truncating engines, so this runs on Tc.
    let mut o = opts(TridiagSolver::DivideConquer);
    o.recovery.verify_tol = Some(1e-2);
    let (r, sink, _) = run_plan_on(
        Engine::Tc,
        r#"[{"kind": "gemm", "label": "evd_q2z", "mode": "f16_overflow"}]"#,
        &o,
    );
    assert_eq!(sink.counter("fault.gemm_injected"), 1);
    assert_eq!(sink.counter("recovery.residual_resolve"), 0);
    assert!(
        matches!(
            r,
            Err(EvdError::Sanitizer {
                label: "evd_q2z",
                stage: EvdStage::BackTransform,
                ..
            })
        ),
        "{r:?}"
    );
}

#[test]
fn disabled_recovery_surfaces_the_typed_error() {
    let mut o = opts(TridiagSolver::DivideConquer);
    o.recovery = RecoveryPolicy::disabled();
    let (r, sink, _) = run_plan(r#"[{"kind": "dc_fail"}]"#, &o);
    assert!(
        matches!(
            r,
            Err(EvdError::TridiagNoConvergence {
                solver: "divide & conquer",
                ..
            })
        ),
        "{r:?}"
    );
    assert_counters(&sink, &[]);
}

#[test]
fn unconsumed_faults_do_not_leak_across_runs() {
    // arm a QL fault that a DC-solver run never consumes, reset, then
    // verify a fresh run on the same thread is unaffected
    let (r, _, _) = run_plan(
        r#"[{"kind": "ql_fail", "times": 7}]"#,
        &opts(TridiagSolver::DivideConquer),
    );
    r.expect("unconsumed fault is harmless");
    let (r2, sink2, a) = run_plan("[]", &opts(TridiagSolver::Ql));
    let r2 = r2.expect("clean follow-up run");
    assert_counters(&sink2, &[]);
    assert_accurate(&a, &r2);
}
