//! End-to-end contract of the performance-attribution layer (`tcevd-prof`
//! plus the trace/tensorcore/matrix counters it builds on): the shape
//! trace's records sum to the runtime flop counter over a real pipeline
//! run on both the WY and ZY settings, the stage scopes partition the
//! run, the allocation watermark is consistent with the `MemoryModel`'s
//! footprint prediction, and the `bench compare` regression gate accepts
//! identity and rejects a synthetic slowdown.

use std::sync::Mutex;

use tcevd::band::PanelKind;
use tcevd::evd::{sym_eig, SbrVariant, SymEigOptions, TridiagSolver};
use tcevd::matrix::Mat;
use tcevd::tensorcore::{Engine, GemmContext};
use tcevd::testmat::{generate, MatrixType};
use tcevd::trace::TraceSink;

/// The matrix allocation watermark is process-global: serialize the
/// pipeline-running tests in this binary so one run's peaks are not
/// inflated by a sibling test's buffers.
static RUN_SERIAL: Mutex<()> = Mutex::new(());

fn traced_pipeline(n: usize, seed: u64, sbr: SbrVariant) -> (GemmContext, TraceSink) {
    let a: Mat<f32> = generate(n, MatrixType::Normal, seed).cast();
    let sink = TraceSink::enabled();
    let ctx = GemmContext::new(Engine::Tc)
        .with_trace()
        .with_sink(sink.clone());
    let r = sym_eig(
        &a,
        &SymEigOptions {
            bandwidth: 8,
            sbr,
            panel: PanelKind::Tsqr,
            solver: TridiagSolver::DivideConquer,
            vectors: true,
            trace: true,
            recovery: Default::default(),
            threads: 0,
        },
        &ctx,
    )
    .expect("traced pipeline run");
    assert_eq!(r.values.len(), n);
    (ctx, sink)
}

/// The shape trace and the sink count the same GEMMs: the recorded
/// `GemmRecord`s' flops sum to the `gemm_flops` counter `note_gemm`
/// tallied, on the WY setting and on the ZY baseline.
#[test]
fn trace_records_sum_to_the_flop_counter_on_wy_and_zy() {
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Dbr at nb = b (the pipeline's bandwidth, 8) is the ZY baseline.
    for sbr in [SbrVariant::Wy { block: 32 }, SbrVariant::Dbr { block: 8 }] {
        let (ctx, sink) = traced_pipeline(96, 11, sbr);
        let records = ctx.take_trace();
        assert!(!records.is_empty());
        let record_flops: u64 = records.iter().map(|r| r.flops()).sum();
        assert_eq!(record_flops, sink.counter("gemm_flops"), "{sbr:?}");
    }
}

/// Stage scopes partition the run's GEMM work: per-stage flop/byte/call
/// deltas must sum to the totals, and every stage's watermark must sit
/// between the run baseline and the global peak.
#[test]
fn stage_deltas_partition_the_run() {
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_ctx, sink) = traced_pipeline(96, 5, SbrVariant::Wy { block: 32 });
    let stages = tcevd::prof::stage_reports(&sink);
    let names: Vec<&str> = stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        names,
        ["back_transform", "bulge_chase", "sbr", "tridiag_solve"],
        "stage reports are keyed by the four pipeline seams"
    );
    let (mut flops, mut bytes, mut calls) = (0u64, 0u64, 0u64);
    let mut max_stage_peak = 0u64;
    for s in &stages {
        flops += s.flops;
        bytes += s.bytes;
        calls += s.calls;
        max_stage_peak = max_stage_peak.max(s.peak_bytes);
        assert!(s.peak_bytes > 0, "{}: no watermark", s.stage);
    }
    assert_eq!(flops, sink.counter("gemm_flops"));
    assert_eq!(bytes, sink.counter("gemm_bytes"));
    assert_eq!(calls, sink.counter("gemm_calls"));
    assert_eq!(
        max_stage_peak,
        sink.counter("mem.peak_bytes"),
        "global watermark is the max over stage watermarks"
    );
    // GEMM flops dominate, and the non-GEMM kernels were tallied too
    assert!(sink.counter("kernel_flops.panel") > 0);
    assert!(sink.counter("kernel_flops.bulge") > 0);
    assert!(sink.counter("kernel_flops.dc") > 0);
}

/// The measured allocation watermark must be consistent with the
/// `MemoryModel` footprint prediction for the same configuration: at least
/// the dominant n×n working set, and within a loose constant factor of the
/// prediction (the software pipeline keeps more intermediates than the
/// device-resident model counts — Q accumulators, the solver's Z, the
/// back-transform temporaries).
#[test]
fn peak_memory_is_consistent_with_the_model() {
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (n, b, nb) = (96usize, 8usize, 32usize);
    let (_ctx, sink) = traced_pipeline(n, 3, SbrVariant::Wy { block: nb });
    let peak = sink.counter("mem.peak_bytes");
    let predicted = tcevd::perfmodel::wy_memory(n, b, nb).total();
    let nn = 4 * (n as u64) * (n as u64);
    assert!(peak >= nn, "peak {peak} below one n×n f32 matrix ({nn})");
    assert!(
        peak >= predicted / 2 && peak <= predicted.max(nn) * 12,
        "peak {peak} implausible vs model prediction {predicted}"
    );
    // the footprint estimate the pipeline itself logged agrees with the model
    assert_eq!(sink.counter("sbr_bytes_est"), predicted);
}

/// The `bench compare` gate: identity passes, a synthetic 20%-slower /
/// 20%-fatter copy fails, exactly as CI uses it.
#[test]
fn bench_compare_gates_a_synthetic_regression() {
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let run = tcevd_bench::profile_run(64, 9);
    tcevd_bench::validate_bench_json(&run.json).expect("profile artifact schema");

    let identical = tcevd_bench::compare(&run.json, &run.json, 0.10, 0.10).expect("compare");
    assert!(identical.is_empty(), "identity must pass: {identical:?}");

    // 20% more peak bytes — a machine-independent resource regression
    let peak = {
        let v = tcevd::trace::json::parse(&run.json).expect("parse");
        let totals = v.get("totals").expect("totals");
        totals
            .get("peak_bytes")
            .and_then(tcevd::trace::json::Value::as_f64)
            .expect("peak_bytes") as u64
    };
    let fatter = run.json.replace(
        &format!("\"peak_bytes\": {peak}"),
        &format!("\"peak_bytes\": {}", peak + peak / 5),
    );
    assert_ne!(fatter, run.json);
    let regs = tcevd_bench::compare(&run.json, &fatter, 0.10, 0.10).expect("compare");
    assert!(
        regs.iter().any(|r| r.contains("peak_bytes")),
        "20% fatter peak must fail the 10% gate: {regs:?}"
    );

    // 20% slower wall time on every seconds column
    let v = tcevd::trace::json::parse(&run.json).expect("parse");
    let base_s = v
        .get("totals")
        .and_then(|t| t.get("seconds"))
        .and_then(tcevd::trace::json::Value::as_f64)
        .expect("totals.seconds");
    // totals.seconds prints at 6 decimals (stage/label rows use 9), so the
    // 6-decimal needle is unique to the totals block
    let slower = run.json.replace(
        &format!("\"seconds\": {base_s:.6}"),
        &format!("\"seconds\": {:.6}", base_s * 1.2),
    );
    assert_ne!(slower, run.json);
    let regs = tcevd_bench::compare(&run.json, &slower, 0.10, 0.10).expect("compare");
    assert!(
        regs.iter().any(|r| r.contains("seconds")),
        "20% slower must fail the 10% gate: {regs:?}"
    );
}
