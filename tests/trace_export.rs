//! Exporter-level guarantees of the tracing layer on a real pipeline run:
//! the Chrome `trace_event` JSON is well-formed with balanced span
//! begin/end events covering every pipeline stage, the sink's GEMM flop
//! tally matches the context's own accounting, and two identical runs
//! produce identical counters (determinism).

use std::collections::BTreeMap;
use std::sync::Mutex;

use tcevd::band::PanelKind;
use tcevd::evd::{sym_eig, SbrVariant, SymEigOptions, TridiagSolver};
use tcevd::matrix::Mat;
use tcevd::tensorcore::{Engine, GemmContext};
use tcevd::testmat::{generate, MatrixType};
use tcevd::trace::{json, TraceSink};

const N: usize = 128;
const B: usize = 8;

/// The matrix allocation watermark (`tcevd::matrix::mem`) is process-global:
/// serialize the pipeline runs in this binary so a sibling test's buffers
/// never inflate another run's `stage.*.peak_bytes`. No tracked `Mat`
/// outlives the lock (the run's result is dropped inside `traced_run`).
static RUN_SERIAL: Mutex<()> = Mutex::new(());

fn traced_run(seed: u64) -> (TraceSink, GemmContext) {
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a: Mat<f32> = generate(N, MatrixType::Normal, seed).cast();
    let sink = TraceSink::enabled();
    let ctx = GemmContext::new(Engine::Tc)
        .with_trace()
        .with_sink(sink.clone());
    let opts = SymEigOptions {
        bandwidth: B,
        sbr: SbrVariant::Wy { block: 4 * B },
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors: true,
        trace: true,
        recovery: Default::default(),
        threads: 0,
    };
    sym_eig(&a, &opts, &ctx).expect("traced run");
    (sink, ctx)
}

#[test]
fn chrome_trace_parses_and_spans_balance() {
    let (sink, _ctx) = traced_run(3);
    let doc = json::parse(&sink.chrome_trace_json()).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Every B must close with a matching E, properly nested per (pid, tid),
    // with per-thread timestamps monotonically non-decreasing.
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
        let key = (
            ev.get("pid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64,
            ev.get("tid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64,
        );
        let prev = last_ts.entry(key).or_insert(f64::NEG_INFINITY);
        assert!(
            ts >= *prev,
            "per-thread timestamps must be sorted: {ts} < {prev}"
        );
        *prev = ts;
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .expect("name")
            .to_string();
        match ph {
            "B" => stacks.entry(key).or_default().push(name),
            "E" => {
                let open = stacks.get_mut(&key).and_then(Vec::pop);
                assert_eq!(open.as_deref(), Some(name.as_str()), "unbalanced span");
            }
            _ => {} // counters/metadata are fine
        }
    }
    for (key, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on {key:?}: {stack:?}");
    }

    // The span tree must cover every pipeline stage the issue names.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("B"))
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    for stage in [
        "sym_eig",
        "sbr_wy",
        "panel",
        "bulge_chase",
        "tridiag_dc",
        "back_transform",
    ] {
        assert!(
            names.contains(&stage),
            "missing span {stage:?} in {names:?}"
        );
    }
    // per-panel children: one "panel" span per factored panel
    let panels = names.iter().filter(|&&s| s == "panel").count() as u64;
    assert_eq!(panels, sink.counter("panel_count"));
}

#[test]
fn sink_flops_match_context_accounting() {
    let (sink, ctx) = traced_run(3);
    assert_eq!(sink.counter("gemm_flops"), ctx.total_flops());
    assert_eq!(
        sink.counter("gemm_flops"),
        sink.counter("gemm_flops_outer") + sink.counter("gemm_flops_square_tall")
    );
}

#[test]
fn identical_runs_emit_identical_counters() {
    let (s1, _) = traced_run(11);
    let (s2, _) = traced_run(11);
    // wall-clock counters (`time.*`) and the pool telemetry (`par.*`,
    // which counts how the scheduler happened to split work) legitimately
    // differ between runs, as in `tests/determinism.rs`; everything else —
    // including the attribution layer's flop/byte/peak-memory counters —
    // must be bit-identical
    let strip = |s: &TraceSink| -> BTreeMap<String, u64> {
        s.counters()
            .into_iter()
            .filter(|(k, _)| !k.starts_with("par.") && !k.starts_with("time."))
            .collect()
    };
    assert_eq!(strip(&s1), strip(&s2));
    let h1: Vec<_> = s1
        .histograms()
        .into_iter()
        .map(|(k, h)| (k, h.count, h.sum))
        .collect();
    let h2: Vec<_> = s2
        .histograms()
        .into_iter()
        .map(|(k, h)| (k, h.count, h.sum))
        .collect();
    assert_eq!(h1, h2);
}
