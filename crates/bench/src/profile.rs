//! `reproduce profile` — the performance-attribution run backing
//! `BENCH_profile.json` and the CI bench-regression gate.
//!
//! One real `sym_eig` run (with eigenvectors) on a pinned 1-thread pool,
//! with the trace sink enabled, reduced to:
//!
//! * per-**stage** records — wall time, flops, bytes, GEMM calls, achieved
//!   GFLOPS, arithmetic intensity, the matrix-allocation high watermark,
//!   and the `tcevd-perfmodel` A100 prediction for the same stage;
//! * per-**label** records — the same measured columns for each of the
//!   `GEMM_LABELS` steps the run exercised;
//! * the engine **roofline** parameters and run **totals**, including the
//!   global `mem.peak_bytes` watermark against the `MemoryModel`'s
//!   footprint prediction.
//!
//! Everything except the `time.*`-derived columns is bit-identical across
//! worker-pool sizes (the determinism suite pins this), which is what makes
//! the flop/byte/peak columns meaningful to diff across machines in CI.

use std::fmt::Write as _;
use tcevd_band::trace_model::wy_trace_on;
use tcevd_band::PanelKind;
use tcevd_core::{sym_eig, SbrVariant, SymEigOptions, TridiagSolver};
use tcevd_matrix::Mat;
use tcevd_perfmodel::{wy_memory, A100Model, PanelCost};
use tcevd_tensorcore::{Engine, GemmContext, GemmRecord};
use tcevd_testmat::{generate, MatrixType};
use tcevd_trace::TraceSink;

/// Output of one attribution run: the `BENCH_profile.json` document plus
/// the human-readable stage/roofline/residual report printed to stdout.
pub struct ProfileRun {
    pub json: String,
    pub report: String,
}

/// Which pipeline stage issued a traced GEMM, by label prefix. The SBR
/// stage owns every blocked-SBR kernel plus Q accumulation (all run inside
/// the `"sbr"` stage scope); the back-transformation owns the `evd_*`
/// lifts, the FormW merge of the levels and the `backtransform_*` FormW
/// application (`Q₁` is formed and applied after the tridiagonal solve).
fn stage_of(label: &str) -> Option<&'static str> {
    if label.starts_with("wy_") || label.starts_with("dbr_") || label.starts_with("q_acc_") {
        Some("sbr")
    } else if label.starts_with("evd_")
        || label.starts_with("formw_")
        || label.starts_with("backtransform_")
    {
        Some("back_transform")
    } else {
        None
    }
}

/// Perfmodel A100 prediction for one stage of the profiled run, seconds.
/// GEMM stages price the *actual* drained shape trace; the host stages use
/// the model's stage-2 terms (bulge 6n²b, D&C ~n²).
fn model_stage_seconds(
    model: &A100Model,
    records: &[GemmRecord],
    stage: &str,
    n: usize,
    b: usize,
    nb: usize,
    engine: Engine,
) -> f64 {
    match stage {
        "sbr" => {
            let gemm_s: f64 = records
                .iter()
                .filter(|r| stage_of(r.label) == Some("sbr"))
                .map(|r| model.gemm_time(r, engine))
                .sum();
            // Panel shapes come from the validated shape trace (the real
            // run records only a `panel_rows` histogram).
            let panel_s: f64 = wy_trace_on(n, b, nb, engine)
                .panels
                .iter()
                .map(|p| model.panel_time(p, PanelCost::Tsqr))
                .sum();
            gemm_s + panel_s
        }
        "bulge_chase" => 6.0 * (n as f64) * (n as f64) * (b as f64) / model.bulge_flops_per_s,
        "tridiag_solve" => model.dc_coeff_s_per_n2 * (n as f64) * (n as f64),
        "back_transform" => records
            .iter()
            .filter(|r| stage_of(r.label) == Some("back_transform"))
            .map(|r| model.gemm_time(r, engine))
            .sum(),
        _ => 0.0,
    }
}

/// Run the real two-stage EVD at size `n` under full attribution and emit
/// the `BENCH_profile.json` document plus the stage/roofline/residual
/// report. This backs `reproduce profile`; CI diffs the JSON against the
/// committed baseline with `bench compare`.
pub fn profile_run(n: usize, seed: u64) -> ProfileRun {
    let b = (n / 16).clamp(4, 32);
    let nb = 4 * b;
    let engine = Engine::Tc;
    let threads = 1usize; // pinned: the artifact is diffed across machines
    let a64 = generate(n, MatrixType::Normal, seed);
    let a: Mat<f32> = a64.cast();

    let sink = TraceSink::enabled();
    let ctx = GemmContext::new(engine)
        .with_trace()
        .with_sink(sink.clone());
    let opts = SymEigOptions {
        bandwidth: b,
        sbr: SbrVariant::Wy { block: nb },
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors: true,
        trace: true,
        recovery: Default::default(),
        threads,
    };
    let t0 = std::time::Instant::now();
    let r = sym_eig(&a, &opts, &ctx).expect("profiled pipeline run");
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(r.values.len(), n);

    let records = ctx.take_trace();
    let model = A100Model::default();
    let stages = tcevd_prof::stage_reports(&sink);
    let labels = tcevd_prof::label_reports(&sink);
    let residual = tcevd_prof::model_residual(&model, &records, &sink);
    let roof = tcevd_prof::roofline(engine);
    let predicted_peak = wy_memory(n, b, nb).total();

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"profile\",");
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"dtype\": \"f32\",");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"engine\": \"{engine:?}\",");
    let _ = writeln!(out, "  \"bandwidth\": {b},");
    let _ = writeln!(out, "  \"block\": {nb},");
    let _ = writeln!(out, "  \"stages\": [");
    let stage_rows: Vec<String> = stages
        .iter()
        .map(|s| {
            let model_s = model_stage_seconds(&model, &records, &s.stage, n, b, nb, engine);
            format!(
                "    {{\"stage\": \"{}\", \"seconds\": {:.9}, \"flops\": {}, \"bytes\": {}, \
                 \"calls\": {}, \"gflops\": {:.3}, \"intensity\": {:.3}, \"peak_bytes\": {}, \
                 \"model_seconds\": {:.9}}}",
                s.stage,
                s.time_ns as f64 / 1e9,
                s.flops,
                s.bytes,
                s.calls,
                s.gflops,
                s.intensity,
                s.peak_bytes,
                model_s
            )
        })
        .collect();
    let _ = writeln!(out, "{}", stage_rows.join(",\n"));
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"labels\": [");
    let label_rows: Vec<String> = labels
        .iter()
        .map(|l| {
            format!(
                "    {{\"label\": \"{}\", \"calls\": {}, \"flops\": {}, \"bytes\": {}, \
                 \"seconds\": {:.9}, \"gflops\": {:.3}, \"intensity\": {:.3}}}",
                l.label,
                l.calls,
                l.flops,
                l.bytes,
                l.time_ns as f64 / 1e9,
                l.gflops,
                l.intensity
            )
        })
        .collect();
    let _ = writeln!(out, "{}", label_rows.join(",\n"));
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"model_residual\": [");
    let res_rows: Vec<String> = residual
        .iter()
        .map(|r| {
            format!(
                "    {{\"label\": \"{}\", \"class\": \"{}\", \"flops\": {}, \
                 \"measured_seconds\": {:.9}, \"predicted_seconds\": {:.9}, \"ratio\": {:.3}}}",
                r.label, r.class, r.flops, r.measured_s, r.predicted_s, r.ratio
            )
        })
        .collect();
    let _ = writeln!(out, "{}", res_rows.join(",\n"));
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"roofline\": {{\"engine\": \"{:?}\", \"peak_tflops\": {:.2}, \
         \"hbm_bytes_per_s\": {:.4e}, \"ridge_intensity\": {:.3}}},",
        roof.engine, roof.peak_tflops, roof.hbm_bytes_per_s, roof.ridge_intensity
    );
    let _ = writeln!(out, "  \"totals\": {{");
    let _ = writeln!(out, "    \"seconds\": {wall_s:.6},");
    let _ = writeln!(out, "    \"gemm_flops\": {},", sink.counter("gemm_flops"));
    let _ = writeln!(out, "    \"gemm_bytes\": {},", sink.counter("gemm_bytes"));
    let _ = writeln!(out, "    \"gemm_calls\": {},", sink.counter("gemm_calls"));
    let _ = writeln!(
        out,
        "    \"kernel_flops_panel\": {},",
        sink.counter("kernel_flops.panel")
    );
    let _ = writeln!(
        out,
        "    \"kernel_flops_bulge\": {},",
        sink.counter("kernel_flops.bulge")
    );
    let _ = writeln!(
        out,
        "    \"kernel_flops_dc\": {},",
        sink.counter("kernel_flops.dc")
    );
    let _ = writeln!(
        out,
        "    \"peak_bytes\": {},",
        sink.counter("mem.peak_bytes")
    );
    let _ = writeln!(out, "    \"predicted_peak_bytes\": {predicted_peak}");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Profiled sym_eig run: n = {n}, b = {b}, nb = {nb}, threads = {threads}, {:.3} s wall",
        wall_s
    );
    report.push_str(&tcevd_prof::stage_table_text(&stages));
    report.push_str(&tcevd_prof::roofline_text(engine, &labels));
    let _ = writeln!(
        report,
        "peak matrix bytes {} (model predicts {predicted_peak})",
        sink.counter("mem.peak_bytes")
    );
    for (class, measured, predicted) in tcevd_prof::class_residual(&residual) {
        let _ = writeln!(
            report,
            "model residual {class:<12} measured {measured:.4} s vs predicted {predicted:.6} s"
        );
    }
    ProfileRun { json: out, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcevd_trace::json;

    #[test]
    fn profile_json_carries_every_required_column() {
        let run = profile_run(96, 7);
        let v = json::parse(&run.json).expect("profile JSON parses");
        assert_eq!(
            v.get("bench").and_then(json::Value::as_str),
            Some("profile")
        );
        assert_eq!(v.get("dtype").and_then(json::Value::as_str), Some("f32"));
        assert_eq!(v.get("threads").and_then(json::Value::as_f64), Some(1.0));
        let stages = v
            .get("stages")
            .and_then(json::Value::as_arr)
            .expect("stages");
        let names: Vec<&str> = stages
            .iter()
            .filter_map(|s| s.get("stage").and_then(json::Value::as_str))
            .collect();
        for want in ["sbr", "bulge_chase", "tridiag_solve", "back_transform"] {
            assert!(names.contains(&want), "missing stage record {want}");
        }
        for s in stages {
            for col in [
                "seconds",
                "flops",
                "bytes",
                "gflops",
                "peak_bytes",
                "model_seconds",
            ] {
                assert!(s.get(col).and_then(json::Value::as_f64).is_some(), "{col}");
            }
            assert!(
                s.get("model_seconds")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0)
                    > 0.0,
                "every stage gets a perfmodel prediction"
            );
        }
        let totals = v.get("totals").expect("totals");
        assert!(
            totals
                .get("gemm_flops")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0)
                > 0.0
        );
        assert!(
            totals
                .get("kernel_flops_dc")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0)
                > 0.0,
            "n = 96 runs D&C merges"
        );
        assert!(
            totals
                .get("peak_bytes")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0)
                > 0.0
        );
        assert!(
            totals
                .get("predicted_peak_bytes")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0)
                > 0.0
        );
        assert!(run.report.contains("sbr"));
        assert!(run.report.contains("roofline"));
    }

    #[test]
    fn stage_map_covers_the_pipeline_labels() {
        use tcevd_tensorcore::labels::GEMM_LABELS;
        // every registered GEMM label maps to a pipeline stage
        for label in GEMM_LABELS {
            assert!(stage_of(label).is_some(), "{label} unmapped");
        }
    }

    #[test]
    fn stage_map_prices_each_gemm_in_the_stage_that_ran_it() {
        // The model prices each traced GEMM in the stage `stage_of` names;
        // per stage, those flops must add up to what the stage scope
        // measured. FormW merges the levels after the tridiagonal solve,
        // inside the back-transform scope.
        assert_eq!(stage_of("formw_w"), Some("back_transform"));
        assert_eq!(stage_of("formw_ytw"), Some("back_transform"));
        let n = 64;
        let a: Mat<f32> = generate(n, MatrixType::Normal, 5).cast();
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Sgemm)
            .with_trace()
            .with_sink(sink.clone());
        let opts = SymEigOptions {
            bandwidth: 8,
            sbr: SbrVariant::Wy { block: 16 },
            vectors: true,
            trace: true,
            threads: 1,
            ..SymEigOptions::default()
        };
        sym_eig(&a, &opts, &ctx).expect("profiled pipeline run");
        let records = ctx.take_trace();
        for stage in ["sbr", "back_transform"] {
            let priced: u64 = records
                .iter()
                .filter(|r| stage_of(r.label) == Some(stage))
                .map(GemmRecord::flops)
                .sum();
            let measured = sink.counter(&format!("stage.{stage}.flops"));
            assert!(measured > 0, "{stage}");
            assert_eq!(priced, measured, "{stage}");
        }
    }
}
