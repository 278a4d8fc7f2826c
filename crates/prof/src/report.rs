//! Derived performance-attribution reports over a [`TraceSink`]'s counters:
//! per-label and per-stage achieved-GFLOPS tables, a roofline summary, and
//! the model-residual join against `tcevd-perfmodel`'s A100 predictions.
//!
//! Everything here is a pure function of the counter snapshot (plus, for
//! the residual join, the drained shape trace), so reports can be built
//! after the run without having interposed on it.

use std::collections::BTreeMap;

use tcevd_perfmodel::rates;
use tcevd_perfmodel::A100Model;
use tcevd_tensorcore::{Engine, GemmRecord};
use tcevd_trace::TraceSink;

/// Measured totals of one GEMM label.
#[derive(Clone, Debug, PartialEq)]
pub struct LabelReport {
    pub label: String,
    pub calls: u64,
    pub flops: u64,
    pub bytes: u64,
    /// Summed kernel-dispatch wall time (`time.gemm_ns.{label}`).
    pub time_ns: u64,
    /// Achieved rate over the measured dispatch time (0 when unmeasured).
    pub gflops: f64,
    /// Arithmetic intensity, flop/byte.
    pub intensity: f64,
}

/// Measured totals of one pipeline stage (from the `stage.*` counters a
/// [`StageScope`](crate::StageScope) records).
#[derive(Clone, Debug, PartialEq)]
pub struct StageReport {
    pub stage: String,
    pub flops: u64,
    pub bytes: u64,
    pub calls: u64,
    /// Matrix-buffer allocation high watermark inside the stage.
    pub peak_bytes: u64,
    /// Stage wall time (`time.stage.{stage}_ns`).
    pub time_ns: u64,
    pub gflops: f64,
    pub intensity: f64,
}

fn gflops_of(flops: u64, time_ns: u64) -> f64 {
    if time_ns == 0 {
        0.0
    } else {
        flops as f64 / time_ns as f64 // flop/ns == Gflop/s
    }
}

/// Arithmetic intensity (flop/byte) of a flop/byte pair; 0 when no bytes.
fn intensity(flops: u64, bytes: u64) -> f64 {
    if bytes == 0 {
        0.0
    } else {
        flops as f64 / bytes as f64
    }
}

/// Per-label report rows from a sink's `gemm_*.{label}` counters, sorted
/// by label.
pub fn label_reports(sink: &TraceSink) -> Vec<LabelReport> {
    let counters = sink.counters();
    let mut out = Vec::new();
    for (key, &flops) in counters.range("gemm_flops.".to_string()..) {
        let Some(label) = key.strip_prefix("gemm_flops.") else {
            break; // BTreeMap range: past the prefix block
        };
        let get = |pfx: &str| {
            counters
                .get(&format!("{pfx}.{label}"))
                .copied()
                .unwrap_or(0)
        };
        let bytes = get("gemm_bytes");
        let time_ns = get("time.gemm_ns");
        out.push(LabelReport {
            label: label.to_string(),
            calls: get("gemm_calls"),
            flops,
            bytes,
            time_ns,
            gflops: gflops_of(flops, time_ns),
            intensity: intensity(flops, bytes),
        });
    }
    out
}

/// Per-stage report rows from a sink's `stage.{name}.*` counters, in stage
/// name order.
pub fn stage_reports(sink: &TraceSink) -> Vec<StageReport> {
    let counters = sink.counters();
    let mut out = Vec::new();
    for (key, &flops) in counters.range("stage.".to_string()..) {
        let Some(rest) = key.strip_prefix("stage.") else {
            break;
        };
        let Some(stage) = rest.strip_suffix(".flops") else {
            continue; // .bytes/.calls/.peak_bytes rows of the same stage
        };
        let get = |sfx: &str| {
            counters
                .get(&format!("stage.{stage}.{sfx}"))
                .copied()
                .unwrap_or(0)
        };
        let bytes = get("bytes");
        let time_ns = counters
            .get(&format!("time.stage.{stage}_ns"))
            .copied()
            .unwrap_or(0);
        out.push(StageReport {
            stage: stage.to_string(),
            flops,
            bytes,
            calls: get("calls"),
            peak_bytes: get("peak_bytes"),
            time_ns,
            gflops: gflops_of(flops, time_ns),
            intensity: intensity(flops, bytes),
        });
    }
    out
}

/// Render the per-stage table as the README's sample report format.
pub fn stage_table_text(stages: &[StageReport]) -> String {
    let mut out = String::from("stage            time_ms        gflops   flop/byte   peak_bytes\n");
    for s in stages {
        out.push_str(&format!(
            "{:<16} {:>9.3} {:>12.2} {:>11.3} {:>12}\n",
            s.stage,
            s.time_ns as f64 / 1e6,
            s.gflops,
            s.intensity,
            s.peak_bytes
        ));
    }
    out
}

/// The engine's roofline parameters (Table-1 peak, HBM slope, ridge),
/// plus the measured peak of the host software kernels that actually
/// execute the dispatches the model prices.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Roofline {
    pub engine: Engine,
    pub peak_tflops: f64,
    pub hbm_bytes_per_s: f64,
    /// Intensity (flop/byte) where the bandwidth slope meets the ceiling.
    pub ridge_intensity: f64,
    /// Measured host software-kernel peak (the packed GEMM of
    /// `tcevd_matrix::blas3`), TFLOPS — the ceiling the `model_residual`
    /// ratios are really up against.
    pub host_peak_tflops: f64,
}

/// Roofline parameters for `engine`.
pub fn roofline(engine: Engine) -> Roofline {
    Roofline {
        engine,
        peak_tflops: rates::peak_tflops(engine),
        hbm_bytes_per_s: rates::HBM_BYTES_PER_S,
        ridge_intensity: rates::ridge_intensity(engine),
        host_peak_tflops: rates::host_peak_gflops() / 1e3,
    }
}

/// Text roofline summary: each label's intensity, the roofline-attainable
/// rate at that intensity, and where the label sits relative to the ridge.
pub fn roofline_text(engine: Engine, labels: &[LabelReport]) -> String {
    let r = roofline(engine);
    let mut out = format!(
        "roofline ({:?}): peak {:.2} TFLOPS, HBM {:.3} TB/s, ridge {:.1} flop/byte\n",
        r.engine,
        r.peak_tflops,
        r.hbm_bytes_per_s / 1e12,
        r.ridge_intensity
    );
    out.push_str(&format!(
        "  host GEMM (measured f32): reference {:.1} / wide {:.1} GF/s — software peak {:.4} TFLOPS\n",
        rates::host_f32_gflops(rates::HostTier::Reference),
        rates::host_f32_gflops(rates::HostTier::Wide),
        r.host_peak_tflops,
    ));
    for l in labels {
        let attainable = rates::attainable_tflops(engine, l.intensity);
        let bound = if l.intensity < r.ridge_intensity {
            "memory-bound"
        } else {
            "compute-bound"
        };
        out.push_str(&format!(
            "  {:<20} intensity {:>8.3}  attainable {:>8.2} TFLOPS  {}\n",
            l.label, l.intensity, attainable, bound
        ));
    }
    out
}

/// Measured-vs-modelled rate of one label (dominant shape class by flops).
#[derive(Clone, Debug, PartialEq)]
pub struct ResidualReport {
    pub label: String,
    /// Table-1 shape family of the label's dominant-by-flops records:
    /// `"outer"` or `"square_tall"`.
    pub class: &'static str,
    pub flops: u64,
    /// Summed measured dispatch wall time, seconds (0 when unmeasured).
    pub measured_s: f64,
    /// Summed perfmodel A100 prediction over the label's records, seconds.
    pub predicted_s: f64,
    /// measured/predicted — how much slower (>1) or faster (<1) the
    /// software kernels run than the modelled A100. NaN-free: 0 when the
    /// label was unmeasured.
    pub ratio: f64,
}

/// Join the measured per-label dispatch times against the perfmodel's
/// per-record A100 predictions. `records` is the drained shape trace of
/// the same run that filled `sink`.
pub fn model_residual(
    model: &A100Model,
    records: &[GemmRecord],
    sink: &TraceSink,
) -> Vec<ResidualReport> {
    // per label: (flops, predicted_s, flops by class)
    let mut agg: BTreeMap<&'static str, (u64, f64, [u64; 2])> = BTreeMap::new();
    for rec in records {
        let e = agg.entry(rec.label).or_insert((0, 0.0, [0, 0]));
        e.0 += rec.flops();
        e.1 += model.gemm_time(rec, rec.engine);
        let (class, _) = rates::classify(rec.m, rec.n, rec.k);
        let slot = match class {
            rates::ShapeClass::Outer => 0,
            rates::ShapeClass::SquareTall => 1,
        };
        e.2[slot] += rec.flops();
    }
    agg.into_iter()
        .map(|(label, (flops, predicted_s, by_class))| {
            let measured_ns = sink.counter(&format!("time.gemm_ns.{label}"));
            let measured_s = measured_ns as f64 / 1e9;
            ResidualReport {
                label: label.to_string(),
                class: if by_class[0] >= by_class[1] {
                    "outer"
                } else {
                    "square_tall"
                },
                flops,
                measured_s,
                predicted_s,
                ratio: if predicted_s > 0.0 {
                    measured_s / predicted_s
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Aggregate residual rows by shape class: (class, measured_s, predicted_s).
pub fn class_residual(rows: &[ResidualReport]) -> Vec<(&'static str, f64, f64)> {
    let mut outer = (0.0, 0.0);
    let mut tall = (0.0, 0.0);
    for r in rows {
        let slot = if r.class == "outer" {
            &mut outer
        } else {
            &mut tall
        };
        slot.0 += r.measured_s;
        slot.1 += r.predicted_s;
    }
    vec![("outer", outer.0, outer.1), ("square_tall", tall.0, tall.1)]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcevd_matrix::{Mat, Op};
    use tcevd_tensorcore::GemmContext;

    fn traced_run() -> (GemmContext, TraceSink) {
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Sgemm)
            .with_trace()
            .with_sink(sink.clone());
        let a = Mat::<f32>::from_fn(40, 24, |i, j| ((i * 7 + j) % 5) as f32 - 2.0);
        let b = Mat::<f32>::from_fn(24, 16, |i, j| ((i + 3 * j) % 7) as f32 - 3.0);
        let mut c = Mat::<f32>::zeros(40, 16);
        ctx.gemm(
            "evd_q2z",
            1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            0.0,
            c.as_mut(),
        );
        ctx.gemm(
            "wy_inner_x",
            -1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            1.0,
            c.as_mut(),
        );
        (ctx, sink)
    }

    #[test]
    fn label_reports_read_the_counters() {
        let (_ctx, sink) = traced_run();
        let rows = label_reports(&sink);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "evd_q2z");
        assert_eq!(rows[0].calls, 1);
        assert_eq!(rows[0].flops, 2 * 40 * 16 * 24);
        // A (40×24) + B (24×16) + C (40×16) f32 words; accumulating
        // (beta ≠ 0) reads the prior C too
        let (a, b, c) = (40 * 24, 24 * 16, 40 * 16);
        assert_eq!(rows[0].bytes, 4 * (a + b + c));
        assert_eq!(rows[1].label, "wy_inner_x");
        assert_eq!(rows[1].bytes, 4 * (a + b + 2 * c));
        assert!(
            rows[1].intensity < rows[0].intensity,
            "accumulation lowers intensity"
        );
        // wall time was measured, so achieved GFLOPS is positive
        assert!(rows[0].time_ns > 0 && rows[0].gflops > 0.0);
    }

    #[test]
    fn intensity_is_zero_without_bytes() {
        assert_eq!(intensity(480, 496), 480.0 / 496.0);
        assert_eq!(intensity(5, 0), 0.0);
    }

    #[test]
    fn residual_join_predicts_and_measures_every_label() {
        let (ctx, sink) = traced_run();
        let records = ctx.take_trace();
        let rows = model_residual(&A100Model::default(), &records, &sink);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.predicted_s > 0.0, "{}: no prediction", r.label);
            assert!(r.measured_s > 0.0, "{}: no measurement", r.label);
            assert!(r.ratio > 0.0);
        }
        // both test GEMMs have n = 16 as smallest dim → square-tall class
        assert!(rows.iter().all(|r| r.class == "square_tall"));
        let by_class = class_residual(&rows);
        assert_eq!(by_class[0], ("outer", 0.0, 0.0));
        assert_eq!(by_class[1].0, "square_tall");
        assert!(by_class[1].1 > 0.0 && by_class[1].2 > 0.0);
    }

    #[test]
    fn roofline_text_places_labels() {
        let (_ctx, sink) = traced_run();
        let rows = label_reports(&sink);
        let text = roofline_text(Engine::Tc, &rows);
        assert!(text.contains("peak 140.85 TFLOPS"));
        assert!(text.contains("evd_q2z"));
        // small-k GEMMs sit far below the ridge
        assert!(text.contains("memory-bound"));
        // the measured software ceiling is quoted alongside the model's
        assert!(text.contains("host GEMM"));
        assert!(text.contains("wide 29.4 GF/s"));
    }

    #[test]
    fn roofline_carries_host_software_peak() {
        let r = roofline(Engine::Sgemm);
        assert_eq!(r.host_peak_tflops, rates::host_peak_gflops() / 1e3);
        // the modelled A100 ceiling dwarfs the measured software one
        assert!(r.host_peak_tflops < r.peak_tflops);
    }

    #[test]
    fn stage_reports_read_stage_scopes() {
        let _serial = crate::tests::watermark_serial();
        let sink = TraceSink::enabled();
        {
            let _s = crate::StageScope::begin(&sink, "sbr");
            let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
            let a = Mat::<f32>::identity(8, 8);
            let mut c = Mat::<f32>::zeros(8, 8);
            ctx.gemm(
                "wy_aw_append",
                1.0,
                a.as_ref(),
                Op::NoTrans,
                a.as_ref(),
                Op::NoTrans,
                0.0,
                c.as_mut(),
            );
        }
        let rows = stage_reports(&sink);
        assert_eq!(rows.len(), 1);
        let s = &rows[0];
        assert_eq!(s.stage, "sbr");
        assert_eq!(s.flops, 2 * 8 * 8 * 8);
        assert_eq!(s.calls, 1);
        assert_eq!(s.bytes, 4 * 3 * 8 * 8);
        assert!(
            s.peak_bytes >= 2 * 8 * 8 * 4,
            "stage allocated two 8×8 f32 mats"
        );
        assert!(s.time_ns > 0);
        let table = stage_table_text(&rows);
        assert!(table.contains("sbr"));
        assert!(table.contains("peak_bytes"));
    }
}
