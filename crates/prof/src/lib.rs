#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
//! # tcevd-prof — performance attribution over `tcevd-trace`
//!
//! The measurement substrate for every performance claim the repo makes:
//!
//! * **stage scopes** ([`StageScope`]) — RAII seams the pipeline wraps
//!   around SBR / bulge chase / tridiagonal solve / back-transform,
//!   attributing flops, bytes, GEMM calls, wall time and the matrix
//!   allocation high watermark to each stage via `stage.*` counters (flops
//!   and bytes are the ones `GemmContext::note_gemm` tallies, each call's
//!   bytes under its own `beta`);
//! * **derived reports** ([`mod@report`]) — per-label and per-stage
//!   achieved-GFLOPS, a roofline summary against the Table-1 peaks, and
//!   the model-residual join of measured rates vs `tcevd-perfmodel`'s A100
//!   predictions.
//!
//! Counter namespaces: everything wall-clock lives under the `time.`
//! prefix (machine-dependent, excluded from the determinism contract like
//! `par.*`); every other counter this crate records — `stage.*.flops`,
//! `stage.*.bytes`, `stage.*.calls`, `stage.*.peak_bytes`,
//! `mem.peak_bytes` — is bit-identical at any worker-pool size.

pub mod report;

pub use report::{
    class_residual, label_reports, model_residual, roofline, roofline_text, stage_reports,
    stage_table_text, LabelReport, ResidualReport, Roofline, StageReport,
};

use std::time::Instant;
use tcevd_trace::TraceSink;

/// RAII stage seam: snapshot the GEMM counters and reset the matrix
/// allocation watermark on entry, attribute the deltas to
/// `stage.{name}.{flops,bytes,calls,peak_bytes}` plus
/// `time.stage.{name}_ns` on drop. The global `mem.peak_bytes` watermark
/// (ROADMAP item 5) is raised alongside.
///
/// Peaks use [`TraceSink::set_max`] so a stage that re-runs under recovery
/// keeps its worst case; the additive counters accumulate across re-runs
/// like every other counter.
///
/// ```
/// use tcevd_prof::StageScope;
/// use tcevd_trace::TraceSink;
///
/// let sink = TraceSink::enabled();
/// {
///     let _stage = StageScope::begin(&sink, "sbr");
///     let _work = tcevd_matrix::Mat::<f32>::zeros(64, 64);
/// }
/// assert!(sink.counter("stage.sbr.peak_bytes") >= 64 * 64 * 4);
/// assert!(sink.counter("mem.peak_bytes") >= 64 * 64 * 4);
/// ```
pub struct StageScope {
    sink: TraceSink,
    stage: &'static str,
    t0: Instant,
    flops0: u64,
    bytes0: u64,
    calls0: u64,
}

impl StageScope {
    /// Open a stage seam named `stage` on `sink`. Cheap when the sink is
    /// disabled (counter reads return 0 and the drop-side adds are no-ops).
    pub fn begin(sink: &TraceSink, stage: &'static str) -> Self {
        tcevd_matrix::mem::reset_peak();
        StageScope {
            sink: sink.clone(),
            stage,
            t0: Instant::now(),
            flops0: sink.counter("gemm_flops"),
            bytes0: sink.counter("gemm_bytes"),
            calls0: sink.counter("gemm_calls"),
        }
    }
}

impl Drop for StageScope {
    fn drop(&mut self) {
        if !self.sink.is_enabled() {
            return;
        }
        let s = self.stage;
        let delta = |name: &str, base: u64| self.sink.counter(name).saturating_sub(base);
        self.sink.add(
            &format!("stage.{s}.flops"),
            delta("gemm_flops", self.flops0),
        );
        self.sink.add(
            &format!("stage.{s}.bytes"),
            delta("gemm_bytes", self.bytes0),
        );
        self.sink.add(
            &format!("stage.{s}.calls"),
            delta("gemm_calls", self.calls0),
        );
        let peak = tcevd_matrix::mem::peak_bytes();
        self.sink.set_max(&format!("stage.{s}.peak_bytes"), peak);
        self.sink.set_max("mem.peak_bytes", peak);
        self.sink.add(
            &format!("time.stage.{s}_ns"),
            self.t0.elapsed().as_nanos() as u64,
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcevd_matrix::{Mat, Op};
    use tcevd_tensorcore::{Engine, GemmContext};

    /// The allocation watermark is process-global and every
    /// [`StageScope::begin`] resets its peak, so a scope's `peak_bytes` is
    /// only its own while no sibling test opens a scope. Every test in this
    /// crate that opens one holds this lock.
    static WATERMARK_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn watermark_serial() -> std::sync::MutexGuard<'static, ()> {
        WATERMARK_SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn stage_scope_attributes_deltas_per_stage() {
        let _serial = watermark_serial();
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
        let a = Mat::<f32>::identity(6, 6);
        let run = |label| {
            let mut c = Mat::<f32>::zeros(6, 6);
            ctx.gemm(
                label,
                1.0,
                a.as_ref(),
                Op::NoTrans,
                a.as_ref(),
                Op::NoTrans,
                0.0,
                c.as_mut(),
            );
        };
        {
            let _s = StageScope::begin(&sink, "sbr");
            run("wy_aw_append");
            run("wy_final_waw");
        }
        {
            let _s = StageScope::begin(&sink, "back_transform");
            run("evd_q2z");
        }
        let per_gemm = 2u64 * 6 * 6 * 6;
        assert_eq!(sink.counter("stage.sbr.flops"), 2 * per_gemm);
        assert_eq!(sink.counter("stage.sbr.calls"), 2);
        assert_eq!(sink.counter("stage.back_transform.flops"), per_gemm);
        assert_eq!(
            sink.counter("stage.sbr.bytes") + sink.counter("stage.back_transform.bytes"),
            sink.counter("gemm_bytes")
        );
        assert!(sink.counter("stage.sbr.peak_bytes") >= 6 * 6 * 4);
        assert!(
            sink.counter("mem.peak_bytes")
                >= sink
                    .counter("stage.sbr.peak_bytes")
                    .min(sink.counter("stage.back_transform.peak_bytes"))
        );
        assert!(sink.counter("time.stage.sbr_ns") > 0);
        // watermark counters surface in the standard exporters (ROADMAP 5)
        assert!(sink.stage_report().contains("mem.peak_bytes"));
        assert!(sink
            .prometheus_text()
            .contains("tcevd_counter_total{name=\"mem.peak_bytes\"}"));
    }

    #[test]
    fn stage_scope_on_disabled_sink_is_inert() {
        let _serial = watermark_serial();
        let sink = TraceSink::disabled();
        {
            let _s = StageScope::begin(&sink, "sbr");
            let _m = Mat::<f32>::zeros(16, 16);
        }
        assert!(sink.counters().is_empty());
    }

    #[test]
    fn recovery_rerun_keeps_worst_case_peak_and_sums_flops() {
        let _serial = watermark_serial();
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
        let a = Mat::<f32>::identity(4, 4);
        for attempt in 0..2u32 {
            let _s = StageScope::begin(&sink, "solve");
            // second attempt allocates a bigger scratch buffer
            let _scratch = Mat::<f32>::zeros(64 * (attempt as usize + 1), 64);
            let mut c = Mat::<f32>::zeros(4, 4);
            ctx.gemm(
                "evd_q2z",
                1.0,
                a.as_ref(),
                Op::NoTrans,
                a.as_ref(),
                Op::NoTrans,
                0.0,
                c.as_mut(),
            );
        }
        assert_eq!(sink.counter("stage.solve.calls"), 2);
        assert_eq!(sink.counter("stage.solve.flops"), 2 * 2 * 4 * 4 * 4);
        assert!(sink.counter("stage.solve.peak_bytes") >= 64 * 128 * 4);
    }
}
