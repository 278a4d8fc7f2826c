//! Metric names, units and bounds, and the outputs: one line per metric,
//! the result line that ends a single-workload run, the BENCH-schema
//! artifact, and the comparison of repeated suites.

use std::fmt::Write as _;

use crate::layers::{GEMM_LABELS, LAYERS};
use crate::workload::{Outcome, Settings, Workload};

/// An end-to-end metric and the share of its median by which it may
/// worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Bounds set from the spread of per-run values over ten seeds on a shared
/// 2-vCPU host, where neighbours' load slowed whole runs by up to 1.6×
/// (README.md). Every timing therefore gets the largest bound allowed,
/// 0.25, set-up included. A run's matrix peak is fixed by its input, and
/// its spread over ten seeds was at most 0.30%, so its bound is 0.01. The
/// tail is printed and written to the artifact but has no bound: it cannot
/// be taken from a run's least-disturbed window alone (see `stats.rs`), and
/// over whole runs its spread reached 30%.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "solve_p50_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "mat_peak_bytes",
        unit: "bytes",
        better: "lower",
        bound: 0.01,
    },
];

impl Outcome {
    /// Values in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> [f64; 4] {
        [
            self.solve.median,
            self.throughput,
            self.setup.median,
            self.mat_peak_bytes,
        ]
    }
}

/// A per-layer metric: name, unit, and which direction is better.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn metric(name: String, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric, in output order.
pub fn per_layer_metrics() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for l in LAYERS {
        out.push(metric(format!("{}.s", l.name), "s", "lower"));
        if l.gflops {
            out.push(metric(format!("{}.gflops", l.name), "GFLOP/s", "higher"));
        }
        for (name, _) in l.counters {
            let unit = if name.ends_with("flops") {
                "flop"
            } else {
                "count"
            };
            out.push(metric(format!("{}.{name}", l.name), unit, "lower"));
        }
        out.push(metric(
            format!("{}.mat_peak_bytes", l.name),
            "bytes",
            "lower",
        ));
    }
    for label in GEMM_LABELS {
        out.push(metric(format!("tensorcore.gemm.{label}.s"), "s", "lower"));
        out.push(metric(
            format!("tensorcore.gemm.{label}.gflops"),
            "GFLOP/s",
            "higher",
        ));
    }
    let fixed: [(&str, &'static str, &'static str); 13] = [
        ("tensorcore.gemm.total_s", "s", "lower"),
        ("tensorcore.gemm.flops", "flop", "lower"),
        ("tensorcore.gemm.bytes", "bytes", "lower"),
        ("serve.queue_wait_s_mean", "s", "lower"),
        ("serve.compute_s_mean", "s", "lower"),
        ("serve.batch_size_mean", "jobs", "higher"),
        ("serve.cache_hit_ratio", "ratio", "higher"),
        ("layers.unattributed_s", "s", "lower"),
        ("layers.trace_overhead_ratio", "ratio", "lower"),
        ("layers.match_pipeline", "bool", "higher"),
        ("check.eig_err_nu", "nu", "lower"),
        ("check.resid_nu", "nu", "lower"),
        ("check.orth_nu", "nu", "lower"),
    ];
    out.extend(fixed.map(|(n, u, b)| metric(n.to_string(), u, b)));
    out
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Value of per-layer metric `name`: zero for a layer the workload never
/// enters (formw and the back-transform on values, the service on the
/// library workloads).
fn layer_value(o: &Outcome, name: &str) -> f64 {
    o.per_layer
        .as_ref()
        .and_then(|m| m.get(name))
        .copied()
        .unwrap_or(0.0)
}

/// Print every metric of `o` by name, with its unit.
pub fn print(o: &Outcome) {
    let w = o.workload.name();
    let (s, set) = (&o.solve, &o.setup);
    println!(
        "{w} solve_p50_s = {:.6} s (lowest median of {} windows; {} samples, quartiles {:.6} .. {:.6})",
        s.median, s.windows, s.samples, s.q1, s.q3
    );
    println!(
        "{w} solve_tail_s = {:.6} s (p{} of {} samples, median of {} windows; no bound)",
        s.tail, s.tail_pct, s.samples, s.tail_windows
    );
    println!(
        "{w} throughput_per_s = {:.4} 1/s (highest of {} windows)",
        o.throughput, s.windows
    );
    println!(
        "{w} setup_s = {:.6} s ({} samples, quartiles {:.6} .. {:.6})",
        set.median, set.samples, set.q1, set.q3
    );
    println!("{w} mat_peak_bytes = {} bytes", o.mat_peak_bytes);
    let acc = o.accuracy;
    println!(
        "{w} accuracy (bound {}): eig_err {:.4} nu, resid {:.4} nu, orth {:.4} nu",
        crate::check::BOUND,
        acc.eig_err,
        acc.resid,
        acc.orth
    );
    println!(
        "{w} fail_rate = {} ({} of {} solves failed)",
        o.tally.fail_rate(),
        o.tally.failed,
        o.tally.attempted
    );
    if o.per_layer.is_some() {
        for m in per_layer_metrics() {
            println!("{w} {} = {} {}", m.name, layer_value(o, &m.name), m.unit);
        }
    }
}

/// The line that ends a single-workload run: the end-to-end metrics, or
/// with `trace` the per-layer ones.
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let metrics: Vec<(String, &str, f64)> = if trace {
        per_layer_metrics()
            .into_iter()
            .map(|m| {
                let v = layer_value(o, &m.name);
                (m.name, m.unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(o.end_to_end())
            .map(|(m, v)| (m.name.to_string(), m.unit, v))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed,
        body.join(", ")
    )
}

/// The run as a BENCH-schema artifact (`bench validate`, `bench compare`).
/// Timing fields end in `seconds`, footprints in `bytes`, rates in
/// `gflops` and work counts in `flops`, so `bench compare` gates each
/// kind by its own rule; records pair up by `label`.
pub fn artifact(outcomes: &[Outcome], s: Settings) -> String {
    let threads: Vec<String> = outcomes
        .iter()
        .map(|o| o.workload.threads().to_string())
        .collect();
    let mut out = String::from("{\n  \"bench\": \"evdbench\",\n  \"dtype\": \"f32\",\n");
    let _ = writeln!(out, "  \"threads\": [{}],", threads.join(", "));
    let _ = writeln!(
        out,
        "  \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},",
        s.seed,
        num(s.seconds),
        s.quick
    );
    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let (t, set) = (&o.solve, &o.setup);
            format!(
                "    {{\"label\": \"{}\", \"n\": {}, \"engine\": \"{:?}\", \"threads\": {}, \
                 \"attempted\": {}, \"failed\": {}, \"fail_rate\": {}, \
                 \"solve_samples\": {}, \"solve_median_seconds\": {}, \"solve_q1_seconds\": {}, \
                 \"solve_q3_seconds\": {}, \"solve_tail_pct\": {}, \"solve_tail_seconds\": {}, \
                 \"setup_samples\": {}, \"setup_median_seconds\": {}, \"setup_q1_seconds\": {}, \
                 \"setup_q3_seconds\": {}, \"throughput_per_s\": {}, \"mat_peak_bytes\": {}}}",
                o.workload.name(),
                o.n,
                o.workload.engine(),
                o.workload.threads(),
                o.tally.attempted,
                o.tally.failed,
                num(o.tally.fail_rate()),
                t.samples,
                num(t.median),
                num(t.q1),
                num(t.q3),
                t.tail_pct,
                num(t.tail),
                set.samples,
                num(set.median),
                num(set.q1),
                num(set.q3),
                num(o.throughput),
                num(o.mat_peak_bytes)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", rows.join(",\n"));
    let mut layer_rows = Vec::new();
    for o in outcomes.iter().filter(|o| o.per_layer.is_some()) {
        for m in per_layer_metrics() {
            let field = match m.unit {
                "s" => "seconds",
                "bytes" => "bytes",
                "GFLOP/s" => "gflops",
                "flop" => "flops",
                _ => "value",
            };
            layer_rows.push(format!(
                "    {{\"label\": \"{}/{}\", \"unit\": \"{}\", \"better\": \"{}\", \"{field}\": {}}}",
                o.workload.name(),
                m.name,
                m.unit,
                m.better,
                num(layer_value(o, &m.name))
            ));
        }
    }
    let _ = writeln!(out, "  \"layers\": [\n{}\n  ]\n}}", layer_rows.join(",\n"));
    out
}

/// Compare a later run of the suite with the first: print both values of
/// every end-to-end metric and how far the later one is worse, against the
/// metric's bound. Returns whether every metric stayed within its bound.
pub fn compare_runs(first: &[Outcome], later: &[Outcome], run: usize) -> bool {
    let mut ok = true;
    println!("repeat {run} against repeat 1 (worsening / bound):");
    for w in Workload::ALL {
        let (Some(a), Some(b)) = (
            first.iter().find(|o| o.workload == w),
            later.iter().find(|o| o.workload == w),
        ) else {
            continue;
        };
        for (m, (x, y)) in END_TO_END
            .iter()
            .zip(a.end_to_end().into_iter().zip(b.end_to_end()))
        {
            let worse = (if m.better == "lower" { y - x } else { x - y }) / x;
            let within = worse <= m.bound;
            ok &= within;
            println!(
                "  {} {} {} -> {} {}: {:+.2}% / {:.0}% {}",
                w.name(),
                m.name,
                x,
                y,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "VIOLATION" }
            );
        }
    }
    ok
}
