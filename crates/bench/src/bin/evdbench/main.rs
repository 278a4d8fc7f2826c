//! `evdbench` — the benchmark of record for the two-stage symmetric EVD.
//!
//! ```text
//! evdbench [--seed N] [--seconds S] [--quick] [--repeat K] [--out DIR]
//! evdbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! ```
//!
//! Without `--workload` it runs the four workloads, each untraced and then
//! traced, prints every metric by name with its unit, and writes
//! `evdbench.json` (BENCH schema) and `evdbench.trace.json` (Chrome trace
//! events) to `--out`, by default `$CARGO_TARGET_DIR/evdbench`, else
//! `target/evdbench`. `--repeat K` runs that suite K times, alternating the
//! workload order, writes `evdbench.<k>.json`, and exits 1 when a later
//! run is worse than the first by more than a metric's bound.
//!
//! With `--workload` it runs one workload and ends its output with one
//! JSON line: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`, the default) or the per-layer metrics (`--trace 1`).
//!
//! `--seconds` (default 25) is how long each workload's timed phase runs;
//! the same `--seed` gives the same inputs. Exit status: 0 when every output checked
//! correct, 1 when one did not, 2 on a usage or set-up error.
//! README.md in this directory documents workloads, metrics and bounds.

mod check;
mod layers;
mod report;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use spans::Spans;
use workload::{Outcome, Settings, Workload};

struct Args {
    workload: Option<Workload>,
    /// Internal: time one first call for `setup_s` (see `workload.rs`).
    setup_child: Option<Workload>,
    trace: bool,
    repeat: usize,
    settings: Settings,
    out: PathBuf,
}

const USAGE: &str = "usage: evdbench [--seed N] [--seconds S] [--quick] [--repeat K] [--out DIR]\n       \
                     evdbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        setup_child: None,
        trace: false,
        repeat: 1,
        settings: Settings {
            seed: 42,
            seconds: 25.0,
            quick: false,
        },
        out: std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from)
            .join("evdbench"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.settings.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        let workload = || Workload::from_name(value).ok_or_else(bad);
        match flag.as_str() {
            "--workload" => args.workload = Some(workload()?),
            "--setup-child" => args.setup_child = Some(workload()?),
            "--seed" => args.settings.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.settings.seconds = value.parse().map_err(|_| bad())?;
                if !(args.settings.seconds > 0.0 && args.settings.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad())?;
                if args.repeat == 0 {
                    return Err(bad());
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn write(path: PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("evdbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Whether every output checked correct (and, with `--repeat`, every
/// repeat stayed within the bounds).
fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    if let Some(w) = args.setup_child {
        println!("{}", workload::setup_child_main(w)?);
        return Ok(true);
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let s = args.settings;
    if let Some(w) = args.workload {
        let mut spans = Spans::default();
        let o = workload::run(w, s, args.trace, &mut spans)?;
        report::print(&o);
        let stem = format!("evdbench-{}", w.name());
        write(
            args.out.join(format!("{stem}.json")),
            &report::artifact(std::slice::from_ref(&o), s),
        )?;
        write(
            args.out.join(format!("{stem}.trace.json")),
            &spans.chrome_json(),
        )?;
        println!("{}", report::result_line(&o, args.trace));
        return Ok(o.tally.failed == 0);
    }

    let mut runs: Vec<Vec<Outcome>> = Vec::new();
    for r in 0..args.repeat {
        let mut order = Workload::ALL;
        if r % 2 == 1 {
            order.reverse();
        }
        let mut spans = Spans::default();
        let mut outcomes = order
            .into_iter()
            .map(|w| {
                let o = workload::run(w, s, true, &mut spans)?;
                report::print(&o);
                Ok(o)
            })
            .collect::<Result<Vec<_>, String>>()?;
        outcomes.sort_by_key(|o| Workload::ALL.iter().position(|&w| w == o.workload));
        let stem = match args.repeat {
            1 => "evdbench".to_string(),
            _ => format!("evdbench.{}", r + 1),
        };
        let json = args.out.join(format!("{stem}.json"));
        write(json.clone(), &report::artifact(&outcomes, s))?;
        write(
            args.out.join(format!("{stem}.trace.json")),
            &spans.chrome_json(),
        )?;
        println!("wrote {}", json.display());
        runs.push(outcomes);
    }
    let mut ok = runs.iter().flatten().all(|o| o.tally.failed == 0);
    if let Some((first, later)) = runs.split_first() {
        for (k, run) in later.iter().enumerate() {
            ok &= report::compare_runs(first, run, k + 2);
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;
    use tcevd_trace::json::{self, Value};

    fn quick(seed: u64) -> Vec<Outcome> {
        let s = Settings {
            seed,
            seconds: 1.0,
            quick: true,
        };
        let mut spans = Spans::default();
        Workload::ALL
            .iter()
            .map(|&w| workload::run(w, s, true, &mut spans).unwrap())
            .collect()
    }

    /// One quick suite shared by the tests below.
    fn quick_suite() -> &'static [Outcome] {
        static SUITE: OnceLock<Vec<Outcome>> = OnceLock::new();
        SUITE.get_or_init(|| quick(1))
    }

    fn benchmark_json() -> Value {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").exists() {
            assert!(dir.pop(), "BENCHMARK.json not found above the package");
        }
        json::parse(&std::fs::read_to_string(dir.join("BENCHMARK.json")).unwrap()).unwrap()
    }

    /// Metric names of the result line, in order.
    fn emitted(o: &Outcome, trace: bool) -> Vec<String> {
        let line = json::parse(&report::result_line(o, trace)).unwrap();
        assert_eq!(
            line.get("correct"),
            Some(&Value::Bool(true)),
            "{}",
            o.workload.name()
        );
        match line.get("metrics") {
            Some(Value::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("metrics: {other:?}"),
        }
    }

    #[test]
    fn every_metric_in_benchmark_json_is_emitted() {
        let bench = benchmark_json();
        let names = |key: &str| -> Vec<String> {
            let list = bench.get(key).and_then(Value::as_arr).unwrap();
            list.iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let valid = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        // the declared tables are the ones BENCHMARK.json lists
        for (m, j) in report::END_TO_END
            .iter()
            .zip(bench.get("end_to_end").and_then(Value::as_arr).unwrap())
        {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Value::as_str), Some(m.better));
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = report::per_layer_metrics();
        let listed = bench.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), listed.len());
        for (m, j) in layers.iter().zip(listed) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name.as_str()));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Value::as_str), Some(m.better));
        }
        for o in quick_suite() {
            assert_eq!(emitted(o, false), names("end_to_end"));
            assert_eq!(emitted(o, true), names("per_layer"));
            // every value a pass produces has a declared name
            let declared: BTreeSet<String> = layers.iter().map(|m| m.name.clone()).collect();
            for k in o.per_layer.as_ref().unwrap().keys() {
                assert!(
                    declared.contains(k),
                    "{} produced undeclared {k}",
                    o.workload.name()
                );
            }
        }
        assert!(names("end_to_end")
            .iter()
            .chain(&names("per_layer"))
            .all(|n| valid(n)));
    }

    #[test]
    fn outputs_check_correct_and_the_harness_matches_the_pipeline() {
        for o in quick_suite() {
            assert_eq!(o.tally.failed, 0, "{}", o.workload.name());
            assert!(o.accuracy.within_bound(), "{:?}", o.accuracy);
            let layers = o.per_layer.as_ref().unwrap();
            assert_eq!(
                layers["layers.match_pipeline"],
                1.0,
                "{}",
                o.workload.name()
            );
            assert!(
                o.end_to_end().iter().all(|v| *v > 0.0),
                "{:?}",
                o.end_to_end()
            );
        }
    }

    #[test]
    fn serve_hits_the_cache_on_exactly_one_job_in_ten() {
        let serve = &quick_suite()[3];
        assert_eq!(serve.workload, Workload::Serve);
        let layers = serve.per_layer.as_ref().unwrap();
        assert_eq!(layers["serve.cache_hit_ratio"], 0.1);
        assert_eq!(serve.solve.samples, 200);
        assert_eq!(serve.solve.tail_pct, 95);
    }

    #[test]
    fn the_seed_changes_the_inputs_but_not_the_metric_set() {
        let other = quick(2);
        for (a, b) in quick_suite().iter().zip(&other) {
            assert_eq!(emitted(a, true), emitted(b, true));
            assert_eq!(emitted(a, false), emitted(b, false));
        }
        // different inputs give different spectra
        assert_ne!(
            quick_suite()[0].accuracy.eig_err.to_bits(),
            other[0].accuracy.eig_err.to_bits()
        );
    }

    #[test]
    fn the_artifact_passes_the_bench_schema() {
        let s = Settings {
            seed: 1,
            seconds: 1.0,
            quick: true,
        };
        let text = report::artifact(quick_suite(), s);
        tcevd_bench::schema::validate_bench_json(&text).unwrap();
        // identical runs compare clean
        assert!(tcevd_bench::schema::compare(&text, &text, 0.0, 0.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse_args(&args(
            "--workload serve_small_w4 --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Serve));
        assert!(a.trace);
        assert_eq!((a.settings.seed, a.settings.seconds), (3, 10.0));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seconds",
            "--repeat 0",
            "--frobnicate 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
