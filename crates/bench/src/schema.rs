//! Shared `BENCH_*.json` schema and the `bench compare` regression gate.
//!
//! Every benchmark artifact the repo commits or uploads from CI
//! (`BENCH_pr4.json`, `BENCH_pr5.json`, `BENCH_profile.json`) is one JSON
//! object with three mandatory header fields —
//!
//! * `"bench"`  — string, the generator's name;
//! * `"dtype"`  — string, the element type the run computed in;
//! * `"threads"` — number, or array of numbers when the bench sweeps
//!   worker-pool sizes;
//!
//! — plus free-form scalar columns and *record arrays*: any top-level
//! array field must hold objects only (one record per shape / stage /
//! label), so downstream tooling can diff them field by field.
//!
//! [`compare`] is that diff: it walks two artifacts, pairs numeric leaves
//! by path (records keyed by their `stage`/`label`/`shape` field, not by
//! position), and flags regressions beyond a tolerance. Machine-independent
//! resource columns (`*bytes*`) and quality columns (`*gflops*`,
//! `*speedup*`) gate at `tol`; wall-clock columns (`*seconds*`, `*_ns`)
//! gate at the separate `time_tol` so CI can hold resource counters to a
//! tight bound across runner generations while still catching gross
//! slowdowns. Flop/call counts are deterministic workload descriptors, not
//! regressions — a drift beyond `tol` in either direction is reported as a
//! workload change.

use tcevd_trace::json::{parse, Value};

/// Validate the shared BENCH schema; `Err` names the first violation.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let v = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let fields = match &v {
        Value::Obj(fields) => fields,
        _ => return Err("top level must be a JSON object".to_string()),
    };
    match v.get("bench") {
        Some(Value::Str(s)) if !s.is_empty() => {}
        _ => return Err("missing non-empty string field \"bench\"".to_string()),
    }
    match v.get("dtype") {
        Some(Value::Str(s)) if !s.is_empty() => {}
        _ => return Err("missing non-empty string field \"dtype\"".to_string()),
    }
    match v.get("threads") {
        Some(Value::Num(_)) => {}
        Some(Value::Arr(items)) if !items.is_empty() => {
            if items.iter().any(|i| !matches!(i, Value::Num(_))) {
                return Err("\"threads\" array must hold numbers".to_string());
            }
        }
        _ => return Err("missing field \"threads\" (number or number array)".to_string()),
    }
    for (key, val) in fields {
        if let Value::Arr(items) = val {
            if key == "threads" {
                continue;
            }
            if items.iter().any(|i| !matches!(i, Value::Obj(_))) {
                return Err(format!("record array \"{key}\" must hold objects only"));
            }
        }
    }
    Ok(())
}

/// How a numeric column gates in [`compare`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Gate {
    /// Wall clock: lower is better, compared at `time_tol`.
    TimeLowerBetter,
    /// Resource footprint: lower is better, compared at `tol`.
    LowerBetter,
    /// Achieved rate: higher is better, compared at `tol`.
    HigherBetter,
    /// Deterministic workload descriptor: drift either way is a change.
    Exactish,
    /// Config/metadata: ignored.
    Skip,
}

fn gate_of(key: &str) -> Gate {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    if leaf.contains("seconds") || leaf.ends_with("_ns") {
        Gate::TimeLowerBetter
    } else if leaf.contains("bytes") {
        Gate::LowerBetter
    } else if leaf.contains("gflops") || leaf.contains("speedup") {
        Gate::HigherBetter
    } else if leaf.contains("flops") || leaf.contains("calls") {
        Gate::Exactish
    } else {
        Gate::Skip
    }
}

/// Flatten numeric leaves to `path → value`. Array elements are keyed by
/// their identifying field (`stage`/`label`/`shape`/`class`) when present,
/// by index otherwise, so reordering records never produces a false diff.
fn numeric_leaves(v: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Num(x) => out.push((prefix.to_string(), *x)),
        Value::Obj(fields) => {
            for (k, val) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                numeric_leaves(val, &path, out);
            }
        }
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let id = ["stage", "label", "shape", "class"]
                    .iter()
                    .find_map(|f| item.get(f).and_then(Value::as_str));
                let path = match id {
                    Some(id) => format!("{prefix}[{id}]"),
                    None => format!("{prefix}[{i}]"),
                };
                numeric_leaves(item, &path, out);
            }
        }
        _ => {}
    }
}

/// Diff `new` against `base`. Returns the list of regressions (empty ⇒
/// gate passes); `Err` on malformed input. `tol`/`time_tol` are fractional
/// (0.10 ⇒ 10%).
pub fn compare(base: &str, new: &str, tol: f64, time_tol: f64) -> Result<Vec<String>, String> {
    validate_bench_json(base).map_err(|e| format!("baseline: {e}"))?;
    validate_bench_json(new).map_err(|e| format!("candidate: {e}"))?;
    let vb = parse(base).map_err(|e| format!("baseline: {e}"))?;
    let vn = parse(new).map_err(|e| format!("candidate: {e}"))?;
    let mut base_leaves = Vec::new();
    let mut new_leaves = Vec::new();
    numeric_leaves(&vb, "", &mut base_leaves);
    numeric_leaves(&vn, "", &mut new_leaves);

    let mut regressions = Vec::new();
    for (path, b) in &base_leaves {
        let gate = gate_of(path);
        if gate == Gate::Skip {
            continue;
        }
        let Some((_, n)) = new_leaves.iter().find(|(p, _)| p == path) else {
            regressions.push(format!("{path}: present in baseline, missing in candidate"));
            continue;
        };
        if *b <= 0.0 {
            continue; // no meaningful ratio (unmeasured baseline column)
        }
        let ratio = n / b;
        let fail = match gate {
            Gate::TimeLowerBetter => ratio > 1.0 + time_tol,
            Gate::LowerBetter => ratio > 1.0 + tol,
            Gate::HigherBetter => ratio < 1.0 - tol,
            Gate::Exactish => ratio > 1.0 + tol || ratio < 1.0 - tol,
            Gate::Skip => false,
        };
        if fail {
            let kind = match gate {
                Gate::Exactish => "workload change",
                _ => "regression",
            };
            regressions.push(format!(
                "{path}: {kind} — baseline {b}, candidate {n} ({:+.1}%)",
                (ratio - 1.0) * 100.0
            ));
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
  "bench": "unit",
  "dtype": "f32",
  "threads": 1,
  "totals": {"seconds": 2.0, "gemm_flops": 1000, "peak_bytes": 4096, "gflops": 10.0}
}"#;

    #[test]
    fn committed_artifacts_and_profile_match_the_schema() {
        for path in [
            "../../BENCH_pr4.json",
            "../../BENCH_pr5.json",
            "../../BENCH_pr9.json",
            "../../BENCH_pr10.json",
            "../../BENCH_pr16.json",
            "../../BENCH_pr17.json",
            "../../BENCH_pr19.json",
            "../../BENCH_pr22.json",
            "../../BENCH_pr25.json",
            "../../BENCH_pr26.json",
        ] {
            let text = std::fs::read_to_string(path).expect(path);
            validate_bench_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        }
        let run = crate::profile_run(64, 3);
        validate_bench_json(&run.json).expect("BENCH_profile.json schema");
    }

    #[test]
    fn schema_rejects_missing_headers_and_scalar_record_arrays() {
        assert!(validate_bench_json("[1, 2]").is_err());
        assert!(validate_bench_json(r#"{"dtype": "f32", "threads": 1}"#).is_err());
        assert!(validate_bench_json(r#"{"bench": "x", "threads": 1}"#).is_err());
        assert!(validate_bench_json(r#"{"bench": "x", "dtype": "f32"}"#).is_err());
        assert!(
            validate_bench_json(r#"{"bench": "x", "dtype": "f32", "threads": [1, "four"]}"#)
                .is_err()
        );
        assert!(validate_bench_json(
            r#"{"bench": "x", "dtype": "f32", "threads": 1, "shapes": [1, 2]}"#
        )
        .is_err());
        assert!(validate_bench_json(
            r#"{"bench": "x", "dtype": "f32", "threads": [1, 4], "shapes": [{"shape": "sq"}]}"#
        )
        .is_ok());
    }

    #[test]
    fn identical_files_pass_and_a_slower_copy_fails() {
        assert_eq!(
            compare(MINIMAL, MINIMAL, 0.10, 0.10).expect("compare"),
            Vec::<String>::new()
        );
        let slower = MINIMAL.replace("\"seconds\": 2.0", "\"seconds\": 2.4");
        let regs = compare(MINIMAL, &slower, 0.10, 0.10).expect("compare");
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("totals.seconds"), "{regs:?}");
        // ... but passes under a relaxed wall-clock tolerance
        assert!(compare(MINIMAL, &slower, 0.10, 0.50)
            .expect("compare")
            .is_empty());
    }

    #[test]
    fn resource_and_rate_columns_gate_at_tol() {
        let fatter = MINIMAL.replace("\"peak_bytes\": 4096", "\"peak_bytes\": 8192");
        assert!(!compare(MINIMAL, &fatter, 0.10, 0.10)
            .expect("compare")
            .is_empty());
        let slower_rate = MINIMAL.replace("\"gflops\": 10.0", "\"gflops\": 7.0");
        assert!(!compare(MINIMAL, &slower_rate, 0.10, 0.10)
            .expect("compare")
            .is_empty());
        let faster_rate = MINIMAL.replace("\"gflops\": 10.0", "\"gflops\": 13.0");
        assert!(compare(MINIMAL, &faster_rate, 0.10, 0.10)
            .expect("compare")
            .is_empty());
        let missing = MINIMAL.replace("\"peak_bytes\": 4096, ", "");
        assert!(!compare(MINIMAL, &missing, 0.10, 0.10)
            .expect("compare")
            .is_empty());
        let drifted = MINIMAL.replace("\"gemm_flops\": 1000", "\"gemm_flops\": 1500");
        let regs = compare(MINIMAL, &drifted, 0.10, 0.10).expect("compare");
        assert!(
            regs.iter().any(|r| r.contains("workload change")),
            "{regs:?}"
        );
    }

    #[test]
    fn records_pair_by_identity_not_position() {
        let base = r#"{"bench": "x", "dtype": "f32", "threads": 1,
            "stages": [{"stage": "sbr", "seconds": 1.0}, {"stage": "solve", "seconds": 2.0}]}"#;
        let reordered = r#"{"bench": "x", "dtype": "f32", "threads": 1,
            "stages": [{"stage": "solve", "seconds": 2.0}, {"stage": "sbr", "seconds": 1.0}]}"#;
        assert!(compare(base, reordered, 0.10, 0.10)
            .expect("compare")
            .is_empty());
    }
}
