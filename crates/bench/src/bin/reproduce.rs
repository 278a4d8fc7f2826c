//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce all                 # everything (accuracy tables at default n)
//! reproduce perf                # model-based tables/figures only (fast)
//! reproduce table1|table2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|formw
//! reproduce future|memory|motivation   # model-based side tables
//! reproduce table3 [--n 512] [--seed 42]
//! reproduce table4 [--n 512] [--seed 42]
//! reproduce gemm [--n 1024] [--out BENCH_pr5.json]     # packed-vs-reference GEMM
//! reproduce dbr [--n 1024] [--out BENCH_pr10.json]     # DBR (nb, b) crossover sweep
//! reproduce profile [--n 1024] [--out BENCH_profile.json] # perf attribution
//! reproduce --trace=out.json [--n 512] [--seed 42]   # traced real run
//! reproduce --faults=plan.json [--n 512] [--seed 42] # fault-injected run
//! ```
//!
//! `--trace=PATH` (or `--trace PATH`) runs the real two-stage EVD with the
//! structured trace sink enabled, writes a Chrome `trace_event` JSON to
//! PATH (load it at <https://ui.perfetto.dev>), and prints the per-stage
//! report plus the GEMM flop cross-check on stdout.
//!
//! `--faults=PATH` (or `--faults PATH`) reads a fault plan — a JSON array
//! such as `[{"kind": "dc_fail"}, {"kind": "gemm", "mode": "nan"}]` — arms
//! it against the real pipeline, and prints which recovery-ladder rungs
//! fired plus the final outcome (recovered residual or typed error). Both
//! outcomes exit 0: surfacing a typed error instead of a panic or a silent
//! wrong answer is the demonstration.

use tcevd_bench as bench;
use tcevd_tensorcore::Engine;

fn parse_flag(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `--<flag>=PATH` or `--<flag> PATH`, anywhere in the argument list.
/// Exits with a usage error on a missing or empty path rather than
/// silently treating the next flag as a filename.
fn parse_path_flag(args: &[String], flag: &str, example: &str) -> Option<String> {
    let usage = || -> ! {
        eprintln!("error: --{flag} requires a path, e.g. --{flag}={example}");
        std::process::exit(2);
    };
    let eq = format!("--{flag}=");
    let bare = format!("--{flag}");
    for (i, a) in args.iter().enumerate() {
        if let Some(p) = a.strip_prefix(&eq) {
            if p.is_empty() {
                usage();
            }
            return Some(p.to_string());
        }
        if *a == bare {
            match args.get(i + 1) {
                Some(p) if !p.starts_with("--") && !p.is_empty() => return Some(p.clone()),
                _ => usage(),
            }
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let n = parse_flag(&args, "--n", 512) as usize;
    let seed = parse_flag(&args, "--seed", 42);

    if let Some(path) = parse_path_flag(&args, "faults", "plan.json") {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading fault plan {path}: {e}");
                std::process::exit(1);
            }
        };
        let plan = match tcevd_testmat::FaultPlan::parse_json(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: parsing fault plan {path}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!("[fault-injected sym_eig run at n = {n}; use --n to change]");
        let run = bench::fault_run(n, seed, &plan);
        print!("{}", run.report);
        return;
    }

    if let Some(path) = parse_path_flag(&args, "trace", "out.json") {
        eprintln!("[traced sym_eig run at n = {n}; use --n to change]");
        let run = bench::trace_run(n, seed);
        if let Err(e) = std::fs::write(&path, &run.chrome_json) {
            eprintln!("error: writing trace to {path}: {e}");
            std::process::exit(1);
        }
        print!("{}", run.report);
        println!("wrote Chrome trace to {path} (open at https://ui.perfetto.dev)");
        if run.sink_flops != run.ctx_flops {
            eprintln!(
                "flop tally mismatch: sink {} vs ctx {}",
                run.sink_flops, run.ctx_flops
            );
            std::process::exit(1);
        }
        return;
    }

    let perf = || {
        println!("{}", bench::table1());
        println!("{}", bench::table2());
        println!("{}", bench::fig5());
        println!("{}", bench::fig6_fig7(Engine::Tc));
        println!("{}", bench::fig6_fig7(Engine::Sgemm));
        println!("{}", bench::fig8());
        println!("{}", bench::fig9());
        println!("{}", bench::fig10());
        println!("{}", bench::fig11());
        println!("{}", bench::formw_claim());
        println!("{}", bench::futurework());
        println!("{}", bench::memory_table());
        println!("{}", bench::motivation());
    };

    match cmd {
        "all" => {
            perf();
            eprintln!("[running numeric accuracy tables at n = {n}; use --n to change]");
            println!("{}", bench::table3(n, seed));
            println!("{}", bench::table4(n, seed));
            println!("{}", bench::formw_numeric_check(n.min(256)));
        }
        "perf" => perf(),
        "table1" => print!("{}", bench::table1()),
        "table2" => print!("{}", bench::table2()),
        "fig5" => print!("{}", bench::fig5()),
        "fig6" => print!("{}", bench::fig6_fig7(Engine::Tc)),
        "fig7" => print!("{}", bench::fig6_fig7(Engine::Sgemm)),
        "fig8" => print!("{}", bench::fig8()),
        "fig9" => print!("{}", bench::fig9()),
        "fig10" => print!("{}", bench::fig10()),
        "fig11" => print!("{}", bench::fig11()),
        "future" => print!("{}", bench::futurework()),
        "memory" => print!("{}", bench::memory_table()),
        "motivation" => print!("{}", bench::motivation()),
        "formw" => {
            print!("{}", bench::formw_claim());
            print!("{}", bench::formw_numeric_check(n.min(256)));
        }
        "table3" => print!("{}", bench::table3(n, seed)),
        "table4" => print!("{}", bench::table4(n, seed)),
        "gemm" => {
            // Packed-vs-reference GEMM smoke at the PR-5 acceptance size.
            let n = parse_flag(&args, "--n", 1024) as usize;
            eprintln!("[packed-vs-reference GEMM bench at n = {n}; use --n to change]");
            let json = bench::gemm_bench(n, seed);
            if let Some(path) = parse_path_flag(&args, "out", "BENCH_pr5.json") {
                if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote {path}");
            }
            print!("{json}");
        }
        "dbr" => {
            // DBR (nb, b) crossover sweep at the PR-10 acceptance size.
            let n = parse_flag(&args, "--n", 1024) as usize;
            eprintln!("[DBR crossover sweep at n = {n}; use --n to change]");
            let json = bench::dbr_bench(n, seed);
            if let Some(path) = parse_path_flag(&args, "out", "BENCH_pr10.json") {
                if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote {path}");
            }
            print!("{json}");
        }
        "profile" => {
            // Performance-attribution run at the PR-6 acceptance size.
            let n = parse_flag(&args, "--n", 1024) as usize;
            eprintln!("[profiled sym_eig run at n = {n}; use --n to change]");
            let run = bench::profile_run(n, seed);
            if let Some(path) = parse_path_flag(&args, "out", "BENCH_profile.json") {
                if let Err(e) = std::fs::write(&path, &run.json) {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote {path}");
            }
            print!("{}", run.report);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("known: all perf table1 table2 table3 table4 gemm dbr profile fig5 fig6 fig7 fig8 fig9 fig10 fig11 formw future memory motivation --trace=PATH --faults=PATH");
            std::process::exit(2);
        }
    }
}
