//! Chaos suite for the EVD service
//! (`cargo test --features fault-inject --test serve_chaos`).
//!
//! One mixed 100-job workload — clean jobs across a spread of sizes and
//! priorities, plus designated victims carrying injected GEMM faults,
//! forced ladder exhaustion, seam cancellations, sub-budget deadlines, and
//! a worker panic — is run twice, on a 1-worker/1-thread and a
//! 4-worker/4-thread service. The suite asserts the service's three core
//! robustness contracts:
//!
//! * **total termination** — every job reaches a terminal state with a
//!   result or a *typed* `EvdError`; no panic escapes the scheduler;
//! * **fault isolation** — an injected fault tallies only in its own job's
//!   trace sink; clean neighbours see zero fault counters;
//! * **non-interference** — every surviving job's eigenvalues and
//!   eigenvectors are bit-identical to a solo `sym_eig` run of the same
//!   problem, and bit-identical across the two service configurations.

use std::collections::HashMap;
use std::time::Duration;

use tcevd::evd::{sym_eig, EvdError, RecoveryPolicy, SbrVariant, SymEigOptions, TridiagSolver};
use tcevd::matrix::Mat;
use tcevd::serve::{EvdService, JobHandle, JobSpec, JobState, Priority, ServeConfig};
use tcevd::tensorcore::{Engine, GemmContext};
use tcevd::testmat::{generate, FaultPlan, MatrixType};
use tcevd::trace::TraceSink;

const JOBS: usize = 100;
const SEED: u64 = 11;
/// Small sizes keep the suite fast; index-stepped so the queue mixes sizes.
const SIZES: [usize; 4] = [16, 24, 32, 48];
/// Every 25th-ish job is above the small cutoff and shards onto the pool.
const LARGE_EVERY: usize = 25;
const LARGE_N: usize = 96;

fn size_of(i: usize) -> usize {
    if i % LARGE_EVERY == 5 {
        LARGE_N
    } else {
        SIZES[i % SIZES.len()]
    }
}

fn matrix_of(i: usize) -> Mat<f32> {
    generate(size_of(i), MatrixType::Normal, SEED.wrapping_add(i as u64)).cast()
}

fn opts() -> SymEigOptions {
    SymEigOptions {
        bandwidth: 4,
        sbr: SbrVariant::Wy { block: 16 },
        solver: TridiagSolver::DivideConquer,
        vectors: true,
        ..SymEigOptions::default()
    }
}

fn plan(json: &str) -> FaultPlan {
    FaultPlan::parse_json(json).expect("chaos plan parses")
}

/// Expected terminal disposition of each designated victim.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Expect {
    Done,
    Failed,
    TimedOut,
}

/// The workload: (index → spec) plus what each job must terminate as.
fn build_workload() -> Vec<(JobSpec, Expect)> {
    (0..JOBS)
        .map(|i| {
            let name = format!("chaos-{i}");
            let base = JobSpec::new(name, matrix_of(i))
                .with_opts(opts())
                .with_priority(match i % 3 {
                    0 => Priority::Low,
                    1 => Priority::Normal,
                    _ => Priority::High,
                });
            match i {
                // GEMM NaN, scoped to this job by name, no retries: the
                // finiteness gate fails it with a typed NonFinite.
                3 => (
                    base.with_faults(plan(
                        r#"{"job": "chaos-3",
                            "faults": [{"kind": "gemm", "mode": "nan", "nth": 1}]}"#,
                    )),
                    Expect::Failed,
                ),
                // GEMM Inf with one retry: the one-shot fault is consumed
                // by the first attempt, the retry runs clean and completes.
                7 => (
                    base.with_faults(plan(r#"[{"kind": "gemm", "mode": "inf", "nth": 1}]"#))
                        .with_retries(1),
                    Expect::Done,
                ),
                // Forced ladder exhaustion: D&C breakdown with every
                // recovery rung disabled surfaces the solver's typed error.
                11 => {
                    let mut o = opts();
                    o.recovery = RecoveryPolicy::disabled();
                    (
                        JobSpec::new("chaos-11", matrix_of(11))
                            .with_opts(o)
                            .with_faults(plan(r#"[{"kind": "dc_fail"}]"#)),
                        Expect::Failed,
                    )
                }
                // Seam cancellation with one retry: attempt 1 is cancelled
                // at the first stage seam, attempt 2 runs clean.
                13 => (
                    base.with_faults(plan(r#"[{"kind": "cancel"}]"#))
                        .with_retries(1),
                    Expect::Done,
                ),
                // A deadline no real attempt can meet: the token is expired
                // before the first seam check.
                17 => (base.with_deadline(Duration::ZERO), Expect::TimedOut),
                // Worker panic: contained at the job boundary, surfaced as
                // a typed WorkerPanic to this handle only.
                19 => (
                    base.with_faults(plan(r#"[{"kind": "panic"}]"#)),
                    Expect::Failed,
                ),
                // A plan scoped to a *different* job must be ignored.
                23 => (
                    base.with_faults(plan(
                        r#"{"job": "someone-else",
                            "faults": [{"kind": "gemm", "mode": "nan"}]}"#,
                    )),
                    Expect::Done,
                ),
                _ => (base, Expect::Done),
            }
        })
        .collect()
}

struct RunOutcome {
    states: Vec<JobState>,
    errors: Vec<Option<EvdError>>,
    /// index → (value bits, vector bits) for every Done job.
    bits: HashMap<usize, (Vec<u32>, Vec<u32>)>,
    traces: Vec<TraceSink>,
    metrics: TraceSink,
}

fn run_workload(workers: usize, threads_large: usize) -> RunOutcome {
    let service = EvdService::new(ServeConfig {
        engine: Engine::Sgemm,
        workers,
        // capacity far above the workload: shedding is exercised in the
        // API suite; here every job must terminate through the scheduler
        queue_capacity: 256,
        cache_capacity: 0, // no cache: every job must really compute
        small_cutoff: 64,
        threads_large,
        backoff_base: Duration::from_micros(50),
        ..ServeConfig::default()
    });
    let workload = build_workload();
    let handles: Vec<JobHandle> = workload
        .iter()
        .map(|(spec, _)| service.submit(spec.clone()).expect("chaos job admitted"))
        .collect();
    if workers == 0 {
        service.run_pending();
    }
    let mut states = Vec::new();
    let mut errors = Vec::new();
    let mut bits = HashMap::new();
    let mut traces = Vec::new();
    for (i, &h) in handles.iter().enumerate() {
        let r = service.wait(h);
        let state = service.poll(h).expect("known handle");
        assert!(state.is_terminal(), "job {i} not terminal: {state:?}");
        match r {
            Ok(res) => {
                let vbits: Vec<u32> = res.values.iter().map(|v| v.to_bits()).collect();
                let xbits: Vec<u32> = res
                    .vectors
                    .as_ref()
                    .expect("vectors requested")
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                bits.insert(i, (vbits, xbits));
                errors.push(None);
            }
            Err(e) => errors.push(Some(e)),
        }
        states.push(state);
        traces.push(service.job_trace(h).expect("known handle"));
    }
    let metrics = service.metrics();
    service.shutdown();
    RunOutcome {
        states,
        errors,
        bits,
        traces,
        metrics,
    }
}

fn check_outcome(out: &RunOutcome) {
    let workload = build_workload();
    for (i, (_, expect)) in workload.iter().enumerate() {
        let state = out.states[i];
        let err = &out.errors[i];
        match expect {
            Expect::Done => {
                assert_eq!(state, JobState::Done, "job {i}: {err:?}");
                assert!(out.bits.contains_key(&i), "job {i} missing result");
            }
            Expect::Failed => {
                assert_eq!(state, JobState::Failed, "job {i}");
                assert!(err.is_some(), "job {i} failed without a typed error");
            }
            Expect::TimedOut => {
                assert_eq!(state, JobState::TimedOut, "job {i}");
                assert!(
                    matches!(err, Some(EvdError::DeadlineExceeded { .. })),
                    "job {i}: {err:?}"
                );
            }
        }
    }
    // Typed-error details for the designated victims.
    assert!(
        matches!(&out.errors[11], Some(EvdError::TridiagNoConvergence { .. })),
        "ladder exhaustion surfaces the solver error: {:?}",
        out.errors[11]
    );
    assert!(
        matches!(&out.errors[19], Some(EvdError::WorkerPanic { .. })),
        "panic is contained and typed: {:?}",
        out.errors[19]
    );
    // Fault isolation: injected GEMM faults tally only in their own sink.
    for (i, trace) in out.traces.iter().enumerate() {
        let want = u64::from(i == 3 || i == 7);
        assert_eq!(
            trace.counter("fault.gemm_injected"),
            want,
            "job {i} fault counter"
        );
    }
    // The job-scoped counter satellite: the fault also tallies under the
    // owning job's label in its own sink.
    assert_eq!(out.traces[3].counter("fault.gemm_injected.job.chaos-3"), 1);
    assert_eq!(out.traces[23].counter("fault.gemm_injected"), 0);
    // Service-level tallies: retries for jobs 7 and 13, one timeout, three
    // failures, everything else completed.
    assert_eq!(out.metrics.counter("serve.jobs_submitted"), JOBS as u64);
    assert_eq!(out.metrics.counter("serve.retry"), 2);
    assert_eq!(out.metrics.counter("serve.jobs_timed_out"), 1);
    assert_eq!(out.metrics.counter("serve.jobs_failed"), 3);
    assert_eq!(out.metrics.counter("serve.jobs_completed"), JOBS as u64 - 4);
    assert_eq!(out.metrics.counter("serve.jobs_shed"), 0);
    assert_eq!(out.metrics.counter("serve.panic_contained"), 1);
}

#[test]
fn chaos_workload_terminates_isolated_and_bit_identical() {
    // Solo baselines for every job expected to survive. The retried and
    // scope-ignored victims (7, 13, 23) are included: their surviving
    // attempt runs clean, so it must match the plain un-faulted problem.
    let workload = build_workload();
    let solo: HashMap<usize, (Vec<u32>, Vec<u32>)> = workload
        .iter()
        .enumerate()
        .filter(|(_, (_, expect))| *expect == Expect::Done)
        .map(|(i, (spec, _))| {
            let ctx = GemmContext::new(Engine::Sgemm);
            let r = sym_eig(&spec.matrix, &spec.opts, &ctx).expect("solo run");
            let vbits = r.values.iter().map(|v| v.to_bits()).collect();
            let xbits = r
                .vectors
                .as_ref()
                .expect("vectors")
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (i, (vbits, xbits))
        })
        .collect();

    let serial = run_workload(1, 1);
    check_outcome(&serial);
    let parallel = run_workload(4, 4);
    check_outcome(&parallel);

    for (i, solo_bits) in &solo {
        assert_eq!(
            serial.bits.get(i),
            Some(solo_bits),
            "job {i}: 1-worker service result differs from solo run"
        );
        assert_eq!(
            parallel.bits.get(i),
            Some(solo_bits),
            "job {i}: 4-worker service result differs from solo run"
        );
    }
    assert_eq!(
        serial.bits.len(),
        parallel.bits.len(),
        "both configs complete the same survivor set"
    );
}
