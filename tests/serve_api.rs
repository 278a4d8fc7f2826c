//! Service-boundary integration suite for `tcevd-serve`: input validation,
//! admission control and priority-aware shedding, the results cache,
//! overload degradation, deadlines, and the Prometheus export of the
//! `serve.*` counter families. Everything but one test runs in the
//! deterministic `workers: 0` mode — jobs execute only inside
//! `run_pending()` on the test thread. The exception drives a live
//! 4-worker service and checks that its counters stay exact.

use std::time::Duration;

use tcevd::band::PanelKind;
use tcevd::evd::{SbrVariant, SymEigOptions, TridiagSolver};
use tcevd::matrix::Mat;
use tcevd::serve::{EvdError, EvdService, JobSpec, JobState, Priority, ServeConfig};
use tcevd::tensorcore::Engine;
use tcevd::testmat::{generate, MatrixType};

fn caller_driven(queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        engine: Engine::Sgemm,
        workers: 0,
        queue_capacity,
        ..ServeConfig::default()
    }
}

fn sym(n: usize, seed: u64) -> Mat<f32> {
    generate(n, MatrixType::Normal, seed).cast()
}

#[test]
fn invalid_input_is_rejected_before_scheduling() {
    let service = EvdService::new(caller_driven(8));

    let mut nan = sym(8, 1);
    nan.set(2, 3, f32::NAN);
    nan.set(3, 2, f32::NAN);
    let r = service.submit(JobSpec::new("nan", nan));
    assert!(matches!(r, Err(EvdError::InvalidInput { .. })), "{r:?}");

    let r = service.submit(JobSpec::new("rect", Mat::<f32>::zeros(4, 6)));
    assert!(matches!(r, Err(EvdError::InvalidInput { .. })), "{r:?}");

    let mut asym = sym(8, 2);
    asym.set(1, 0, asym.get(0, 1) + 1.0);
    let r = service.submit(JobSpec::new("asym", asym));
    assert!(matches!(r, Err(EvdError::InvalidInput { .. })), "{r:?}");

    // nothing was admitted, nothing runs
    assert_eq!(service.metrics().counter("serve.invalid_input"), 3);
    assert_eq!(service.metrics().counter("serve.jobs_submitted"), 0);
    assert_eq!(service.run_pending(), 0);
}

#[test]
fn overload_sheds_lower_priority_or_rejects() {
    let service = EvdService::new(caller_driven(2));
    let low_a = service
        .submit(JobSpec::new("low-a", sym(8, 3)).with_priority(Priority::Low))
        .expect("admitted");
    let low_b = service
        .submit(JobSpec::new("low-b", sym(8, 4)).with_priority(Priority::Low))
        .expect("admitted");
    // the queue is full and the incoming job outranks a queued one: the
    // *youngest* low-priority job is displaced
    let high = service
        .submit(JobSpec::new("high", sym(8, 5)).with_priority(Priority::High))
        .expect("admitted by shedding");
    assert_eq!(service.poll(low_b), Some(JobState::Shed));
    let r = service.wait(low_b);
    assert!(matches!(r, Err(EvdError::Overloaded { .. })), "{r:?}");
    // full again, and an incoming Low outranks nothing: typed rejection
    let r = service.submit(JobSpec::new("low-c", sym(8, 6)).with_priority(Priority::Low));
    assert!(matches!(r, Err(EvdError::Overloaded { .. })), "{r:?}");

    service.run_pending();
    assert_eq!(service.poll(low_a), Some(JobState::Done));
    assert_eq!(service.poll(high), Some(JobState::Done));
    let m = service.metrics();
    assert_eq!(m.counter("serve.jobs_shed"), 1);
    assert_eq!(m.counter("serve.overloaded"), 1);
    assert_eq!(m.counter("serve.job.low-b.shed"), 1);
}

#[test]
fn results_cache_serves_repeat_submissions_without_compute() {
    let service = EvdService::new(caller_driven(16));
    let a = sym(12, 7);
    let h1 = service
        .submit(JobSpec::new("first", a.clone()))
        .expect("admitted");
    service.run_pending();
    let r1 = service.wait(h1).expect("computes");

    // identical matrix + options: served from the cache, already terminal
    // at submit time, with zero compute latency
    let h2 = service
        .submit(JobSpec::new("again", a.clone()))
        .expect("admitted");
    assert_eq!(service.poll(h2), Some(JobState::Done));
    assert_eq!(service.job_latency(h2), Some(Duration::ZERO));
    let r2 = service.wait(h2).expect("cache hit");
    assert_eq!(r1.values, r2.values);

    // a one-ulp perturbation is a different problem: cache miss
    let mut b = a.clone();
    let v = b.get(0, 0);
    b.set(0, 0, v + v.abs().max(1e-3) * f32::EPSILON * 4.0);
    let h3 = service.submit(JobSpec::new("near", b)).expect("admitted");
    assert_eq!(service.poll(h3), Some(JobState::Queued));
    service.run_pending();
    assert_eq!(service.poll(h3), Some(JobState::Done));

    let m = service.metrics();
    assert_eq!(m.counter("serve.cache_hit"), 1);
    assert_eq!(m.counter("serve.cache_miss"), 2);
}

#[test]
fn live_workers_count_a_mixed_workload_exactly() {
    // Sizes cycle through three small ones and 96, which is over
    // `small_cutoff` and shards onto the worker pool. All unique jobs are
    // waited on before every fifth is resubmitted, so each resubmission
    // hits the cache and no counter depends on scheduling.
    const SIZES: [usize; 4] = [32, 48, 64, 96];
    let jobs = 20;
    let service = EvdService::new(ServeConfig {
        engine: Engine::Tc,
        workers: 4,
        // room for every job, so admission control never sheds
        queue_capacity: jobs + 8,
        cache_capacity: jobs,
        small_cutoff: 64,
        threads_large: 2,
        backoff_base: Duration::from_millis(1),
        ..ServeConfig::default()
    });
    let opts = SymEigOptions {
        bandwidth: 8,
        sbr: SbrVariant::Wy { block: 32 },
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors: true,
        ..SymEigOptions::default()
    };
    let submit = |name: String, i: usize| {
        let spec = JobSpec::new(name, sym(SIZES[i % SIZES.len()], 7 + i as u64)).with_opts(opts);
        service.submit(spec).expect("admitted")
    };

    let unique: Vec<_> = (0..jobs).map(|i| submit(format!("job-{i}"), i)).collect();
    for &h in &unique {
        service.wait(h).expect("unique job computes");
    }
    let repeats: Vec<_> = (0..jobs)
        .step_by(5)
        .map(|i| submit(format!("repeat-{i}"), i))
        .collect();
    for &h in &repeats {
        service.wait(h).expect("resubmission is served");
    }
    for &h in unique.iter().chain(&repeats) {
        assert_eq!(service.poll(h), Some(JobState::Done));
    }

    let m = service.metrics();
    assert_eq!(m.counter("serve.jobs_submitted"), 24);
    assert_eq!(m.counter("serve.jobs_completed"), 24);
    assert_eq!(m.counter("serve.cache_hit"), 4);
    assert_eq!(m.counter("serve.cache_miss"), 20);
    assert_eq!(m.counter("serve.jobs_failed"), 0);
    assert_eq!(m.counter("serve.jobs_shed"), 0);

    let mut latencies: Vec<Duration> = unique
        .iter()
        .filter_map(|&h| service.job_latency(h))
        .collect();
    latencies.sort();
    let percentile = |pct: usize| latencies[(latencies.len() * pct / 100).min(latencies.len() - 1)];
    let (p50, p99) = (percentile(50), percentile(99));
    assert!(
        p50 > Duration::ZERO && p99 >= p50,
        "p50 {p50:?} p99 {p99:?}"
    );
}

#[test]
fn overload_degrades_recovery_but_clean_results_are_unchanged() {
    // watermark 0: every dispatched job runs in degraded mode
    let service = EvdService::new(ServeConfig {
        overload_watermark: 0.0,
        ..caller_driven(16)
    });
    let a = sym(16, 8);
    let h = service
        .submit(JobSpec::new("degraded", a.clone()))
        .expect("admitted");
    service.run_pending();
    let degraded = service.wait(h).expect("clean job completes degraded");
    assert!(service.metrics().counter("serve.degraded") >= 1);

    // a clean job's result is unaffected by degradation: recovery rungs
    // only ever fire on failure
    let baseline = EvdService::new(caller_driven(16));
    let hb = baseline
        .submit(JobSpec::new("baseline", a))
        .expect("admitted");
    baseline.run_pending();
    let full = baseline.wait(hb).expect("clean job completes");
    assert_eq!(degraded.values, full.values);
}

#[test]
fn zero_deadline_times_out_with_typed_error() {
    let service = EvdService::new(caller_driven(8));
    let h = service
        .submit(JobSpec::new("tight", sym(16, 9)).with_deadline(Duration::ZERO))
        .expect("admitted");
    assert_eq!(service.poll(h), Some(JobState::Queued));
    service.run_pending();
    assert_eq!(service.poll(h), Some(JobState::TimedOut));
    let r = service.wait(h);
    assert!(matches!(r, Err(EvdError::DeadlineExceeded { .. })), "{r:?}");
    assert_eq!(service.metrics().counter("serve.jobs_timed_out"), 1);
}

#[test]
fn poll_walks_the_state_machine_and_unknown_handles_are_none() {
    let service = EvdService::new(caller_driven(8));
    let h = service
        .submit(JobSpec::new("walk", sym(12, 10)))
        .expect("admitted");
    assert_eq!(service.poll(h), Some(JobState::Queued));
    assert!(service.result(h).is_none(), "no result while queued");
    service.run_pending();
    assert_eq!(service.poll(h), Some(JobState::Done));
    assert!(service.result(h).is_some());
    // wait() is idempotent: the result is cloned out, not consumed
    let r1 = service.wait(h).expect("done");
    let r2 = service.wait(h).expect("still done");
    assert_eq!(r1.values, r2.values);
}

#[test]
fn prometheus_export_carries_service_and_per_job_families() {
    let service = EvdService::new(caller_driven(8));
    let h = service
        .submit(JobSpec::new("api.metrics", sym(12, 12)))
        .expect("admitted");
    service.run_pending();
    service.wait(h).expect("completes");
    let text = service.metrics().prometheus_text();
    assert!(
        text.contains("tcevd_counter_total{name=\"serve.jobs_submitted\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("tcevd_counter_total{name=\"serve.jobs_completed\"} 1"),
        "{text}"
    );
    // per-job events render as their own labeled family, dotted job names
    // intact, and do not leak into the generic counter family
    assert!(
        text.contains("tcevd_serve_job_total{job=\"api.metrics\",event=\"submitted\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("tcevd_serve_job_total{job=\"api.metrics\",event=\"completed\"} 1"),
        "{text}"
    );
    assert!(!text.contains("name=\"serve.job.api.metrics"), "{text}");
}

#[test]
fn per_job_trace_isolates_pipeline_counters() {
    let service = EvdService::new(caller_driven(8));
    let h1 = service
        .submit(JobSpec::new("iso-1", sym(16, 13)))
        .expect("admitted");
    let h2 = service
        .submit(JobSpec::new("iso-2", sym(24, 14)))
        .expect("admitted");
    service.run_pending();
    let t1 = service.job_trace(h1).expect("trace");
    let t2 = service.job_trace(h2).expect("trace");
    // each job's GEMM tally reflects only its own problem size
    assert!(t1.counter("gemm_flops") > 0);
    assert!(t2.counter("gemm_flops") > t1.counter("gemm_flops"));
    // and the service-level sink holds no pipeline counters at all
    assert_eq!(service.metrics().counter("gemm_flops"), 0);
}
