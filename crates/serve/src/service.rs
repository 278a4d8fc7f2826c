//! The scheduler: admission control, one-job dispatch, per-job isolation,
//! deadlines, retry with deterministic backoff, and graceful degradation.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tcevd_core::{sym_eig, EvdError, SymEigResult};
use tcevd_tensorcore::{CancelToken, Engine, GemmContext};
use tcevd_trace::TraceSink;

use crate::backoff::{backoff_delay, name_seed};
use crate::cache::{cache_key, Key, ResultsCache};
use crate::job::{JobHandle, JobSpec, JobState, Priority};
use crate::validate::validate_input;

/// Service configuration. The defaults suit a small interactive service;
/// benchmarks and chaos suites set every field explicitly.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// GEMM engine every job runs on (part of the cache key).
    pub engine: Engine,
    /// Worker threads. `0` = caller-driven: nothing executes until
    /// [`EvdService::run_pending`] runs jobs on the calling thread (the
    /// fully deterministic mode the unit tests use).
    pub workers: usize,
    /// Bounded admission queue capacity; beyond it submissions are shed or
    /// rejected with [`EvdError::Overloaded`].
    pub queue_capacity: usize,
    /// Queue-occupancy fraction above which jobs start in degraded mode:
    /// the recovery ladder is capped (no `verify_tol` re-solve, no QL
    /// budget boost) so the service sheds work predictably instead of
    /// burning worker time on deep ladders.
    pub overload_watermark: f64,
    /// Base delay for the deterministic retry backoff
    /// ([`crate::backoff_delay`]).
    pub backoff_base: Duration,
    /// Results-cache capacity in entries (`0` disables the cache).
    pub cache_capacity: usize,
    /// Symmetry tolerance for input validation (`None` skips the check).
    pub asym_tol: Option<f32>,
    /// Jobs with `n ≤ small_cutoff` are "small": they run on one thread
    /// (`threads = 1`), so the parallelism across them is the service's
    /// workers, each running one job at a time.
    pub small_cutoff: usize,
    /// Worker-pool budget for large jobs (`0` = auto). Never changes
    /// results — the pipeline is bit-identical at every thread count.
    pub threads_large: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: Engine::default(),
            workers: 2,
            queue_capacity: 64,
            overload_watermark: 0.75,
            backoff_base: Duration::from_millis(1),
            cache_capacity: 32,
            asym_tol: Some(1e-4),
            small_cutoff: 64,
            threads_large: 0,
        }
    }
}

/// Book-keeping for one submitted job.
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    /// Attempts started so far (1 while the first attempt runs).
    attempt: u32,
    /// Whether the job was dispatched in overload-degraded mode.
    degraded: bool,
    key: Key,
    /// The job's own isolated sink: its pipeline counters, fault tallies,
    /// and stage spans land here and nowhere else.
    sink: TraceSink,
    result: Option<Result<SymEigResult, EvdError>>,
    /// Compute time of the final attempt.
    latency: Option<Duration>,
}

/// Queues + job table behind the scheduler mutex.
struct SchedState {
    high: VecDeque<u64>,
    normal: VecDeque<u64>,
    low: VecDeque<u64>,
    jobs: HashMap<u64, JobEntry>,
    shutdown: bool,
}

impl SchedState {
    fn queue_len(&self) -> usize {
        self.high.len() + self.normal.len() + self.low.len()
    }

    fn queue_mut(&mut self, p: Priority) -> &mut VecDeque<u64> {
        match p {
            Priority::High => &mut self.high,
            Priority::Normal => &mut self.normal,
            Priority::Low => &mut self.low,
        }
    }

    /// The id that would dequeue next (highest priority, FIFO within).
    fn front(&self) -> Option<u64> {
        self.high
            .front()
            .or_else(|| self.normal.front())
            .or_else(|| self.low.front())
            .copied()
    }

    fn pop_next(&mut self) -> Option<u64> {
        self.high
            .pop_front()
            .or_else(|| self.normal.pop_front())
            .or_else(|| self.low.pop_front())
    }

    /// Under overload, pick a queued job with priority strictly below
    /// `incoming` to displace: the youngest of the lowest-priority class,
    /// so older (closer-to-running) work survives.
    fn shed_victim(&mut self, incoming: Priority) -> Option<u64> {
        for p in [Priority::Low, Priority::Normal] {
            if p >= incoming {
                break;
            }
            if let Some(id) = self.queue_mut(p).pop_back() {
                return Some(id);
            }
        }
        None
    }
}

struct Shared {
    config: ServeConfig,
    state: Mutex<SchedState>,
    /// Wakes workers when jobs arrive (or shutdown).
    work_cv: Condvar,
    /// Wakes waiters when a job reaches a terminal state.
    done_cv: Condvar,
    /// Service-level metrics: every `serve.*` event, plus per-job
    /// `serve.job.<name>.<event>` labels for the Prometheus exporter.
    sink: TraceSink,
    cache: Mutex<ResultsCache>,
}

// The one place raw `Mutex::lock()` is allowed (lint R11): this helper IS
// the poison recovery — a worker that panicked mid-job must not wedge every
// other job behind a poisoned scheduler mutex.
// tcevd-lint: allow(R11)
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The EVD service: submit [`JobSpec`]s, poll or wait on [`JobHandle`]s.
///
/// Robustness properties (asserted by the chaos suite):
/// * a job's failure — typed error, injected fault, even a worker panic —
///   reaches only that job's handle; neighbors and the scheduler proceed;
/// * a job that exhausts its compute budget is cancelled at the next
///   pipeline stage seam and (within its retry budget) retried after a
///   deterministic backoff;
/// * every submitted job terminates in a result or a typed [`EvdError`].
pub struct EvdService {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl EvdService {
    /// Start a service (spawning `config.workers` worker threads).
    pub fn new(config: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            cache: Mutex::new(ResultsCache::new(config.cache_capacity)),
            config,
            state: Mutex::new(SchedState {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                low: VecDeque::new(),
                jobs: HashMap::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            sink: TraceSink::enabled(),
        });
        let mut workers = Vec::new();
        for i in 0..shared.config.workers {
            let s = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("tcevd-serve-{i}"))
                .spawn(move || worker_loop(&s));
            match spawned {
                Ok(h) => workers.push(h),
                // Robustness over liveness: a failed spawn degrades the
                // pool instead of aborting the service.
                Err(_) => shared.sink.add("serve.spawn_failed", 1),
            }
        }
        EvdService {
            shared,
            next_id: AtomicU64::new(1),
            workers: Mutex::new(workers),
        }
    }

    /// Submit a job. Validation failures ([`EvdError::InvalidInput`]) and
    /// overload rejections ([`EvdError::Overloaded`]) surface here, before
    /// the job consumes queue or worker capacity; a results-cache hit
    /// completes the job immediately without compute.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, EvdError> {
        let sink = &self.shared.sink;
        if let Err(e) = validate_input(&spec.matrix, self.shared.config.asym_tol) {
            sink.add("serve.invalid_input", 1);
            return Err(e);
        }
        let key = cache_key(&spec.matrix, &spec.opts, self.shared.config.engine);
        let cached = lock(&self.shared.cache).get(&key);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let name = spec.name.clone();
        if let Some(hit) = cached {
            sink.add("serve.cache_hit", 1);
            sink.add("serve.jobs_submitted", 1);
            sink.add("serve.jobs_completed", 1);
            sink.add(&format!("serve.job.{name}.completed"), 1);
            let mut st = lock(&self.shared.state);
            st.jobs.insert(
                id,
                JobEntry {
                    spec,
                    state: JobState::Done,
                    attempt: 0,
                    degraded: false,
                    key,
                    sink: TraceSink::enabled(),
                    result: Some(Ok(hit)),
                    latency: Some(Duration::ZERO),
                },
            );
            drop(st);
            self.shared.done_cv.notify_all();
            return Ok(JobHandle { id });
        }
        sink.add("serve.cache_miss", 1);

        let mut st = lock(&self.shared.state);
        let cap = self.shared.config.queue_capacity;
        if st.queue_len() >= cap {
            match st.shed_victim(spec.priority) {
                Some(victim) => {
                    let queue_len = st.queue_len();
                    if let Some(v) = st.jobs.get_mut(&victim) {
                        v.state = JobState::Shed;
                        v.result = Some(Err(EvdError::Overloaded {
                            queue_len,
                            capacity: cap,
                        }));
                        sink.add("serve.jobs_shed", 1);
                        sink.add(&format!("serve.job.{}.shed", v.spec.name), 1);
                    }
                    self.shared.done_cv.notify_all();
                }
                None => {
                    let queue_len = st.queue_len();
                    sink.add("serve.overloaded", 1);
                    return Err(EvdError::Overloaded {
                        queue_len,
                        capacity: cap,
                    });
                }
            }
        }
        let priority = spec.priority;
        st.jobs.insert(
            id,
            JobEntry {
                spec,
                state: JobState::Queued,
                attempt: 0,
                degraded: false,
                key,
                sink: TraceSink::enabled(),
                result: None,
                latency: None,
            },
        );
        st.queue_mut(priority).push_back(id);
        sink.add("serve.jobs_submitted", 1);
        sink.add(&format!("serve.job.{name}.submitted"), 1);
        drop(st);
        self.shared.work_cv.notify_one();
        Ok(JobHandle { id })
    }

    /// Current state of a job (`None` for an unknown handle).
    pub fn poll(&self, h: JobHandle) -> Option<JobState> {
        lock(&self.shared.state).jobs.get(&h.id).map(|e| e.state)
    }

    /// Block until the job terminates; returns its result or typed error.
    /// Safe to call repeatedly — the result is cloned out, not consumed.
    ///
    /// With `workers: 0`, call [`Self::run_pending`] first (there is no
    /// one else to run the job).
    pub fn wait(&self, h: JobHandle) -> Result<SymEigResult, EvdError> {
        let mut st = lock(&self.shared.state);
        loop {
            match st.jobs.get(&h.id) {
                None => {
                    return Err(EvdError::InvalidInput {
                        detail: format!("unknown job handle {}", h.id),
                    })
                }
                Some(e) if e.state.is_terminal() => return clone_result(e.result.as_ref()),
                Some(_) => {
                    st = self
                        .shared
                        .done_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Non-blocking result fetch: `None` while the job is still pending.
    pub fn result(&self, h: JobHandle) -> Option<Result<SymEigResult, EvdError>> {
        let st = lock(&self.shared.state);
        let e = st.jobs.get(&h.id)?;
        e.state
            .is_terminal()
            .then(|| clone_result(e.result.as_ref()))
    }

    /// Run queued jobs (including any retries they schedule) on the
    /// calling thread until the queue is empty; returns how many attempts
    /// ran. This is the deterministic `workers: 0` execution mode, and is
    /// also safe alongside live workers (it simply competes for jobs).
    pub fn run_pending(&self) -> usize {
        let mut ran = 0;
        while let Some(id) = take_next(&self.shared) {
            run_job(&self.shared, id);
            ran += 1;
        }
        ran
    }

    /// The service-level metrics sink (`serve.*` counters, per-job labels,
    /// the `time.serve.latency_us` histogram — `time.`-prefixed because
    /// wall-clock values are exempt from the bit-identical determinism
    /// contract). Export with `metrics().prometheus_text()`.
    pub fn metrics(&self) -> TraceSink {
        self.shared.sink.clone()
    }

    /// A job's isolated trace sink (its pipeline counters and fault
    /// tallies) — the chaos suite's cross-contamination probe.
    pub fn job_trace(&self, h: JobHandle) -> Option<TraceSink> {
        lock(&self.shared.state)
            .jobs
            .get(&h.id)
            .map(|e| e.sink.clone())
    }

    /// Compute time of a finished job's final attempt (cache hits report
    /// zero).
    pub fn job_latency(&self, h: JobHandle) -> Option<Duration> {
        lock(&self.shared.state)
            .jobs
            .get(&h.id)
            .and_then(|e| e.latency)
    }

    /// Drain the queue and stop all workers. Queued jobs still run to a
    /// terminal state before the workers exit. Idempotent; also invoked on
    /// drop.
    pub fn shutdown(&self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work_cv.notify_all();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for h in handles {
            // a worker that panicked already had the panic contained per
            // job; a join error here means the thread died outside a job —
            // nothing left to clean up
            let _ = h.join();
        }
    }
}

impl Drop for EvdService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn clone_result(r: Option<&Result<SymEigResult, EvdError>>) -> Result<SymEigResult, EvdError> {
    match r {
        Some(Ok(res)) => Ok(SymEigResult {
            values: res.values.clone(),
            vectors: res.vectors.clone(),
        }),
        Some(Err(e)) => Err(e.clone()),
        // unreachable by construction: every terminal transition stores a
        // result first — but the error surface stays typed if it ever isn't
        None => Err(EvdError::WorkerPanic {
            detail: "job terminated without a stored result".to_string(),
        }),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let next = {
            let mut st = lock(&shared.state);
            loop {
                if st.front().is_some() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            drop(st);
            take_next(shared)
        };
        if let Some(id) = next {
            run_job(shared, id);
        }
    }
}

/// Pop the next job, marking it `Running` and recording the overload
/// decision made at dispatch time.
fn take_next(shared: &Shared) -> Option<u64> {
    let config = &shared.config;
    let mut st = lock(&shared.state);
    let degraded = {
        let occupancy = st.queue_len() as f64;
        occupancy > config.overload_watermark * config.queue_capacity as f64
    };
    let id = st.pop_next()?;
    if let Some(e) = st.jobs.get_mut(&id) {
        e.state = JobState::Running;
        e.attempt += 1;
        e.degraded = degraded;
        if degraded {
            shared.sink.add("serve.degraded", 1);
        }
    }
    Some(id)
}

fn panic_detail(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Execute one attempt of job `id` on the current thread, fully isolated:
/// its own sink, its own `GemmContext` (fault slots, cancel token, job
/// label), panic containment at this boundary, and thread-local fault
/// hooks armed — and disarmed — here on the executing thread.
fn run_job(shared: &Shared, id: u64) {
    let config = &shared.config;
    let (spec, attempt, degraded, job_sink) = {
        let st = lock(&shared.state);
        let Some(e) = st.jobs.get(&id) else { return };
        (e.spec.clone(), e.attempt, e.degraded, e.sink.clone())
    };

    let n = spec.matrix.rows();
    let mut opts = spec.opts;
    opts.trace = true;
    opts.threads = if n <= config.small_cutoff {
        1 // small jobs: the workers are the parallelism
    } else {
        config.threads_large
    };
    if degraded {
        // Graceful degradation: under overload, skip the opt-in re-solve
        // and the enlarged-budget retry rung. Clean jobs are unaffected
        // (rungs only ever fire on failure), so results stay bit-identical.
        opts.recovery.verify_tol = None;
        opts.recovery.ql_budget_boost = opts.recovery.ql_budget_boost.min(1);
    }

    let token = match spec.deadline {
        Some(budget) => CancelToken::with_deadline(budget),
        None => CancelToken::new(),
    };
    let ctx = GemmContext::new(config.engine)
        .with_sink(job_sink.clone())
        .with_job(spec.name.clone())
        .with_cancel(token);

    // Chaos hooks arm on the first attempt only: one-shot faults are
    // consumed by that attempt, so a retry legitimately runs clean.
    if attempt <= 1 {
        if let Some(plan) = &spec.faults {
            if plan.matches_job(&spec.name) {
                tcevd_core::fault::apply_plan(plan, &ctx);
            }
        }
    }

    let t0 = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if tcevd_core::fault::take_panic_failure() {
            // not the panic! macro: keeps the injected payload typed and
            // the service source free of abort-style macros (lint R7)
            std::panic::panic_any("injected worker panic");
        }
        sym_eig(&spec.matrix, &opts, &ctx)
    }));
    let elapsed = t0.elapsed();
    // Disarm whatever the attempt did not consume, on this same thread.
    tcevd_core::fault::reset();
    ctx.clear_faults();

    let result = match caught {
        Ok(r) => r,
        Err(payload) => {
            shared.sink.add("serve.panic_contained", 1);
            Err(EvdError::WorkerPanic {
                detail: panic_detail(payload),
            })
        }
    };

    finish(shared, id, result, elapsed, attempt);
}

/// Terminal bookkeeping or retry scheduling for a finished attempt.
fn finish(
    shared: &Shared,
    id: u64,
    result: Result<SymEigResult, EvdError>,
    elapsed: Duration,
    attempt: u32,
) {
    let sink = &shared.sink;
    match result {
        Ok(res) => {
            let mut st = lock(&shared.state);
            let Some(e) = st.jobs.get_mut(&id) else {
                return;
            };
            lock(&shared.cache).put(e.key, &res);
            e.state = JobState::Done;
            e.latency = Some(elapsed);
            sink.add("serve.jobs_completed", 1);
            sink.add(&format!("serve.job.{}.completed", e.spec.name), 1);
            sink.record("time.serve.latency_us", elapsed.as_micros() as u64);
            e.result = Some(Ok(res));
            drop(st);
            shared.done_cv.notify_all();
        }
        Err(err) => {
            let retryable = !matches!(
                err,
                EvdError::InvalidInput { .. } | EvdError::Overloaded { .. }
            );
            let (retry, name, priority) = {
                let mut st = lock(&shared.state);
                let Some(e) = st.jobs.get_mut(&id) else {
                    return;
                };
                let name = e.spec.name.clone();
                if retryable && attempt <= e.spec.retries {
                    e.state = JobState::Retried {
                        attempt: attempt + 1,
                    };
                    (true, name, e.spec.priority)
                } else {
                    e.state = if matches!(err, EvdError::DeadlineExceeded { .. }) {
                        sink.add("serve.jobs_timed_out", 1);
                        JobState::TimedOut
                    } else {
                        sink.add("serve.jobs_failed", 1);
                        JobState::Failed
                    };
                    e.latency = Some(elapsed);
                    let event = if e.state == JobState::TimedOut {
                        "timed_out"
                    } else {
                        "failed"
                    };
                    sink.add(&format!("serve.job.{name}.{event}"), 1);
                    e.result = Some(Err(err.clone()));
                    (false, name, e.spec.priority)
                }
            };
            if retry {
                sink.add("serve.retry", 1);
                sink.add(&format!("serve.job.{name}.retried"), 1);
                // Deterministic, thread-count-independent backoff: a pure
                // function of the job name and attempt number.
                let delay = backoff_delay(shared.config.backoff_base, name_seed(&name), attempt);
                std::thread::sleep(delay);
                let mut st = lock(&shared.state);
                st.queue_mut(priority).push_back(id);
                drop(st);
                shared.work_cv.notify_one();
            } else {
                shared.done_cv.notify_all();
            }
        }
    }
}
