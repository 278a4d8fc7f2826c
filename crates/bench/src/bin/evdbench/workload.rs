//! The four workloads, their seeded inputs, and the untraced end-to-end
//! pass, which calls nothing but the public entry points `sym_eig`,
//! `sym_eig_selected` and `EvdService`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::path::Path as FsPath;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use tcevd_core::{sym_eig, sym_eig_selected, EigRange, EvdError, SymEigOptions, SymEigResult};
use tcevd_matrix::{mem, Mat};
use tcevd_serve::{EvdService, JobHandle, JobSpec, Priority, ServeConfig};
use tcevd_tensorcore::{Engine, GemmContext};
use tcevd_testmat::{generate, MatrixType};
use tcevd_trace::TraceSink;

use crate::check::{accuracy, same_bits, Accuracy, Reference, Tally};
use crate::layers::{self, LayerRun, Path, LAYERS};
use crate::spans::Spans;
use crate::stats::{rate, Summary};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    Values,
    Vectors,
    Topk,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Values,
        Workload::Vectors,
        Workload::Topk,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Values => "values_n1024",
            Workload::Vectors => "vectors_n1024",
            Workload::Topk => "topk16_n1024",
            Workload::Serve => "serve_small_w4",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The library workloads measure host wall clock on the f32 engine;
    /// serve runs the paper's Tensor-Core numerics.
    pub fn engine(self) -> Engine {
        match self {
            Workload::Serve => Engine::Tc,
            _ => Engine::Sgemm,
        }
    }

    /// Threads the workload runs on: the calling thread for the library
    /// workloads; the service worker plus the generator for serve.
    pub fn threads(self) -> usize {
        match self {
            Workload::Serve => 2,
            _ => 1,
        }
    }

    /// Timed calls, or jobs for serve, that every run makes even when
    /// `--seconds` has passed sooner.
    fn min_reps(self) -> usize {
        match self {
            Workload::Serve => 10,
            _ => 3,
        }
    }
}

/// Run settings shared by every workload.
#[derive(Copy, Clone, Debug)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    /// Small configuration for the tests: n = 96, 3 reps, 200 serve jobs.
    pub quick: bool,
}

impl Settings {
    /// Order of the library workloads' matrix.
    pub fn n(self) -> usize {
        if self.quick {
            96
        } else {
            1024
        }
    }

    /// Whether the timed phase, begun at `t0`, ends before call (or job)
    /// `done`: `--quick` makes a fixed count, a full run as many as start
    /// within `--seconds`, so a run lasts as long on a loaded host as on a
    /// quiet one. Serve asks only between blocks of ten jobs, which keeps
    /// its cache-hit share at exactly one in ten.
    fn timed_out(self, w: Workload, done: usize, t0: Instant) -> bool {
        if self.quick {
            return done >= if w == Workload::Serve { QUICK_JOBS } else { 3 };
        }
        done >= w.min_reps() && t0.elapsed().as_secs_f64() >= self.seconds
    }

    fn traced_reps(self) -> usize {
        if self.quick {
            2
        } else {
            5
        }
    }

    /// Fresh processes timed for `setup_s`; `--quick` times the first call
    /// in-process instead, which lets it run inside a test binary. Serve's
    /// first jobs take a few milliseconds, so it takes more samples.
    fn setup_children(self, w: Workload) -> usize {
        match (self.quick, w) {
            (true, _) => 0,
            (false, Workload::Serve) => 15,
            (false, _) => 3,
        }
    }
}

/// Everything one workload run measured.
pub struct Outcome {
    pub workload: Workload,
    /// Matrix order (the largest pool size for serve).
    pub n: usize,
    /// Seconds per call, or per job from submit until `wait` returns.
    pub solve: Summary,
    /// Wall time of the first call in a fresh process.
    pub setup: Summary,
    /// Calls or jobs per second, the median over windows of the run.
    pub throughput: f64,
    /// Matrix bytes above those alive before: at the peak of one call for a
    /// library workload; held by a service that has run its jobs for serve.
    pub mat_peak_bytes: f64,
    pub tally: Tally,
    pub accuracy: Accuracy,
    /// Per-layer metrics; traced runs only.
    pub per_layer: Option<BTreeMap<String, f64>>,
}

pub fn run(w: Workload, s: Settings, trace: bool, spans: &mut Spans) -> Result<Outcome, String> {
    match w {
        Workload::Serve => run_serve(s, trace, spans),
        _ => run_library(w, s, trace, spans),
    }
}

// ---------------------------------------------------------------- library

const TOPK: usize = 16;

/// Untimed calls first, so lazy set-up and first-touch page faults stay out
/// of the timed reps (`setup_s` measures them instead).
const WARMUPS: usize = 1;

/// The seeded input of a library workload: a symmetrized Gaussian matrix,
/// or for top-k a PCA-like spectrum decaying geometrically to 1e-5.
fn library_input(w: Workload, n: usize, seed: u64) -> Mat<f32> {
    let kind = match w {
        Workload::Topk => MatrixType::Geo { cond: 1e5 },
        _ => MatrixType::Normal,
    };
    generate(n, kind, seed).cast()
}

/// `SymEigOptions::default()` with only `vectors` and `threads` set, so a
/// change of defaults shows up in the numbers.
fn options(w: Workload) -> SymEigOptions {
    SymEigOptions {
        vectors: w == Workload::Vectors,
        threads: 1,
        ..SymEigOptions::default()
    }
}

/// One call of the workload's public entry point.
fn solve(
    w: Workload,
    a: &Mat<f32>,
    opts: &SymEigOptions,
    ctx: &GemmContext,
) -> Result<SymEigResult, EvdError> {
    match w {
        Workload::Topk => {
            let n = a.rows();
            let range = EigRange::Index {
                lo: n - TOPK,
                hi: n,
            };
            sym_eig_selected(a, range, opts, ctx)
        }
        _ => sym_eig(a, opts, ctx),
    }
}

fn run_library(
    w: Workload,
    s: Settings,
    trace: bool,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let n = s.n();
    let a = library_input(w, n, s.seed);
    let setup = setup_times(w, &[&a], s)?;
    let opts = options(w);
    let ctx = GemmContext::new(w.engine());
    let mut tally = Tally::default();
    let mut first: Option<SymEigResult> = None;
    let mut times = Vec::new();
    let pass = spans.begin("untraced_pass", w.name(), None);
    let mut t0 = Instant::now();
    for rep in 0.. {
        if rep == WARMUPS {
            t0 = Instant::now();
        }
        if rep >= WARMUPS && s.timed_out(w, times.len(), t0) {
            break;
        }
        let call = spans.begin("solve", w.name(), Some(pass));
        let r = solve(w, &a, &opts, &ctx);
        let secs = spans.end(call);
        if rep >= WARMUPS {
            times.push(secs);
        }
        match (r, &first) {
            (Ok(r), Some(f)) => tally.count(same_bits(f, &r)),
            // the first result is counted once its accuracy is checked
            (Ok(r), None) => first = Some(r),
            (Err(_), _) => tally.count(false),
        }
    }
    spans.end(pass);
    let solve_s = Summary::of(&times).ok_or("no timed reps")?;

    let (lo, count) = match w {
        Workload::Topk => (n - TOPK, TOPK),
        _ => (0, n),
    };
    let reference = Reference::of(&a)?;
    let acc = match &first {
        Some(f) => accuracy(&a, &reference, f, lo, count, w.engine()),
        None => Accuracy {
            eig_err: f64::INFINITY,
            resid: f64::INFINITY,
            orth: f64::INFINITY,
        },
    };
    if first.is_some() {
        tally.count(acc.within_bound());
    }
    let (peak, r) = traced_peak(w, &a, &opts);
    tally.count(matches!((&r, &first), (Ok(r), Some(f)) if same_bits(f, r)));

    let per_layer = match (&first, trace) {
        (Some(expect), true) => {
            let path = match w {
                Workload::Values => Path::Values,
                Workload::Vectors => Path::Vectors,
                _ => Path::Selected { lo, hi: n },
            };
            let pass = spans.begin("traced_pass", w.name(), None);
            let run = layers::run(
                path,
                &a,
                w.engine(),
                s.traced_reps(),
                expect,
                spans,
                w.name(),
                Some(pass),
            )?;
            spans.end(pass);
            // the traced reps' layer medians are over all reps, so the
            // untraced median they are compared with is too
            let untraced_s = Summary::whole(&times).map_or(0.0, |s| s.median);
            Some(per_layer(run, untraced_s, acc, ServeStats::default()))
        }
        _ => None,
    };
    Ok(Outcome {
        workload: w,
        n,
        // calls run back to back, so each completes at the sum of the times
        throughput: rate(
            &times
                .iter()
                .scan(0.0, |done, t| {
                    *done += t;
                    Some(*done)
                })
                .collect::<Vec<_>>(),
        ),
        solve: solve_s,
        setup,
        mat_peak_bytes: peak,
        tally,
        accuracy: acc,
        per_layer,
    })
}

/// Matrix bytes a call holds at its peak beyond those alive before it.
/// The pipeline restarts the watermark at every stage seam and reports
/// each stage's peak to an enabled sink, so the whole call's peak comes
/// from a traced call's `mem.peak_bytes`.
fn traced_peak(
    w: Workload,
    a: &Mat<f32>,
    opts: &SymEigOptions,
) -> (f64, Result<SymEigResult, EvdError>) {
    let sink = TraceSink::enabled();
    let ctx = GemmContext::new(w.engine()).with_sink(sink.clone());
    let traced = SymEigOptions {
        trace: true,
        ..*opts
    };
    let live = mem::current_bytes();
    let r = solve(w, a, &traced, &ctx);
    let peak = sink.counter("mem.peak_bytes").saturating_sub(live);
    (peak as f64, r)
}

// ----------------------------------------------------------------- serve

const SERVE_SIZES: [usize; 4] = [32, 48, 64, 96];
const POOL: usize = 512;
/// Serve jobs of a `--quick` run.
const QUICK_JOBS: usize = 200;
/// Computed jobs the closed-loop generator keeps in flight. A cache hit
/// completes inside `submit` and takes no slot, so every computed job
/// waits behind the same number of others: were hits to hold a slot, the
/// jobs behind one would wait for three computed jobs instead of four, and
/// the latency median would fall in the gap between those two modes.
const IN_FLIGHT: usize = 4;
/// `EvdService` keeps every finished job's entry (result and trace sink)
/// for the life of the service, so the loop starts a fresh service every
/// this many jobs to bound memory. Serve's `mat_peak_bytes` is therefore
/// the matrices of up to this many kept jobs.
const JOBS_PER_SERVICE: usize = 1000;

fn serve_config() -> ServeConfig {
    ServeConfig {
        engine: Engine::Tc,
        workers: 1,
        cache_capacity: 32,
        threads_large: 1,
        ..ServeConfig::default()
    }
}

/// What `JobSpec::new` submits: the defaults with eigenvectors.
fn serve_options() -> SymEigOptions {
    SymEigOptions {
        vectors: true,
        ..SymEigOptions::default()
    }
}

fn job(i: usize, matrix: &Arc<Mat<f32>>) -> JobSpec {
    JobSpec {
        name: format!("job{i}"),
        matrix: Arc::clone(matrix),
        opts: serve_options(),
        priority: Priority::Normal,
        deadline: None,
        retries: 0,
        faults: None,
    }
}

/// `len` seeded Gaussian matrices whose sizes cycle through
/// [`SERVE_SIZES`].
fn serve_pool(len: usize, seed: u64) -> Vec<Arc<Mat<f32>>> {
    (0..len)
        .map(|j| {
            let n = SERVE_SIZES[j % SERVE_SIZES.len()];
            let seed = seed.wrapping_mul(POOL as u64).wrapping_add(j as u64);
            Arc::new(generate(n, MatrixType::Normal, seed).cast())
        })
        .collect()
}

/// Pool slot of job `i` and whether the job is a resubmission. Job `i`
/// with `i % 10 == 9` resubmits the matrix of job `i − 9`, which has
/// finished and is still among the cache's last 32 entries: a guaranteed
/// hit. The other nine take the pool in order, and a pool matrix recurs
/// only after the FIFO cache has evicted it.
fn pool_slot(i: usize, pool_len: usize) -> (usize, bool) {
    let (block, r) = (i / 10, i % 10);
    let hit = r == 9;
    let fresh = block * 9 + if hit { 0 } else { r };
    (fresh % pool_len, hit)
}

struct InFlight {
    handle: JobHandle,
    span: usize,
    slot: usize,
    hit: bool,
}

/// What the closed loop measured.
#[derive(Default)]
struct LoopStats {
    latency: Vec<f64>,
    /// When each `wait` returned, in completion order.
    done_at: Vec<Instant>,
    compute: Vec<f64>,
    queue_wait: Vec<f64>,
    hits: u64,
    misses: u64,
    batched_jobs: u64,
    batches: u64,
    /// Most matrix bytes a drained service held: see `run_serve`.
    mat_peak_bytes: u64,
}

impl LoopStats {
    fn finish(
        &mut self,
        svc: &EvdService,
        spans: &mut Spans,
        expected: &[Option<SymEigResult>],
        tally: &mut Tally,
        job: InFlight,
    ) {
        let r = svc.wait(job.handle);
        let secs = spans.end(job.span);
        self.latency.push(secs);
        self.done_at.push(Instant::now());
        let ok = match (&r, expected.get(job.slot)) {
            (Ok(r), Some(Some(e))) => same_bits(e, r),
            _ => false,
        };
        tally.count(ok);
        if !job.hit {
            if let Some(c) = svc.job_latency(job.handle) {
                let c = c.as_secs_f64();
                self.compute.push(c);
                self.queue_wait.push(secs - c);
            }
        }
    }
}

/// Service-layer metrics; all zero on the library workloads, which run no
/// service.
#[derive(Copy, Clone, Default)]
struct ServeStats {
    queue_wait_s_mean: f64,
    compute_s_mean: f64,
    batch_size_mean: f64,
    cache_hit_ratio: f64,
}

fn run_serve(s: Settings, trace: bool, spans: &mut Spans) -> Result<Outcome, String> {
    let w = Workload::Serve;
    // nine fresh matrices per block of ten jobs
    let pool = serve_pool(if s.quick { QUICK_JOBS / 10 * 9 } else { POOL }, s.seed);
    // the pool's first matrices are one of each size
    let firsts: Vec<&Mat<f32>> = pool.iter().take(SERVE_SIZES.len()).map(|m| &**m).collect();
    let setup = setup_times(w, &firsts, s)?;

    // A solo, checked solve of every pool matrix: the bits each service
    // result must reproduce.
    let solo_opts = SymEigOptions {
        threads: 1,
        ..serve_options()
    };
    let solo_ctx = GemmContext::new(Engine::Tc);
    let mut tally = Tally::default();
    let mut acc = Accuracy::default();
    let mut expected = Vec::with_capacity(pool.len());
    for m in &pool {
        let r = sym_eig(m, &solo_opts, &solo_ctx).ok();
        let a = match &r {
            Some(r) => accuracy(m, &Reference::of(m)?, r, 0, m.rows(), Engine::Tc),
            None => Accuracy {
                eig_err: f64::INFINITY,
                ..Accuracy::default()
            },
        };
        tally.count(a.within_bound());
        acc = acc.worst(a);
        expected.push(r);
    }

    let mut stats = LoopStats::default();
    let (mut i, mut computed) = (0, 0);
    let pass = spans.begin("closed_loop", w.name(), None);
    let t0 = Instant::now();
    while !s.timed_out(w, i, t0) {
        let base_bytes = mem::current_bytes();
        let svc = EvdService::new(serve_config());
        let mut inflight = VecDeque::with_capacity(IN_FLIGHT);
        let end = i + JOBS_PER_SERVICE;
        while i < end && (i % 10 != 0 || !s.timed_out(w, i, t0)) {
            let (slot, hit) = pool_slot(i, pool.len());
            if !hit && inflight.len() == IN_FLIGHT {
                if let Some(job) = inflight.pop_front() {
                    stats.finish(&svc, spans, &expected, &mut tally, job);
                }
            }
            // lanes 1..=IN_FLIGHT hold the computed jobs, one past them the hits
            let lane = if hit {
                1 + IN_FLIGHT
            } else {
                computed += 1;
                computed % IN_FLIGHT + 1
            };
            let span = spans.begin_on("job", w.name(), Some(pass), lane);
            match svc.submit(job(i, &pool[slot])) {
                Ok(handle) => {
                    let job = InFlight {
                        handle,
                        span,
                        slot,
                        hit,
                    };
                    if hit {
                        stats.finish(&svc, spans, &expected, &mut tally, job);
                    } else {
                        inflight.push_back(job);
                    }
                }
                Err(_) => {
                    spans.end(span);
                    tally.count(false);
                }
            }
            i += 1;
        }
        while let Some(job) = inflight.pop_front() {
            stats.finish(&svc, spans, &expected, &mut tally, job);
        }
        // Every job has returned and the worker is idle, so what the
        // service still holds is the jobs it keeps and its cache. A sample
        // taken while the worker runs would add its workspace at a moment
        // set by the scheduler.
        let held = mem::current_bytes().saturating_sub(base_bytes);
        stats.mat_peak_bytes = stats.mat_peak_bytes.max(held);
        let m = svc.metrics();
        stats.hits += m.counter("serve.cache_hit");
        stats.misses += m.counter("serve.cache_miss");
        if let Some(h) = m.histograms().get("serve.batch_size") {
            stats.batched_jobs += h.sum;
            stats.batches += h.count;
        }
    }
    spans.end(pass);
    let solve_s = Summary::of(&stats.latency).ok_or("no serve jobs")?;
    let done_at: Vec<f64> = stats
        .done_at
        .iter()
        .map(|t| t.duration_since(t0).as_secs_f64())
        .collect();

    // Means, not medians: the four sizes split computed jobs into four equal
    // modes, and a median falls in the gap between two of them.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let serve = ServeStats {
        queue_wait_s_mean: mean(&stats.queue_wait),
        compute_s_mean: mean(&stats.compute),
        batch_size_mean: stats.batched_jobs as f64 / stats.batches.max(1) as f64,
        cache_hit_ratio: stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    };
    let per_layer = if trace {
        // One job of each size, run solo on the service's engine: the
        // per-layer split of the work a worker does per round of the mix.
        let pass = spans.begin("traced_pass", w.name(), None);
        let mut merged: Option<LayerRun> = None;
        let mut untraced_s = 0.0;
        for size in SERVE_SIZES {
            let Some(j) = pool.iter().position(|m| m.rows() == size) else {
                continue;
            };
            let Some(Some(e)) = expected.get(j) else {
                continue;
            };
            let mut times = Vec::new();
            for _ in 0..s.traced_reps() {
                let call = spans.begin("solo", w.name(), Some(pass));
                let r = sym_eig(&pool[j], &solo_opts, &solo_ctx);
                times.push(spans.end(call));
                tally.count(matches!(&r, Ok(r) if same_bits(e, r)));
            }
            untraced_s += Summary::whole(&times).map_or(0.0, |s| s.median);
            let run = layers::run(
                Path::Vectors,
                &pool[j],
                Engine::Tc,
                s.traced_reps(),
                e,
                spans,
                w.name(),
                Some(pass),
            )?;
            merged = Some(match merged {
                Some(m) => m.merge(run),
                None => run,
            });
        }
        spans.end(pass);
        let run = merged.ok_or("no pool matrix of a serve size solved")?;
        Some(per_layer(run, untraced_s, acc, serve))
    } else {
        None
    };
    Ok(Outcome {
        workload: w,
        n: SERVE_SIZES[SERVE_SIZES.len() - 1],
        throughput: rate(&done_at),
        solve: solve_s,
        setup,
        mat_peak_bytes: stats.mat_peak_bytes as f64,
        tally,
        accuracy: acc,
        per_layer,
    })
}

/// The per-layer metrics of a traced run. `untraced_s` is the untraced
/// time of the same work: the end-to-end median for a library workload,
/// the sum of solo medians for serve.
fn per_layer(
    run: LayerRun,
    untraced_s: f64,
    acc: Accuracy,
    serve: ServeStats,
) -> BTreeMap<String, f64> {
    for label in &run.unlisted {
        eprintln!("evdbench: GEMM label {label} has no per-label metric");
    }
    let traced_total_s = run.traced_total_s;
    let matches = run.matches;
    let mut m = run.finish();
    let layer_s: f64 = LAYERS
        .iter()
        .filter_map(|l| m.get(&format!("{}.s", l.name)))
        .sum();
    let mut put = |k: &str, v: f64| m.insert(k.to_string(), v);
    put("layers.unattributed_s", untraced_s - layer_s);
    put("layers.trace_overhead_ratio", traced_total_s / untraced_s);
    put("layers.match_pipeline", if matches { 1.0 } else { 0.0 });
    put("check.eig_err_nu", acc.eig_err);
    put("check.resid_nu", acc.resid);
    put("check.orth_nu", acc.orth);
    put("serve.queue_wait_s_mean", serve.queue_wait_s_mean);
    put("serve.compute_s_mean", serve.compute_s_mean);
    put("serve.batch_size_mean", serve.batch_size_mean);
    put("serve.cache_hit_ratio", serve.cache_hit_ratio);
    m
}

// --------------------------------------------------------------- set-up

/// `setup_s` samples: the first call in each of `setup_children` fresh
/// processes of this binary, run one at a time, each handed the inputs on
/// stdin.
fn setup_times(w: Workload, inputs: &[&Mat<f32>], s: Settings) -> Result<Summary, String> {
    let times = match s.setup_children(w) {
        0 => vec![first_call_s(w, inputs)?],
        k => {
            let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
            (0..k)
                .map(|_| setup_child(&exe, w, inputs))
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    Summary::whole(&times).ok_or_else(|| "no set-up samples".to_string())
}

fn setup_child(exe: &FsPath, w: Workload, inputs: &[&Mat<f32>]) -> Result<f64, String> {
    let mut child = Command::new(exe)
        .args(["--setup-child", w.name()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting set-up process: {e}"))?;
    let written = match child.stdin.take() {
        Some(mut stdin) => stdin.write_all(&encode(inputs)).map_err(|e| e.to_string()),
        None => Err("no stdin".to_string()),
    };
    // wait even when the write failed, so no child outlives the run
    let out = child
        .wait_with_output()
        .map_err(|e| format!("waiting for set-up process: {e}"))?;
    written.map_err(|e| format!("feeding set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("set-up process printed {text:?}"))
}

/// `--setup-child`: read the inputs from stdin and time the first call.
pub fn setup_child_main(w: Workload) -> Result<f64, String> {
    let mut bytes = Vec::new();
    std::io::stdin()
        .read_to_end(&mut bytes)
        .map_err(|e| format!("reading input: {e}"))?;
    let inputs = decode(&bytes)?;
    first_call_s(w, &inputs.iter().collect::<Vec<_>>())
}

/// Wall time of the first call on `inputs[0]`. For serve, from
/// `EvdService::new` until a job for each input has returned: a fresh
/// service's first job of each size, submitted together. One n = 32 job
/// alone takes a few tenths of a millisecond, and its median moved by up to
/// 40% between runs whose samples each stayed within 10% of their own.
fn first_call_s(w: Workload, inputs: &[&Mat<f32>]) -> Result<f64, String> {
    let Some(&a) = inputs.first() else {
        return Err("no set-up input".to_string());
    };
    let matrices: Vec<Arc<Mat<f32>>> = inputs.iter().map(|&m| Arc::new(m.clone())).collect();
    let t0 = Instant::now();
    let r = match w {
        Workload::Serve => {
            let svc = EvdService::new(serve_config());
            let r = matrices
                .iter()
                .enumerate()
                .map(|(i, m)| svc.submit(job(i, m)))
                .collect::<Result<Vec<_>, _>>()
                .and_then(|handles| handles.into_iter().try_for_each(|h| svc.wait(h).map(drop)));
            let secs = t0.elapsed().as_secs_f64();
            drop(svc);
            return r.map(|_| secs).map_err(|e| format!("first jobs: {e}"));
        }
        _ => solve(w, a, &options(w), &GemmContext::new(w.engine())),
    };
    let secs = t0.elapsed().as_secs_f64();
    r.map(|_| secs).map_err(|e| format!("first call: {e}"))
}

/// Each matrix as its order `n` in 8 little-endian bytes, then its
/// column-major entries.
fn encode(inputs: &[&Mat<f32>]) -> Vec<u8> {
    let mut out = Vec::new();
    for a in inputs {
        out.extend((a.rows() as u64).to_le_bytes());
        out.extend(a.as_slice().iter().flat_map(|v| v.to_le_bytes()));
    }
    out
}

fn decode(mut bytes: &[u8]) -> Result<Vec<Mat<f32>>, String> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (head, rest) = bytes
            .split_at_checked(8)
            .ok_or("input shorter than its header")?;
        let mut n_bytes = [0u8; 8];
        n_bytes.copy_from_slice(head);
        let n = usize::try_from(u64::from_le_bytes(n_bytes)).map_err(|e| e.to_string())?;
        let (body, rest) = n
            .checked_mul(n)
            .and_then(|nn| nn.checked_mul(4))
            .and_then(|len| rest.split_at_checked(len))
            .ok_or_else(|| format!("{} input bytes do not hold a {n}×{n} matrix", rest.len()))?;
        let data = body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        out.push(Mat::from_col_major(n, n, data));
        bytes = rest;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_inputs() {
        for w in [Workload::Values, Workload::Topk] {
            let a = library_input(w, 64, 1);
            assert_eq!(a.max_abs_diff(&library_input(w, 64, 1)), 0.0);
            assert!(a.max_abs_diff(&library_input(w, 64, 2)) > 0.0);
        }
        let (p1, p2) = (serve_pool(8, 1), serve_pool(8, 2));
        assert!(p1.iter().zip(&p2).all(|(x, y)| x.max_abs_diff(y) > 0.0));
        let sizes: Vec<usize> = p1.iter().map(|m| m.rows()).collect();
        assert_eq!(sizes, [32, 48, 64, 96, 32, 48, 64, 96]);
    }

    #[test]
    fn every_tenth_job_resubmits_a_recent_matrix() {
        let pool_len = 180;
        let mut fresh_seen = Vec::new();
        for i in 0..2000 {
            let (slot, hit) = pool_slot(i, pool_len);
            assert_eq!(hit, i % 10 == 9);
            if hit {
                assert_eq!(Some(slot), Some(pool_slot(i - 9, pool_len).0));
            } else {
                // a fresh slot was last used more than a cache's worth ago
                if let Some(last) = fresh_seen.iter().rposition(|&s| s == slot) {
                    assert!(fresh_seen.len() - last > 32, "job {i}");
                }
                fresh_seen.push(slot);
            }
        }
    }

    #[test]
    fn matrices_survive_the_set_up_pipe() {
        let sent = [
            library_input(Workload::Values, 5, 9),
            library_input(Workload::Values, 3, 9),
        ];
        let got = decode(&encode(&[&sent[0], &sent[1]])).unwrap();
        assert_eq!(got.len(), 2);
        for (a, b) in sent.into_iter().zip(got) {
            assert!(same_bits(
                &SymEigResult {
                    values: vec![],
                    vectors: Some(a)
                },
                &SymEigResult {
                    values: vec![],
                    vectors: Some(b)
                }
            ));
        }
        assert!(decode(&[1, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(decode(&[0; 4]).is_err());
    }
}
