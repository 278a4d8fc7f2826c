//! Reproducibility guarantees: identical seeds must give bit-identical
//! pipelines, and rayon's nondeterministic scheduling must never leak into
//! results (every parallel reduction in the workspace is over disjoint
//! data, so run-to-run outputs are exact).
//!
//! The counter contract now includes the performance-attribution layer:
//! per-label flop/byte tallies, per-stage `stage.*` deltas, and the
//! `mem.peak_bytes` allocation watermarks must all be bit-identical at any
//! worker-pool size. Only `par.*` (pool telemetry) and `time.*` (wall
//! clock) legitimately vary.

use std::collections::BTreeMap;
use std::sync::Mutex;

use tcevd::band::PanelKind;
use tcevd::evd::{sym_eig, SbrVariant, SymEigOptions, TridiagSolver};
use tcevd::matrix::Mat;
use tcevd::tensorcore::{Engine, GemmContext};
use tcevd::testmat::{generate, MatrixType};
use tcevd::trace::TraceSink;

/// The matrix allocation watermark (`tcevd::matrix::mem`) is process-global,
/// so pipeline runs in this binary must not overlap: a sibling test's
/// allocations would inflate another run's `stage.*.peak_bytes`. Every test
/// that runs the pipeline holds this lock for each full run.
static RUN_SERIAL: Mutex<()> = Mutex::new(());

/// Run the pipeline and return the spectrum plus the eigenvector entries
/// as a plain (untracked) `Vec`, so no tracked `Mat` buffer outlives the
/// serialization lock and skews another run's watermark baseline.
fn run(seed: u64, engine: Engine) -> (Vec<f32>, Vec<f32>) {
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a: Mat<f32> = generate(96, MatrixType::Normal, seed).cast();
    let ctx = GemmContext::new(engine);
    let r = sym_eig(
        &a,
        &SymEigOptions {
            trace: false,
            recovery: Default::default(),
            threads: 0,
            bandwidth: 8,
            sbr: SbrVariant::Wy { block: 32 },
            panel: PanelKind::Tsqr,
            solver: TridiagSolver::DivideConquer,
            vectors: true,
        },
        &ctx,
    )
    .unwrap();
    let x = r.vectors.unwrap().as_slice().to_vec();
    (r.values, x)
}

/// A fully traced run at an explicit worker-pool size. Returns the spectrum,
/// the eigenvectors, and the sink's counter totals with the `par.*` pool
/// telemetry and `time.*` wall-clock counters stripped (pool counters
/// legitimately depend on the thread count and wall time on the machine;
/// everything else must not).
fn run_with_threads(
    seed: u64,
    n: usize,
    threads: usize,
    bandwidth: usize,
    sbr: SbrVariant,
    panel: PanelKind,
    solver: TridiagSolver,
) -> (Vec<f32>, Vec<f32>, BTreeMap<String, u64>) {
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a: Mat<f32> = generate(n, MatrixType::Normal, seed).cast();
    let sink = TraceSink::enabled();
    let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
    let r = sym_eig(
        &a,
        &SymEigOptions {
            trace: true,
            recovery: Default::default(),
            threads,
            bandwidth,
            sbr,
            panel,
            solver,
            vectors: true,
        },
        &ctx,
    )
    .unwrap();
    let counters = sink
        .counters()
        .into_iter()
        .filter(|(k, _)| !k.starts_with("par.") && !k.starts_with("time."))
        .collect();
    // untracked copy — see `run`
    let x = r.vectors.unwrap().as_slice().to_vec();
    (r.values, x, counters)
}

/// Run one configuration at 1 worker and at 4 workers and demand bitwise
/// agreement on everything observable: eigenvalues, eigenvectors, and the
/// trace counter totals — including the attribution layer's flop/byte/
/// peak-memory counters.
fn assert_thread_invariant(
    seed: u64,
    n: usize,
    bandwidth: usize,
    sbr: SbrVariant,
    panel: PanelKind,
    solver: TridiagSolver,
) {
    let (v1, x1, c1) = run_with_threads(seed, n, 1, bandwidth, sbr, panel, solver);
    let (v4, x4, c4) = run_with_threads(seed, n, 4, bandwidth, sbr, panel, solver);
    let tag = format!("{sbr:?}/{panel:?}/{solver:?} n={n} b={bandwidth}");
    assert_eq!(v1, v4, "{tag}: eigenvalues must not depend on thread count");
    assert_eq!(
        x1, x4,
        "{tag}: eigenvectors must not depend on thread count"
    );
    assert_eq!(
        c1, c4,
        "{tag}: trace counter totals must not depend on thread count"
    );
    // The attribution counters are present and meaningful, not just equal:
    // both SBR paths move flops and bytes through every stage and record a
    // positive allocation watermark.
    for key in [
        "gemm_flops",
        "gemm_bytes",
        "gemm_calls",
        "kernel_flops.panel",
        "kernel_flops.bulge",
        "mem.peak_bytes",
        "stage.sbr.flops",
        "stage.sbr.bytes",
        "stage.sbr.peak_bytes",
        "stage.bulge_chase.peak_bytes",
        "stage.tridiag_solve.peak_bytes",
        "stage.back_transform.flops",
        "stage.back_transform.peak_bytes",
    ] {
        assert!(
            c1.get(key).copied().unwrap_or(0) > 0,
            "{tag}: attribution counter {key} missing or zero"
        );
    }
}

#[test]
fn thread_count_is_invisible_wy_tsqr_dc() {
    assert_thread_invariant(
        7,
        96,
        8,
        SbrVariant::Wy { block: 32 },
        PanelKind::Tsqr,
        TridiagSolver::DivideConquer,
    );
}

#[test]
fn thread_count_is_invisible_zy_householder_ql() {
    assert_thread_invariant(
        9,
        96,
        8,
        SbrVariant::Dbr { block: 8 }, // nb = b: the ZY baseline
        PanelKind::Householder,
        TridiagSolver::Ql,
    );
}

#[test]
fn thread_count_is_invisible_dbr_tsqr_dc() {
    assert_thread_invariant(
        11,
        96,
        8,
        SbrVariant::Dbr { block: 32 },
        PanelKind::Tsqr,
        TridiagSolver::DivideConquer,
    );
}

#[test]
fn thread_count_is_invisible_dbr_detached_block() {
    // nb = 64 ≫ b = 8: the genuinely detached configuration, where one
    // rank-64 syr2k per block goes through the recursive split.
    assert_thread_invariant(
        17,
        300,
        8,
        SbrVariant::Dbr { block: 64 },
        PanelKind::Tsqr,
        TridiagSolver::DivideConquer,
    );
}

#[test]
fn thread_count_is_invisible_on_the_batched_q_path() {
    // n = 300, b = 8: the bulge chase applies its reflectors to Q₂ as
    // compact-WY groups of 8 sweeps (`band::qupdate`). Their GEMMs stay
    // under `blas3::gemm`'s parallel threshold here, so this runs the
    // serial group path next to the pipeline's parallel GEMMs; the forking
    // group GEMMs are covered at n = 1024, b = 32 below.
    assert_thread_invariant(
        13,
        300,
        8,
        SbrVariant::Wy { block: 32 },
        PanelKind::Tsqr,
        TridiagSolver::DivideConquer,
    );
}

#[test]
fn thread_count_is_invisible_at_n1024_b32() {
    // the only configuration here with b > 8, at nb = 4b
    assert_thread_invariant(
        42,
        1024,
        32,
        SbrVariant::Wy { block: 128 },
        PanelKind::Tsqr,
        TridiagSolver::DivideConquer,
    );
}

/// A job cancelled at a stage seam and then retried through the service
/// must be bit-identical to a fresh, never-cancelled run of the same
/// problem — cancellation happens only *between* stages, so no partial
/// state can leak into the retry. Checked at 1 and 4 worker threads.
#[test]
fn cancelled_then_retried_job_matches_a_fresh_run() {
    use std::time::Duration;
    use tcevd::serve::{EvdService, JobSpec, JobState, ServeConfig};
    use tcevd::testmat::FaultPlan;

    // n = 96 with small_cutoff 64: the job shards onto the worker pool,
    // so the retry also exercises the threaded path.
    let opts = SymEigOptions {
        bandwidth: 8,
        sbr: SbrVariant::Wy { block: 32 },
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors: true,
        ..SymEigOptions::default()
    };
    let fresh = {
        let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let a: Mat<f32> = generate(96, MatrixType::Normal, 21).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sym_eig(&a, &opts, &ctx).unwrap();
        (r.values.clone(), r.vectors.unwrap().as_slice().to_vec())
    };
    for threads in [1usize, 4] {
        let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let service = EvdService::new(ServeConfig {
            engine: Engine::Sgemm,
            workers: 0,
            queue_capacity: 8,
            small_cutoff: 64,
            threads_large: threads,
            backoff_base: Duration::from_micros(10),
            ..ServeConfig::default()
        });
        let a: Mat<f32> = generate(96, MatrixType::Normal, 21).cast();
        let plan = FaultPlan::parse_json(r#"[{"kind": "cancel"}]"#).unwrap();
        let h = service
            .submit(
                JobSpec::new("cancel-retry", a)
                    .with_opts(opts)
                    .with_faults(plan)
                    .with_retries(1),
            )
            .unwrap();
        service.run_pending();
        assert_eq!(service.poll(h), Some(JobState::Done), "threads={threads}");
        let r = service.wait(h).unwrap();
        assert_eq!(
            service.metrics().counter("serve.retry"),
            1,
            "the first attempt really was cancelled (threads={threads})"
        );
        assert_eq!(
            r.values, fresh.0,
            "threads={threads}: retried eigenvalues differ from fresh run"
        );
        assert_eq!(
            r.vectors.unwrap().as_slice().to_vec(),
            fresh.1,
            "threads={threads}: retried eigenvectors differ from fresh run"
        );
    }
}

/// ANTI-PATTERN, kept test-only as a regression oracle: the reduction
/// tree's shape follows the pool size, so the f32 rounding path — and
/// therefore the result's bits — differs across thread counts. This is
/// exactly the class of reduction lint rule R10 and the PR-4 determinism
/// contract forbid in pipeline code.
fn pool_sized_sum(xs: &[f32]) -> f32 {
    let workers = rayon::current_num_threads();
    let chunk = xs.len().div_ceil(workers);
    xs.chunks(chunk).map(|c| c.iter().sum::<f32>()).sum()
}

/// The compliant pattern: partition by a *fixed* chunk size, reduce each
/// chunk into its own disjoint slot (the fan-out may use any number of
/// workers), and combine the partials in index order. The arithmetic per
/// chunk and the combine order never depend on the pool size.
fn fixed_partition_sum(xs: &[f32]) -> f32 {
    const CHUNK: usize = 64;
    let mut partials = vec![0.0f32; xs.len().div_ceil(CHUNK)];
    let items: Vec<(&[f32], &mut f32)> = xs.chunks(CHUNK).zip(partials.iter_mut()).collect();
    rayon::for_each_chunk(items, &|(chunk, slot)| {
        *slot = chunk.iter().sum::<f32>();
    });
    partials.iter().sum()
}

/// The determinism contract is not vacuous: an unordered (pool-shaped)
/// f32 reduction really does change bits between 1 and 4 workers on
/// magnitude-mixed data, while the workspace's fixed-partition discipline
/// stays bit-identical on the same input. If the anti-pattern half of this
/// test ever starts passing with `assert_eq`, the oracle has gone stale
/// and the whole suite's bit-identity checks lose their teeth.
#[test]
fn unordered_reduction_diverges_across_thread_counts() {
    // configure() is process-global; hold the run lock so pipeline tests
    // in this binary never observe a non-default pool size.
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let xs: Vec<f32> = (0..4096)
        .map(|i: u64| {
            let mantissa = (i.wrapping_mul(2654435761) % 1000) as f32 - 500.0;
            let magnitude = (i % 13) as i32 - 6;
            mantissa * 10f32.powi(magnitude)
        })
        .collect();
    rayon::configure(1);
    let bad1 = pool_sized_sum(&xs);
    let good1 = fixed_partition_sum(&xs);
    rayon::configure(4);
    let bad4 = pool_sized_sum(&xs);
    let good4 = fixed_partition_sum(&xs);
    rayon::configure(0);
    assert_ne!(
        bad1.to_bits(),
        bad4.to_bits(),
        "pool-shaped reduction should round differently at 1 vs 4 workers"
    );
    assert_eq!(
        good1.to_bits(),
        good4.to_bits(),
        "fixed-partition reduction must be bit-identical at any pool size"
    );
}

/// `C ← alpha·op(A)·op(B) + beta·C` written out per element, the chain
/// every GEMM tile promises: C scaled by `beta` (here never 0 or 1), then
/// for each `KC`-deep panel `c += alpha·acc`, where `acc` is a `mul_add`
/// chain over the panel's `k` in ascending order.
#[allow(clippy::too_many_arguments)]
fn written_out_gemm<T: tcevd::matrix::Scalar>(
    alpha: T,
    a: &Mat<T>,
    op_a: tcevd::matrix::Op,
    b: &Mat<T>,
    op_b: tcevd::matrix::Op,
    beta: T,
    c0: &Mat<T>,
) -> Vec<u64> {
    use tcevd::matrix::Op;
    let at = |i: usize, l: usize| match op_a {
        Op::NoTrans => a[(i, l)],
        Op::Trans => a[(l, i)],
    };
    let bt = |l: usize, j: usize| match op_b {
        Op::NoTrans => b[(l, j)],
        Op::Trans => b[(j, l)],
    };
    let k = match op_a {
        Op::NoTrans => a.cols(),
        Op::Trans => a.rows(),
    };
    let mut out = Vec::new();
    for j in 0..c0.cols() {
        for i in 0..c0.rows() {
            let mut c = c0[(i, j)] * beta;
            for p0 in (0..k).step_by(T::GEMM_KC) {
                let mut acc = T::ZERO;
                for l in p0..(p0 + T::GEMM_KC).min(k) {
                    acc = at(i, l).mul_add(bt(l, j), acc);
                }
                c += alpha * acc;
            }
            out.push(c.to_f64().to_bits());
        }
    }
    out
}

/// GEMM tile selection is a pure function of the problem shape and the
/// scalar type: repeated queries agree, and the worker-pool size is
/// invisible to it. Selection happens once on the calling thread before
/// any parallel fan-out, so nothing about timing, thread identity, or call
/// history may leak into the chosen tile.
#[test]
fn kernel_tier_selection_is_pure_in_shape() {
    use tcevd::matrix::tile::select_gemm;
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let shapes = [
        (8usize, 8usize, 8usize), // small-shape tile
        (47, 47, 47),             // just under the small-shape cutoff
        (48, 48, 48),             // first shape at the type's tile
        (97, 5, 203),             // ragged
        (1024, 1024, 1024),       // the acceptance square
        (300, 128, 300),          // rank-k update family
        (256, 256, 64),           // tall family
    ];
    let probe = || -> Vec<String> {
        let mut sig = Vec::new();
        for &(m, n, k) in &shapes {
            let s32 = select_gemm::<f32>(m, n, k);
            let s64 = select_gemm::<f64>(m, n, k);
            sig.push(format!(
                "{m}x{n}x{k} f32:{}/{}/{} f64:{}/{}/{}",
                s32.mr, s32.nr, s32.mc, s64.mr, s64.nr, s64.mc,
            ));
        }
        sig
    };
    rayon::configure(1);
    let at_1 = probe();
    rayon::configure(4);
    let at_4 = probe();
    rayon::configure(0);
    assert_eq!(
        at_1, at_4,
        "tile selection must not depend on the worker-pool size"
    );
    assert_eq!(
        probe(),
        probe(),
        "tile selection must be call-to-call stable"
    );
}

/// The lane ("wide") microkernel, which runs every GEMM, is bit-exact
/// against the scalar oracle [`written_out_gemm`] whatever tile it runs:
/// shapes on both sides of the small-shape cutoff (largest dimension 48)
/// run both dispatched tiles, ragged shapes leave partial tiles and a
/// partial KC panel (k = 257), and every `Op` pair, both scalar types and
/// 1 and 4 workers are covered with `beta ≠ 0`.
#[test]
fn wide_tier_matches_scalar_oracle_bitwise() {
    use tcevd::matrix::blas3::gemm;
    use tcevd::matrix::{Op, Scalar};
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let mut state = 0x5DEECE66Du64;
    let mut fill = |rows: usize, cols: usize| -> Mat<f32> {
        let data = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect();
        Mat::from_col_major(rows, cols, data)
    };

    fn check<T: Scalar>(a: &Mat<T>, op_a: Op, b: &Mat<T>, op_b: Op, c0: &Mat<T>, what: &str) {
        let (alpha, beta) = (T::from_f64(1.25), T::from_f64(0.5));
        let want = written_out_gemm(alpha, a, op_a, b, op_b, beta, c0);
        for threads in [1usize, 4] {
            rayon::configure(threads);
            let mut c = c0.clone();
            gemm(alpha, a.as_ref(), op_a, b.as_ref(), op_b, beta, c.as_mut());
            let got: Vec<u64> = c.as_slice().iter().map(|x| x.to_f64().to_bits()).collect();
            assert!(
                got == want,
                "{what} {} threads={threads}: gemm diverged from the written-out chain",
                T::NAME
            );
        }
        rayon::configure(0);
    }

    let shapes = [
        (8usize, 8usize, 8usize),
        (47, 47, 47),
        (48, 48, 48),
        (65, 67, 63),
        (129, 33, 257),
        (97, 101, 5),
    ];
    for (m, n, k) in shapes {
        for op_a in [Op::NoTrans, Op::Trans] {
            for op_b in [Op::NoTrans, Op::Trans] {
                let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
                let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
                let a = fill(ar, ac);
                let b = fill(br, bc);
                let c0 = fill(m, n);
                let what = format!("{m}x{n}x{k} {op_a:?}/{op_b:?}");
                check(&a, op_a, &b, op_b, &c0, &what);
                let (ad, bd, cd): (Mat<f64>, Mat<f64>, Mat<f64>) = (a.cast(), b.cast(), c0.cast());
                check(&ad, op_a, &bd, op_b, &cd, &what);
            }
        }
    }
}

#[test]
fn identical_runs_are_bit_identical() {
    for engine in [Engine::Sgemm, Engine::Tc, Engine::EcTc] {
        let (v1, x1) = run(7, engine);
        let (v2, x2) = run(7, engine);
        assert_eq!(v1, v2, "{engine:?}: eigenvalues must be bit-identical");
        assert_eq!(x1, x2, "{engine:?}: eigenvectors must be bit-identical");
    }
}

#[test]
fn different_seeds_differ() {
    let (v1, _) = run(7, Engine::Sgemm);
    let (v2, _) = run(8, Engine::Sgemm);
    assert_ne!(v1, v2);
}

#[test]
fn generators_are_cross_invocation_stable() {
    // allocates tracked Mats — serialize with the pipeline runs
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // pin a few entries so accidental RNG-stream changes are caught
    let a = generate(8, MatrixType::Normal, 42);
    let b = generate(8, MatrixType::Normal, 42);
    assert_eq!(a.max_abs_diff(&b), 0.0);
    // Haar Q determinism
    let q1 = tcevd::testmat::haar_orthogonal(16, 3);
    let q2 = tcevd::testmat::haar_orthogonal(16, 3);
    assert_eq!(q1.max_abs_diff(&q2), 0.0);
}
