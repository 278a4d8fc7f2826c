//! The full symmetric eigenvalue decomposition pipeline (paper §6.4):
//!
//! ```text
//! dense A ──SBR (Tensor Core)──► band B ──bulge chase──► tridiagonal T
//!          ──D&C / QL──► Λ, Z ──back-transform──► eigenvectors X
//! ```
//!
//! Stage 1 (SBR) runs through the pluggable GEMM engine (SGEMM / TC /
//! EC-TC); stage 2 (bulge chasing) and the tridiagonal eigensolver run on
//! scalar CPU arithmetic, exactly mirroring the paper's split where stage 2
//! and divide-&-conquer are delegated to MAGMA on the host.
//!
//! [`sym_eig`], [`sym_eigenvalues`] and [`sym_eig_selected`] run one
//! private driver that differs only in which eigenvector columns it
//! returns: none, all `n`, or those of an [`EigRange`]. Every SBR variant
//! serves every selection, since `Q₁` — applied as FormW's `(W, Y)`
//! factors — multiplies `n×k` columns as readily as `n×n`. Each stage runs under one
//! seam that opens its [`StageScope`] and then gates the boundary:
//! sanitizer, finiteness, cancellation. Each buffer is dropped after its
//! last reader: the dense band once it is packed for the chase, `Q₂` and
//! `Z` after the `Q₂·Z` product, each WY level once FormW has copied it.
//! FormW merges the levels only after that product, so its GEMMs belong to
//! the `back_transform` stage. The stage kernels keep their own buffers
//! lean without changing a bit: SBR reads level 0's original trailing
//! matrix from the input, copies it only at later levels and drops the
//! copy once the panel loop ends, records the levels only when vectors are
//! wanted, and updates the trailing block in place; the chase's `Q₂`
//! accumulation skips the rows of `Q₂` that are still zero; and FormW
//! merges in place into one n×K `(W, Y)` pair.
//!
//! # Robustness
//!
//! Every driver returns [`EvdError`] instead of panicking, and an
//! escalating [`RecoveryPolicy`] routes around numerical breakdowns:
//!
//! | rung | failure | fallback | counter |
//! |------|---------|----------|---------|
//! | 1 | non-pivoted LU pivot collapse | partial-pivot LU | `recovery.lu_pivot_escalation` |
//! | 2 | partial-pivot LU failure | Householder panel | `recovery.panel_householder_fallback` |
//! | 3 | D&C secular breakdown | QL | `recovery.dc_to_ql` |
//! | 4 | QL non-convergence | enlarged sweep budget | `recovery.ql_budget_retry` |
//! | 5 | QL still stuck | bisection (+ inverse iteration) | `recovery.ql_to_bisect` |
//! | 6 | residual check failed | one re-solve, other solver | `recovery.residual_resolve` |
//!
//! Rungs 1–2 live in `tcevd-band`'s panel factorization; rungs 3–6 here.
//! Each escalation is recorded in the context's [`TraceSink`], so a
//! recovered run is observable after the fact.

use crate::bisect::EigRange;
use crate::dc::{tridiag_dc_with, DcRows};
use crate::error::{EvdError, EvdStage};
use crate::ql::{
    tridiag_eig_ql_budget_with, tridiag_eigenvalues_budget_with, EigError, DEFAULT_MAX_ITER,
};
use crate::tridiag::SymTridiag;
use tcevd_band::{
    bulge_chase_packed_with, form_wy_owned, sbr_blocked, BlockEnd, LevelWy, PanelKind, SymBand,
    WyOptions,
};
use tcevd_matrix::{Mat, Op};
use tcevd_prof::StageScope;
use tcevd_tensorcore::GemmContext;
use tcevd_trace::{span, TraceSink};

/// Which band-reduction algorithm stage 1 uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SbrVariant {
    /// The paper's WY-based Algorithm 1 with the given big-block size `nb`.
    /// `block` is validated like [`SbrVariant::Dbr`]'s.
    Wy { block: usize },
    /// Detached band reduction (the follow-up paper): the WY recursion with
    /// big-block size `nb` decoupled from the bandwidth and the trailing
    /// update folded into one rank-`nb` syr2k per block. `block` is
    /// validated against `n` and the bandwidth at run time — zero is a
    /// typed [`EvdError::InvalidInput`]; anything else is clamped to the
    /// multiple-of-`b` grid the reduction walks. A `block` that clamps to
    /// the bandwidth (any `block < 2b`) is the conventional ZY-based SBR,
    /// the MAGMA-style baseline: one panel per block, then one rank-2b
    /// syr2k over the whole trailing matrix.
    Dbr { block: usize },
}

/// Which tridiagonal eigensolver finishes the pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum TridiagSolver {
    /// Cuppen divide & conquer (the paper's case-study configuration).
    #[default]
    DivideConquer,
    /// Implicit QL with Wilkinson shift.
    Ql,
}

/// How aggressively the pipeline routes around numerical breakdowns.
///
/// The default enables every automatic rung (solver fallbacks and the
/// enlarged QL budget) but not the post-solve verification, which costs an
/// extra O(n²·k) residual evaluation and is opt-in via
/// [`RecoveryPolicy::verify_tol`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Escalate across solvers on failure: D&C → QL → bisection. When
    /// `false`, the first solver failure is returned as
    /// [`EvdError::TridiagNoConvergence`].
    pub solver_fallback: bool,
    /// On QL non-convergence, retry once with the sweep budget multiplied
    /// by this factor before falling further. `1` disables the retry rung.
    pub ql_budget_boost: u32,
    /// When set, verify the final eigenpairs (max of the normalized
    /// residual and orthogonality measures from [`crate::metrics`]) against
    /// this tolerance; on failure, re-solve once with the other tridiagonal
    /// solver, then report [`EvdError::Unrecoverable`]. Only applies when
    /// eigenvectors are requested.
    pub verify_tol: Option<f32>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            solver_fallback: true,
            ql_budget_boost: 4,
            verify_tol: None,
        }
    }
}

impl RecoveryPolicy {
    /// No recovery at all: the first failure anywhere is returned verbatim.
    /// (The panel LU escalation in `tcevd-band` is unconditional — it never
    /// changes the result, only how it is computed.)
    // tcevd-lint: allow(R4) — infallible constructor, not a pipeline entry point
    pub fn disabled() -> Self {
        RecoveryPolicy {
            solver_fallback: false,
            ql_budget_boost: 1,
            verify_tol: None,
        }
    }
}

/// Full pipeline configuration.
#[derive(Copy, Clone, Debug)]
pub struct SymEigOptions {
    /// SBR bandwidth `b`.
    pub bandwidth: usize,
    pub sbr: SbrVariant,
    pub panel: PanelKind,
    pub solver: TridiagSolver,
    /// Also form the eigenvector matrix `X` (back-transformation through
    /// both stages).
    pub vectors: bool,
    /// Emit pipeline-stage spans and counters into the context's
    /// [`TraceSink`] (see `GemmContext::with_sink`). A no-op — zero sink
    /// allocations — when the context sink is disabled.
    pub trace: bool,
    /// The failure-recovery ladder (see [`RecoveryPolicy`]).
    pub recovery: RecoveryPolicy,
    /// Worker-thread budget for the parallel runtime: `0` = auto (the
    /// `TCEVD_THREADS` environment variable if set, else available
    /// parallelism), `1` = fully sequential. Split points and reduction
    /// order never depend on this, so results are **bit-identical** at
    /// every setting — it only changes wall-clock time.
    pub threads: usize,
}

impl Default for SymEigOptions {
    fn default() -> Self {
        SymEigOptions {
            bandwidth: 32,
            sbr: SbrVariant::Wy { block: 256 },
            panel: PanelKind::Tsqr,
            solver: TridiagSolver::DivideConquer,
            vectors: false,
            trace: false,
            recovery: RecoveryPolicy::default(),
            threads: 0,
        }
    }
}

/// Result of [`sym_eig`].
#[derive(Debug)]
pub struct SymEigResult {
    /// Eigenvalues, ascending.
    pub values: Vec<f32>,
    /// Eigenvectors (columns matching `values`), if requested.
    pub vectors: Option<Mat<f32>>,
}

/// Two-stage symmetric eigenvalue decomposition on the configured GEMM
/// engine.
///
/// ```
/// use tcevd_core::{sym_eig, RecoveryPolicy, SymEigOptions, SbrVariant, TridiagSolver};
/// use tcevd_band::PanelKind;
/// use tcevd_tensorcore::{Engine, GemmContext};
/// use tcevd_matrix::Mat;
///
/// // a symmetric matrix with known spectrum {1, 1/10, 1/100, ...}
/// let a64 = tcevd_testmat::generate(64, tcevd_testmat::MatrixType::Geo { cond: 1e2 }, 7);
/// let a: Mat<f32> = a64.cast();
///
/// let opts = SymEigOptions {
///     bandwidth: 8,
///     sbr: SbrVariant::Wy { block: 32 },   // the paper's Algorithm 1
///     panel: PanelKind::Tsqr,
///     solver: TridiagSolver::DivideConquer,
///     vectors: true,
///     trace: false,
///     recovery: RecoveryPolicy::default(),
///     threads: 0,                          // auto-size the thread pool
/// };
/// let ctx = GemmContext::new(Engine::Tc);  // simulated Tensor Core
/// let eig = sym_eig(&a, &opts, &ctx).unwrap();
///
/// assert_eq!(eig.values.len(), 64);
/// assert!((eig.values.last().unwrap() - 1.0).abs() < 1e-3); // λ_max = 1
/// assert!(eig.vectors.is_some());
/// ```
pub fn sym_eig(
    a: &Mat<f32>,
    opts: &SymEigOptions,
    ctx: &GemmContext,
) -> Result<SymEigResult, EvdError> {
    let cols = if opts.vectors {
        Cols::All
    } else {
        Cols::Values
    };
    let result = run_pipeline(a, cols, opts, ctx)?;

    // Rung 6: opt-in post-solve verification with one cross-solver re-solve.
    // The closed form for n ≤ 2 runs no solver and is not verified.
    let Some(tol) = opts.recovery.verify_tol else {
        return Ok(result);
    };
    let Some(x) = result.vectors.as_ref().filter(|_| a.rows() > 2) else {
        return Ok(result);
    };
    let worst = verify_worst(a, &result.values, x);
    if worst <= tol {
        return Ok(result);
    }
    pipeline_sink(opts, ctx).add("recovery.residual_resolve", 1);
    let solver = match opts.solver {
        TridiagSolver::DivideConquer => TridiagSolver::Ql,
        TridiagSolver::Ql => TridiagSolver::DivideConquer,
    };
    let retry = run_pipeline(a, cols, &SymEigOptions { solver, ..*opts }, ctx)?;
    let worst2 = match retry.vectors.as_ref() {
        Some(x2) => verify_worst(a, &retry.values, x2),
        None => f32::INFINITY,
    };
    if worst2 <= tol {
        return Ok(retry);
    }
    Err(EvdError::Unrecoverable {
        stage: EvdStage::ResidualCheck,
        detail: format!(
            "residual/orthogonality {worst2:.3e} still exceeds tolerance {tol:.3e} \
             after re-solve (first attempt: {worst:.3e})"
        ),
    })
}

/// Worst of the normalized eigenpair residual and orthogonality measures —
/// the quantity [`RecoveryPolicy::verify_tol`] bounds.
fn verify_worst(a: &Mat<f32>, values: &[f32], x: &Mat<f32>) -> f32 {
    let resid = crate::metrics::eigenpair_residual(a.as_ref(), values, x.as_ref());
    let orth = crate::metrics::orthogonality(x.as_ref());
    if resid.is_nan() || orth.is_nan() {
        return f32::INFINITY;
    }
    resid.max(orth)
}

fn all_finite(data: &[f32]) -> bool {
    data.iter().all(|v| v.is_finite())
}

/// Clamp the configured SBR bandwidth into the valid range `1 ..= n − 1`.
/// Only meaningful for `n ≥ 3` — the driver short-circuits `n ≤ 2` to
/// [`trivial_sym_eig`] first, precisely because at `n = 1` the old
/// inline `min(n−1).max(1)` produced the out-of-range `b = 1 > n − 1`.
fn clamp_bandwidth(requested: usize, n: usize) -> usize {
    requested.min(n.saturating_sub(1)).max(1)
}

/// Validate and clamp the blocked SBR's big-block size (WY and DBR alike)
/// against the matrix size and (already-clamped) bandwidth. `0` is
/// rejected as a typed [`EvdError::InvalidInput`]; any other request is
/// snapped onto the multiple-of-`b` grid the blocked loop actually walks —
/// up to `b` when `nb < b`, down to the smallest multiple of `b` covering
/// the first level's trailing matrix when `nb > n − b` (beyond that, extra
/// width only pads the aggregates without changing a single arithmetic
/// step). Callers reach this with `n ≥ 3` only: `n ≤ 2` short-circuits to
/// [`trivial_sym_eig`], where no band reduction runs at all.
fn validate_block(block: usize, b: usize, n: usize) -> Result<usize, EvdError> {
    if block == 0 {
        return Err(EvdError::InvalidInput {
            detail: format!(
                "SBR block size nb must be ≥ 1 (got 0 at n = {n}, bandwidth b = {b}); \
                 nb = b updates the trailing matrix after every panel, nb > b defers it"
            ),
        });
    }
    let nb = (block / b).max(1) * b;
    let cap = n.saturating_sub(b).div_ceil(b).max(1) * b;
    Ok(nb.min(cap))
}

/// Closed-form eigendecomposition for `n ≤ 2`, bypassing the banded
/// pipeline (whose bandwidth parameter has no valid value below `n = 3`
/// other than the forced `b = 1`, and none at all for `n ≤ 1`). Exact in
/// f32 up to the 2×2 rotation arithmetic; eigenvalues ascend and the
/// eigenvector columns are exactly orthonormal by construction. The kept
/// columns mirror the bisection semantics exactly: `Index` keeps positions
/// `[lo, hi)` of the ascending order (out-of-range indices clamp away),
/// `Value` keeps eigenvalues in the half-open interval `(lo, hi]`.
fn trivial_sym_eig(a: &Mat<f32>, cols: Cols) -> SymEigResult {
    let n = a.rows();
    let ar = a.as_ref();
    let (values, x) = match n {
        0 => (Vec::new(), Mat::zeros(0, 0)),
        1 => (vec![ar.get(0, 0)], Mat::identity(1, 1)),
        _ => {
            let (p, q, r) = (ar.get(0, 0), ar.get(1, 0), ar.get(1, 1));
            let mean = 0.5 * (p + r);
            let radius = (0.5 * (p - r)).hypot(q);
            let (lo, hi) = (mean - radius, mean + radius);
            let mut x = Mat::<f32>::zeros(2, 2);
            let mut xm = x.as_mut();
            if q == 0.0 {
                // Already diagonal: unit vectors, ordered ascending.
                if p <= r {
                    xm.set(0, 0, 1.0);
                    xm.set(1, 1, 1.0);
                } else {
                    xm.set(1, 0, 1.0);
                    xm.set(0, 1, 1.0);
                }
            } else {
                // (q, hi − p) spans the `hi` eigenspace; its norm is
                // ≥ |q| > 0, and the `lo` vector is its exact
                // orthogonal complement.
                let norm = q.hypot(hi - p);
                let (c, s) = (q / norm, (hi - p) / norm);
                xm.set(0, 0, -s);
                xm.set(1, 0, c);
                xm.set(0, 1, c);
                xm.set(1, 1, s);
            }
            (vec![lo, hi], x)
        }
    };
    let (keep, values): (Vec<usize>, Vec<f32>) = values
        .into_iter()
        .enumerate()
        .filter(|&(i, v)| match cols {
            Cols::Range(EigRange::Index { lo, hi }) => lo <= i && i < hi,
            Cols::Range(EigRange::Value { lo, hi }) => v > lo && v <= hi,
            Cols::Values | Cols::All => true,
        })
        .unzip();
    let xr = x.as_ref();
    let vectors = (!matches!(cols, Cols::Values)).then(|| {
        Mat::from_fn(n, keep.len(), |i, j| {
            keep.get(j).map_or(0.0, |&c| xr.get(i, c))
        })
    });
    SymEigResult { values, vectors }
}

/// RAII guard exporting the thread pool's scheduling activity over a
/// pipeline run as `par.*` sink counters (join fate, spawns, pool size).
/// These describe *scheduling*, not results: they legitimately vary with
/// the thread budget while every numerical counter stays bit-identical,
/// so determinism checks compare counter sets minus the `par.` prefix.
struct ParCounters {
    sink: TraceSink,
    start: rayon::PoolStats,
}

impl ParCounters {
    fn new(sink: &TraceSink) -> Self {
        ParCounters {
            sink: sink.clone(),
            start: rayon::stats(),
        }
    }
}

impl Drop for ParCounters {
    fn drop(&mut self) {
        let d = rayon::stats().since(&self.start);
        self.sink.add("par.join_parallel", d.join_parallel);
        self.sink.add("par.join_inline", d.join_inline);
        self.sink.add("par.spawns", d.spawns);
        self.sink
            .record("par.threads", rayon::current_num_threads() as u64);
    }
}

/// Surface the runtime sanitizer's first recorded GEMM violation (feature
/// `sanitize`) as a typed, label-attributed error at a stage boundary.
/// Checked *before* the stage's finiteness gate so the report that
/// names the offending GEMM wins over the generic stage-tagged one; drains
/// the context's report slot so a recovery re-run starts clean.
#[cfg(feature = "sanitize")]
fn check_sanitizer(ctx: &GemmContext, stage: EvdStage) -> Result<(), EvdError> {
    match ctx.take_sanitize_report() {
        Some(r) => Err(EvdError::Sanitizer {
            label: r.label,
            stage,
            detail: r.to_string(),
        }),
        None => Ok(()),
    }
}

#[cfg(not(feature = "sanitize"))]
fn check_sanitizer(_ctx: &GemmContext, _stage: EvdStage) -> Result<(), EvdError> {
    Ok(())
}

/// Cooperative cancellation seam, checked between stages alongside the
/// sanitizer and finiteness gates: honors an armed deterministic cancel
/// fault ([`crate::fault::fail_cancel`], the chaos-suite hook) or the
/// context's `CancelToken` (explicit cancel / expired compute budget).
/// `stage` names the stage whose boundary the run stopped at. Cancellation
/// never interrupts a stage in flight, so a retried run recomputes the
/// same stages from scratch and stays bit-identical to an uncancelled one.
fn check_cancelled(ctx: &GemmContext, stage: EvdStage) -> Result<(), EvdError> {
    if crate::fault::take_cancel_failure() || ctx.cancel_requested() {
        return Err(EvdError::DeadlineExceeded { stage });
    }
    Ok(())
}

/// Which eigenvector columns one pipeline run returns.
#[derive(Copy, Clone)]
enum Cols {
    /// Eigenvalues only: the chase skips `Q₂`, D&C keeps two rows per
    /// subproblem ([`DcRows::Ends`]) and nothing is back-transformed.
    Values,
    /// Every eigenpair, from the [`TridiagSolver`] ladder.
    All,
    /// The eigenpairs in a range, by bisection and inverse iteration.
    Range(EigRange<f32>),
}

/// One pass of the two-stage pipeline, returning the columns `cols`
/// selects.
fn run_pipeline(
    a: &Mat<f32>,
    cols: Cols,
    opts: &SymEigOptions,
    ctx: &GemmContext,
) -> Result<SymEigResult, EvdError> {
    let n = a.rows();
    let (entry, what) = match cols {
        Cols::Range(_) => (
            "sym_eig_selected",
            "sym_eig_selected input (must be square)",
        ),
        _ => ("sym_eig", "sym_eig input (must be square)"),
    };
    if !a.is_square() {
        return Err(EvdError::Shape {
            what,
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    // `sturm_count(NaN)` is 0, so a NaN bound would silently select
    // everything up to the other bound.
    if let Cols::Range(EigRange::Value { lo, hi }) = cols {
        if lo.is_nan() || hi.is_nan() {
            return Err(EvdError::InvalidInput {
                detail: format!("eigenvalue range bound is NaN (lo = {lo}, hi = {hi})"),
            });
        }
    }
    // Fail fast on NaN/Inf: every downstream iteration would otherwise spin
    // to its budget and report a misleading non-convergence.
    if !all_finite(a.as_slice()) {
        return Err(EvdError::NonFinite {
            stage: EvdStage::Input,
        });
    }
    if n <= 2 {
        return Ok(trivial_sym_eig(a, cols));
    }
    rayon::configure(opts.threads);
    let b = clamp_bandwidth(opts.bandwidth, n);
    let sink = pipeline_sink(opts, ctx);
    let _par = ParCounters::new(&sink);
    let _root_span = span!(sink, entry, n, b);
    check_cancelled(ctx, EvdStage::Input)?;

    // Resolve the SBR configuration up front: the block size is
    // validated/clamped here once so the byte estimate, stage 1, and a
    // verification re-run all see the same effective `nb`.
    let sbr = match opts.sbr {
        SbrVariant::Wy { block } => SbrVariant::Wy {
            block: validate_block(block, b, n)?,
        },
        SbrVariant::Dbr { block } => SbrVariant::Dbr {
            block: validate_block(block, b, n)?,
        },
    };
    if sink.is_enabled() {
        // Device-byte estimate from the MemoryModel (paper §7 footprints).
        let est = match sbr {
            SbrVariant::Wy { block } => tcevd_perfmodel::wy_memory(n, b, block).total(),
            SbrVariant::Dbr { block } => tcevd_perfmodel::dbr_memory(n, b, block).total(),
        };
        sink.add("sbr_bytes_est", est);
    }
    let vectors = !matches!(cols, Cols::Values);

    let (band, q1) = stage(
        ctx,
        &sink,
        EvdStage::Sbr,
        false,
        || reduce(a, b, sbr, opts.panel, vectors, ctx),
        |(band, _)| all_finite(band.as_slice()),
    )?;

    // Stage 2 runs on packed band storage (O(n·b) working set): the n×n
    // band is packed and dropped before the chase, which gives the same
    // bits as the chase on the dense band. Only the vector paths
    // accumulate the dense Q₂.
    let (t, q2) = stage(
        ctx,
        &sink,
        EvdStage::BulgeChase,
        false,
        || {
            let packed = SymBand::from_dense(&band, b);
            drop(band);
            let chase = bulge_chase_packed_with(&packed, vectors, &sink);
            Ok((SymTridiag::new(chase.diag, chase.offdiag), chase.q))
        },
        |(t, _)| all_finite(&t.d) && all_finite(&t.e),
    )?;

    let (values, z) = stage(
        ctx,
        &sink,
        EvdStage::TridiagSolve,
        !vectors,
        || match cols {
            Cols::Range(range) => crate::inverse_iter::tridiag_eig_selected(&t, range)
                .map(|(values, z)| (values, Some(z)))
                .map_err(EvdError::from),
            _ => solve_tridiag(&t, opts.solver, vectors, &opts.recovery, &sink),
        },
        |_| true,
    )?;
    if !vectors {
        return Ok(SymEigResult {
            values,
            vectors: None,
        });
    }
    let Some(z) = z else {
        return Err(EvdError::Unrecoverable {
            stage: EvdStage::TridiagSolve,
            detail: "tridiagonal solver returned no eigenvectors despite request".to_string(),
        });
    };
    if values.is_empty() {
        return Ok(SymEigResult {
            values,
            vectors: Some(Mat::zeros(n, 0)),
        });
    }

    // Back-transformation: X = Q₁·(Q₂·Z), for Z with n or k columns.
    let x = stage(
        ctx,
        &sink,
        EvdStage::BackTransform,
        true,
        || {
            let _span = span!(sink, "back_transform", n);
            let Some(q2) = q2 else {
                return Err(EvdError::Unrecoverable {
                    stage: EvdStage::BackTransform,
                    detail: "bulge chase did not accumulate Q despite vector request".to_string(),
                });
            };
            let (q2r, zr) = (q2.as_ref(), z.as_ref());
            let mut x = Mat::<f32>::zeros(n, z.cols());
            if let Cols::Range(_) = cols {
                let out = x.as_mut();
                ctx.gemm(
                    "evd_sel_q2z",
                    1.0,
                    q2r,
                    Op::NoTrans,
                    zr,
                    Op::NoTrans,
                    0.0,
                    out,
                );
            } else {
                ctx.gemm(
                    "evd_q2z",
                    1.0,
                    q2r,
                    Op::NoTrans,
                    zr,
                    Op::NoTrans,
                    0.0,
                    x.as_mut(),
                );
            }
            drop((q2, z));
            Ok(apply_q1(q1, x, ctx))
        },
        |x| all_finite(x.as_slice()),
    )?;
    Ok(SymEigResult {
        values,
        vectors: Some(x),
    })
}

/// Run pipeline stage `tag` under its [`StageScope`], then gate its
/// boundary in a fixed order: the sanitizer's first GEMM report, the
/// finiteness of the output (`finite`), and — unless this is the run's
/// `last` stage — cancellation.
fn stage<T>(
    ctx: &GemmContext,
    sink: &TraceSink,
    tag: EvdStage,
    last: bool,
    body: impl FnOnce() -> Result<T, EvdError>,
    finite: impl FnOnce(&T) -> bool,
) -> Result<T, EvdError> {
    let name = match tag {
        EvdStage::Input => "input",
        EvdStage::Sbr => "sbr",
        EvdStage::BulgeChase => "bulge_chase",
        EvdStage::TridiagSolve => "tridiag_solve",
        EvdStage::BackTransform => "back_transform",
        EvdStage::ResidualCheck => "residual_check",
    };
    let out = {
        let _scope = StageScope::begin(sink, name);
        body()?
    };
    check_sanitizer(ctx, tag)?;
    if !finite(&out) {
        return Err(EvdError::NonFinite { stage: tag });
    }
    if !last {
        check_cancelled(ctx, tag)?;
    }
    Ok(out)
}

/// `X ← Q₁·X`, for `X` with any number of columns, where `Q₁` is stage 1's
/// per-level WY factors: merge them in place into one n×K (W, Y) pair (paper
/// Algorithm 2), which drops each level once it is copied, then
/// X ← (I − W·Yᵀ)·X — the FormW back-transformation (§4.4). No levels
/// (values only, or `n ≤ b + 1` left SBR a no-op) means `Q₁ = I`.
fn apply_q1(levels: Vec<LevelWy>, mut x: Mat<f32>, ctx: &GemmContext) -> Mat<f32> {
    if levels.is_empty() {
        return x;
    }
    let (w, y) = form_wy_owned(levels, x.rows(), ctx);
    tcevd_band::apply_q(w.as_ref(), y.as_ref(), &mut x, ctx);
    x
}

/// Stage 1: successive band reduction, dispatched once over the SBR
/// variants. `Q₁`'s levels are recorded only when `vectors` is set.
fn reduce(
    a: &Mat<f32>,
    b: usize,
    sbr: SbrVariant,
    panel: PanelKind,
    vectors: bool,
    ctx: &GemmContext,
) -> Result<(Mat<f32>, Vec<LevelWy>), EvdError> {
    let (block, end) = match sbr {
        SbrVariant::Wy { block } => (block, BlockEnd::ThreeGemm),
        SbrVariant::Dbr { block } => (block, BlockEnd::Syr2k),
    };
    let opts = WyOptions {
        bandwidth: b,
        block,
        panel,
        accumulate_q: false,
    };
    // Both block ends emit the same per-level (W, Y), which FormW merges.
    let r = sbr_blocked(a, &opts, end, vectors, ctx)?;
    Ok((r.band, r.levels))
}

/// `opts.trace` routes pipeline stage spans and counters into the
/// context's sink; the SBR/GEMM layers below always use the context sink
/// directly.
fn pipeline_sink(opts: &SymEigOptions, ctx: &GemmContext) -> TraceSink {
    if opts.trace {
        ctx.sink().clone()
    } else {
        TraceSink::disabled()
    }
}

/// The tridiagonal solver ladder (rungs 3–5 of the [`RecoveryPolicy`]):
/// D&C → QL → QL with an enlarged budget → bisection (+ inverse iteration
/// when vectors are wanted). Deterministic fault hooks
/// ([`crate::fault::fail_dc`]/[`crate::fault::fail_ql`]) are consumed here
/// — at the seam — so D&C's internal QL base case never eats a QL fault.
fn solve_tridiag(
    t: &SymTridiag<f32>,
    solver: TridiagSolver,
    vectors: bool,
    rec: &RecoveryPolicy,
    sink: &TraceSink,
) -> Result<(Vec<f32>, Option<Mat<f32>>), EvdError> {
    // Rung 3: divide & conquer, falling to QL on a secular breakdown.
    if solver == TridiagSolver::DivideConquer {
        // Without vectors the recursion keeps two rows per subproblem: the
        // same eigenvalue bits, no n×n buffers.
        let rows = if vectors { DcRows::All } else { DcRows::Ends };
        let r = if crate::fault::take_dc_failure() {
            Err(EigError::NoConvergence { index: 0 })
        } else {
            tridiag_dc_with(t, rows, sink)
        };
        match r {
            Ok((values, z)) => return Ok((values, vectors.then_some(z))),
            Err(EigError::NonFiniteInput) => {
                return Err(EvdError::NonFinite {
                    stage: EvdStage::TridiagSolve,
                })
            }
            Err(EigError::NoConvergence { index }) => {
                if !rec.solver_fallback {
                    return Err(EvdError::TridiagNoConvergence {
                        solver: "divide & conquer",
                        index,
                    });
                }
                sink.add("recovery.dc_to_ql", 1);
            }
        }
    }

    // Rung 4: QL, retried once with an enlarged sweep budget.
    let mut budget = DEFAULT_MAX_ITER;
    let attempts = if rec.ql_budget_boost > 1 { 2 } else { 1 };
    let mut last_index = 0;
    for attempt in 0..attempts {
        let r = if crate::fault::take_ql_failure() {
            Err(EigError::NoConvergence { index: 0 })
        } else if vectors {
            tridiag_eig_ql_budget_with(t, sink, budget).map(|(v, z)| (v, Some(z)))
        } else {
            tridiag_eigenvalues_budget_with(t, sink, budget).map(|v| (v, None))
        };
        match r {
            Ok(out) => return Ok(out),
            Err(EigError::NoConvergence { index }) => last_index = index,
            Err(EigError::NonFiniteInput) => {
                return Err(EvdError::NonFinite {
                    stage: EvdStage::TridiagSolve,
                })
            }
        }
        if attempt == 0 && attempts == 2 {
            sink.add("recovery.ql_budget_retry", 1);
            budget = DEFAULT_MAX_ITER * rec.ql_budget_boost as usize;
        }
    }
    if !rec.solver_fallback {
        return Err(EvdError::TridiagNoConvergence {
            solver: "ql",
            index: last_index,
        });
    }

    // Rung 5: bisection always converges; inverse iteration lifts vectors.
    sink.add("recovery.ql_to_bisect", 1);
    let n = t.n();
    let range = crate::bisect::EigRange::Index { lo: 0, hi: n };
    if vectors {
        match crate::inverse_iter::tridiag_eig_selected(t, range) {
            Ok((values, z)) => Ok((values, Some(z))),
            Err(EigError::NoConvergence { index }) => Err(EvdError::TridiagNoConvergence {
                solver: "inverse iteration",
                index,
            }),
            Err(EigError::NonFiniteInput) => Err(EvdError::NonFinite {
                stage: EvdStage::TridiagSolve,
            }),
        }
    } else {
        Ok((crate::bisect::tridiag_eig_bisect(t, range), None))
    }
}

/// Eigenvalues only — the paper's case-study configuration (§6.4, "no
/// eigenvectors").
pub fn sym_eigenvalues(
    a: &Mat<f32>,
    opts: &SymEigOptions,
    ctx: &GemmContext,
) -> Result<Vec<f32>, EvdError> {
    Ok(run_pipeline(a, Cols::Values, opts, ctx)?.values)
}

/// Selected eigenpairs through the same two-stage reduction: bisection for
/// the chosen eigenvalues, inverse iteration for their tridiagonal
/// eigenvectors, then back-transformation of just those columns — the
/// partial-spectrum workflow (largest-k for PCA / low-rank approximation)
/// the paper's introduction motivates.
///
/// Stage 1 runs the configured `opts.sbr` variant. `opts.vectors`,
/// `opts.solver` and `opts.recovery.verify_tol` do not apply: the result
/// always carries the `n×k` eigenvector block. A NaN bound in an
/// [`EigRange::Value`] is an [`EvdError::InvalidInput`]; infinite bounds
/// are valid.
pub fn sym_eig_selected(
    a: &Mat<f32>,
    range: EigRange<f32>,
    opts: &SymEigOptions,
    ctx: &GemmContext,
) -> Result<SymEigResult, EvdError> {
    run_pipeline(a, Cols::Range(range), opts, ctx)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::{eigenpair_residual, eigenvalue_error, orthogonality};
    use crate::reference::sym_eigenvalues_ref;
    use tcevd_tensorcore::Engine;
    use tcevd_testmat::{generate, MatrixType};

    fn opts(b: usize, nb: usize) -> SymEigOptions {
        SymEigOptions {
            bandwidth: b,
            sbr: SbrVariant::Wy { block: nb },
            panel: PanelKind::Tsqr,
            solver: TridiagSolver::DivideConquer,
            vectors: false,
            trace: false,
            recovery: RecoveryPolicy::default(),
            threads: 0,
        }
    }

    fn es_error(a64: &Mat<f64>, computed: &[f32]) -> f64 {
        let reference = sym_eigenvalues_ref(a64).unwrap();
        let comp: Vec<f64> = computed.iter().map(|&x| x as f64).collect();
        eigenvalue_error(&reference, &comp)
    }

    #[test]
    fn eigenvalues_match_reference_sgemm() {
        let n = 96;
        let a64 = generate(n, MatrixType::Normal, 50);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let vals = sym_eigenvalues(&a, &opts(8, 32), &ctx).unwrap();
        let e = es_error(&a64, &vals);
        assert!(e < 1e-6, "E_s = {e}");
    }

    #[test]
    fn eigenvalues_match_reference_tensor_core() {
        let n = 96;
        let a64 = generate(n, MatrixType::Normal, 51);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Tc);
        let vals = sym_eigenvalues(&a, &opts(8, 32), &ctx).unwrap();
        let e = es_error(&a64, &vals);
        // paper's observed accuracy: ~1e-5 to 1e-4 (its Table 4)
        assert!(e < 5e-4, "E_s = {e}");
    }

    #[test]
    fn ec_engine_recovers_accuracy() {
        let n = 96;
        let a64 = generate(n, MatrixType::Geo { cond: 1e3 }, 52);
        let a: Mat<f32> = a64.cast();
        let e_tc = {
            let ctx = GemmContext::new(Engine::Tc);
            es_error(&a64, &sym_eigenvalues(&a, &opts(8, 32), &ctx).unwrap())
        };
        let e_ec = {
            let ctx = GemmContext::new(Engine::EcTc);
            es_error(&a64, &sym_eigenvalues(&a, &opts(8, 32), &ctx).unwrap())
        };
        assert!(
            e_ec <= e_tc,
            "EC ({e_ec}) should not be worse than TC ({e_tc})"
        );
    }

    #[test]
    fn zy_variant_and_ql_solver() {
        let n = 64;
        let a64 = generate(n, MatrixType::Uniform, 53);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let o = SymEigOptions {
            bandwidth: 8,
            sbr: SbrVariant::Dbr { block: 8 },
            panel: PanelKind::Tsqr,
            solver: TridiagSolver::Ql,
            vectors: false,
            trace: false,
            recovery: RecoveryPolicy::default(),
            threads: 0,
        };
        let vals = sym_eigenvalues(&a, &o, &ctx).unwrap();
        assert!(es_error(&a64, &vals) < 1e-6);
    }

    #[test]
    fn eigenvectors_via_formw_backtransform() {
        let n = 96;
        let a64 = generate(n, MatrixType::Normal, 54);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let mut o = opts(8, 32);
        o.vectors = true;
        let r = sym_eig(&a, &o, &ctx).unwrap();
        let x = r.vectors.as_ref().unwrap();
        assert!(orthogonality(x.as_ref()) < 1e-5);
        let res = eigenpair_residual(a.as_ref(), &r.values, x.as_ref());
        assert!(res < 1e-4, "residual {res}");
    }

    /// The pipeline packs SBR's band and drops it before the chase, records
    /// `Q₁`'s levels only with vectors and hands them to FormW by value.
    /// Composed by hand from the chase on the dense band and the borrowed
    /// FormW, the stages give the same bits, values and vectors, for every
    /// block end and at 1 and 4 threads.
    #[test]
    fn packed_chase_matches_the_dense_composition_bitwise() {
        use tcevd_band::{apply_q, bulge_chase_with, form_wy};
        let bits = |x: &[f32]| -> Vec<u32> { x.iter().map(|v| v.to_bits()).collect() };
        let (n, b) = (150, 8);
        let a: Mat<f32> = generate(n, MatrixType::Normal, 58).cast();
        let off = TraceSink::disabled();
        for engine in [Engine::Sgemm, Engine::Tc] {
            let ctx = GemmContext::new(engine);
            for (sbr, end, nb) in [
                (SbrVariant::Wy { block: 32 }, BlockEnd::ThreeGemm, 32),
                (SbrVariant::Dbr { block: 32 }, BlockEnd::Syr2k, 32),
                (SbrVariant::Dbr { block: 8 }, BlockEnd::Syr2k, 8),
            ] {
                for threads in [1, 4] {
                    let tag = format!("{engine:?} {sbr:?} threads={threads}");
                    let o = SymEigOptions {
                        sbr,
                        threads,
                        ..opts(b, nb)
                    };
                    let values = sym_eigenvalues(&a, &o, &ctx).unwrap();
                    let full = sym_eig(&a, &SymEigOptions { vectors: true, ..o }, &ctx).unwrap();

                    let wy = WyOptions {
                        bandwidth: b,
                        block: nb,
                        panel: PanelKind::Tsqr,
                        accumulate_q: false,
                    };
                    let r = sbr_blocked(&a, &wy, end, true, &ctx).unwrap();
                    let chase = bulge_chase_with(&r.band, b, false, &off);
                    let t = SymTridiag::new(chase.diag, chase.offdiag);
                    let want = tridiag_dc_with(&t, DcRows::Ends, &off).unwrap().0;
                    assert!(bits(&values) == bits(&want), "{tag}: values only");

                    let chase = bulge_chase_with(&r.band, b, true, &off);
                    let t = SymTridiag::new(chase.diag, chase.offdiag);
                    let (want, z) = tridiag_dc_with(&t, DcRows::All, &off).unwrap();
                    let mut x = Mat::<f32>::zeros(n, n);
                    let q2 = chase.q.unwrap();
                    let (q2, z) = (q2.as_ref(), z.as_ref());
                    ctx.gemm(
                        "evd_q2z",
                        1.0,
                        q2,
                        Op::NoTrans,
                        z,
                        Op::NoTrans,
                        0.0,
                        x.as_mut(),
                    );
                    let (w, y) = form_wy(&r.levels, n, &ctx);
                    apply_q(w.as_ref(), y.as_ref(), &mut x, &ctx);
                    assert!(bits(&full.values) == bits(&want), "{tag}: values");
                    let got = full.vectors.unwrap();
                    assert!(bits(got.as_slice()) == bits(x.as_slice()), "{tag}: vectors");
                }
            }
        }
        rayon::configure(0);
    }

    #[test]
    fn eigenvectors_via_zy_levels() {
        let n = 64;
        let a64 = generate(n, MatrixType::Arith { cond: 1e2 }, 55);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let o = SymEigOptions {
            bandwidth: 8,
            sbr: SbrVariant::Dbr { block: 8 },
            panel: PanelKind::Tsqr,
            solver: TridiagSolver::DivideConquer,
            vectors: true,
            trace: false,
            recovery: RecoveryPolicy::default(),
            threads: 0,
        };
        let r = sym_eig(&a, &o, &ctx).unwrap();
        let x = r.vectors.as_ref().unwrap();
        assert!(orthogonality(x.as_ref()) < 1e-5);
        assert!(eigenpair_residual(a.as_ref(), &r.values, x.as_ref()) < 1e-4);
    }

    #[test]
    fn prescribed_spectrum_recovered_through_tc() {
        let n = 80;
        let mt = MatrixType::Arith { cond: 1e3 };
        let a64 = generate(n, mt, 56);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Tc);
        let vals = sym_eigenvalues(&a, &opts(8, 16), &ctx).unwrap();
        let mut want = tcevd_testmat::spectrum(n, mt).unwrap();
        want.sort_by(|x, y| x.partial_cmp(y).unwrap());
        // absolute errors at TC precision (normalized metric below 1e-4·N)
        let comp: Vec<f64> = vals.iter().map(|&x| x as f64).collect();
        let e = eigenvalue_error(&want, &comp);
        assert!(e < 5e-4, "E_s vs prescribed = {e}");
    }

    #[test]
    fn small_matrices_and_edge_bandwidths() {
        for (n, b) in [(3usize, 1usize), (5, 2), (10, 9), (17, 4)] {
            let a64 = generate(n, MatrixType::Normal, 57 + n as u64);
            let a: Mat<f32> = a64.cast();
            let ctx = GemmContext::new(Engine::Sgemm);
            let mut o = opts(b, 2 * b);
            o.vectors = true;
            let r = sym_eig(&a, &o, &ctx).unwrap();
            assert_eq!(r.values.len(), n);
            let x = r.vectors.as_ref().unwrap();
            assert!(
                eigenpair_residual(a.as_ref(), &r.values, x.as_ref()) < 1e-3,
                "n={n} b={b}"
            );
        }
    }

    #[test]
    fn selected_eigenpairs_match_full_solve() {
        use crate::bisect::EigRange;
        let n = 80;
        let a64 = generate(n, MatrixType::Geo { cond: 1e2 }, 58);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let full = sym_eig(
            &a,
            &SymEigOptions {
                vectors: true,
                ..opts(8, 32)
            },
            &ctx,
        )
        .unwrap();
        let sel =
            sym_eig_selected(&a, EigRange::Index { lo: n - 5, hi: n }, &opts(8, 32), &ctx).unwrap();
        assert_eq!(sel.values.len(), 5);
        for (j, v) in sel.values.iter().enumerate() {
            assert!((v - full.values[n - 5 + j]).abs() < 1e-4, "{v}");
        }
        // selected vectors are genuine eigenvectors of A
        let x = sel.vectors.as_ref().unwrap();
        let res = crate::metrics::eigenpair_residual(a.as_ref(), &sel.values, x.as_ref());
        assert!(res < 1e-3, "residual {res}");
    }

    #[test]
    fn selected_by_value_interval() {
        use crate::bisect::EigRange;
        let n = 48;
        let a64 = generate(n, MatrixType::Arith { cond: 1e1 }, 59);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let sel =
            sym_eig_selected(&a, EigRange::Value { lo: 0.5, hi: 2.0 }, &opts(8, 16), &ctx).unwrap();
        for v in &sel.values {
            assert!(*v > 0.5 - 1e-3 && *v <= 2.0 + 1e-3);
        }
        assert_eq!(sel.vectors.as_ref().unwrap().cols(), sel.values.len());
    }

    #[test]
    fn empty_matrix() {
        let a = Mat::<f32>::zeros(0, 0);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sym_eig(&a, &opts(4, 8), &ctx).unwrap();
        assert!(r.values.is_empty());
    }

    /// The old inline bandwidth clamp `min(n−1).max(1)` produced the
    /// out-of-range `b = 1 > n − 1` for `n = 1`; `n ≤ 2` now short-circuits
    /// to the closed-form trivial solve, for any configured bandwidth.
    #[test]
    fn trivial_sizes_zero_one_two() {
        let ctx = GemmContext::new(Engine::Sgemm);
        for bandwidth in [1usize, 4, 32] {
            let mut o = opts(bandwidth, 2 * bandwidth);
            o.vectors = true;

            // n = 0
            let r = sym_eig(&Mat::<f32>::zeros(0, 0), &o, &ctx).unwrap();
            assert!(r.values.is_empty());

            // n = 1: the eigenvalue is the sole entry, the vector is e₁
            let a1 = Mat::<f32>::from_fn(1, 1, |_, _| -3.5);
            let r = sym_eig(&a1, &o, &ctx).unwrap();
            assert_eq!(r.values, vec![-3.5]);
            let x = r.vectors.as_ref().unwrap();
            assert_eq!((x.rows(), x.cols()), (1, 1));
            assert_eq!(x[(0, 0)], 1.0);

            // n = 2: closed form must match the 2×2 characteristic roots
            let a2 = Mat::<f32>::from_fn(2, 2, |i, j| if i == j { 2.0 + i as f32 } else { 1.5 });
            let r = sym_eig(&a2, &o, &ctx).unwrap();
            assert_eq!(r.values.len(), 2);
            assert!(r.values[0] <= r.values[1]);
            let x = r.vectors.as_ref().unwrap();
            assert!(orthogonality(x.as_ref()) < 1e-6);
            let res = eigenpair_residual(a2.as_ref(), &r.values, x.as_ref());
            assert!(res < 1e-6, "b={bandwidth} residual {res}");
            // exact 2×2 eigenvalues: mean ± radius
            let (mean, radius) = (2.5f32, (0.25f32 + 1.5 * 1.5).sqrt());
            assert!((r.values[0] - (mean - radius)).abs() < 1e-6);
            assert!((r.values[1] - (mean + radius)).abs() < 1e-6);
        }
    }

    #[test]
    fn trivial_two_by_two_diagonal_orders_ascending() {
        let ctx = GemmContext::new(Engine::Sgemm);
        let mut o = opts(4, 8);
        o.vectors = true;
        // diagonal with descending entries: eigenvalues must still ascend
        // and the vectors must be the swapped unit basis
        let a = Mat::<f32>::from_fn(2, 2, |i, j| if i == j { 5.0 - 4.0 * i as f32 } else { 0.0 });
        let r = sym_eig(&a, &o, &ctx).unwrap();
        assert_eq!(r.values, vec![1.0, 5.0]);
        let x = r.vectors.as_ref().unwrap();
        assert_eq!((x[(0, 0)], x[(1, 0)]), (0.0, 1.0));
        assert_eq!((x[(0, 1)], x[(1, 1)]), (1.0, 0.0));
    }

    #[test]
    fn trivial_sizes_selected_ranges() {
        use crate::bisect::EigRange;
        let ctx = GemmContext::new(Engine::Sgemm);
        let o = opts(4, 8);
        let a2 = Mat::<f32>::from_fn(2, 2, |i, j| if i == j { 3.0 } else { 1.0 }); // λ = 2, 4
        let top = sym_eig_selected(&a2, EigRange::Index { lo: 1, hi: 2 }, &o, &ctx).unwrap();
        assert_eq!(top.values, vec![4.0]);
        let x = top.vectors.as_ref().unwrap();
        assert_eq!((x.rows(), x.cols()), (2, 1));
        let by_value =
            sym_eig_selected(&a2, EigRange::Value { lo: 1.0, hi: 3.0 }, &o, &ctx).unwrap();
        assert_eq!(by_value.values, vec![2.0]);
        // out-of-range index clamps to the empty set
        let none = sym_eig_selected(&a2, EigRange::Index { lo: 5, hi: 9 }, &o, &ctx).unwrap();
        assert!(none.values.is_empty());
        assert_eq!(none.vectors.as_ref().unwrap().cols(), 0);
        // n = 1 by value
        let a1 = Mat::<f32>::from_fn(1, 1, |_, _| 2.0);
        let one = sym_eig_selected(&a1, EigRange::Value { lo: 0.0, hi: 2.0 }, &o, &ctx).unwrap();
        assert_eq!(one.values, vec![2.0]);
        // n = 0: an empty 0×0 block, like every other selected result
        let a0 = Mat::<f32>::zeros(0, 0);
        let empty = sym_eig_selected(&a0, EigRange::Index { lo: 0, hi: 3 }, &o, &ctx).unwrap();
        assert!(empty.values.is_empty());
        let x = empty.vectors.as_ref().unwrap();
        assert_eq!((x.rows(), x.cols()), (0, 0));
    }

    #[test]
    fn non_square_input_is_shape_error() {
        let a = Mat::<f32>::zeros(4, 6);
        let ctx = GemmContext::new(Engine::Sgemm);
        match sym_eig(&a, &opts(2, 4), &ctx) {
            Err(EvdError::Shape {
                rows: 4, cols: 6, ..
            }) => {}
            other => panic!("expected Shape error, got {other:?}"),
        }
        let sel = sym_eig_selected(
            &a,
            crate::bisect::EigRange::Index { lo: 0, hi: 1 },
            &opts(2, 4),
            &ctx,
        );
        assert!(matches!(sel, Err(EvdError::Shape { .. })));
    }

    #[test]
    fn nan_input_is_stage_tagged() {
        let mut a = generate(16, MatrixType::Normal, 60).cast::<f32>();
        a[(3, 3)] = f32::NAN;
        let ctx = GemmContext::new(Engine::Sgemm);
        assert!(matches!(
            sym_eig(&a, &opts(4, 8), &ctx),
            Err(EvdError::NonFinite {
                stage: EvdStage::Input
            })
        ));
    }

    /// ZY (the syr2k end at nb = b) back-transforms the selected columns
    /// through FormW: values and residuals match the corresponding slice of
    /// the full ZY solve within `c·n·u·‖A‖`, and the selected path emits
    /// the SBR byte estimate like the full one.
    #[test]
    fn selected_zy_matches_full_zy_slice() {
        use crate::bisect::EigRange;
        let (n, b, k) = (64, 8, 4);
        let a: Mat<f32> = generate(n, MatrixType::Normal, 90).cast();
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
        let mut o = opts(b, 16);
        o.sbr = SbrVariant::Dbr { block: b };
        o.trace = true;
        let sel = sym_eig_selected(&a, EigRange::Index { lo: n - k, hi: n }, &o, &ctx).unwrap();
        assert_eq!(
            sink.counter("sbr_bytes_est"),
            tcevd_perfmodel::dbr_memory(n, b, b).total()
        );
        o.vectors = true;
        let full = sym_eig(&a, &o, &GemmContext::new(Engine::Sgemm)).unwrap();

        // Backward-stable reduction and solve: eigenvalue errors and
        // residuals are O(n·u·‖A‖); c = 4 leaves headroom over the observed.
        let norm_a = tcevd_matrix::norms::frobenius(a.as_ref());
        let bound = 4.0 * n as f32 * f32::EPSILON * norm_a;
        assert_eq!(sel.values.len(), k);
        for (got, want) in sel.values.iter().zip(&full.values[n - k..]) {
            assert!(
                (got - want).abs() <= bound,
                "{got} vs {want}, bound {bound}"
            );
        }
        let xf = full.vectors.as_ref().unwrap();
        let full_slice = Mat::from_fn(n, k, |i, j| xf[(i, n - k + j)]);
        let x = sel.vectors.as_ref().unwrap();
        for (values, x) in [(&sel.values[..], x), (&full.values[n - k..], &full_slice)] {
            let res = eigenpair_residual(a.as_ref(), values, x.as_ref()) * norm_a;
            assert!(res <= bound, "residual {res}, bound {bound}");
        }
    }

    #[test]
    fn nan_range_bound_is_invalid_input() {
        use crate::bisect::EigRange;
        let ctx = GemmContext::new(Engine::Sgemm);
        for n in [2usize, 64] {
            let a: Mat<f32> = generate(n, MatrixType::Normal, 91).cast();
            for range in [
                EigRange::Value {
                    lo: f32::NAN,
                    hi: 1.0,
                },
                EigRange::Value {
                    lo: -1.0,
                    hi: f32::NAN,
                },
            ] {
                let r = sym_eig_selected(&a, range, &opts(8, 16), &ctx);
                assert!(
                    matches!(r, Err(EvdError::InvalidInput { .. })),
                    "n={n}: {r:?}"
                );
            }
            // infinite bounds stay valid and select the whole spectrum
            let all = EigRange::Value {
                lo: f32::NEG_INFINITY,
                hi: f32::INFINITY,
            };
            let r = sym_eig_selected(&a, all, &opts(8, 16), &ctx).unwrap();
            assert_eq!(r.values.len(), n);
        }
    }

    #[test]
    fn dbr_variant_matches_reference_with_vectors() {
        let n = 96;
        let a64 = generate(n, MatrixType::Normal, 50);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let mut o = opts(8, 32);
        o.sbr = SbrVariant::Dbr { block: 32 };
        o.vectors = true;
        let r = sym_eig(&a, &o, &ctx).unwrap();
        assert!(es_error(&a64, &r.values) < 1e-6);
        let x = r.vectors.as_ref().unwrap();
        assert!(orthogonality(x.as_ref()) < 1e-5);
        let res = eigenpair_residual(a.as_ref(), &r.values, x.as_ref());
        assert!(res < 1e-4, "residual {res}");
    }

    #[test]
    fn dbr_selected_eigenpairs_run_natively() {
        use crate::bisect::EigRange;
        let n = 80;
        let a64 = generate(n, MatrixType::Geo { cond: 1e2 }, 58);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let mut o = opts(8, 32);
        o.sbr = SbrVariant::Dbr { block: 32 };
        let sink = TraceSink::enabled();
        let ctx_traced = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
        let mut o_traced = o;
        o_traced.trace = true;
        let sel = sym_eig_selected(
            &a,
            EigRange::Index { lo: n - 5, hi: n },
            &o_traced,
            &ctx_traced,
        )
        .unwrap();
        // DBR's FormW-compatible levels run as-is, with the DBR estimate
        assert_eq!(
            sink.counter("sbr_bytes_est"),
            tcevd_perfmodel::dbr_memory(n, 8, 32).total()
        );
        o.vectors = true;
        let full = sym_eig(&a, &o, &ctx).unwrap();
        assert_eq!(sel.values.len(), 5);
        for (j, v) in sel.values.iter().enumerate() {
            assert!((v - full.values[n - 5 + j]).abs() < 1e-4, "{v}");
        }
        let x = sel.vectors.as_ref().unwrap();
        let res = eigenpair_residual(a.as_ref(), &sel.values, x.as_ref());
        assert!(res < 1e-3, "residual {res}");
    }

    /// One block-size check for both blocked variants: a zero block is a
    /// typed error for `Wy` exactly as for `Dbr`.
    #[test]
    fn dbr_zero_block_is_typed_invalid_input() {
        let a: Mat<f32> = generate(16, MatrixType::Normal, 70).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        for sbr in [SbrVariant::Dbr { block: 0 }, SbrVariant::Wy { block: 0 }] {
            let mut o = opts(4, 8);
            o.sbr = sbr;
            match sym_eig(&a, &o, &ctx) {
                Err(EvdError::InvalidInput { detail }) => {
                    assert!(detail.contains("SBR block size"), "{sbr:?}: {detail}")
                }
                other => panic!("{sbr:?}: expected InvalidInput, got {other:?}"),
            }
            let sel = sym_eig_selected(
                &a,
                crate::bisect::EigRange::Index { lo: 0, hi: 4 },
                &o,
                &ctx,
            );
            assert!(matches!(sel, Err(EvdError::InvalidInput { .. })), "{sbr:?}");
        }
    }

    /// Satellite check for the detached case: n ∈ {0, 1, 2, 3} must never
    /// silently misbehave. `n ≤ 2` takes the closed-form path before any
    /// block validation (no band reduction runs, so no block is consulted);
    /// `n = 3` is the smallest size that reaches `validate_block`, where
    /// a zero block is a typed error and any other block clamps.
    #[test]
    fn dbr_tiny_sizes_zero_through_three() {
        let ctx = GemmContext::new(Engine::Sgemm);
        for block in [0usize, 1, 7, 1024] {
            let mut o = opts(4, 8);
            o.sbr = SbrVariant::Dbr { block };
            o.vectors = true;

            let r = sym_eig(&Mat::<f32>::zeros(0, 0), &o, &ctx).unwrap();
            assert!(r.values.is_empty());

            let a1 = Mat::<f32>::from_fn(1, 1, |_, _| -3.5);
            assert_eq!(sym_eig(&a1, &o, &ctx).unwrap().values, vec![-3.5]);

            let a2 = Mat::<f32>::from_fn(2, 2, |i, j| if i == j { 2.0 + i as f32 } else { 1.5 });
            let r2 = sym_eig(&a2, &o, &ctx).unwrap();
            assert!(r2.values[0] <= r2.values[1]);

            let a3 = generate(3, MatrixType::Normal, 71).cast::<f32>();
            let r3 = sym_eig(&a3, &o, &ctx);
            if block == 0 {
                assert!(
                    matches!(r3, Err(EvdError::InvalidInput { .. })),
                    "n=3 block=0"
                );
            } else {
                let r3 = r3.unwrap();
                assert_eq!(r3.values.len(), 3);
                let x = r3.vectors.as_ref().unwrap();
                let res = eigenpair_residual(a3.as_ref(), &r3.values, x.as_ref());
                assert!(res < 1e-4, "block={block} residual {res}");
            }
        }
    }

    /// Out-of-range blocks clamp onto the grid the reduction actually
    /// walks, bit-identically to the in-range equivalent: `nb < b` snaps up
    /// to `b`, `nb > n − b` snaps down to the first level's full width.
    /// Holds for both block ends (`Dbr` and `Wy`).
    #[test]
    fn dbr_block_clamping_is_bit_exact() {
        let n = 40;
        let a: Mat<f32> = generate(n, MatrixType::Normal, 72).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let variants: [fn(usize) -> SbrVariant; 2] = [
            |block| SbrVariant::Dbr { block },
            |block| SbrVariant::Wy { block },
        ];
        for variant in variants {
            let run = |block: usize| {
                let mut o = opts(4, 8);
                o.sbr = variant(block);
                o.vectors = true;
                sym_eig(&a, &o, &ctx).unwrap()
            };
            // nb < b clamps up to b
            let (lo, at_b) = (run(1), run(4));
            assert_eq!(lo.values, at_b.values, "{:?}", variant(1));
            assert_eq!(
                lo.vectors.unwrap().max_abs_diff(&at_b.vectors.unwrap()),
                0.0
            );
            // nb ≫ n clamps down to the first level's trailing width (36 here)
            let (huge, cap) = (run(10_000), run(36));
            assert_eq!(huge.values, cap.values, "{:?}", variant(10_000));
            assert_eq!(
                huge.vectors.unwrap().max_abs_diff(&cap.vectors.unwrap()),
                0.0
            );
        }
    }

    #[test]
    fn dc_breakdown_falls_back_to_ql() {
        let n = 48;
        let a: Mat<f32> = generate(n, MatrixType::Normal, 63).cast();
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
        let mut o = opts(8, 16);
        o.trace = true;
        crate::fault::fail_dc(1);
        let r = sym_eig(&a, &o, &ctx);
        crate::fault::reset();
        let vals = r.unwrap().values;
        assert_eq!(sink.counter("recovery.dc_to_ql"), 1);
        assert_eq!(sink.counter("recovery.ql_budget_retry"), 0);
        assert!(es_error(&generate(n, MatrixType::Normal, 63), &vals) < 1e-5);
    }

    #[test]
    fn ql_budget_retry_then_bisect() {
        let n = 32;
        let a64 = generate(n, MatrixType::Normal, 64);
        let a: Mat<f32> = a64.cast();
        // one armed failure: budget retry succeeds
        {
            let sink = TraceSink::enabled();
            let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
            let mut o = opts(4, 8);
            o.solver = TridiagSolver::Ql;
            o.trace = true;
            crate::fault::fail_ql(1);
            let r = sym_eig(&a, &o, &ctx);
            crate::fault::reset();
            assert!(r.is_ok());
            assert_eq!(sink.counter("recovery.ql_budget_retry"), 1);
            assert_eq!(sink.counter("recovery.ql_to_bisect"), 0);
        }
        // two armed failures: ladder bottoms out in bisection
        {
            let sink = TraceSink::enabled();
            let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
            let mut o = opts(4, 8);
            o.solver = TridiagSolver::Ql;
            o.trace = true;
            crate::fault::fail_ql(2);
            let r = sym_eig(&a, &o, &ctx);
            crate::fault::reset();
            let vals = r.unwrap().values;
            assert_eq!(sink.counter("recovery.ql_budget_retry"), 1);
            assert_eq!(sink.counter("recovery.ql_to_bisect"), 1);
            assert!(es_error(&a64, &vals) < 1e-5);
        }
    }

    #[test]
    fn disabled_recovery_surfaces_solver_error() {
        let n = 24;
        let a: Mat<f32> = generate(n, MatrixType::Normal, 65).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let mut o = opts(4, 8);
        o.recovery = RecoveryPolicy::disabled();
        crate::fault::fail_dc(1);
        let r = sym_eig(&a, &o, &ctx);
        crate::fault::reset();
        assert!(matches!(
            r,
            Err(EvdError::TridiagNoConvergence {
                solver: "divide & conquer",
                ..
            })
        ));
    }

    #[test]
    fn verify_tol_passes_clean_runs_and_counts_nothing() {
        let n = 48;
        let a: Mat<f32> = generate(n, MatrixType::Normal, 66).cast();
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
        let mut o = opts(8, 16);
        o.vectors = true;
        o.trace = true;
        o.recovery.verify_tol = Some(1e-3);
        let r = sym_eig(&a, &o, &ctx).unwrap();
        assert!(r.vectors.is_some());
        assert_eq!(sink.counter("recovery.residual_resolve"), 0);
    }
}
