//! Kernel-tier dispatch and the committed tuning table.
//!
//! PR 5 fixed one register tile per scalar type (`Scalar::GEMM_MR` × 4).
//! That shape carries only four vector accumulators for f32 — not enough
//! independent FMA chains to cover FMA latency on wide cores. This module
//! adds a second **tier** of microkernels ([`KernelTier::Wide`], built on
//! [`crate::microkernel::microkernel_wide`]) with taller/wider tile shapes
//! selected per GEMM *shape class* from a committed tuning table, while the
//! PR-5 scalar kernel stays the always-available bit-exact oracle
//! ([`KernelTier::Scalar`]).
//!
//! # Determinism and bit-exactness
//!
//! Tier and tile selection is a **pure function of the GEMM shape and the
//! tuning table** — never of thread count, timing, or any runtime
//! measurement. Both tiers accumulate every output element with one fused
//! multiply-add per `k` step ([`Scalar::mul_add`], a single rounding), in
//! the same k-ascending order within fixed KC panels, and `KC` is pinned
//! per scalar type across tiers ([`Scalar::GEMM_KC`]): varying MR/NR/MC
//! only regroups which elements share a register, which cannot change
//! per-element rounding, whereas varying KC would regroup the panel
//! partial sums that *are* added into C. IEEE fma is correctly rounded, so
//! the bits are also the same on every target, with or without hardware
//! FMA (only the speed differs). The dispatch therefore guarantees
//! bit-identical results across tiers, tile shapes, thread counts and
//! targets; the determinism suite pins the thread-count part.
//!
//! # The tuning table
//!
//! `reproduce tune` benches the candidate grid below on the build machine
//! and emits `crates/matrix/tuning/default.tune`, which is committed and
//! compiled in via `include_str!`. Each line is
//! `scalar class tier mr nr mc` (whitespace separated, `#` comments):
//!
//! ```text
//! f32 square wide 16 4 128
//! ```
//!
//! Entries must name an instantiated kernel (see [`kernel_for`]) and
//! satisfy the blocking invariants `mc % mr == 0` and `NC % nr == 0`
//! (tcevd-lint rule R12 checks the committed file). Malformed or invalid
//! lines are ignored at load time — dispatch falls back to the built-in
//! defaults, never panics.
//!
//! Environment overrides (read once, process-wide):
//! * `TCEVD_GEMM_TIER=scalar|wide` forces a tier (CI uses `scalar` to time
//!   the oracle).
//! * `TCEVD_TUNE_FILE=<path>` replaces the embedded table.

use std::sync::OnceLock;

use crate::microkernel::{microkernel, microkernel_wide};
use crate::scalar::Scalar;

/// The committed tuning table, embedded at compile time.
const DEFAULT_TABLE: &str = include_str!("../tuning/default.tune");

/// Which microkernel family executes a GEMM.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum KernelTier {
    /// The PR-5 register-tiled kernel at the `Scalar::GEMM_*` shapes —
    /// the always-available bit-exact oracle.
    Scalar,
    /// The lane-blocked kernel ([`microkernel_wide`]) at tuning-table
    /// shapes — bit-identical output, higher FMA throughput.
    Wide,
}

/// GEMM shape families the tuning table distinguishes (the Table-1
/// families the bench crate measures, plus a small-problem bucket that
/// always takes the scalar tier — tiny tiles don't amortize dispatch).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum GemmClass {
    /// Every dimension under the packing threshold.
    Small,
    /// All three dimensions comparable (`n×n×n`).
    Square,
    /// Inner dimension is the small one — rank-k trailing updates.
    Outer,
    /// An output dimension is the small one, inner large — `A·W` panels.
    Tall,
}

impl GemmClass {
    /// Stable name used in the tuning-table format.
    pub fn name(self) -> &'static str {
        match self {
            GemmClass::Small => "small",
            GemmClass::Square => "square",
            GemmClass::Outer => "outer",
            GemmClass::Tall => "tall",
        }
    }

    fn from_name(s: &str) -> Option<GemmClass> {
        match s {
            "small" => Some(GemmClass::Small),
            "square" => Some(GemmClass::Square),
            "outer" => Some(GemmClass::Outer),
            "tall" => Some(GemmClass::Tall),
            _ => None,
        }
    }
}

/// Dimensions below which a GEMM counts as [`GemmClass::Small`].
const SMALL_DIM: usize = 48;

/// Classify a GEMM shape into its tuning family. Pure function of the
/// shape — this is half of the dispatch determinism contract.
pub fn classify(m: usize, n: usize, k: usize) -> GemmClass {
    let maxd = m.max(n).max(k);
    if maxd < SMALL_DIM {
        return GemmClass::Small;
    }
    let min_out = m.min(n);
    if 2 * k <= min_out {
        GemmClass::Outer
    } else if 2 * min_out <= k {
        GemmClass::Tall
    } else {
        GemmClass::Square
    }
}

/// Monomorphized microkernel entry point (matches
/// [`crate::microkernel::microkernel`]'s signature).
pub type MicroFn<T> = fn(usize, &[T], &[T], T, &mut [T], usize, usize, usize);

/// The finite set of compiled kernel instantiations. Tuning-table entries
/// and overrides must name one of these; anything else is rejected at
/// load/selection time (never at kernel-call time).
///
/// Wide instantiations use 8-lane blocks (`mr = MV·8`): one 256-bit
/// register of f32, two of f64 — shapes the autovectorizer turns into
/// straight vector FMAs with the whole tile held in registers.
pub fn kernel_for<T: Scalar>(tier: KernelTier, mr: usize, nr: usize) -> Option<MicroFn<T>> {
    match (tier, mr, nr) {
        (KernelTier::Scalar, 4, 4) => Some(microkernel::<T, 4, 4>),
        (KernelTier::Scalar, 8, 4) => Some(microkernel::<T, 8, 4>),
        (KernelTier::Scalar, 8, 8) => Some(microkernel::<T, 8, 8>),
        (KernelTier::Scalar, 16, 4) => Some(microkernel::<T, 16, 4>),
        (KernelTier::Wide, 8, 4) => Some(microkernel_wide::<T, 1, 4, 8>),
        (KernelTier::Wide, 8, 8) => Some(microkernel_wide::<T, 1, 8, 8>),
        (KernelTier::Wide, 16, 4) => Some(microkernel_wide::<T, 2, 4, 8>),
        (KernelTier::Wide, 16, 8) => Some(microkernel_wide::<T, 2, 8, 8>),
        (KernelTier::Wide, 32, 4) => Some(microkernel_wide::<T, 4, 4, 8>),
        (KernelTier::Wide, 32, 8) => Some(microkernel_wide::<T, 4, 8, 8>),
        _ => None,
    }
}

/// The wide-tier `(mr, nr, mc)` candidate grid `reproduce tune` benches.
/// Every entry names an instantiated kernel and satisfies the blocking
/// invariants for the given `mc`.
pub const WIDE_CANDIDATES: &[(usize, usize, usize)] = &[
    (8, 4, 64),
    (8, 4, 128),
    (8, 4, 256),
    (8, 8, 128),
    (8, 8, 256),
    (16, 4, 64),
    (16, 4, 128),
    (16, 4, 256),
    (16, 8, 128),
    (16, 8, 256),
    (32, 4, 128),
    (32, 4, 256),
    (32, 8, 128),
    (32, 8, 256),
];

/// One resolved kernel selection: shape constants plus the monomorphized
/// kernel to call. `kc` always equals `Scalar::GEMM_KC` — pinned across
/// tiers so every tier produces identical bits (see module docs).
#[derive(Copy, Clone)]
pub struct GemmSel<T: Scalar> {
    pub tier: KernelTier,
    pub mr: usize,
    pub nr: usize,
    pub mc: usize,
    pub kc: usize,
    pub kernel: MicroFn<T>,
}

/// One parsed tuning-table entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuneEntry {
    pub scalar: String,
    pub class: GemmClass,
    pub tier: KernelTier,
    pub mr: usize,
    pub nr: usize,
    pub mc: usize,
}

/// A parsed tuning table (valid entries only; see [`parse_table`]).
#[derive(Clone, Debug, Default)]
pub struct TuneTable {
    entries: Vec<TuneEntry>,
}

impl TuneTable {
    pub fn lookup(&self, scalar: &str, class: GemmClass) -> Option<&TuneEntry> {
        self.entries
            .iter()
            .find(|e| e.scalar == scalar && e.class == class)
    }

    pub fn entries(&self) -> &[TuneEntry] {
        &self.entries
    }
}

/// Whether an `(mr, nr, mc)` shape satisfies the packed-GEMM blocking
/// invariants for a given tier (kernel instantiated, `mc % mr == 0`,
/// column chunks NR-strip aligned).
pub fn shape_valid<T: Scalar>(tier: KernelTier, mr: usize, nr: usize, mc: usize) -> bool {
    mr > 0
        && nr > 0
        && mc.is_multiple_of(mr)
        && crate::blas3::NC.is_multiple_of(nr)
        && kernel_for::<T>(tier, mr, nr).is_some()
}

/// Parse tuning-table text. Lines: `scalar class tier mr nr mc`;
/// `#`-comments and blank lines skipped; malformed or invariant-violating
/// lines silently dropped (tcevd-lint R12 reports them at commit time —
/// the loader itself must never fail, it has a built-in fallback).
pub fn parse_table(text: &str) -> TuneTable {
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(scalar), Some(class), Some(tier), Some(mr), Some(nr), Some(mc)) = (
            it.next(),
            it.next(),
            it.next(),
            it.next(),
            it.next(),
            it.next(),
        ) else {
            continue;
        };
        let Some(class) = GemmClass::from_name(class) else {
            continue;
        };
        let tier = match tier {
            "scalar" => KernelTier::Scalar,
            "wide" => KernelTier::Wide,
            _ => continue,
        };
        let (Ok(mr), Ok(nr), Ok(mc)) = (
            mr.parse::<usize>(),
            nr.parse::<usize>(),
            mc.parse::<usize>(),
        ) else {
            continue;
        };
        // validity is scalar-type independent (the instantiation table is
        // generic), so checking against f32 suffices
        let valid = match scalar {
            "f32" => shape_valid::<f32>(tier, mr, nr, mc),
            "f64" => shape_valid::<f64>(tier, mr, nr, mc),
            _ => false,
        };
        if !valid {
            continue;
        }
        entries.push(TuneEntry {
            scalar: scalar.to_string(),
            class,
            tier,
            mr,
            nr,
            mc,
        });
    }
    TuneTable { entries }
}

/// Process-wide dispatch configuration, resolved once at first use.
struct Config {
    forced: Option<KernelTier>,
    table: TuneTable,
}

static CONFIG: OnceLock<Config> = OnceLock::new();

fn config() -> &'static Config {
    CONFIG.get_or_init(|| {
        let forced = match std::env::var("TCEVD_GEMM_TIER").as_deref() {
            Ok("scalar") => Some(KernelTier::Scalar),
            Ok("wide") => Some(KernelTier::Wide),
            _ => None,
        };
        let text = std::env::var("TCEVD_TUNE_FILE")
            .ok()
            .and_then(|p| std::fs::read_to_string(p).ok());
        let table = parse_table(text.as_deref().unwrap_or(DEFAULT_TABLE));
        Config { forced, table }
    })
}

/// Per-thread selection override for the autotuner and tier benchmarks.
/// Selection happens once per GEMM on the *calling* thread, before the
/// column-chunk fan-out, so a caller-thread override is complete.
#[derive(Copy, Clone, Default)]
pub struct TileOverride {
    /// Force a tier regardless of table/env.
    pub tier: Option<KernelTier>,
    /// Force an exact `(mr, nr, mc)` tile (validated against
    /// [`shape_valid`]; invalid shapes fall back to normal selection).
    pub shape: Option<(usize, usize, usize)>,
}

thread_local! {
    static OVERRIDE: std::cell::Cell<TileOverride> =
        const { std::cell::Cell::new(TileOverride { tier: None, shape: None }) };
}

/// Run `f` with a selection override active on this thread (used by
/// `reproduce tune` to bench candidate tiles and by CI to time the scalar
/// oracle). Restores the previous override on exit.
pub fn with_tile_override<R>(o: TileOverride, f: impl FnOnce() -> R) -> R {
    let prev = OVERRIDE.with(|c| c.replace(o));
    let r = f();
    OVERRIDE.with(|c| c.set(prev));
    r
}

/// The scalar-tier selection for `T` — the PR-5 shapes, always valid.
fn scalar_sel<T: Scalar>() -> GemmSel<T> {
    let (mr, nr, mc) = (T::GEMM_MR, T::GEMM_NR, T::GEMM_MC);
    let kernel =
        kernel_for::<T>(KernelTier::Scalar, mr, nr).unwrap_or(microkernel::<T, 4, 4> as MicroFn<T>);
    // the generic 4×4 fallback only fires if a Scalar impl declares a
    // non-instantiated tile; its shapes must then match the kernel
    let (mr, nr, mc) = if kernel_for::<T>(KernelTier::Scalar, mr, nr).is_some() {
        (mr, nr, mc)
    } else {
        (4, 4, 64)
    };
    GemmSel {
        tier: KernelTier::Scalar,
        mr,
        nr,
        mc,
        kc: T::GEMM_KC,
        kernel,
    }
}

/// Built-in wide-tier default when the table has no entry: double the
/// scalar tile height (16×4 for both f32 and f64 — both `MC` values are
/// multiples of 16).
fn wide_default<T: Scalar>() -> (usize, usize, usize) {
    (2 * T::GEMM_MR, T::GEMM_NR, T::GEMM_MC)
}

fn wide_sel<T: Scalar>(mr: usize, nr: usize, mc: usize) -> Option<GemmSel<T>> {
    if !shape_valid::<T>(KernelTier::Wide, mr, nr, mc) {
        return None;
    }
    Some(GemmSel {
        tier: KernelTier::Wide,
        mr,
        nr,
        mc,
        kc: T::GEMM_KC,
        kernel: kernel_for::<T>(KernelTier::Wide, mr, nr)?,
    })
}

/// Select tier + tile for a GEMM of shape `m×n×k`. Pure function of
/// `(m, n, k)`, the scalar type, and the process-wide configuration
/// (committed table + env overrides) — plus any thread-local
/// [`with_tile_override`] scope, which only bench/tune code installs.
pub fn select_gemm<T: Scalar>(m: usize, n: usize, k: usize) -> GemmSel<T> {
    let ov = OVERRIDE.with(|c| c.get());
    let cfg = config();
    let class = classify(m, n, k);

    let tier = ov
        .tier
        .or(cfg.forced)
        .unwrap_or_else(|| match cfg.table.lookup(T::NAME, class) {
            _ if class == GemmClass::Small => KernelTier::Scalar,
            Some(e) => e.tier,
            None => KernelTier::Wide,
        });

    if let Some((mr, nr, mc)) = ov.shape {
        if let Some(sel) = match tier {
            KernelTier::Wide => wide_sel::<T>(mr, nr, mc),
            KernelTier::Scalar => kernel_for::<T>(KernelTier::Scalar, mr, nr).and_then(|kernel| {
                (mc.is_multiple_of(mr) && crate::blas3::NC.is_multiple_of(nr)).then_some(GemmSel {
                    tier: KernelTier::Scalar,
                    mr,
                    nr,
                    mc,
                    kc: T::GEMM_KC,
                    kernel,
                })
            }),
        } {
            return sel;
        }
    }

    match tier {
        KernelTier::Scalar => scalar_sel::<T>(),
        KernelTier::Wide => {
            let (mr, nr, mc) = cfg
                .table
                .lookup(T::NAME, class)
                .filter(|e| e.tier == KernelTier::Wide)
                .map(|e| (e.mr, e.nr, e.mc))
                .unwrap_or_else(wide_default::<T>);
            wide_sel::<T>(mr, nr, mc).unwrap_or_else(scalar_sel::<T>)
        }
    }
}

/// The tier the BLAS-2 / reflector row kernels run at for vectors of
/// length `n` — the same pure-function-of-shape contract as
/// [`select_gemm`], keyed on the type's `square` table entry. Short
/// vectors stay on the scalar forms (lane blocking cannot pay for itself).
pub fn row_tier<T: Scalar>(n: usize) -> KernelTier {
    if n < SMALL_DIM {
        return KernelTier::Scalar;
    }
    let ov = OVERRIDE.with(|c| c.get());
    let cfg = config();
    ov.tier.or(cfg.forced).unwrap_or_else(|| {
        cfg.table
            .lookup(T::NAME, GemmClass::Square)
            .map(|e| e.tier)
            .unwrap_or(KernelTier::Wide)
    })
}

/// Row-local reflector kernels (`w += v_j·col` accumulate, `col -= t·w`
/// update) behind the same tier switch. Both tiers are **bit-identical**
/// — the arithmetic is per-element (`w[i]` only ever meets `col[i]`), so
/// lane-blocking changes instruction selection, never rounding. The band
/// crate's batched Q accumulation and `apply_reflector_right` route
/// through these.
#[derive(Copy, Clone)]
pub struct RowKernels<T> {
    /// `w[i] += a · x[i]`
    pub acc: fn(T, &[T], &mut [T]),
    /// `y[i] -= a · x[i]`
    pub sub: fn(T, &[T], &mut [T]),
}

fn row_acc_scalar<T: Scalar>(a: T, x: &[T], w: &mut [T]) {
    let n = w.len().min(x.len());
    for (wi, xi) in w[..n].iter_mut().zip(&x[..n]) {
        *wi += a * *xi;
    }
}

fn row_sub_scalar<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    let n = y.len().min(x.len());
    for (yi, xi) in y[..n].iter_mut().zip(&x[..n]) {
        *yi -= a * *xi;
    }
}

/// Lane width of the wide row kernels (matches the wide microkernel).
pub const ROW_LANES: usize = 8;

fn row_acc_wide<T: Scalar>(a: T, x: &[T], w: &mut [T]) {
    let n = w.len().min(x.len());
    let (wb, wr) = w[..n].split_at_mut(n - n % ROW_LANES);
    let (xb, xr) = x[..n].split_at(n - n % ROW_LANES);
    for (wc, xc) in wb
        .chunks_exact_mut(ROW_LANES)
        .zip(xb.chunks_exact(ROW_LANES))
    {
        let Ok(wc) = <&mut [T; ROW_LANES]>::try_from(wc) else {
            continue;
        };
        let Ok(xc) = <&[T; ROW_LANES]>::try_from(xc) else {
            continue;
        };
        for i in 0..ROW_LANES {
            wc[i] += a * xc[i];
        }
    }
    for (wi, xi) in wr.iter_mut().zip(xr) {
        *wi += a * *xi;
    }
}

fn row_sub_wide<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    let n = y.len().min(x.len());
    let (yb, yr) = y[..n].split_at_mut(n - n % ROW_LANES);
    let (xb, xr) = x[..n].split_at(n - n % ROW_LANES);
    for (yc, xc) in yb
        .chunks_exact_mut(ROW_LANES)
        .zip(xb.chunks_exact(ROW_LANES))
    {
        let Ok(yc) = <&mut [T; ROW_LANES]>::try_from(yc) else {
            continue;
        };
        let Ok(xc) = <&[T; ROW_LANES]>::try_from(xc) else {
            continue;
        };
        for i in 0..ROW_LANES {
            yc[i] -= a * xc[i];
        }
    }
    for (yi, xi) in yr.iter_mut().zip(xr) {
        *yi -= a * *xi;
    }
}

/// Tier-selected row kernels for vectors of length `n`.
pub fn row_kernels<T: Scalar>(n: usize) -> RowKernels<T> {
    match row_tier::<T>(n) {
        KernelTier::Scalar => RowKernels {
            acc: row_acc_scalar::<T>,
            sub: row_sub_scalar::<T>,
        },
        KernelTier::Wide => RowKernels {
            acc: row_acc_wide::<T>,
            sub: row_sub_wide::<T>,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_matches_table1_families() {
        assert_eq!(classify(1024, 1024, 1024), GemmClass::Square);
        assert_eq!(classify(1024, 1024, 128), GemmClass::Outer);
        assert_eq!(classify(1024, 128, 1024), GemmClass::Tall);
        assert_eq!(classify(128, 1024, 1024), GemmClass::Tall);
        assert_eq!(classify(16, 16, 16), GemmClass::Small);
    }

    #[test]
    fn parse_accepts_valid_and_drops_invalid_lines() {
        let t = parse_table(
            "# comment\n\
             f32 square wide 16 4 128\n\
             f32 outer wide 16 8 128   # trailing comment\n\
             f64 square scalar 8 4 64\n\
             f32 square wide 7 4 128\n\
             f32 tall wide 16 3 128\n\
             f32 tall wide 16 4 100\n\
             bogus square wide 16 4 128\n\
             f32 nosuchclass wide 16 4 128\n\
             f32 square nosuchtier 16 4 128\n\
             short line\n",
        );
        assert_eq!(t.entries().len(), 3);
        let e = t.lookup("f32", GemmClass::Square).unwrap();
        assert_eq!((e.mr, e.nr, e.mc), (16, 4, 128));
        assert_eq!(e.tier, KernelTier::Wide);
        assert_eq!(
            t.lookup("f64", GemmClass::Square).unwrap().tier,
            KernelTier::Scalar
        );
        assert!(t.lookup("f32", GemmClass::Tall).is_none());
    }

    #[test]
    fn committed_table_is_valid_and_covers_both_scalars() {
        let t = parse_table(DEFAULT_TABLE);
        for scalar in ["f32", "f64"] {
            for class in [GemmClass::Square, GemmClass::Outer, GemmClass::Tall] {
                let e = t
                    .lookup(scalar, class)
                    .unwrap_or_else(|| panic!("missing {scalar} {}", class.name()));
                let ok = match scalar {
                    "f32" => shape_valid::<f32>(e.tier, e.mr, e.nr, e.mc),
                    _ => shape_valid::<f64>(e.tier, e.mr, e.nr, e.mc),
                };
                assert!(ok, "invalid committed entry {e:?}");
            }
        }
    }

    #[test]
    fn selection_is_a_pure_function_of_shape() {
        for (m, n, k) in [
            (1024, 1024, 1024),
            (512, 512, 64),
            (300, 40, 700),
            (8, 8, 8),
        ] {
            let a = select_gemm::<f32>(m, n, k);
            let b = select_gemm::<f32>(m, n, k);
            assert_eq!(
                (a.tier, a.mr, a.nr, a.mc, a.kc),
                (b.tier, b.mr, b.nr, b.mc, b.kc)
            );
        }
    }

    #[test]
    fn small_problems_take_the_scalar_tier() {
        assert_eq!(select_gemm::<f32>(8, 8, 8).tier, KernelTier::Scalar);
        assert_eq!(select_gemm::<f64>(20, 30, 10).tier, KernelTier::Scalar);
    }

    #[test]
    fn kc_is_pinned_across_tiers() {
        let s = with_tile_override(
            TileOverride {
                tier: Some(KernelTier::Scalar),
                shape: None,
            },
            || select_gemm::<f32>(1024, 1024, 1024),
        );
        let w = with_tile_override(
            TileOverride {
                tier: Some(KernelTier::Wide),
                shape: None,
            },
            || select_gemm::<f32>(1024, 1024, 1024),
        );
        assert_eq!(s.kc, w.kc, "KC must not vary with the tier (bit-exactness)");
        assert_eq!(s.kc, <f32 as Scalar>::GEMM_KC);
    }

    #[test]
    fn override_forces_tier_and_shape_and_restores() {
        let sel = with_tile_override(
            TileOverride {
                tier: Some(KernelTier::Wide),
                shape: Some((32, 8, 128)),
            },
            || select_gemm::<f32>(1024, 1024, 1024),
        );
        assert_eq!(
            (sel.tier, sel.mr, sel.nr, sel.mc),
            (KernelTier::Wide, 32, 8, 128)
        );
        // invalid override shape falls back to normal selection
        let sel = with_tile_override(
            TileOverride {
                tier: Some(KernelTier::Wide),
                shape: Some((7, 5, 33)),
            },
            || select_gemm::<f32>(1024, 1024, 1024),
        );
        assert_eq!(sel.tier, KernelTier::Wide);
        assert!(shape_valid::<f32>(sel.tier, sel.mr, sel.nr, sel.mc));
        // override scope ended: selection is back to the configured path
        let a = select_gemm::<f32>(1024, 1024, 1024);
        let b = select_gemm::<f32>(1024, 1024, 1024);
        assert_eq!((a.mr, a.nr), (b.mr, b.nr));
    }

    #[test]
    fn wide_candidates_are_all_instantiated_and_valid() {
        for &(mr, nr, mc) in WIDE_CANDIDATES {
            assert!(
                shape_valid::<f32>(KernelTier::Wide, mr, nr, mc),
                "({mr},{nr},{mc})"
            );
            assert!(shape_valid::<f64>(KernelTier::Wide, mr, nr, mc));
        }
    }

    #[test]
    fn row_kernels_tiers_are_bit_identical() {
        let n = 203; // exercises the lane remainder
        let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.37 - 31.0).collect();
        let mut w_s = vec![0.5f64; n];
        let mut w_w = w_s.clone();
        row_acc_scalar(1.7, &x, &mut w_s);
        row_acc_wide(1.7, &x, &mut w_w);
        assert_eq!(w_s, w_w);
        let mut y_s = x.clone();
        let mut y_w = x.clone();
        row_sub_scalar(0.9, &w_s, &mut y_s);
        row_sub_wide(0.9, &w_w, &mut y_w);
        assert_eq!(y_s, y_w);
    }
}
