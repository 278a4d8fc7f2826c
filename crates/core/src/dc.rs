//! Cuppen divide-and-conquer for the symmetric tridiagonal eigenproblem —
//! the MAGMA/LAPACK `stedc` stand-in used by the paper's EVD case study.
//!
//! Structure (LAPACK `laed*` lineage):
//! 1. Tear the tridiagonal at the midpoint: `T = diag(T₁′, T₂′) + ρ·u·uᵀ`.
//! 2. Solve the halves recursively (in parallel via `rayon::join`).
//! 3. Merge: the spectrum of `D + ρ·z·zᵀ` with deflation (tiny `z`
//!    components, near-equal `d` entries), a safeguarded-Newton **secular
//!    equation** solver per remaining root, and eigenvectors rebuilt from a
//!    Löwner-formula ẑ (Gu–Eisenstat) so orthogonality holds even for
//!    clustered eigenvalues.
//!
//! Roots are stored as `(origin, offset)` pairs so every difference
//! `λ − d_i` is computed without cancellation. The secular function sums
//! its terms in `SECULAR_LANES` (8) partial sums reduced in a fixed order, so
//! every root is the same bits at every thread count.
//!
//! # Rows kept
//!
//! A merge reads only two rows of its halves' eigenvector matrices: `z` is
//! the last row of `Q₁` followed by the first row of `Q₂`. [`DcRows`] picks
//! what the recursion carries. [`DcRows::All`] keeps every row and returns
//! the full `Z`. [`DcRows::Ends`] keeps each subproblem's first and last
//! rows only (Zhan et al., eigenvalue-only D&C): a leaf keeps rows
//! `{0, last}` of its QL `Z`, a merge runs on 2-row `Q₁`, `Q₂` and its
//! 4-row output is cut back to rows `{0, 3}`. The merge itself is the same
//! code in both settings, and the eigenvalues are the same bits: deflation
//! rotations and the final column sort are row-local, and
//! [`tcevd_matrix::blas3::gemm`] pins its k-blocking per scalar type, so no
//! output element depends on how many rows are computed.
//!
//! # Column types
//!
//! The merge never forms the block-diagonal basis `diag(Q₁, Q₂)`. It keeps
//! `Q₁` (r₁×m) and `Q₂` (r₂×(n−m)) as the recursion returns them, sorts
//! and deflates through an index array, and records for each coordinate
//! which column of `Q₁` holds its top half (rows `0..r₁`) and which column
//! of `Q₂` its bottom half (rows `r₁..r₁+r₂`). A coordinate starts with
//! exactly one half. A deflation rotation between a `Q₁` and a `Q₂`
//! coordinate makes both columns *dense*: the deflated one is written
//! straight into the output, the surviving one keeps a top half in `Q₁`
//! and a bottom half in `Q₂`, both rotated in place. The active columns
//! then fall into LAPACK `laed2`'s three types — top-only, dense,
//! bottom-only — and the rows of the secular eigenvector matrix `U` are
//! ordered that way. Gathering the matching `Q₁` and `Q₂` columns to the
//! front of each block (in place) turns `diag(Q₁, Q₂)·U` into two GEMMs
//! with no structural zeros:
//!
//! - top rows: `Q₁[:, top-only ∪ dense] · U[top-only ∪ dense, :]`
//! - bottom rows: `Q₂[:, dense ∪ bottom-only] · U[dense ∪ bottom-only, :]`
//!
//! Both write straight into the one output; an in-place column permutation
//! then sorts it by eigenvalue. [`rank1_update`] is the same merge with its
//! `q` as the only block.
//!
//! # Buffer lifetimes and workspace
//!
//! Every eigenvector buffer (the output, `Q₁`, `Q₂`, `U`) is a [`Mat`], so
//! the [`tcevd_matrix::mem`] watermark sees all of it. With [`DcRows::All`]
//! a merge of size n with `k` active roots holds:
//!
//! - the output, n×n, alive from the start of the merge to its return;
//! - `Q₁` and `Q₂`, m² + (n−m)², dropped after the two GEMMs;
//! - `U`, k×k with k ≤ n, dropped after the two GEMMs.
//!
//! So the top-level merge peaks at no more than `2n² + m² + (n−m)²`
//! elements (≈ 2.5·n²) above the caller's baseline. Deeper merges stay
//! below that even when `rayon::join` runs both halves at once: two merges
//! of size n/2 hold at most 2 · 2.5·(n/2)² = 1.25·n².
//!
//! With [`DcRows::Ends`] nothing is quadratic. A merge of size n holds:
//!
//! - the output, 4×n, and then its 2×n cut;
//! - `Q₁` and `Q₂`, 2×m and 2×(n−m);
//! - `U` one panel of `ENDS_U_PANEL` (64) columns at a time, k×64 at most.
//!
//! That is at most `(6 + 64)·n` elements; the halves below the top merge
//! hold at most that in total, and a leaf's QL `Z` is at most 24×24.

use crate::ql::{tridiag_eig_ql, EigError};
use crate::tridiag::SymTridiag;
use std::cmp::Ordering;
use tcevd_matrix::blas3::gemm;
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::{Mat, Op};
use tcevd_trace::{span, TraceSink};

/// Below this size the recursion bottoms out into QL.
const DC_BASE: usize = 24;

/// Partial sums of the secular evaluation. A fixed count, so the sums are
/// deterministic.
const SECULAR_LANES: usize = 8;

/// Columns of `U` a [`DcRows::Ends`] merge forms per panel, so it never
/// holds a k×k matrix. The GEMMs are column-local, so the bits do not
/// depend on it.
const ENDS_U_PANEL: usize = 64;

/// Which rows of each subproblem's eigenvector matrix the recursion keeps
/// (see the module docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DcRows {
    /// Every row: the full eigenvector matrix `Z`.
    All,
    /// Only `Z`'s first and last rows, the two a parent merge reads. The
    /// eigenvalues are bit-identical to [`DcRows::All`]'s.
    Ends,
}

/// Full eigendecomposition `T = Z·Λ·Zᵀ` by divide & conquer: eigenvalues
/// ascending with matching eigenvector columns.
pub fn tridiag_eig_dc<T: Scalar>(t: &SymTridiag<T>) -> Result<(Vec<T>, Mat<T>), EigError> {
    tridiag_eig_dc_with(t, &TraceSink::disabled())
}

/// [`tridiag_eig_dc`] with observability: emits a `tridiag_dc` span and,
/// summed over the rank-1 merges, counts merges (`dc_merges`), deflated
/// coordinates (`dc_deflated`), active dense columns (`dc_dense_cols`) and
/// the flops of the split eigenvector GEMMs (`kernel_flops.dc`,
/// `2·(m·k_up + (n−m)·k_dn)·k` per merge with `k` active roots, `k_up` of
/// them with a top half and `k_dn` with a bottom half). Merge sizes and
/// recursion depths go to the `dc_merge_size` and `dc_merge_depth`
/// histograms.
pub fn tridiag_eig_dc_with<T: Scalar>(
    t: &SymTridiag<T>,
    sink: &TraceSink,
) -> Result<(Vec<T>, Mat<T>), EigError> {
    tridiag_dc_with(t, DcRows::All, sink)
}

/// The D&C recursion keeping `rows` of each subproblem's eigenvector
/// matrix: returns the ascending eigenvalues with the full n×n `Z` for
/// [`DcRows::All`], or the 2×n matrix of `Z`'s rows `{0, n−1}` for
/// [`DcRows::Ends`]. Emits what [`tridiag_eig_dc_with`] emits; the flop
/// counter counts the rows actually computed.
pub fn tridiag_dc_with<T: Scalar>(
    t: &SymTridiag<T>,
    rows: DcRows,
    sink: &TraceSink,
) -> Result<(Vec<T>, Mat<T>), EigError> {
    let n = t.n();
    let _span = span!(sink, "tridiag_dc", n);
    dc_rec(&t.d, &t.e, rows, 0, sink)
}

fn dc_rec<T: Scalar>(
    d: &[T],
    e: &[T],
    rows: DcRows,
    depth: u64,
    sink: &TraceSink,
) -> Result<(Vec<T>, Mat<T>), EigError> {
    let n = d.len();
    if n <= DC_BASE {
        let (vals, z) = tridiag_eig_ql(&SymTridiag::new(d.to_vec(), e.to_vec()))?;
        return Ok((vals, keep_rows(z, rows)));
    }
    let m = n / 2;
    let rho = e[m - 1];

    // T = diag(T₁′, T₂′) + ρ·u·uᵀ, u = e_{m−1} + e_m.
    let mut d1 = d[..m].to_vec();
    d1[m - 1] -= rho;
    let mut d2 = d[m..].to_vec();
    d2[0] -= rho;

    let (r1, r2) = rayon::join(
        || dc_rec(&d1, &e[..m - 1], rows, depth + 1, sink),
        || dc_rec(&d2, &e[m..], rows, depth + 1, sink),
    );
    let (mut dvals, q1) = r1?;
    let (l2, q2) = r2?;
    sink.add("dc_merges", 1);
    sink.record("dc_merge_size", n as u64);
    sink.record("dc_merge_depth", depth);

    // D = diag(Λ₁, Λ₂); z = diag(Q₁, Q₂)ᵀ·u is the last row of Q₁ followed
    // by the first row of Q₂.
    dvals.extend_from_slice(&l2);
    let last = q1.rows() - 1;
    let z = (0..m)
        .map(|j| q1[(last, j)])
        .chain((0..n - m).map(|j| q2[(0, j)]))
        .collect();
    let (vals, out) = merge(dvals, z, rho, q1, q2, rows, sink);
    Ok((vals, keep_rows(out, rows)))
}

/// `z` itself for [`DcRows::All`]; its first and last rows for
/// [`DcRows::Ends`] (the same row twice when `z` has one).
fn keep_rows<T: Scalar>(z: Mat<T>, rows: DcRows) -> Mat<T> {
    match rows {
        DcRows::All => z,
        DcRows::Ends => {
            let last = z.rows().saturating_sub(1);
            Mat::from_fn(2, z.cols(), |r, j| z[(r * last, j)])
        }
    }
}

/// Eigendecomposition of `D + ρ·z·zᵀ`, composed with the accumulated `q`
/// (whose columns correspond to the coordinates of `D`). Returns ascending
/// eigenvalues and `q·U`.
pub fn rank1_update<T: Scalar>(dvals: Vec<T>, z: Vec<T>, rho: T, q: Mat<T>) -> (Vec<T>, Mat<T>) {
    merge(
        dvals,
        z,
        rho,
        q,
        Mat::zeros(0, 0),
        DcRows::All,
        &TraceSink::disabled(),
    )
}

/// Where one basis column of `diag(Q₁, Q₂)` lives: its top half in column
/// `top` of `Q₁`, its bottom half in column `bot` of `Q₂`. `None` is a
/// structurally zero half.
#[derive(Clone, Copy)]
struct Halves {
    top: Option<usize>,
    bot: Option<usize>,
}

/// The D&C merge: eigenvalues (ascending) and eigenvectors of `D + ρ·z·zᵀ`
/// composed with the basis `diag(q1, q2)`, whose `q1.cols() + q2.cols()`
/// columns are the coordinates of `D`. The eigenvector matrix has
/// `q1.rows() + q2.rows()` rows. `rows` only sets how many columns of `U`
/// are formed at a time: all of them for [`DcRows::All`], [`ENDS_U_PANEL`]
/// for [`DcRows::Ends`]. See the module docs for the column types and the
/// buffers alive at each step.
fn merge<T: Scalar>(
    dvals: Vec<T>,
    z: Vec<T>,
    rho: T,
    mut q1: Mat<T>,
    mut q2: Mat<T>,
    rows: DcRows,
    sink: &TraceSink,
) -> (Vec<T>, Mat<T>) {
    let n = dvals.len();
    let (r1, r2, c1) = (q1.rows(), q2.rows(), q1.cols());
    assert_eq!(
        c1 + q2.cols(),
        n,
        "merge basis needs one column per coordinate"
    );
    assert_eq!(z.len(), n, "merge z needs one entry per coordinate");

    // eig(D + ρzzᵀ) = −eig(−D + |ρ|zzᵀ): solve with ρ ≥ 0 and negate the
    // values back before the final sort.
    let flip = rho < T::ZERO;
    let rho = rho.abs();
    let dvals: Vec<T> = if flip {
        dvals.into_iter().map(|x| -x).collect()
    } else {
        dvals
    };
    let znorm2: T = z.iter().map(|&v| v * v).sum();
    let rho_eff = rho * znorm2;
    let dmax = dvals.iter().fold(T::ZERO, |m, v| m.max_val(v.abs()));
    let scale = dmax.max_val(rho_eff);

    // Sort D ascending through an index array; the basis stays in place.
    let idx = ascending(&dvals);
    let mut ds: Vec<T> = idx.iter().map(|&i| dvals[i]).collect();
    let inv_norm = if znorm2 > T::ZERO {
        T::ONE / znorm2.sqrt()
    } else {
        T::ZERO
    };
    let mut zs: Vec<T> = idx.iter().map(|&i| z[i] * inv_norm).collect();
    let mut halves: Vec<Halves> = idx
        .iter()
        .map(|&i| {
            if i < c1 {
                Halves {
                    top: Some(i),
                    bot: None,
                }
            } else {
                Halves {
                    top: None,
                    bot: Some(i - c1),
                }
            }
        })
        .collect();

    // The one output buffer. Deflated columns fill it from the right as they
    // are found; the GEMMs write the active ones from the left. `vals`
    // holds each column's eigenvalue.
    let mut out = Mat::<T>::zeros(r1 + r2, n);
    let mut vals = vec![T::ZERO; n];
    let mut first_deflated = n; // deflated columns occupy first_deflated..n

    // ---- Deflation ----
    // A negligible (or non-finite) ρ·‖z‖² deflates every coordinate.
    let rank_one_negligible =
        !rho_eff.is_finite() || rho_eff <= scale * T::EPSILON || znorm2 == T::ZERO;
    let tol = T::from_f64(8.0) * T::EPSILON * scale;
    let mut active = vec![false; n];
    for i in 0..n {
        if rank_one_negligible || (rho_eff * zs[i].abs()) <= tol {
            first_deflated -= 1;
            let (top, bot) = out.col_mut(first_deflated).split_at_mut(r1);
            if let Some(a) = halves[i].top {
                top.copy_from_slice(q1.col(a));
            }
            if let Some(b) = halves[i].bot {
                bot.copy_from_slice(q2.col(b));
            }
            vals[first_deflated] = ds[i];
        } else {
            active[i] = true;
        }
    }
    // Coalesce near-equal active d's with Givens rotations that zero one z.
    let mut prev: Option<usize> = None;
    for i in 0..n {
        if !active[i] {
            continue;
        }
        if let Some(p) = prev {
            if ds[i] - ds[p] <= tol {
                // rotate (p, i) to zero zs[p]: with G = [[c, −s], [s, c]]
                // acting on coordinates (p, i), ẑ = Gᵀz has
                // ẑ_p = c·z_p + s·z_i = 0 for c = z_i/r, s = −z_p/r.
                let r = zs[p].hypot(zs[i]);
                let c = zs[i] / r;
                let s = -zs[p] / r;
                zs[i] = r;
                zs[p] = T::ZERO;
                // exact diagonal of the rotated 2×2 block
                let (dp, di) = (ds[p], ds[i]);
                ds[p] = c * c * dp + s * s * di;
                ds[i] = s * s * dp + c * c * di;
                // rotate the basis columns: [p, i] ← [c·p + s·i, −s·p + c·i].
                // p is deflated, so its new column goes straight to `out`.
                first_deflated -= 1;
                let (top, bot) = out.col_mut(first_deflated).split_at_mut(r1);
                let (hp, hi) = (halves[p], halves[i]);
                halves[i] = Halves {
                    top: rotate_pair(&mut q1, hp.top, hi.top, c, s, top),
                    bot: rotate_pair(&mut q2, hp.bot, hi.bot, c, s, bot),
                };
                vals[first_deflated] = ds[p];
                active[p] = false;
            }
        }
        prev = Some(i);
    }

    let act: Vec<usize> = (0..n).filter(|&i| active[i]).collect();
    let kk = act.len();
    let da: Vec<T> = act.iter().map(|&i| ds[i]).collect();
    let za: Vec<T> = act.iter().map(|&i| zs[i]).collect();
    let zsum2: T = za.iter().map(|&v| v * v).sum();

    // ---- Secular equation per active root ----
    // root k lies in (da[k], da[k+1]); last root in (da[K−1], da[K−1] + ρ·Σz²).
    let roots: Vec<(usize, T)> = (0..kk)
        .map(|k| secular_root(&da, &za, rho_eff, zsum2, k))
        .collect();

    // ---- Löwner ẑ for orthogonal eigenvectors ----
    // ẑ_i² = (λ_i − d_i)·∏_{k<i}[(λ_k−d_i)/(d_k−d_i)]·∏_{k>i}[(λ_k−d_i)/(d_k−d_i)]
    let lam_minus_d = |k: usize, i: usize| -> T {
        let (org, mu) = roots[k];
        (da[org] - da[i]) + mu
    };
    let mut zt = vec![T::ZERO; kk];
    for i in 0..kk {
        let mut prod = lam_minus_d(i, i);
        for k in 0..kk {
            if k != i {
                prod *= lam_minus_d(k, i) / (da[k] - da[i]);
            }
        }
        zt[i] = prod.abs().sqrt().copysign(za[i]);
    }

    // Order U's rows by column type — top-only, dense, bottom-only —
    // so each block's GEMM reads one contiguous row range of U.
    let mut by_type: Vec<usize> = (0..kk).collect();
    by_type.sort_by_key(|&j| match halves[act[j]] {
        Halves { bot: None, .. } => 0,
        Halves { top: None, .. } => 2,
        _ => 1,
    });
    let mut row = vec![0; kk];
    for (r, &j) in by_type.iter().enumerate() {
        row[j] = r;
    }

    // Gather each block's active halves to its front in U's row order.
    let tops: Vec<usize> = by_type.iter().filter_map(|&j| halves[act[j]].top).collect();
    let bots: Vec<usize> = by_type.iter().filter_map(|&j| halves[act[j]].bot).collect();
    let (k_up, k_dn) = (tops.len(), bots.len());
    gather_cols(&mut q1, &tops);
    gather_cols(&mut q2, &bots);

    // Compose out[:, 0..k] = diag(Q₁, Q₂)·U as two GEMMs per panel of U's
    // columns: eigenvectors in active-coordinate space, rows permuted by
    // `row`.
    let panel = match rows {
        DcRows::All => kk,
        DcRows::Ends => ENDS_U_PANEL.min(kk),
    };
    let mut u = Mat::<T>::zeros(kk, panel);
    for j0 in (0..kk).step_by(panel.max(1)) {
        let pw = panel.min(kk - j0);
        for c in 0..pw {
            let col = u.col_mut(c);
            let mut norm2 = T::ZERO;
            for i in 0..kk {
                let v = zt[i] / lam_minus_d(j0 + c, i);
                col[row[i]] = v;
                norm2 += v * v;
            }
            let inv = T::ONE / norm2.sqrt();
            for v in col.iter_mut() {
                *v *= inv;
            }
        }
        if r1 > 0 && k_up > 0 {
            gemm(
                T::ONE,
                q1.view(0, 0, r1, k_up),
                Op::NoTrans,
                u.view(0, 0, k_up, pw),
                Op::NoTrans,
                T::ZERO,
                out.view_mut(0, j0, r1, pw),
            );
        }
        if r2 > 0 && k_dn > 0 {
            gemm(
                T::ONE,
                q2.view(0, 0, r2, k_dn),
                Op::NoTrans,
                u.view(kk - k_dn, 0, k_dn, pw),
                Op::NoTrans,
                T::ZERO,
                out.view_mut(r1, j0, r2, pw),
            );
        }
    }
    for (k, &(org, mu)) in roots.iter().enumerate() {
        vals[k] = da[org] + mu;
    }
    drop((q1, q2, u)); // only the output lives on
    sink.add("dc_deflated", (n - kk) as u64);
    sink.add("dc_dense_cols", (k_up + k_dn - kk) as u64);
    sink.add(
        "kernel_flops.dc",
        2 * (r1 * k_up + r2 * k_dn) as u64 * kk as u64,
    );

    // Sort the columns by eigenvalue in place.
    if flip {
        vals.iter_mut().for_each(|v| *v = -*v);
    }
    let order = ascending(&vals);
    gather_cols(&mut out, &order);
    (order.iter().map(|&i| vals[i]).collect(), out)
}

/// The indices of `v` in ascending order of value (a stable sort).
fn ascending<T: Scalar>(v: &[T]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal));
    idx
}

/// Rotate the halves that one block holds of basis columns `p` and `i`,
/// `[p, i] ← [c·p + s·i, −s·p + c·i]`. The new `p` half is written to
/// `p_out`; the new `i` half stays in `q`, in the column returned. When only
/// one of the two has a half in this block, that column is reused for `i`.
fn rotate_pair<T: Scalar>(
    q: &mut Mat<T>,
    p: Option<usize>,
    i: Option<usize>,
    c: T,
    s: T,
    p_out: &mut [T],
) -> Option<usize> {
    match (p, i) {
        (Some(a), Some(b)) => {
            let (qa, qb) = col_pair_mut(q, a, b);
            for ((o, x), y) in p_out.iter_mut().zip(qa.iter()).zip(qb.iter_mut()) {
                let (xp, xi) = (*x, *y);
                *o = c * xp + s * xi;
                *y = -s * xp + c * xi;
            }
            Some(b)
        }
        (Some(a), None) => {
            for (o, x) in p_out.iter_mut().zip(q.col_mut(a)) {
                let xp = *x;
                *o = c * xp;
                *x = -s * xp;
            }
            Some(a)
        }
        (None, Some(b)) => {
            for (o, y) in p_out.iter_mut().zip(q.col_mut(b)) {
                let xi = *y;
                *o = s * xi;
                *y = c * xi;
            }
            Some(b)
        }
        (None, None) => None,
    }
}

/// Columns `a` and `b` (`a ≠ b`) of `q`, both mutable.
fn col_pair_mut<T: Scalar>(q: &mut Mat<T>, a: usize, b: usize) -> (&mut [T], &mut [T]) {
    let r = q.rows();
    let data = q.as_mut_slice();
    if a < b {
        let (lo, hi) = data.split_at_mut(b * r);
        (&mut lo[a * r..(a + 1) * r], &mut hi[..r])
    } else {
        let (lo, hi) = data.split_at_mut(a * r);
        (&mut hi[..r], &mut lo[b * r..(b + 1) * r])
    }
}

/// Reorder the columns of `q` in place so that column `t` holds what was
/// column `src[t]` (`src` distinct). Columns past `src.len()` keep the
/// displaced columns in no particular order.
fn gather_cols<T: Scalar>(q: &mut Mat<T>, src: &[usize]) {
    let mut at: Vec<usize> = (0..q.cols()).collect(); // original column at each slot
    let mut pos = at.clone(); // slot of each original column
    for (t, &s) in src.iter().enumerate() {
        let from = pos[s];
        if from != t {
            let (dst, cur) = col_pair_mut(q, t, from);
            dst.swap_with_slice(cur);
            let displaced = at[t];
            (at[from], pos[displaced]) = (displaced, from);
            (at[t], pos[s]) = (s, t);
        }
    }
}

/// Solve `1 + ρ·Σ zᵢ²/(dᵢ − λ) = 0` for the k-th root.
/// Returns `(origin_index, mu)` with `λ = d[origin] + mu`, so callers can
/// form `λ − dᵢ` without cancellation.
fn secular_root<T: Scalar>(d: &[T], z: &[T], rho: T, zsum2: T, k: usize) -> (usize, T) {
    let kk = d.len();
    debug_assert!(rho > T::ZERO);

    // f as a function of λ = d[org] + mu. Returns (f, f', Σ|terms|): the
    // magnitude sum bounds the evaluation noise, giving a reliable stopping
    // criterion even when huge pole terms cancel. Each sum runs in
    // SECULAR_LANES partial sums (independent chains the compiler turns into
    // vector divides and adds), reduced left to right, then the remainder
    // in order. Each sum gets its own pass over the lanes: folded into one
    // loop, the compiler pairs f's lanes with the magnitude's and loses
    // the full-width vector form.
    const L: usize = SECULAR_LANES;
    let body = kk - kk % L;
    let eval = |org: usize, mu: T| -> (T, T, T) {
        let inv_rho = T::ONE / rho;
        let dorg = d[org];
        let (mut fl, mut fpl, mut magl) = ([T::ZERO; L], [T::ZERO; L], [T::ZERO; L]);
        for (dc, zc) in d[..body].chunks_exact(L).zip(z[..body].chunks_exact(L)) {
            let (Ok(dc), Ok(zc)) = (<&[T; L]>::try_from(dc), <&[T; L]>::try_from(zc)) else {
                continue; // unreachable: chunks_exact yields L-length slices
            };
            let (mut w, mut t) = ([T::ZERO; L], [T::ZERO; L]);
            for l in 0..L {
                w[l] = zc[l] / ((dc[l] - dorg) - mu); // z_i / (d_i − λ)
                t[l] = zc[l] * w[l];
            }
            for l in 0..L {
                fl[l] += t[l];
            }
            for l in 0..L {
                fpl[l] += w[l] * w[l];
            }
            for l in 0..L {
                magl[l] += t[l].abs();
            }
        }
        let tail = || (body..kk).map(|i| z[i] / ((d[i] - dorg) - mu));
        let f = fl.iter().fold(inv_rho, |s, &v| s + v);
        let f = tail().zip(&z[body..]).fold(f, |s, (w, &zi)| s + zi * w);
        let fp = fpl.iter().fold(T::ZERO, |s, &v| s + v);
        let fp = tail().fold(fp, |s, w| s + w * w);
        let mag = magl.iter().fold(inv_rho.abs(), |s, &v| s + v);
        let mag = tail()
            .zip(&z[body..])
            .fold(mag, |s, (w, &zi)| s + (zi * w).abs());
        (f * rho, fp * rho, mag * rho)
    };

    if kk == 1 {
        // exact: λ = d₀ + ρ·z² (z normalized ⇒ z² = zsum2)
        return (0, rho * zsum2);
    }

    let (org, mut lo, mut hi) = if k + 1 < kk {
        // interior root in (d[k], d[k+1])
        let gap = d[k + 1] - d[k];
        let (fmid, _, _) = eval(k, gap * T::HALF);
        if fmid >= T::ZERO {
            // root in the left half — anchor at d[k]
            (k, T::ZERO, gap * T::HALF)
        } else {
            // anchor at d[k+1], μ negative
            (k + 1, -(gap * T::HALF), T::ZERO)
        }
    } else {
        // last root in (d[K−1], d[K−1] + ρ·Σz²)
        let mut hi = rho * zsum2;
        // widen until f(hi) ≥ 0 (guards rounding in the bound)
        for _ in 0..8 {
            if eval(kk - 1, hi).0 >= T::ZERO {
                break;
            }
            hi *= T::TWO;
        }
        (kk - 1, T::ZERO, hi)
    };

    // Safeguarded Newton within (lo, hi), μ ≠ 0 (poles at the interval
    // ends). Stop at the evaluation noise floor |f| ≤ O(eps)·Σ|terms| —
    // bracket width alone is unreliable because one-sided Newton
    // convergence may never shrink the far endpoint.
    let mut mu = (lo + hi) * T::HALF;
    for _ in 0..200 {
        let (f, fp, mag) = eval(org, mu);
        if !f.is_finite() {
            mu = (lo + hi) * T::HALF;
            continue;
        }
        let noise = T::from_f64(8.0) * T::EPSILON * mag;
        if f.abs() <= noise || fp <= T::ZERO {
            break;
        }
        // shrink the bracket
        if f > T::ZERO {
            hi = mu;
        } else {
            lo = mu;
        }
        let step = -f / fp;
        let mut next = mu + step;
        if !(next > lo && next < hi && next.is_finite()) {
            next = (lo + hi) * T::HALF; // bisection fallback
        }
        if next == mu {
            break; // no representable progress
        }
        mu = next;
    }
    (org, mu)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ql::tridiag_eigenvalues;
    use crate::reference::tridiagonalize;
    use tcevd_matrix::norms::orthogonality_residual;
    use tcevd_testmat::{generate, MatrixType};

    fn laplacian(n: usize) -> SymTridiag<f64> {
        SymTridiag::new(vec![2.0; n], vec![-1.0; n - 1])
    }

    fn rand_tridiag(n: usize, seed: u64) -> SymTridiag<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        SymTridiag::new(
            (0..n).map(|_| next()).collect(),
            (0..n - 1).map(|_| next()).collect(),
        )
    }

    fn check_eig(t: &SymTridiag<f64>, tol_rel: f64) {
        let n = t.n();
        let (vals, z) = tridiag_eig_dc(t).unwrap();
        // errors are relative to the spectrum scale (deflation, like
        // LAPACK's, works to an absolute tolerance ~eps·‖T‖)
        let scale = vals.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let tol = tol_rel * scale;
        // ascending
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + tol);
        }
        // matches QL eigenvalues
        let ql = tridiag_eigenvalues(t).unwrap();
        for (a, b) in vals.iter().zip(ql.iter()) {
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
        // orthogonal eigenvectors
        let ortho = orthogonality_residual(z.as_ref());
        assert!(ortho < tol * n as f64, "orthogonality {ortho}");
        // residual ‖T·z − λ·z‖ per pair
        for (k, &val) in vals.iter().enumerate() {
            let x: Vec<f64> = z.col(k).to_vec();
            let y = t.mul_vec(&x);
            for i in 0..n {
                assert!(
                    (y[i] - val * x[i]).abs() < tol * 10.0,
                    "residual at k={k} i={i}: {} vs {}",
                    y[i],
                    val * x[i]
                );
            }
        }
    }

    #[test]
    fn base_case_sizes() {
        check_eig(&laplacian(8), 1e-12);
        check_eig(&rand_tridiag(16, 1), 1e-12);
    }

    #[test]
    fn one_merge_level() {
        check_eig(&laplacian(40), 1e-11);
        check_eig(&rand_tridiag(40, 2), 1e-11);
    }

    #[test]
    fn deep_recursion() {
        check_eig(&laplacian(150), 1e-10);
        check_eig(&rand_tridiag(150, 3), 1e-10);
    }

    #[test]
    fn negative_rho_paths() {
        // laplacian has e = −1 < 0 at every tear: exercised above; here an
        // explicitly mixed-sign off-diagonal
        let mut t = rand_tridiag(60, 4);
        for (i, e) in t.e.iter_mut().enumerate() {
            *e = if i % 2 == 0 { 0.5 } else { -0.5 };
        }
        check_eig(&t, 1e-11);
    }

    #[test]
    fn heavy_deflation_zero_offdiag() {
        // e = 0 at the tear → everything deflates
        let mut t = rand_tridiag(50, 5);
        t.e[25 - 1] = 0.0;
        check_eig(&t, 1e-11);
    }

    #[test]
    fn clustered_eigenvalues() {
        // near-identical diagonal with tiny couplings → massive deflation +
        // close secular poles
        let n = 64;
        let d = vec![1.0; n];
        let e = vec![1e-9; n - 1];
        let t = SymTridiag::new(d, e);
        let (vals, z) = tridiag_eig_dc(&t).unwrap();
        for v in &vals {
            assert!((v - 1.0).abs() < 1e-7);
        }
        assert!(orthogonality_residual(z.as_ref()) < 1e-10 * n as f64);
    }

    #[test]
    fn wide_dynamic_range() {
        let n = 48;
        let d: Vec<f64> = (0..n).map(|i| 2f64.powi((i as i32) - 24)).collect();
        let e = vec![1e-8; n - 1];
        let t = SymTridiag::new(d, e);
        check_eig(&t, 1e-9);
    }

    #[test]
    fn f32_pipeline_precision() {
        let n = 80;
        let t64 = rand_tridiag(n, 6);
        let t32 = SymTridiag::new(
            t64.d.iter().map(|&x| x as f32).collect(),
            t64.e.iter().map(|&x| x as f32).collect(),
        );
        let (vals32, z32) = tridiag_eig_dc(&t32).unwrap();
        let vals64 = tridiag_eigenvalues(&t64).unwrap();
        let scale = vals64.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in vals32.iter().zip(vals64.iter()) {
            assert!(((*a as f64) - b).abs() < 1e-5 * scale.max(1.0));
        }
        assert!(orthogonality_residual(z32.as_ref()) < 1e-4 * n as f32);
    }

    #[test]
    fn rank1_update_standalone() {
        // D + ρzzᵀ with known answer: D = 0, z = e₁ → eigenvalues {ρ, 0...}
        let n = 5;
        let mut z = vec![0.0; n];
        z[0] = 1.0;
        let (vals, q) = rank1_update(vec![0.0; n], z, 2.5, Mat::identity(n, n));
        assert!((vals[n - 1] - 2.5).abs() < 1e-14);
        for v in &vals[..n - 1] {
            assert!(v.abs() < 1e-14);
        }
        assert!(orthogonality_residual(q.as_ref()) < 1e-13);
    }

    #[test]
    fn secular_interlacing() {
        // roots of 1 + ρΣz²/(d−λ) strictly interlace the poles
        let d = vec![0.0, 1.0, 2.0, 3.0];
        let z = vec![0.5; 4];
        let zsum2: f64 = 1.0;
        let rho = 1.3;
        for k in 0..4 {
            let (org, mu) = secular_root(&d, &z, rho, zsum2, k);
            let lam = d[org] + mu;
            assert!(lam > d[k], "k={k} lam={lam}");
            if k + 1 < 4 {
                assert!(lam < d[k + 1], "k={k} lam={lam}");
            } else {
                assert!(lam < d[3] + rho * zsum2 * 1.01);
            }
        }
    }

    /// The constant `c` of the accuracy bound `c·n·u·‖T‖` every check
    /// below uses (`c·n·u` for orthogonality), with `u` the unit roundoff
    /// of the precision under test.
    const C: f64 = 4.0;

    /// `‖T‖₁` (= `‖T‖∞`, T symmetric).
    fn norm1(t: &SymTridiag<f64>) -> f64 {
        let n = t.n();
        (0..n)
            .map(|i| {
                let left = if i > 0 { t.e[i - 1].abs() } else { 0.0 };
                let right = if i + 1 < n { t.e[i].abs() } else { 0.0 };
                left + t.d[i].abs() + right
            })
            .fold(0.0, f64::max)
    }

    /// Run `tridiag_eig_dc_with` in precision `T` on `t64` and return its
    /// largest eigenvalue error against the f64 QL reference, its largest
    /// eigenpair residual `‖T·z − λ·z‖₂` (both over `n·u·‖T‖₁`) and its
    /// orthogonality loss `‖ZᵀZ − I‖_F` over `n·u`.
    fn error_ratios<T: Scalar>(t64: &SymTridiag<f64>, sink: &TraceSink) -> [f64; 3] {
        let n = t64.n();
        let t = SymTridiag::new(
            t64.d.iter().map(|&x| T::from_f64(x)).collect(),
            t64.e.iter().map(|&x| T::from_f64(x)).collect(),
        );
        let (vals, z) = tridiag_eig_dc_with(&t, sink).unwrap();
        let reference = tridiag_eigenvalues(t64).unwrap();
        let nu = n as f64 * T::EPSILON.to_f64();
        let bound = nu * norm1(t64).max(f64::MIN_POSITIVE);
        let val_err = vals
            .iter()
            .zip(&reference)
            .map(|(v, r)| (v.to_f64() - r).abs())
            .fold(0.0, f64::max);
        let z64: Mat<f64> = z.cast();
        let resid = (0..n)
            .map(|k| {
                let x = z64.col(k);
                let y = t64.mul_vec(x);
                let lam = vals[k].to_f64();
                y.iter()
                    .zip(x)
                    .map(|(yi, xi)| (yi - lam * xi).powi(2))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(0.0, f64::max);
        let orth = orthogonality_residual(z64.as_ref());
        [val_err / bound, resid / bound, orth / nu]
    }

    /// [`error_ratios`] in f32 and f64, each held to `C`; returns the f64
    /// run's counters.
    fn check_bound(t64: &SymTridiag<f64>, tag: &str) -> TraceSink {
        let sink32 = TraceSink::enabled();
        let sink64 = TraceSink::enabled();
        for (prec, r) in [
            ("f32", error_ratios::<f32>(t64, &sink32)),
            ("f64", error_ratios::<f64>(t64, &sink64)),
        ] {
            for (what, ratio) in ["eigenvalue", "residual", "orthogonality"].iter().zip(r) {
                assert!(
                    ratio <= C,
                    "{tag} {prec}: {what} error is {ratio} × n·u·‖T‖"
                );
            }
        }
        sink64
    }

    /// A tridiagonal of size `n` whose two D&C halves (sizes ⌊n/2⌋ and
    /// ⌈n/2⌉) share ⌊n/2⌋ eigenvalues: the second half mirrors the first
    /// (odd `n` adds one decoupled diagonal entry), and the tear carries
    /// `rho`. Every shared pair deflates through a cross-block rotation.
    fn mirrored(n: usize, rho: f64, seed: u64) -> SymTridiag<f64> {
        let m = n / 2;
        let half = rand_tridiag(m, seed);
        let mut d = half.d.clone();
        d.extend(half.d.iter().rev());
        let mut e = half.e.clone();
        e.push(rho);
        e.extend(half.e.iter().rev());
        if n % 2 == 1 {
            d.push(0.25);
            e.push(0.0);
        }
        SymTridiag::new(d, e)
    }

    #[test]
    fn cross_block_deflation_makes_dense_columns() {
        for n in [DC_BASE + 1, 2 * DC_BASE + 1, 2 * DC_BASE + 2, 100] {
            for rho in [0.75, -0.75] {
                let tag = format!("mirrored n={n} rho={rho}");
                let sink = check_bound(&mirrored(n, rho, n as u64), &tag);
                assert!(
                    sink.counter("dc_dense_cols") > 0,
                    "{tag}: no cross-block rotation ran"
                );
                assert!(sink.counter("dc_deflated") > 0, "{tag}");
            }
        }
    }

    #[test]
    fn all_deflated_merges() {
        // one merge each (n ≤ 2·DC_BASE): an exact-zero tear and a tear far
        // below the deflation tolerance both deflate every coordinate
        for n in [DC_BASE + 1, 2 * DC_BASE] {
            for rho in [0.0, 1e-30, -1e-30] {
                let mut t = rand_tridiag(n, 11);
                t.e[n / 2 - 1] = rho;
                let tag = format!("torn n={n} rho={rho}");
                let sink = check_bound(&t, &tag);
                assert_eq!(sink.counter("dc_merges"), 1, "{tag}");
                assert_eq!(sink.counter("dc_deflated"), n as u64, "{tag}");
                assert_eq!(sink.counter("kernel_flops.dc"), 0, "{tag}");
            }
        }
        // every off-diagonal zero: each merge of a deep recursion is trivial
        let mut t = rand_tridiag(150, 12);
        t.e.iter_mut().for_each(|e| *e = 0.0);
        let sink = check_bound(&t, "diagonal n=150");
        let merged = sink.histograms()["dc_merge_size"].sum;
        assert_eq!(sink.counter("dc_deflated"), merged);
        assert_eq!(sink.counter("kernel_flops.dc"), 0);
    }

    #[test]
    fn testmat_families_within_bound() {
        for (name, mt) in MatrixType::paper_suite() {
            for n in [DC_BASE + 1, 2 * DC_BASE + 1, 130] {
                let (t, _) = tridiagonalize(&generate(n, mt, 5), false);
                check_bound(&t, &format!("{name} n={n}"));
            }
        }
        check_bound(&laplacian(200), "laplacian n=200");
        let mut t = rand_tridiag(120, 13);
        t.e.iter_mut().for_each(|e| *e = -e.abs());
        check_bound(&t, "negative off-diagonals n=120");
    }

    #[test]
    fn split_gemm_flops_are_counted() {
        // a random tridiagonal's single merge (n = 2·DC_BASE) deflates
        // nothing: both GEMMs see every root, k_up = k_dn = m = n/2, k = n
        let n = 2 * DC_BASE;
        let sink = check_bound(&rand_tridiag(n, 14), "random n=48");
        assert_eq!(sink.counter("dc_merges"), 1);
        assert_eq!(sink.counter("dc_deflated"), 0);
        assert_eq!(sink.counter("dc_dense_cols"), 0);
        let (n, m) = (n as u64, (n / 2) as u64);
        assert_eq!(sink.counter("kernel_flops.dc"), 2 * (m * m + m * m) * n);
    }

    /// The five families the values-only setting is held to, at size `n`
    /// (any n ≥ 0): random, the 1-D Laplacian, Wilkinson's W⁺, Wilkinson
    /// blocks glued by 1e-7 couplings, and a cluster whose merges deflate
    /// almost everything.
    fn families(n: usize) -> Vec<(&'static str, SymTridiag<f64>)> {
        let tri = |d: Vec<f64>, e: Vec<f64>| SymTridiag::new(d, e);
        let off = |v: f64| vec![v; n.saturating_sub(1)];
        let random = if n == 0 {
            tri(vec![], vec![])
        } else {
            rand_tridiag(n, 40 + n as u64)
        };
        let half = (n as f64 - 1.0) / 2.0;
        let glue = 21; // glued W⁺₂₁ blocks
        let glued_e = (0..n.saturating_sub(1))
            .map(|i| if i % glue == glue - 1 { 1e-7 } else { 1.0 })
            .collect();
        vec![
            ("random", random),
            ("laplacian", tri(vec![2.0; n], off(-1.0))),
            (
                "wilkinson",
                tri((0..n).map(|i| (i as f64 - half).abs()).collect(), off(1.0)),
            ),
            (
                "glued",
                tri(
                    (0..n)
                        .map(|i| ((i % glue) as f64 - (glue as f64 - 1.0) / 2.0).abs())
                        .collect(),
                    glued_e,
                ),
            ),
            (
                "clustered",
                tri(
                    (0..n).map(|i| 1.0 + 1e-12 * (i % 3) as f64).collect(),
                    off(1e-9),
                ),
            ),
        ]
    }

    /// [`DcRows::Ends`] returns [`DcRows::All`]'s eigenvalues and rows
    /// `{0, n−1}` of its `Z`, bit for bit.
    fn check_ends_match_all<T: Scalar>(t64: &SymTridiag<f64>, tag: &str) {
        let t = SymTridiag::new(
            t64.d.iter().map(|&x| T::from_f64(x)).collect(),
            t64.e.iter().map(|&x| T::from_f64(x)).collect(),
        );
        let sink = TraceSink::disabled();
        let (vals, z) = tridiag_dc_with(&t, DcRows::All, &sink).unwrap();
        let (ends_vals, ends) = tridiag_dc_with(&t, DcRows::Ends, &sink).unwrap();
        let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&vals), bits(&ends_vals), "{tag}: eigenvalues");
        let n = t.n();
        assert_eq!((ends.rows(), ends.cols()), (2, n), "{tag}");
        for (r, row) in [0, n.saturating_sub(1)].into_iter().enumerate() {
            let want: Vec<T> = (0..n).map(|j| z[(row, j)]).collect();
            let got: Vec<T> = (0..n).map(|j| ends[(r, j)]).collect();
            assert_eq!(bits(&want), bits(&got), "{tag}: row {row}");
        }
    }

    #[test]
    fn ends_rows_are_bit_identical_to_the_full_solve() {
        let sizes = [
            0,
            1,
            2,
            3,
            DC_BASE,
            DC_BASE + 1,
            2 * DC_BASE,
            2 * DC_BASE + 1,
            1024,
        ];
        for n in sizes {
            for (name, t) in families(n) {
                check_ends_match_all::<f32>(&t, &format!("f32 {name} n={n}"));
                check_ends_match_all::<f64>(&t, &format!("f64 {name} n={n}"));
            }
        }
    }

    #[test]
    fn ends_rows_count_only_the_rows_they_compute() {
        // one undeflated merge of two 24-row halves: the Ends setting's
        // GEMMs have r₁ = r₂ = 2 rows where the full solve's have m
        let n = 2 * DC_BASE;
        let t = rand_tridiag(n, 14);
        let all = TraceSink::enabled();
        let ends = TraceSink::enabled();
        tridiag_dc_with(&t, DcRows::All, &all).unwrap();
        tridiag_dc_with(&t, DcRows::Ends, &ends).unwrap();
        for c in ["dc_merges", "dc_deflated", "dc_dense_cols"] {
            assert_eq!(all.counter(c), ends.counter(c), "{c}");
        }
        let (n, m) = (n as u64, (n / 2) as u64);
        assert_eq!(all.counter("kernel_flops.dc"), 2 * (m * m + m * m) * n);
        assert_eq!(ends.counter("kernel_flops.dc"), 2 * (2 * m + 2 * m) * n);
    }

    #[test]
    fn rank1_update_composes_with_q() {
        // D + ρzzᵀ with repeated d's (same-block rotations) and ρ < 0,
        // composed with an orthogonal q: the result is q times the result
        // for q = I, and (D + ρzzᵀ)·U = U·Λ.
        let n = 30;
        let d: Vec<f64> = (0..n).map(|i| (i / 3) as f64 * 0.5).collect();
        let z: Vec<f64> = (0..n).map(|i| 0.1 + 0.03 * i as f64).collect();
        let rho = -0.7;
        let (_, q) = tridiag_eig_dc(&rand_tridiag(n, 15)).unwrap();
        let (vals, u) = rank1_update(d.clone(), z.clone(), rho, Mat::identity(n, n));
        let (vals_q, qu) = rank1_update(d.clone(), z.clone(), rho, q.clone());
        let bound =
            C * n as f64 * f64::EPSILON * (2.0 + rho.abs() * z.iter().map(|v| v * v).sum::<f64>());
        for w in vals.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for (a, b) in vals.iter().zip(&vals_q) {
            assert_eq!(a, b);
        }
        let want = tcevd_matrix::blas3::matmul(q.as_ref(), Op::NoTrans, u.as_ref(), Op::NoTrans);
        assert!(
            want.max_abs_diff(&qu) <= bound,
            "q·U differs by {}",
            want.max_abs_diff(&qu)
        );
        for (k, &lam) in vals.iter().enumerate() {
            let x = u.col(k);
            let zx: f64 = z.iter().zip(x).map(|(a, b)| a * b).sum();
            let r = (0..n)
                .map(|i| (d[i] * x[i] + rho * z[i] * zx - lam * x[i]).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(r <= bound, "residual {r} at k={k}");
        }
        assert!(orthogonality_residual(u.as_ref()) <= C * n as f64 * f64::EPSILON);
    }
}
