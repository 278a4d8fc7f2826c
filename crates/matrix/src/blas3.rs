//! Matrix–matrix (BLAS-3) kernels: a BLIS-style packed, cache-blocked GEMM
//! plus the symmetric rank-2k update and the triangular solve the
//! factorizations need.
//!
//! [`gemm`] follows the standard three-level BLIS decomposition: `op(A)` is
//! packed into row-major MR-strips and `op(B)` into column-major NR-strips
//! ([`crate::pack`]), and a register-tiled MR×NR microkernel
//! ([`crate::microkernel`]) walks KC-deep panels of the packed operands.
//! Packing makes all four `Op` combinations equally fast (no strided inner
//! loops) and provides the fused per-element transform seam
//! ([`gemm_with`]) that the Tensor-Core engines use for fp16/tf32
//! truncation. The pre-packing loop nest survives as [`reference::gemm`] —
//! the test oracle and the baseline the `reproduce gemm` bench measures
//! against.
//!
//! Parallelism: workers receive *disjoint column chunks* of the output
//! through [`for_col_chunks`] — safe code, no raw-pointer sharing — while
//! both packed buffers are built once up front and shared read-only. The
//! chunk partition is fixed by the output shape, chunk boundaries align
//! with NR-strips, and the microkernel accumulates in one fixed order, so
//! results are bit-identical at every thread count.

// Index-based loops mirror the BLAS/LAPACK reference formulations these
// kernels follow; iterator rewrites obscure the subscript arithmetic.
#![allow(clippy::needless_range_loop)]

use crate::blas1::{axpy, dot};
use crate::blas2::{trsv, Op};
use crate::mat::{Mat, MatMut, MatRef};
use crate::pack;
use crate::scalar::Scalar;

/// Column chunk processed per task; a multiple of every tile's NR, so
/// chunk boundaries align with NR-strips.
const NC: usize = 32;
/// Below this many flops a GEMM runs serially (rayon overhead dominates).
const PAR_FLOP_THRESHOLD: usize = 1 << 19;

/// Whether a GEMM of shape m×n×k clears the parallel flop threshold.
/// Computed with checked multiplies: `2·m·n·k` in bare `usize` arithmetic
/// overflows (and panics under debug assertions) for large synthetic
/// shapes, and any product too big for `usize` certainly clears the bar.
#[inline]
fn parallel_worthwhile(m: usize, n: usize, k: usize) -> bool {
    m.checked_mul(n)
        .and_then(|mn| mn.checked_mul(k))
        .and_then(|mnk| mnk.checked_mul(2))
        .is_none_or(|flops| flops >= PAR_FLOP_THRESHOLD)
}

/// Dimensions of `op(A)`.
#[inline]
fn op_dims<T: Scalar>(a: &MatRef<'_, T>, op: Op) -> (usize, usize) {
    match op {
        Op::NoTrans => (a.rows(), a.cols()),
        Op::Trans => (a.cols(), a.rows()),
    }
}

/// Split `c` into chunk-aligned column blocks of at most `chunk` columns
/// and run `f` on each, fanned out across the thread pool when `parallel`
/// is set. `f` receives the global starting column of its chunk.
///
/// The partition — blocks starting at multiples of `chunk`, the last one
/// possibly short — is fixed by the matrix shape alone, and each block is
/// processed with identical arithmetic whether it runs inline or on a
/// worker, so results are bit-identical at every thread count. (This is
/// the same partition the previous recursive-halving formulation produced,
/// since its midpoints were always chunk-aligned.)
pub fn for_col_chunks<T: Scalar>(
    c: MatMut<'_, T>,
    chunk: usize,
    parallel: bool,
    f: &(impl Fn(usize, MatMut<'_, T>) + Sync),
) {
    let chunk = chunk.max(1);
    if !parallel {
        let mut rest = c;
        let mut j0 = 0;
        while rest.cols() > chunk {
            let (l, r) = rest.split_cols_at(chunk);
            f(j0, l);
            j0 += chunk;
            rest = r;
        }
        f(j0, rest);
        return;
    }
    let mut tasks: Vec<(usize, MatMut<'_, T>)> = Vec::new();
    let mut rest = c;
    let mut j0 = 0;
    while rest.cols() > chunk {
        let (l, r) = rest.split_cols_at(chunk);
        tasks.push((j0, l));
        j0 += chunk;
        rest = r;
    }
    tasks.push((j0, rest));
    rayon::for_each_chunk(tasks, &|(j0, cc)| f(j0, cc));
}

/// Apply the `beta·C` part of a GEMM to one column chunk: `beta = 0`
/// overwrites (even NaN), `beta = 1` is a no-op, anything else scales.
fn scale_cols<T: Scalar>(beta: T, cc: &mut MatMut<'_, T>) {
    if beta == T::ZERO {
        cc.fill(T::ZERO);
    } else if beta != T::ONE {
        for j in 0..cc.cols() {
            for v in cc.col_mut(j) {
                *v *= beta;
            }
        }
    }
}

/// General matrix multiply–accumulate:
/// `C ← alpha·op(A)·op(B) + beta·C`.
///
/// Shapes: `op(A)` is m×k, `op(B)` is k×n, `C` is m×n.
pub fn gemm<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    op_a: Op,
    b: MatRef<'_, T>,
    op_b: Op,
    beta: T,
    c: MatMut<'_, T>,
) {
    gemm_with(alpha, a, op_a, b, op_b, beta, c, &|x| x);
}

/// [`gemm`] with a fused per-element operand transform:
/// `C ← alpha·op(t(A))·op(t(B)) + beta·C`, where `t` is applied to every
/// element of `A` and `B` exactly once, while it is packed — before any
/// arithmetic. This is how the Tensor-Core engines inject fp16/tf32
/// rounding without materializing truncated operand copies
/// (`tcevd-tensorcore`); `t` never touches `C` or the accumulation.
///
/// Implementation: the three-level packed BLIS decomposition. Both packed
/// buffers are built once, sequentially, before the parallel fan-out; the
/// column-chunk workers then walk KC-panels × MC-row-blocks × NR/MR tiles
/// in a fixed order, so the result is bit-identical at every thread count.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    op_a: Op,
    b: MatRef<'_, T>,
    op_b: Op,
    beta: T,
    c: MatMut<'_, T>,
    transform: &impl Fn(T) -> T,
) {
    gemm_packed(alpha, a, op_a, b, op_b, beta, c, transform, true);
}

/// [`gemm`] on the calling thread alone, with the same bits. For callers
/// that issue many small GEMMs in sequence, where a fork per call costs
/// more than it saves: the bulge chase's compact-WY groups.
pub fn gemm_serial<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    op_a: Op,
    b: MatRef<'_, T>,
    op_b: Op,
    beta: T,
    c: MatMut<'_, T>,
) {
    gemm_packed(alpha, a, op_a, b, op_b, beta, c, &|x| x, false);
}

/// The packed GEMM behind [`gemm_with`] and [`gemm_serial`]; it fans the
/// column chunks out across the pool when `fork` is set and the product
/// clears the parallel flop threshold.
#[allow(clippy::too_many_arguments)]
fn gemm_packed<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    op_a: Op,
    b: MatRef<'_, T>,
    op_b: Op,
    beta: T,
    c: MatMut<'_, T>,
    transform: &impl Fn(T) -> T,
    fork: bool,
) {
    let (m, ka) = op_dims(&a, op_a);
    let (kb, n) = op_dims(&b, op_b);
    assert_eq!(ka, kb, "gemm inner dimension mismatch");
    assert_eq!(c.rows(), m, "gemm C row mismatch");
    assert_eq!(c.cols(), n, "gemm C col mismatch");
    let k = ka;

    let parallel = fork && parallel_worthwhile(m, n, k);
    if alpha == T::ZERO || k == 0 {
        // no product term: only the beta scaling applies
        for_col_chunks(c, NC, parallel, &|_, mut cc| scale_cols(beta, &mut cc));
        return;
    }

    // Tile selection happens HERE, once, on the calling thread — before
    // the parallel fan-out. It is a pure function of (m, n, k) and the
    // scalar type, so the same shape always runs the same kernel at the
    // same tile regardless of thread count.
    let sel = crate::tile::select_gemm::<T>(m, n, k);
    let (mr, nr, mc, kc) = (sel.mr, sel.nr, sel.mc, T::GEMM_KC);
    debug_assert_eq!(NC % nr, 0, "column chunks must align with NR strips");
    debug_assert_eq!(mc % mr, 0, "MC must be a multiple of MR");
    // Pack both operands once, before the fan-out: the buffers are shared
    // read-only by all workers, the packing cost amortizes over the whole
    // product instead of repeating per chunk, and the fused transform runs
    // exactly once per element.
    let pa = pack::pack_a(a, op_a, mr, kc, transform);
    let pb = pack::pack_b(b, op_b, nr, kc, transform);
    let m_pad = m.div_ceil(mr) * mr;
    let n_pad = n.div_ceil(nr) * nr;

    for_col_chunks(c, NC, parallel, &|j0, mut cc| {
        scale_cols(beta, &mut cc);
        let nc = cc.cols();
        let ldc = cc.ld();
        // one flat view of the chunk: per-tile offsets are plain arithmetic
        let cdat = cc.into_slice();
        for (p0, kcb) in pack::blocks(k, kc) {
            for (i0, mb) in pack::blocks(m, mc) {
                for jj in (0..nc).step_by(nr) {
                    let nrb = nr.min(nc - jj);
                    // chunk starts are multiples of NC and NC % NR == 0, so
                    // the global strip index is (j0 + jj) / nr
                    let boff = n_pad * p0 + (j0 + jj) / nr * (nr * kcb);
                    let bs = &pb[boff..boff + kcb * nr];
                    for ii in (i0..i0 + mb).step_by(mr) {
                        let mrb = mr.min(i0 + mb - ii);
                        let aoff = m_pad * p0 + ii / mr * (mr * kcb);
                        let asl = &pa[aoff..aoff + kcb * mr];
                        let ct = &mut cdat[jj * ldc + ii..];
                        (sel.kernel)(kcb, asl, bs, alpha, ct, ldc, mrb, nrb);
                    }
                }
            }
        }
    });
}

/// The pre-packing GEMM loop nest, kept as an always-compiled reference
/// oracle: tests cross-check the packed kernel against it, and the
/// `reproduce gemm` bench measures the packed kernel's speedup over it.
pub mod reference {
    use super::*;

    /// Row-block height used to keep the active C/A panel cache-resident.
    const MC: usize = 512;

    /// `C ← alpha·op(A)·op(B) + beta·C` via the original axpy/dot
    /// formulation (same column-chunk fan-out, no packing, no register
    /// tiling). The (Trans, Trans) case materializes `op(B)` row access as
    /// a transposed copy once per call — hoisted out of the per-chunk
    /// closure, which used to allocate a scratch row per chunk.
    pub fn gemm<T: Scalar>(
        alpha: T,
        a: MatRef<'_, T>,
        op_a: Op,
        b: MatRef<'_, T>,
        op_b: Op,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        let (m, ka) = op_dims(&a, op_a);
        let (kb, n) = op_dims(&b, op_b);
        assert_eq!(ka, kb, "gemm inner dimension mismatch");
        assert_eq!(c.rows(), m, "gemm C row mismatch");
        assert_eq!(c.cols(), n, "gemm C col mismatch");
        let k = ka;

        let parallel = parallel_worthwhile(m, n, k);

        // (Trans, Trans) reads rows of `b`; transpose once so the inner
        // loop runs contiguous dots (the old code rebuilt a scratch row
        // per output column, inside every chunk closure).
        let bt = if alpha != T::ZERO && k != 0 && (op_a, op_b) == (Op::Trans, Op::Trans) {
            Mat::from_fn(k, n, |l, j| b.get(j, l))
        } else {
            Mat::zeros(0, 0)
        };

        for_col_chunks(c, NC, parallel, &|j0, mut cc| {
            let nc = cc.cols();
            scale_cols(beta, &mut cc);
            if alpha == T::ZERO || k == 0 {
                return;
            }
            match (op_a, op_b) {
                (Op::NoTrans, Op::NoTrans) => {
                    // C[:,j] += alpha * sum_l A[:,l] * B[l, j0+j], blocked over rows.
                    for i0 in (0..m).step_by(MC) {
                        let ib = MC.min(m - i0);
                        for l in 0..k {
                            let acol = &a.col(l)[i0..i0 + ib];
                            for j in 0..nc {
                                let w = alpha * b.get(l, j0 + j);
                                if w != T::ZERO {
                                    axpy(w, acol, &mut cc.col_mut(j)[i0..i0 + ib]);
                                }
                            }
                        }
                    }
                }
                (Op::NoTrans, Op::Trans) => {
                    for i0 in (0..m).step_by(MC) {
                        let ib = MC.min(m - i0);
                        for l in 0..k {
                            let acol = &a.col(l)[i0..i0 + ib];
                            for j in 0..nc {
                                let w = alpha * b.get(j0 + j, l);
                                if w != T::ZERO {
                                    axpy(w, acol, &mut cc.col_mut(j)[i0..i0 + ib]);
                                }
                            }
                        }
                    }
                }
                (Op::Trans, Op::NoTrans) => {
                    // C[i,j] += alpha * dot(A[:,i], B[:,j]) — contiguous dots.
                    for j in 0..nc {
                        let bcol = b.col(j0 + j);
                        let ccol = cc.col_mut(j);
                        for i in 0..m {
                            ccol[i] += alpha * dot(a.col(i), bcol);
                        }
                    }
                }
                (Op::Trans, Op::Trans) => {
                    // contiguous dots against the hoisted transpose
                    for j in 0..nc {
                        let brow = bt.col(j0 + j);
                        let ccol = cc.col_mut(j);
                        for i in 0..m {
                            ccol[i] += alpha * dot(a.col(i), brow);
                        }
                    }
                }
            }
        });
    }
}

/// Convenience: allocate and return `op(A)·op(B)`.
pub fn matmul<T: Scalar>(a: MatRef<'_, T>, op_a: Op, b: MatRef<'_, T>, op_b: Op) -> Mat<T> {
    let (m, _) = op_dims(&a, op_a);
    let (_, n) = op_dims(&b, op_b);
    let mut c = Mat::zeros(m, n);
    gemm(T::ONE, a, op_a, b, op_b, T::ZERO, c.as_mut());
    c
}

/// Column-block width for routing the symmetric rank-2k update through the
/// packed GEMM: the strictly-sub-diagonal row panel of each column block
/// is a plain GEMM (the bulk of the flops), while the triangular diagonal
/// block keeps the short per-column kernels.
const SYRK_NB: usize = 64;

/// Minimum half-size worth splitting off recursively: below this the
/// blocked base case's GEMM strips are already small enough that another
/// level of recursion only adds call overhead.
const SYR2K_SPLIT_MIN: usize = 128;

/// Split point for the recursive [`syr2k_lower`]: the midpoint of `C`'s
/// dimension rounded up to a `SYRK_NB` boundary (so every recursion depth
/// keeps the same diagonal-tile grid as the base case), or `None` once the
/// halves would stop being near-square against the inner dimension `k`.
///
/// This is a pure function of `(n, k)` — never of the worker-pool size,
/// timing, or call history — which is what makes the recursion
/// shape-deterministic (see `recursive_syr2k_is_thread_count_invariant`).
fn syr2k_split(n: usize, k: usize) -> Option<usize> {
    let h = (n / 2).div_ceil(SYRK_NB) * SYRK_NB;
    (n >= 2 * SYR2K_SPLIT_MIN && h >= k && h < n).then_some(h)
}

/// Symmetric rank-2k update, lower triangle only:
/// `C ← alpha·(A·Bᵀ + B·Aᵀ) + beta·C` with A, B of shape n×k.
///
/// This is the `syr2k` the ZY trailing update and the blocked SBR's
/// `BlockEnd::Syr2k` (DBR) block end use; Tensor Cores have no native
/// equivalent, which is exactly the paper's point — on the TC engine it
/// must be issued as two full outer-product GEMMs.
///
/// Recursive reshaping: while the output dimension `n` is large relative to
/// the rank `k`, `C` is split at a [`syr2k_split`] midpoint into two
/// triangular recursive calls plus one full off-diagonal block computed as
/// two *near-square* packed GEMMs (`A_lo·B_hiᵀ` then `B_lo·A_hiᵀ`). That
/// feeds the big block-end updates of the detached band reduction to the
/// packed GEMM at near-square shapes, where its large tile runs fastest,
/// instead of the 64-wide column strips of the blocked base case. The split point depends only on
/// `(n, k)`, and each GEMM's internal fan-out is the deterministic
/// fixed-chunk `for_col_chunks` partition, so the result is bit-identical
/// at any thread count.
pub fn syr2k_lower<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let n = c.rows();
    assert_eq!(c.cols(), n);
    assert_eq!(a.rows(), n);
    assert_eq!(b.rows(), n);
    assert_eq!(a.cols(), b.cols());
    let k = a.cols();
    let Some(h) = syr2k_split(n, k) else {
        syr2k_lower_blocked(alpha, a, b, beta, c);
        return;
    };
    let r = n - h;
    // leading triangle
    syr2k_lower(
        alpha,
        a.view(0, 0, h, k),
        b.view(0, 0, h, k),
        beta,
        c.view_mut(0, 0, h, h),
    );
    // the full off-diagonal block, as two near-square GEMMs
    let mut c21 = c.view_mut(h, 0, r, h);
    gemm(
        alpha,
        a.view(h, 0, r, k),
        Op::NoTrans,
        b.view(0, 0, h, k),
        Op::Trans,
        beta,
        c21.as_mut(),
    );
    gemm(
        alpha,
        b.view(h, 0, r, k),
        Op::NoTrans,
        a.view(0, 0, h, k),
        Op::Trans,
        T::ONE,
        c21,
    );
    // trailing triangle
    syr2k_lower(
        alpha,
        a.view(h, 0, r, k),
        b.view(h, 0, r, k),
        beta,
        c.view_mut(h, h, r, r),
    );
}

/// The pre-recursion blocked formulation, kept as the base case: diagonal
/// `SYRK_NB` tiles via the per-column kernel, sub-diagonal strips via
/// packed GEMMs.
fn syr2k_lower_blocked<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let n = c.rows();
    let k = a.cols();
    for (j0, jb) in pack::blocks(n, SYRK_NB) {
        syr2k_lower_unblocked(
            alpha,
            a.view(j0, 0, jb, k),
            b.view(j0, 0, jb, k),
            beta,
            c.view_mut(j0, j0, jb, jb),
        );
        // below the diagonal block: two rectangular packed GEMMs,
        // A_lo·B_hiᵀ then B_lo·A_hiᵀ accumulating on top
        let r0 = j0 + jb;
        if r0 < n {
            let mut cb = c.view_mut(r0, j0, n - r0, jb);
            gemm(
                alpha,
                a.view(r0, 0, n - r0, k),
                Op::NoTrans,
                b.view(j0, 0, jb, k),
                Op::Trans,
                beta,
                cb.as_mut(),
            );
            gemm(
                alpha,
                b.view(r0, 0, n - r0, k),
                Op::NoTrans,
                a.view(j0, 0, jb, k),
                Op::Trans,
                T::ONE,
                cb,
            );
        }
    }
}

/// Per-column rank-2k kernel used for the triangular diagonal blocks of
/// [`syr2k_lower`] (the pre-packing formulation, unchanged).
fn syr2k_lower_unblocked<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let n = c.rows();
    let k = a.cols();
    for j in 0..n {
        if beta == T::ZERO {
            c.col_mut(j)[j..].fill(T::ZERO);
        } else if beta != T::ONE {
            for v in &mut c.col_mut(j)[j..] {
                *v *= beta;
            }
        }
        for l in 0..k {
            let wa = alpha * b.get(j, l);
            if wa != T::ZERO {
                axpy(wa, &a.col(l)[j..n], &mut c.col_mut(j)[j..n]);
            }
            let wb = alpha * a.get(j, l);
            if wb != T::ZERO {
                axpy(wb, &b.col(l)[j..n], &mut c.col_mut(j)[j..n]);
            }
        }
    }
}

/// Which side the triangular matrix multiplies from in `trsm`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Side {
    Left,
    Right,
}

/// Triangular solve with multiple right-hand sides, in place:
/// * `Side::Left`:  solve `op(A)·X = alpha·B`, X overwrites B.
/// * `Side::Right`: solve `X·op(A) = alpha·B`, X overwrites B.
///
/// `lower` describes the stored triangle of `A`; `unit` means implicit unit
/// diagonal.
pub fn trsm<T: Scalar>(
    side: Side,
    alpha: T,
    a: MatRef<'_, T>,
    op: Op,
    lower: bool,
    unit: bool,
    mut b: MatMut<'_, T>,
) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "triangular matrix must be square");
    match side {
        Side::Left => {
            assert_eq!(b.rows(), n);
            for j in 0..b.cols() {
                let col = b.col_mut(j);
                if alpha != T::ONE {
                    for v in col.iter_mut() {
                        *v *= alpha;
                    }
                }
                trsv(a, op, lower, unit, col);
            }
        }
        Side::Right => {
            assert_eq!(b.cols(), n);
            if alpha != T::ONE {
                for j in 0..n {
                    for v in b.col_mut(j) {
                        *v *= alpha;
                    }
                }
            }
            // M = op(A); solve X·M = B column-block-wise:
            // B[:,j] = sum_l X[:,l]·M[l,j].
            let eff_lower = lower ^ (op == Op::Trans);
            let at = |l: usize, j: usize| -> T {
                match op {
                    Op::NoTrans => a.get(l, j),
                    Op::Trans => a.get(j, l),
                }
            };
            let m = b.rows();
            if eff_lower {
                // M[l,j] != 0 for l >= j → solve j from high to low.
                for j in (0..n).rev() {
                    for l in j + 1..n {
                        let w = at(l, j);
                        if w != T::ZERO {
                            // B[:,j] -= X[:,l] * M[l,j]; X[:,l] already final.
                            let (cj, cl) = split_two_cols(b.as_mut(), j, l);
                            axpy(-w, &cl[..m], &mut cj[..m]);
                        }
                    }
                    if !unit {
                        let d = at(j, j);
                        for v in b.col_mut(j) {
                            *v /= d;
                        }
                    }
                }
            } else {
                for j in 0..n {
                    for l in 0..j {
                        let w = at(l, j);
                        if w != T::ZERO {
                            let (cj, cl) = split_two_cols(b.as_mut(), j, l);
                            axpy(-w, &cl[..m], &mut cj[..m]);
                        }
                    }
                    if !unit {
                        let d = at(j, j);
                        for v in b.col_mut(j) {
                            *v /= d;
                        }
                    }
                }
            }
        }
    }
}

/// Borrow column `j` mutably and column `l` immutably (j != l).
fn split_two_cols<'b, T: Scalar>(b: MatMut<'b, T>, j: usize, l: usize) -> (&'b mut [T], &'b [T]) {
    assert_ne!(j, l);
    let rows = b.rows();
    let ld = b.ld();
    let data = b.into_slice();
    let (jo, lo) = (j * ld, l * ld);
    if j < l {
        let (left, right) = data.split_at_mut(lo);
        (&mut left[jo..jo + rows], &right[..rows])
    } else {
        let (left, right) = data.split_at_mut(jo);
        (&mut right[..rows], &left[lo..lo + rows])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(
        alpha: f64,
        a: &Mat<f64>,
        op_a: Op,
        b: &Mat<f64>,
        op_b: Op,
        beta: f64,
        c: &mut Mat<f64>,
    ) {
        let get = |m: &Mat<f64>, op: Op, i: usize, j: usize| match op {
            Op::NoTrans => m[(i, j)],
            Op::Trans => m[(j, i)],
        };
        let (mm, k) = match op_a {
            Op::NoTrans => (a.rows(), a.cols()),
            Op::Trans => (a.cols(), a.rows()),
        };
        let n = c.cols();
        for i in 0..mm {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += get(a, op_a, i, l) * get(b, op_b, l, j);
                }
                c[(i, j)] = alpha * s + beta * c[(i, j)];
            }
        }
    }

    fn pseudo_rand(n: usize, seed: u64) -> Vec<f64> {
        // deterministic LCG so the matrix tests don't need the rand crate here
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        Mat::from_col_major(m, n, pseudo_rand(m * n, seed))
    }

    fn rand_mat32(m: usize, n: usize, seed: u64) -> Mat<f32> {
        let data = pseudo_rand(m * n, seed)
            .into_iter()
            .map(|x| x as f32)
            .collect();
        Mat::from_col_major(m, n, data)
    }

    #[test]
    fn gemm_all_ops_match_naive() {
        let (m, k, n) = (7, 5, 9);
        for (op_a, op_b) in [
            (Op::NoTrans, Op::NoTrans),
            (Op::NoTrans, Op::Trans),
            (Op::Trans, Op::NoTrans),
            (Op::Trans, Op::Trans),
        ] {
            let a = match op_a {
                Op::NoTrans => rand_mat(m, k, 1),
                Op::Trans => rand_mat(k, m, 1),
            };
            let b = match op_b {
                Op::NoTrans => rand_mat(k, n, 2),
                Op::Trans => rand_mat(n, k, 2),
            };
            let mut c = rand_mat(m, n, 3);
            let mut c_ref = c.clone();
            gemm(1.3, a.as_ref(), op_a, b.as_ref(), op_b, 0.7, c.as_mut());
            naive_gemm(1.3, &a, op_a, &b, op_b, 0.7, &mut c_ref);
            assert!(
                c.max_abs_diff(&c_ref) < 1e-12,
                "mismatch for ({op_a:?},{op_b:?})"
            );
        }
    }

    #[test]
    fn gemm_large_parallel_matches_naive() {
        let (m, k, n) = (130, 70, 97);
        let a = rand_mat(m, k, 10);
        let b = rand_mat(k, n, 11);
        let mut c = Mat::zeros(m, n);
        let mut c_ref = Mat::zeros(m, n);
        gemm(
            1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            0.0,
            c.as_mut(),
        );
        naive_gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c_ref);
        assert!(c.max_abs_diff(&c_ref) < 1e-11);
    }

    #[test]
    fn parallel_heuristic_survives_the_overflow_boundary() {
        // Shapes whose 2·m·n·k product exceeds usize::MAX used to overflow
        // (panicking under debug assertions); they must simply count as
        // worth parallelizing.
        let huge = usize::MAX / 2;
        assert!(parallel_worthwhile(huge, huge, huge));
        assert!(parallel_worthwhile(usize::MAX, 1, 1));
        assert!(parallel_worthwhile(1 << 40, 1 << 40, 1));
        // Exact boundary: 2·m·n·k == PAR_FLOP_THRESHOLD is parallel…
        assert!(parallel_worthwhile(PAR_FLOP_THRESHOLD / 2, 1, 1));
        // …and one flop less is not.
        assert!(!parallel_worthwhile(PAR_FLOP_THRESHOLD / 2 - 1, 1, 1));
        assert!(!parallel_worthwhile(0, 0, 0));
    }

    #[test]
    fn for_col_chunks_partition_is_chunk_aligned_and_complete() {
        for (n, chunk) in [(1usize, 32usize), (31, 32), (32, 32), (100, 32), (70, 7)] {
            for parallel in [false, true] {
                let mut m = Mat::<f64>::zeros(2, n);
                let mut seen = std::sync::Mutex::new(Vec::new());
                for_col_chunks(m.as_mut(), chunk, parallel, &|j0, cc| {
                    seen.lock().unwrap().push((j0, cc.cols()));
                });
                let mut got = seen.get_mut().unwrap().clone();
                got.sort_unstable();
                let want: Vec<(usize, usize)> = (0..n)
                    .step_by(chunk)
                    .map(|j0| (j0, chunk.min(n - j0)))
                    .collect();
                assert_eq!(got, want, "n={n} chunk={chunk} parallel={parallel}");
            }
        }
    }

    #[test]
    fn gemm_on_views() {
        let a = rand_mat(8, 8, 20);
        let b = rand_mat(8, 8, 21);
        let mut c = Mat::zeros(8, 8);
        // multiply submatrices through strided views
        gemm(
            1.0,
            a.view(2, 1, 4, 3),
            Op::NoTrans,
            b.view(0, 2, 3, 4),
            Op::NoTrans,
            0.0,
            c.view_mut(1, 1, 4, 4),
        );
        let a_sub = a.submatrix(2, 1, 4, 3);
        let b_sub = b.submatrix(0, 2, 3, 4);
        let mut want = Mat::zeros(4, 4);
        naive_gemm(
            1.0,
            &a_sub,
            Op::NoTrans,
            &b_sub,
            Op::NoTrans,
            0.0,
            &mut want,
        );
        assert!(c.submatrix(1, 1, 4, 4).max_abs_diff(&want) < 1e-13);
        // untouched border stays zero
        assert_eq!(c[(0, 0)], 0.0);
        assert_eq!(c[(7, 7)], 0.0);
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan() {
        // beta = 0 must overwrite even NaN garbage in C.
        let a = Mat::<f64>::identity(2, 2);
        let b = Mat::<f64>::identity(2, 2);
        let mut c = Mat::from_col_major(2, 2, vec![f64::NAN; 4]);
        gemm(
            1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            0.0,
            c.as_mut(),
        );
        assert_eq!(c.max_abs_diff(&Mat::identity(2, 2)), 0.0);
    }

    #[test]
    fn packed_gemm_matches_reference_across_blocking_boundaries() {
        // shapes chosen to cross the f64 tiles: MR = 8, MC = 64 — ragged
        // edge strips, multiple MC row panels, every Op combination
        for (m, k, n, op_a, op_b) in [
            (150, 70, 37, Op::NoTrans, Op::NoTrans),
            (65, 33, 70, Op::Trans, Op::Trans),
            (17, 40, 33, Op::NoTrans, Op::Trans),
            (33, 129, 65, Op::Trans, Op::NoTrans),
            (1, 1, 1, Op::NoTrans, Op::NoTrans),
            (9, 3, 100, Op::Trans, Op::Trans),
        ] {
            let (ar, ac) = match op_a {
                Op::NoTrans => (m, k),
                Op::Trans => (k, m),
            };
            let (br, bc) = match op_b {
                Op::NoTrans => (k, n),
                Op::Trans => (n, k),
            };
            let a = rand_mat(ar, ac, 90);
            let b = rand_mat(br, bc, 91);
            let c0 = rand_mat(m, n, 92);
            let mut packed = c0.clone();
            gemm(
                1.3,
                a.as_ref(),
                op_a,
                b.as_ref(),
                op_b,
                0.7,
                packed.as_mut(),
            );
            let mut oracle = c0.clone();
            reference::gemm(
                1.3,
                a.as_ref(),
                op_a,
                b.as_ref(),
                op_b,
                0.7,
                oracle.as_mut(),
            );
            assert!(
                packed.max_abs_diff(&oracle) < 1e-11 * (1.0 + k as f64),
                "({m},{k},{n}) ({op_a:?},{op_b:?})"
            );
        }
    }

    #[test]
    fn packed_gemm_f32_crosses_the_kc_panel_boundary() {
        // k = 600 > KC = 256 → three packed k-panels for f32; check the
        // panel-accumulation arithmetic against a float64 oracle
        let (m, k, n) = (37, 600, 35);
        let a64 = rand_mat(m, k, 95);
        let b64 = rand_mat(k, n, 96);
        let a32: Mat<f32> = a64.cast();
        let b32: Mat<f32> = b64.cast();
        let mut c32 = Mat::<f32>::zeros(m, n);
        gemm(
            1.0,
            a32.as_ref(),
            Op::NoTrans,
            b32.as_ref(),
            Op::NoTrans,
            0.0,
            c32.as_mut(),
        );
        let want = matmul(a64.as_ref(), Op::NoTrans, b64.as_ref(), Op::NoTrans);
        for j in 0..n {
            for i in 0..m {
                let got = c32[(i, j)] as f64;
                assert!(
                    (got - want[(i, j)]).abs() < 1e-2,
                    "({i},{j}): {got} vs {}",
                    want[(i, j)]
                );
            }
        }
    }

    #[test]
    fn gemm_with_applies_the_fused_transform_once_per_element() {
        // t(x) = 2x on both operands must quadruple the product term and
        // leave the beta·C term untouched
        let a = rand_mat(19, 7, 97);
        let b = rand_mat(7, 23, 98);
        let c0 = rand_mat(19, 23, 99);
        let mut got = c0.clone();
        gemm_with(
            0.5,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            1.0,
            got.as_mut(),
            &|x| x * 2.0,
        );
        let mut want = c0.clone();
        gemm(
            2.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            1.0,
            want.as_mut(),
        );
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn chunk_width_aligns_with_nr_strips() {
        // gemm's strip-offset arithmetic requires NC % GEMM_NR == 0
        assert_eq!(NC % <f32 as Scalar>::GEMM_NR, 0);
        assert_eq!(NC % <f64 as Scalar>::GEMM_NR, 0);
    }

    #[test]
    fn reference_gemm_matches_naive_all_ops() {
        let (m, k, n) = (7, 5, 9);
        for (op_a, op_b) in [
            (Op::NoTrans, Op::NoTrans),
            (Op::NoTrans, Op::Trans),
            (Op::Trans, Op::NoTrans),
            (Op::Trans, Op::Trans),
        ] {
            let a = match op_a {
                Op::NoTrans => rand_mat(m, k, 4),
                Op::Trans => rand_mat(k, m, 4),
            };
            let b = match op_b {
                Op::NoTrans => rand_mat(k, n, 5),
                Op::Trans => rand_mat(n, k, 5),
            };
            let mut c = rand_mat(m, n, 6);
            let mut c_ref = c.clone();
            reference::gemm(1.3, a.as_ref(), op_a, b.as_ref(), op_b, 0.7, c.as_mut());
            naive_gemm(1.3, &a, op_a, &b, op_b, 0.7, &mut c_ref);
            assert!(
                c.max_abs_diff(&c_ref) < 1e-12,
                "reference mismatch for ({op_a:?},{op_b:?})"
            );
        }
    }

    #[test]
    fn reference_gemm_beta_zero_overwrites_nan() {
        let a = Mat::<f64>::identity(2, 2);
        let b = Mat::<f64>::identity(2, 2);
        let mut c = Mat::from_col_major(2, 2, vec![f64::NAN; 4]);
        reference::gemm(
            1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            0.0,
            c.as_mut(),
        );
        assert_eq!(c.max_abs_diff(&Mat::identity(2, 2)), 0.0);
    }

    #[test]
    fn blocked_syr2k_crosses_the_block_boundary() {
        // n = 150 > SYRK_NB = 64 → diagonal tiles + packed sub-diagonal panels
        let n = 150;
        let k = 20;
        let a = rand_mat(n, k, 102);
        let b = rand_mat(n, k, 103);
        let mut c = rand_mat(n, n, 104);
        let c0 = c.clone();
        syr2k_lower(1.1, a.as_ref(), b.as_ref(), 0.6, c.as_mut());
        let abt = matmul(a.as_ref(), Op::NoTrans, b.as_ref(), Op::Trans);
        for j in 0..n {
            for i in 0..n {
                if i >= j {
                    let want = 1.1 * (abt[(i, j)] + abt[(j, i)]) + 0.6 * c0[(i, j)];
                    assert!((c[(i, j)] - want).abs() < 1e-11, "syr2k ({i},{j})");
                } else {
                    assert_eq!(c[(i, j)], c0[(i, j)], "syr2k upper ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn recursive_syr2k_matches_reference_across_split_sizes() {
        // n = 300, k = 20 splits once (h = 192); n = 520, k = 40 splits
        // twice; n = 150 stays in the blocked base case. All must agree
        // with the dense two-product reference and leave the strict upper
        // triangle untouched.
        for (n, k) in [(150usize, 20usize), (300, 20), (520, 40)] {
            let a = rand_mat(n, k, 200 + n as u64);
            let b = rand_mat(n, k, 201 + n as u64);
            let mut c = rand_mat(n, n, 202 + n as u64);
            let c0 = c.clone();
            syr2k_lower(1.1, a.as_ref(), b.as_ref(), 0.6, c.as_mut());
            let abt = matmul(a.as_ref(), Op::NoTrans, b.as_ref(), Op::Trans);
            for j in 0..n {
                for i in 0..n {
                    if i >= j {
                        let want = 1.1 * (abt[(i, j)] + abt[(j, i)]) + 0.6 * c0[(i, j)];
                        assert!((c[(i, j)] - want).abs() < 1e-10, "n={n} ({i},{j})");
                    } else {
                        assert_eq!(c[(i, j)], c0[(i, j)], "n={n} upper ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn syr2k_split_is_pure_in_shape() {
        // The recursion split is a function of (n, k) alone: aligned to the
        // SYRK_NB tile grid, engaged only while the halves stay near-square
        // against k, and stable call-to-call.
        assert_eq!(syr2k_split(300, 20), Some(192));
        assert_eq!(syr2k_split(300, 20), syr2k_split(300, 20));
        assert_eq!(syr2k_split(1024, 512), Some(512));
        // halves would be smaller than k → no split
        assert_eq!(syr2k_split(1000, 900), None);
        // too small to be worth splitting
        assert_eq!(syr2k_split(150, 8), None);
        if let Some(h) = syr2k_split(300, 20) {
            assert_eq!(h % SYRK_NB, 0, "split must stay on the tile grid");
        }
    }

    #[test]
    fn recursive_syr2k_is_thread_count_invariant() {
        // Bitwise regression for the recursion's determinism contract: the
        // split point is shape-only and the GEMM fan-out is fixed-chunk, so
        // a 1-worker and a 4-worker pool must produce identical bits on a
        // size that recurses (n = 520 splits twice) and is large enough for
        // the parallel fan-out to actually engage.
        let n = 520;
        let k = 40;
        let a = rand_mat32(n, k, 300);
        let b = rand_mat32(n, k, 301);
        let c0 = rand_mat32(n, n, 302);
        let run = |threads: usize| -> Vec<u32> {
            rayon::configure(threads);
            let mut c = c0.clone();
            syr2k_lower(-1.0f32, a.as_ref(), b.as_ref(), 1.0f32, c.as_mut());
            c.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        let bits1 = run(1);
        let bits4 = run(4);
        rayon::configure(0);
        assert_eq!(
            bits1, bits4,
            "recursive syr2k must be bit-identical at 1 vs 4 workers"
        );
    }

    /// `gemm_serial` gives `gemm`'s bits on a shape whose 4-worker `gemm`
    /// forks, with and without `beta`.
    #[test]
    fn serial_gemm_matches_the_forking_gemm_bitwise() {
        let (a, b) = (rand_mat32(300, 64, 310), rand_mat32(64, 200, 311));
        let c0 = rand_mat32(300, 200, 312);
        rayon::configure(4);
        for beta in [0.0f32, 1.0] {
            let mut forked = c0.clone();
            gemm(
                -1.0,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                Op::NoTrans,
                beta,
                forked.as_mut(),
            );
            let mut serial = c0.clone();
            gemm_serial(
                -1.0,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                Op::NoTrans,
                beta,
                serial.as_mut(),
            );
            let bits =
                |m: &Mat<f32>| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
            assert!(bits(&forked) == bits(&serial), "beta = {beta}");
        }
        rayon::configure(0);
    }

    #[test]
    fn syr2k_matches_two_gemms() {
        let a = rand_mat(5, 3, 40);
        let b = rand_mat(5, 3, 41);
        let mut c = Mat::zeros(5, 5);
        syr2k_lower(1.5, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        let mut want = matmul(a.as_ref(), Op::NoTrans, b.as_ref(), Op::Trans);
        let ba = matmul(b.as_ref(), Op::NoTrans, a.as_ref(), Op::Trans);
        for j in 0..5 {
            for i in 0..5 {
                want[(i, j)] = 1.5 * (want[(i, j)] + ba[(i, j)]);
            }
        }
        for j in 0..5 {
            for i in j..5 {
                assert!((c[(i, j)] - want[(i, j)]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn trsm_left_solves() {
        // random SPD-ish lower triangular with strong diagonal
        let n = 6;
        let mut l = rand_mat(n, n, 50);
        for j in 0..n {
            for i in 0..j {
                l[(i, j)] = 0.0;
            }
            l[(j, j)] = 3.0 + l[(j, j)].abs();
        }
        let x_true = rand_mat(n, 4, 51);
        let b = matmul(l.as_ref(), Op::NoTrans, x_true.as_ref(), Op::NoTrans);
        let mut x = b.clone();
        trsm(
            Side::Left,
            1.0,
            l.as_ref(),
            Op::NoTrans,
            true,
            false,
            x.as_mut(),
        );
        assert!(x.max_abs_diff(&x_true) < 1e-11);

        // transpose case: L^T X = B
        let b2 = matmul(l.as_ref(), Op::Trans, x_true.as_ref(), Op::NoTrans);
        let mut x2 = b2.clone();
        trsm(
            Side::Left,
            1.0,
            l.as_ref(),
            Op::Trans,
            true,
            false,
            x2.as_mut(),
        );
        assert!(x2.max_abs_diff(&x_true) < 1e-11);
    }

    #[test]
    fn trsm_right_solves() {
        let n = 5;
        let mut u = rand_mat(n, n, 60);
        for j in 0..n {
            for i in j + 1..n {
                u[(i, j)] = 0.0;
            }
            u[(j, j)] = 2.5 + u[(j, j)].abs();
        }
        let x_true = rand_mat(7, n, 61);
        // X U = B
        let b = matmul(x_true.as_ref(), Op::NoTrans, u.as_ref(), Op::NoTrans);
        let mut x = b.clone();
        trsm(
            Side::Right,
            1.0,
            u.as_ref(),
            Op::NoTrans,
            false,
            false,
            x.as_mut(),
        );
        assert!(x.max_abs_diff(&x_true) < 1e-11);

        // X U^T = B  (U^T is lower → eff_lower path)
        let b2 = matmul(x_true.as_ref(), Op::NoTrans, u.as_ref(), Op::Trans);
        let mut x2 = b2.clone();
        trsm(
            Side::Right,
            1.0,
            u.as_ref(),
            Op::Trans,
            false,
            false,
            x2.as_mut(),
        );
        assert!(x2.max_abs_diff(&x_true) < 1e-11);
    }

    #[test]
    fn trsm_unit_diagonal() {
        let n = 4;
        let mut l = rand_mat(n, n, 70);
        for j in 0..n {
            for i in 0..=j {
                l[(i, j)] = if i == j { 999.0 } else { 0.0 }; // poison diag
            }
        }
        let mut l_unit = l.clone();
        for j in 0..n {
            l_unit[(j, j)] = 1.0;
        }
        let x_true = rand_mat(n, 3, 71);
        let b = matmul(l_unit.as_ref(), Op::NoTrans, x_true.as_ref(), Op::NoTrans);
        let mut x = b.clone();
        trsm(
            Side::Left,
            1.0,
            l.as_ref(),
            Op::NoTrans,
            true,
            true,
            x.as_mut(),
        );
        assert!(x.max_abs_diff(&x_true) < 1e-12);
    }

    #[test]
    fn trsm_alpha_scales() {
        let l = Mat::<f64>::identity(3, 3);
        let mut b = Mat::from_col_major(3, 3, vec![1.0; 9]);
        trsm(
            Side::Left,
            2.0,
            l.as_ref(),
            Op::NoTrans,
            true,
            false,
            b.as_mut(),
        );
        assert_eq!(b[(0, 0)], 2.0);
        let mut b2 = Mat::from_col_major(3, 3, vec![1.0; 9]);
        trsm(
            Side::Right,
            3.0,
            l.as_ref(),
            Op::NoTrans,
            true,
            false,
            b2.as_mut(),
        );
        assert_eq!(b2[(2, 2)], 3.0);
    }
}
