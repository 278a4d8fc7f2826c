//! Batched, thread-parallel accumulation of chase reflectors into Q.
//!
//! During a bulge-chasing sweep the Q update dominates the flop count:
//! every reflector right-multiplies all `n` rows of Q, for `O(n³)` total
//! versus the chase's own `O(n²·b)` band work. Forking the pool per
//! reflector would drown in spawn overhead (each application is only
//! `≈4·n·b` flops), so the chase loops instead record one outer
//! iteration's reflectors and batch-apply them here, fanning **disjoint
//! row blocks** of Q across the pool — roughly `4·n²` flops per flush,
//! enough to amortize a handful of scoped spawns.
//!
//! # Bit-exactness
//!
//! Right-multiplication `Q ← Q·H` is row-local: row `i` is updated from
//! its own elements only (`w_i = Σ_j v_j·Q[i, s+j]`, then
//! `Q[i, s+j] −= τ·v_j·w_i`). Each worker applies the batch's reflectors
//! in recorded order with exactly
//! [`apply_reflector_right`](tcevd_factor::householder::apply_reflector_right)'s
//! loop structure and skip tests, so the result is bit-identical to
//! applying each reflector immediately during the chase — for any row
//! partition and any thread count.
//!
//! # Rows that are still zero
//!
//! Q starts as the identity, so early in the chase most of each column is
//! still exactly `+0`. [`QAccumulator`] keeps `top[c]`, a row above which
//! column `c` of Q is all `+0`, initialised by scanning Q (so a Q that an
//! earlier sweep already filled stays exact). A reflector on columns
//! `[s, e)` updates only rows `[r0, n)`, `r0 = min top[s..e)`, and then
//! sets `top[s..e) = r0`. That skips no arithmetic that could change a
//! bit: on a row that is `+0` across the span, `w_i = +0` and every entry
//! stays `+0 − t·(+0) = +0` (for finite `τ·v`, which the chase's finite
//! band guarantees). Started from the identity, this cuts the accumulation
//! by about a third.

use tcevd_factor::householder::apply_reflector_right;
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::{Mat, MatMut};

/// One recorded chase reflector awaiting batched application to Q.
struct PendingReflector<T> {
    /// First column of the reflector's span in Q.
    s: usize,
    /// First row it updates: Q is `+0` above it across the span.
    r0: usize,
    tau: T,
    /// Reflector vector (`v[0] == 1`).
    v: Vec<T>,
}

/// Rows per parallel task when batch-applying recorded reflectors to Q.
/// Fixed — never derived from the thread count — so the partition is the
/// same at every pool size; the arithmetic is row-local anyway, so any
/// partition yields identical bits.
const Q_ROWS_PER_TASK: usize = 128;

/// Recorded reflectors accumulate across sweeps until the batch reaches
/// this size, then flush in one parallel pass. Large enough that each
/// flush carries tens of megaflops (amortizing the scoped thread spawns),
/// small enough that the pending buffer stays a few kilobytes.
const Q_FLUSH_REFLECTORS: usize = 192;

/// Whether recording-and-batching pays off for an n×n Q on the current
/// pool. Below the cutoff (or on a single-thread pool) immediate
/// application is faster; both paths produce identical bits, so this
/// gate never affects results.
fn batching_pays_off(n: usize) -> bool {
    rayon::current_num_threads() > 1 && n >= 2 * Q_ROWS_PER_TASK
}

/// Accumulates a chase's reflectors into Q: immediately on one thread or
/// below the [`batching_pays_off`] cutoff, otherwise recorded and flushed
/// in batches through [`apply_pending_to_q`]. Both paths produce identical
/// bits, so the gate never affects results. Either path updates only the
/// rows at or below each reflector's `r0` (see the module docs).
pub(crate) struct QAccumulator<'q, T> {
    q: &'q mut Mat<T>,
    /// Column `c` of Q is `+0` in every row above `top[c]`.
    top: Vec<usize>,
    batched: bool,
    pending: Vec<PendingReflector<T>>,
}

impl<'q, T: Scalar> QAccumulator<'q, T> {
    pub(crate) fn new(q: &'q mut Mat<T>) -> Self {
        let n = q.rows();
        let top = (0..q.cols())
            .map(|c| {
                q.col(c)
                    .iter()
                    .position(|x| x.to_f64().to_bits() != 0)
                    .unwrap_or(n)
            })
            .collect();
        QAccumulator {
            batched: batching_pays_off(n),
            q,
            top,
            pending: Vec::new(),
        }
    }

    /// `Q ← Q·H` for `H = I − τ·v·vᵀ` acting on columns `[s, s + v.len())`.
    pub(crate) fn push(&mut self, s: usize, tau: T, v: &[T]) {
        let n = self.q.rows();
        let span = &mut self.top[s..s + v.len()];
        let r0 = span.iter().copied().min().unwrap_or(n);
        span.fill(r0);
        if self.batched {
            self.pending.push(PendingReflector {
                s,
                r0,
                tau,
                v: v.to_vec(),
            });
        } else if r0 < n {
            apply_reflector_right(tau, v, self.q.view_mut(r0, s, n - r0, v.len()));
        }
    }

    /// Called once per outer chase iteration. Reflectors only ever append
    /// to Q's product, so batches can span sweeps; flush once enough work
    /// has accumulated to amortize the fan-out (order is preserved, bits
    /// unchanged).
    pub(crate) fn end_sweep(&mut self) {
        if self.pending.len() >= Q_FLUSH_REFLECTORS {
            self.finish();
        }
    }

    /// Apply every reflector still pending.
    pub(crate) fn finish(&mut self) {
        apply_pending_to_q(self.q, &self.pending);
        self.pending.clear();
    }
}

/// Apply a batch of recorded reflectors to `q` in recorded order, fanning
/// disjoint row blocks of Q across the thread pool. The batch may span
/// several chase sweeps, so the touched column range is the union
/// `[min s, max s + v.len())` over the batch. Each reflector updates only
/// the block's rows at or below its `r0`.
fn apply_pending_to_q<T: Scalar>(q: &mut Mat<T>, pending: &[PendingReflector<T>]) {
    if pending.is_empty() {
        return;
    }
    let n = q.rows();
    let c0 = pending.iter().map(|r| r.s).min().unwrap_or(0);
    let cend = pending.iter().map(|r| r.s + r.v.len()).max().unwrap_or(0);
    // Decompose Q[:, c0..cend) into per-column row segments of fixed
    // height, gathering segment k of every column into task k. Column-major
    // storage makes a row block a set of per-column subslices, never one
    // contiguous range — `split_at_mut` per column keeps this safe code.
    let ncols = cend - c0;
    let ntasks = n.div_ceil(Q_ROWS_PER_TASK);
    let mut tasks: Vec<(usize, Vec<&mut [T]>)> = (0..ntasks)
        .map(|t| (t * Q_ROWS_PER_TASK, Vec::with_capacity(ncols)))
        .collect();
    let mut rem: Option<MatMut<'_, T>> = Some(q.view_mut(0, c0, n, ncols));
    while let Some(cur) = rem.take() {
        let (col, rest) = if cur.cols() > 1 {
            let (c, r) = cur.split_cols_at(1);
            (c, Some(r))
        } else {
            (cur, None)
        };
        let rows = col.rows();
        let mut seg = &mut col.into_slice()[..rows];
        let mut t = 0;
        while !seg.is_empty() {
            let take = Q_ROWS_PER_TASK.min(seg.len());
            let (head, tail) = seg.split_at_mut(take);
            tasks[t].1.push(head);
            seg = tail;
            t += 1;
        }
        rem = rest;
    }
    // Row-kernel selection happens once, on the calling thread, before
    // the fan-out (same discipline as blas3::gemm_with): both forms are
    // bit-identical for these row-local loops, but selection must stay a
    // pure function of shape, never of which worker runs.
    let rk = tcevd_matrix::tile::row_kernels::<T>(Q_ROWS_PER_TASK.min(n));
    rayon::for_each_chunk(tasks, &|(row0, mut cols): (usize, Vec<&mut [T]>)| {
        let rb = cols.first().map_or(0, |c| c.len());
        let mut w = vec![T::ZERO; rb];
        for refl in pending {
            let lo = refl.r0.saturating_sub(row0);
            if lo >= rb {
                continue;
            }
            let w = &mut w[lo..];
            w.fill(T::ZERO);
            let off = refl.s - c0;
            for (jl, &vj) in refl.v.iter().enumerate() {
                if vj != T::ZERO {
                    (rk.acc)(vj, &cols[off + jl][lo..rb], w);
                }
            }
            for (jl, &vj) in refl.v.iter().enumerate() {
                let t = refl.tau * vj;
                if t != T::ZERO {
                    (rk.sub)(t, w, &mut cols[off + jl][lo..rb]);
                }
            }
        }
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        Mat::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// Batched application must be bit-identical to immediate sequential
    /// application, at several thread counts and awkward shapes.
    #[test]
    fn batched_matches_immediate_bitwise() {
        let n = 300; // not a multiple of Q_ROWS_PER_TASK
        let b = 5;
        let mut reflectors = Vec::new();
        let mut s = 2;
        let mut seed = 100;
        while s + 2 < n {
            let len = (b + 1).min(n - s);
            let mut v: Vec<f64> = rand_mat(len, 1, seed).as_slice().to_vec();
            v[0] = 1.0;
            if seed % 3 == 0 {
                v[len / 2] = 0.0; // exercise the vj == 0 skip
            }
            reflectors.push(PendingReflector {
                s,
                r0: 0,
                tau: 0.3 + 0.1 * (seed % 7) as f64,
                v,
            });
            s += b;
            seed += 1;
        }

        let q0 = rand_mat(n, n, 42);
        let mut q_seq = q0.clone();
        for r in &reflectors {
            apply_reflector_right(r.tau, &r.v, q_seq.view_mut(0, r.s, n, r.v.len()));
        }
        let mut q_par = q0.clone();
        apply_pending_to_q(&mut q_par, &reflectors);
        assert_eq!(
            q_seq.max_abs_diff(&q_par),
            0.0,
            "batched Q accumulation must be bit-identical"
        );
    }

    /// A batch spanning two sweeps has non-monotone spans (the second
    /// sweep restarts near the top and may end *shallower* than the
    /// first); the union column range must still cover every reflector.
    #[test]
    fn cross_sweep_batch_matches_immediate_bitwise() {
        let n = 280;
        let b = 7;
        let mut reflectors = Vec::new();
        let mut seed = 500;
        for j in [0usize, 1, 2] {
            let mut s = j + 1;
            while s + 2 < n {
                let len = (b + 1).min(n - s);
                let mut v: Vec<f64> = rand_mat(len, 1, seed).as_slice().to_vec();
                v[0] = 1.0;
                reflectors.push(PendingReflector {
                    s,
                    r0: 0,
                    tau: 0.2 + 0.1 * (seed % 5) as f64,
                    v,
                });
                s += b;
                seed += 1;
            }
        }

        let q0 = rand_mat(n, n, 77);
        let mut q_seq = q0.clone();
        for r in &reflectors {
            apply_reflector_right(r.tau, &r.v, q_seq.view_mut(0, r.s, n, r.v.len()));
        }
        let mut q_par = q0.clone();
        apply_pending_to_q(&mut q_par, &reflectors);
        assert_eq!(
            q_seq.max_abs_diff(&q_par),
            0.0,
            "cross-sweep batched Q accumulation must be bit-identical"
        );
    }

    /// Three chase-like sweeps of span-`b` reflectors on an n×n Q, each
    /// sweep starting one column below the last.
    fn chase_reflectors(n: usize, b: usize) -> Vec<PendingReflector<f64>> {
        let mut reflectors = Vec::new();
        let mut seed = 900;
        for j in 0..3 {
            let mut s = j + 1;
            while s + 1 < n {
                let len = b.min(n - s);
                let mut v: Vec<f64> = rand_mat(len, 1, seed).as_slice().to_vec();
                v[0] = 1.0;
                if seed % 4 == 0 {
                    v[len - 1] = 0.0;
                }
                reflectors.push(PendingReflector {
                    s,
                    r0: 0,
                    tau: 0.4 + 0.1 * (seed % 6) as f64,
                    v,
                });
                s += b;
                seed += 1;
            }
        }
        reflectors
    }

    fn bits(q: &Mat<f64>) -> Vec<u64> {
        q.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Accumulating through the row bound — immediately and batched — must
    /// equal full-row application bit for bit, signed zeros included, on
    /// the identity and on a Q whose upper part mixes `+0`, `−0` and
    /// non-zero entries.
    #[test]
    fn row_bound_matches_full_rows_bitwise() {
        let n = 300; // not a multiple of Q_ROWS_PER_TASK
        let reflectors = chase_reflectors(n, 6);
        let dense = rand_mat(n, n, 13);
        let mixed = Mat::from_fn(n, n, |i, c| {
            if i >= c || (i * 7 + c) % 37 == 0 {
                dense[(i, c)]
            } else if (i + c) % 5 == 0 {
                -0.0
            } else {
                0.0
            }
        });
        for q0 in [Mat::<f64>::identity(n, n), mixed] {
            let mut want = q0.clone();
            for r in &reflectors {
                apply_reflector_right(r.tau, &r.v, want.view_mut(0, r.s, n, r.v.len()));
            }
            for batched in [false, true] {
                let mut q = q0.clone();
                let mut acc = QAccumulator::new(&mut q);
                acc.batched = batched;
                for r in &reflectors {
                    acc.push(r.s, r.tau, &r.v);
                    acc.end_sweep();
                }
                acc.finish();
                assert!(bits(&q) == bits(&want), "batched = {batched}");
            }
        }
        // On the identity the bound engages: the first reflector, on
        // columns [1, 7), starts at row 1.
        let mut q = Mat::<f64>::identity(n, n);
        let mut acc = QAccumulator::new(&mut q);
        acc.batched = true;
        let r = &reflectors[0];
        acc.push(r.s, r.tau, &r.v);
        assert_eq!(acc.pending[0].r0, 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut q = rand_mat(8, 8, 7);
        let before = q.clone();
        apply_pending_to_q(&mut q, &[]);
        assert_eq!(q.max_abs_diff(&before), 0.0);
    }
}
