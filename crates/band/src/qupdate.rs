//! Compact-WY accumulation of the chase's reflectors into `Q₂`.
//!
//! Every chase reflector right-multiplies `Q₂` (`Q ← Q·H`): that is the
//! chase's `O(n³)` term, against `O(n²·b)` band work. Applied one at a
//! time, each reflector is a rank-1 update at level-2 speed.
//! [`QAccumulator`] instead buffers the reflectors of [`GROUP_SWEEPS`]
//! consecutive sweeps and applies them as compact-WY groups, each as two
//! thin GEMMs — the paper's reshaping of level-2 updates into GEMMs,
//! applied to stage 2.
//!
//! # Grouping
//!
//! The `k`-th reflector of sweep `j`, `H(j, k)`, acts on the columns
//! `[j + 1 + k·b, j + 1 + k·b + b)` (fewer at the bottom of the matrix).
//! For a block of `m ≤ b` sweeps `j0 … j0+m−1`, group `G_k` holds
//! `H(j0+i, k)` in sweep order, and the groups are applied in descending
//! `k`. This keeps the sequential product. For `j < j′` in one block, the
//! only overlapping pairs are `H(j, k)`/`H(j′, k)`, ordered within `G_k`,
//! and `H(j, k+1)`/`H(j′, k)`, ordered because `G_{k+1}` goes before
//! `G_k`. Every other pair has disjoint spans and commutes. A reflector
//! with `τ = 0` is the identity and is never pushed, so a group may have
//! gaps.
//!
//! Each group is `G_k = I − V·T·Vᵀ`. `V` is the `(b+m−1)×m` staircase of
//! its vectors, and `T` is upper triangular from the forward, columnwise
//! [`larft`] recurrence. Over the union `U` of the group's spans this gives
//! `C = Q[:, U]·V`, then `Q[:, U] −= C·(V·Tᵀ)ᵀ`: two
//! [`gemm_serial`]s, of inner dimension `|U|` and `m`.
//! The chase is host scalar arithmetic, so they do not go through
//! `GemmContext`. They run on the calling thread: a group's GEMM is a few
//! MFLOP at n = 1024, and one fork per group (over a thousand groups)
//! cost more than it saved, so `Q₂` is formed on one thread at every pool
//! size, with the same bits.
//!
//! The grouped product equals the sequential one in exact arithmetic, not
//! bit for bit; the tests hold it to the sequential product within a
//! stated `c·n·u`.
//!
//! # Rows that are still zero
//!
//! `Q₂` starts as the identity, so early in the chase most of each column
//! is still exactly `+0`. [`QAccumulator`] keeps `top[c]`, a row above
//! which column `c` of Q is all `+0`; it starts at `c`. A group on columns
//! `U` updates only the rows `[r0, n)`, `r0 = min top[U]`, and then sets
//! `top[U] = r0`. The rows above `r0` are never read or written, so they
//! stay `+0`. Started from the identity, this cuts the accumulation by
//! about a third.

use tcevd_factor::qr::larft;
use tcevd_matrix::blas3::gemm_serial;
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::{Mat, Op};

/// Sweeps whose reflectors are applied together: the group size `m`
/// (capped at `b`). Of 4, 8, 16 and 32, 16 ran the chase fastest at
/// n = 1024, b = 32 (EXPERIMENTS.md).
pub(crate) const GROUP_SWEEPS: usize = 16;

/// Accumulates a chase's reflectors into Q as compact-WY groups (see the
/// module docs). The chase calls [`push`](Self::push) for each reflector
/// with `τ ≠ 0`, [`end_sweep`](Self::end_sweep) after each sweep and
/// [`finish`](Self::finish) at the end.
pub(crate) struct QAccumulator<'q, T> {
    q: &'q mut Mat<T>,
    b: usize,
    /// Sweeps per block: [`GROUP_SWEEPS`], at most `b`.
    m: usize,
    /// Reflector positions `k` per sweep.
    slots: usize,
    /// Column `c` of Q is `+0` in every row above `top[c]`.
    top: Vec<usize>,
    /// First sweep of the buffered block.
    j0: usize,
    /// Sweeps of the block ended so far.
    swept: usize,
    /// Column `i·slots + k` holds `H(j0+i, k)`'s vector (`v[0] = 1`) in its
    /// first `len[i·slots + k]` rows.
    refl: Mat<T>,
    len: Vec<usize>,
    /// `τ` of each slot; `0` where nothing was pushed.
    tau: Vec<T>,
    /// Per-group scratch: the block indices `i` of the group's reflectors,
    /// `V`, `W = V·Tᵀ`, and `C = Q[r0.., U]·V`.
    members: Vec<usize>,
    v: Mat<T>,
    w: Mat<T>,
    c: Mat<T>,
    /// Groups applied, and the flops of their GEMMs.
    pub(crate) groups: u64,
    pub(crate) flops: u64,
}

impl<'q, T: Scalar> QAccumulator<'q, T> {
    /// Accumulate into `q`, which must be the identity, the reflectors of a
    /// chase of bandwidth `b`.
    pub(crate) fn new(q: &'q mut Mat<T>, b: usize) -> Self {
        let n = q.rows();
        let m = GROUP_SWEEPS.min(b);
        let slots = n.div_ceil(b);
        QAccumulator {
            q,
            b,
            m,
            slots,
            top: (0..n).collect(),
            j0: 0,
            swept: 0,
            refl: Mat::zeros(b, m * slots),
            len: vec![0; m * slots],
            tau: vec![T::ZERO; m * slots],
            members: Vec::with_capacity(m),
            v: Mat::zeros(b + m - 1, m),
            w: Mat::zeros(b + m - 1, m),
            c: Mat::zeros(n, m),
            groups: 0,
            flops: 0,
        }
    }

    /// Record `H = I − τ·v·vᵀ` acting on columns `[s, s + v.len())`, the
    /// next reflector of the current sweep.
    pub(crate) fn push(&mut self, s: usize, tau: T, v: &[T]) {
        let j = self.j0 + self.swept;
        let slot = self.swept * self.slots + (s - j - 1) / self.b;
        self.refl.col_mut(slot)[..v.len()].copy_from_slice(v);
        self.len[slot] = v.len();
        self.tau[slot] = tau;
    }

    /// Called once after each sweep; applies the block once it holds
    /// `m` sweeps.
    pub(crate) fn end_sweep(&mut self) {
        self.swept += 1;
        if self.swept == self.m {
            self.apply_block();
        }
    }

    /// Apply the reflectors of a last, partial block.
    pub(crate) fn finish(&mut self) {
        if self.swept > 0 {
            self.apply_block();
        }
    }

    /// Apply the buffered block as its groups `G_k`, in descending `k`.
    fn apply_block(&mut self) {
        let n = self.q.rows();
        let (b, slots, j0) = (self.b, self.slots, self.j0);
        for k in (0..slots).rev() {
            self.members.clear();
            self.members
                .extend((0..self.swept).filter(|&i| self.tau[i * slots + k] != T::ZERO));
            let Some(&first) = self.members.first() else {
                continue;
            };
            // Column span of H(j0 + i, k).
            let start = |i: usize| j0 + i + 1 + k * b;
            let c0 = start(first);
            let cend = self
                .members
                .iter()
                .map(|&i| start(i) + self.len[i * slots + k])
                .max()
                .unwrap_or(c0);
            let (ncols, mg) = (cend - c0, self.members.len());

            // V: each vector at its offset in U, zero elsewhere.
            let mut v = self.v.view_mut(0, 0, ncols, mg);
            v.fill(T::ZERO);
            for (p, &i) in self.members.iter().enumerate() {
                let (slot, off) = (i * slots + k, start(i) - c0);
                let len = self.len[slot];
                v.col_mut(p)[off..off + len].copy_from_slice(&self.refl.col(slot)[..len]);
            }
            let v = self.v.view(0, 0, ncols, mg);

            let taus: Vec<T> = self
                .members
                .iter()
                .map(|&i| self.tau[i * slots + k])
                .collect();
            let t = larft(v, &taus);
            // W = V·Tᵀ: column p is Σ_{c ≥ p} T[p, c]·v_c.
            let mut w = self.w.view_mut(0, 0, ncols, mg);
            for p in 0..mg {
                let wp = w.col_mut(p);
                wp.fill(T::ZERO);
                for c in p..mg {
                    let tpc = t[(p, c)];
                    for (x, &y) in wp.iter_mut().zip(v.col(c)) {
                        *x += tpc * y;
                    }
                }
            }

            // Rows above r0 are +0 across U: leave them untouched.
            let span = &mut self.top[c0..cend];
            let r0 = span.iter().copied().min().unwrap_or(n);
            span.fill(r0);
            let rows = n - r0;
            gemm_serial(
                T::ONE,
                self.q.view(r0, c0, rows, ncols),
                Op::NoTrans,
                v,
                Op::NoTrans,
                T::ZERO,
                self.c.view_mut(0, 0, rows, mg),
            );
            gemm_serial(
                -T::ONE,
                self.c.view(0, 0, rows, mg),
                Op::NoTrans,
                self.w.view(0, 0, ncols, mg),
                Op::Trans,
                T::ONE,
                self.q.view_mut(r0, c0, rows, ncols),
            );
            self.groups += 1;
            self.flops += 4 * (rows * ncols * mg) as u64;
        }
        self.tau.fill(T::ZERO);
        self.j0 += self.swept;
        self.swept = 0;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tcevd_factor::householder::apply_reflector_right;

    /// One recorded reflector: sweep `j`, first column `s`, `τ`, `v`.
    struct Refl<T> {
        j: usize,
        s: usize,
        tau: T,
        v: Vec<T>,
    }

    /// The chase's reflector schedule on an n×n Q at bandwidth `b`, with
    /// random orthogonal reflectors (`v[0] = 1`, `τ = 2/vᵀv`), the ragged
    /// last reflector of each sweep, and `τ = 0` on about one in five.
    fn schedule<T: Scalar>(n: usize, b: usize, seed: u64) -> Vec<Refl<T>> {
        let mut st = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        let mut next = move || {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((st >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut out = Vec::new();
        for j in 0..n.saturating_sub(2) {
            let mut s = j + 1;
            while s < n {
                let len = b.min(n - s);
                if len <= 1 {
                    break;
                }
                let v: Vec<T> = (0..len)
                    .map(|i| T::from_f64(if i == 0 { 1.0 } else { next() }))
                    .collect();
                let tau = if next() < -0.6 {
                    T::ZERO
                } else {
                    T::from_f64(2.0) / v.iter().fold(T::ZERO, |a, &x| a + x * x)
                };
                out.push(Refl { j, s, tau, v });
                s += b;
            }
        }
        out
    }

    /// What [`grouped`] leaves: Q, the final `top`, the group count and
    /// the group GEMMs' flops.
    struct Run<T> {
        q: Mat<T>,
        top: Vec<usize>,
        groups: u64,
        flops: u64,
    }

    /// Accumulate `refl` into the identity as the chase does; `all_rows`
    /// clears the zero-row bound first, so every group updates every row.
    fn grouped<T: Scalar>(n: usize, b: usize, refl: &[Refl<T>], all_rows: bool) -> Run<T> {
        let mut q = Mat::<T>::identity(n, n);
        let mut acc = QAccumulator::new(&mut q, b);
        if all_rows {
            acc.top.fill(0);
        }
        let mut it = refl.iter().peekable();
        for j in 0..n.saturating_sub(2) {
            while let Some(r) = it.next_if(|r| r.j == j) {
                if r.tau != T::ZERO {
                    acc.push(r.s, r.tau, &r.v);
                }
            }
            acc.end_sweep();
        }
        acc.finish();
        let (top, groups, flops) = (acc.top.clone(), acc.groups, acc.flops);
        Run {
            q,
            top,
            groups,
            flops,
        }
    }

    fn bits<T: Scalar>(q: &Mat<T>) -> Vec<u64> {
        q.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// The sequential product `I·H₁·H₂⋯`, one reflector at a time.
    fn sequential<T: Scalar>(n: usize, refl: &[Refl<T>]) -> Mat<T> {
        let mut q = Mat::<T>::identity(n, n);
        for r in refl {
            apply_reflector_right(r.tau, &r.v, q.view_mut(0, r.s, n, r.v.len()));
        }
        q
    }

    fn shapes() -> Vec<(usize, usize)> {
        let mut shapes = Vec::new();
        for b in [2, 3, 8, 32] {
            for n in [3, b + 1, b + 2, 2 * b + 1, 100, 300] {
                shapes.push((n, b));
            }
        }
        shapes
    }

    /// The constant `c` of the `‖Q_grouped − Q_sequential‖_F ≤ c·n·u`
    /// bound, `u` the precision's unit roundoff. Both products are
    /// backward stable, so the bound is on their difference; the largest
    /// ratio over [`shapes`] is 1.16 (f32, n = 9, b = 8); the others are
    /// 0.9 or less.
    const C: f64 = 2.0;

    /// Grouped accumulation matches the sequential product within `c·n·u`
    /// on every shape, with a partial last block, ragged last reflectors
    /// and `τ = 0` gaps; the rows above each column's bound are exactly
    /// `+0`; and the group count is the number of distinct `(block, k)`
    /// among the pushed reflectors.
    fn check<T: Scalar>(seed: u64) {
        for (idx, (n, b)) in shapes().into_iter().enumerate() {
            let refl = schedule::<T>(n, b, seed + idx as u64);
            let Run { q, top, groups, .. } = grouped(n, b, &refl, false);
            let want = sequential(n, &refl);
            let tag = format!("{} n={n} b={b}", T::NAME);

            let diff = q
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .map(|(x, y)| (x.to_f64() - y.to_f64()).powi(2))
                .sum::<f64>()
                .sqrt();
            let unit = n as f64 * T::EPSILON.to_f64() * 0.5;
            assert!(
                diff <= C * unit,
                "{tag}: {:.3} n·u from the sequential product",
                diff / unit
            );

            for (c, &t) in top.iter().enumerate() {
                for i in 0..t {
                    assert_eq!(q[(i, c)].to_f64().to_bits(), 0, "{tag}: Q[{i}, {c}]");
                    assert_eq!(want[(i, c)], T::ZERO, "{tag}: bound is not exact");
                }
            }
            let m = GROUP_SWEEPS.min(b);
            let want_groups: BTreeSet<(usize, usize)> = refl
                .iter()
                .filter(|r| r.tau != T::ZERO)
                .map(|r| (r.j / m, (r.s - r.j - 1) / b))
                .collect();
            assert_eq!(groups, want_groups.len() as u64, "{tag}: groups");
        }
    }

    #[test]
    fn grouped_matches_the_sequential_product_f64() {
        check::<f64>(10);
    }

    #[test]
    fn grouped_matches_the_sequential_product_f32() {
        check::<f32>(20);
    }

    /// The zero-row bound changes no bit: accumulating over every row
    /// (`top` cleared to 0) gives the same Q, because each GEMM row is its
    /// own FMA chain and the skipped rows only ever hold `+0`. On these
    /// shapes the bound skips 28–43% of the GEMM flops.
    #[test]
    fn row_bound_matches_full_rows_bitwise() {
        for (n, b) in [(300, 8), (300, 32), (100, 3)] {
            let refl = schedule::<f64>(n, b, 3);
            let bounded = grouped(n, b, &refl, false);
            let full = grouped(n, b, &refl, true);
            assert!(bits(&bounded.q) == bits(&full.q), "n={n} b={b}");
            let (fb, ff) = (bounded.flops, full.flops);
            assert!(4 * fb < 3 * ff, "n={n} b={b}: {fb} of {ff} flops");
        }
    }

    /// Q is bit-identical at 1 and 4 pool threads. At n = 512, b = 32 the
    /// early groups' update GEMM (up to 2·512·47·16 flops) clears
    /// `blas3::gemm`'s parallel threshold, where it would fork; the group
    /// GEMMs run on one thread instead. That the 4-thread chase forks no
    /// group is checked exactly in `tests/chase_threads.rs`, a binary of its
    /// own, since the pool counters are process-wide.
    #[test]
    fn grouped_q_is_thread_count_invariant() {
        let (n, b) = (512, 32);
        let refl = schedule::<f32>(n, b, 5);
        rayon::configure(1);
        let q1 = grouped(n, b, &refl, false).q;
        rayon::configure(4);
        let q4 = grouped(n, b, &refl, false).q;
        rayon::configure(0);
        assert!(bits(&q1) == bits(&q4));
    }
}
