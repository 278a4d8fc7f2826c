//! Register-tiled GEMM microkernel — the innermost level of the packed
//! BLIS-style GEMM in [`crate::blas3`].
//!
//! One call computes `C[..mr, ..nr] += alpha · Ap·Bp`, where `Ap` is one
//! MR-strip of packed `op(A)` and `Bp` one NR-strip of packed `op(B)`
//! (layouts documented in [`crate::pack`]). The MR×NR accumulator lives in
//! fixed-size arrays that the compiler keeps in registers / vector lanes,
//! and both operands stream contiguously, so the kernel is limited by
//! multiply–add throughput rather than by the strided loads that dominated
//! the old loop nest.
//!
//! Everything here is safe Rust: the hot loops use const-length slice
//! windows so bounds checks hoist and the autovectorizer fires. The tier
//! dispatcher ([`crate::tile::kernel_for`]) owns the finite set of
//! monomorphized instances.
//!
//! **Determinism contract:** every accumulator element takes one fused
//! multiply-add per `k` step — `acc = fma(a, b, acc)`, a single rounding
//! through [`Scalar::mul_add`] — with `k` ascending; the finished
//! accumulator is then added to C as `c + alpha·acc` (two roundings). The
//! order is a pure function of the call arguments, and IEEE fma is
//! correctly rounded, so the bits do not depend on the target's vector
//! width or on whether the FMA is a hardware instruction or a libm call.
//! [`crate::blas3::gemm`] relies on this (together with its fixed
//! column partition) for bit-identical results at every thread count.
//!
//! The Tensor-Core engines pack operands rounded to fp16 (`Tc`, `EcTc`)
//! or tf32 (`Tf32`): 11-bit significands, so every product fits f32's
//! 24-bit significand exactly and the fused step gives the same bits as a
//! separate multiply and add. For fp16 operands that holds always (their
//! products stay inside f32's normal range); for tf32 it holds unless a
//! product underflows or overflows f32.

use crate::scalar::Scalar;

/// `C[..mr, ..nr] += alpha · Ap·Bp` for one packed tile pair.
///
/// * `a` — `kc` micro-columns of `MR` packed values (`a[l*MR + i]`,
///   zero-padded past the matrix edge).
/// * `b` — `kc` micro-rows of `NR` packed values (`b[l*NR + j]`).
/// * `c` — column-major tile with leading dimension `ldc`; only the live
///   `mr`×`nr` corner is written back. Padded accumulator lanes are
///   computed (they cost nothing: full-width FMA) but never stored, so
///   padding zeros cannot perturb the result.
/// * `mr ≤ MR`, `nr ≤ NR` — the live extent of a ragged edge tile.
// `inline(never)`: the kernel must be compiled as its own well-vectorized
// function. When it inlines into the (large, generic) chunk closure of
// `blas3::gemm_with`, register pressure from the surrounding loop nest
// wrecks the accumulator allocation and throughput drops ~5×; outlined,
// every instantiation gets the same tight FMA loop and the per-tile call
// cost is noise (one call per kc·MR·NR ≈ 8k flops).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub fn microkernel<T: Scalar, const MR: usize, const NR: usize>(
    kc: usize,
    a: &[T],
    b: &[T],
    alpha: T,
    c: &mut [T],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    assert!(mr <= MR && nr <= NR, "live tile exceeds MR×NR");
    assert!(a.len() >= kc * MR, "packed A strip too short");
    assert!(b.len() >= kc * NR, "packed B strip too short");
    let mut acc = [[T::ZERO; MR]; NR];
    // chunks_exact + fixed-size conversion: every length in the hot loop is
    // a compile-time constant, so no per-iteration bounds checks survive
    // and the autovectorizer sees straight-line FMA chains.
    for (av, bv) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        // chunks_exact guarantees the slice lengths, so these conversions
        // cannot fail; the `else` arms are dead branches kept panic-free so
        // the kernel stays reachable-safe from the hot paths (lint R8).
        let Ok(av) = <&[T; MR]>::try_from(av) else {
            continue;
        };
        let Ok(bv) = <&[T; NR]>::try_from(bv) else {
            continue;
        };
        for (col, &w) in acc.iter_mut().zip(bv.iter()) {
            for (x, &ai) in col.iter_mut().zip(av.iter()) {
                *x = ai.mul_add(w, *x);
            }
        }
    }
    if mr == MR && nr == NR {
        // full tile: const-length writeback, fully unrollable
        for (j, col) in acc.iter().enumerate() {
            let cj = &mut c[j * ldc..j * ldc + MR];
            for (ci, &x) in cj.iter_mut().zip(col) {
                *ci += alpha * x;
            }
        }
    } else {
        // ragged edge: write only the live corner
        for (j, col) in acc.iter().take(nr).enumerate() {
            let cj = &mut c[j * ldc..j * ldc + mr];
            for (ci, &x) in cj.iter_mut().zip(col) {
                *ci += alpha * x;
            }
        }
    }
}

/// The wide-lane variant of [`microkernel`]: same packed-strip contract,
/// same per-element fused accumulation, at tile height `MR = MV·LANES`.
/// The accumulator is `NR` columns of `MV` const-length `[T; LANES]`
/// blocks, and each `k` step walks the lane blocks of the A strip in the
/// outer loop and the tile columns in the inner one: one A block is loaded
/// once and meets all `NR` broadcast B values. That shape is what the
/// autovectorizer keeps entirely in vector registers at every tile the
/// dispatcher offers, 8×4 up to 32×8. With the columns in the outer loop
/// instead (one flat `MR`-long column per B value), LLVM keeps 8×8 and
/// 16×4 in registers but vectorizes 16×8 and 32×8 across the columns, with
/// a gather/scatter per step, at a tenth of the speed.
///
/// **Bit-exactness:** each `acc[j][i]` still takes its
/// `fma(a[l·MR+i], b[l·NR+j], ·)` steps in ascending `l` — lane blocking
/// regroups *which elements sit in one vector register*, never the
/// per-element operation order — so for equal `kc` this kernel is
/// bit-identical to [`microkernel`] at any tile. The tiered dispatch in
/// [`crate::tile`] relies on that to keep the scalar kernel a usable
/// oracle.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub fn microkernel_wide<T: Scalar, const MV: usize, const NR: usize, const LANES: usize>(
    kc: usize,
    a: &[T],
    b: &[T],
    alpha: T,
    c: &mut [T],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let tile_m = MV * LANES;
    assert!(mr <= tile_m && nr <= NR, "live tile exceeds MR×NR");
    assert!(a.len() >= kc * tile_m, "packed A strip too short");
    assert!(b.len() >= kc * NR, "packed B strip too short");
    let mut acc = [[[T::ZERO; LANES]; MV]; NR];
    for (av, bv) in a.chunks_exact(tile_m).zip(b.chunks_exact(NR)).take(kc) {
        // chunks_exact guarantees the lengths; the `else` arms are dead
        // branches kept panic-free for lint R8, as in `microkernel`.
        let Ok(bv) = <&[T; NR]>::try_from(bv) else {
            continue;
        };
        for (v, al) in (0..MV).zip(av.chunks_exact(LANES)) {
            let Ok(al) = <&[T; LANES]>::try_from(al) else {
                continue;
            };
            for (col, &w) in acc.iter_mut().zip(bv) {
                let x = &mut col[v];
                for i in 0..LANES {
                    x[i] = al[i].mul_add(w, x[i]);
                }
            }
        }
    }
    // Move the accumulator before the writeback walks it with the runtime
    // extent `mr`×`nr`. The hot loop above then only ever indexes `acc` by
    // compile-time constants, so LLVM keeps all of it in registers; without
    // the move the dynamic indexing pins `acc` to the stack and every FMA
    // also stores its result.
    let acc = acc;
    let (live_m, live_n) = if mr == tile_m && nr == NR {
        (tile_m, NR)
    } else {
        (mr, nr)
    };
    for (j, col) in acc.iter().take(live_n).enumerate() {
        let cj = &mut c[j * ldc..j * ldc + live_m];
        for (ci, &x) in cj.iter_mut().zip(col.as_flattened()) {
            *ci += alpha * x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{kernel_for, KernelTier, MicroFn};

    /// Hand-packed 2×2 strips against a naive per-entry product.
    #[test]
    fn full_tile_matches_naive() {
        const MR: usize = 2;
        const NR: usize = 2;
        let kc = 3;
        // op(A) = [[1,2,3],[4,5,6]] packed as micro-columns
        let a = [1.0f64, 4.0, 2.0, 5.0, 3.0, 6.0];
        // op(B) = [[7,8],[9,10],[11,12]] packed as micro-rows
        let b = [7.0f64, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut c = [1.0f64; 4]; // 2×2, ldc = 2
        microkernel::<f64, MR, NR>(kc, &a, &b, 2.0, &mut c, 2, 2, 2);
        // A·B = [[58,64],[139,154]]; C = 1 + 2·(A·B), column-major
        assert_eq!(c, [117.0, 279.0, 129.0, 309.0]);
    }

    #[test]
    fn ragged_edge_leaves_padding_untouched() {
        const MR: usize = 4;
        const NR: usize = 4;
        let kc = 2;
        // live 1×1 problem: op(A) = [[3],[.]], op(B) = [[5],[.]] over k = 2
        let mut a = [0.0f32; 2 * MR];
        let mut b = [0.0f32; 2 * NR];
        a[0] = 3.0; // l = 0, i = 0
        a[MR] = 2.0; // l = 1, i = 0
        b[0] = 5.0;
        b[NR] = 7.0;
        // poison the padding lanes: they must never reach C
        a[1] = f32::NAN;
        b[1] = f32::NAN;
        let mut c = [-1.0f32; 8]; // generous buffer, ldc = 4
        microkernel::<f32, MR, NR>(kc, &a, &b, 1.0, &mut c, 4, 1, 1);
        assert_eq!(c[0], -1.0 + 3.0 * 5.0 + 2.0 * 7.0);
        assert!(c[1..].iter().all(|&v| v == -1.0));
    }

    #[test]
    fn accumulation_order_is_k_ascending() {
        // with alpha = 1 and a 1×1 tile the kernel reduces to an ordered
        // dot product; pin the exact f32 rounding of that order
        const MR: usize = 1;
        const NR: usize = 1;
        let vals = [1.0e8f32, 1.0, -1.0e8, 1.0];
        let ones = [1.0f32; 4];
        let mut c = [0.0f32];
        microkernel::<f32, MR, NR>(4, &vals, &ones, 1.0, &mut c, 1, 1, 1);
        let mut want = 0.0f32;
        for v in vals {
            want = v.mul_add(1.0, want);
        }
        assert_eq!(c[0], want);
    }

    /// Lane-blocking must not disturb the pinned k-ascending accumulation
    /// order (same catastrophic-cancellation probe as the scalar kernel).
    #[test]
    fn wide_accumulation_order_is_k_ascending() {
        const MR: usize = 8;
        const NR: usize = 1;
        let mut a = [0.0f32; 4 * MR];
        let vals = [1.0e8f32, 1.0, -1.0e8, 1.0];
        for (l, v) in vals.iter().enumerate() {
            a[l * MR] = *v;
        }
        let ones = [1.0f32; 4 * NR];
        let mut c = [0.0f32; MR];
        microkernel_wide::<f32, 1, NR, 8>(4, &a, &ones, 1.0, &mut c, MR, 1, 1);
        let mut want = 0.0f32;
        for v in vals {
            want = v.mul_add(1.0, want);
        }
        assert_eq!(c[0], want);
    }

    /// Deterministic values in [-0.5, 0.5).
    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        }
    }

    /// `C[..mr, ..nr] += alpha·Ap·Bp` written out per element over packed
    /// strips of an `tm`×`tn` tile: `acc` takes one `step` per `k`, in
    /// ascending order, then meets C as `c + alpha·acc`.
    #[allow(clippy::too_many_arguments)]
    fn written_out(
        step: fn(f32, f32, f32) -> f32,
        (tm, tn): (usize, usize),
        kc: usize,
        a: &[f32],
        b: &[f32],
        alpha: f32,
        c: &mut [f32],
        (mr, nr): (usize, usize),
    ) {
        for j in 0..nr {
            for i in 0..mr {
                let mut acc = 0.0f32;
                for l in 0..kc {
                    acc = step(a[l * tm + i], b[l * tn + j], acc);
                }
                c[j * tm + i] += alpha * acc;
            }
        }
    }

    /// The fused step: `fma(a, b, acc)`, one rounding.
    fn fused(a: f32, b: f32, acc: f32) -> f32 {
        a.mul_add(b, acc)
    }

    /// The unfused step: `acc + a·b`, two roundings.
    fn unfused(a: f32, b: f32, acc: f32) -> f32 {
        acc + a * b
    }

    /// Every kernel the dispatcher offers, in both tiers, with its tile.
    fn offered_kernels() -> Vec<(KernelTier, usize, usize, MicroFn<f32>)> {
        let mut out = Vec::new();
        for tier in [KernelTier::Scalar, KernelTier::Wide] {
            for mr in [4, 8, 16, 32] {
                for nr in [4, 8] {
                    if let Some(k) = kernel_for::<f32>(tier, mr, nr) {
                        out.push((tier, mr, nr, k));
                    }
                }
            }
        }
        out
    }

    /// Runs `kernel` and `step`'s written-out loop on the same strips, for
    /// full and ragged live extents, and returns whether any output bit
    /// differed (`exact` asserts there is none).
    fn compare_with_written_out(
        operand: &mut dyn FnMut() -> f32,
        step: fn(f32, f32, f32) -> f32,
        exact: bool,
    ) -> bool {
        let kc = 37;
        let mut any_diff = false;
        for (tier, tm, tn, kernel) in offered_kernels() {
            let a: Vec<f32> = (0..kc * tm).map(|_| operand()).collect();
            let b: Vec<f32> = (0..kc * tn).map(|_| operand()).collect();
            for live in [
                (tm, tn),
                (tm - 3, tn - 1),
                (tm * 2 / 3 + 1, 3),
                (1, 1),
                (tm, 2),
            ] {
                let mut c_kernel = vec![0.25f32; tm * tn];
                let mut c_loop = c_kernel.clone();
                kernel(kc, &a, &b, 1.7, &mut c_kernel, tm, live.0, live.1);
                written_out(step, (tm, tn), kc, &a, &b, 1.7, &mut c_loop, live);
                let same = c_kernel
                    .iter()
                    .zip(&c_loop)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same || !exact,
                    "{tier:?} {tm}×{tn} live {live:?} differs from the written-out loop"
                );
                any_diff |= !same;
            }
        }
        any_diff
    }

    /// Both tiers, at every offered tile, equal the written-out `mul_add`
    /// chain bit for bit — and therefore each other, the dispatch layer's
    /// oracle contract. On general f32 data that chain is not the unfused
    /// one, so the comparison would catch a kernel that never fused.
    #[test]
    fn every_offered_kernel_is_the_written_out_fma_chain() {
        compare_with_written_out(&mut lcg(11), fused, true);
        assert!(
            compare_with_written_out(&mut lcg(11), unfused, false),
            "random f32 operands should expose the second rounding"
        );
    }

    /// On fp16-representable operands every product is exact in f32, so
    /// the fused kernels give exactly the bits of the unfused `acc + a·b`
    /// loop: the reason the Tensor-Core engines' GEMM outputs do not depend
    /// on the fusion. Exponents spread over ±2⁸ so products span a wide range.
    #[test]
    fn f16_operands_give_the_unfused_bits() {
        let mut base = lcg(13);
        let mut scale = lcg(17);
        let mut f16_operand = move || {
            let e = (scale() * 16.0) as i32;
            crate::f16::round_through_f16(base() * 2f32.powi(e))
        };
        compare_with_written_out(&mut f16_operand, unfused, true);
        compare_with_written_out(&mut f16_operand, fused, true);
    }
}
