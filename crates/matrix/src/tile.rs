//! GEMM tile selection and the row kernels.
//!
//! Every GEMM runs [`microkernel_wide`], at one of two tiles: shapes whose
//! largest dimension is under `SMALL_DIM` take its 8×4 instantiation
//! (one lane block per column, so little of a small shape's tile is zero
//! padding), and every larger shape takes the type's measured tile
//! (`Scalar::GEMM_MR`×`GEMM_NR` at `GEMM_MC`, set in `impl_scalar!`). KC
//! is `Scalar::GEMM_KC` for both.
//!
//! # Determinism and bit-exactness
//!
//! The tile is a **pure function of the GEMM shape and the scalar type** —
//! never of thread count, timing, or any runtime measurement. Every tile
//! accumulates each output element with one fused multiply-add per `k`
//! step ([`Scalar::mul_add`], a single rounding), in the same k-ascending
//! order within KC panels, and `KC` is pinned per scalar type
//! ([`Scalar::GEMM_KC`]): MR/NR/MC only regroup which elements share a
//! register, which cannot change per-element rounding, whereas varying KC
//! would regroup the panel partial sums that *are* added into C. IEEE fma
//! is correctly rounded, so the bits are also the same on every target,
//! with or without hardware FMA (only the speed differs). The result is
//! therefore the written-out `mul_add` chain at any tile, thread count and
//! target; the determinism suite holds `blas3::gemm` to that chain.

use crate::microkernel::{microkernel_wide, LANES};
use crate::scalar::Scalar;

/// Largest-dimension threshold below which a GEMM takes the 8×4 tile and a
/// vector takes the serial row kernels.
pub(crate) const SMALL_DIM: usize = 48;

/// Monomorphized microkernel entry point (matches
/// [`crate::microkernel::microkernel_wide`]'s signature).
pub type MicroFn<T> = fn(usize, &[T], &[T], T, &mut [T], usize, usize, usize);

/// One resolved tile: shape constants plus the monomorphized kernel to
/// call.
#[derive(Copy, Clone)]
pub struct GemmSel<T: Scalar> {
    /// Rows of C per microkernel call.
    pub mr: usize,
    /// Columns of C per microkernel call.
    pub nr: usize,
    /// Rows of A packed per cache block.
    pub mc: usize,
    /// The microkernel instantiated at `mr`×`nr`.
    pub kernel: MicroFn<T>,
}

/// The tile for a GEMM of shape `m×n×k`: a pure function of the shape and
/// `T`.
pub fn select_gemm<T: Scalar>(m: usize, n: usize, k: usize) -> GemmSel<T> {
    if m.max(n).max(k) < SMALL_DIM {
        // MC = SMALL_DIM: one row panel holds every row of a small shape
        GemmSel {
            mr: LANES,
            nr: 4,
            mc: SMALL_DIM,
            kernel: microkernel_wide::<T, 1, 4, LANES>,
        }
    } else {
        GemmSel {
            mr: T::GEMM_MR,
            nr: T::GEMM_NR,
            mc: T::GEMM_MC,
            kernel: T::GEMM_KERNEL,
        }
    }
}

/// Row-local reflector kernels (`w += v_j·col` accumulate, `col -= t·w`
/// update), lane-blocked for vectors of at least `SMALL_DIM` elements.
/// Both forms are **bit-identical** — the arithmetic is per-element
/// (`w[i]` only ever meets `col[i]`), so lane-blocking changes instruction
/// selection, never rounding. The band crate's batched Q accumulation and
/// `apply_reflector_right` route through these.
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

fn row_acc_wide<T: Scalar>(a: T, x: &[T], w: &mut [T]) {
    let n = w.len().min(x.len());
    let (wb, wr) = w[..n].split_at_mut(n - n % LANES);
    let (xb, xr) = x[..n].split_at(n - n % LANES);
    for (wc, xc) in wb.chunks_exact_mut(LANES).zip(xb.chunks_exact(LANES)) {
        let Ok(wc) = <&mut [T; LANES]>::try_from(wc) else {
            continue;
        };
        let Ok(xc) = <&[T; LANES]>::try_from(xc) else {
            continue;
        };
        for i in 0..LANES {
            wc[i] += a * xc[i];
        }
    }
    for (wi, xi) in wr.iter_mut().zip(xr) {
        *wi += a * *xi;
    }
}

fn row_sub_wide<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    let n = y.len().min(x.len());
    let (yb, yr) = y[..n].split_at_mut(n - n % LANES);
    let (xb, xr) = x[..n].split_at(n - n % LANES);
    for (yc, xc) in yb.chunks_exact_mut(LANES).zip(xb.chunks_exact(LANES)) {
        let Ok(yc) = <&mut [T; LANES]>::try_from(yc) else {
            continue;
        };
        let Ok(xc) = <&[T; LANES]>::try_from(xc) else {
            continue;
        };
        for i in 0..LANES {
            yc[i] -= a * xc[i];
        }
    }
    for (yi, xi) in yr.iter_mut().zip(xr) {
        *yi -= a * *xi;
    }
}

/// Row kernels for vectors of length `n`: the serial forms under
/// `SMALL_DIM` (lane blocking cannot pay for itself), the lane forms
/// from there on.
pub fn row_kernels<T: Scalar>(n: usize) -> RowKernels<T> {
    if n < SMALL_DIM {
        RowKernels {
            acc: row_acc_scalar::<T>,
            sub: row_sub_scalar::<T>,
        }
    } else {
        RowKernels {
            acc: row_acc_wide::<T>,
            sub: row_sub_wide::<T>,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_splits_at_small_dim() {
        for (m, n, k) in [(8, 8, 8), (47, 47, 47), (47, 1, 20)] {
            let s = select_gemm::<f32>(m, n, k);
            assert_eq!((s.mr, s.nr), (8, 4));
        }
        for (m, n, k) in [(48, 1, 1), (1, 1, 48), (1024, 1024, 1024)] {
            let s = select_gemm::<f32>(m, n, k);
            assert_eq!(
                (s.mr, s.nr, s.mc),
                (
                    <f32 as Scalar>::GEMM_MR,
                    <f32 as Scalar>::GEMM_NR,
                    <f32 as Scalar>::GEMM_MC
                )
            );
        }
        let s = select_gemm::<f64>(20, 30, 10);
        assert_eq!(s.mc % s.mr, 0);
    }

    #[test]
    fn lane_and_serial_row_kernels_are_bit_identical() {
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
