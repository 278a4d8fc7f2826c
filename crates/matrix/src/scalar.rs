//! Scalar abstraction over the real floating-point types used by the library.
//!
//! The numeric pipelines run in `f32` (the paper's target precision) while the
//! reference pipeline runs in `f64` (standing in for LAPACK). All dense
//! kernels are generic over [`Scalar`] so both paths share one implementation.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::microkernel::{microkernel_wide, LANES};
use crate::tile::MicroFn;

/// A real floating-point scalar (`f32` or `f64`).
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Send
    + Sync
    + 'static
{
    /// Stable type name (`"f32"` / `"f64"`).
    const NAME: &'static str;

    const ZERO: Self;
    const ONE: Self;
    const TWO: Self;
    const HALF: Self;
    /// Machine epsilon (distance from 1.0 to the next representable value).
    const EPSILON: Self;
    /// Smallest positive normal value.
    const MIN_POSITIVE: Self;

    fn from_f64(x: f64) -> Self;
    fn from_usize(x: usize) -> Self;
    fn to_f64(self) -> f64;
    fn abs(self) -> Self;
    fn sqrt(self) -> Self;
    fn hypot(self, other: Self) -> Self;
    fn max_val(self, other: Self) -> Self;
    fn min_val(self, other: Self) -> Self;
    fn copysign(self, sign: Self) -> Self;
    fn is_finite(self) -> bool;
    fn powi(self, n: i32) -> Self;
    /// Fused multiply-add `self·a + b` with a single rounding (IEEE 754
    /// `fusedMultiplyAdd`). Correctly rounded, so the result is the same on
    /// every target; with hardware FMA (`target-cpu=native` on x86-64 or
    /// aarch64) it is one instruction, without it a libm call.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `sign(x)` with `sign(0) = 1`, matching the Householder sign convention.
    fn sign1(self) -> Self {
        if self < Self::ZERO {
            -Self::ONE
        } else {
            Self::ONE
        }
    }

    // --- packed-GEMM blocking parameters (see crate::pack / crate::tile) ---
    //
    // The tile every GEMM whose largest dimension reaches
    // `tile::SMALL_DIM` runs at, set per type in `impl_scalar!`.
    // Invariants relied on by `blas3::gemm`: `GEMM_MC % GEMM_MR == 0`,
    // `blas3::NC % GEMM_NR == 0`, and `GEMM_MR` a multiple of
    // `microkernel::LANES` (the kernel's tile height is `MV·LANES`).

    /// Microkernel tile height — rows of C per microkernel call.
    const GEMM_MR: usize;
    /// Microkernel tile width — columns of C per microkernel call.
    const GEMM_NR: usize;
    /// Row-panel height: the slice of packed A kept cache-resident.
    const GEMM_MC: usize;
    /// Depth of one packed A/B panel (k-dimension blocking). Pinned: it
    /// groups the partial sums that are added into C, so it is the one
    /// blocking parameter that reaches the result's bits.
    const GEMM_KC: usize;
    /// [`crate::microkernel::microkernel_wide`] instantiated at
    /// `GEMM_MR`×`GEMM_NR`.
    const GEMM_KERNEL: MicroFn<Self>;
}

macro_rules! impl_scalar {
    ($t:ty, mr = $mr:literal, nr = $nr:literal, mc = $mc:literal, kc = $kc:literal) => {
        impl Scalar for $t {
            const NAME: &'static str = stringify!($t);

            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const HALF: Self = 0.5;
            const EPSILON: Self = <$t>::EPSILON;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn from_usize(x: usize) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn hypot(self, other: Self) -> Self {
                <$t>::hypot(self, other)
            }
            #[inline(always)]
            fn max_val(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min_val(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn copysign(self, sign: Self) -> Self {
                <$t>::copysign(self, sign)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                <$t>::powi(self, n)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }

            const GEMM_MR: usize = $mr;
            const GEMM_NR: usize = $nr;
            const GEMM_MC: usize = $mc;
            const GEMM_KC: usize = $kc;
            const GEMM_KERNEL: MicroFn<Self> = microkernel_wide::<$t, { $mr / LANES }, $nr, LANES>;
        }
    };
}

// 32×8 at MC = 256 for both types, measured: timed single-threaded
// against every lane tile from 8×4 to 32×8 at MC ∈ {64, 128, 256} on
// square, rank-128 and 128-wide tall products at n = 512 and 1024 (an
// AVX-512 Xeon, `target-cpu=native`), its geometric-mean rate was the best
// or within 3% of the best for both types at both sizes, about twice the
// 8×4 tile's (f32 at n = 512: 66 against 37 GF/s). NR = 8 keeps
// blas3::NC (32) strip-aligned.
impl_scalar!(f32, mr = 32, nr = 8, mc = 256, kc = 256);
impl_scalar!(f64, mr = 32, nr = 8, mc = 256, kc = 256);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_std() {
        assert_eq!(f32::EPSILON, <f32 as Scalar>::EPSILON);
        assert_eq!(f64::EPSILON, <f64 as Scalar>::EPSILON);
        assert_eq!(<f32 as Scalar>::ONE + <f32 as Scalar>::ONE, 2.0f32);
    }

    #[test]
    fn sign1_convention() {
        assert_eq!(0.0f32.sign1(), 1.0);
        assert_eq!((-0.0f32).sign1(), 1.0); // -0.0 is not < 0
        assert_eq!(3.5f32.sign1(), 1.0);
        assert_eq!((-2.0f64).sign1(), -1.0);
    }

    #[test]
    fn conversions_round_trip() {
        let x = 1.2345f64;
        assert!((f64::from_f64(x).to_f64() - x).abs() == 0.0);
        assert!((f32::from_f64(x).to_f64() - x).abs() < 1e-7);
        assert_eq!(f32::from_usize(7), 7.0);
    }

    #[test]
    fn gemm_tiles_satisfy_blocking_invariants() {
        fn check<T: Scalar>() {
            assert!(T::GEMM_MR > 0 && T::GEMM_NR > 0);
            assert_eq!(T::GEMM_MR % LANES, 0, "MR must be a multiple of LANES");
            assert_eq!(T::GEMM_MC % T::GEMM_MR, 0, "MC must be a multiple of MR");
            assert!(T::GEMM_KC > 0);
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn hypot_is_robust() {
        // naive sqrt(a^2+b^2) would overflow
        let a = 1e30f32;
        let b = 1e30f32;
        assert!(a.hypot(b).is_finite());
    }
}
