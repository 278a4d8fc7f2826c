//! GEMM throughput calibration — the paper's Table 1, verbatim.
//!
//! The paper measures A100 GEMM throughput (TFLOPS) for the two shape
//! families that occur in SBR, as a function of the small dimension `k`
//! with the large dimension fixed at m = 32768:
//!
//! * **square × tall-skinny** — `A (m×m) · B (m×k)`: the `A·W` products.
//! * **outer product** — `A (m×k) · B (k×m)`: the rank-k trailing updates
//!   (what `syr2k` would be if Tensor Cores had one).
//!
//! These eight calibration points per engine/shape are the paper's own
//! measurements; everything the performance model predicts interpolates
//! between them (linear in log₂k), which is exactly the sense in which the
//! reproduced figures inherit the A100's real shape behaviour.

use tcevd_tensorcore::Engine;

/// Calibration ks (Table 1 rows).
pub const CAL_K: [usize; 8] = [32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Tensor-Core GEMM, square × tall-skinny (Table 1 col 2).
// 6.28 is the paper's measured TFLOPS at k = 32, not an approximation of τ
#[allow(clippy::approx_constant)]
pub const TC_SQUARE_TALL: [f64; 8] = [6.28, 11.69, 24.44, 42.65, 66.57, 85.73, 112.08, 133.17];
/// SGEMM, square × tall-skinny (Table 1 col 3).
pub const SGEMM_SQUARE_TALL: [f64; 8] = [9.36, 9.65, 10.22, 10.33, 10.36, 10.40, 12.91, 15.31];
/// Tensor-Core GEMM, outer product (Table 1 col 4).
pub const TC_OUTER: [f64; 8] = [20.02, 33.30, 49.83, 97.41, 122.89, 138.82, 121.55, 140.85];
/// SGEMM, outer product (Table 1 col 5).
pub const SGEMM_OUTER: [f64; 8] = [9.31, 9.85, 10.02, 10.23, 10.33, 10.37, 13.13, 14.33];

/// EC-TCGEMM sustained rate cap, TFLOPS (Ootomo & Yokota's CUTLASS
/// implementation: 51 TFLOPS limited-exponent-range on A100; the paper's
/// §5.3). EC issues 3 reduced-precision GEMMs, so its effective rate is
/// `min(tc_rate/3, 51)`.
pub const EC_RATE_CAP: f64 = 51.0;

/// A100 HBM2e bandwidth, bytes/s (the 1.555 TB/s spec figure the bench
/// crate's motivation table also uses) — the memory slope of the roofline.
pub const HBM_BYTES_PER_S: f64 = 1.555e12;

// ---- Host software kernels ---------------------------------------------
//
// Measured achieved rates of the CPU GEMM kernels, from `reproduce gemm
// --n 1024` (f32, square, single-threaded) and a square n = 512 f64
// timing. The Table-1 numbers above are what the modelled A100
// would do; these are what this repo's software kernels actually achieve
// on the reference host — the software end of the roofline the prof crate
// prints. GFLOP/s, not TFLOPS.

/// A software kernel of the host GEMM (`tcevd_matrix::blas3`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HostTier {
    /// Unblocked three-loop `blas3::reference::gemm` — the correctness oracle.
    Reference,
    /// Packed GEMM on the lane-blocked microkernel (`blas3::gemm`).
    Wide,
}

/// Measured f32 achieved rate of a host kernel, GFLOP/s (square n = 1024).
pub fn host_f32_gflops(tier: HostTier) -> f64 {
    match tier {
        HostTier::Reference => 14.4,
        HostTier::Wide => 29.4,
    }
}

/// Measured f64 achieved rate of a host kernel, GFLOP/s (square n = 512;
/// the reference kernel is untimed for f64 — reported as 19.9 GF/s, the
/// packed GEMM's f64 rate on its earlier 8×4 tile, scaled by the
/// reference-to-8×4 ratio observed for f32, 14.4/16.6).
pub fn host_f64_gflops(tier: HostTier) -> f64 {
    match tier {
        HostTier::Reference => 19.9 * (14.4 / 16.6),
        HostTier::Wide => 22.2,
    }
}

/// Host software GEMM peak, GFLOP/s: the packed GEMM's measured f32 rate.
/// This is the ceiling `prof`'s roofline report quotes for the software
/// kernels alongside the modelled A100 ceiling.
pub fn host_peak_gflops() -> f64 {
    host_f32_gflops(HostTier::Wide)
}

fn table_max(t: &[f64; 8]) -> f64 {
    t.iter().copied().fold(0.0, f64::max)
}

/// Peak sustained GEMM rate of an engine (TFLOPS): the highest Table-1
/// calibration point across both shape families — the flat ceiling of the
/// engine's roofline.
pub fn peak_tflops(engine: Engine) -> f64 {
    match engine {
        Engine::Sgemm => table_max(&SGEMM_SQUARE_TALL).max(table_max(&SGEMM_OUTER)),
        Engine::Tc => table_max(&TC_SQUARE_TALL).max(table_max(&TC_OUTER)),
        // TF32 peak is half the fp16 peak on A100 (156 vs 312 TFLOPS)
        Engine::Tf32 => 0.5 * table_max(&TC_SQUARE_TALL).max(table_max(&TC_OUTER)),
        Engine::EcTc => EC_RATE_CAP,
    }
}

/// Ridge-point arithmetic intensity (flop/byte) where an engine's roofline
/// turns from bandwidth-bound to compute-bound.
pub fn ridge_intensity(engine: Engine) -> f64 {
    peak_tflops(engine) * 1e12 / HBM_BYTES_PER_S
}

/// Roofline-attainable rate (TFLOPS) at arithmetic intensity `flop_per_byte`:
/// `min(peak, intensity × bandwidth)`.
pub fn attainable_tflops(engine: Engine, flop_per_byte: f64) -> f64 {
    peak_tflops(engine).min(flop_per_byte * HBM_BYTES_PER_S / 1e12)
}

/// Which Table 1 column family a GEMM shape belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShapeClass {
    /// Inner dimension is large; an output dimension is the small one.
    SquareTall,
    /// Inner dimension is the small one (rank-k update).
    Outer,
}

/// Classify a GEMM by its smallest dimension.
pub fn classify(m: usize, n: usize, k: usize) -> (ShapeClass, usize) {
    let small = m.min(n).min(k);
    if k == small {
        (ShapeClass::Outer, small)
    } else {
        (ShapeClass::SquareTall, small)
    }
}

/// Interpolate a calibration table at dimension `k` (linear in log₂k,
/// clamped above, proportional-to-k below the smallest calibration point —
/// the memory/launch-bound regime).
pub fn interp_rate(table: &[f64; 8], k: usize) -> f64 {
    if k == 0 {
        return table[0] / CAL_K[0] as f64; // degenerate
    }
    if k <= CAL_K[0] {
        return table[0] * k as f64 / CAL_K[0] as f64;
    }
    if k >= CAL_K[7] {
        return table[7];
    }
    let x = (k as f64).log2();
    for i in 0..7 {
        let (x0, x1) = ((CAL_K[i] as f64).log2(), (CAL_K[i + 1] as f64).log2());
        if x <= x1 {
            let t = (x - x0) / (x1 - x0);
            return table[i] * (1.0 - t) + table[i + 1] * t;
        }
    }
    table[7]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_calibration_points() {
        for (i, &k) in CAL_K.iter().enumerate() {
            assert_eq!(interp_rate(&TC_SQUARE_TALL, k), TC_SQUARE_TALL[i]);
            assert_eq!(interp_rate(&TC_OUTER, k), TC_OUTER[i]);
        }
    }

    #[test]
    fn monotone_between_points() {
        let r100 = interp_rate(&TC_SQUARE_TALL, 100);
        assert!(r100 > TC_SQUARE_TALL[1] && r100 < TC_SQUARE_TALL[2]);
    }

    #[test]
    fn clamps_and_small_k() {
        assert_eq!(interp_rate(&TC_OUTER, 8192), TC_OUTER[7]);
        let r16 = interp_rate(&TC_OUTER, 16);
        assert!((r16 - TC_OUTER[0] / 2.0).abs() < 1e-12);
    }

    #[test]
    fn classification() {
        // A·W in SBR: (mp × kf) output with inner mp → square-tall at kf
        assert_eq!(classify(30000, 128, 30000), (ShapeClass::SquareTall, 128));
        // rank-k trailing update: inner k smallest → outer
        assert_eq!(classify(30000, 30000, 1024), (ShapeClass::Outer, 1024));
        // ties: k == min counts as outer
        assert_eq!(classify(128, 128, 128), (ShapeClass::Outer, 128));
    }

    #[test]
    fn roofline_shape() {
        // peaks come straight from the calibration tables
        assert_eq!(peak_tflops(Engine::Tc), 140.85);
        assert_eq!(peak_tflops(Engine::Sgemm), 15.31);
        assert_eq!(peak_tflops(Engine::EcTc), EC_RATE_CAP);
        // below the ridge the roofline is the bandwidth slope, above it the
        // flat compute ceiling
        let ridge = ridge_intensity(Engine::Tc);
        assert!(ridge > 50.0 && ridge < 120.0, "ridge {ridge}");
        assert!(attainable_tflops(Engine::Tc, ridge * 2.0) == peak_tflops(Engine::Tc));
        let low = attainable_tflops(Engine::Tc, 1.0);
        assert!((low - 1.555).abs() < 1e-9, "1 flop/byte → bandwidth-bound");
    }

    #[test]
    fn host_tier_rates_are_ordered_and_sane() {
        use HostTier::*;
        // the packed GEMM beats the reference loop nest for both types
        assert!(host_f32_gflops(Wide) > host_f32_gflops(Reference));
        assert!(host_f64_gflops(Wide) > host_f64_gflops(Reference));
        // host peak is the wide f32 rate, and sits far under the modelled
        // A100 SGEMM ceiling (GF/s vs TFLOPS)
        assert_eq!(host_peak_gflops(), host_f32_gflops(Wide));
        assert!(host_peak_gflops() / 1e3 < peak_tflops(Engine::Sgemm));
    }

    #[test]
    fn tc_beats_sgemm_only_at_large_k() {
        // the crossover the whole paper is about
        assert!(
            interp_rate(&TC_OUTER, 1024)
                > 10.0 * interp_rate(&SGEMM_OUTER, 1024) / 1.0_f64.max(1.0)
        );
        assert!(interp_rate(&TC_SQUARE_TALL, 32) < interp_rate(&SGEMM_SQUARE_TALL, 32));
        assert!(interp_rate(&TC_SQUARE_TALL, 1024) > interp_rate(&SGEMM_SQUARE_TALL, 1024));
    }
}
