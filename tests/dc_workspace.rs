//! The divide-and-conquer merge's matrix workspace, held to the buffers the
//! `tcevd_core::dc` module docs list as alive at its peak, in both row
//! settings.
//!
//! This is a test binary of its own because the `tcevd_matrix::mem`
//! watermark is process-global: no other test may allocate matrices while
//! one measures, so each test holds `MEASURE` for its whole run.

use std::sync::Mutex;

use tcevd::evd::{tridiag_dc_with, tridiag_eig_dc, DcRows, SymTridiag};
use tcevd::matrix::mem;
use tcevd::trace::TraceSink;

static MEASURE: Mutex<()> = Mutex::new(());

/// The 1-D Laplacian `tridiag(−1, 2, −1)` with its diagonal perturbed by
/// up to ±0.05: the disorder is too weak to localize the eigenvectors at
/// these sizes, so little deflates and every merge keeps most of its roots
/// active — the input that drives `U` towards n×n.
fn weakly_disordered_laplacian(n: usize, seed: u64) -> SymTridiag<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    };
    let d = (0..n).map(|_| 2.0 + 0.05 * next()).collect();
    SymTridiag::new(d, vec![-1.0; n - 1])
}

#[test]
fn dc_workspace_stays_within_the_top_merge_buffers() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let elem = std::mem::size_of::<f32>() as u64;
    for n in [256usize, 1024] {
        let t = weakly_disordered_laplacian(n, n as u64);
        let base = mem::reset_peak();
        let (vals, z) = tridiag_eig_dc(&t).expect("the Laplacian converges");
        let used = mem::peak_bytes() - base;

        // Alive at the top merge's peak: the n×n output, U (k×k with
        // k ≤ n active roots), and the halves' eigenvectors Q₁ (m×m) and
        // Q₂ ((n−m)×(n−m)), m = ⌊n/2⌋.
        let (n64, m) = (n as u64, (n / 2) as u64);
        let output = n64 * n64;
        let u = n64 * n64;
        let blocks = m * m + (n64 - m) * (n64 - m);
        let bound = (output + u + blocks) * elem;
        assert!(
            used <= bound,
            "n = {n}: D&C peaked {used} B above its baseline, bound {bound} B"
        );
        // The measurement sees the returned eigenvector matrix itself.
        assert!(
            used >= output * elem,
            "n = {n}: peak {used} B misses the output"
        );
        assert_eq!((vals.len(), z.rows(), z.cols()), (n, n, n));
    }
}

#[test]
fn dc_ends_rows_hold_no_quadratic_buffer() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let elem = std::mem::size_of::<f32>() as u64;
    // Columns of U an Ends merge forms at a time (`dc::ENDS_U_PANEL`).
    let panel = 64;
    for n in [256usize, 1024] {
        let t = weakly_disordered_laplacian(n, n as u64);
        let base = mem::reset_peak();
        let (vals, ends) = tridiag_dc_with(&t, DcRows::Ends, &TraceSink::disabled())
            .expect("the Laplacian converges");
        let used = mem::peak_bytes() - base;

        // Alive at the top merge's peak: the 4×n output, the halves' two
        // kept rows Q₁ (2×m) and Q₂ (2×(n−m)), and one U panel (k×64 with
        // k ≤ n active roots).
        let n64 = n as u64;
        let output = 4 * n64;
        let bound = (output + 2 * n64 + panel * n64) * elem;
        assert!(
            used <= bound,
            "n = {n}: Ends D&C peaked {used} B above its baseline, bound {bound} B"
        );
        // Little deflates here, so the panel is nearly n×64 and the
        // measurement sees it along with the output.
        assert!(
            used >= (output + panel * n64 / 2) * elem,
            "n = {n}: peak {used} B misses the output or the U panel"
        );
        assert_eq!((vals.len(), ends.rows(), ends.cols()), (n, 2, n));
    }
}
