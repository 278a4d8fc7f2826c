//! Allocation high-watermark accounting for matrix buffers.
//!
//! Every [`Mat`](crate::Mat) construction and drop reports its backing
//! buffer's capacity here, so the process-wide live-byte count and its peak
//! are observable at any point — the safe-Rust stand-in for a GPU memory
//! pool's high-watermark query. The pipeline resets the peak at each stage
//! seam ([`reset_peak`]) to attribute `stage.*.peak_bytes` counters, and
//! `tcevd-perfmodel`'s footprint predictions are validated against the same
//! numbers.
//!
//! Counters are global atomics with relaxed ordering: matrix buffers are
//! allocated on the orchestrating thread (the parallel fan-outs hand workers
//! *views* of pre-allocated storage, never fresh `Mat`s), so the recorded
//! peak is deterministic at any worker-pool size — `tests/determinism.rs`
//! holds the pipeline to that.
//!
//! Because the counters are process-wide, a test that compares two reads
//! of them is only valid while no other test in the same process frees a
//! buffer or resets the peak in between. The watermark's own tests live in
//! their own test binary (`tests/mem_watermark.rs`) and hold one lock, so
//! nothing else allocates beside them.

use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A matrix buffer of `bytes` bytes came alive.
pub(crate) fn on_alloc(bytes: usize) {
    let now = CURRENT.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// A matrix buffer of `bytes` bytes was dropped.
pub(crate) fn on_dealloc(bytes: usize) {
    CURRENT.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Bytes currently held by live matrix buffers.
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// High watermark of [`current_bytes`] since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the watermark from the current live-byte count (stage seams call
/// this so each stage's peak is attributed to that stage alone). Returns the
/// live-byte baseline the new epoch starts from.
pub fn reset_peak() -> u64 {
    let now = CURRENT.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}
