//! The allocation watermark (`tcevd_matrix::mem`) read through its public
//! counters.
//!
//! The counters are process-global, so these assertions hold only while no
//! other thread frees a matrix buffer or resets the peak between a test's
//! reads: a sibling test that drops a buffer lowers the live-byte count
//! under a `>=` comparison, and one that resets the peak lowers the
//! watermark. This binary therefore holds nothing but watermark tests, and
//! each takes `RUN_SERIAL` so they never overlap one another.

use std::sync::Mutex;

use tcevd_matrix::mem::{current_bytes, peak_bytes, reset_peak};
use tcevd_matrix::Mat;

static RUN_SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn live_matrices_are_visible_in_the_counters() {
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const BYTES: u64 = 1024 * 1024 * 4; // 1024×1024 f32
    let m = Mat::<f32>::zeros(1024, 1024);
    assert!(current_bytes() >= BYTES);
    assert!(peak_bytes() >= BYTES);
    assert!(peak_bytes() >= current_bytes() || peak_bytes() >= BYTES);
    drop(m);
}

#[test]
fn clone_and_drop_balance() {
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = Mat::<f64>::zeros(256, 256);
    let before = current_bytes();
    let c = m.clone();
    assert!(current_bytes() >= before); // the clone's buffer is counted
    drop(c);
    drop(m);
}

#[test]
fn reset_peak_restarts_from_live_bytes() {
    let _serial = RUN_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    {
        let _big = Mat::<f32>::zeros(512, 512);
    }
    let live = reset_peak();
    assert!(peak_bytes() >= live);
    // a fresh allocation raises the new epoch's watermark again
    let m = Mat::<f32>::zeros(512, 512);
    assert!(peak_bytes() >= live + 512 * 512 * 4);
    drop(m);
}
