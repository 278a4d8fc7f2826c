// lint-fixture-path: crates/core/src/pipeline.rs
//! R4 fixture: Result-returning public surface.

pub fn good(a: MatRef<f32>) -> Result<Vec<f32>, EvdError> {
    Ok(Vec::new())
}

pub fn bad(a: MatRef<f32>) -> Vec<f32> {
    Vec::new()
}

pub(crate) fn internal(x: f32) -> f32 {
    x
}

// tcevd-lint: allow(R4) — infallible by construction
pub fn waived_helper() -> usize {
    0
}

fn private_helper() -> f32 {
    0.0
}
