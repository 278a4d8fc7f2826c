//! # tcevd-serve — EVD as a service
//!
//! A fault-isolated EVD service over the `tcevd-core` pipeline
//! (ROADMAP item 1: absorb thousands of concurrent small/medium EVDs).
//! One bad job — singular input, an injected fault, a runaway recovery
//! ladder — must never take the process down or contaminate its neighbors;
//! robustness is the headline here, not an afterthought.
//!
//! The pieces (DESIGN.md §11):
//!
//! * [`JobSpec`] — one submission: matrix + [`SymEigOptions`] + priority +
//!   optional compute budget + retry budget (+ an optional chaos-suite
//!   fault plan).
//! * [`EvdService`] — bounded admission queue with priority-aware shedding
//!   ([`EvdError::Overloaded`]), worker threads that each take one job at
//!   a time, running small jobs on one thread and giving large jobs the
//!   whole worker pool, per-job fault isolation (own `TraceSink`, own
//!   error scope, worker-panic containment via `catch_unwind`), deadline cancellation at the
//!   pipeline's stage seams, retry with deterministic seeded backoff, an
//!   overload mode that downgrades `RecoveryPolicy`, and a results cache
//!   keyed by matrix-bits + options hash.
//! * Every event is a `serve.*` counter on the service sink; per-job
//!   events tally under `serve.job.<name>.<event>` and render as a labeled
//!   Prometheus family (see `TraceSink::prometheus_text`).
//!
//! ```
//! use tcevd_serve::{EvdService, JobSpec, ServeConfig};
//! use tcevd_matrix::Mat;
//!
//! let service = EvdService::new(ServeConfig {
//!     workers: 0, // caller-driven: run_pending() executes on this thread
//!     ..ServeConfig::default()
//! });
//! let a = Mat::<f32>::identity(8, 8);
//! let h = service.submit(JobSpec::new("demo", a)).unwrap();
//! service.run_pending();
//! let r = service.wait(h).unwrap();
//! assert_eq!(r.values.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

mod backoff;
mod cache;
mod job;
mod service;
mod validate;

pub use backoff::backoff_delay;
pub use job::{JobHandle, JobSpec, JobState, Priority};
pub use service::{EvdService, ServeConfig};
pub use validate::validate_input;

// Re-exported so service callers need not name the lower crates for the
// common submit/poll/wait loop.
pub use tcevd_core::{EvdError, EvdStage, SymEigOptions, SymEigResult};
pub use tcevd_tensorcore::Engine;
