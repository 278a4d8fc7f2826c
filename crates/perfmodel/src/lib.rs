#![forbid(unsafe_code)]
//! # tcevd-perfmodel — A100 analytic timing model
//!
//! The performance half of the hardware substitution (DESIGN.md §2): the
//! numeric behaviour of Tensor Cores is simulated in `tcevd-tensorcore`;
//! the *throughput* behaviour lives here, calibrated against the paper's
//! own Table 1 measurements.
//!
//! The model replays the GEMM/panel shape traces the instrumented
//! algorithms emit (`tcevd-band::trace_model`, validated call-for-call
//! against the real implementations), assigning each call a rate
//! interpolated from Table 1 by shape class and small-dimension. Who wins,
//! by how much, and where the crossovers fall is therefore a function of
//! the algorithms' real shape profiles and the paper's real silicon rates —
//! not of anything fitted to the result figures.

pub mod cost;
pub mod memory;
pub mod rates;
pub mod scenarios;

pub use cost::{A100Model, PanelCost, SbrCost};
pub use memory::{dbr_memory, formw_memory, overhead_ratio, wy_memory, zy_memory, MemoryFootprint};
pub use rates::{
    classify, host_f32_gflops, host_f64_gflops, host_peak_gflops, interp_rate, HostTier, ShapeClass,
};
pub use scenarios::{evd_time, sbr_cost, SbrConfig};
