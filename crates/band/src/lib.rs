#![forbid(unsafe_code)]
//! # tcevd-band — successive band reduction and bulge chasing
//!
//! The two stages of two-stage tridiagonalization (paper Figure 1), plus the
//! machinery around them:
//!
//! * [`sbr_blocked()`] — the one SBR loop: big-block deferred trailing
//!   updates ('squeezed' near-square GEMMs for Tensor Cores). A
//!   [`BlockEnd`] parameter picks how each block's trailing update is
//!   written: the paper's Algorithm 1 (three rank-`nb` GEMMs; [`sbr_wy()`]
//!   is this setting) or the follow-up paper's detached band reduction
//!   (one rank-`nb` symmetric syr2k, which lets `nb` grow past `b`). The
//!   syr2k end at `nb = b` is the conventional ZY reduction (the
//!   MAGMA-style baseline with tall-skinny GEMMs): one panel per level,
//!   `Z = A·W − ½·Y·(Wᵀ·A·W)`, then one rank-2b syr2k.
//! * [`formw`] — the paper's Algorithm 2: recursive merge of per-block WY
//!   factors for the eigenvector back-transformation.
//! * [`bulge_packed`] — band → tridiagonal bulge chasing (stage 2) on
//!   packed band storage; [`bulge`] is its entry point for dense input.
//! * [`trace_model`] — dry-run GEMM/panel shape traces of the blocked SBR
//!   (ZY included) at arbitrary n, validated call-for-call against the real
//!   runs; these drive the performance-model reproduction of the
//!   paper's timing figures.
//!
//! All numeric drivers take a
//! [`GemmContext`](tcevd_tensorcore::GemmContext), so the same code runs on
//! the simulated Tensor Core (fp16), the error-corrected Tensor Core, or
//! plain FP32 — the paper's three configurations.

#![deny(clippy::unwrap_used)]

pub mod bulge;
pub mod bulge_packed;
pub mod common;
pub mod error;
pub mod formw;
pub mod panel;
mod qupdate;
pub mod sbr_wy;
pub mod storage;
pub mod trace_model;

pub use bulge::{bulge_chase, bulge_chase_with, BulgeResult};
pub use bulge_packed::{bulge_chase_packed, bulge_chase_packed_with};
pub use common::max_outside_band;
pub use error::BandError;
pub use formw::{apply_q, form_wy, form_wy_owned};
pub use panel::{factor_panel, factor_panel_with, FactoredPanel, PanelKind};
pub use sbr_wy::{sbr_blocked, sbr_wy, BlockEnd, LevelWy, WyOptions, WySbrResult};
pub use storage::SymBand;
pub use trace_model::{
    blocked_trace_on, formw_trace, formw_trace_on, wy_trace, wy_trace_on, PanelOp, SbrTrace,
};
