#![forbid(unsafe_code)]
//! # tcevd-factor — orthogonal and triangular factorizations
//!
//! The factorization toolbox under the band-reduction algorithms:
//!
//! * [`householder`] — elementary reflector generation (`larfg`) and
//!   one-sided / two-sided application.
//! * [`qr`] — unblocked and blocked compact-WY Householder QR, T-factor
//!   construction, explicit-Q formation.
//! * [`tsqr()`] — communication-avoiding Tall-Skinny QR with a parallel
//!   reduction tree (the paper's fast panel, §5.1).
//! * [`lu`] — non-pivoted and partially-pivoted LU.
//! * [`reconstruct`] — Householder-vector reconstruction from an explicit
//!   `Q` via non-pivoted LU (the paper's Algorithm 3), producing the
//!   `Q = I − W·Yᵀ` form the SBR trailing updates consume.
//!
//! Everything is generic over [`tcevd_matrix::Scalar`] — the same code runs
//! the f32 working pipeline and the f64 reference pipeline.

#![deny(clippy::unwrap_used)]

pub mod fault;
pub mod householder;
pub mod lu;
pub mod qr;
pub mod reconstruct;
pub mod tsqr;

pub use householder::{apply_reflector_left, apply_reflector_right, larfg};
pub use lu::{lu_nopivot, lu_partial_pivot, LuError};
pub use qr::{geqr2, geqrf, larft, orgqr, wy_from_packed, QrFactors};
pub use reconstruct::{
    panel_qr_tsqr, panel_qr_tsqr_with, reconstruct_wy, reconstruct_wy_pivoted, PanelWy,
};
pub use tsqr::{tsqr, tsqr_flops, tsqr_with};
