#![forbid(unsafe_code)]
//! # tcevd-core — symmetric eigenvalue decomposition drivers
//!
//! The paper's primary deliverable assembled from the substrate crates: a
//! two-stage Tensor-Core symmetric eigensolver with pluggable precision
//! engines, plus the tridiagonal eigensolvers it bottoms out into and the
//! f64 reference pipeline the accuracy tables compare against.
//!
//! * [`pipeline`] — [`sym_eig`]/[`sym_eigenvalues`]: dense symmetric A →
//!   eigenvalues (and optionally eigenvectors) via WY- or ZY-based SBR,
//!   bulge chasing, and divide & conquer or QL.
//! * [`dc`] — Cuppen divide & conquer with deflation and a
//!   safeguarded-Newton secular solver.
//! * [`ql`] — implicit QL with Wilkinson shift.
//! * [`bisect`] — Sturm-sequence bisection for selected eigenvalues.
//! * [`tridiag`] — symmetric tridiagonal type + Sturm counts.
//! * `reference` — f64 one-stage pipeline (LAPACK stand-in).
//! * [`metrics`] — the paper's E_b, E_o, E_s error measures.
//! * [`error`] — the unified [`EvdError`] surface every driver returns.
//! * [`fault`] — deterministic numerical fault injection for robustness
//!   tests (arms [`tcevd_testmat::FaultPlan`]s across all layers).

#![deny(clippy::unwrap_used)]

pub mod bisect;
pub mod dc;
pub mod error;
pub mod fault;
pub mod inverse_iter;
pub mod jacobi;
pub mod metrics;
pub mod pipeline;
pub mod ql;
pub mod reference;
pub mod tridiag;

pub use bisect::{tridiag_eig_bisect, EigRange};
pub use dc::{rank1_update, tridiag_dc_with, tridiag_eig_dc, tridiag_eig_dc_with, DcRows};
pub use error::{EvdError, EvdStage};
pub use inverse_iter::{tridiag_eig_selected, tridiag_inverse_iteration};
pub use jacobi::jacobi_eig;
pub use metrics::{backward_error, eigenpair_residual, eigenvalue_error, orthogonality};
pub use pipeline::{
    sym_eig, sym_eig_selected, sym_eigenvalues, RecoveryPolicy, SbrVariant, SymEigOptions,
    SymEigResult, TridiagSolver,
};
pub use ql::{
    tridiag_eig_ql, tridiag_eig_ql_budget_with, tridiag_eig_ql_with, tridiag_eigenvalues,
    tridiag_eigenvalues_budget_with, tridiag_eigenvalues_with, EigError, DEFAULT_MAX_ITER,
};
pub use reference::{sym_eig_ref, sym_eigenvalues_ref, tridiagonalize};
pub use tridiag::SymTridiag;
