//! # tcevd-matrix — dense linear-algebra substrate
//!
//! Column-major dense matrices, strided views, and the BLAS-1/2/3 kernel set
//! used by every higher-level crate in the tcevd workspace (QR/LU
//! factorizations, successive band reduction, eigensolvers).
//!
//! Also home to the reduced-precision scalar emulation (the [`mod@f16`] module) that the
//! Tensor-Core simulator is built on: bit-exact IEEE binary16 conversion with
//! round-to-nearest-even, and NVIDIA TF32 mantissa truncation.
//!
//! Design notes:
//! * Storage is column-major with explicit leading dimension in views,
//!   mirroring LAPACK conventions so blocked algorithms translate directly.
//! * GEMM is a BLIS-style cache-blocked kernel: operands are packed into
//!   contiguous register-tile strips ([`mod@pack`]) and multiplied by a
//!   fixed-order MR×NR microkernel ([`mod@microkernel`]); the parallel
//!   fan-out hands workers disjoint column chunks of the output —
//!   data-race freedom by construction, bit-identical at any thread count.
//! * Everything is generic over [`Scalar`] (`f32`/`f64`): the f32 pipeline is
//!   the paper's working precision, the f64 pipeline is the LAPACK-substitute
//!   reference.

#![forbid(unsafe_code)]

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod f16;
pub mod mat;
pub mod mem;
pub mod microkernel;
pub mod norms;
pub mod pack;
pub mod scalar;
pub mod tile;

pub use blas2::Op;
pub use blas3::Side;
pub use f16::F16;
pub use mat::{Mat, MatMut, MatRef};
pub use scalar::Scalar;

/// Commonly used items.
pub mod prelude {
    pub use crate::blas1::{axpy, dot, nrm2, scal};
    pub use crate::blas2::{gemv, symv_lower, Op};
    pub use crate::blas3::{gemm, gemm_with, matmul, syr2k_lower, trsm, Side};
    pub use crate::mat::{Mat, MatMut, MatRef};
    pub use crate::norms::{frobenius, max_abs, orthogonality_residual};
    pub use crate::scalar::Scalar;
}
