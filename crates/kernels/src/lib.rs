//! # sbc-kernels — tile-level dense linear algebra kernels
//!
//! This crate provides the sequential, tile-level kernels used by the tiled
//! Cholesky factorization (Algorithm 1 of the SBC paper) and by the derived
//! operations (POSV solve sweeps, TRTRI triangular inversion, LAUUM
//! triangular product):
//!
//! * [`gemm`] — general matrix-matrix multiply-accumulate (all transpose
//!   combinations),
//! * [`syrk`] — symmetric rank-k update restricted to the lower triangle,
//! * [`trsm`] — triangular solves with a tile of right-hand sides,
//! * [`potrf`] — in-tile Cholesky factorization,
//! * [`trtri`] — in-tile lower-triangular inversion,
//! * [`lauum`] — in-tile product `L^T * L` (lower part),
//! * [`trmm`] — triangular matrix multiply.
//!
//! All kernels operate on [`Tile`]s: square, column-major, `f64` blocks of a
//! fixed dimension `b`. They are the Rust stand-in for the MKL/BLAS kernels
//! used by the paper's Chameleon experiments, validated against naive
//! reference implementations in [`reference`].
//!
//! ## Backends
//!
//! Kernels are dispatched through the [`Kernels`] trait, implemented by
//! [`KernelBackend`]: `Naive` (the reference loop nests), `Blocked`
//! (cache-blocked, register-tiled portable kernels) and `Arch`
//! (`std::arch` SIMD behind the `simd` cargo feature, with runtime
//! fallback to `Blocked`). All backends produce **bit-identical** results;
//! selection precedence is the `SBC_KERNELS` env var, then the builder,
//! then the `Blocked` default. All entry points go through [`Kernels`]; the
//! per-operation modules only expose the reference implementations
//! crate-internally.
//!
//! The kernels never allocate (except [`Tile`] constructors) and are
//! `Send + Sync`-friendly: they borrow tiles mutably/immutably so the
//! runtime crates can execute them from worker threads without locks.

#![warn(missing_docs)]

mod arch;
pub mod backend;
mod blocked;
pub mod flops;
pub mod gemm;
pub mod getrf;
pub mod lauum;
pub mod potrf;
pub mod reference;
pub mod syrk;
pub mod tile;
pub mod trmm;
pub mod trsm;
pub mod trtri;

pub use backend::{KernelBackend, Kernels, KERNELS_ENV};
pub use flops::{
    flops_cholesky_total, flops_gemm, flops_getrf, flops_lauum, flops_lu_total, flops_posv_total,
    flops_potrf, flops_potri_total, flops_syrk, flops_trmm, flops_trsm, flops_trtri,
};
pub use gemm::Trans;
pub use tile::Tile;

/// Errors produced by kernels that can fail numerically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// `potrf` hit a non-positive pivot: the tile (and hence the matrix) is
    /// not symmetric positive definite. Carries the 0-based index of the
    /// offending diagonal entry within the tile.
    NotPositiveDefinite(usize),
    /// `trtri` hit an exactly-zero diagonal entry (singular triangle).
    SingularTriangle(usize),
    /// Two tiles passed to a kernel have mismatched dimensions.
    DimensionMismatch {
        /// Dimension expected by the kernel call.
        expected: usize,
        /// Dimension actually found.
        found: usize,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::NotPositiveDefinite(i) => {
                write!(f, "matrix not positive definite (pivot {i})")
            }
            KernelError::SingularTriangle(i) => {
                write!(f, "singular triangular matrix (diagonal {i})")
            }
            KernelError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "tile dimension mismatch: expected {expected}, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for KernelError {}
