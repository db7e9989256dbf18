//! Pluggable kernel backends: one dispatch surface, several engines.
//!
//! [`KernelBackend`] selects *how* the tile kernels execute without changing
//! *what* they compute: every backend is **bit-identical** to [`Naive`] —
//! the same floating-point operations are applied to every output element in
//! the same order, so factors, residuals and the analytic byte accounting
//! the paper's experiments rest on are unchanged by the backend choice.
//!
//! * [`Naive`] — the reference loop nests (unit-stride axpys and dots).
//! * [`Blocked`] — cache-blocked, register-tiled GEMM/SYRK/TRSM/POTRF
//!   written as `chunks_exact`-style portable code the compiler
//!   autovectorizes. Non-multiple-of-block tile dims fall back to the naive
//!   element order on the ragged edges (which is the same order the
//!   microkernels use, so bit-identity holds everywhere).
//! * [`Arch`] — `std::arch` SIMD microkernels (AVX2 on `x86_64`), compiled
//!   only under the `simd` cargo feature and selected at *runtime* via CPU
//!   feature detection; on any other CPU (or without the feature) it falls
//!   back to [`Blocked`]. The intrinsics use separate multiply and add —
//!   never FMA, which rounds once instead of twice and would break
//!   bit-identity with the scalar backends.
//!
//! [`Naive`]: KernelBackend::Naive
//! [`Blocked`]: KernelBackend::Blocked
//! [`Arch`]: KernelBackend::Arch
//!
//! ## Selection precedence
//!
//! The runtime crates resolve the backend as **env > builder > default**:
//! the `SBC_KERNELS` environment variable (`naive` / `blocked` / `arch`)
//! overrides whatever the builder requested ([`KernelBackend::resolve`]),
//! and the default is [`KernelBackend::Blocked`], which is at least as
//! fast as [`Naive`] for every kernel of the Cholesky task graph at every
//! benchmarked tile size. [`Naive`] stays the ground truth the sequential
//! reference algorithms run on. An unrecognized `SBC_KERNELS` value is
//! ignored with a one-time warning on stderr.

use crate::{blocked, KernelError, Tile, Trans};

/// Which engine executes the tile kernels. See the module docs; all
/// variants compute bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelBackend {
    /// Reference loop nests.
    Naive,
    /// Cache-blocked, register-tiled portable kernels (the default).
    #[default]
    Blocked,
    /// `std::arch` SIMD kernels (requires the `simd` cargo feature);
    /// silently falls back to [`KernelBackend::Blocked`] when the feature
    /// is off or the CPU lacks the instructions.
    Arch,
}

/// Environment variable overriding the backend choice (`naive` /
/// `blocked` / `arch`); see [`KernelBackend::resolve`].
pub const KERNELS_ENV: &str = "SBC_KERNELS";

impl KernelBackend {
    /// Parses a CLI/env-style backend name.
    pub fn parse(s: &str) -> Option<KernelBackend> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Some(KernelBackend::Naive),
            "blocked" => Some(KernelBackend::Blocked),
            "arch" | "simd" => Some(KernelBackend::Arch),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelBackend::Naive => "naive",
            KernelBackend::Blocked => "blocked",
            KernelBackend::Arch => "arch",
        }
    }

    /// The backend requested by the [`KERNELS_ENV`] environment variable,
    /// if set to a recognized name. Any other value is ignored, with a
    /// warning on stderr the first time it is seen.
    pub fn from_env() -> Option<KernelBackend> {
        static WARNED: std::sync::Once = std::sync::Once::new();
        let value = std::env::var(KERNELS_ENV).ok()?;
        match Self::parse_env(&value) {
            Ok(k) => Some(k),
            Err(warning) => {
                WARNED.call_once(|| eprintln!("{warning}"));
                None
            }
        }
    }

    /// Parses a [`KERNELS_ENV`] value, or returns the warning that names
    /// the rejected value and the accepted names.
    fn parse_env(value: &str) -> Result<KernelBackend, String> {
        Self::parse(value).ok_or_else(|| {
            format!("warning: ignoring {KERNELS_ENV}={value:?}; expected one of naive|blocked|arch")
        })
    }

    /// Applies the selection precedence **env > builder > default**:
    /// returns the [`KERNELS_ENV`] override when present, else `requested`.
    pub fn resolve(requested: KernelBackend) -> KernelBackend {
        Self::from_env().unwrap_or(requested)
    }

    /// The backend that will actually run: [`KernelBackend::Arch`] demotes
    /// itself to [`KernelBackend::Blocked`] when the `simd` feature is off
    /// or the running CPU lacks the required instructions.
    pub fn effective(self) -> KernelBackend {
        match self {
            KernelBackend::Arch if !crate::arch::available() => KernelBackend::Blocked,
            other => other,
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The tile-kernel dispatch surface: every kernel the runtime executes, as
/// methods. Implemented by [`KernelBackend`] (enum dispatch); usable as a
/// trait object where dynamic choice is preferred.
///
/// Semantics, panics and error behavior of each method match the naive
/// reference implementations in the per-operation modules exactly —
/// including bitwise results.
pub trait Kernels {
    /// `C := alpha * op(A) * op(B) + beta * C`; see [`crate::gemm`].
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        transa: Trans,
        transb: Trans,
        alpha: f64,
        a: &Tile,
        b: &Tile,
        beta: f64,
        c: &mut Tile,
    );

    /// Symmetric rank-k update of the lower triangle; see [`crate::syrk`].
    fn syrk(&self, trans: Trans, alpha: f64, a: &Tile, beta: f64, c: &mut Tile);

    /// In-tile Cholesky factorization; see [`crate::potrf`].
    fn potrf(&self, a: &mut Tile) -> Result<(), KernelError>;

    /// `B := alpha * B * L^{-T}`; see [`crate::trsm`].
    fn trsm_right_lower_trans(&self, alpha: f64, l: &Tile, b: &mut Tile);

    /// `B := alpha * B * L^{-1}`; see [`crate::trsm`].
    fn trsm_right_lower(&self, alpha: f64, l: &Tile, b: &mut Tile);

    /// `B := alpha * L^{-1} * B`; see [`crate::trsm`].
    fn trsm_left_lower(&self, alpha: f64, l: &Tile, b: &mut Tile);

    /// `B := alpha * L^{-T} * B`; see [`crate::trsm`].
    fn trsm_left_lower_trans(&self, alpha: f64, l: &Tile, b: &mut Tile);

    /// `B := L^{-1} * B` with unit diagonal; see
    /// [`crate::trsm`].
    fn trsm_left_unit_lower(&self, l: &Tile, b: &mut Tile);

    /// `B := B * U^{-1}`; see [`crate::trsm`].
    fn trsm_right_upper(&self, u: &Tile, b: &mut Tile);

    /// In-tile lower-triangular inversion; see [`crate::trtri`].
    fn trtri(&self, a: &mut Tile) -> Result<(), KernelError>;

    /// In-tile `L^T * L` product; see [`crate::lauum`].
    fn lauum(&self, a: &mut Tile);

    /// In-tile unpivoted LU; see [`crate::getrf`].
    fn getrf(&self, a: &mut Tile) -> Result<(), KernelError>;

    /// `B := L * B`; see [`crate::trmm`].
    fn trmm_left_lower(&self, l: &Tile, b: &mut Tile);

    /// `B := L^T * B`; see [`crate::trmm`].
    fn trmm_left_lower_trans(&self, l: &Tile, b: &mut Tile);
}

impl Kernels for KernelBackend {
    fn gemm(
        &self,
        transa: Trans,
        transb: Trans,
        alpha: f64,
        a: &Tile,
        b: &Tile,
        beta: f64,
        c: &mut Tile,
    ) {
        match self.effective() {
            KernelBackend::Naive => crate::gemm::naive_gemm(transa, transb, alpha, a, b, beta, c),
            KernelBackend::Blocked => blocked::gemm(transa, transb, alpha, a, b, beta, c),
            KernelBackend::Arch => crate::arch::gemm(transa, transb, alpha, a, b, beta, c),
        }
    }

    fn syrk(&self, trans: Trans, alpha: f64, a: &Tile, beta: f64, c: &mut Tile) {
        match self.effective() {
            KernelBackend::Naive => crate::syrk::naive_syrk(trans, alpha, a, beta, c),
            // the Arch backend accelerates GEMM with intrinsics and shares
            // the blocked implementations for everything else
            _ => blocked::syrk(trans, alpha, a, beta, c),
        }
    }

    fn potrf(&self, a: &mut Tile) -> Result<(), KernelError> {
        match self.effective() {
            KernelBackend::Naive => crate::potrf::naive_potrf(a),
            _ => blocked::potrf(a),
        }
    }

    fn trsm_right_lower_trans(&self, alpha: f64, l: &Tile, b: &mut Tile) {
        match self.effective() {
            KernelBackend::Naive => crate::trsm::naive_trsm_right_lower_trans(alpha, l, b),
            _ => blocked::trsm_right_lower_trans(alpha, l, b),
        }
    }

    fn trsm_right_lower(&self, alpha: f64, l: &Tile, b: &mut Tile) {
        crate::trsm::naive_trsm_right_lower(alpha, l, b);
    }

    fn trsm_left_lower(&self, alpha: f64, l: &Tile, b: &mut Tile) {
        crate::trsm::naive_trsm_left_lower(alpha, l, b);
    }

    fn trsm_left_lower_trans(&self, alpha: f64, l: &Tile, b: &mut Tile) {
        crate::trsm::naive_trsm_left_lower_trans(alpha, l, b);
    }

    fn trsm_left_unit_lower(&self, l: &Tile, b: &mut Tile) {
        crate::trsm::naive_trsm_left_unit_lower(l, b);
    }

    fn trsm_right_upper(&self, u: &Tile, b: &mut Tile) {
        crate::trsm::naive_trsm_right_upper(u, b);
    }

    fn trtri(&self, a: &mut Tile) -> Result<(), KernelError> {
        crate::trtri::naive_trtri(a)
    }

    fn lauum(&self, a: &mut Tile) {
        crate::lauum::naive_lauum(a);
    }

    fn getrf(&self, a: &mut Tile) -> Result<(), KernelError> {
        crate::getrf::naive_getrf(a)
    }

    fn trmm_left_lower(&self, l: &Tile, b: &mut Tile) {
        crate::trmm::naive_trmm_left_lower(l, b);
    }

    fn trmm_left_lower_trans(&self, l: &Tile, b: &mut Tile) {
        crate::trmm::naive_trmm_left_lower_trans(l, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for b in [
            KernelBackend::Naive,
            KernelBackend::Blocked,
            KernelBackend::Arch,
        ] {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
        }
        assert_eq!(
            KernelBackend::parse("BLOCKED"),
            Some(KernelBackend::Blocked)
        );
        assert_eq!(KernelBackend::parse("mkl"), None);
    }

    #[test]
    fn default_is_blocked() {
        assert_eq!(KernelBackend::default(), KernelBackend::Blocked);
    }

    #[test]
    fn unrecognized_env_value_is_named_in_the_warning() {
        assert_eq!(KernelBackend::parse_env("Naive"), Ok(KernelBackend::Naive));
        let warning = KernelBackend::parse_env("navie").unwrap_err();
        assert!(warning.contains("SBC_KERNELS=\"navie\""), "{warning}");
        assert!(warning.contains("naive|blocked|arch"), "{warning}");
    }

    #[test]
    fn effective_never_returns_unrunnable_arch() {
        // whatever the feature/CPU situation, `effective` must settle on a
        // backend that can actually execute
        let eff = KernelBackend::Arch.effective();
        assert!(matches!(eff, KernelBackend::Arch | KernelBackend::Blocked));
        if !crate::arch::available() {
            assert_eq!(eff, KernelBackend::Blocked);
        }
        assert_eq!(KernelBackend::Naive.effective(), KernelBackend::Naive);
    }

    #[test]
    fn trait_object_dispatch_works() {
        let k: &dyn Kernels = &KernelBackend::Blocked;
        let mut t = Tile::identity(5);
        k.potrf(&mut t).unwrap();
        assert!(t.max_abs_diff(&Tile::identity(5)) == 0.0);
    }
}
