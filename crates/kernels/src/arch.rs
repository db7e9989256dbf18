//! `std::arch` SIMD kernels behind the `simd` cargo feature.
//!
//! Compiled only with `--features simd` on `x86_64`; everywhere else this
//! module is a thin stub that reports the backend as unavailable so
//! [`crate::KernelBackend::Arch`] resolves to the blocked backend. The
//! AVX2 path is selected at *runtime* with `is_x86_feature_detected!`, so
//! a `simd` build still runs correctly on CPUs without AVX2.
//!
//! Bit-identity with the scalar backends is preserved by construction:
//!
//! * vector lanes hold independent output rows, and IEEE-754 `mul`/`add`
//!   on a lane is the same exactly-rounded operation as its scalar
//!   counterpart — the per-element operation sequence is unchanged;
//! * multiplication and addition stay **separate instructions** — FMA
//!   (`_mm256_fmadd_pd`) rounds once instead of twice and would produce
//!   different (if slightly more accurate) bits, so it is deliberately
//!   not used;
//! * the `s != 0.0` skips and the `k`-ascending accumulation order of the
//!   naive kernels are replicated, and ragged rows/columns run the same
//!   edge code as the blocked backend.
//!
//! Only GEMM's `transa = No` forms — the microkernel that dominates the
//! trailing update — are written with intrinsics; every other kernel of
//! the `Arch` backend shares the blocked implementations.

#![allow(dead_code)]

use crate::blocked;
use crate::gemm::Trans;
use crate::Tile;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod imp {
    use super::*;
    use core::arch::x86_64::*;

    pub(crate) fn available() -> bool {
        // the detection macro caches its answer internally
        is_x86_feature_detected!("avx2")
    }

    pub(crate) fn gemm(
        transa: Trans,
        transb: Trans,
        alpha: f64,
        a: &Tile,
        b: &Tile,
        beta: f64,
        c: &mut Tile,
    ) {
        if !available() {
            return blocked::gemm(transa, transb, alpha, a, b, beta, c);
        }
        let n = c.dim();
        assert_eq!(a.dim(), n, "gemm: A dimension mismatch");
        assert_eq!(b.dim(), n, "gemm: B dimension mismatch");

        if beta != 1.0 {
            for x in c.as_mut_slice() {
                *x *= beta;
            }
        }
        if alpha == 0.0 {
            return;
        }

        match (transa, transb) {
            (Trans::No, _) => gemm_axpy_avx2(transb, alpha, a, b, c),
            (Trans::Yes, Trans::No) => blocked::gemm_dot_blocked(alpha, a, b, c),
            (Trans::Yes, Trans::Yes) => blocked::gemm_tt_blocked(alpha, a, b, c),
        }
    }

    fn gemm_axpy_avx2(transb: Trans, alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
        let n = c.dim();
        let mut j0 = 0;
        while j0 + 4 <= n {
            if blocked::panel_all_nonzero(n, transb, alpha, b, j0) {
                let (c0, c1, c2, c3) = blocked::four_cols_mut(c, j0);
                // SAFETY: available() checked AVX2 at the entry point
                unsafe { axpy_panel4_avx2(n, transb, alpha, a, b, j0, c0, c1, c2, c3) };
            } else {
                // a zero in the scale stream: naive-order skip semantics
                for t in 0..4 {
                    blocked::axpy_col_naive(transb, alpha, a, b, c, j0 + t);
                }
            }
            j0 += 4;
        }
        for j in j0..n {
            blocked::axpy_col_naive(transb, alpha, a, b, c, j);
        }
    }

    /// AVX2 twin of `blocked::axpy_panel4`: eight rows (two 4-lane
    /// vectors) of four destination columns accumulate in registers over
    /// the full `k` sweep. Branch-free — the caller pre-scanned the panel
    /// for zero scales. Multiply and add are separate instructions — see
    /// the module docs.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn axpy_panel4_avx2(
        n: usize,
        transb: Trans,
        alpha: f64,
        a: &Tile,
        b: &Tile,
        j0: usize,
        c0: &mut [f64],
        c1: &mut [f64],
        c2: &mut [f64],
        c3: &mut [f64],
    ) {
        let mut i0 = 0;
        while i0 + 8 <= n {
            let mut acc0a = _mm256_loadu_pd(c0.as_ptr().add(i0));
            let mut acc0b = _mm256_loadu_pd(c0.as_ptr().add(i0 + 4));
            let mut acc1a = _mm256_loadu_pd(c1.as_ptr().add(i0));
            let mut acc1b = _mm256_loadu_pd(c1.as_ptr().add(i0 + 4));
            let mut acc2a = _mm256_loadu_pd(c2.as_ptr().add(i0));
            let mut acc2b = _mm256_loadu_pd(c2.as_ptr().add(i0 + 4));
            let mut acc3a = _mm256_loadu_pd(c3.as_ptr().add(i0));
            let mut acc3b = _mm256_loadu_pd(c3.as_ptr().add(i0 + 4));
            for k in 0..n {
                let s0 = _mm256_set1_pd(blocked::s_val(transb, alpha, b, j0, k));
                let s1 = _mm256_set1_pd(blocked::s_val(transb, alpha, b, j0 + 1, k));
                let s2 = _mm256_set1_pd(blocked::s_val(transb, alpha, b, j0 + 2, k));
                let s3 = _mm256_set1_pd(blocked::s_val(transb, alpha, b, j0 + 3, k));
                let ap = a.col(k).as_ptr();
                let ava = _mm256_loadu_pd(ap.add(i0));
                let avb = _mm256_loadu_pd(ap.add(i0 + 4));
                acc0a = _mm256_add_pd(acc0a, _mm256_mul_pd(s0, ava));
                acc0b = _mm256_add_pd(acc0b, _mm256_mul_pd(s0, avb));
                acc1a = _mm256_add_pd(acc1a, _mm256_mul_pd(s1, ava));
                acc1b = _mm256_add_pd(acc1b, _mm256_mul_pd(s1, avb));
                acc2a = _mm256_add_pd(acc2a, _mm256_mul_pd(s2, ava));
                acc2b = _mm256_add_pd(acc2b, _mm256_mul_pd(s2, avb));
                acc3a = _mm256_add_pd(acc3a, _mm256_mul_pd(s3, ava));
                acc3b = _mm256_add_pd(acc3b, _mm256_mul_pd(s3, avb));
            }
            _mm256_storeu_pd(c0.as_mut_ptr().add(i0), acc0a);
            _mm256_storeu_pd(c0.as_mut_ptr().add(i0 + 4), acc0b);
            _mm256_storeu_pd(c1.as_mut_ptr().add(i0), acc1a);
            _mm256_storeu_pd(c1.as_mut_ptr().add(i0 + 4), acc1b);
            _mm256_storeu_pd(c2.as_mut_ptr().add(i0), acc2a);
            _mm256_storeu_pd(c2.as_mut_ptr().add(i0 + 4), acc2b);
            _mm256_storeu_pd(c3.as_mut_ptr().add(i0), acc3a);
            _mm256_storeu_pd(c3.as_mut_ptr().add(i0 + 4), acc3b);
            i0 += 8;
        }
        // ragged rows: the blocked width ladder, identical k order
        blocked::axpy_panel4(n, i0, transb, alpha, a, b, j0, c0, c1, c2, c3);
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod imp {
    use super::*;

    pub(crate) fn available() -> bool {
        false
    }

    pub(crate) fn gemm(
        transa: Trans,
        transb: Trans,
        alpha: f64,
        a: &Tile,
        b: &Tile,
        beta: f64,
        c: &mut Tile,
    ) {
        blocked::gemm(transa, transb, alpha, a, b, beta, c);
    }
}

pub(crate) use imp::{available, gemm};

#[cfg(all(test, feature = "simd", target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::gemm::naive_gemm;
    use crate::reference::random_tile;

    #[test]
    fn avx2_gemm_bitwise_matches_naive() {
        if !available() {
            return; // CPU without AVX2: nothing to check, Arch == Blocked
        }
        for n in [1, 3, 4, 7, 8, 9, 16, 23, 33, 40, 64] {
            let a = random_tile(n, 21);
            let b = random_tile(n, 22);
            for tb in [Trans::No, Trans::Yes] {
                let mut c1 = random_tile(n, 23);
                let mut c2 = c1.clone();
                naive_gemm(Trans::No, tb, -1.0, &a, &b, 1.0, &mut c1);
                gemm(Trans::No, tb, -1.0, &a, &b, 1.0, &mut c2);
                assert!(c1.max_abs_diff(&c2) == 0.0, "avx2 gemm tb={tb:?} n={n}");
            }
        }
    }
}
