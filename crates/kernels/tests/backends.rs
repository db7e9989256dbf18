//! Cross-backend bitwise equivalence.
//!
//! Every [`KernelBackend`] must produce **bit-identical** output — not
//! merely numerically close — for every kernel, on every input: the
//! factors a run produces must not depend on which backend computed
//! them. These properties drive all backends over the same inputs and
//! compare raw `f64` bits, so even `-0.0` vs `+0.0` or differing NaN
//! payloads would fail.
//!
//! `Arch` is always included: without the `simd` feature (or on a CPU
//! without AVX2) it resolves to `Blocked`, which must itself match
//! `Naive`, so the property is meaningful in every configuration.

use proptest::prelude::*;
use sbc_kernels::reference::{random_spd_tile, SplitMix64};
use sbc_kernels::{KernelBackend, Kernels, Tile, Trans};

const ALL: [KernelBackend; 3] = [
    KernelBackend::Naive,
    KernelBackend::Blocked,
    KernelBackend::Arch,
];

fn bits_eq(a: &Tile, b: &Tile) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A random tile, optionally salted with exact zeros (and negative
/// zeros) so the `s != 0.0` skip paths of the naive kernels — and the
/// panel fallbacks replicating them — are exercised.
fn tile_with_zeros(b: usize, seed: u64, plant_zeros: bool) -> Tile {
    let mut rng = SplitMix64::new(seed);
    let mut t = Tile::from_fn(b, |_, _| rng.next_signed());
    if plant_zeros {
        for k in 0..b {
            t.set(k, (k * 3) % b, 0.0);
            t.set((k * 5) % b, k, -0.0);
        }
    }
    t
}

/// alpha/beta from the exact set the runtime actually uses.
fn coeff(i: usize) -> f64 {
    [0.0, 1.0, -1.0][i]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_bitwise_equal_across_backends(
        seed in any::<u64>(),
        b in 1usize..48,
        ta in prop::bool::ANY,
        tb in prop::bool::ANY,
        alpha_i in 0usize..3,
        beta_i in 0usize..3,
        plant_zeros in prop::bool::ANY,
    ) {
        let a = tile_with_zeros(b, seed, plant_zeros);
        let bt = tile_with_zeros(b, seed ^ 1, plant_zeros);
        let mut rng = SplitMix64::new(seed ^ 2);
        let c0 = Tile::from_fn(b, |_, _| rng.next_signed());
        let ta = if ta { Trans::Yes } else { Trans::No };
        let tb = if tb { Trans::Yes } else { Trans::No };

        let mut expect = c0.clone();
        KernelBackend::Naive.gemm(ta, tb, coeff(alpha_i), &a, &bt, coeff(beta_i), &mut expect);
        for k in ALL {
            let mut c = c0.clone();
            k.gemm(ta, tb, coeff(alpha_i), &a, &bt, coeff(beta_i), &mut c);
            prop_assert!(bits_eq(&expect, &c), "gemm {ta:?}/{tb:?} b={b} differs on {k}");
        }
    }

    #[test]
    fn syrk_bitwise_equal_across_backends(
        seed in any::<u64>(),
        b in 1usize..48,
        trans in prop::bool::ANY,
        alpha_i in 0usize..3,
        beta_i in 0usize..3,
        plant_zeros in prop::bool::ANY,
    ) {
        let a = tile_with_zeros(b, seed, plant_zeros);
        let mut rng = SplitMix64::new(seed ^ 3);
        let c0 = Tile::from_fn(b, |_, _| rng.next_signed());
        let trans = if trans { Trans::Yes } else { Trans::No };

        let mut expect = c0.clone();
        KernelBackend::Naive.syrk(trans, coeff(alpha_i), &a, coeff(beta_i), &mut expect);
        for k in ALL {
            let mut c = c0.clone();
            k.syrk(trans, coeff(alpha_i), &a, coeff(beta_i), &mut c);
            prop_assert!(bits_eq(&expect, &c), "syrk {trans:?} b={b} differs on {k}");
        }
    }

    #[test]
    fn trsm_bitwise_equal_across_backends(
        seed in any::<u64>(),
        b in 1usize..48,
        alpha_i in 0usize..3,
        plant_zeros in prop::bool::ANY,
    ) {
        // a well-conditioned lower triangle: random below, dominant diagonal
        let mut rng = SplitMix64::new(seed);
        let mut l = Tile::from_fn(b, |i, j| if i >= j { rng.next_signed() } else { 0.0 });
        for i in 0..b {
            l.set(i, i, 2.0 + l.get(i, i).abs());
        }
        if plant_zeros {
            for k in 1..b {
                l.set(k, (k * 3) % k, 0.0);
            }
        }
        let rhs = tile_with_zeros(b, seed ^ 4, plant_zeros);

        let mut expect = rhs.clone();
        KernelBackend::Naive.trsm_right_lower_trans(coeff(alpha_i), &l, &mut expect);
        for k in ALL {
            let mut x = rhs.clone();
            k.trsm_right_lower_trans(coeff(alpha_i), &l, &mut x);
            prop_assert!(bits_eq(&expect, &x), "trsm b={b} differs on {k}");
        }
    }

    #[test]
    fn potrf_bitwise_equal_across_backends(seed in any::<u64>(), b in 1usize..72) {
        let a0 = random_spd_tile(b, seed);
        let mut expect = a0.clone();
        KernelBackend::Naive.potrf(&mut expect).unwrap();
        for k in ALL {
            let mut a = a0.clone();
            prop_assert!(k.potrf(&mut a).is_ok());
            prop_assert!(bits_eq(&expect, &a), "potrf b={b} differs on {k}");
        }
    }

    #[test]
    fn potrf_failure_bitwise_equal_across_backends(
        seed in any::<u64>(),
        b in 2usize..72,
        frac in 0.0f64..1.0,
    ) {
        // plant a non-positive pivot somewhere and require the identical
        // error *and* the identical partially-factorized tile
        let mut a0 = random_spd_tile(b, seed);
        let bad = ((b as f64 * frac) as usize).min(b - 1);
        a0.set(bad, bad, -1.0);
        let mut expect = a0.clone();
        let expect_err = KernelBackend::Naive.potrf(&mut expect);
        prop_assert!(expect_err.is_err());
        for k in ALL {
            let mut a = a0.clone();
            let err = k.potrf(&mut a);
            prop_assert_eq!(&err, &expect_err, "potrf error b={} differs on {}", b, k);
            prop_assert!(bits_eq(&expect, &a), "potrf failure state b={b} differs on {k}");
        }
    }
}

/// Every row count at which the blocked width ladder (`32 -> 8 -> 4 ->
/// 1` rows) changes shape, up to the benchmarked `b = 128`: each width,
/// one past it, and mixes such as `45 = 32 + 8 + 4 + 1`.
const LADDER_DIMS: [usize; 24] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 31, 32, 33, 36, 37, 40, 41, 44, 45, 64, 127, 128,
];

/// An SPD tile whose rows/columns `i = 1, 4, 7, ...` are decoupled: their
/// off-diagonal lower entries are planted `-0.0` (left of the diagonal)
/// and `0.0` (below it). A principal submatrix of an SPD matrix is SPD,
/// so the tile stays SPD while its factor carries exact zeros of both
/// signs into the `s != 0.0` skips.
fn spd_with_zeros(b: usize, seed: u64) -> Tile {
    let mut t = random_spd_tile(b, seed);
    for i in (1..b).step_by(3) {
        for j in 0..i {
            t.set(i, j, -0.0);
        }
        for j in i + 1..b {
            t.set(j, i, 0.0);
        }
    }
    t
}

#[test]
fn potrf_graph_kernels_bitwise_equal_at_every_ladder_width() {
    for (case, &b) in LADDER_DIMS.iter().enumerate() {
        for plant_zeros in [false, true] {
            let seed = 0x5bc0 + case as u64;
            let a = tile_with_zeros(b, seed, plant_zeros);
            let bt = tile_with_zeros(b, seed ^ 1, plant_zeros);
            let mut rng = SplitMix64::new(seed ^ 2);
            let c0 = Tile::from_fn(b, |_, _| rng.next_signed());
            let spd = if plant_zeros {
                spd_with_zeros(b, seed ^ 3)
            } else {
                random_spd_tile(b, seed ^ 3)
            };
            let mut l = spd.clone();
            KernelBackend::Naive.potrf(&mut l).unwrap();

            let naive = KernelBackend::Naive;
            let mut gemm_nn = c0.clone();
            naive.gemm(Trans::No, Trans::No, -1.0, &a, &bt, 1.0, &mut gemm_nn);
            let mut gemm_nt = c0.clone();
            naive.gemm(Trans::No, Trans::Yes, -1.0, &a, &bt, 1.0, &mut gemm_nt);
            let mut syrk = c0.clone();
            naive.syrk(Trans::No, -1.0, &a, 1.0, &mut syrk);
            let mut trsm = a.clone();
            naive.trsm_right_lower_trans(1.0, &l, &mut trsm);
            for k in ALL {
                let what = format!("b={b} zeros={plant_zeros} on {k}");
                let mut c = c0.clone();
                k.gemm(Trans::No, Trans::No, -1.0, &a, &bt, 1.0, &mut c);
                assert!(bits_eq(&gemm_nn, &c), "gemm No/No {what}");
                let mut c = c0.clone();
                k.gemm(Trans::No, Trans::Yes, -1.0, &a, &bt, 1.0, &mut c);
                assert!(bits_eq(&gemm_nt, &c), "gemm No/Yes {what}");
                let mut c = c0.clone();
                k.syrk(Trans::No, -1.0, &a, 1.0, &mut c);
                assert!(bits_eq(&syrk, &c), "syrk {what}");
                let mut x = a.clone();
                k.trsm_right_lower_trans(1.0, &l, &mut x);
                assert!(bits_eq(&trsm, &x), "trsm {what}");
                let mut f = spd.clone();
                k.potrf(&mut f).unwrap();
                assert!(bits_eq(&l, &f), "potrf {what}");
            }
        }
    }
}
