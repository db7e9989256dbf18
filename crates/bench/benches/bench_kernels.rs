//! Criterion micro-benchmarks of the tile kernels (the building blocks of
//! every experiment; Fig 7's efficiency model is calibrated against such
//! kernels), dispatched through the [`Kernels`] trait.
//!
//! The `kernel_backends` group races every [`KernelBackend`] on the same
//! GEMM shape the paper's runs spend their time in (`b = 256`, `C -= A·Bᵀ`),
//! and on each kernel of the POTRF task graph (`gemm_nt`, `syrk`,
//! `trsm_rlt`, `potrf`) at the tile sizes the repository benchmark runs
//! (`b ∈ {8, 16, 32, 128}`) — under `SBC_BENCH_JSON` its records land in
//! `BENCH_criterion.json` as `kernel_backends/<op>_<b>/<backend>`, so the
//! per-op × per-b blocked/naive ratio is a tracked datapoint, not folklore.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sbc_kernels::reference::{random_lower_tile, random_spd_tile, random_tile};
use sbc_kernels::{
    flops_gemm, flops_potrf, flops_syrk, flops_trsm, KernelBackend, Kernels, Tile, Trans,
};

/// The backend the shape-sweep groups measure; the historical series was
/// recorded against the naive kernels, so the series stays comparable.
const K: KernelBackend = KernelBackend::Naive;

const BACKENDS: [KernelBackend; 3] = [
    KernelBackend::Naive,
    KernelBackend::Blocked,
    KernelBackend::Arch,
];

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_nt");
    for b in [32usize, 64, 128] {
        let a = random_tile(b, 1);
        let bt = random_tile(b, 2);
        g.throughput(Throughput::Elements((2 * b * b * b) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(b), &b, |bench, _| {
            let mut ct = Tile::zeros(b);
            bench.iter(|| K.gemm(Trans::No, Trans::Yes, -1.0, &a, &bt, 1.0, &mut ct));
        });
    }
    g.finish();
}

fn bench_kernel_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_backends");
    let b = 256usize;
    let a = random_tile(b, 9);
    let bt = random_tile(b, 10);
    g.throughput(Throughput::Elements((2 * b * b * b) as u64));
    for k in BACKENDS {
        g.bench_with_input(BenchmarkId::new("gemm_nt_256", k), &k, |bench, &k| {
            let mut ct = Tile::zeros(b);
            bench.iter(|| k.gemm(Trans::No, Trans::Yes, -1.0, &a, &bt, 1.0, &mut ct));
        });
    }
    for b in [8usize, 16, 32, 128] {
        let a = random_tile(b, 11);
        let bt = random_tile(b, 12);
        let spd = random_spd_tile(b, 13);
        let mut l = spd.clone();
        KernelBackend::Naive.potrf(&mut l).unwrap();
        let flops = |f: f64| Throughput::Elements(f.round() as u64);
        // each op races the backends back to back; TRSM and POTRF
        // overwrite their operand, so each call restores it in place first
        // (an O(b²) copy, no allocation)
        g.throughput(flops(flops_gemm(b)));
        for k in BACKENDS {
            g.bench_with_input(
                BenchmarkId::new(format!("gemm_nt_{b}"), k),
                &k,
                |bench, &k| {
                    let mut ct = Tile::zeros(b);
                    bench.iter(|| k.gemm(Trans::No, Trans::Yes, -1.0, &a, &bt, 1.0, &mut ct));
                },
            );
        }
        g.throughput(flops(flops_syrk(b)));
        for k in BACKENDS {
            g.bench_with_input(BenchmarkId::new(format!("syrk_{b}"), k), &k, |bench, &k| {
                let mut ct = Tile::zeros(b);
                bench.iter(|| k.syrk(Trans::No, -1.0, &a, 1.0, &mut ct));
            });
        }
        g.throughput(flops(flops_trsm(b)));
        for k in BACKENDS {
            g.bench_with_input(
                BenchmarkId::new(format!("trsm_rlt_{b}"), k),
                &k,
                |bench, &k| {
                    let mut x = Tile::zeros(b);
                    bench.iter(|| {
                        x.as_mut_slice().copy_from_slice(a.as_slice());
                        k.trsm_right_lower_trans(1.0, &l, &mut x);
                    });
                },
            );
        }
        g.throughput(flops(flops_potrf(b)));
        for k in BACKENDS {
            g.bench_with_input(
                BenchmarkId::new(format!("potrf_{b}"), k),
                &k,
                |bench, &k| {
                    let mut x = Tile::zeros(b);
                    bench.iter(|| {
                        x.as_mut_slice().copy_from_slice(spd.as_slice());
                        k.potrf(&mut x).unwrap();
                    });
                },
            );
        }
    }
    g.finish();
}

fn bench_syrk(c: &mut Criterion) {
    let mut g = c.benchmark_group("syrk_lower");
    for b in [32usize, 64, 128] {
        let a = random_tile(b, 3);
        g.throughput(Throughput::Elements((b * b * b) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(b), &b, |bench, _| {
            let mut ct = Tile::zeros(b);
            bench.iter(|| K.syrk(Trans::No, -1.0, &a, 1.0, &mut ct));
        });
    }
    g.finish();
}

fn bench_trsm(c: &mut Criterion) {
    let mut g = c.benchmark_group("trsm_right_lower_trans");
    for b in [32usize, 64, 128] {
        let l = random_lower_tile(b, 4);
        let rhs = random_tile(b, 5);
        g.throughput(Throughput::Elements((b * b * b) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(b), &b, |bench, _| {
            bench.iter(|| {
                let mut x = rhs.clone();
                K.trsm_right_lower_trans(1.0, &l, &mut x);
                x
            });
        });
    }
    g.finish();
}

fn bench_factor_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("factor_kernels_64");
    let b = 64;
    let spd = random_spd_tile(b, 6);
    g.bench_function("potrf", |bench| {
        bench.iter(|| {
            let mut t = spd.clone();
            K.potrf(&mut t).unwrap();
            t
        });
    });
    let mut l = random_lower_tile(b, 7);
    l.zero_strict_upper();
    g.bench_function("trtri", |bench| {
        bench.iter(|| {
            let mut t = l.clone();
            K.trtri(&mut t).unwrap();
            t
        });
    });
    g.bench_function("lauum", |bench| {
        bench.iter(|| {
            let mut t = l.clone();
            K.lauum(&mut t);
            t
        });
    });
    let x0 = random_tile(b, 8);
    g.bench_function("trmm", |bench| {
        bench.iter(|| {
            let mut x = x0.clone();
            K.trmm_left_lower_trans(&l, &mut x);
            x
        });
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_gemm, bench_kernel_backends, bench_syrk, bench_trsm, bench_factor_kernels
);
criterion_main!(benches);
