//! Per-layer probes: single-thread calls into one layer's public
//! functions, timed from outside. They run in every traced run, whatever
//! the workload, and are tagged `probe`.
//!
//! Kernel rates come from these probes, never from runtime task spans:
//! with more ranks than cores a span also covers the time its thread was
//! preempted (the same 816-task graph summed 0.59 kernel-seconds with 3
//! ranks and 1.13 with 6 on a two-core host).

use crate::stats::median;
use crate::Report;
use sbc::kernels::{
    flops_gemm, flops_potrf, flops_syrk, flops_trsm, KernelBackend, Kernels, Tile, Trans,
};
use sbc::matrix::random_spd;
use sbc::net::wire::{decode, encode_into, Frame};
use sbc::net::{local_mesh, Backend, Message, Payload, Transport};
use sbc::planner::{Op, Planner, PlannerConfig};
use sbc::simgrid::Platform;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The POTRF shapes the resident service is driven with: nt × b.
pub const SERVE_SHAPES: [(usize, usize); 6] =
    [(8, 16), (8, 32), (12, 16), (12, 32), (16, 16), (16, 32)];

/// Median over `reps` timed batches of `f`, each batch sized so it lasts
/// about `batch`; returns seconds per call.
fn per_call(reps: usize, batch: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().max(Duration::from_nanos(50));
    let calls = (batch.as_secs_f64() / once.as_secs_f64()).ceil().max(1.0) as usize;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&samples)
}

const REPS: usize = 5;
const BATCH: Duration = Duration::from_millis(30);

fn spd_tile(b: usize) -> Tile {
    random_spd(7, 1, b).tile(0, 0).clone()
}

fn general_tile(b: usize, salt: u64) -> Tile {
    Tile::from_fn(b, |i, j| {
        (((i * 31 + j * 17) as u64 ^ salt) % 97) as f64 / 97.0 - 0.5
    })
}

/// Runs every workload-independent probe, records its metrics and
/// returns the time spent.
pub fn shared(report: &mut Report) -> Duration {
    let t = Instant::now();
    kernels(report);
    wire(report);
    uds(report);
    planner(report);
    t.elapsed()
}

fn kernels(report: &mut Report) {
    let k = KernelBackend::resolve(KernelBackend::default());
    let gemm = |b: usize| {
        let (a, bt) = (general_tile(b, 1), general_tile(b, 2));
        let mut c = general_tile(b, 3);
        flops_gemm(b)
            / per_call(REPS, BATCH, || {
                k.gemm(
                    Trans::No,
                    Trans::Yes,
                    -1.0,
                    black_box(&a),
                    black_box(&bt),
                    1.0,
                    &mut c,
                )
            })
            / 1e9
    };
    report.metric("kernels.gemm_gflops.b8", gemm(8), "GFlop/s", "probe");
    report.metric("kernels.gemm_gflops.b16", gemm(16), "GFlop/s", "probe");
    report.metric("kernels.gemm_gflops.b128", gemm(128), "GFlop/s", "probe");

    let b = 128;
    let a = general_tile(b, 4);
    let mut c = general_tile(b, 5);
    let syrk = per_call(REPS, BATCH, || {
        k.syrk(Trans::No, -1.0, black_box(&a), 1.0, &mut c)
    });
    report.metric(
        "kernels.syrk_gflops.b128",
        flops_syrk(b) / syrk / 1e9,
        "GFlop/s",
        "probe",
    );

    // TRSM and POTRF overwrite their operand, so each call starts from a
    // fresh copy (an O(b²) copy against O(b³) work)
    let spd = spd_tile(b);
    let mut l = spd.clone();
    k.potrf(&mut l).expect("SPD tile factors");
    let rhs = general_tile(b, 6);
    let trsm = per_call(REPS, BATCH, || {
        let mut x = rhs.clone();
        k.trsm_right_lower_trans(1.0, black_box(&l), &mut x);
        black_box(x);
    });
    report.metric(
        "kernels.trsm_gflops.b128",
        flops_trsm(b) / trsm / 1e9,
        "GFlop/s",
        "probe",
    );
    let potrf = per_call(REPS, BATCH, || {
        let mut x = spd.clone();
        k.potrf(&mut x).expect("SPD tile factors");
        black_box(x);
    });
    report.metric(
        "kernels.potrf_gflops.b128",
        flops_potrf(b) / potrf / 1e9,
        "GFlop/s",
        "probe",
    );
}

fn payload_frame(b: usize) -> Frame {
    Frame::Payload {
        src: 0,
        payload: Payload::Data {
            job: 0,
            producer: 1,
            tile: general_tile(b, 8),
        },
    }
}

fn wire(report: &mut Report) {
    let frame = payload_frame(128);
    let mut buf = Vec::new();
    let len = encode_into(&frame, &mut buf);
    let enc = per_call(REPS, BATCH, || {
        black_box(encode_into(black_box(&frame), &mut buf));
    });
    let dec = per_call(REPS, BATCH, || {
        black_box(decode(black_box(&buf)).expect("round trip decodes"));
    });
    report.metric(
        "net.wire.encode_gbs.b128",
        len as f64 / enc / 1e9,
        "GB/s",
        "probe",
    );
    report.metric(
        "net.wire.decode_gbs.b128",
        len as f64 / dec / 1e9,
        "GB/s",
        "probe",
    );
}

fn data(b: usize, k: u32) -> Payload {
    Payload::Data {
        job: 0,
        producer: k,
        tile: general_tile(b, 9),
    }
}

/// Blocks until the next tile payload arrives; `false` if the endpoint
/// closed first.
fn recv_payload(net: &dyn Transport) -> bool {
    loop {
        match net.recv() {
            Some(Message::Payload { .. }) => return true,
            Some(_) => {}
            None => return false,
        }
    }
}

fn uds(report: &mut Report) {
    const PINGS: usize = 2000;
    const WARM: usize = 600;
    const STREAM: usize = 1000;
    let mesh = local_mesh(Backend::Uds, 2).expect("two-rank UDS mesh");
    let (a, b) = (&mesh[0], &mesh[1]);
    let (rtt, stream_secs, misses) = std::thread::scope(|s| {
        let echo = s.spawn(move || {
            for _ in 0..PINGS {
                if !recv_payload(b) {
                    return;
                }
                b.send_payload(0, data(8, 0));
            }
            for _ in 0..WARM + STREAM {
                if !recv_payload(b) {
                    return;
                }
            }
            b.send_payload(0, data(8, 0));
        });
        let mut rtt = Vec::with_capacity(PINGS);
        for k in 0..PINGS {
            let t = Instant::now();
            a.send_payload(1, data(8, k as u32));
            assert!(recv_payload(a), "UDS echo peer closed");
            rtt.push(t.elapsed().as_secs_f64());
        }
        let tile = data(128, 0);
        for _ in 0..WARM {
            a.send_payload(1, tile.clone());
        }
        let before = a.pool_stats().misses;
        let t = Instant::now();
        for _ in 0..STREAM {
            a.send_payload(1, tile.clone());
        }
        // the peer acknowledges the whole stream with one small payload
        assert!(recv_payload(a), "UDS stream peer closed");
        let secs = t.elapsed().as_secs_f64();
        let misses = a.pool_stats().misses - before;
        echo.join().expect("UDS probe peer panicked");
        (rtt, secs, misses)
    });
    drop(mesh);
    report.metric("net.uds.pingpong_us.b8", median(&rtt) * 1e6, "us", "probe");
    let bytes = (STREAM * 128 * 128 * 8) as f64;
    report.metric(
        "net.uds.stream_gbs.b128",
        bytes / stream_secs / 1e9,
        "GB/s",
        "probe",
    );
    report.metric("net.pool.miss", misses as f64, "count", "probe");
}

fn planner(report: &mut Report) {
    let planner = Planner::with_config(Platform::bora(6), PlannerConfig::default());
    let cold: Vec<f64> = SERVE_SHAPES
        .iter()
        .map(|&(nt, b)| {
            per_call(REPS, BATCH / 3, || {
                black_box(planner.plan_uncached(Op::Potrf, nt, b));
            })
        })
        .collect();
    for &(nt, b) in &SERVE_SHAPES {
        planner.plan(Op::Potrf, nt, b);
    }
    let warm: Vec<f64> = SERVE_SHAPES
        .iter()
        .map(|&(nt, b)| {
            per_call(REPS, BATCH / 3, || {
                black_box(planner.plan(Op::Potrf, nt, b));
            })
        })
        .collect();
    report.metric("planner.plan_cold_us", median(&cold) * 1e6, "us", "probe");
    report.metric("planner.plan_warm_us", median(&warm) * 1e6, "us", "probe");
}

/// Times `build` (a task-graph construction returning its task count) for
/// the workload's shape.
pub fn taskgraph(report: &mut Report, source: &'static str, mut build: impl FnMut() -> usize) {
    let mut tasks = 0;
    let secs = per_call(REPS, BATCH, || tasks = black_box(build()));
    report.metric("taskgraph.build_s", secs, "s", source);
    report.metric("taskgraph.tasks", tasks as f64, "count", source);
}

/// The service-only layers, on a workload that never starts the service.
pub fn absent_serve(report: &mut Report) {
    for (name, unit) in [
        ("planner.cache_hit_ratio", "ratio"),
        ("serve.submit_us", "us"),
        ("serve.exec_s", "s"),
        ("serve.wait_s", "s"),
        ("serve.rejected", "count"),
    ] {
        report.metric(name, 0.0, unit, "n/a");
    }
}
