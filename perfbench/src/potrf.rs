//! The one-shot factorization workloads: `potrf_coarse` (in-process),
//! `potrf_fine` (UDS mesh) and `potrf_lossy` (UDS mesh under seeded loss,
//! recovered by reliability sessions). All three factor under SBC r=3:
//! three ranks on a two-core host keep the medians far steadier than the
//! six ranks of r=4.

use crate::stats::{median, tail};
use crate::{probes, splitmix, Args, Metric, Report};
use sbc::dist::comm::{messages_to_bytes, potrf_messages};
use sbc::dist::{Distribution, SbcExtended};
use sbc::matrix::{potrf_tiled, random_spd, SymmetricTiledMatrix};
use sbc::net::{local_mesh, Backend, FaultConfig, Faulty, Session, Transport, TransportStats};
use sbc::obs::{ExecProfile, Recorder};
use sbc::runtime::{ExecError, Run, RunOutput};
use sbc::taskgraph::build_potrf;
use std::time::{Duration, Instant};

/// No-progress watchdog armed on every socket rank: a stalled
/// factorization fails with `ExecError::Stalled` and is counted, instead
/// of hanging the benchmark.
const DEADLINE: Duration = Duration::from_secs(10);

/// Fewest timed factorizations a run makes, whatever its time budget.
const MIN_OPS: usize = 3;

/// One factorization problem and everything needed to check its result.
struct Case {
    dist: SbcExtended,
    nt: usize,
    b: usize,
    seed: u64,
    reference: SymmetricTiledMatrix,
    messages: u64,
    bytes: u64,
}

impl Case {
    fn new(nt: usize, b: usize, seed: u64) -> Case {
        let dist = SbcExtended::new(3);
        let mut reference = random_spd(seed, nt, b);
        potrf_tiled(&mut reference).expect("seeded SPD input factors");
        let messages = potrf_messages(&dist, nt);
        Case {
            dist,
            nt,
            b,
            seed,
            reference,
            messages,
            bytes: messages_to_bytes(messages, b),
        }
    }

    fn run<'a>(&'a self, rec: Option<&'a Recorder>) -> Run<'a> {
        let run = Run::potrf(&self.dist, self.nt)
            .block(self.b)
            .seed(self.seed);
        match rec {
            Some(r) => run.recorder(r),
            None => run,
        }
    }

    /// The factor equals the sequential one bitwise and the measured
    /// communication equals the analytic count.
    fn check(&self, out: &RunOutput) -> Result<(), String> {
        if out.stats.messages != self.messages || out.stats.bytes != self.bytes {
            return Err(format!(
                "comm {} msgs / {} B, analytic {} / {}",
                out.stats.messages, out.stats.bytes, self.messages, self.bytes
            ));
        }
        for (i, j) in self.reference.tile_coords() {
            if out.factor().tile(i, j).as_slice() != self.reference.tile(i, j).as_slice() {
                return Err(format!(
                    "tile ({i},{j}) differs from sequential potrf_tiled"
                ));
            }
        }
        Ok(())
    }
}

/// The figures of one timed factorization; its output travels
/// separately so it can be dropped once validated.
struct Op {
    secs: f64,
    /// Set-up before the factorization proper: `Run` construction
    /// in-process, mesh formation on sockets.
    setup_secs: Option<f64>,
    /// Measured payload messages and bytes (`CommStats`), when it ran.
    comm: Option<(u64, u64)>,
    /// Per-rank transport accounting (socket workloads only).
    transport: Vec<TransportStats>,
    profile: Option<ExecProfile>,
}

/// How the factorizations of a workload are made.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    InProcess,
    Uds,
    LossyUds,
}

fn once(case: &Case, mode: Mode, traced: bool, round: u64) -> (Op, Result<RunOutput, String>) {
    let rec = traced.then(Recorder::new);
    let (mut op, result) = match mode {
        Mode::InProcess => {
            // the one-shot's set-up is everything before execute(): the
            // task graph and run configuration. It is timed on a second,
            // warm construction: cold ones, right after a factorization,
            // moved their median by a quarter between two sets of ten
            // runs on one host.
            drop(case.run(None));
            let t = Instant::now();
            let run = case.run(rec.as_ref());
            let setup = t.elapsed().as_secs_f64();
            let result = run.execute();
            let op = Op {
                secs: t.elapsed().as_secs_f64(),
                setup_secs: Some(setup),
                comm: None,
                transport: Vec::new(),
                profile: None,
            };
            (op, result.map_err(|e| e.to_string()))
        }
        Mode::Uds | Mode::LossyUds => socket_once(
            case,
            (mode == Mode::LossyUds).then_some(round),
            rec.as_ref(),
        ),
    };
    if let Some(r) = rec {
        op.profile = Some(ExecProfile::from_recording(&r.drain()));
    }
    op.comm = result
        .as_ref()
        .ok()
        .map(|o| (o.stats.messages, o.stats.bytes));
    (op, result)
}

/// One rank's share: an identical `Run` on every rank, watchdog armed.
fn rank(
    case: &Case,
    net: &dyn Transport,
    rec: Option<&Recorder>,
) -> Result<Option<RunOutput>, ExecError> {
    case.run(rec).deadline(DEADLINE).execute_rank(net)
}

/// Seeded fair loss for rank `r` in factorization `round`: drop 1-in-20,
/// duplicate every 30th payload. The phase differs per rank, so ranks lose
/// different sends, and per round, so a run's median covers many loss
/// patterns rather than the one its seed happens to pick.
fn fault_plan(seed: u64, round: u64, r: usize) -> FaultConfig {
    FaultConfig {
        drop_every: 20,
        dup_every: 30,
        phase: splitmix(seed ^ (round << 8) ^ (r as u64 + 1)) >> 32,
        ..Default::default()
    }
}

/// One factorization over a fresh UDS mesh; `lossy` carries the round
/// number when each endpoint runs under a session over seeded loss.
fn socket_once(
    case: &Case,
    lossy: Option<u64>,
    rec: Option<&Recorder>,
) -> (Op, Result<RunOutput, String>) {
    let t = Instant::now();
    let mesh = match local_mesh(Backend::Uds, case.dist.num_nodes()) {
        Ok(m) => m,
        Err(e) => {
            let op = Op {
                secs: 0.0,
                setup_secs: None,
                comm: None,
                transport: Vec::new(),
                profile: None,
            };
            return (op, Err(format!("mesh formation: {e}")));
        }
    };
    let setup = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ranks: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .enumerate()
            .map(|(r, net)| {
                s.spawn(move || {
                    if let Some(round) = lossy {
                        // the session lives and dies in its rank thread:
                        // its drain-on-drop keeps retransmitting tail
                        // drops that peers still wait for
                        let net = Session::new(Faulty::new(net, fault_plan(case.seed, round, r)));
                        let out = rank(case, &net, rec);
                        (out, net.stats())
                    } else {
                        let out = rank(case, &net, rec);
                        (out, net.stats())
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let secs = t.elapsed().as_secs_f64();
    let mut output = None;
    let mut errors = Vec::new();
    let mut transport = Vec::new();
    for (r, joined) in ranks.into_iter().enumerate() {
        match joined {
            Ok((Ok(out), stats)) => {
                transport.push(stats);
                if let Some(o) = out {
                    output = Some(o);
                }
            }
            Ok((Err(e), _)) => errors.push(format!("rank {r}: {e}")),
            Err(_) => errors.push(format!("rank {r} panicked")),
        }
    }
    let result = match (output, errors.is_empty()) {
        (Some(o), true) => Ok(o),
        (None, true) => Err("rank 0 returned no output".into()),
        (_, false) => Err(errors.join("; ")),
    };
    let op = Op {
        secs,
        setup_secs: Some(setup),
        comm: None,
        transport,
        profile: None,
    };
    (op, result)
}

pub fn coarse(args: &Args) -> Report {
    run_workload(
        args,
        &Case::new(16, 128, args.seed),
        Mode::InProcess,
        "potrf_coarse",
    )
}

pub fn fine(args: &Args) -> Report {
    run_workload(args, &Case::new(64, 8, args.seed), Mode::Uds, "potrf_fine")
}

pub fn lossy(args: &Args) -> Report {
    run_workload(
        args,
        &Case::new(64, 8, args.seed),
        Mode::LossyUds,
        "potrf_lossy",
    )
}

fn run_workload(args: &Args, case: &Case, mode: Mode, name: &'static str) -> Report {
    let mut report = Report {
        correct: true,
        ..Default::default()
    };
    let mut budget = args.seconds;
    if args.trace {
        let spent = probes::shared(&mut report);
        report.note(format!(
            "layer probes took {:.2} s of the budget",
            spent.as_secs_f64()
        ));
        probes::taskgraph(&mut report, name, || build_potrf(&case.dist, case.nt).len());
        budget = budget.saturating_sub(spent);
    }

    // a first factorization warms allocators and thread stacks; it is
    // validated but not timed into the result
    let (warm, out) = once(case, mode, false, 0);
    report.attempted += 1;
    account(&mut report, case, &warm, out);

    let start = Instant::now();
    // (figures, traced, valid)
    let mut ops: Vec<(Op, bool, bool)> = Vec::new();
    while ops.len() < MIN_OPS || start.elapsed() < budget {
        // the traced run alternates untraced and traced factorizations so
        // both see the same host conditions
        let traced = args.trace && ops.len() % 2 == 1;
        let (op, out) = once(case, mode, traced, ops.len() as u64 + 1);
        report.attempted += 1;
        let valid = account(&mut report, case, &op, out);
        ops.push((op, traced, valid));
    }

    let good = |traced: bool| -> Vec<&Op> {
        ops.iter()
            .filter(|&&(_, t, valid)| t == traced && valid)
            .map(|(o, _, _)| o)
            .collect()
    };
    let untraced = good(false);
    let secs: Vec<f64> = untraced.iter().map(|o| o.secs).collect();
    let setup_s = median(
        &untraced
            .iter()
            .filter_map(|o| o.setup_secs)
            .collect::<Vec<_>>(),
    );

    if !args.trace {
        let t = tail(&secs);
        report.note(format!(
            "{name}: {} validated factorizations; tail_s is p{} with {} of {} samples beyond{}",
            secs.len(),
            t.pct,
            t.beyond,
            t.samples,
            if t.beyond < 10 {
                " (too few samples for a tail: maximum reported)"
            } else {
                ""
            }
        ));
        report.metric("p50_s", median(&secs), "s", name);
        report.shown.push(Metric {
            name: "tail_s",
            value: t.value,
            unit: "s",
            source: name,
        });
        report.metric(
            "throughput_per_s",
            secs.len() as f64 / secs.iter().sum::<f64>(),
            "1/s",
            name,
        );
        report.metric("setup_s", setup_s, "s", name);
        return report;
    }

    let traced = good(true);
    let tasks = build_potrf(&case.dist, case.nt).len() as f64;
    let ranks = case.dist.num_nodes() as f64;
    let prof = |f: &dyn Fn(&Op, &ExecProfile) -> f64| -> f64 {
        median(
            &traced
                .iter()
                .filter_map(|o| o.profile.as_ref().map(|p| f(o, p)))
                .collect::<Vec<_>>(),
        )
    };
    report.metric(
        "runtime.kernel_s",
        prof(&|_, p| p.total_busy_seconds()),
        "s",
        name,
    );
    report.metric(
        "runtime.dep_wait_s",
        prof(&|_, p| p.dep_wait_seconds),
        "s",
        name,
    );
    report.metric(
        "runtime.kernel_share",
        prof(&|o, p| p.total_busy_seconds() / (o.secs * ranks)),
        "ratio",
        name,
    );
    report.metric(
        "runtime.overhead_us_per_task",
        prof(&|o, p| (o.secs * ranks - p.total_busy_seconds() - p.dep_wait_seconds) / tasks * 1e6),
        "us",
        name,
    );
    let traced_secs: Vec<f64> = traced.iter().map(|o| o.secs).collect();
    report.metric(
        "obs.trace_overhead",
        median(&traced_secs) / median(&secs) - 1.0,
        "ratio",
        name,
    );
    report.note(format!(
        "{name}: {} untraced and {} traced factorizations; kernel seconds come from task spans and \
         include preemption when ranks outnumber cores, so kernel rates are taken from the \
         single-thread kernels.* probes instead",
        untraced.len(),
        traced.len()
    ));

    // exact per-factorization counts; in-process runs serialize nothing
    let sum = |f: &dyn Fn(&TransportStats) -> u64| -> Vec<f64> {
        untraced
            .iter()
            .map(|o| o.transport.iter().map(f).sum::<u64>() as f64)
            .collect()
    };
    let net_source = if mode == Mode::InProcess { "n/a" } else { name };
    let comm = |f: fn((u64, u64)) -> u64| -> f64 {
        median(
            &untraced
                .iter()
                .filter_map(|o| o.comm.map(|c| f(c) as f64))
                .collect::<Vec<_>>(),
        )
    };
    report.metric("net.messages", comm(|c| c.0), "count", name);
    report.metric("net.payload_bytes", comm(|c| c.1), "B", name);
    report.metric(
        "net.frame_bytes",
        median(&sum(&|s| s.sent_frame_bytes)),
        "B",
        net_source,
    );
    let retrans = sum(&|s| s.retrans_messages);
    let payload = sum(&|s| s.sent_messages);
    report.metric("net.session.retrans", median(&retrans), "count", net_source);
    report.metric(
        "net.session.control",
        median(&sum(&|s| s.control_messages)),
        "count",
        net_source,
    );
    let useful: Vec<f64> = payload
        .iter()
        .zip(&retrans)
        .map(|(p, r)| p / (p + r))
        .collect();
    report.metric(
        "net.session.useful_ratio",
        if mode == Mode::InProcess {
            0.0
        } else {
            median(&useful)
        },
        "ratio",
        net_source,
    );
    probes::absent_serve(&mut report);
    report
}

/// Validates one factorization and counts its failure, if any; returns
/// whether it succeeded.
fn account(report: &mut Report, case: &Case, op: &Op, out: Result<RunOutput, String>) -> bool {
    let ran = out.is_ok();
    let verdict = out.and_then(|out| {
        case.check(&out)?;
        if !op.transport.is_empty() {
            let msgs: u64 = op.transport.iter().map(|s| s.sent_messages).sum();
            let bytes: u64 = op.transport.iter().map(|s| s.sent_payload_bytes).sum();
            if msgs != case.messages || bytes != case.bytes {
                return Err(format!(
                    "wire payload {msgs} msgs / {bytes} B, analytic {} / {}",
                    case.messages, case.bytes
                ));
            }
        }
        Ok(())
    });
    if let Err(e) = verdict {
        // an execution error is a failed operation; a wrong result is
        // also an incorrect output
        if ran {
            report.correct = false;
        }
        report.failed += 1;
        report.note(format!("failure: {e}"));
        return false;
    }
    true
}
