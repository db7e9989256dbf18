//! `serve_open`: the resident service under open-loop arrivals.
//!
//! One submitter thread issues jobs at fixed intervals whatever the
//! service does; one waiter thread collects outcomes in submission order.
//! A job's latency is counted from when it was due:
//! `(submit return − due) + JobOutcome::elapsed`, so the in-order waiter's
//! head-of-line blocking never inflates later jobs, while a stalled
//! submitter still charges every job it delays.

use crate::probes::{self, SERVE_SHAPES};
use crate::stats::{median, tail, Tail};
use crate::{splitmix, Args, Metric, Report};
use sbc::planner::Op;
use sbc::runtime::{JobId, JobOutcome};
use sbc::serve::{potrf_reference, ServeConfig, Service};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reference arrival rate, about a quarter of the service's capacity (250
/// to 430 jobs/s with this job mix on a two-core x86-64 VM, depending on
/// what else the physical host runs). At half capacity the tail latency
/// amplifies the host's speed swings into a 30 % run-to-run spread.
const REF_RATE: f64 = 80.0;
/// Ladder rates are `REF_RATE · STEP^k` for `k` in `FIRST_STEP..=LAST_STEP`
/// (251 to 538 jobs/s). The rates between the reference and the first
/// step are far below capacity, so the run spends its time near it.
const STEP: f64 = 1.1;
const FIRST_STEP: i32 = 12;
const LAST_STEP: i32 = 20;
/// Share of the time budget one ladder trial lasts. At 25 s that is 2 s,
/// at least 502 jobs: the trial's tail is its 98th percentile or higher.
const STEP_SHARE: f64 = 0.08;
/// A rate is sustained while the tail latency of its jobs stays within
/// this limit.
const LIMIT_S: f64 = 0.050;
/// Service starts (each with its warm-up jobs) whose median is `setup_s`.
const SETUPS: usize = 5;
/// At most this many outcomes per phase are kept for bitwise validation.
const MAX_CHECKED: usize = 40;

/// A POTRF job: tile count, tile size, input seed.
type Job = (usize, usize, u64);

/// A job's shape and seed, drawn from the run seed and its index. Every
/// block of six consecutive jobs holds each shape once, in a seeded order:
/// the largest shape carries over half the mix's flops, so drawing shapes
/// independently would let a phase's share of it, and with it the
/// service's capacity, wander by several percent from run to run.
fn job(seed: u64, i: u64) -> Job {
    let n = SERVE_SHAPES.len() as u64;
    let mut order: Vec<usize> = (0..SERVE_SHAPES.len()).collect();
    let mut h = splitmix(seed ^ (i / n).wrapping_mul(0xA24B_AED4_963E_E407));
    for k in (1..order.len()).rev() {
        h = splitmix(h);
        order.swap(k, (h % (k as u64 + 1)) as usize);
    }
    let (nt, b) = SERVE_SHAPES[order[(i % n) as usize]];
    (nt, b, splitmix(h ^ i))
}

/// Whether job `i`'s factor is kept and checked bitwise.
fn sampled(seed: u64, i: u64) -> bool {
    splitmix(seed ^ i ^ 0x5A17_u64).is_multiple_of(8)
}

/// What the submitter hands the waiter for one job.
struct Ticket {
    i: u64,
    due: Instant,
    submitted: Instant,
    submit_secs: f64,
    id: Option<JobId>,
}

/// Everything one open-loop phase measured.
#[derive(Default)]
struct Phase {
    /// Due-based latency per job; `INFINITY` for a rejected job.
    latency: Vec<f64>,
    exec: Vec<f64>,
    submit: Vec<f64>,
    /// Generator lateness per submission, in submission order.
    lateness: Vec<f64>,
    rejected: u64,
    errors: Vec<String>,
    messages: Vec<f64>,
    bytes: Vec<f64>,
    checked: Vec<(Job, JobOutcome)>,
}

impl Phase {
    /// The generator kept to its schedule: its lateness over the last
    /// quarter is not above that of the first quarter by more than 1 ms.
    fn lateness_steady(&self) -> bool {
        let q = (self.lateness.len() / 4).max(1);
        let first = median(&self.lateness[..q.min(self.lateness.len())]);
        let last = median(&self.lateness[self.lateness.len().saturating_sub(q)..]);
        last <= first + 1e-3
    }

    fn max_lateness(&self) -> f64 {
        self.lateness.iter().copied().fold(0.0, f64::max)
    }
}

/// One ladder step's verdict.
struct Step {
    rate: f64,
    jobs: usize,
    rejected: u64,
    tail: Tail,
    /// Share of jobs over the limit minus the share the tail percentile
    /// allows: positive exactly when the tail misses the limit.
    excess: f64,
    steady: bool,
    max_lateness: f64,
}

impl Step {
    fn of(rate: f64, p: &Phase) -> Step {
        let tail = tail(&p.latency);
        let n = p.latency.len().max(1) as f64;
        let over = p.latency.iter().filter(|&&l| l > LIMIT_S).count() as f64;
        Step {
            rate,
            jobs: p.latency.len(),
            rejected: p.rejected,
            tail,
            excess: (over - tail.beyond as f64) / n,
            steady: p.lateness_steady(),
            max_lateness: p.max_lateness(),
        }
    }

    fn passes(&self) -> bool {
        self.tail.value <= LIMIT_S && self.steady
    }

    /// How far the step is from passing: at most 0 exactly when it passes;
    /// a growing lateness counts as a clear miss.
    fn miss(&self) -> f64 {
        match (self.passes(), self.steady) {
            (true, _) => self.excess.min(0.0),
            (false, true) => self.excess.max(1e-9),
            (false, false) => self.excess.max(0.05),
        }
    }

    fn describe(&self) -> String {
        format!(
            "ladder {:.1} jobs/s: {} jobs, {} rejected, tail p{} {:.6} s, generator max lateness {:.6} s{}{}",
            self.rate,
            self.jobs,
            self.rejected,
            self.tail.pct,
            self.tail.value,
            self.max_lateness,
            if self.steady { "" } else { ", lateness growing" },
            if self.passes() { "" } else { ", FAILS" }
        )
    }
}

/// The highest passing rate, interpolated towards the rate above it by
/// where the share of jobs over the limit crosses what the tail allows.
/// Below the first rate the interpolation runs from zero.
fn sustained_rate(steps: &[Step]) -> f64 {
    let best = steps.iter().rposition(Step::passes);
    let (rate, miss) = best.map_or((0.0, -0.05), |i| (steps[i].rate, steps[i].miss()));
    match steps.get(best.map_or(0, |i| i + 1)) {
        None => rate,
        Some(up) => rate + (up.rate - rate) * (-miss / (up.miss() - miss)),
    }
}

/// Drives jobs at `rate` for `span`, starting from job index `first`,
/// then waits for every one.
fn drive(svc: &Service, seed: u64, first: u64, rate: f64, span: Duration) -> Phase {
    let n = (span.as_secs_f64() * rate).ceil() as u64;
    let (tx, rx) = mpsc::channel::<Ticket>();
    let start = Instant::now() + Duration::from_millis(2);
    let (lateness, phase) = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut p = Phase::default();
            for t in rx {
                p.submit.push(t.submit_secs);
                let Some(id) = t.id else {
                    p.rejected += 1;
                    p.latency.push(f64::INFINITY);
                    continue;
                };
                match svc.wait(id) {
                    Ok(out) => {
                        let exec = out.elapsed.as_secs_f64();
                        p.latency
                            .push(t.submitted.duration_since(t.due).as_secs_f64() + exec);
                        p.exec.push(exec);
                        p.messages.push(out.stats.messages as f64);
                        p.bytes.push(out.stats.bytes as f64);
                        if sampled(seed, t.i) && p.checked.len() < MAX_CHECKED {
                            p.checked.push((job(seed, t.i), out));
                        }
                    }
                    Err(e) => {
                        p.errors.push(format!("job {}: {e}", t.i));
                        p.latency.push(f64::INFINITY);
                    }
                }
            }
            p
        });
        let mut lateness = Vec::with_capacity(n as usize);
        for k in 0..n {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let i = first + k;
            let (nt, b, jseed) = job(seed, i);
            let t = Instant::now();
            lateness.push(t.duration_since(due).as_secs_f64());
            let id = svc
                .submit(Op::Potrf, nt, b, jseed, jseed ^ 1, 0)
                .ok()
                .map(|s| s.id);
            let submitted = Instant::now();
            let ticket = Ticket {
                i,
                due,
                submitted,
                submit_secs: submitted.duration_since(t).as_secs_f64(),
                id,
            };
            tx.send(ticket).expect("waiter thread alive");
        }
        drop(tx);
        (lateness, waiter.join().expect("waiter thread panicked"))
    });
    Phase { lateness, ..phase }
}

/// Checks kept outcomes bitwise against the sequential reference and
/// counts each one that differs as a failure.
fn validate(svc: &Service, checked: &[(Job, JobOutcome)], report: &mut Report) {
    for &((nt, b, jseed), ref out) in checked {
        let expect = potrf_reference(nt, b, jseed);
        let ok = svc.gather_potrf(nt, b, out).is_ok_and(|f| {
            expect
                .tile_coords()
                .all(|(r, c)| f.tile(r, c).as_slice() == expect.tile(r, c).as_slice())
        });
        if !ok {
            report.failed += 1;
            report.correct = false;
            report.note(format!(
                "failure: job nt={nt} b={b} seed={jseed} differs from potrf_reference"
            ));
        }
    }
}

/// Starts the service and runs one warm-up job per shape (cold plan and
/// graph build); returns the service and the set-up time. The warm-up
/// outcomes are validated after the clock stops.
fn start(seed: u64, report: &mut Report) -> (Arc<Service>, f64) {
    let t = Instant::now();
    let svc = Service::start(ServeConfig::default());
    let warm: Vec<_> = (0..SERVE_SHAPES.len() as u64)
        .map(|k| {
            // warm-up seeds come from indices above any the phases use
            let (nt, b) = SERVE_SHAPES[k as usize];
            let jseed = job(seed, u64::MAX - k).2;
            let out = svc
                .submit(Op::Potrf, nt, b, jseed, jseed ^ 1, 0)
                .map_err(|e| e.to_string())
                .and_then(|s| svc.wait(s.id).map_err(|e| e.to_string()));
            ((nt, b, jseed), out)
        })
        .collect();
    let secs = t.elapsed().as_secs_f64();
    for (j, out) in warm {
        report.attempted += 1;
        match out {
            Ok(o) => validate(&svc, &[(j, o)], report),
            Err(e) => {
                report.failed += 1;
                report.note(format!("failure: warm-up job: {e}"));
            }
        }
    }
    (svc, secs)
}

pub fn open(args: &Args) -> Report {
    let seed = args.seed;
    let mut report = Report {
        correct: true,
        ..Default::default()
    };
    let mut budget = args.seconds;
    if args.trace {
        budget = budget.saturating_sub(probes::shared(&mut report));
        let planner =
            sbc::planner::Planner::new(sbc::simgrid::Platform::bora(ServeConfig::default().nodes));
        let plans: Vec<_> = SERVE_SHAPES
            .iter()
            .map(|&(nt, b)| planner.plan(Op::Potrf, nt, b))
            .collect();
        probes::taskgraph(&mut report, "serve_open", || {
            plans.iter().map(|p| p.build_graph().len()).sum()
        });
    }

    let mut setups = Vec::new();
    let mut svc: Option<Arc<Service>> = None;
    for _ in 0..SETUPS {
        if let Some(old) = svc.take() {
            stop(&old, &mut report);
        }
        let (s, secs) = start(seed, &mut report);
        setups.push(secs);
        svc = Some(s);
    }
    let svc = svc.expect("at least one service start");

    // the reference phase gets a third of the budget untraced, the whole
    // remainder when traced (the ladder is an end-to-end measurement).
    // The ladder's seven to ten trials take the rest and may overrun the
    // budget by a few seconds when the service is fast.
    let ref_span = if args.trace {
        budget
    } else {
        budget.mul_f64(0.34)
    };
    let base = drive(&svc, seed, 0, REF_RATE, ref_span);
    let mut next = base.latency.len() as u64;
    report.attempted += base.latency.len() as u64;
    report.failed += base.rejected + base.errors.len() as u64;
    validate(&svc, &base.checked, &mut report);
    for e in &base.errors {
        report.note(format!("failure: {e}"));
    }

    let t = tail(&base.latency);
    report.note(format!(
        "serve_open @ {REF_RATE} jobs/s: {} jobs, {} rejected; tail_s is p{} with {} of {} beyond; \
         generator max lateness {:.6} s",
        base.latency.len(),
        base.rejected,
        t.pct,
        t.beyond,
        t.samples,
        base.max_lateness()
    ));

    if args.trace {
        let planner = svc.planner();
        let (hits, misses) = (planner.cache_hits(), planner.cache_misses());
        report.metric(
            "planner.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            "serve_open",
        );
        report.metric(
            "serve.submit_us",
            median(&base.submit) * 1e6,
            "us",
            "serve_open",
        );
        report.metric("serve.exec_s", median(&base.exec), "s", "serve_open");
        let waits: Vec<f64> = base
            .latency
            .iter()
            .filter(|l| l.is_finite())
            .zip(&base.exec)
            .map(|(l, e)| l - e)
            .collect();
        report.metric("serve.wait_s", median(&waits), "s", "serve_open");
        report.metric(
            "serve.rejected",
            base.rejected as f64,
            "count",
            "serve_open",
        );
        report.metric(
            "net.messages",
            median(&base.messages),
            "count",
            "serve_open",
        );
        report.metric("net.payload_bytes", median(&base.bytes), "B", "serve_open");
        // in-process rank engines: no framing, no sessions, no recorder
        for (name, unit) in [
            ("net.frame_bytes", "B"),
            ("net.session.retrans", "count"),
            ("net.session.control", "count"),
            ("net.session.useful_ratio", "ratio"),
            ("runtime.kernel_s", "s"),
            ("runtime.dep_wait_s", "s"),
            ("runtime.kernel_share", "ratio"),
            ("runtime.overhead_us_per_task", "us"),
            ("obs.trace_overhead", "ratio"),
        ] {
            report.metric(name, 0.0, unit, "n/a");
        }
        stop(&svc, &mut report);
        return report;
    }

    // one rung of the ladder: up to `trials` trials at `REF_RATE · STEP^k`,
    // the best of which stands for the rate, so with two trials one host
    // hiccup cannot fail it
    let mut rung = |k: i32, trials: usize, report: &mut Report| -> Step {
        let rate = REF_RATE * STEP.powi(k);
        let mut best: Option<Step> = None;
        for _ in 0..trials {
            let s = drive(&svc, seed, next, rate, budget.mul_f64(STEP_SHARE));
            next += s.latency.len() as u64;
            report.attempted += s.latency.len() as u64;
            // overload rejections are the ladder's signal, not failures
            report.failed += s.errors.len() as u64;
            for e in &s.errors {
                report.note(format!("failure: {e}"));
            }
            validate(&svc, &s.checked, report);
            let step = Step::of(rate, &s);
            report.note(step.describe());
            let passed = step.passes();
            best = Some(match best {
                Some(b) if b.miss() <= step.miss() => b,
                _ => step,
            });
            if passed {
                break;
            }
        }
        best.expect("every rung runs at least one trial")
    };
    // climb from the first rung until two rates in a row fail
    let mut steps = vec![Step::of(REF_RATE, &base)];
    let mut failing = 0;
    for k in FIRST_STEP..=LAST_STEP {
        let step = rung(k, 2, &mut report);
        failing = if step.passes() { 0 } else { failing + 1 };
        steps.push(step);
        if failing == 2 {
            break;
        }
    }
    // when even the first rung fails, the host is slower than the ladder
    // assumes: walk down the same rungs, one trial each, until one passes
    if !steps[1..].iter().any(Step::passes) {
        for k in (1..FIRST_STEP).rev() {
            let step = rung(k, 1, &mut report);
            let passed = step.passes();
            steps.push(step);
            if passed {
                break;
            }
        }
    }
    steps.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let sustained = sustained_rate(&steps);
    stop(&svc, &mut report);

    report.metric("p50_s", median(&base.latency), "s", "serve_open");
    report.shown.push(Metric {
        name: "tail_s",
        value: t.value,
        unit: "s",
        source: "serve_open",
    });
    report.metric("throughput_per_s", sustained, "1/s", "serve_open");
    report.metric("setup_s", median(&setups), "s", "serve_open");
    report
}

/// Checks the drift alarms (every completed job's communication matched
/// the plan) and shuts the service down; a mismatch or an engine failure
/// is counted.
fn stop(svc: &Service, report: &mut Report) {
    let snap = svc.stats();
    let (ok, done) = (
        snap.counter("obs.drift.ok"),
        snap.counter("serve.jobs.done"),
    );
    report.attempted += 1;
    if ok != done {
        report.failed += 1;
        report.note(format!(
            "failure: obs.drift.ok {ok:?} != serve.jobs.done {done:?}"
        ));
    }
    if let Err(e) = svc.shutdown() {
        report.failed += 1;
        report.note(format!("failure: service shutdown: {e}"));
    }
}
