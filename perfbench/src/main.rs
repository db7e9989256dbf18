//! End-to-end and per-layer benchmark of the SBC Cholesky workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <potrf_coarse|potrf_fine|potrf_lossy|serve_open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload calls the library's public API with its defaults and
//! validates every output outside the timed region. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` prints the per-layer metrics,
//! measured by timing calls into each layer from outside. The last line
//! of standard output is one JSON object; the lines before it are the
//! human-readable report. See `perfbench/README.md` for what each metric
//! should move.

mod potrf;
mod probes;
mod serve;
mod stats;

use std::time::Duration;

/// One metric as printed: name, value, unit, and where it was measured.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// The workload the value was measured on, `probe` for a
    /// workload-independent layer probe, or `n/a` when the workload does
    /// not pass through the layer (the value is then 0).
    pub source: &'static str,
}

/// What a workload run hands back to `main` for printing.
#[derive(Default)]
pub struct Report {
    /// Every produced output matched its reference.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Metrics printed in the report but left out of the JSON line: too
    /// noisy on a shared host to gate a change on.
    pub shown: Vec<Metric>,
    /// Free-form report lines (sample counts, lateness, notes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        source: &'static str,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            source,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <potrf_coarse|potrf_fine|potrf_lossy|serve_open> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("malformed value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64: the benchmark's one source of seeded randomness.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Relative directory the UDS socket files are created in, so the run
/// writes nothing outside the directory it was started from (socket paths
/// must also stay under the 108-byte `sun_path` limit).
const SOCK_DIR: &str = ".bench_sock";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // the benchmark measures the program's defaults; an override would
    // silently measure something else
    if let Ok(v) = std::env::var(sbc::kernels::KERNELS_ENV) {
        eprintln!(
            "perfbench: {}={v} is set; unset it so the default kernel backend is measured",
            sbc::kernels::KERNELS_ENV
        );
        std::process::exit(2);
    }
    let run: fn(&Args) -> Report = match args.workload.as_str() {
        "potrf_coarse" => potrf::coarse,
        "potrf_fine" => potrf::fine,
        "potrf_lossy" => potrf::lossy,
        "serve_open" => serve::open,
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(SOCK_DIR) {
        eprintln!("perfbench: cannot create {SOCK_DIR}: {e}");
        std::process::exit(1);
    }
    // set before any thread exists; the transport reads it on every bind
    std::env::set_var("TMPDIR", SOCK_DIR);

    let backend = sbc::kernels::KernelBackend::resolve(Default::default());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# host cores={cores} kernels={} simd={} workload={} seed={} seconds={} trace={}",
        backend.effective(),
        sbc::kernels::KernelBackend::Arch.effective() == sbc::kernels::KernelBackend::Arch,
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
    );

    let report = run(&args);
    let _ = std::fs::remove_dir_all(SOCK_DIR);

    for n in &report.notes {
        println!("# {n}");
    }
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "e2e failed_ratio {failed_ratio} (failed {} of {} attempted)",
        report.failed, report.attempted
    );
    for m in report.shown.iter().chain(&report.metrics) {
        let kind = if args.trace { "layer" } else { "e2e" };
        println!("{kind} {} {} {} [{}]", m.name, m.value, m.unit, m.source);
    }
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            // an infinite tail (refused jobs beyond the tail percentile)
            // prints as the largest number JSON can carry
            let v = if m.value.is_nan() {
                0.0
            } else {
                m.value.clamp(-f64::MAX, f64::MAX)
            };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
}
