//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//! ```
//!
//! Runs one named workload (see `README.md` in this directory) through
//! the crates' public APIs only, checks every output, and prints one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end set, measured with no instrumentation;
//! with `--trace 1` they are the per-layer set, taken by wrapping the
//! engine's public seams in the decorators of [`spans`]. Scratch files go
//! under `--workdir`, which the caller owns and removes.

mod replay;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [
    ("sessions_per_s", "sessions/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a
/// layer a workload does not exercise reads zero.
const PER_LAYER: [(&str, &str); 43] = [
    ("trace.read_chunk.calls", "count"),
    ("trace.read_chunk.s", "s"),
    ("trace.read_chunk.records", "count"),
    ("trace.read_chunk.share", "share"),
    ("trace.decode_bytes", "bytes"),
    ("trace.generate_s", "s"),
    ("cache.on_access.calls", "count"),
    ("cache.on_access.s", "s"),
    ("cache.on_access.ns_per_call", "ns"),
    ("cache.on_access.share", "share"),
    ("cache.ops", "count"),
    ("cache.prepare.s", "s"),
    ("cache.hit_rate", "share"),
    ("sim.run.s", "s"),
    ("sim.self_s", "s"),
    ("sim.cpu_share", "share"),
    ("sim.online.submit.calls", "count"),
    ("sim.online.submit.s", "s"),
    ("sim.online.advance_to.calls", "count"),
    ("sim.online.advance_to.s", "s"),
    ("sim.online.lookup.calls", "count"),
    ("sim.online.lookup.s", "s"),
    ("sim.online.epochs", "count"),
    ("serve.server_cpu_s", "s"),
    ("serve.wire_cpu_s", "s"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.cache_stale", "count"),
    ("serve.shed", "count"),
    ("serve.client_late_ms", "ms"),
    ("serve.outstanding_max", "count"),
    ("serve.session_p50_ms", "ms"),
    ("serve.session_p99_ms", "ms"),
    ("serve.session_samples", "count"),
    ("serve.lookup_p50_ms", "ms"),
    ("serve.lookup_p99_ms", "ms"),
    ("serve.lookup_samples", "count"),
    ("serve.sustained_rps", "req/s"),
    ("serve.lookup_peak_rps", "req/s"),
    ("tracing.overhead", "share"),
    ("tracing.layer_sum_share", "share"),
    ("tracing.traced_runs", "count"),
    ("host.pace_ratio", "ratio"),
    ("check.reports_identical", "count"),
];

/// What one workload run hands back to be printed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sessions replayed, requests sent).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// Every output check that failed, in words (stderr).
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub traced: bool,
    pub workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut workdir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => traced = Some(number()? != 0),
            "--workdir" => workdir = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        run: Duration::from_secs(seconds.ok_or("--seconds is required")?.max(1)),
        traced: traced.unwrap_or(false),
        workdir: workdir.ok_or("--workdir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "replay-serial" => replay::replay_serial(&args),
        "serve-mixed" => serve::serve_mixed(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: {}: check failed: {problem}", args.workload);
    }
    let names: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if args.traced => 0.0,
            None => {
                eprintln!("perfbench: {}: no value for {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(","),
    );
    ExitCode::SUCCESS
}
