//! `dio-perf`: the repo's one benchmark. See `perf/README.md`.
//!
//! ```text
//! dio-perf --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//!          [--smoke] [--out DIR] [--history FILE]
//! dio-perf --compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! A run prints a table on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics without `--trace`,
//! per-layer metrics with it).

mod baseline;
mod compare;
mod host;
mod report;
mod schedule;
mod spans;
mod spec;
mod stats;
mod workloads;
mod world;

use report::{Check, DriverLine, RunRecord, WORKLOADS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Seed used when none is given (also the seed of the committed
/// baseline lines in `HISTORY.jsonl`).
pub const DEFAULT_SEED: u64 = 20_231_128;
/// Time box used when none is given; `BENCHMARK.json` passes the same.
pub const DEFAULT_SECONDS: f64 = 6.0;
/// Set-up repetitions of an untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// One workload run's parameters.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// About a tenth of the work: schema and checks only.
    pub smoke: bool,
    pub out_dir: PathBuf,
    pub history: Option<PathBuf>,
}

impl RunArgs {
    pub fn setup_repeats(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

enum Cli {
    Run(RunArgs),
    Compare {
        a: PathBuf,
        b: PathBuf,
        spec: PathBuf,
    },
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut out_dir = PathBuf::from("perf/out");
    let mut history = None;
    let mut compare = None;
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {seconds} outside (0, 60]"));
                }
            }
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are accepted.
                trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke = true,
            "--out" => out_dir = PathBuf::from(value(&mut i, "--out")?),
            "--history" => history = Some(PathBuf::from(value(&mut i, "--history")?)),
            "--spec" => spec = PathBuf::from(value(&mut i, "--spec")?),
            "--compare" => {
                let a = PathBuf::from(value(&mut i, "--compare")?);
                let b = PathBuf::from(value(&mut i, "--compare")?);
                compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some((a, b)) = compare {
        return Ok(Cli::Compare { a, b, spec });
    }
    let workload = workload.ok_or("--workload <name> is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Cli::Run(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        out_dir,
        history,
    }))
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn run(args: RunArgs) -> ExitCode {
    let host = host::HostFingerprint::collect();
    let mut rec = spans::Recorder::new(Instant::now());
    let mut out = match args.workload.as_str() {
        "ask_cold" => workloads::ask_cold::run(&args, &mut rec),
        "serve_mixed" => workloads::serve_mixed::run(&args, &mut rec),
        "dash_refresh" => workloads::dash_refresh::run(&args, &mut rec),
        "shard_failover" => workloads::shard_failover::run(&args, &mut rec),
        other => unreachable!("workload {other} passed validation"),
    };
    let samples = out.ops.ok_ms.len();
    out.checks.push(Check::new(
        "no_failed_ops",
        out.ops.failed == 0,
        format!(
            "{} of {} ops errored, were shed or came back degraded",
            out.ops.failed, out.ops.attempted
        ),
    ));
    if !args.trace && !args.smoke {
        out.checks.push(Check::new(
            "p95_has_10_samples_beyond",
            stats::supports(samples, 95.0),
            format!("{samples} latency samples"),
        ));
    }
    let metrics = if args.trace {
        let overhead = stats::overhead_share(&out.ops.ok_ms, &out.reference_ms);
        out.layers.insert("bench.trace_overhead_share", overhead);
        report::per_layer_metrics(&out)
    } else {
        let rss = host::peak_rss_mib().expect("VmHWM in /proc/self/status");
        report::end_to_end_metrics(&out, rss)
    };
    let record = RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        comparable: !args.smoke,
        host,
        correct: out.checks.iter().all(|c| c.pass),
        ops_attempted: out.ops.attempted,
        ops_failed: out.ops.failed,
        latency_samples: samples as u64,
        metrics,
        checks: out.checks,
        counts: out.counts,
        notes: out.notes,
    };
    report::print_table(&record, &out.layers);

    let suffix = if args.trace { "_traced" } else { "" };
    let result_path = args
        .out_dir
        .join(format!("result_{}{suffix}.json", args.workload));
    let record_json = serde_json::to_string(&record).expect("record serialises");
    let mut io = write_file(&result_path, &record_json);
    if args.trace {
        let trace_path = args.out_dir.join(format!("trace_{}.json", args.workload));
        io = io.and(write_file(
            &trace_path,
            &spans::trace_json(&args.workload, rec.spans()),
        ));
    }
    for (name, text) in &out.artifacts {
        io = io.and(write_file(&args.out_dir.join(name), text));
    }
    if let Some(history) = &args.history {
        io = io.and(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(history)
                .and_then(|mut f| writeln!(f, "{record_json}")),
        );
    }
    if let Err(e) = io {
        eprintln!("dio-perf: writing results: {e}");
        return ExitCode::from(3);
    }

    let line = DriverLine {
        correct: record.correct,
        attempted: record.ops_attempted,
        failed: record.ops_failed,
        metrics: record.metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("driver line serialises")
    );
    if line.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&argv) {
        Ok(Cli::Run(args)) => run(args),
        Ok(Cli::Compare { a, b, spec }) => compare::run(&a, &b, &spec),
        Err(message) => {
            eprintln!("dio-perf: {message}");
            eprintln!(
                "usage: dio-perf --workload <{}> [--seed N] [--seconds S] [--trace [0|1]] \
                 [--smoke] [--out DIR] [--history FILE]\n       \
                 dio-perf --compare A.json B.json [--spec BENCHMARK.json]",
                WORKLOADS.join("|")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run_args(s: &str) -> RunArgs {
        match parse_cli(&argv(s)) {
            Ok(Cli::Run(a)) => a,
            _ => panic!("expected a run for {s}"),
        }
    }

    #[test]
    fn accepts_the_driver_invocation() {
        let a = run_args("--workload ask_cold --seed 7 --seconds 10 --trace 0");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("ask_cold", 7, 10.0, false)
        );
        assert_eq!(a.setup_repeats(), SETUP_REPEATS);
        let a = run_args("--workload dash_refresh --seed 7 --seconds 10 --trace 1");
        assert!(a.trace);
        assert_eq!(a.setup_repeats(), 1);
    }

    #[test]
    fn bare_trace_flag_and_defaults() {
        let a = run_args("--workload serve_mixed --trace --smoke");
        assert!(a.trace && a.smoke);
        assert_eq!((a.seed, a.seconds), (DEFAULT_SEED, DEFAULT_SECONDS));
        let a = run_args("--trace --workload serve_mixed");
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_cli(&argv("--workload nope")).is_err());
        assert!(parse_cli(&argv("--seed 1")).is_err());
        assert!(parse_cli(&argv("--workload ask_cold --seconds 0")).is_err());
        assert!(parse_cli(&argv("--workload ask_cold --seconds 61")).is_err());
        assert!(parse_cli(&argv("--workload ask_cold --seed x")).is_err());
        assert!(parse_cli(&argv("--workload ask_cold --frobnicate")).is_err());
        assert!(matches!(
            parse_cli(&argv("--compare a.json b.json")),
            Ok(Cli::Compare { .. })
        ));
    }
}
