//! **Self-observation**: the copilot queries its own telemetry.
//!
//! Runs an instrumented, fault-injected benchmark slice, scrapes the
//! `dio-obs` registry into a `dio-tsdb` store after every chunk, derives
//! a `dio-catalog` description of every exported instrument, and then
//! asks a second copilot natural-language questions about the first
//! one's recovery and latency behaviour — verifying each numeric answer
//! against the registry's ground truth.
//!
//! ```text
//! cargo run --release -p dio-bench --bin self_observe
//! ```
//!
//! Writes `results/BENCH_self_observe.json`, then exits non-zero if the
//! exposition fails to round-trip, any instrument lacks a catalog
//! description, or fewer than three self-directed questions verify.

use dio_bench::artifact::{stage_latencies, StageLatency, SystemResult};
use dio_bench::drill::Drill;
use dio_bench::selfobs::{print_qa, run_self_observation, SelfQa};
use dio_obs::parse_exposition;
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct SelfObserveArtifact {
    /// One row per evaluated chunk of the observed benchmark run.
    systems: Vec<SystemResult>,
    stage_latency_micros: Vec<StageLatency>,
    qa: Vec<SelfQa>,
}

fn main() -> ExitCode {
    let mut drill = Drill::from_args("self_observe", 0);
    eprintln!("running instrumented benchmark slice (60 questions, p-fault 0.25)…");
    let outcome = run_self_observation(60, 0.25);

    println!("\nSelf-observation — the copilot on its own telemetry\n");
    println!(
        "benchmark: {} questions, EX {:.1}%, {} scrapes, {} samples into the obs store",
        outcome.questions_run,
        outcome.ex_percent(),
        outcome.scrapes,
        outcome.samples_appended,
    );
    println!(
        "catalog: {} instrument descriptions derived from the registry",
        outcome.catalog_len
    );

    // Exposition must survive its own parser.
    let families = parse_exposition(&outcome.exposition);
    drill.gate(
        "exposition_round_trips",
        families.is_ok(),
        match &families {
            Ok(f) => format!("{} families, {} bytes", f.len(), outcome.exposition.len()),
            Err(e) => format!("exporter output does not parse: {e:?}"),
        },
    );
    drill.gate(
        "every_instrument_documented",
        outcome.undocumented.is_empty(),
        format!(
            "exported instruments without catalog descriptions: {:?}",
            outcome.undocumented
        ),
    );

    let correct = print_qa(&outcome.qa);
    drill.gate(
        "three_self_directed_answers_verify",
        correct >= 3,
        format!(
            "{correct} of {} answers match the registry",
            outcome.qa.len()
        ),
    );

    drill.finish(&SelfObserveArtifact {
        systems: outcome
            .chunk_reports
            .iter()
            .enumerate()
            .map(|(i, r)| SystemResult::from_report(&format!("chunk_{i}"), r))
            .collect(),
        stage_latency_micros: stage_latencies(&outcome.final_snapshot),
        qa: outcome.qa,
    })
}
