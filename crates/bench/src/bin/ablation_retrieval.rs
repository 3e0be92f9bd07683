//! **Ablation: retrieval quality and cost.** Compares exact flat search
//! (the paper's FAISS `IndexFlatIP` setup) with random context on the
//! tuning world and the held-out one, at the default number of context
//! samples: how much of DIO's accuracy the semantic-search component
//! carries (§3.2's core contribution), and what retrieval costs per ask
//! and to build.
//!
//! ```text
//! cargo run --release -p dio-bench --bin ablation_retrieval
//! ```
//!
//! Writes `results/BENCH_ablation_retrieval.json`.

use dio_bench::artifact::SystemResult;
use dio_bench::drill::{git_rev, write_artifact, Latency, RESULTS_DIR};
use dio_bench::Experiment;
use dio_benchmark::evaluate;
use dio_copilot::{ContextExtractor, CopilotConfig, RetrievalMode};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// One retrieval mode's accuracy and cost on one world.
#[derive(Debug, Clone, Serialize)]
struct ModeResult {
    /// Execution accuracy of the full pipeline in this mode, labelled
    /// `<world>: <mode>`.
    result: SystemResult,
    /// Median wall time of one `retrieve_with_stats_vec` (search + MMR)
    /// with the question already embedded, microseconds.
    retrieve_p50_us: f64,
    /// Mean rows of the embedded matrix scored per ask.
    candidates_scanned_per_ask: f64,
    /// Wall time to embed the corpus and build the index, seconds.
    index_build_s: f64,
}

#[derive(Debug, Clone, Serialize)]
struct AblationArtifact {
    bench: String,
    /// The commit the binary ran at (`git rev-parse --short HEAD`).
    git_rev: String,
    top_k: usize,
    modes: Vec<ModeResult>,
}

fn main() {
    let modes = [
        ("flat (exact)", RetrievalMode::Flat),
        ("random context", RetrievalMode::Random { seed: 7 }),
    ];
    let top_k = CopilotConfig::default().top_k;

    println!("\nAblation — retrieval quality and cost at k = {top_k} (paper: exact FAISS cosine search)\n");
    println!(
        "{:<9} | {:<14} | {:>6} | {:>15} | {:>12} | {:>9}",
        "World", "mode", "EX (%)", "retrieve p50 µs", "scanned/ask", "build (s)"
    );
    println!(
        "{:-<9}-+-{:-<14}-+-{:-<6}-+-{:-<15}-+-{:-<12}-+-{:-<9}",
        "", "", "", "", "", ""
    );
    let mut artifact = AblationArtifact {
        bench: "ablation_retrieval".into(),
        git_rev: git_rev(),
        top_k,
        modes: Vec::new(),
    };
    for (world, exp) in Experiment::worlds() {
        let db = exp.world.domain_db();
        for (label, mode) in modes {
            let config = CopilotConfig {
                retrieval: mode,
                generate_dashboards: false,
                ..CopilotConfig::default()
            };

            let start = Instant::now();
            let extractor = ContextExtractor::build_with_mode(&db, config.domain_embedder, mode);
            let index_build_s = start.elapsed().as_secs_f64();

            let mut micros = Vec::with_capacity(exp.questions.len());
            let mut scanned = 0usize;
            for q in &exp.questions {
                let qvec = extractor.embed_question(&q.text);
                let start = Instant::now();
                let (hits, stats) =
                    extractor.retrieve_with_stats_vec(&q.text, Some(&qvec), config.top_k);
                micros.push(start.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(hits);
                scanned += stats.candidates_scanned;
            }

            let mut dio = exp.copilot_with_config(Experiment::gpt4(), config);
            let report = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);

            let row = ModeResult {
                result: SystemResult::from_report(&format!("{world}: {label}"), &report),
                retrieve_p50_us: Latency::of(micros).p50,
                candidates_scanned_per_ask: scanned as f64 / exp.questions.len() as f64,
                index_build_s,
            };
            println!(
                "{:<9} | {:<14} | {:>6.1} | {:>15.0} | {:>12.0} | {:>9.2}",
                world,
                label,
                row.result.ex_percent,
                row.retrieve_p50_us,
                row.candidates_scanned_per_ask,
                row.index_build_s
            );
            artifact.modes.push(row);
        }
    }

    write_artifact(Path::new(RESULTS_DIR), "ablation_retrieval", &artifact);
}
