//! **Ablation: retrieval quality and cost.** Compares exact flat search
//! (the paper's FAISS setup), approximate IVF search at several probe
//! widths, and random context — how much of DIO's accuracy the
//! semantic-search component carries (§3.2's core contribution), and
//! what each mode costs per ask and to build, which is what says when
//! to pick one.
//!
//! ```text
//! cargo run --release -p dio-bench --bin ablation_retrieval
//! ```
//!
//! Writes `results/BENCH_ablation_retrieval.json`.

use dio_bench::artifact::SystemResult;
use dio_bench::drill::{write_artifact, Latency, RESULTS_DIR};
use dio_bench::Experiment;
use dio_benchmark::evaluate;
use dio_copilot::{ContextExtractor, CopilotConfig, RetrievalMode};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// One retrieval mode's accuracy and cost.
#[derive(Debug, Clone, Serialize)]
struct ModeResult {
    /// Execution accuracy of the full pipeline in this mode.
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
    questions: usize,
    top_k: usize,
    modes: Vec<ModeResult>,
}

fn main() {
    eprintln!("building world…");
    let exp = Experiment::standard();
    let db = exp.world.domain_db();

    let ivf = |nprobe| RetrievalMode::Ivf { nlist: 64, nprobe };
    let modes: Vec<(&str, RetrievalMode)> = vec![
        ("flat (exact)", RetrievalMode::Flat),
        ("ivf nlist=64 nprobe=16", ivf(16)),
        ("ivf nlist=64 nprobe=4", ivf(4)),
        ("ivf nlist=64 nprobe=1", ivf(1)),
        ("random context", RetrievalMode::Random { seed: 7 }),
    ];

    println!("\nAblation — retrieval quality and cost (paper: exact FAISS cosine search)\n");
    println!(
        "{:<24} | {:>6} | {:>15} | {:>12} | {:>9}",
        "mode", "EX (%)", "retrieve p50 µs", "scanned/ask", "build (s)"
    );
    println!(
        "{:-<24}-+-{:-<6}-+-{:-<15}-+-{:-<12}-+-{:-<9}",
        "", "", "", "", ""
    );
    let mut artifact = AblationArtifact {
        bench: "ablation_retrieval".into(),
        questions: exp.questions.len(),
        top_k: CopilotConfig::default().top_k,
        modes: Vec::new(),
    };
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
            result: SystemResult::from_report(label, &report),
            retrieve_p50_us: Latency::of(micros).p50,
            candidates_scanned_per_ask: scanned as f64 / exp.questions.len() as f64,
            index_build_s,
        };
        println!(
            "{:<24} | {:>6.1} | {:>15.0} | {:>12.0} | {:>9.2}",
            label,
            row.result.ex_percent,
            row.retrieve_p50_us,
            row.candidates_scanned_per_ask,
            row.index_build_s
        );
        artifact.modes.push(row);
    }

    write_artifact(Path::new(RESULTS_DIR), "ablation_retrieval", &artifact);
}
