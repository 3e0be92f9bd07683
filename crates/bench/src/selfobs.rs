//! The self-observation loop: the copilot answering questions about
//! its own telemetry through its own pipeline.
//!
//! The loop closes four subsystems into a circle:
//!
//! 1. an instrumented copilot runs a slice of the operator benchmark
//!    under fault injection, filling its [`dio_obs::Registry`];
//! 2. [`dio_obs::ObsScraper`] exports the registry as Prometheus text,
//!    parses it back (every scrape is an exposition round-trip proof),
//!    and appends the samples to a fresh [`dio_tsdb::MetricStore`];
//! 3. the scraper also derives a [`dio_catalog::Catalog`] describing
//!    each exported instrument, which becomes the domain DB of a
//!    *second* copilot pointed at the scraped store;
//! 4. that copilot answers natural-language questions about the first
//!    one's health — "how many repair rounds did the copilot run?" —
//!    via the standard retrieve → generate → execute path, and the
//!    answers are checked against the registry's ground truth.

use dio_benchmark::{evaluate_observed, EvalReport, WorldConfig};
use dio_catalog::{Catalog, DomainDb};
use dio_copilot::{CopilotBuilder, CopilotConfig, DioCopilot};
use dio_llm::{
    FaultConfig, FaultyModel, FewShotExample, ModelProfile, SimulatedModel,
};
use dio_obs::{parse_exposition, to_prometheus, ObsHub, ObsScraper, Snapshot};
use dio_tsdb::MetricStore;
use serde::Serialize;

use crate::drill::scored;
use crate::Experiment;

/// Fault schedule seed for the observed run.
pub const SELF_OBS_FAULT_SEED: u64 = 0x0b5_e7e;
/// Scrape interval in store-time milliseconds.
pub const SCRAPE_STEP_MS: i64 = 60_000;

/// One self-directed question and its verification.
#[derive(Debug, Clone, Serialize)]
pub struct SelfQa {
    /// The natural-language question asked of the meta-copilot.
    pub question: String,
    /// The instrument holding the ground truth.
    pub metric: String,
    /// Ground truth from the registry snapshot.
    pub expected: f64,
    /// The meta-copilot's numeric answer, if any.
    pub answered: Option<f64>,
    /// The query the meta-copilot generated.
    pub query: String,
    /// Whether the answer matched the ground truth numerically.
    pub correct: bool,
}

/// Everything the self-observation run produced.
#[derive(Debug)]
pub struct SelfObserveOutcome {
    /// Per-chunk evaluation reports from the observed benchmark run.
    pub chunk_reports: Vec<EvalReport>,
    /// Benchmark questions evaluated in total.
    pub questions_run: usize,
    /// Scrapes taken (one per chunk).
    pub scrapes: usize,
    /// Samples appended to the observability store across all scrapes.
    pub samples_appended: usize,
    /// The final Prometheus exposition of the copilot's registry.
    pub exposition: String,
    /// Instruments described in the scraper-derived catalog.
    pub catalog_len: usize,
    /// Exported sample names missing a catalog description (must be
    /// empty — every instrument gets documentation).
    pub undocumented: Vec<String>,
    /// The self-directed question/answer checks.
    pub qa: Vec<SelfQa>,
    /// Final registry snapshot (ground truth for the QA checks, and the
    /// source of stage-latency percentiles for the JSON artifact).
    pub final_snapshot: dio_obs::Snapshot,
}

impl SelfObserveOutcome {
    /// Overall EX over the observed benchmark run.
    pub fn ex_percent(&self) -> f64 {
        let total: usize = self.chunk_reports.iter().map(|r| r.total).sum();
        let correct: usize = self.chunk_reports.iter().map(|r| r.correct).sum();
        if total == 0 {
            0.0
        } else {
            correct as f64 * 100.0 / total as f64
        }
    }

    /// How many self-directed questions were answered correctly.
    pub fn qa_correct(&self) -> usize {
        self.qa.iter().filter(|q| q.correct).count()
    }
}

/// A copilot over scraped telemetry: `catalog` (derived by the
/// scraper) is its domain DB, `store` the scraped samples.
fn meta_copilot(catalog: Catalog, store: MetricStore, exemplars: Vec<FewShotExample>) -> DioCopilot {
    CopilotBuilder::new(DomainDb::from_catalog(catalog), store)
        .model(Experiment::gpt4())
        .config(CopilotConfig {
            generate_dashboards: false,
            ..CopilotConfig::default()
        })
        .exemplars(exemplars)
        .build()
}

/// Ask `meta` each `(question, instrument)` case as of `ts`, checking
/// the answer against the instrument's total in `truth`.
fn ask_about(meta: &DioCopilot, truth: &Snapshot, cases: &[(&str, &str)], ts: i64) -> Vec<SelfQa> {
    cases
        .iter()
        .map(|&(question, metric)| {
            let expected = truth.total(metric);
            let r = meta.ask(question, ts);
            SelfQa {
                question: question.to_string(),
                metric: metric.to_string(),
                expected,
                answered: r.numeric_answer,
                query: r.query,
                correct: scored(r.numeric_answer, expected),
            }
        })
        .collect()
}

/// Print the question / answer / truth table; returns how many verified.
pub fn print_qa(qa: &[SelfQa]) -> usize {
    println!("\n{:<72} | {:>12} | {:>12} | ok", "question", "answer", "truth");
    println!("{}", "-".repeat(110));
    for qa in qa {
        println!(
            "{:<72} | {:>12} | {:>12.2} | {}",
            qa.question,
            qa.answered.map_or_else(|| "—".into(), |v| format!("{v:.2}")),
            qa.expected,
            if qa.correct { "yes" } else { "NO" },
        );
    }
    let correct = qa.iter().filter(|q| q.correct).count();
    println!("\n{correct}/{} self-directed questions verified against the registry", qa.len());
    correct
}

/// Few-shot exemplars in the self-telemetry domain.
fn self_exemplars() -> Vec<FewShotExample> {
    vec![
        FewShotExample {
            question: "How many questions was the copilot asked in total?".into(),
            metrics: vec!["dio_copilot_asks_total".into()],
            promql: "sum(dio_copilot_asks_total)".into(),
        },
        FewShotExample {
            question: "How many answers came from the degraded fallback?".into(),
            metrics: vec!["dio_copilot_answers_total".into()],
            promql: "sum(dio_copilot_answers_total{degradation=\"degraded\"})".into(),
        },
        FewShotExample {
            question: "How many prompt tokens were sent to the foundation model?".into(),
            metrics: vec!["dio_llm_prompt_tokens_total".into()],
            promql: "sum(dio_llm_prompt_tokens_total)".into(),
        },
    ]
}

/// Run the full self-observation loop: an instrumented, fault-injected
/// benchmark run, periodic scrapes into a TSDB, catalog derivation, and
/// self-directed question answering verified against the registry.
pub fn run_self_observation(n_questions: usize, fault_p: f64) -> SelfObserveOutcome {
    // Phase 1: an instrumented copilot runs the benchmark under fault
    // injection, all telemetry flowing into one shared hub.
    let exp = Experiment::with_config(WorldConfig::small(), n_questions);
    let hub = ObsHub::new();
    let model = Box::new(
        FaultyModel::new(
            SimulatedModel::new(ModelProfile::gpt4_sim()),
            FaultConfig::with_probability(SELF_OBS_FAULT_SEED, fault_p),
        )
        .with_registry(hub.registry().clone()),
    );
    let mut dio = CopilotBuilder::new(exp.world.domain_db(), exp.world.store.clone())
        .model(model)
        .config(CopilotConfig {
            generate_dashboards: false,
            ..CopilotConfig::default()
        })
        .exemplars(exp.exemplars.clone())
        .obs(hub.clone())
        .build();

    // Phase 2: evaluate in chunks, scraping the registry between chunks
    // so the observability store accumulates real history.
    let scraper = ObsScraper::new();
    let mut obs_store = MetricStore::new();
    let mut chunk_reports = Vec::new();
    let mut samples_appended = 0usize;
    let mut scrapes = 0usize;
    for chunk in exp.questions.chunks(10) {
        let r = evaluate_observed(&mut dio, chunk, exp.world.eval_ts, hub.registry());
        chunk_reports.push(r);
        scrapes += 1;
        let ts = scrapes as i64 * SCRAPE_STEP_MS;
        let stats = scraper
            .scrape(hub.registry(), ts, &mut obs_store)
            .expect("scrape must round-trip through the exposition parser");
        samples_appended += stats.appended;
    }
    let last_ts = scrapes as i64 * SCRAPE_STEP_MS;

    // Phase 3: exposition round-trip + catalog coverage.
    let exposition = to_prometheus(&hub.registry().snapshot());
    let families =
        parse_exposition(&exposition).expect("exporter output must be valid Prometheus text");
    let catalog = scraper.catalog(hub.registry());
    let documented: std::collections::BTreeSet<&str> =
        catalog.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut undocumented = Vec::new();
    for family in &families {
        for sample in &family.samples {
            if !documented.contains(sample.name.as_str()) {
                undocumented.push(sample.name.clone());
            }
        }
    }
    undocumented.sort();
    undocumented.dedup();
    let catalog_len = catalog.metrics.len();

    // Phase 4: a second copilot over the scraped telemetry answers
    // questions about the first one, checked against the registry.
    let snap = hub.registry().snapshot();
    let cases = [
        ("How many repair rounds did the copilot run?", dio_copilot::obs::REPAIRS_NAME),
        (
            "How many completion calls did the copilot issue to the foundation model?",
            "dio_llm_model_calls_total",
        ),
        (
            "How many faults did the injection harness plant into model completions?",
            "dio_llm_faults_injected_total",
        ),
        (
            "How many retries of transient foundation model failures were there?",
            dio_copilot::obs::RETRIES_NAME,
        ),
        ("How many benchmark questions were evaluated?", dio_benchmark::eval::QUESTIONS_NAME),
    ];
    let meta = meta_copilot(catalog, obs_store, self_exemplars());
    let qa = ask_about(&meta, &snap, &cases, last_ts);

    SelfObserveOutcome {
        chunk_reports,
        questions_run: exp.questions.len(),
        scrapes,
        samples_appended,
        exposition,
        catalog_len,
        undocumented,
        qa,
        final_snapshot: snap,
    }
}
