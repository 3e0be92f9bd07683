//! # dio-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`table_3a`, `table_3b`, `inference_cost`, `figure_*`, `ablation_*`,
//! `dataset_export`; see DESIGN.md's experiment index) and the seven
//! gated drills CI runs with `--quick` (`chaos_soak`, `model_gateway`,
//! `overload_drill`, `shard_failover`, `slo_drill`, `tsdb_bench`, and
//! `self_observe`). Performance is measured by `perf/`, not here.
//!
//! This library crate holds the shared experiment setup
//! ([`Experiment`]), the drill harness ([`drill`]: sizing, scoring,
//! bursts, trace audit, write-then-gate), the table artifact
//! ([`artifact`]), and the self-observation loop ([`selfobs`]).

pub mod artifact;
pub mod drill;
pub mod selfobs;

use dio_baselines::{sample_schema, DinSqlBaseline, DirectModelBaseline};
use dio_benchmark::{fewshot_exemplars, generate_benchmark, BenchmarkQuestion, OperatorWorld, WorldConfig};
use dio_copilot::{CopilotBuilder, CopilotConfig, DioCopilot};
use dio_llm::{FewShotExample, FoundationModel, ModelProfile, SimulatedModel};

/// Number of metric names the baselines see (paper: "approximately
/// 600 … selected in a uniformly random manner").
pub const BASELINE_SCHEMA_SIZE: usize = 600;
/// Schema sampling seed.
pub const SCHEMA_SEED: u64 = 0x5c83_a001;
/// Benchmark generation seed.
pub const BENCHMARK_SEED: u64 = 0xbe9c_4a11;
/// Benchmark size (the paper's 200).
pub const BENCHMARK_SIZE: usize = 200;

/// The `q`-quantile (`q` in 0..=1) of an ascending slice, at the
/// rounded rank `(n-1)·q`; 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The shared experiment setup: world + questions + exemplars.
pub struct Experiment {
    /// The operator world.
    pub world: OperatorWorld,
    /// The 200 benchmark questions.
    pub questions: Vec<BenchmarkQuestion>,
    /// The 20 few-shot exemplars.
    pub exemplars: Vec<FewShotExample>,
}

impl Experiment {
    /// Build the full-scale experiment (3000+ metrics, 200 questions).
    pub fn standard() -> Self {
        Self::with_config(WorldConfig::default(), BENCHMARK_SIZE)
    }

    /// Build with a custom world/benchmark size (used by fast tests).
    pub fn with_config(config: WorldConfig, n_questions: usize) -> Self {
        let world = OperatorWorld::build(config);
        let questions = generate_benchmark(&world, n_questions, BENCHMARK_SEED);
        let exemplars = fewshot_exemplars(&world.catalog);
        Experiment {
            world,
            questions,
            exemplars,
        }
    }

    /// A DIO copilot over this world with the given model.
    pub fn copilot(&self, model: Box<dyn FoundationModel>) -> DioCopilot {
        self.copilot_with_config(model, CopilotConfig::default())
    }

    /// A DIO copilot with a custom configuration.
    pub fn copilot_with_config(
        &self,
        model: Box<dyn FoundationModel>,
        config: CopilotConfig,
    ) -> DioCopilot {
        CopilotBuilder::new(self.world.domain_db(), self.world.store.clone())
            .model(model)
            .config(config)
            .exemplars(self.exemplars.clone())
            .build()
    }

    /// The DIN-SQL baseline over this world.
    pub fn dinsql(&self, model: Box<dyn FoundationModel>) -> DinSqlBaseline {
        let schema = sample_schema(&self.world.domain_db(), BASELINE_SCHEMA_SIZE, SCHEMA_SEED);
        DinSqlBaseline::new(
            schema,
            self.exemplars.clone(),
            model,
            self.world.store.clone(),
        )
    }

    /// The bare-model baseline over this world.
    pub fn direct(&self, model: Box<dyn FoundationModel>) -> DirectModelBaseline {
        let schema = sample_schema(&self.world.domain_db(), BASELINE_SCHEMA_SIZE, SCHEMA_SEED);
        DirectModelBaseline::new(schema, model, self.world.store.clone())
    }

    /// The GPT-4 simulation.
    pub fn gpt4() -> Box<dyn FoundationModel> {
        Box::new(SimulatedModel::new(ModelProfile::gpt4_sim()))
    }

    /// The GPT-3.5-turbo simulation.
    pub fn gpt35() -> Box<dyn FoundationModel> {
        Box::new(SimulatedModel::new(ModelProfile::gpt35_turbo_sim()))
    }

    /// The text-curie-001 simulation.
    pub fn curie() -> Box<dyn FoundationModel> {
        Box::new(SimulatedModel::new(ModelProfile::text_curie_sim()))
    }
}
