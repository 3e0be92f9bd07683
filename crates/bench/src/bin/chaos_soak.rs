//! **Chaos soak: the full pipeline under model faults and node
//! crashes.** Runs the benchmark twice — fault-free baseline over one
//! store, then with [`dio_llm::FaultyModel`] failing calls and a seeded
//! [`CrashSchedule`] killing and restarting the nodes of a 2-node
//! [`Cluster`] the copilot reads through, both at the same probability —
//! and gates that EX stays within a stated band of the baseline and
//! every question is still answered. A killed primary is found dead on
//! the next read and its replica promoted; a store the resolver cannot
//! reach surfaces as a storage fault the copilot retries, then
//! degrades. (Crash consistency at every byte offset is the unit
//! sweeps' job, in `dio-tsdb`'s `wal.rs`:
//! `crash_at_every_byte_offset_never_loses_an_acked_write`,
//! `crash_at_every_byte_offset_of_a_log_full_of_marker_bytes_keeps_the_acked_prefix`
//! and the bit-flip sweeps beside them.)
//!
//! ```text
//! cargo run --release -p dio-bench --bin chaos_soak            # full 200-question soak
//! cargo run --release -p dio-bench --bin chaos_soak -- --quick # CI smoke (small world)
//! ```
//!
//! Writes `results/BENCH_chaos_soak.json`, then exits non-zero when a
//! gate failed.

use dio_baselines::{NlQuerySystem, SystemAnswer};
use dio_bench::artifact::{stage_latencies, StageLatency, SystemResult};
use dio_bench::drill::Drill;
use dio_bench::Experiment;
use dio_benchmark::{evaluate, EvalReport};
use dio_cluster::{Cluster, ClusterConfig};
use dio_copilot::{CopilotBuilder, CopilotConfig, DioCopilot};
use dio_faults::{CrashSchedule, NodeFault};
use dio_llm::{FaultConfig, FaultyModel, FoundationModel, ModelProfile, SimulatedModel};
use dio_obs::{ObsHub, SeriesValue};
use dio_sandbox::StoreResolver;
use serde::Serialize;
use std::process::ExitCode;
use std::sync::Arc;

/// Per-operation fault probability for both fault planes.
const FAULT_P: f64 = 0.2;
/// Maximum EX drop (percentage points) the chaos run may show against
/// the fault-free baseline.
const EX_BAND: f64 = 10.0;
/// Nodes of the chaos run's cluster: one replica per shard.
const NODES: usize = 2;

/// Where the chaos run's answers came from, and what the faults did.
#[derive(Debug, Clone, Serialize, Default)]
struct Attribution {
    answers_full: f64,
    answers_repaired: f64,
    answers_degraded: f64,
    model_faults_injected: f64,
    node_crashes: usize,
    node_restarts: usize,
    /// Replica promotions after a primary was found dead.
    failovers: f64,
    /// Store resolutions that failed; each is retried (bounded) before
    /// the ask degrades.
    storage_faults: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ChaosSoakArtifact {
    questions: usize,
    fault_probability: f64,
    ex_band_points: f64,
    baseline: SystemResult,
    chaos: SystemResult,
    ex_delta_points: f64,
    within_band: bool,
    attribution: Attribution,
    stage_latency_micros: Vec<StageLatency>,
}

/// The chaos run's system: before each question the crash schedule may
/// kill or restart a node of the cluster the copilot reads through.
struct Crashing<'a> {
    copilot: &'a mut DioCopilot,
    cluster: &'a Cluster,
    schedule: CrashSchedule,
    crashes: usize,
    restarts: usize,
}

impl NlQuerySystem for Crashing<'_> {
    fn system_name(&self) -> String {
        self.copilot.system_name()
    }

    fn answer(&mut self, question: &str, ts: i64) -> SystemAnswer {
        match self.schedule.decide() {
            Some(NodeFault::Crash { node }) => {
                self.crashes += usize::from(self.cluster.kill_node(node));
            }
            Some(NodeFault::Restart { node }) => {
                self.cluster.restart_node(node);
                self.restarts += 1;
            }
            None => {}
        }
        self.copilot.answer(question, ts)
    }
}

fn copilot(exp: &Experiment, model: Box<dyn FoundationModel>, hub: ObsHub) -> DioCopilot {
    let config = CopilotConfig {
        generate_dashboards: false,
        ..CopilotConfig::default()
    };
    CopilotBuilder::new(exp.world.domain_db(), exp.world.store.clone())
        .model(model)
        .config(config)
        .exemplars(exp.exemplars.clone())
        .obs(hub)
        .build()
}

/// The fault-free baseline: the simulated model over one store.
fn baseline(exp: &Experiment) -> EvalReport {
    let model = Box::new(SimulatedModel::new(ModelProfile::gpt4_sim()));
    let mut dio = copilot(exp, model, ObsHub::new());
    evaluate(&mut dio, &exp.questions, exp.world.eval_ts)
}

/// The chaos run on `seed`: model faults, and node crashes under a
/// cluster that counts into the copilot's registry.
fn chaos(exp: &Experiment, seed: u64) -> (EvalReport, DioCopilot, Attribution) {
    let hub = ObsHub::new();
    let model = FaultyModel::new(
        SimulatedModel::new(ModelProfile::gpt4_sim()),
        FaultConfig::with_probability(seed, FAULT_P),
    )
    .with_registry(hub.registry().clone());
    let cluster = Arc::new(Cluster::with_registry(
        ClusterConfig::new(NODES),
        hub.registry().clone(),
    ));
    cluster.load_from(&exp.world.store).expect("cluster load");
    let mut dio = copilot(exp, Box::new(model), hub);
    dio.attach_store_resolver(cluster.clone() as Arc<dyn StoreResolver>);
    let mut system = Crashing {
        copilot: &mut dio,
        cluster: &cluster,
        schedule: CrashSchedule::new(seed, FAULT_P, NODES),
        crashes: 0,
        restarts: 0,
    };
    let report = evaluate(&mut system, &exp.questions, exp.world.eval_ts);
    let (crashes, restarts) = (system.crashes, system.restarts);
    let attribution = attribution(&dio, crashes, restarts);
    (report, dio, attribution)
}

fn attribution(dio: &DioCopilot, node_crashes: usize, node_restarts: usize) -> Attribution {
    let snap = dio.obs().registry().snapshot();
    // `+ 0.0`: an empty f64 sum is -0.0, which would render as "-0".
    let total = |family: &str, key: &str, value: &str| {
        let series = snap.family(family).map_or(&[][..], |f| f.series.as_slice());
        let matching = series
            .iter()
            .filter(|s| s.labels.iter().any(|(k, v)| k == key && v == value));
        matching
            .map(|s| match s.value {
                SeriesValue::Counter(v) => v,
                _ => 0.0,
            })
            .sum::<f64>()
            + 0.0
    };
    const ANSWERS: &str = "dio_copilot_answers_total";
    Attribution {
        answers_full: total(ANSWERS, "degradation", "full"),
        answers_repaired: total(ANSWERS, "degradation", "repaired"),
        answers_degraded: total(ANSWERS, "degradation", "degraded"),
        model_faults_injected: snap.total("dio_llm_faults_injected_total"),
        node_crashes,
        node_restarts,
        failovers: snap.total("dio_cluster_failovers_total"),
        storage_faults: snap.total(dio_copilot::obs::DATA_FAULTS_NAME),
    }
}

fn main() -> ExitCode {
    let mut drill = Drill::from_args("chaos_soak", 0xc4a0_5017);
    let exp = drill.experiment(40);

    eprintln!(
        "baseline run ({} questions, fault-free)…",
        exp.questions.len()
    );
    let baseline = baseline(&exp);
    eprintln!(
        "baseline EX {:.1}% — chaos run (p={FAULT_P} model faults and node crashes)…",
        baseline.ex_percent
    );
    let (chaos, dio, attribution) = chaos(&exp, drill.seed);

    let ex_delta = baseline.ex_percent - chaos.ex_percent;
    let within_band = ex_delta.abs() <= EX_BAND;
    println!(
        "chaos soak: baseline EX {:.1}%, chaos EX {:.1}% (delta {:+.1} pts, band ±{EX_BAND}), \
         {} degraded / {} repaired / {} full, {} crashes, {} failovers, {} storage faults",
        baseline.ex_percent,
        chaos.ex_percent,
        -ex_delta,
        attribution.answers_degraded,
        attribution.answers_repaired,
        attribution.answers_full,
        attribution.node_crashes,
        attribution.failovers,
        attribution.storage_faults,
    );
    drill.gate(
        "ex_within_band",
        within_band,
        format!(
            "chaos EX {:.1}% vs baseline {:.1}% (band ±{EX_BAND} points)",
            chaos.ex_percent, baseline.ex_percent
        ),
    );
    drill.gate(
        "every_question_answered",
        chaos.total == exp.questions.len(),
        format!(
            "chaos run answered {}/{} questions",
            chaos.total,
            exp.questions.len()
        ),
    );

    drill.finish(&ChaosSoakArtifact {
        questions: exp.questions.len(),
        fault_probability: FAULT_P,
        ex_band_points: EX_BAND,
        baseline: SystemResult::from_report("baseline", &baseline),
        chaos: SystemResult::from_report(&format!("chaos p={FAULT_P}"), &chaos),
        ex_delta_points: ex_delta,
        within_band,
        attribution,
        stage_latency_micros: stage_latencies(&dio.obs().registry().snapshot()),
    })
}
