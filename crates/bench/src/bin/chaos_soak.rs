//! **Chaos soak: the full pipeline under combined LLM + data-plane
//! faults.** Runs the benchmark twice — fault-free baseline, then with
//! [`dio_llm::FaultyModel`] *and* [`dio_faults`] data-plane chaos both
//! at the same fault probability — and gates that EX stays within a
//! stated band of the baseline and every question is still answered.
//! (Crash consistency at every byte offset is the unit sweeps' job, in
//! `dio-tsdb`'s `wal.rs`:
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

use dio_bench::artifact::{stage_latencies, StageLatency, SystemResult};
use dio_bench::drill::Drill;
use dio_bench::Experiment;
use dio_benchmark::{evaluate, EvalReport};
use dio_copilot::{CopilotBuilder, CopilotConfig, DioCopilot};
use dio_faults::ChaosConfig;
use dio_llm::{FaultConfig, FaultyModel, ModelProfile, SimulatedModel};
use dio_obs::{ObsHub, SeriesValue};
use serde::Serialize;
use std::process::ExitCode;

/// Per-operation fault probability for both fault planes.
const FAULT_P: f64 = 0.2;
/// Maximum EX drop (percentage points) the chaos run may show against
/// the fault-free baseline.
const EX_BAND: f64 = 10.0;

/// One `layer × kind` data-fault cell from the copilot's registry.
#[derive(Debug, Clone, Serialize)]
struct FaultCell {
    layer: String,
    kind: String,
    count: f64,
}

/// Where the chaos run's answers came from — the degradation and
/// completeness attribution the acceptance criteria ask for.
#[derive(Debug, Clone, Serialize, Default)]
struct Attribution {
    answers_full: f64,
    answers_repaired: f64,
    answers_degraded: f64,
    completeness_complete: f64,
    completeness_partial: f64,
    model_faults_injected: f64,
    data_faults: Vec<FaultCell>,
    index_demotions: f64,
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

/// One evaluation; `chaos` is the seed both fault planes run on.
fn run(exp: &Experiment, chaos: Option<u64>) -> (EvalReport, DioCopilot) {
    let hub = ObsHub::new();
    let inner = SimulatedModel::new(ModelProfile::gpt4_sim());
    let model: Box<dyn dio_llm::FoundationModel> = match chaos {
        Some(seed) => Box::new(
            FaultyModel::new(inner, FaultConfig::with_probability(seed, FAULT_P))
                .with_registry(hub.registry().clone()),
        ),
        None => Box::new(inner),
    };
    let config = CopilotConfig {
        generate_dashboards: false,
        data_chaos: chaos.map(|seed| ChaosConfig::with_probability(seed, FAULT_P)),
        ..CopilotConfig::default()
    };
    let mut dio = CopilotBuilder::new(exp.world.domain_db(), exp.world.store.clone())
        .model(model)
        .config(config)
        .exemplars(exp.exemplars.clone())
        .obs(hub)
        .build();
    let report = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);
    (report, dio)
}

/// A labelled counter family as `layer × kind` cells, zeroes omitted.
fn fault_cells(snapshot: &dio_obs::Snapshot, family: &str) -> Vec<FaultCell> {
    let series = snapshot.family(family).map(|fam| fam.series.as_slice()).unwrap_or_default();
    let cells = series.iter().filter_map(|s| {
        let label = |key: &str| {
            let pair = s.labels.iter().find(|(k, _)| k == key);
            pair.map(|(_, v)| v.clone()).unwrap_or_default()
        };
        match s.value {
            SeriesValue::Counter(count) if count != 0.0 => {
                Some(FaultCell { layer: label("layer"), kind: label("kind"), count })
            }
            _ => None,
        }
    });
    cells.collect()
}

fn attribution(dio: &DioCopilot) -> Attribution {
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
        completeness_complete: total(dio_copilot::obs::COMPLETENESS_NAME, "level", "complete"),
        completeness_partial: total(dio_copilot::obs::COMPLETENESS_NAME, "level", "partial"),
        model_faults_injected: snap.total("dio_llm_faults_injected_total"),
        data_faults: fault_cells(&snap, dio_copilot::obs::DATA_FAULTS_NAME),
        index_demotions: snap.total(dio_copilot::obs::DEMOTIONS_NAME),
    }
}

fn main() -> ExitCode {
    let mut drill = Drill::from_args("chaos_soak", 0xc4a0_5017);
    let exp = drill.experiment(40);

    eprintln!("baseline run ({} questions, fault-free)…", exp.questions.len());
    let (baseline, _) = run(&exp, None);
    eprintln!(
        "baseline EX {:.1}% — chaos run (p={FAULT_P} on model and data planes)…",
        baseline.ex_percent
    );
    let (chaos, dio) = run(&exp, Some(drill.seed));
    let attribution = attribution(&dio);

    let ex_delta = baseline.ex_percent - chaos.ex_percent;
    let within_band = ex_delta.abs() <= EX_BAND;
    println!(
        "chaos soak: baseline EX {:.1}%, chaos EX {:.1}% (delta {:+.1} pts, band ±{EX_BAND}), \
         {} degraded / {} repaired / {} full",
        baseline.ex_percent,
        chaos.ex_percent,
        -ex_delta,
        attribution.answers_degraded,
        attribution.answers_repaired,
        attribution.answers_full,
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
        format!("chaos run answered {}/{} questions", chaos.total, exp.questions.len()),
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
