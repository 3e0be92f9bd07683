//! **Chaos soak: the full pipeline under combined LLM + data-plane
//! faults.** Runs the benchmark twice — fault-free baseline, then with
//! [`dio_llm::FaultyModel`] *and* [`dio_faults`] data-plane chaos both
//! at the same fault probability — and asserts EX stays within a stated
//! band of the baseline. A crash sweep then kills the tsdb WAL writer
//! and the feedback journal writer at **every byte offset** and proves
//! recovery never loses an acknowledged write nor surfaces a corrupt
//! one.
//!
//! ```text
//! cargo run --release -p dio-bench --bin chaos_soak            # full 200-question soak
//! cargo run --release -p dio-bench --bin chaos_soak -- --quick # CI smoke (small world)
//! ```
//!
//! Writes `results/BENCH_chaos_soak.json` and exits non-zero when the
//! EX band or a crash-consistency invariant is violated.

use dio_bench::artifact::{stage_latencies, StageLatency, SystemResult};
use dio_bench::{quick_flag, Experiment};
use dio_benchmark::{evaluate, EvalReport, WorldConfig};
use dio_copilot::{CopilotBuilder, CopilotConfig, DioCopilot};
use dio_faults::{ChaosConfig, MemMedium};
use dio_llm::{FaultConfig, FaultyModel, ModelProfile, SimulatedModel};
use dio_obs::{ObsHub, SeriesValue};
use dio_tsdb::{DurableStore, Labels, Sample};
use serde::Serialize;
use std::fs;

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

/// Crash-sweep outcome: every byte offset of both logs was a kill
/// point, and every recovery held the durability contract.
#[derive(Debug, Clone, Serialize)]
struct CrashSweep {
    wal_bytes: usize,
    wal_records: usize,
    wal_offsets_checked: usize,
    journal_bytes: usize,
    journal_ops: usize,
    journal_offsets_checked: usize,
}

#[derive(Debug, Clone, Serialize)]
struct ChaosSoakArtifact {
    bench: String,
    quick: bool,
    questions: usize,
    fault_probability: f64,
    ex_band_points: f64,
    baseline: SystemResult,
    chaos: SystemResult,
    ex_delta_points: f64,
    within_band: bool,
    attribution: Attribution,
    crash_sweep: CrashSweep,
    stage_latency_micros: Vec<StageLatency>,
}

fn soak_config(chaos: bool) -> CopilotConfig {
    CopilotConfig {
        generate_dashboards: false,
        data_chaos: chaos.then(|| ChaosConfig::with_probability(seed(), FAULT_P)),
        ..CopilotConfig::default()
    }
}

fn seed() -> u64 {
    0xc4a0_5017
}

fn run(exp: &Experiment, chaos: bool) -> (EvalReport, DioCopilot) {
    let hub = ObsHub::new();
    let inner = SimulatedModel::new(ModelProfile::gpt4_sim());
    let model: Box<dyn dio_llm::FoundationModel> = if chaos {
        Box::new(
            FaultyModel::new(inner, FaultConfig::with_probability(seed(), FAULT_P))
                .with_registry(hub.registry().clone()),
        )
    } else {
        Box::new(inner)
    };
    let mut dio = CopilotBuilder::new(exp.world.domain_db(), exp.world.store.clone())
        .model(model)
        .config(soak_config(chaos))
        .exemplars(exp.exemplars.clone())
        .obs(hub)
        .build();
    let report = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);
    (report, dio)
}

/// Sum a labelled counter family into per-label cells.
fn fault_cells(snapshot: &dio_obs::Snapshot, family: &str) -> Vec<FaultCell> {
    let mut out = Vec::new();
    let Some(fam) = snapshot.family(family) else {
        return out;
    };
    for s in &fam.series {
        let SeriesValue::Counter(v) = &s.value else {
            continue;
        };
        if *v == 0.0 {
            continue;
        }
        let get = |key: &str| {
            s.labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        out.push(FaultCell {
            layer: get("layer"),
            kind: get("kind"),
            count: *v,
        });
    }
    out
}

fn labelled_total(snapshot: &dio_obs::Snapshot, family: &str, key: &str, value: &str) -> f64 {
    snapshot
        .family(family)
        .map(|fam| {
            fam.series
                .iter()
                .filter(|s| s.labels.contains(&(key.to_string(), value.to_string())))
                .map(|s| match &s.value {
                    SeriesValue::Counter(v) => *v,
                    _ => 0.0,
                })
                // + 0.0 normalises the empty sum: `Sum for f64` uses
                // -0.0 as its identity, which would render as "-0".
                .sum::<f64>()
                + 0.0
        })
        .unwrap_or(0.0)
}

fn attribution(dio: &DioCopilot) -> Attribution {
    let snap = dio.obs().registry().snapshot();
    Attribution {
        answers_full: labelled_total(&snap, "dio_copilot_answers_total", "degradation", "full"),
        answers_repaired: labelled_total(
            &snap,
            "dio_copilot_answers_total",
            "degradation",
            "repaired",
        ),
        answers_degraded: labelled_total(
            &snap,
            "dio_copilot_answers_total",
            "degradation",
            "degraded",
        ),
        completeness_complete: labelled_total(
            &snap,
            dio_copilot::obs::COMPLETENESS_NAME,
            "level",
            "complete",
        ),
        completeness_partial: labelled_total(
            &snap,
            dio_copilot::obs::COMPLETENESS_NAME,
            "level",
            "partial",
        ),
        model_faults_injected: snap.total("dio_llm_faults_injected_total"),
        data_faults: fault_cells(&snap, dio_copilot::obs::DATA_FAULTS_NAME),
        index_demotions: snap.total(dio_copilot::obs::DEMOTIONS_NAME),
    }
}

/// Kill the tsdb WAL writer at every byte offset: recovery from any
/// prefix must yield a prefix-closed set of the acknowledged appends
/// with zero corrupt frames. Returns (bytes, records, offsets checked).
fn wal_crash_sweep() -> (usize, usize, usize) {
    let mut durable = DurableStore::new(MemMedium::new());
    let mut acked = Vec::new();
    for i in 0..40i64 {
        let labels = Labels::from_pairs([
            ("__name__", "soak_crash_metric"),
            ("shard", if i % 2 == 0 { "a" } else { "b" }),
        ]);
        let sample = Sample {
            timestamp_ms: 1_000 * i,
            value: i as f64 * 1.5,
        };
        durable
            .append(labels.clone(), sample)
            .expect("healthy append");
        acked.push((labels, sample));
    }
    let (_, medium) = durable.into_parts();
    let bytes = medium.bytes().to_vec();
    let mut checked = 0usize;
    for cut in 0..=bytes.len() {
        let recovery = dio_tsdb::wal::recover(&bytes[..cut]);
        assert!(
            recovery.corrupt_frames == 0 && recovery.unparsable == 0,
            "crash at offset {cut}: recovery surfaced corrupt frames"
        );
        let n = recovery.records.len();
        assert!(n <= acked.len(), "crash at offset {cut}: phantom records");
        for (got, want) in recovery.records.iter().zip(acked.iter()) {
            assert_eq!(got.labels, want.0, "crash at offset {cut}: wrong order");
            assert_eq!(got.sample, want.1, "crash at offset {cut}: wrong sample");
        }
        if cut == bytes.len() {
            assert_eq!(n, acked.len(), "full log must recover every acked write");
        }
        checked += 1;
    }
    (bytes.len(), acked.len(), checked)
}

/// Same sweep for the feedback journal: replay of any prefix applies
/// cleanly (no rejected ops — the prefix property guarantees causal
/// order survives the crash).
fn journal_crash_sweep() -> (usize, usize, usize) {
    use dio_feedback::{Journal, JournalOp};
    let mut journal = Journal::new(MemMedium::new());
    let mut ops = Vec::new();
    for i in 0..12u64 {
        let op = JournalOp::RaiseHand {
            question: format!("soak question {i}?"),
            context_metrics: vec![format!("metric_{i}")],
            response: format!("answer {i}"),
        };
        journal.record(&op).expect("healthy record");
        ops.push(op);
        let comment = JournalOp::Comment {
            id: i,
            author: "soak".into(),
            text: format!("comment {i}"),
        };
        journal.record(&comment).expect("healthy record");
        ops.push(comment);
    }
    let bytes = journal.into_medium().into_bytes();
    let mut checked = 0usize;
    for cut in 0..=bytes.len() {
        let recovery = dio_feedback::journal::recover(&bytes[..cut]);
        assert!(
            recovery.corrupt_frames == 0 && recovery.unparsable == 0,
            "journal crash at offset {cut}: corrupt frames"
        );
        assert!(recovery.ops.len() <= ops.len());
        for (got, want) in recovery.ops.iter().zip(ops.iter()) {
            assert_eq!(got, want, "journal crash at offset {cut}: op mismatch");
        }
        checked += 1;
    }
    (bytes.len(), ops.len(), checked)
}

fn main() {
    let quick = quick_flag();
    eprintln!("building world ({})…", if quick { "quick" } else { "full" });
    let exp = if quick {
        Experiment::with_config(WorldConfig::small(), 40)
    } else {
        Experiment::standard()
    };

    eprintln!("baseline run ({} questions, fault-free)…", exp.questions.len());
    let (baseline, _) = run(&exp, false);
    eprintln!(
        "baseline EX {:.1}% — chaos run (p={FAULT_P} on model and data planes)…",
        baseline.ex_percent
    );
    let (chaos, dio) = run(&exp, true);
    let attribution = attribution(&dio);
    let snap = dio.obs().registry().snapshot();

    eprintln!("crash sweep: killing the WAL writer at every byte offset…");
    let (wal_bytes, wal_records, wal_offsets) = wal_crash_sweep();
    let (journal_bytes, journal_ops, journal_offsets) = journal_crash_sweep();

    let ex_delta = baseline.ex_percent - chaos.ex_percent;
    let within_band = ex_delta.abs() <= EX_BAND;
    let all_answered = chaos.total == exp.questions.len();

    let artifact = ChaosSoakArtifact {
        bench: "chaos_soak".into(),
        quick,
        questions: exp.questions.len(),
        fault_probability: FAULT_P,
        ex_band_points: EX_BAND,
        baseline: SystemResult::from_report("baseline", &baseline),
        chaos: SystemResult::from_report(&format!("chaos p={FAULT_P}"), &chaos),
        ex_delta_points: ex_delta,
        within_band,
        attribution,
        crash_sweep: CrashSweep {
            wal_bytes,
            wal_records,
            wal_offsets_checked: wal_offsets,
            journal_bytes,
            journal_ops,
            journal_offsets_checked: journal_offsets,
        },
        stage_latency_micros: stage_latencies(&snap),
    };

    fs::create_dir_all("results").expect("create results dir");
    let json = serde_json::to_string_pretty(&artifact).expect("serialise artifact");
    fs::write("results/BENCH_chaos_soak.json", &json).expect("write artifact");
    eprintln!("wrote results/BENCH_chaos_soak.json");

    println!(
        "chaos soak: baseline EX {:.1}%, chaos EX {:.1}% (delta {:+.1} pts, band ±{EX_BAND}), \
         {} degraded / {} repaired / {} full; WAL sweep {} offsets, journal sweep {} offsets",
        baseline.ex_percent,
        chaos.ex_percent,
        -ex_delta,
        artifact.attribution.answers_degraded,
        artifact.attribution.answers_repaired,
        artifact.attribution.answers_full,
        wal_offsets,
        journal_offsets,
    );

    if !within_band {
        eprintln!(
            "FAIL: chaos EX {:.1}% fell more than {EX_BAND} points below baseline {:.1}%",
            chaos.ex_percent, baseline.ex_percent
        );
        std::process::exit(1);
    }
    if !all_answered {
        eprintln!(
            "FAIL: chaos run answered {}/{} questions",
            chaos.total,
            exp.questions.len()
        );
        std::process::exit(1);
    }
}
