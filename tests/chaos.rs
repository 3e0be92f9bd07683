//! Integration tests for the data-plane chaos layer through the `dio`
//! facade: the copilot under combined model + storage faults, and the
//! durable store's crash/corruption recovery contract.

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::copilot::{CopilotBuilder, CopilotConfig, DioCopilot};
use dio::faults::{ChaosConfig, MemMedium};
use dio::llm::{FaultConfig, FaultyModel, ModelProfile, SimulatedModel};
use dio::tsdb::{DurableStore, Labels, Sample};

const SEED: u64 = 0xc4a0_50a4;

/// A copilot over the small world with faults injected on *both*
/// planes: the simulated model and the tsdb/vecstore data paths.
fn chaos_copilot(p: f64) -> (DioCopilot, OperatorWorld) {
    let world = OperatorWorld::build(WorldConfig::small());
    let model = FaultyModel::new(
        SimulatedModel::new(ModelProfile::gpt4_sim()),
        FaultConfig::with_probability(SEED, p),
    );
    let copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(Box::new(model))
        .config(CopilotConfig {
            generate_dashboards: false,
            data_chaos: Some(ChaosConfig::with_probability(SEED, p)),
            ..CopilotConfig::default()
        })
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    (copilot, world)
}

#[test]
fn copilot_survives_combined_model_and_data_plane_chaos() {
    let (mut copilot, world) = chaos_copilot(0.5);
    let questions = [
        "How many initial registration attempts were recorded at the AMF?",
        "How many PDU session establishment procedure attempts did the SMF handle?",
        "How many NF discovery procedure attempts did the NRF handle?",
        "How many IP address allocation procedure attempts did the SMF handle?",
        "What is the average registration latency at the AMF?",
        "How many mobility registration update procedure attempts did the AMF handle?",
    ];
    for q in questions {
        // The contract under chaos is graceful degradation: every ask
        // returns a rendered answer (possibly an annotated refusal),
        // never a panic.
        let r = copilot.ask(q, world.eval_ts);
        assert!(!r.render().is_empty(), "empty render for {q:?}");
    }

    let snap = copilot.obs().registry().snapshot();
    assert_eq!(
        snap.total("dio_copilot_answers_total"),
        questions.len() as f64,
        "every ask must be counted as an answer"
    );
    // At p=0.5 with this seed the schedule fires on both planes; the
    // faults must be attributed, not silently swallowed.
    assert!(
        snap.total(dio::copilot::obs::DATA_FAULTS_NAME) > 0.0,
        "data-plane faults were injected but none were counted"
    );
}

#[test]
fn default_copilot_reports_no_chaos_instruments_firing() {
    let world = OperatorWorld::build(WorldConfig::small());
    let mut copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())))
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    let r = copilot.ask(
        "How many NF discovery procedure attempts did the NRF handle?",
        world.eval_ts,
    );
    assert!(!r.render().contains("partial data"));
    let snap = copilot.obs().registry().snapshot();
    assert_eq!(snap.total(dio::copilot::obs::DATA_FAULTS_NAME), 0.0);
    assert_eq!(snap.total(dio::copilot::obs::DEMOTIONS_NAME), 0.0);
}

fn sample_at(i: i64) -> (Labels, Sample) {
    (
        Labels::from_pairs([("__name__", "chaos_facade_metric"), ("cell", "c1")]),
        Sample {
            timestamp_ms: 1_000 * i,
            value: i as f64,
        },
    )
}

#[test]
fn durable_store_recovers_acknowledged_writes_after_mid_write_crash() {
    let mut durable = DurableStore::new(MemMedium::new());
    for i in 0..10 {
        let (labels, sample) = sample_at(i);
        durable.append(labels, sample).unwrap();
    }
    let snapshot = durable.checkpoint().unwrap();
    for i in 10..20 {
        let (labels, sample) = sample_at(i);
        durable.append(labels, sample).unwrap();
    }
    let (_, medium) = durable.into_parts();
    let mut wal_bytes = medium.into_bytes();
    // Crash mid-frame: the tail record loses its last 3 bytes.
    wal_bytes.truncate(wal_bytes.len() - 3);

    let (recovered, report) =
        DurableStore::recover(&snapshot, MemMedium::from(wal_bytes)).unwrap();
    assert_eq!(report.wal_corrupt_frames, 0, "torn tail is not corruption");
    assert!(report.wal_truncated_tail);
    assert_eq!(report.wal_replayed, 9, "all complete frames replay");
    // 10 snapshot samples + 9 replayed WAL samples; only the write torn
    // mid-frame (never acknowledged as durable by a completed append
    // call surviving to disk) is absent.
    assert_eq!(recovered.store().sample_count(), 19);
    assert!(recovered.store().has_metric("chaos_facade_metric"));
}

#[test]
fn bit_flip_in_wal_is_quarantined_not_replayed() {
    let mut durable = DurableStore::new(MemMedium::new());
    for i in 0..8 {
        let (labels, sample) = sample_at(i);
        durable.append(labels, sample).unwrap();
    }
    let (_, medium) = durable.into_parts();
    let mut wal_bytes = medium.into_bytes();
    let mid = wal_bytes.len() / 2;
    wal_bytes[mid] ^= 0x40;

    let recovery = dio::tsdb::recover(&wal_bytes);
    assert!(
        recovery.corrupt_frames >= 1 || recovery.unparsable >= 1,
        "a flipped bit mid-log must be detected"
    );
    // Whatever survives must be byte-for-byte what was written: the
    // checksum gate never lets a silently corrupted sample through.
    for rec in &recovery.records {
        let i = rec.sample.timestamp_ms / 1_000;
        let (labels, sample) = sample_at(i);
        assert_eq!(rec.labels, labels);
        assert_eq!(rec.sample, sample);
    }
    assert!(recovery.records.len() < 8, "the damaged frame cannot replay");
}
