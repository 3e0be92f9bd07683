//! Integration tests for the chaos layers through the `dio` facade:
//! the copilot under model faults and node crashes, and the WAL's
//! corruption recovery contract.

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::cluster::{Cluster, ClusterConfig};
use dio::copilot::{CopilotBuilder, CopilotConfig};
use dio::faults::{CrashSchedule, NodeFault};
use dio::llm::{FaultConfig, FaultyModel, ModelProfile, SimulatedModel};
use dio::sandbox::StoreResolver;
use dio::tsdb::{Labels, Sample, Wal, WalRecord};
use std::sync::Arc;

const SEED: u64 = 0xc4a0_50a4;

#[test]
fn copilot_survives_combined_model_and_data_plane_chaos() {
    // Faults on both planes: the simulated model fails calls, and a
    // seeded schedule kills and restarts the nodes of the 2-node
    // cluster the copilot reads through.
    let p = 0.5;
    let world = OperatorWorld::build(WorldConfig::small());
    let model = FaultyModel::new(
        SimulatedModel::new(ModelProfile::gpt4_sim()),
        FaultConfig::with_probability(SEED, p),
    );
    let mut copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(Box::new(model))
        .config(CopilotConfig {
            generate_dashboards: false,
            ..CopilotConfig::default()
        })
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(2)));
    cluster.load_from(&world.store).expect("cluster load");
    copilot.attach_store_resolver(cluster.clone() as Arc<dyn StoreResolver>);
    let mut schedule = CrashSchedule::new(SEED, p, 2);
    let questions = [
        "How many initial registration attempts were recorded at the AMF?",
        "How many PDU session establishment procedure attempts did the SMF handle?",
        "How many NF discovery procedure attempts did the NRF handle?",
        "How many IP address allocation procedure attempts did the SMF handle?",
        "What is the average registration latency at the AMF?",
        "How many mobility registration update procedure attempts did the AMF handle?",
    ];
    let mut crashes = 0;
    for q in questions {
        match schedule.decide() {
            Some(NodeFault::Crash { node }) => crashes += usize::from(cluster.kill_node(node)),
            Some(NodeFault::Restart { node }) => {
                cluster.restart_node(node);
            }
            None => {}
        }
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
    // At p=0.5 with this seed the schedule kills a node, and a read
    // finds its primary dead: one copy of every shard stays live, so
    // the replica takes over instead of the store going unavailable.
    assert!(crashes > 0, "the crash schedule never fired");
    assert!(cluster.failovers() > 0, "a killed primary was never failed over");
    assert_eq!(snap.total(dio::copilot::obs::DATA_FAULTS_NAME), 0.0);
}

#[test]
fn default_copilot_reports_no_chaos_instruments_firing() {
    let world = OperatorWorld::build(WorldConfig::small());
    let copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())))
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    let r = copilot.ask(
        "How many NF discovery procedure attempts did the NRF handle?",
        world.eval_ts,
    );
    assert!(r.error.is_none(), "{:?}", r.error);
    let snap = copilot.obs().registry().snapshot();
    assert_eq!(snap.total(dio::copilot::obs::DATA_FAULTS_NAME), 0.0);
    assert_eq!(snap.total("dio_llm_faults_injected_total"), 0.0);
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
fn bit_flip_in_wal_is_quarantined_not_replayed() {
    let mut wal = Wal::default();
    for i in 0..8 {
        let (labels, sample) = sample_at(i);
        wal.append(&WalRecord { labels, sample });
    }
    let mut wal_bytes = wal.bytes().to_vec();
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
