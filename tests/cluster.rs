//! Facade-level cluster tests: the sharded serving layer must be
//! invisible to correctness — same answers as a single node, and the
//! serving tier's accept-implies-reply guarantee must hold even when a
//! shard primary dies while the service is draining.

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::cluster::{Cluster, ClusterConfig};
use dio::copilot::CopilotBuilder;
use dio::llm::{FoundationModel, ModelProfile, SimulatedModel};
use dio::serve::{QueryRequest, QueryService, ServeConfig, ServeOutcome, TenantPolicy};
use std::sync::Arc;

fn model() -> Box<dyn FoundationModel> {
    Box::new(SimulatedModel::new(ModelProfile::gpt4_sim()))
}

/// Multiset comparison for vector answers: gathering may reorder
/// series relative to the single store's insertion order, which is
/// irrelevant to correctness.
fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v
}

#[test]
fn sharded_copilot_matches_single_node_answers() {
    let world = OperatorWorld::build(WorldConfig::small());
    let questions = dio::benchmark::generate_benchmark(&world, 12, 0xc1a5_7e12);
    let single = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(model())
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();

    for nodes in [2usize, 4] {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(nodes)));
        cluster.load_from(&world.store).expect("cluster load");
        let mut sharded = CopilotBuilder::new(world.domain_db(), world.store.clone())
            .model(model())
            .exemplars(fewshot_exemplars(&world.catalog))
            .build();
        sharded.attach_store_resolver(cluster.clone() as Arc<dyn dio::sandbox::StoreResolver>);

        for q in &questions {
            let a = single.ask(&q.text, world.eval_ts);
            let b = sharded.ask(&q.text, world.eval_ts);
            assert_eq!(a.query, b.query, "{nodes} shards changed the generated query");
            assert_eq!(
                a.numeric_answer, b.numeric_answer,
                "{nodes} shards changed the answer to {:?} (query {})",
                q.text, a.query
            );
            assert_eq!(
                sorted(a.values.clone()),
                sorted(b.values.clone()),
                "{nodes} shards changed the value set for {:?}",
                q.text
            );
        }
        // The resolver actually routed: every question touched it.
        let routed = cluster.registry().snapshot().total("dio_cluster_routes_total");
        assert!(routed > 0.0, "resolver was never consulted at {nodes} shards");
    }
}

#[test]
fn drain_during_failover_resolves_every_accepted_request() {
    let world = OperatorWorld::build(WorldConfig::small());
    let questions = dio::benchmark::generate_benchmark(&world, 8, 0x5ead_0f11);
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(3)));
    cluster.load_from(&world.store).expect("cluster load");
    let mut prototype = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(model())
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    prototype.attach_store_resolver(cluster.clone() as Arc<dyn dio::sandbox::StoreResolver>);

    let service = QueryService::spawn(
        &prototype,
        model,
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            tenant: TenantPolicy::unlimited(),
            ..ServeConfig::default()
        },
    );

    // Accept a burst, then kill a shard primary while requests are
    // still queued, then immediately drain. Every accepted ticket must
    // still resolve — with an answer (possibly via failover or the
    // degraded path) — and every refusal must be a counted shed.
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for (i, q) in questions.iter().cycle().take(24).enumerate() {
        match service.submit(QueryRequest::new(format!("tenant-{}", i % 3), &q.text, world.eval_ts)) {
            Ok(t) => tickets.push(t),
            Err(s) => {
                assert!(
                    dio::serve::ShedReason::all().contains(&s.reason),
                    "unclassified shed {:?}",
                    s.reason
                );
                shed += 1;
            }
        }
        if i == 8 {
            // Mid-burst: take down node 0 (primary of shard 0).
            assert!(cluster.kill_node(0), "node 0 was already down");
        }
    }
    let accepted = tickets.len() as u64;
    let registry = service.obs().registry().clone();
    service.shutdown(); // drain-not-drop
    let mut answered = 0u64;
    for t in tickets {
        match t.wait() {
            ServeOutcome::Answered(_) => answered += 1,
            ServeOutcome::Shed(s) => {
                assert!(
                    dio::serve::ShedReason::all().contains(&s.reason),
                    "accepted request resolved with unclassified shed {:?}",
                    s.reason
                );
            }
        }
    }
    assert!(answered > 0, "no accepted request produced an answer");
    // Accounting closes: accepted tickets all resolved (the loop above
    // returned), and submit-time refusals were all counted.
    let counted_shed = registry.snapshot().total("dio_serve_shed_total") as u64;
    assert!(
        counted_shed >= shed,
        "submit-time sheds uncounted: counter {counted_shed} < observed {shed}"
    );
    assert!(accepted + shed == 24, "tickets + sheds must cover the burst");
    // The kill was actually exercised: either a failover promoted the
    // replica, or every post-kill query rode the cache/degraded path —
    // in which case the node is still marked down.
    assert!(
        cluster.failovers() > 0 || cluster.down_nodes() == vec![0],
        "the drill lost track of the killed node"
    );
    // Restart: the node rejoins by replaying its durable WAL.
    let report = cluster.restart_node(0);
    assert!(report.recovered_copies > 0);
    assert!(cluster.down_nodes().is_empty());
}
