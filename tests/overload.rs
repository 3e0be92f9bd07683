//! Facade-level overload drill: a 3x-capacity burst against an
//! 8-worker service backed by a 3-shard cluster. The
//! accept-implies-reply contract must survive the squeeze — every
//! submission either returns a counted shed at the door or a ticket
//! that resolves (answered, possibly degraded by the brownout
//! ladder, or explicitly shed), never a silent drop — and every
//! finished trace must assemble into a single rooted tree.

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::cluster::{Cluster, ClusterConfig};
use dio::copilot::CopilotBuilder;
use dio::llm::{
    Completion, CompletionRequest, FoundationModel, ModelError, ModelProfile, Pricing,
    SimulatedModel,
};
use dio::sandbox::StoreResolver;
use dio::serve::{
    QueryRequest, QueryService, ServeConfig, ServeOutcome, ShedReason, TenantPolicy,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn model() -> Box<dyn FoundationModel> {
    Box::new(SimulatedModel::new(ModelProfile::gpt4_sim()))
}

/// Open once, and every call waiting on it proceeds.
type Gate = Arc<(Mutex<bool>, Condvar)>;

/// The simulated model, each call held until the gate opens: a worker
/// that picks a job up stays on it, so a burst submitted before the
/// gate opens overflows the queue however fast the workers are.
struct Gated {
    inner: Box<dyn FoundationModel>,
    gate: Gate,
}

impl FoundationModel for Gated {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn pricing(&self) -> Pricing {
        self.inner.pricing()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<Completion, ModelError> {
        let (open, opened) = &*self.gate;
        drop(opened.wait_while(open.lock().unwrap(), |open| !*open).unwrap());
        self.inner.complete(request)
    }
}

#[test]
fn burst_at_3x_capacity_through_a_sharded_cluster_loses_nothing() {
    let world = OperatorWorld::build(WorldConfig::small());
    let questions = dio::benchmark::generate_benchmark(&world, 10, 0x0f_f10ad);
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(3)));
    cluster.load_from(&world.store).expect("cluster load");

    let mut prototype = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(model())
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    prototype.attach_store_resolver(cluster.clone() as Arc<dyn StoreResolver>);

    let gate: Gate = Arc::default();
    let service = QueryService::spawn(
        &prototype,
        || {
            Box::new(Gated {
                inner: model(),
                gate: Arc::clone(&gate),
            })
        },
        ServeConfig {
            workers: 8,
            queue_depth: 16,
            tenant: TenantPolicy::unlimited(),
            ..ServeConfig::default()
        },
    );

    // 3x the queue capacity in one burst, plus a handful of
    // zero-budget stragglers that must expire rather than vanish.
    let burst = 3 * service.config().queue_depth;
    let mut tickets = Vec::new();
    let mut shed_sync = 0usize;
    for (i, q) in questions.iter().cycle().take(burst).enumerate() {
        let req = QueryRequest::new(format!("tenant-{}", i % 4), &q.text, world.eval_ts);
        match service.submit(req) {
            Ok(t) => tickets.push(t),
            Err(shed) => {
                assert!(
                    ShedReason::all().contains(&shed.reason),
                    "unclassified shed {:?}",
                    shed.reason
                );
                assert!(
                    shed.retry_after > Duration::ZERO,
                    "refusals must carry a retry hint"
                );
                shed_sync += 1;
            }
        }
    }
    let mut expired_tickets = 0usize;
    for q in questions.iter().take(4) {
        let req = QueryRequest::new("straggler", &q.text, world.eval_ts);
        match service.submit_with_deadline(req, Duration::ZERO) {
            Ok(t) => {
                tickets.push(t);
                expired_tickets += 1;
            }
            Err(_) => shed_sync += 1,
        }
    }
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    let accepted = tickets.len();
    assert_eq!(accepted + shed_sync, burst + 4, "a submission went missing");
    assert!(shed_sync > 0, "a 3x-capacity burst must overload the queue");

    // Every accepted ticket resolves: answered or an explicit,
    // classified shed. A severed reply channel would surface as
    // WorkerPanic here and fail the drill.
    let tracer = service.obs().tracer().clone();
    let mut answered = 0usize;
    let mut shed_late = 0usize;
    for t in tickets {
        match t.wait() {
            ServeOutcome::Answered(_) => answered += 1,
            ServeOutcome::Shed(shed) => {
                assert_ne!(
                    shed.reason,
                    ShedReason::WorkerPanic,
                    "a worker died serving the burst"
                );
                assert!(ShedReason::all().contains(&shed.reason));
                shed_late += 1;
            }
        }
    }
    assert_eq!(answered + shed_late, accepted, "an accepted ticket was lost");
    assert!(answered > 0, "the burst produced no answers at all");
    assert!(
        shed_late >= expired_tickets,
        "zero-budget stragglers must resolve as expired"
    );
    service.shutdown();

    // Each submission finished exactly one trace, and every finished
    // trace assembles into a single rooted tree — no orphan spans even
    // for requests that expired in the queue or were refused at the
    // door.
    let finished: Vec<_> = tracer
        .recent(2 * (burst + 4))
        .into_iter()
        .filter(|t| t.finished)
        .collect();
    assert_eq!(
        finished.len(),
        accepted + shed_sync,
        "each submission must finish exactly one trace"
    );
    let orphans: usize = finished.iter().map(|t| t.orphan_count()).sum();
    assert_eq!(orphans, 0, "overload left orphan spans behind");
}
