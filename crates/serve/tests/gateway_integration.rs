//! End-to-end tests of the query service spawned with the model-plane
//! gateway: cold-pass answer parity at one call per ask, singleflight
//! coalescing under concurrent duplicates, semantic serving of
//! punctuation paraphrases, and generation invalidation of the semantic
//! layer.

use dio_benchmark::{
    fewshot_exemplars, generate_benchmark, BenchmarkQuestion, OperatorWorld, WorldConfig,
};
use dio_copilot::{CopilotBuilder, DioCopilot};
use dio_feedback::Contribution;
use dio_llm::{
    Completion, CompletionRequest, FoundationModel, ModelError, ModelProfile, Pricing,
    SimulatedModel,
};
use dio_serve::{GatewayConfig, QueryRequest, QueryService, ServeConfig, TenantPolicy};
use std::sync::OnceLock;
use std::time::Duration;

struct Setup {
    world: OperatorWorld,
    questions: Vec<BenchmarkQuestion>,
}

fn setup() -> &'static Setup {
    static CELL: OnceLock<Setup> = OnceLock::new();
    CELL.get_or_init(|| {
        let world = OperatorWorld::build(WorldConfig::small());
        let questions = generate_benchmark(&world, 10, 0x6a7e_11ed);
        Setup { world, questions }
    })
}

fn upstream() -> Box<dyn FoundationModel> {
    Box::new(SimulatedModel::new(ModelProfile::gpt4_sim()))
}

fn prototype() -> DioCopilot {
    let s = setup();
    CopilotBuilder::new(s.world.domain_db(), s.world.store.clone())
        .model(Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())))
        .exemplars(fewshot_exemplars(&s.world.catalog))
        .build()
}

fn open_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_depth: 256,
        tenant: TenantPolicy::unlimited(),
        ..ServeConfig::default()
    }
}

/// A model that holds every completion for a fixed pause — long enough
/// that concurrent duplicates reliably overlap in flight.
struct SlowModel {
    inner: Box<dyn FoundationModel>,
    pause: Duration,
}

impl FoundationModel for SlowModel {
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
        std::thread::sleep(self.pause);
        self.inner.complete(request)
    }
}

#[test]
fn gateway_cold_pass_matches_the_sequential_pipeline() {
    let s = setup();
    let sequential = prototype();
    let expected: Vec<_> = s
        .questions
        .iter()
        .map(|q| sequential.ask(&q.text, s.world.eval_ts).numeric_answer)
        .collect();

    let service = QueryService::spawn_gateway(
        &prototype(),
        upstream(),
        open_config(4),
        GatewayConfig::default(),
    );
    let tickets: Vec<_> = s
        .questions
        .iter()
        .map(|q| {
            service
                .submit(QueryRequest::new("ops-a", &q.text, s.world.eval_ts))
                .expect("open config must admit")
        })
        .collect();
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let outcome = ticket.wait();
        let a = outcome.answer().expect("gateway pass answered");
        // Each prompt goes upstream as it is, so the answers match the
        // sequential pipeline exactly.
        assert_eq!(a.response.numeric_answer, *want);
    }
    let stats = service.gateway_stats().expect("gateway plane present");
    assert!(stats.ledger.queries() > 0, "gateway billed no model calls");
    service.shutdown();
}

#[test]
fn concurrent_duplicates_coalesce_onto_one_computation() {
    let s = setup();
    let question = &s.questions[0].text;
    let service = QueryService::spawn_gateway(
        &prototype(),
        Box::new(SlowModel {
            inner: upstream(),
            pause: Duration::from_millis(40),
        }),
        open_config(4),
        GatewayConfig::default(),
    );
    let tickets: Vec<_> = (0..8)
        .map(|i| {
            service
                .submit(QueryRequest::new(
                    format!("tenant-{i}"),
                    question,
                    s.world.eval_ts,
                ))
                .expect("admitted")
        })
        .collect();
    let answers: Vec<_> = tickets
        .into_iter()
        .map(|t| match t.wait() {
            dio_serve::ServeOutcome::Answered(a) => a,
            dio_serve::ServeOutcome::Shed(shed) => panic!("unexpected shed: {shed:?}"),
        })
        .collect();
    // Every duplicate observed the same answer…
    let first = &answers[0].response.numeric_answer;
    assert!(answers.iter().all(|a| a.response.numeric_answer == *first));
    // …and at most a couple of full pipeline runs happened: the rest
    // coalesced as followers or hit the answer cache the leader filled.
    let fresh = answers
        .iter()
        .filter(|a| !a.coalesced && !a.answer_cache_hit && !a.semantic_cache_hit)
        .count();
    assert!(fresh <= 2, "expected ≤2 fresh computations, got {fresh}");
    let stats = service.gateway_stats().unwrap();
    // With a 40ms-per-call upstream and 4 workers on 8 identical jobs,
    // the overlap guarantees real followers.
    assert!(
        stats.followers >= 1,
        "expected singleflight followers, got {stats:?}"
    );
    assert_eq!(stats.timeouts, 0);
    service.shutdown();
}

#[test]
fn punctuation_paraphrase_is_served_semantically() {
    let s = setup();
    let question = &s.questions[0].text;
    // Same content words, different normalized key: the exact caches
    // miss but the embedding is identical (cosine 1.0).
    let paraphrase = format!("{} ?", question.trim_end_matches('?'));
    assert_ne!(
        dio_serve::normalize_question(question),
        dio_serve::normalize_question(&paraphrase)
    );
    let service = QueryService::spawn_gateway(
        &prototype(),
        upstream(),
        open_config(2),
        GatewayConfig::default(),
    );
    let original = service
        .ask("t", question, s.world.eval_ts)
        .answer()
        .expect("original answered")
        .response
        .clone();
    let served = service.ask("t", &paraphrase, s.world.eval_ts);
    let a = served.answer().expect("paraphrase answered");
    assert!(
        a.semantic_cache_hit,
        "expected a semantic hit for {paraphrase:?}"
    );
    assert!(!a.answer_cache_hit);
    // A semantic hit serves the *neighbor's* answer verbatim.
    assert_eq!(a.response.numeric_answer, original.numeric_answer);
    assert_eq!(a.response.query, original.query);
    let stats = service.gateway_stats().unwrap();
    let sem = stats.semantic.expect("semantic layer enabled");
    assert_eq!(sem.hits, 1);
    service.shutdown();
}

#[test]
fn generation_bump_invalidates_the_semantic_layer() {
    let s = setup();
    let question = &s.questions[1].text;
    let paraphrase = format!("{} ?", question.trim_end_matches('?'));
    let proto = prototype();
    let service =
        QueryService::spawn_gateway(&proto, upstream(), open_config(2), GatewayConfig::default());
    let original = service.ask("t", question, s.world.eval_ts);
    let original = original.answer().expect("original answered");
    // A resolved issue publishes the next knowledge generation: what
    // invalidates the answer and embed caches must clear semantic
    // neighbors too.
    let issue = proto.request_expert_help(&original.response);
    let note = Contribution::Note {
        title: "update".into(),
        text: "An expert note on this question.".into(),
    };
    proto.resolve_issue(issue, "expert:bob", note).unwrap();
    let served = service.ask("t", &paraphrase, s.world.eval_ts);
    let a = served.answer().expect("paraphrase answered");
    assert!(
        !a.semantic_cache_hit,
        "stale-generation neighbor must not serve"
    );
    let stats = service.gateway_stats().unwrap();
    let sem = stats.semantic.expect("semantic layer enabled");
    assert_eq!(sem.hits, 0);
    assert!(sem.invalidations >= 1);
    service.shutdown();
}
