//! End-to-end tests of the query service spawned with the model-plane
//! gateway: cold-pass answer parity one call per ask and through the
//! batching front-end, a lone client never sitting out the batch delay, singleflight
//! coalescing under concurrent duplicates, semantic serving of
//! punctuation paraphrases, and generation invalidation of the semantic
//! layer.

use dio_benchmark::{
    fewshot_exemplars, generate_benchmark, BenchmarkQuestion, OperatorWorld, WorldConfig,
};
use dio_copilot::{CopilotBuilder, DioCopilot};
use dio_gateway::{BatchConfig, FlushTrigger};
use dio_llm::{
    BatchExpander, Completion, CompletionRequest, FoundationModel, ModelError, ModelProfile,
    Pricing, SimulatedModel,
};
use dio_serve::{GatewayConfig, QueryRequest, QueryService, ServeConfig, TenantPolicy};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

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
    Box::new(BatchExpander::new(SimulatedModel::new(
        ModelProfile::gpt4_sim(),
    )))
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

/// A batch delay long enough that sitting it out even once fails the
/// test that uses it: only a flush that did not wait for the timer
/// finishes in time.
const PATIENT_DELAY: Duration = Duration::from_secs(2);

/// A gateway that folds up to four calls into one, so a request may be
/// held for companions: the tests that use it are about when it is not.
fn batching_gateway(max_delay: Duration) -> GatewayConfig {
    GatewayConfig {
        batch: BatchConfig {
            max_batch: 4,
            max_delay,
            ..BatchConfig::default()
        },
        ..GatewayConfig::default()
    }
}

fn patient_gateway() -> GatewayConfig {
    batching_gateway(PATIENT_DELAY)
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

/// An upstream that parks whatever call reaches it until the test opens
/// it, and tells the test when a call has.
struct GatedModel {
    inner: Box<dyn FoundationModel>,
    gate: Arc<Gate>,
}

#[derive(Default)]
struct Gate {
    /// `(a call is parked, the gate is open)`.
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl FoundationModel for GatedModel {
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
        let mut state = self.gate.state.lock().unwrap();
        while !state.1 {
            state.0 = true;
            self.gate.changed.notify_all();
            state = self.gate.changed.wait(state).unwrap();
        }
        drop(state);
        self.inner.complete(request)
    }
}

#[test]
fn gateway_cold_pass_matches_the_sequential_pipeline() {
    let s = setup();
    let mut sequential = prototype();
    let expected: Vec<_> = s
        .questions
        .iter()
        .map(|q| sequential.ask(&q.text, s.world.eval_ts).numeric_answer)
        .collect();

    // One call per ask (the default), then prompts folded four to a call.
    for gateway in [
        GatewayConfig::default(),
        batching_gateway(BatchConfig::default().max_delay),
    ] {
        let service =
            QueryService::spawn_gateway(&prototype(), upstream(), open_config(4), gateway);
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
            // Batched prompts reconstruct byte-identically upstream, so
            // the answers match the unbatched sequential pipeline
            // exactly.
            assert_eq!(a.response.numeric_answer, *want, "{:?}", gateway.batch);
        }
        let stats = service.gateway_stats().expect("gateway plane present");
        assert!(stats.ledger.queries() > 0, "gateway billed no model calls");
        service.shutdown();
    }
}

#[test]
fn a_lone_client_never_waits_for_companions_that_cannot_come() {
    let s = setup();
    let mut sequential = prototype();
    let expected: Vec<_> = s
        .questions
        .iter()
        .map(|q| sequential.ask(&q.text, s.world.eval_ts).numeric_answer)
        .collect();

    // Four workers, one operator: three workers are idle, so nobody
    // can ever join the one ask's model call.
    let service =
        QueryService::spawn_gateway(&prototype(), upstream(), open_config(4), patient_gateway());
    let started = Instant::now();
    let got: Vec<_> = s
        .questions
        .iter()
        .map(|q| {
            let outcome = service.ask("ops-a", &q.text, s.world.eval_ts);
            outcome.answer().expect("answered").response.numeric_answer
        })
        .collect();
    let elapsed = started.elapsed();
    assert_eq!(got, expected);
    assert!(
        elapsed < PATIENT_DELAY,
        "ten sequential asks took {elapsed:?}: one of them sat out the batch delay"
    );
    let flushes = service.gateway_stats().unwrap().flush_log;
    assert!(!flushes.is_empty());
    for f in &flushes {
        assert_eq!((f.size, f.trigger), (1, FlushTrigger::Assembled), "{f:?}");
    }
    service.shutdown();
}

#[test]
fn a_worker_with_its_next_request_waiting_stays_counted_between_the_two() {
    let s = setup();
    let gate = Arc::new(Gate::default());
    let service = QueryService::spawn_gateway(
        &prototype(),
        Box::new(GatedModel {
            inner: upstream(),
            gate: gate.clone(),
        }),
        open_config(2),
        patient_gateway(),
    );
    let submit = |q: &BenchmarkQuestion| {
        service
            .submit(QueryRequest::new("ops-a", &q.text, s.world.eval_ts))
            .expect("admitted")
    };
    let started = Instant::now();
    // The first ask is alone, so its model call leaves at once — and
    // parks upstream, which keeps its worker busy while two more asks
    // arrive: one for the idle worker, one that has to wait its turn.
    let mut tickets = vec![submit(&s.questions[0])];
    {
        let mut state = gate.state.lock().unwrap();
        while !state.0 {
            state = gate.changed.wait(state).unwrap();
        }
    }
    tickets.push(submit(&s.questions[1]));
    tickets.push(submit(&s.questions[2]));
    // Not a hand-over: long enough for the second worker's model call
    // to be sitting in the gateway queue behind the parked flush.
    std::thread::sleep(Duration::from_millis(20));
    gate.state.lock().unwrap().1 = true;
    gate.changed.notify_all();
    for t in tickets {
        assert!(t.wait().answer().is_some());
    }
    // When the first worker finishes, its next ask is already waiting:
    // it is on its way back to the model, so the second worker's queued
    // call must wait for it and share a batch — not be released alone
    // into the gap between the two asks, and not sit out the delay.
    assert!(started.elapsed() < PATIENT_DELAY, "{:?}", started.elapsed());
    let flushes = service.gateway_stats().unwrap().flush_log;
    assert!(flushes.iter().any(|f| f.size == 2), "{flushes:?}");
    assert!(
        flushes.iter().all(|f| f.trigger == FlushTrigger::Assembled),
        "{flushes:?}"
    );
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
        patient_gateway(),
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
    // The followers are parked on the leader's flight, not on their way
    // to the model: the leader's call must not sit out the delay bound
    // waiting for them.
    assert!(
        stats
            .flush_log
            .iter()
            .all(|f| f.trigger != FlushTrigger::Due),
        "{:?}",
        stats.flush_log
    );
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
    let generation = proto.generation_handle();
    let service = QueryService::spawn_gateway(
        &proto,
        upstream(),
        open_config(2),
        GatewayConfig::default(),
    );
    service
        .ask("t", question, s.world.eval_ts)
        .answer()
        .expect("original answered");
    // Knowledge generation bump: the same atomic that invalidates the
    // answer and embed caches must clear semantic neighbors too.
    generation.fetch_add(1, Ordering::Release);
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
