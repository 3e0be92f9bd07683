//! End-to-end tests of the query service over a small operator world:
//! concurrency parity with the sequential pipeline, warm-cache
//! behaviour, generation invalidation, fair-share throttling, and the
//! overload/shutdown guarantees (shed explicitly, never drop).

use dio_benchmark::{fewshot_exemplars, generate_benchmark, BenchmarkQuestion, OperatorWorld, WorldConfig};
use dio_copilot::{CopilotBuilder, DioCopilot};
use dio_llm::{FoundationModel, ModelProfile, SimulatedModel};
use dio_serve::{
    QueryRequest, QueryService, ServeConfig, ServeOutcome, ShedReason, TenantPolicy,
};
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
        let questions = generate_benchmark(&world, 12, 0xbe9c_4a11);
        Setup { world, questions }
    })
}

fn model() -> Box<dyn FoundationModel> {
    Box::new(SimulatedModel::new(ModelProfile::gpt4_sim()))
}

fn prototype() -> DioCopilot {
    let s = setup();
    CopilotBuilder::new(s.world.domain_db(), s.world.store.clone())
        .model(model())
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

#[test]
fn concurrent_answers_match_sequential_pipeline() {
    let s = setup();
    let mut sequential = prototype();
    let expected: Vec<_> = s
        .questions
        .iter()
        .map(|q| sequential.ask(&q.text, s.world.eval_ts).numeric_answer)
        .collect();

    let service = QueryService::spawn(&prototype(), || model(), open_config(4));
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
        match ticket.wait() {
            ServeOutcome::Answered(a) => assert_eq!(a.response.numeric_answer, *want),
            ServeOutcome::Shed(s) => panic!("unexpected shed: {s:?}"),
        }
    }
    service.shutdown();
}

#[test]
fn warm_pass_is_served_from_the_answer_cache() {
    let s = setup();
    let service = QueryService::spawn(&prototype(), || model(), open_config(2));
    for q in &s.questions {
        assert!(service.ask("t", &q.text, s.world.eval_ts).answer().is_some());
    }
    let cold = service.answer_cache_stats();
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.misses as usize, s.questions.len());

    // Second pass: same questions, messier phrasing — all hits.
    for q in &s.questions {
        let noisy = format!("  {}  ", q.text.to_uppercase());
        let out = service.ask("t", &noisy, s.world.eval_ts);
        let a = out.answer().expect("warm pass answered");
        assert!(a.answer_cache_hit, "expected cache hit for {noisy:?}");
    }
    let warm = service.answer_cache_stats();
    assert_eq!(warm.hits as usize, s.questions.len());
    // The embedding cache only sees answer-cache misses: one per
    // unique question from the cold pass.
    assert_eq!(service.embed_cache_stats().misses as usize, s.questions.len());
    service.shutdown();
}

#[test]
fn knowledge_generation_bump_invalidates_caches() {
    let s = setup();
    let proto = prototype();
    let generation = proto.generation_handle();
    let service = QueryService::spawn(&proto, || model(), open_config(2));
    let q = &s.questions[0].text;

    assert!(service.ask("t", q, s.world.eval_ts).answer().is_some());
    let first = service.ask("t", q, s.world.eval_ts);
    assert!(first.answer().unwrap().answer_cache_hit);

    // A feedback-loop catalog update bumps the shared generation …
    generation.fetch_add(1, std::sync::atomic::Ordering::AcqRel);

    // … so the next lookup must re-run the pipeline, not serve stale.
    let after = service.ask("t", q, s.world.eval_ts);
    assert!(!after.answer().unwrap().answer_cache_hit);
    assert!(service.answer_cache_stats().invalidations >= 1);
    service.shutdown();
}

#[test]
fn tenant_throttling_is_isolated_per_tenant() {
    let s = setup();
    let mut config = open_config(1);
    config.tenant = TenantPolicy {
        rate_per_sec: 0.001, // effectively no refill during the test
        burst: 2.0,
    };
    let service = QueryService::spawn(&prototype(), || model(), config);
    let q = &s.questions[0].text;

    let mut throttled = 0;
    let mut tickets = Vec::new();
    for _ in 0..5 {
        match service.submit(QueryRequest::new("noisy", q, s.world.eval_ts)) {
            Ok(t) => tickets.push(t),
            Err(shed) => {
                assert_eq!(shed.reason, ShedReason::TenantThrottle);
                assert!(shed.retry_after > Duration::ZERO);
                throttled += 1;
            }
        }
    }
    assert_eq!(tickets.len(), 2, "burst admits exactly two");
    assert_eq!(throttled, 3);

    // A different tenant is unaffected by the noisy one.
    assert!(service
        .submit(QueryRequest::new("quiet", q, s.world.eval_ts))
        .is_ok());
    for t in tickets {
        assert!(t.wait().answer().is_some());
    }
    service.shutdown();
}

#[test]
fn undersized_queue_sheds_overload_without_dropping_accepted_requests() {
    let s = setup();
    let config = ServeConfig {
        workers: 1,
        queue_depth: 2,
        tenant: TenantPolicy::unlimited(),
        ..ServeConfig::default()
    };
    let service = QueryService::spawn(&prototype(), || model(), config);

    let total = 30;
    let mut tickets = Vec::new();
    let mut shed_sync = 0;
    for i in 0..total {
        let q = &s.questions[i % s.questions.len()].text;
        match service.submit(QueryRequest::new("burst", q, s.world.eval_ts)) {
            Ok(t) => tickets.push(t),
            Err(shed) => {
                assert_eq!(shed.reason, ShedReason::QueueFull);
                shed_sync += 1;
            }
        }
    }
    assert!(shed_sync > 0, "a 2-deep queue must shed a 30-burst");
    assert_eq!(service.shed_count(), shed_sync);

    // Every accepted request resolves — answered or explicitly shed,
    // never silently dropped.
    let mut answered = 0;
    for t in tickets {
        match t.wait() {
            ServeOutcome::Answered(_) => answered += 1,
            ServeOutcome::Shed(s) => panic!("accepted request shed: {s:?}"),
        }
    }
    assert_eq!(answered + shed_sync as usize, total);

    // The sheds are visible in the shared registry under the reason
    // label the dashboards alert on.
    let snap = service.obs().registry().snapshot();
    assert_eq!(snap.total("dio_serve_shed_total") as u64, shed_sync);
    service.shutdown();
}

#[test]
fn queue_refusal_hint_grows_under_load() {
    let s = setup();
    let config = ServeConfig {
        workers: 1,
        queue_depth: 2,
        tenant: TenantPolicy::unlimited(),
        ..ServeConfig::default()
    };
    let service = QueryService::spawn(&prototype(), || model(), config);
    let mut tickets = Vec::new();
    let mut worst_hint = Duration::ZERO;
    for i in 0..30 {
        let q = &s.questions[i % s.questions.len()].text;
        match service.submit(QueryRequest::new("burst", q, s.world.eval_ts)) {
            Ok(t) => tickets.push(t),
            Err(shed) => worst_hint = worst_hint.max(shed.retry_after),
        }
    }
    // The hint is derived from the backlog, not a constant: with the
    // 2-deep queue full it must exceed the empty-queue base (10ms).
    assert!(
        worst_hint > Duration::from_millis(10),
        "queue-full retry_after must grow with the backlog, got {worst_hint:?}"
    );
    for t in tickets {
        assert!(t.wait().answer().is_some());
    }
    service.shutdown();
}

#[test]
fn sustained_overload_engages_the_brownout_ladder() {
    let s = setup();
    let config = ServeConfig {
        workers: 1,
        queue_depth: 4,
        tenant: TenantPolicy::unlimited(),
        ..ServeConfig::default()
    };
    let gate = std::sync::Arc::new(Gate::default());
    let service = QueryService::spawn(
        &prototype(),
        || Box::new(Scripted::new(&gate, &Default::default())),
        config,
    );
    // Every request parks the one worker inside its model call, so the
    // test — not a race against the worker — decides what each pickup
    // finds: while the worker is parked the queue is topped up to its
    // 4, then the call is let go, so every pickup leaves 3 of 4 behind
    // it. That is sustained pressure; the ladder must step within a
    // few pickups (the bound only keeps a broken ladder from hanging
    // the test).
    let mut tickets = Vec::new();
    let mut submit_held = || {
        let q = &s.questions[tickets.len() % s.questions.len()].text;
        let req = QueryRequest::new("burst", format!("{q} [hold]"), s.world.eval_ts);
        tickets.push(service.submit(req).expect("room in the queue"));
    };
    submit_held();
    for parked in 1..=64 {
        gate.await_parked(parked);
        if service.brownout_level() != dio_serve::BrownoutLevel::Normal {
            break;
        }
        while service.queue_len() < 4 {
            submit_held();
        }
        gate.release(parked);
    }
    gate.release(usize::MAX);
    for t in tickets {
        // Accepted requests still resolve — degraded under brownout,
        // never lost.
        assert!(t.wait().answer().is_some());
    }
    let snap = service.obs().registry().snapshot();
    assert!(
        snap.total("dio_serve_brownout_transitions_total") >= 1.0,
        "sustained saturation must step the ladder at least once"
    );
    service.shutdown();
}

#[test]
fn shed_rung_refuses_only_while_a_backlog_exists() {
    let s = setup();
    // A ladder that descends on every pickup: queue_high 0.0 makes
    // every observation pressured, so four pickups latch the top rung.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 4,
        tenant: TenantPolicy::unlimited(),
        brownout: dio_serve::BrownoutConfig {
            queue_high: 0.0,
            step_up_after: 1,
            ..dio_serve::BrownoutConfig::default()
        },
        ..ServeConfig::default()
    };
    let service = QueryService::spawn(&prototype(), || model(), config);

    // Enough accepted work to walk the ladder to Shed.
    let mut tickets = Vec::new();
    while tickets.len() < 8 {
        let q = &s.questions[tickets.len() % s.questions.len()].text;
        if let Ok(t) = service.submit(QueryRequest::new("burst", q, s.world.eval_ts)) {
            tickets.push(t);
        }
    }
    for t in tickets {
        assert!(t.wait().answer().is_some());
    }
    assert_eq!(
        service.brownout_level(),
        dio_serve::BrownoutLevel::Shed,
        "every-pickup escalation must reach the top rung"
    );

    // The backlog has fully drained (every ticket above resolved), so
    // the Shed rung must not latch the service shut: the next arrival
    // is admitted — it is what hands the controller its recovery
    // observations — and is served, if degraded.
    let q = &s.questions[0].text;
    let out = service.ask("after-drain", q, s.world.eval_ts);
    assert!(
        out.answer().is_some(),
        "an empty-queue service refused work at the Shed rung: {out:?}"
    );
    service.shutdown();
}

#[test]
fn zero_budget_requests_are_shed_as_expired_not_dropped() {
    let s = setup();
    let service = QueryService::spawn(&prototype(), || model(), open_config(1));
    let q = &s.questions[0].text;
    let ticket = service
        .submit_with_deadline(
            QueryRequest::new("t", q, s.world.eval_ts),
            Duration::ZERO,
        )
        .expect("zero budget is admitted, then expires in queue");
    match ticket.wait() {
        ServeOutcome::Shed(shed) => assert_eq!(shed.reason, ShedReason::DeadlineExpired),
        ServeOutcome::Answered(_) => {
            // Tolerated only if the worker dequeued it in the same
            // instant it was submitted — impossible with Duration::ZERO
            // since picked_up >= submitted == deadline.
            panic!("zero-budget request must expire");
        }
    }
    service.shutdown();
}

#[test]
fn shutdown_drains_accepted_requests() {
    let s = setup();
    let service = QueryService::spawn(&prototype(), || model(), open_config(1));
    let tickets: Vec<_> = s.questions[..4]
        .iter()
        .map(|q| {
            service
                .submit(QueryRequest::new("t", &q.text, s.world.eval_ts))
                .unwrap()
        })
        .collect();
    service.shutdown();
    for t in tickets {
        assert!(
            t.wait().answer().is_some(),
            "shutdown must drain accepted requests"
        );
    }
}

/// The GPT-4 simulation with three scripted behaviours, keyed on a
/// marker in the question: `[hold]` parks the call until the test lets
/// it through the gate, `[panic]` panics inside the model call, and
/// `[arm]` makes the model's *next* window lookup panic — the one part
/// of the model an ask still touches once the brownout ladder has
/// switched the model off.
struct Scripted {
    inner: SimulatedModel,
    gate: std::sync::Arc<Gate>,
    armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl Scripted {
    fn new(
        gate: &std::sync::Arc<Gate>,
        armed: &std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> Self {
        Scripted {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            gate: gate.clone(),
            armed: armed.clone(),
        }
    }
}

/// Where `[hold]` calls park. Both counters only grow, so the test and
/// the worker hand over to each other without sleeping or racing.
#[derive(Default)]
struct Gate {
    /// `(calls that have parked, calls let through)`: the n-th call to
    /// park proceeds once n have been let through.
    state: std::sync::Mutex<(usize, usize)>,
    changed: std::sync::Condvar,
}

impl Gate {
    /// Park the calling `[hold]` call until it is let through.
    fn park(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        let mine = state.0;
        self.changed.notify_all();
        while state.1 < mine {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// Block until `n` calls have parked.
    fn await_parked(&self, n: usize) {
        let mut state = self.state.lock().unwrap();
        while state.0 < n {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// Let the first `n` calls to park through (`usize::MAX`: all,
    /// including those yet to come).
    fn release(&self, n: usize) {
        self.state.lock().unwrap().1 = n;
        self.changed.notify_all();
    }
}

impl FoundationModel for Scripted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn context_window(&self) -> usize {
        if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            panic!("scripted panic in the window lookup");
        }
        self.inner.context_window()
    }
    fn pricing(&self) -> dio_llm::Pricing {
        self.inner.pricing()
    }
    fn complete(
        &self,
        request: &dio_llm::CompletionRequest,
    ) -> Result<dio_llm::Completion, dio_llm::ModelError> {
        let text = &request.prompt.text;
        if text.contains("[hold]") {
            self.gate.park();
        }
        if text.contains("[panic]") {
            panic!("scripted panic in the model call");
        }
        if text.contains("[arm]") {
            self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
        }
        self.inner.complete(request)
    }
}

/// Observations in the retrieval-similarity histogram: one per
/// retrieved context sample.
fn retrieved_samples(service: &QueryService) -> u64 {
    let snap = service.obs().registry().snapshot();
    let family = snap.family(dio_copilot::obs::SIMILARITY_NAME).unwrap();
    family
        .series
        .iter()
        .map(|s| match &s.value {
            dio_obs::SeriesValue::Histogram(h) => h.count,
            _ => 0,
        })
        .sum()
}

#[test]
fn worker_that_panicked_while_browned_out_serves_the_next_normal_request_at_full_fidelity() {
    use dio_serve::{BrownoutConfig, BrownoutLevel};
    let s = setup();
    let ts = s.world.eval_ts;
    // One worker, and a ladder that steps down a rung on every pickup
    // that leaves a backlog behind it and back up on every pickup that
    // leaves none.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 64,
        tenant: TenantPolicy::unlimited(),
        answer_cache_capacity: 0,
        brownout: BrownoutConfig {
            queue_high: 0.001,
            queue_low: 0.0,
            step_up_after: 1,
            step_down_after: 1,
            ..BrownoutConfig::default()
        },
        ..ServeConfig::default()
    };
    let gate = std::sync::Arc::new(Gate::default());
    let armed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let service = QueryService::spawn(
        &prototype(),
        || Box::new(Scripted::new(&gate, &armed)),
        config,
    );
    let submit = |q: &str| {
        service
            .submit(QueryRequest::new("t", q, ts))
            .expect("admitted")
    };

    // Park the worker inside a model call, queue four requests behind
    // it, then let it go: the three pickups that leave a backlog walk
    // the ladder ReducedRetrieval → NoRepair → CacheOnly.
    let held = submit(&format!("{} [hold]", s.questions[0].text));
    gate.await_parked(1);
    let panics_in_call = submit(&format!("{} [panic]", s.questions[1].text));
    let arms = submit(&format!("{} [arm]", s.questions[2].text));
    let panics_model_off = submit(&s.questions[3].text);
    let trailer = submit(&s.questions[4].text);
    gate.release(usize::MAX);

    assert!(held.wait().answer().is_some());
    // ReducedRetrieval: the pipeline panics inside the model call.
    assert_eq!(
        panics_in_call.wait().shed().map(|s| s.reason),
        Some(ShedReason::WorkerPanic)
    );
    assert!(arms.wait().answer().is_some());
    // CacheOnly: the model is off, the pipeline panics all the same.
    assert_eq!(
        panics_model_off.wait().shed().map(|s| s.reason),
        Some(ShedReason::WorkerPanic)
    );
    assert!(trailer.wait().answer().is_some());

    // Every pickup from the trailer on found an empty queue; two more
    // bring the ladder home.
    for q in &s.questions[5..7] {
        assert!(service.ask("t", &q.text, ts).answer().is_some());
    }
    assert_eq!(service.brownout_level(), BrownoutLevel::Normal);

    // The same worker, at the Normal rung, against a service that
    // never saw pressure or a panic.
    let fresh = QueryService::spawn(&prototype(), || model(), open_config(1));
    let probe = &s.questions[7].text;
    let answer_and_context = |service: &QueryService| {
        let before = retrieved_samples(service);
        let outcome = service.ask("t", probe, ts);
        let response = outcome.answer().expect("answered").response.clone();
        (response, retrieved_samples(service) - before)
    };
    let (got, got_context) = answer_and_context(&service);
    let (want, want_context) = answer_and_context(&fresh);
    assert_eq!(service.brownout_level(), BrownoutLevel::Normal);
    assert_eq!(got.degradation, want.degradation);
    assert_eq!(got.error, want.error);
    assert_eq!(got.query, want.query);
    assert_eq!(got.numeric_answer, want.numeric_answer);
    assert_eq!(got.values, want.values);
    assert_eq!(got.usage, want.usage);
    assert_eq!(got_context, want_context);
    service.shutdown();
    fresh.shutdown();
}
