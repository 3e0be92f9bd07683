//! Facade-level smoke test for the model-plane gateway: a burst of
//! near-duplicate questions flows through `dio::serve` +
//! `dio::gateway` and every duplicate class is served by the right
//! layer — exact repeats by the answer cache, concurrent identicals by
//! singleflight coalescing, punctuation paraphrases by the semantic
//! cache — with zero EX delta against the sequential pipeline.

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::copilot::CopilotBuilder;
use dio::llm::{
    Completion, CompletionRequest, FoundationModel, ModelError, ModelProfile, Pricing,
    SimulatedModel,
};
use dio::serve::{GatewayConfig, QueryRequest, QueryService, ServeConfig, TenantPolicy};
use std::time::Duration;

/// Upstream wrapper that pauses each completion long enough for
/// concurrent duplicates to overlap in flight (making singleflight
/// followers deterministic rather than scheduling-dependent).
struct SlowUpstream {
    inner: Box<dyn FoundationModel>,
    pause: Duration,
}

impl FoundationModel for SlowUpstream {
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
fn near_duplicates_are_coalesced_and_semantically_served() {
    let world = OperatorWorld::build(WorldConfig::small());
    let questions = dio::benchmark::generate_benchmark(&world, 6, 0x9a7e_2026);
    let prototype = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())))
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();

    // Ground truth: the sequential pipeline, without the gateway.
    let sequential = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())))
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    let expected: Vec<_> = questions
        .iter()
        .map(|q| sequential.ask(&q.text, world.eval_ts).numeric_answer)
        .collect();

    let service = QueryService::spawn_gateway(
        &prototype,
        Box::new(SlowUpstream {
            inner: Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())),
            pause: Duration::from_millis(30),
        }),
        ServeConfig {
            workers: 4,
            queue_depth: 128,
            tenant: TenantPolicy::unlimited(),
            ..ServeConfig::default()
        },
        GatewayConfig::default(),
    );

    // Cold burst: every unique question in flight at once; answers
    // must match the sequential pipeline exactly (EX delta 0).
    let tickets: Vec<_> = questions
        .iter()
        .map(|q| {
            service
                .submit(QueryRequest::new("noc", &q.text, world.eval_ts))
                .expect("open config must admit")
        })
        .collect();
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let a = ticket.wait().answer().expect("cold burst answered").clone();
        assert_eq!(
            a.response.numeric_answer, *want,
            "EX drift through the gateway"
        );
    }

    // Concurrent identical burst: 6 copies of one question on 4
    // workers with a 30ms upstream — the overlap guarantees real
    // singleflight followers and at most a couple of fresh runs.
    let dup = &questions[0].text;
    let dup_tickets: Vec<_> = (0..6)
        .map(|i| {
            service
                .submit(QueryRequest::new(
                    format!("tenant-{i}"),
                    format!("  {}  ", dup.to_uppercase()),
                    world.eval_ts,
                ))
                .expect("admitted")
        })
        .collect();
    for t in dup_tickets {
        let a = t.wait().answer().expect("duplicate answered").clone();
        assert_eq!(a.response.numeric_answer, expected[0]);
        // Served by a cheaper layer than a fresh pipeline run: the
        // answer cache (cold burst already cached the exact key) or
        // a coalesced follower — never a recompute.
        assert!(
            a.answer_cache_hit || a.coalesced,
            "duplicate recomputed the pipeline"
        );
    }

    // Punctuation paraphrase: misses both exact caches (different
    // normalized key) but embeds identically, so the semantic layer
    // serves the neighbor's answer verbatim.
    let paraphrase = format!("{} ?", questions[1].text.trim_end_matches('?'));
    assert_ne!(
        dio::serve::normalize_question(&questions[1].text),
        dio::serve::normalize_question(&paraphrase)
    );
    let a = service
        .ask("noc", &paraphrase, world.eval_ts)
        .answer()
        .expect("paraphrase answered")
        .clone();
    assert!(a.semantic_cache_hit, "paraphrase should serve semantically");
    assert_eq!(
        a.response.numeric_answer, expected[1],
        "EX drift via semantic hit"
    );

    let stats = service.gateway_stats().expect("gateway plane present");
    assert!(stats.ledger.queries() > 0, "gateway billed no model calls");
    assert_eq!(stats.timeouts, 0);
    let sem = stats.semantic.expect("semantic layer on by default");
    assert!(sem.hits >= 1);
    service.shutdown();
}
