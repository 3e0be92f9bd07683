//! Property-based tests on the core substrates: the PromQL pipeline
//! never panics on arbitrary input, the printer round-trips what the
//! parser accepts, label algebra is lawful, matchers agree with a
//! reference implementation, the synthesiser preserves counter
//! monotonicity for arbitrary parameters, and the copilot survives
//! arbitrary fault schedules injected into its foundation model.

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::copilot::{CopilotBuilder, DegradationLevel, DioCopilot, RecoveryPolicy};
use dio::llm::{FaultConfig, FaultyModel, ModelProfile, SimulatedModel};
use dio::promql::{format_expr, parse};
use dio::tsdb::{Labels, MetricStore, Sample, SeriesSpec, SynthConfig, Synthesizer};
use proptest::prelude::*;
use std::sync::OnceLock;

proptest! {
    /// The lexer+parser must never panic, whatever bytes arrive.
    #[test]
    fn parser_never_panics(input in ".{0,120}") {
        let _ = parse(&input);
    }

    /// Whatever parses must format to something that re-parses to the
    /// identical AST (printer/parser round trip).
    #[test]
    fn printer_round_trips(input in ".{0,80}") {
        if let Ok(ast) = parse(&input) {
            let printed = format_expr(&ast);
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("printed form {printed:?} failed to parse: {e}"));
            prop_assert_eq!(ast, reparsed);
        }
    }

    /// A grammar of well-formed queries always parses and round-trips.
    #[test]
    fn generated_queries_round_trip(
        metric in "[a-z][a-z0-9_]{0,30}",
        label in "[a-z][a-z0-9_]{0,10}",
        value in "[a-z0-9.*+-]{0,12}",
        minutes in 1i64..600,
        agg in prop::sample::select(vec!["sum", "avg", "min", "max", "count"]),
        func in prop::sample::select(vec!["rate", "increase", "delta", "avg_over_time"]),
    ) {
        let q = format!(
            "{agg}({func}({metric}{{{label}=\"{value}\"}}[{minutes}m]))"
        );
        let ast = parse(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let printed = format_expr(&ast);
        prop_assert_eq!(ast, parse(&printed).unwrap());
    }

    /// Pattern matching agrees with a simple backtracking reference for
    /// patterns made of literals and `.*`.
    #[test]
    fn pattern_match_agrees_with_reference(
        parts in prop::collection::vec("[a-z]{0,4}", 1..4),
        text in "[a-z]{0,12}",
    ) {
        let pattern = parts.join(".*");
        let ours = dio::tsdb::pattern_match(&pattern, &text);
        // Reference: convert to a simple anchored regex-free matcher.
        let reference = reference_match(&parts, &text);
        prop_assert_eq!(ours, reference, "pattern {} text {}", pattern, text);
    }

    /// Labels `with` is idempotent on distinct keys and `without`
    /// removes; a colliding key takes the latest value.
    #[test]
    fn labels_algebra(
        k1 in "[a-z]{1,6}", v1 in "[a-z0-9]{0,6}",
        k2 in "[a-z]{1,6}", v2 in "[a-z0-9]{0,6}",
    ) {
        let l = Labels::empty().with(k1.clone(), v1.clone()).with(k2.clone(), v2.clone());
        // Last write wins, including when k1 == k2.
        prop_assert_eq!(l.get(&k2), Some(v2.as_str()));
        if k1 != k2 {
            prop_assert_eq!(l.get(&k1), Some(v1.as_str()));
            // Re-setting an existing pair is a no-op.
            let l2 = l.with(k1.clone(), v1.clone());
            prop_assert_eq!(l.signature(), l2.signature());
        }
        let l3 = l.without(&k1);
        prop_assert_eq!(l3.get(&k1), None);
    }

    /// Synthesised counters are monotone non-decreasing for any
    /// parameters, and coupled derivations never exceed their base.
    #[test]
    fn synthesized_counters_are_monotone(
        rate in 0.01f64..100.0,
        seed in any::<u64>(),
        ratio in 0.01f64..1.0,
        steps in 2i64..50,
    ) {
        let cfg = SynthConfig { start_ms: 0, end_ms: steps * 60_000, step_ms: 60_000 };
        let synth = Synthesizer::new(cfg);
        let base = SeriesSpec::counter(Labels::name_only("a"), rate, seed);
        let derived = base.derived(Labels::name_only("s"), ratio);
        let sa = synth.synthesize(&base);
        let ss = synth.synthesize(&derived);
        for w in sa.windows(2) {
            prop_assert!(w[1].value >= w[0].value);
        }
        for (a, s) in sa.iter().zip(ss.iter()) {
            prop_assert!(s.value <= a.value + 1e-9);
        }
    }

    /// Instant queries over arbitrary small stores never panic and
    /// `sum` equals the sum of per-series lookups.
    #[test]
    fn engine_sum_matches_manual_sum(
        values in prop::collection::vec(0.0f64..1e6, 1..6),
    ) {
        let mut store = MetricStore::new();
        for (i, v) in values.iter().enumerate() {
            let labels = Labels::from_pairs([
                ("__name__", "m"),
                ("instance", &format!("i{i}")),
            ]);
            store.append(labels, Sample::new(1000, *v)).unwrap();
        }
        let engine = dio::promql::Engine::new(store);
        let got = engine.instant_query("sum(m)", 1000).unwrap().as_scalar_like().unwrap();
        let expected: f64 = values.iter().sum();
        prop_assert!((got - expected).abs() < 1e-6);
    }

    /// Token counting is monotone under concatenation.
    #[test]
    fn token_count_superadditive_under_concat(a in ".{0,40}", b in ".{0,40}") {
        let joined = format!("{a} {b}");
        let sum = dio::llm::count_tokens(&a) + dio::llm::count_tokens(&b);
        prop_assert!(dio::llm::count_tokens(&joined) <= sum + 1);
        prop_assert!(dio::llm::count_tokens(&joined) + 1 >= sum.max(1));
    }
}

/// Shared world for the fault-schedule property (building the world
/// and embedding its catalog are the expensive parts).
fn fault_world() -> &'static OperatorWorld {
    static WORLD: OnceLock<OperatorWorld> = OnceLock::new();
    WORLD.get_or_init(|| OperatorWorld::build(WorldConfig::small()))
}

thread_local! {
    /// One copilot per test thread; cases swap the model and recovery
    /// policy instead of re-embedding the catalog 64 times.
    static FAULT_COPILOT: std::cell::RefCell<Option<DioCopilot>> =
        const { std::cell::RefCell::new(None) };
}

/// Run `f` against the shared copilot, re-armed with a fresh fault
/// schedule and recovery policy.
fn with_faulty_copilot<T>(
    seed: u64,
    probability: f64,
    recovery: RecoveryPolicy,
    f: impl FnOnce(&mut DioCopilot) -> T,
) -> T {
    FAULT_COPILOT.with(|cell| {
        let mut slot = cell.borrow_mut();
        let copilot = slot.get_or_insert_with(|| {
            let world = fault_world();
            CopilotBuilder::new(world.domain_db(), world.store.clone())
                .exemplars(fewshot_exemplars(&world.catalog))
                .build()
        });
        copilot.replace_model(Box::new(FaultyModel::new(
            SimulatedModel::new(ModelProfile::gpt4_sim()),
            FaultConfig::with_probability(seed, probability),
        )));
        copilot.set_recovery(recovery);
        f(copilot)
    })
}

proptest! {
    /// Whatever the fault schedule — any seed, any per-call fault
    /// probability, recovery on or off — `ask` must not panic and must
    /// return a well-formed, internally consistent response.
    #[test]
    fn ask_survives_arbitrary_fault_schedules(
        seed in any::<u64>(),
        probability in 0.0f64..1.0,
        recovery_on in any::<bool>(),
    ) {
        // Include the total-outage extreme, which a half-open range
        // never draws.
        let probability = if seed % 7 == 0 { 1.0 } else { probability };
        let policy = if recovery_on {
            RecoveryPolicy::default()
        } else {
            RecoveryPolicy::disabled()
        };
        let questions = [
            "How many initial registration attempts were recorded at the AMF?",
            "What is the paging success rate?",
        ];
        let responses = with_faulty_copilot(seed, probability, policy.clone(), |copilot| {
            questions.map(|q| copilot.ask(q, fault_world().eval_ts))
        });
        for (q, r) in questions.iter().zip(responses) {
            // Well-formed: an empty query is only acceptable alongside
            // a classified error explaining why nothing ran.
            prop_assert!(!r.query.is_empty() || r.error.is_some());
            // Degradation bookkeeping is consistent in both directions,
            // and a degraded answer always carries its cause.
            prop_assert_eq!(
                r.degradation == DegradationLevel::Degraded,
                r.trace.recovery.degraded
            );
            if r.degradation == DegradationLevel::Degraded {
                prop_assert!(r.error.is_some());
            }
            // Recovery accounting respects the policy bounds.
            prop_assert!(r.trace.recovery.repairs <= policy.max_repair_rounds);
            prop_assert_eq!(
                r.trace.recovery.backoff_schedule_ms.len(),
                r.trace.recovery.retries
            );
            // Cost accounting stays sane even when calls fail midway.
            prop_assert!(r.cost_cents.is_finite() && r.cost_cents >= 0.0);
            // The trace recorded the pipeline stages.
            prop_assert!(r.trace.stages.len() >= 3);
            // Rendering never panics and always echoes the question.
            prop_assert!(r.render().contains(q));
        }
    }

    /// A zero-probability fault wrapper is a transparent proxy
    /// whatever its seed: the wrapped copilot answers exactly like the
    /// bare one.
    #[test]
    fn zero_probability_faults_are_transparent(seed in any::<u64>()) {
        let q = "How many initial registration attempts were recorded at the AMF?";
        // The bare-model reference answer, computed once.
        static PLAIN: OnceLock<(String, Option<f64>, dio::llm::TokenUsage)> = OnceLock::new();
        let (query, numeric, usage) = PLAIN.get_or_init(|| {
            let r = with_faulty_copilot(0, 0.0, RecoveryPolicy::default(), |copilot| {
                copilot.replace_model(Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())));
                copilot.ask(q, fault_world().eval_ts)
            });
            (r.query, r.numeric_answer, r.usage)
        }).clone();
        let b = with_faulty_copilot(seed, 0.0, RecoveryPolicy::default(), |copilot| {
            copilot.ask(q, fault_world().eval_ts)
        });
        prop_assert_eq!(query, b.query);
        prop_assert_eq!(numeric, b.numeric_answer);
        prop_assert_eq!(usage, b.usage);
    }
}

/// Reference matcher for `parts.join(".*")` patterns.
fn reference_match(parts: &[String], text: &str) -> bool {
    if parts.len() == 1 {
        return parts[0] == text;
    }
    let mut pos = 0usize;
    // First part anchors at the start.
    if !text[pos..].starts_with(parts[0].as_str()) {
        return false;
    }
    pos += parts[0].len();
    // Middle parts: greedy-left search.
    for part in &parts[1..parts.len() - 1] {
        match text[pos..].find(part.as_str()) {
            Some(i) => pos += i + part.len(),
            None => return false,
        }
    }
    // Last part anchors at the end.
    let last = &parts[parts.len() - 1];
    text.len() >= pos + last.len() && text.ends_with(last.as_str())
}
