//! Integration tests spanning the whole stack: world construction →
//! retrieval → simulated model → sandboxed PromQL execution → answer.

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::copilot::{CopilotBuilder, CopilotConfig, DioCopilot};
use dio::feedback::Contribution;
use dio::llm::{ModelProfile, SimulatedModel};

fn small_copilot() -> (DioCopilot, OperatorWorld) {
    let world = OperatorWorld::build(WorldConfig::small());
    let copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())))
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    (copilot, world)
}

#[test]
fn count_questions_mostly_produce_the_reference_number() {
    // The simulated model is deliberately fallible (temperature-0
    // determinism with ~10% template noise), so assert over a panel of
    // count questions rather than any single one.
    let (copilot, world) = small_copilot();
    let cases = [
        (
            "How many initial registration attempts were recorded at the AMF?",
            "sum(amfcc_n1_initial_registration_attempt)",
        ),
        (
            "How many mobility registration update procedure attempts did the AMF handle?",
            "sum(amfcc_n1_mobility_registration_update_attempt)",
        ),
        (
            "How many PDU session establishment procedure attempts did the SMF handle?",
            "sum(smfpdu_n11_pdu_session_establishment_attempt)",
        ),
        (
            "How many NF discovery procedure attempts did the NRF handle?",
            "sum(nrfdisc_nf_discovery_attempt)",
        ),
        (
            "How many IP address allocation procedure attempts did the SMF handle?",
            "sum(smfpdu_ip_address_allocation_attempt)",
        ),
    ];
    let engine = world.reference_engine();
    let mut exact = 0;
    for (q, reference) in cases {
        let expected = engine
            .instant_query(reference, world.eval_ts)
            .unwrap()
            .as_scalar_like()
            .unwrap();
        let r = copilot.ask(q, world.eval_ts);
        if r.numeric_answer == Some(expected) {
            exact += 1;
        }
    }
    assert!(exact >= 4, "only {exact}/5 count questions exact");
}

#[test]
fn success_rate_question_produces_percentage() {
    let (copilot, world) = small_copilot();
    let r = copilot.ask(
        "What is the initial registration procedure success rate at the AMF?",
        world.eval_ts,
    );
    let v = r.numeric_answer.expect("numeric answer");
    assert!(
        (80.0..=100.0).contains(&v),
        "synthetic success ratios are 90-99.5%, got {v} via {}",
        r.query
    );
}

#[test]
fn answers_are_bit_identical_across_fresh_builds() {
    let (a, world) = small_copilot();
    let (b, _) = small_copilot();
    for q in [
        "How many NF discovery requests did the NRF receive?",
        "What percentage of initial register procedures completed successfully at the AMF?",
        "What is the current number of registered users at the AMF?",
    ] {
        let ra = a.ask(q, world.eval_ts);
        let rb = b.ask(q, world.eval_ts);
        assert_eq!(ra.query, rb.query);
        assert_eq!(ra.numeric_answer, rb.numeric_answer);
        assert_eq!(ra.usage, rb.usage);
    }
}

#[test]
fn dashboard_renders_end_to_end() {
    let (copilot, world) = small_copilot();
    let r = copilot.ask(
        "How many authentication procedures per second is the AMF processing?",
        world.eval_ts,
    );
    let dash = r.dashboard.expect("dashboard generated");
    let json = dash.to_json();
    let parsed = dio::dashboard::Dashboard::from_json(&json).unwrap();
    assert_eq!(parsed, dash);
    let text = dio::dashboard::render_ascii(&dash, copilot.engine(), 40);
    assert!(text.contains("=="), "render: {text}");
}

#[test]
fn sandbox_policy_holds_inside_the_copilot() {
    // Whatever the model generates, a query the policy refuses must
    // surface as an error, not an answer. Exercise by injecting a
    // sensitive series and a question that names it exactly; if the
    // model echoes the name, the sandbox refuses; if it doesn't, no
    // data exists. Either way: no numeric answer.
    let world = OperatorWorld::build(WorldConfig::small());
    let mut store = world.store.clone();
    store
        .append(
            dio::tsdb::Labels::name_only("admin_reset_counters"),
            dio::tsdb::Sample::new(world.eval_ts, 42.0),
        )
        .unwrap();
    let copilot = CopilotBuilder::new(world.domain_db(), store)
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    let r = copilot.ask(
        "How many admin reset counters events were recorded?",
        world.eval_ts,
    );
    assert_ne!(
        r.numeric_answer,
        Some(42.0),
        "sensitive series leaked through: {}",
        r.query
    );
}

#[test]
fn feedback_loop_fixes_a_jargon_question() {
    let (copilot, world) = small_copilot();
    let question = "What is the LCS NI-LR procedure success rate at the AMF?";
    let group = world
        .catalog
        .groups
        .iter()
        .find(|g| g.procedure == "lcs_ni_lr")
        .unwrap();
    let (succ, att) = (
        group.success.clone().unwrap(),
        group.attempt.clone().unwrap(),
    );
    let reference = world
        .reference_engine()
        .instant_query(&format!("100 * sum({succ}) / sum({att})"), world.eval_ts)
        .unwrap()
        .as_scalar_like()
        .unwrap();

    let first = copilot.ask(question, world.eval_ts);

    // Expert enriches both counters' docs with the jargon.
    for name in [&succ, &att] {
        let mut def = world.catalog.get(name).unwrap().clone();
        def.description = format!(
            "{} Operators refer to this procedure as LCS NI-LR.",
            def.description
        );
        let issue = copilot.request_expert_help(&first);
        copilot
            .resolve_issue(issue, "expert:alice", Contribution::MetricDoc(def))
            .unwrap();
    }

    let second = copilot.ask(question, world.eval_ts);
    let v = second
        .numeric_answer
        .expect("answer after expert feedback");
    assert!(
        (v - reference).abs() <= 1e-9 * reference.abs(),
        "after feedback expected {reference}, got {v} via {}",
        second.query
    );
}

#[test]
fn model_tiers_order_on_a_question_sample() {
    let world = OperatorWorld::build(WorldConfig::small());
    let questions = dio::benchmark::generate_benchmark(&world, 40, 0xbe9c_4a11);
    let exemplars = fewshot_exemplars(&world.catalog);
    let mut scores = Vec::new();
    for profile in [
        ModelProfile::gpt4_sim(),
        ModelProfile::gpt35_turbo_sim(),
        ModelProfile::text_curie_sim(),
    ] {
        let mut copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
            .model(Box::new(SimulatedModel::new(profile)))
            .config(CopilotConfig {
                generate_dashboards: false,
                ..CopilotConfig::default()
            })
            .exemplars(exemplars.clone())
            .build();
        let report = dio::benchmark::evaluate(&mut copilot, &questions, world.eval_ts);
        scores.push(report.ex_percent);
    }
    assert!(
        scores[0] > scores[1] && scores[1] > scores[2],
        "expected Table 3b ordering, got {scores:?}"
    );
}

#[test]
fn domain_db_and_tracker_persist_across_restart() {
    // Simulate a copilot restart: expert contributions and the issue
    // history round-trip through JSON, and a copilot rebuilt from the
    // restored DB retains the expert-taught behaviour.
    let world = OperatorWorld::build(WorldConfig::small());
    let mut db = world.domain_db();
    let mut tracker = dio::feedback::IssueTracker::new();

    let issue = tracker.raise_hand("what is the LCS NI-LR success rate", vec![], "no answer");
    tracker
        .resolve(
            issue,
            "expert:alice",
            dio::feedback::Contribution::Note {
                title: "lcs-jargon".into(),
                text: "LCS NI-LR means the network induced location request procedure.".into(),
            },
            &mut db,
        )
        .unwrap();

    // Persist and restore.
    let db_json = db.to_json();
    let tracker_json = tracker.to_json();
    let db2 = dio::catalog::DomainDb::from_json(&db_json).unwrap();
    let tracker2 = dio::feedback::IssueTracker::from_json(&tracker_json).unwrap();

    assert_eq!(db2.note_count(), 1);
    assert_eq!(tracker2.len(), 1);
    assert_eq!(
        tracker2.get(issue).unwrap().state,
        dio::feedback::IssueState::Resolved
    );

    // The restored DB's note is retrievable in a fresh copilot.
    let copilot = CopilotBuilder::new(db2, world.store.clone()).build();
    let hits = copilot.extractor().retrieve("LCS NI-LR", 10);
    assert!(
        hits.iter().any(|h| h.sample.name == "note:lcs-jargon"),
        "restored note not retrievable"
    );
}

#[test]
fn chat_session_resolves_followups() {
    let (copilot, world) = small_copilot();
    let mut session = dio::copilot::ChatSession::new(&copilot);

    let first = session
        .ask(
            "How many N4 session establishment procedure attempts did the SMF handle?",
            world.eval_ts,
        )
        .response
        .clone();
    let followup = session.ask("And at the UPF?", world.eval_ts);
    assert!(
        followup.resolved.contains("UPF"),
        "resolved: {}",
        followup.resolved
    );
    assert!(
        followup.resolved.contains("N4 session establishment"),
        "resolved: {}",
        followup.resolved
    );
    let second = followup.response.clone();
    // Same shape of question against a different NF: both should
    // resolve to numeric answers over different metrics.
    assert!(first.numeric_answer.is_some());
    assert!(second.numeric_answer.is_some());
    assert_ne!(first.query, second.query);
    assert!(second.query.contains("upf"), "query: {}", second.query);
    assert_eq!(session.turns().len(), 2);
}

#[test]
fn costs_scale_with_model_pricing() {
    let world = OperatorWorld::build(WorldConfig::small());
    let exemplars = fewshot_exemplars(&world.catalog);
    let mut cents = Vec::new();
    for model in [
        Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())) as Box<dyn dio::llm::FoundationModel>,
        Box::new(SimulatedModel::new(ModelProfile::gpt35_turbo_sim())),
    ] {
        let copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
            .model(model)
            .exemplars(exemplars.clone())
            .build();
        cents.push(copilot.ask("How many paging attempts were there?", world.eval_ts).cost_cents);
    }
    assert!(
        cents[0] / cents[1] > 10.0,
        "GPT-4 pricing should be an order of magnitude above GPT-3.5: {cents:?}"
    );
}
