//! The §3.4 expert-feedback loop, end to end: the copilot fumbles a
//! jargon-heavy question, the operator presses the raised-hand button,
//! a domain expert resolves the filed issue with enriched documentation
//! and a worked exemplar, and the same question then succeeds — "a
//! system that improves with usage".
//!
//! ```text
//! cargo run --release --example expert_feedback_loop
//! ```

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::copilot::CopilotBuilder;
use dio::feedback::{Contribution, IssueState};

fn main() {
    println!("building the operator world…\n");
    let world = OperatorWorld::build(WorldConfig::default());
    let copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    let now = world.eval_ts;

    // The paper's own example (§4.2.3): "LCS NI-LR" is operator jargon;
    // the vendor counter spells out "network induced location request".
    let question = "What is the LCS NI-LR procedure success rate at the AMF?";

    println!("──── attempt 1 ───────────────────────────────────────────────\n");
    let first = copilot.ask(question, now);
    println!("{}", first.render());

    // The operator requests expert help (raised-hand button → issue).
    let issue_id = copilot.request_expert_help(&first);
    println!(
        "filed issue #{issue_id}: {:?}\n",
        copilot.tracker().get(issue_id).unwrap().title
    );

    // An expert resolves the issue: enrich the two LCS counters'
    // documentation with the jargon…
    let group = world
        .catalog
        .groups
        .iter()
        .find(|g| g.procedure == "lcs_ni_lr")
        .expect("LCS NI-LR group");
    for name in [group.success.as_ref().unwrap(), group.attempt.as_ref().unwrap()] {
        let mut def = world.catalog.get(name).unwrap().clone();
        def.description = format!(
            "{} Operators refer to this procedure as LCS NI-LR.",
            def.description
        );
        // Metric doc contributions outside the issue flow go straight
        // into the domain DB with attribution.
        let extra_issue = copilot.request_expert_help(&first);
        copilot
            .resolve_issue(extra_issue, "expert:alice", Contribution::MetricDoc(def))
            .unwrap();
    }

    // …and contribute a worked exemplar through the original issue.
    copilot
        .resolve_issue(
            issue_id,
            "expert:alice",
            Contribution::Exemplar {
                question: question.to_string(),
                metrics: vec![
                    group.success.clone().unwrap(),
                    group.attempt.clone().unwrap(),
                ],
                promql: format!(
                    "100 * sum({}) / sum({})",
                    group.success.as_ref().unwrap(),
                    group.attempt.as_ref().unwrap()
                ),
            },
        )
        .unwrap();
    println!(
        "issue #{issue_id} is now {:?}, resolved by {:?}\n",
        copilot.tracker().get(issue_id).unwrap().state,
        copilot.tracker().get(issue_id).unwrap().resolved_by
    );
    assert_eq!(
        copilot.tracker().get(issue_id).unwrap().state,
        IssueState::Resolved
    );

    println!("──── attempt 2 (after expert contribution) ───────────────────\n");
    let second = copilot.ask(question, now);
    println!("{}", second.render());

    let reference = format!(
        "100 * sum({}) / sum({})",
        group.success.as_ref().unwrap(),
        group.attempt.as_ref().unwrap()
    );
    let expected = world
        .reference_engine()
        .instant_query(&reference, now)
        .unwrap()
        .as_scalar_like()
        .unwrap();
    println!("reference answer: {expected:.4}");
    match second.numeric_answer {
        Some(v) if (v - expected).abs() < 1e-9 * expected.abs().max(1e-300) => {
            println!("✔ the copilot now answers this question correctly");
        }
        other => println!("✘ still off after feedback: {other:?}"),
    }
}
