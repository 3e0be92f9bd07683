//! **Ablation: the expert-feedback loop** (§3.4 / §5.2). On the tuning
//! world and the held-out one: runs the benchmark, files an issue for
//! every miss, has experts resolve a budget of them by enriching the
//! relevant metric's documentation with the operators' phrasing, and
//! re-runs — "fostering a system that improves with usage". Before and
//! after are judged by the exact McNemar test pooled over both worlds.
//!
//! ```text
//! cargo run --release -p dio-bench --bin ablation_feedback
//! ```

use dio_bench::artifact::BenchArtifact;
use dio_bench::{verdict, Experiment};
use dio_benchmark::eval::QuestionOutcome;
use dio_benchmark::evaluate;
use dio_copilot::CopilotConfig;
use dio_feedback::Contribution;

/// Issues the experts resolve per world.
const BUDGET: usize = 40;

fn main() {
    println!("\nAblation — expert feedback loop (up to {BUDGET} issues resolved per world)\n");
    println!(
        "{:<9} | {:>6} | {:>13} | {:>12}",
        "World", "issues", "before EX (%)", "after EX (%)"
    );
    println!("{:-<9}-+--------+---------------+-------------", "");
    let mut artifact = BenchArtifact::new("ablation_feedback");
    let (mut before_runs, mut after_runs) = (Vec::<QuestionOutcome>::new(), Vec::new());
    for (world, exp) in Experiment::worlds() {
        let config = CopilotConfig {
            generate_dashboards: false,
            ..CopilotConfig::default()
        };
        let mut dio = exp.copilot_with_config(Experiment::gpt4(), config);
        let before = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);

        // Operators raise their hands on failures; experts resolve a
        // budget of issues by appending the operator phrasing to the
        // vendor doc of the first metric the question needs that the
        // catalog knows (one contribution resolves an issue).
        let mut resolved = 0usize;
        for outcome in before.outcomes.iter().filter(|o| !o.correct).take(BUDGET) {
            let q = &exp.questions[outcome.id];
            let response = dio.ask(&q.text, exp.world.eval_ts);
            let issue = dio.request_expert_help(&response);
            let known = q.reference.metrics.iter();
            if let Some(def) = known.filter_map(|m| exp.world.catalog.get(m)).next() {
                let mut enriched = def.clone();
                enriched.description = format!(
                    "{} Operators also ask about this as: {}",
                    def.description, q.text
                );
                dio.resolve_issue(issue, "expert:alice", Contribution::MetricDoc(enriched))
                    .expect("a freshly raised issue resolves");
            }
            resolved += 1;
        }

        let after = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);
        println!(
            "{:<9} | {:>6} | {:>13.1} | {:>12.1}",
            world, resolved, before.ex_percent, after.ex_percent
        );
        artifact.push(&format!("{world}: before-feedback"), &before);
        artifact.push(&format!("{world}: after-feedback"), &after);
        if artifact.stage_latency_micros.is_empty() {
            // Stage latencies from the tuning world.
            artifact.set_stages(&dio.obs().registry().snapshot());
        }
        before_runs.extend(before.outcomes);
        after_runs.extend(after.outcomes);
    }
    println!();
    println!(
        "{}",
        verdict("before feedback", &before_runs, "after", &after_runs)
    );
    artifact.write();
}
