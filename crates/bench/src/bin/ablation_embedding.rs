//! **Ablation: network-specific embedding model** (§5.3). The paper
//! proposes that a telecom-tuned embedder would beat a generic one on
//! operator jargon; our embedder's domain lexicon is exactly that
//! lever, so we can measure it: domain-tuned vs generic embedder on the
//! tuning world and the held-out one, overall and on paraphrased
//! questions specifically, judged by the exact McNemar test pooled over
//! both worlds at the default number of context samples.
//!
//! ```text
//! cargo run --release -p dio-bench --bin ablation_embedding
//! ```

use dio_bench::artifact::BenchArtifact;
use dio_bench::{verdict, Experiment};
use dio_benchmark::eval::QuestionOutcome;
use dio_benchmark::evaluate;
use dio_copilot::CopilotConfig;

const EMBEDDERS: [(&str, bool); 2] = [("telecom-tuned", true), ("generic", false)];

fn main() {
    let top_k = CopilotConfig::default().top_k;
    println!("\nAblation — §5.3 network-specific embedding model at k = {top_k}\n");
    println!(
        "{:<9} | {:<14} | {:>6} | {:>12} | {:>12}",
        "World", "embedder", "EX (%)", "plain EX (%)", "para EX (%)"
    );
    println!(
        "{:-<9}-+-{:-<14}-+--------+--------------+-------------",
        "", ""
    );
    let mut artifact = BenchArtifact::new("ablation_embedding");
    let mut pooled: [Vec<QuestionOutcome>; 2] = Default::default();
    for (world, exp) in Experiment::worlds() {
        for ((label, domain), pool) in EMBEDDERS.into_iter().zip(&mut pooled) {
            let mut dio = exp.copilot_with_config(
                Experiment::gpt4(),
                CopilotConfig {
                    domain_embedder: domain,
                    generate_dashboards: false,
                    ..CopilotConfig::default()
                },
            );
            let r = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);
            let (pc, pt, qc, qt) = r.plain_vs_paraphrase;
            println!(
                "{:<9} | {:<14} | {:>6.1} | {:>12.1} | {:>12.1}",
                world,
                label,
                r.ex_percent,
                pc as f64 * 100.0 / pt.max(1) as f64,
                qc as f64 * 100.0 / qt.max(1) as f64,
            );
            artifact.push(&format!("{world}: {label}"), &r);
            if artifact.stage_latency_micros.is_empty() {
                // Stage latencies from the default cell on the tuning world.
                artifact.set_stages(&dio.obs().registry().snapshot());
            }
            pool.extend(r.outcomes);
        }
    }
    println!();
    let [(tuned, _), (generic, _)] = EMBEDDERS;
    println!("{}", verdict(tuned, &pooled[0], generic, &pooled[1]));
    artifact.write();
}
