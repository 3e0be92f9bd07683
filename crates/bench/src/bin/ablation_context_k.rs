//! **Ablation: context size.** Sweeps the number of retrieved context
//! samples on the tuning world and the held-out one, and judges each
//! cell against the default by the exact McNemar test pooled over both
//! worlds. The paper fixes it at 29 ("the top 29 most similar text
//! samples are appended"); the default is 10. Zero context collapses
//! accuracy. k ∈ {8, 10, 12} form a plateau on both worlds; accuracy
//! dips from there to the paper's 29, then climbs back by k = 100, whose
//! prompt costs about three times the default's.
//!
//! ```text
//! cargo run --release -p dio-bench --bin ablation_context_k
//! ```

use dio_bench::artifact::BenchArtifact;
use dio_bench::{paper_config, verdict, Experiment};
use dio_benchmark::eval::QuestionOutcome;
use dio_benchmark::evaluate;
use dio_copilot::CopilotConfig;

const KS: [usize; 9] = [0, 5, 8, 10, 12, 15, 29, 50, 100];

fn main() {
    let default_k = CopilotConfig::default().top_k;
    let paper_k = paper_config().top_k;
    let label = |k: usize| match k {
        k if k == default_k => format!("k = {k} (default)"),
        k if k == paper_k => format!("k = {k} (paper)"),
        k => format!("k = {k}"),
    };
    println!("\nAblation — retrieved context samples (default {default_k}, paper {paper_k})\n");
    println!(
        "{:<9} | {:<17} | {:>6} | {:>11}",
        "World", "top-k", "EX (%)", "cents/query"
    );
    println!("{:-<9}-+-{:-<17}-+--------+------------", "", "");
    let mut artifact = BenchArtifact::new("ablation_context_k");
    let mut pooled: Vec<Vec<QuestionOutcome>> = vec![Vec::new(); KS.len()];
    for (world, exp) in Experiment::worlds() {
        for (k, pool) in KS.into_iter().zip(&mut pooled) {
            let mut dio = exp.copilot_with_config(
                Experiment::gpt4(),
                CopilotConfig {
                    top_k: k,
                    generate_dashboards: false,
                    ..CopilotConfig::default()
                },
            );
            let r = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);
            println!(
                "{:<9} | {:<17} | {:>6.1} | {:>11.2}",
                world,
                label(k),
                r.ex_percent,
                r.mean_cost_cents
            );
            artifact.push(&format!("{world}: {}", label(k)), &r);
            if k == default_k && artifact.stage_latency_micros.is_empty() {
                // Stage latencies from the default cell on the tuning world.
                artifact.set_stages(&dio.obs().registry().snapshot());
            }
            pool.extend(r.outcomes);
        }
    }
    println!();
    let default = &pooled[KS
        .iter()
        .position(|&k| k == default_k)
        .expect("the default is swept")];
    for (k, runs) in KS.into_iter().zip(&pooled).filter(|(k, _)| *k != default_k) {
        println!("{}", verdict(&label(default_k), default, &label(k), runs));
    }
    artifact.write();
}
