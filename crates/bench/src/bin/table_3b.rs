//! Reproduces **Table 3b** (paper §4.2.4): execution accuracy of the
//! DIO copilot architecture with different foundation models, on the
//! tuning world and the held-out one, at the default configuration
//! (10 context samples) and as the paper configuration (k = 29).
//!
//! Paper numbers: GPT-4 66 %, GPT-3.5-turbo 46 %, text-curie-001 13 % —
//! and the paper's observation that "even the least performing model
//! still outperforms using GPT-4 alone" (Table 3a's 12 %). The paper
//! configuration reproduces 144 / 102 / 26 of 200 on the tuning world.
//! Curie's collapse appears only at k = 29: at the default curie scores
//! 87/200. Its 2 048-token window plausibly holds more of the shorter
//! prompt; that mechanism is not verified.
//!
//! ```text
//! cargo run --release -p dio-bench --bin table_3b
//! ```

use dio_bench::artifact::BenchArtifact;
use dio_bench::{operating_points, Experiment};
use dio_benchmark::{evaluate, format_comparison_table, format_shape_breakdown};

fn main() {
    let rows = operating_points();
    let mut artifact = BenchArtifact::new("table_3b");
    for (world, exp) in Experiment::worlds() {
        eprintln!("{world} world built");
        let mut reports = Vec::new();
        for (row, config) in &rows {
            let mut correct = Vec::new();
            for (label, model) in [
                ("GPT-4 sim", Experiment::gpt4()),
                ("GPT-3.5-turbo sim", Experiment::gpt35()),
                ("text-curie-001 sim", Experiment::curie()),
            ] {
                eprintln!("evaluating DIO copilot with {label}, {row}…");
                let mut dio = exp.copilot_with_config(model, config.clone());
                let mut r = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);
                artifact.push(&format!("{world}: {label}, {row}"), &r);
                if artifact.stage_latency_micros.is_empty() {
                    // Stage latencies from GPT-4 at the default on the tuning world.
                    artifact.set_stages(&dio.obs().registry().snapshot());
                }
                correct.push(r.correct);
                r.system = format!("{}, {row}", r.system);
                reports.push(r);
            }
            let holds = correct.windows(2).all(|w| w[0] > w[1]);
            println!(
                "{world} world, {row}: {} — ordering GPT-4 > GPT-3.5 > curie {}",
                correct
                    .iter()
                    .map(|c| format!("{c}/{}", exp.questions.len()))
                    .collect::<Vec<_>>()
                    .join(" / "),
                if holds { "holds" } else { "FLIPPED" }
            );
        }

        println!();
        let refs: Vec<&_> = reports.iter().collect();
        println!(
            "{}",
            format_comparison_table(
                &format!(
                    "Table 3b — Foundation-model sweep inside DIO, {world} world (paper: 66, 46, 13)"
                ),
                &refs
            )
        );
        for r in &reports {
            println!("{}", format_shape_breakdown(r));
        }
    }
    println!(
        "Curie's collapse (the paper's 13 %) appears only in the paper configuration (k = 29);\n\
         at the default configuration curie answers far more (the per-row lines above)."
    );
    artifact.write();
}
