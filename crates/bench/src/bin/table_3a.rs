//! Reproduces **Table 3a** (paper §4.2.3): end-to-end execution
//! accuracy of DIO copilot vs DIN-SQL vs the bare foundation model on
//! the 200-question operator benchmark, on the tuning world and the
//! held-out one. DIO is printed twice: at the default configuration
//! (10 context samples) and as the paper configuration (k = 29), which
//! reproduces the paper-setting 144/200 on the tuning world.
//!
//! Paper numbers: DIO 66 %, DIN-SQL 48 %, GPT-4 12 %.
//!
//! ```text
//! cargo run --release -p dio-bench --bin table_3a
//! ```

use dio_bench::artifact::BenchArtifact;
use dio_bench::{operating_points, verdict, Experiment};
use dio_benchmark::{evaluate, format_comparison_table, format_shape_breakdown, EvalReport};

fn main() {
    let rows = operating_points();
    let mut artifact = BenchArtifact::new("table_3a");
    let mut pooled: [Vec<_>; 2] = Default::default();
    for (world, exp) in Experiment::worlds() {
        eprintln!(
            "{world} world: {} metrics, {} series, {} samples; benchmark: {} questions",
            exp.world.catalog.len(),
            exp.world.store.series_count(),
            exp.world.store.sample_count(),
            exp.questions.len()
        );
        let mut reports: Vec<(String, EvalReport)> = Vec::new();
        for ((row, config), pool) in rows.iter().zip(&mut pooled) {
            eprintln!("evaluating DIO copilot, {row}…");
            let mut dio = exp.copilot_with_config(Experiment::gpt4(), config.clone());
            let mut r = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);
            if artifact.stage_latency_micros.is_empty() {
                // Stage latencies from the default row on the tuning world.
                artifact.set_stages(&dio.obs().registry().snapshot());
            }
            pool.extend(r.outcomes.iter().cloned());
            r.system = format!("{}, {row}", r.system);
            reports.push((format!("{world}: dio-copilot, {row}"), r));
        }

        eprintln!("evaluating DIN-SQL…");
        let mut dinsql = exp.dinsql(Experiment::gpt4());
        let r_din = evaluate(&mut dinsql, &exp.questions, exp.world.eval_ts);
        eprintln!("evaluating bare model…");
        let mut direct = exp.direct(Experiment::gpt4());
        let r_dir = evaluate(&mut direct, &exp.questions, exp.world.eval_ts);

        let refs: Vec<&EvalReport> = reports.iter().map(|(_, r)| r).collect();
        println!();
        println!(
            "{}",
            format_comparison_table(
                &format!(
                    "Table 3a — End-to-end comparison, {world} world (paper: DIO 66, DIN-SQL 48, GPT-4 12)"
                ),
                &[refs.as_slice(), &[&r_din, &r_dir]].concat()
            )
        );
        for r in refs.iter().chain([&&r_din, &&r_dir]) {
            println!("{}", format_shape_breakdown(r));
        }
        for (row, r) in &reports {
            let holds = r.correct > r_din.correct && r_din.correct > r_dir.correct;
            println!(
                "ordering DIO > DIN-SQL > bare model, {row}: {}",
                if holds { "holds" } else { "FLIPPED" }
            );
            artifact.push(row, r);
        }
        artifact.push(&format!("{world}: din-sql"), &r_din);
        artifact.push(&format!("{world}: bare-model"), &r_dir);
    }
    println!(
        "\n{}",
        verdict(&rows[0].0, &pooled[0], &rows[1].0, &pooled[1])
    );
    artifact.write();
}
