//! Reproduces **Table 3a** (paper §4.2.3): end-to-end execution
//! accuracy of DIO copilot vs DIN-SQL vs the bare foundation model on
//! the 200-question operator benchmark.
//!
//! Paper numbers: DIO 66 %, DIN-SQL 48 %, GPT-4 12 %.
//!
//! ```text
//! cargo run --release -p dio-bench --bin table_3a
//! ```

use dio_bench::artifact::BenchArtifact;
use dio_bench::Experiment;
use dio_benchmark::{evaluate, format_comparison_table, format_shape_breakdown};

fn main() {
    eprintln!("building world (3000+ metrics, synthetic traffic)…");
    let exp = Experiment::standard();
    eprintln!(
        "world: {} metrics, {} series, {} samples; benchmark: {} questions",
        exp.world.catalog.len(),
        exp.world.store.series_count(),
        exp.world.store.sample_count(),
        exp.questions.len()
    );

    eprintln!("evaluating DIO copilot…");
    let mut dio = exp.copilot(Experiment::gpt4());
    let r_dio = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);

    eprintln!("evaluating DIN-SQL…");
    let mut dinsql = exp.dinsql(Experiment::gpt4());
    let r_din = evaluate(&mut dinsql, &exp.questions, exp.world.eval_ts);

    eprintln!("evaluating bare model…");
    let mut direct = exp.direct(Experiment::gpt4());
    let r_dir = evaluate(&mut direct, &exp.questions, exp.world.eval_ts);

    println!();
    println!(
        "{}",
        format_comparison_table(
            "Table 3a — End-to-end comparison (paper: DIO 66, DIN-SQL 48, GPT-4 12)",
            &[&r_dio, &r_din, &r_dir]
        )
    );
    println!("{}", format_shape_breakdown(&r_dio));
    println!("{}", format_shape_breakdown(&r_din));
    println!("{}", format_shape_breakdown(&r_dir));

    let mut artifact = BenchArtifact::new("table_3a");
    artifact.push("dio-copilot", &r_dio);
    artifact.push("din-sql", &r_din);
    artifact.push("bare-model", &r_dir);
    artifact.set_stages(&dio.obs().registry().snapshot());
    artifact.write();
}
