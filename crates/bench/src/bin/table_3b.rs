//! Reproduces **Table 3b** (paper §4.2.4): execution accuracy of the
//! DIO copilot architecture with different foundation models.
//!
//! Paper numbers: GPT-4 66 %, GPT-3.5-turbo 46 %, text-curie-001 13 % —
//! and the paper's observation that "even the least performing model
//! still outperforms using GPT-4 alone" (Table 3a's 12 %).
//!
//! ```text
//! cargo run --release -p dio-bench --bin table_3b
//! ```

use dio_bench::artifact::BenchArtifact;
use dio_bench::Experiment;
use dio_benchmark::{evaluate, format_comparison_table, format_shape_breakdown};

fn main() {
    eprintln!("building world…");
    let exp = Experiment::standard();

    let mut artifact = BenchArtifact::new("table_3b");
    let mut reports = Vec::new();
    for (label, model) in [
        ("GPT-4 sim", Experiment::gpt4()),
        ("GPT-3.5-turbo sim", Experiment::gpt35()),
        ("text-curie-001 sim", Experiment::curie()),
    ] {
        eprintln!("evaluating DIO copilot with {label}…");
        let mut dio = exp.copilot(model);
        let r = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);
        artifact.push(label, &r);
        artifact.set_stages(&dio.obs().registry().snapshot());
        reports.push(r);
    }

    println!();
    let refs: Vec<&_> = reports.iter().collect();
    println!(
        "{}",
        format_comparison_table(
            "Table 3b — Foundation-model sweep inside DIO (paper: 66, 46, 13)",
            &refs
        )
    );
    for r in &reports {
        println!("{}", format_shape_breakdown(r));
    }
    artifact.write();
}
