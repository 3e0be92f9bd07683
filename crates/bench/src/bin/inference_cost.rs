//! Reproduces the **§4.2.5 inference-cost analysis**: mean cost per
//! query for DIO copilot under GPT-4 vs GPT-3.5-turbo pricing.
//!
//! Paper numbers: 4.25 ¢/query (GPT-4) dropping to 0.35 ¢ (GPT-3.5)
//! "without significant reduction in performance".
//!
//! ```text
//! cargo run --release -p dio-bench --bin inference_cost
//! ```

use dio_bench::Experiment;
use dio_benchmark::evaluate;

fn main() {
    eprintln!("building world…");
    let exp = Experiment::standard();

    println!("\n§4.2.5 — Inference cost (paper: GPT-4 4.25¢, GPT-3.5-turbo 0.35¢)\n");
    println!(
        "{:<22} | {:>10} | {:>12} | {:>12} | {:>6}",
        "Model", "cents/query", "prompt tok", "completion", "EX (%)"
    );
    println!("{:-<22}-+-{:-<11}-+-{:-<12}-+-{:-<12}-+-------", "", "", "", "");

    for (label, model) in [
        ("GPT-4 sim", Experiment::gpt4()),
        ("GPT-3.5-turbo sim", Experiment::gpt35()),
    ] {
        let mut dio = exp.copilot(model);
        let report = evaluate(&mut dio, &exp.questions, exp.world.eval_ts);
        let meter = dio.meter();
        let n = meter.queries() as f64;
        println!(
            "{:<22} | {:>10.2} | {:>12.0} | {:>12.0} | {:>6.1}",
            label,
            meter.mean_cents_per_query(),
            meter.usage().prompt_tokens as f64 / n,
            meter.usage().completion_tokens as f64 / n,
            report.ex_percent,
        );
    }
    println!(
        "\n(The paper's claim is the *ratio*: switching to GPT-3.5-turbo cuts cost by an\n\
         order of magnitude with a modest accuracy drop. Absolute cents differ because\n\
         the synthetic catalog's counter names tokenize longer than the vendor's.)"
    );
}
