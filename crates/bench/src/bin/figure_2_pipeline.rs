//! Measurable counterpart of **Figure 2** (the system architecture):
//! traces a set of questions through the pipeline and reports the mean
//! wall-clock spent in each architectural component — context
//! extraction, code generation, sandboxed execution, and dashboard
//! generation.
//!
//! ```text
//! cargo run --release -p dio-bench --bin figure_2_pipeline
//! ```

use dio_bench::Experiment;
use std::collections::BTreeMap;

fn main() {
    eprintln!("building world…");
    let exp = Experiment::standard();
    let dio = exp.copilot(Experiment::gpt4());

    // Durations are u64 micros end to end now (saturating), so the
    // report-side accumulator no longer silently mixes widths.
    let mut totals: BTreeMap<String, (u64, usize)> = BTreeMap::new();
    let sample: Vec<_> = exp.questions.iter().take(50).collect();
    for q in &sample {
        let r = dio.ask(&q.text, exp.world.eval_ts);
        for agg in r.trace.aggregates() {
            let e = totals.entry(agg.stage.clone()).or_insert((0, 0));
            e.0 = e.0.saturating_add(agg.total_micros);
            e.1 += agg.invocations;
        }
    }

    println!("\nFigure 2 — pipeline stage timing over {} questions\n", sample.len());
    println!("{:<12} | {:>12} | {:>8}", "stage", "mean (µs)", "calls");
    println!("{:-<12}-+-{:-<12}-+---------", "", "");
    let mut total_mean = 0.0;
    for (stage, (micros, calls)) in &totals {
        let mean = *micros as f64 / *calls as f64;
        total_mean += mean;
        println!("{:<12} | {:>12.0} | {:>8}", stage, mean, calls);
    }
    println!("{:-<12}-+-{:-<12}-+---------", "", "");
    println!("{:<12} | {:>12.0} |", "total", total_mean);
    println!(
        "\n(components per Figure 2: context extractor = retrieve, foundation model =\n\
         generate, sandboxed DB execution = execute, dashboard generation = dashboard)"
    );
}
