//! Exports the benchmark artifacts as JSON — the analogue of the
//! paper's public code/dataset release (reference \[20\], with "the
//! operator-specific data and metrics omitted"; here nothing is
//! proprietary, so everything ships):
//!
//! * `results/benchmark_questions.json` — the 200 questions with
//!   reference metrics, PromQL, and numeric answers;
//! * `results/fewshot_exemplars.json` — the 20 expert tuples;
//! * `results/vendor_manual.md` — the segmented vendor documentation
//!   the domain-specific database is built from.
//!
//! ```text
//! cargo run --release -p dio-bench --bin dataset_export
//! ```

use dio_bench::Experiment;
use dio_catalog::render_manual;
use std::fs;

fn main() {
    eprintln!("building world…");
    let exp = Experiment::standard();
    fs::create_dir_all("results").expect("create results dir");

    let questions = serde_json::to_string_pretty(&exp.questions).expect("serialise questions");
    fs::write("results/benchmark_questions.json", &questions).expect("write questions");

    let fewshot = serde_json::to_string_pretty(&exp.exemplars).expect("serialise exemplars");
    fs::write("results/fewshot_exemplars.json", &fewshot).expect("write exemplars");

    let manual = render_manual(&exp.world.catalog);
    fs::write("results/vendor_manual.md", &manual).expect("write manual");

    println!(
        "exported {} questions ({} bytes), {} exemplars, vendor manual ({} metrics, {} bytes)",
        exp.questions.len(),
        questions.len(),
        exp.exemplars.len(),
        exp.world.catalog.len(),
        manual.len(),
    );
}
