//! Quickstart: build the operator world, assemble DIO copilot, and ask
//! a few questions in natural language.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::copilot::CopilotBuilder;

fn main() {
    // 1. The operator world: a 3000+-metric 5G-core catalog with
    //    synthetic-but-representative traffic for every counter.
    println!("building the operator world (catalog + synthetic traffic)…");
    let world = OperatorWorld::build(WorldConfig::default());
    println!(
        "  {} metrics, {} series, {} samples\n",
        world.catalog.len(),
        world.store.series_count(),
        world.store.sample_count()
    );

    // 2. The copilot: domain DB + embedding index + simulated GPT-4 +
    //    sandboxed PromQL execution, with the 20 expert few-shot tuples.
    println!("assembling DIO copilot (offline embedding pass)…\n");
    let copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();

    // 3. Ask away.
    let mut cents = Vec::new();
    for question in [
        "How many PDU sessions are currently active at the SMF?",
        "What is the initial registration procedure success rate at the AMF?",
        "How many bytes did the UPF forward downlink on the N3 interface?",
    ] {
        let response = copilot.ask(question, world.eval_ts);
        cents.push(response.cost_cents);
        println!("{}", response.render());
        println!("{}", "=".repeat(72));
    }

    println!(
        "\ntotal inference: {} queries, mean {:.2}¢/query",
        cents.len(),
        cents.iter().sum::<f64>() / cents.len() as f64
    );
}
