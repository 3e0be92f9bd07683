//! Dashboard generation (§3.3): ask a question, get the generated
//! Grafana-style dashboard JSON, and render its panels as ASCII time
//! series straight from the query engine.
//!
//! ```text
//! cargo run --release --example dashboard_generation
//! ```

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::copilot::CopilotBuilder;
use dio::dashboard::{render_ascii, Dashboard};

fn main() {
    println!("building the operator world…\n");
    let world = OperatorWorld::build(WorldConfig::default());
    let copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();

    let question = "How many authentication procedures per second is the AMF processing?";
    let response = copilot.ask(question, world.eval_ts);
    println!("{}", response.render());

    let dash = response.dashboard.expect("dashboard enabled by default");

    // The JSON artifact an operator would import into their dashboards.
    let json = dash.to_json();
    println!("──── dashboard JSON ({} bytes) ────\n", json.len());
    for line in json.lines().take(24) {
        println!("{line}");
    }
    println!("… (truncated)\n");

    // Round-trip and render offline.
    let parsed = Dashboard::from_json(&json).expect("round-trips");
    assert_eq!(parsed, dash);
    println!("──── rendered panels ────\n");
    println!("{}", render_ascii(&parsed, copilot.engine(), 56));
}
