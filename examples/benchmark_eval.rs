//! Run a compact version of the §4 evaluation: a reduced operator
//! world, a 60-question benchmark, and execution-accuracy comparison of
//! DIO copilot against both baselines (a faster version of the
//! `table_3a` bench binary).
//!
//! ```text
//! cargo run --release --example benchmark_eval
//! ```

use dio::baselines::{sample_schema, DinSqlBaseline, DirectModelBaseline};
use dio::benchmark::{format_comparison_table, format_shape_breakdown};
use dio::benchmark::{evaluate, fewshot_exemplars, generate_benchmark, OperatorWorld, WorldConfig};
use dio::copilot::CopilotBuilder;
use dio::llm::{ModelProfile, SimulatedModel};

fn main() {
    println!("building a reduced operator world…");
    let world = OperatorWorld::build(WorldConfig::small());
    let questions = generate_benchmark(&world, 60, 0xbe9c_4a11);
    let exemplars = fewshot_exemplars(&world.catalog);
    println!(
        "  {} metrics, {} questions, {} exemplars\n",
        world.catalog.len(),
        questions.len(),
        exemplars.len()
    );

    let gpt4 = || Box::new(SimulatedModel::new(ModelProfile::gpt4_sim()));

    let mut dio = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .model(gpt4())
        .exemplars(exemplars.clone())
        .build();
    let r_dio = evaluate(&mut dio, &questions, world.eval_ts);

    let schema = sample_schema(&world.domain_db(), 600, 0x5c83_a001);
    let mut dinsql = DinSqlBaseline::new(
        schema.clone(),
        exemplars.clone(),
        gpt4(),
        world.store.clone(),
    );
    let r_din = evaluate(&mut dinsql, &questions, world.eval_ts);

    let mut direct = DirectModelBaseline::new(schema, gpt4(), world.store.clone());
    let r_dir = evaluate(&mut direct, &questions, world.eval_ts);

    println!(
        "{}",
        format_comparison_table("Compact Table 3a (60 questions)", &[&r_dio, &r_din, &r_dir])
    );
    println!("{}", format_shape_breakdown(&r_dio));

    assert!(
        r_dio.ex_percent > r_din.ex_percent && r_din.ex_percent > r_dir.ex_percent,
        "expected the paper's ordering DIO > DIN-SQL > bare model"
    );
    println!("✔ paper ordering holds: DIO > DIN-SQL > bare model");
}
