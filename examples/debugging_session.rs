//! A realistic operator debugging session — the §1 motivating workflow:
//! an operator investigates degraded registration KPIs without writing
//! a single PromQL expression themselves, drilling from a headline KPI
//! into failure causes and a visual dashboard.
//!
//! ```text
//! cargo run --release --example debugging_session
//! ```

use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
use dio::copilot::CopilotBuilder;
use dio::dashboard::render_ascii;

fn main() {
    println!("building the operator world…\n");
    let world = OperatorWorld::build(WorldConfig::default());
    let copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
        .exemplars(fewshot_exemplars(&world.catalog))
        .build();
    let now = world.eval_ts;

    // Step 1: the operator notices registrations look off and asks for
    // the headline KPI.
    println!("──── step 1: headline KPI ────────────────────────────────────\n");
    let kpi = copilot.ask(
        "What is the initial registration procedure success rate at the AMF?",
        now,
    );
    println!("{}", kpi.render());

    // Step 2: how much load is the procedure taking right now?
    println!("──── step 2: load ────────────────────────────────────────────\n");
    let load = copilot.ask(
        "How many initial registration procedures per second is the AMF handling?",
        now,
    );
    println!("{}", load.render());

    // Step 3: drill into a failure cause the on-call suspects.
    println!("──── step 3: failure cause ───────────────────────────────────\n");
    let cause = copilot.ask(
        "What fraction of initial registration procedures failed due to congestion?",
        now,
    );
    println!("{}", cause.render());

    // Step 4: per-instance skew — is one AMF instance the problem?
    println!("──── step 4: per-instance skew ───────────────────────────────\n");
    let skew = copilot.ask(
        "What is the average number of initial registration attempts per AMF instance?",
        now,
    );
    println!("{}", skew.render());

    // Step 4b: a chat follow-up — "and at the SMF?" resolves against
    // the previous turn (multi-turn sessions, dio_copilot::ChatSession).
    println!("──── step 4b: follow-up via chat session ─────────────────────\n");
    {
        let mut chat = dio::copilot::ChatSession::new(&copilot);
        chat.ask(
            "How many PDU session establishment procedure attempts did the SMF handle?",
            now,
        );
        let turn = chat.ask("And at the N3IWF?", now);
        println!("you said : {}", turn.raw);
        println!("resolved : {}", turn.resolved);
        println!("{}", turn.response.render());
    }

    // Step 5: the generated dashboard for the KPI question, rendered as
    // ASCII time series.
    println!("──── step 5: dashboard ───────────────────────────────────────\n");
    if let Some(dash) = &kpi.dashboard {
        println!("{}", render_ascii(dash, copilot.engine(), 56));
        println!("\n(grafana-style JSON: {} bytes)", dash.to_json().len());
    }

    // The copilot's registry counts every ask and what its model billed.
    let billed = copilot.obs().registry().snapshot();
    println!(
        "\nsession cost: {:.2}¢ across {} questions",
        billed.total("dio_llm_cost_cents_total"),
        billed.total(dio::copilot::obs::ASKS_NAME)
    );
}
