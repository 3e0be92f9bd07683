//! Reproduces **Figure 1**: side-by-side comparison of a bare chat
//! model (Figure 1a) and DIO copilot (Figure 1b) on a sample operator
//! question about PDU sessions.
//!
//! The paper's figure shows ChatGPT failing to produce a relevant,
//! grounded answer, while the copilot lists the relevant metrics with
//! descriptions, the query it will run, and a numerically accurate
//! answer plus a dashboard.
//!
//! ```text
//! cargo run --release -p dio-bench --bin figure_1
//! ```

use dio_bench::Experiment;
use dio_dashboard::render_ascii;

fn main() {
    eprintln!("building world…");
    let exp = Experiment::standard();
    let question = "How many PDU sessions are currently active at the SMF?";

    // Figure 1a: the bare chat model.
    let direct = exp.direct(Experiment::gpt4());
    println!("===== Figure 1a — bare chat model =====\n");
    println!("Q: {question}\n");
    println!("{}\n", direct.chat_response(question));

    // Figure 1b: DIO copilot.
    let dio = exp.copilot(Experiment::gpt4());
    let response = dio.ask(question, exp.world.eval_ts);
    println!("===== Figure 1b — DIO copilot =====\n");
    println!("{}", response.render());

    if let Some(d) = &response.dashboard {
        println!("{}", render_ascii(d, dio.engine(), 48));
    }
}
