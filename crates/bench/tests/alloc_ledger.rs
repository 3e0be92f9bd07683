//! The allocation ledger of the ask path: heap allocations (and bytes)
//! per ask on the default world, for the whole ask and for each public
//! layer `perf/`'s traced `ask_cold` probes — the question embed,
//! `retrieve_vec`, the prompt build, the model's `complete`, the PromQL
//! parse, the sandbox's execute and `generate_dashboard`. The prompt
//! build is probed as the pipeline builds: from pieces rendered before
//! the ask (context lines when the index is built, exemplar and function
//! pieces when the copilot is), where `perf/` probes the `ContextItem`
//! entry point that renders them per call.
//!
//! Every layer has a ceiling at its measured count + 2 %. A ceiling moves
//! only in the commit that changes its layer, with the reason written
//! down there. Counts are kept per thread by a counting global allocator,
//! so the harness and other threads never reach them; this is also the
//! only test in its binary. Print the table with
//! `cargo test --release --offline -p dio-bench --test alloc_ledger -- --nocapture`.

use dio_bench::Experiment;
use dio_copilot::CopilotConfig;
use dio_dashboard::{generate_dashboard, PanelSpecHint, TimeRange};
use dio_llm::{
    CompletionRequest, FoundationModel, ModelProfile, PromptBuilder, PromptPiece, SimulatedModel,
    TaskKind,
};
use dio_sandbox::{SafetyPolicy, Sandbox};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Hands every request to the system allocator and tallies it, with its
/// size, on the calling thread. A `realloc` counts as one allocation of
/// its new size.
struct Counting;

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { allocs: 0, bytes: 0 }) };
}

fn tally(bytes: usize) {
    // A thread being torn down has no tally left to bump.
    let _ = TALLY.try_with(|t| {
        let mut now = t.get();
        now.allocs += 1;
        now.bytes += bytes as u64;
        t.set(now);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[derive(Clone, Copy, Default)]
struct Tally {
    allocs: u64,
    bytes: u64,
}

/// Runs `f` and adds what it allocated on this thread to `into`. The
/// result is returned, so dropping it is never counted.
fn counted<T>(into: &mut Tally, f: impl FnOnce() -> T) -> T {
    let before = TALLY.with(Cell::get);
    let out = f();
    let after = TALLY.with(Cell::get);
    into.allocs += after.allocs - before.allocs;
    into.bytes += after.bytes - before.bytes;
    out
}

/// The layers, in the order an ask passes them, with each one's ceiling
/// in allocations per ask: the larger pass's count + 2 %. Debug, release
/// and one-core runs count the same.
const LAYERS: [(&str, f64); 8] = [
    ("copilot.ask", 397.07),
    ("embed.question", 12.79),
    ("copilot.retrieve_vec", 28.56),
    ("llm.prompt_build", 11.22),
    ("llm.complete", 124.57),
    ("promql.parse", 11.95),
    ("sandbox.execute", 86.53),
    ("dashboard.generate", 20.17),
];

/// Mirrors of two private items of `dio_copilot::pipeline`, so the
/// prompt built here allocates as the pipeline's does.
const SYSTEM_PROMPT: &str = "You are DIO copilot, a natural language interface for retrieval \
and analytics tasks on 5G operator data. Use only metrics from CONTEXT. Answer with PromQL.";

fn first_sentence(text: &str) -> String {
    match text.find(". ") {
        Some(i) => text[..=i].to_string(),
        None => text.to_string(),
    }
}

#[test]
fn ask_path_allocations_stay_under_their_ceilings() {
    const PASSES: usize = 2;
    let exp = Experiment::standard();
    let ts = exp.world.eval_ts;
    let db = exp.world.domain_db();
    let config = CopilotConfig::default();
    let copilot = exp.copilot(Experiment::gpt4());
    let model = SimulatedModel::new(ModelProfile::gpt4_sim());
    let sandbox = Sandbox::new(exp.world.store.clone(), SafetyPolicy::default());
    let window = model.context_window();
    let reserved = config.max_output_tokens.min(window / 4);
    let exemplar_pieces: Vec<PromptPiece> =
        exp.exemplars.iter().map(PromptPiece::example).collect();
    let function_pieces: Vec<PromptPiece> = db
        .functions()
        .take(4)
        .map(|f| PromptPiece::item(&f.name, &first_sentence(&f.description)))
        .collect();

    let mut ledger = [[Tally::default(); LAYERS.len()]; PASSES];
    for pass in &mut ledger {
        for q in &exp.questions {
            let [ask, embed, retrieve, prompt_build, complete, parse, execute, dashboard] = pass;
            let response = counted(ask, || copilot.ask(&q.text, ts));
            let extractor = copilot.extractor();
            let qvec = counted(embed, || extractor.embed_question(&q.text));
            let retrieved = counted(retrieve, || {
                extractor.retrieve_vec(&q.text, Some(&qvec), config.top_k)
            });
            let context: Vec<(PromptPiece, f32)> = retrieved
                .iter()
                .map(|h| {
                    let line = PromptPiece::item(&h.sample.name, &first_sentence(&h.sample.text));
                    (line, h.score)
                })
                .collect();
            let prompt = counted(prompt_build, || {
                PromptBuilder::new()
                    .system(SYSTEM_PROMPT)
                    .context_pieces(context.iter().map(|(line, score)| (line, *score)))
                    .function_pieces(&function_pieces)
                    .example_pieces(exemplar_pieces.iter().take(config.max_exemplars))
                    .question(q.text.as_str())
                    .task(TaskKind::GeneratePromql)
                    .build(window, reserved)
            });
            let request = CompletionRequest {
                prompt,
                max_tokens: config.max_output_tokens,
                temperature: config.temperature,
                timeout_ms: None,
            };
            black_box(counted(complete, || model.complete(&request)).is_ok());
            let parsed = counted(parse, || dio_promql::parse(&response.query));
            black_box(counted(execute, || sandbox.execute(&response.query, ts)).is_ok());
            let hints: Vec<PanelSpecHint> = parsed
                .map(|e| e.metric_names())
                .unwrap_or_default()
                .iter()
                .filter_map(|n| db.metric(n))
                .map(|m| PanelSpecHint {
                    name: m.name.clone(),
                    title: format!("{} ({})", m.procedure_display, m.name),
                    is_counter: m.counter_type.is_counter(),
                })
                .collect();
            let range = TimeRange::last(ts, config.dashboard_span_ms, 60);
            black_box(counted(dashboard, || {
                generate_dashboard(&q.text, &hints, Some(&response.query), range)
            }));
        }
    }

    // Per pass, so that work a first pass does once (a cache filling, a
    // family registered) shows as the two passes disagreeing.
    let asks = exp.questions.len() as f64;
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "allocs/ask", "pass 1", "pass 2", "ceiling", "bytes/ask"
    );
    let mut over = Vec::new();
    for (i, (name, ceiling)) in LAYERS.iter().enumerate() {
        let [first, second] = ledger.map(|pass| pass[i].allocs as f64 / asks);
        let bytes = ledger.iter().map(|pass| pass[i].bytes).sum::<u64>();
        let bytes = bytes as f64 / (PASSES as f64 * asks);
        println!("{name:<22} {first:>10.2} {second:>10.2} {ceiling:>10.2} {bytes:>10.0}");
        if first.max(second) > *ceiling || (first - second).abs() > 0.005 * first {
            over.push(format!(
                "{name}: {first:.2} / {second:.2} against {ceiling:.2}"
            ));
        }
    }
    assert!(
        over.is_empty(),
        "allocations per ask over their ceiling, or apart by > 0.5 % between passes: {over:?}"
    );
}
