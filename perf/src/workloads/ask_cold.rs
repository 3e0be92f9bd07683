//! `ask_cold`: the paper's single-operator loop. One client asks the
//! 200 benchmark questions of the standard world, in seeded order, with
//! no answer cache in front. Retrieval (embed → flat search → MMR) does
//! nearly all the work; serve, gateway and cluster are bypassed and
//! promql/tsdb are barely touched.

use crate::report::{Check, OpLog, Outcome};
use crate::spans::Recorder;
use crate::world::{
    gpt4_sim, log_ask, rng, run_passes, timed_setup, Digest, Experiment, WARMUP_OPS,
};
use crate::{baseline, stats, RunArgs};
use dio_benchmark::WorldConfig;
use dio_catalog::DomainDb;
use dio_copilot::{CopilotConfig, DioCopilot};
use dio_dashboard::{generate_dashboard, PanelSpecHint, TimeRange};
use dio_llm::{
    CompletionRequest, ContextItem, FoundationModel, PromptBuilder, SimulatedModel, TaskKind,
};
use dio_obs::to_prometheus;
use dio_sandbox::{SafetyPolicy, Sandbox};
use dio_vecstore::{FlatIndex, VectorIndex};
use rand::seq::SliceRandom;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Questions in the pool (the paper's 200).
const QUESTIONS: usize = 200;
/// Whole passes over the pool an untraced run makes at least.
const MIN_PASSES: usize = 2;
/// The registry export is timed on every this-many-th traced op.
const EXPORT_EVERY: u64 = 20;

/// Mirrors of two private items of `dio_copilot::pipeline`, so the
/// prompt this file builds costs what the pipeline's does.
const SYSTEM_PROMPT: &str = "You are DIO copilot, a natural language interface for retrieval \
and analytics tasks on 5G operator data. Use only metrics from CONTEXT. Answer with PromQL.";

fn first_sentence(text: &str) -> String {
    match text.find(". ") {
        Some(i) => text[..=i].to_string(),
        None => text.to_string(),
    }
}

struct State {
    exp: Experiment,
    copilot: DioCopilot,
    /// Question indices in seeded order; reshuffled every pass.
    order: Vec<usize>,
}

/// The layers a traced run calls itself, outside the copilot.
struct Probes {
    db: DomainDb,
    config: CopilotConfig,
    /// A copy of the corpus vectors, searched on its own so the flat
    /// scan can be told apart from MMR.
    flat: FlatIndex,
    model: SimulatedModel,
    sandbox: Sandbox,
}

impl Probes {
    fn build(state: &State) -> Self {
        let db = state.exp.world.domain_db();
        let extractor = state.copilot.extractor();
        let vectors: Vec<_> = db
            .text_samples()
            .iter()
            .map(|s| extractor.embed_question(&s.embedding_text()))
            .collect();
        let dims = vectors.first().map_or(1, |v| v.dims());
        Probes {
            flat: FlatIndex::from_vectors(dims, vectors),
            model: gpt4_sim(),
            sandbox: Sandbox::new(state.exp.world.store.clone(), SafetyPolicy::default()),
            config: CopilotConfig::default(),
            db,
        }
    }
}

/// Per-op measurements of a traced pass, microseconds unless named.
#[derive(Default)]
struct Samples {
    ask: Vec<f64>,
    embed: Vec<f64>,
    search: Vec<f64>,
    retrieve: Vec<f64>,
    mmr: Vec<f64>,
    prompt_build: Vec<f64>,
    complete: Vec<f64>,
    parse: Vec<f64>,
    execute: Vec<f64>,
    dashboard: Vec<f64>,
    export: Vec<f64>,
    stage: BTreeMap<&'static str, Vec<f64>>,
    layer_sum_us: f64,
    ask_sum_us: f64,
    repairs: u64,
    degraded: u64,
    sandbox_runs: u64,
    sandbox_rejected: u64,
    prompt_tokens: u64,
    completion_tokens: u64,
    cost_cents: f64,
    obs_spans: u64,
    /// Question id → digest of the retrieved sample names, in order.
    retrieval: BTreeMap<usize, u64>,
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One traced op: the ask under a root span, then each layer's public
/// call on the same question.
#[allow(clippy::too_many_arguments)]
fn traced_op(
    state: &mut State,
    probes: &mut Probes,
    rec: &mut Recorder,
    s: &mut Samples,
    log: &mut OpLog,
    qi: usize,
    op: u64,
) {
    let q = &state.exp.questions[qi];
    let ts = state.exp.world.eval_ts;
    let copilot = &mut state.copilot;
    rec.enter("op", op);
    let (response, ask) = rec.time("copilot.ask", op, || copilot.ask(&q.text, ts));
    log_ask(log, &response, q.reference.numeric, ask.as_secs_f64() * 1e3);

    let extractor = copilot.extractor();
    let (qvec, embed) = rec.time("embed.question", op, || extractor.embed_question(&q.text));
    let prefetch = 4 * probes.config.top_k;
    let (hits, search) = rec.time("vecstore.search", op, || {
        probes.flat.search(&qvec, prefetch)
    });
    black_box(hits);
    let (retrieved, retrieve) = rec.time("copilot.retrieve_vec", op, || {
        extractor.retrieve_vec(&q.text, Some(&qvec), probes.config.top_k)
    });

    let context: Vec<ContextItem> = retrieved
        .iter()
        .map(|h| ContextItem {
            name: h.sample.name.clone(),
            text: first_sentence(&h.sample.text),
            relevance: h.score,
        })
        .collect();
    let window = probes.model.context_window();
    let reserved = probes.config.max_output_tokens.min(window / 4);
    let (prompt, prompt_build) = rec.time("llm.prompt_build", op, || {
        let mut b = PromptBuilder::new()
            .system(SYSTEM_PROMPT)
            .context(context)
            .examples(
                state
                    .exp
                    .exemplars
                    .iter()
                    .take(probes.config.max_exemplars)
                    .cloned(),
            )
            .question(q.text.as_str())
            .task(TaskKind::GeneratePromql);
        for f in probes.db.functions().take(4) {
            b = b.function(&f.name, first_sentence(&f.description));
        }
        b.build(window, reserved)
    });
    let request = CompletionRequest {
        prompt,
        max_tokens: probes.config.max_output_tokens,
        temperature: probes.config.temperature,
        timeout_ms: None,
    };
    let (completion, complete) = rec.time("llm.complete", op, || probes.model.complete(&request));
    black_box(completion.is_ok());

    // Parse, execute and panel the query the pipeline settled on.
    let (parsed, parse) = rec.time("promql.parse", op, || dio_promql::parse(&response.query));
    let (executed, execute) = rec.time("sandbox.execute", op, || {
        probes.sandbox.execute(&response.query, ts)
    });
    black_box(executed.is_ok());
    let names = parsed.map(|e| e.metric_names()).unwrap_or_default();
    let hints: Vec<PanelSpecHint> = names
        .iter()
        .filter_map(|n| probes.db.metric(n))
        .map(|m| PanelSpecHint {
            name: m.name.clone(),
            title: format!("{} ({})", m.procedure_display, m.name),
            is_counter: m.counter_type.is_counter(),
        })
        .collect();
    let range = TimeRange::last(ts, probes.config.dashboard_span_ms, 60);
    let (dash, dashboard) = rec.time("dashboard.generate", op, || {
        generate_dashboard(&q.text, &hints, Some(&response.query), range)
    });
    black_box(dash);
    if op.is_multiple_of(EXPORT_EVERY) {
        let registry = copilot.obs().registry();
        let (text, export) = rec.time("obs.export", op, || to_prometheus(&registry.snapshot()));
        black_box(text);
        s.export.push(us(export));
    }
    rec.exit();

    s.ask.push(us(ask));
    s.embed.push(us(embed));
    s.search.push(us(search));
    s.retrieve.push(us(retrieve));
    s.mmr.push(us(retrieve) - us(search));
    s.prompt_build.push(us(prompt_build));
    s.complete.push(us(complete));
    s.parse.push(us(parse));
    s.execute.push(us(execute));
    s.dashboard.push(us(dashboard));
    s.ask_sum_us += us(ask);
    s.layer_sum_us += us(embed)
        + us(retrieve)
        + us(prompt_build)
        + us(complete)
        + us(parse)
        + us(execute)
        + us(dashboard);
    for stage in ["retrieve", "generate", "execute", "dashboard"] {
        let micros = response.trace.stage(stage).map_or(0, |a| a.total_micros);
        s.stage.entry(stage).or_default().push(micros as f64);
    }
    let sandbox_runs = response.trace.invocations("execute") as u64;
    s.sandbox_runs += sandbox_runs;
    s.sandbox_rejected += sandbox_runs.saturating_sub(u64::from(response.error.is_none()));
    s.repairs += response.trace.recovery.repairs as u64;
    s.degraded += u64::from(response.trace.recovery.degraded);
    s.prompt_tokens += response.usage.prompt_tokens as u64;
    s.completion_tokens += response.usage.completion_tokens as u64;
    s.cost_cents += response.cost_cents;
    s.obs_spans += response.trace.stages.len() as u64;
    let mut digest = Digest::default();
    for r in &retrieved {
        digest.feed(r.sample.name.as_bytes());
    }
    s.retrieval.insert(q.id, digest.value());
}

fn untraced_pass(state: &mut State, log: &mut OpLog, ops: usize) -> f64 {
    let ts = state.exp.world.eval_ts;
    let started = Instant::now();
    for &qi in &state.order[..ops] {
        let q = &state.exp.questions[qi];
        let t = Instant::now();
        let response = state.copilot.ask(&q.text, ts);
        log_ask(
            log,
            &response,
            q.reference.numeric,
            t.elapsed().as_secs_f64() * 1e3,
        );
    }
    started.elapsed().as_secs_f64()
}

pub fn run(args: &RunArgs, rec: &mut Recorder) -> Outcome {
    let (mut state, setup_s) = timed_setup(args.setup_repeats(), || {
        let exp = Experiment::build(WorldConfig::default(), QUESTIONS);
        let copilot = exp.copilot();
        let mut order: Vec<usize> = (0..exp.questions.len()).collect();
        order.shuffle(&mut rng(args.seed, 0));
        State {
            exp,
            copilot,
            order,
        }
    });
    let mut shuffler = rng(args.seed, 1);
    let pass_ops = if args.smoke {
        QUESTIONS / 10
    } else {
        QUESTIONS
    };
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };

    untraced_pass(&mut state, &mut OpLog::default(), WARMUP_OPS);

    if !args.trace {
        let min_passes = if args.smoke { 1 } else { MIN_PASSES };
        let mut passes = 0u64;
        out.wall_s = run_passes(args.seconds, min_passes, || {
            state.order.shuffle(&mut shuffler);
            passes += 1;
            untraced_pass(&mut state, &mut out.ops, pass_ops)
        });
        out.count("passes", passes);
        check_ex(args, &mut out, passes);
        return out;
    }

    // Traced: one untraced reference pass, then traced passes.
    let mut probes = Probes::build(&state);
    let mut reference = OpLog::default();
    untraced_pass(&mut state, &mut reference, pass_ops);
    let candidates_before = candidates_scanned(&state.copilot);
    let mut s = Samples::default();
    let mut passes = 0u64;
    let mut op = 0u64;
    out.wall_s = run_passes(args.seconds, 1, || {
        state.order.shuffle(&mut shuffler);
        passes += 1;
        let started = Instant::now();
        for i in 0..pass_ops {
            let qi = state.order[i];
            traced_op(&mut state, &mut probes, rec, &mut s, &mut out.ops, qi, op);
            op += 1;
        }
        started.elapsed().as_secs_f64()
    });
    let asks = s.ask.len() as f64;
    let scanned = candidates_scanned(&state.copilot) - candidates_before;
    out.count("passes", passes);

    let l = &mut out.layers;
    l.insert("embed.question_p50_us", stats::p50(&s.embed));
    l.insert("vecstore.search_p50_us", stats::p50(&s.search));
    l.insert("vecstore.candidates_scanned_per_ask", scanned / asks);
    l.insert("copilot.retrieve_p50_us", stats::p50(&s.retrieve));
    l.insert("copilot.mmr_p50_us", stats::p50(&s.mmr));
    l.insert(
        "copilot.stage_retrieve_p50_us",
        stats::p50(&s.stage["retrieve"]),
    );
    l.insert(
        "copilot.stage_generate_p50_us",
        stats::p50(&s.stage["generate"]),
    );
    l.insert(
        "copilot.stage_execute_p50_us",
        stats::p50(&s.stage["execute"]),
    );
    l.insert(
        "copilot.stage_dashboard_p50_us",
        stats::p50(&s.stage["dashboard"]),
    );
    l.insert(
        "copilot.unattributed_share",
        1.0 - stats::share(s.layer_sum_us, s.ask_sum_us),
    );
    l.insert("copilot.repairs_per_ask", s.repairs as f64 / asks);
    l.insert("copilot.degraded_share", s.degraded as f64 / asks);
    l.insert("llm.prompt_build_p50_us", stats::p50(&s.prompt_build));
    l.insert("llm.complete_p50_us", stats::p50(&s.complete));
    l.insert("llm.prompt_tokens_per_ask", s.prompt_tokens as f64 / asks);
    l.insert(
        "llm.completion_tokens_per_ask",
        s.completion_tokens as f64 / asks,
    );
    l.insert("llm.cost_cents_per_ask", s.cost_cents / asks);
    l.insert("promql.parse_p50_us", stats::p50(&s.parse));
    l.insert("sandbox.execute_p50_us", stats::p50(&s.execute));
    l.insert(
        "sandbox.rejected_share",
        stats::share(s.sandbox_rejected as f64, s.sandbox_runs as f64),
    );
    l.insert("dashboard.generate_p50_us", stats::p50(&s.dashboard));
    l.insert("obs.spans_per_ask", s.obs_spans as f64 / asks);
    l.insert("obs.export_p50_us", stats::p50(&s.export));
    out.reference_ms = reference.ok_ms;

    let mut combined = Digest::default();
    for (id, digest) in &s.retrieval {
        combined.feed(&id.to_le_bytes());
        combined.feed(&digest.to_le_bytes());
    }
    out.count("retrieval_digest", combined.value());
    out.count("prompt_tokens", s.prompt_tokens / passes);
    out.count("completion_tokens", s.completion_tokens / passes);
    out.count("repairs", s.repairs / passes);
    out.count("obs_spans", s.obs_spans / passes);
    let by_question: BTreeMap<usize, String> = s
        .retrieval
        .iter()
        .map(|(id, d)| (*id, format!("{d:016x}")))
        .collect();
    out.artifacts.push((
        "retrieval_ask_cold.json".into(),
        serde_json::to_string(&by_question).expect("digests serialise"),
    ));
    if !args.smoke {
        let want = baseline::ASK_COLD_RETRIEVAL_DIGEST;
        out.notes.insert(
            "retrieval_digest_vs_baseline".into(),
            if combined.value() == want {
                "same"
            } else {
                "changed"
            }
            .into(),
        );
        let share = stats::p50(&s.retrieve) / stats::p50(&s.ask);
        out.checks.push(Check::new(
            "unattributed_within_0.10",
            out.layers["copilot.unattributed_share"].abs() <= 0.10,
            format!("{:.4}", out.layers["copilot.unattributed_share"]),
        ));
        out.notes
            .insert("retrieve_share_of_ask_p50".into(), format!("{share:.4}"));
    }
    check_ex(args, &mut out, passes);
    out
}

fn candidates_scanned(copilot: &DioCopilot) -> f64 {
    copilot
        .obs()
        .registry()
        .snapshot()
        .total(dio_copilot::obs::CANDIDATES_NAME)
}

/// The accuracy check of a full run, traced or not.
fn check_ex(args: &RunArgs, out: &mut Outcome, passes: u64) {
    if args.smoke {
        return;
    }
    // Whole passes over a fixed pool: every pass scores the same.
    let per_pass = out.ops.ex_correct / passes;
    out.count("ex_correct_per_pass", per_pass);
    out.checks.push(Check::new(
        "ex_not_below_baseline",
        out.ops.ex_correct == per_pass * passes && per_pass >= baseline::ASK_COLD_EX_CORRECT,
        format!(
            "{per_pass}/{QUESTIONS} correct per pass, baseline {}/{QUESTIONS}",
            baseline::ASK_COLD_EX_CORRECT
        ),
    ));
}
