//! `overload_drill` — deadline propagation, the brownout ladder, and
//! hedged shard reads under a sustained 3x-capacity overload burst.
//!
//! Phases:
//!
//! 1. **parity** — the standard benchmark slice through a healthy
//!    service with the brownout ladder armed: EX must match the
//!    sequential baseline (±1) and the ladder must never engage at
//!    normal load;
//! 2. **overload** — the same undersized service twice (brownout
//!    disabled, then enabled): a hammer loop keeps two workers and an
//!    8-deep queue saturated with p=0.2 model faults and one slow
//!    shard while every request carries a tight deadline. Gates:
//!    every ticket resolves, zero model calls past a lapsed deadline
//!    (trace-verified), and goodput with the ladder ≥ the
//!    binary-shedding baseline;
//! 3. **hedge** — a cluster with one slow primary serves a question
//!    slice after a warm-up: hedged reads must win at least once and
//!    the answers must match an unsharded copilot exactly.
//!
//! Flags: `--quick` (small world, 40 questions), `--seed=S`.
//!
//! Writes `results/BENCH_overload_drill.json`.

use dio_bench::{flag_value, quick_flag, Experiment};
use dio_benchmark::eval::numeric_match;
use dio_cluster::{Cluster, ClusterConfig};
use dio_llm::{FaultConfig, FaultyModel, FoundationModel, ModelProfile, SimulatedModel};
use dio_obs::{TraceRecord, TraceStatus};
use dio_sandbox::StoreResolver;
use dio_serve::{
    BrownoutConfig, QueryRequest, QueryService, ServeConfig, ServeOutcome, ShedReason,
    TenantPolicy,
};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The overload deadline is calibrated at runtime — `DEADLINE_MULT`
/// times the measured per-ask latency of the actual (faulty, sharded)
/// drill pipeline, floored at `DEADLINE_FLOOR`. The hammer keeps the
/// 8-deep/2-worker queue full, so a typical accepted request waits
/// ~4 service times before pickup (~5 end to end): a 3x-mean deadline
/// lets the early pickups answer while the saturated tail provably
/// lapses, at any world size or machine speed. The floor only keeps
/// scheduler jitter from deciding the drill; it has to stay below
/// 3x an ask (~2 ms each on a quick world) or nothing ever lapses.
const DEADLINE_MULT: u32 = 3;
const DEADLINE_FLOOR: Duration = Duration::from_millis(5);
const PROBE_ASKS: usize = 8;
/// Injected (virtual, never slept) read latency on the slow node.
const SLOW_READ_MICROS: u64 = 50_000;
/// Model fault probability for the overload phase.
const FAULT_P: f64 = 0.2;
/// Scheduling grace for the `at_micros` deadline audit: the pipeline
/// checks the budget *before* stamping `model_call`, so a stamp can
/// land a context-switch after a check that passed just under the
/// wire. The event-order audit below has no such slack.
const AUDIT_GRACE_MICROS: u64 = 25_000;

#[derive(Debug, Clone, Serialize)]
struct ParityResult {
    questions: usize,
    sequential_correct: usize,
    serve_correct: usize,
    ex_delta: i64,
    brownout_transitions: f64,
}

#[derive(Debug, Clone, Serialize)]
struct OverloadPass {
    pass: String,
    accepted: usize,
    refused_at_submit: usize,
    answered: usize,
    expired: usize,
    wall_seconds: f64,
    all_tickets_resolved: bool,
    final_brownout_level: String,
    brownout_transitions: f64,
    deadline_exceeded_traces: usize,
    /// `model_call` events recorded after a `deadline_exceeded` event
    /// on the same trace (event-order audit; must be 0).
    model_calls_after_lapse: usize,
    /// `model_call` events stamped later than the request budget plus
    /// scheduling grace (trace-clock audit; must be 0).
    model_calls_past_budget: usize,
    hedge_wins: u64,
    hedge_losses: u64,
    hedge_cancelled: u64,
}

#[derive(Debug, Clone, Serialize)]
struct HedgeResult {
    compared: usize,
    divergent: usize,
    wins: u64,
    losses: u64,
    cancelled: u64,
}

#[derive(Debug, Clone, Serialize)]
struct DrillArtifact {
    bench: String,
    quick: bool,
    seed: u64,
    parity: ParityResult,
    calibrated_deadline_micros: u64,
    overload: Vec<OverloadPass>,
    hedge: HedgeResult,
    goodput_gain_vs_baseline: i64,
}

/// Audit every finished trace: once a `deadline_exceeded` event is on
/// the trace no `model_call` may follow it, and no `model_call` stamp
/// may exceed the request budget (plus scheduling grace). Returns
/// `(after_lapse, past_budget, traces_with_lapse)` where the last
/// counts traces that finished as [`TraceStatus::DeadlineExceeded`]
/// (expired in the queue or aborted mid-pipeline).
fn audit_deadline_work(traces: &[TraceRecord], budget: Duration) -> (usize, usize, usize) {
    let limit = budget.as_micros() as u64 + AUDIT_GRACE_MICROS;
    let mut after_lapse = 0usize;
    let mut past_budget = 0usize;
    let mut lapsed_traces = 0usize;
    for t in traces.iter().filter(|t| t.finished) {
        if t.status == TraceStatus::DeadlineExceeded {
            lapsed_traces += 1;
        }
        let mut lapsed = false;
        for e in &t.events {
            match e.name.as_str() {
                "deadline_exceeded" => {
                    lapsed = true;
                }
                "model_call" => {
                    if lapsed {
                        after_lapse += 1;
                    }
                    let at: u64 = e
                        .attrs
                        .iter()
                        .find(|(k, _)| k == "at_micros")
                        .and_then(|(_, v)| v.parse().ok())
                        .unwrap_or(0);
                    if at > limit {
                        past_budget += 1;
                    }
                }
                _ => {}
            }
        }
    }
    (after_lapse, past_budget, lapsed_traces)
}

fn faulty_model(seed: u64) -> Box<dyn FoundationModel> {
    Box::new(FaultyModel::new(
        SimulatedModel::new(ModelProfile::gpt4_sim()),
        FaultConfig::with_probability(seed, FAULT_P),
    ))
}

/// One overload run: a hammer loop keeps the undersized service
/// saturated until `target` requests are accepted, every request on
/// the tight drill deadline, model faults at p=0.2, one slow shard.
fn overload_pass(
    exp: &Experiment,
    seed: u64,
    brownout: BrownoutConfig,
    deadline: Duration,
    pass: &str,
) -> OverloadPass {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(3)));
    cluster.load_from(&exp.world.store).expect("cluster load");
    cluster.set_read_latency(0, SLOW_READ_MICROS);

    let mut prototype = exp.copilot(faulty_model(seed));
    prototype.attach_store_resolver(cluster.clone() as Arc<dyn StoreResolver>);
    let model_seed = AtomicU64::new(seed.wrapping_mul(0x9e37_79b9));
    let service = QueryService::spawn(
        &prototype,
        move || faulty_model(model_seed.fetch_add(0x1234_5677, Ordering::Relaxed)),
        ServeConfig {
            workers: 2,
            queue_depth: 8,
            default_deadline: deadline,
            tenant: TenantPolicy::unlimited(),
            brownout,
            ..ServeConfig::default()
        },
    );

    let target = 3 * service.config().queue_depth * service.config().workers;
    let started = Instant::now();
    let mut tickets = Vec::with_capacity(target);
    let mut refused = 0usize;
    let mut cursor = 0usize;
    while tickets.len() < target {
        let q = &exp.questions[cursor % exp.questions.len()].text;
        match service.submit(QueryRequest::new(
            format!("tenant-{}", cursor % 4),
            q,
            exp.world.eval_ts,
        )) {
            Ok(t) => {
                tickets.push(t);
                cursor += 1;
            }
            Err(_) => refused += 1,
        }
    }
    let accepted = tickets.len();
    let mut answered = 0usize;
    let mut expired = 0usize;
    let mut resolved = 0usize;
    for t in tickets {
        match t.wait() {
            ServeOutcome::Answered(_) => {
                answered += 1;
                resolved += 1;
            }
            ServeOutcome::Shed(s) => {
                assert_ne!(
                    s.reason,
                    ShedReason::WorkerPanic,
                    "{pass}: a worker died serving the burst"
                );
                if s.reason == ShedReason::DeadlineExpired {
                    expired += 1;
                }
                resolved += 1;
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let snap = service.obs().registry().snapshot();
    let transitions = snap.total("dio_serve_brownout_transitions_total");
    let level = service.brownout_level().label().to_string();
    let traces = service.obs().tracer().recent(4 * (accepted + refused) + 64);
    let (after_lapse, past_budget, lapsed_traces) = audit_deadline_work(&traces, deadline);
    let (wins, losses, cancelled) = cluster.hedge_outcomes();
    service.shutdown();
    OverloadPass {
        pass: pass.to_string(),
        accepted,
        refused_at_submit: refused,
        answered,
        expired,
        wall_seconds: wall,
        all_tickets_resolved: resolved == accepted,
        final_brownout_level: level,
        brownout_transitions: transitions,
        deadline_exceeded_traces: lapsed_traces,
        model_calls_after_lapse: after_lapse,
        model_calls_past_budget: past_budget,
        hedge_wins: wins,
        hedge_losses: losses,
        hedge_cancelled: cancelled,
    }
}

fn main() {
    let quick = quick_flag();
    let seed: u64 = flag_value("seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xd3ad_11fe);

    eprintln!("building world ({})…", if quick { "quick" } else { "full" });
    let exp = if quick {
        Experiment::with_config(dio_benchmark::WorldConfig::small(), 40)
    } else {
        Experiment::standard()
    };
    let eval_ts = exp.world.eval_ts;
    let n = exp.questions.len();

    // ---- Phase 1: EX parity with the ladder armed ------------------
    eprintln!("phase 1: parity — sequential baseline ({n} questions)…");
    let mut sequential = exp.copilot(Experiment::gpt4());
    let mut seq_correct = 0usize;
    for q in &exp.questions {
        let r = sequential.ask(&q.text, eval_ts);
        if r.numeric_answer
            .map(|v| numeric_match(v, q.reference.numeric))
            .unwrap_or(false)
        {
            seq_correct += 1;
        }
    }
    eprintln!("phase 1: parity — serve pass (8 workers, ladder armed)…");
    let service = QueryService::spawn(
        &exp.copilot(Experiment::gpt4()),
        Experiment::gpt4,
        ServeConfig {
            workers: 8,
            // Headroom: the burst occupies at most a quarter of the
            // queue, so a healthy service never trips the ladder.
            queue_depth: 4 * n.max(16),
            tenant: TenantPolicy::unlimited(),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = exp
        .questions
        .iter()
        .map(|q| {
            service
                .submit(QueryRequest::new("parity", &q.text, eval_ts))
                .expect("parity pass must admit")
        })
        .collect();
    let mut serve_correct = 0usize;
    for (t, q) in tickets.into_iter().zip(&exp.questions) {
        if let ServeOutcome::Answered(a) = t.wait() {
            if a.response
                .numeric_answer
                .map(|v| numeric_match(v, q.reference.numeric))
                .unwrap_or(false)
            {
                serve_correct += 1;
            }
        }
    }
    let parity_transitions = service
        .obs()
        .registry()
        .snapshot()
        .total("dio_serve_brownout_transitions_total");
    service.shutdown();
    let parity = ParityResult {
        questions: n,
        sequential_correct: seq_correct,
        serve_correct,
        ex_delta: serve_correct as i64 - seq_correct as i64,
        brownout_transitions: parity_transitions,
    };
    eprintln!(
        "  parity: sequential EX {seq_correct}/{n}, serve EX {serve_correct}/{n}, {} ladder transitions",
        parity_transitions
    );

    // ---- Phase 2: overload, binary shedding vs the ladder ----------
    // Calibrate the drill deadline from the pipeline the overload
    // passes will actually run: faulty model, three shards, one slow
    // primary. A fixed constant is either trivially generous on a
    // small quick world or impossibly tight on the full one.
    let per_ask = {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(3)));
        cluster.load_from(&exp.world.store).expect("cluster load");
        cluster.set_read_latency(0, SLOW_READ_MICROS);
        let mut probe = exp.copilot(faulty_model(seed ^ 0x5eed));
        probe.attach_store_resolver(cluster as Arc<dyn StoreResolver>);
        // Time only the asks — cluster construction and the store
        // copy above are one-off costs the served requests never pay.
        let probe_started = Instant::now();
        for q in exp.questions.iter().take(PROBE_ASKS) {
            probe.ask(&q.text, eval_ts);
        }
        probe_started.elapsed() / PROBE_ASKS as u32
    };
    let drill_deadline = (per_ask * DEADLINE_MULT).max(DEADLINE_FLOOR);
    eprintln!(
        "phase 2: calibrated deadline {:?} ({:?}/ask probe)",
        drill_deadline, per_ask
    );
    eprintln!("phase 2: overload baseline (brownout disabled)…");
    let baseline = overload_pass(
        &exp,
        seed,
        BrownoutConfig::disabled(),
        drill_deadline,
        "overload_baseline",
    );
    eprintln!(
        "  baseline: {}/{} answered, {} expired, level {}, {:.2}s",
        baseline.answered,
        baseline.accepted,
        baseline.expired,
        baseline.final_brownout_level,
        baseline.wall_seconds
    );
    eprintln!("phase 2: overload with the brownout ladder…");
    let browned = overload_pass(
        &exp,
        seed.wrapping_add(1),
        BrownoutConfig::default(),
        drill_deadline,
        "overload_brownout",
    );
    eprintln!(
        "  brownout: {}/{} answered, {} expired, level {}, {} transitions, {:.2}s",
        browned.answered,
        browned.accepted,
        browned.expired,
        browned.final_brownout_level,
        browned.brownout_transitions,
        browned.wall_seconds
    );

    // ---- Phase 3: hedged reads against a slow primary --------------
    eprintln!("phase 3: hedged reads (one slow primary)…");
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(2)));
    cluster.load_from(&exp.world.store).expect("cluster load");
    let mut hedged = exp.copilot(Experiment::gpt4());
    hedged.attach_store_resolver(cluster.clone() as Arc<dyn StoreResolver>);
    let mut reference = exp.copilot(Experiment::gpt4());
    let slice = exp.questions.len().min(30);
    // Warm the rolling latency window with fast reads so the hedge
    // delay settles at its floor before the primary turns slow.
    for q in exp.questions.iter().take(slice) {
        hedged.ask(&q.text, eval_ts);
    }
    cluster.set_read_latency(0, SLOW_READ_MICROS);
    let mut divergent = 0usize;
    for q in exp.questions.iter().take(slice) {
        let a = hedged.ask(&q.text, eval_ts);
        let b = reference.ask(&q.text, eval_ts);
        if a.numeric_answer != b.numeric_answer {
            divergent += 1;
            eprintln!(
                "  DIVERGED on {:?}: hedged {:?} vs reference {:?}",
                q.text, a.numeric_answer, b.numeric_answer
            );
        }
    }
    let (wins, losses, cancelled) = cluster.hedge_outcomes();
    let hedge = HedgeResult {
        compared: slice,
        divergent,
        wins,
        losses,
        cancelled,
    };
    eprintln!(
        "  hedge: {wins} wins, {losses} losses, {cancelled} cancelled, {divergent}/{slice} divergent"
    );

    // Assemble + gate.
    let goodput_gain = browned.answered as i64 - baseline.answered as i64;
    let artifact = DrillArtifact {
        bench: "overload_drill".into(),
        quick,
        seed,
        parity: parity.clone(),
        calibrated_deadline_micros: drill_deadline.as_micros() as u64,
        overload: vec![baseline.clone(), browned.clone()],
        hedge: hedge.clone(),
        goodput_gain_vs_baseline: goodput_gain,
    };
    let path = std::path::PathBuf::from("results").join("BENCH_overload_drill.json");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&artifact).expect("serialise artifact"),
    )
    .expect("write artifact");
    eprintln!("wrote {}", path.display());

    // Hard gates.
    assert!(
        parity.ex_delta.abs() <= 1,
        "EX parity violated: sequential {seq_correct}, serve {serve_correct}"
    );
    assert_eq!(
        parity.brownout_transitions, 0.0,
        "the ladder engaged on a healthy, uncontended service"
    );
    // Only the binary-shedding baseline must overrun deadlines — the
    // ladder's entire job is to degrade early enough that requests
    // finish inside their budget, so lapses there are allowed but not
    // required. The zero-work-past-lapse audits still bind both.
    assert!(
        baseline.deadline_exceeded_traces > 0,
        "overload_baseline: the drill never drove a request past its deadline"
    );
    for p in [&baseline, &browned] {
        assert!(p.all_tickets_resolved, "{}: an accepted ticket was lost", p.pass);
        assert_eq!(
            p.model_calls_after_lapse, 0,
            "{}: a model call was recorded after the deadline lapsed",
            p.pass
        );
        assert_eq!(
            p.model_calls_past_budget, 0,
            "{}: a model call was stamped past the request budget",
            p.pass
        );
    }
    assert_eq!(
        baseline.brownout_transitions, 0.0,
        "the disabled ladder must never move"
    );
    assert!(
        browned.brownout_transitions >= 1.0,
        "sustained overload must engage the ladder"
    );
    assert!(
        goodput_gain >= 0,
        "brownout goodput {} fell below the binary-shedding baseline {}",
        browned.answered,
        baseline.answered
    );
    assert!(hedge.wins >= 1, "the slow primary never lost a hedge race");
    assert_eq!(
        hedge.divergent, 0,
        "hedged reads diverged from the unsharded reference"
    );
    eprintln!(
        "overload_drill ok: goodput {} vs {} baseline (+{goodput_gain}), {} hedge wins, EX delta {}",
        browned.answered, baseline.answered, hedge.wins, parity.ex_delta
    );
}
