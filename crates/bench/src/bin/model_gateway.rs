//! `model_gateway` — measure the model-plane gateway against the
//! plain serving tier on a duplicate-heavy question mix.
//!
//! Operator question streams are heavily redundant: the same handful
//! of questions arrives rephrased, re-cased, and re-punctuated from
//! many tenants and auto-refreshing dashboards. The gateway exploits
//! that redundancy in three layers — singleflight coalescing of
//! concurrent identicals, bounded-delay batching of overlapping model
//! calls (shared prompt prefix billed once), and a semantic answer
//! cache serving embedding neighbors above a similarity floor.
//!
//! Phases:
//!
//! 1. **sequential probe** — a lone copilot answers every unique
//!    question (ground truth + per-ask cost/latency calibration), then
//!    every candidate paraphrase; a paraphrase is only admitted into
//!    the schedule when its fresh-computed correctness matches the
//!    original's (so EX parity below is structural, not lucky);
//! 2. **baseline** — the duplicate-heavy schedule through
//!    [`QueryService::spawn`] (answer cache on, no gateway);
//! 3. **gateway** — the same schedule through
//!    [`QueryService::spawn_gateway`];
//! 4. **deadline drill** — an undersized gateway service takes a burst
//!    under a tight calibrated deadline; traces are audited for model
//!    calls after a lapse and answers past the budget.
//!
//! Gates: EX delta exactly 0 between the passes, ≥ 3x fewer upstream
//! model calls, ≥ 2x lower cost per answered question, zero healthy
//! answers past a lapsed deadline, zero model calls after a lapse.
//!
//! Flags: `--quick` (small world), `--concurrency=N` (default 8),
//! `--seed=S` (schedule shuffle seed).
//!
//! Writes `results/BENCH_gateway.json`.

use dio_bench::{flag_value, percentile, quick_flag, Experiment};
use dio_benchmark::eval::numeric_match;
use dio_benchmark::WorldConfig;
use dio_gateway::FlushTrigger;
use dio_llm::{BatchExpander, FoundationModel, ModelProfile, SimulatedModel};
use dio_obs::{TraceRecord, TraceStatus};
use dio_serve::{
    BrownoutConfig, GatewayConfig, QueryRequest, QueryService, ServeConfig, ServeOutcome,
    ShedReason, TenantPolicy,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::{Duration, Instant};

const TENANTS: [&str; 4] = ["noc-east", "noc-west", "core-eng", "dashboards"];
/// Punctuation-only paraphrase suffixes: same content words (identical
/// embedding, cosine 1.0) but distinct normalized cache keys.
const PARAPHRASE_SUFFIXES: [&str; 3] = [" ?", " ??", " ???"];
/// Deadline-drill calibration (same scheme as `overload_drill`).
const DEADLINE_MULT: u32 = 3;
const DEADLINE_FLOOR: Duration = Duration::from_millis(5);
const AUDIT_GRACE_MICROS: u64 = 25_000;

/// One schedule entry: a question text plus the unique it derives from
/// (for scoring against that unique's reference).
#[derive(Clone)]
struct Entry {
    text: String,
    unique: usize,
    class: &'static str,
}

#[derive(Debug, Clone, Serialize)]
struct PassPanel {
    pass: String,
    requests: usize,
    answered: usize,
    shed: usize,
    correct: usize,
    ex_percent: f64,
    wall_seconds: f64,
    qps: f64,
    /// Upstream model calls actually made (baseline: every pipeline
    /// inference; gateway: batched calls leaving the gateway).
    model_calls: f64,
    cost_cents: f64,
    cost_cents_per_answer: f64,
    answer_cache_hits: usize,
    semantic_hits: usize,
    coalesced: usize,
    /// Submit-to-reply latency (queue wait + service time).
    p50_micros: f64,
    p95_micros: f64,
    p99_micros: f64,
}

#[derive(Debug, Clone, Serialize)]
struct BatchingPanel {
    upstream_calls: f64,
    batches: usize,
    flushes: usize,
    mean_flush_size: f64,
    flush_full: usize,
    flush_due: usize,
    flush_deadline: usize,
    flush_assembled: usize,
    /// Longest queue wait among each flush's items
    /// (`FlushRecord::waited_micros`), over the pass's flushes.
    flush_waited_p50_micros: f64,
    flush_waited_p95_micros: f64,
    prefix_tokens_saved: usize,
    prefix_saved_cents: f64,
}

#[derive(Debug, Clone, Serialize)]
struct SingleflightPanel {
    leaders: u64,
    followers: u64,
    abandoned: u64,
    timeouts: u64,
}

#[derive(Debug, Clone, Serialize)]
struct SemanticPanel {
    hits: u64,
    misses: u64,
    rejects: u64,
    invalidations: u64,
    floor: f32,
}

#[derive(Debug, Clone, Serialize)]
struct DeadlinePanel {
    deadline_micros: u64,
    requests: usize,
    answered_ok: usize,
    answered_degraded: usize,
    shed: usize,
    /// Healthy answers delivered after their own budget had lapsed
    /// (gated to 0).
    late_healthy_answers: usize,
    /// `model_call` trace events recorded after a `deadline_exceeded`
    /// event on the same trace (gated to 0).
    model_calls_after_lapse: usize,
    deadline_exceeded_traces: usize,
    /// Items the gateway failed locally because their deadline lapsed
    /// in its queue (never sent upstream).
    queue_lapsed: f64,
    /// Flush-log conservation: batched + lapsed items must equal the
    /// requests the gateway admitted.
    flush_log_entries: usize,
}

#[derive(Debug, Clone, Serialize)]
struct ClassCount {
    class: String,
    count: usize,
}

#[derive(Debug, Clone, Serialize)]
struct GatewayArtifact {
    bench: String,
    quick: bool,
    concurrency: usize,
    seed: u64,
    uniques: usize,
    paraphrase_candidates: usize,
    paraphrases_admitted: usize,
    schedule_len: usize,
    schedule_mix: Vec<ClassCount>,
    passes: Vec<PassPanel>,
    batching: BatchingPanel,
    singleflight: SingleflightPanel,
    semantic: SemanticPanel,
    deadline: DeadlinePanel,
    model_call_reduction: f64,
    cost_per_answer_reduction: f64,
    ex_delta_gateway_vs_baseline: i64,
}

fn upstream() -> Box<dyn FoundationModel> {
    Box::new(BatchExpander::new(SimulatedModel::new(
        ModelProfile::gpt4_sim(),
    )))
}

/// Audit finished traces: once `deadline_exceeded` is on a trace no
/// `model_call` may follow it. Returns `(after_lapse, lapsed_traces)`.
fn audit_deadline_work(traces: &[TraceRecord]) -> (usize, usize) {
    let mut after_lapse = 0usize;
    let mut lapsed_traces = 0usize;
    for t in traces.iter().filter(|t| t.finished) {
        if t.status == TraceStatus::DeadlineExceeded {
            lapsed_traces += 1;
        }
        let mut lapsed = false;
        for e in &t.events {
            match e.name.as_str() {
                "deadline_exceeded" => lapsed = true,
                "model_call" if lapsed => after_lapse += 1,
                _ => {}
            }
        }
    }
    (after_lapse, lapsed_traces)
}

/// Submit the schedule in two waves (uniques first, duplicates after —
/// so the caches the duplicates target actually exist), score EX
/// against each entry's unique reference, and read the pass's model
/// calls + cost off the service.
fn run_schedule(
    service: &QueryService,
    schedule: &[Entry],
    uniques: usize,
    refs: &[f64],
    eval_ts: i64,
    pass: &str,
    gateway: bool,
) -> PassPanel {
    let started = Instant::now();
    let mut answered = 0usize;
    let mut refused = 0usize;
    let mut shed = 0usize;
    let mut correct = 0usize;
    let mut cache_hits = 0usize;
    let mut semantic_hits = 0usize;
    let mut coalesced = 0usize;
    let mut latencies: Vec<f64> = Vec::with_capacity(schedule.len());
    {
        let mut score = |entry: &Entry, outcome: ServeOutcome| match outcome {
            ServeOutcome::Answered(a) => {
                answered += 1;
                latencies.push((a.queue_wait + a.service_time).as_micros() as f64);
                if a.answer_cache_hit {
                    cache_hits += 1;
                }
                if a.semantic_cache_hit {
                    semantic_hits += 1;
                }
                if a.coalesced {
                    coalesced += 1;
                }
                if a.response
                    .numeric_answer
                    .map(|v| numeric_match(v, refs[entry.unique]))
                    .unwrap_or(false)
                {
                    correct += 1;
                }
            }
            ServeOutcome::Shed(_) => shed += 1,
        };
        for wave in [&schedule[..uniques], &schedule[uniques..]] {
            let tickets: Vec<_> = wave
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let tenant = TENANTS[i % TENANTS.len()];
                    (
                        e,
                        service
                            .submit(QueryRequest::new(tenant, &e.text, eval_ts))
                            .ok(),
                    )
                })
                .collect();
            for (e, t) in tickets {
                match t {
                    Some(t) => score(e, t.wait()),
                    None => refused += 1,
                }
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    shed += refused;
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let snap = service.obs().registry().snapshot();
    let (model_calls, cost_cents) = if gateway {
        let ledger = service
            .gateway_stats()
            .expect("gateway plane present")
            .ledger;
        (
            snap.total("dio_gateway_upstream_calls_total"),
            ledger.total_usd() * 100.0,
        )
    } else {
        (
            snap.total("dio_llm_model_calls_total"),
            snap.total("dio_llm_cost_cents_total"),
        )
    };
    PassPanel {
        pass: pass.to_string(),
        requests: schedule.len(),
        answered,
        shed,
        correct,
        ex_percent: 100.0 * correct as f64 / schedule.len().max(1) as f64,
        wall_seconds: wall,
        qps: answered as f64 / wall.max(1e-9),
        model_calls,
        cost_cents,
        cost_cents_per_answer: cost_cents / answered.max(1) as f64,
        answer_cache_hits: cache_hits,
        semantic_hits,
        coalesced,
        p50_micros: percentile(&latencies, 0.50),
        p95_micros: percentile(&latencies, 0.95),
        p99_micros: percentile(&latencies, 0.99),
    }
}

fn open_config(workers: usize, depth: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_depth: depth,
        tenant: TenantPolicy::unlimited(),
        // Occupancy pins at 1.0 under burst submission by design;
        // brownout degradation would muddy the EX-parity comparison.
        brownout: BrownoutConfig::disabled(),
        ..ServeConfig::default()
    }
}

fn main() {
    let quick = quick_flag();
    let concurrency: usize = flag_value("concurrency")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let seed: u64 = flag_value("seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x9a7e_ca11);

    // Question budget: `uniques` seed the schedule, `extras` feed the
    // coalescing burst, `drill` feeds the deadline phase.
    let (uniques, extras, drill_n, dup_target) = if quick {
        (16usize, 4usize, 12usize, 48usize)
    } else {
        (60usize, 8usize, 40usize, 200usize)
    };
    eprintln!("building world ({})…", if quick { "quick" } else { "full" });
    let config = if quick {
        WorldConfig::small()
    } else {
        WorldConfig::default()
    };
    let exp = Experiment::with_config(config, uniques + extras + drill_n);
    let eval_ts = exp.world.eval_ts;
    let unique_qs = &exp.questions[..uniques];
    let extra_qs = &exp.questions[uniques..uniques + extras];
    let drill_qs = &exp.questions[uniques + extras..];

    // Phase 1: sequential ground truth + paraphrase calibration. The
    // simulated models hash the *raw* question text into their noise,
    // so a re-punctuated paraphrase freshly computed by the baseline
    // can land on a different answer than its original. Admitting only
    // parity-checked paraphrases makes "EX delta 0" a structural
    // property of the schedule rather than a coin flip: the gateway
    // serves the neighbor's answer, the baseline recomputes — both
    // score identically either way.
    eprintln!("sequential probe ({uniques} uniques)…");
    let mut sequential = exp.copilot(Experiment::gpt4());
    let seq_started = Instant::now();
    let refs: Vec<f64> = exp.questions.iter().map(|q| q.reference.numeric).collect();
    let original_ok: Vec<bool> = unique_qs
        .iter()
        .map(|q| {
            sequential
                .ask(&q.text, eval_ts)
                .numeric_answer
                .map(|v| numeric_match(v, q.reference.numeric))
                .unwrap_or(false)
        })
        .collect();
    let per_ask = seq_started.elapsed() / uniques.max(1) as u32;
    let mut calibrator = exp.copilot(Experiment::gpt4());
    let mut admitted: Vec<(usize, String)> = Vec::new();
    let mut candidates = 0usize;
    for (i, q) in unique_qs.iter().enumerate() {
        for suffix in PARAPHRASE_SUFFIXES {
            let text = format!("{}{}", q.text.trim_end_matches('?').trim_end(), suffix);
            candidates += 1;
            let ok = calibrator
                .ask(&text, eval_ts)
                .numeric_answer
                .map(|v| numeric_match(v, q.reference.numeric))
                .unwrap_or(false);
            if ok == original_ok[i] {
                admitted.push((i, text));
            }
        }
    }
    eprintln!(
        "  {}/{} paraphrases admitted ({:?}/ask)",
        admitted.len(),
        candidates,
        per_ask
    );

    // The duplicate-heavy schedule: every unique once (wave 1), then a
    // shuffled mix of exact repeats, noisy-cased repeats, admitted
    // paraphrases, and a concurrent-identical burst on the held-out
    // extras (wave 2).
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut schedule: Vec<Entry> = unique_qs
        .iter()
        .enumerate()
        .map(|(i, q)| Entry {
            text: q.text.clone(),
            unique: i,
            class: "unique",
        })
        .collect();
    // Duplicate budget: everything between the unique wave and the
    // coalescing burst. Paraphrases get at most two thirds of it so
    // exact and noisy-cased repeats (answer-cache traffic) stay in the
    // mix.
    let dup_budget = dup_target.saturating_sub(uniques + 4 * extras);
    let mut dups: Vec<Entry> = Vec::new();
    for (i, text) in admitted.iter().take(2 * dup_budget / 3) {
        dups.push(Entry {
            text: text.clone(),
            unique: *i,
            class: "paraphrase",
        });
    }
    while dups.len() < dup_budget {
        let i = rng.gen_range(0..uniques);
        let q = &unique_qs[i];
        dups.push(if rng.gen_bool(0.5) {
            Entry {
                text: q.text.clone(),
                unique: i,
                class: "exact",
            }
        } else {
            Entry {
                text: format!("  {}  ", q.text.to_uppercase()),
                unique: i,
                class: "noisy",
            }
        });
    }
    dups.shuffle(&mut rng);
    // Coalescing burst: 4 identical copies of each held-out extra,
    // submitted back-to-back — they miss every cache and overlap in
    // flight, so the gateway pass coalesces where the baseline
    // recomputes.
    for (j, q) in extra_qs.iter().enumerate() {
        for _ in 0..4 {
            dups.push(Entry {
                text: q.text.clone(),
                unique: uniques + j,
                class: "burst",
            });
        }
    }
    schedule.extend(dups);
    let n = schedule.len();
    let schedule_mix: Vec<ClassCount> = ["unique", "exact", "noisy", "paraphrase", "burst"]
        .iter()
        .map(|c| ClassCount {
            class: c.to_string(),
            count: schedule.iter().filter(|e| e.class == *c).count(),
        })
        .collect();
    eprintln!(
        "schedule: {n} requests over {} uniques ({})",
        uniques + extras,
        schedule_mix
            .iter()
            .map(|c| format!("{} {}", c.count, c.class))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Phase 2: the plain serving tier.
    eprintln!("baseline pass (concurrency {concurrency})…");
    let baseline_service = QueryService::spawn(
        &exp.copilot(Experiment::gpt4()),
        Experiment::gpt4,
        open_config(concurrency, n.max(64)),
    );
    let baseline = run_schedule(
        &baseline_service,
        &schedule,
        uniques,
        &refs,
        eval_ts,
        "baseline",
        false,
    );
    baseline_service.shutdown();
    eprintln!(
        "  baseline: EX {}/{}, {:.0} model calls, {:.2}¢, {:.2}s",
        baseline.correct, n, baseline.model_calls, baseline.cost_cents, baseline.wall_seconds
    );

    // Phase 3: the same schedule through the gateway.
    eprintln!("gateway pass…");
    let gateway_service = QueryService::spawn_gateway(
        &exp.copilot(Experiment::gpt4()),
        upstream(),
        open_config(concurrency, n.max(64)),
        GatewayConfig::default(),
    );
    let gateway = run_schedule(
        &gateway_service,
        &schedule,
        uniques,
        &refs,
        eval_ts,
        "gateway",
        true,
    );
    let stats = gateway_service
        .gateway_stats()
        .expect("gateway plane present");
    let sem_cfg = GatewayConfig::default().semantic.expect("default floor");
    gateway_service.shutdown();
    let flushes = stats.flush_log.len();
    let flushed_items: usize = stats.flush_log.iter().map(|f| f.size).sum();
    let flushed_by = |trigger: FlushTrigger| {
        stats
            .flush_log
            .iter()
            .filter(|f| f.trigger == trigger)
            .count()
    };
    let mut flush_waits: Vec<f64> = stats
        .flush_log
        .iter()
        .map(|f| f.waited_micros as f64)
        .collect();
    flush_waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let batching = BatchingPanel {
        upstream_calls: gateway.model_calls,
        batches: stats.ledger.batches(),
        flushes,
        mean_flush_size: flushed_items as f64 / flushes.max(1) as f64,
        flush_full: flushed_by(FlushTrigger::Full),
        flush_due: flushed_by(FlushTrigger::Due),
        flush_deadline: flushed_by(FlushTrigger::Deadline),
        flush_assembled: flushed_by(FlushTrigger::Assembled),
        flush_waited_p50_micros: percentile(&flush_waits, 0.50),
        flush_waited_p95_micros: percentile(&flush_waits, 0.95),
        prefix_tokens_saved: stats.ledger.prefix_tokens_saved(),
        prefix_saved_cents: stats
            .ledger
            .prefix_saved_usd(SimulatedModel::new(ModelProfile::gpt4_sim()).pricing())
            * 100.0,
    };
    let semantic = stats.semantic.expect("semantic layer on by default");
    eprintln!(
        "  gateway: EX {}/{}, {:.0} upstream calls, {:.2}¢, {:.2}s ({} semantic hits, {} coalesced, mean flush {:.2}, flush wait p50 {:.0}µs)",
        gateway.correct,
        n,
        gateway.model_calls,
        gateway.cost_cents,
        gateway.wall_seconds,
        gateway.semantic_hits,
        gateway.coalesced,
        batching.mean_flush_size,
        batching.flush_waited_p50_micros
    );

    // Phase 4: tight-deadline burst through an undersized gateway
    // service; every answer and trace audited for post-lapse work.
    let drill_deadline = (per_ask * DEADLINE_MULT).max(DEADLINE_FLOOR);
    eprintln!("deadline drill ({drill_n} requests, deadline {drill_deadline:?})…");
    let drill_service = QueryService::spawn_gateway(
        &exp.copilot(Experiment::gpt4()),
        upstream(),
        ServeConfig {
            workers: 2,
            queue_depth: drill_n.max(16),
            default_deadline: drill_deadline,
            tenant: TenantPolicy::unlimited(),
            brownout: BrownoutConfig::disabled(),
            ..ServeConfig::default()
        },
        GatewayConfig::default(),
    );
    let drill_tickets: Vec<_> = drill_qs
        .iter()
        .enumerate()
        .map(|(i, q)| {
            drill_service
                .submit(QueryRequest::new(
                    TENANTS[i % TENANTS.len()],
                    &q.text,
                    eval_ts,
                ))
                .ok()
        })
        .collect();
    let mut answered_ok = 0usize;
    let mut answered_degraded = 0usize;
    let mut drill_shed = 0usize;
    let mut late_healthy = 0usize;
    let grace = Duration::from_micros(AUDIT_GRACE_MICROS);
    for t in drill_tickets {
        match t.map(|t| t.wait()) {
            Some(ServeOutcome::Answered(a)) => {
                if a.response.error.is_none() {
                    answered_ok += 1;
                    if a.queue_wait + a.service_time > drill_deadline + grace {
                        late_healthy += 1;
                    }
                } else {
                    answered_degraded += 1;
                }
            }
            Some(ServeOutcome::Shed(s)) => {
                assert!(
                    matches!(
                        s.reason,
                        ShedReason::DeadlineExpired | ShedReason::QueueFull
                    ),
                    "unexpected drill shed: {:?}",
                    s.reason
                );
                drill_shed += 1;
            }
            None => drill_shed += 1,
        }
    }
    let traces = drill_service.obs().tracer().recent(4096);
    let (after_lapse, lapsed_traces) = audit_deadline_work(&traces);
    let drill_stats = drill_service.gateway_stats().expect("gateway stats");
    let drill_snap = drill_service.obs().registry().snapshot();
    let queue_lapsed = drill_snap.total("dio_gateway_queue_lapsed_total");
    drill_service.shutdown();
    let deadline = DeadlinePanel {
        deadline_micros: drill_deadline.as_micros() as u64,
        requests: drill_n,
        answered_ok,
        answered_degraded,
        shed: drill_shed,
        late_healthy_answers: late_healthy,
        model_calls_after_lapse: after_lapse,
        deadline_exceeded_traces: lapsed_traces,
        queue_lapsed,
        flush_log_entries: drill_stats.flush_log.len(),
    };
    eprintln!(
        "  drill: {answered_ok} ok, {answered_degraded} degraded, {drill_shed} shed, {lapsed_traces} lapsed traces, {after_lapse} post-lapse model calls, {late_healthy} late answers"
    );

    // Assemble + gate.
    let call_reduction = baseline.model_calls / gateway.model_calls.max(1.0);
    let cost_reduction = baseline.cost_cents_per_answer / gateway.cost_cents_per_answer.max(1e-9);
    let ex_delta = gateway.correct as i64 - baseline.correct as i64;
    let artifact = GatewayArtifact {
        bench: "model_gateway".into(),
        quick,
        concurrency,
        seed,
        uniques: uniques + extras,
        paraphrase_candidates: candidates,
        paraphrases_admitted: admitted.len(),
        schedule_len: n,
        schedule_mix,
        passes: vec![baseline.clone(), gateway.clone()],
        batching,
        singleflight: SingleflightPanel {
            leaders: stats.leaders,
            followers: stats.followers,
            abandoned: stats.abandoned,
            timeouts: stats.timeouts,
        },
        semantic: SemanticPanel {
            hits: semantic.hits,
            misses: semantic.misses,
            rejects: semantic.rejects,
            invalidations: semantic.invalidations,
            floor: sem_cfg.floor,
        },
        deadline: deadline.clone(),
        model_call_reduction: call_reduction,
        cost_per_answer_reduction: cost_reduction,
        ex_delta_gateway_vs_baseline: ex_delta,
    };
    let path = std::path::PathBuf::from("results").join("BENCH_gateway.json");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&artifact).expect("serialise artifact"),
    )
    .expect("write artifact");
    eprintln!("wrote {}", path.display());

    assert_eq!(
        ex_delta, 0,
        "EX parity violated: baseline {} vs gateway {}",
        baseline.correct, gateway.correct
    );
    assert_eq!(baseline.shed + gateway.shed, 0, "open-config pass shed");
    assert!(
        call_reduction >= 3.0,
        "model calls only reduced {call_reduction:.2}x ({:.0} -> {:.0}), need 3x",
        baseline.model_calls,
        gateway.model_calls
    );
    assert!(
        cost_reduction >= 2.0,
        "cost/answer only reduced {cost_reduction:.2}x ({:.4}¢ -> {:.4}¢), need 2x",
        baseline.cost_cents_per_answer,
        gateway.cost_cents_per_answer
    );
    assert!(
        gateway.semantic_hits > 0,
        "no duplicate was served semantically"
    );
    assert_eq!(
        deadline.late_healthy_answers, 0,
        "a healthy answer was delivered past its lapsed deadline"
    );
    assert_eq!(
        deadline.model_calls_after_lapse, 0,
        "a model call was recorded after the deadline lapsed"
    );
    assert_eq!(stats.timeouts, 0, "a coalesced follower timed out");
    eprintln!(
        "model_gateway ok: calls {call_reduction:.2}x down, cost/answer {cost_reduction:.2}x down, EX delta {ex_delta}"
    );
}
