//! `model_gateway` — measure the model-plane gateway against the
//! plain serving tier on a duplicate-heavy question mix.
//!
//! Operator question streams are heavily redundant: the same handful
//! of questions arrives rephrased, re-cased, and re-punctuated from
//! many tenants and auto-refreshing dashboards. The gateway exploits
//! that redundancy in two layers — singleflight coalescing of
//! concurrent identicals and a semantic answer cache serving embedding
//! neighbors above a similarity floor — in front of a model front-end
//! that sends what still misses upstream as one call per ask.
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
//!    [`QueryService::spawn_gateway`] at its defaults, as the product
//!    runs it;
//! 4. **deadline drill** — an undersized gateway service takes a burst
//!    under a tight calibrated deadline; every accepted request's trace
//!    is audited for model calls after a lapse or past the budget, and
//!    every answer for arriving late.
//!
//! Gates: EX delta exactly 0 between the passes, nothing shed in the
//! open passes, at least one semantic hit, no coalesced follower timed
//! out, zero healthy answers past a lapsed deadline, zero model calls
//! after a lapse. The reductions in upstream calls and in cost per
//! answer are recorded (`model_call_reduction`,
//! `cost_per_answer_reduction`), not gated: what singleflight and the
//! semantic cache save depends on the schedule's mix.
//!
//! Flags: `--quick` (small world), `--seed=S` (schedule shuffle seed).
//!
//! Writes `results/BENCH_gateway.json`.

use dio_bench::drill::{
    audit_traces, deadline_for, requests, scored, sequential, Burst, Drill, Tally,
    TraceAudit, AUDIT_GRACE, TENANTS,
};
use dio_bench::Experiment;
use dio_gateway::SemanticStats;
use dio_llm::{FoundationModel, ModelProfile, SimulatedModel};
use dio_serve::{
    BrownoutConfig, GatewayConfig, QueryRequest, QueryService, ServeConfig, ShedReason,
    TenantPolicy,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workers of the baseline and gateway passes.
const WORKERS: usize = 8;
/// The deadline drill's floor, above the shared drill floor. Its one
/// burst into two workers has a single chance to reach the model: under
/// a deadline of 2–3 ms, a scheduler stall of that size as the burst
/// lands lets every request lapse before its model call, and the trace
/// audit has nothing to check (3 of 100 quick runs on a shared 2-core
/// host; 0 of 100 at 5 ms). The overload drill's saturated stream needs
/// the lower shared floor to lapse at all.
const BURST_DEADLINE_FLOOR: Duration = Duration::from_millis(5);
/// Punctuation-only paraphrase suffixes: same content words (identical
/// embedding, cosine 1.0) but distinct normalized cache keys.
const PARAPHRASE_SUFFIXES: [&str; 3] = [" ?", " ??", " ???"];

/// One schedule entry: a question text plus the unique it derives from
/// (for scoring against that unique's reference).
#[derive(Clone)]
struct Entry {
    text: String,
    unique: usize,
    class: &'static str,
}

fn entry(text: impl Into<String>, unique: usize, class: &'static str) -> Entry {
    Entry { text: text.into(), unique, class }
}

#[derive(Debug, Clone, Serialize)]
struct PassPanel {
    pass: String,
    /// Submit-to-reply outcomes and latencies of the whole schedule.
    tally: Tally,
    ex_percent: f64,
    qps: f64,
    /// Upstream model calls actually made (baseline: every pipeline
    /// inference; gateway: the calls leaving the gateway).
    model_calls: f64,
    cost_cents: f64,
    cost_cents_per_answer: f64,
}

#[derive(Debug, Clone, Serialize)]
struct SingleflightPanel {
    leaders: u64,
    followers: u64,
    abandoned: u64,
    timeouts: u64,
}

#[derive(Debug, Clone, Serialize)]
struct DeadlinePanel {
    deadline_micros: u64,
    tally: Tally,
    answered_ok: usize,
    answered_degraded: usize,
    /// Healthy answers delivered after their own budget had lapsed
    /// (gated to 0).
    late_healthy_answers: usize,
    /// Over every trace of the drill service; `picked_up` must equal
    /// the tally's `accepted`.
    audit: TraceAudit,
    /// Requests the gateway failed locally because their deadline had
    /// lapsed (never sent upstream).
    queue_lapsed: f64,
    /// The gateway's audit records: one per model request it took.
    flush_log_entries: usize,
}

#[derive(Debug, Clone, Serialize)]
struct GatewayArtifact {
    workers: usize,
    uniques: usize,
    paraphrase_candidates: usize,
    paraphrases_admitted: usize,
    schedule_len: usize,
    /// Requests per class: unique, exact, noisy, paraphrase, burst.
    schedule_mix: BTreeMap<String, usize>,
    passes: Vec<PassPanel>,
    singleflight: SingleflightPanel,
    semantic: SemanticStats,
    semantic_floor: f32,
    deadline: DeadlinePanel,
    model_call_reduction: f64,
    cost_per_answer_reduction: f64,
    ex_delta_gateway_vs_baseline: i64,
}

fn upstream() -> Box<dyn FoundationModel> {
    Box::new(SimulatedModel::new(ModelProfile::gpt4_sim()))
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
) -> PassPanel {
    let mut burst = Burst::start();
    for wave in [&schedule[..uniques], &schedule[uniques..]] {
        let wave = wave.iter().enumerate().map(|(i, e)| {
            let tenant = TENANTS[i % TENANTS.len()];
            (QueryRequest::new(tenant, &e.text, eval_ts), refs[e.unique])
        });
        burst.submit_all(service, wave);
        burst.drain(|_| {});
    }
    let tally = burst.finish();
    let snap = service.obs().registry().snapshot();
    let (model_calls, cost_cents) = match service.gateway_stats() {
        Some(stats) => (
            snap.total("dio_gateway_upstream_calls_total"),
            stats.ledger.total_usd() * 100.0,
        ),
        None => (
            snap.total("dio_llm_model_calls_total"),
            snap.total("dio_llm_cost_cents_total"),
        ),
    };
    PassPanel {
        pass: pass.to_string(),
        ex_percent: 100.0 * tally.correct as f64 / schedule.len().max(1) as f64,
        qps: tally.answered as f64 / tally.wall_seconds.max(1e-9),
        model_calls,
        cost_cents,
        cost_cents_per_answer: cost_cents / tally.answered.max(1) as f64,
        tally,
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

fn main() -> ExitCode {
    let mut drill = Drill::from_args("gateway", 0x9a7e_ca11);

    // Question budget: `uniques` seed the schedule, `extras` feed the
    // coalescing burst, `drill` feeds the deadline phase.
    let (uniques, extras, drill_n, dup_target) = if drill.quick {
        (16usize, 4usize, 12usize, 48usize)
    } else {
        (60usize, 8usize, 40usize, 200usize)
    };
    eprintln!("building world ({})…", if drill.quick { "quick" } else { "full" });
    let exp = Experiment::with_config(drill.world(), uniques + extras + drill_n);
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
    let refs: Vec<f64> = exp.questions.iter().map(|q| q.reference.numeric).collect();
    let lone = exp.copilot(Experiment::gpt4());
    let seq_started = Instant::now();
    let original_ok = sequential(&lone, unique_qs, eval_ts, |_| {});
    let drill_deadline = deadline_for(seq_started.elapsed(), uniques).max(BURST_DEADLINE_FLOOR);
    let calibrator = exp.copilot(Experiment::gpt4());
    let mut admitted: Vec<(usize, String)> = Vec::new();
    let mut candidates = 0usize;
    for (i, q) in unique_qs.iter().enumerate() {
        for suffix in PARAPHRASE_SUFFIXES {
            let text = format!("{}{}", q.text.trim_end_matches('?').trim_end(), suffix);
            candidates += 1;
            let ok = scored(calibrator.ask(&text, eval_ts).numeric_answer, q.reference.numeric);
            if ok == original_ok[i] {
                admitted.push((i, text));
            }
        }
    }
    eprintln!("  {}/{candidates} paraphrases admitted", admitted.len());

    // The duplicate-heavy schedule: every unique once (wave 1), then a
    // shuffled mix of exact repeats, noisy-cased repeats, admitted
    // paraphrases, and a concurrent-identical burst on the held-out
    // extras (wave 2).
    let mut rng = ChaCha8Rng::seed_from_u64(drill.seed);
    let mut schedule: Vec<Entry> =
        unique_qs.iter().enumerate().map(|(i, q)| entry(&q.text, i, "unique")).collect();
    // Duplicate budget: everything between the unique wave and the
    // coalescing burst. Paraphrases get at most two thirds of it so
    // exact and noisy-cased repeats (answer-cache traffic) stay in the
    // mix.
    let dup_budget = dup_target.saturating_sub(uniques + 4 * extras);
    let mut dups: Vec<Entry> = admitted
        .iter()
        .take(2 * dup_budget / 3)
        .map(|(i, text)| entry(text, *i, "paraphrase"))
        .collect();
    while dups.len() < dup_budget {
        let i = rng.gen_range(0..uniques);
        let q = &unique_qs[i];
        dups.push(if rng.gen_bool(0.5) {
            entry(&q.text, i, "exact")
        } else {
            entry(format!("  {}  ", q.text.to_uppercase()), i, "noisy")
        });
    }
    dups.shuffle(&mut rng);
    // Coalescing burst: 4 identical copies of each held-out extra,
    // submitted back-to-back — they miss every cache and overlap in
    // flight, so the gateway pass coalesces where the baseline
    // recomputes.
    for (j, q) in extra_qs.iter().enumerate() {
        dups.extend(std::iter::repeat(entry(&q.text, uniques + j, "burst")).take(4));
    }
    schedule.extend(dups);
    let n = schedule.len();
    let mut schedule_mix: BTreeMap<String, usize> = BTreeMap::new();
    for e in &schedule {
        *schedule_mix.entry(e.class.to_string()).or_default() += 1;
    }
    eprintln!("schedule: {n} requests over {} uniques {schedule_mix:?}", uniques + extras);

    // Phase 2: the plain serving tier.
    eprintln!("baseline pass ({WORKERS} workers)…");
    let baseline_service = QueryService::spawn(
        &exp.copilot(Experiment::gpt4()),
        Experiment::gpt4,
        open_config(WORKERS, n.max(64)),
    );
    let baseline = run_schedule(&baseline_service, &schedule, uniques, &refs, eval_ts, "baseline");
    baseline_service.shutdown();
    eprintln!(
        "  baseline: EX {}/{n}, {:.0} model calls, {:.2}¢, {:.2}s",
        baseline.tally.correct, baseline.model_calls, baseline.cost_cents, baseline.tally.wall_seconds
    );

    // Phase 3: the same schedule through the gateway at its defaults.
    eprintln!("gateway pass…");
    let gateway_service = QueryService::spawn_gateway(
        &exp.copilot(Experiment::gpt4()),
        upstream(),
        open_config(WORKERS, n.max(64)),
        GatewayConfig::default(),
    );
    let gateway = run_schedule(&gateway_service, &schedule, uniques, &refs, eval_ts, "gateway");
    let stats = gateway_service
        .gateway_stats()
        .expect("gateway plane present");
    gateway_service.shutdown();
    eprintln!(
        "  gateway: EX {}/{n}, {:.0} upstream calls, {:.2}¢, {:.2}s ({} semantic hits, {} coalesced)",
        gateway.tally.correct,
        gateway.model_calls,
        gateway.cost_cents,
        gateway.tally.wall_seconds,
        gateway.tally.semantic_hits,
        gateway.tally.coalesced
    );

    // Phase 4: tight-deadline burst through an undersized gateway
    // service; every answer and trace audited for post-lapse work.
    eprintln!("deadline drill ({drill_n} requests, deadline {drill_deadline:?})…");
    let drill_service = QueryService::spawn_gateway(
        &exp.copilot(Experiment::gpt4()),
        upstream(),
        ServeConfig {
            default_deadline: drill_deadline,
            ..open_config(2, drill_n.max(16))
        },
        GatewayConfig::default(),
    );
    let mut burst = Burst::start();
    burst.submit_all(&drill_service, requests(drill_qs, eval_ts));
    let (mut answered_ok, mut answered_degraded, mut late_healthy) = (0usize, 0usize, 0usize);
    burst.drain(|a| {
        if a.response.error.is_some() {
            answered_degraded += 1;
        } else {
            answered_ok += 1;
            late_healthy += usize::from(a.queue_wait + a.service_time > drill_deadline + AUDIT_GRACE);
        }
    });
    let deadline = DeadlinePanel {
        deadline_micros: drill_deadline.as_micros() as u64,
        tally: burst.finish(),
        answered_ok,
        answered_degraded,
        late_healthy_answers: late_healthy,
        audit: audit_traces(drill_service.obs().tracer(), drill_deadline),
        queue_lapsed: drill_service
            .obs()
            .registry()
            .snapshot()
            .total("dio_gateway_queue_lapsed_total"),
        flush_log_entries: drill_service.gateway_stats().expect("gateway stats").flush_log.len(),
    };
    drill_service.shutdown();
    eprintln!(
        "  drill: {answered_ok} ok, {answered_degraded} degraded, {late_healthy} late, shed {:?}, audit {:?}",
        deadline.tally.shed, deadline.audit
    );

    let call_reduction = baseline.model_calls / gateway.model_calls.max(1.0);
    let cost_reduction = baseline.cost_cents_per_answer / gateway.cost_cents_per_answer.max(1e-9);
    let ex_delta = gateway.tally.correct as i64 - baseline.tally.correct as i64;
    drill.gate(
        "ex_delta_zero",
        ex_delta == 0,
        format!("baseline {} vs gateway {} of {n}", baseline.tally.correct, gateway.tally.correct),
    );
    drill.gate(
        "open_passes_shed_nothing",
        baseline.tally.shed_total() + gateway.tally.shed_total() == 0,
        format!("baseline shed {:?}, gateway shed {:?}", baseline.tally.shed, gateway.tally.shed),
    );
    drill.gate(
        "a_duplicate_was_served_semantically",
        gateway.tally.semantic_hits > 0,
        format!("{} semantic hits", gateway.tally.semantic_hits),
    );
    drill.gate(
        "no_coalesced_follower_timed_out",
        stats.timeouts == 0,
        format!("{} follower timeouts", stats.timeouts),
    );
    let (t, a) = (&deadline.tally, &deadline.audit);
    drill.gate(
        "drill:sheds_are_deadline_or_queue_full",
        t.shed_total() == t.shed_for(ShedReason::DeadlineExpired) + t.shed_for(ShedReason::QueueFull),
        format!("shed {:?}", t.shed),
    );
    drill.gate(
        "drill:no_late_healthy_answer",
        late_healthy == 0,
        format!("{late_healthy} healthy answers delivered past deadline + grace"),
    );
    drill.gate_deadline_audit("drill", t, a);
    eprintln!(
        "model_gateway: calls {call_reduction:.2}x down, cost/answer {cost_reduction:.2}x down, EX delta {ex_delta}"
    );

    drill.finish(&GatewayArtifact {
        workers: WORKERS,
        uniques: uniques + extras,
        paraphrase_candidates: candidates,
        paraphrases_admitted: admitted.len(),
        schedule_len: n,
        schedule_mix,
        passes: vec![baseline, gateway],
        singleflight: SingleflightPanel {
            leaders: stats.leaders,
            followers: stats.followers,
            abandoned: stats.abandoned,
            timeouts: stats.timeouts,
        },
        semantic: stats.semantic.expect("semantic layer on by default"),
        semantic_floor: GatewayConfig::default().semantic.expect("default floor").floor,
        deadline,
        model_call_reduction: call_reduction,
        cost_per_answer_reduction: cost_reduction,
        ex_delta_gateway_vs_baseline: ex_delta,
    })
}
