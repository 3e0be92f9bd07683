//! `overload_drill` — deadline propagation and the brownout ladder
//! under a sustained 3x-capacity overload burst.
//!
//! Phases:
//!
//! 1. **parity** — the standard benchmark slice through a healthy
//!    service with the brownout ladder armed: EX must match the
//!    sequential baseline (±1) and the ladder must never engage at
//!    normal load;
//! 2. **overload** — the same undersized service twice (brownout
//!    disabled, then enabled): a submitter keeps two workers and an
//!    8-deep queue saturated with p=0.2 model faults, reading through
//!    a 3-shard cluster, while every request carries a tight deadline.
//!    Gates: every ticket resolves, the trace audit saw every accepted
//!    request and at least one model call, zero model calls past a
//!    lapsed deadline, and goodput with the ladder ≥ the
//!    binary-shedding baseline.
//!
//! Flags: `--quick` (small world, 40 questions), `--seed=S`.
//!
//! Writes `results/BENCH_overload_drill.json`.

use dio_bench::drill::{
    audit_traces, deadline_for, requests, sequential, Burst, Drill, Tally, TraceAudit,
};
use dio_bench::Experiment;
use dio_cluster::{Cluster, ClusterConfig};
use dio_llm::{FaultConfig, FaultyModel, FoundationModel, ModelProfile, SimulatedModel};
use dio_sandbox::StoreResolver;
use dio_serve::{BrownoutConfig, QueryService, ServeConfig, ShedReason, TenantPolicy};
use serde::Serialize;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Asks the deadline calibration probe times.
const PROBE_ASKS: usize = 8;
/// Model fault probability for the overload phase.
const FAULT_P: f64 = 0.2;

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
    tally: Tally,
    /// Over every trace of the pass; `picked_up` must equal the
    /// tally's `accepted`.
    audit: TraceAudit,
    final_brownout_level: String,
    brownout_transitions: f64,
}

#[derive(Debug, Clone, Serialize)]
struct DrillArtifact {
    parity: ParityResult,
    calibrated_deadline_micros: u64,
    overload: Vec<OverloadPass>,
    goodput_gain_vs_baseline: i64,
}

fn faulty_model(seed: u64) -> Box<dyn FoundationModel> {
    Box::new(FaultyModel::new(
        SimulatedModel::new(ModelProfile::gpt4_sim()),
        FaultConfig::with_probability(seed, FAULT_P),
    ))
}

fn ladder_transitions(service: &QueryService) -> f64 {
    service
        .obs()
        .registry()
        .snapshot()
        .total("dio_serve_brownout_transitions_total")
}

/// The overload pipeline's data plane: three shards.
fn sharded_cluster(exp: &Experiment) -> Arc<Cluster> {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(3)));
    cluster.load_from(&exp.world.store).expect("cluster load");
    cluster
}

/// One overload run: the undersized service is kept saturated until
/// `3 × queue × workers` requests are accepted, every request on the
/// tight drill deadline, model faults at p=0.2, reads through three
/// shards.
fn overload_pass(
    exp: &Experiment,
    seed: u64,
    brownout: BrownoutConfig,
    deadline: Duration,
    pass: &str,
) -> OverloadPass {
    let mut prototype = exp.copilot(faulty_model(seed));
    prototype.attach_store_resolver(sharded_cluster(exp) as Arc<dyn StoreResolver>);
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
    let mut burst = Burst::start();
    burst.saturate(
        &service,
        requests(&exp.questions, exp.world.eval_ts).cycle(),
        target,
    );
    let tally = burst.finish();
    let audit = audit_traces(service.obs().tracer(), deadline);
    let result = OverloadPass {
        pass: pass.to_string(),
        final_brownout_level: service.brownout_level().label().to_string(),
        brownout_transitions: ladder_transitions(&service),
        tally,
        audit,
    };
    service.shutdown();
    let (t, a) = (&result.tally, &result.audit);
    eprintln!(
        "  {pass}: goodput {} of {} accepted, shed {:?}, audited {}/{}, level {}, {:.2}s",
        t.goodput(),
        t.accepted,
        t.shed,
        a.picked_up,
        t.accepted,
        result.final_brownout_level,
        t.wall_seconds
    );
    result
}

fn main() -> ExitCode {
    let mut drill = Drill::from_args("overload_drill", 0xd3ad_11fe);
    let seed = drill.seed;
    let exp = drill.experiment(40);
    let eval_ts = exp.world.eval_ts;
    let n = exp.questions.len();

    // ---- Phase 1: EX parity with the ladder armed ------------------
    eprintln!("phase 1: parity — sequential baseline ({n} questions)…");
    let baseline_copilot = exp.copilot(Experiment::gpt4());
    let seq_correct = sequential(&baseline_copilot, &exp.questions, eval_ts, |_| {})
        .iter()
        .filter(|ok| **ok)
        .count();
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
    let mut burst = Burst::start();
    burst.submit_all(&service, requests(&exp.questions, eval_ts));
    let served = burst.finish();
    let parity = ParityResult {
        questions: n,
        sequential_correct: seq_correct,
        serve_correct: served.correct,
        ex_delta: served.correct as i64 - seq_correct as i64,
        brownout_transitions: ladder_transitions(&service),
    };
    service.shutdown();
    eprintln!(
        "  parity: sequential EX {seq_correct}/{n}, serve EX {}/{n}, {} ladder transitions",
        parity.serve_correct, parity.brownout_transitions
    );
    drill.gate(
        "ex_parity",
        parity.ex_delta.abs() <= 1,
        format!(
            "sequential {seq_correct}, serve {} of {n} (±1 allowed)",
            parity.serve_correct
        ),
    );
    drill.gate(
        "ladder_idle_at_normal_load",
        parity.brownout_transitions == 0.0,
        format!(
            "{} transitions on a healthy, uncontended service",
            parity.brownout_transitions
        ),
    );

    // ---- Phase 2: overload, binary shedding vs the ladder ----------
    // Calibrate the drill deadline from the pipeline the overload
    // passes will actually run: faulty model, three shards. A fixed
    // constant is either trivially generous on a small quick world or
    // impossibly tight on the full one.
    let mut probe = exp.copilot(faulty_model(seed ^ 0x5eed));
    probe.attach_store_resolver(sharded_cluster(&exp) as Arc<dyn StoreResolver>);
    // Time only the asks — cluster construction and the store copy
    // above are one-off costs the served requests never pay.
    let probe_started = Instant::now();
    sequential(&probe, &exp.questions[..PROBE_ASKS], eval_ts, |_| {});
    let drill_deadline = deadline_for(probe_started.elapsed(), PROBE_ASKS);
    eprintln!("phase 2: calibrated deadline {drill_deadline:?}");
    eprintln!("phase 2: overload baseline (brownout disabled)…");
    let baseline = overload_pass(
        &exp,
        seed,
        BrownoutConfig::disabled(),
        drill_deadline,
        "overload_baseline",
    );
    eprintln!("phase 2: overload with the brownout ladder…");
    let browned = overload_pass(
        &exp,
        seed.wrapping_add(1),
        BrownoutConfig::default(),
        drill_deadline,
        "overload_brownout",
    );
    // Only the binary-shedding baseline must overrun deadlines — the
    // ladder's entire job is to degrade early enough that requests
    // finish inside their budget, so lapses there are allowed but not
    // required. The audits bind both passes.
    drill.gate(
        "baseline_drove_a_lapse",
        baseline.audit.lapsed_traces > 0,
        format!(
            "{} deadline-exceeded traces in the baseline pass",
            baseline.audit.lapsed_traces
        ),
    );
    for p in [&baseline, &browned] {
        let (pass, t, a) = (&p.pass, &p.tally, &p.audit);
        drill.gate(
            &format!("{pass}:all_tickets_resolved"),
            t.shed_for(ShedReason::WorkerPanic) == 0,
            format!(
                "{} accepted, {} answered, shed {:?}",
                t.accepted, t.answered, t.shed
            ),
        );
        drill.gate_deadline_audit(pass, t, a);
    }
    drill.gate(
        "disabled_ladder_never_moves",
        baseline.brownout_transitions == 0.0,
        format!(
            "{} transitions with brownout disabled",
            baseline.brownout_transitions
        ),
    );
    drill.gate(
        "sustained_overload_engages_the_ladder",
        browned.brownout_transitions >= 1.0,
        format!(
            "{} transitions, final level {}",
            browned.brownout_transitions, browned.final_brownout_level
        ),
    );
    // Goodput is answers that are not deadline aborts: a request that
    // is picked up just inside its deadline and gives up part-way is
    // as lost as one that expired in the queue.
    let goodput_gain = browned.tally.goodput() as i64 - baseline.tally.goodput() as i64;
    drill.gate(
        "brownout_goodput_not_below_baseline",
        goodput_gain >= 0,
        format!(
            "goodput {} with the ladder vs {} binary shedding",
            browned.tally.goodput(),
            baseline.tally.goodput()
        ),
    );

    drill.finish(&DrillArtifact {
        parity,
        calibrated_deadline_micros: drill_deadline.as_micros() as u64,
        overload: vec![baseline, browned],
        goodput_gain_vs_baseline: goodput_gain,
    })
}
