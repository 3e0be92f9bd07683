//! `shard_failover` — the sharded-serving failover drill: prove the
//! cluster layer is invisible to correctness and that no acknowledged
//! write is ever lost through a primary crash.
//!
//! Phases:
//!
//! 1. **baseline** — the sequential single-node copilot answers every
//!    question (no cluster), establishing EX and qps;
//! 2. **shard sweep** — the same questions through a cluster-backed
//!    copilot at 1/2/4/8 shards (1/2/4 with `--quick`); EX must match
//!    the single-node baseline within ±1 question at every width;
//! 3. **write drill** — a seeded [`CrashSchedule`] kills and restarts
//!    nodes while a write stream appends through the router over a
//!    chaotic replication link; after the dust settles every
//!    acknowledged write must still be readable (zero acked-write
//!    loss), and failover detection→takeover latencies are collected
//!    (p99 across all phases must stay under 100 ms);
//! 4. **query drill** — a burst through the dio-serve service with a
//!    primary killed mid-burst and an immediate drain; every accepted
//!    ticket must resolve;
//! 5. **rejoin** — a killed primary restarts, replays its durable WAL,
//!    catches up the suffix written while it was down, and then takes
//!    the shard back when its successor is killed (fail-back).
//!
//! Flags: `--quick` (small world, 40 questions, shard sweep capped at
//! 4), `--seed=S` (chaos schedule seed).
//!
//! Writes `results/BENCH_shard_failover.json`.

use dio_bench::drill::{audit_traces, requests, sequential, Burst, Drill, Latency, Tally};
use dio_bench::Experiment;
use dio_cluster::{Cluster, ClusterConfig, ClusterError};
use dio_copilot::ShardTiming;
use dio_faults::{ChaosConfig, CrashSchedule, NodeFault};
use dio_sandbox::StoreResolver;
use dio_serve::{QueryService, ServeConfig, ShedReason, TenantPolicy};
use dio_tsdb::{Labels, NAME_LABEL, Sample};
use serde::Serialize;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Serialize)]
struct SweepResult {
    shards: usize,
    correct: usize,
    ex_percent: f64,
    ex_delta_vs_baseline: i64,
    wall_seconds: f64,
    qps: f64,
    routes_pushdown: u64,
    routes_gather: u64,
    routes_gather_all: u64,
    /// Per-shard span totals aggregated over every question in the
    /// sweep: which shards the fan-out actually touched, via which
    /// routing path, and how much wall time each soaked up.
    shard_breakdown: Vec<ShardTiming>,
}

#[derive(Debug, Clone, Serialize)]
struct WriteDrill {
    nodes: usize,
    attempted: usize,
    acked: usize,
    refused_unavailable: usize,
    acked_verified: usize,
    acked_lost: usize,
    crashes: usize,
    restarts: usize,
    failovers: u64,
    reships: u64,
    replayed_wal_bytes: usize,
    caught_up_records: usize,
    max_replication_lag_seconds: f64,
}

#[derive(Debug, Clone, Serialize)]
struct QueryDrill {
    nodes: usize,
    tally: Tally,
    failovers: u64,
    /// Complete span trees the flight recorder retained because the
    /// request paid for a shard promotion mid-flight.
    retained_failed_over: usize,
    /// Spans unreachable from their trace root across every finished
    /// trace of the drill (must be zero).
    orphan_spans: usize,
}

#[derive(Debug, Clone, Serialize)]
struct RejoinDrill {
    writes_while_down: usize,
    replayed_wal_bytes: usize,
    caught_up_records: usize,
    failback_verified: bool,
}

#[derive(Debug, Clone, Serialize)]
struct FailoverLatency {
    count: usize,
    micros: Latency,
    max_micros: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ShardFailoverArtifact {
    questions: usize,
    baseline_correct: usize,
    baseline_ex_percent: f64,
    baseline_qps: f64,
    sweep: Vec<SweepResult>,
    write_drill: WriteDrill,
    query_drill: QueryDrill,
    rejoin: RejoinDrill,
    failover_latency: FailoverLatency,
    /// Where the failed-over trace trees were dumped.
    trace_dump_path: String,
}

/// Bound on detection→takeover p99 (µs): a promotion checks only the
/// replica's WAL past its verified watermark, never the whole log.
const TAKEOVER_P99_LIMIT_MICROS: f64 = 100_000.0;

/// Counter value for one `path` label of `dio_cluster_routes_total`.
fn route_count(cluster: &Cluster, path: &str) -> u64 {
    let routes = dio_obs::Selector::new("dio_cluster_routes_total", &[("path", path)]);
    routes.sum(&cluster.registry().snapshot()) as u64
}

/// Ask every question through `copilot`, counting EX-correct answers
/// and folding each response's per-shard span timings into one
/// aggregate breakdown for the sweep width.
fn score(
    exp: &Experiment,
    copilot: &mut dio_copilot::DioCopilot,
) -> (usize, f64, Vec<ShardTiming>) {
    let started = Instant::now();
    let mut breakdown: Vec<ShardTiming> = Vec::new();
    let correct = sequential(copilot, &exp.questions, exp.world.eval_ts, |r| {
        for shard in r.trace.shard_breakdown() {
            match breakdown
                .iter_mut()
                .find(|t| t.shard == shard.shard && t.path == shard.path)
            {
                Some(t) => {
                    t.invocations += shard.invocations;
                    t.total_micros = t.total_micros.saturating_add(shard.total_micros);
                }
                None => breakdown.push(shard),
            }
        }
    });
    let correct = correct.iter().filter(|ok| **ok).count();
    breakdown.sort_by(|a, b| a.shard.cmp(&b.shard).then(a.path.cmp(&b.path)));
    (correct, started.elapsed().as_secs_f64(), breakdown)
}

/// Whether `family`'s series in `store` hold a sample `(ts, value)`.
fn holds(store: &dio_tsdb::MetricStore, family: &str, ts: i64, value: f64) -> bool {
    store
        .series_for(family)
        .iter()
        .any(|s| s.samples().iter().any(|p| p.timestamp_ms == ts && p.value == value))
}

fn main() -> ExitCode {
    let mut drill = Drill::from_args("shard_failover", 0xfa11_07e5);
    let (quick, seed) = (drill.quick, drill.seed);
    let exp = drill.experiment(40);
    let n_questions = exp.questions.len();

    // ---- Phase 1: single-node sequential baseline ------------------
    eprintln!("phase 1: single-node baseline over {n_questions} questions…");
    let mut baseline = exp.copilot(Experiment::gpt4());
    let (baseline_correct, baseline_wall, _) = score(&exp, &mut baseline);
    let baseline_qps = n_questions as f64 / baseline_wall.max(1e-9);
    eprintln!(
        "  baseline EX {baseline_correct}/{n_questions} in {baseline_wall:.2}s ({baseline_qps:.1} qps)"
    );

    // ---- Phase 2: shard sweep --------------------------------------
    let shard_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut sweep = Vec::new();
    for &shards in shard_counts {
        eprintln!("phase 2: sweep at {shards} shard(s)…");
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(shards)));
        cluster.load_from(&exp.world.store).expect("cluster load");
        let mut copilot = exp.copilot(Experiment::gpt4());
        copilot.attach_store_resolver(cluster.clone() as Arc<dyn StoreResolver>);
        let (correct, wall, shard_breakdown) = score(&exp, &mut copilot);
        let delta = correct as i64 - baseline_correct as i64;
        eprintln!(
            "  {shards} shard(s): EX {correct}/{n_questions} (Δ{delta:+}) in {wall:.2}s ({:.1} qps)",
            n_questions as f64 / wall.max(1e-9)
        );
        drill.gate(
            &format!("ex_parity_at_{shards}_shards"),
            delta.abs() <= 1,
            format!("{correct} vs baseline {baseline_correct} of {n_questions} (±1 allowed)"),
        );
        sweep.push(SweepResult {
            shards,
            correct,
            ex_percent: 100.0 * correct as f64 / n_questions.max(1) as f64,
            ex_delta_vs_baseline: delta,
            wall_seconds: wall,
            qps: n_questions as f64 / wall.max(1e-9),
            routes_pushdown: route_count(&cluster, "pushdown"),
            routes_gather: route_count(&cluster, "gather"),
            routes_gather_all: route_count(&cluster, "gather_all"),
            shard_breakdown,
        });
    }

    let mut failover_latencies: Vec<f64> = Vec::new();

    // ---- Phase 3: write drill (zero acked-write loss) --------------
    let drill_nodes = 4;
    let rounds = if quick { 40 } else { 200 };
    eprintln!("phase 3: write drill on {drill_nodes} nodes, {rounds} rounds under node chaos…");
    let cluster = Arc::new(Cluster::new(ClusterConfig::with_link_chaos(
        drill_nodes,
        ChaosConfig::with_probability(seed ^ 0x5e11_ed11, 0.25),
    )));
    cluster.load_from(&exp.world.store).expect("cluster load");
    let base_ts = exp.world.store.max_timestamp().unwrap_or(0);
    let mut families: Vec<String> =
        exp.world.store.metric_names().into_iter().map(str::to_string).collect();
    families.sort();
    families.truncate(24);
    let mut schedule = CrashSchedule::new(seed, 0.05, drill_nodes);
    let mut acked: Vec<(String, i64, f64)> = Vec::new();
    let mut attempted = 0usize;
    let mut refused = 0usize;
    let mut crashes = 0usize;
    let (mut restarts, mut replayed_wal_bytes, mut caught_up_records) = (0usize, 0usize, 0usize);
    let mut restart = |node| {
        let report = cluster.restart_node(node);
        restarts += 1;
        replayed_wal_bytes += report.replayed_wal_bytes;
        caught_up_records += report.caught_up_records;
    };
    let mut max_lag = 0.0f64;
    for round in 0..rounds {
        match schedule.decide() {
            Some(NodeFault::Crash { node }) if cluster.kill_node(node) => crashes += 1,
            Some(NodeFault::Crash { .. }) => {}
            Some(NodeFault::Restart { node }) => restart(node),
            None => {}
        }
        let ts = base_ts + 1_000 * (round as i64 + 1);
        for family in &families {
            let labels = Labels::from_pairs([(NAME_LABEL, family.as_str()), ("instance", "drill-0")]);
            attempted += 1;
            match cluster.append(labels, Sample::new(ts, round as f64)) {
                Ok(_) => acked.push((family.clone(), ts, round as f64)),
                Err(ClusterError::Unavailable { .. }) => refused += 1,
                Err(e) => panic!("write drill append failed hard: {e}"),
            }
        }
        max_lag = max_lag.max(cluster.replication_lag_seconds());
    }
    // Bring every node back (replaying durable WALs) before auditing.
    cluster.down_nodes().into_iter().for_each(restart);
    let verified = acked
        .iter()
        .filter(|(family, ts, value)| {
            let store = cluster
                .resolve(std::slice::from_ref(family), false)
                .expect("post-drill resolve");
            holds(&store, family, *ts, *value)
        })
        .count();
    let lost = acked.len() - verified;
    eprintln!(
        "  {} acked / {attempted} attempted ({refused} refused), {crashes} crashes, {restarts} restarts, {} reships — {lost} lost",
        acked.len(),
        cluster.reships()
    );
    drill.gate(
        "zero_acked_writes_lost",
        lost == 0,
        format!("{verified} of {} acknowledged writes readable after the chaos", acked.len()),
    );
    let write_drill = WriteDrill {
        nodes: drill_nodes,
        attempted,
        acked: acked.len(),
        refused_unavailable: refused,
        acked_verified: verified,
        acked_lost: lost,
        crashes,
        restarts,
        failovers: cluster.failovers(),
        reships: cluster.reships(),
        replayed_wal_bytes,
        caught_up_records,
        max_replication_lag_seconds: max_lag,
    };
    failover_latencies.extend(cluster.take_failover_latencies().iter().map(|&m| m as f64));

    // ---- Phase 4: query drill (kill a primary mid-burst, drain) ----
    let qnodes = 3;
    let burst_len = (n_questions * 2).min(48);
    eprintln!("phase 4: query drill — {burst_len}-request burst on {qnodes} nodes, kill mid-burst…");
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(qnodes)));
    cluster.load_from(&exp.world.store).expect("cluster load");
    let mut prototype = exp.copilot(Experiment::gpt4());
    prototype.attach_store_resolver(cluster.clone() as Arc<dyn StoreResolver>);
    let service = QueryService::spawn(
        &prototype,
        Experiment::gpt4,
        ServeConfig {
            workers: 2,
            queue_depth: burst_len,
            tenant: TenantPolicy::unlimited(),
            ..ServeConfig::default()
        },
    );
    let mut burst = Burst::start();
    // The primary dies a third of the way into the burst.
    let killing = requests(&exp.questions, exp.world.eval_ts).cycle().take(burst_len).enumerate().map(|(i, r)| {
        if i == burst_len / 3 + 1 {
            cluster.kill_node(0);
        }
        r
    });
    burst.submit_all(&service, killing);
    let drill_obs = service.obs().clone();
    service.shutdown(); // drain-not-drop: every accepted ticket resolves
    let tally = burst.finish();
    eprintln!(
        "  accepted {}, answered {}, shed {:?}",
        tally.accepted, tally.answered, tally.shed
    );
    drill.gate(
        "drain_resolves_every_accepted_ticket",
        tally.shed_for(ShedReason::WorkerPanic) == 0,
        format!("{} accepted, {} answered, shed {:?}", tally.accepted, tally.answered, tally.shed),
    );
    drill.gate("burst_produced_an_answer", tally.answered > 0, format!("{} answered", tally.answered));
    // Every trace the drill finished must assemble into one rooted
    // tree, and the request that paid for the mid-burst promotion must
    // have been tail-sampled by the flight recorder.
    let orphan_spans = audit_traces(drill_obs.tracer(), Duration::MAX).orphan_spans;
    drill.gate("no_orphan_spans", orphan_spans == 0, format!("{orphan_spans} spans unreachable from their root"));
    let retained_failed_over = drill_obs.recorder().retained_for("failed_over").len();
    drill.gate(
        "failed_over_trace_retained",
        retained_failed_over >= 1,
        format!("{retained_failed_over} failed-over trees in the flight recorder"),
    );
    let (dumped, trace_dump_path) = drill.dump_traces(drill_obs.recorder());
    eprintln!(
        "  flight recorder: {dumped} trace trees retained ({retained_failed_over} failed-over) -> {trace_dump_path}"
    );
    let query_drill = QueryDrill {
        nodes: qnodes,
        tally,
        failovers: cluster.failovers(),
        retained_failed_over,
        orphan_spans,
    };
    failover_latencies.extend(cluster.take_failover_latencies().iter().map(|&m| m as f64));

    // ---- Phase 5: rejoin + fail-back -------------------------------
    eprintln!("phase 5: rejoin drill — kill, write through failover, restart, fail back…");
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(4)));
    cluster.load_from(&exp.world.store).expect("cluster load");
    let family = families.first().expect("drill family").clone();
    let shard = cluster.shard_for(&family);
    let old_primary = cluster.primary_of(shard);
    let killed = cluster.kill_node(old_primary);
    drill.gate("rejoin:old_primary_killed", killed, format!("node {old_primary}"));
    let writes_while_down = if quick { 16 } else { 64 };
    let mut rejoin_acked = Vec::new();
    for i in 0..writes_while_down {
        let ts = base_ts + 1_000 * (i as i64 + 1);
        let labels = Labels::from_pairs([(NAME_LABEL, family.as_str()), ("instance", "rejoin-0")]);
        cluster
            .append(labels, Sample::new(ts, i as f64))
            .expect("write through failover");
        rejoin_acked.push((ts, i as f64));
    }
    failover_latencies.extend(cluster.take_failover_latencies().iter().map(|&m| m as f64));
    let report = cluster.restart_node(old_primary);
    drill.gate(
        "rejoin:replayed_durable_wal",
        report.replayed_wal_bytes > 0,
        format!("{} WAL bytes replayed", report.replayed_wal_bytes),
    );
    drill.gate(
        "rejoin:caught_up_the_writes_it_missed",
        report.caught_up_records >= writes_while_down,
        format!("caught up {} records of {writes_while_down} written while down", report.caught_up_records),
    );
    // Fail back: kill the promoted successor; the rejoined node must
    // serve the shard with every write intact.
    let successor = cluster.primary_of(shard);
    drill.gate(
        "rejoin:failover_moved_the_primary",
        successor != old_primary,
        format!("primary {old_primary} -> {successor}"),
    );
    let killed = cluster.kill_node(successor);
    drill.gate("rejoin:successor_killed", killed, format!("node {successor}"));
    let store = cluster
        .resolve(std::slice::from_ref(&family), false)
        .expect("fail-back resolve");
    let failback_verified = rejoin_acked.iter().all(|(ts, value)| holds(&store, &family, *ts, *value));
    drill.gate(
        "rejoin:fail_back_kept_every_write",
        failback_verified,
        format!("{writes_while_down} writes made while the old primary was down"),
    );
    failover_latencies.extend(cluster.take_failover_latencies().iter().map(|&m| m as f64));
    eprintln!(
        "  rejoin replayed {} WAL bytes, caught up {} records, fail-back verified: {failback_verified}",
        report.replayed_wal_bytes, report.caught_up_records
    );
    let rejoin = RejoinDrill {
        writes_while_down,
        replayed_wal_bytes: report.replayed_wal_bytes,
        caught_up_records: report.caught_up_records,
        failback_verified,
    };

    let failover_latency = FailoverLatency {
        count: failover_latencies.len(),
        max_micros: failover_latencies.iter().copied().fold(0.0, f64::max),
        micros: Latency::of(failover_latencies),
    };
    eprintln!(
        "failover detection→takeover: {} events, p50 {:.0}µs, p99 {:.0}µs",
        failover_latency.count, failover_latency.micros.p50, failover_latency.micros.p99
    );
    drill.gate(
        "a_failover_was_exercised",
        failover_latency.count > 0,
        format!("{} detection→takeover events", failover_latency.count),
    );
    drill.gate(
        "takeover_p99_under_100ms",
        failover_latency.micros.p99 < TAKEOVER_P99_LIMIT_MICROS,
        format!("p99 {:.0}µs, limit {TAKEOVER_P99_LIMIT_MICROS:.0}µs", failover_latency.micros.p99),
    );

    drill.finish(&ShardFailoverArtifact {
        questions: n_questions,
        baseline_correct,
        baseline_ex_percent: 100.0 * baseline_correct as f64 / n_questions.max(1) as f64,
        baseline_qps,
        sweep,
        write_drill,
        query_drill,
        rejoin,
        failover_latency,
        trace_dump_path,
    })
}
