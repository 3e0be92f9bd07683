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

use dio_bench::{flag_value, percentile, quick_flag, Experiment};
use dio_benchmark::eval::numeric_match;
use dio_benchmark::WorldConfig;
use dio_cluster::{Cluster, ClusterConfig, ClusterError};
use dio_copilot::ShardTiming;
use dio_faults::{ChaosConfig, CrashSchedule, NodeFault};
use dio_sandbox::StoreResolver;
use dio_serve::{QueryRequest, QueryService, ServeConfig, ServeOutcome, TenantPolicy};
use dio_tsdb::labels::NAME_LABEL;
use dio_tsdb::{Labels, Sample};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

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
    submitted: usize,
    accepted: usize,
    answered: usize,
    shed: usize,
    all_accepted_resolved: bool,
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
    p50_micros: f64,
    p99_micros: f64,
    max_micros: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ShardFailoverArtifact {
    bench: String,
    quick: bool,
    seed: u64,
    available_parallelism: usize,
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
    cluster
        .registry()
        .snapshot()
        .family("dio_cluster_routes_total")
        .map(|f| {
            f.series
                .iter()
                .filter(|s| s.labels.iter().any(|(k, v)| k == "path" && v == path))
                .map(|s| match s.value {
                    dio_obs::SeriesValue::Counter(v) | dio_obs::SeriesValue::Gauge(v) => v as u64,
                    _ => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Ask every question through `copilot`, counting EX-correct answers
/// and folding each response's per-shard span timings into one
/// aggregate breakdown for the sweep width.
fn score(
    exp: &Experiment,
    copilot: &mut dio_copilot::DioCopilot,
) -> (usize, f64, Vec<ShardTiming>) {
    let started = Instant::now();
    let mut correct = 0;
    let mut breakdown: Vec<ShardTiming> = Vec::new();
    for q in &exp.questions {
        let r = copilot.ask(&q.text, exp.world.eval_ts);
        if r.numeric_answer
            .map(|v| numeric_match(v, q.reference.numeric))
            .unwrap_or(false)
        {
            correct += 1;
        }
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
    }
    breakdown.sort_by(|a, b| a.shard.cmp(&b.shard).then(a.path.cmp(&b.path)));
    (correct, started.elapsed().as_secs_f64(), breakdown)
}

fn main() {
    let quick = quick_flag();
    let seed: u64 = flag_value("seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xfa11_07e5);
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!("building world ({})…", if quick { "quick" } else { "full" });
    let exp = if quick {
        Experiment::with_config(WorldConfig::small(), 40)
    } else {
        Experiment::standard()
    };
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
        assert!(
            delta.abs() <= 1,
            "EX parity broken at {shards} shards: {correct} vs baseline {baseline_correct}"
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
    let families: Vec<String> = {
        let mut names: Vec<String> = exp
            .world
            .store
            .metric_names()
            .into_iter()
            .map(str::to_string)
            .collect();
        names.sort();
        names.truncate(24);
        names
    };
    let mut schedule = CrashSchedule::new(seed, 0.05, drill_nodes);
    let mut acked: Vec<(String, i64, f64)> = Vec::new();
    let mut attempted = 0usize;
    let mut refused = 0usize;
    let mut crashes = 0usize;
    let mut restarts = 0usize;
    let mut replayed_wal_bytes = 0usize;
    let mut caught_up_records = 0usize;
    let mut max_lag = 0.0f64;
    for round in 0..rounds {
        match schedule.decide() {
            Some(NodeFault::Crash { node }) if cluster.kill_node(node) => crashes += 1,
            Some(NodeFault::Crash { .. }) => {}
            Some(NodeFault::Restart { node }) => {
                let report = cluster.restart_node(node);
                replayed_wal_bytes += report.replayed_wal_bytes;
                caught_up_records += report.caught_up_records;
                restarts += 1;
            }
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
    for node in cluster.down_nodes() {
        let report = cluster.restart_node(node);
        replayed_wal_bytes += report.replayed_wal_bytes;
        caught_up_records += report.caught_up_records;
        restarts += 1;
    }
    let mut verified = 0usize;
    for (family, ts, value) in &acked {
        let store = cluster
            .resolve(std::slice::from_ref(family), false)
            .expect("post-drill resolve");
        let found = store
            .series_for(family)
            .iter()
            .any(|s| s.samples().iter().any(|p| p.timestamp_ms == *ts && p.value == *value));
        if found {
            verified += 1;
        }
    }
    let lost = acked.len() - verified;
    eprintln!(
        "  {} acked / {attempted} attempted ({refused} refused), {crashes} crashes, {restarts} restarts, {} reships — {lost} lost",
        acked.len(),
        cluster.reships()
    );
    assert_eq!(lost, 0, "acked-write loss: {lost} acknowledged writes unreadable");
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
    let burst = (n_questions * 2).min(48);
    eprintln!("phase 4: query drill — {burst}-request burst on {qnodes} nodes, kill mid-burst…");
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(qnodes)));
    cluster.load_from(&exp.world.store).expect("cluster load");
    let mut prototype = exp.copilot(Experiment::gpt4());
    prototype.attach_store_resolver(cluster.clone() as Arc<dyn StoreResolver>);
    let service = QueryService::spawn(
        &prototype,
        Experiment::gpt4,
        ServeConfig {
            workers: 2.min(parallelism),
            queue_depth: burst,
            tenant: TenantPolicy::unlimited(),
            ..ServeConfig::default()
        },
    );
    let mut tickets = Vec::new();
    let mut shed_sync = 0usize;
    for (i, q) in exp.questions.iter().cycle().take(burst).enumerate() {
        match service.submit(QueryRequest::new(
            format!("tenant-{}", i % 3),
            &q.text,
            exp.world.eval_ts,
        )) {
            Ok(t) => tickets.push(t),
            Err(_) => shed_sync += 1,
        }
        if i == burst / 3 {
            cluster.kill_node(0);
        }
    }
    let accepted = tickets.len();
    let drill_obs = service.obs().clone();
    service.shutdown(); // drain-not-drop: every accepted ticket resolves
    let mut answered = 0usize;
    let mut shed_late = 0usize;
    for t in tickets {
        match t.wait() {
            ServeOutcome::Answered(_) => answered += 1,
            ServeOutcome::Shed(_) => shed_late += 1,
        }
    }
    let all_resolved = answered + shed_late == accepted;
    eprintln!(
        "  accepted {accepted}, answered {answered}, shed {} — all resolved: {all_resolved}",
        shed_sync + shed_late
    );
    assert!(all_resolved, "drain dropped accepted tickets");
    assert!(answered > 0, "no accepted request produced an answer");
    // Every trace the drill finished must assemble into one rooted
    // tree, and the request that paid for the mid-burst promotion must
    // have been tail-sampled by the flight recorder.
    let orphan_spans: usize = drill_obs
        .tracer()
        .recent(burst * 2)
        .iter()
        .filter(|t| t.finished)
        .map(|t| t.orphan_count())
        .sum();
    assert_eq!(orphan_spans, 0, "query drill produced orphan spans");
    let retained_failed_over = drill_obs.recorder().retained_for("failed_over").len();
    assert!(
        retained_failed_over >= 1,
        "no failed-over trace retained: the mid-burst kill left no span evidence"
    );
    std::fs::create_dir_all("results").expect("create results/");
    let trace_dump_path = "results/TRACES_shard_failover.json".to_string();
    let dumped = drill_obs
        .recorder()
        .dump(std::path::Path::new(&trace_dump_path))
        .expect("dump trace trees");
    eprintln!(
        "  flight recorder: {dumped} trace trees retained ({retained_failed_over} failed-over) -> {trace_dump_path}"
    );
    let query_drill = QueryDrill {
        nodes: qnodes,
        submitted: burst,
        accepted,
        answered,
        shed: shed_sync + shed_late,
        all_accepted_resolved: all_resolved,
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
    assert!(cluster.kill_node(old_primary));
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
    assert!(
        report.replayed_wal_bytes > 0,
        "rejoin replayed no durable WAL bytes"
    );
    assert!(
        report.caught_up_records >= writes_while_down,
        "rejoin caught up {} records, expected at least {writes_while_down}",
        report.caught_up_records
    );
    // Fail back: kill the promoted successor; the rejoined node must
    // serve the shard with every write intact.
    let successor = cluster.primary_of(shard);
    assert_ne!(successor, old_primary, "failover never moved the primary");
    assert!(cluster.kill_node(successor));
    let store = cluster
        .resolve(std::slice::from_ref(&family), false)
        .expect("fail-back resolve");
    let failback_verified = rejoin_acked.iter().all(|(ts, value)| {
        store
            .series_for(&family)
            .iter()
            .any(|s| s.samples().iter().any(|p| p.timestamp_ms == *ts && p.value == *value))
    });
    assert!(failback_verified, "fail-back lost writes made while the old primary was down");
    failover_latencies.extend(cluster.take_failover_latencies().iter().map(|&m| m as f64));
    eprintln!(
        "  rejoin replayed {} WAL bytes, caught up {} records, fail-back verified",
        report.replayed_wal_bytes, report.caught_up_records
    );
    let rejoin = RejoinDrill {
        writes_while_down,
        replayed_wal_bytes: report.replayed_wal_bytes,
        caught_up_records: report.caught_up_records,
        failback_verified,
    };

    failover_latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(
        !failover_latencies.is_empty(),
        "the drill never exercised a failover"
    );
    let failover_latency = FailoverLatency {
        count: failover_latencies.len(),
        p50_micros: percentile(&failover_latencies, 0.50),
        p99_micros: percentile(&failover_latencies, 0.99),
        max_micros: failover_latencies.last().copied().unwrap_or(0.0),
    };
    eprintln!(
        "failover detection→takeover: {} events, p50 {:.0}µs, p99 {:.0}µs",
        failover_latency.count, failover_latency.p50_micros, failover_latency.p99_micros
    );

    let artifact = ShardFailoverArtifact {
        bench: "shard_failover".to_string(),
        quick,
        seed,
        available_parallelism: parallelism,
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
    };
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/BENCH_shard_failover.json";
    std::fs::write(path, serde_json::to_string_pretty(&artifact).unwrap()).expect("write artifact");
    eprintln!("wrote {path}");
    println!("{}", serde_json::to_string_pretty(&artifact).unwrap());

    // Gated after the artifact is on disk, so a failing run leaves its
    // numbers behind.
    assert!(
        artifact.failover_latency.p99_micros < TAKEOVER_P99_LIMIT_MICROS,
        "failover detection→takeover p99 {:.0}µs is not under {TAKEOVER_P99_LIMIT_MICROS:.0}µs",
        artifact.failover_latency.p99_micros
    );
}
