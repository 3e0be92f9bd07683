//! `shard_failover`: the one workload where `dio-cluster` does the
//! work. One client asks through a copilot whose sandbox resolves
//! stores from a 2-node replicated cluster; before every 12th ask the
//! node killed last time is restarted (WAL replay + catch-up) and the
//! primary of the next shard is killed. Failure is detected on access,
//! so the median is the healthy sharded ask and the 95th percentile is
//! an ask that paid a takeover, by construction; throughput includes
//! kill and rejoin time.

use crate::report::{Check, OpLog, Outcome};
use crate::spans::{time_with, Recorder};
use crate::world::{log_ask, rng, run_passes, timed_setup, Experiment, WARMUP_OPS};
use crate::{baseline, stats, RunArgs};
use dio_benchmark::WorldConfig;
use dio_cluster::{Cluster, ClusterConfig};
use dio_copilot::DioCopilot;
use dio_sandbox::StoreResolver;
use rand::seq::SliceRandom;
use std::sync::Arc;
use std::time::Instant;

/// Questions per pass: 12 leave 5% of 240 beyond the 95th percentile.
const QUESTIONS: usize = 240;
const NODES: usize = 2;
/// A node is killed before every this-many-th ask.
const KILL_EVERY: usize = 12;
/// Untraced asks a traced run times first, for the tracing overhead.
const REFERENCE_OPS: usize = 5 * KILL_EVERY;

struct State {
    exp: Experiment,
    copilot: DioCopilot,
    cluster: Arc<Cluster>,
    load_s: f64,
    order: Vec<usize>,
}

/// Cluster-side measurements of the timed passes.
#[derive(Default)]
struct Drill {
    kills: u64,
    rejoin_ms: Vec<f64>,
    replayed_wal_bytes: u64,
    /// Asks during which no promotion happened, ms.
    healthy_ms: Vec<f64>,
    /// Node currently down, to restart before the next kill.
    down: Option<usize>,
    /// Kills so far, for alternating the shard.
    turn: usize,
    repairs: u64,
    degraded: u64,
}

fn world_config() -> WorldConfig {
    let mut config = WorldConfig::small();
    config.synth.end_ms = config.synth.start_ms + baseline::SHARD_FAILOVER_AXIS_MS;
    config
}

fn build(seed: u64) -> State {
    let exp = Experiment::build(world_config(), QUESTIONS);
    let mut copilot = exp.copilot();
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(NODES)));
    let started = Instant::now();
    cluster.load_from(&exp.world.store).expect("cluster load");
    let load_s = started.elapsed().as_secs_f64();
    copilot.attach_store_resolver(cluster.clone() as Arc<dyn StoreResolver>);
    let mut order: Vec<usize> = (0..exp.questions.len()).collect();
    order.shuffle(&mut rng(seed, 4));
    State {
        exp,
        copilot,
        cluster,
        load_s,
        order,
    }
}

/// One pass: every question once, a kill before every 12th, and the
/// last victim restarted at the end so the next pass starts healthy.
fn pass(
    state: &mut State,
    drill: &mut Drill,
    log: &mut OpLog,
    ops: usize,
    mut rec: Option<&mut Recorder>,
    next_op: &mut u64,
) -> f64 {
    let ts = state.exp.world.eval_ts;
    let started = Instant::now();
    for i in 0..ops {
        let op = *next_op;
        *next_op += 1;
        if i % KILL_EVERY == 0 {
            restart_down(state, drill, rec.as_deref_mut(), op);
            let shard = drill.turn % state.cluster.shard_count();
            let victim = state.cluster.primary_of(shard);
            assert!(state.cluster.kill_node(victim), "victim was up");
            drill.down = Some(victim);
            drill.turn += 1;
            drill.kills += 1;
        }
        let q = &state.exp.questions[state.order[i]];
        let copilot = &mut state.copilot;
        let before = state.cluster.failovers();
        let (response, took) = time_with(rec.as_deref_mut(), "copilot.ask", op, || {
            copilot.ask(&q.text, ts)
        });
        if state.cluster.failovers() == before {
            drill.healthy_ms.push(took.as_secs_f64() * 1e3);
        }
        drill.repairs += response.trace.recovery.repairs as u64;
        drill.degraded += u64::from(response.trace.recovery.degraded);
        log_ask(
            log,
            &response,
            q.reference.numeric,
            took.as_secs_f64() * 1e3,
        );
    }
    restart_down(state, drill, rec, *next_op);
    started.elapsed().as_secs_f64()
}

/// Restart the node killed last, timing the rejoin.
fn restart_down(state: &State, drill: &mut Drill, rec: Option<&mut Recorder>, op: u64) {
    let Some(node) = drill.down.take() else {
        return;
    };
    let (report, took) = time_with(rec, "cluster.rejoin", op, || {
        state.cluster.restart_node(node)
    });
    drill.rejoin_ms.push(took.as_secs_f64() * 1e3);
    drill.replayed_wal_bytes += report.replayed_wal_bytes as u64;
}

fn route_total(cluster: &Cluster, path: Option<&str>) -> f64 {
    let snapshot = cluster.registry().snapshot();
    let Some(family) = snapshot.family("dio_cluster_routes_total") else {
        return 0.0;
    };
    family
        .series
        .iter()
        .filter(|s| path.is_none_or(|p| s.labels.iter().any(|(k, v)| k == "path" && v == p)))
        .map(|s| match s.value {
            dio_obs::SeriesValue::Counter(v) | dio_obs::SeriesValue::Gauge(v) => v,
            dio_obs::SeriesValue::Histogram(_) => 0.0,
        })
        .sum()
}

pub fn run(args: &RunArgs, rec: &mut Recorder) -> Outcome {
    let (mut state, setup_s) = timed_setup(args.setup_repeats(), || build(args.seed));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let ts = state.exp.world.eval_ts;
    for &qi in state.order.iter().rev().take(WARMUP_OPS) {
        std::hint::black_box(state.copilot.ask(&state.exp.questions[qi].text, ts));
    }

    let pass_ops = if args.smoke {
        2 * KILL_EVERY
    } else {
        QUESTIONS
    };
    let mut shuffler = rng(args.seed, 5);
    let mut next_op = 0u64;
    let mut reference = OpLog::default();
    if args.trace {
        let ops = REFERENCE_OPS.min(pass_ops);
        pass(
            &mut state,
            &mut Drill::default(),
            &mut reference,
            ops,
            None,
            &mut next_op,
        );
    }
    state.cluster.take_failover_latencies();
    let failovers_before = state.cluster.failovers();
    let (routes_before, pushdown_before) = (
        route_total(&state.cluster, None),
        route_total(&state.cluster, Some("pushdown")),
    );

    let mut drill = Drill::default();
    let mut passes = 0u64;
    out.wall_s = run_passes(args.seconds, 1, || {
        state.order.shuffle(&mut shuffler);
        passes += 1;
        let traced = args.trace.then_some(&mut *rec);
        pass(
            &mut state,
            &mut drill,
            &mut out.ops,
            pass_ops,
            traced,
            &mut next_op,
        )
    });

    let failovers = state.cluster.failovers() - failovers_before;
    let takeover_ms: Vec<f64> = state
        .cluster
        .take_failover_latencies()
        .iter()
        .map(|&us| us as f64 / 1e3)
        .collect();
    out.count("passes", passes);
    out.count("kills", drill.kills);
    out.count("failovers", failovers);
    out.count("rejoins", drill.rejoin_ms.len() as u64);
    out.count("ex_correct_per_pass", out.ops.ex_correct / passes);
    out.notes.insert(
        "synth_axis_ms".into(),
        baseline::SHARD_FAILOVER_AXIS_MS.to_string(),
    );
    out.checks.push(Check::new(
        "failovers_cover_kills",
        failovers >= drill.kills,
        format!("{failovers} failovers for {} kills", drill.kills),
    ));
    out.checks.push(Check::new(
        "at_most_one_node_down",
        state.cluster.down_nodes().is_empty() && drill.rejoin_ms.len() as u64 == drill.kills,
        format!(
            "{} rejoins, {:?} still down",
            drill.rejoin_ms.len(),
            state.cluster.down_nodes()
        ),
    ));

    if args.trace {
        let routes = route_total(&state.cluster, None) - routes_before;
        let pushdown = route_total(&state.cluster, Some("pushdown")) - pushdown_before;
        let rejoins = drill.rejoin_ms.len() as f64;
        let l = &mut out.layers;
        l.insert("cluster.load_s", state.load_s);
        l.insert("cluster.takeover_p50_ms", stats::p50(&takeover_ms));
        l.insert(
            "cluster.takeover_max_ms",
            takeover_ms.iter().copied().fold(0.0, f64::max),
        );
        l.insert("cluster.failovers", failovers as f64);
        l.insert("cluster.rejoin_p50_ms", stats::p50(&drill.rejoin_ms));
        l.insert(
            "cluster.replayed_wal_mb_per_rejoin",
            stats::share(drill.replayed_wal_bytes as f64 / (1024.0 * 1024.0), rejoins),
        );
        l.insert("cluster.healthy_ask_p50_ms", stats::p50(&drill.healthy_ms));
        l.insert(
            "cluster.routes_pushdown_share",
            stats::share(pushdown, routes),
        );
        out.reference_ms = reference.ok_ms;
        let asks = out.ops.attempted as f64;
        l.insert(
            "copilot.repairs_per_ask",
            stats::share(drill.repairs as f64, asks),
        );
        l.insert(
            "copilot.degraded_share",
            stats::share(drill.degraded as f64, asks),
        );
    }
    out
}
