//! `dash_refresh`: writes beside reads on the query and storage layers.
//! The 200 dashboards `generate_dashboard` builds from the benchmark
//! questions' reference metrics and reference PromQL hang on 25 walls of
//! 8. Every scrape tick advances `now` by one scrape interval, appends
//! one sample to every series, deals the dashboards onto the walls
//! afresh (seeded), then refreshes every wall: range queries for the
//! time-series panels, instant queries for the stat panels. (Dealing
//! every tick makes an op a random 8 of the 200 dashboards, so the
//! latency percentiles are those of a smooth distribution that is the
//! same under every seed; 25 fixed walls would put the median and the
//! 95th percentile on steps between single walls.)
//! promql plan/exec and tsdb chunks/page cache do all the work (head
//! chunks seal mid-run); retrieval, the model and the serving tier do
//! none, so this is the bypass workload for retrieval changes.

use crate::report::{Check, OpLog, Outcome};
use crate::spans::{time_with, Recorder};
use crate::world::{rng, run_passes, timed_setup, Digest, Experiment};
use crate::{stats, RunArgs};
use dio_benchmark::WorldConfig;
use dio_copilot::CopilotConfig;
use dio_dashboard::{generate_dashboard, Dashboard, PanelKind, PanelSpecHint, TimeRange};
use dio_promql::{Engine, EngineOptions, EvalError, ExecutorKind, RangeResult, Value};
use dio_tsdb::{Labels, PageCacheStats, Sample, CHUNK_SIZE};
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const QUESTIONS: usize = 200;
const DASHBOARDS_PER_WALL: usize = 8;
/// Scrape ticks per pass: one head-chunk lifetime. Query cost follows
/// the head's length (it grows until the chunk seals, every
/// `CHUNK_SIZE` samples, for all series at once), so a pass of this
/// length sees every head length exactly once wherever it starts; a
/// shorter stretch reads faster or slower depending on its phase.
const TICKS_PER_PASS: usize = CHUNK_SIZE;
/// Passes an untraced run makes at least.
const MIN_PASSES: usize = 2;
/// Every this-many-th op is replayed on the interpreter oracle.
const ORACLE_EVERY: u64 = 50;
/// Ticks before timing starts (25 wall refreshes each).
const WARMUP_TICKS: usize = 1;

/// One series' next sample: counters keep their last increment, gauges
/// (whose last step went down) hold their level.
struct Feed {
    labels: Labels,
    last: f64,
    step: f64,
}

struct State {
    engine: Engine,
    dashboards: Vec<Dashboard>,
    /// Dashboard indices as dealt this tick: wall `w` is the `w`-th
    /// chunk of [`DASHBOARDS_PER_WALL`]. Reshuffled every tick.
    deck: Vec<usize>,
    dealer: ChaCha8Rng,
    feeds: Vec<Feed>,
    now: i64,
    scrape_ms: i64,
}

impl State {
    fn walls(&self) -> usize {
        self.deck.len().div_ceil(DASHBOARDS_PER_WALL)
    }
}

/// Per-target timings of traced ticks, µs.
#[derive(Default)]
struct TargetTimes {
    range_us: Vec<f64>,
    instant_us: Vec<f64>,
}

/// What one dashboard target evaluated to.
#[derive(Debug)]
#[allow(dead_code)] // read through `{:?}` only
enum Answer {
    Instant(Value),
    Range(Vec<RangeResult>),
}

/// Evaluate every target of one wall at the store's `now`: stat panels
/// as instant queries, time-series panels as range queries over the
/// dashboard's span ending now. `visit` receives each target's kind and
/// a closure that runs its query.
fn refresh(
    engine: &Engine,
    state: &State,
    wall: usize,
    mut visit: impl FnMut(PanelKind, &dyn Fn() -> Result<Answer, EvalError>) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let now = state.now;
    for &d in state
        .deck
        .chunks(DASHBOARDS_PER_WALL)
        .nth(wall)
        .expect("wall exists")
    {
        let dashboard = &state.dashboards[d];
        let range = dashboard.range;
        let span = range.to_ms - range.from_ms;
        for panel in &dashboard.panels {
            for target in &panel.targets {
                visit(panel.kind, &|| match panel.kind {
                    PanelKind::Stat => engine.instant_query(&target.expr, now).map(Answer::Instant),
                    _ => engine
                        .range_query(&target.expr, now - span, now, range.step_ms)
                        .map(Answer::Range),
                })?;
            }
        }
    }
    Ok(())
}

/// The timed refresh: results are only kept from the optimiser.
fn refresh_plain(state: &State, wall: usize) -> Result<(), EvalError> {
    refresh(&state.engine, state, wall, |_, query| {
        black_box(query()?);
        Ok(())
    })
}

/// The traced refresh: every target under its own span, timed by kind.
fn refresh_traced(
    state: &State,
    wall: usize,
    op: u64,
    times: &mut TargetTimes,
    rec: &mut Recorder,
) -> Result<(), EvalError> {
    refresh(&state.engine, state, wall, |kind, query| {
        let stat = kind == PanelKind::Stat;
        let name = if stat {
            "promql.instant"
        } else {
            "promql.range"
        };
        let (answer, took) = rec.time(name, op, query);
        black_box(answer?);
        let us = took.as_secs_f64() * 1e6;
        if stat {
            times.instant_us.push(us);
        } else {
            times.range_us.push(us);
        }
        Ok(())
    })
}

/// Replay a wall on the vectorized engine and on the interpreter oracle
/// over the same store; true when every result renders identically
/// (`{:?}` of an `f64` round-trips, so this is bit identity up to NaN
/// payloads).
fn matches_oracle(state: &State, wall: usize) -> bool {
    let oracle = Engine::with_options_shared(
        state.engine.store_arc(),
        EngineOptions {
            executor: ExecutorKind::Interpreter,
            ..*state.engine.options()
        },
    );
    let render = |engine: &Engine| {
        let mut d = Digest::default();
        refresh(engine, state, wall, |_, query| {
            d.feed(format!("{:?}", query()?).as_bytes());
            Ok(())
        })
        .map(|()| d.value())
    };
    matches!((render(&state.engine), render(&oracle)), (Ok(a), Ok(b)) if a == b)
}

/// What one tick measured.
struct Tick {
    ingest: Duration,
    total: Duration,
}

/// One scrape tick: ingest, then refresh every wall. Oracle replays of
/// the sampled ops run after the clock has stopped.
fn tick(
    state: &mut State,
    log: &mut OpLog,
    next_op: &mut u64,
    mut traced: Option<(&mut TargetTimes, &mut Recorder)>,
) -> Tick {
    let started = Instant::now();
    state.now += state.scrape_ms;
    let rec = traced.as_mut().map(|(_, rec)| &mut **rec);
    let ((), ingest) = time_with(rec, "tsdb.append_tick", *next_op, || {
        let store = state.engine.store_mut();
        for feed in &mut state.feeds {
            feed.last += feed.step;
            store
                .append(feed.labels.clone(), Sample::new(state.now, feed.last))
                .expect("ticks move forward in time");
        }
    });

    state.deck.shuffle(&mut state.dealer);
    let walls = state.walls();
    let mut latencies = Vec::with_capacity(walls);
    for wall in 0..walls {
        let op = *next_op;
        *next_op += 1;
        let t = Instant::now();
        let result = match traced.as_mut() {
            Some((times, rec)) => {
                rec.enter("op", op);
                let r = refresh_traced(state, wall, op, times, rec);
                rec.exit();
                r
            }
            None => refresh_plain(state, wall),
        };
        latencies.push((op, wall, result.is_ok(), t.elapsed().as_secs_f64() * 1e3));
    }
    let total = started.elapsed();

    for (op, wall, ok, ms) in latencies {
        if !ok {
            log.fail(false);
        } else if op % ORACLE_EVERY == 0 {
            log.ok(ms, Some(matches_oracle(state, wall)));
        } else {
            log.ok(ms, None);
        }
    }
    Tick { ingest, total }
}

fn build(seed: u64) -> State {
    let exp = Experiment::build(WorldConfig::default(), QUESTIONS);
    let db = exp.world.domain_db();
    let span = CopilotConfig::default().dashboard_span_ms;
    let dashboards: Vec<Dashboard> = exp
        .questions
        .iter()
        .map(|q| {
            let hints: Vec<PanelSpecHint> = q
                .reference
                .metrics
                .iter()
                .filter_map(|n| db.metric(n))
                .map(|m| PanelSpecHint {
                    name: m.name.clone(),
                    title: format!("{} ({})", m.procedure_display, m.name),
                    is_counter: m.counter_type.is_counter(),
                })
                .collect();
            let range = TimeRange::last(exp.world.eval_ts, span, 60);
            generate_dashboard(&q.text, &hints, Some(&q.reference.promql), range)
        })
        .collect();
    let feeds = exp
        .world
        .store
        .iter()
        .map(|series| {
            let tail = match series.head() {
                head if head.len() >= 2 => head[head.len() - 2..].to_vec(),
                _ => series.samples(),
            };
            let last = tail.last().map_or(0.0, |s| s.value);
            let prev = tail.iter().rev().nth(1).map_or(last, |s| s.value);
            Feed {
                labels: series.labels().clone(),
                last,
                step: (last - prev).max(0.0),
            }
        })
        .collect();
    State {
        now: exp.world.eval_ts,
        scrape_ms: exp.world.config.synth.step_ms,
        engine: Engine::new(exp.world.store),
        deck: (0..dashboards.len()).collect(),
        dealer: rng(seed, 3),
        dashboards,
        feeds,
    }
}

fn delta(after: PageCacheStats, before: PageCacheStats) -> (f64, f64, f64) {
    (
        (after.hits - before.hits) as f64,
        (after.misses - before.misses) as f64,
        (after.evictions - before.evictions) as f64,
    )
}

pub fn run(args: &RunArgs, rec: &mut Recorder) -> Outcome {
    let (mut state, setup_s) = timed_setup(args.setup_repeats(), || build(args.seed));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut next_op = 1u64;
    for _ in 0..WARMUP_TICKS {
        tick(&mut state, &mut OpLog::default(), &mut next_op, None);
    }

    let pass_ticks = if args.smoke {
        TICKS_PER_PASS / 10
    } else {
        TICKS_PER_PASS
    };
    // A traced run times one untraced pass first, for the overhead.
    let mut reference = OpLog::default();
    if args.trace {
        for _ in 0..pass_ticks {
            tick(&mut state, &mut reference, &mut next_op, None);
        }
    }

    let cache_before = state.engine.store().page_cache().stats();
    let mut times = TargetTimes::default();
    let mut ingest_ms = Vec::new();
    let mut ticks = 0u64;
    let min_passes = if args.trace || args.smoke {
        1
    } else {
        MIN_PASSES
    };
    out.wall_s = run_passes(args.seconds, min_passes, || {
        let mut measured = 0.0;
        for _ in 0..pass_ticks {
            let traced = args.trace.then_some((&mut times, &mut *rec));
            let t = tick(&mut state, &mut out.ops, &mut next_op, traced);
            ingest_ms.push(t.ingest.as_secs_f64() * 1e3);
            measured += t.total.as_secs_f64();
        }
        ticks += pass_ticks as u64;
        measured
    });
    let cache_after = state.engine.store().page_cache().stats();
    let (hits, misses, evictions) = delta(cache_after, cache_before);

    let store = state.engine.store();
    out.count("ticks", ticks);
    out.count("walls", state.walls() as u64);
    out.count("series", state.feeds.len() as u64);
    out.count("oracle_checked_ops", out.ops.ex_scored);
    out.count("page_cache_misses_in_run", misses as u64);
    out.checks.push(Check::new(
        "oracle_identity_on_sampled_ops",
        out.ops.ex_scored > 0 && out.ops.ex_correct == out.ops.ex_scored,
        format!(
            "{} of {} sampled refreshes match the interpreter",
            out.ops.ex_correct, out.ops.ex_scored
        ),
    ));
    out.checks.push(Check::new(
        "head_chunks_sealed_mid_run",
        misses > 0.0,
        format!("{misses} page-cache misses after set-up (a chunk sealed and was decoded)"),
    ));

    if args.trace {
        let ingest_s: f64 = ingest_ms.iter().sum::<f64>() / 1e3;
        let l = &mut out.layers;
        l.insert("promql.range_p50_us", stats::p50(&times.range_us));
        l.insert("promql.instant_p50_us", stats::p50(&times.instant_us));
        l.insert("tsdb.append_tick_p50_ms", stats::p50(&ingest_ms));
        l.insert(
            "tsdb.append_tick_p95_ms",
            stats::pct_or_zero(&ingest_ms, 95.0),
        );
        l.insert(
            "tsdb.appends_per_s",
            stats::share((ticks * state.feeds.len() as u64) as f64, ingest_s),
        );
        l.insert(
            "tsdb.page_cache_hit_share",
            stats::share(hits, hits + misses),
        );
        l.insert("tsdb.page_cache_evictions", evictions);
        l.insert(
            "tsdb.page_cache_resident_mb",
            cache_after.resident_bytes as f64 / (1024.0 * 1024.0),
        );
        l.insert(
            "tsdb.bytes_per_sample",
            stats::share(store.compressed_bytes() as f64, store.sample_count() as f64),
        );
        out.reference_ms = reference.ok_ms;
    }
    out
}
