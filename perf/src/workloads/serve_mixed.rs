//! `serve_mixed`: the same pipeline used the way the serving tier uses
//! it. `C` closed-loop clients pull a seeded schedule of misses, repeats
//! and refresh storms (see [`crate::schedule`]) through
//! `QueryService::spawn_gateway` with `C` workers: concurrent forks
//! sharing cores, queue hand-off, the gateway's batch delay, three
//! answer caches and singleflight. A cache, queue or gateway change
//! shows here and not in `ask_cold`; so does a retrieval gain bought
//! with lock contention.

use crate::report::{Check, OpLog, Outcome};
use crate::schedule::{self, Entry, Kind};
use crate::spans::Recorder;
use crate::world::{gpt4_sim, log_ask, run_passes, timed_setup, Experiment, WARMUP_OPS};
use crate::{host, stats, RunArgs};
use dio_benchmark::{BenchmarkQuestion, WorldConfig};
use dio_copilot::DioCopilot;
use dio_llm::BatchExpander;
use dio_serve::{
    normalize_question, GatewayConfig, QueryService, ServeConfig, ServeOutcome, TenantPolicy,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Questions generated; de-duplicating by normalized text leaves ≈ 474.
const GENERATED: usize = 500;
const QUEUE_DEPTH: usize = 64;

struct State {
    exp: Experiment,
    copilot: DioCopilot,
    /// Distinct questions (by the serving tier's normalized key).
    pool: Vec<BenchmarkQuestion>,
    schedule: Vec<Entry>,
    /// The service of the first pass; later passes spawn their own so
    /// every pass starts with empty caches.
    service: Option<QueryService>,
}

fn spawn(copilot: &DioCopilot, workers: usize) -> QueryService {
    QueryService::spawn_gateway(
        copilot,
        Box::new(BatchExpander::new(gpt4_sim())),
        ServeConfig {
            workers,
            queue_depth: QUEUE_DEPTH,
            tenant: TenantPolicy::unlimited(),
            ..ServeConfig::default()
        },
        GatewayConfig::default(),
    )
}

/// What the clients of one pass saw, beyond the op log.
#[derive(Default)]
struct Seen {
    log: OpLog,
    answered: u64,
    shed: u64,
    answer_hits: u64,
    semantic_hits: u64,
    coalesced: u64,
    /// Submit→reply latency by how the answer was produced, µs.
    hit_us: Vec<f64>,
    semantic_us: Vec<f64>,
    miss_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    service_us: Vec<f64>,
}

impl Seen {
    fn absorb(&mut self, other: Seen) {
        self.log.absorb(other.log);
        self.answered += other.answered;
        self.shed += other.shed;
        self.answer_hits += other.answer_hits;
        self.semantic_hits += other.semantic_hits;
        self.coalesced += other.coalesced;
        self.hit_us.extend(other.hit_us);
        self.semantic_us.extend(other.semantic_us);
        self.miss_us.extend(other.miss_us);
        self.queue_wait_us.extend(other.queue_wait_us);
        self.service_us.extend(other.service_us);
    }
}

/// One client: pull the next schedule entry until none is left.
fn client(
    service: &QueryService,
    (pool, schedule, ts): (&[BenchmarkQuestion], &[Entry], i64),
    cursor: &AtomicUsize,
    mut rec: Option<&mut Recorder>,
) -> Seen {
    let mut seen = Seen::default();
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(entry) = schedule.get(i) else {
            return seen;
        };
        let question = &pool[entry.question];
        let text = entry.spell(&question.text);
        if let Some(rec) = rec.as_deref_mut() {
            rec.enter("op", i as u64);
            rec.enter("serve.ask", i as u64);
        }
        let started = Instant::now();
        let outcome = service.ask(entry.tenant, &text, ts);
        let elapsed = started.elapsed();
        if let Some(rec) = rec.as_deref_mut() {
            rec.exit();
            rec.exit();
        }
        let answer = match outcome {
            ServeOutcome::Answered(a) => a,
            ServeOutcome::Shed(_) => {
                seen.shed += 1;
                seen.log.fail(true);
                continue;
            }
        };
        seen.answered += 1;
        let reference = question.reference.numeric;
        log_ask(
            &mut seen.log,
            &answer.response,
            reference,
            elapsed.as_secs_f64() * 1e3,
        );
        let us = elapsed.as_secs_f64() * 1e6;
        seen.answer_hits += u64::from(answer.answer_cache_hit);
        seen.semantic_hits += u64::from(answer.semantic_cache_hit);
        seen.coalesced += u64::from(answer.coalesced);
        if answer.answer_cache_hit {
            seen.hit_us.push(us);
        } else if answer.semantic_cache_hit {
            seen.semantic_us.push(us);
        } else if !answer.coalesced {
            seen.miss_us.push(us);
        }
        seen.queue_wait_us
            .push(answer.queue_wait.as_secs_f64() * 1e6);
        seen.service_us
            .push(answer.service_time.as_secs_f64() * 1e6);
    }
}

/// Service-side counters of one pass, read before it shuts down.
#[derive(Default)]
struct ServiceTotals {
    answer_lookups: f64,
    answer_hits: f64,
    embed_lookups: f64,
    embed_hits: f64,
    upstream_calls: f64,
    flushes: f64,
    flushed_items: f64,
    cost_cents: f64,
}

impl ServiceTotals {
    fn add(&mut self, service: &QueryService) {
        let answers = service.answer_cache_stats();
        self.answer_lookups += (answers.hits + answers.misses) as f64;
        self.answer_hits += answers.hits as f64;
        let embeds = service.embed_cache_stats();
        self.embed_lookups += (embeds.hits + embeds.misses) as f64;
        self.embed_hits += embeds.hits as f64;
        let gateway = service.gateway_stats().expect("spawned with a gateway");
        self.cost_cents += gateway.ledger.total_usd() * 100.0;
        self.flushes += gateway.flush_log.len() as f64;
        self.flushed_items += gateway.flush_log.iter().map(|f| f.size as f64).sum::<f64>();
        self.upstream_calls += service
            .obs()
            .registry()
            .snapshot()
            .total("dio_gateway_upstream_calls_total");
    }
}

/// One pass: the whole schedule through a service with empty caches.
/// Returns what the clients saw and the measured seconds.
fn pass(
    state: &mut State,
    clients: usize,
    traced: Option<&mut Recorder>,
    totals: &mut ServiceTotals,
) -> (Seen, f64) {
    let service = state
        .service
        .take()
        .unwrap_or_else(|| spawn(&state.copilot, clients));
    let cursor = AtomicUsize::new(0);
    let epoch = traced.as_ref().map_or_else(Instant::now, |r| r.epoch());
    let input = (
        &state.pool[..],
        &state.schedule[..],
        state.exp.world.eval_ts,
    );
    let mut recorders: Vec<Recorder> = (0..clients)
        .filter(|_| traced.is_some())
        .map(|_| Recorder::new(epoch))
        .collect();
    let started = Instant::now();
    let seen = std::thread::scope(|scope| {
        let (service, cursor) = (&service, &cursor);
        let mut recs = recorders.iter_mut();
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let rec = recs.next();
                scope.spawn(move || client(service, input, cursor, rec))
            })
            .collect();
        let mut seen = Seen::default();
        for h in handles {
            seen.absorb(h.join().expect("client thread panicked"));
        }
        seen
    });
    let seconds = started.elapsed().as_secs_f64();
    if let Some(rec) = traced {
        for r in recorders {
            rec.absorb(r);
        }
    }
    totals.add(&service);
    service.shutdown();
    (seen, seconds)
}

pub fn run(args: &RunArgs, rec: &mut Recorder) -> Outcome {
    let clients = host::clients();
    let generated = if args.smoke {
        GENERATED / 10
    } else {
        GENERATED
    };
    let (mut state, setup_s) = timed_setup(args.setup_repeats(), || {
        let exp = Experiment::build(WorldConfig::default(), generated);
        let copilot = exp.copilot();
        let mut keys = BTreeSet::new();
        let pool: Vec<BenchmarkQuestion> = exp
            .questions
            .iter()
            .filter(|q| keys.insert(normalize_question(&q.text)))
            .cloned()
            .collect();
        let schedule = schedule::build(pool.len(), args.seed);
        let service = Some(spawn(&copilot, clients));
        State {
            exp,
            copilot,
            pool,
            schedule,
            service,
        }
    });
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };

    // Warm the shared store and index without touching the service's
    // caches: the prototype copilot answers, the forks stay cold.
    let ts = state.exp.world.eval_ts;
    for q in state.pool.iter().rev().take(WARMUP_OPS) {
        std::hint::black_box(state.copilot.ask(&q.text, ts));
    }

    let mut totals = ServiceTotals::default();
    let mut reference = Seen::default();
    if args.trace {
        reference = pass(&mut state, clients, None, &mut ServiceTotals::default()).0;
    }
    let mut seen = Seen::default();
    let mut passes = 0u64;
    out.wall_s = run_passes(args.seconds, 1, || {
        let traced = args.trace.then_some(&mut *rec);
        let (s, seconds) = pass(&mut state, clients, traced, &mut totals);
        seen.absorb(s);
        passes += 1;
        seconds
    });

    let submitted = state.schedule.len() as u64 * passes;
    let count = |kind| state.schedule.iter().filter(|e| e.kind == kind).count() as u64;
    out.count("passes", passes);
    out.count("clients", clients as u64);
    out.count("pool_questions", state.pool.len() as u64);
    out.count("schedule_ops", state.schedule.len() as u64);
    out.count("schedule_firsts", count(Kind::First));
    out.count("schedule_repeats", count(Kind::Repeat));
    out.count("schedule_storms", count(Kind::Storm));
    out.count("schedule_digest", schedule::digest(&state.schedule));
    out.count("answer_cache_hits", seen.answer_hits);
    out.count("semantic_cache_hits", seen.semantic_hits);
    out.count("coalesced", seen.coalesced);
    out.checks.push(Check::new(
        "every_op_resolved",
        seen.answered + seen.shed == submitted && seen.log.attempted == submitted,
        format!(
            "{} answered + {} shed of {submitted} submitted",
            seen.answered, seen.shed
        ),
    ));
    out.checks.push(Check::new(
        "caches_saw_traffic",
        seen.answer_hits > 0 && seen.semantic_hits > 0,
        format!(
            "{} answer-cache hits, {} semantic hits, {} coalesced",
            seen.answer_hits, seen.semantic_hits, seen.coalesced
        ),
    ));

    if args.trace {
        let answered = seen.answered as f64;
        let l = &mut out.layers;
        l.insert("serve.queue_wait_p50_us", stats::p50(&seen.queue_wait_us));
        l.insert(
            "serve.queue_wait_p95_us",
            stats::pct_or_zero(&seen.queue_wait_us, 95.0),
        );
        l.insert("serve.service_p50_us", stats::p50(&seen.service_us));
        l.insert(
            "serve.shed_share",
            stats::share(seen.shed as f64, submitted as f64),
        );
        l.insert(
            "serve.answer_cache_hit_share",
            stats::share(totals.answer_hits, totals.answer_lookups),
        );
        l.insert(
            "serve.embed_cache_hit_share",
            stats::share(totals.embed_hits, totals.embed_lookups),
        );
        l.insert("serve.hit_p50_us", stats::p50(&seen.hit_us));
        l.insert("serve.miss_p50_ms", stats::p50(&seen.miss_us) / 1e3);
        l.insert(
            "gateway.semantic_hit_share",
            stats::share(seen.semantic_hits as f64, answered),
        );
        l.insert("gateway.semantic_hit_p50_us", stats::p50(&seen.semantic_us));
        l.insert(
            "gateway.coalesced_share",
            stats::share(seen.coalesced as f64, answered),
        );
        l.insert(
            "gateway.upstream_calls_per_answer",
            stats::share(totals.upstream_calls, answered),
        );
        l.insert(
            "gateway.batch_size_mean",
            stats::share(totals.flushed_items, totals.flushes),
        );
        l.insert(
            "gateway.cost_cents_per_answer",
            stats::share(totals.cost_cents, answered),
        );
        out.reference_ms = reference.log.ok_ms;
    }
    out.ops = seen.log;
    out
}
