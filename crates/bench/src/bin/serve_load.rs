//! `serve_load` — load-test the dio-serve query service against the
//! benchmark, comparing service throughput and accuracy with the
//! sequential copilot baseline.
//!
//! Phases:
//!
//! 1. **sequential** — one copilot answers every question in order
//!    (the paper's single-operator loop), establishing baseline qps
//!    and execution accuracy;
//! 2. **serve cold** — the question set is replayed through the
//!    service at the configured concurrency in a seeded shuffled
//!    order; every answer re-scored for EX parity with the baseline;
//! 3. **serve warm** — the same questions again, noisy-cased and
//!    re-padded, which the answer cache must absorb (≥ 95% hit rate);
//! 4. **overload** — a deliberately undersized service (1 worker,
//!    4-deep queue) takes the whole set in one burst and must shed
//!    explicitly (counted in `dio_serve_shed_total`) while answering
//!    every request it accepted.
//!
//! Flags: `--quick` (small world, 40 questions), `--concurrency=N`
//! (default 8), `--rate=R` arrivals/sec (default 0 = open throttle),
//! `--seed=S` (arrival-order shuffle seed).
//!
//! Writes `results/BENCH_serve.json`.

use dio_bench::{flag_value, percentile, quick_flag, Experiment};
use dio_benchmark::eval::numeric_match;
use dio_benchmark::{BenchmarkQuestion, WorldConfig};
use dio_serve::{BrownoutConfig, QueryRequest, QueryService, ServeConfig, ServeOutcome, TenantPolicy};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::{Duration, Instant};

const TENANTS: [&str; 4] = ["noc-east", "noc-west", "core-eng", "dashboards"];

#[derive(Debug, Clone, Serialize)]
struct PassResult {
    pass: String,
    requests: usize,
    answered: usize,
    shed: usize,
    correct: usize,
    ex_percent: f64,
    wall_seconds: f64,
    qps: f64,
    answer_cache_hits: usize,
    answer_cache_hit_rate: f64,
    p50_micros: f64,
    p95_micros: f64,
    p99_micros: f64,
    /// Submit-to-pickup decomposition: time spent queued…
    queue_wait_p50_micros: f64,
    queue_wait_p95_micros: f64,
    queue_wait_p99_micros: f64,
    /// …versus time a worker spent producing the answer.
    service_p50_micros: f64,
    service_p95_micros: f64,
    service_p99_micros: f64,
}

#[derive(Debug, Clone, Serialize)]
struct CacheTotals {
    cache: String,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    hit_rate: f64,
}

#[derive(Debug, Clone, Serialize)]
struct OverloadResult {
    requests: usize,
    accepted: usize,
    shed_sync: u64,
    shed_total_metric: f64,
    answered: usize,
    all_accepted_resolved: bool,
}

#[derive(Debug, Clone, Serialize)]
struct ServeArtifact {
    bench: String,
    quick: bool,
    concurrency: usize,
    arrival_rate_per_sec: f64,
    seed: u64,
    available_parallelism: usize,
    questions: usize,
    passes: Vec<PassResult>,
    caches: Vec<CacheTotals>,
    overload: OverloadResult,
    cold_speedup_vs_sequential: f64,
    warm_speedup_vs_sequential: f64,
    ex_delta_cold_vs_sequential: i64,
    /// Flight-recorder tail sample: where the dumped span trees live
    /// and what the recorder kept.
    trace_dump_path: String,
    retained_traces: usize,
    retained_slow: usize,
    retained_shed: usize,
    /// Spans unreachable from their trace root across every finished
    /// trace (must be 0; gated below).
    orphan_spans: usize,
}

/// Replay `questions` through the service, one submission per entry,
/// pacing arrivals at `rate` (0 = no pacing), and score the answers.
fn run_pass(
    service: &QueryService,
    questions: &[&BenchmarkQuestion],
    eval_ts: i64,
    rate: f64,
    pass: &str,
    mutate_text: bool,
) -> PassResult {
    let hits_before = service.answer_cache_stats().hits;
    let started = Instant::now();
    let mut tickets = Vec::with_capacity(questions.len());
    for (i, q) in questions.iter().enumerate() {
        if rate > 0.0 {
            // Deterministic uniform pacing at the requested rate.
            let due = started + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let text = if mutate_text {
            // Warm-pass phrasing noise the normalizer must absorb.
            format!("  {}  ", q.text.to_uppercase())
        } else {
            q.text.clone()
        };
        let tenant = TENANTS[i % TENANTS.len()];
        match service.submit(QueryRequest::new(tenant, text, eval_ts)) {
            Ok(t) => tickets.push((q, Some(t))),
            Err(_) => tickets.push((q, None)),
        }
    }

    let mut answered = 0;
    let mut shed = 0;
    let mut correct = 0;
    let mut latencies = Vec::with_capacity(tickets.len());
    let mut queue_waits = Vec::with_capacity(tickets.len());
    let mut service_times = Vec::with_capacity(tickets.len());
    for (q, ticket) in tickets {
        let Some(ticket) = ticket else {
            shed += 1;
            continue;
        };
        match ticket.wait() {
            ServeOutcome::Answered(a) => {
                answered += 1;
                latencies.push((a.queue_wait + a.service_time).as_micros() as f64);
                queue_waits.push(a.queue_wait.as_micros() as f64);
                service_times.push(a.service_time.as_micros() as f64);
                let ok = a
                    .response
                    .numeric_answer
                    .map(|v| numeric_match(v, q.reference.numeric))
                    .unwrap_or(false);
                if ok {
                    correct += 1;
                }
            }
            ServeOutcome::Shed(_) => shed += 1,
        }
    }
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    queue_waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    service_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let cache_hits = (service.answer_cache_stats().hits - hits_before) as usize;
    PassResult {
        pass: pass.to_string(),
        requests: questions.len(),
        answered,
        shed,
        correct,
        ex_percent: 100.0 * correct as f64 / questions.len().max(1) as f64,
        wall_seconds: wall,
        qps: answered as f64 / wall.max(1e-9),
        answer_cache_hits: cache_hits,
        answer_cache_hit_rate: cache_hits as f64 / questions.len().max(1) as f64,
        p50_micros: percentile(&latencies, 0.50),
        p95_micros: percentile(&latencies, 0.95),
        p99_micros: percentile(&latencies, 0.99),
        queue_wait_p50_micros: percentile(&queue_waits, 0.50),
        queue_wait_p95_micros: percentile(&queue_waits, 0.95),
        queue_wait_p99_micros: percentile(&queue_waits, 0.99),
        service_p50_micros: percentile(&service_times, 0.50),
        service_p95_micros: percentile(&service_times, 0.95),
        service_p99_micros: percentile(&service_times, 0.99),
    }
}

fn main() {
    let quick = quick_flag();
    let concurrency: usize = flag_value("concurrency")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let rate: f64 = flag_value("rate")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    let seed: u64 = flag_value("seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5e12_7e5e);
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!("building world ({})…", if quick { "quick" } else { "full" });
    let exp = if quick {
        Experiment::with_config(WorldConfig::small(), 40)
    } else {
        Experiment::standard()
    };
    let eval_ts = exp.world.eval_ts;
    let n = exp.questions.len();

    // Phase 1: the sequential baseline.
    eprintln!("sequential baseline ({n} questions)…");
    let mut sequential = exp.copilot(Experiment::gpt4());
    let seq_started = Instant::now();
    let mut seq_correct = 0;
    for q in &exp.questions {
        let r = sequential.ask(&q.text, eval_ts);
        if r.numeric_answer
            .map(|v| numeric_match(v, q.reference.numeric))
            .unwrap_or(false)
        {
            seq_correct += 1;
        }
    }
    let seq_wall = seq_started.elapsed().as_secs_f64();
    let seq_qps = n as f64 / seq_wall.max(1e-9);
    eprintln!(
        "  sequential: EX {seq_correct}/{n}, {seq_wall:.2}s, {seq_qps:.2} qps"
    );

    // Phases 2+3: the service, cold then warm, over a seeded shuffle.
    let mut order: Vec<&BenchmarkQuestion> = exp.questions.iter().collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    let service = QueryService::spawn(
        &exp.copilot(Experiment::gpt4()),
        Experiment::gpt4,
        ServeConfig {
            workers: concurrency,
            queue_depth: n.max(64),
            tenant: TenantPolicy::unlimited(),
            // The whole set is submitted as one burst into a queue
            // sized to hold it, so occupancy pins at 1.0 by design;
            // leave the brownout ladder out of this EX-parity
            // throughput measurement (overload_drill measures it).
            brownout: BrownoutConfig::disabled(),
            ..ServeConfig::default()
        },
    );
    eprintln!("serve cold pass (concurrency {concurrency})…");
    let cold = run_pass(&service, &order, eval_ts, rate, "serve_cold", false);
    eprintln!(
        "  cold: EX {}/{}, {:.2}s, {:.2} qps, {} cache hits",
        cold.correct, n, cold.wall_seconds, cold.qps, cold.answer_cache_hits
    );
    eprintln!("serve warm pass…");
    let warm = run_pass(&service, &order, eval_ts, rate, "serve_warm", true);
    eprintln!(
        "  warm: EX {}/{}, {:.2}s, {:.2} qps, hit rate {:.1}%",
        warm.correct,
        n,
        warm.wall_seconds,
        warm.qps,
        100.0 * warm.answer_cache_hit_rate
    );
    let caches = vec![
        {
            let s = service.answer_cache_stats();
            CacheTotals {
                cache: "answer".into(),
                hits: s.hits,
                misses: s.misses,
                evictions: s.evictions,
                invalidations: s.invalidations,
                hit_rate: s.hit_rate(),
            }
        },
        {
            let s = service.embed_cache_stats();
            CacheTotals {
                cache: "embed".into(),
                hits: s.hits,
                misses: s.misses,
                evictions: s.evictions,
                invalidations: s.invalidations,
                hit_rate: s.hit_rate(),
            }
        },
    ];

    // Flight recorder: the service's tracer offered every finished
    // request trace; dump the retained tail (slow / shed / degraded /
    // errored trees) next to the artifact and gate on structure.
    let recorder = service.obs().recorder().clone();
    let tracer = service.obs().tracer().clone();
    service.shutdown();
    let orphan_spans: usize = tracer
        .recent(4096)
        .iter()
        .filter(|t| t.finished)
        .map(|t| t.orphan_count())
        .sum();
    let trace_dump_path = std::path::PathBuf::from("results").join("TRACES_serve.json");
    std::fs::create_dir_all("results").expect("create results dir");
    let retained_traces = recorder.dump(&trace_dump_path).expect("dump trace trees");
    let retained_slow = recorder.retained_for("slow").len();
    let retained_shed = recorder.retained_for("shed").len();
    eprintln!(
        "  flight recorder: {} trace trees retained ({} slow, {} shed) -> {}",
        retained_traces,
        retained_slow,
        retained_shed,
        trace_dump_path.display()
    );

    // Phase 4: overload an undersized service. A fresh prototype keeps
    // its shed counters on a registry of their own.
    eprintln!("overload phase (1 worker, 4-deep queue)…");
    let small = QueryService::spawn(
        &exp.copilot(Experiment::gpt4()),
        Experiment::gpt4,
        ServeConfig {
            workers: 1,
            queue_depth: 4,
            tenant: TenantPolicy::unlimited(),
            ..ServeConfig::default()
        },
    );
    let mut accepted = Vec::new();
    for (i, q) in exp.questions.iter().enumerate() {
        let tenant = TENANTS[i % TENANTS.len()];
        if let Ok(t) = small.submit(QueryRequest::new(tenant, &q.text, eval_ts)) {
            accepted.push(t);
        }
    }
    let shed_sync = small.shed_count();
    let accepted_n = accepted.len();
    let mut overload_answered = 0;
    let mut all_resolved = true;
    for t in accepted {
        match t.wait() {
            ServeOutcome::Answered(_) => overload_answered += 1,
            // DeadlineExpired is a legal resolution under overload;
            // what is not legal is a missing reply (wait() maps a
            // severed channel to WorkerPanic, which would trip this).
            ServeOutcome::Shed(s) if s.reason == dio_serve::ShedReason::DeadlineExpired => {}
            ServeOutcome::Shed(_) => all_resolved = false,
        }
    }
    let shed_metric = small
        .obs()
        .registry()
        .snapshot()
        .total("dio_serve_shed_total");
    let overload = OverloadResult {
        requests: n,
        accepted: accepted_n,
        shed_sync,
        shed_total_metric: shed_metric,
        answered: overload_answered,
        all_accepted_resolved: all_resolved,
    };
    small.shutdown();
    eprintln!(
        "  overload: {} accepted, {} shed (metric {}), {} answered",
        accepted_n, shed_sync, shed_metric, overload_answered
    );

    // Assemble + gate.
    let cold_speedup = cold.qps / seq_qps.max(1e-9);
    let warm_speedup = warm.qps / seq_qps.max(1e-9);
    let ex_delta = cold.correct as i64 - seq_correct as i64;
    let artifact = ServeArtifact {
        bench: "serve".into(),
        quick,
        concurrency,
        arrival_rate_per_sec: rate,
        seed,
        available_parallelism: parallelism,
        questions: n,
        passes: vec![
            PassResult {
                pass: "sequential".into(),
                requests: n,
                answered: n,
                shed: 0,
                correct: seq_correct,
                ex_percent: 100.0 * seq_correct as f64 / n.max(1) as f64,
                wall_seconds: seq_wall,
                qps: seq_qps,
                answer_cache_hits: 0,
                answer_cache_hit_rate: 0.0,
                p50_micros: 0.0,
                p95_micros: 0.0,
                p99_micros: 0.0,
                queue_wait_p50_micros: 0.0,
                queue_wait_p95_micros: 0.0,
                queue_wait_p99_micros: 0.0,
                service_p50_micros: 0.0,
                service_p95_micros: 0.0,
                service_p99_micros: 0.0,
            },
            cold.clone(),
            warm.clone(),
        ],
        caches,
        overload: overload.clone(),
        cold_speedup_vs_sequential: cold_speedup,
        warm_speedup_vs_sequential: warm_speedup,
        ex_delta_cold_vs_sequential: ex_delta,
        trace_dump_path: trace_dump_path.display().to_string(),
        retained_traces,
        retained_slow,
        retained_shed,
        orphan_spans,
    };
    let path = std::path::PathBuf::from("results").join("BENCH_serve.json");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&artifact).expect("serialise artifact"),
    )
    .expect("write artifact");
    eprintln!("wrote {}", path.display());

    // Hard gates.
    assert!(
        ex_delta.abs() <= 1,
        "EX parity violated: sequential {seq_correct}, serve cold {} (delta {ex_delta})",
        cold.correct
    );
    assert!(
        warm.answer_cache_hit_rate >= 0.95,
        "warm pass hit rate {:.3} below 0.95",
        warm.answer_cache_hit_rate
    );
    assert!(
        warm_speedup >= 4.0,
        "warm service throughput {:.2} qps is under 4x the sequential {:.2} qps",
        warm.qps,
        seq_qps
    );
    assert!(
        overload.shed_sync > 0 && overload.shed_total_metric > 0.0,
        "undersized queue did not shed"
    );
    assert!(
        overload.all_accepted_resolved,
        "an accepted request was dropped under overload"
    );
    assert_eq!(
        orphan_spans, 0,
        "finished traces contain spans unreachable from their root"
    );
    assert!(
        retained_slow >= 1,
        "flight recorder retained no slow trace across {} requests",
        3 * n
    );
    // The cold-path parallel speedup needs physical cores; gate it so
    // single-core containers still exercise everything above.
    if parallelism >= 8 && concurrency >= 8 {
        assert!(
            cold_speedup >= 4.0,
            "cold service throughput {:.2} qps is under 4x the sequential {:.2} qps on {parallelism} cores",
            cold.qps,
            seq_qps
        );
    } else if parallelism < 8 {
        eprintln!(
            "note: {parallelism} core(s) available — cold-path 4x gate skipped (reported {cold_speedup:.2}x)"
        );
    }
    eprintln!(
        "serve_load ok: cold {cold_speedup:.2}x, warm {warm_speedup:.2}x, EX delta {ex_delta}"
    );
}
