//! `tsdb_bench` — storage-engine and vectorized-executor benchmark.
//!
//! Phases:
//!
//! 1. **ingest** — append ≥1M samples (counter- and gauge-shaped)
//!    across many series, measuring write throughput and the sealed
//!    chunks' compression ratio against raw 16-byte samples;
//! 2. **range scan** — dashboard-style range queries dominated by
//!    matrix-window kernels (`rate`, `increase`, `*_over_time`) run
//!    through the tree-walking interpreter and the vectorized
//!    executor, confirming byte-identical results and measuring the
//!    speedup (the vectorized engine matches + decodes each selector
//!    once and reuses precomputed output orderings across steps, so it
//!    must win by an order of magnitude);
//! 3. **aggregation** — grouped-aggregation range queries. Both
//!    executors end in the same fold (that is what guarantees
//!    byte-identity), but a plain aggregation over one selector is
//!    grouped once per query by the vectorized engine and once per
//!    step by the interpreter; `a / b` and `topk` roots still step on
//!    both, so the panel's gap is smaller than the scan panel's;
//! 4. **instant** — single-timestamp queries, where scan memoisation
//!    cannot amortise and both engines do one pass.
//!
//! Every timing is best-of-N with a warmup pass, so page-cache misses
//! and allocator noise don't decide the gates.
//!
//! Flags: `--quick` (smaller world, fewer iterations — the CI smoke
//! mode), `--seed=S`.
//!
//! Writes `results/BENCH_tsdb.json` and enforces conservative floors
//! (quick mode: compression ≥ 2x, range-scan speedup ≥ 3x,
//! aggregation ≥ 3x; full mode: ≥ 2.5x, ≥ 10x, ≥ 5x) so CI catches
//! regressions, not just drift.

use dio_bench::drill::Drill;
use dio_promql::{Engine, EngineOptions, ExecutorKind, Value};
use dio_tsdb::{Labels, MetricStore, Sample};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct IngestResult {
    series: usize,
    samples: usize,
    wall_seconds: f64,
    samples_per_second: f64,
    raw_bytes: usize,
    compressed_bytes: usize,
    sealed_samples: usize,
    compression_ratio: f64,
    bytes_per_sample: f64,
}

#[derive(Debug, Clone, Serialize)]
struct QueryTiming {
    query: String,
    steps: usize,
    interpreter_seconds: f64,
    vectorized_seconds: f64,
    speedup: f64,
    identical: bool,
}

#[derive(Debug, Clone, Serialize)]
struct ScanResult {
    queries: usize,
    interpreter_seconds: f64,
    vectorized_seconds: f64,
    speedup: f64,
    per_query: Vec<QueryTiming>,
}

#[derive(Debug, Clone, Serialize)]
struct TsdbArtifact {
    ingest: IngestResult,
    range_scan: ScanResult,
    aggregation: ScanResult,
    instant: ScanResult,
}

/// Deterministic value stream (SplitMix64 → unit floats).
struct ValueGen {
    state: u64,
}

impl ValueGen {
    fn new(seed: u64) -> Self {
        ValueGen { state: seed | 1 }
    }

    fn next_unit(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    }
}

/// Build the bench store: `series_count` series, `steps` samples each
/// at a 15s scrape interval. Half are counters (monotone, integral
/// increments — the compressible common case), half gauges.
fn build_store(series_count: usize, steps: usize, seed: u64) -> (MetricStore, f64) {
    let mut store = MetricStore::new();
    let mut vg = ValueGen::new(seed);
    let mut specs: Vec<(Labels, bool, f64, f64)> = Vec::new();
    for i in 0..series_count {
        let metric = format!("bench_metric_{}", i % 8);
        let labels = Labels::from_pairs([
            ("__name__", metric.as_str()),
            ("instance", &format!("node-{}", i / 8)),
            ("zone", ["east", "west"][i % 2]),
        ]);
        let is_counter = i % 2 == 0;
        let rate = 1.0 + vg.next_unit() * 50.0;
        specs.push((labels, is_counter, rate, vg.next_unit() * 100.0));
    }
    let started = Instant::now();
    for step in 0..steps {
        let ts = (step as i64 + 1) * 15_000;
        for (labels, is_counter, rate, level) in specs.iter_mut() {
            let value = if *is_counter {
                *level += (*rate * 15.0).round();
                *level
            } else {
                *level + (step as f64 * 0.1).sin() * *rate
            };
            store
                .append(labels.clone(), Sample::new(ts, value))
                .expect("in-order append");
        }
    }
    (store, started.elapsed().as_secs_f64())
}

fn engine(store: &MetricStore, kind: ExecutorKind) -> Engine {
    Engine::with_options(
        store.clone(),
        EngineOptions {
            max_samples: 0,
            executor: kind,
            ..EngineOptions::default()
        },
    )
}

/// Fingerprint a value with floats as raw bits so "identical" means
/// byte-identical, NaNs included.
fn fingerprint(v: &Value) -> String {
    match v {
        Value::Scalar(x) => format!("s{:016x}", x.to_bits()),
        Value::Str(s) => format!("t{s}"),
        Value::Vector(samples) => samples
            .iter()
            .map(|s| format!("{:?}={:016x};", s.labels, s.value.to_bits()))
            .collect(),
        Value::Matrix(series) => series
            .iter()
            .map(|s| {
                let pts: String = s
                    .samples
                    .iter()
                    .map(|p| format!("{}@{:016x},", p.timestamp_ms, p.value.to_bits()))
                    .collect();
                format!("{:?}=[{pts}];", s.labels)
            })
            .collect(),
    }
}

/// The shared range-query measurement protocol: evaluation window,
/// step, and repetitions per query.
#[derive(Clone, Copy)]
struct Protocol {
    start: i64,
    end: i64,
    step: i64,
    reps: usize,
}

/// Best-of-`reps` wall time for one range query (one unmeasured warmup
/// pass first), plus the result fingerprint.
fn time_range(engine: &Engine, query: &str, proto: Protocol) -> (f64, String) {
    let run = || {
        engine
            .range_query(query, proto.start, proto.end, proto.step)
            .unwrap_or_else(|e| panic!("range query `{query}` failed: {e}"))
    };
    let result = run(); // warmup: decode chunks into the page cache
    let mut best = f64::INFINITY;
    for _ in 0..proto.reps {
        let t0 = Instant::now();
        let r = run();
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&r);
    }
    let mut fp = String::new();
    for series in &result {
        fp.push_str(&format!("{:?}=[", series.labels));
        for p in &series.points {
            fp.push_str(&format!("{}@{:016x},", p.timestamp_ms, p.value.to_bits()));
        }
        fp.push_str("];");
    }
    (best, fp)
}

/// Total wall time of `iters` instant queries at `ts`, plus the result
/// fingerprint.
fn time_instant(engine: &Engine, query: &str, ts: i64, iters: usize) -> (f64, String) {
    let fp = fingerprint(&engine.instant_query(query, ts).expect("instant"));
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(engine.instant_query(query, ts).expect("instant"));
    }
    (t0.elapsed().as_secs_f64(), fp)
}

/// Diff one panel of queries through both executors with `measure`
/// (wall seconds and a result fingerprint), recording per query whether
/// the results are byte-identical, and returning grouped timings.
fn run_panel(
    name: &str,
    panel: &[&str],
    steps: usize,
    (interp, vectorized): (&Engine, &Engine),
    measure: impl Fn(&Engine, &str) -> (f64, String),
) -> ScanResult {
    eprintln!("{name}: {} queries x {steps} steps…", panel.len());
    let mut per_query = Vec::new();
    let (mut interp_total, mut vec_total) = (0.0, 0.0);
    for &query in panel {
        let (iw, ifp) = measure(interp, query);
        let (vw, vfp) = measure(vectorized, query);
        interp_total += iw;
        vec_total += vw;
        per_query.push(QueryTiming {
            query: query.to_string(),
            steps,
            interpreter_seconds: iw,
            vectorized_seconds: vw,
            speedup: iw / vw.max(1e-9),
            identical: ifp == vfp,
        });
    }
    let result = ScanResult {
        queries: panel.len(),
        interpreter_seconds: interp_total,
        vectorized_seconds: vec_total,
        speedup: interp_total / vec_total.max(1e-9),
        per_query,
    };
    eprintln!(
        "{name}: interpreter {:.3}s, vectorized {:.3}s — {:.1}x",
        result.interpreter_seconds, result.vectorized_seconds, result.speedup
    );
    result
}

fn main() -> ExitCode {
    let mut drill = Drill::from_args("tsdb", 0x75db);
    let (quick, seed) = (drill.quick, drill.seed);

    let (series_count, steps) = if quick { (240, 500) } else { (1200, 900) };
    eprintln!(
        "ingesting {} series x {} steps ({} samples, {})…",
        series_count,
        steps,
        series_count * steps,
        if quick { "quick" } else { "full" }
    );
    let (store, ingest_wall) = build_store(series_count, steps, seed);
    let samples = store.sample_count();
    drill.gate(
        "every_append_stored",
        samples == series_count * steps,
        format!(
            "{samples} samples stored of {} appended",
            series_count * steps
        ),
    );
    if !quick {
        drill.gate(
            "full_mode_ingests_1m_samples",
            samples >= 1_000_000,
            format!("{samples} samples"),
        );
    }
    let compressed = store.compressed_bytes();
    let sealed: usize = store
        .iter()
        .map(|s| s.chunks().iter().map(|c| c.len()).sum::<usize>())
        .sum();
    let raw = sealed * 16;
    let ratio = raw as f64 / compressed.max(1) as f64;
    let ingest = IngestResult {
        series: series_count,
        samples,
        wall_seconds: ingest_wall,
        samples_per_second: samples as f64 / ingest_wall.max(1e-9),
        raw_bytes: raw,
        compressed_bytes: compressed,
        sealed_samples: sealed,
        compression_ratio: ratio,
        bytes_per_sample: compressed as f64 / sealed.max(1) as f64,
    };
    eprintln!(
        "ingest: {:.0} samples/s, {:.2}x compression ({:.2} B/sample sealed)",
        ingest.samples_per_second, ingest.compression_ratio, ingest.bytes_per_sample
    );

    let interp = engine(&store, ExecutorKind::Interpreter);
    let vectorized = engine(&store, ExecutorKind::Vectorized);

    let end = steps as i64 * 15_000;
    let start = end / 4;
    let step = 60_000;
    let reps = if quick { 2 } else { 7 };

    // Range-scan panel: matrix-window kernels, the tentpole's 10x gate.
    let scan_panel = [
        "rate(bench_metric_0[5m])",
        "rate(bench_metric_1[30m])",
        "increase(bench_metric_2[10m])",
        "max_over_time(bench_metric_3[10m])",
        "avg_over_time(bench_metric_4[15m])",
        "delta(bench_metric_5[10m])",
        // Raw series panels — no kernel at all, pure scan throughput.
        "bench_metric_6",
        "bench_metric_7{zone=\"east\"}",
    ];
    let proto = Protocol {
        start,
        end,
        step,
        reps,
    };
    let n_steps = ((end - start) / step) as usize + 1;
    let engines = (&interp, &vectorized);
    let range = |engine: &Engine, query: &str| time_range(engine, query, proto);
    let range_scan = run_panel("range scan", &scan_panel, n_steps, engines, range);

    // Aggregation panel: grouped reductions on top of the scans. The
    // first three evaluate whole-range on the vectorized engine
    // (grouped once per query); the binary and `topk` roots run its
    // step loop, whose per-step aggregation is the interpreter's own
    // code, so they bound the panel's speedup.
    let agg_panel = [
        "sum(rate(bench_metric_0[5m]))",
        "sum by (instance) (rate(bench_metric_1[5m]))",
        "avg by (zone) (bench_metric_2)",
        "sum(rate(bench_metric_4[5m])) / sum(rate(bench_metric_0[5m]))",
        "topk(3, sum by (instance) (rate(bench_metric_5[5m])))",
    ];
    let aggregation = run_panel("aggregation", &agg_panel, n_steps, engines, range);

    let iters = if quick { 10 } else { 40 };
    let every_query: Vec<&str> = scan_panel.iter().chain(&agg_panel).copied().collect();
    let instant = run_panel("instant", &every_query, iters, engines, |engine, query| {
        time_instant(engine, query, end, iters)
    });

    for (panel, result) in [
        ("range_scan", &range_scan),
        ("aggregation", &aggregation),
        ("instant", &instant),
    ] {
        let diverged: Vec<&str> = result
            .per_query
            .iter()
            .filter(|q| !q.identical)
            .map(|q| q.query.as_str())
            .collect();
        drill.gate(
            &format!("{panel}:byte_identical_on_every_query"),
            diverged.is_empty(),
            format!(
                "{} of {} queries diverged {diverged:?}",
                diverged.len(),
                result.queries
            ),
        );
    }
    // Floors: CI runs --quick on shared hardware, so the quick gates
    // are deliberately conservative; the full run must hit the
    // tentpole's ≥10x range-scan target.
    let min_speedup = if quick { 3.0 } else { 10.0 };
    drill.gate(
        "range_scan_speedup",
        range_scan.speedup >= min_speedup,
        format!("{:.2}x, floor {min_speedup:.1}x", range_scan.speedup),
    );
    let min_agg_speedup = if quick { 3.0 } else { 5.0 };
    drill.gate(
        "aggregation_speedup",
        aggregation.speedup >= min_agg_speedup,
        format!("{:.2}x, floor {min_agg_speedup:.1}x", aggregation.speedup),
    );
    // Quick mode seals fewer, shorter chunk runs (more codec headers
    // per sample), so its compression floor is lower.
    let min_ratio = if quick { 2.0 } else { 2.5 };
    drill.gate(
        "compression_ratio",
        ingest.compression_ratio >= min_ratio,
        format!("{:.2}x, floor {min_ratio:.1}x", ingest.compression_ratio),
    );
    drill.gate(
        "write_throughput",
        ingest.samples_per_second >= 100_000.0,
        format!("{:.0} samples/s, floor 100k", ingest.samples_per_second),
    );

    drill.finish(&TsdbArtifact {
        ingest,
        range_scan,
        aggregation,
        instant,
    })
}
