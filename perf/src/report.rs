//! Metric names, the result a run produces, and how it is printed.
//!
//! The two tables below are the program's side of `BENCHMARK.json`; a
//! unit test keeps them equal to it.

use crate::host::HostFingerprint;
use crate::stats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["ask_cold", "serve_mixed", "dash_refresh", "shard_failover"];

/// End-to-end metrics (untraced runs): name, unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ex_percent", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): name, unit. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("embed.question_p50_us", "us"),
    ("vecstore.search_p50_us", "us"),
    ("vecstore.candidates_scanned_per_ask", "count"),
    ("copilot.retrieve_p50_us", "us"),
    ("copilot.mmr_p50_us", "us"),
    ("copilot.stage_retrieve_p50_us", "us"),
    ("copilot.stage_generate_p50_us", "us"),
    ("copilot.stage_execute_p50_us", "us"),
    ("copilot.stage_dashboard_p50_us", "us"),
    ("copilot.unattributed_share", "share"),
    ("copilot.repairs_per_ask", "count"),
    ("copilot.degraded_share", "share"),
    ("llm.prompt_build_p50_us", "us"),
    ("llm.complete_p50_us", "us"),
    ("llm.prompt_tokens_per_ask", "count"),
    ("llm.completion_tokens_per_ask", "count"),
    ("llm.cost_cents_per_ask", "cents"),
    ("promql.parse_p50_us", "us"),
    ("sandbox.execute_p50_us", "us"),
    ("sandbox.rejected_share", "share"),
    ("promql.range_p50_us", "us"),
    ("promql.instant_p50_us", "us"),
    ("tsdb.append_tick_p50_ms", "ms"),
    ("tsdb.append_tick_p95_ms", "ms"),
    ("tsdb.appends_per_s", "1/s"),
    ("tsdb.page_cache_hit_share", "share"),
    ("tsdb.page_cache_evictions", "count"),
    ("tsdb.page_cache_resident_mb", "MiB"),
    ("tsdb.bytes_per_sample", "B"),
    ("dashboard.generate_p50_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p95_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.shed_share", "share"),
    ("serve.answer_cache_hit_share", "share"),
    ("serve.embed_cache_hit_share", "share"),
    ("serve.hit_p50_us", "us"),
    ("serve.miss_p50_ms", "ms"),
    ("gateway.semantic_hit_share", "share"),
    ("gateway.semantic_hit_p50_us", "us"),
    ("gateway.coalesced_share", "share"),
    ("gateway.upstream_calls_per_answer", "count"),
    ("gateway.batch_size_mean", "count"),
    ("gateway.cost_cents_per_answer", "cents"),
    ("cluster.load_s", "s"),
    ("cluster.takeover_p50_ms", "ms"),
    ("cluster.takeover_max_ms", "ms"),
    ("cluster.failovers", "count"),
    ("cluster.rejoin_p50_ms", "ms"),
    ("cluster.replayed_wal_mb_per_rejoin", "MiB"),
    ("cluster.healthy_ask_p50_ms", "ms"),
    ("cluster.routes_pushdown_share", "share"),
    ("obs.spans_per_ask", "count"),
    ("obs.export_p50_us", "us"),
    ("bench.trace_overhead_share", "share"),
];

/// One metric as printed: `{"value": 1.2, "unit": "ms"}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The last line of standard output, exactly as the driver reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriverLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

/// An output check; a failed one makes the run incorrect.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, pass: bool, detail: String) -> Self {
        Check {
            name: name.to_string(),
            pass,
            detail,
        }
    }
}

/// Latency and outcome of every op of the timed phase.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Latencies (ms) of the ops that succeeded.
    pub ok_ms: Vec<f64>,
    pub attempted: u64,
    /// Errors, sheds, degraded answers and oracle mismatches.
    pub failed: u64,
    /// Ops scored for execution accuracy, and how many matched.
    pub ex_scored: u64,
    pub ex_correct: u64,
}

impl OpLog {
    /// Record an op that completed; `correct` is its accuracy score
    /// when this op was scored.
    pub fn ok(&mut self, ms: f64, correct: Option<bool>) {
        self.attempted += 1;
        self.ok_ms.push(ms);
        self.score(correct);
    }

    /// Record an op that failed: no latency sample, never correct.
    pub fn fail(&mut self, scored: bool) {
        self.attempted += 1;
        self.failed += 1;
        self.score(scored.then_some(false));
    }

    fn score(&mut self, correct: Option<bool>) {
        if let Some(c) = correct {
            self.ex_scored += 1;
            self.ex_correct += u64::from(c);
        }
    }

    pub fn absorb(&mut self, other: OpLog) {
        self.ok_ms.extend(other.ok_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.ex_scored += other.ex_scored;
        self.ex_correct += other.ex_correct;
    }
}

/// What one workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ops: OpLog,
    /// Wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// One sample per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics measured by a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    /// Exact counts and digests that must repeat run to run.
    pub counts: BTreeMap<String, u64>,
    /// Free-form facts worth keeping beside the numbers.
    pub notes: BTreeMap<String, String>,
    /// Latencies (ms) of the untraced stretch a traced run times first;
    /// against them the traced latencies give the tracing overhead.
    pub reference_ms: Vec<f64>,
    /// Extra files for the out directory: (file name, contents).
    pub artifacts: Vec<(String, String)>,
}

impl Outcome {
    /// Record an exact count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }
}

/// The full record of a run (`perf/out/result_<workload>.json` and
/// one `HISTORY.jsonl` line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// False for `--smoke` runs: schema and checks only.
    pub comparable: bool,
    pub host: HostFingerprint,
    pub correct: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub latency_samples: u64,
    pub metrics: BTreeMap<String, Metric>,
    pub checks: Vec<Check>,
    pub counts: BTreeMap<String, u64>,
    pub notes: BTreeMap<String, String>,
}

fn metric(value: f64, unit: &str) -> Metric {
    Metric {
        value,
        unit: unit.to_string(),
    }
}

/// The six end-to-end metrics of an untraced run.
pub fn end_to_end_metrics(out: &Outcome, peak_rss_mib: f64) -> BTreeMap<String, Metric> {
    let latencies = &out.ops.ok_ms;
    let value = |name: &str| match name {
        "setup_s" => stats::p50(&out.setup_s),
        "op_p50_ms" => stats::pct_or_zero(latencies, 50.0),
        "op_p95_ms" => stats::pct_or_zero(latencies, 95.0),
        "ops_per_s" => stats::share(latencies.len() as f64, out.wall_s),
        "ex_percent" => 100.0 * stats::share(out.ops.ex_correct as f64, out.ops.ex_scored as f64),
        "peak_rss_mb" => peak_rss_mib,
        other => unreachable!("unknown end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), metric(value(name), unit)))
        .collect()
}

/// Every per-layer metric of a traced run; unexercised layers read 0.
pub fn per_layer_metrics(out: &Outcome) -> BTreeMap<String, Metric> {
    for name in out.layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "workload reported unknown per-layer metric {name}"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = out.layers.get(name).copied().unwrap_or(0.0);
            (name.to_string(), metric(value, unit))
        })
        .collect()
}

/// Human-readable table on standard error.
pub fn print_table(record: &RunRecord, measured_layers: &BTreeMap<&'static str, f64>) {
    eprintln!(
        "\n{} seed={} seconds={} traced={}{}  [{} cores, C={}, {}, {}]",
        record.workload,
        record.seed,
        record.seconds,
        record.traced,
        if record.comparable {
            ""
        } else {
            " SMOKE (numbers not comparable)"
        },
        record.host.nproc,
        record.host.clients,
        record.host.rustc,
        record.host.git_rev,
    );
    eprintln!(
        "  ops attempted {}  failed {}  latency samples {}",
        record.ops_attempted, record.ops_failed, record.latency_samples
    );
    for (name, m) in &record.metrics {
        if record.traced && !measured_layers.contains_key(name.as_str()) {
            continue;
        }
        eprintln!("  {:<40} {:>16.4} {}", name, m.value, m.unit);
    }
    for (name, value) in &record.counts {
        eprintln!("  {:<40} {:>16} (exact)", name, value);
    }
    for c in &record.checks {
        eprintln!(
            "  check {:<34} {}  {}",
            c.name,
            if c.pass { "ok  " } else { "FAIL" },
            c.detail
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> crate::spec::Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        crate::spec::load(std::path::Path::new(path)).expect("BENCHMARK.json at the repo root")
    }

    #[test]
    fn benchmark_json_names_exactly_the_metrics_the_program_prints() {
        let spec = spec();
        let e2e: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(layers, PER_LAYER);
        let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn benchmark_json_stays_inside_the_contract() {
        let spec = spec();
        assert_eq!(spec.paths, ["perf"]);
        assert!(spec.command.len() <= 32 && spec.command.iter().all(|a| a.len() <= 200));
        assert!((1..=60).contains(&spec.run_seconds));
        assert!(spec
            .workloads
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        for m in &spec.end_to_end {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(
            spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(spec
            .per_layer
            .iter()
            .all(|m| m.better == "lower" || m.better == "higher"));
    }

    #[test]
    fn failed_ops_have_no_latency_and_are_never_correct() {
        let mut log = OpLog::default();
        log.ok(2.0, Some(true));
        log.ok(4.0, Some(false));
        log.ok(6.0, None);
        log.fail(true);
        assert_eq!((log.attempted, log.failed, log.ok_ms.len()), (4, 1, 3));
        assert_eq!((log.ex_scored, log.ex_correct), (3, 1));
        let out = Outcome {
            ops: log,
            wall_s: 2.0,
            setup_s: vec![3.0, 1.0, 2.0],
            ..Outcome::default()
        };
        let m = end_to_end_metrics(&out, 64.0);
        assert_eq!(m["op_p50_ms"].value, 4.0);
        assert_eq!(m["ops_per_s"].value, 1.5);
        assert_eq!(m["setup_s"].value, 2.0);
        assert!((m["ex_percent"].value - 100.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.len(), END_TO_END.len());
    }

    #[test]
    fn traced_output_lists_every_layer_metric() {
        let mut out = Outcome::default();
        out.layers.insert("embed.question_p50_us", 51.5);
        let m = per_layer_metrics(&out);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["embed.question_p50_us"].value, 51.5);
        assert_eq!(m["cluster.failovers"].value, 0.0);
    }
}
