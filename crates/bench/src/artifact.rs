//! Machine-readable benchmark artifacts.
//!
//! Every table/figure binary prints its human-readable table *and*
//! writes a `results/BENCH_<name>.json` companion so downstream
//! tooling (plots, regression dashboards) never scrapes stdout. The
//! JSON carries per-system execution accuracy and cost from the
//! [`EvalReport`]s plus per-stage latency percentiles pulled from the
//! copilot's own `dio-obs` stage-duration histogram.

use dio_benchmark::EvalReport;
use dio_obs::{SeriesValue, Snapshot};
use serde::Serialize;
use std::path::Path;

/// One evaluated system's headline numbers.
#[derive(Debug, Clone, Serialize)]
pub struct SystemResult {
    /// Sweep-cell label chosen by the binary (e.g. `top_k=29`).
    pub label: String,
    /// The system's self-reported name.
    pub system: String,
    /// Execution accuracy in percent.
    pub ex_percent: f64,
    /// Questions evaluated.
    pub total: usize,
    /// Questions answered correctly.
    pub correct: usize,
    /// Mean inference cost per question, US cents.
    pub mean_cost_cents: f64,
    /// Total repair rounds across the run.
    pub repairs_total: usize,
    /// Questions answered by the degraded fallback.
    pub degraded_count: usize,
}

impl SystemResult {
    /// Project an [`EvalReport`] into its artifact row.
    pub fn from_report(label: &str, r: &EvalReport) -> Self {
        SystemResult {
            label: label.to_string(),
            system: r.system.clone(),
            ex_percent: r.ex_percent,
            total: r.total,
            correct: r.correct,
            mean_cost_cents: r.mean_cost_cents,
            repairs_total: r.repairs_total,
            degraded_count: r.degraded_count,
        }
    }
}

/// Latency percentiles for one pipeline stage, estimated from the
/// copilot's `dio_copilot_stage_duration_micros` histogram.
#[derive(Debug, Clone, Serialize)]
pub struct StageLatency {
    /// Stage name (`retrieve`, `generate`, `execute`, …).
    pub stage: String,
    /// Observations recorded.
    pub count: u64,
    /// Estimated 50th percentile, microseconds.
    pub p50_micros: f64,
    /// Estimated 90th percentile, microseconds.
    pub p90_micros: f64,
    /// Estimated 99th percentile, microseconds.
    pub p99_micros: f64,
}

/// Pull per-stage latency percentiles out of a registry snapshot.
/// Stages that never ran (zero observations) are omitted — their
/// quantiles would be NaN, which JSON cannot carry.
pub fn stage_latencies(snapshot: &Snapshot) -> Vec<StageLatency> {
    let mut out = Vec::new();
    let Some(fam) = snapshot.family(dio_copilot::obs::STAGE_DURATION_NAME) else {
        return out;
    };
    for series in &fam.series {
        let SeriesValue::Histogram(h) = &series.value else {
            continue;
        };
        if h.count == 0 {
            continue;
        }
        let stage = series
            .labels
            .iter()
            .find(|(k, _)| k == "stage")
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        out.push(StageLatency {
            stage,
            count: h.count,
            p50_micros: h.quantile(0.5),
            p90_micros: h.quantile(0.9),
            p99_micros: h.quantile(0.99),
        });
    }
    out
}

/// The full artifact one benchmark binary writes.
#[derive(Debug, Clone, Serialize)]
pub struct BenchArtifact {
    /// Benchmark name (`table_3a`, `ablation_faults`, …).
    pub bench: String,
    /// The commit the binary ran at (`git rev-parse --short HEAD`).
    pub git_rev: String,
    /// One row per evaluated system / sweep cell.
    pub systems: Vec<SystemResult>,
    /// Stage latency percentiles from the copilot's observability
    /// registry (empty when no copilot registry was sampled).
    pub stage_latency_micros: Vec<StageLatency>,
}

impl BenchArtifact {
    /// Start an artifact for `bench`.
    pub fn new(bench: &str) -> Self {
        BenchArtifact {
            bench: bench.to_string(),
            git_rev: crate::drill::git_rev(),
            systems: Vec::new(),
            stage_latency_micros: Vec::new(),
        }
    }

    /// Add one evaluated system.
    pub fn push(&mut self, label: &str, report: &EvalReport) {
        self.systems.push(SystemResult::from_report(label, report));
    }

    /// Record stage latencies from a copilot's registry snapshot.
    pub fn set_stages(&mut self, snapshot: &Snapshot) {
        self.stage_latency_micros = stage_latencies(snapshot);
    }

    /// Write `results/BENCH_<bench>.json`.
    pub fn write(&self) {
        crate::drill::write_artifact(Path::new(crate::drill::RESULTS_DIR), &self.bench, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_obs::{Buckets, Registry};

    #[test]
    fn stage_latencies_skip_empty_series_and_stay_finite() {
        let reg = Registry::new();
        let h = reg.histogram_with(
            dio_copilot::obs::STAGE_DURATION_NAME,
            "help",
            &Buckets::latency_micros(),
            &[("stage", "retrieve")],
        );
        // An empty series alongside a populated one.
        reg.histogram_with(
            dio_copilot::obs::STAGE_DURATION_NAME,
            "help",
            &Buckets::latency_micros(),
            &[("stage", "dashboard")],
        );
        for v in [120.0, 250.0, 900.0, 4000.0] {
            h.observe(v);
        }
        let stages = stage_latencies(&reg.snapshot());
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].stage, "retrieve");
        assert_eq!(stages[0].count, 4);
        assert!(stages[0].p50_micros.is_finite());
        assert!(stages[0].p50_micros <= stages[0].p90_micros);
        assert!(stages[0].p90_micros <= stages[0].p99_micros);
    }

    #[test]
    fn artifact_serialises_to_valid_json() {
        let mut a = BenchArtifact::new("unit_test");
        a.systems.push(SystemResult {
            label: "cell".into(),
            system: "dio".into(),
            ex_percent: 66.0,
            total: 200,
            correct: 132,
            mean_cost_cents: 4.25,
            repairs_total: 3,
            degraded_count: 1,
        });
        // The vendored serde_json only serialises; assert on the text.
        let json = serde_json::to_string_pretty(&a).unwrap();
        assert!(json.contains("\"bench\": \"unit_test\""), "{json}");
        assert!(json.contains("\"git_rev\": \""), "{json}");
        assert!(json.contains("\"ex_percent\": 66"), "{json}");
        assert!(json.contains("\"mean_cost_cents\": 4.25"), "{json}");
    }
}
