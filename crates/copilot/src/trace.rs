//! Per-stage pipeline timing (the measurable counterpart of the
//! paper's Figure 2 architecture diagram).
//!
//! Since the `dio-obs` integration this is a thin *view* over the span
//! tracer: the pipeline records spans against a per-`ask` trace and
//! [`PipelineTrace::from_spans`] projects them into the serialisable
//! per-stage shape reports consume. Every entry is keyed by its
//! `span_id`, so same-named spans from concurrent shards stay distinct
//! (the old name-only view silently collapsed them), and span
//! attributes ride along — [`PipelineTrace::shard_breakdown`] surfaces
//! the per-shard fan-out the bench artifacts publish.

use crate::recovery::RecoveryStats;
use dio_obs::SpanRecord;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One stage invocation's wall-clock timing. Durations are `u64`
/// microseconds everywhere (saturating on conversion) — enough for
/// ~584k years, and immune to the silent truncation a `u128` invited in
/// downstream report code.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name (`retrieve`, `generate`, `execute`, `shard_read`,
    /// `dashboard`, ...).
    pub stage: String,
    /// Duration in microseconds.
    pub micros: u64,
    /// The underlying span's ID — distinguishes concurrent same-named
    /// spans (one `shard_read` per shard touched).
    pub span_id: u64,
    /// The parent span's ID (`None` for spans recorded directly under
    /// the trace root, and for synthetic entries).
    pub parent_span_id: Option<u64>,
    /// Start offset from the trace begin, microseconds.
    pub start_micros: u64,
    /// Span attributes, e.g. `[("shard", "3"), ("path", "gather")]`.
    pub attrs: Vec<(String, String)>,
}

impl StageTiming {
    /// The value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Aggregate over every invocation of one stage within a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageAggregate {
    /// Stage name.
    pub stage: String,
    /// How many times the stage ran (> 1 inside the repair loop).
    pub invocations: usize,
    /// Total microseconds across all invocations.
    pub total_micros: u64,
}

/// Aggregate of the spans one shard contributed to a trace — the
/// per-shard breakdown of a scatter-gather execute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTiming {
    /// The shard ID (the `shard` span attribute).
    pub shard: String,
    /// Routing path that touched it (`pushdown`, `gather`,
    /// `gather_all`).
    pub path: String,
    /// Spans this shard contributed.
    pub invocations: usize,
    /// Total microseconds across them.
    pub total_micros: u64,
}

/// Trace of one `ask` invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PipelineTrace {
    /// Per-invocation stage timings in recording order, keyed by
    /// `span_id`. A stage name may repeat; use [`PipelineTrace::stage`]
    /// for the aggregate view.
    pub stages: Vec<StageTiming>,
    /// What the recovery machinery did (attempts, repairs, backoff
    /// schedule, breaker trips, degradation).
    pub recovery: RecoveryStats,
}

impl PipelineTrace {
    /// Project tracer spans (plus recovery stats) into a trace.
    pub fn from_spans(spans: &[SpanRecord], recovery: RecoveryStats) -> Self {
        PipelineTrace {
            stages: spans
                .iter()
                .map(|s| StageTiming {
                    stage: s.name.clone(),
                    micros: s.micros,
                    span_id: s.span_id,
                    parent_span_id: s.parent_span_id,
                    start_micros: s.start_micros,
                    attrs: s.attrs.clone(),
                })
                .collect(),
            recovery,
        }
    }

    /// Time a closure and record it as one invocation of `stage`
    /// (synthetic entry: no span identity).
    pub fn time<T>(&mut self, stage: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stages.push(StageTiming {
            stage: stage.to_string(),
            micros: dio_obs::micros_u64(start.elapsed()),
            span_id: 0,
            parent_span_id: None,
            start_micros: 0,
            attrs: Vec::new(),
        });
        out
    }

    /// Total traced time in microseconds (saturating).
    pub fn total_micros(&self) -> u64 {
        self.stages
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.micros))
    }

    /// Aggregate timing of one stage across all its invocations, if it
    /// ran at all. Unlike a first-match lookup, repair-loop re-entries
    /// are counted, not hidden.
    pub fn stage(&self, name: &str) -> Option<StageAggregate> {
        let mut agg: Option<StageAggregate> = None;
        for s in self.stages.iter().filter(|s| s.stage == name) {
            let a = agg.get_or_insert_with(|| StageAggregate {
                stage: name.to_string(),
                invocations: 0,
                total_micros: 0,
            });
            a.invocations += 1;
            a.total_micros = a.total_micros.saturating_add(s.micros);
        }
        agg
    }

    /// Number of times `name` ran.
    pub fn invocations(&self, name: &str) -> usize {
        self.stages.iter().filter(|s| s.stage == name).count()
    }

    /// Aggregates for every stage, in first-appearance order.
    pub fn aggregates(&self) -> Vec<StageAggregate> {
        let mut order: Vec<&str> = Vec::new();
        for s in &self.stages {
            if !order.contains(&s.stage.as_str()) {
                order.push(&s.stage);
            }
        }
        order
            .into_iter()
            .filter_map(|name| self.stage(name))
            .collect()
    }

    /// Per-shard aggregates over every span tagged with a `shard`
    /// attribute, in first-appearance order. Empty when the trace never
    /// touched a sharded store.
    pub fn shard_breakdown(&self) -> Vec<ShardTiming> {
        let mut out: Vec<ShardTiming> = Vec::new();
        for s in &self.stages {
            let Some(shard) = s.attr("shard") else {
                continue;
            };
            let path = s.attr("path").unwrap_or("").to_string();
            match out.iter_mut().find(|t| t.shard == shard && t.path == path) {
                Some(t) => {
                    t.invocations += 1;
                    t.total_micros = t.total_micros.saturating_add(s.micros);
                }
                None => out.push(ShardTiming {
                    shard: shard.to_string(),
                    path,
                    invocations: 1,
                    total_micros: s.micros,
                }),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(stage: &str, micros: u64, span_id: u64) -> StageTiming {
        StageTiming {
            stage: stage.into(),
            micros,
            span_id,
            parent_span_id: None,
            start_micros: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn records_stages_in_order() {
        let mut t = PipelineTrace::default();
        let x = t.time("retrieve", || 42);
        assert_eq!(x, 42);
        t.time("generate", || ());
        assert_eq!(t.stages.len(), 2);
        assert_eq!(t.stages[0].stage, "retrieve");
        assert_eq!(t.stages[1].stage, "generate");
        assert!(t.stage("retrieve").is_some());
        assert!(t.stage("missing").is_none());
        assert!(t.total_micros() >= t.stages[0].micros);
    }

    #[test]
    fn duplicate_stages_aggregate_and_keep_entries() {
        let t = PipelineTrace {
            stages: vec![
                timing("generate", 10, 1),
                timing("execute", 5, 2),
                timing("generate", 30, 3),
                timing("execute", 7, 4),
            ],
            recovery: RecoveryStats::default(),
        };
        // Per-invocation entries survive…
        assert_eq!(t.stages.len(), 4);
        assert_eq!(t.invocations("execute"), 2);
        // …and the lookup aggregates instead of returning the first hit.
        let gen = t.stage("generate").unwrap();
        assert_eq!(gen.invocations, 2);
        assert_eq!(gen.total_micros, 40);
        let aggs = t.aggregates();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].stage, "generate");
        assert_eq!(aggs[1].total_micros, 12);
        assert_eq!(t.total_micros(), 52);
    }

    #[test]
    fn builds_from_tracer_spans_keyed_by_span_id() {
        let tracer = dio_obs::Tracer::new();
        let root = tracer.begin_trace("q");
        let r = tracer.child_of(&root);
        tracer.record_span(&r, "retrieve", 0, 100, &[]);
        let execute = tracer.child_of(&root);
        // Two concurrent shard reads under one execute: same name,
        // distinct span IDs — the per-span view must keep both.
        let s1 = tracer.child_of(&execute);
        tracer.record_span(
            &s1,
            "shard_read",
            5,
            20,
            &[("shard", "0"), ("path", "gather")],
        );
        let s2 = tracer.child_of(&execute);
        tracer.record_span(
            &s2,
            "shard_read",
            5,
            30,
            &[("shard", "1"), ("path", "gather")],
        );
        tracer.record_span(&execute, "execute", 4, 60, &[]);
        let stats = RecoveryStats {
            repairs: 1,
            ..RecoveryStats::default()
        };
        let t = PipelineTrace::from_spans(&tracer.spans(root.trace_id), stats.clone());
        assert_eq!(t.stages.len(), 4);
        assert_eq!(t.invocations("shard_read"), 2);
        let ids: Vec<u64> = t
            .stages
            .iter()
            .filter(|s| s.stage == "shard_read")
            .map(|s| s.span_id)
            .collect();
        assert_ne!(ids[0], ids[1]);
        assert_eq!(t.stage("shard_read").unwrap().total_micros, 50);
        let shards = t.shard_breakdown();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].shard, "0");
        assert_eq!(shards[0].path, "gather");
        assert_eq!(shards[1].total_micros, 30);
        assert_eq!(t.recovery, stats);
    }

    #[test]
    fn totals_saturate_instead_of_wrapping() {
        let t = PipelineTrace {
            stages: vec![timing("a", u64::MAX, 1), timing("a", 10, 2)],
            recovery: RecoveryStats::default(),
        };
        assert_eq!(t.total_micros(), u64::MAX);
        assert_eq!(t.stage("a").unwrap().total_micros, u64::MAX);
    }
}
