//! Tail-sampling flight recorder: a byte-budgeted ring of complete
//! span trees for *interesting* traces.
//!
//! Head sampling (keep every Nth trace) is blind to exactly the
//! requests an operator wants: the slow tail, the errors, the sheds,
//! the failovers. The recorder decides at trace *completion* — when
//! status and duration are known — and retains only traces that are:
//!
//! * not `Ok` (errored, shed, degraded, or deadline-exceeded),
//! * failed-over (carry a [`FAILOVER_SPAN`] span), or
//! * slow: total duration at or above the rolling p99 of recently
//!   finished traces (once enough samples accumulated).
//!
//! Retention is bounded by a byte budget measured on the serialized
//! JSON; oldest retained traces are evicted first. Partial trees
//! (unfinished, or with orphan spans) are never retained — a dump is
//! only useful when the causal structure is intact.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::rolling::RollingQuantile;
use crate::span::TraceStatus;
use crate::tracer::TraceRecord;

/// Span name that marks a trace as having ridden through a primary
/// failure (recorded by `dio-cluster` on the promoted request).
pub const FAILOVER_SPAN: &str = "failover_promotion";

/// Tuning for the recorder's retention policy.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Ceiling on the summed serialized size of retained traces.
    pub byte_budget: usize,
    /// Rolling window of recent trace durations the p99 slow threshold
    /// is computed over.
    pub window: usize,
    /// Minimum durations observed before the slow threshold applies
    /// (cold p99 over 3 samples would retain everything).
    pub min_samples: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            byte_budget: 1 << 20, // 1 MiB
            window: 512,
            min_samples: 32,
        }
    }
}

/// One retained trace with its retention verdict.
#[derive(Debug, Clone, Serialize)]
pub struct RetainedTrace {
    /// Why it was kept: `error`, `shed`, `degraded`,
    /// `deadline_exceeded`, `failed_over`, or `slow`.
    pub reason: String,
    /// Serialized size charged against the byte budget.
    pub bytes: usize,
    /// The complete trace.
    pub record: TraceRecord,
}

#[derive(Debug)]
struct RecorderInner {
    cfg: RecorderConfig,
    retained: VecDeque<RetainedTrace>,
    bytes_used: usize,
    durations: RollingQuantile,
    offered: u64,
    rejected_partial: u64,
}

impl RecorderInner {
    /// The slow threshold; `None` until the window is warm.
    fn rolling_p99(&self) -> Option<u64> {
        if self.durations.len() < self.cfg.min_samples {
            return None;
        }
        self.durations.quantile(0.99)
    }
}

/// Shared flight recorder. Cheap to clone; clones share the ring.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_config(RecorderConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder with the default config (1 MiB budget).
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// A recorder with explicit tuning.
    pub fn with_config(cfg: RecorderConfig) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                durations: RollingQuantile::new(cfg.window),
                cfg,
                retained: VecDeque::new(),
                bytes_used: 0,
                offered: 0,
                rejected_partial: 0,
            })),
        }
    }

    /// Offer a finished trace. Returns the retention reason when the
    /// trace was kept, `None` when it was sampled away.
    ///
    /// Every *complete* offer feeds the rolling duration window,
    /// retained or not — the slow threshold must track the whole
    /// population, not just the survivors.
    pub fn offer(&self, record: &TraceRecord) -> Option<String> {
        let mut inner = self.inner.lock().unwrap();
        inner.offered += 1;
        // Partial trees are never retained and never counted: an
        // unfinished trace has no meaningful total duration, and an
        // orphaned one has no trustworthy structure.
        if !record.is_complete() {
            inner.rejected_partial += 1;
            return None;
        }
        let p99 = inner.rolling_p99();
        inner.durations.push(record.total_micros);
        let reason = match record.status {
            TraceStatus::Error => Some("error"),
            TraceStatus::Shed => Some("shed"),
            TraceStatus::Degraded => Some("degraded"),
            TraceStatus::DeadlineExceeded => Some("deadline_exceeded"),
            TraceStatus::Ok => {
                if record.has_span(FAILOVER_SPAN) {
                    Some("failed_over")
                } else if p99.is_some_and(|p| record.total_micros >= p) {
                    Some("slow")
                } else {
                    None
                }
            }
        }?;
        let bytes = serde_json::to_string(record).map(|s| s.len()).unwrap_or(0);
        if bytes == 0 || bytes > inner.cfg.byte_budget {
            // A trace bigger than the whole budget can never fit.
            return None;
        }
        inner.retained.push_back(RetainedTrace {
            reason: reason.to_string(),
            bytes,
            record: record.clone(),
        });
        inner.bytes_used += bytes;
        while inner.bytes_used > inner.cfg.byte_budget {
            if let Some(evicted) = inner.retained.pop_front() {
                inner.bytes_used -= evicted.bytes;
            } else {
                break;
            }
        }
        Some(reason.to_string())
    }

    /// Snapshot of the retained traces, oldest first.
    pub fn retained(&self) -> Vec<RetainedTrace> {
        self.inner.lock().unwrap().retained.iter().cloned().collect()
    }

    /// Retained traces kept for `reason`.
    pub fn retained_for(&self, reason: &str) -> Vec<RetainedTrace> {
        self.retained()
            .into_iter()
            .filter(|r| r.reason == reason)
            .collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().retained.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget.
    pub fn bytes_used(&self) -> usize {
        self.inner.lock().unwrap().bytes_used
    }

    /// The configured byte ceiling.
    pub fn byte_budget(&self) -> usize {
        self.inner.lock().unwrap().cfg.byte_budget
    }

    /// Current rolling p99 threshold, once warmed up.
    pub fn rolling_p99(&self) -> Option<u64> {
        self.inner.lock().unwrap().rolling_p99()
    }

    /// (offered, rejected-as-partial) counters since construction.
    pub fn offer_stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.offered, inner.rejected_partial)
    }

    /// Write the retained traces to `path` as one JSON document (array
    /// of `{reason, bytes, record}` objects, oldest first), creating
    /// parent directories. Returns the number of traces written.
    pub fn dump(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let retained = self.retained();
        let mut f = std::fs::File::create(path)?;
        f.write_all(
            serde_json::to_string_pretty(&retained)
                .unwrap_or_else(|_| "[]".to_string())
                .as_bytes(),
        )?;
        Ok(retained.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanRecord, TraceStatus};

    fn complete_trace(id: u64, total_micros: u64, status: TraceStatus) -> TraceRecord {
        TraceRecord {
            id,
            label: format!("trace {id}"),
            root_span_id: 1,
            status,
            total_micros,
            finished: true,
            spans: vec![SpanRecord {
                span_id: 1,
                parent_span_id: None,
                name: "request".into(),
                start_micros: 0,
                micros: total_micros,
                attrs: vec![("status".into(), status.slug().into())],
            }],
            events: Vec::new(),
        }
    }

    #[test]
    fn retains_errors_sheds_and_degraded_but_not_fast_ok() {
        let rec = FlightRecorder::new();
        assert!(rec.offer(&complete_trace(1, 100, TraceStatus::Ok)).is_none());
        assert_eq!(
            rec.offer(&complete_trace(2, 100, TraceStatus::Error)).as_deref(),
            Some("error")
        );
        assert_eq!(
            rec.offer(&complete_trace(3, 100, TraceStatus::Shed)).as_deref(),
            Some("shed")
        );
        assert_eq!(
            rec.offer(&complete_trace(4, 100, TraceStatus::Degraded)).as_deref(),
            Some("degraded")
        );
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn retains_failed_over_traces() {
        let rec = FlightRecorder::new();
        let mut t = complete_trace(1, 100, TraceStatus::Ok);
        t.spans.push(SpanRecord {
            span_id: 2,
            parent_span_id: Some(1),
            name: FAILOVER_SPAN.into(),
            start_micros: 10,
            micros: 500,
            attrs: vec![("shard".into(), "3".into())],
        });
        assert_eq!(rec.offer(&t).as_deref(), Some("failed_over"));
    }

    #[test]
    fn slow_threshold_needs_warmup_then_catches_tail() {
        let rec = FlightRecorder::with_config(RecorderConfig {
            min_samples: 10,
            ..RecorderConfig::default()
        });
        // 10 fast OKs warm the window; none retained.
        for i in 0..10 {
            assert!(rec.offer(&complete_trace(i, 100, TraceStatus::Ok)).is_none());
        }
        assert_eq!(rec.rolling_p99(), Some(100));
        // An outlier above the rolling p99 is retained as slow.
        assert_eq!(
            rec.offer(&complete_trace(99, 10_000, TraceStatus::Ok)).as_deref(),
            Some("slow")
        );
    }

    #[test]
    fn partial_trees_are_never_retained() {
        let rec = FlightRecorder::new();
        let mut unfinished = complete_trace(1, 100, TraceStatus::Error);
        unfinished.finished = false;
        assert!(rec.offer(&unfinished).is_none());
        let mut orphaned = complete_trace(2, 100, TraceStatus::Error);
        orphaned.spans.push(SpanRecord {
            span_id: 9,
            parent_span_id: Some(777), // parent never recorded
            name: "lost".into(),
            start_micros: 0,
            micros: 1,
            attrs: Vec::new(),
        });
        assert!(rec.offer(&orphaned).is_none());
        assert!(rec.is_empty());
        assert_eq!(rec.offer_stats(), (2, 2));
    }

    #[test]
    fn byte_budget_evicts_oldest() {
        let one = serde_json::to_string(&complete_trace(0, 100, TraceStatus::Error))
            .unwrap()
            .len();
        let rec = FlightRecorder::with_config(RecorderConfig {
            byte_budget: one * 2 + one / 2, // room for two, not three
            ..RecorderConfig::default()
        });
        for i in 0..5 {
            rec.offer(&complete_trace(i, 100, TraceStatus::Error));
        }
        assert!(rec.bytes_used() <= rec.byte_budget());
        assert_eq!(rec.len(), 2);
        let ids: Vec<u64> = rec.retained().iter().map(|r| r.record.id).collect();
        assert_eq!(ids, vec![3, 4]); // oldest evicted first
    }

    #[test]
    fn dump_json_round_trips_reasons() {
        let rec = FlightRecorder::new();
        rec.offer(&complete_trace(1, 100, TraceStatus::Error));
        let path = std::env::temp_dir().join("dio_obs_recorder_dump_test/traces.json");
        assert_eq!(rec.dump(&path).unwrap(), 1);
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(doc.contains("\"reason\""));
        assert!(doc.contains("error"));
        assert!(doc.contains("\"span_id\""));
    }
}
