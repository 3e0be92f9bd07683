//! Tail-sampling flight recorder: a byte-budgeted ring of complete
//! span trees for *interesting* traces, filled after the fact from a
//! tracer's ring ([`dio_obs::Tracer::recent`]).
//!
//! Head sampling (keep every Nth trace) is blind to exactly the
//! requests an operator wants: the slow tail, the errors, the sheds,
//! the failovers. The recorder decides on *finished* traces — when
//! status and duration are known — and retains only traces that are:
//!
//! * not `Ok` (errored, shed, degraded, or deadline-exceeded),
//! * failed-over (carry a [`FAILOVER_SPAN`] span), or
//! * slow: total duration at or above the rolling p99 of the traces
//!   offered before (once enough samples accumulated).
//!
//! Retention is bounded by a byte budget measured on the serialized
//! JSON; oldest retained traces are evicted first. Partial trees
//! (unfinished, or with orphan spans) are never retained — a dump is
//! only useful when the causal structure is intact.

use std::path::Path;

use dio_obs::{RollingQuantile, TraceRecord, TraceStatus, FAILOVER_SPAN};
use serde::Serialize;

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
    pub reason: &'static str,
    /// Serialized size charged against the byte budget.
    pub bytes: usize,
    /// The complete trace.
    pub record: TraceRecord,
}

/// The flight recorder: offer it finished traces, read what it kept.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    retained: Vec<RetainedTrace>,
    bytes_used: usize,
    durations: RollingQuantile,
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
            durations: RollingQuantile::new(cfg.window),
            cfg,
            retained: Vec::new(),
            bytes_used: 0,
        }
    }

    /// Offer a finished trace. Returns the retention reason when the
    /// trace was kept, `None` when it was sampled away.
    ///
    /// Every *complete* offer feeds the rolling duration window,
    /// retained or not — the slow threshold must track the whole
    /// population, not just the survivors.
    pub fn offer(&mut self, record: &TraceRecord) -> Option<&'static str> {
        // Partial trees are never retained and never counted: an
        // unfinished trace has no meaningful total duration, and an
        // orphaned one has no trustworthy structure.
        if !record.is_complete() {
            return None;
        }
        let p99 = self.rolling_p99();
        self.durations.push(record.total_micros);
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
        if bytes == 0 || bytes > self.cfg.byte_budget {
            // A trace bigger than the whole budget can never fit.
            return None;
        }
        self.retained.push(RetainedTrace {
            reason,
            bytes,
            record: record.clone(),
        });
        self.bytes_used += bytes;
        // The newest fits the budget on its own, so this stops before it.
        while self.bytes_used > self.cfg.byte_budget {
            self.bytes_used -= self.retained.remove(0).bytes;
        }
        Some(reason)
    }

    /// The retained traces, oldest first.
    pub fn retained(&self) -> &[RetainedTrace] {
        &self.retained
    }

    /// Retained traces kept for `reason`.
    pub fn retained_for(&self, reason: &str) -> Vec<&RetainedTrace> {
        self.retained
            .iter()
            .filter(|r| r.reason == reason)
            .collect()
    }

    /// Bytes currently charged against the budget.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// The configured byte ceiling.
    pub fn byte_budget(&self) -> usize {
        self.cfg.byte_budget
    }

    /// Current rolling p99 threshold, once warmed up.
    pub fn rolling_p99(&self) -> Option<u64> {
        if self.durations.len() < self.cfg.min_samples {
            return None;
        }
        self.durations.quantile(0.99)
    }

    /// Write the retained traces to `path` as one JSON document (array
    /// of `{reason, bytes, record}` objects, oldest first), creating
    /// parent directories. Returns the number of traces written.
    pub fn dump(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json =
            serde_json::to_string_pretty(&self.retained).unwrap_or_else(|_| "[]".to_string());
        std::fs::write(path, json)?;
        Ok(self.retained.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_obs::SpanRecord;

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
        let mut rec = FlightRecorder::new();
        assert!(rec
            .offer(&complete_trace(1, 100, TraceStatus::Ok))
            .is_none());
        assert_eq!(
            rec.offer(&complete_trace(2, 100, TraceStatus::Error)),
            Some("error")
        );
        assert_eq!(
            rec.offer(&complete_trace(3, 100, TraceStatus::Shed)),
            Some("shed")
        );
        assert_eq!(
            rec.offer(&complete_trace(4, 100, TraceStatus::Degraded)),
            Some("degraded")
        );
        assert_eq!(rec.retained().len(), 3);
    }

    #[test]
    fn a_finished_tracer_ring_offered_after_the_fact_keeps_the_interesting_trees() {
        let tracer = dio_obs::Tracer::new();
        let finish = |label: &str, status: TraceStatus, span: &str| {
            let root = tracer.begin_trace(label);
            let step = tracer.child_of(&root);
            tracer.record_span(&step, span, 0, 5, &[]);
            tracer.finish_trace(&root, status);
        };
        finish("fast", TraceStatus::Ok, "execute");
        finish("promoted", TraceStatus::Ok, FAILOVER_SPAN);
        finish("failed", TraceStatus::Error, "execute");
        finish("refused", TraceStatus::Shed, "queue_wait");
        finish("lapsed", TraceStatus::DeadlineExceeded, "generate");
        // Partial: one still open, one with a span whose parent never
        // reached the ring.
        tracer.begin_trace("still running");
        let orphaned = tracer.begin_trace("orphaned");
        let lost = tracer.child_of(&tracer.child_of(&orphaned));
        tracer.record_span(&lost, "lost", 0, 1, &[]);
        tracer.finish_trace(&orphaned, TraceStatus::Error);

        let mut rec = FlightRecorder::new();
        let traces = tracer.recent(usize::MAX);
        let partial = traces.iter().filter(|t| !t.is_complete()).count();
        assert_eq!((traces.len(), partial), (7, 2));
        for trace in &traces {
            let kept = rec.offer(trace);
            assert!(trace.is_complete() || kept.is_none(), "{trace:?}");
        }
        let reasons: Vec<&str> = rec.retained().iter().map(|r| r.reason).collect();
        assert_eq!(
            reasons,
            ["failed_over", "error", "shed", "deadline_exceeded"]
        );
        assert!(rec.retained().iter().all(|r| r.record.is_complete()));
    }

    #[test]
    fn retains_failed_over_traces() {
        let mut rec = FlightRecorder::new();
        let mut t = complete_trace(1, 100, TraceStatus::Ok);
        t.spans.push(SpanRecord {
            span_id: 2,
            parent_span_id: Some(1),
            name: FAILOVER_SPAN.into(),
            start_micros: 10,
            micros: 500,
            attrs: vec![("shard".into(), "3".into())],
        });
        assert_eq!(rec.offer(&t), Some("failed_over"));
    }

    #[test]
    fn slow_threshold_needs_warmup_then_catches_tail() {
        let mut rec = FlightRecorder::with_config(RecorderConfig {
            min_samples: 10,
            ..RecorderConfig::default()
        });
        // 10 fast OKs warm the window; none retained.
        for i in 0..10 {
            assert!(rec
                .offer(&complete_trace(i, 100, TraceStatus::Ok))
                .is_none());
        }
        assert_eq!(rec.rolling_p99(), Some(100));
        // An outlier above the rolling p99 is retained as slow.
        assert_eq!(
            rec.offer(&complete_trace(99, 10_000, TraceStatus::Ok)),
            Some("slow")
        );
    }

    #[test]
    fn partial_trees_are_never_retained() {
        let mut rec = FlightRecorder::new();
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
        assert!(rec.retained().is_empty());
    }

    #[test]
    fn byte_budget_evicts_oldest() {
        let one = serde_json::to_string(&complete_trace(0, 100, TraceStatus::Error))
            .unwrap()
            .len();
        let mut rec = FlightRecorder::with_config(RecorderConfig {
            byte_budget: one * 2 + one / 2, // room for two, not three
            ..RecorderConfig::default()
        });
        for i in 0..5 {
            rec.offer(&complete_trace(i, 100, TraceStatus::Error));
        }
        assert!(rec.bytes_used() <= rec.byte_budget());
        assert_eq!(rec.retained().len(), 2);
        let ids: Vec<u64> = rec.retained().iter().map(|r| r.record.id).collect();
        assert_eq!(ids, vec![3, 4]); // oldest evicted first
    }

    #[test]
    fn dump_json_round_trips_reasons() {
        let mut rec = FlightRecorder::new();
        rec.offer(&complete_trace(1, 100, TraceStatus::Error));
        let path = std::env::temp_dir().join("dio_bench_recorder_dump_test/traces.json");
        assert_eq!(rec.dump(&path).unwrap(), 1);
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(doc.contains("\"reason\""));
        assert!(doc.contains("error"));
        assert!(doc.contains("\"span_id\""));
    }
}
