//! Hierarchical span/event tracer with propagated contexts.
//!
//! Each traced operation opens a trace ([`Tracer::begin_trace`]) and
//! receives the root [`SpanContext`]; every boundary the request
//! crosses derives a child context ([`Tracer::child_of`]) and records a
//! completed span against it. The buffer is bounded: at capacity the
//! oldest *finished* trace is evicted first, so a long-running service
//! keeps a sliding window of recent requests and a burst of refusals
//! cannot push out the slow requests still running behind it.
//! Finishing a trace ([`Tracer::finish_trace`]) stamps its status and
//! total duration and offers the complete record to the attached
//! [`FlightRecorder`], which tail-samples interesting traces for
//! post-hoc dumps.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::recorder::FlightRecorder;
use crate::span::{build_tree, orphan_count, SpanContext, SpanRecord, SpanTree, TraceStatus};

/// Name of the synthetic whole-request span recorded at
/// [`Tracer::finish_trace`].
pub const ROOT_SPAN_NAME: &str = "request";

/// One point event within a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EventRecord {
    /// Event name, e.g. `breaker_transition`.
    pub name: String,
    /// Attribute pairs, e.g. `[("to", "open")]`.
    pub attrs: Vec<(String, String)>,
}

/// Everything recorded against one trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceRecord {
    /// The trace ID.
    pub id: u64,
    /// Operation label (the question text for copilot asks).
    pub label: String,
    /// The root span's ID.
    pub root_span_id: u64,
    /// Terminal status; `Ok` until the trace finishes.
    pub status: TraceStatus,
    /// Whole-trace duration in microseconds, stamped at finish.
    pub total_micros: u64,
    /// True once [`Tracer::finish_trace`] ran.
    pub finished: bool,
    /// Completed spans in recording order (children usually precede
    /// their still-open parents).
    pub spans: Vec<SpanRecord>,
    /// Events in recording order.
    pub events: Vec<EventRecord>,
}

impl TraceRecord {
    /// Assemble the span tree. `None` when the root span is missing
    /// (unfinished trace).
    pub fn tree(&self) -> Option<SpanTree> {
        build_tree(&self.spans, self.root_span_id)
    }

    /// Spans that do not attach under the root.
    pub fn orphan_count(&self) -> usize {
        orphan_count(&self.spans, self.root_span_id)
    }

    /// True when the trace finished and every span attaches under the
    /// root — the only shape worth retaining or dumping.
    pub fn is_complete(&self) -> bool {
        self.finished && self.orphan_count() == 0
    }

    /// True when any recorded span carries `name` — e.g.
    /// `failover_promotion` marks a request that rode through a
    /// primary failure.
    pub fn has_span(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }
}

#[derive(Debug)]
struct TraceEntry {
    record: TraceRecord,
    begin: Instant,
}

#[derive(Debug)]
struct TracerInner {
    next_trace_id: u64,
    next_span_id: u64,
    capacity: usize,
    traces: VecDeque<TraceEntry>,
    recorder: Option<FlightRecorder>,
}

impl TracerInner {
    fn entry_mut(&mut self, trace_id: u64) -> Option<&mut TraceEntry> {
        self.traces
            .iter_mut()
            .rev()
            .find(|t| t.record.id == trace_id)
    }
}

/// Shared tracer. Cheap to clone; clones share the buffer.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(512)
    }
}

impl Tracer {
    /// A tracer with the default buffer size.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// A tracer keeping at most `capacity` traces.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                next_trace_id: 1,
                next_span_id: 1,
                capacity: capacity.max(1),
                traces: VecDeque::new(),
                recorder: None,
            })),
        }
    }

    /// Feed every finished trace to `recorder` for tail-sampled
    /// retention.
    pub fn attach_recorder(&self, recorder: FlightRecorder) {
        self.inner.lock().unwrap().recorder = Some(recorder);
    }

    /// Open a new trace; the returned root context is what every
    /// downstream boundary derives children from.
    pub fn begin_trace(&self, label: &str) -> SpanContext {
        let mut inner = self.inner.lock().unwrap();
        let trace_id = inner.next_trace_id;
        inner.next_trace_id += 1;
        let root_span_id = inner.next_span_id;
        inner.next_span_id += 1;
        if inner.traces.len() == inner.capacity {
            // A trace still open is one whose spans and finish are yet
            // to come — under a shed storm those are exactly the slow
            // requests the flight recorder exists to keep. The front is
            // finished in every run that is not overloaded, so this
            // stays a pop of the front there.
            let victim = inner
                .traces
                .iter()
                .position(|t| t.record.finished)
                .unwrap_or(0);
            inner.traces.remove(victim);
        }
        inner.traces.push_back(TraceEntry {
            record: TraceRecord {
                id: trace_id,
                label: label.to_string(),
                root_span_id,
                status: TraceStatus::Ok,
                total_micros: 0,
                finished: false,
                spans: Vec::new(),
                events: Vec::new(),
            },
            begin: Instant::now(),
        });
        SpanContext {
            trace_id,
            span_id: root_span_id,
            parent_span_id: None,
        }
    }

    /// Allocate a child context under `parent`. The child's span ID
    /// exists from this moment — grandchildren may parent under it
    /// before the child's span is recorded.
    pub fn child_of(&self, parent: &SpanContext) -> SpanContext {
        let mut inner = self.inner.lock().unwrap();
        let span_id = inner.next_span_id;
        inner.next_span_id += 1;
        SpanContext {
            trace_id: parent.trace_id,
            span_id,
            parent_span_id: Some(parent.span_id),
        }
    }

    /// Microseconds elapsed since the trace opened — the start-offset
    /// clock for spans recorded against it. Zero for evicted traces.
    pub fn clock_micros(&self, ctx: &SpanContext) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        match inner.entry_mut(ctx.trace_id) {
            Some(entry) => micros_u64(entry.begin.elapsed()),
            None => 0,
        }
    }

    /// Record the completed span identified by `ctx`. Spans against
    /// evicted traces are dropped silently.
    pub fn record_span(
        &self,
        ctx: &SpanContext,
        name: &str,
        start_micros: u64,
        micros: u64,
        attrs: &[(&str, &str)],
    ) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(entry) = inner.entry_mut(ctx.trace_id) {
            entry.record.spans.push(SpanRecord {
                span_id: ctx.span_id,
                parent_span_id: ctx.parent_span_id,
                name: name.to_string(),
                start_micros,
                micros,
                attrs: attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            });
        }
    }

    /// Record a point event against `ctx`'s trace.
    pub fn event(&self, ctx: &SpanContext, name: &str, attrs: &[(&str, &str)]) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(entry) = inner.entry_mut(ctx.trace_id) {
            entry.record.events.push(EventRecord {
                name: name.to_string(),
                attrs: attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            });
        }
    }

    /// Time `f` as a child span of `parent` named `name`, passing the
    /// child context in so `f` can propagate it further.
    pub fn time<T>(
        &self,
        parent: &SpanContext,
        name: &str,
        f: impl FnOnce(&SpanContext) -> T,
    ) -> T {
        self.time_with(parent, name, &[], f)
    }

    /// [`Tracer::time`] with span attributes.
    pub fn time_with<T>(
        &self,
        parent: &SpanContext,
        name: &str,
        attrs: &[(&str, &str)],
        f: impl FnOnce(&SpanContext) -> T,
    ) -> T {
        let child = self.child_of(parent);
        let start = self.clock_micros(&child);
        let t0 = Instant::now();
        let out = f(&child);
        self.record_span(&child, name, start, micros_u64(t0.elapsed()), attrs);
        out
    }

    /// [`Tracer::time_with`] for attributes only `f` can know — a cache
    /// probe's hit or miss, a wait's outcome: `f` returns them beside
    /// its output.
    pub fn time_learned<T>(
        &self,
        parent: &SpanContext,
        name: &str,
        f: impl FnOnce(&SpanContext) -> (T, Vec<(&'static str, String)>),
    ) -> T {
        let child = self.child_of(parent);
        let start = self.clock_micros(&child);
        let t0 = Instant::now();
        let (out, attrs) = f(&child);
        let micros = micros_u64(t0.elapsed());
        let attrs: Vec<(&str, &str)> = attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
        self.record_span(&child, name, start, micros, &attrs);
        out
    }

    /// Close the trace: record the whole-request root span (offset 0 →
    /// now), stamp `status` and the total duration, and offer the
    /// finished record to the attached flight recorder. Returns the
    /// finished record (`None` when the trace was already evicted).
    pub fn finish_trace(&self, ctx: &SpanContext, status: TraceStatus) -> Option<TraceRecord> {
        let (finished, recorder) = {
            let mut inner = self.inner.lock().unwrap();
            let entry = inner.entry_mut(ctx.trace_id)?;
            let total = micros_u64(entry.begin.elapsed());
            entry.record.spans.push(SpanRecord {
                span_id: entry.record.root_span_id,
                parent_span_id: None,
                name: ROOT_SPAN_NAME.to_string(),
                start_micros: 0,
                micros: total,
                attrs: vec![("status".to_string(), status.slug().to_string())],
            });
            entry.record.status = status;
            entry.record.total_micros = total;
            entry.record.finished = true;
            (entry.record.clone(), inner.recorder.clone())
        };
        // Offer outside the tracer lock: the recorder has its own.
        if let Some(recorder) = recorder {
            recorder.offer(&finished);
        }
        Some(finished)
    }

    /// The full record for `trace_id`, if still buffered.
    pub fn trace(&self, trace_id: u64) -> Option<TraceRecord> {
        self.inner
            .lock()
            .unwrap()
            .traces
            .iter()
            .find(|t| t.record.id == trace_id)
            .map(|t| t.record.clone())
    }

    /// The spans recorded against `trace_id` (empty when evicted).
    pub fn spans(&self, trace_id: u64) -> Vec<SpanRecord> {
        // Asked once per ask about the newest trace: found from the
        // back, and only the spans copied.
        let mut inner = self.inner.lock().unwrap();
        inner
            .entry_mut(trace_id)
            .map(|e| e.record.spans.clone())
            .unwrap_or_default()
    }

    /// The assembled span tree for `trace_id`, if finished and
    /// buffered.
    pub fn tree(&self, trace_id: u64) -> Option<SpanTree> {
        self.trace(trace_id).and_then(|t| t.tree())
    }

    /// The most recent `n` traces, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TraceRecord> {
        let inner = self.inner.lock().unwrap();
        inner
            .traces
            .iter()
            .rev()
            .take(n)
            .rev()
            .map(|t| t.record.clone())
            .collect()
    }

    /// Number of buffered traces.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().traces.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Saturating `Duration` → whole microseconds as `u64`.
pub fn micros_u64(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_parent_spans_into_one_tree() {
        let t = Tracer::new();
        let root = t.begin_trace("ask one");
        assert!(root.is_root());
        let retrieve = t.child_of(&root);
        t.record_span(&retrieve, "retrieve", 0, 120, &[]);
        let execute = t.child_of(&root);
        let shard = t.child_of(&execute);
        t.record_span(&shard, "shard_read", 5, 40, &[("shard", "2")]);
        t.record_span(&execute, "execute", 4, 60, &[]);
        t.finish_trace(&root, TraceStatus::Ok);

        let rec = t.trace(root.trace_id).unwrap();
        assert!(rec.finished);
        assert_eq!(rec.status, TraceStatus::Ok);
        assert_eq!(rec.spans.len(), 4); // 3 recorded + root
        let tree = rec.tree().unwrap();
        assert!(tree.orphans.is_empty());
        assert_eq!(tree.rooted_len(), 4);
        assert_eq!(tree.root.span.name, ROOT_SPAN_NAME);
    }

    #[test]
    fn duplicate_stage_names_stay_distinct_by_span_id() {
        let t = Tracer::new();
        let root = t.begin_trace("repair loop");
        let e1 = t.child_of(&root);
        t.record_span(&e1, "execute", 0, 10, &[]);
        let g = t.child_of(&root);
        t.record_span(&g, "generate", 11, 20, &[]);
        let e2 = t.child_of(&root);
        t.record_span(&e2, "execute", 32, 30, &[]);
        let spans = t.spans(root.trace_id);
        assert_eq!(spans.len(), 3);
        assert_ne!(spans[0].span_id, spans[2].span_id);
        assert_eq!(spans[0].micros, 10);
        assert_eq!(spans[2].micros, 30);
    }

    #[test]
    fn buffer_evicts_oldest_and_drops_late_spans() {
        let t = Tracer::with_capacity(2);
        let a = t.begin_trace("a");
        let b = t.begin_trace("b");
        let c = t.begin_trace("c");
        assert_eq!(t.len(), 2);
        assert!(t.trace(a.trace_id).is_none());
        let late = t.child_of(&a);
        t.record_span(&late, "late", 0, 1, &[]); // dropped silently
        assert!(t.spans(a.trace_id).is_empty());
        assert!(t.finish_trace(&a, TraceStatus::Ok).is_none());
        let recent = t.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].id, b.trace_id);
        assert_eq!(recent[1].id, c.trace_id);
    }

    #[test]
    fn a_burst_of_finished_traces_does_not_evict_an_open_one() {
        let capacity = 4;
        let t = Tracer::with_capacity(capacity);
        let recorder = FlightRecorder::new();
        t.attach_recorder(recorder.clone());
        let open = t.begin_trace("slow, still running");
        for k in 0..capacity + 3 {
            let refused = t.begin_trace(&format!("refused {k}"));
            t.finish_trace(&refused, TraceStatus::Shed);
        }
        assert_eq!(t.len(), capacity);
        let late = t.child_of(&open);
        t.record_span(&late, "generate", 0, 7, &[]);
        assert_eq!(t.spans(open.trace_id).len(), 1, "the open trace lost its span");
        let finished = t
            .finish_trace(&open, TraceStatus::DeadlineExceeded)
            .expect("the open trace was evicted by finished ones");
        assert!(finished.has_span("generate"));
        assert!(
            recorder
                .retained_for("deadline_exceeded")
                .iter()
                .any(|r| r.record.id == open.trace_id),
            "the recorder was never offered the open trace"
        );
    }

    #[test]
    fn time_helper_records_child_with_propagatable_context() {
        let t = Tracer::new();
        let root = t.begin_trace("timed");
        let inner_ctx = t.time(&root, "outer", |ctx| {
            let grandchild = t.child_of(ctx);
            t.record_span(&grandchild, "inner", 0, 5, &[]);
            *ctx
        });
        t.finish_trace(&root, TraceStatus::Ok);
        let tree = t.tree(root.trace_id).unwrap();
        assert!(tree.orphans.is_empty());
        assert_eq!(tree.root.children.len(), 1);
        assert_eq!(tree.root.children[0].span.name, "outer");
        assert_eq!(tree.root.children[0].span.span_id, inner_ctx.span_id);
        assert_eq!(tree.root.children[0].children[0].span.name, "inner");
    }

    #[test]
    fn learned_attributes_land_on_the_timed_span() {
        let t = Tracer::new();
        let root = t.begin_trace("probe");
        let hit = t.time_learned(&root, "cache_lookup", |_| {
            let attrs = vec![("cache", "answer".into()), ("result", "hit".into())];
            (true, attrs)
        });
        assert!(hit);
        let spans = t.spans(root.trace_id);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "cache_lookup");
        assert_eq!(spans[0].parent_span_id, Some(root.span_id));
        assert_eq!(spans[0].attr("cache"), Some("answer"));
        assert_eq!(spans[0].attr("result"), Some("hit"));
    }

    #[test]
    fn events_and_status_stamp() {
        let t = Tracer::new();
        let root = t.begin_trace("failing ask");
        t.event(&root, "breaker_transition", &[("to", "open")]);
        let rec = t.finish_trace(&root, TraceStatus::Error).unwrap();
        assert_eq!(rec.status, TraceStatus::Error);
        assert_eq!(rec.events[0].attrs[0], ("to".into(), "open".into()));
        assert_eq!(rec.spans[0].attr("status"), Some("error"));
    }

    #[test]
    fn micros_u64_saturates() {
        assert_eq!(micros_u64(Duration::from_micros(42)), 42);
        assert_eq!(micros_u64(Duration::MAX), u64::MAX);
    }
}
