//! Span identity and tree assembly for hierarchical tracing.
//!
//! A [`SpanContext`] is the propagated currency of distributed tracing:
//! every async/thread boundary (admission enqueue → worker pickup,
//! pipeline stage forks, shard scatter-gather, WAL shipment) carries one
//! explicitly, so a request's causal structure survives handoffs that a
//! thread-local or flat correlation ID would lose.
//!
//! Completed spans ([`SpanRecord`]) are flat rows keyed by
//! `(span_id, parent_span_id)`; [`build_tree`] reassembles them into a
//! [`SpanTree`] and surfaces *orphans* — spans whose parent chain does
//! not reach the root, the tell-tale of a dropped context at a
//! boundary. CI fails on a non-zero orphan count.

use serde::Serialize;

/// Propagated identity of one span within one trace.
///
/// `Copy` on purpose: contexts cross thread boundaries by value (inside
/// queued jobs, closure captures, shipped batches). A child context is
/// allocated *before* its work starts ([`crate::Tracer::child_of`]), so
/// grandchildren can parent under a span that has not finished yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct SpanContext {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's own ID, unique within the tracer.
    pub span_id: u64,
    /// The parent span, `None` for the root.
    pub parent_span_id: Option<u64>,
}

impl SpanContext {
    /// True for the root context of a trace.
    pub fn is_root(&self) -> bool {
        self.parent_span_id.is_none()
    }
}

/// Terminal status of a finished trace, set at
/// [`crate::Tracer::finish_trace`]. Drives tail-sampling retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceStatus {
    /// Completed normally.
    Ok,
    /// Failed with an error the caller saw.
    Error,
    /// Rejected by admission control before service.
    Shed,
    /// Answered, but through a degraded fallback path.
    Degraded,
    /// Abandoned cooperatively because the request's budget lapsed
    /// mid-service (distinct from `Shed`, which never started).
    DeadlineExceeded,
}

impl TraceStatus {
    /// Stable lowercase label for metrics and dump files.
    pub fn slug(&self) -> &'static str {
        match self {
            TraceStatus::Ok => "ok",
            TraceStatus::Error => "error",
            TraceStatus::Shed => "shed",
            TraceStatus::Degraded => "degraded",
            TraceStatus::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

/// One completed span: identity, name, when it started (offset from the
/// trace's begin instant), how long it ran, and closed-enum attributes
/// (`shard`, `path`, `cache`, ... — never free text beyond the values
/// the emitting site already bounds).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SpanRecord {
    /// This span's ID.
    pub span_id: u64,
    /// The parent span ID, `None` for the root span.
    pub parent_span_id: Option<u64>,
    /// Stage name, e.g. `retrieve` or `shard_read`.
    pub name: String,
    /// Start offset from the trace's begin instant, microseconds.
    pub start_micros: u64,
    /// Wall-clock duration in microseconds.
    pub micros: u64,
    /// Attribute pairs, e.g. `[("path", "gather"), ("shard", "3")]`.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// The value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One node of an assembled span tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SpanNode {
    /// The span at this node.
    pub span: SpanRecord,
    /// Child spans, ordered by start offset.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total number of spans in this subtree (including this node).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }
}

/// A rooted span tree plus the spans that failed to attach.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SpanTree {
    /// The root node (the whole-request span).
    pub root: SpanNode,
    /// Spans not reachable from the root: their parent was never
    /// recorded, or sits in a detached subtree. A correct propagation
    /// leaves this empty.
    pub orphans: Vec<SpanRecord>,
}

impl SpanTree {
    /// Number of spans attached under the root.
    pub fn rooted_len(&self) -> usize {
        self.root.size()
    }
}

/// Assemble flat span rows into a tree rooted at `root_span_id`.
///
/// Returns `None` when the root span itself is missing (e.g. the trace
/// was never finished). Spans whose parent chain does not reach the
/// root are reported as orphans, in recording order.
pub(crate) fn build_tree(spans: &[SpanRecord], root_span_id: u64) -> Option<SpanTree> {
    let root_at = spans.iter().position(|s| s.span_id == root_span_id)?;
    let mut attached: Vec<bool> = vec![false; spans.len()];
    attached[root_at] = true;
    // Fixed-point attach: spans may be recorded before their parents
    // (a child finishes while the parent is still open), so a single
    // pass in recording order is not enough.
    loop {
        let mut progressed = false;
        for i in 0..spans.len() {
            if attached[i] {
                continue;
            }
            if let Some(p) = spans[i].parent_span_id {
                let parent_attached = spans
                    .iter()
                    .zip(attached.iter())
                    .any(|(s, a)| *a && s.span_id == p);
                if parent_attached {
                    attached[i] = true;
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    let orphans: Vec<SpanRecord> = spans
        .iter()
        .zip(attached.iter())
        .filter(|&(_, a)| !*a)
        .map(|(s, _)| s.clone())
        .collect();
    let root = assemble(spans, &attached, root_at);
    Some(SpanTree { root, orphans })
}

fn assemble(spans: &[SpanRecord], attached: &[bool], at: usize) -> SpanNode {
    let id = spans[at].span_id;
    let mut children: Vec<usize> = (0..spans.len())
        .filter(|&i| i != at && attached[i] && spans[i].parent_span_id == Some(id))
        .collect();
    children.sort_by_key(|&i| (spans[i].start_micros, spans[i].span_id));
    SpanNode {
        span: spans[at].clone(),
        children: children
            .into_iter()
            .map(|i| assemble(spans, attached, i))
            .collect(),
    }
}

/// Count spans in `spans` that do not attach under `root_span_id`.
/// When the root itself is missing every span counts as an orphan.
pub fn orphan_count(spans: &[SpanRecord], root_span_id: u64) -> usize {
    match build_tree(spans, root_span_id) {
        Some(tree) => tree.orphans.len(),
        None => spans.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64) -> SpanRecord {
        SpanRecord {
            span_id: id,
            parent_span_id: parent,
            name: name.into(),
            start_micros: start,
            micros: 10,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn tree_assembles_out_of_order_spans() {
        // Children recorded before the root (the real recording order:
        // a span completes before its enclosing span does).
        let spans = vec![
            span(3, Some(2), "shard_read", 5),
            span(2, Some(1), "execute", 3),
            span(4, Some(2), "shard_read", 6),
            span(1, None, "request", 0),
        ];
        let tree = build_tree(&spans, 1).unwrap();
        assert!(tree.orphans.is_empty());
        assert_eq!(tree.rooted_len(), 4);
        assert_eq!(tree.root.children.len(), 1);
        let exec = &tree.root.children[0];
        assert_eq!(exec.span.name, "execute");
        assert_eq!(exec.children.len(), 2);
        // Ordered by start offset.
        assert_eq!(exec.children[0].span.span_id, 3);
        assert_eq!(exec.children[1].span.span_id, 4);
    }

    #[test]
    fn dropped_context_surfaces_as_orphans() {
        let spans = vec![
            span(1, None, "request", 0),
            span(2, Some(1), "retrieve", 1),
            // Parent 99 was never recorded: this span and its child are
            // both detached from the root.
            span(5, Some(99), "lost", 2),
            span(6, Some(5), "lost_child", 3),
        ];
        let tree = build_tree(&spans, 1).unwrap();
        assert_eq!(tree.rooted_len(), 2);
        assert_eq!(tree.orphans.len(), 2);
        assert_eq!(orphan_count(&spans, 1), 2);
    }

    #[test]
    fn missing_root_counts_everything_orphaned() {
        let spans = vec![span(2, Some(1), "retrieve", 1)];
        assert!(build_tree(&spans, 1).is_none());
        assert_eq!(orphan_count(&spans, 1), 1);
    }

    #[test]
    fn attrs_lookup() {
        let mut s = span(1, None, "shard_read", 0);
        s.attrs = vec![("shard".into(), "3".into()), ("path".into(), "gather".into())];
        assert_eq!(s.attr("path"), Some("gather"));
        assert_eq!(s.attr("missing"), None);
    }
}
