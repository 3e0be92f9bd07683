//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into each layer from *outside* the
//! crates (nothing under `crates/` is instrumented for this). They stay
//! in memory during the run and are written to
//! `perf/out/trace_<workload>.json` at exit. A span's self time is its
//! duration minus the part of that interval its child spans cover.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Raw spans kept in the trace file; aggregates always cover all.
const TRACE_FILE_SPAN_CAP: usize = 20_000;

/// One recorded span. Times are nanoseconds since the recorder epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Operation the span belongs to; spans of one op share it.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log for one thread of the benchmark.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans.
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times count from; recorders that will be
    /// absorbed into one another must share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span and return its duration.
    pub fn exit(&mut self) -> Duration {
        let i = self.open.pop().expect("exit without a matching enter");
        let end_ns = self.now_ns();
        self.spans[i].end_ns = end_ns;
        Duration::from_nanos(end_ns - self.spans[i].start_ns)
    }

    /// Run `f` inside a span; the span's duration is the measurement.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        self.enter(name, op);
        let out = f();
        (out, self.exit())
    }

    /// Fold another thread's spans in, re-basing their ids.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(
            other.open.is_empty(),
            "absorbing a recorder with open spans"
        );
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// [`Recorder::time`] when tracing, a plain stopwatch when not.
pub fn time_with<T>(
    rec: Option<&mut Recorder>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    match rec {
        Some(rec) => rec.time(name, op, f),
        None => {
            let started = Instant::now();
            let out = f();
            (out, started.elapsed())
        }
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[derive(Serialize)]
struct SpanRow {
    id: u32,
    parent: Option<u32>,
    op: u64,
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    self_us: f64,
}

#[derive(Serialize)]
struct NameRow {
    spans: usize,
    total_us: f64,
    self_us: f64,
}

#[derive(Serialize)]
struct TraceFile {
    workload: String,
    spans_recorded: usize,
    spans_written: usize,
    by_name: BTreeMap<String, NameRow>,
    spans: Vec<SpanRow>,
}

/// The trace artifact: per-name totals over every span plus the first
/// [`TRACE_FILE_SPAN_CAP`] raw spans.
pub fn trace_json(workload: &str, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<String, NameRow> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let row = by_name.entry(s.name.to_string()).or_insert(NameRow {
            spans: 0,
            total_us: 0.0,
            self_us: 0.0,
        });
        row.spans += 1;
        row.total_us += s.dur_ns() as f64 / 1e3;
        row.self_us += self_ns as f64 / 1e3;
    }
    let rows: Vec<SpanRow> = spans
        .iter()
        .zip(&selfs)
        .take(TRACE_FILE_SPAN_CAP)
        .map(|(s, &self_ns)| SpanRow {
            id: s.id,
            parent: s.parent,
            op: s.op,
            name: s.name,
            start_us: s.start_ns as f64 / 1e3,
            dur_us: s.dur_ns() as f64 / 1e3,
            self_us: self_ns as f64 / 1e3,
        })
        .collect();
    let file = TraceFile {
        workload: workload.to_string(),
        spans_recorded: spans.len(),
        spans_written: rows.len(),
        by_name,
        spans: rows,
    };
    serde_json::to_string(&file).expect("trace serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100; child 10..40 with grandchild 20..30; child 50..70.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children 10..60 and 40..80 cover 10..80; a third overruns the
        // parent's end and is clipped at 100.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 130),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.enter("op", 7);
        let ((), inner) = a.time("leaf", 7, || std::thread::sleep(Duration::from_millis(2)));
        let outer = a.exit();
        assert!(outer >= inner && inner >= Duration::from_millis(2));
        assert_eq!(a.spans()[1].parent, Some(0));
        assert_eq!(a.spans()[0].parent, None);

        let mut b = Recorder::new(epoch);
        b.enter("op", 8);
        b.time("leaf", 8, || ());
        b.exit();
        a.absorb(b);
        let ids: Vec<u32> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(a.spans()[3].parent, Some(2));
        let selfs = self_times_ns(a.spans());
        assert_eq!(selfs[0], a.spans()[0].dur_ns() - a.spans()[1].dur_ns());
    }
}
