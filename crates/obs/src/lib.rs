//! # dio-obs
//!
//! Self-hosted observability for the DIO copilot.
//!
//! The paper's copilot is an NL interface over operator telemetry; this
//! crate gives the copilot telemetry *of its own*, shaped exactly like
//! the operator data it serves:
//!
//! * `registry` — a lock-free-ish metrics registry: counters, gauges,
//!   and exponential-bucket histograms, all labelable, with cheap
//!   cloneable handles for the hot path;
//! * `span` + `tracer` — hierarchical distributed tracing:
//!   [`SpanContext`] is carried explicitly across every async/thread
//!   boundary, completed spans reassemble into per-request
//!   span trees with orphan detection;
//! * `recorder` — a tail-sampling [`FlightRecorder`]: a byte-budgeted
//!   ring retaining complete span trees only for slow / errored / shed
//!   / degraded / failed-over traces, dumpable as JSON artifacts;
//! * `slo` — declarative SLOs evaluated from registry snapshots with
//!   multi-window burn-rate alerts, exported back into the registry;
//! * `exporter` — Prometheus text exposition (format 0.0.4);
//! * `expo` — a parser for that same format;
//! * `scrape` — the self-scrape loop: [`ObsScraper`] turns registry
//!   snapshots into `dio-tsdb` series and auto-generates `dio-catalog`
//!   descriptions for every instrument, so the copilot can answer
//!   questions about its own health through the standard
//!   retrieve→generate→execute path.
//!
//! Instrument naming convention: `dio_<crate>_<name>_<unit>`
//! (e.g. `dio_copilot_stage_duration_micros`). Label cardinality is
//! budgeted: labels hold closed enums (stage, outcome, fault kind, model
//! name), never question text or metric names.

mod budget;
mod exporter;
mod expo;
mod recorder;
mod registry;
mod rolling;
mod scrape;
mod slo;
mod span;
mod tracer;

pub use budget::Budget;
pub use exporter::to_prometheus;
pub use expo::{parse_exposition, ScrapedKind};
pub use recorder::{FlightRecorder, RecorderConfig, FAILOVER_SPAN};
pub use registry::{Buckets, Counter, Gauge, Histogram, Registry, SeriesValue, Snapshot};
pub use rolling::{push_bounded, RollingQuantile};
pub use scrape::ObsScraper;
pub use slo::{Objective, Selector, SloEngine, SloSpec};
pub use span::{orphan_count, SpanContext, SpanRecord, TraceStatus};
pub use tracer::{micros_u64, TraceRecord, Tracer, ROOT_SPAN_NAME};

/// The triple every instrumented component shares: one metrics
/// registry, one tracer, one flight recorder (already attached to the
/// tracer). Cheap to clone — clones observe the same state.
#[derive(Debug, Clone)]
pub struct ObsHub {
    registry: Registry,
    tracer: Tracer,
    recorder: FlightRecorder,
}

impl Default for ObsHub {
    fn default() -> Self {
        let tracer = Tracer::new();
        let recorder = FlightRecorder::new();
        tracer.attach_recorder(recorder.clone());
        ObsHub {
            registry: Registry::new(),
            tracer,
            recorder,
        }
    }
}

impl ObsHub {
    /// A fresh hub.
    pub fn new() -> Self {
        ObsHub::default()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span/event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The tail-sampling flight recorder fed by the tracer.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_clones_share_registry_tracer_and_recorder() {
        let hub = ObsHub::new();
        let clone = hub.clone();
        clone.registry().counter("shared_total", "Shared.").inc();
        let root = clone.tracer().begin_trace("op");
        let step = clone.tracer().child_of(&root);
        clone.tracer().record_span(&step, "step", 0, 10, &[]);
        clone.tracer().finish_trace(&root, TraceStatus::Error);
        assert_eq!(hub.registry().snapshot().total("shared_total"), 1.0);
        assert_eq!(hub.tracer().spans(root.trace_id).len(), 2);
        // The errored trace reached the shared recorder via the tracer.
        assert_eq!(hub.recorder().len(), 1);
        assert_eq!(hub.recorder().retained()[0].reason, "error");
    }
}
