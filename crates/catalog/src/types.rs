//! Core catalog data types.

use crate::nf::NetworkFunction;
use serde::{Deserialize, Serialize};

/// Wire format / width of a counter, as vendor docs state it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterType {
    /// Monotone 64-bit counter.
    Counter64,
    /// Monotone 32-bit counter (legacy counters in vendor docs).
    Counter32,
    /// Point-in-time gauge.
    Gauge,
}

impl CounterType {
    /// True for monotone counters.
    pub fn is_counter(&self) -> bool {
        !matches!(self, CounterType::Gauge)
    }
}

/// Measurement unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Unit {
    /// Plain event count.
    Count,
    /// Octets.
    Bytes,
    /// Packets.
    Packets,
    /// Milliseconds (accumulated durations).
    Milliseconds,
    /// Current sessions / registrations / connections.
    Entities,
}

/// The role a metric plays within its procedure group — what the
/// benchmark's derived entities (success rates, failure ratios) are
/// built from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricRole {
    /// Procedure attempts / requests received.
    Attempt,
    /// Procedure completions.
    Success,
    /// Failures with a specific cause tag.
    Failure {
        /// 5GMM/5GSM-style cause slug, e.g. `congestion`.
        cause: String,
    },
    /// A protocol message counter (tx or rx).
    Message {
        /// Message name slug, e.g. `registration_accept`.
        message: String,
        /// `true` when counting transmitted messages, `false` received.
        sent: bool,
    },
    /// Accumulated procedure duration in milliseconds.
    DurationTotal,
    /// A timer/impairment event tied to the procedure (guard-timer
    /// expiry, retry, abnormal release) or a platform event counter.
    Event {
        /// Event slug, e.g. `guard_timer_expiry`.
        event: String,
    },
    /// Traffic volume (bytes/packets/drops) on an interface.
    Traffic {
        /// Interface slug, e.g. `n3`.
        interface: String,
        /// Direction slug: `ul` or `dl`.
        direction: String,
        /// What is counted: `bytes`, `packets`, `dropped_packets`.
        what: String,
    },
    /// A point-in-time occupancy gauge (active sessions, registered UEs).
    ActiveGauge,
}

/// Hints the TSDB synthesiser uses to produce representative data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficHint {
    /// Mean event rate per second (counters) or mean level (gauges).
    pub base_rate: f64,
    /// For `Success`/`Failure` roles: fraction of the attempt rate.
    pub couple_ratio: Option<f64>,
}

/// One catalog metric with its vendor documentation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDef {
    /// Specialised glued metric name, e.g. `amfcc_n1_auth_request`.
    pub name: String,
    /// Producing network function.
    pub nf: NetworkFunction,
    /// Service within the NF, e.g. `cc` (call control).
    pub service: String,
    /// Procedure slug this metric belongs to, e.g. `initial_registration`.
    pub procedure: String,
    /// Human-readable procedure name, e.g. `initial registration`.
    pub procedure_display: String,
    /// Role within the procedure group.
    pub role: MetricRole,
    /// Counter type / width.
    pub counter_type: CounterType,
    /// Unit of measurement.
    pub unit: Unit,
    /// Multi-sentence vendor documentation.
    pub description: String,
    /// 3GPP spec reference, e.g. `3GPP TS 24.501`.
    pub spec_ref: String,
    /// Synthesiser hint.
    pub traffic: TrafficHint,
}

impl MetricDef {
    /// The text sample fed to the embedder: name plus documentation,
    /// exactly the segmentation §4 describes.
    pub fn text_sample(&self) -> String {
        format!("{}: {}", self.name, self.description)
    }
}

/// A procedure and all the metrics it generates, kept together so
/// benchmark questions about derived entities can find the counters
/// they need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcedureGroup {
    /// Producing network function.
    pub nf: NetworkFunction,
    /// Service slug.
    pub service: String,
    /// Procedure slug.
    pub procedure: String,
    /// Human-readable procedure name.
    pub display: String,
    /// Name of the attempt counter, when the procedure has one.
    pub attempt: Option<String>,
    /// Name of the success counter, when the procedure has one.
    pub success: Option<String>,
    /// `(cause, metric name)` failure counters.
    pub failures: Vec<(String, String)>,
    /// All other metric names in the group (messages, durations, traffic,
    /// gauges).
    pub other: Vec<String>,
}

impl ProcedureGroup {
    /// Every metric name in the group.
    pub fn all_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        if let Some(a) = &self.attempt {
            names.push(a);
        }
        if let Some(s) = &self.success {
            names.push(s);
        }
        names.extend(self.failures.iter().map(|(_, n)| n.as_str()));
        names.extend(self.other.iter().map(|n| n.as_str()));
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_type_phrases() {
        assert!(CounterType::Counter64.is_counter());
        assert!(!CounterType::Gauge.is_counter());
    }

    #[test]
    fn text_sample_combines_name_and_description() {
        let m = MetricDef {
            name: "amfcc_n1_auth_request".into(),
            nf: NetworkFunction::Amf,
            service: "cc".into(),
            procedure: "authentication".into(),
            procedure_display: "authentication".into(),
            role: MetricRole::Attempt,
            counter_type: CounterType::Counter64,
            unit: Unit::Count,
            description: "The number of authentication requests sent by AMF.".into(),
            spec_ref: "3GPP TS 24.501".into(),
            traffic: TrafficHint {
                base_rate: 10.0,
                couple_ratio: None,
            },
        };
        let t = m.text_sample();
        assert!(t.starts_with("amfcc_n1_auth_request: "));
        assert!(t.contains("authentication requests"));
    }

    #[test]
    fn group_all_names_collects_everything() {
        let g = ProcedureGroup {
            nf: NetworkFunction::Amf,
            service: "cc".into(),
            procedure: "p".into(),
            display: "p".into(),
            attempt: Some("a".into()),
            success: Some("s".into()),
            failures: vec![("timeout".into(), "f1".into())],
            other: vec!["o1".into(), "o2".into()],
        };
        assert_eq!(g.all_names(), vec!["a", "s", "f1", "o1", "o2"]);
    }
}
