//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] names an objective — request availability, or a
//! latency threshold at a quantile-free bucket boundary — over the
//! instruments the registry already collects. The [`SloEngine`]
//! ingests registry snapshots on a *simulated clock* (callers pass
//! `ts_ms`; nothing here reads wall time, so a drill can compress
//! three days into milliseconds), maintains per-SLO good/total
//! history, and evaluates burn rates over the canonical four windows:
//!
//! * **page**: 5m AND 1h burn > 14.4 (2% of a 3d budget in 1h),
//! * **ticket**: 6h AND 3d burn > 1 (steady budget-rate overspend).
//!
//! Results are exported back into the registry as `dio_slo_*` gauges
//! and counters, so they ride the Prometheus text path and the
//! self-scrape loop like any other instrument — the copilot answers
//! "which tenant is burning its error budget" from its own telemetry.

use std::collections::VecDeque;

use crate::registry::{Registry, SeriesValue, Snapshot};

/// The four canonical burn windows: `(label, milliseconds)`.
pub(crate) const WINDOWS: [(&str, u64); 4] = [
    ("5m", 5 * 60 * 1000),
    ("1h", 60 * 60 * 1000),
    ("6h", 6 * 60 * 60 * 1000),
    ("3d", 3 * 24 * 60 * 60 * 1000),
];

/// Page when both fast windows burn faster than this (2% of a 3-day
/// budget spent within one hour).
pub(crate) const PAGE_BURN: f64 = 14.4;
/// Ticket when both slow windows burn faster than budget rate.
pub(crate) const TICKET_BURN: f64 = 1.0;

const BURN_NAME: &str = "dio_slo_burn_rate";
const BURN_HELP: &str = "Error-budget burn rate per SLO and window (1 = exactly on budget).";
const BUDGET_NAME: &str = "dio_slo_error_budget_remaining_ratio";
const BUDGET_HELP: &str = "Fraction of the 3d error budget remaining per SLO (negative = overspent).";
const ACTIVE_NAME: &str = "dio_slo_alert_active";
const ACTIVE_HELP: &str = "1 while the burn-rate alert of this severity is firing for the SLO.";
const FIRED_NAME: &str = "dio_slo_alerts_total";
const FIRED_HELP: &str = "Burn-rate alert activations per SLO and severity.";

/// A label-subset series selector: matches every series of `metric`
/// whose labels contain all of `labels`.
#[derive(Debug, Clone)]
pub struct Selector {
    /// Family name, e.g. `dio_serve_requests_total`.
    pub metric: String,
    /// Required label pairs, e.g. `[("outcome", "error")]`.
    pub labels: Vec<(String, String)>,
}

impl Selector {
    /// Build a selector.
    pub fn new(metric: &str, labels: &[(&str, &str)]) -> Self {
        Selector {
            metric: metric.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn matches(&self, series_labels: &[(String, String)]) -> bool {
        self.labels
            .iter()
            .all(|want| series_labels.iter().any(|have| have == want))
    }

    /// Sum of matching counter/gauge series (histograms contribute
    /// their observation counts).
    pub fn sum(&self, snap: &Snapshot) -> f64 {
        let Some(family) = snap.family(&self.metric) else {
            return 0.0;
        };
        family
            .series
            .iter()
            .filter(|s| self.matches(&s.labels))
            .map(|s| match &s.value {
                SeriesValue::Counter(v) | SeriesValue::Gauge(v) => *v,
                SeriesValue::Histogram(h) => h.count as f64,
            })
            .sum()
    }

    /// `(good, total)` over matching histogram series, where good is
    /// the cumulative count at the largest bucket bound ≤
    /// `threshold` — the conservative (undercounting) read when the
    /// threshold falls inside a bucket.
    pub fn histogram_good_total(&self, snap: &Snapshot, threshold: f64) -> (f64, f64) {
        let Some(family) = snap.family(&self.metric) else {
            return (0.0, 0.0);
        };
        let mut good = 0.0;
        let mut total = 0.0;
        for series in family.series.iter().filter(|s| self.matches(&s.labels)) {
            if let SeriesValue::Histogram(h) = &series.value {
                total += h.count as f64;
                good += h
                    .buckets
                    .iter()
                    .filter(|(bound, _)| *bound <= threshold)
                    .map(|(_, cum)| *cum)
                    .next_back()
                    .unwrap_or(0) as f64;
            }
        }
        (good, total)
    }
}

/// What an SLO measures.
#[derive(Debug, Clone)]
pub enum Objective {
    /// Fraction of requests that are not bad: `1 - bad/total`.
    Availability {
        /// All requests.
        total: Selector,
        /// Bad requests; multiple selectors sum (e.g. `outcome=error`
        /// plus `outcome=panic`).
        bad: Vec<Selector>,
    },
    /// Fraction of requests completing within `threshold_micros`,
    /// read from a latency histogram's buckets.
    LatencyThreshold {
        /// The latency histogram.
        histogram: Selector,
        /// The "good" boundary in microseconds; align it with a bucket
        /// bound for an exact read.
        threshold_micros: f64,
    },
}

/// One declared objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Stable identifier, e.g. `availability-premium`. Becomes the
    /// `slo` label value.
    pub name: String,
    /// Target good fraction, e.g. `0.99`. Budget is `1 - target`.
    pub target: f64,
    /// What is measured.
    pub objective: Objective,
}

/// Burn rate over one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowBurn {
    /// Window label (`5m`, `1h`, `6h`, `3d`).
    pub window: &'static str,
    /// Error-rate / budget over that window; 1 = exactly on budget.
    pub burn: f64,
}

/// One SLO's evaluated state — the ground truth drills verify the
/// copilot's answers against.
#[derive(Debug, Clone, PartialEq)]
pub struct SloState {
    /// The spec name.
    pub name: String,
    /// The target good fraction.
    pub target: f64,
    /// Burn per window, in [`WINDOWS`] order.
    pub burn: Vec<WindowBurn>,
    /// Fraction of the 3d budget left (negative when overspent).
    pub budget_remaining_ratio: f64,
    /// Fast-burn alert (page severity) firing.
    pub page: bool,
    /// Slow-burn alert (ticket severity) firing.
    pub ticket: bool,
}

impl SloState {
    /// Burn rate for a window label, `0.0` when unknown.
    pub fn burn_for(&self, window: &str) -> f64 {
        self.burn
            .iter()
            .find(|b| b.window == window)
            .map(|b| b.burn)
            .unwrap_or(0.0)
    }
}

struct SloEntry {
    spec: SloSpec,
    /// `(ts_ms, cumulative bad, cumulative total)` samples, oldest
    /// first, pruned past the longest window.
    history: VecDeque<(u64, f64, f64)>,
    page_active: bool,
    ticket_active: bool,
    last: Option<SloState>,
}

/// The burn-rate engine. Owns its SLO list; exports evaluated state
/// into the registry it was built over.
pub struct SloEngine {
    registry: Registry,
    entries: Vec<SloEntry>,
}

impl SloEngine {
    /// An engine exporting into `registry`.
    pub fn new(registry: Registry) -> Self {
        SloEngine {
            registry,
            entries: Vec::new(),
        }
    }

    /// Declare an SLO. Registers its exported series at zero so the
    /// families exist before the first evaluation.
    pub fn add(&mut self, spec: SloSpec) {
        for (window, _) in WINDOWS {
            self.registry
                .gauge_with(BURN_NAME, BURN_HELP, &[("slo", &spec.name), ("window", window)]);
        }
        self.registry
            .gauge_with(BUDGET_NAME, BUDGET_HELP, &[("slo", &spec.name)])
            .set(1.0);
        for severity in ["page", "ticket"] {
            self.registry.gauge_with(
                ACTIVE_NAME,
                ACTIVE_HELP,
                &[("slo", &spec.name), ("severity", severity)],
            );
            self.registry.counter_with(
                FIRED_NAME,
                FIRED_HELP,
                &[("slo", &spec.name), ("severity", severity)],
            );
        }
        self.entries.push(SloEntry {
            spec,
            history: VecDeque::new(),
            page_active: false,
            ticket_active: false,
            last: None,
        });
    }

    /// Declared SLO names, in declaration order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.spec.name.clone()).collect()
    }

    /// Ingest a registry snapshot at simulated time `ts_ms` and
    /// re-evaluate every SLO. Returns the new states and updates the
    /// exported `dio_slo_*` instruments.
    pub fn observe(&mut self, ts_ms: u64, snap: &Snapshot) -> Vec<SloState> {
        let max_window = WINDOWS[WINDOWS.len() - 1].1;
        let mut states = Vec::with_capacity(self.entries.len());
        for entry in &mut self.entries {
            let (bad, total) = match &entry.spec.objective {
                Objective::Availability { total, bad } => {
                    let t = total.sum(snap);
                    let b: f64 = bad.iter().map(|s| s.sum(snap)).sum();
                    (b, t)
                }
                Objective::LatencyThreshold {
                    histogram,
                    threshold_micros,
                } => {
                    let (good, t) = histogram.histogram_good_total(snap, *threshold_micros);
                    (t - good, t)
                }
            };
            entry.history.push_back((ts_ms, bad, total));
            // Keep one sample at or beyond the longest window so the
            // 3d baseline lookup stays exact.
            while entry.history.len() >= 2
                && ts_ms.saturating_sub(entry.history[1].0) >= max_window
            {
                entry.history.pop_front();
            }

            let budget = (1.0 - entry.spec.target).max(1e-9);
            let mut burns = Vec::with_capacity(WINDOWS.len());
            for (label, window_ms) in WINDOWS {
                let horizon = ts_ms.saturating_sub(window_ms);
                // Latest sample at or before the window start; the
                // oldest sample when history is shorter than the
                // window (burn over available history).
                let baseline = entry
                    .history
                    .iter()
                    .rev()
                    .find(|(t, _, _)| *t <= horizon)
                    .or_else(|| entry.history.front())
                    .copied()
                    .unwrap_or((ts_ms, bad, total));
                let d_total = total - baseline.2;
                let d_bad = bad - baseline.1;
                let error_rate = if d_total > 0.0 { d_bad / d_total } else { 0.0 };
                burns.push(WindowBurn {
                    window: label,
                    burn: error_rate / budget,
                });
            }
            // Budget consumed over the 3d window = burn × the covered
            // fraction of the window.
            let oldest = entry.history.front().map(|(t, _, _)| *t).unwrap_or(ts_ms);
            let covered = (ts_ms.saturating_sub(oldest)).min(max_window) as f64;
            let consumed = burns[3].burn * (covered / max_window as f64);
            let remaining = 1.0 - consumed;

            let page = burns[0].burn > PAGE_BURN && burns[1].burn > PAGE_BURN;
            let ticket = burns[2].burn > TICKET_BURN && burns[3].burn > TICKET_BURN;
            let name = entry.spec.name.as_str();
            for b in &burns {
                self.registry
                    .gauge_with(BURN_NAME, BURN_HELP, &[("slo", name), ("window", b.window)])
                    .set(b.burn);
            }
            self.registry
                .gauge_with(BUDGET_NAME, BUDGET_HELP, &[("slo", name)])
                .set(remaining);
            for (severity, active, was_active) in [
                ("page", page, &mut entry.page_active),
                ("ticket", ticket, &mut entry.ticket_active),
            ] {
                self.registry
                    .gauge_with(ACTIVE_NAME, ACTIVE_HELP, &[("slo", name), ("severity", severity)])
                    .set(if active { 1.0 } else { 0.0 });
                if active && !*was_active {
                    self.registry
                        .counter_with(
                            FIRED_NAME,
                            FIRED_HELP,
                            &[("slo", name), ("severity", severity)],
                        )
                        .inc();
                }
                *was_active = active;
            }
            let state = SloState {
                name: entry.spec.name.clone(),
                target: entry.spec.target,
                burn: burns,
                budget_remaining_ratio: remaining,
                page,
                ticket,
            };
            entry.last = Some(state.clone());
            states.push(state);
        }
        states
    }

    /// The most recent evaluation per SLO (empty before the first
    /// [`SloEngine::observe`]).
    pub fn states(&self) -> Vec<SloState> {
        self.entries.iter().filter_map(|e| e.last.clone()).collect()
    }

    /// The most recent state for `name`.
    pub fn state(&self, name: &str) -> Option<SloState> {
        self.entries
            .iter()
            .find(|e| e.spec.name == name)
            .and_then(|e| e.last.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Buckets;

    const MIN_MS: u64 = 60 * 1000;

    fn availability_spec(name: &str, target: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            target,
            objective: Objective::Availability {
                total: Selector::new("req_total", &[]),
                bad: vec![Selector::new("req_total", &[("outcome", "error")])],
            },
        }
    }

    #[test]
    fn steady_on_budget_traffic_burns_at_one() {
        let reg = Registry::new();
        let ok = reg.counter_with("req_total", "Requests.", &[("outcome", "ok")]);
        let err = reg.counter_with("req_total", "Requests.", &[("outcome", "error")]);
        let mut engine = SloEngine::new(reg.clone());
        engine.add(availability_spec("avail", 0.99)); // 1% budget
        // 1% errors, sampled every simulated minute for 2h.
        for minute in 0..120u64 {
            ok.add(99.0);
            err.add(1.0);
            engine.observe(minute * MIN_MS, &reg.snapshot());
        }
        let s = engine.state("avail").unwrap();
        assert!((s.burn_for("5m") - 1.0).abs() < 0.05, "5m burn {}", s.burn_for("5m"));
        assert!((s.burn_for("1h") - 1.0).abs() < 0.05);
        assert!(!s.page && !s.ticket);
    }

    #[test]
    fn fast_burn_pages_and_exports_series() {
        let reg = Registry::new();
        let ok = reg.counter_with("req_total", "Requests.", &[("outcome", "ok")]);
        let err = reg.counter_with("req_total", "Requests.", &[("outcome", "error")]);
        let mut engine = SloEngine::new(reg.clone());
        engine.add(availability_spec("avail", 0.99));
        // 50% errors for 90 simulated minutes: burn 50 over both fast
        // windows.
        for minute in 0..90u64 {
            ok.add(50.0);
            err.add(50.0);
            engine.observe(minute * MIN_MS, &reg.snapshot());
        }
        let s = engine.state("avail").unwrap();
        assert!(s.burn_for("5m") > PAGE_BURN && s.burn_for("1h") > PAGE_BURN);
        assert!(s.page);
        assert!(s.budget_remaining_ratio < 1.0);
        let snap = reg.snapshot();
        let burn_family = snap.family("dio_slo_burn_rate").unwrap();
        assert_eq!(burn_family.series.len(), 4);
        // A sustained 50% error stream trips both severities once each.
        assert_eq!(snap.total("dio_slo_alerts_total"), 2.0);
        assert_eq!(
            Selector::new("dio_slo_alerts_total", &[("severity", "page")]).sum(&snap),
            1.0
        );
        let active = snap.family("dio_slo_alert_active").unwrap();
        let page_active = active
            .series
            .iter()
            .find(|s| s.labels.contains(&("severity".into(), "page".into())))
            .unwrap();
        assert_eq!(page_active.value, SeriesValue::Gauge(1.0));
    }

    #[test]
    fn alert_clears_when_burn_stops_and_counter_counts_activations_once() {
        let reg = Registry::new();
        let ok = reg.counter_with("req_total", "Requests.", &[("outcome", "ok")]);
        let err = reg.counter_with("req_total", "Requests.", &[("outcome", "error")]);
        let mut engine = SloEngine::new(reg.clone());
        engine.add(availability_spec("avail", 0.99));
        for minute in 0..70u64 {
            ok.add(50.0);
            err.add(50.0);
            engine.observe(minute * MIN_MS, &reg.snapshot());
        }
        assert!(engine.state("avail").unwrap().page);
        // Clean traffic long enough to flush both fast windows.
        for minute in 70..140u64 {
            ok.add(100.0);
            engine.observe(minute * MIN_MS, &reg.snapshot());
        }
        assert!(!engine.state("avail").unwrap().page);
        // One page activation counted despite many firing evaluations
        // (the slow windows still remember the bad hour, so the ticket
        // stays active — that is the point of the slow pair).
        assert_eq!(
            Selector::new("dio_slo_alerts_total", &[("severity", "page")]).sum(&reg.snapshot()),
            1.0
        );
    }

    #[test]
    fn latency_objective_reads_histogram_buckets() {
        let reg = Registry::new();
        let h = reg.histogram_with(
            "lat_micros",
            "Latency.",
            &Buckets::explicit(vec![100.0, 1000.0, 10000.0]),
            &[("class", "premium")],
        );
        let mut engine = SloEngine::new(reg.clone());
        engine.add(SloSpec {
            name: "latency-premium".into(),
            target: 0.9,
            objective: Objective::LatencyThreshold {
                histogram: Selector::new("lat_micros", &[("class", "premium")]),
                threshold_micros: 1000.0,
            },
        });
        engine.observe(0, &reg.snapshot());
        // 80% fast, 20% over threshold → error rate 0.2, budget 0.1,
        // burn 2.
        for _ in 0..80 {
            h.observe(50.0);
        }
        for _ in 0..20 {
            h.observe(5000.0);
        }
        engine.observe(MIN_MS, &reg.snapshot());
        let s = engine.state("latency-premium").unwrap();
        assert!((s.burn_for("5m") - 2.0).abs() < 1e-6, "burn {}", s.burn_for("5m"));
    }

    #[test]
    fn selector_label_subset_matching() {
        let reg = Registry::new();
        reg.counter_with("m", "M.", &[("a", "1"), ("b", "2")]).add(5.0);
        reg.counter_with("m", "M.", &[("a", "1"), ("b", "3")]).add(7.0);
        let snap = reg.snapshot();
        assert_eq!(Selector::new("m", &[("a", "1")]).sum(&snap), 12.0);
        assert_eq!(Selector::new("m", &[("b", "3")]).sum(&snap), 7.0);
        assert_eq!(Selector::new("m", &[("b", "9")]).sum(&snap), 0.0);
        assert_eq!(Selector::new("absent", &[]).sum(&snap), 0.0);
    }
}
