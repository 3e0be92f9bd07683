//! The adaptive brownout ladder.
//!
//! Load shedding ([`crate::ShedReason`]) is binary: a request is served
//! or refused. Brownout adds the rungs in between — under sustained
//! pressure the service *degrades* answers before it *refuses* them,
//! trading answer fidelity for goodput one step at a time:
//!
//! 1. [`BrownoutLevel::ReducedRetrieval`] — shrink the retrieval top-k
//!    so each ask reads and ranks less context;
//! 2. [`BrownoutLevel::NoRepair`] — additionally skip sandbox repair
//!    rounds (first generation either executes or degrades);
//! 3. [`BrownoutLevel::CacheOnly`] — answer from the answer cache or
//!    the degraded direct-lookup fallback only; no model calls at all;
//! 4. [`BrownoutLevel::Shed`] — refuse new arrivals at admission
//!    ([`crate::ShedReason::Brownout`]) while the backlog drains.
//!
//! The [`BrownoutController`] watches two pressure signals at worker
//! pickup: admission-queue occupancy and a rolling percentile of queue
//! waits. Escalation and recovery are both *one rung at a time* with
//! streak-based hysteresis — it takes several consecutive pressured
//! observations to step down the ladder and strictly more consecutive
//! clear observations to climb back, so the level cannot flap on a
//! single noisy sample. Every transition is exported on the
//! `dio_serve_brownout_level` gauge, counted in
//! `dio_serve_brownout_transitions_total{to=...}`, and recorded as a
//! span event on the trace of the request whose pickup triggered it.

use dio_obs::{Counter, Gauge, Registry, RollingQuantile};
use std::time::Duration;

/// Degradation rungs, mildest first. Ordered: a higher level implies
/// every restriction of the levels below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BrownoutLevel {
    /// Full service.
    Normal,
    /// Retrieval top-k shrunk.
    ReducedRetrieval,
    /// Repair rounds skipped as well.
    NoRepair,
    /// Answer cache or the degraded direct-lookup fallback only — no
    /// foundation-model calls.
    CacheOnly,
    /// New arrivals refused at admission while the backlog drains.
    Shed,
}

impl BrownoutLevel {
    /// Every level, mildest first.
    pub fn all() -> [BrownoutLevel; 5] {
        [
            BrownoutLevel::Normal,
            BrownoutLevel::ReducedRetrieval,
            BrownoutLevel::NoRepair,
            BrownoutLevel::CacheOnly,
            BrownoutLevel::Shed,
        ]
    }

    /// The metric/event label value.
    pub fn label(self) -> &'static str {
        match self {
            BrownoutLevel::Normal => "normal",
            BrownoutLevel::ReducedRetrieval => "reduced_retrieval",
            BrownoutLevel::NoRepair => "no_repair",
            BrownoutLevel::CacheOnly => "cache_only",
            BrownoutLevel::Shed => "shed",
        }
    }

    fn from_index(i: usize) -> BrownoutLevel {
        Self::all()[i.min(4)]
    }
}

/// Pressure thresholds and hysteresis for the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Queue occupancy (fraction of capacity) at or above which an
    /// observation counts as *pressured*.
    pub queue_high: f64,
    /// Queue occupancy at or below which an observation may count as
    /// *clear* (strictly less than `queue_high` for hysteresis).
    pub queue_low: f64,
    /// Consecutive pressured observations required to step one rung
    /// down the ladder.
    pub step_up_after: usize,
    /// Consecutive clear observations required to step one rung back —
    /// larger than `step_up_after` so recovery is the slow direction.
    pub step_down_after: usize,
    /// Rolling queue-wait window size (observations).
    pub window: usize,
}

/// The rolling queue-wait percentile watched (0..1).
const WAIT_PERCENTILE: f64 = 0.9;
/// Fraction of the default deadline the watched percentile may reach
/// before an observation counts as pressured.
const WAIT_BUDGET: f64 = 0.25;

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            queue_high: 0.5,
            queue_low: 0.25,
            step_up_after: 3,
            step_down_after: 8,
            window: 64,
        }
    }
}

impl BrownoutConfig {
    /// A ladder that never engages (the no-brownout ablation baseline:
    /// the service sheds binary-style only).
    pub fn disabled() -> Self {
        BrownoutConfig {
            step_up_after: usize::MAX,
            ..BrownoutConfig::default()
        }
    }
}

/// One observed transition: `(from, to)`.
pub(crate) type BrownoutTransition = (BrownoutLevel, BrownoutLevel);

/// The streak-hysteresis ladder state machine. Owned by the service
/// core behind a mutex; workers feed it one observation per pickup.
pub(crate) struct BrownoutController {
    cfg: BrownoutConfig,
    queue_capacity: usize,
    deadline: Duration,
    waits_micros: RollingQuantile,
    level: usize,
    pressured_streak: usize,
    clear_streak: usize,
    gauge: Gauge,
    transitions: [Counter; 5],
}

impl BrownoutController {
    /// Build a controller for a queue of `queue_capacity` entries and
    /// requests granted `deadline` by default, exporting its level on
    /// `registry`.
    pub(crate) fn new(
        cfg: BrownoutConfig,
        queue_capacity: usize,
        deadline: Duration,
        registry: &Registry,
    ) -> Self {
        let gauge = registry.gauge(
            "dio_serve_brownout_level",
            "current brownout ladder position (0 normal … 4 shed)",
        );
        gauge.set(0.0);
        let transitions = BrownoutLevel::all().map(|to| {
            registry.counter_with(
                "dio_serve_brownout_transitions_total",
                "brownout ladder transitions, by destination level",
                &[("to", to.label())],
            )
        });
        BrownoutController {
            cfg,
            queue_capacity: queue_capacity.max(1),
            deadline,
            waits_micros: RollingQuantile::new(cfg.window),
            level: 0,
            pressured_streak: 0,
            clear_streak: 0,
            gauge,
            transitions,
        }
    }

    /// The current level.
    pub(crate) fn level(&self) -> BrownoutLevel {
        BrownoutLevel::from_index(self.level)
    }

    /// Feed one pickup observation: current queue length plus the time
    /// the picked request waited. Returns the (possibly new) level and
    /// the transition, if this observation caused one.
    pub(crate) fn observe(
        &mut self,
        queue_len: usize,
        queue_wait: Duration,
    ) -> (BrownoutLevel, Option<BrownoutTransition>) {
        self.waits_micros.push(queue_wait.as_micros() as u64);

        let occupancy = queue_len as f64 / self.queue_capacity as f64;
        let wait_limit = self.deadline.as_micros() as f64 * WAIT_BUDGET;
        let wait_p = self.waits_micros.quantile(WAIT_PERCENTILE).unwrap_or(0) as f64;
        let pressured = occupancy >= self.cfg.queue_high || wait_p > wait_limit;
        // Clear needs both signals quiet, and the wait percentile well
        // under the limit (half), so the ladder does not oscillate
        // right at the threshold.
        let clear = occupancy <= self.cfg.queue_low && wait_p <= wait_limit / 2.0;

        if pressured {
            self.pressured_streak += 1;
            self.clear_streak = 0;
        } else if clear {
            self.clear_streak += 1;
            self.pressured_streak = 0;
        } else {
            self.pressured_streak = 0;
            self.clear_streak = 0;
        }

        let from = self.level;
        if self.pressured_streak >= self.cfg.step_up_after && self.level < 4 {
            self.level += 1;
            self.pressured_streak = 0;
        } else if self.clear_streak >= self.cfg.step_down_after && self.level > 0 {
            self.level -= 1;
            self.clear_streak = 0;
        }
        let level = BrownoutLevel::from_index(self.level);
        let transition = (self.level != from).then(|| {
            self.gauge.set(self.level as f64);
            self.transitions[self.level].inc();
            (BrownoutLevel::from_index(from), level)
        });
        (level, transition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(cfg: BrownoutConfig) -> BrownoutController {
        BrownoutController::new(cfg, 8, Duration::from_secs(30), &Registry::new())
    }

    #[test]
    fn levels_are_ordered_and_labelled_distinctly() {
        let all = BrownoutLevel::all();
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
        let labels: std::collections::HashSet<_> = all.iter().map(|l| l.label()).collect();
        assert_eq!(labels.len(), all.len());
        for (i, l) in all.iter().enumerate() {
            assert_eq!(*l as usize, i);
        }
    }

    #[test]
    fn sustained_pressure_steps_down_one_rung_at_a_time() {
        let mut c = controller(BrownoutConfig::default());
        // Full queue, long waits: pressured every observation. Three
        // observations per rung (step_up_after = 3).
        let mut seen = vec![c.level()];
        for _ in 0..12 {
            let (level, transition) = c.observe(8, Duration::from_secs(20));
            if let Some((from, to)) = transition {
                assert_eq!(to as usize, from as usize + 1, "must step one rung");
                seen.push(level);
            }
        }
        assert_eq!(
            seen,
            vec![
                BrownoutLevel::Normal,
                BrownoutLevel::ReducedRetrieval,
                BrownoutLevel::NoRepair,
                BrownoutLevel::CacheOnly,
                BrownoutLevel::Shed,
            ],
            "the full ladder engages under sustained pressure"
        );
        // Saturated: no further escalation past Shed.
        assert!(c.observe(8, Duration::from_secs(20)).1.is_none());
    }

    #[test]
    fn pressure_clearing_restores_level_by_level_slowly() {
        let mut c = controller(BrownoutConfig::default());
        for _ in 0..6 {
            c.observe(8, Duration::ZERO); // full queue: occupancy pressure
        }
        assert_eq!(c.level(), BrownoutLevel::NoRepair);
        let mut restored = Vec::new();
        for _ in 0..200 {
            if let (level, Some((from, to))) = c.observe(0, Duration::ZERO) {
                assert_eq!(to as usize + 1, from as usize, "must restore one rung");
                restored.push(level);
            }
        }
        assert_eq!(
            restored,
            vec![BrownoutLevel::ReducedRetrieval, BrownoutLevel::Normal],
            "recovery climbs the ladder one rung at a time"
        );
        // Recovery is the slow direction: climbing out took more clear
        // observations per rung than descending took pressured ones.
        let cfg = BrownoutConfig::default();
        assert!(cfg.step_down_after > cfg.step_up_after);
    }

    #[test]
    fn mixed_signals_reset_both_streaks() {
        let mut c = controller(BrownoutConfig::default());
        // Two pressured observations, then a neutral one (mid
        // occupancy), repeatedly: the streak never reaches three.
        for _ in 0..10 {
            c.observe(8, Duration::ZERO);
            c.observe(8, Duration::ZERO);
            c.observe(3, Duration::ZERO);
        }
        assert_eq!(c.level(), BrownoutLevel::Normal, "hysteresis must hold");
    }

    #[test]
    fn disabled_config_never_engages() {
        let mut c = controller(BrownoutConfig::disabled());
        for _ in 0..100 {
            assert!(c.observe(8, Duration::from_secs(29)).1.is_none());
        }
        assert_eq!(c.level(), BrownoutLevel::Normal);
    }

    #[test]
    fn transitions_move_the_gauge_and_counters() {
        let registry = Registry::new();
        let mut c = BrownoutController::new(
            BrownoutConfig::default(),
            8,
            Duration::from_secs(30),
            &registry,
        );
        for _ in 0..3 {
            c.observe(8, Duration::from_secs(20));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.total("dio_serve_brownout_level"), 1.0);
        assert!(snap.total("dio_serve_brownout_transitions_total") >= 1.0);
    }
}
