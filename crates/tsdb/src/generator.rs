//! Deterministic synthetic operator-traffic generator.
//!
//! Fills a [`MetricStore`] with "synthetic yet representative" data
//! (paper §4.1): counters accumulate at a diurnal rate with bounded
//! multiplicative noise; gauges oscillate around a base level.
//!
//! Determinism is structural: per-step noise is a pure function of
//! `(spec seed, step index)`, so regenerating with the same specs yields
//! bit-identical data, and two specs sharing a seed have *correlated*
//! noise. That correlation is how attempt/success counter pairs stay
//! consistent (success rate = attempts rate × ratio, with identical
//! noise, so success increments never exceed attempt increments).

use crate::labels::Labels;
use crate::sample::Sample;
use crate::series::Series;
use crate::storage::MetricStore;
use serde::{Deserialize, Serialize};

/// Milliseconds in one day, the diurnal period.
const DAY_MS: f64 = 24.0 * 3600.0 * 1000.0;

/// The temporal shape of one synthetic series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SeriesShape {
    /// Monotonically non-decreasing counter. The instantaneous rate is
    /// `base_rate_per_sec * (1 + diurnal_frac*sin(2πt/day)) * (1 + noise_frac*u)`
    /// with `u ∈ [-1, 1]` drawn deterministically per step.
    Counter {
        /// Mean increment rate in events per second.
        base_rate_per_sec: f64,
        /// Diurnal modulation fraction in `[0, 1)`.
        diurnal_frac: f64,
        /// Multiplicative noise fraction in `[0, 1)`.
        noise_frac: f64,
    },
    /// Gauge oscillating as
    /// `base * (1 + amplitude*sin(2πt/period)) + base*noise_frac*u`.
    Gauge {
        /// Mean level.
        base: f64,
        /// Relative oscillation amplitude in `[0, 1)`.
        amplitude: f64,
        /// Oscillation period in milliseconds.
        period_ms: i64,
        /// Additive noise fraction of `base`.
        noise_frac: f64,
    },
}

/// One series to synthesise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSpec {
    /// Full identity (must include `__name__`).
    pub labels: Labels,
    /// Temporal shape.
    pub shape: SeriesShape,
    /// Noise seed. Specs sharing a seed draw identical noise.
    pub seed: u64,
    /// Rate/level multiplier applied on top of the shape. Used to derive
    /// coupled metrics: a success counter is its attempt counter's spec
    /// with `scale = success_ratio` and the same seed.
    pub scale: f64,
}

impl SeriesSpec {
    /// A counter spec with unit scale.
    pub fn counter(labels: Labels, base_rate_per_sec: f64, seed: u64) -> Self {
        SeriesSpec {
            labels,
            shape: SeriesShape::Counter {
                base_rate_per_sec,
                diurnal_frac: 0.3,
                noise_frac: 0.1,
            },
            seed,
            scale: 1.0,
        }
    }

    /// A gauge spec with unit scale.
    pub fn gauge(labels: Labels, base: f64, seed: u64) -> Self {
        SeriesSpec {
            labels,
            shape: SeriesShape::Gauge {
                base,
                amplitude: 0.2,
                period_ms: 6 * 3600 * 1000,
                noise_frac: 0.05,
            },
            seed,
            scale: 1.0,
        }
    }

    /// Derive a coupled spec (same seed, same shape, scaled) under a new
    /// identity — e.g. the `success` counter of an `attempt` counter.
    pub fn derived(&self, labels: Labels, ratio: f64) -> Self {
        SeriesSpec {
            labels,
            shape: self.shape.clone(),
            seed: self.seed,
            scale: self.scale * ratio,
        }
    }
}

/// Time axis for synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// First sample timestamp (ms since epoch).
    pub start_ms: i64,
    /// Last sample timestamp is the largest `start + k*step <= end`.
    pub end_ms: i64,
    /// Scrape interval in ms.
    pub step_ms: i64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        // 6 hours of data at a 30 s scrape interval starting at a fixed
        // epoch (2023-11-01T00:00:00Z), 721 samples per series.
        SynthConfig {
            start_ms: 1_698_796_800_000,
            end_ms: 1_698_796_800_000 + 6 * 3600 * 1000,
            step_ms: 30_000,
        }
    }
}

impl SynthConfig {
    /// Number of samples each series receives.
    pub fn steps(&self) -> usize {
        if self.end_ms < self.start_ms || self.step_ms <= 0 {
            return 0;
        }
        ((self.end_ms - self.start_ms) / self.step_ms) as usize + 1
    }
}

/// Deterministic per-step noise in `[-1, 1]`.
fn hash_noise(seed: u64, step: u64) -> f64 {
    let mut h = seed ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Synthesises series into a store.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    config: SynthConfig,
}

impl Synthesizer {
    /// Create with a time axis.
    pub fn new(config: SynthConfig) -> Self {
        Synthesizer { config }
    }

    /// The time axis.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Generate all samples for one spec.
    pub fn synthesize(&self, spec: &SeriesSpec) -> Vec<Sample> {
        let cfg = &self.config;
        let steps = cfg.steps();
        let mut out = Vec::with_capacity(steps);
        let step_sec = cfg.step_ms as f64 / 1000.0;
        let mut counter_acc = 0.0f64;
        for k in 0..steps {
            let ts = cfg.start_ms + k as i64 * cfg.step_ms;
            let t = ts as f64;
            let u = hash_noise(spec.seed, k as u64);
            let value = match &spec.shape {
                SeriesShape::Counter {
                    base_rate_per_sec,
                    diurnal_frac,
                    noise_frac,
                } => {
                    if k > 0 {
                        let diurnal = 1.0 + diurnal_frac * (2.0 * std::f64::consts::PI * t / DAY_MS).sin();
                        let noise = 1.0 + noise_frac * u;
                        let rate = base_rate_per_sec * diurnal.max(0.0) * noise.max(0.0);
                        counter_acc += rate * step_sec * spec.scale;
                    }
                    counter_acc
                }
                SeriesShape::Gauge {
                    base,
                    amplitude,
                    period_ms,
                    noise_frac,
                } => {
                    let phase = 2.0 * std::f64::consts::PI * t / (*period_ms as f64);
                    (base * (1.0 + amplitude * phase.sin()) + base * noise_frac * u) * spec.scale
                }
            };
            out.push(Sample::new(ts, value));
        }
        out
    }

    /// Synthesise every spec into `store`, in spec order. Each series
    /// is built whole and handed over with one index write, so even a
    /// zero-step config registers it.
    ///
    /// # Panics
    /// When two specs share a label set (on a non-empty time axis).
    pub fn populate(&self, specs: &[SeriesSpec], store: &mut MetricStore) {
        for spec in specs {
            let mut series = Series::new(spec.labels.clone());
            for s in self.synthesize(spec) {
                series
                    .append(s)
                    .expect("synthesizer emits strictly increasing timestamps");
            }
            let skipped = store.adopt_series(series);
            assert_eq!(skipped, 0, "duplicate series spec {}", spec.labels);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::NAME_LABEL;

    fn cfg() -> SynthConfig {
        SynthConfig {
            start_ms: 0,
            end_ms: 600_000,
            step_ms: 60_000,
        }
    }

    fn labels(name: &str) -> Labels {
        Labels::from_pairs([(NAME_LABEL, name), ("instance", "amf-0")])
    }

    #[test]
    fn steps_counts_inclusive_endpoints() {
        assert_eq!(cfg().steps(), 11);
        let degenerate = SynthConfig {
            start_ms: 10,
            end_ms: 0,
            step_ms: 5,
        };
        assert_eq!(degenerate.steps(), 0);
    }

    #[test]
    fn counter_is_monotone_nondecreasing() {
        let synth = Synthesizer::new(cfg());
        let spec = SeriesSpec::counter(labels("c"), 5.0, 42);
        let samples = synth.synthesize(&spec);
        assert_eq!(samples.len(), 11);
        assert_eq!(samples[0].value, 0.0);
        for w in samples.windows(2) {
            assert!(w[1].value >= w[0].value);
            assert!(w[1].timestamp_ms > w[0].timestamp_ms);
        }
    }

    #[test]
    fn counter_grows_roughly_at_base_rate() {
        let synth = Synthesizer::new(cfg());
        let spec = SeriesSpec::counter(labels("c"), 10.0, 1);
        let samples = synth.synthesize(&spec);
        let total = samples.last().unwrap().value;
        // 600 seconds at ~10/sec with ±30% diurnal ±10% noise.
        assert!((3_500.0..=8_500.0).contains(&total), "total={total}");
    }

    #[test]
    fn generation_is_deterministic() {
        let synth = Synthesizer::new(cfg());
        let spec = SeriesSpec::gauge(labels("g"), 100.0, 7);
        assert_eq!(synth.synthesize(&spec), synth.synthesize(&spec));
    }

    #[test]
    fn different_seeds_differ() {
        let synth = Synthesizer::new(cfg());
        let a = synth.synthesize(&SeriesSpec::counter(labels("c"), 5.0, 1));
        let b = synth.synthesize(&SeriesSpec::counter(labels("c"), 5.0, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn derived_success_never_exceeds_attempts() {
        let synth = Synthesizer::new(cfg());
        let attempts = SeriesSpec::counter(labels("attempt"), 8.0, 99);
        let success = attempts.derived(labels("success"), 0.95);
        let sa = synth.synthesize(&attempts);
        let ss = synth.synthesize(&success);
        for (a, s) in sa.iter().zip(ss.iter()) {
            assert!(s.value <= a.value + 1e-9);
        }
        // And the ratio of totals is exactly the derivation ratio.
        let ratio = ss.last().unwrap().value / sa.last().unwrap().value;
        assert!((ratio - 0.95).abs() < 1e-9, "ratio={ratio}");
    }

    #[test]
    fn gauge_stays_near_base() {
        let synth = Synthesizer::new(cfg());
        let samples = synth.synthesize(&SeriesSpec::gauge(labels("g"), 100.0, 3));
        for s in &samples {
            assert!((60.0..=140.0).contains(&s.value), "value={}", s.value);
        }
    }

    #[test]
    fn populate_fills_store() {
        let synth = Synthesizer::new(cfg());
        let specs = vec![
            SeriesSpec::counter(labels("a"), 1.0, 1),
            SeriesSpec::gauge(labels("b"), 10.0, 2),
        ];
        let mut store = MetricStore::new();
        synth.populate(&specs, &mut store);
        assert_eq!(store.series_count(), 2);
        assert_eq!(store.sample_count(), 22);
        assert_eq!(store.min_timestamp(), Some(0));
        assert_eq!(store.max_timestamp(), Some(600_000));
    }

    #[test]
    #[should_panic(expected = "duplicate series spec")]
    fn populate_rejects_a_duplicate_spec() {
        let synth = Synthesizer::new(cfg());
        let spec = SeriesSpec::counter(labels("a"), 1.0, 1);
        synth.populate(&[spec.clone(), spec], &mut MetricStore::new());
    }

    #[test]
    fn hash_noise_is_bounded_and_varied() {
        let mut distinct = std::collections::HashSet::new();
        for k in 0..1000 {
            let u = hash_noise(5, k);
            assert!((-1.0..=1.0).contains(&u));
            distinct.insert((u * 1e9) as i64);
        }
        assert!(distinct.len() > 900);
    }
}
