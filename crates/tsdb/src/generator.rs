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
const DAY_MS: i64 = 24 * 3600 * 1000;

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
        let waves = Waves::new(&self.config, std::slice::from_ref(spec));
        let mut out = Vec::with_capacity(self.config.steps());
        self.fill(spec, &waves, &mut out);
        out
    }

    /// Replace `out` with every sample of one spec, its wave read from
    /// `waves` by step index.
    fn fill(&self, spec: &SeriesSpec, waves: &Waves, out: &mut Vec<Sample>) {
        let cfg = &self.config;
        out.clear();
        let steps = waves
            .get(spec.shape.period_ms())
            .iter()
            .enumerate()
            .map(|(k, &sine)| {
                let ts = cfg.start_ms + k as i64 * cfg.step_ms;
                (ts, sine, hash_noise(spec.seed, k as u64))
            });
        match spec.shape {
            SeriesShape::Counter {
                base_rate_per_sec,
                diurnal_frac,
                noise_frac,
            } => {
                let step_sec = cfg.step_ms as f64 / 1000.0;
                let mut counter_acc = 0.0f64;
                for (k, (ts, sine, u)) in steps.enumerate() {
                    if k > 0 {
                        let diurnal = 1.0 + diurnal_frac * sine;
                        let noise = 1.0 + noise_frac * u;
                        let rate = base_rate_per_sec * diurnal.max(0.0) * noise.max(0.0);
                        counter_acc += rate * step_sec * spec.scale;
                    }
                    out.push(Sample::new(ts, counter_acc));
                }
            }
            SeriesShape::Gauge {
                base,
                amplitude,
                noise_frac,
                ..
            } => out.extend(steps.map(|(ts, sine, u)| {
                let value = (base * (1.0 + amplitude * sine) + base * noise_frac * u) * spec.scale;
                Sample::new(ts, value)
            })),
        }
    }

    /// Synthesise every spec into `store`, in spec order. Each wave is
    /// computed once per step for all specs, each spec is generated
    /// into one reused buffer, and each series is built from its whole
    /// run and handed over with one index write, so even a zero-step
    /// config registers it.
    ///
    /// # Panics
    /// When two specs share a label set (on a non-empty time axis).
    pub fn populate(&self, specs: &[SeriesSpec], store: &mut MetricStore) {
        let waves = Waves::new(&self.config, specs);
        let mut run = Vec::with_capacity(self.config.steps());
        for spec in specs {
            self.fill(spec, &waves, &mut run);
            let skipped = store.adopt_series(Series::from_run(spec.labels.clone(), &run));
            assert_eq!(skipped, 0, "duplicate series spec {}", spec.labels);
        }
    }
}

impl SeriesShape {
    /// The period of the shape's sine wave: a day for counters.
    fn period_ms(&self) -> i64 {
        match self {
            SeriesShape::Counter { .. } => DAY_MS,
            SeriesShape::Gauge { period_ms, .. } => *period_ms,
        }
    }
}

/// `sin(2πt / period)` at every step of the time axis, one table per
/// period the specs use: every counter shares the day's and every
/// gauge its period's, so a world computes one sine per step and
/// period, not one per sample.
struct Waves {
    tables: Vec<(i64, Vec<f64>)>,
}

impl Waves {
    fn new(config: &SynthConfig, specs: &[SeriesSpec]) -> Self {
        let mut tables: Vec<(i64, Vec<f64>)> = Vec::new();
        for period_ms in specs.iter().map(|spec| spec.shape.period_ms()) {
            if tables.iter().any(|(p, _)| *p == period_ms) {
                continue;
            }
            let wave = (0..config.steps())
                .map(|k| {
                    let t = (config.start_ms + k as i64 * config.step_ms) as f64;
                    (2.0 * std::f64::consts::PI * t / period_ms as f64).sin()
                })
                .collect();
            tables.push((period_ms, wave));
        }
        Waves { tables }
    }

    fn get(&self, period_ms: i64) -> &[f64] {
        self.tables
            .iter()
            .find(|(p, _)| *p == period_ms)
            .map(|(_, wave)| wave.as_slice())
            .expect("a wave for every spec's period")
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

    /// The sine-per-sample synthesis the shared waves replaced, kept
    /// as the oracle for their bits.
    fn per_sample(cfg: &SynthConfig, spec: &SeriesSpec) -> Vec<(i64, u64)> {
        let step_sec = cfg.step_ms as f64 / 1000.0;
        let mut counter_acc = 0.0f64;
        (0..cfg.steps())
            .map(|k| {
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
                            let day = 24.0 * 3600.0 * 1000.0;
                            let diurnal =
                                1.0 + diurnal_frac * (2.0 * std::f64::consts::PI * t / day).sin();
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
                        (base * (1.0 + amplitude * phase.sin()) + base * noise_frac * u)
                            * spec.scale
                    }
                };
                (ts, value.to_bits())
            })
            .collect()
    }

    #[test]
    fn shared_waves_give_the_per_sample_bits() {
        // Three periods, a derived counter and a day-long gauge that
        // shares the counters' wave, over an axis that seals chunks.
        let cfg = SynthConfig {
            start_ms: 1_698_796_800_000,
            end_ms: 1_698_796_800_000 + 12 * 3600 * 1000,
            step_ms: 60_000,
        };
        let counter = SeriesSpec::counter(labels("c"), 5.0, 11);
        let mut day_gauge = SeriesSpec::gauge(labels("g_day"), 40.0, 12);
        if let SeriesShape::Gauge { period_ms, .. } = &mut day_gauge.shape {
            *period_ms = DAY_MS;
        }
        let specs = vec![
            SeriesSpec::gauge(labels("g"), 100.0, 13),
            counter.derived(labels("c_ok"), 0.9),
            day_gauge,
            counter,
        ];
        let synth = Synthesizer::new(cfg);
        let mut store = MetricStore::new();
        synth.populate(&specs, &mut store);
        let bits = |samples: Vec<Sample>| -> Vec<(i64, u64)> {
            samples
                .iter()
                .map(|s| (s.timestamp_ms, s.value.to_bits()))
                .collect()
        };
        for (spec, series) in specs.iter().zip(store.iter()) {
            let want = per_sample(&cfg, spec);
            assert_eq!(want.len(), 721);
            assert_eq!(bits(synth.synthesize(spec)), want, "{}", spec.labels);
            assert_eq!(series.labels(), &spec.labels);
            assert_eq!(bits(series.samples()), want, "{}", spec.labels);
        }
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
