//! The evaluation world: catalog + synthesised operator data.

use dio_catalog::{generate_catalog, Catalog, CatalogConfig, DomainDb, MetricRole, NetworkFunction};
use dio_promql::{Engine, EngineOptions};
use dio_tsdb::{Labels, MetricStore, SeriesSpec, SynthConfig, Synthesizer};
use serde::{Deserialize, Serialize};

/// World construction parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Catalog generation options.
    pub catalog: CatalogConfig,
    /// Instances per network function.
    pub instances_per_nf: usize,
    /// Synthesis time axis.
    pub synth: SynthConfig,
    /// Seed for traffic noise.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            catalog: CatalogConfig::default(),
            instances_per_nf: 3,
            synth: SynthConfig::default(),
            seed: 0xd10_c0b1_1a7e,
        }
    }
}

impl WorldConfig {
    /// A small world for fast unit tests: compact catalog, one
    /// instance, a short time axis.
    pub fn small() -> Self {
        WorldConfig {
            catalog: CatalogConfig {
                slice_variants: false,
                sbi_counters: false,
                ..CatalogConfig::default()
            },
            instances_per_nf: 2,
            synth: SynthConfig {
                start_ms: 0,
                end_ms: 3600 * 1000,
                step_ms: 60_000,
            },
            seed: 0xd10_c0b1_1a7e,
        }
    }
}

/// The assembled world.
pub struct OperatorWorld {
    /// The generated catalog (kept for grouping info).
    pub catalog: Catalog,
    /// The synthesised store.
    pub store: MetricStore,
    /// Evaluation timestamp (the end of the synthesised axis).
    pub eval_ts: i64,
    /// The construction config.
    pub config: WorldConfig,
}

fn mix(seed: u64, s: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl OperatorWorld {
    /// Build the world: generate the catalog and synthesise every
    /// metric for every instance. Counters in the same procedure group
    /// share a per-instance noise seed so success ≤ attempts holds
    /// sample-by-sample.
    pub fn build(config: WorldConfig) -> Self {
        let catalog = generate_catalog(&config.catalog);
        let synth = Synthesizer::new(config.synth);
        let mut store = MetricStore::new();
        let mut specs: Vec<SeriesSpec> = Vec::new();

        for m in &catalog.metrics {
            let group_key = format!("{}/{}/{}", m.nf.abbrev(), m.service, m.procedure);
            for inst in 0..config.instances_per_nf {
                let instance = format!("{}-{}", m.nf.abbrev(), inst);
                let labels = Labels::from_pairs([
                    ("__name__", m.name.as_str()),
                    ("instance", instance.as_str()),
                    ("nf", m.nf.abbrev()),
                ]);
                // Coupled counters share the group+instance seed; the
                // shape scale carries the coupling ratio via base_rate.
                let seed = match m.traffic.couple_ratio {
                    Some(_) => mix(config.seed, &format!("{group_key}#{inst}")),
                    None => mix(config.seed, &format!("{}#{inst}", m.name)),
                };
                // Spread instances: each instance carries a stable share
                // of the NF-level rate so per-instance answers differ.
                let share = 0.7 + 0.3 * (inst as f64 / config.instances_per_nf.max(1) as f64);
                let spec = if m.role == MetricRole::ActiveGauge {
                    SeriesSpec::gauge(labels, m.traffic.base_rate * share, seed)
                } else {
                    SeriesSpec::counter(labels, (m.traffic.base_rate * share).max(1e-6), seed)
                };
                specs.push(spec);
            }
        }
        synth.populate(&specs, &mut store);
        let eval_ts = config.synth.end_ms;
        OperatorWorld {
            catalog,
            store,
            eval_ts,
            config,
        }
    }

    /// The domain-specific database over this world's catalog.
    pub fn domain_db(&self) -> DomainDb {
        DomainDb::from_catalog(self.catalog.clone())
    }

    /// A trusted (permissive-limits) engine over a clone of the store,
    /// used to compute reference answers.
    pub fn reference_engine(&self) -> Engine {
        Engine::with_options(
            self.store.clone(),
            EngineOptions {
                max_samples: 0,
                ..EngineOptions::default()
            },
        )
    }

    /// Instance label values of one NF.
    pub fn instances(&self, nf: NetworkFunction) -> Vec<String> {
        (0..self.config.instances_per_nf)
            .map(|i| format!("{}-{}", nf.abbrev(), i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_builds_with_coupled_counters() {
        let w = OperatorWorld::build(WorldConfig::small());
        assert!(w.store.series_count() > 1000);
        assert_eq!(w.eval_ts, 3600 * 1000);

        // Success never exceeds attempts for a sample group.
        let group = w
            .catalog
            .groups
            .iter()
            .find(|g| g.attempt.is_some() && g.success.is_some())
            .unwrap();
        let attempt = group.attempt.as_ref().unwrap();
        let success = group.success.as_ref().unwrap();
        let e = w.reference_engine();
        let a = e
            .instant_query(&format!("sum({attempt})"), w.eval_ts)
            .unwrap()
            .as_scalar_like()
            .unwrap();
        let s = e
            .instant_query(&format!("sum({success})"), w.eval_ts)
            .unwrap()
            .as_scalar_like()
            .unwrap();
        assert!(s <= a, "success {s} > attempts {a}");
        assert!(s > 0.0);
    }

    #[test]
    fn every_metric_has_series_per_instance() {
        let w = OperatorWorld::build(WorldConfig::small());
        let m = &w.catalog.metrics[0];
        let series = w.store.series_for(&m.name);
        assert_eq!(series.len(), w.config.instances_per_nf);
    }

    #[test]
    fn instances_differ_in_level() {
        let w = OperatorWorld::build(WorldConfig::small());
        let group = w
            .catalog
            .groups
            .iter()
            .find(|g| g.attempt.is_some())
            .unwrap();
        let attempt = group.attempt.as_ref().unwrap();
        let series = w.store.series_for(attempt);
        let finals: Vec<f64> = series
            .iter()
            .map(|s| s.samples().last().unwrap().value)
            .collect();
        assert!(finals.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
    }

    #[test]
    fn world_build_is_deterministic() {
        let a = OperatorWorld::build(WorldConfig::small());
        let b = OperatorWorld::build(WorldConfig::small());
        assert_eq!(a.store.sample_count(), b.store.sample_count());
        let q = "sum(amfcc_n1_initial_registration_attempt)";
        assert_eq!(
            a.reference_engine().instant_query(q, a.eval_ts).unwrap(),
            b.reference_engine().instant_query(q, b.eval_ts).unwrap()
        );
    }

    #[test]
    fn instances_helper_matches_labels() {
        let w = OperatorWorld::build(WorldConfig::small());
        let insts = w.instances(NetworkFunction::Amf);
        assert_eq!(insts, vec!["amf-0", "amf-1"]);
    }
}
