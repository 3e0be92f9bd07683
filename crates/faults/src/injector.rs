//! Seeded data-plane fault schedule.
//!
//! [`Injector`] mirrors `FaultyModel`'s design for storage operations:
//! every operation draws a fixed number of RNG values (roll + pick +
//! aux) whether or not a fault fires, so the schedule is a pure
//! function of `(seed, op index)` and outcomes never perturb it. Any
//! run replays exactly, which is what makes the chaos soak debuggable.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The data-plane failure modes the injector can plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataFaultKind {
    /// The operation succeeds but a latency spike is recorded.
    LatencySpike,
    /// The operation fails outright with a transient I/O error; a retry
    /// against the same medium succeeds.
    TransientIo,
    /// A read returns only a prefix of the stored bytes (a torn page or
    /// short read the caller did not check).
    TruncatedRead,
    /// One bit of the stored or returned bytes is flipped.
    BitFlip,
}

impl DataFaultKind {
    /// All kinds, in weight order.
    pub const ALL: [DataFaultKind; 4] = [
        DataFaultKind::LatencySpike,
        DataFaultKind::TransientIo,
        DataFaultKind::TruncatedRead,
        DataFaultKind::BitFlip,
    ];

    /// Stable snake-case label value for metrics.
    pub fn slug(&self) -> &'static str {
        match self {
            DataFaultKind::LatencySpike => "latency",
            DataFaultKind::TransientIo => "transient_io",
            DataFaultKind::TruncatedRead => "truncated_read",
            DataFaultKind::BitFlip => "bit_flip",
        }
    }
}

/// Configuration for a data-plane fault schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// RNG seed; the entire schedule derives from it (optionally mixed
    /// with a per-layer tag, see [`Injector::derived`]).
    pub seed: u64,
    /// Probability that any given storage operation is faulted.
    pub fault_probability: f64,
    /// Relative weights of each kind, indexed like [`DataFaultKind::ALL`].
    /// A zero weight disables that kind.
    pub weights: [u32; 4],
    /// Simulated extra latency recorded on a latency spike (µs).
    pub latency_spike_micros: u64,
}

impl ChaosConfig {
    /// Uniform mix of all four kinds at probability `p`.
    pub fn with_probability(seed: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "fault probability {p} outside [0,1]");
        ChaosConfig {
            seed,
            fault_probability: p,
            weights: [1, 1, 1, 1],
            latency_spike_micros: 50_000,
        }
    }

    /// No faults at all; the schedule still advances deterministically.
    pub fn disabled(seed: u64) -> Self {
        Self::with_probability(seed, 0.0)
    }
}

/// A fault decision for one operation. `aux` is the operation-local
/// entropy used to place the damage (which byte to cut at, which bit to
/// flip) — pre-drawn so applying the fault costs no extra RNG values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// What to inject.
    pub kind: DataFaultKind,
    /// Operation-local entropy for placing the damage.
    pub aux: u64,
}

/// One injected fault, for post-hoc analysis and metric export.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataFaultEvent {
    /// 0-based index of the storage operation the fault hit.
    pub op: usize,
    /// What was injected.
    pub kind: DataFaultKind,
}

/// FNV-1a over a layer tag, for deriving per-layer seeds.
fn fnv1a(tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tag.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A seeded fault schedule over storage operations.
#[derive(Debug)]
pub struct Injector {
    config: ChaosConfig,
    rng: ChaCha8Rng,
    ops: usize,
    log: Vec<DataFaultEvent>,
    injected_latency_micros: u64,
}

impl Injector {
    /// Schedule directly from `config.seed`.
    pub fn new(config: ChaosConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        Injector {
            config,
            rng,
            ops: 0,
            log: Vec::new(),
            injected_latency_micros: 0,
        }
    }

    /// Schedule for one layer: the seed is mixed with a hash of the
    /// layer tag so "tsdb", "vecstore", and "feedback" injectors built
    /// from the same config fault independently but reproducibly.
    pub fn derived(config: &ChaosConfig, layer: &str) -> Self {
        let mut c = config.clone();
        c.seed ^= fnv1a(layer);
        Self::new(c)
    }

    /// The schedule configuration (post-derivation).
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Number of operations decided so far.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Every fault injected so far, in op order.
    pub fn log(&self) -> &[DataFaultEvent] {
        &self.log
    }

    /// Total simulated latency injected by spikes (µs). Recorded, never
    /// slept — determinism forbids touching the clock.
    pub fn injected_latency_micros(&self) -> u64 {
        self.injected_latency_micros
    }

    /// Record a latency spike's cost. Called by whoever applies a
    /// [`DataFaultKind::LatencySpike`] decision.
    pub fn note_latency_spike(&mut self) {
        self.injected_latency_micros += self.config.latency_spike_micros;
    }

    /// Decide the fault for the next operation. Always draws exactly
    /// three RNG values (roll, pick, aux) so the schedule depends only
    /// on (seed, op index), never on which faults fired earlier or how
    /// callers reacted to them.
    pub fn decide(&mut self) -> Option<PlannedFault> {
        let op = self.ops;
        self.ops += 1;
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        let pick: u64 = self.rng.gen_range(0..u64::MAX);
        let aux: u64 = self.rng.gen_range(0..u64::MAX);
        if roll >= self.config.fault_probability {
            return None;
        }
        let total: u64 = self.config.weights.iter().map(|w| *w as u64).sum();
        if total == 0 {
            return None;
        }
        let mut target = pick % total;
        for (kind, w) in DataFaultKind::ALL.iter().zip(self.config.weights.iter()) {
            if target < *w as u64 {
                self.log.push(DataFaultEvent { op, kind: *kind });
                return Some(PlannedFault { kind: *kind, aux });
            }
            target -= *w as u64;
        }
        unreachable!("weighted pick out of range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, p: f64, ops: usize) -> Vec<Option<PlannedFault>> {
        let mut inj = Injector::new(ChaosConfig::with_probability(seed, p));
        (0..ops).map(|_| inj.decide()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = schedule(42, 0.5, 100);
        let b = schedule(42, 0.5, 100);
        assert_eq!(a, b);
        assert!(a.iter().any(Option::is_some), "p=0.5 over 100 ops injected nothing");
        assert!(a.iter().any(Option::is_none), "p=0.5 faulted every op");
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(schedule(1, 0.5, 100), schedule(2, 0.5, 100));
    }

    #[test]
    fn derived_layers_fault_independently_but_reproducibly() {
        let cfg = ChaosConfig::with_probability(7, 0.5);
        let mk = |layer: &str| {
            let mut inj = Injector::derived(&cfg, layer);
            (0..50).map(|_| inj.decide()).collect::<Vec<_>>()
        };
        assert_eq!(mk("tsdb"), mk("tsdb"));
        assert_ne!(mk("tsdb"), mk("vecstore"));
    }

    #[test]
    fn zero_probability_never_faults_but_still_advances() {
        let mut inj = Injector::new(ChaosConfig::disabled(3));
        for _ in 0..20 {
            assert_eq!(inj.decide(), None);
        }
        assert_eq!(inj.ops(), 20);
        assert!(inj.log().is_empty());
    }

    #[test]
    fn weights_restrict_kinds() {
        let cfg = ChaosConfig {
            seed: 5,
            fault_probability: 1.0,
            weights: [0, 1, 0, 0], // only TransientIo
            latency_spike_micros: 0,
        };
        let mut inj = Injector::new(cfg);
        for _ in 0..20 {
            let f = inj.decide().expect("p=1 must fault");
            assert_eq!(f.kind, DataFaultKind::TransientIo);
        }
    }

    #[test]
    fn schedule_is_independent_of_outcomes() {
        // Whether callers react to a fault (retry, rebuild, …) never
        // touches the injector RNG, so the fault positions of two
        // differently-weighted schedules with the same seed coincide.
        let base = ChaosConfig {
            seed: 21,
            fault_probability: 0.4,
            weights: [1, 1, 1, 0],
            latency_spike_micros: 0,
        };
        let mut other = base.clone();
        other.weights = [1, 1, 1, 1];
        let mut a = Injector::new(base);
        let mut b = Injector::new(other);
        for _ in 0..60 {
            let _ = a.decide();
            let _ = b.decide();
        }
        let ops = |inj: &Injector| inj.log().iter().map(|e| e.op).collect::<Vec<_>>();
        assert_eq!(ops(&a), ops(&b));
    }

    #[test]
    fn latency_spikes_accumulate_without_sleeping() {
        let cfg = ChaosConfig {
            seed: 13,
            fault_probability: 1.0,
            weights: [1, 0, 0, 0], // only LatencySpike
            latency_spike_micros: 1_000,
        };
        let mut inj = Injector::new(cfg);
        for _ in 0..3 {
            let f = inj.decide().unwrap();
            assert_eq!(f.kind, DataFaultKind::LatencySpike);
            inj.note_latency_spike();
        }
        assert_eq!(inj.injected_latency_micros(), 3_000);
    }
}
