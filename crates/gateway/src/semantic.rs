//! Embedding-similarity semantic answer cache.
//!
//! The exact and normalized answer caches in `dio-serve` only absorb
//! repeats that normalize to the same string. Operators also *rephrase*
//! — PromCopilot (arXiv:2503.03114) reports repeated-query locality as
//! the defining workload property of NL→PromQL traffic, and much of it
//! arrives as near-duplicates. This cache layers behind the exact
//! caches: it stores the question vectors the embed cache already
//! produced and serves a **neighbor's** answer when the cosine
//! similarity clears a configurable floor.
//!
//! Admission rule: a probe only hits when (a) the candidate was cached
//! at the same evaluation timestamp, (b) under the *current* knowledge
//! generation (the caller's, read from the same knowledge snapshot that
//! stamps the serve caches — stale-generation entries are dropped lazily
//! on contact), and (c) cosine ≥ floor. A best-match below the floor is
//! a **reject**, and a reject is never served — that near-miss
//! discipline is what keeps EX parity intact. Hits, misses, and rejects
//! are counted in `dio_gateway_semantic_cache_total{event}`.

use dio_embed::Vector;
use dio_obs::{Buckets, Counter, Histogram, Registry};
use std::sync::{Arc, Mutex};

/// Instrument names.
const EVENTS_NAME: &str = "dio_gateway_semantic_cache_total";
const EVENTS_HELP: &str = "Semantic answer-cache probes, by event (hit/miss/reject).";
const SIMILARITY_NAME: &str = "dio_gateway_semantic_similarity";
const SIMILARITY_HELP: &str = "Best-neighbor cosine similarity of semantic cache probes.";

/// Semantic-cache policy.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SemanticConfig {
    /// Minimum cosine similarity for serving a neighbor's answer.
    pub floor: f32,
    /// Maximum retained entries (LRU beyond this).
    pub capacity: usize,
}

impl Default for SemanticConfig {
    /// The default floor is deliberately conservative: the
    /// deterministic embedder maps paraphrases that share almost all
    /// content words above ~0.95, while questions about *different*
    /// metrics land well below it (see the EX-parity proptests).
    fn default() -> Self {
        SemanticConfig {
            floor: 0.95,
            capacity: 2048,
        }
    }
}

/// One probe's outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe<V> {
    /// A neighbor cleared the floor; serve its answer.
    Hit {
        /// The neighbor's cached value.
        value: V,
        /// The neighbor's (normalized) question key.
        neighbor: String,
        /// The winning cosine similarity.
        similarity: f32,
    },
    /// Candidates existed but the best fell below the floor.
    Reject {
        /// The best (rejected) similarity.
        similarity: f32,
    },
    /// No candidate at this (timestamp, generation).
    Miss,
}

impl<V> Probe<V> {
    /// The metric label for this outcome.
    pub fn event(&self) -> &'static str {
        match self {
            Probe::Hit { .. } => "hit",
            Probe::Reject { .. } => "reject",
            Probe::Miss => "miss",
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<V> {
    key: String,
    ts: i64,
    generation: u64,
    vector: Arc<Vector>,
    /// `vector.norm()`, computed once at insert so a probe costs one
    /// dot product per candidate.
    norm: f32,
    value: V,
    /// Monotone use stamp for LRU eviction.
    used: u64,
}

#[derive(Debug)]
struct Inner<V> {
    entries: Vec<Entry<V>>,
    clock: u64,
}

/// Aggregate counters, mirrored from the registry for cheap assertion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct SemanticStats {
    /// Probes served from a neighbor.
    pub hits: u64,
    /// Probes with no candidate.
    pub misses: u64,
    /// Probes whose best neighbor fell below the floor.
    pub rejects: u64,
    /// Entries dropped by generation invalidation.
    pub invalidations: u64,
    /// Entries evicted by capacity.
    pub evictions: u64,
}

/// The semantic answer cache. `V` is whatever the serving tier caches
/// (a full response); the cache itself only reasons about vectors.
pub struct SemanticCache<V> {
    inner: Mutex<Inner<V>>,
    config: SemanticConfig,
    stats: Mutex<SemanticStats>,
    hit: Counter,
    miss: Counter,
    reject: Counter,
    similarity: Histogram,
}

impl<V: Clone> SemanticCache<V> {
    /// An empty cache counting into `registry`.
    pub fn new(registry: &Registry, config: SemanticConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.floor),
            "similarity floor {} outside [0,1]",
            config.floor
        );
        SemanticCache {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                clock: 0,
            }),
            config,
            stats: Mutex::new(SemanticStats::default()),
            hit: registry.counter_with(EVENTS_NAME, EVENTS_HELP, &[("event", "hit")]),
            miss: registry.counter_with(EVENTS_NAME, EVENTS_HELP, &[("event", "miss")]),
            reject: registry.counter_with(EVENTS_NAME, EVENTS_HELP, &[("event", "reject")]),
            similarity: registry.histogram_with(
                SIMILARITY_NAME,
                SIMILARITY_HELP,
                &Buckets::unit_fractions(),
                &[],
            ),
        }
    }

    /// The configured admission policy.
    pub fn config(&self) -> SemanticConfig {
        self.config
    }

    /// Probe for a neighbor of `qvec` cached at (`ts`, `generation`).
    pub fn probe(&self, ts: i64, generation: u64, qvec: &Vector) -> Probe<V> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        let dropped = drop_stale(&mut inner.entries, generation);
        let qnorm = qvec.norm();
        let mut best: Option<(usize, f32)> = None;
        for (i, e) in inner.entries.iter().enumerate() {
            if e.ts != ts {
                continue;
            }
            let sim = dio_embed::cosine_with_norms(&e.vector, e.norm, qvec, qnorm);
            if best.map(|(_, b)| sim > b).unwrap_or(true) {
                best = Some((i, sim));
            }
        }
        let outcome = match best {
            Some((i, sim)) if sim >= self.config.floor => {
                let e = &mut inner.entries[i];
                e.used = clock;
                Probe::Hit {
                    value: e.value.clone(),
                    neighbor: e.key.clone(),
                    similarity: sim,
                }
            }
            Some((_, sim)) => Probe::Reject { similarity: sim },
            None => Probe::Miss,
        };
        drop(inner);
        let mut stats = self.stats.lock().unwrap();
        stats.invalidations += dropped as u64;
        match &outcome {
            Probe::Hit { similarity, .. } => {
                stats.hits += 1;
                self.hit.inc();
                self.similarity.observe(*similarity as f64);
            }
            Probe::Reject { similarity } => {
                stats.rejects += 1;
                self.reject.inc();
                self.similarity.observe(*similarity as f64);
            }
            Probe::Miss => {
                stats.misses += 1;
                self.miss.inc();
            }
        }
        outcome
    }

    /// Cache `value` for the question `key` (normalized) embedded as
    /// `vector`, valid at (`ts`, `generation`). Re-inserting an
    /// existing key refreshes its value.
    pub fn insert(&self, ts: i64, generation: u64, key: &str, vector: Arc<Vector>, value: V) {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        let dropped = drop_stale(&mut inner.entries, generation);
        let mut evicted = 0u64;
        let norm = vector.norm();
        if let Some(e) = inner
            .entries
            .iter_mut()
            .find(|e| e.ts == ts && e.key == key)
        {
            e.value = value;
            e.vector = vector;
            e.norm = norm;
            e.used = clock;
        } else {
            if self.config.capacity > 0 && inner.entries.len() >= self.config.capacity {
                // Evict the least-recently-used entry.
                if let Some((idx, _)) = inner.entries.iter().enumerate().min_by_key(|(_, e)| e.used)
                {
                    inner.entries.swap_remove(idx);
                    evicted = 1;
                }
            }
            inner.entries.push(Entry {
                key: key.to_string(),
                ts,
                generation,
                vector,
                norm,
                value,
                used: clock,
            });
        }
        drop(inner);
        let mut stats = self.stats.lock().unwrap();
        stats.invalidations += dropped as u64;
        stats.evictions += evicted;
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SemanticStats {
        *self.stats.lock().unwrap()
    }
}

/// Drop entries cached under an older knowledge generation; returns
/// how many were invalidated. (Newer-than-current never occurs — the
/// generation is monotone — but would be dropped too.)
fn drop_stale<V>(entries: &mut Vec<Entry<V>>, generation: u64) -> usize {
    let before = entries.len();
    entries.retain(|e| e.generation == generation);
    before - entries.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(values: &[f32]) -> Arc<Vector> {
        // Unit-normalize so cosine is a plain dot product.
        let norm = values.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-9);
        Arc::new(Vector(values.iter().map(|v| v / norm).collect()))
    }

    fn cache(floor: f32) -> SemanticCache<String> {
        SemanticCache::new(&Registry::new(), SemanticConfig { floor, capacity: 4 })
    }

    #[test]
    fn neighbor_above_the_floor_hits() {
        let c = cache(0.9);
        c.insert(
            100,
            1,
            "how many drops",
            vec_of(&[1.0, 0.1, 0.0]),
            "A".into(),
        );
        match c.probe(100, 1, &vec_of(&[1.0, 0.12, 0.0])) {
            Probe::Hit {
                value,
                neighbor,
                similarity,
            } => {
                assert_eq!(value, "A");
                assert_eq!(neighbor, "how many drops");
                assert!(similarity >= 0.9);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn below_the_floor_is_rejected_never_served() {
        let c = cache(0.95);
        c.insert(100, 1, "k", vec_of(&[1.0, 0.0, 0.0]), "A".into());
        match c.probe(100, 1, &vec_of(&[0.5, 1.0, 0.0])) {
            Probe::Reject { similarity } => assert!(similarity < 0.95),
            other => panic!("expected reject, got {other:?}"),
        }
        assert_eq!(c.stats().rejects, 1);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn probe_similarity_is_bit_equal_to_cosine_even_after_a_refresh() {
        // Unnormalized on purpose: a norm left over from the vector a
        // key was first inserted with would scale the similarity.
        let c = cache(0.5);
        let first = Arc::new(Vector(vec![3.0, 0.0, 0.0]));
        let second = Arc::new(Vector(vec![0.0, 0.5, 0.5]));
        let query = Vector(vec![0.1, 0.7, 0.6]);
        c.insert(100, 1, "k", first, "A".into());
        c.insert(100, 1, "k", Arc::clone(&second), "B".into());
        match c.probe(100, 1, &query) {
            Probe::Hit {
                value, similarity, ..
            } => {
                assert_eq!(value, "B");
                assert_eq!(
                    similarity.to_bits(),
                    dio_embed::cosine(&second, &query).to_bits()
                );
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn different_timestamp_is_a_miss() {
        let c = cache(0.5);
        c.insert(100, 1, "k", vec_of(&[1.0, 0.0, 0.0]), "A".into());
        assert_eq!(c.probe(200, 1, &vec_of(&[1.0, 0.0, 0.0])), Probe::Miss);
    }

    #[test]
    fn generation_bump_invalidates_atomically() {
        let c = cache(0.5);
        c.insert(100, 1, "k", vec_of(&[1.0, 0.0, 0.0]), "A".into());
        // Same vector, new generation: the stale entry must not serve.
        assert_eq!(c.probe(100, 2, &vec_of(&[1.0, 0.0, 0.0])), Probe::Miss);
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let c = cache(0.99);
        for i in 0..4 {
            let mut v = vec![0.0; 5];
            v[i] = 1.0;
            c.insert(100, 1, &format!("k{i}"), vec_of(&v), format!("v{i}"));
        }
        // Touch k0 so k1 becomes the LRU.
        let _ = c.probe(100, 1, &vec_of(&[1.0, 0.0, 0.0, 0.0, 0.0]));
        let mut v4 = vec![0.0; 5];
        v4[4] = 1.0;
        c.insert(100, 1, "k4", vec_of(&v4), "v4".into());
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats().evictions, 1);
        // k1's direction no longer hits.
        let probe = c.probe(100, 1, &vec_of(&[0.0, 1.0, 0.0, 0.0, 0.0]));
        assert!(!matches!(probe, Probe::Hit { .. }), "{probe:?}");
    }

    #[test]
    fn registry_counts_every_event() {
        let registry = Registry::new();
        let c: SemanticCache<String> = SemanticCache::new(&registry, SemanticConfig::default());
        c.insert(1, 1, "k", vec_of(&[1.0, 0.0]), "A".into());
        let _ = c.probe(1, 1, &vec_of(&[1.0, 0.0])); // hit
        let _ = c.probe(1, 1, &vec_of(&[0.0, 1.0])); // reject
        let _ = c.probe(2, 1, &vec_of(&[1.0, 0.0])); // miss
        let snap = registry.snapshot();
        assert_eq!(snap.total(EVENTS_NAME), 3.0);
        let stats = c.stats();
        assert_eq!((stats.hits, stats.rejects, stats.misses), (1, 1, 1));
    }
}
