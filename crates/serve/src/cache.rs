//! The serving caches: a generation-stamped LRU.
//!
//! Two instances back the service (see `service.rs`):
//!
//! * the **answer cache**, keyed on `(eval_ts, normalized question)`,
//!   holding full [`dio_copilot::CopilotResponse`]s;
//! * the **embedding cache**, keyed on the normalized question alone,
//!   holding the question's embedding vector.
//!
//! Both are invalidated by the copilot's *knowledge generation*: every
//! resolved issue publishes knowledge one generation on, each job stamps
//! and probes with the generation of the knowledge it loaded, and
//! entries stamped with another generation are treated as misses and
//! dropped on next access (the catalog text, few-shot pool, and
//! embedder fit all changed under them).
//!
//! Every cache event (hit, miss, eviction, generation invalidation) is
//! counted in `dio_serve_cache_events_total` in the shared dio-obs
//! registry.

use dio_obs::{Counter, Registry};
use std::collections::HashMap;
use std::sync::Mutex;

/// Per-cache event counters, registered under
/// `dio_serve_cache_events_total{cache=<name>,event=...}`.
#[derive(Debug, Clone)]
struct CacheCounters {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
}

impl CacheCounters {
    fn register(registry: &Registry, cache: &str) -> Self {
        let counter = |event: &str| {
            registry.counter_with(
                "dio_serve_cache_events_total",
                "serving-cache events by cache and kind",
                &[("cache", cache), ("event", event)],
            )
        };
        CacheCounters {
            hits: counter("hit"),
            misses: counter("miss"),
            evictions: counter("evict"),
            invalidations: counter("invalidate"),
        }
    }
}

/// A point-in-time summary of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CacheStats {
    /// Lookups that returned a live entry.
    pub hits: u64,
    /// Lookups that found nothing usable (includes invalidated
    /// entries, which also bump their own counter).
    pub misses: u64,
    /// Entries dropped to make room (LRU).
    pub evictions: u64,
    /// Entries dropped because the knowledge generation moved.
    pub invalidations: u64,
    /// Entries currently resident.
    pub len: usize,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    generation: u64,
    last_used: u64,
}

#[derive(Debug)]
struct Inner<V> {
    map: HashMap<String, Entry<V>>,
    /// Monotonic access clock for LRU ordering (not wall time).
    clock: u64,
}

/// A bounded, thread-safe LRU with generation invalidation.
///
/// All methods take `&self`; a single mutex guards the map. Lookups
/// clone the value out, so `V` is typically an `Arc` or a cheap
/// aggregate. Capacity 0 disables caching entirely (every lookup is a
/// miss, inserts are dropped) — useful for A/B-ing the cache away.
#[derive(Debug)]
pub(crate) struct GenLru<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    counters: CacheCounters,
}

impl<V: Clone> GenLru<V> {
    /// Build a cache registering its counters as `cache=<name>`.
    pub(crate) fn new(registry: &Registry, name: &str, capacity: usize) -> Self {
        GenLru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity,
            counters: CacheCounters::register(registry, name),
        }
    }

    /// Look up `key`, requiring the entry to carry `generation`.
    pub(crate) fn get(&self, key: &str, generation: u64) -> Option<V> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(e) if e.generation == generation => {
                e.last_used = clock;
                self.counters.hits.inc();
                Some(e.value.clone())
            }
            Some(_) => {
                inner.map.remove(key);
                self.counters.invalidations.inc();
                self.counters.misses.inc();
                None
            }
            None => {
                self.counters.misses.inc();
                None
            }
        }
    }

    /// Insert (or replace) `key`, stamped with `generation`.
    pub(crate) fn insert(&self, key: String, value: V, generation: u64) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        let replacing = inner.map.contains_key(&key);
        if !replacing && inner.map.len() >= self.capacity {
            // Evict the least-recently-used entry. Linear scan: serving
            // caches are small (hundreds to a few thousand entries) and
            // eviction is off the hit path.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                self.counters.evictions.inc();
            }
        }
        inner.map.insert(
            key,
            Entry {
                value,
                generation,
                last_used: clock,
            },
        );
    }

    /// Entries currently resident.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Snapshot the counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.value() as u64,
            misses: self.counters.misses.value() as u64,
            evictions: self.counters.evictions.value() as u64,
            invalidations: self.counters.invalidations.value() as u64,
            len: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> GenLru<String> {
        GenLru::new(&Registry::new(), "test", capacity)
    }

    #[test]
    fn hit_after_insert_same_generation() {
        let c = cache(4);
        c.insert("k".into(), "v".into(), 0);
        assert_eq!(c.get("k", 0), Some("v".to_string()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
    }

    /// The one invalidation rule, on both of the service's instances
    /// (the answer cache and the embedding cache) in one registry.
    #[test]
    fn generation_bump_invalidates() {
        fn check<V: Clone + PartialEq + std::fmt::Debug>(c: &GenLru<V>, v: V) {
            c.insert("k".into(), v, 0);
            assert_eq!(c.get("k", 1), None);
            let s = c.stats();
            assert_eq!((s.hits, s.misses, s.invalidations), (0, 1, 1));
            // The stale entry is gone, not resurrected by asking for gen 0.
            assert_eq!(c.get("k", 0), None);
            assert_eq!(c.len(), 0);
        }
        let registry = Registry::new();
        check(&GenLru::new(&registry, "answer", 4), "v".to_string());
        check(
            &GenLru::new(&registry, "embed", 4),
            std::sync::Arc::new(dio_embed::Vector(vec![1.0, 0.0])),
        );
        // Four kinds of event per cache and no fifth: nothing expires.
        let family = registry.snapshot();
        let family = family.family("dio_serve_cache_events_total").unwrap();
        assert_eq!(family.series.len(), 8);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = cache(2);
        c.insert("a".into(), "1".into(), 0);
        c.insert("b".into(), "2".into(), 0);
        // Touch `a` so `b` becomes the victim.
        assert!(c.get("a", 0).is_some());
        c.insert("c".into(), "3".into(), 0);
        assert_eq!(c.len(), 2);
        assert!(c.get("a", 0).is_some());
        assert!(c.get("c", 0).is_some());
        assert_eq!(c.get("b", 0), None);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn replace_does_not_evict() {
        let c = cache(2);
        c.insert("a".into(), "1".into(), 0);
        c.insert("b".into(), "2".into(), 0);
        c.insert("a".into(), "1'".into(), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get("a", 0), Some("1'".into()));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = cache(0);
        c.insert("k".into(), "v".into(), 0);
        assert_eq!(c.get("k", 0), None);
        assert_eq!(c.len(), 0);
    }
}
