//! Decoded-chunk page cache.
//!
//! Sealed chunks are immutable, so a decoded chunk can be cached by
//! chunk id forever without invalidation. The cache holds decoded
//! columns behind `Arc` under a byte budget with LRU eviction (a
//! monotone tick per hit; the stalest entry is evicted first). One
//! cache is shared per [`MetricStore`](crate::MetricStore) clone
//! family, so the interpreter oracle and the vectorized engine warm it
//! for each other.

use crate::chunk::{Chunk, ChunkError, DecodedChunk};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default decoded-byte budget: 64 MiB ≈ 4M cached samples.
pub(crate) const DEFAULT_PAGE_CACHE_BYTES: usize = 64 * 1024 * 1024;

#[derive(Debug)]
struct Entry {
    decoded: Arc<DecodedChunk>,
    bytes: usize,
    tick: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    bytes: usize,
}

/// Hit/miss/eviction counters, for the bench harness and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageCacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that had to decode.
    pub misses: u64,
    /// Entries evicted to stay under budget.
    pub evictions: u64,
    /// Decoded bytes currently resident.
    pub resident_bytes: usize,
}

/// Byte-budgeted LRU cache of decoded chunks.
#[derive(Debug)]
pub struct PageCache {
    shard: Mutex<Shard>,
    budget: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PageCache {
    fn default() -> Self {
        PageCache::with_budget(DEFAULT_PAGE_CACHE_BYTES)
    }
}

impl PageCache {
    /// A cache with the default budget.
    pub fn new() -> Self {
        PageCache::default()
    }

    /// A cache bounded to `budget` decoded bytes.
    pub fn with_budget(budget: usize) -> Self {
        PageCache {
            shard: Mutex::new(Shard::default()),
            budget,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Decoded columns for `chunk`, from cache or by decoding now.
    pub fn get(&self, chunk: &Chunk) -> Result<Arc<DecodedChunk>, ChunkError> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = self.shard.lock().expect("page cache poisoned");
            if let Some(e) = shard.entries.get_mut(&chunk.id()) {
                e.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&e.decoded));
            }
        }
        // Decode outside the lock: decodes of distinct chunks proceed
        // in parallel and only the map insert serialises.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let decoded = Arc::new(chunk.decode()?);
        let bytes = decoded.byte_size();
        let mut guard = self.shard.lock().expect("page cache poisoned");
        let shard = &mut *guard;
        let out = if let Some(e) = shard.entries.get_mut(&chunk.id()) {
            // Raced with another decoder; keep theirs.
            e.tick = tick;
            Arc::clone(&e.decoded)
        } else {
            shard.bytes += bytes;
            shard.entries.insert(
                chunk.id(),
                Entry {
                    decoded: Arc::clone(&decoded),
                    bytes,
                    tick,
                },
            );
            decoded
        };
        // Evict stalest-first until back under budget (never the entry
        // just inserted — budget smaller than one chunk still serves).
        while shard.bytes > self.budget && shard.entries.len() > 1 {
            let Some((&victim, _)) = shard
                .entries
                .iter()
                .filter(|(&id, _)| id != chunk.id())
                .min_by_key(|(_, e)| e.tick)
            else {
                break;
            };
            if let Some(gone) = shard.entries.remove(&victim) {
                shard.bytes -= gone.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(out)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> PageCacheStats {
        let shard = self.shard.lock().expect("page cache poisoned");
        PageCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: shard.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Sample;

    fn chunk(base: i64, n: usize) -> Chunk {
        let samples: Vec<Sample> = (0..n)
            .map(|i| Sample::new(base + i as i64 * 1_000, i as f64))
            .collect();
        Chunk::seal(&samples)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = PageCache::new();
        let c = chunk(0, 100);
        let a = cache.get(&c).unwrap();
        let b = cache.get(&c).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.resident_bytes, a.byte_size());
    }

    #[test]
    fn budget_evicts_lru() {
        // Each chunk decodes to 100 * 16 = 1600 bytes; budget two.
        let cache = PageCache::with_budget(3_300);
        let c1 = chunk(0, 100);
        let c2 = chunk(1_000_000, 100);
        let c3 = chunk(2_000_000, 100);
        cache.get(&c1).unwrap();
        cache.get(&c2).unwrap();
        cache.get(&c1).unwrap(); // c1 fresher than c2
        cache.get(&c3).unwrap(); // evicts c2
        assert_eq!(cache.stats().evictions, 1);
        cache.get(&c1).unwrap();
        assert_eq!(cache.stats().hits, 2);
        cache.get(&c2).unwrap(); // miss again: was evicted
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn tiny_budget_still_serves() {
        let cache = PageCache::with_budget(1);
        let c = chunk(0, 50);
        let d = cache.get(&c).unwrap();
        assert_eq!(d.ts.len(), 50);
        // Entry stays resident (never evict the only entry)...
        assert_eq!(cache.stats().resident_bytes, d.byte_size());
        // ...until another chunk displaces it.
        let c2 = chunk(500_000, 50);
        cache.get(&c2).unwrap();
        assert_eq!(cache.stats().evictions, 1);
    }
}
