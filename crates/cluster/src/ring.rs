//! Consistent-hash ring over shards.
//!
//! Metric families are placed on shards by hashing each shard's
//! virtual nodes onto a `u64` ring and assigning a key to the first
//! vnode point at or after the key's hash (wrapping). With 64 vnodes
//! per shard the load spread stays within a small factor of uniform,
//! and adding one shard only moves the keys that land on that shard's
//! vnode arcs, roughly `1/N` of the keyspace, while every other key
//! keeps its owner.

/// FNV-1a over bytes, finished with a splitmix64 avalanche so nearby
/// keys (`cpu#0`, `cpu#1`, …) scatter across the whole ring instead of
/// clustering.
fn hash_key(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // splitmix64 finalizer
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of one shard vnode: the shard id and vnode index are folded
/// into the key bytes so each (shard, vnode) pair gets its own point.
fn vnode_point(shard: usize, vnode: usize) -> u64 {
    let mut bytes = Vec::with_capacity(20);
    bytes.extend_from_slice(b"shard:");
    bytes.extend_from_slice(&(shard as u64).to_le_bytes());
    bytes.extend_from_slice(&(vnode as u64).to_le_bytes());
    hash_key(&bytes)
}

/// A consistent-hash ring mapping string keys to shard ids.
#[derive(Debug, Clone)]
pub(crate) struct HashRing {
    /// Sorted (point, shard) pairs.
    points: Vec<(u64, usize)>,
    /// Next id to hand out from [`HashRing::add_shard`].
    next_id: usize,
}

/// Virtual nodes per shard.
const VNODES: usize = 64;

impl HashRing {
    /// Ring over shards `0..shards`, [`VNODES`] points per shard.
    pub(crate) fn new(shards: usize) -> Self {
        assert!(shards > 0, "ring needs at least one shard");
        let mut ring = HashRing {
            points: Vec::with_capacity(shards * VNODES),
            next_id: 0,
        };
        for _ in 0..shards {
            ring.add_shard();
        }
        ring
    }

    /// The shard owning `key`: the first vnode point at or after
    /// `hash(key)`, wrapping past the top of the ring.
    pub(crate) fn owner(&self, key: &str) -> usize {
        assert!(!self.points.is_empty(), "owner() on an empty ring");
        let h = hash_key(key.as_bytes());
        let idx = self.points.partition_point(|(p, _)| *p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }

    /// Add a shard, returning its id. Only keys whose arcs the new
    /// shard's vnodes capture move — everything else keeps its owner.
    fn add_shard(&mut self) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        for v in 0..VNODES {
            let point = (vnode_point(id, v), id);
            let at = self.points.partition_point(|p| *p < point);
            self.points.insert(at, point);
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("metric_family_{i}")).collect()
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(1);
        for k in keys(64) {
            assert_eq!(ring.owner(&k), 0);
        }
    }

    #[test]
    fn ownership_is_deterministic() {
        let a = HashRing::new(5);
        let b = HashRing::new(5);
        for k in keys(128) {
            assert_eq!(a.owner(&k), b.owner(&k));
        }
    }

    proptest! {
        /// Satellite: key distribution stays within a balance bound for
        /// every cluster size from 1 to 16 nodes.
        #[test]
        fn balance_bound_holds_for_1_to_16_shards(shards in 1usize..17, salt in 0u64..1000) {
            let ring = HashRing::new(shards);
            let ks: Vec<String> = (0..1024).map(|i| format!("fam_{salt}_{i}")).collect();
            let mut counts = vec![0usize; ring.next_id];
            for k in &ks {
                counts[ring.owner(k)] += 1;
            }
            let mean = ks.len() as f64 / shards as f64;
            for (shard, count) in counts.iter().enumerate() {
                // 64 vnodes keeps the spread comfortably under 3x mean;
                // the +8 absorbs small-sample noise at 16 shards.
                prop_assert!(
                    (*count as f64) <= 3.0 * mean + 8.0,
                    "shard {shard} owns {count} of {} keys (mean {mean:.1})",
                    ks.len()
                );
            }
        }

        /// Satellite: adding one shard moves only keys that move TO the
        /// new shard (exact minimal movement), and the moved fraction is
        /// about 1/N of the keyspace.
        #[test]
        fn adding_a_shard_moves_about_one_nth_to_it(shards in 1usize..16, salt in 0u64..1000) {
            let ks: Vec<String> = (0..1024).map(|i| format!("fam_{salt}_{i}")).collect();
            let mut ring = HashRing::new(shards);
            let before: Vec<usize> = ks.iter().map(|k| ring.owner(k)).collect();
            let new_id = ring.add_shard();
            let mut moved = 0usize;
            for (k, old) in ks.iter().zip(&before) {
                let now = ring.owner(k);
                if now != *old {
                    prop_assert_eq!(now, new_id, "key {} moved to a shard other than the new one", k);
                    moved += 1;
                }
            }
            let expected = ks.len() as f64 / (shards + 1) as f64;
            prop_assert!(
                (moved as f64) <= 2.5 * expected + 16.0,
                "adding shard {new_id} moved {moved} keys, expected about {expected:.0}"
            );
            prop_assert!(moved > 0, "adding a shard captured no keys");
        }
    }
}
