//! Signed feature hashing (the "hashing trick").
//!
//! Each feature is mapped to a bucket in `[0, dims)` plus a sign in
//! `{-1, +1}` using two independent FNV-1a derived hashes. Collisions are
//! unbiased in expectation because of the sign hash, which is what makes
//! hashed bag-of-features a usable embedding substrate.
//!
//! Features are hashed as streamed parts — namespace prefix (`w:`, `b:`,
//! `c:`), bytes, a bigram's `_` and its second word — fed to both FNV-1a
//! states in one pass, which is exactly the hash of their concatenation.

const PRIME: u64 = 0x0000_0100_0000_01b3;
const SIGN_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// One feature being hashed: the bucket stream (`seed`) and the
/// independent sign stream (`seed ^ SIGN_SALT`), so that two features
/// colliding on the bucket still carry independent signs. FNV-1a is not
/// cryptographic, but tiny, stable across platforms and deterministic.
#[derive(Clone, Copy)]
pub(crate) struct FeatureHash {
    bucket: u64,
    sign: u64,
}

impl FeatureHash {
    /// A feature with no bytes yet.
    pub(crate) fn new(seed: u64) -> Self {
        let start = |seed: u64| 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(PRIME);
        FeatureHash {
            bucket: start(seed),
            sign: start(seed ^ SIGN_SALT),
        }
    }

    /// The feature extended by its next part.
    pub(crate) fn with(mut self, part: &str) -> Self {
        for b in part.bytes() {
            self.bucket = (self.bucket ^ b as u64).wrapping_mul(PRIME);
            self.sign = (self.sign ^ b as u64).wrapping_mul(PRIME);
        }
        self
    }

    /// Add `weight`, signed, to the feature's bucket of `out`.
    pub(crate) fn add(self, weight: f32, out: &mut [f32]) {
        let bucket = (avalanche(self.bucket) % out.len() as u64) as usize;
        let sign = [1.0, -1.0][(avalanche(self.sign) & 1) as usize];
        out[bucket] += sign * weight;
    }
}

/// Final avalanche (xorshift-multiply) to decorrelate low bits.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// The string-at-a-time hashing the embedder used before features were
/// streamed: the oracle the streamed hash is held to.
#[cfg(test)]
pub(crate) mod oracle {
    /// 64-bit FNV-1a hash of `bytes` seeded with `seed`.
    pub(crate) fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET ^ seed.wrapping_mul(PRIME);
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        // Final avalanche (xorshift-multiply) to decorrelate low bits.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }

    /// Bucket index and sign for a feature string.
    pub(crate) fn feature_slot(feature: &str, dims: usize, seed: u64) -> (usize, f32) {
        let bucket = (fnv1a64(feature.as_bytes(), seed) % dims as u64) as usize;
        let sign = if fnv1a64(feature.as_bytes(), seed ^ 0x9e37_79b9_7f4a_7c15) & 1 == 0 {
            1.0
        } else {
            -1.0
        };
        (bucket, sign)
    }

    /// Accumulate a weighted feature into a dense vector.
    pub(crate) fn accumulate(feature: &str, weight: f32, out: &mut [f32], seed: u64) {
        let (bucket, sign) = feature_slot(feature, out.len(), seed);
        out[bucket] += sign * weight;
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{feature_slot, fnv1a64};
    use super::*;
    use proptest::prelude::*;

    /// Bucket and sign of a one-part feature, read back from the one
    /// component the streamed hasher's `add` wrote.
    fn slot(feature: &str, dims: usize, seed: u64) -> (usize, f32) {
        let mut v = vec![0.0f32; dims];
        FeatureHash::new(seed).with(feature).add(1.0, &mut v);
        let bucket = v.iter().position(|x| *x != 0.0).unwrap();
        (bucket, v[bucket])
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(fnv1a64(b"auth", 7), fnv1a64(b"auth", 7));
        assert_ne!(fnv1a64(b"auth", 7), fnv1a64(b"auth", 8));
        assert_ne!(fnv1a64(b"auth", 7), fnv1a64(b"atuh", 7));
        let h = |s: &str, seed| avalanche(FeatureHash::new(seed).with(s).bucket);
        assert_eq!(h("auth", 7), h("auth", 7));
        assert_ne!(h("auth", 7), h("auth", 8));
        assert_ne!(h("auth", 7), h("atuh", 7));
    }

    #[test]
    fn slots_stay_in_range() {
        for i in 0..1000 {
            let (b, s) = slot(&format!("feat{i}"), 384, 42);
            assert!(b < 384);
            assert!(s == 1.0 || s == -1.0);
        }
    }

    #[test]
    fn signs_are_roughly_balanced() {
        let pos = (0..10_000)
            .filter(|i| slot(&format!("w{i}"), 384, 1).1 > 0.0)
            .count();
        assert!((4_000..=6_000).contains(&pos), "sign skew: {pos}");
    }

    #[test]
    fn buckets_are_roughly_uniform() {
        let dims = 64;
        let mut counts = vec![0usize; dims];
        for i in 0..64_000 {
            counts[slot(&format!("tok{i}"), dims, 3).0] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        // Expected 1000 per bucket; allow generous slack.
        assert!(min > 700 && max < 1300, "min={min} max={max}");
    }

    #[test]
    fn accumulate_adds_signed_weight() {
        let mut v = vec![0.0f32; 16];
        FeatureHash::new(0).with("x").add(2.0, &mut v);
        let nonzero: Vec<f32> = v.iter().copied().filter(|x| *x != 0.0).collect();
        assert_eq!(nonzero.len(), 1);
        assert!(nonzero[0] == 2.0 || nonzero[0] == -2.0);
    }

    proptest! {
        #[test]
        fn streamed_parts_hash_as_their_concatenation(
            parts in prop::collection::vec("[a-z0-9_:<>Σİßœ€]{0,9}", 0..5),
            seed in any::<u64>(),
            dims in 1usize..1000,
        ) {
            let whole: String = parts.concat();
            let streamed = parts.iter().fold(FeatureHash::new(seed), |h, p| h.with(p));
            prop_assert_eq!(avalanche(streamed.bucket), fnv1a64(whole.as_bytes(), seed));
            prop_assert_eq!(avalanche(streamed.sign), fnv1a64(whole.as_bytes(), seed ^ SIGN_SALT));
            let mut v = vec![0.0f32; dims];
            streamed.add(1.0, &mut v);
            let (bucket, sign) = feature_slot(&whole, dims, seed);
            prop_assert_eq!(v[bucket], sign);
        }
    }
}
