//! Signed feature hashing (the "hashing trick").
//!
//! Each string feature is mapped to a bucket in `[0, dims)` plus a sign in
//! `{-1, +1}` using two independent FNV-1a derived hashes. Collisions are
//! unbiased in expectation because of the sign hash, which is what makes
//! hashed bag-of-features a usable embedding substrate.

/// 64-bit FNV-1a hash of `bytes` seeded with `seed`.
///
/// FNV-1a is not cryptographic; it is chosen here because it is tiny,
/// allocation-free, stable across platforms, and fully deterministic —
/// the properties the reproduction needs.
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
///
/// The bucket comes from one hash stream (`seed`), the sign from an
/// independent stream (`seed + 1`), so that two features colliding on the
/// bucket still carry independent signs.
pub(crate) fn feature_slot(feature: &str, dims: usize, seed: u64) -> (usize, f32) {
    debug_assert!(dims > 0);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(fnv1a64(b"auth", 7), fnv1a64(b"auth", 7));
        assert_ne!(fnv1a64(b"auth", 7), fnv1a64(b"auth", 8));
        assert_ne!(fnv1a64(b"auth", 7), fnv1a64(b"atuh", 7));
    }

    #[test]
    fn slots_stay_in_range() {
        for i in 0..1000 {
            let (b, s) = feature_slot(&format!("feat{i}"), 384, 42);
            assert!(b < 384);
            assert!(s == 1.0 || s == -1.0);
        }
    }

    #[test]
    fn signs_are_roughly_balanced() {
        let pos = (0..10_000)
            .filter(|i| feature_slot(&format!("w{i}"), 384, 1).1 > 0.0)
            .count();
        assert!((4_000..=6_000).contains(&pos), "sign skew: {pos}");
    }

    #[test]
    fn buckets_are_roughly_uniform() {
        let dims = 64;
        let mut counts = vec![0usize; dims];
        for i in 0..64_000 {
            counts[feature_slot(&format!("tok{i}"), dims, 3).0] += 1;
        }
        let (min, max) = (
            *counts.iter().min().unwrap(),
            *counts.iter().max().unwrap(),
        );
        // Expected 1000 per bucket; allow generous slack.
        assert!(min > 700 && max < 1300, "min={min} max={max}");
    }

    #[test]
    fn accumulate_adds_signed_weight() {
        let mut v = vec![0.0f32; 16];
        accumulate("x", 2.0, &mut v, 0);
        let nonzero: Vec<f32> = v.iter().copied().filter(|x| *x != 0.0).collect();
        assert_eq!(nonzero.len(), 1);
        assert!(nonzero[0] == 2.0 || nonzero[0] == -2.0);
    }
}
