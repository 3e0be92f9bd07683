//! Deterministic degradation.
//!
//! The paper sets temperature to 0 "for repeatable answers to the same
//! query" — the model is deterministic but still fallible. We model
//! fallibility as a pure hash of the decision context (question, model
//! name, decision site): the same question through the same model always
//! fails the same way, and aggregate failure frequency across a
//! benchmark approaches the configured rate.

/// A uniform value in `[0, 1)` derived from the given context strings.
pub(crate) fn hash01(parts: &[&str]) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff; // separator so ["ab","c"] != ["a","bc"]
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// True with probability `p`, deterministically from context.
pub(crate) fn coin(parts: &[&str], p: f64) -> bool {
    hash01(parts) < p
}

/// Pick an index in `[0, n)` deterministically from context.
pub(crate) fn pick(parts: &[&str], n: usize) -> usize {
    debug_assert!(n > 0);
    (hash01(parts) * n as f64) as usize % n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash01(&["q", "m"]), hash01(&["q", "m"]));
        assert_ne!(hash01(&["q", "m"]), hash01(&["q", "n"]));
    }

    #[test]
    fn separator_prevents_concat_collisions() {
        assert_ne!(hash01(&["ab", "c"]), hash01(&["a", "bc"]));
    }

    #[test]
    fn range_and_distribution() {
        let mut below = 0;
        for i in 0..10_000 {
            let s = format!("ctx{i}");
            let v = hash01(&[&s]);
            assert!((0.0..1.0).contains(&v));
            if v < 0.3 {
                below += 1;
            }
        }
        // 30% ± generous slack.
        assert!((2_500..=3_500).contains(&below), "got {below}");
    }

    #[test]
    fn coin_matches_rate() {
        let hits = (0..10_000)
            .filter(|i| {
                let s = format!("c{i}");
                coin(&[&s], 0.1)
            })
            .count();
        assert!((700..=1_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn pick_in_range() {
        for i in 0..100 {
            let s = format!("p{i}");
            assert!(pick(&[&s], 7) < 7);
        }
    }
}
