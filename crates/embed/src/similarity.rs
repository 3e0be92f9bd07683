//! Vector similarity measures and top-k helpers.
//!
//! Everything here works on `&[f32]`; a [`crate::Vector`] derefs to its slice,
//! so owned vectors and rows of a contiguous matrix share one kernel.

/// Independent partial sums kept by [`dot`].
const LANES: usize = 8;

/// Dot product. Panics if dimensions differ.
///
/// The one kernel every similarity in the workspace goes through:
/// `LANES` independent accumulators over lane-sized chunks, a fixed
/// pairwise reduction, then a scalar tail. The lane count and the
/// reduction order are constants rather than CPU-dispatched, so the
/// result is the same bits on every host, and the independent lanes
/// let the compiler vectorise what a single running sum serialises.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector dimension mismatch");
    let mut acc = [0.0f32; LANES];
    let mut xs = a.chunks_exact(LANES);
    let mut ys = b.chunks_exact(LANES);
    for (x, y) in (&mut xs).zip(&mut ys) {
        for lane in 0..LANES {
            acc[lane] += x[lane] * y[lane];
        }
    }
    let mut sum = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    for (x, y) in xs.remainder().iter().zip(ys.remainder()) {
        sum += x * y;
    }
    sum
}

/// Euclidean (L2) norm.
pub(crate) fn norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Cosine similarity in `[-1, 1]`. Zero vectors yield 0.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_with_norms(a, norm(a), b, norm(b))
}

/// [`cosine`] for callers that cached `norm(a)` and `norm(b)`: the same
/// arithmetic, so the result is bit-equal to `cosine(a, b)`.
pub fn cosine_with_norms(a: &[f32], norm_a: f32, b: &[f32], norm_b: f32) -> f32 {
    let dot = dot(a, b);
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    (dot / (norm_a * norm_b)).clamp(-1.0, 1.0)
}

/// One scored search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Scored {
    /// Index of the hit in the searched collection.
    pub index: usize,
    /// Similarity score (higher is closer).
    pub score: f32,
}

/// Top-k by a caller-provided scoring function, sorted by descending
/// score (ties broken by ascending index); NaN scores are dropped.
/// `score_fn` is called once per index, in ascending order, unless
/// `k == 0`. Panics when `n` exceeds `2^32`.
///
/// Each score is packed with its index into one `u64` whose order is
/// the result's: the high half is an order-preserving image of
/// `score + 0.0` (the addition folds `-0.0` into `+0.0`, which compare
/// equal), the low half `!index`, so on equal scores the lower index is
/// the larger key. Keys are unique, so selecting the `k` largest and
/// sorting them is exactly the order a heap with that comparator keeps.
/// The score rides beside its key, so a hit keeps its own bits (a
/// `-0.0` comes back `-0.0`), and the pairs are the size of a
/// [`Scored`], so the result is collected in their buffer.
pub fn top_k_by<F>(n: usize, k: usize, mut score_fn: F) -> Vec<Scored>
where
    F: FnMut(usize) -> f32,
{
    if k == 0 {
        return Vec::new();
    }
    assert!(
        n.saturating_sub(1) <= u32::MAX as usize,
        "top_k_by ranks at most 2^32 scores"
    );
    let descending = |a: &(u64, f32), b: &(u64, f32)| b.0.cmp(&a.0);
    // Room for `2k` pairs, not one per index: a caller that scores most
    // indices NaN packs a few dozen. A full buffer keeps its `k` largest,
    // the only ones that can still make the cut.
    let room = n.min(k.saturating_mul(2));
    let mut keyed: Vec<(u64, f32)> = Vec::with_capacity(room);
    for index in 0..n {
        let score = score_fn(index);
        if score.is_nan() {
            continue;
        }
        if keyed.len() == room {
            keyed.select_nth_unstable_by(k - 1, descending);
            keyed.truncate(k);
        }
        let key = u64::from(order_key(score + 0.0)) << 32 | u64::from(!(index as u32));
        keyed.push((key, score));
    }
    if keyed.len() > k {
        keyed.select_nth_unstable_by(k - 1, descending);
        keyed.truncate(k);
    }
    keyed.sort_unstable_by(descending);
    keyed
        .into_iter()
        .map(|(key, score)| Scored {
            index: !(key as u32) as usize,
            score,
        })
        .collect()
}

/// The bits of a non-NaN `f32` as a `u32` in the same order: positives
/// above negatives, and a negative's magnitude bits reversed.
fn order_key(score: f32) -> u32 {
    let bits = score.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Vector;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    fn v(x: &[f32]) -> Vector {
        Vector(x.to_vec())
    }

    // Min-heap entry so the heap root is always the *worst* kept hit.
    #[derive(PartialEq)]
    struct HeapItem(Scored);

    impl Eq for HeapItem {}

    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse on score: BinaryHeap is a max-heap, we want min-on-score.
            other
                .0
                .score
                .partial_cmp(&self.0.score)
                .unwrap_or(Ordering::Equal)
                // Tie-break: on equal scores the *highest* index is the
                // greatest heap element, so it is evicted first and the
                // earliest indices are kept deterministically.
                .then_with(|| self.0.index.cmp(&other.0.index))
        }
    }

    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The bounded heap [`top_k_by`] selected with before scores were
    /// packed into keys: `O(n log k)`, the oracle for the selection.
    fn heap_top_k_by(n: usize, k: usize, mut score_fn: impl FnMut(usize) -> f32) -> Vec<Scored> {
        if k == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(k);
        for index in 0..n {
            let score = score_fn(index);
            if score.is_nan() {
                continue;
            }
            if heap.len() < k {
                heap.push(HeapItem(Scored { index, score }));
            } else if let Some(mut worst) = heap.peek_mut() {
                // `index` is higher than every kept one, so a tie loses.
                if score > worst.0.score {
                    *worst = HeapItem(Scored { index, score });
                }
            }
        }
        let mut out: Vec<Scored> = heap.into_iter().map(|h| h.0).collect();
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.index.cmp(&b.index))
        });
        out
    }

    fn index_and_bits(hits: &[Scored]) -> Vec<(usize, u32)> {
        hits.iter().map(|s| (s.index, s.score.to_bits())).collect()
    }

    /// [`top_k_by`] over cosine similarity to `query`.
    fn top_k_cosine(query: &[f32], candidates: &[Vector], k: usize) -> Vec<Scored> {
        top_k_by(candidates.len(), k, |i| cosine(query, &candidates[i]))
    }

    /// A unit vector of `dims` components drawn from `raw` (cycled).
    fn unit(raw: &[f32], dims: usize, phase: usize) -> Vector {
        Vector((0..dims).map(|i| raw[(i + phase) % raw.len()]).collect()).normalized()
    }

    proptest! {
        /// Chunked body, scalar tail and both together (dims below, at
        /// and above one lane chunk) against an `f64` reference.
        #[test]
        fn dot_matches_f64_reference_on_unit_vectors(
            raw in prop::collection::vec(-1.0f32..1.0, 16..64),
            phase in 1usize..16,
        ) {
            for dims in [1usize, 7, 8, 9, 384, 385] {
                let (a, b) = (unit(&raw, dims, 0), unit(&raw, dims, phase));
                let reference: f64 = a.iter().zip(b.iter()).map(|(x, y)| f64::from(*x) * f64::from(*y)).sum();
                let got = dot(&a, &b);
                prop_assert!(
                    (f64::from(got) - reference).abs() <= 1e-5,
                    "dims {}: dot {} vs f64 reference {}", dims, got, reference
                );
                prop_assert_eq!(got.to_bits(), dot(&b, &a).to_bits());
            }
        }

        /// Cached norms change where the norms come from, not one bit
        /// of the result.
        #[test]
        fn cosine_with_cached_norms_is_bit_equal_to_cosine(
            raw in prop::collection::vec(-4.0f32..4.0, 16..64),
            phase in 1usize..16,
            dims in prop::sample::select(vec![1usize, 7, 8, 9, 384, 385]),
        ) {
            let a = Vector((0..dims).map(|i| raw[i % raw.len()]).collect());
            let b = Vector((0..dims).map(|i| raw[(i + phase) % raw.len()]).collect());
            let cached = cosine_with_norms(&a, a.norm(), &b, b.norm());
            prop_assert_eq!(cached.to_bits(), cosine(&a, &b).to_bits());
            prop_assert!((-1.0..=1.0).contains(&cached));
        }

        /// Skipping candidates that cannot beat the worst kept hit
        /// keeps exactly what a full stable sort keeps, ties included.
        #[test]
        fn top_k_by_matches_a_full_stable_sort(
            scores in prop::collection::vec(prop::sample::select(vec![-1.0f32, -0.0, 0.0, 0.25, 0.5, 0.5, 1.0, f32::NAN]), 0..40),
            k in 0usize..12,
        ) {
            let mut want: Vec<(usize, f32)> = scores.iter().copied().enumerate().filter(|(_, s)| !s.is_nan()).collect();
            want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            want.truncate(k);
            let got: Vec<(usize, f32)> = top_k_by(scores.len(), k, |i| scores[i])
                .into_iter()
                .map(|s| (s.index, s.score))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        /// The packed-key selection keeps what the heap keeps, in its
        /// order and with each score's own bits: scores clustered on a
        /// few values so that most of them tie, both zeros, NaN, and
        /// `k` at none, one, all but one, all and more than all.
        #[test]
        fn top_k_by_selection_is_the_heap_bit_for_bit(
            seed in any::<u64>(),
            n in 0usize..4_000,
            values in prop::collection::vec(
                prop::sample::select(vec![-1.0f32, -0.5, -0.0, 0.0, 1e-30, 0.25, 0.5, 1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]),
                1..6,
            ),
            k_shape in 0usize..6,
        ) {
            let mut rng = proptest::strategy::TestRng::new(seed);
            let scores: Vec<f32> = (0..n).map(|_| values[rng.below(values.len())]).collect();
            let k = [0, 1, n.saturating_sub(1), n, n + 3, rng.below(n + 1)][k_shape];
            let mut called = Vec::new();
            let got = top_k_by(n, k, |i| {
                called.push(i);
                scores[i]
            });
            prop_assert_eq!(called, if k == 0 { vec![] } else { (0..n).collect::<Vec<_>>() });
            prop_assert_eq!(index_and_bits(&got), index_and_bits(&heap_top_k_by(n, k, |i| scores[i])));
        }
    }

    #[test]
    fn top_k_by_keeps_the_sign_of_a_zero_score() {
        let scores = [0.0f32, -0.0, f32::NAN, -0.0, 0.5];
        let got = top_k_by(scores.len(), 3, |i| scores[i]);
        assert_eq!(
            index_and_bits(&got),
            vec![(4, 0.5f32.to_bits()), (0, 0), (1, (-0.0f32).to_bits())]
        );
    }

    #[test]
    fn cosine_of_identical_is_one() {
        let a = v(&[1.0, 2.0, 3.0]);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        assert!(cosine(&v(&[1.0, 0.0]), &v(&[0.0, 1.0])).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_is_minus_one() {
        assert!((cosine(&v(&[1.0, 1.0]), &v(&[-1.0, -1.0])) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_with_zero_vector_is_zero() {
        assert_eq!(cosine(&v(&[0.0, 0.0]), &v(&[1.0, 2.0])), 0.0);
    }

    #[test]
    fn top_k_returns_sorted_best() {
        let cands = vec![
            v(&[1.0, 0.0]),
            v(&[0.9, 0.1]),
            v(&[0.0, 1.0]),
            v(&[-1.0, 0.0]),
        ];
        let hits = top_k_cosine(&v(&[1.0, 0.0]), &cands, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[1].index, 1);
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn top_k_zero_is_empty() {
        assert!(top_k_cosine(&v(&[1.0]), &[v(&[1.0])], 0).is_empty());
    }

    #[test]
    fn top_k_larger_than_n_returns_all() {
        let cands = vec![v(&[1.0, 0.0]), v(&[0.0, 1.0])];
        let hits = top_k_cosine(&v(&[1.0, 1.0]), &cands, 10);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn top_k_ties_break_by_index() {
        let cands = vec![v(&[1.0, 0.0]), v(&[1.0, 0.0]), v(&[1.0, 0.0])];
        let hits = top_k_cosine(&v(&[1.0, 0.0]), &cands, 2);
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[1].index, 1);
    }
}
