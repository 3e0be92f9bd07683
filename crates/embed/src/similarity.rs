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

/// [`dot`] of `query` with every row of a dimension-major matrix:
/// `out[d]` is bit-equal to `dot(query, row d)`, where component `j` of
/// row `d` is `columns[j * stride + d]` and every stored component is
/// finite.
///
/// Only the columns of `query`'s non-zero components are read. That is
/// `dot`'s arithmetic lane for lane — each lane receives the same
/// products in the same (ascending `j`) order, then the same pairwise
/// reduction and the same scalar tail — because a skipped term is
/// `0.0 × y = ±0` for every finite `y`, and adding `±0` leaves a
/// round-to-nearest sum unchanged unless that sum is `-0.0`. None is: a
/// lane starts at `+0.0`, `+0.0 + -0.0` is `+0.0` and a sum of
/// non-zero terms that cancels exactly is `+0.0`, so no lane, no
/// pairwise sum of lanes and no tail prefix is ever `-0.0`. (An
/// infinite `y` would make the skipped term NaN; whoever owns the
/// matrix keeps it finite.)
///
/// A lane's columns are folded into its running sums several at a
/// time ([`fold_columns`]): each sum is loaded once, receives up to
/// eight products in ascending `j`, and is stored once. The order in
/// which the products reach a sum is the same as one column at a time,
/// so grouping changes the number of loads and stores, not one bit.
pub fn dot_columns(query: &[f32], columns: &[f32], stride: usize, out: &mut [f32]) {
    let rows = out.len();
    assert!(rows <= stride, "more rows than the column stride");
    assert_eq!(columns.len(), query.len() * stride, "matrix shape mismatch");
    if rows == 0 {
        return;
    }
    let term = |j: usize| (query[j], &columns[j * stride..][..rows]);
    // A lane at a time rather than a column at a time: the lanes are
    // independent, and one lane's partial sums (4 bytes a row) stay in
    // the first-level cache while its columns stream past them.
    let body = query.len() - query.len() % LANES;
    let mut acc = vec![0.0f32; LANES * rows];
    for (lane, sums) in acc.chunks_exact_mut(rows).enumerate() {
        fold_columns(sums, (lane..body).step_by(LANES).map(term));
    }
    let acc: [&[f32]; LANES] = std::array::from_fn(|lane| &acc[lane * rows..][..rows]);
    for (d, sum) in out.iter_mut().enumerate() {
        *sum = ((acc[0][d] + acc[4][d]) + (acc[2][d] + acc[6][d]))
            + ((acc[1][d] + acc[5][d]) + (acc[3][d] + acc[7][d]));
    }
    fold_columns(out, (body..query.len()).map(term));
}

/// `sums += x · column` for every `(x, column)` with `x != 0`, in the
/// order given: eight columns to a pass over `sums`, the rest four and
/// then one to a pass. Each column is at least `sums.len()` long.
fn fold_columns<'a>(sums: &mut [f32], terms: impl Iterator<Item = (f32, &'a [f32])>) {
    let mut group = [(0.0, &[][..]); 8];
    let mut len = 0;
    for term in terms.filter(|(x, _)| *x != 0.0) {
        group[len] = term;
        len += 1;
        if len == group.len() {
            fold(sums, &group);
            len = 0;
        }
    }
    let (four, ones) = group[..len].split_at(if len >= 4 { 4 } else { 0 });
    if let [a, b, c, d] = four {
        fold(sums, &[*a, *b, *c, *d]);
    }
    for one in ones {
        fold(sums, &[*one]);
    }
}

/// One pass of [`fold_columns`]: `s = sums[d]; s += x0·c0[d]; …;
/// sums[d] = s`, the terms added in order.
fn fold<const N: usize>(sums: &mut [f32], terms: &[(f32, &[f32]); N]) {
    let rows = sums.len();
    let xs: [f32; N] = std::array::from_fn(|i| terms[i].0);
    let columns: [&[f32]; N] = std::array::from_fn(|i| &terms[i].1[..rows]);
    for (d, sum) in sums.iter_mut().enumerate() {
        let mut s = *sum;
        for i in 0..N {
            s += xs[i] * columns[i][d];
        }
        *sum = s;
    }
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
    cosine_of_dot(dot(a, b), norm_a, norm_b)
}

/// The last step of [`cosine_with_norms`], for callers that hold the
/// dot product already (a [`dot_columns`] scan).
pub fn cosine_of_dot(dot: f32, norm_a: f32, norm_b: f32) -> f32 {
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
    let mut keyed: Vec<(u64, f32)> = Vec::with_capacity(n);
    for index in 0..n {
        let score = score_fn(index);
        if !score.is_nan() {
            let key = u64::from(order_key(score + 0.0)) << 32 | u64::from(!(index as u32));
            keyed.push((key, score));
        }
    }
    let descending = |a: &(u64, f32), b: &(u64, f32)| b.0.cmp(&a.0);
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

        /// The column kernel is `dot` row by row, bit for bit: dims
        /// around one and two lane chunks and at the embedder's width,
        /// a stride wider than the rows, and queries with zeros of
        /// either sign, nothing but zeros, and nothing but tail
        /// components.
        #[test]
        fn dot_columns_is_bit_equal_to_dot_on_every_row(
            raw in prop::collection::vec(-1.0f32..1.0, 64..256),
            mask in prop::collection::vec(0usize..4, 64..256),
            rows in 0usize..40,
            spare in 0usize..3,
            query_shape in 0usize..4,
        ) {
            for dims in [1usize, 7, 8, 9, 16, 17, 384, 385] {
                let sparse = |i: usize| [0.0, -0.0, raw[i % raw.len()], raw[i % raw.len()]][mask[i % mask.len()]];
                let matrix: Vec<Vec<f32>> = (0..rows).map(|d| (0..dims).map(|j| sparse(d * dims + j + 1)).collect()).collect();
                let mut query: Vec<f32> = (0..dims).map(|j| sparse(j * 31)).collect();
                match query_shape {
                    0 => query.iter_mut().for_each(|x| *x *= 0.0),
                    1 => query[..dims - dims % LANES].iter_mut().for_each(|x| *x = 0.0),
                    _ => {}
                }
                let stride = rows + spare;
                let mut columns = vec![0.0f32; dims * stride];
                for (d, row) in matrix.iter().enumerate() {
                    for (j, x) in row.iter().enumerate() {
                        columns[j * stride + d] = *x;
                    }
                }
                let mut got = vec![f32::NAN; rows];
                dot_columns(&query, &columns, stride, &mut got);
                for (d, row) in matrix.iter().enumerate() {
                    prop_assert_eq!(got[d].to_bits(), dot(&query, row).to_bits(), "dims {} row {}", dims, d);
                }
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

    /// Lanes holding exactly 0, 1, 3, 4, 5, 8, 12 and 13 non-zero
    /// columns, and a tail with 5: every group size [`dot_columns`]
    /// folds with (eight, four, one) and every mix of them, bit-equal
    /// to [`dot`] on every row.
    #[test]
    fn dot_columns_folds_every_group_size_like_dot() {
        let dims = 48 * LANES + 5;
        let lane_counts = [3usize, 4, 8, 12, 13, 0, 1, 5];
        let mut query = vec![0.0f32; dims];
        for (lane, &count) in lane_counts.iter().enumerate() {
            // Spread over the lane's 48 columns, a `-0.0` between.
            for c in 0..count {
                query[(c * 3 + lane % 3) * LANES + lane] = 0.1 + (lane * 16 + c) as f32 * 0.37;
            }
            query[(47 - lane) * LANES + lane] = -0.0;
        }
        let tail = dims - dims % LANES;
        for (c, x) in query[tail..].iter_mut().enumerate() {
            *x = -0.3 - c as f32 * 0.11;
        }
        let nonzero_in = |lane: usize| {
            (lane..tail)
                .step_by(LANES)
                .filter(|&j| query[j] != 0.0)
                .count()
        };
        assert_eq!((0..LANES).map(nonzero_in).collect::<Vec<_>>(), lane_counts);

        let (rows, stride) = (37, 40);
        let component =
            |d: usize, j: usize| ((d * 7919 + j * 104_729) % 2_003) as f32 / 1_001.0 - 1.0;
        let mut columns = vec![0.0f32; dims * stride];
        for d in 0..rows {
            for j in 0..dims {
                columns[j * stride + d] = component(d, j);
            }
        }
        let mut got = vec![f32::NAN; rows];
        dot_columns(&query, &columns, stride, &mut got);
        for (d, got) in got.iter().enumerate() {
            let row: Vec<f32> = (0..dims).map(|j| component(d, j)).collect();
            assert_eq!(got.to_bits(), dot(&query, &row).to_bits(), "row {d}");
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
