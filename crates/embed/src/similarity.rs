//! Vector similarity measures and top-k helpers.
//!
//! Everything here works on `&[f32]`; a [`crate::Vector`] derefs to its slice,
//! so owned vectors and rows of a contiguous matrix share one kernel.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
pub fn dot_columns(query: &[f32], columns: &[f32], stride: usize, out: &mut [f32]) {
    let rows = out.len();
    assert!(rows <= stride, "more rows than the column stride");
    assert_eq!(columns.len(), query.len() * stride, "matrix shape mismatch");
    if rows == 0 {
        return;
    }
    // `sums += query[j] · column j`: contiguous, so it vectorises.
    let add_column = |sums: &mut [f32], j: usize| {
        let x = query[j];
        if x != 0.0 {
            for (sum, y) in sums.iter_mut().zip(&columns[j * stride..][..rows]) {
                *sum += x * y;
            }
        }
    };
    // A lane at a time rather than a column at a time: the lanes are
    // independent, and one lane's partial sums (4 bytes a row) stay in
    // the first-level cache while its columns stream past them.
    let body = query.len() - query.len() % LANES;
    let mut acc = vec![0.0f32; LANES * rows];
    for (lane, sums) in acc.chunks_exact_mut(rows).enumerate() {
        for j in (lane..body).step_by(LANES) {
            add_column(sums, j);
        }
    }
    let acc: [&[f32]; LANES] = std::array::from_fn(|lane| &acc[lane * rows..][..rows]);
    for (d, sum) in out.iter_mut().enumerate() {
        *sum = ((acc[0][d] + acc[4][d]) + (acc[2][d] + acc[6][d]))
            + ((acc[1][d] + acc[5][d]) + (acc[3][d] + acc[7][d]));
    }
    for j in body..query.len() {
        add_column(out, j);
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

/// Top-k by a caller-provided scoring function, sorted by descending
/// score (ties broken by ascending index). Runs in `O(n log k)`.
pub fn top_k_by<F>(n: usize, k: usize, mut score_fn: F) -> Vec<Scored>
where
    F: FnMut(usize) -> f32,
{
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Vector;
    use proptest::prelude::*;

    fn v(x: &[f32]) -> Vector {
        Vector(x.to_vec())
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
