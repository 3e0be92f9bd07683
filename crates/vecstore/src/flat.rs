//! Exact brute-force index (FAISS `IndexFlatIP` analogue), scanned at
//! half width and rescored exactly (FAISS `IndexRefineFlat`).

use crate::index::{SearchHit, VectorIndex};
use dio_embed::{cosine_with_norms, top_k_by, Scored, Vector};
use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;

/// Stores every vector verbatim and scans all of them per query.
/// Exact, simple, and fast enough for catalog-scale corpora (thousands
/// of metric descriptions).
///
/// Each row is held twice, its norm beside it: row-major in `f32`, which
/// [`FlatIndex::row`], `similarity` (MMR) and `search`'s rescoring read,
/// and dimension-major as each component's high 16 bits (a bf16 by
/// truncation), which `search`'s full scan reads a column at a time. The
/// columns are strided by capacity and move when it doubles, amortised
/// like a `Vec`'s.
///
/// Invariant: a search score is bit-equal to
/// `dio_embed::cosine(query, row)`, and hits and order are those of a
/// scan that scores every row so.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dims: usize,
    /// `len × dims`, row-major.
    data: Vec<f32>,
    /// `dims × stride`, dimension-major: the high 16 bits of component
    /// `j` of row `id` are `columns[j * stride + id]`.
    columns: Vec<u16>,
    /// Rows the columns have room for.
    stride: usize,
    /// `norm(row)`, computed once at `add`.
    norms: Vec<f32>,
}

/// δ: a normal `f32` cut to its high 16 bits is `d(1 − τ)`, `0 ≤ τ < 2⁻⁷`.
const TRUNCATION: f32 = 1.0 / 128.0;

/// Norms, of a query or a row, whose squares and products stay clear of
/// overflow and of the subnormals. Outside them `search` claims no bound:
/// such a row is always rescored, and such a query scored exactly.
const NORMS: RangeInclusive<f32> = 1.0 / 4_294_967_296.0..=4_294_967_296.0;

/// Widest rows the rounding bound of `search` is derived for.
const MAX_PREFILTER_DIMS: usize = 1 << 14;

/// The persisted shape, `{"dims": d, "vectors": [[..], ..]}`; norms and
/// columns are rebuilt on load.
#[derive(Serialize, Deserialize)]
struct FlatWire {
    dims: usize,
    vectors: Vec<Vector>,
}

impl Serialize for FlatIndex {
    fn to_value(&self) -> serde::Value {
        FlatWire {
            dims: self.dims,
            vectors: self.iter().map(|row| Vector(row.to_vec())).collect(),
        }
        .to_value()
    }
}

impl<'de> Deserialize<'de> for FlatIndex {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire = FlatWire::from_value(value)?;
        if wire.dims == 0 {
            return Err(serde::Error::msg("flat index dims must be positive"));
        }
        for (id, v) in wire.vectors.iter().enumerate() {
            if v.dims() != wire.dims {
                return Err(serde::Error::msg(format!(
                    "vector {id} has {} dims, index has {}",
                    v.dims(),
                    wire.dims
                )));
            }
            if !v.is_finite() {
                return Err(serde::Error::msg(format!(
                    "vector {id} has a non-finite component"
                )));
            }
        }
        Ok(FlatIndex::from_vectors(wire.dims, wire.vectors))
    }
}

impl FlatIndex {
    /// An empty index for `dims`-dimensional vectors.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        FlatIndex {
            dims,
            data: Vec::new(),
            columns: Vec::new(),
            stride: 0,
            norms: Vec::new(),
        }
    }

    /// Build from a batch of vectors, sized once when the iterator
    /// knows its length.
    pub fn from_vectors(dims: usize, vectors: impl IntoIterator<Item = Vector>) -> Self {
        let vectors = vectors.into_iter();
        let expected = vectors.size_hint().0;
        let mut idx = FlatIndex::new(dims);
        idx.data.reserve_exact(expected * dims);
        idx.norms.reserve_exact(expected);
        idx.restride(expected);
        for v in vectors {
            idx.add(v);
        }
        idx
    }

    /// Move the columns apart to hold `stride` rows each.
    fn restride(&mut self, stride: usize) {
        let len = self.len();
        let mut columns = vec![0; self.dims * stride];
        if len > 0 {
            for (new, old) in columns
                .chunks_exact_mut(stride)
                .zip(self.columns.chunks_exact(self.stride))
            {
                new[..len].copy_from_slice(&old[..len]);
            }
        }
        self.columns = columns;
        self.stride = stride;
    }

    /// The stored row for `id`.
    pub fn row(&self, id: usize) -> Option<&[f32]> {
        let start = id.checked_mul(self.dims)?;
        self.data.get(start..start.checked_add(self.dims)?)
    }

    /// Iterate over all stored rows in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dims)
    }

    /// The cosine of `query` with every row's truncated copy, NaN for a
    /// row whose norm is outside [`NORMS`]: the columns of its non-zero
    /// components, scaled by `1/‖q‖`, folded eight to a pass (the last
    /// group padded with zeros), each sum then divided by the row's norm.
    fn approximate(&self, query: &[f32], query_norm: f32) -> Vec<f32> {
        let mut sums = vec![0.0; self.len()];
        let mut group = [(0.0, &self.columns[..]); 8];
        let mut len = 0;
        for (j, &x) in query.iter().enumerate().filter(|(_, x)| **x != 0.0) {
            group[len] = (x / query_norm, &self.columns[j * self.stride..]);
            len += 1;
            if len == group.len() {
                fold(&mut sums, &group);
                len = 0;
            }
        }
        if len > 0 {
            group[len..].iter_mut().for_each(|(x, _)| *x = 0.0);
            fold(&mut sums, &group);
        }
        for (sum, norm) in sums.iter_mut().zip(&self.norms) {
            *sum = if NORMS.contains(norm) {
                *sum / norm
            } else {
                f32::NAN
            };
        }
        sums
    }
}

/// `sums[d] += x₀·c₀[d] + … + x₇·c₇[d]`, each column widened from its
/// high 16 bits: one load and store of a row's sum per eight columns.
fn fold(sums: &mut [f32], terms: &[(f32, &[u16]); 8]) {
    let xs: [f32; 8] = std::array::from_fn(|i| terms[i].0);
    let columns: [&[u16]; 8] = std::array::from_fn(|i| &terms[i].1[..sums.len()]);
    for (d, sum) in sums.iter_mut().enumerate() {
        let mut s = *sum;
        for i in 0..8 {
            s += xs[i] * f32::from_bits(u32::from(columns[i][d]) << 16);
        }
        *sum = s;
    }
}

/// A floor under the `k`-th largest of the non-NaN `values`, each in
/// `(−2, 2]`, from 4 096 buckets of 2⁻¹⁰ on the stack; `None` when fewer
/// than `k` are not NaN. A value's bucket `b = round(fl(2 − v)·2¹⁰)` is
/// the mantissa of `fl(2 − v)·2¹⁰ + 2²³`, monotone in `v`. When buckets
/// up to `B` hold `k` values, each has `2 − v ≤ (B + ½)·2⁻¹⁰ + 2⁻²³`, so
/// all `k` exceed `2 − (B + 1)·2⁻¹⁰`, which is exact.
fn kth_floor(values: &[f32], k: usize) -> Option<f32> {
    let mut counts = [0u32; 4096];
    for v in values.iter().filter(|v| !v.is_nan()) {
        let bits = ((2.0 - v) * 1024.0 + 8_388_608.0).to_bits();
        counts[((bits & 0x7f_ffff) as usize).min(4095)] += 1;
    }
    let mut seen = 0;
    let bucket = counts.iter().position(|&count| {
        seen += count as usize;
        seen >= k
    })?;
    Some(2.0 - (bucket + 1) as f32 / 1024.0)
}

impl VectorIndex for FlatIndex {
    /// Panics when `vector` has other than the index's dims or a
    /// non-finite component, which has no cosine to rank by.
    fn add(&mut self, vector: Vector) -> usize {
        assert_eq!(
            vector.dims(),
            self.dims,
            "vector dims {} != index dims {}",
            vector.dims(),
            self.dims
        );
        assert!(vector.is_finite(), "vector has a non-finite component");
        let id = self.len();
        if id == self.stride {
            self.restride((2 * self.stride).max(8));
        }
        for (column, x) in self
            .columns
            .chunks_exact_mut(self.stride)
            .zip(vector.iter())
        {
            column[id] = (x.to_bits() >> 16) as u16;
        }
        self.norms.push(vector.norm());
        self.data.extend_from_slice(&vector);
        id
    }

    /// The full scan, with the hits, order and score bits of one that
    /// takes `cosine_with_norms` of every row. It folds the query's
    /// non-zero columns over the truncated copy for approximate cosines
    /// `c̃`, takes a floor `t′` under `t`, the `k`-th best `c̃`, rescores
    /// exactly every row with `c̃ ≥ t′ − w` and ranks those, every other
    /// row scoring NaN (dropped by [`top_k_by`]). With `n` the dims,
    /// `w = δ + (n + 3)·2⁻²⁰`, δ = 2⁻⁷.
    ///
    /// Why no other row can rank. Let `S` and `C` be a row's exact and
    /// approximate cosines in real arithmetic, `s` and `c̃` as computed.
    /// With `q̂`, `d̂` the unit query and row, `C − S = −Σ τⱼq̂ⱼd̂ⱼ`, and
    /// truncation only shrinks a component, so `−δP ≤ C − S ≤ δN` where
    /// `P` and `N` sum the row's positive and negative `q̂ⱼd̂ⱼ`, and
    /// `P + N ≤ 1` (Cauchy–Schwarz). That bounds each row's error by δ,
    /// and two rows' errors by 2δ — but for `S_A − S_B = Δ`,
    /// `2(P_A + N_B) = (P_A + N_A) + (P_B + N_B) + Δ ≤ 2 + Δ`, so
    /// `C_B − C_A ≤ δ − Δ(1 − δ/2)`: errors pull apart by δ only where
    /// the scores already stand apart.
    ///
    /// Rounding: a dot is within `γₙ‖q‖‖d‖` of its real value in any
    /// order (`γₙ = nu/(1 − nu) ≤ 1.001nu`, `u = 2⁻²⁴`, `n ≤ 2¹⁴`), a
    /// computed norm within `0.51γₙ + u` (relative), and each product,
    /// division and query scaling adds `u`: `|s − S| ≤ 2.03nu + 4u` and
    /// `|c̃ − C| ≤ 2.03nu + 5u`, both under `σ = (n + 2)·2⁻²²` (the clamp
    /// of `s` only brings it closer). Within the norm range, underflow
    /// (`n·2⁻¹⁵⁰` a dot, `√n·2⁻¹³³` from subnormal components) is below
    /// `n·2⁻⁸⁶` relative, inside σ's margin.
    ///
    /// So if an excluded `A` ranked in the exact top `k`, some `B` with
    /// `c̃_B ≥ t` would not: `s_B ≤ s_A`, `Δ ≥ −2σ`, `c̃_B − c̃_A ≤ δ + 4σ`.
    /// Yet `c̃_A < fl(t′ − w) ≤ c̃_B − w + 2⁻²⁴`, and `w = δ + 4σ + 2⁻²⁰`.
    /// A query whose norm is out of range, `k ≥ len` or an index wider
    /// than 2¹⁴ dims is scored exactly against every row.
    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit> {
        let query_norm = query.norm();
        let row = |id: usize| &self.data[id * self.dims..][..self.dims];
        let exact = |id: usize| cosine_with_norms(query, query_norm, row(id), self.norms[id]);
        let prefilter = (1..self.len()).contains(&k)
            && self.dims <= MAX_PREFILTER_DIMS
            && NORMS.contains(&query_norm);
        let hits = if prefilter {
            // An out-of-range row is NaN: neither counted for `t′` nor cut.
            let approx = self.approximate(query, query_norm);
            let window = TRUNCATION + (self.dims + 3) as f32 / (1 << 20) as f32;
            let cut = kth_floor(&approx, k).map_or(f32::NEG_INFINITY, |t| t - window);
            top_k_by(self.len(), k, |id| {
                if approx[id] < cut {
                    f32::NAN
                } else {
                    exact(id)
                }
            })
        } else {
            top_k_by(self.len(), k, exact)
        };
        hits.into_iter()
            .map(|Scored { index, score }| SearchHit { id: index, score })
            .collect()
    }

    /// From the cached norms, bit-equal to
    /// `dio_embed::cosine(row(a), row(b))`.
    fn similarity(&self, a: usize, b: usize) -> Option<f32> {
        Some(cosine_with_norms(
            self.row(a)?,
            self.norms[a],
            self.row(b)?,
            self.norms[b],
        ))
    }

    fn len(&self) -> usize {
        self.norms.len()
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_embed::cosine;
    use proptest::prelude::*;

    fn v(x: &[f32]) -> Vector {
        Vector(x.to_vec()).normalized()
    }

    /// The scan this index replaced: `cosine` against every stored
    /// `Vector`, best first, ties by ascending id, NaN scores dropped
    /// (as [`top_k_by`] drops them).
    fn per_vector_scan(vectors: &[Vector], query: &Vector, k: usize) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = vectors
            .iter()
            .enumerate()
            .map(|(id, v)| SearchHit {
                id,
                score: cosine(query, v),
            })
            .filter(|hit| !hit.score.is_nan())
            .collect();
        hits.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        hits.truncate(k);
        hits
    }

    /// Widest row the property tests draw; each case cuts it to its dims.
    const MAX_DIMS: usize = 17;

    /// Components as the hashed embedder makes them — mostly absent, of
    /// either sign of zero: `values[j]` where `mask[j] >= 2`, cut to
    /// `dims`. Drawn as `(values, mask)`, both [`MAX_DIMS`] long.
    fn sparse(dims: usize, (values, mask): (Vec<f32>, Vec<usize>)) -> Vector {
        let component = |(x, m): (f32, usize)| [0.0, -0.0, x, x][m];
        Vector(
            values
                .into_iter()
                .zip(mask)
                .map(component)
                .take(dims)
                .collect(),
        )
    }

    fn id_and_bits(hits: &[SearchHit]) -> Vec<(usize, u32)> {
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    proptest! {
        /// The stated invariant: a search score is bit-equal to
        /// `cosine(query, row)`, and the order is the per-`Vector`
        /// scan's — below, at and above one and two lane chunks, on
        /// corpora with exact duplicates and zero rows (ties and the
        /// zero-norm branch), and on sparse queries: zeros of either
        /// sign among the components, none but zeros, and none but
        /// tail components.
        #[test]
        fn search_is_bit_equal_to_the_per_vector_cosine_scan(
            dims in prop::sample::select(vec![1usize, 7, 8, 9, 16, 17]),
            rows in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, MAX_DIMS..MAX_DIMS + 1), 1..24),
            row_masks in prop::collection::vec(prop::collection::vec(0usize..4, MAX_DIMS..MAX_DIMS + 1), 24..25),
            query in prop::collection::vec(-1.0f32..1.0, MAX_DIMS..MAX_DIMS + 1),
            query_mask in prop::collection::vec(0usize..4, MAX_DIMS..MAX_DIMS + 1),
            query_shape in 0usize..4,
            dup in 0usize..24,
            zero in 0usize..24,
            k in 1usize..30,
        ) {
            let mut vectors: Vec<Vector> = rows.into_iter().zip(row_masks).map(|r| sparse(dims, r)).collect();
            vectors.push(vectors[dup % vectors.len()].clone());
            let zero = zero % vectors.len();
            vectors[zero] = Vector::zeros(dims);
            let mut query = sparse(dims, (query, query_mask));
            match query_shape {
                0 => query.0.iter_mut().for_each(|x| *x *= 0.0),
                1 => query.0[..dims - dims % 8].iter_mut().for_each(|x| *x = 0.0),
                _ => {}
            }
            let idx = FlatIndex::from_vectors(dims, vectors.clone());

            let got = idx.search(&query, k);
            let want = per_vector_scan(&vectors, &query, k);
            prop_assert_eq!(id_and_bits(&got), id_and_bits(&want));
            for hit in &got {
                let row = idx.row(hit.id).expect("hit ids are stored rows");
                prop_assert_eq!(hit.score.to_bits(), cosine(&query, row).to_bits());
            }
            for (a, b) in [(0, zero), (dup % vectors.len(), vectors.len() - 1)] {
                let pair = idx.similarity(a, b).expect("stored rows");
                prop_assert_eq!(pair.to_bits(), cosine(&vectors[a], &vectors[b]).to_bits());
            }
            prop_assert_eq!(idx.similarity(0, vectors.len()), None);
        }

        /// Rows `add`ed after the build — from nothing, and past one and
        /// two doublings of the column stride — are found with the bits
        /// a fresh build of the same rows finds them with.
        #[test]
        fn rows_added_after_the_build_search_like_a_fresh_build(
            dims in prop::sample::select(vec![1usize, 8, 9]),
            rows in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, MAX_DIMS..MAX_DIMS + 1), 1..48),
            row_masks in prop::collection::vec(prop::collection::vec(0usize..4, MAX_DIMS..MAX_DIMS + 1), 48..49),
            built in 0usize..12,
            query in prop::collection::vec(-1.0f32..1.0, MAX_DIMS..MAX_DIMS + 1),
            query_mask in prop::collection::vec(0usize..4, MAX_DIMS..MAX_DIMS + 1),
            k in 1usize..50,
        ) {
            let vectors: Vec<Vector> = rows.into_iter().zip(row_masks).map(|r| sparse(dims, r)).collect();
            let built = built.min(vectors.len());
            let query = sparse(dims, (query, query_mask));
            let fresh = FlatIndex::from_vectors(dims, vectors.clone());
            let mut grown = FlatIndex::from_vectors(dims, vectors[..built].to_vec());
            for (id, v) in vectors.iter().enumerate().skip(built) {
                prop_assert_eq!(grown.add(v.clone()), id);
            }
            prop_assert_eq!(id_and_bits(&grown.search(&query, k)), id_and_bits(&fresh.search(&query, k)));
            let json = |idx: &FlatIndex| serde_json::to_string(idx).unwrap();
            prop_assert_eq!(json(&grown), json(&fresh));
        }
    }

    proptest! {
        /// At the embedder's width, where a lane holds enough of a
        /// query's non-zero columns to fold them eight at a time: the
        /// column scan's hits, order and score bits are the per-`Vector`
        /// cosine scan's, over a corpus with duplicate and zero rows.
        #[test]
        fn search_at_embedding_width_is_bit_equal_to_the_per_vector_scan(
            seed in any::<u64>(),
            rows in 64usize..300,
            density in prop::sample::select(vec![0.05f64, 0.3, 0.9]),
            k in prop::sample::select(vec![1usize, 29, 116, 299, 400]),
        ) {
            const DIMS: usize = 384;
            let mut rng = proptest::strategy::TestRng::new(seed);
            let component = |rng: &mut proptest::strategy::TestRng| {
                if rng.unit_f64() < density {
                    rng.unit_f64() as f32 * 2.0 - 1.0
                } else {
                    [0.0, -0.0][rng.below(2)]
                }
            };
            let mut vectors: Vec<Vector> = (0..rows)
                .map(|_| Vector((0..DIMS).map(|_| component(&mut rng)).collect()))
                .collect();
            vectors[rng.below(rows)] = Vector::zeros(DIMS);
            let dup = vectors[rng.below(rows)].clone();
            vectors.push(dup);
            let query = Vector((0..DIMS).map(|_| component(&mut rng)).collect());
            let idx = FlatIndex::from_vectors(DIMS, vectors.clone());
            prop_assert_eq!(
                id_and_bits(&idx.search(&query, k)),
                id_and_bits(&per_vector_scan(&vectors, &query, k))
            );
        }

        /// Near-ties where truncation errs most. Most query components
        /// have the worst mantissa for truncation (seven zero, then
        /// sixteen one bits). Rows are the query with a few components
        /// dropped (≈ δ below their exact score), the query cut to bf16
        /// with a few dropped (no error), or components of the query's
        /// exponents with worst, bf16-exact or random mantissas and none,
        /// some or all of its signs flipped. Hits, order and bits are the
        /// per-vector scan's.
        #[test]
        fn near_ties_of_worst_truncated_rows_rank_like_the_per_vector_scan(
            seed in any::<u64>(),
            dims in prop::sample::select(vec![17usize, 64, 384]),
            rows in 2usize..120,
        ) {
            let mut rng = proptest::strategy::TestRng::new(seed);
            let signs: Vec<u32> = (0..dims).map(|_| rng.below(2) as u32).collect();
            let exps: Vec<u32> = (0..dims).map(|_| 120 + rng.below(8) as u32).collect();
            let component = |rng: &mut proptest::strategy::TestRng, j: usize, flip: bool| {
                let mantissa = [0xFFFF, 0xFFFF, (rng.below(128) as u32) << 16, rng.below(1 << 23) as u32];
                f32::from_bits((signs[j] ^ flip as u32) << 31 | exps[j] << 23 | mantissa[rng.below(4)])
            };
            let query = Vector((0..dims).map(|j| component(&mut rng, j, false)).collect());
            let vectors: Vec<Vector> = (0..rows)
                .map(|_| {
                    let kind = rng.below(4);
                    let flips_in_8 = [0, 1, 4, 8][rng.below(4)];
                    Vector((0..dims).map(|j| {
                        let flip = rng.below(8) < flips_in_8;
                        match (kind, rng.below(16)) {
                            (0 | 1, 0) => 0.0,
                            (0, _) => query[j],
                            (1, _) => f32::from_bits(query[j].to_bits() & 0xFFFF_0000),
                            _ => component(&mut rng, j, flip),
                        }
                    }).collect())
                })
                .collect();
            let idx = FlatIndex::from_vectors(dims, vectors.clone());
            for k in [1, 3, 10, 40] {
                prop_assert_eq!(
                    id_and_bits(&idx.search(&query, k)),
                    id_and_bits(&per_vector_scan(&vectors, &query, k))
                );
            }
        }
    }

    /// The prefilter's window where truncation errs most. Every query
    /// component has seven zero and then sixteen one bits of mantissa,
    /// so it loses just under δ of itself. Copies of the query score
    /// ≈ 1 exactly but ≈ 1 − δ approximately, while the rows they must
    /// beat (a component or more short of the query, exact in bf16)
    /// score up to 0.99994 both ways, in near-ties down across the
    /// cut. Beside them: rows whose norms are zero, subnormal-scale,
    /// ≈ 1e30 and just outside the prefilter's range either way, and a
    /// zero, a NaN and a negated query. Every hit, its order and its
    /// score bits are the per-vector scan's, at every `k`.
    #[test]
    fn worst_truncated_rows_and_out_of_range_norms_rank_exactly() {
        const DIMS: usize = 384;
        let mut rng = proptest::strategy::TestRng::new(0x6f70_5f64_6174);
        let signs: Vec<u32> = (0..DIMS).map(|_| rng.below(2) as u32).collect();
        let exps: Vec<u32> = (0..DIMS).map(|_| 124 + rng.below(4) as u32).collect();
        let component =
            |j: usize, mantissa: u32| f32::from_bits(signs[j] << 31 | exps[j] << 23 | mantissa);
        let query = Vector((0..DIMS).map(|j| component(j, 0xFFFF)).collect());
        let scaled = |by: f32| Vector(query.iter().map(|x| x * by).collect());
        // Largest components first, so each more one dropped from the
        // bf16-exact copy lowers its score further.
        let mut by_size: Vec<usize> = (0..DIMS).collect();
        by_size.sort_by(|&a, &b| exps[b].cmp(&exps[a]).then(a.cmp(&b)));
        let short = |dropped: &[usize]| {
            let mut row: Vec<f32> = (0..DIMS).map(|j| component(j, 1 << 16)).collect();
            dropped.iter().for_each(|&j| row[j] = 0.0);
            Vector(row)
        };

        let mut vectors = Vec::new();
        for j in by_size.iter().rev().take(8) {
            vectors.push(short(&[*j]));
        }
        for m in 1..=12 {
            vectors.push(short(&by_size[..m]));
        }
        vectors.push(query.clone());
        vectors.push(scaled(8.0));
        vectors.push(short(&[by_size[DIMS - 1]]));
        vectors.push(query.clone());
        vectors.push(Vector::zeros(DIMS));
        vectors.push(scaled(1e-41));
        vectors.push(Vector(
            signs
                .iter()
                .map(|&s| if s == 0 { 1e28 } else { -1e28 })
                .collect(),
        ));
        vectors.push(scaled(2f32.powi(40)));
        vectors.push(scaled(2f32.powi(-40)));
        let idx = FlatIndex::from_vectors(DIMS, vectors.clone());
        assert!(!NORMS.contains(&vectors[vectors.len() - 3].norm()));
        assert!(!NORMS.contains(&vectors[vectors.len() - 2].norm()));
        assert!(!NORMS.contains(&vectors[vectors.len() - 1].norm()));

        let mut nan = query.clone();
        nan.0[DIMS / 2] = f32::NAN;
        let n = vectors.len();
        for (name, q) in [
            ("worst", query.clone()),
            ("negated", Vector(query.iter().map(|x| -x).collect())),
            ("zero", Vector::zeros(DIMS)),
            ("nan", nan),
        ] {
            for k in (1..=12).chain([n - 1, n, n + 1]) {
                assert_eq!(
                    id_and_bits(&idx.search(&q, k)),
                    id_and_bits(&per_vector_scan(&vectors, &q, k)),
                    "{name} query, k = {k}"
                );
            }
        }
    }

    /// A snapshot written before rows moved into one matrix.
    const OLD_SNAPSHOT: &str =
        "{\"dims\":3,\"vectors\":[[1,0,0],[0.6000000238418579,0.800000011920929,0],\
[0,0,0],[0.6000000238418579,0.800000011920929,0],[-0.25,0.5,2]]}";

    #[test]
    fn old_snapshot_loads_searches_and_round_trips_byte_identically() {
        let idx: FlatIndex = serde_json::from_str(OLD_SNAPSHOT).unwrap();
        assert_eq!((idx.len(), idx.dims()), (5, 3));
        assert_eq!(idx.row(4), Some(&[-0.25f32, 0.5, 2.0][..]));
        // Ids, order and score bits as the old index printed them.
        let hits: Vec<(usize, u32)> = idx
            .search(&Vector(vec![0.5, 0.5, 0.1]), 5)
            .into_iter()
            .map(|h| (h.id, h.score.to_bits()))
            .collect();
        assert_eq!(
            hits,
            vec![
                (1, 1065020962),
                (3, 1065020962),
                (0, 1060322400),
                (4, 1046505428),
                (2, 0)
            ]
        );
        assert_eq!(serde_json::to_string(&idx).unwrap(), OLD_SNAPSHOT);
    }

    #[test]
    fn snapshot_with_misshapen_rows_is_an_error_not_a_panic() {
        for bad in [
            "{not json",
            r#"{"dims":3,"vectors":[[1,0,0],[1,0]]}"#,
            r#"{"dims":0,"vectors":[]}"#,
            r#"{"dims":3}"#,
            // The parser reads `1e999` as infinity, and `1e39` is one as an `f32`.
            r#"{"dims":1,"vectors":[[1e999]]}"#,
            r#"{"dims":2,"vectors":[[1,0],[0,1e39]]}"#,
        ] {
            assert!(
                serde_json::from_str::<FlatIndex>(bad).is_err(),
                "{bad} loaded"
            );
        }
    }

    #[test]
    fn snapshot_with_a_non_finite_row_names_the_row() {
        for (bad, row) in [
            (r#"{"dims":1,"vectors":[[1e999]]}"#, "vector 0"),
            (
                r#"{"dims":2,"vectors":[[1,0],[0,1],[-1e39,0]]}"#,
                "vector 2",
            ),
        ] {
            let err = serde_json::from_str::<FlatIndex>(bad)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(row) && err.contains("non-finite"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn add_assigns_sequential_ids() {
        let mut idx = FlatIndex::new(2);
        assert_eq!(idx.add(v(&[1.0, 0.0])), 0);
        assert_eq!(idx.add(v(&[0.0, 1.0])), 1);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
    }

    #[test]
    fn search_returns_nearest_first() {
        let mut idx = FlatIndex::new(2);
        idx.add(v(&[1.0, 0.0]));
        idx.add(v(&[0.7, 0.7]));
        idx.add(v(&[0.0, 1.0]));
        let hits = idx.search(&v(&[1.0, 0.1]), 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn search_empty_index_is_empty() {
        let idx = FlatIndex::new(4);
        assert!(idx.search(&v(&[1.0, 0.0, 0.0, 0.0]), 5).is_empty());
    }

    #[test]
    fn search_k_zero_is_empty() {
        let mut idx = FlatIndex::new(2);
        idx.add(v(&[1.0, 0.0]));
        assert!(idx.search(&v(&[1.0, 0.0]), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "dims")]
    fn add_wrong_dims_panics() {
        let mut idx = FlatIndex::new(3);
        idx.add(v(&[1.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn add_non_finite_panics() {
        let mut idx = FlatIndex::new(2);
        idx.add(Vector(vec![1.0, f32::INFINITY]));
    }

    #[test]
    fn row_returns_stored_vector() {
        let mut idx = FlatIndex::new(2);
        let a = v(&[0.6, 0.8]);
        idx.add(a.clone());
        assert_eq!(idx.row(0), Some(a.as_slice()));
        assert_eq!(idx.row(1), None);
        assert_eq!(idx.row(usize::MAX), None);
        assert_eq!(idx.iter().collect::<Vec<_>>(), vec![a.as_slice()]);
    }
}
