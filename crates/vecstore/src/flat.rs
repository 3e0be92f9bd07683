//! Exact brute-force index (FAISS `IndexFlatIP` analogue).

use crate::index::{SearchHit, VectorIndex};
use dio_embed::{cosine_of_dot, cosine_with_norms, dot_columns, top_k_by, Scored, Vector};
use serde::{Deserialize, Serialize};

/// Stores every vector verbatim and scans all of them per query.
/// Exact, simple, and fast enough for catalog-scale corpora (thousands
/// of metric descriptions).
///
/// The components are held twice, each row's norm beside them. The
/// row-major matrix is what reads a row at a time: [`FlatIndex::row`]
/// and `similarity` (MMR). The dimension-major copy is what the full
/// scan of `search` runs over, reading only the columns of the query's
/// non-zero components ([`dot_columns`]). Whole columns strided by
/// capacity rather than tiles of documents: `add` writes one component
/// per column either way, the full scan measured faster over whole
/// columns than blocked by documents, and the price — the columns move
/// when the capacity doubles — is amortised like a `Vec`'s.
///
/// Invariant: a search score is bit-equal to
/// `dio_embed::cosine(query, row)`. The column scan holds it only over
/// finite rows, so a non-finite row never enters the matrix.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dims: usize,
    /// `len × dims`, row-major.
    data: Vec<f32>,
    /// `dims × stride`, dimension-major: component `j` of row `id` is
    /// `columns[j * stride + id]`.
    columns: Vec<f32>,
    /// Rows the columns have room for.
    stride: usize,
    /// `norm(row)`, computed once at `add`.
    norms: Vec<f32>,
}

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
        let mut columns = vec![0.0; self.dims * stride];
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
}

impl VectorIndex for FlatIndex {
    /// Panics when `vector` has other than the index's dims or a
    /// non-finite component: the column scan's zero-skip is exact only
    /// over finite rows.
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
        for (column, x) in self.columns.chunks_exact_mut(self.stride).zip(vector.iter()) {
            column[id] = *x;
        }
        self.norms.push(vector.norm());
        self.data.extend_from_slice(&vector);
        id
    }

    /// The full scan, over the columns of the query's non-zero
    /// components; scores, ids and order are those of a row-at-a-time
    /// cosine scan over every id. Neither half moves a bit:
    /// [`dot_columns`] folds a lane's columns in groups but adds each
    /// product in the same order as one column at a time, and
    /// [`top_k_by`]'s packed keys order hits by score, then id, each
    /// score returned with its own bits.
    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit> {
        if k == 0 {
            return Vec::new();
        }
        let mut dots = vec![0.0; self.len()];
        dot_columns(query, &self.columns, self.stride, &mut dots);
        let query_norm = query.norm();
        // The cosine is taken as the selection reads each dot, not in a
        // pass of its own.
        top_k_by(dots.len(), k, |id| {
            cosine_of_dot(dots[id], query_norm, self.norms[id])
        })
        .into_iter()
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
    /// `Vector`, best first, ties by ascending id.
    fn per_vector_scan(vectors: &[Vector], query: &Vector, k: usize) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = vectors
            .iter()
            .enumerate()
            .map(|(id, v)| SearchHit {
                id,
                score: cosine(query, v),
            })
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
        Vector(values.into_iter().zip(mask).map(component).take(dims).collect())
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
            assert!(serde_json::from_str::<FlatIndex>(bad).is_err(), "{bad} loaded");
        }
    }

    #[test]
    fn snapshot_with_a_non_finite_row_names_the_row() {
        for (bad, row) in [
            (r#"{"dims":1,"vectors":[[1e999]]}"#, "vector 0"),
            (r#"{"dims":2,"vectors":[[1,0],[0,1],[-1e39,0]]}"#, "vector 2"),
        ] {
            let err = serde_json::from_str::<FlatIndex>(bad).unwrap_err().to_string();
            assert!(err.contains(row) && err.contains("non-finite"), "{bad}: {err}");
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
