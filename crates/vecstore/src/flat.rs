//! Exact brute-force index (FAISS `IndexFlatIP` analogue).

use crate::index::{SearchHit, VectorIndex};
use dio_embed::similarity::top_k_by;
use dio_embed::{cosine_with_norms, Vector};
use serde::{Deserialize, Serialize};

/// Stores every vector verbatim and scans all of them per query.
/// Exact, simple, and fast enough for catalog-scale corpora (thousands
/// of metric descriptions).
///
/// Rows live in one row-major matrix with each row's norm beside it,
/// so a search is one norm for the query and one dot product per row.
/// Invariant: a search score is bit-equal to
/// `dio_embed::cosine(query, row)`.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dims: usize,
    /// `len × dims`, row-major.
    data: Vec<f32>,
    /// `norm(row)`, computed once at `add`.
    norms: Vec<f32>,
}

/// The persisted shape, `{"dims": d, "vectors": [[..], ..]}`; norms are
/// rebuilt on load.
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
        if let Some(bad) = wire.vectors.iter().position(|v| v.dims() != wire.dims) {
            return Err(serde::Error::msg(format!(
                "vector {bad} has {} dims, index has {}",
                wire.vectors[bad].dims(),
                wire.dims
            )));
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
            norms: Vec::new(),
        }
    }

    /// Build from a batch of vectors.
    pub fn from_vectors(dims: usize, vectors: Vec<Vector>) -> Self {
        let mut idx = FlatIndex::new(dims);
        idx.data.reserve_exact(vectors.len() * dims);
        idx.norms.reserve_exact(vectors.len());
        for v in vectors {
            idx.add(v);
        }
        idx
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

    /// Top-`k` of the `n` stored rows `id_of(0..n)` names — the one scan
    /// every search runs: one norm for the query, one dot product per
    /// row. Ties break on position, so `id_of` must be ascending for
    /// them to break on id.
    pub(crate) fn scan(
        &self,
        query: &Vector,
        n: usize,
        k: usize,
        id_of: impl Fn(usize) -> usize,
    ) -> Vec<SearchHit> {
        let query_norm = query.norm();
        top_k_by(n, k, |i| {
            let id = id_of(i);
            let row = &self.data[id * self.dims..(id + 1) * self.dims];
            cosine_with_norms(query, query_norm, row, self.norms[id])
        })
        .into_iter()
        .map(|s| SearchHit {
            id: id_of(s.index),
            score: s.score,
        })
        .collect()
    }
}

impl VectorIndex for FlatIndex {
    fn add(&mut self, vector: Vector) -> usize {
        assert_eq!(
            vector.dims(),
            self.dims,
            "vector dims {} != index dims {}",
            vector.dims(),
            self.dims
        );
        self.norms.push(vector.norm());
        self.data.extend_from_slice(&vector);
        self.norms.len() - 1
    }

    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit> {
        self.scan(query, self.len(), k, |id| id)
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
    use crate::persist::{from_json, to_json};
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

    proptest! {
        /// The stated invariant: a search score is bit-equal to
        /// `cosine(query, row)`, and the order is the per-`Vector`
        /// scan's — on corpora with exact duplicates and zero rows, so
        /// ties and the zero-norm branch are exercised.
        #[test]
        fn search_is_bit_equal_to_the_per_vector_cosine_scan(
            rows in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 9..10), 1..24),
            query in prop::collection::vec(-1.0f32..1.0, 9..10),
            dup in 0usize..24,
            zero in 0usize..24,
            k in 1usize..30,
        ) {
            let mut vectors: Vec<Vector> = rows.into_iter().map(Vector).collect();
            vectors.push(vectors[dup % vectors.len()].clone());
            let zero = zero % vectors.len();
            vectors[zero] = Vector::zeros(9);
            let query = Vector(query);
            let idx = FlatIndex::from_vectors(9, vectors.clone());

            let got = idx.search(&query, k);
            let want = per_vector_scan(&vectors, &query, k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.id, w.id);
                prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
                let row = idx.row(g.id).expect("hit ids are stored rows");
                prop_assert_eq!(g.score.to_bits(), cosine(&query, row).to_bits());
            }
            for (a, b) in [(0, zero), (dup % vectors.len(), vectors.len() - 1)] {
                let pair = idx.similarity(a, b).expect("stored rows");
                prop_assert_eq!(pair.to_bits(), cosine(&vectors[a], &vectors[b]).to_bits());
            }
            prop_assert_eq!(idx.similarity(0, vectors.len()), None);
        }
    }

    /// A snapshot written before rows moved into one matrix.
    const OLD_SNAPSHOT: &str =
        "{\"dims\":3,\"vectors\":[[1,0,0],[0.6000000238418579,0.800000011920929,0],\
[0,0,0],[0.6000000238418579,0.800000011920929,0],[-0.25,0.5,2]]}";

    #[test]
    fn old_snapshot_loads_searches_and_round_trips_byte_identically() {
        let idx: FlatIndex = from_json(OLD_SNAPSHOT).unwrap();
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
        assert_eq!(to_json(&idx).unwrap(), OLD_SNAPSHOT);
    }

    #[test]
    fn snapshot_with_misshapen_rows_is_an_error_not_a_panic() {
        for bad in [
            r#"{"dims":3,"vectors":[[1,0,0],[1,0]]}"#,
            r#"{"dims":0,"vectors":[]}"#,
            r#"{"dims":3}"#,
        ] {
            assert!(from_json::<FlatIndex>(bad).is_err(), "{bad} loaded");
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
