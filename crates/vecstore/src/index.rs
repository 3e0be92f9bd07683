//! The common vector-index interface.

use dio_embed::Vector;
use serde::{Deserialize, Serialize};

/// One search result: the id assigned at insertion time plus the cosine
/// similarity score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Insertion-order id of the matched vector.
    pub id: usize,
    /// Cosine similarity in `[-1, 1]`.
    pub score: f32,
}

/// Work accounting for one search, fed into retrieval telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Vectors whose similarity to the query was (or may have been)
    /// computed. Exact indexes scan everything; approximate indexes
    /// report how much of the store the probe actually touched.
    pub candidates_scanned: usize,
}

/// A store of vectors searchable by cosine similarity.
///
/// Ids are assigned densely in insertion order (`0, 1, 2, …`), matching
/// how the copilot keeps a parallel `Vec` of document payloads.
pub trait VectorIndex {
    /// Insert a vector, returning its id. Implementations may require a
    /// fixed dimensionality set at construction and panic on mismatch.
    fn add(&mut self, vector: Vector) -> usize;

    /// Top-`k` hits for `query`, sorted by descending score (ties broken
    /// by ascending id). May return fewer than `k` when the index is
    /// small, and, for approximate indexes, when probing misses.
    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit>;

    /// Like [`VectorIndex::search`], also reporting how many candidate
    /// vectors were scanned. The default assumes an exhaustive scan
    /// (true for exact indexes); approximate indexes override with the
    /// work their probe actually did.
    fn search_with_stats(&self, query: &Vector, k: usize) -> (Vec<SearchHit>, SearchStats) {
        let hits = self.search(query, k);
        (
            hits,
            SearchStats {
                candidates_scanned: self.len(),
            },
        )
    }

    /// Cosine similarity of two stored vectors, `None` when either id
    /// is not held — what MMR reranks any index's prefetch with.
    fn similarity(&self, a: usize, b: usize) -> Option<f32>;

    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// True when no vectors are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality enforced by the index.
    fn dims(&self) -> usize;
}
