//! The common vector-index interface.

use dio_embed::Vector;

/// One search result: the id assigned at insertion time plus the cosine
/// similarity score.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Insertion-order id of the matched vector.
    pub id: usize,
    /// Cosine similarity in `[-1, 1]`.
    pub score: f32,
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
    /// small.
    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit>;

    /// Cosine similarity of two stored vectors, `None` when either id
    /// is not held — what MMR reranks the prefetch with.
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
