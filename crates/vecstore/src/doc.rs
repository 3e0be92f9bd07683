//! A vector index paired with owned document payloads.
//!
//! This is the shape the copilot's context extractor uses: each embedded
//! text sample (a metric description or a function definition) is stored
//! alongside its vector, and a search returns the payloads directly.

use crate::index::{SearchHit, SearchStats, VectorIndex};
use serde::{Deserialize, Serialize};

/// A hit carrying the matched document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocHit<'a, T> {
    /// Insertion-order id.
    pub id: usize,
    /// Cosine similarity score.
    pub score: f32,
    /// The stored payload.
    pub doc: &'a T,
}

/// Pairs any [`VectorIndex`] with a parallel payload store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DocIndex<I, T> {
    index: I,
    docs: Vec<T>,
}

impl<I: VectorIndex, T> DocIndex<I, T> {
    /// Wrap an empty index.
    pub fn new(index: I) -> Self {
        assert!(
            index.is_empty(),
            "DocIndex must start from an empty index so ids align with docs"
        );
        DocIndex {
            index,
            docs: Vec::new(),
        }
    }

    /// Wrap a pre-populated index whose ids already align with `docs`.
    pub fn from_parts(index: I, docs: Vec<T>) -> Self {
        assert_eq!(
            index.len(),
            docs.len(),
            "index and doc store must be the same length"
        );
        DocIndex { index, docs }
    }

    /// The index and the payloads, for re-wrapping the payloads around
    /// another index over the same ids.
    pub fn into_parts(self) -> (I, Vec<T>) {
        (self.index, self.docs)
    }

    /// Insert a (vector, payload) pair.
    pub fn add(&mut self, vector: dio_embed::Vector, doc: T) -> usize {
        let id = self.index.add(vector);
        debug_assert_eq!(id, self.docs.len());
        self.docs.push(doc);
        id
    }

    /// Top-k search returning payload references.
    pub fn search(&self, query: &dio_embed::Vector, k: usize) -> Vec<DocHit<'_, T>> {
        self.index
            .search(query, k)
            .into_iter()
            .map(|SearchHit { id, score }| DocHit {
                id,
                score,
                doc: &self.docs[id],
            })
            .collect()
    }

    /// Top-k search that also reports how many candidate vectors the
    /// underlying index scanned.
    pub fn search_with_stats(
        &self,
        query: &dio_embed::Vector,
        k: usize,
    ) -> (Vec<DocHit<'_, T>>, SearchStats) {
        let (hits, stats) = self.index.search_with_stats(query, k);
        (
            hits.into_iter()
                .map(|SearchHit { id, score }| DocHit {
                    id,
                    score,
                    doc: &self.docs[id],
                })
                .collect(),
            stats,
        )
    }

    /// Payload by id.
    pub fn get(&self, id: usize) -> Option<&T> {
        self.docs.get(id)
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The underlying index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Iterate payloads in id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.docs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use dio_embed::Vector;

    fn v(x: &[f32]) -> Vector {
        Vector(x.to_vec()).normalized()
    }

    #[test]
    fn add_and_search_returns_payloads() {
        let mut di: DocIndex<FlatIndex, &str> = DocIndex::new(FlatIndex::new(2));
        di.add(v(&[1.0, 0.0]), "auth requests");
        di.add(v(&[0.0, 1.0]), "pdu sessions");
        let hits = di.search(&v(&[0.9, 0.1]), 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].doc, "auth requests");
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn get_by_id() {
        let mut di: DocIndex<FlatIndex, String> = DocIndex::new(FlatIndex::new(2));
        di.add(v(&[1.0, 0.0]), "a".to_string());
        assert_eq!(di.get(0).map(|s| s.as_str()), Some("a"));
        assert_eq!(di.get(5), None);
        assert_eq!(di.len(), 1);
        assert!(!di.is_empty());
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_parts_rejects_mismatched_lengths() {
        let mut idx = FlatIndex::new(2);
        use crate::index::VectorIndex as _;
        idx.add(v(&[1.0, 0.0]));
        let _: DocIndex<FlatIndex, &str> = DocIndex::from_parts(idx, vec![]);
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut di: DocIndex<FlatIndex, u32> = DocIndex::new(FlatIndex::new(2));
        di.add(v(&[1.0, 0.0]), 10);
        di.add(v(&[0.0, 1.0]), 20);
        let all: Vec<u32> = di.iter().copied().collect();
        assert_eq!(all, vec![10, 20]);
    }
}
