//! A vector index paired with owned document payloads.
//!
//! This is the shape the copilot's context extractor uses: each embedded
//! text sample (a metric description or a function definition) is stored
//! alongside its vector, and a hit's id reads its payload back.

use crate::index::VectorIndex;

/// Pairs any [`VectorIndex`] with a parallel payload store.
#[derive(Debug, Clone)]
pub struct DocIndex<I, T> {
    index: I,
    docs: Vec<T>,
}

impl<I: VectorIndex, T> DocIndex<I, T> {
    /// Wrap a pre-populated index whose ids already align with `docs`.
    pub fn from_parts(index: I, docs: Vec<T>) -> Self {
        assert_eq!(
            index.len(),
            docs.len(),
            "index and doc store must be the same length"
        );
        DocIndex { index, docs }
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
    fn get_by_id() {
        let idx = FlatIndex::from_vectors(2, [v(&[1.0, 0.0])]);
        let di: DocIndex<FlatIndex, String> = DocIndex::from_parts(idx, vec!["a".to_string()]);
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
}
