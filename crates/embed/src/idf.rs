//! Inverse document frequency statistics fitted on a corpus.
//!
//! The embedder weights word features by smoothed IDF so that rare,
//! discriminative tokens (`lcs`, `nssai`, `paging`) dominate over the
//! boilerplate shared by every metric description ("the number of").

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Document-frequency table with smoothed IDF lookup.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct IdfTable {
    doc_count: usize,
    doc_freq: HashMap<String, u32>,
}

impl IdfTable {
    /// Add one document's tokens to the statistics. Duplicate tokens in
    /// the same document count once (document frequency, not term
    /// frequency). Only a token the table has never seen allocates.
    pub(crate) fn add_document<'a, D>(&mut self, tokens: D)
    where
        D: IntoIterator<Item = &'a str>,
    {
        self.doc_count += 1;
        let mut seen: Vec<&str> = tokens.into_iter().collect();
        seen.sort_unstable();
        seen.dedup();
        for tok in seen {
            if let Some(df) = self.doc_freq.get_mut(tok) {
                *df += 1;
            } else {
                self.doc_freq.insert(tok.to_owned(), 1);
            }
        }
    }

    /// Smoothed IDF: `ln((1 + N) / (1 + df)) + 1`.
    ///
    /// Unseen tokens get the highest weight (df = 0) — exactly what the
    /// retrieval stage wants for novel jargon in a user question. On an
    /// empty table every token has weight 1.
    pub(crate) fn idf(&self, token: &str) -> f32 {
        let df = self.doc_freq.get(token).copied().unwrap_or(0) as f32;
        let n = self.doc_count as f32;
        ((1.0 + n) / (1.0 + df)).ln() + 1.0
    }
}

#[cfg(test)]
impl IdfTable {
    /// [`IdfTable::add_document`] as it was before it stopped allocating
    /// a key per (document, token) pair: the fit oracle's.
    pub(crate) fn add_document_oracle<'a, D>(&mut self, tokens: D)
    where
        D: IntoIterator<Item = &'a str>,
    {
        self.doc_count += 1;
        let mut seen: Vec<&str> = tokens.into_iter().collect();
        seen.sort_unstable();
        seen.dedup();
        for tok in seen {
            *self.doc_freq.entry(tok.to_string()).or_insert(0) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IdfTable {
        let mut table = IdfTable::default();
        for doc in [
            ["the", "number", "of", "auth", "requests"],
            ["the", "number", "of", "paging", "attempts"],
            ["the", "count", "of", "pdu", "sessions"],
        ] {
            table.add_document(doc);
        }
        table
    }

    /// Document frequency of a token (0 when unseen).
    fn doc_freq(table: &IdfTable, token: &str) -> u32 {
        table.doc_freq.get(token).copied().unwrap_or(0)
    }

    #[test]
    fn counts_documents_and_vocab() {
        let t = sample();
        assert_eq!(t.doc_count, 3);
        assert_eq!(doc_freq(&t, "the"), 3);
        assert_eq!(doc_freq(&t, "auth"), 1);
        assert_eq!(doc_freq(&t, "missing"), 0);
    }

    #[test]
    fn duplicates_in_one_doc_count_once() {
        let mut t = IdfTable::default();
        t.add_document(vec!["auth", "auth", "auth"]);
        assert_eq!(doc_freq(&t, "auth"), 1);
    }

    #[test]
    fn rare_tokens_weigh_more_than_common() {
        let t = sample();
        assert!(t.idf("auth") > t.idf("the"));
        assert!(t.idf("unseen_jargon") >= t.idf("auth"));
    }

    #[test]
    fn idf_on_empty_table_is_one() {
        let t = IdfTable::default();
        assert!((t.idf("anything") - 1.0).abs() < 1e-6);
    }

    #[test]
    fn idf_is_always_positive() {
        let t = sample();
        for tok in ["the", "of", "auth", "zzz"] {
            assert!(t.idf(tok) > 0.0);
        }
    }
}
