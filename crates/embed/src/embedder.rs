//! The deterministic sentence embedder.
//!
//! Stands in for sentence-BERT `all-MiniLM-L6-v2` (see crate docs for the
//! substitution argument). The output contract matches MiniLM: fixed
//! 384-dim, unit-norm vectors where semantically related operator-domain
//! texts have high cosine similarity.

use crate::hashing::accumulate;
use crate::idf::IdfTable;
use crate::lexicon::Lexicon;
use crate::tokenize::{char_ngrams, content_words, word_bigrams};
use crate::vector::Vector;
use serde::{Deserialize, Serialize};

/// Character n-gram lengths, shortest and longest.
const NGRAM_MIN: usize = 3;
const NGRAM_MAX: usize = 5;
/// Weight of word-unigram features (multiplied by IDF).
const WORD_WEIGHT: f32 = 1.0;
/// Weight of word-bigram features.
const BIGRAM_WEIGHT: f32 = 0.6;
/// Weight of character n-gram features.
const CHAR_WEIGHT: f32 = 0.25;

/// Embedder hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbedderConfig {
    /// Output dimensionality (MiniLM uses 384).
    pub dims: usize,
    /// Weight of lexicon-expansion features.
    pub lexicon_weight: f32,
    /// Hash seed — changing it produces an incompatible embedding space.
    pub seed: u64,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        EmbedderConfig {
            dims: 384,
            lexicon_weight: 0.7,
            seed: 0x5eed_d10c_0b11_a7e5,
        }
    }
}

impl EmbedderConfig {
    /// A "generic" embedder with no domain lexicon weighting — used by
    /// the §5.3 ablation (generic vs network-specific embedding model).
    pub fn generic() -> Self {
        EmbedderConfig {
            lexicon_weight: 0.0,
            ..EmbedderConfig::default()
        }
    }
}

/// A fitted sentence embedder. Create with [`Embedder::fit`] (corpus
/// IDF + telecom lexicon).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedder {
    config: EmbedderConfig,
    idf: IdfTable,
    lexicon: Lexicon,
}

impl Embedder {
    /// Fit IDF statistics on `corpus` and attach the built-in telecom
    /// lexicon.
    pub fn fit<'a, I>(config: &EmbedderConfig, corpus: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut idf = IdfTable::default();
        for doc in corpus {
            let toks = content_words(doc);
            idf.add_document(toks.iter().map(|s| s.as_str()));
        }
        Embedder {
            config: config.clone(),
            idf,
            lexicon: Lexicon::telecom(),
        }
    }

    /// Output dimensionality.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// Embed a text into a unit-norm vector.
    ///
    /// Empty or punctuation-only input yields the zero vector (the only
    /// non-unit-norm output), mirroring how retrieval treats an empty
    /// query as matching nothing.
    pub fn embed(&self, text: &str) -> Vector {
        let cfg = &self.config;
        let mut out = vec![0.0f32; cfg.dims];
        let tokens = content_words(text);
        if tokens.is_empty() {
            return Vector(out);
        }

        // 1. IDF-weighted word unigrams.
        for tok in &tokens {
            let w = WORD_WEIGHT * self.idf.idf(tok);
            accumulate(&format!("w:{tok}"), w, &mut out, cfg.seed);
        }

        // 2. Word bigrams (procedure phrases).
        for bg in word_bigrams(&tokens) {
            accumulate(&format!("b:{bg}"), BIGRAM_WEIGHT, &mut out, cfg.seed);
        }

        // 3. Character n-grams (robust to glued counter names and typos).
        for tok in &tokens {
            for g in char_ngrams(tok, NGRAM_MIN, NGRAM_MAX) {
                accumulate(&format!("c:{g}"), CHAR_WEIGHT, &mut out, cfg.seed);
            }
        }

        // 4. Lexicon expansions: abbreviation and spelled-out forms share
        //    features. Expansion features use the *word* namespace so the
        //    expansion of "amf" collides (intentionally) with the word
        //    feature of "mobility".
        if cfg.lexicon_weight > 0.0 {
            for tok in &tokens {
                if let Some(exp) = self.lexicon.expand(tok) {
                    for e in exp {
                        let w = cfg.lexicon_weight * self.idf.idf(e);
                        accumulate(&format!("w:{e}"), w, &mut out, cfg.seed);
                    }
                }
            }
        }

        let mut v = Vector(out);
        v.normalize();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine;

    fn corpus() -> Vec<&'static str> {
        vec![
            "The number of authentication requests sent by AMF. The AUTHENTICATION REQUEST message is defined in section 8.2.1 of 3GPP TS 24.501. 64-bit counter.",
            "The number of initial registration procedure attempts received by AMF.",
            "The number of PDU session establishment requests received by SMF.",
            "Total downlink bytes forwarded on the N3 interface by UPF. 64-bit counter.",
            "The number of NF discovery requests received by NRF.",
            "The number of paging procedures initiated by AMF.",
        ]
    }

    fn embedder() -> Embedder {
        Embedder::fit(&EmbedderConfig::default(), corpus())
    }

    #[test]
    fn output_is_unit_norm_and_right_dims() {
        let e = embedder();
        let v = e.embed("authentication requests sent by the AMF");
        assert_eq!(v.dims(), 384);
        assert!((v.norm() - 1.0).abs() < 1e-5);
        assert!(v.is_finite());
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = embedder();
        let v = e.embed("   !!! ");
        assert_eq!(v.norm(), 0.0);
    }

    #[test]
    fn embedding_is_deterministic() {
        let e1 = embedder();
        let e2 = embedder();
        assert_eq!(e1.embed("paging attempts"), e2.embed("paging attempts"));
    }

    #[test]
    fn question_is_closest_to_matching_description() {
        let e = embedder();
        let docs: Vec<Vector> = corpus().into_iter().map(|t| e.embed(t)).collect();
        let q = e.embed("how many authentication requests did the AMF send");
        let scores: Vec<f32> = docs.iter().map(|d| cosine(&q, d)).collect();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 0, "scores: {scores:?}");
    }

    #[test]
    fn abbreviation_and_expansion_are_similar() {
        let e = embedder();
        let a = e.embed("UPF downlink bytes");
        let b = e.embed("user plane function downstream traffic volume");
        let unrelated = e.embed("NRF discovery requests");
        assert!(cosine(&a, &b) > cosine(&a, &unrelated));
    }

    #[test]
    fn counter_name_matches_its_words() {
        let e = embedder();
        // Glued counter names decompose via tokenisation + char n-grams.
        let name = e.embed("amfcc_n1_auth_request");
        let desc = e.embed("authentication request messages on the N1 interface");
        let other = e.embed("downlink bytes forwarded by the user plane");
        assert!(cosine(&name, &desc) > cosine(&name, &other));
    }

    #[test]
    fn generic_config_disables_lexicon_effect() {
        let full = embedder();
        let generic = Embedder {
            config: EmbedderConfig::generic(),
            idf: full.idf.clone(),
            lexicon: Lexicon::telecom(),
        };
        let a = "UPF traffic";
        let b = "user plane function traffic";
        let sim_full = cosine(&full.embed(a), &full.embed(b));
        let sim_generic = cosine(&generic.embed(a), &generic.embed(b));
        assert!(
            sim_full > sim_generic,
            "lexicon should raise similarity: {sim_full} vs {sim_generic}"
        );
    }
}
