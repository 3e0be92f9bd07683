//! The deterministic sentence embedder.
//!
//! Stands in for sentence-BERT `all-MiniLM-L6-v2` (see crate docs for the
//! substitution argument). The output contract matches MiniLM: fixed
//! 384-dim, unit-norm vectors where semantically related operator-domain
//! texts have high cosine similarity.

use crate::hashing::FeatureHash;
use crate::idf::IdfTable;
use crate::lexicon::Lexicon;
use crate::tokenize::WordBuf;
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
        let mut words = WordBuf::new();
        for doc in corpus {
            let range = words.push_text(doc);
            idf.add_document(words.content_words(range));
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
    ///
    /// No feature is built as a string (see `hashing`), and features are
    /// summed in a fixed order: f32 addition is not associative.
    pub fn embed(&self, text: &str) -> Vector {
        let cfg = &self.config;
        let mut out = vec![0.0f32; cfg.dims];
        let mut words = WordBuf::new();
        let range = words.push_text(text);
        let tokens: Vec<&str> = words.content_words(range).collect();
        let seed = FeatureHash::new(cfg.seed);
        let word = seed.with("w:");

        // 1. IDF-weighted word unigrams.
        for tok in &tokens {
            let w = WORD_WEIGHT * self.idf.idf(tok);
            word.with(tok).add(w, &mut out);
        }

        // 2. Word bigrams (procedure phrases): `b:{a}_{b}`.
        for pair in tokens.windows(2) {
            let h = seed.with("b:").with(pair[0]).with("_").with(pair[1]);
            h.add(BIGRAM_WEIGHT, &mut out);
        }

        // 3. Character n-grams (robust to glued counter names and typos):
        //    the 3- to 5-char windows of `<tok>`, cut at char boundaries.
        let gram = seed.with("c:");
        let (mut wrapped, mut cuts) = (String::new(), Vec::new());
        for tok in &tokens {
            wrapped.clear();
            wrapped.extend(["<", tok, ">"]);
            cuts.clear();
            let bounds = wrapped.char_indices().map(|(i, _)| i);
            cuts.extend(bounds.chain([wrapped.len()]));
            for n in NGRAM_MIN..=NGRAM_MAX.min(cuts.len() - 1) {
                for w in cuts.windows(n + 1) {
                    gram.with(&wrapped[w[0]..w[n]]).add(CHAR_WEIGHT, &mut out);
                }
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
                        word.with(e).add(w, &mut out);
                    }
                }
            }
        }

        let mut v = Vector(out);
        v.normalize();
        v
    }
}

/// The embedder as it was before features were streamed — one `String`
/// per feature, each hashed twice: the oracle the streamed path is held
/// to, bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::hashing::oracle::accumulate;
    use crate::tokenize::{char_ngrams, content_words, word_bigrams};

    pub(super) fn fit(config: &EmbedderConfig, corpus: &[&str]) -> Embedder {
        let mut idf = IdfTable::default();
        for doc in corpus {
            let toks = content_words(doc);
            idf.add_document_oracle(toks.iter().map(|s| s.as_str()));
        }
        Embedder {
            config: config.clone(),
            idf,
            lexicon: Lexicon::telecom(),
        }
    }

    pub(super) fn embed(e: &Embedder, text: &str) -> Vector {
        let cfg = &e.config;
        let mut out = vec![0.0f32; cfg.dims];
        let tokens = content_words(text);
        if tokens.is_empty() {
            return Vector(out);
        }
        for tok in &tokens {
            let w = WORD_WEIGHT * e.idf.idf(tok);
            accumulate(&format!("w:{tok}"), w, &mut out, cfg.seed);
        }
        for bg in word_bigrams(&tokens) {
            accumulate(&format!("b:{bg}"), BIGRAM_WEIGHT, &mut out, cfg.seed);
        }
        for tok in &tokens {
            for g in char_ngrams(tok, NGRAM_MIN, NGRAM_MAX) {
                accumulate(&format!("c:{g}"), CHAR_WEIGHT, &mut out, cfg.seed);
            }
        }
        if cfg.lexicon_weight > 0.0 {
            for tok in &tokens {
                if let Some(exp) = e.lexicon.expand(tok) {
                    for ex in exp {
                        let w = cfg.lexicon_weight * e.idf.idf(ex);
                        accumulate(&format!("w:{ex}"), w, &mut out, cfg.seed);
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
    use proptest::prelude::*;

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

    /// Every component's bits.
    fn bits(v: &Vector) -> Vec<u32> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Fits both configs on `corpus` by the new path and by the oracle,
    /// and compares the IDF tables and the bits of every embed of
    /// `texts`, of the corpus, and of each run together. A third, 7-dim
    /// config crowds many features into each bucket, where summing them
    /// in another order would change the bits.
    fn agrees_with_oracle(corpus: &[&str], texts: &[&str]) -> Result<(), String> {
        let crowded = EmbedderConfig {
            dims: 7,
            ..EmbedderConfig::default()
        };
        let joined = [texts.join(" "), corpus.join(" ")];
        let all = texts.iter().chain(corpus).copied();
        let all: Vec<&str> = all.chain(joined.iter().map(String::as_str)).collect();
        for config in [
            EmbedderConfig::default(),
            EmbedderConfig::generic(),
            crowded,
        ] {
            let new = Embedder::fit(&config, corpus.iter().copied());
            let old = oracle::fit(&config, corpus);
            if new.idf != old.idf {
                return Err(format!("IDF tables differ on {corpus:?}"));
            }
            for t in &all {
                if bits(&new.embed(t)) != bits(&oracle::embed(&old, t)) {
                    return Err(format!(
                        "bits differ on {t:?} (lexicon {})",
                        config.lexicon_weight
                    ));
                }
            }
        }
        Ok(())
    }

    /// `stem` with `ch` written in at char position `at` (clamped).
    fn insert_at(stem: &str, at: usize, ch: &str) -> String {
        let byte = stem.char_indices().nth(at).map_or(stem.len(), |(i, _)| i);
        format!("{}{ch}{}", &stem[..byte], &stem[byte..])
    }

    const MULTIBYTE: [&str; 5] = ["Σ", "İ", "ß", "œ", "€"];

    #[test]
    fn probes_match_the_oracle_bit_for_bit() {
        let mut texts: Vec<String> = [
            "",
            "   !!! ",
            "--- (.) —",
            "what is this",
            "the of and",
            "ΟΔΟΣ ΣΟΣ",
            "İstanbul5G x",
            "Straße cœur œ",
            "amfcc_n1_auth_request amfcc_n2_paging_attempt",
            "a b c ab n1 5g x9",
            "section 8.2.1 of 3GPP TS 24.501",
            "débit montant du UPF — 5G cœur",
            "UPF downlink bytes user plane function AMF",
        ]
        .map(String::from)
        .to_vec();
        // A multi-byte char at every position of a token, so at every
        // position of each of its n-grams.
        for ch in MULTIBYTE {
            for at in 0..=6 {
                texts.push(insert_at("abcdef", at, ch));
                texts.push(insert_at("amf", at, ch));
                texts.push(insert_at("n", at, ch));
            }
        }
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        agrees_with_oracle(&corpus(), &texts).unwrap();
        agrees_with_oracle(&texts, &corpus()).unwrap();
        agrees_with_oracle(&[], &texts).unwrap();
    }

    proptest! {
        #[test]
        fn embed_matches_the_oracle_bit_for_bit(
            pieces in prop::collection::vec(
                prop::sample::select(vec![
                    "amfcc_n1_auth_request", "UPF", "n3", "ab", "x", "5g", "24.501",
                    "the", "of", "what", "is", "Σ", "ΟΔΟΣ", "İstanbul", "ß", "Straße",
                    "œ", "cœur", "registration", "auth", "amf", "!!!", "—", "",
                ]),
                0..10,
            ),
            seps in prop::collection::vec(
                prop::sample::select(vec![" ", "_", ".", " — ", "", "-", "\n"]),
                10..11,
            ),
            stem in "[a-z0-9]{0,7}",
            at in 0usize..8,
            ch in prop::sample::select(MULTIBYTE.to_vec()),
            noise in "[a-zA-Z0-9_ .,!ΣİßœÉ-]{0,24}",
        ) {
            let mut glued = String::new();
            for (piece, sep) in pieces.iter().zip(&seps) {
                glued.push_str(piece);
                glued.push_str(sep);
            }
            let word = insert_at(&stem, at, ch);
            let all = format!("{glued} {word} {noise}");
            let texts = [glued.as_str(), word.as_str(), noise.as_str(), all.as_str()];
            let mut corpus = corpus();
            corpus.extend(texts);
            let verdict = agrees_with_oracle(&corpus, &texts);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }

        #[test]
        fn fitted_idf_table_equals_the_oracle(
            docs in prop::collection::vec("[a-zA-Z0-9_ .!ΣİßœÉ-]{0,40}", 0..12),
        ) {
            let docs: Vec<&str> = docs.iter().map(String::as_str).collect();
            let config = EmbedderConfig::default();
            let new = Embedder::fit(&config, docs.iter().copied());
            prop_assert!(new.idf == oracle::fit(&config, &docs).idf, "IDF tables differ on {docs:?}");
        }
    }
}
