//! # dio-embed
//!
//! Deterministic sentence-embedding substrate for DIO copilot.
//!
//! The paper embeds metric descriptions and user questions with the
//! sentence-BERT `all-MiniLM-L6-v2` model (384 dimensions, unit-norm
//! output) and retrieves context by cosine similarity. That model is a
//! network-delivered neural checkpoint, so this crate substitutes a fully
//! deterministic embedder with the same *interface contract*:
//!
//! * fixed dimensionality (default 384),
//! * L2-normalised output vectors,
//! * semantically close texts (shared vocabulary, shared character
//!   n-grams, domain-synonym overlap) land close in cosine space.
//!
//! The embedder combines three feature families, each hashed into the
//! output space with a signed feature hash (the classic "hashing trick"):
//!
//! 1. **word unigrams** weighted by smoothed inverse document frequency
//!    fitted on the corpus being indexed,
//! 2. **character n-grams** (fastText-style, default 3..=5) which give
//!    robustness to the underscore-glued counter names that dominate
//!    operator data (`amfcc_n1_auth_request`),
//! 3. **domain lexicon expansions** which map telecom abbreviations to
//!    their spelled-out forms (and back) so that "AMF" and "access and
//!    mobility management function" share features.
//!
//! ```
//! use dio_embed::{Embedder, EmbedderConfig};
//!
//! let corpus = [
//!     "The number of authentication requests sent by AMF.",
//!     "Total bytes forwarded on the N3 interface by UPF.",
//! ];
//! let embedder = Embedder::fit(&EmbedderConfig::default(), corpus.iter().copied());
//! let q = embedder.embed("how many authentication requests did the AMF send");
//! let a = embedder.embed(corpus[0]);
//! let b = embedder.embed(corpus[1]);
//! assert!(dio_embed::cosine(&q, &a) > dio_embed::cosine(&q, &b));
//! ```

#![forbid(unsafe_code)]

mod embedder;
mod hashing;
mod idf;
mod lexicon;
mod similarity;
mod tokenize;
mod vector;

pub use embedder::{Embedder, EmbedderConfig};
pub use lexicon::Lexicon;
pub use similarity::{cosine, cosine_with_norms, dot, top_k_by, Scored};
pub use tokenize::{content_words, words, WordBuf};
pub use vector::Vector;
