//! # dio-vecstore
//!
//! Vector index substrate — the FAISS substitute for DIO copilot.
//!
//! The paper stores metric-description embeddings in FAISS and retrieves
//! the top-29 most cosine-similar samples for each user question. FAISS
//! is a C++/GPU library; this crate provides the same capability natively:
//!
//! * [`FlatIndex`] — exact brute-force cosine search (FAISS `IndexFlatIP`
//!   over normalised vectors) and the only owner of rows (row-major for
//!   whoever reads a row, dimension-major for the full scan) and their
//!   cached norms,
//! * [`IvfIndex`] — a k-means coarse quantiser and id-only inverted
//!   lists over a `FlatIndex` (FAISS `IndexIVFFlat`), trading recall for
//!   rows scanned via `nprobe`,
//! * [`DocIndex`] — an index paired with owned document payloads, the
//!   form the copilot's context extractor actually uses.
//!
//! Every index type implements serde's `Serialize`/`Deserialize` (FAISS
//! `write_index`); decoding validates shape and rejects non-finite rows.
//!
//! All search paths are deterministic: equal scores tie-break on insert
//! order.

#![forbid(unsafe_code)]

mod doc;
mod flat;
mod index;
mod ivf;
mod kmeans;

pub use doc::DocIndex;
pub use flat::FlatIndex;
pub use index::{SearchHit, VectorIndex};
pub use ivf::{IvfConfig, IvfIndex};
