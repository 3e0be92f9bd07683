//! # dio-vecstore
//!
//! Vector index substrate — the FAISS substitute for DIO copilot.
//!
//! The paper stores metric-description embeddings in FAISS and retrieves
//! the top-29 most cosine-similar samples for each user question. At
//! that corpus size (≈ 3 000 descriptions) FAISS's answer is
//! `IndexFlatIP`, an exact flat search; this crate provides it natively:
//!
//! * [`FlatIndex`] — exact brute-force cosine search (FAISS `IndexFlatIP`
//!   over normalised vectors), scanned over a half-width copy and
//!   rescored exactly (`IndexRefineFlat` over a bf16 scalar quantiser),
//!   and the only owner of rows (row-major `f32` for whoever reads a row
//!   and for rescoring, a dimension-major bf16 copy for the full scan)
//!   and their cached norms,
//! * [`DocIndex`] — an index paired with owned document payloads, the
//!   form the copilot's context extractor actually uses.
//!
//! [`FlatIndex`] implements serde's `Serialize`/`Deserialize` (FAISS
//! `write_index`); decoding validates shape and rejects non-finite rows.
//!
//! All search paths are deterministic: equal scores tie-break on insert
//! order.

#![forbid(unsafe_code)]

mod doc;
mod flat;
mod index;

pub use doc::DocIndex;
pub use flat::FlatIndex;
pub use index::{SearchHit, VectorIndex};
