//! # dio-gateway
//!
//! The model-plane gateway: everything that stands between the serving
//! tier's workers and the (expensive, rate-limited) foundation model.
//!
//! PromCopilot-style NL→PromQL traffic is **duplicate-heavy**: a fleet
//! of operators watching the same incident asks the same handful of
//! questions, phrased with minor variations, within seconds of each
//! other. The paper's cost numbers (§4.2.5: ~4¢ per GPT-4 answer, most
//! of it the re-sent catalog+exemplar prefix) make that duplication the
//! single largest avoidable line item. This crate removes it in two
//! layers, ordered cheapest-first, in front of the one that calls the
//! model:
//!
//! 1. `singleflight` — concurrent *identical* (normalized) questions
//!    coalesce: one leader computes, followers clone the result.
//!    Answer-shaped, sits at the question level in `dio-serve`.
//! 2. `semantic` — *near*-duplicates (paraphrases) are served from an
//!    embedding-similarity cache behind the exact caches, gated by a
//!    cosine floor and the knowledge-generation atomic.
//! 3. `model` — what still reaches the model goes upstream as one call
//!    per ask, the paper's pricing unit, and no call waits on another.
//!    The front bills each call once, counts it, and fails a request
//!    whose deadline has already lapsed without sending it.
//!
//! `normalize` hosts the question normalizer both the serve-tier
//! answer cache and the singleflight keyer share (serve re-exports it),
//! so the two planes cannot drift.

mod model;
mod normalize;
mod semantic;
mod singleflight;

pub use model::{FlushRecord, ModelGateway};
pub use normalize::normalize_question;
pub use semantic::{Probe, SemanticCache, SemanticConfig, SemanticStats};
pub use singleflight::{FollowerOutcome, Join, Singleflight};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_types_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Singleflight<String>>();
        assert_send_sync::<SemanticCache<String>>();
        assert_send_sync::<ModelGateway>();
    }
}
