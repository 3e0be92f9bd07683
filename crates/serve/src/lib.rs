//! # dio-serve
//!
//! The concurrent multi-tenant query service over the DIO copilot.
//!
//! The paper's copilot is a single-operator loop: one question in, one
//! answer out. A deployed analytics service fields many operators (and
//! dashboards auto-refreshing on their behalf) against one resident
//! copy of the telemetry, the catalog, and the vector index. This
//! crate adds that serving tier without taking on an async runtime:
//! plain `std::thread` workers, a mutex-and-condvar admission queue,
//! and `Arc`-shared read-only pipeline state.
//!
//! Layers, bottom to top:
//!
//! * `cache` — the knowledge-generation LRU behind both the answer
//!   cache and the embedding cache;
//! * `tenant` — per-tenant fair-share token buckets;
//! * `admission` — the bounded earliest-deadline-first queue and the
//!   [`ShedReason`] taxonomy;
//! * `brownout` — the adaptive degradation ladder the service steps
//!   through under sustained pressure before it resorts to shedding;
//! * `service` — [`QueryService`]: worker pool, request path,
//!   instrumentation.
//!
//! Load shedding is explicit and observable: every refusal carries a
//! [`ShedReason`] plus a `retry_after` hint derived from live queue
//! pressure, and is counted in `dio_serve_shed_total{reason=...}`.
//! Accepted requests are never dropped — shutdown drains the queue
//! before the workers exit. Every request also carries a
//! [`dio_obs::Budget`] (deadline + cancellation) created at submit:
//! workers check it between stages and the pipeline checks it before
//! every model call, so no work happens past a lapsed deadline.

#![deny(missing_docs)]

mod admission;
mod brownout;
mod cache;
mod service;
mod tenant;

pub use admission::ShedReason;
pub use brownout::{BrownoutConfig, BrownoutLevel};
/// Cache-key normalization: the gateway's own function, because two
/// planes key on it — this tier's `(eval_ts, normalized question)`
/// answer cache and the gateway's singleflight coalescer — and one
/// function cannot drift from itself.
pub use dio_gateway::normalize_question;
pub use service::{
    GatewayConfig, QueryRequest, QueryService, ServeConfig, ServeOutcome, ServedAnswer, Shed,
    Ticket,
};
pub use tenant::TenantPolicy;

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}

    /// The whole serving plane must be shareable across worker
    /// threads; this is the compile-time contract the thread pool
    /// relies on. (`QueryService` itself moves tickets around, so it
    /// only needs `Send + Sync` for the `&self` submit path.)
    #[test]
    fn serving_types_are_thread_safe() {
        assert_send_sync::<QueryService>();
        assert_send_sync::<admission::AdmissionQueue<String>>();
        assert_send_sync::<cache::GenLru<String>>();
        assert_send_sync::<tenant::RateLimiter>();
        assert_send_sync::<ServeConfig>();
        assert_send_sync::<ShedReason>();
        assert_send::<Ticket>();
        assert_send::<ServeOutcome>();
        assert_send::<QueryRequest>();
    }
}
