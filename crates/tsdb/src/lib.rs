//! # dio-tsdb
//!
//! In-memory time-series database substrate.
//!
//! The paper executes generated PromQL "on a database comprising
//! synthetic yet representative data for different metrics" (§4.1).
//! This crate is that database: a Prometheus-shaped store of labelled
//! series plus a deterministic synthetic traffic generator that fills it
//! with operator-style data (diurnal counters, noisy gauges, coupled
//! attempt/success pairs).
//!
//! Semantics follow Prometheus where the reproduction depends on them:
//!
//! * a series is identified by its full label set including `__name__`;
//! * instant lookups return the most recent sample within a lookback
//!   window (default 5 minutes);
//! * range lookups return samples in `(t - range, t]`.
//!
//! The PromQL engine in `dio-promql` evaluates against
//! [`MetricStore`] through these two lookups.

pub mod chunk;
pub mod compress;
mod cursor;
pub mod durable;
pub mod generator;
pub mod labels;
pub mod matchers;
pub mod page_cache;
pub mod sample;
pub mod series;
pub mod snapshot;
pub mod storage;
pub mod wal;

pub use chunk::{Chunk, ChunkError, DecodedChunk, CHUNK_SIZE};
pub use compress::CodecError;
pub use durable::{DurableError, DurableStore, RecoveryReport};
pub use generator::{SeriesShape, SeriesSpec, SynthConfig, Synthesizer};
pub use labels::Labels;
pub use matchers::{MatchOp, Matcher};
pub use page_cache::{PageCache, PageCacheStats, DEFAULT_PAGE_CACHE_BYTES};
pub use sample::Sample;
pub use series::{Series, SeriesCols};
pub use snapshot::{fsck_snapshot, write_snapshot, FsckReport, SNAPSHOT_VERSION};
pub use storage::MetricStore;
pub use wal::{Wal, WalRecord, WalRecovery};

/// Milliseconds-since-epoch timestamp type used across the stack.
pub type TimestampMs = i64;

/// Default Prometheus lookback window for instant queries: 5 minutes.
pub const DEFAULT_LOOKBACK_MS: i64 = 5 * 60 * 1000;
