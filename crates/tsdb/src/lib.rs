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
//!
//! Durability is a write-ahead log ([`Wal`]) of checksummed frames
//! (`framing`, CRC-32 in `crc32`), one binary record per appended
//! sample; `dio-cluster` keeps one per shard copy and ships it to
//! replicas.

mod chunk;
mod compress;
mod crc32;
mod cursor;
mod framing;
mod generator;
mod labels;
mod matchers;
mod page_cache;
mod sample;
mod series;
mod storage;
mod wal;

pub use chunk::{Chunk, ChunkError, CHUNK_SIZE};
pub use framing::{encode_record, frames, Frame, FRAME_HEADER_LEN, MAGIC};
pub use generator::{SeriesSpec, SynthConfig, Synthesizer};
pub use labels::{Labels, NAME_LABEL};
pub use matchers::{pattern_match, MatchOp, Matcher};
pub use page_cache::PageCacheStats;
pub use sample::Sample;
pub use series::{AppendError, Series};
pub use storage::MetricStore;
pub use wal::{recover, Replay, Scan, Scanned, Wal, WalEntry, WalRecord};

/// Default Prometheus lookback window for instant queries: 5 minutes.
pub const DEFAULT_LOOKBACK_MS: i64 = 5 * 60 * 1000;
