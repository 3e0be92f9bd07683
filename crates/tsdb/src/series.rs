//! A single time series: labels, sealed compressed chunks, and a
//! mutable append-only head.
//!
//! Samples live in two tiers. Appends go to a small in-order `head`
//! vector; every [`CHUNK_SIZE`](crate::chunk::CHUNK_SIZE) samples the
//! head is sealed into an immutable compressed [`Chunk`] (delta-of-
//! delta timestamps, XOR floats). Reads decode only the chunks that
//! overlap the requested time range — optionally through the shared
//! [`PageCache`] so repeated queries touch each chunk's codec once.

use crate::chunk::{Chunk, DecodedChunk, CHUNK_SIZE};
use crate::labels::Labels;
use crate::page_cache::PageCache;
use crate::sample::Sample;
use std::sync::Arc;

/// A labelled series: sealed chunks (time-ordered, non-overlapping)
/// followed by the mutable head.
#[derive(Debug, Clone)]
pub struct Series {
    labels: Labels,
    chunks: Vec<Chunk>,
    head: Vec<Sample>,
}

/// A series' full sample set decoded into columns, for the vectorized
/// executor. Timestamps are strictly increasing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesCols {
    /// Timestamp column (ms).
    pub ts: Vec<i64>,
    /// Value column.
    pub vals: Vec<f64>,
}

impl Series {
    /// An empty series with the given identity.
    pub fn new(labels: Labels) -> Self {
        Series {
            labels,
            chunks: Vec::new(),
            head: Vec::new(),
        }
    }

    /// Rebuild a series from recovered parts. Validates that chunks
    /// are in time order, non-overlapping, and strictly before every
    /// head sample; returns `None` when the parts do not line up (the
    /// caller quarantines).
    pub fn from_parts(labels: Labels, chunks: Vec<Chunk>, head: Vec<Sample>) -> Option<Series> {
        let mut last: Option<i64> = None;
        for c in &chunks {
            if last.is_some_and(|l| c.min_ts() <= l) {
                return None;
            }
            last = Some(c.max_ts());
        }
        for s in &head {
            if last.is_some_and(|l| s.timestamp_ms <= l) {
                return None;
            }
            last = Some(s.timestamp_ms);
        }
        Some(Series {
            labels,
            chunks,
            head,
        })
    }

    /// The series identity.
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// Sealed chunks, oldest first.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Unsealed head samples (newer than every chunk).
    pub fn head(&self) -> &[Sample] {
        &self.head
    }

    /// All samples in time order, decoded. A materialising copy — the
    /// query engines use range-bounded reads instead; this is for
    /// snapshots, shard hand-off, and tests.
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in &self.chunks {
            let d = decode_infallible(chunk);
            out.extend(d.ts.iter().zip(&d.vals).map(|(&t, &v)| Sample::new(t, v)));
        }
        out.extend_from_slice(&self.head);
        out
    }

    /// All samples as columns, decoding sealed chunks through `cache`.
    pub fn cols(&self, cache: &PageCache) -> SeriesCols {
        let n = self.len();
        let mut cols = SeriesCols {
            ts: Vec::with_capacity(n),
            vals: Vec::with_capacity(n),
        };
        for chunk in &self.chunks {
            let d = cache.get(chunk).expect("sealed chunk decodes");
            cols.ts.extend_from_slice(&d.ts);
            cols.vals.extend_from_slice(&d.vals);
        }
        for s in &self.head {
            cols.ts.push(s.timestamp_ms);
            cols.vals.push(s.value);
        }
        cols
    }

    /// Samples at or after `min_ts` as columns, decoding only the
    /// sealed chunks that can reach that bound (chunk min/max metadata
    /// needs no decode). Left-partial chunks are included whole — the
    /// caller's binary searches tolerate extra early samples.
    pub fn cols_from(&self, min_ts: i64, cache: &PageCache) -> SeriesCols {
        let kept: usize = self
            .chunks
            .iter()
            .filter(|c| c.max_ts() >= min_ts)
            .map(|c| c.len())
            .sum::<usize>()
            + self.head.len();
        let mut cols = SeriesCols {
            ts: Vec::with_capacity(kept),
            vals: Vec::with_capacity(kept),
        };
        for chunk in &self.chunks {
            if chunk.max_ts() < min_ts {
                continue;
            }
            let d = cache.get(chunk).expect("sealed chunk decodes");
            cols.ts.extend_from_slice(&d.ts);
            cols.vals.extend_from_slice(&d.vals);
        }
        cols.ts.extend(self.head.iter().map(|s| s.timestamp_ms));
        cols.vals.extend(self.head.iter().map(|s| s.value));
        cols
    }

    /// Number of samples (no decode).
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum::<usize>() + self.head.len()
    }

    /// True when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.chunks.is_empty()
    }

    /// Compressed bytes across sealed chunks (bench accounting).
    pub fn compressed_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.compressed_bytes()).sum()
    }

    /// Append a sample. Out-of-order appends (timestamp not strictly
    /// greater than the last) are rejected, mirroring Prometheus TSDB
    /// head-append rules. Every `CHUNK_SIZE` samples the head seals
    /// into a compressed chunk.
    pub fn append(&mut self, sample: Sample) -> Result<(), AppendError> {
        if let Some(last) = self.last_timestamp() {
            if sample.timestamp_ms <= last {
                return Err(AppendError::OutOfOrder {
                    last,
                    attempted: sample.timestamp_ms,
                });
            }
        }
        self.head.push(sample);
        if self.head.len() >= CHUNK_SIZE {
            self.chunks.push(Chunk::seal(&self.head));
            self.head.clear();
        }
        Ok(())
    }

    /// The most recent sample at or before `ts` and within `lookback_ms`
    /// of it — Prometheus instant-vector selection.
    pub fn sample_at(&self, ts: i64, lookback_ms: i64) -> Option<Sample> {
        self.sample_at_with(ts, lookback_ms, None)
    }

    /// [`Series::sample_at`] decoding through the page cache.
    pub fn sample_at_cached(&self, ts: i64, lookback_ms: i64, cache: &PageCache) -> Option<Sample> {
        self.sample_at_with(ts, lookback_ms, Some(cache))
    }

    fn sample_at_with(&self, ts: i64, lookback_ms: i64, cache: Option<&PageCache>) -> Option<Sample> {
        // Head first: it is the newest tier.
        let idx = self.head.partition_point(|s| s.timestamp_ms <= ts);
        let s = if idx > 0 {
            self.head[idx - 1]
        } else {
            // Newest chunk whose first timestamp is <= ts.
            let ci = self.chunks.partition_point(|c| c.min_ts() <= ts);
            if ci == 0 {
                return None;
            }
            let d = self.decode_at(ci - 1, cache);
            let i = d.ts.partition_point(|&t| t <= ts);
            debug_assert!(i > 0, "chunk min_ts <= ts implies a hit");
            Sample::new(d.ts[i - 1], d.vals[i - 1])
        };
        if ts - s.timestamp_ms > lookback_ms {
            None
        } else {
            Some(s)
        }
    }

    /// Samples with timestamps in `(ts - range_ms, ts]` — Prometheus
    /// range-vector selection. Decodes only overlapping chunks.
    pub fn window(&self, ts: i64, range_ms: i64) -> Vec<Sample> {
        self.window_with(ts, range_ms, None)
    }

    /// [`Series::window`] decoding through the page cache.
    pub fn window_cached(&self, ts: i64, range_ms: i64, cache: &PageCache) -> Vec<Sample> {
        self.window_with(ts, range_ms, Some(cache))
    }

    fn window_with(&self, ts: i64, range_ms: i64, cache: Option<&PageCache>) -> Vec<Sample> {
        let start = ts - range_ms; // exclusive
        let mut out = Vec::new();
        let first = self.chunks.partition_point(|c| c.max_ts() <= start);
        for ci in first..self.chunks.len() {
            if self.chunks[ci].min_ts() > ts {
                break;
            }
            let d = self.decode_at(ci, cache);
            let lo = d.ts.partition_point(|&t| t <= start);
            let hi = d.ts.partition_point(|&t| t <= ts);
            out.extend(
                d.ts[lo..hi]
                    .iter()
                    .zip(&d.vals[lo..hi])
                    .map(|(&t, &v)| Sample::new(t, v)),
            );
        }
        let lo = self.head.partition_point(|s| s.timestamp_ms <= start);
        let hi = self.head.partition_point(|s| s.timestamp_ms <= ts);
        out.extend_from_slice(&self.head[lo..hi]);
        out
    }

    fn decode_at(&self, idx: usize, cache: Option<&PageCache>) -> Arc<DecodedChunk> {
        let chunk = &self.chunks[idx];
        match cache {
            Some(c) => c.get(chunk).expect("sealed chunk decodes"),
            None => Arc::new(decode_infallible(chunk)),
        }
    }

    /// Timestamp of the first sample.
    pub fn first_timestamp(&self) -> Option<i64> {
        self.chunks
            .first()
            .map(|c| c.min_ts())
            .or_else(|| self.head.first().map(|s| s.timestamp_ms))
    }

    /// Timestamp of the last sample.
    pub fn last_timestamp(&self) -> Option<i64> {
        self.head
            .last()
            .map(|s| s.timestamp_ms)
            .or_else(|| self.chunks.last().map(|c| c.max_ts()))
    }
}

/// Chunks sealed in-process (or validated on ingest) always decode;
/// damage is caught earlier by CRC framing.
fn decode_infallible(chunk: &Chunk) -> DecodedChunk {
    chunk.decode().expect("sealed chunk decodes")
}

/// Error from [`Series::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendError {
    /// The appended timestamp is not after the newest stored sample.
    OutOfOrder {
        /// Newest stored timestamp.
        last: i64,
        /// Rejected timestamp.
        attempted: i64,
    },
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::OutOfOrder { last, attempted } => write!(
                f,
                "out-of-order append: attempted ts {attempted} <= newest ts {last}"
            ),
        }
    }
}

impl std::error::Error for AppendError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with(samples: &[(i64, f64)]) -> Series {
        let mut s = Series::new(Labels::name_only("m"));
        for &(t, v) in samples {
            s.append(Sample::new(t, v)).unwrap();
        }
        s
    }

    #[test]
    fn append_keeps_order() {
        let s = series_with(&[(1000, 1.0), (2000, 2.0)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.first_timestamp(), Some(1000));
        assert_eq!(s.last_timestamp(), Some(2000));
    }

    #[test]
    fn out_of_order_append_rejected() {
        let mut s = series_with(&[(2000, 1.0)]);
        let err = s.append(Sample::new(2000, 2.0)).unwrap_err();
        assert!(matches!(err, AppendError::OutOfOrder { .. }));
        assert!(s.append(Sample::new(1000, 2.0)).is_err());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn sample_at_picks_latest_within_lookback() {
        let s = series_with(&[(1000, 1.0), (2000, 2.0), (3000, 3.0)]);
        assert_eq!(s.sample_at(2500, 5000), Some(Sample::new(2000, 2.0)));
        assert_eq!(s.sample_at(3000, 5000), Some(Sample::new(3000, 3.0)));
        // Exactly at the sample: included.
        assert_eq!(s.sample_at(1000, 5000), Some(Sample::new(1000, 1.0)));
    }

    #[test]
    fn sample_at_respects_lookback() {
        let s = series_with(&[(1000, 1.0)]);
        assert_eq!(s.sample_at(5000, 3000), None);
        assert_eq!(s.sample_at(4000, 3000), Some(Sample::new(1000, 1.0)));
    }

    #[test]
    fn sample_at_before_first_is_none() {
        let s = series_with(&[(1000, 1.0)]);
        assert_eq!(s.sample_at(999, 5000), None);
    }

    #[test]
    fn window_is_half_open() {
        let s = series_with(&[(1000, 1.0), (2000, 2.0), (3000, 3.0), (4000, 4.0)]);
        // (1000, 3000]
        let w = s.window(3000, 2000);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].timestamp_ms, 2000);
        assert_eq!(w[1].timestamp_ms, 3000);
    }

    #[test]
    fn window_empty_when_no_overlap() {
        let s = series_with(&[(1000, 1.0)]);
        assert!(s.window(5000, 1000).is_empty());
        assert!(s.window(500, 400).is_empty());
    }

    #[test]
    fn empty_series_behaviour() {
        let s = Series::new(Labels::name_only("m"));
        assert!(s.is_empty());
        assert_eq!(s.sample_at(1000, 1000), None);
        assert!(s.window(1000, 1000).is_empty());
        assert_eq!(s.first_timestamp(), None);
    }

    // --- chunked-tier behaviour ---

    fn long_series(n: usize) -> (Series, Vec<Sample>) {
        let mut s = Series::new(Labels::name_only("m"));
        let mut all = Vec::with_capacity(n);
        for i in 0..n {
            let smp = Sample::new(1_000 + i as i64 * 500, (i as f64 * 0.1).cos());
            s.append(smp).unwrap();
            all.push(smp);
        }
        (s, all)
    }

    #[test]
    fn seals_at_chunk_size() {
        let (s, all) = long_series(CHUNK_SIZE * 3 + 17);
        assert_eq!(s.chunks().len(), 3);
        assert_eq!(s.head().len(), 17);
        assert_eq!(s.len(), all.len());
        assert_eq!(s.samples(), all);
        assert!(s.compressed_bytes() > 0);
        assert!(s.compressed_bytes() < CHUNK_SIZE * 3 * 16);
    }

    #[test]
    fn reads_cross_chunk_boundaries() {
        let (s, all) = long_series(CHUNK_SIZE * 2 + 10);
        // Window spanning the seam between chunk 0 and chunk 1.
        let seam_ts = all[CHUNK_SIZE + 5].timestamp_ms;
        let w = s.window(seam_ts, 10 * 500);
        assert_eq!(w.len(), 10);
        assert_eq!(w.last().unwrap().timestamp_ms, seam_ts);
        // Instant lookups inside sealed chunks.
        for probe in [0, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE * 2 + 3] {
            assert_eq!(s.sample_at(all[probe].timestamp_ms, 1), Some(all[probe]));
        }
    }

    #[test]
    fn cached_reads_match_uncached() {
        let (s, all) = long_series(CHUNK_SIZE * 2 + 5);
        let cache = PageCache::new();
        let ts = all[CHUNK_SIZE + 2].timestamp_ms;
        assert_eq!(s.window_cached(ts, 4_000, &cache), s.window(ts, 4_000));
        assert_eq!(
            s.sample_at_cached(ts + 1, 5_000, &cache),
            s.sample_at(ts + 1, 5_000)
        );
        assert!(cache.stats().misses > 0);
        let cols = s.cols(&cache);
        assert_eq!(cols.ts.len(), all.len());
        assert_eq!(cols.vals[7], all[7].value);
    }

    #[test]
    fn from_parts_validates_ordering() {
        let (s, _) = long_series(CHUNK_SIZE * 2 + 3);
        let rebuilt = Series::from_parts(
            s.labels().clone(),
            s.chunks().to_vec(),
            s.head().to_vec(),
        )
        .expect("valid parts");
        assert_eq!(rebuilt.samples(), s.samples());
        // Chunks out of order: rejected.
        let mut chunks = s.chunks().to_vec();
        chunks.swap(0, 1);
        assert!(Series::from_parts(s.labels().clone(), chunks, vec![]).is_none());
        // Head overlapping the chunks: rejected.
        assert!(Series::from_parts(
            s.labels().clone(),
            s.chunks().to_vec(),
            vec![Sample::new(s.chunks()[0].max_ts(), 1.0)],
        )
        .is_none());
    }
}
