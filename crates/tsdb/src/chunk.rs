//! Immutable sealed chunks: the unit of compression and caching.
//!
//! A [`Chunk`] holds a fixed-size run of one series' samples as two
//! independently compressed columns — delta-of-delta timestamps and
//! XOR floats (see [`crate::compress`]). Once sealed a chunk never
//! changes, which is what makes the decoded-chunk page cache sound:
//! every chunk carries a process-unique id assigned at seal (or
//! decode) time, and clones share the id because they share the bytes.
//!
//! On-the-wire layout of [`Chunk::to_bytes`] (inside a WAL-format CRC
//! frame, so bit flips and truncation are caught before the codecs
//! ever run):
//!
//! ```text
//! u32  sample count          (little endian)
//! u32  ts column byte length
//! u32  value column byte length
//! [ts column bytes] [value column bytes]
//! ```

use crate::compress::{float, int, BitReader, BitSource, BitWriter, CodecError};
use crate::framing::{decode_all, encode_record};
use crate::sample::Sample;
use std::sync::atomic::{AtomicU64, Ordering};

/// Samples per sealed chunk. 256 keeps decode latency tiny while
/// amortising the codec headers; Prometheus TSDB seals at ~120.
pub const CHUNK_SIZE: usize = 256;

static NEXT_CHUNK_ID: AtomicU64 = AtomicU64::new(1);

fn next_chunk_id() -> u64 {
    NEXT_CHUNK_ID.fetch_add(1, Ordering::Relaxed)
}

/// Structured chunk decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// The CRC frame around the chunk was damaged or truncated.
    Frame {
        /// Corrupt (checksum-failed) frames seen.
        corrupt_frames: usize,
        /// The bytes ended mid-frame.
        truncated_tail: bool,
    },
    /// The frame was intact but did not hold exactly one record.
    BadFrameCount(usize),
    /// The chunk header was too short or internally inconsistent.
    BadHeader,
    /// A column failed to decode.
    Codec(CodecError),
    /// Timestamps decoded but were not strictly increasing.
    UnsortedTimestamps,
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::Frame {
                corrupt_frames,
                truncated_tail,
            } => write!(
                f,
                "chunk frame damaged (corrupt={corrupt_frames}, truncated={truncated_tail})"
            ),
            ChunkError::BadFrameCount(n) => write!(f, "expected 1 chunk record, found {n}"),
            ChunkError::BadHeader => write!(f, "chunk header malformed"),
            ChunkError::Codec(e) => write!(f, "column decode failed: {e}"),
            ChunkError::UnsortedTimestamps => write!(f, "decoded timestamps not increasing"),
        }
    }
}

impl std::error::Error for ChunkError {}

impl From<CodecError> for ChunkError {
    fn from(e: CodecError) -> Self {
        ChunkError::Codec(e)
    }
}

/// A sealed, immutable, compressed run of samples.
#[derive(Debug, Clone)]
pub struct Chunk {
    id: u64,
    count: u32,
    min_ts: i64,
    max_ts: i64,
    ts_bytes: Vec<u8>,
    val_bytes: Vec<u8>,
}

/// A chunk decoded back into columns. Cached (behind `Arc`) by the
/// page cache; never mutated after construction.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedChunk {
    /// Timestamp column, strictly increasing.
    pub ts: Vec<i64>,
    /// Value column, bit-exact with what was sealed.
    pub vals: Vec<f64>,
}

impl DecodedChunk {
    /// Approximate heap footprint, used for cache accounting.
    pub fn byte_size(&self) -> usize {
        self.ts.len() * 8 + self.vals.len() * 8
    }
}

impl Chunk {
    /// Seal a run of samples (strictly increasing timestamps) into a
    /// compressed chunk.
    ///
    /// # Panics
    /// On an empty run — callers seal only full or flushed non-empty
    /// heads.
    pub fn seal(samples: &[Sample]) -> Chunk {
        let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
            panic!("cannot seal an empty chunk");
        };
        // Each column is finished, and trimmed, before the next one
        // reserves its bound.
        let mut tw = BitWriter::with_capacity(int::max_bits(samples.len()));
        int::encode_timestamps(samples, &mut tw);
        let ts_bytes = tw.into_bytes();
        let mut vw = BitWriter::with_capacity(float::max_bits(samples.len()));
        float::encode_values(samples, &mut vw);
        Chunk {
            id: next_chunk_id(),
            count: samples.len() as u32,
            min_ts: first.timestamp_ms,
            max_ts: last.timestamp_ms,
            ts_bytes,
            val_bytes: vw.into_bytes(),
        }
    }

    /// Process-unique id (page-cache key).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of samples sealed in.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Sealed chunks are never empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest (first) timestamp.
    pub fn min_ts(&self) -> i64 {
        self.min_ts
    }

    /// Largest (last) timestamp.
    pub fn max_ts(&self) -> i64 {
        self.max_ts
    }

    /// Compressed payload size in bytes (both columns, no framing).
    pub fn compressed_bytes(&self) -> usize {
        self.ts_bytes.len() + self.val_bytes.len()
    }

    /// Decompress both columns. Errors instead of panicking on
    /// damaged bytes.
    pub fn decode(&self) -> Result<DecodedChunk, ChunkError> {
        decode_columns(
            BitReader::new(&self.ts_bytes),
            BitReader::new(&self.val_bytes),
            self.count as usize,
        )
    }

    /// The chunk serialized *without* framing — the bytes the codec
    /// wrote, which the world's payload pin hashes.
    /// [`Chunk::from_payload`] inverts it.
    pub fn payload(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(12 + self.ts_bytes.len() + self.val_bytes.len());
        payload.extend_from_slice(&self.count.to_le_bytes());
        payload.extend_from_slice(&(self.ts_bytes.len() as u32).to_le_bytes());
        payload.extend_from_slice(&(self.val_bytes.len() as u32).to_le_bytes());
        payload.extend_from_slice(&self.ts_bytes);
        payload.extend_from_slice(&self.val_bytes);
        payload
    }

    /// Serialize into a CRC-framed blob (see module docs for layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_record(&self.payload())
    }

    /// Parse a CRC-framed blob back into a chunk, validating the frame,
    /// the header, and both columns (a full decode) before accepting.
    /// The returned chunk keeps the *compressed* columns and gets a
    /// fresh cache id.
    pub fn from_bytes(bytes: &[u8]) -> Result<Chunk, ChunkError> {
        let scan = decode_all(bytes);
        if scan.corrupt_frames() > 0 || scan.truncated_tail {
            return Err(ChunkError::Frame {
                corrupt_frames: scan.corrupt_frames(),
                truncated_tail: scan.truncated_tail,
            });
        }
        if scan.records.len() != 1 {
            return Err(ChunkError::BadFrameCount(scan.records.len()));
        }
        Chunk::from_payload(&scan.records[0])
    }

    /// Parse an *unframed* chunk payload (the caller already stripped
    /// and verified any CRC frame).
    pub fn from_payload(payload: &[u8]) -> Result<Chunk, ChunkError> {
        let (count, ts_bytes, val_bytes) = split_payload(payload)?;
        let mut chunk = Chunk {
            id: next_chunk_id(),
            count,
            min_ts: 0,
            max_ts: 0,
            ts_bytes: ts_bytes.to_vec(),
            val_bytes: val_bytes.to_vec(),
        };
        // Validate eagerly: recovery wants structured errors now, not
        // a surprise at first query.
        let decoded = chunk.decode()?;
        chunk.min_ts = decoded.ts[0];
        chunk.max_ts = *decoded.ts.last().expect("count > 0");
        Ok(chunk)
    }
}

/// Check an unframed payload's header against its length and split it
/// into the sample count and the two columns.
fn split_payload(payload: &[u8]) -> Result<(u32, &[u8], &[u8]), ChunkError> {
    if payload.len() < 12 {
        return Err(ChunkError::BadHeader);
    }
    let field = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
    let (count, ts_len, val_len) = (field(0), field(4) as usize, field(8) as usize);
    // The first value costs 64 bits and every later one at least one, so
    // a count the value column cannot hold is header damage — and must
    // not size the decoders' allocations.
    if count == 0 || payload.len() != 12 + ts_len + val_len || count as usize + 63 > val_len * 8 {
        return Err(ChunkError::BadHeader);
    }
    Ok((count, &payload[12..12 + ts_len], &payload[12 + ts_len..]))
}

/// Decode both columns of a `count`-sample chunk from their readers.
fn decode_columns(
    mut ts_bits: impl BitSource,
    mut val_bits: impl BitSource,
    count: usize,
) -> Result<DecodedChunk, ChunkError> {
    let ts = int::decode_timestamps(&mut ts_bits, count)?;
    if ts.windows(2).any(|w| w[1] <= w[0]) {
        return Err(ChunkError::UnsortedTimestamps);
    }
    let vals = float::decode_values(&mut val_bits, count)?;
    Ok(DecodedChunk { ts, vals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::reference::RefBitReader;
    use proptest::prelude::*;

    fn samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample::new(1_000 + i as i64 * 15_000, (i as f64 * 0.25).sin() * 10.0))
            .collect()
    }

    #[test]
    fn seal_decode_roundtrip() {
        let s = samples(CHUNK_SIZE);
        let chunk = Chunk::seal(&s);
        assert_eq!(chunk.len(), CHUNK_SIZE);
        assert_eq!(chunk.min_ts(), s[0].timestamp_ms);
        assert_eq!(chunk.max_ts(), s.last().unwrap().timestamp_ms);
        let d = chunk.decode().unwrap();
        for (i, smp) in s.iter().enumerate() {
            assert_eq!(d.ts[i], smp.timestamp_ms);
            assert_eq!(d.vals[i].to_bits(), smp.value.to_bits());
        }
    }

    #[test]
    fn compresses_regular_series_well() {
        // Counter-shaped values: integral steps leave long runs of zero
        // mantissa bits for the XOR codec.
        let s: Vec<Sample> = (0..CHUNK_SIZE)
            .map(|i| Sample::new(1_000 + i as i64 * 15_000, (i * 7) as f64))
            .collect();
        let chunk = Chunk::seal(&s);
        let raw = s.len() * 16;
        assert!(
            chunk.compressed_bytes() * 2 < raw,
            "compressed {} vs raw {raw}",
            chunk.compressed_bytes()
        );
    }

    #[test]
    fn bytes_roundtrip() {
        let chunk = Chunk::seal(&samples(100));
        let bytes = chunk.to_bytes();
        let back = Chunk::from_bytes(&bytes).unwrap();
        assert_ne!(back.id(), chunk.id(), "re-parsed chunks get fresh ids");
        assert_eq!(back.decode().unwrap(), chunk.decode().unwrap());
        assert_eq!(back.min_ts(), chunk.min_ts());
        assert_eq!(back.max_ts(), chunk.max_ts());
    }

    #[test]
    fn truncated_bytes_are_structured_errors() {
        let bytes = Chunk::seal(&samples(64)).to_bytes();
        for cut in 0..bytes.len() {
            let err = Chunk::from_bytes(&bytes[..cut]).expect_err("must fail");
            match err {
                ChunkError::Frame { .. } | ChunkError::BadFrameCount(_) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_structured_errors() {
        let bytes = Chunk::seal(&samples(64)).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            // Every single-byte flip must surface as an error or —
            // never — a wrong silent success (the CRC catches payload
            // flips; header flips break framing).
            if let Ok(chunk) = Chunk::from_bytes(&bad) {
                panic!("flip at byte {i} silently accepted chunk {:?}", chunk.id());
            }
        }
    }

    #[test]
    fn sealed_columns_hold_exactly_their_bytes() {
        // A column's capacity is what stays resident for the chunk's
        // life; the bit writer's doubling slack must not ride along.
        for n in [1, 7, 100, CHUNK_SIZE] {
            let sealed = Chunk::seal(&samples(n));
            let decoded = Chunk::from_bytes(&sealed.to_bytes()).unwrap();
            for chunk in [&sealed, &decoded] {
                assert_eq!(chunk.ts_bytes.capacity(), chunk.ts_bytes.len(), "n={n}");
                assert_eq!(chunk.val_bytes.capacity(), chunk.val_bytes.len(), "n={n}");
            }
        }
    }

    /// Jittered timestamps (every delta-of-delta class up to 12 bits)
    /// and values that repeat, move and turn NaN.
    fn jittered_samples(seed: u64, n: usize) -> Vec<Sample> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let jitter = (state >> 33) as i64 % 5_000;
                let value = match state >> 61 {
                    0 => f64::NAN,
                    1 => 7.0,
                    _ => (i as f64 * 0.25).sin() * 10.0,
                };
                Sample::new(1_000 + i as i64 * 15_000 + jitter, value)
            })
            .collect()
    }

    /// Damage one column, or the count, and write a header that agrees
    /// with the result, so the damage reaches the codecs.
    fn damage_columns(count: &mut u32, ts: &mut Vec<u8>, vals: &mut Vec<u8>, d: u64) {
        let col = if (d >> 3) & 1 == 0 {
            &mut *ts
        } else {
            &mut *vals
        };
        let at = (d >> 8) as usize % col.len().max(1);
        match d % 5 {
            0 if !col.is_empty() => col[at] ^= 1 << ((d >> 4) & 7),
            1 => col.truncate(at),
            2 => col.extend_from_slice(&(d >> 16).to_le_bytes()[..1 + (d >> 5) as usize % 8]),
            3 => {
                *count = match (d >> 4) % 3 {
                    0 => count.wrapping_add(1),
                    1 => count.wrapping_sub(1),
                    _ => (d >> 32) as u32,
                }
            }
            _ => {
                // Move the column boundary: the lengths still add up.
                let k = (1 + (d >> 16) as usize % 4).min(vals.len());
                ts.extend(vals.drain(..k));
            }
        }
    }

    /// Half the time, damage the assembled bytes, header included, so
    /// the header lengths may disagree with the columns.
    fn damage_bytes(payload: &mut Vec<u8>, d: u64) {
        let at = (d >> 8) as usize % payload.len();
        match d % 8 {
            0 => payload[at] ^= 1 << ((d >> 4) & 7),
            1 => payload.truncate(at),
            2 => payload.extend_from_slice(&d.to_le_bytes()[..1 + (d >> 5) as usize % 8]),
            3 => payload[4 + 4 * ((d >> 4) as usize % 2)] ^= 1 << ((d >> 6) & 7),
            _ => {}
        }
    }

    proptest! {
        /// Unframed payloads reach the codecs with no CRC in front of
        /// them. Damaged by bit flips, truncation, appended bytes, a
        /// wrong count and header lengths that disagree with the columns,
        /// each decodes to exactly what the reference reader gives —
        /// the same columns or the same error — and none panics.
        #[test]
        fn damaged_payloads_decode_like_the_reference(
            seed in any::<u64>(),
            n in 1usize..CHUNK_SIZE + 1,
            trials in prop::collection::vec(any::<u64>(), 48..49),
        ) {
            let sealed = Chunk::seal(&jittered_samples(seed, n));
            let bits = |r: Result<DecodedChunk, ChunkError>| {
                r.map(|d| (d.ts, d.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>()))
            };
            // Each trial: one or two column damages, then the bytes'.
            for t in trials.chunks(3) {
                let (mut count, mut ts_bytes, mut val_bytes) =
                    (sealed.count, sealed.ts_bytes.clone(), sealed.val_bytes.clone());
                damage_columns(&mut count, &mut ts_bytes, &mut val_bytes, t[0]);
                if t[1] & 1 == 1 {
                    damage_columns(&mut count, &mut ts_bytes, &mut val_bytes, t[1] >> 1);
                }
                let mut payload =
                    Chunk { id: 0, count, min_ts: 0, max_ts: 0, ts_bytes, val_bytes }.payload();
                damage_bytes(&mut payload, t[2]);

                let got = Chunk::from_payload(&payload).and_then(|c| c.decode());
                let want = split_payload(&payload).and_then(|(count, ts, vals)| {
                    decode_columns(RefBitReader::new(ts), RefBitReader::new(vals), count as usize)
                });
                prop_assert_eq!(bits(got), bits(want), "trial {:?}", t);
            }
        }
    }

    #[test]
    fn clones_share_cache_identity() {
        let chunk = Chunk::seal(&samples(8));
        assert_eq!(chunk.clone().id(), chunk.id());
        let other = Chunk::seal(&samples(8));
        assert_ne!(other.id(), chunk.id());
    }
}
