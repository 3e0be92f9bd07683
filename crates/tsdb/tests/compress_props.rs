//! Property tests for the chunk codecs: every value class round-trips
//! bit-exactly, and damaged bytes surface as structured [`ChunkError`]s
//! rather than panics.
//!
//! The vendored proptest stand-in draws `f64`s only from ±1e6, so the
//! special-float cases (NaN payloads, infinities, subnormals) are built
//! explicitly via [`f64::from_bits`] from generated `u64` seeds.

use dio_tsdb::{Chunk, ChunkError, Sample, CHUNK_SIZE};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Seal `(ts, val)` pairs and decode them back, asserting bit-exact
/// equality of both columns.
fn assert_roundtrip(ts: &[i64], vals: &[f64]) -> Result<(), TestCaseError> {
    let samples: Vec<Sample> = ts
        .iter()
        .zip(vals)
        .map(|(&t, &v)| Sample::new(t, v))
        .collect();
    let chunk = Chunk::seal(&samples);
    let decoded = match chunk.decode() {
        Ok(d) => d,
        Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e}"))),
    };
    prop_assert_eq!(&decoded.ts, &ts.to_vec());
    prop_assert_eq!(decoded.vals.len(), vals.len());
    for (i, (got, want)) in decoded.vals.iter().zip(vals).enumerate() {
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "value {} not bit-exact: {} vs {}",
            i,
            got,
            want
        );
    }
    // The framed wire form must survive the same trip.
    let back = match Chunk::from_bytes(&chunk.to_bytes()) {
        Ok(c) => c,
        Err(e) => return Err(TestCaseError::fail(format!("from_bytes failed: {e}"))),
    };
    prop_assert_eq!(back.len(), samples.len());
    prop_assert_eq!(back.min_ts(), ts[0]);
    prop_assert_eq!(back.max_ts(), *ts.last().unwrap());
    Ok(())
}

/// Strictly increasing timestamps decoded from a seed: a base offset
/// plus per-step deltas spanning 1ms .. ~18 minutes.
fn timestamps_from(seed: u64, n: usize) -> Vec<i64> {
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let mut t = (next() % 1_000_000_000) as i64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(t);
        t += 1 + (next() % 1_100_000) as i64;
    }
    out
}

/// Decode a special float from a seed: cycles through NaN payloads,
/// infinities, signed zeros, subnormals, and raw bit patterns.
fn special_float(seed: u64) -> f64 {
    match seed % 7 {
        0 => f64::from_bits(0x7ff8_0000_0000_0000 | (seed >> 12)), // quiet NaN, payload
        1 => f64::from_bits(0x7ff0_0000_0000_0001 | (seed >> 12)), // signalling-ish NaN
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::from_bits(seed >> 12), // subnormal territory
        5 => -0.0,
        _ => f64::from_bits(seed), // anything at all
    }
}

proptest! {
    /// NaNs (with payloads), infinities, subnormals, and arbitrary bit
    /// patterns all round-trip bit-exactly through the XOR codec.
    #[test]
    fn special_floats_roundtrip(seed in any::<u64>(), n in 1usize..CHUNK_SIZE + 1) {
        let ts = timestamps_from(seed, n);
        let vals: Vec<f64> = (0..n as u64)
            .map(|i| special_float(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9))))
            .collect();
        assert_roundtrip(&ts, &vals)?;
    }

    /// Constant series (including constant NaN and constant ±Inf) are
    /// the XOR codec's best case and must stay bit-exact.
    #[test]
    fn constant_series_roundtrip(seed in any::<u64>(), n in 2usize..CHUNK_SIZE + 1) {
        let v = special_float(seed);
        let ts = timestamps_from(seed, n);
        let vals = vec![v; n];
        assert_roundtrip(&ts, &vals)?;
        // A constant series at a regular scrape interval is the best
        // case for both codecs and must compress far below raw.
        let samples: Vec<Sample> = (0..n)
            .map(|i| Sample::new(ts[0] + i as i64 * 15_000, 42.5))
            .collect();
        let chunk = Chunk::seal(&samples);
        prop_assert!(
            chunk.compressed_bytes() < n * 16 / 4,
            "constant series compressed to {} bytes for {} samples",
            chunk.compressed_bytes(),
            n
        );
    }

    /// Monotone timestamps whose deltas overflow every small bit-width
    /// class (hour-scale, day-scale, and near-i64 jumps) still
    /// round-trip exactly.
    #[test]
    fn monotone_overflow_timestamps_roundtrip(seed in any::<u64>()) {
        let mut ts: Vec<i64> = vec![
            i64::MIN / 2,
            i64::MIN / 2 + 1,
            -1,
            0,
            1,
            1 << 20,
            1 << 40,
            (1 << 40) + 3_600_000,
            i64::MAX / 2,
            i64::MAX / 2 + (seed % 1_000_000) as i64 + 1,
        ];
        ts.sort_unstable();
        ts.dedup();
        let vals: Vec<f64> = (0..ts.len()).map(|i| i as f64 * 0.5).collect();
        assert_roundtrip(&ts, &vals)?;
    }

    /// Truncating a framed chunk at any point yields a structured
    /// error, never a panic or a silent wrong decode.
    #[test]
    fn truncation_is_a_structured_error(seed in any::<u64>(), n in 1usize..128) {
        let ts = timestamps_from(seed, n);
        let vals: Vec<f64> = (0..n as u64).map(|i| special_float(seed ^ i)).collect();
        let samples: Vec<Sample> = ts.iter().zip(&vals).map(|(&t, &v)| Sample::new(t, v)).collect();
        let bytes = Chunk::seal(&samples).to_bytes();
        let cut = (seed % bytes.len() as u64) as usize;
        match Chunk::from_bytes(&bytes[..cut]) {
            Ok(_) => return Err(TestCaseError::fail(format!("truncation at {cut} accepted"))),
            Err(ChunkError::Frame { .. }) | Err(ChunkError::BadFrameCount(_)) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!("cut {cut}: unexpected {other:?}")))
            }
        }
    }

    /// Flipping any single bit of a framed chunk is either caught by
    /// the CRC frame or the header/codec validation — never accepted,
    /// never a panic.
    #[test]
    fn bit_flips_are_structured_errors(seed in any::<u64>(), n in 1usize..128) {
        let ts = timestamps_from(seed, n);
        let vals: Vec<f64> = (0..n as u64).map(|i| special_float(seed ^ (i << 7))).collect();
        let samples: Vec<Sample> = ts.iter().zip(&vals).map(|(&t, &v)| Sample::new(t, v)).collect();
        let bytes = Chunk::seal(&samples).to_bytes();
        let bit = (seed % (bytes.len() as u64 * 8)) as usize;
        let mut bad = bytes.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        if Chunk::from_bytes(&bad).is_ok() {
            return Err(TestCaseError::fail(format!(
                "bit flip at {bit} silently accepted ({} byte frame)",
                bytes.len()
            )));
        }
    }

    /// Raw garbage bytes of any length decode to a structured error.
    #[test]
    fn garbage_bytes_never_panic(seed in any::<u64>(), n in 0usize..256) {
        let mut state = seed;
        let garbage: Vec<u8> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        prop_assert!(Chunk::from_bytes(&garbage).is_err());
    }
}
