//! Delta-of-delta timestamp compression.
//!
//! Layout (bit stream, MSB-first):
//!
//! ```text
//! first timestamp   zigzag varint (7-bit groups, continuation bit)
//! first delta       zigzag varint
//! then per sample, the delta-of-delta (dod) in one of five classes:
//!   '0'                       dod == 0        (regular interval)
//!   '10'   + 7  bits          dod in [-63, 64]
//!   '110'  + 9  bits          dod in [-255, 256]
//!   '1110' + 12 bits          dod in [-2047, 2048]
//!   '1111' + 64 bits          anything else (raw zigzag)
//! ```
//!
//! The bounded classes store `dod + (range/2 - 1)` as an unsigned
//! field, mirroring the Prometheus/Gorilla layout. A metrics scrape at
//! a fixed interval costs one bit per sample after the header.

use super::{unzigzag, zigzag, BitReader, BitWriter, CodecError};

/// Append a zigzag varint to the bit stream.
fn push_varint(w: &mut BitWriter, v: i64) {
    let mut z = zigzag(v);
    loop {
        let group = z & 0x7F;
        z >>= 7;
        let more = z != 0;
        w.push_bit(more);
        w.push_bits(group, 7);
        if !more {
            break;
        }
    }
}

/// Read a zigzag varint; `None` on truncation.
fn read_varint(r: &mut BitReader<'_>) -> Option<i64> {
    let mut z: u64 = 0;
    let mut shift = 0u32;
    loop {
        let more = r.read_bit()?;
        let group = r.read_bits(7)?;
        z |= group.checked_shl(shift).unwrap_or(0);
        if !more {
            return Some(unzigzag(z));
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Encode a sorted (strictly increasing) timestamp column.
pub(crate) fn encode_timestamps(ts: &[i64], w: &mut BitWriter) {
    if ts.is_empty() {
        return;
    }
    push_varint(w, ts[0]);
    if ts.len() == 1 {
        return;
    }
    let mut prev_delta = ts[1] - ts[0];
    push_varint(w, prev_delta);
    for win in ts[1..].windows(2) {
        let delta = win[1] - win[0];
        let dod = delta - prev_delta;
        prev_delta = delta;
        if dod == 0 {
            w.push_bit(false);
        } else if (-63..=64).contains(&dod) {
            w.push_bits(0b10, 2);
            w.push_bits((dod + 63) as u64, 7);
        } else if (-255..=256).contains(&dod) {
            w.push_bits(0b110, 3);
            w.push_bits((dod + 255) as u64, 9);
        } else if (-2047..=2048).contains(&dod) {
            w.push_bits(0b1110, 4);
            w.push_bits((dod + 2047) as u64, 12);
        } else {
            w.push_bits(0b1111, 4);
            w.push_bits(zigzag(dod), 64);
        }
    }
}

/// Decode `count` timestamps. The input is untrusted; truncation or
/// garbage control bits yield a [`CodecError`].
pub(crate) fn decode_timestamps(r: &mut BitReader<'_>, count: usize) -> Result<Vec<i64>, CodecError> {
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return Ok(out);
    }
    let fail = |out: &Vec<i64>| CodecError::UnexpectedEnd {
        decoded: out.len(),
        expected: count,
    };
    let first = read_varint(r).ok_or_else(|| fail(&out))?;
    out.push(first);
    if count == 1 {
        return Ok(out);
    }
    let mut delta = read_varint(r).ok_or_else(|| fail(&out))?;
    let second = first.checked_add(delta).ok_or(CodecError::TimestampOverflow)?;
    out.push(second);
    while out.len() < count {
        let dod = if !r.read_bit().ok_or_else(|| fail(&out))? {
            0
        } else if !r.read_bit().ok_or_else(|| fail(&out))? {
            let raw = r.read_bits(7).ok_or_else(|| fail(&out))? as i64;
            raw - 63
        } else if !r.read_bit().ok_or_else(|| fail(&out))? {
            let raw = r.read_bits(9).ok_or_else(|| fail(&out))? as i64;
            raw - 255
        } else if !r.read_bit().ok_or_else(|| fail(&out))? {
            let raw = r.read_bits(12).ok_or_else(|| fail(&out))? as i64;
            raw - 2047
        } else {
            let raw = r.read_bits(64).ok_or_else(|| fail(&out))?;
            unzigzag(raw)
        };
        delta = delta.checked_add(dod).ok_or(CodecError::TimestampOverflow)?;
        let last = *out.last().expect("non-empty");
        let ts = last.checked_add(delta).ok_or(CodecError::TimestampOverflow)?;
        out.push(ts);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ts: &[i64]) {
        let mut w = BitWriter::new();
        encode_timestamps(ts, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let got = decode_timestamps(&mut r, ts.len()).expect("decode");
        assert_eq!(got, ts);
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[-5_000]);
        roundtrip(&[i64::MAX / 2]);
    }

    #[test]
    fn regular_interval_is_one_bit_per_sample() {
        let ts: Vec<i64> = (0..256).map(|i| 1_700_000_000_000 + i * 15_000).collect();
        let mut w = BitWriter::new();
        encode_timestamps(&ts, &mut w);
        // Header (two varints) plus ~1 bit per remaining sample.
        assert!(w.bit_len() < 128 + ts.len(), "bits = {}", w.bit_len());
        let bytes = w.into_bytes();
        let got = decode_timestamps(&mut BitReader::new(&bytes), ts.len()).unwrap();
        assert_eq!(got, ts);
    }

    #[test]
    fn jittered_and_irregular() {
        let ts = vec![0, 10, 25, 26, 1000, 1001, 500_000, 500_001, 600_000];
        roundtrip(&ts);
        // Every dod class including the raw 64-bit escape.
        let ts = vec![0, 1, 2, 70, 80, 400, 500, 3_000, 4_000, 5_000_000_000];
        roundtrip(&ts);
    }

    #[test]
    fn negative_timestamps() {
        roundtrip(&[-10_000, -5_000, -1, 0, 3]);
    }

    #[test]
    fn truncated_stream_errors() {
        let ts: Vec<i64> = (0..100).map(|i| i * 1_000).collect();
        let mut w = BitWriter::new();
        encode_timestamps(&ts, &mut w);
        let bytes = w.into_bytes();
        let cut = &bytes[..bytes.len() / 2];
        let err = decode_timestamps(&mut BitReader::new(cut), ts.len()).unwrap_err();
        match err {
            CodecError::UnexpectedEnd { expected, .. } => assert_eq!(expected, ts.len()),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
