//! Gorilla XOR float compression.
//!
//! Layout (bit stream, MSB-first):
//!
//! ```text
//! first value    64 raw bits
//! then per sample, xor = bits(prev) ^ bits(curr):
//!   '0'                            xor == 0 (repeat)
//!   '10' + meaningful bits         xor fits the previous window
//!   '11' + 6b leading + 6b len-1 + meaningful bits
//! ```
//!
//! The "window" is the span of non-zero bits (leading-zero count plus
//! significant length); consecutive samples of a slowly moving gauge
//! tend to reuse it, so the two-bit `'10'` prefix amortises the window
//! header away. Values round-trip bit-for-bit, which preserves `NaN`
//! payloads and signed zeros — required for byte-identical differential
//! testing against the interpreter.

use super::{BitReader, BitWriter, CodecError};

/// Encode a value column.
pub(crate) fn encode_values(vals: &[f64], w: &mut BitWriter) {
    if vals.is_empty() {
        return;
    }
    let mut prev = vals[0].to_bits();
    w.push_bits(prev, 64);
    // Sentinel forcing the first non-zero xor to emit a fresh window.
    let mut lead: u32 = 64;
    let mut sig: u32 = 0;
    for &v in &vals[1..] {
        let bits = v.to_bits();
        let xor = prev ^ bits;
        prev = bits;
        if xor == 0 {
            w.push_bit(false);
            continue;
        }
        w.push_bit(true);
        let l = xor.leading_zeros().min(31);
        let t = xor.trailing_zeros();
        let s = 64 - l - t;
        if l >= lead && l + s <= lead + sig {
            // Fits inside the previous window: reuse it.
            w.push_bit(false);
            w.push_bits(xor >> (64 - lead - sig), sig as u8);
        } else {
            w.push_bit(true);
            w.push_bits(l as u64, 6);
            w.push_bits((s - 1) as u64, 6);
            w.push_bits(xor >> t, s as u8);
            lead = l;
            sig = s;
        }
    }
}

/// Decode `count` values; truncation yields a [`CodecError`].
pub(crate) fn decode_values(r: &mut BitReader<'_>, count: usize) -> Result<Vec<f64>, CodecError> {
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return Ok(out);
    }
    let fail = |out: &Vec<f64>| CodecError::UnexpectedEnd {
        decoded: out.len(),
        expected: count,
    };
    let mut prev = r.read_bits(64).ok_or_else(|| fail(&out))?;
    out.push(f64::from_bits(prev));
    let mut lead: u32 = 0;
    let mut sig: u32 = 0;
    while out.len() < count {
        if !r.read_bit().ok_or_else(|| fail(&out))? {
            out.push(f64::from_bits(prev));
            continue;
        }
        if r.read_bit().ok_or_else(|| fail(&out))? {
            lead = r.read_bits(6).ok_or_else(|| fail(&out))? as u32;
            sig = r.read_bits(6).ok_or_else(|| fail(&out))? as u32 + 1;
            if lead + sig > 64 {
                // Bit-flipped window header: the shift below would
                // underflow. Encoders never emit this.
                return Err(CodecError::BadControlBits { bit: r.bit_pos() });
            }
        } else if sig == 0 {
            // '10' before any window was established: damaged stream.
            return Err(CodecError::BadControlBits { bit: r.bit_pos() });
        }
        let meaningful = r.read_bits(sig as u8).ok_or_else(|| fail(&out))?;
        let shift = 64 - lead - sig;
        prev ^= meaningful << shift;
        out.push(f64::from_bits(prev));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(vals: &[f64]) {
        let mut w = BitWriter::new();
        encode_values(vals, &mut w);
        let bytes = w.into_bytes();
        let got = decode_values(&mut BitReader::new(&bytes), vals.len()).expect("decode");
        assert_eq!(got.len(), vals.len());
        for (a, b) in got.iter().zip(vals) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} != {b}");
        }
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[0.0]);
        roundtrip(&[f64::NAN]);
    }

    #[test]
    fn constant_column_is_one_bit_per_sample() {
        let vals = vec![42.5; 500];
        let mut w = BitWriter::new();
        encode_values(&vals, &mut w);
        assert!(w.bit_len() < 64 + vals.len(), "bits = {}", w.bit_len());
        let bytes = w.into_bytes();
        let got = decode_values(&mut BitReader::new(&bytes), vals.len()).unwrap();
        assert_eq!(got, vals);
    }

    #[test]
    fn special_values_roundtrip_bitwise() {
        roundtrip(&[
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1.0,
            -1.0,
        ]);
    }

    #[test]
    fn counter_like_sequence() {
        let vals: Vec<f64> = (0..300).map(|i| (i * 17) as f64).collect();
        roundtrip(&vals);
    }

    #[test]
    fn noisy_gauge() {
        // Deterministic pseudo-noise without rand.
        let vals: Vec<f64> = (0..300)
            .map(|i| ((i as f64 * 0.7).sin() * 100.0) + (i % 13) as f64 * 0.001)
            .collect();
        roundtrip(&vals);
    }

    #[test]
    fn truncated_stream_errors() {
        let vals: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        let mut w = BitWriter::new();
        encode_values(&vals, &mut w);
        let bytes = w.into_bytes();
        let cut = &bytes[..bytes.len() / 3];
        let err = decode_values(&mut BitReader::new(cut), vals.len()).unwrap_err();
        match err {
            CodecError::UnexpectedEnd { expected, .. } => assert_eq!(expected, vals.len()),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
