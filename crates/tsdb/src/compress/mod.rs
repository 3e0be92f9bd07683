//! Bit-level compression codecs for sealed chunks.
//!
//! Two column codecs in the Gorilla tradition (Pelkonen et al., VLDB
//! '15), as popularised by Prometheus TSDB and the tachyon/T0 storage
//! engines:
//!
//! * [`int`] — delta-of-delta timestamp compression: regular scrape
//!   intervals collapse to one bit per sample;
//! * [`float`] — XOR float compression: slowly moving values share
//!   exponent and mantissa prefixes, so each sample costs a few
//!   meaningful mantissa bits instead of 64.
//!
//! Both codecs are exact (bit-for-bit round trip, including `NaN`
//! payloads and `±Inf`) and both decoders treat their input as
//! untrusted: damaged or truncated streams surface a structured
//! [`CodecError`], never a panic. Chunk-level CRC framing (see
//! [`crate::chunk`]) catches damage first in practice; the codec
//! errors are the second line of defence.

pub(crate) mod float;
pub(crate) mod int;

/// Structured decode failure. Encoding is infallible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the declared sample count was decoded.
    UnexpectedEnd {
        /// Samples decoded before the stream ran dry.
        decoded: usize,
        /// Samples the caller asked for.
        expected: usize,
    },
    /// A delta-of-delta control prefix was not a valid class marker.
    BadControlBits {
        /// Bit offset of the bad prefix.
        bit: usize,
    },
    /// A decoded timestamp delta overflowed `i64` arithmetic.
    TimestampOverflow,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd { decoded, expected } => {
                write!(f, "bitstream ended after {decoded} of {expected} samples")
            }
            CodecError::BadControlBits { bit } => {
                write!(f, "invalid control bits at bit offset {bit}")
            }
            CodecError::TimestampOverflow => write!(f, "timestamp delta overflowed i64"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Where the codecs write bits. [`BitWriter`] is the one production
/// sink; the trait lets the test oracle drive the same encoders.
pub(crate) trait BitSink {
    /// Append one bit.
    fn push_bit(&mut self, bit: bool);
    /// Append the low `n` bits of `value`, most significant first.
    fn push_bits(&mut self, value: u64, n: u8);
}

/// Where the codecs read bits from. [`BitReader`] is the one
/// production source; the trait lets the test oracle drive the same
/// decoders.
pub(crate) trait BitSource {
    /// Read one bit; `None` at end of stream.
    fn read_bit(&mut self) -> Option<bool>;
    /// Read `n` bits into the low bits of a `u64`; `None` if the
    /// stream ends first.
    fn read_bits(&mut self, n: u8) -> Option<u64>;
    /// Current bit offset (for error reporting).
    fn bit_pos(&self) -> usize;
}

/// Append-only bit writer (MSB-first within each byte). Bits gather in
/// a word-sized accumulator and leave it 32 at a time; the last
/// partial word drains in [`BitWriter::into_bytes`].
#[derive(Debug, Default, Clone)]
pub(crate) struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits in the low `pending` bits, oldest highest.
    acc: u64,
    /// Bits in `acc` not yet emitted; below 32 between calls.
    pending: u32,
}

impl BitWriter {
    /// An empty writer with room for `bits` bits, so an encoder that
    /// stays within that bound never grows the buffer.
    pub(crate) fn with_capacity(bits: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            ..BitWriter::default()
        }
    }

    /// Append the low `n <= 32` bits of `value`.
    #[inline]
    fn push_word(&mut self, value: u64, n: u8) {
        let n = u32::from(n);
        // At most 31 pending bits plus 32 new ones: they fit the word.
        self.acc = (self.acc << n) | (value & ((1u64 << n) - 1));
        self.pending += n;
        if self.pending >= 32 {
            self.pending -= 32;
            let word = (self.acc >> self.pending) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Total bits written (the compression-ratio tests read it).
    #[cfg(test)]
    pub(crate) fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending as usize
    }

    /// Finish, returning the byte stream with its last byte zero-padded
    /// and trimmed to its length: a sealed column lives as long as its
    /// chunk, so it does not keep the reserved bound's slack.
    pub(crate) fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let tail = (self.acc << (64 - self.pending)).to_be_bytes();
            let used = self.pending.div_ceil(8) as usize;
            self.bytes.extend_from_slice(&tail[..used]);
        }
        self.bytes.shrink_to_fit();
        self.bytes
    }
}

impl BitSink for BitWriter {
    #[inline]
    fn push_bit(&mut self, bit: bool) {
        self.push_word(bit as u64, 1);
    }

    #[inline]
    fn push_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        if n > 32 {
            self.push_word(value >> 32, n - 32);
            self.push_word(value, 32);
        } else {
            self.push_word(value, n);
        }
    }
}

/// Bit reader over an untrusted byte slice (MSB-first). Each read of up
/// to 32 bits checks the end of the stream once and takes its bits from
/// one big-endian 8-byte window.
#[derive(Debug, Clone)]
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Take `n <= 32` bits the caller has checked are in the stream.
    #[inline]
    fn read_word(&mut self, n: u8) -> u64 {
        let (at, skip) = (self.pos / 8, self.pos % 8);
        let window = match self.bytes.get(at..at + 8) {
            Some(window) => u64::from_be_bytes(window.try_into().expect("8 bytes")),
            None => {
                // Near the end: zero-fill past the slice.
                let mut window = [0u8; 8];
                let tail = &self.bytes[at..];
                window[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(window)
            }
        };
        self.pos += usize::from(n);
        // `n == 0` would shift by 64; `checked_shr` turns that into 0.
        (window << skip).checked_shr(64 - u32::from(n)).unwrap_or(0)
    }
}

impl BitSource for BitReader<'_> {
    #[inline]
    fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|bit| bit == 1)
    }

    #[inline]
    fn read_bits(&mut self, n: u8) -> Option<u64> {
        debug_assert!(n <= 64);
        if self.pos + usize::from(n) > self.bytes.len() * 8 {
            return None;
        }
        if n > 32 {
            let high = self.read_word(n - 32);
            Some((high << 32) | self.read_word(32))
        } else {
            Some(self.read_word(n))
        }
    }

    fn bit_pos(&self) -> usize {
        self.pos
    }
}

/// ZigZag-encode a signed value so small magnitudes use few bits.
#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The bit-at-a-time writer and reader the word-at-a-time ones replaced,
/// kept verbatim as the oracle that pins the stream format.
#[cfg(test)]
pub(crate) mod reference {
    use super::{BitSink, BitSource};

    /// Append-only bit writer (MSB-first within each byte).
    #[derive(Debug, Default, Clone)]
    pub(crate) struct RefBitWriter {
        bytes: Vec<u8>,
        /// Bits used in the final byte (0 = byte boundary).
        used: u8,
    }

    impl RefBitWriter {
        /// Total bits written.
        pub(crate) fn bit_len(&self) -> usize {
            if self.used == 0 {
                self.bytes.len() * 8
            } else {
                (self.bytes.len() - 1) * 8 + self.used as usize
            }
        }

        /// Finish, returning the padded byte stream.
        pub(crate) fn into_bytes(self) -> Vec<u8> {
            self.bytes
        }
    }

    impl BitSink for RefBitWriter {
        fn push_bit(&mut self, bit: bool) {
            if self.used == 0 {
                self.bytes.push(0);
            }
            if bit {
                let last = self.bytes.len() - 1;
                self.bytes[last] |= 0x80 >> self.used;
            }
            self.used = (self.used + 1) % 8;
        }

        fn push_bits(&mut self, value: u64, n: u8) {
            debug_assert!(n <= 64);
            for i in (0..n).rev() {
                self.push_bit((value >> i) & 1 == 1);
            }
        }
    }

    /// Bit reader over an untrusted byte slice (MSB-first).
    #[derive(Debug, Clone)]
    pub(crate) struct RefBitReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> RefBitReader<'a> {
        /// Read from the start of `bytes`.
        pub(crate) fn new(bytes: &'a [u8]) -> Self {
            RefBitReader { bytes, pos: 0 }
        }
    }

    impl BitSource for RefBitReader<'_> {
        fn read_bit(&mut self) -> Option<bool> {
            let byte = self.bytes.get(self.pos / 8)?;
            let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
            self.pos += 1;
            Some(bit)
        }

        fn read_bits(&mut self, n: u8) -> Option<u64> {
            debug_assert!(n <= 64);
            let mut out = 0u64;
            for _ in 0..n {
                out = (out << 1) | self.read_bit()? as u64;
            }
            Some(out)
        }

        fn bit_pos(&self) -> usize {
            self.pos
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{RefBitReader, RefBitWriter};
    use super::*;
    use crate::sample::Sample;
    use proptest::prelude::*;

    proptest! {
        /// Any sequence of pushes, every width from 0 to 64 and values
        /// with bits set above the width, gives the reference writer's
        /// bit length at every step and its bytes at the end.
        #[test]
        fn writer_matches_the_reference(
            values in prop::collection::vec(any::<u64>(), 0..300),
            widths in prop::collection::vec(0u8..66, 300..301),
        ) {
            let (mut w, mut oracle) = (BitWriter::default(), RefBitWriter::default());
            for (&value, &n) in values.iter().zip(&widths) {
                // Width 65 stands for a single `push_bit`.
                if n == 65 {
                    w.push_bit(value & 1 == 1);
                    oracle.push_bit(value & 1 == 1);
                } else {
                    w.push_bits(value, n);
                    oracle.push_bits(value, n);
                }
                prop_assert_eq!(w.bit_len(), oracle.bit_len());
            }
            prop_assert_eq!(w.into_bytes(), oracle.into_bytes());
        }

        /// Streams of `push_bits(value, 0..=64)` padded to every length
        /// modulo 32, so each word boundary and every partial tail (1 to
        /// 31 bits, whole bytes or not) is drained against the reference
        /// writer, from an empty buffer and from a reserved one.
        #[test]
        fn every_tail_length_matches_the_reference(
            values in prop::collection::vec(any::<u64>(), 0..40),
            widths in prop::collection::vec(0u8..65, 40..41),
            reserve in 0usize..2_700,
        ) {
            for tail in 0..32 {
                let mut w = if tail % 2 == 0 {
                    BitWriter::default()
                } else {
                    BitWriter::with_capacity(reserve)
                };
                let mut oracle = RefBitWriter::default();
                for (&value, &n) in values.iter().zip(&widths) {
                    w.push_bits(value, n);
                    oracle.push_bits(value, n);
                }
                let pad = ((tail + 32 - oracle.bit_len() % 32) % 32) as u8;
                w.push_bits(u64::MAX, pad);
                oracle.push_bits(u64::MAX, pad);
                prop_assert_eq!(oracle.bit_len() % 32, tail);
                prop_assert_eq!(w.bit_len(), oracle.bit_len());
                prop_assert_eq!(w.into_bytes(), oracle.into_bytes(), "tail {}", tail);
            }
        }

        /// Any byte slice read with any width sequence gives the
        /// reference reader's results and bit offsets, up to and
        /// including the first `None`.
        #[test]
        fn reader_matches_the_reference(
            bytes in prop::collection::vec(any::<u8>(), 0..48),
            widths in prop::collection::vec(0u8..66, 1..120),
        ) {
            let (mut r, mut oracle) = (BitReader::new(&bytes), RefBitReader::new(&bytes));
            for &n in &widths {
                // Width 65 stands for a single `read_bit`.
                let (got, want) = if n == 65 {
                    (r.read_bit().map(u64::from), oracle.read_bit().map(u64::from))
                } else {
                    (r.read_bits(n), oracle.read_bits(n))
                };
                prop_assert_eq!(got, want, "width {}", n);
                if got.is_none() {
                    break;
                }
                prop_assert_eq!(r.bit_pos(), oracle.bit_pos());
            }
        }

        /// Timestamp columns that hit every delta-of-delta class and the
        /// 64-bit escape, and value columns full of NaN payloads, ±0 and
        /// ±Inf, encode to the reference encoder's bytes and decode back
        /// through both readers.
        #[test]
        fn columns_encode_to_the_reference_bytes(
            seeds in prop::collection::vec(any::<u64>(), 1..300),
        ) {
            let ts = timestamp_column(&seeds);
            let vals: Vec<f64> = seeds.iter().map(|&s| value_from(s)).collect();
            let samples: Vec<Sample> =
                ts.iter().zip(&vals).map(|(&t, &v)| Sample::new(t, v)).collect();
            let n = samples.len();

            let mut tw = BitWriter::with_capacity(int::max_bits(n));
            let mut tw_ref = RefBitWriter::default();
            int::encode_timestamps(&samples, &mut tw);
            int::encode_timestamps(&samples, &mut tw_ref);
            prop_assert!(tw.bit_len() <= int::max_bits(n));
            let ts_bytes = tw.into_bytes();
            prop_assert_eq!(&ts_bytes, &tw_ref.into_bytes());

            let mut vw = BitWriter::with_capacity(float::max_bits(n));
            let mut vw_ref = RefBitWriter::default();
            float::encode_values(&samples, &mut vw);
            float::encode_values(&samples, &mut vw_ref);
            prop_assert!(vw.bit_len() <= float::max_bits(n));
            let val_bytes = vw.into_bytes();
            prop_assert_eq!(&val_bytes, &vw_ref.into_bytes());

            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let (want_ts, want_vals) = (Ok(ts), Ok(bits(vals)));
            let got = int::decode_timestamps(&mut BitReader::new(&ts_bytes), n);
            prop_assert_eq!(got, want_ts);
            let got = int::decode_timestamps(&mut RefBitReader::new(&ts_bytes), n);
            prop_assert_eq!(got, want_ts);
            let got = float::decode_values(&mut BitReader::new(&val_bytes), n).map(bits);
            prop_assert_eq!(got, want_vals);
            let got = float::decode_values(&mut RefBitReader::new(&val_bytes), n).map(bits);
            prop_assert_eq!(got, want_vals);
        }
    }

    /// Strictly increasing timestamps whose delta-of-delta cycles
    /// through the zero, 7-, 9- and 12-bit classes and the raw escape
    /// (with both signs), chosen per sample by its seed.
    fn timestamp_column(seeds: &[u64]) -> Vec<i64> {
        let mut t = (seeds[0] >> 24) as i64 - (1 << 39);
        let mut delta = 15_000i64;
        seeds
            .iter()
            .map(|&s| {
                let magnitude = match s % 5 {
                    0 => 0,
                    1 => 1 + (s >> 8) as i64 % 64,
                    2 => 65 + (s >> 8) as i64 % 192,
                    3 => 257 + (s >> 8) as i64 % 1_792,
                    _ => 2_049 + (s >> 8) as i64 % (1 << 40),
                };
                let dod = if (s >> 4) & 1 == 1 {
                    magnitude
                } else {
                    -magnitude
                };
                // Flip a step that would stop time from moving forward.
                delta += if delta + dod >= 1 { dod } else { -dod };
                let now = t;
                t += delta;
                now
            })
            .collect()
    }

    /// A value drawn from the float codec's hard cases: NaNs with
    /// payloads, ±0, ±Inf, a slowly moving gauge and arbitrary bits.
    fn value_from(s: u64) -> f64 {
        match s % 8 {
            0 => f64::from_bits(0x7ff8_0000_0000_0000 | (s >> 13)),
            1 => f64::from_bits(0xfff0_0000_0000_0001 | (s >> 13)),
            2 => 0.0,
            3 => -0.0,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => 100.0 + (s >> 40) as f64 * 0.25,
            _ => f64::from_bits(s),
        }
    }

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::default();
        w.push_bit(true);
        w.push_bits(0b1011, 4);
        w.push_bits(u64::MAX, 64);
        w.push_bits(0, 3);
        let bits = w.bit_len();
        assert_eq!(bits, 1 + 4 + 64 + 3);
        let bytes = w.into_bytes();
        assert_eq!(bytes.capacity(), bytes.len());
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(3), Some(0));
    }

    #[test]
    fn reader_ends_cleanly() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bit(), None);
        assert_eq!(BitReader::new(&[]).read_bits(1), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
