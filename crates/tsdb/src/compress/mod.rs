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
            CodecError::UnexpectedEnd { decoded, expected } => write!(
                f,
                "bitstream ended after {decoded} of {expected} samples"
            ),
            CodecError::BadControlBits { bit } => {
                write!(f, "invalid control bits at bit offset {bit}")
            }
            CodecError::TimestampOverflow => write!(f, "timestamp delta overflowed i64"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only bit writer (MSB-first within each byte).
#[derive(Debug, Default, Clone)]
pub(crate) struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the final byte (0 = byte boundary).
    used: u8,
}

impl BitWriter {
    /// An empty writer.
    pub(crate) fn new() -> Self {
        BitWriter::default()
    }

    /// Append one bit.
    #[inline]
    pub(crate) fn push_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.len() - 1;
            self.bytes[last] |= 0x80 >> self.used;
        }
        self.used = (self.used + 1) % 8;
    }

    /// Append the low `n` bits of `value`, most significant first.
    #[inline]
    pub(crate) fn push_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        for i in (0..n).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    /// Total bits written (the compression-ratio tests read it).
    #[cfg(test)]
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

/// Bit reader over an untrusted byte slice (MSB-first).
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

    /// Current bit offset (for error reporting).
    pub(crate) fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Read one bit; `None` at end of stream.
    #[inline]
    pub(crate) fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `n` bits into the low bits of a `u64`; `None` if the
    /// stream ends first.
    #[inline]
    pub(crate) fn read_bits(&mut self, n: u8) -> Option<u64> {
        debug_assert!(n <= 64);
        let mut out = 0u64;
        for _ in 0..n {
            out = (out << 1) | self.read_bit()? as u64;
        }
        Some(out)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bits(0b1011, 4);
        w.push_bits(u64::MAX, 64);
        w.push_bits(0, 3);
        let bits = w.bit_len();
        assert_eq!(bits, 1 + 4 + 64 + 3);
        let bytes = w.into_bytes();
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
