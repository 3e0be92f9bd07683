//! CRC-32 (IEEE 802.3 polynomial), the checksum guarding every framed
//! record. Table-driven, computed once at first use; no external
//! dependencies so the leaf crate stays dependency-free.

use std::sync::OnceLock;

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *entry = c;
        }
        t
    })
}

/// CRC-32 of `bytes` (same parameters as zlib's `crc32`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let base = b"the quick brown fox".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
