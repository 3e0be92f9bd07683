//! CRC-32 (IEEE 802.3 polynomial), the checksum guarding every framed
//! record. Slicing-by-8: eight lookup tables, built at compile time,
//! fold eight input bytes per step instead of one; no external
//! dependencies.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// register after byte `b` and then `k` zero bytes, so the eight bytes
/// of one step can be looked up independently and XORed together.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `bytes` (same parameters as zlib's `crc32`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop this module used before slicing-by-8,
    /// with its table built at run time: the oracle [`crc32`] must keep
    /// matching.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *entry = c;
        }
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
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

    #[test]
    fn every_length_around_the_step_matches_the_byte_loop() {
        let bytes: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for end in start..bytes.len() {
                let slice = &bytes[start..end];
                assert_eq!(crc32(slice), crc32_reference(slice), "{start}..{end}");
            }
        }
    }

    proptest! {
        #[test]
        fn slices_at_every_offset_mod_8_match_the_byte_loop(
            bytes in prop::collection::vec(any::<u8>(), 7..308),
            len in 0usize..301,
        ) {
            for start in 0..8 {
                let end = (start + len).min(bytes.len());
                let slice = &bytes[start..end];
                prop_assert_eq!(crc32(slice), crc32_reference(slice), "{}..{}", start, end);
            }
        }
    }
}
