//! CRC32C (Castagnoli) — the page-trailer checksum.
//!
//! Implemented in-tree (table-driven, slicing-by-8: eight bytes per step
//! through eight tables) because the workspace vendors no checksum crate.
//! CRC32C detects all single-bit and single-byte errors and all burst
//! errors up to 32 bits, which covers the torn-write and bit-rot cases
//! [`crate::FileDisk`] guards against.

/// Reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which is what lets eight
/// input bytes be folded in one step.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table, byte-at-a-time loop the slicing version replaced,
    /// kept as the reference it must agree with.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn matches_published_vectors() {
        // RFC 3720 / Castagnoli reference vectors.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn detects_any_single_byte_change() {
        let base: Vec<u8> = (0..255u8).collect();
        let reference = crc32c(&base);
        for i in 0..base.len() {
            let mut corrupt = base.clone();
            corrupt[i] ^= 0x40;
            assert_ne!(crc32c(&corrupt), reference, "flip at {i} went undetected");
        }
    }

    #[test]
    fn slicing_agrees_with_bytewise_on_a_page_and_every_tail_length() {
        let page: Vec<u8> = (0..crate::PAGE_SIZE).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(crc32c(&page), crc32c_bytewise(&page));
        for n in 0..=64 {
            assert_eq!(crc32c(&page[..n]), crc32c_bytewise(&page[..n]), "len {n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]

        #[test]
        fn slicing_agrees_with_bytewise(
            len in 0usize..=20_000,
            seed in any::<u64>(),
        ) {
            let mut x = seed | 1;
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            prop_assert_eq!(crc32c(&data), crc32c_bytewise(&data));
        }
    }
}
