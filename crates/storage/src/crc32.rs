//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the one
//! checksum behind every persisted and wire format: page and header
//! checksums and the checksum sidecar ([`crate::pager`]), WAL frames
//! ([`crate::wal`]) and the server's wire frames.
//!
//! The kernel is slicing-by-16: sixteen 256-entry tables, built at compile
//! time, fold 16 input bytes per step instead of one, and a bytewise loop on
//! the first table finishes the tail. Its output equals the classic
//! one-table loop's bit for bit. The polynomial is IEEE, not CRC-32C,
//! because every checksum already on disk or on the wire uses it.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let a = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    /// One bit at a time, straight from the definition: the reference the
    /// table kernel must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    POLY ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Pins the on-disk and wire formats: each value agrees with zlib's
    /// `crc32` and with the bytewise kernel every stored checksum was
    /// written by.
    #[test]
    fn golden_values() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        assert_eq!(crc32(&page), 0xFE7C_712F);
        assert_eq!(crc32(&page[3..8187]), 0x6A8D_9B05);
    }

    #[test]
    fn matches_bitwise_reference() {
        let mut state = 0x5EED_C0DE_u64;
        let buf: Vec<u8> = (0..2 * PAGE_SIZE)
            .map(|_| splitmix64(&mut state) as u8)
            .collect();
        for len in 0..=64 {
            for start in 0..4 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "len {len} start {start}");
            }
        }
        for _ in 0..600 {
            let start = (splitmix64(&mut state) % PAGE_SIZE as u64) as usize;
            let len = (splitmix64(&mut state) % (PAGE_SIZE as u64 + 1)) as usize;
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "len {len} start {start}");
        }
    }
}
