//! CRC-32 record checksums.
//!
//! Every framed record in the on-disk format (see `docs/FORMAT.md`) carries
//! a CRC-32 of its payload so that recovery can distinguish a torn tail —
//! the expected artifact of a crash mid-append — from a fully written
//! record. The variant is CRC-32/ISO-HDLC (polynomial `0xEDB88320`
//! reflected, init `0xFFFFFFFF`, final XOR `0xFFFFFFFF`): the same
//! parameters as zlib/PNG/Ethernet, chosen so the stored values can be
//! cross-checked with any standard tool.
//!
//! The loop is *slicing-by-8*: eight 256-entry tables, table `k` holding
//! the CRC of a byte followed by `k` zero bytes, fold eight input bytes per
//! step with eight independent lookups instead of eight dependent ones.
//! Every checkpoint, recovery and WAL append checksums its payload, so this
//! is the difference between ≈2.7 ns and well under 1 ns per byte. The
//! bytewise loop it replaces is kept as the test oracle.

/// The slicing tables for the reflected polynomial, built at compile time:
/// `TABLES[0]` is the classic bytewise table, and `TABLES[k][b]` advances
/// `TABLES[k - 1][b]` by one more zero byte.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc; // lint:allow(panic, const-eval loop with i < 256; fails at compile time, not runtime)
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // lint:allow-start(panic, const-eval loops with k < 8 and i < 256; fail at compile time, not runtime)
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            // lint:allow-end(panic)
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32/ISO-HDLC checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let (blocks, tail) = data.as_chunks::<8>();
    for block in blocks {
        let word = u64::from_le_bytes(*block) ^ u64::from(crc);
        let byte = |shift: u32| ((word >> shift) & 0xFF) as usize;
        // lint:allow-start(panic, constant table numbers < 8 and every index masked to the 256-entry tables; branch-free on the WAL hot path)
        crc = TABLES[7][byte(0)]
            ^ TABLES[6][byte(8)]
            ^ TABLES[5][byte(16)]
            ^ TABLES[4][byte(24)]
            ^ TABLES[3][byte(32)]
            ^ TABLES[2][byte(40)]
            ^ TABLES[1][byte(48)]
            ^ TABLES[0][byte(56)];
        // lint:allow-end(panic)
    }
    for &b in tail {
        // lint:allow(panic, index masked to the 256-entry table; branch-free on the WAL hot path)
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop slicing-by-8 replaced: one table lookup per
    /// byte, each depending on the last.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn matches_published_check_value() {
        // The standard CRC-32 check value: crc32(b"123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        let a = crc32(b"hello");
        let b = crc32(b"hellp");
        assert_ne!(a, b);
        // Stable across calls.
        assert_eq!(a, crc32(b"hello"));
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_loop_at_every_length_and_offset() {
        // A random buffer (xorshift, fixed seed); every length 0..=1024 at
        // each of the eight alignments a slice can start at.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset}, len {len}"
                );
            }
        }
    }
}
