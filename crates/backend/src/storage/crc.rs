//! CRC-32 (IEEE 802.3 polynomial) with compile-time lookup tables.
//!
//! Every on-disk frame — each record of a segment — is guarded by
//! this checksum so a torn or bit-flipped tail is detected on reopen
//! instead of being replayed as data. A frame is a few hundred bytes and is
//! summed on append, on reopen's scan and in `verify`, so the sum runs
//! slice-by-8: eight bytes per step through eight independent lookups,
//! instead of one byte per step through a lookup that waits for the last.

/// The reflected IEEE polynomial used by zip/png/ethernet (and bitcask).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: the checksum state after byte `b` and then `k` zero
/// bytes. `TABLES[0]` is the classic one-byte-at-a-time table.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
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
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// An incremental CRC-32 over a byte stream.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let low = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ self.state;
            self.state = TABLES[7][(low & 0xFF) as usize]
                ^ TABLES[6][((low >> 8) & 0xFF) as usize]
                ^ TABLES[5][((low >> 16) & 0xFF) as usize]
                ^ TABLES[4][(low >> 24) as usize]
                ^ TABLES[3][chunk[4] as usize]
                ^ TABLES[2][chunk[5] as usize]
                ^ TABLES[1][chunk[6] as usize]
                ^ TABLES[0][chunk[7] as usize];
        }
        self.update_bytewise(chunks.remainder());
    }

    /// One byte per step: the tail of [`Self::update`], and the reference
    /// the tests hold it to.
    fn update_bytewise(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state ^ b as u32) & 0xFF) as usize;
            self.state = (self.state >> 8) ^ TABLES[0][idx];
        }
    }

    /// Finishes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes fed in arbitrary pieces sum to what the bytewise
        /// reference makes of them in one piece.
        #[test]
        fn any_split_matches_the_bytewise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..6),
        ) {
            let mut reference = Crc32::new();
            reference.update_bytewise(&bytes);
            prop_assert_eq!(crc32(&bytes), reference.finish());
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.extend([0, bytes.len()]);
            cuts.sort_unstable();
            let mut pieces = Crc32::new();
            for piece in cuts.windows(2) {
                pieces.update(&bytes[piece[0]..piece[1]]);
            }
            prop_assert_eq!(pieces.finish(), reference.finish());
        }
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut c = Crc32::new();
        c.update(b"hello ");
        c.update(b"world");
        assert_eq!(c.finish(), crc32(b"hello world"));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x40;
        assert_ne!(crc32(&data), clean);
    }
}
