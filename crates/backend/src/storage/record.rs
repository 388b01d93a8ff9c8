//! On-disk record framing for segment files.
//!
//! Every mutation of the store — a run of events, a document write, a
//! per-document tombstone, a whole-index drop barrier, or the dictionary
//! entries an index's runs name — is one framed record (DESIGN.md §11.1):
//!
//! ```text
//! [crc: u32 LE]          checksum of every following byte of the frame
//! [seqno: u64 LE]        shard-local mutation sequence number
//! [flags: u8]            bit0 = tombstone, bit1 = drop-index barrier,
//!                        bit2 = a run of events, bit3 = dictionary entries
//! [index_len: u16 LE]    length of the index (session) name
//! [doc_id: u64 LE]       document id within the index; a run's first id
//! [value_len: u32 LE]    length of the value
//! [index_name: bytes]
//! [value: bytes]         JSON document text, a run's or a dictionary
//!                        record's payload (`crate::row`)
//! ```
//!
//! The CRC covers the whole frame after itself, so a torn tail — a crash
//! mid-`write` — fails verification no matter which byte the kill landed
//! on, and recovery truncates the segment at the last whole record.

use std::sync::Arc;

use super::crc::{crc32, Crc32};

/// Fixed-size portion of a frame (everything before the two variable
/// fields).
pub const HEADER_LEN: usize = 4 + 8 + 1 + 2 + 8 + 4;

/// Flag bit: the record deletes `doc_id` rather than writing it.
pub const FLAG_TOMBSTONE: u8 = 0b0000_0001;
/// Flag bit: the record drops every older record of `index` (a
/// whole-index delete barrier; `doc_id` and `value` are empty).
pub const FLAG_DROP_INDEX: u8 = 0b0000_0010;
/// Flag bit: the value is a run of events for the consecutive ids from
/// `doc_id` on (`crate::row`; `dio_syscall::codec` for an earlier format).
pub const FLAG_EVENTS: u8 = 0b0000_0100;
/// Flag bit: the value is dictionary entries of `index` that its runs name
/// by id (`doc_id` is 0).
pub const FLAG_DICT: u8 = 0b0000_1000;

/// A decoded record frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Shard-local mutation sequence number (newest wins).
    pub seqno: u64,
    /// Flag bits (`FLAG_TOMBSTONE`, `FLAG_DROP_INDEX`, `FLAG_EVENTS`,
    /// `FLAG_DICT`); at most one is set.
    pub flags: u8,
    /// The index (session) the record belongs to; the records of one
    /// appended batch share the allocation.
    pub index: Arc<str>,
    /// Document id within the index.
    pub doc_id: u64,
    /// JSON document body or run payload (empty for tombstones and
    /// barriers).
    pub value: Vec<u8>,
}

impl Record {
    /// A document write.
    pub fn value(seqno: u64, index: &str, doc_id: u64, value: Vec<u8>) -> Self {
        Record { seqno, flags: 0, index: Arc::from(index), doc_id, value }
    }

    /// A per-document tombstone.
    pub fn tombstone(seqno: u64, index: &str, doc_id: u64) -> Self {
        Record { seqno, flags: FLAG_TOMBSTONE, index: Arc::from(index), doc_id, value: Vec::new() }
    }

    /// A whole-index drop barrier.
    pub fn drop_index(seqno: u64, index: &str) -> Self {
        Record {
            seqno,
            flags: FLAG_DROP_INDEX,
            index: Arc::from(index),
            doc_id: 0,
            value: Vec::new(),
        }
    }

    /// Whether this record is a per-document tombstone.
    pub fn is_tombstone(&self) -> bool {
        self.flags & FLAG_TOMBSTONE != 0
    }

    /// Whether this record is a whole-index drop barrier.
    pub fn is_drop_index(&self) -> bool {
        self.flags & FLAG_DROP_INDEX != 0
    }

    /// Total encoded length of the frame in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.index.len() + self.value.len()
    }

    /// Appends the encoded frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0u8; 4]); // crc placeholder
        out.extend_from_slice(&self.seqno.to_le_bytes());
        out.push(self.flags);
        out.extend_from_slice(&(self.index.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.doc_id.to_le_bytes());
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(self.index.as_bytes());
        out.extend_from_slice(&self.value);
        let crc = crc32(&out[start + 4..]);
        out[start..start + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Why decoding stopped at a given offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than a full frame claims — a torn tail.
    Truncated,
    /// The frame is complete but its checksum does not match.
    BadCrc,
    /// A length field is implausible (corrupt header).
    BadHeader,
}

fn read_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

const KNOWN_FLAGS: u8 = FLAG_TOMBSTONE | FLAG_DROP_INDEX | FLAG_EVENTS | FLAG_DICT;

/// Upper bound on a single document body; a `value_len` beyond this is
/// treated as header corruption rather than a gigantic allocation.
pub const MAX_VALUE_LEN: u32 = 1 << 30;

/// Decodes one frame from the front of `buf`, returning the record and
/// its total encoded length.
pub fn decode(buf: &[u8]) -> Result<(Record, usize), DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let crc = read_u32(&buf[0..4]);
    let seqno = read_u64(&buf[4..12]);
    let flags = buf[12];
    let index_len = read_u16(&buf[13..15]) as usize;
    let doc_id = read_u64(&buf[15..23]);
    let value_len = read_u32(&buf[23..27]);
    if value_len > MAX_VALUE_LEN || flags.count_ones() > 1 || flags & !KNOWN_FLAGS != 0 {
        return Err(DecodeError::BadHeader);
    }
    let total = HEADER_LEN + index_len + value_len as usize;
    if buf.len() < total {
        return Err(DecodeError::Truncated);
    }
    let mut check = Crc32::new();
    check.update(&buf[4..total]);
    if check.finish() != crc {
        return Err(DecodeError::BadCrc);
    }
    let index = match std::str::from_utf8(&buf[HEADER_LEN..HEADER_LEN + index_len]) {
        Ok(s) => Arc::from(s),
        Err(_) => return Err(DecodeError::BadHeader),
    };
    let value = buf[HEADER_LEN + index_len..total].to_vec();
    Ok((Record { seqno, flags, index, doc_id, value }, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let rec = Record::value(7, "dio-s1", 42, br#"{"syscall":"read"}"#.to_vec());
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        assert_eq!(buf.len(), rec.encoded_len());
        let (back, len) = decode(&buf).unwrap();
        assert_eq!(back, rec);
        assert_eq!(len, buf.len());
    }

    #[test]
    fn tombstone_and_barrier_roundtrip() {
        for rec in [Record::tombstone(1, "x", 3), Record::drop_index(2, "x")] {
            let mut buf = Vec::new();
            rec.encode_into(&mut buf);
            let (back, _) = decode(&buf).unwrap();
            assert_eq!(back, rec);
        }
    }

    /// A document frame, a run frame and a dictionary frame (the checksum
    /// covers whatever payload a frame carries).
    fn frames() -> Vec<Vec<u8>> {
        let frame = |flags, doc_id, value: &[u8]| Record {
            seqno: 9,
            flags,
            index: Arc::from("dio-s1"),
            doc_id,
            value: value.to_vec(),
        };
        let run = frame(FLAG_EVENTS, 4, &[3, 2, 40, 1, 0, 0, 8, 4, 0, 6, 2, 7, 16]);
        let dict = frame(FLAG_DICT, 0, &[3, 0, 1, 2, b's', b'1', 0, 0, 0, 0]);
        [Record::value(9, "dio-s1", 1, b"{\"a\":1}".to_vec()), run, dict]
            .iter()
            .map(|rec| {
                let mut buf = Vec::new();
                rec.encode_into(&mut buf);
                assert_eq!(decode(&buf), Ok((rec.clone(), buf.len())));
                buf
            })
            .collect()
    }

    #[test]
    fn every_partial_prefix_is_truncated_or_bad() {
        for buf in frames() {
            for cut in 0..buf.len() {
                match decode(&buf[..cut]) {
                    Err(DecodeError::Truncated) | Err(DecodeError::BadHeader) => {}
                    other => panic!("prefix of {cut} bytes decoded as {other:?}"),
                }
            }
        }
    }

    #[test]
    fn any_flipped_byte_fails_crc() {
        for buf in frames() {
            for i in 0..buf.len() {
                let mut bad = buf.clone();
                bad[i] ^= 0x01;
                match decode(&bad) {
                    Err(DecodeError::Truncated | DecodeError::BadCrc | DecodeError::BadHeader) => {}
                    Ok(_) => panic!("flip at byte {i} went undetected"),
                }
            }
        }
    }

    #[test]
    fn two_kinds_in_one_frame_are_a_bad_header() {
        let mut rec = Record::tombstone(1, "x", 3);
        rec.flags |= FLAG_EVENTS;
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        assert_eq!(decode(&buf), Err(DecodeError::BadHeader));
    }
}
