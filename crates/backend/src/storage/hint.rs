//! Hint files: per-segment keydir snapshots for fast restart.
//!
//! A sealed segment `seg-<gen>.log` gets a sidecar `seg-<gen>.hint`
//! holding one compact entry per record — everything the keydir needs
//! (key, seqno, flags, frame location) without the document bodies — so
//! reopening a large store reads kilobytes of hints instead of re-scanning
//! gigabytes of logs.
//!
//! Entry layout (little-endian):
//!
//! ```text
//! [crc: u32]         checksum of the rest of the entry
//! [seqno: u64]
//! [flags: u8]
//! [index_len: u16]
//! [doc_id: u64]
//! [frame_len: u32]   length of the record's frame in the log
//! [offset: u64]      offset of the frame in the log
//! [index_name: bytes]
//! ```
//!
//! followed by a 24-byte trailer `[magic u32]["covered" log_len u64]
//! [entry_count u64][crc u32]`. A hint is trusted only when the trailer
//! verifies **and** `log_len` equals the log's current size — a torn
//! hint write (crash at the `hint` site) or a log truncated by recovery
//! both invalidate it, and the engine falls back to scanning the log and
//! rewrites the hint.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use super::crash::{self, CrashSite};
use super::crc::{crc32, Crc32};
use super::segment::ScannedRecord;

const MAGIC: u32 = 0x4449_4F48; // "DIOH"
const ENTRY_HEADER: usize = 4 + 8 + 1 + 2 + 8 + 4 + 8;
const TRAILER_LEN: usize = 4 + 8 + 8 + 4;

/// One keydir entry recovered from a hint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintEntry {
    /// Shard-local mutation sequence number.
    pub seqno: u64,
    /// Record flag bits.
    pub flags: u8,
    /// Index (session) name, shared with the record the entry describes.
    pub index: Arc<str>,
    /// Document id within the index.
    pub doc_id: u64,
    /// Frame length in the log.
    pub frame_len: u32,
    /// Frame offset in the log.
    pub offset: u64,
}

impl HintEntry {
    /// Builds the hint entry for a scanned log record.
    pub fn from_scanned(rec: &ScannedRecord) -> Self {
        HintEntry {
            seqno: rec.record.seqno,
            flags: rec.record.flags,
            index: Arc::clone(&rec.record.index),
            doc_id: rec.record.doc_id,
            frame_len: rec.len,
            offset: rec.offset,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&self.seqno.to_le_bytes());
        out.push(self.flags);
        out.extend_from_slice(&(self.index.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.doc_id.to_le_bytes());
        out.extend_from_slice(&self.frame_len.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(self.index.as_bytes());
        let crc = crc32(&out[start + 4..]);
        out[start..start + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Serializes and writes the hint file for a sealed log of `log_len`
/// bytes. Subject to `hint`-site crash injection: the process may die
/// with only a prefix on disk, which [`read`] later rejects.
pub fn write(path: &Path, entries: &[HintEntry], log_len: u64) -> std::io::Result<()> {
    let mut buf = Vec::new();
    for e in entries {
        e.encode_into(&mut buf);
    }
    let trailer_start = buf.len();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&log_len.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    let crc = crc32(&buf[trailer_start..trailer_start + 20]);
    buf.extend_from_slice(&crc.to_le_bytes());

    let mut file = std::fs::File::create(path)?;
    if let Some(split) = crash::armed_split(CrashSite::Hint, buf.len()) {
        file.write_all(&buf[..split]).expect("crash-injection prefix write");
        let _ = file.sync_data();
        crash::abort_now();
    }
    file.write_all(&buf)?;
    file.sync_data()
}

/// Reads and validates a hint file against the log's current size.
/// Returns `None` — never an error — when the hint is missing, torn,
/// corrupt, or stale; the caller falls back to scanning the log.
pub fn read(path: &Path, log_len: u64) -> Option<Vec<HintEntry>> {
    let mut buf = Vec::new();
    std::fs::File::open(path).ok()?.read_to_end(&mut buf).ok()?;
    if buf.len() < TRAILER_LEN {
        return None;
    }
    let body_len = buf.len() - TRAILER_LEN;
    let trailer = &buf[body_len..];
    let magic = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let covered = u64::from_le_bytes(trailer[4..12].try_into().ok()?);
    let count = u64::from_le_bytes(trailer[12..20].try_into().ok()?);
    let crc = u32::from_le_bytes(trailer[20..24].try_into().ok()?);
    if magic != MAGIC || covered != log_len || crc32(&trailer[..20]) != crc {
        return None;
    }

    let mut entries = Vec::with_capacity(count as usize);
    let mut pos = 0usize;
    while pos < body_len {
        if body_len - pos < ENTRY_HEADER {
            return None;
        }
        let e = &buf[pos..];
        let entry_crc = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
        let seqno = u64::from_le_bytes(e[4..12].try_into().ok()?);
        let flags = e[12];
        let index_len = u16::from_le_bytes([e[13], e[14]]) as usize;
        let doc_id = u64::from_le_bytes(e[15..23].try_into().ok()?);
        let frame_len = u32::from_le_bytes(e[23..27].try_into().ok()?);
        let offset = u64::from_le_bytes(e[27..35].try_into().ok()?);
        let total = ENTRY_HEADER + index_len;
        if body_len - pos < total {
            return None;
        }
        let mut check = Crc32::new();
        check.update(&buf[pos + 4..pos + total]);
        if check.finish() != entry_crc {
            return None;
        }
        let index = Arc::from(std::str::from_utf8(&buf[pos + ENTRY_HEADER..pos + total]).ok()?);
        entries.push(HintEntry { seqno, flags, index, doc_id, frame_len, offset });
        pos += total;
    }
    if entries.len() as u64 != count {
        return None;
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<HintEntry> {
        vec![
            HintEntry {
                seqno: 1,
                flags: 0,
                index: "dio-a".into(),
                doc_id: 0,
                frame_len: 40,
                offset: 0,
            },
            HintEntry {
                seqno: 2,
                flags: 1,
                index: "dio-b".into(),
                doc_id: 9,
                frame_len: 33,
                offset: 40,
            },
        ]
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dio-hint-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip");
        write(&path, &sample(), 73).unwrap();
        assert_eq!(read(&path, 73).unwrap(), sample());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_log_len_rejected() {
        let path = tmp("stale");
        write(&path, &sample(), 73).unwrap();
        assert!(read(&path, 72).is_none(), "log shrank after hint was written");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_truncation_rejected() {
        let path = tmp("trunc");
        write(&path, &sample(), 73).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(read(&path, 73).is_none(), "torn hint of {cut} bytes accepted");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_none() {
        assert!(read(&tmp("missing-nonexistent"), 0).is_none());
    }
}
