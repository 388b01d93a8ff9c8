//! Append-only segment files.
//!
//! A shard directory holds a generation-numbered sequence of segment
//! files (`seg-<gen>.log`). Exactly one — the highest generation — is
//! *active* and appended to; older segments are sealed and immutable.
//! Appends go through a single `write(2)` per batch, so once
//! [`SegmentWriter::append`] returns, the batch survives a process kill
//! (machine-crash durability additionally needs [`SegmentWriter::sync`],
//! wired to the engine's flush policy).

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use super::crash::{self, CrashSite};
use super::record::{decode, DecodeError, Record};

/// Name of a segment log file for `gen`.
pub fn log_name(gen: u64) -> String {
    format!("seg-{gen:010}.log")
}

/// Name of the `.hint` sidecar earlier versions wrote beside a sealed log
/// (compaction removes a leftover one with its log; nothing reads it).
pub fn hint_name(gen: u64) -> String {
    format!("seg-{gen:010}.hint")
}

/// Name of an uncommitted merge output for `gen` (renamed to
/// [`log_name`] only once fully written).
pub fn merge_tmp_name(gen: u64) -> String {
    format!("merge-{gen:010}.tmp")
}

/// Parses `seg-<gen>.log` back to its generation.
pub fn parse_log_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// Lists segment generations in a shard directory, ascending.
pub fn list_generations(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(gen) = entry.file_name().to_str().and_then(parse_log_name) {
            gens.push(gen);
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Deletes stale `merge-*.tmp` files left by a crash mid-compaction.
pub fn remove_stale_merge_tmps(dir: &Path) -> std::io::Result<usize> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("merge-") && name.ends_with(".tmp") {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// The open, appendable tail segment of a shard.
#[derive(Debug)]
pub struct SegmentWriter {
    gen: u64,
    file: File,
    len: u64,
    path: PathBuf,
}

impl SegmentWriter {
    /// Creates a fresh active segment for `gen`.
    pub fn create(dir: &Path, gen: u64) -> std::io::Result<Self> {
        let path = dir.join(log_name(gen));
        let file = OpenOptions::new().create_new(true).append(true).open(&path)?;
        Ok(SegmentWriter { gen, file, len: 0, path })
    }

    /// Reopens an existing segment for append at `valid_len` (the length
    /// recovery validated; anything beyond was already truncated).
    pub fn reopen(dir: &Path, gen: u64, valid_len: u64) -> std::io::Result<Self> {
        let path = dir.join(log_name(gen));
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(SegmentWriter { gen, file, len: valid_len, path })
    }

    /// The segment's generation number.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Bytes appended so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an encoded batch of frames, returning the offset of its
    /// first byte. One `write(2)` per call: when this returns, the batch
    /// is in the kernel page cache and survives a process kill.
    pub fn append(&mut self, encoded: &[u8]) -> std::io::Result<u64> {
        if let Some(split) = crash::armed_split(CrashSite::Append, encoded.len()) {
            // Crash injection: land the torn prefix on disk, then die.
            self.file.write_all(&encoded[..split]).expect("crash-injection prefix write");
            let _ = self.file.sync_data();
            crash::abort_now();
        }
        let offset = self.len;
        self.file.write_all(encoded)?;
        self.len += encoded.len() as u64;
        Ok(offset)
    }

    /// `fdatasync(2)` — machine-crash durability for everything appended.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// Path of the underlying log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One record recovered by [`scan`], with its frame location.
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// The decoded record.
    pub record: Record,
    /// Byte offset of the frame within the segment.
    pub offset: u64,
    /// Total frame length in bytes.
    pub len: u32,
}

/// Outcome of scanning a segment log.
#[derive(Debug)]
pub struct ScanResult {
    /// Every whole, checksum-valid record in file order.
    pub records: Vec<ScannedRecord>,
    /// Length of the valid prefix of the file.
    pub valid_len: u64,
    /// Why the scan stopped early, if it did (`None` = clean EOF).
    pub torn: Option<DecodeError>,
}

/// Reads a segment log, decoding frames until EOF or the first torn /
/// corrupt frame. The caller decides what a scan that stopped short
/// means: recovery truncates at `valid_len` and counts, active segment or
/// sealed; compaction refuses the input.
pub fn scan(path: &Path) -> std::io::Result<ScanResult> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut torn = None;
    while pos < buf.len() {
        match decode(&buf[pos..]) {
            Ok((record, len)) => {
                records.push(ScannedRecord { record, offset: pos as u64, len: len as u32 });
                pos += len;
            }
            Err(e) => {
                torn = Some(e);
                break;
            }
        }
    }
    Ok(ScanResult { records, valid_len: pos as u64, torn })
}

/// Truncates the log at `valid_len`, discarding a torn tail.
pub fn truncate(path: &Path, valid_len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_data()
}

/// Reads one record's frame bytes at a known location (keydir lookup).
pub fn read_at(path: &Path, offset: u64, len: u32) -> std::io::Result<Record> {
    use std::io::{Seek, SeekFrom};
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len as usize];
    file.read_exact(&mut buf)?;
    decode(&buf)
        .map(|(r, _)| r)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dio-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn encode_one(rec: &Record) -> Vec<u8> {
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        buf
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        let r1 = Record::value(1, "a", 0, b"{\"x\":1}".to_vec());
        let r2 = Record::tombstone(2, "a", 0);
        let off1 = w.append(&encode_one(&r1)).unwrap();
        let off2 = w.append(&encode_one(&r2)).unwrap();
        assert_eq!(off1, 0);
        assert_eq!(off2, r1.encoded_len() as u64);

        let scanned = scan(w.path()).unwrap();
        assert!(scanned.torn.is_none());
        assert_eq!(scanned.records.len(), 2);
        assert_eq!(scanned.records[0].record, r1);
        assert_eq!(scanned.records[1].record, r2);
        assert_eq!(scanned.valid_len, w.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let dir = tmp_dir("torn");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        let r1 = Record::value(1, "a", 0, b"{\"x\":1}".to_vec());
        w.append(&encode_one(&r1)).unwrap();
        let whole = w.len();
        // A torn second record: only half its bytes made it.
        let r2 = Record::value(2, "a", 1, b"{\"x\":2}".to_vec());
        let enc = encode_one(&r2);
        w.append(&enc[..enc.len() / 2]).unwrap();

        let path = w.path().to_path_buf();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.valid_len, whole);
        assert!(scanned.torn.is_some());
        truncate(&path, scanned.valid_len).unwrap();
        let again = scan(&path).unwrap();
        assert!(again.torn.is_none());
        assert_eq!(again.records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_at_fetches_single_record() {
        let dir = tmp_dir("readat");
        let mut w = SegmentWriter::create(&dir, 3).unwrap();
        let r1 = Record::value(1, "idx", 7, b"{\"v\":\"a\"}".to_vec());
        let r2 = Record::value(2, "idx", 8, b"{\"v\":\"b\"}".to_vec());
        w.append(&encode_one(&r1)).unwrap();
        let off = w.append(&encode_one(&r2)).unwrap();
        let got = read_at(w.path(), off, r2.encoded_len() as u32).unwrap();
        assert_eq!(got, r2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_listing_and_names() {
        let dir = tmp_dir("gens");
        SegmentWriter::create(&dir, 2).unwrap();
        SegmentWriter::create(&dir, 10).unwrap();
        std::fs::write(dir.join("merge-0000000005.tmp"), b"junk").unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![2, 10]);
        assert_eq!(remove_stale_merge_tmps(&dir).unwrap(), 1);
        assert_eq!(parse_log_name(&log_name(42)), Some(42));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
