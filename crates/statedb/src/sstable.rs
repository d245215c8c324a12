//! Immutable sorted string tables (SSTables).
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! [data block frame]*          each frame: [len u32][crc u32][payload]
//! [filter frame]               bloom filter over every key in the table
//! [index frame]                sparse index: first key + offset per block
//! [footer, fixed 60 bytes]     offsets/lengths/counts + magic + crc
//! ```
//!
//! Data block payloads hold consecutive records in key order:
//! `[keylen u16][key][tag u8][vlen u32?][value?][block u64][tx u32]`
//! where tag 1 = value present, tag 0 = tombstone. Blocks target
//! `block_bytes` before cutting, so the sparse index stays tiny (one
//! entry per block, not per record). Frames are the block file's, written,
//! checked and read back by `fabric_store::record`, so a torn or
//! bit-flipped table is detected at read time, not silently merged
//! downstream; the footer, index and records decode through its
//! [`Fields`] reader.
//!
//! Readers share an open file handle and use positioned reads
//! (`read_at`), so concurrent point lookups from validator worker
//! threads never contend on a seek cursor. Point reads and range scans
//! fetch one data block at a time through the block cache. Compaction
//! reads each input table front to back with a [`CompactionReader`]
//! instead: one `read_exact_at` per run of consecutive frames (up to
//! `IO_RUN_BYTES`, 32 KiB), every frame checked as a point read checks
//! it, and nothing put in the block cache — compaction empties the cache
//! when it ends, so those blocks would only have evicted the point
//! reads' ones. The builder likewise writes through one buffer of that
//! size rather than one `write` per block.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fabric_store::crc32::crc32;
use fabric_store::record::{check_frame, read_frame, write_frame, Fields};
use fabric_store::StoreError;

use crate::bloom::Bloom;
use crate::cache::Caches;
use crate::Version;

const TABLE_MAGIC: u64 = 0x4c56_5354_4442_3031; // "LVSTDB01"
const FOOTER_BYTES: usize = 60;
/// The most bytes one compaction read, or one table-builder write, moves
/// (a lone larger frame is read whole). A compaction holds one run per
/// input table at once, so this also bounds its read buffers.
const IO_RUN_BYTES: usize = 32 * 1024;
/// Bloom filter density of every table (bits per key).
const BLOOM_BITS_PER_KEY: u32 = 10;

/// One decoded record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    pub key: String,
    /// `None` = tombstone (the key was deleted at `version`).
    pub value: Option<Vec<u8>>,
    pub version: Version,
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// A failed read of a table the manifest names. The file missing, or
/// ending before the bytes its footer or index places there, is lost data
/// ([`StoreError::Corrupt`]); anything else is the OS refusing.
fn read_error(e: std::io::Error) -> StoreError {
    match e.kind() {
        ErrorKind::NotFound | ErrorKind::UnexpectedEof => corrupt(format!("sstable: {e}")),
        _ => StoreError::Io(e),
    }
}

/// File name for a table with the given sequence number.
pub fn table_file_name(seq: u64) -> String {
    format!("sst-{seq:010}.tbl")
}

/// Parse a table sequence number back out of a file name.
pub fn parse_table_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("sst-")?.strip_suffix(".tbl")?;
    stem.parse().ok()
}

// ---------------------------------------------------------------------------
// record & frame encoding
// ---------------------------------------------------------------------------

fn encode_record(out: &mut Vec<u8>, key: &str, value: Option<&[u8]>, version: Version) {
    debug_assert!(key.len() <= u16::MAX as usize, "key too long for SSTable");
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    match value {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        None => out.push(0),
    }
    out.extend_from_slice(&version.block_num.to_le_bytes());
    out.extend_from_slice(&version.tx_num.to_le_bytes());
}

/// Decode every record in a data-block payload.
pub fn decode_block(payload: &[u8]) -> Result<Vec<Record>, StoreError> {
    let mut fields = Fields::new(payload, &"sstable record");
    let mut records = Vec::new();
    while !fields.is_empty() {
        let key_len = fields.u16()? as usize;
        let key = fields.utf8(key_len)?.to_string();
        let value = match fields.u8()? {
            0 => None,
            1 => {
                let value_len = fields.u32()? as usize;
                Some(fields.bytes(value_len)?.to_vec())
            }
            tag => return Err(fields.corrupt(format_args!("bad record tag {tag}"))),
        };
        let version = Version {
            block_num: fields.u64()?,
            tx_num: fields.u32()?,
        };
        records.push(Record {
            key,
            value,
            version,
        });
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// index
// ---------------------------------------------------------------------------

/// Sparse index entry: where one data block lives and its first key.
#[derive(Clone, Debug)]
pub struct IndexEntry {
    pub first_key: String,
    pub offset: u64,
    pub len: u32,
}

fn encode_index(entries: &[IndexEntry], last_key: &str) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&(e.first_key.len() as u32).to_le_bytes());
        out.extend_from_slice(e.first_key.as_bytes());
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
    }
    out.extend_from_slice(&(last_key.len() as u32).to_le_bytes());
    out.extend_from_slice(last_key.as_bytes());
    out
}

fn decode_index(payload: &[u8]) -> Result<(Vec<IndexEntry>, String), StoreError> {
    let mut fields = Fields::new(payload, &"sstable index");
    // An entry takes at least 16 bytes: key length, offset, frame length.
    let n = fields.count(16, "entry count")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let key_len = fields.u32()? as usize;
        entries.push(IndexEntry {
            first_key: fields.utf8(key_len)?.to_string(),
            offset: fields.u64()?,
            len: fields.u32()?,
        });
    }
    let key_len = fields.u32()? as usize;
    let last_key = fields.utf8(key_len)?.to_string();
    fields.end()?;
    Ok((entries, last_key))
}

// ---------------------------------------------------------------------------
// builder
// ---------------------------------------------------------------------------

/// Streams records (already in key order) into a new table file.
pub struct TableBuilder {
    path: PathBuf,
    file: BufWriter<File>,
    seq: u64,
    block_bytes: usize,
    current: Vec<u8>,
    current_first_key: Option<String>,
    index: Vec<IndexEntry>,
    /// Every key added, in order: the bloom filter's input, and the last
    /// one is the table's max key.
    keys: Vec<String>,
    offset: u64,
    entry_count: u64,
}

impl TableBuilder {
    pub fn create(dir: &Path, seq: u64, block_bytes: usize) -> Result<TableBuilder, StoreError> {
        let path = dir.join(table_file_name(seq));
        // read+write: `finish` hands the same descriptor to the reader.
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(StoreError::Io)?;
        Ok(TableBuilder {
            path,
            file: BufWriter::with_capacity(IO_RUN_BYTES, file),
            seq,
            block_bytes: block_bytes.max(256),
            current: Vec::new(),
            current_first_key: None,
            index: Vec::new(),
            keys: Vec::new(),
            offset: 0,
            entry_count: 0,
        })
    }

    /// Append one record; keys must arrive in strictly increasing order.
    /// The key is taken by value: the builder keeps every key until
    /// `finish`, and both callers (flush and compaction) own theirs.
    pub fn add(
        &mut self,
        key: String,
        value: Option<&[u8]>,
        version: Version,
    ) -> Result<(), StoreError> {
        debug_assert!(
            self.keys.last().is_none_or(|last| *last < key),
            "sstable keys must be strictly increasing"
        );
        if self.current_first_key.is_none() {
            self.current_first_key = Some(key.clone());
        }
        encode_record(&mut self.current, &key, value, version);
        self.keys.push(key);
        self.entry_count += 1;
        if self.current.len() >= self.block_bytes {
            self.cut_block()?;
        }
        Ok(())
    }

    fn cut_block(&mut self) -> Result<(), StoreError> {
        if self.current.is_empty() {
            return Ok(());
        }
        let len = write_frame(&mut self.file, &self.current).map_err(StoreError::Io)? as u32;
        self.index.push(IndexEntry {
            first_key: self
                .current_first_key
                .take()
                .expect("non-empty block has a first key"),
            offset: self.offset,
            len,
        });
        self.offset += len as u64;
        self.current.clear();
        Ok(())
    }

    /// Entries added so far (used to split compaction outputs).
    pub fn bytes_written(&self) -> u64 {
        self.offset + self.current.len() as u64
    }

    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Finish the table: filter + index + footer, fsync if asked, and
    /// return the opened [`Table`]. An empty builder is an error — the
    /// engine never writes empty tables.
    pub fn finish(mut self, sync: bool) -> Result<Table, StoreError> {
        self.cut_block()?;
        if self.index.is_empty() {
            return Err(corrupt("sstable: refusing to write an empty table"));
        }
        let bloom = Bloom::build(
            self.keys.iter().map(String::as_str),
            self.keys.len(),
            BLOOM_BITS_PER_KEY,
        );
        let filter_off = self.offset;
        let filter_len = write_frame(&mut self.file, &bloom.encode()).map_err(StoreError::Io)?;
        let last_key = self
            .keys
            .last()
            .cloned()
            .expect("non-empty table has a last key");
        let index_off = filter_off + filter_len;
        let index_len = write_frame(&mut self.file, &encode_index(&self.index, &last_key))
            .map_err(StoreError::Io)?;

        let mut footer = Vec::with_capacity(FOOTER_BYTES);
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&index_len.to_le_bytes());
        footer.extend_from_slice(&filter_off.to_le_bytes());
        footer.extend_from_slice(&filter_len.to_le_bytes());
        footer.extend_from_slice(&self.entry_count.to_le_bytes());
        footer.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        let crc = crc32(&footer);
        footer.extend_from_slice(&crc.to_le_bytes());
        footer.extend_from_slice(&[0u8; 8]); // pad to FOOTER_BYTES
        debug_assert_eq!(footer.len(), FOOTER_BYTES);

        self.file.write_all(&footer).map_err(StoreError::Io)?;
        let file = self
            .file
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        if sync {
            file.sync_all().map_err(StoreError::Io)?;
        }

        let file_bytes = index_off + index_len + FOOTER_BYTES as u64;
        let min_key = self.index[0].first_key.clone();
        Ok(Table {
            seq: self.seq,
            path: self.path,
            file,
            index: self.index,
            bloom,
            min_key,
            max_key: last_key,
            entry_count: self.entry_count,
            file_bytes,
        })
    }

    /// Abandon the build and remove the partial file.
    pub fn abort(self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

/// An open, immutable table: footer metadata resident, data on disk.
pub struct Table {
    pub seq: u64,
    pub path: PathBuf,
    file: File,
    index: Vec<IndexEntry>,
    bloom: Bloom,
    pub min_key: String,
    pub max_key: String,
    pub entry_count: u64,
    pub file_bytes: u64,
}

impl Table {
    /// Open an existing table file, validating footer, index, and filter.
    pub fn open(dir: &Path, seq: u64) -> Result<Table, StoreError> {
        let path = dir.join(table_file_name(seq));
        let file = File::open(&path).map_err(read_error)?;
        let file_bytes = file.metadata().map_err(StoreError::Io)?.len();
        if file_bytes < FOOTER_BYTES as u64 {
            return Err(corrupt(format!("sstable {seq}: shorter than footer")));
        }
        let mut footer = [0u8; FOOTER_BYTES];
        file.read_exact_at(&mut footer, file_bytes - FOOTER_BYTES as u64)
            .map_err(StoreError::Io)?;
        // Six u64 fields, then the checksum over them, then padding.
        let what = format!("sstable {seq}");
        let mut fields = Fields::new(&footer, &what);
        let mut word = || fields.u64();
        let [index_off, index_len, filter_off, filter_len, entry_count, magic] =
            [word()?, word()?, word()?, word()?, word()?, word()?];
        let stored_crc = fields.u32()?;
        let padding: [u8; 8] = fields.array()?;
        if magic != TABLE_MAGIC {
            return Err(fields.corrupt("bad magic"));
        }
        if crc32(&footer[..48]) != stored_crc {
            return Err(fields.corrupt("footer checksum mismatch"));
        }
        // The padding sits outside the checksum; it is zero by
        // construction, so anything else is damage.
        if padding != [0; 8] {
            return Err(fields.corrupt("non-zero footer padding"));
        }
        let index_end = index_off.checked_add(index_len);
        if index_end.and_then(|end| end.checked_add(FOOTER_BYTES as u64)) != Some(file_bytes)
            || filter_off.checked_add(filter_len) != Some(index_off)
        {
            return Err(fields.corrupt("inconsistent footer offsets"));
        }
        let ([], index_payload) =
            read_frame(&file, index_off, index_len, format_args!("{what} index"))?;
        let (index, max_key) = decode_index(&index_payload)?;
        if index.is_empty() {
            return Err(fields.corrupt("empty index"));
        }
        let ([], filter_payload) =
            read_frame(&file, filter_off, filter_len, format_args!("{what} filter"))?;
        let bloom =
            Bloom::decode(&filter_payload).ok_or_else(|| fields.corrupt("bad bloom filter"))?;
        let min_key = index[0].first_key.clone();
        Ok(Table {
            seq,
            path,
            file,
            index,
            bloom,
            min_key,
            max_key,
            entry_count,
            file_bytes,
        })
    }

    /// Whether `key` can possibly be in this table (range + bloom check).
    pub fn may_contain(&self, key: &str) -> bool {
        key >= self.min_key.as_str() && key <= self.max_key.as_str() && self.bloom.may_contain(key)
    }

    /// True when `key` falls inside this table's key range but the bloom
    /// filter proves it absent — the case where the filter saved a block
    /// probe (range misses are excluded; they cost only two comparisons).
    pub fn bloom_negative(&self, key: &str) -> bool {
        key >= self.min_key.as_str() && key <= self.max_key.as_str() && !self.bloom.may_contain(key)
    }

    /// Index of the data block that could hold `key`.
    fn block_for(&self, key: &str) -> Option<usize> {
        // Rightmost block whose first key <= key.
        match self
            .index
            .binary_search_by(|e| e.first_key.as_str().cmp(key))
        {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// Fetch + decode one data block, through the block cache.
    pub fn read_block(&self, idx: usize, caches: &Caches) -> Result<Arc<Vec<u8>>, StoreError> {
        let key = (self.seq, idx as u32);
        if let Some(block) = caches.get_block(key) {
            return Ok(block);
        }
        let entry = &self.index[idx];
        let ([], payload) = read_frame(
            &self.file,
            entry.offset,
            u64::from(entry.len),
            format_args!("sstable {} block {idx}", self.seq),
        )?;
        let block = Arc::new(payload);
        caches.insert_block(key, Arc::clone(&block));
        Ok(block)
    }

    /// Point lookup. Returns the record if this table holds the key, and
    /// counts a block probe in `probes` whenever it touches a data block.
    pub fn get(
        &self,
        key: &str,
        caches: &Caches,
        probes: &mut u64,
    ) -> Result<Option<Record>, StoreError> {
        if !self.may_contain(key) {
            return Ok(None);
        }
        let Some(idx) = self.block_for(key) else {
            return Ok(None);
        };
        *probes += 1;
        let block = self.read_block(idx, caches)?;
        let records = decode_block(&block)?;
        Ok(records.into_iter().find(|r| r.key == key))
    }

    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Resident memory held per open table: sparse index keys plus the
    /// bloom filter (data blocks live on disk / in the block cache).
    pub fn meta_resident_bytes(&self) -> usize {
        self.index
            .iter()
            .map(|e| e.first_key.len() + 16)
            .sum::<usize>()
            + self.bloom.size_bytes()
            + self.min_key.len()
            + self.max_key.len()
    }

    /// Every record of the table in key order, read front to back in runs
    /// of consecutive frames and kept out of the block cache: the input
    /// side of a compaction.
    pub fn compaction_reader(&self) -> CompactionReader<'_> {
        CompactionReader {
            table: self,
            next_block: 0,
            run: Vec::new(),
            run_offset: 0,
            run_blocks: 0..0,
            buffered: Vec::new().into_iter(),
            done: false,
        }
    }

    /// Streaming iterator over records with `key >= start` (and
    /// `key < end` when bounded), in key order.
    pub fn scan<'a>(&'a self, start: &str, end: Option<&str>, caches: &'a Caches) -> TableIter<'a> {
        let first_block = self.block_for(start).unwrap_or(0);
        TableIter {
            table: self,
            caches,
            next_block: first_block,
            buffered: Vec::new().into_iter(),
            start: start.to_string(),
            end: end.map(str::to_string),
            done: false,
        }
    }
}

/// Iterator over one table's records within a key range.
pub struct TableIter<'a> {
    table: &'a Table,
    caches: &'a Caches,
    next_block: usize,
    buffered: std::vec::IntoIter<Record>,
    start: String,
    end: Option<String>,
    done: bool,
}

impl Iterator for TableIter<'_> {
    type Item = Result<Record, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.done {
                return None;
            }
            if let Some(record) = self.buffered.next() {
                if record.key.as_str() < self.start.as_str() {
                    continue;
                }
                if let Some(end) = &self.end {
                    if record.key.as_str() >= end.as_str() {
                        self.done = true;
                        return None;
                    }
                }
                return Some(Ok(record));
            }
            if self.next_block >= self.table.index.len() {
                self.done = true;
                return None;
            }
            // Stop early if the next block starts at/after the end bound.
            if let Some(end) = &self.end {
                if self.table.index[self.next_block].first_key.as_str() >= end.as_str() {
                    self.done = true;
                    return None;
                }
            }
            let block = match self.table.read_block(self.next_block, self.caches) {
                Ok(b) => b,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            self.next_block += 1;
            match decode_block(&block) {
                Ok(records) => self.buffered = records.into_iter(),
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Sequential whole-table reader (see [`Table::compaction_reader`]).
pub struct CompactionReader<'a> {
    table: &'a Table,
    /// The first data block not yet read from disk.
    next_block: usize,
    /// The bytes of `run_blocks`, read in one call from `run_offset`.
    run: Vec<u8>,
    run_offset: u64,
    /// Blocks of the current run not yet decoded.
    run_blocks: std::ops::Range<usize>,
    buffered: std::vec::IntoIter<Record>,
    done: bool,
}

impl CompactionReader<'_> {
    /// Read the next run: consecutive frames from `next_block` on, up to
    /// `IO_RUN_BYTES` (at least one frame).
    fn read_run(&mut self) -> Result<(), StoreError> {
        let index = &self.table.index;
        let first = self.next_block;
        let start = index[first].offset;
        let mut end = start;
        let mut last = first;
        while let Some(entry) = index.get(last) {
            let Some(next_end) = end.checked_add(entry.len as u64) else {
                return Err(corrupt("sstable: block offset overflows"));
            };
            if entry.offset != end || (last > first && next_end - start > IO_RUN_BYTES as u64) {
                break;
            }
            end = next_end;
            last += 1;
        }
        self.run.resize((end - start) as usize, 0);
        self.table
            .file
            .read_exact_at(&mut self.run, start)
            .map_err(read_error)?;
        self.run_offset = start;
        self.run_blocks = first..last;
        self.next_block = last;
        Ok(())
    }

    /// Check and decode the next block of the current run.
    fn decode_next(&mut self) -> Result<(), StoreError> {
        let idx = self.run_blocks.start;
        self.run_blocks.start += 1;
        let entry = &self.table.index[idx];
        let at = (entry.offset - self.run_offset) as usize;
        let payload = check_frame(
            &self.run[at..at + entry.len as usize],
            format_args!("sstable {} block {idx}", self.table.seq),
        )?;
        self.buffered = decode_block(payload)?.into_iter();
        Ok(())
    }
}

impl Iterator for CompactionReader<'_> {
    type Item = Result<Record, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(record) = self.buffered.next() {
                return Some(Ok(record));
            }
            if self.done {
                return None;
            }
            let step = if !self.run_blocks.is_empty() {
                self.decode_next()
            } else if self.next_block < self.table.index.len() {
                self.read_run()
            } else {
                self.done = true;
                return None;
            };
            if let Err(e) = step {
                self.done = true;
                return Some(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_store::testdir::TestDir;

    fn v(b: u64, t: u32) -> Version {
        Version {
            block_num: b,
            tx_num: t,
        }
    }

    fn build_table(dir: &Path, seq: u64, n: usize, block_bytes: usize) -> Table {
        let mut b = TableBuilder::create(dir, seq, block_bytes).unwrap();
        for i in 0..n {
            let key = format!("key-{i:05}");
            if i % 7 == 3 {
                b.add(key, None, v(i as u64, 0)).unwrap();
            } else {
                b.add(key, Some(format!("value-{i}").as_bytes()), v(i as u64, 1))
                    .unwrap();
            }
        }
        b.finish(false).unwrap()
    }

    #[test]
    fn build_open_get_round_trip() {
        let dir = TestDir::new("statedb-sst");
        let table = build_table(dir.path(), 1, 500, 512);
        assert!(
            table.block_count() > 1,
            "want multiple blocks for a sparse index"
        );
        drop(table);
        let table = Table::open(dir.path(), 1).unwrap();
        assert_eq!(table.entry_count, 500);
        assert_eq!(table.min_key, "key-00000");
        assert_eq!(table.max_key, "key-00499");
        let caches = Caches::new(1 << 20, 0);
        let mut probes = 0;
        let rec = table
            .get("key-00042", &caches, &mut probes)
            .unwrap()
            .unwrap();
        assert_eq!(rec.value.as_deref(), Some(&b"value-42"[..]));
        assert_eq!(rec.version, v(42, 1));
        // Tombstones come back as records with no value.
        let rec = table
            .get("key-00003", &caches, &mut probes)
            .unwrap()
            .unwrap();
        assert_eq!(rec.value, None);
        assert_eq!(rec.version, v(3, 0));
        assert!(table
            .get("key-99999", &caches, &mut probes)
            .unwrap()
            .is_none());
        assert!(table.get("absent", &caches, &mut probes).unwrap().is_none());
        assert!(probes >= 2);
    }

    #[test]
    fn scan_respects_range_and_order() {
        let dir = TestDir::new("statedb-sst-scan");
        let table = build_table(dir.path(), 2, 200, 256);
        let caches = Caches::new(1 << 20, 0);
        let all: Vec<Record> = table.scan("", None, &caches).map(Result::unwrap).collect();
        assert_eq!(all.len(), 200);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
        let ranged: Vec<Record> = table
            .scan("key-00050", Some("key-00060"), &caches)
            .map(Result::unwrap)
            .collect();
        assert_eq!(ranged.len(), 10);
        assert_eq!(ranged[0].key, "key-00050");
        assert_eq!(ranged[9].key, "key-00059");
    }

    #[test]
    fn corruption_is_detected() {
        let dir = TestDir::new("statedb-sst-corrupt");
        let table = build_table(dir.path(), 3, 100, 256);
        let path = table.path.clone();
        drop(table);
        // Flip a byte in the middle of the data region.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let table = Table::open(dir.path(), 3).unwrap(); // footer+index still fine
        let caches = Caches::new(1 << 20, 0);
        let mut probes = 0;
        // The corrupted block must surface as an error, not bad data.
        let mut saw_error = false;
        for i in 0..100 {
            if table
                .get(&format!("key-{i:05}"), &caches, &mut probes)
                .is_err()
            {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error);
        // Truncating the footer breaks open entirely.
        bytes.truncate(bytes.len() - 10);
        std::fs::write(&path, &bytes).unwrap();
        assert!(Table::open(dir.path(), 3).is_err());
    }

    #[test]
    fn every_bit_flip_fails_open_or_a_full_scan() {
        let dir = TestDir::new("statedb-sst-flip-sweep");
        let path = build_table(dir.path(), 4, 40, 256).path.clone();
        let pristine = std::fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[i] ^= 1 << (i % 8);
            std::fs::write(&path, &bytes).unwrap();
            let caches = Caches::new(1 << 20, 0);
            let detected = match Table::open(dir.path(), 4) {
                Err(_) => true,
                Ok(table) => {
                    table.scan("", None, &caches).any(|r| r.is_err())
                        && table.compaction_reader().any(|r| r.is_err())
                }
            };
            assert!(detected, "flip at byte {i} went unnoticed");
        }
    }

    /// The compaction reader yields exactly what a full scan does, across
    /// several read runs and through a lone frame larger than one run.
    #[test]
    fn compaction_reader_matches_a_full_scan() {
        let dir = TestDir::new("statedb-sst-compaction-reader");
        let mut b = TableBuilder::create(dir.path(), 6, 4096).unwrap();
        let mut expected = Vec::new();
        for i in 0..20_000u32 {
            let value = match i {
                7_000 => vec![7u8; IO_RUN_BYTES + 1000],
                _ if i % 11 == 5 => Vec::new(),
                _ => format!("value-{i}").into_bytes(),
            };
            let version = v(i as u64, i % 3);
            let key = format!("key-{i:06}");
            let value = (i % 13 != 4).then_some(value);
            b.add(key.clone(), value.as_deref(), version).unwrap();
            expected.push(Record {
                key,
                value,
                version,
            });
        }
        let table = b.finish(false).unwrap();
        assert!(table.file_bytes > 3 * IO_RUN_BYTES as u64);
        let read: Vec<Record> = table.compaction_reader().map(Result::unwrap).collect();
        assert_eq!(read, expected);
        let caches = Caches::new(1 << 20, 0);
        let scanned: Vec<Record> = table.scan("", None, &caches).map(Result::unwrap).collect();
        assert_eq!(scanned, expected);
    }

    /// SSTable corruption sweep. One multi-block table is cut short at
    /// every frame boundary and one byte either side of each, and has one
    /// bit flipped in the header and in the middle of each frame and of
    /// the footer. Each damaged copy is read through `Table::open`, and —
    /// since an open table keeps its index and filter in memory and reads
    /// data blocks from disk — through `Table::get` and the compaction
    /// reader of a table opened before the damage. Every read gives the
    /// pristine record or an error, never a panic or another record, and
    /// damage to the data region is always reported.
    #[test]
    fn corruption_sweep_truncations_and_frame_flips() {
        let dir = TestDir::new("statedb-sst-corruption-sweep");
        let table = build_table(dir.path(), 5, 300, 512);
        assert!(table.block_count() > 8, "want a multi-block table");
        let path = table.path.clone();
        let pristine_bytes = std::fs::read(&path).unwrap();
        let pristine: Vec<Record> = table.compaction_reader().map(Result::unwrap).collect();
        assert_eq!(pristine.len(), 300);

        // Frame starts: every data block, the filter, the index, the
        // footer, and the end of the file.
        let len = pristine_bytes.len();
        let footer = &pristine_bytes[len - FOOTER_BYTES..];
        let index_off = u64::from_le_bytes(footer[0..8].try_into().unwrap()) as usize;
        let filter_off = u64::from_le_bytes(footer[16..24].try_into().unwrap()) as usize;
        let mut starts: Vec<usize> = table.index.iter().map(|e| e.offset as usize).collect();
        starts.extend([filter_off, index_off, len - FOOTER_BYTES, len]);
        let mut damaged: Vec<(String, Vec<u8>, bool)> = Vec::new();
        for &at in &starts {
            for cut in [at.saturating_sub(1), at, at + 1] {
                if cut < len {
                    let bytes = pristine_bytes[..cut].to_vec();
                    damaged.push((format!("cut at {cut}"), bytes, cut < filter_off));
                }
            }
        }
        for span in starts.windows(2) {
            for at in [span[0], (span[0] + span[1]) / 2] {
                let mut bytes = pristine_bytes.clone();
                bytes[at] ^= 1 << (at % 8);
                damaged.push((format!("flip at {at}"), bytes, at < filter_off));
            }
        }

        let caches = Caches::new(0, 0);
        let check_reads = |table: &Table, case: &str, data_damaged: bool| {
            let mut probes = 0;
            for want in &pristine {
                match table.get(&want.key, &caches, &mut probes) {
                    Ok(got) => assert_eq!(got.as_ref(), Some(want), "{case}: get {}", want.key),
                    Err(e) => assert!(
                        matches!(e, StoreError::Corrupt(_) | StoreError::Io(_)),
                        "{case}"
                    ),
                }
            }
            let read: Vec<Result<Record, StoreError>> = table.compaction_reader().collect();
            let good = read.iter().take_while(|r| r.is_ok()).count();
            assert!(good + 1 >= read.len(), "{case}: records after an error");
            for (got, want) in read.iter().zip(&pristine) {
                if let Ok(got) = got {
                    assert_eq!(got, want, "{case}: compaction reader");
                }
            }
            if data_damaged {
                assert!(good < pristine.len(), "{case}: compaction reader missed it");
                assert!(
                    read.last().is_some_and(|r| r.is_err()),
                    "{case}: no error reported"
                );
            } else {
                assert_eq!(good, pristine.len(), "{case}: intact data lost");
            }
        };

        for (case, bytes, data_damaged) in &damaged {
            std::fs::write(&path, bytes).unwrap();
            // `table` was opened on the pristine file: the same inode,
            // now damaged underneath it.
            check_reads(&table, case, *data_damaged);
            match Table::open(dir.path(), 5) {
                Ok(reopened) => {
                    assert!(
                        *data_damaged && !case.starts_with("cut"),
                        "{case}: opened a table whose metadata was damaged"
                    );
                    check_reads(&reopened, case, true);
                }
                Err(e) => assert!(
                    matches!(e, StoreError::Corrupt(_) | StoreError::Io(_)),
                    "{case}"
                ),
            }
        }
    }

    /// Frames whose CRC holds over bad contents: one table's frames are
    /// rewritten, one case at a time, with a recomputed CRC, so the
    /// decoders behind the check see the damage. A bad data block opens
    /// and then fails `get` and the compaction reader; a bad index or
    /// filter fails the open. Each is `Corrupt`, never a panic.
    #[test]
    fn well_framed_bad_contents_are_corrupt() {
        let dir = TestDir::new("statedb-sst-bad-contents");
        let table = build_table(dir.path(), 7, 300, 512);
        let (block0, path) = (table.index[0].clone(), table.path.clone());
        drop(table);
        let pristine = std::fs::read(&path).unwrap();
        let len = pristine.len();
        let word = |i: usize| {
            let at = len - FOOTER_BYTES + 8 * i;
            u64::from_le_bytes(pristine[at..at + 8].try_into().unwrap())
        };
        let [index_off, index_len, filter_off, filter_len, entries] = [0, 1, 2, 3, 4].map(word);
        // The first record of block 0 is `[keylen u16]["key-00000"][tag]`.
        let key_len = "key-00000".len();
        let tag_at = 2 + key_len;

        // The file with the frame at `off..off + frame_len` re-framed around its
        // payload after `edit`, and the footer rewritten to match.
        let reframed = |off: u64, frame_len: u64, edit: &dyn Fn(&mut Vec<u8>)| {
            let (off, end) = (off as usize, (off + frame_len) as usize);
            let mut payload = pristine[off + 8..end].to_vec();
            edit(&mut payload);
            let frame = fabric_store::record::encode_frame(&payload);
            let mut bytes = pristine[..off].to_vec();
            bytes.extend_from_slice(&frame);
            bytes.extend_from_slice(&pristine[end..len - FOOTER_BYTES]);
            let grown = frame.len() as u64 - frame_len;
            let index_len = index_len + if off as u64 == index_off { grown } else { 0 };
            let mut footer = Vec::new();
            for w in [
                index_off,
                index_len,
                filter_off,
                filter_len,
                entries,
                TABLE_MAGIC,
            ] {
                footer.extend_from_slice(&w.to_le_bytes());
            }
            footer.extend_from_slice(&crc32(&footer).to_le_bytes());
            footer.extend_from_slice(&[0; 8]);
            bytes.extend_from_slice(&footer);
            bytes
        };
        let data = |edit: &dyn Fn(&mut Vec<u8>)| reframed(block0.offset, block0.len as u64, edit);
        let index = |edit: &dyn Fn(&mut Vec<u8>)| reframed(index_off, index_len, edit);
        let filter = |edit: &dyn Fn(&mut Vec<u8>)| reframed(filter_off, filter_len, edit);
        let data_cases = [
            ("record tag 2", data(&|p| p[tag_at] = 2)),
            (
                "key past the block",
                data(&|p| p[..2].copy_from_slice(&u16::MAX.to_le_bytes())),
            ),
            ("key not UTF-8", data(&|p| p[2] = 0xff)),
        ];
        let meta_cases = [
            (
                "index count u32::MAX",
                index(&|p| p[..4].copy_from_slice(&u32::MAX.to_le_bytes())),
            ),
            (
                "index count one too many",
                index(&|p| {
                    let n = u32::from_le_bytes(p[..4].try_into().unwrap());
                    p[..4].copy_from_slice(&(n + 1).to_le_bytes());
                }),
            ),
            ("index trailing byte", index(&|p| p.push(0))),
            (
                "filter k = 0",
                filter(&|p| p[..4].copy_from_slice(&0u32.to_le_bytes())),
            ),
        ];

        let corrupt = |r: Result<_, StoreError>| matches!(r, Err(StoreError::Corrupt(_)));
        for (case, bytes) in data_cases {
            std::fs::write(&path, &bytes).unwrap();
            let table = Table::open(dir.path(), 7).unwrap_or_else(|e| panic!("{case}: {e}"));
            let caches = Caches::new(1 << 20, 0);
            let got = table.get("key-00000", &caches, &mut 0);
            assert!(corrupt(got.map(drop)), "{case}: get");
            let read: Vec<_> = table.compaction_reader().collect();
            assert!(
                read.len() == 1 && corrupt(read.into_iter().next().unwrap().map(drop)),
                "{case}: compaction reader"
            );
        }
        for (case, bytes) in meta_cases {
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                corrupt(Table::open(dir.path(), 7).map(drop)),
                "{case}: open"
            );
        }
    }

    #[test]
    fn empty_builder_refuses_to_finish() {
        let dir = TestDir::new("statedb-sst-empty");
        let b = TableBuilder::create(dir.path(), 9, 256).unwrap();
        assert!(b.finish(false).is_err());
    }

    #[test]
    fn file_name_round_trip() {
        assert_eq!(parse_table_file_name(&table_file_name(7)), Some(7));
        assert_eq!(parse_table_file_name("MANIFEST"), None);
        assert_eq!(parse_table_file_name("sst-x.tbl"), None);
    }
}
