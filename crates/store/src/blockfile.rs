//! The append-only block file store with a sparse height → offset index.
//!
//! Blocks are opaque byte strings appended as CRC frames to `blocks.dat`;
//! each frame payload is `[height: u64 LE][block bytes]`, so a frame is
//! self-describing even if the index is lost. Every `index_every`-th block
//! also appends a tiny `[height, offset]` frame to `blocks.idx` — a
//! **sparse index** in the LevelDB sense: a random read seeks to the nearest
//! indexed offset at or below the target height and skips forward at most
//! `index_every - 1` frame headers, so reads are O(1) for a constant
//! stride and reopening only rescans the un-indexed tail of the data file.
//!
//! On open, a torn tail (crash mid-append) is truncated from the data file
//! and the index is rewritten to match; a missing or inconsistent index
//! degrades to a full data-file scan, never to an error. No byte read from
//! either file can panic the store: every fixed-width field is read
//! through an infallible split, and a frame that runs past the end of the
//! data file is a [`StoreError::Corrupt`] on read.
//!
//! The block file is the ledger's only log: state is derived from it, so
//! its [`FsyncPolicy`] is what bounds what a crash can lose.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::record::{
    append_bytes, decode_header, encode_frame, encode_frame_into, scan_frames, truncate_to,
    FRAME_HEADER_BYTES,
};
use crate::{crc32::crc32, StoreError};

/// File name of the block data file inside a storage directory.
pub const BLOCKS_DATA_FILE: &str = "blocks.dat";
/// File name of the sparse block index.
pub const BLOCKS_INDEX_FILE: &str = "blocks.idx";

/// When [`BlockFile::append`] flushes the data file to stable storage.
/// Whatever the policy, [`BlockFile::sync`] flushes it on demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended block: nothing appended is ever lost.
    Always,
    /// fsync once the records (transactions) appended since the last sync
    /// reach N (clamped to at least 1): a crash loses at most the last N.
    EveryN(u32),
    /// Never fsync on append; rely on the OS page cache.
    Never,
}

impl FsyncPolicy {
    /// Whether `unsynced` records appended since the last sync call for one.
    fn due(&self, unsynced: u64) -> bool {
        match *self {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => unsynced >= u64::from(n.max(1)),
            FsyncPolicy::Never => false,
        }
    }
}

/// An open block file store.
///
/// A store normally begins at height 0, but a *pruned* store — created
/// when a peer bootstraps from a shipped snapshot instead of replaying
/// history — begins at a non-zero `base`: the snapshot height. Frames are
/// self-describing, so the base is recovered from the first frame on
/// reopen; an empty store takes the caller's hint.
#[derive(Debug)]
pub struct BlockFile {
    data: File,
    index: File,
    /// Sparse `(height, offset)` entries, ascending, one per
    /// `index_every` blocks starting at the base height.
    sparse: Vec<(u64, u64)>,
    index_every: u64,
    /// Height of the first stored block (0 unless the store is pruned).
    base: u64,
    height: u64,
    data_len: u64,
    policy: FsyncPolicy,
    /// Records appended since the last fsync (the `EveryN` count).
    unsynced: u64,
    fsyncs: u64,
}

fn open_rw(path: &Path) -> std::io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
}

impl BlockFile {
    /// Open (or create) the block store inside `dir`, repairing a torn
    /// tail. `index_every` is the sparse-index stride (clamped to ≥ 1);
    /// `policy` governs fsyncs on append. The store's base height must be
    /// 0 (see [`BlockFile::open_at`]).
    pub fn open(
        dir: &Path,
        index_every: u64,
        policy: FsyncPolicy,
    ) -> Result<BlockFile, StoreError> {
        BlockFile::open_at(dir, index_every, 0, policy)
    }

    /// Open (or create) a block store whose first block sits at
    /// `base_hint` instead of 0 — the pruned layout a snapshot-bootstrapped
    /// peer uses. A non-empty store derives its base from the first frame
    /// (frames are self-describing); the hint only seeds an empty one.
    pub fn open_at(
        dir: &Path,
        index_every: u64,
        base_hint: u64,
        policy: FsyncPolicy,
    ) -> Result<BlockFile, StoreError> {
        let index_every = index_every.max(1);
        let mut data = open_rw(&dir.join(BLOCKS_DATA_FILE))?;
        let mut index = open_rw(&dir.join(BLOCKS_INDEX_FILE))?;
        let data_len = data.seek(SeekFrom::End(0))?;
        let base = Self::frame_height_at(&mut data, 0, data_len)?.unwrap_or(base_hint);

        // Load the sparse index: 16-byte frames of (height, offset), kept
        // only while heights step by `index_every` from the base and
        // offsets stay inside the data file.
        let idx_scan = scan_frames(&mut index, 0)?;
        let mut sparse: Vec<(u64, u64)> = Vec::new();
        for frame in &idx_scan.frames {
            let Some((h, off)) = decode_index_entry(&frame.payload) else {
                break;
            };
            if h != base + sparse.len() as u64 * index_every || off >= data_len {
                break;
            }
            if let Some(&(_, prev_off)) = sparse.last() {
                if off <= prev_off {
                    break;
                }
            }
            sparse.push((h, off));
        }

        // Find the deepest trustworthy sparse entry: the frame at its
        // offset must decode to its height. Fall back toward a full scan.
        let mut start = (base, 0u64); // (height, offset) to scan from
        while let Some(&(h, off)) = sparse.last() {
            if Self::frame_height_at(&mut data, off, data_len)? == Some(h) {
                start = (h, off);
                break;
            }
            sparse.pop();
        }

        // Scan the data file from the trusted point: establish the height,
        // repair a torn tail, and complete the sparse entries.
        let scan = scan_frames(&mut data, start.1)?;
        if scan.torn {
            truncate_to(&mut data, scan.valid_len)?;
        }
        let mut height = start.0;
        let mut store = BlockFile {
            data,
            index,
            sparse: Vec::new(),
            index_every,
            base,
            height: 0,
            data_len: scan.valid_len,
            policy,
            unsynced: 0,
            fsyncs: 0,
        };
        // Keep index entries strictly before the rescanned range; the scan
        // below re-adds the entries it covers (including `start` itself).
        let mut sparse_ok: Vec<(u64, u64)> = sparse;
        sparse_ok.retain(|&(h, _)| h < start.0);
        for frame in &scan.frames {
            let Some(h) = frame_height(&frame.payload) else {
                return Err(StoreError::Corrupt(format!(
                    "block frame at offset {} too short",
                    frame.offset
                )));
            };
            if h != height {
                return Err(StoreError::Corrupt(format!(
                    "block file discontinuity: expected height {height}, found {h}"
                )));
            }
            if (h - base).is_multiple_of(index_every) {
                sparse_ok.push((h, frame.offset));
            }
            height += 1;
        }
        store.height = height;
        store.sparse = sparse_ok;
        store.rewrite_index()?;
        Ok(store)
    }

    /// Decode the height stored in the frame at `off`, or `None` if there is
    /// no valid frame there.
    fn frame_height_at(data: &mut File, off: u64, data_len: u64) -> std::io::Result<Option<u64>> {
        if off + FRAME_HEADER_BYTES + 8 > data_len {
            return Ok(None);
        }
        data.seek(SeekFrom::Start(off))?;
        let mut header = [0u8; 8];
        data.read_exact(&mut header)?;
        let (len, crc) = decode_header(header);
        if off + FRAME_HEADER_BYTES + u64::from(len) > data_len {
            return Ok(None);
        }
        let mut payload = vec![0u8; len as usize];
        data.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Ok(None);
        }
        Ok(frame_height(&payload))
    }

    /// The `(payload length, CRC)` of the frame header at `offset`, which
    /// must lie inside the data file with its whole payload.
    fn header_at(&mut self, offset: u64) -> Result<(u32, u32), StoreError> {
        if offset + FRAME_HEADER_BYTES > self.data_len {
            return Err(StoreError::Corrupt(format!(
                "frame header at offset {offset} past the end ({})",
                self.data_len
            )));
        }
        self.data.seek(SeekFrom::Start(offset))?;
        let mut header = [0u8; 8];
        self.data.read_exact(&mut header)?;
        let (len, crc) = decode_header(header);
        if offset + FRAME_HEADER_BYTES + u64::from(len) > self.data_len {
            return Err(StoreError::Corrupt(format!(
                "frame at offset {offset} runs past the end ({})",
                self.data_len
            )));
        }
        Ok((len, crc))
    }

    /// Persist the in-memory sparse index (cheap: one tiny frame per
    /// `index_every` blocks; never fsynced — it is a rebuildable cache).
    fn rewrite_index(&mut self) -> std::io::Result<()> {
        truncate_to(&mut self.index, 0)?;
        let mut buf = Vec::with_capacity(self.sparse.len() * 24);
        for &(h, off) in &self.sparse {
            let mut payload = [0u8; 16];
            payload[..8].copy_from_slice(&h.to_le_bytes());
            payload[8..].copy_from_slice(&off.to_le_bytes());
            encode_frame_into(&mut buf, &payload);
        }
        append_bytes(&mut self.index, &buf)
    }

    /// The next height to append (absolute: `base + stored blocks`).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Height of the first stored block (0 unless the store is pruned).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Data file size in bytes.
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Append a block's bytes at `height` (must equal [`BlockFile::height`])
    /// and apply the fsync policy. `records` is how many records
    /// (transactions) the block carries; only `EveryN` counts them.
    pub fn append(&mut self, height: u64, block: &[u8], records: u64) -> Result<(), StoreError> {
        if height != self.height {
            return Err(StoreError::Corrupt(format!(
                "append out of order: expected height {}, got {height}",
                self.height
            )));
        }
        let mut payload = Vec::with_capacity(8 + block.len());
        payload.extend_from_slice(&height.to_le_bytes());
        payload.extend_from_slice(block);
        let frame = encode_frame(&payload);
        self.data.seek(SeekFrom::Start(self.data_len))?;
        append_bytes(&mut self.data, &frame)?;
        if (height - self.base).is_multiple_of(self.index_every) {
            self.sparse.push((height, self.data_len));
            let mut idx_payload = [0u8; 16];
            idx_payload[..8].copy_from_slice(&height.to_le_bytes());
            idx_payload[8..].copy_from_slice(&self.data_len.to_le_bytes());
            append_bytes(&mut self.index, &encode_frame(&idx_payload))?;
        }
        self.data_len += frame.len() as u64;
        self.height += 1;
        self.unsynced += records;
        if self.policy.due(self.unsynced) {
            self.sync()?;
        }
        Ok(())
    }

    /// fsync the data file now, regardless of policy.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.data.sync_data()?;
        self.fsyncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Total fsyncs issued by this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Read the block bytes stored at `height`.
    ///
    /// Seeks to the nearest sparse-index entry at or below `height` and
    /// skips forward over at most `index_every - 1` frame headers.
    pub fn read(&mut self, height: u64) -> Result<Vec<u8>, StoreError> {
        if height < self.base || height >= self.height {
            return Err(StoreError::Corrupt(format!(
                "block {height} out of range (base {}, height {})",
                self.base, self.height
            )));
        }
        let slot = match self.sparse.binary_search_by_key(&height, |&(h, _)| h) {
            Ok(i) => i,
            Err(0) => {
                return Err(StoreError::Corrupt(format!(
                    "sparse index missing entry at or below height {height}"
                )))
            }
            Err(i) => i - 1,
        };
        let (mut at_height, mut offset) = self.sparse[slot];
        // Skip whole frames (header read + seek) until the target.
        while at_height < height {
            let (len, _) = self.header_at(offset)?;
            offset += FRAME_HEADER_BYTES + u64::from(len);
            at_height += 1;
        }
        let (len, crc) = self.header_at(offset)?;
        let mut payload = vec![0u8; len as usize];
        self.data.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Err(StoreError::Corrupt(format!(
                "block {height}: CRC mismatch at offset {offset}"
            )));
        }
        let stored = frame_height(&payload)
            .ok_or_else(|| StoreError::Corrupt(format!("block {height}: frame too short")))?;
        if stored != height {
            return Err(StoreError::Corrupt(format!(
                "block {height}: frame labelled {stored}"
            )));
        }
        Ok(payload.split_off(8))
    }

    /// Read every stored block in height order (the first is at `base`).
    pub fn read_all(&mut self) -> Result<Vec<Vec<u8>>, StoreError> {
        let scan = scan_frames(&mut self.data, 0)?;
        let mut out = Vec::with_capacity(scan.frames.len());
        for (i, frame) in scan.frames.into_iter().enumerate() {
            let Some(h) = frame_height(&frame.payload) else {
                return Err(StoreError::Corrupt(format!("block {i}: frame too short")));
            };
            let expect = self.base + i as u64;
            if h != expect {
                return Err(StoreError::Corrupt(format!(
                    "block file discontinuity: expected {expect}, found {h}"
                )));
            }
            let mut payload = frame.payload;
            out.push(payload.split_off(8));
        }
        Ok(out)
    }
}

/// The height a block frame's payload starts with, if it has 8 bytes.
fn frame_height(payload: &[u8]) -> Option<u64> {
    payload.first_chunk().map(|h| u64::from_le_bytes(*h))
}

/// A sparse-index frame's `(height, offset)`, if its payload is 16 bytes.
fn decode_index_entry(payload: &[u8]) -> Option<(u64, u64)> {
    let (h, off) = payload.split_first_chunk()?;
    let off: &[u8; 8] = off.try_into().ok()?;
    Some((u64::from_le_bytes(*h), u64::from_le_bytes(*off)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;

    fn block_bytes(i: u64) -> Vec<u8> {
        let mut b = vec![i as u8; (i as usize % 7) + 3];
        b.extend_from_slice(&i.to_le_bytes());
        b
    }

    #[test]
    fn append_read_reopen() {
        let dir = TestDir::new("bf-basic");
        {
            let mut bf = BlockFile::open(dir.path(), 4, FsyncPolicy::Never).unwrap();
            for i in 0..11 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
            assert_eq!(bf.height(), 11);
            for i in [0, 3, 4, 7, 10] {
                assert_eq!(bf.read(i).unwrap(), block_bytes(i), "height {i}");
            }
            assert!(bf.read(11).is_err());
        }
        // Reopen: sparse index makes the rescan short; contents identical.
        let mut bf = BlockFile::open(dir.path(), 4, FsyncPolicy::Never).unwrap();
        assert_eq!(bf.height(), 11);
        let all = bf.read_all().unwrap();
        assert_eq!(all.len(), 11);
        for (i, b) in all.iter().enumerate() {
            assert_eq!(b, &block_bytes(i as u64));
        }
    }

    #[test]
    fn out_of_order_append_rejected() {
        let dir = TestDir::new("bf-order");
        let mut bf = BlockFile::open(dir.path(), 4, FsyncPolicy::Never).unwrap();
        bf.append(0, b"b0", 1).unwrap();
        assert!(bf.append(5, b"b5", 1).is_err());
        assert!(bf.append(0, b"again", 1).is_err());
    }

    #[test]
    fn torn_tail_truncated_and_index_repaired() {
        let dir = TestDir::new("bf-torn");
        {
            let mut bf = BlockFile::open(dir.path(), 2, FsyncPolicy::Never).unwrap();
            for i in 0..6 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
        }
        // Cut the data file mid-way through the last frame.
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let bytes = std::fs::read(&data_path).unwrap();
        std::fs::write(&data_path, &bytes[..bytes.len() - 3]).unwrap();

        let mut bf = BlockFile::open(dir.path(), 2, FsyncPolicy::Never).unwrap();
        assert_eq!(bf.height(), 5, "torn block dropped");
        for i in 0..5 {
            assert_eq!(bf.read(i).unwrap(), block_bytes(i));
        }
        // Appending continues cleanly at the repaired height.
        bf.append(5, &block_bytes(5), 1).unwrap();
        assert_eq!(bf.read(5).unwrap(), block_bytes(5));
    }

    #[test]
    fn missing_or_garbage_index_degrades_to_full_scan() {
        let dir = TestDir::new("bf-idx");
        {
            let mut bf = BlockFile::open(dir.path(), 3, FsyncPolicy::Never).unwrap();
            for i in 0..7 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
        }
        // Corrupt the index file entirely.
        std::fs::write(dir.path().join(BLOCKS_INDEX_FILE), b"not an index").unwrap();
        let mut bf = BlockFile::open(dir.path(), 3, FsyncPolicy::Never).unwrap();
        assert_eq!(bf.height(), 7);
        for i in 0..7 {
            assert_eq!(bf.read(i).unwrap(), block_bytes(i));
        }
        // Delete the index file: same outcome.
        drop(bf);
        std::fs::remove_file(dir.path().join(BLOCKS_INDEX_FILE)).unwrap();
        let mut bf = BlockFile::open(dir.path(), 3, FsyncPolicy::Never).unwrap();
        assert_eq!(bf.height(), 7);
        assert_eq!(bf.read(6).unwrap(), block_bytes(6));
    }

    #[test]
    fn truncation_below_index_entries_recovers() {
        let dir = TestDir::new("bf-deep-cut");
        {
            let mut bf = BlockFile::open(dir.path(), 2, FsyncPolicy::Never).unwrap();
            for i in 0..8 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
        }
        // Cut the data file roughly in half: several index entries now
        // point past EOF and must be discarded.
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let bytes = std::fs::read(&data_path).unwrap();
        std::fs::write(&data_path, &bytes[..bytes.len() / 2]).unwrap();
        let mut bf = BlockFile::open(dir.path(), 2, FsyncPolicy::Never).unwrap();
        let h = bf.height();
        assert!(h < 8);
        for i in 0..h {
            assert_eq!(bf.read(i).unwrap(), block_bytes(i));
        }
    }

    #[test]
    fn pruned_store_starts_at_base() {
        let dir = TestDir::new("bf-pruned");
        {
            let mut bf = BlockFile::open_at(dir.path(), 3, 100, FsyncPolicy::Never).unwrap();
            assert_eq!(bf.base(), 100);
            assert_eq!(bf.height(), 100);
            assert!(bf.append(0, b"wrong", 1).is_err());
            for i in 100..110 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
            assert_eq!(bf.height(), 110);
            assert!(bf.read(99).is_err(), "below base");
            for i in [100, 104, 109] {
                assert_eq!(bf.read(i).unwrap(), block_bytes(i));
            }
        }
        // Reopen with a *wrong* hint: the first frame wins.
        let mut bf = BlockFile::open_at(dir.path(), 3, 0, FsyncPolicy::Never).unwrap();
        assert_eq!(bf.base(), 100);
        assert_eq!(bf.height(), 110);
        let all = bf.read_all().unwrap();
        assert_eq!(all.len(), 10);
        for (i, b) in all.iter().enumerate() {
            assert_eq!(b, &block_bytes(100 + i as u64));
        }
        bf.append(110, &block_bytes(110), 1).unwrap();
        assert_eq!(bf.read(110).unwrap(), block_bytes(110));
    }

    /// Every truncation and every single-bit flip of a ten-block file and
    /// of its sparse index: `open` and `read` never panic. A damaged index
    /// costs nothing. A cut data file reopens at its whole frames. A bit
    /// flipped in frame k leaves every block below k readable, and a read
    /// of any other block gives its original bytes or a typed error.
    #[test]
    fn truncation_and_bit_flip_sweep() {
        const BLOCKS: u64 = 10;
        let dir = TestDir::new("bf-sweep");
        {
            let mut bf = BlockFile::open(dir.path(), 3, FsyncPolicy::Never).unwrap();
            for i in 0..BLOCKS {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
        }
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let index_path = dir.path().join(BLOCKS_INDEX_FILE);
        let data = std::fs::read(&data_path).unwrap();
        let index = std::fs::read(&index_path).unwrap();
        // Frame k of the data file is bytes ends[k]..ends[k + 1].
        let mut ends = vec![0usize];
        for i in 0..BLOCKS {
            ends.push(ends[i as usize] + 16 + block_bytes(i).len());
        }
        assert_eq!(*ends.last().unwrap(), data.len());
        let frame_of = |byte: usize| ends.iter().rposition(|&e| e <= byte).unwrap() as u64;

        // Open the two images; for each stored block, whether it read back
        // intact (a wrong `Ok` fails here).
        let reopen = |data_img: &[u8], index_img: &[u8]| -> Option<Vec<bool>> {
            std::fs::write(&data_path, data_img).unwrap();
            std::fs::write(&index_path, index_img).unwrap();
            let mut bf = BlockFile::open(dir.path(), 3, FsyncPolicy::Never).ok()?;
            assert!(bf.height() <= BLOCKS);
            let intact = (0..bf.height())
                .map(|i| match bf.read(i) {
                    Ok(bytes) => {
                        assert_eq!(bytes, block_bytes(i), "block {i} read back changed");
                        true
                    }
                    Err(_) => false,
                })
                .collect();
            Some(intact)
        };
        let all_intact = vec![true; BLOCKS as usize];

        for cut in 0..=data.len() {
            let whole = frame_of(cut) as usize;
            let intact = reopen(&data[..cut], &index).expect("a cut data file opens");
            assert_eq!(intact, vec![true; whole], "data cut at {cut}");
            assert_eq!(
                std::fs::metadata(&data_path).unwrap().len(),
                ends[whole] as u64
            );
        }
        for cut in 0..=index.len() {
            assert_eq!(reopen(&data, &index[..cut]), Some(all_intact.clone()));
        }
        let mut flipped_tail = 0;
        for byte in 0..data.len() {
            let k = frame_of(byte) as usize;
            for bit in 0..8 {
                let mut img = data.clone();
                img[byte] ^= 1 << bit;
                if let Some(intact) = reopen(&img, &index) {
                    assert!(
                        intact.len() >= k,
                        "flip at {byte}.{bit}: height {}",
                        intact.len()
                    );
                    assert!(intact[..k].iter().all(|&ok| ok), "flip at {byte}.{bit}");
                    flipped_tail += usize::from(intact.len() == k);
                }
            }
        }
        // A flip inside the last frame, past the deepest index entry, is a
        // torn tail: every one of them recovers the nine blocks before it.
        let last = (data.len() - ends[BLOCKS as usize - 1]) * 8;
        assert!(
            flipped_tail >= last,
            "{flipped_tail} flips truncated, {last} expected"
        );
        for byte in 0..index.len() {
            for bit in 0..8 {
                let mut img = index.clone();
                img[byte] ^= 1 << bit;
                assert_eq!(reopen(&data, &img), Some(all_intact.clone()));
            }
        }
    }

    #[test]
    fn empty_store() {
        let dir = TestDir::new("bf-empty");
        let mut bf = BlockFile::open(dir.path(), 4, FsyncPolicy::Never).unwrap();
        assert_eq!(bf.height(), 0);
        assert!(bf.read(0).is_err());
        assert!(bf.read_all().unwrap().is_empty());
    }

    #[test]
    fn fsync_policy_counts_records_and_sync_resets_the_count() {
        let dir = TestDir::new("bf-policy-always");
        let mut always = BlockFile::open(dir.path(), 4, FsyncPolicy::Always).unwrap();
        for i in 0..3 {
            always.append(i, &block_bytes(i), 0).unwrap();
        }
        assert_eq!(always.fsyncs(), 3, "Always syncs every block");

        let dir = TestDir::new("bf-policy-every");
        let mut every = BlockFile::open(dir.path(), 4, FsyncPolicy::EveryN(3)).unwrap();
        every.append(0, b"b0", 2).unwrap();
        assert_eq!(every.fsyncs(), 0);
        every.append(1, b"b1", 1).unwrap();
        assert_eq!(every.fsyncs(), 1, "3 records reach EveryN(3)");
        every.append(2, b"b2", 2).unwrap();
        every.sync().unwrap();
        every.append(3, b"b3", 2).unwrap();
        assert_eq!(every.fsyncs(), 2, "an explicit sync restarts the count");
        every.append(4, b"b4", 7).unwrap();
        assert_eq!(every.fsyncs(), 3, "one oversized block syncs once");
    }
}
