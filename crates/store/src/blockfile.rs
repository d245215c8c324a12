//! The append-only block file.
//!
//! Blocks are opaque byte strings appended as CRC frames to `blocks.dat`;
//! each frame payload is `[height: u64 LE][block bytes]`, so the file is
//! self-describing: its first frame names the base height, and every
//! later one must name the next.
//!
//! [`BlockFile::open_at`] reads the file once, front to back, holding one
//! frame at a time: it checks each frame's CRC and height and hands the
//! block, with its [`FrameAt`], to the caller's visitor. A torn tail
//! (crash mid-append) is then truncated, the only write an open makes. A
//! CRC-bad frame with a valid frame after it cannot be a torn append: open
//! fails with [`StoreError::Corrupt`] and leaves the file as it is. No
//! byte read from the file can panic the store: every fixed-width field is
//! read through an infallible split, and a frame that runs past the end of
//! the file is a [`StoreError::Corrupt`] on read.
//!
//! The block file is the ledger's only log: state is derived from it, so
//! its [`FsyncPolicy`] is what bounds what a crash can lose.
//!
//! Every append and every block the open visits reports its [`FrameAt`].
//! A [`BlockReader`] — a second handle on the data file that shares no
//! cursor with the appending one — fetches a block back from its
//! `FrameAt` with one positioned read, under `&self` and without a lock,
//! while the [`BlockFile`] keeps appending. No index sits beside the
//! file: a height-index file an older version left is never read.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::record::{
    append_bytes, decode_header, encode_frame, scan_frames, truncate_to, FRAME_HEADER_BYTES,
};
use crate::{crc32::crc32, StoreError};

/// File name of the block data file inside a storage directory.
pub const BLOCKS_DATA_FILE: &str = "blocks.dat";

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

/// Where one block's frame sits in the data file: what a [`BlockReader`]
/// needs to fetch it with a single positioned read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameAt {
    /// Offset of the frame header within the data file.
    pub offset: u64,
    /// Payload length: the 8-byte height plus the block bytes.
    pub len: u32,
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
    height: u64,
    data_len: u64,
    policy: FsyncPolicy,
    /// Records appended since the last fsync (the `EveryN` count).
    unsynced: u64,
    fsyncs: u64,
}

impl BlockFile {
    /// Open (or create) the block store inside `dir` in one pass over the
    /// data file, handing every stored block to `visit` in height order as
    /// `(height, where its frame sits, block bytes)`, then truncating a
    /// torn tail. The first error — `visit`'s own, a damaged frame before
    /// a valid one, a height out of sequence — ends the open with nothing
    /// written. `policy` governs fsyncs on append.
    ///
    /// The first frame names the base height; an empty store starts at
    /// `base_hint`, as the pruned one a snapshot-bootstrapped peer starts
    /// does.
    pub fn open_at<E: From<StoreError>>(
        dir: &Path,
        base_hint: u64,
        policy: FsyncPolicy,
        mut visit: impl FnMut(u64, FrameAt, Vec<u8>) -> Result<(), E>,
    ) -> Result<BlockFile, E> {
        let mut data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(BLOCKS_DATA_FILE))
            .map_err(StoreError::Io)?;
        let mut next: Option<u64> = None;
        let scan = scan_frames(&data, |offset, mut payload| {
            let Some(height) = frame_height(&payload) else {
                return Err(StoreError::Corrupt(format!(
                    "block frame at offset {offset} too short"
                ))
                .into());
            };
            let next = next.get_or_insert(height);
            if height != *next {
                return Err(StoreError::Corrupt(format!(
                    "block file discontinuity: expected height {next}, found {height}"
                ))
                .into());
            }
            *next += 1;
            let at = FrameAt {
                offset,
                len: payload.len() as u32,
            };
            payload.drain(..8);
            visit(height, at, payload)
        })?;
        if let Some(offset) = scan.corrupt_at {
            return Err(StoreError::Corrupt(format!(
                "block frame at offset {offset} is damaged before a valid frame"
            ))
            .into());
        }
        if scan.torn {
            truncate_to(&mut data, scan.valid_len).map_err(StoreError::Io)?;
        }
        Ok(BlockFile {
            data,
            height: next.unwrap_or(base_hint),
            data_len: scan.valid_len,
            policy,
            unsynced: 0,
            fsyncs: 0,
        })
    }

    /// The next height to append (absolute: `base + stored blocks`).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Append a block's bytes at `height` (must equal [`BlockFile::height`])
    /// and apply the fsync policy. `records` is how many records
    /// (transactions) the block carries; only `EveryN` counts them.
    /// Returns where the frame landed.
    pub fn append(
        &mut self,
        height: u64,
        block: &[u8],
        records: u64,
    ) -> Result<FrameAt, StoreError> {
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
        let at = FrameAt {
            offset: self.data_len,
            len: payload.len() as u32,
        };
        self.data.seek(SeekFrom::Start(self.data_len))?;
        append_bytes(&mut self.data, &frame)?;
        self.data_len += frame.len() as u64;
        self.height += 1;
        self.unsynced += records;
        if self.policy.due(self.unsynced) {
            self.sync()?;
        }
        Ok(at)
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

    /// A [`BlockReader`] on this store's data file.
    pub fn reader(&self) -> Result<BlockReader, StoreError> {
        Ok(BlockReader {
            data: self.data.try_clone()?,
        })
    }
}

/// A read-only handle on a block data file: one positioned read per block,
/// at the [`FrameAt`] its append or recovery reported. It shares no cursor
/// with the [`BlockFile`] that appends, so reads take `&self` and no lock.
#[derive(Debug)]
pub struct BlockReader {
    data: File,
}

impl BlockReader {
    /// The block bytes at `at`, which must be the frame of block `height`:
    /// its length, CRC and height label are checked, and bytes missing
    /// from the file are corruption, not an I/O failure.
    pub fn read(&self, height: u64, at: FrameAt) -> Result<Vec<u8>, StoreError> {
        read_frame(&self.data, height, at)
    }
}

/// Read and check the frame of block `height` at `at`; the block bytes are
/// moved to the front of the same buffer rather than copied.
fn read_frame(data: &File, height: u64, at: FrameAt) -> Result<Vec<u8>, StoreError> {
    let mut frame = vec![0u8; FRAME_HEADER_BYTES as usize + at.len as usize];
    data.read_exact_at(&mut frame, at.offset)
        .map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => StoreError::Corrupt(format!(
                "block {height}: frame at offset {} runs past the end",
                at.offset
            )),
            _ => StoreError::Io(e),
        })?;
    let Some((header, payload)) = frame.split_first_chunk::<8>() else {
        return Err(StoreError::Corrupt(format!(
            "block {height}: no frame header"
        )));
    };
    let (len, crc) = decode_header(*header);
    if len != at.len {
        return Err(StoreError::Corrupt(format!(
            "block {height}: frame length {len} at offset {}, {} expected",
            at.offset, at.len
        )));
    }
    if crc32(payload) != crc {
        return Err(StoreError::Corrupt(format!(
            "block {height}: CRC mismatch at offset {}",
            at.offset
        )));
    }
    match frame_height(payload) {
        Some(stored) if stored == height => {}
        Some(stored) => {
            return Err(StoreError::Corrupt(format!(
                "block {height}: frame labelled {stored}"
            )))
        }
        None => {
            return Err(StoreError::Corrupt(format!(
                "block {height}: frame too short"
            )))
        }
    }
    frame.drain(..FRAME_HEADER_BYTES as usize + 8);
    Ok(frame)
}

/// The height a block frame's payload starts with, if it has 8 bytes.
fn frame_height(payload: &[u8]) -> Option<u64> {
    payload.first_chunk().map(|h| u64::from_le_bytes(*h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_frame_into;
    use crate::testdir::TestDir;

    fn block_bytes(i: u64) -> Vec<u8> {
        let mut b = vec![i as u8; (i as usize % 7) + 3];
        b.extend_from_slice(&i.to_le_bytes());
        b
    }

    /// Every block an open visited, with where its frame sits.
    type Visited = Vec<(FrameAt, Vec<u8>)>;

    /// Open the store in `dir` (base hint `base_hint`), collecting the
    /// blocks the open visits; their heights must run on from the first,
    /// up to the store's height.
    fn open_at(
        dir: &Path,
        base_hint: u64,
        policy: FsyncPolicy,
    ) -> Result<(BlockFile, Visited), StoreError> {
        let mut visited = Vec::new();
        let mut first = None;
        let bf = BlockFile::open_at(dir, base_hint, policy, |height, at, bytes| {
            let base = *first.get_or_insert(height);
            assert_eq!(height, base + visited.len() as u64);
            visited.push((at, bytes));
            Ok::<(), StoreError>(())
        })?;
        let base = first.unwrap_or(base_hint);
        assert_eq!(base + visited.len() as u64, bf.height());
        Ok((bf, visited))
    }

    fn open(dir: &Path) -> Result<(BlockFile, Visited), StoreError> {
        open_at(dir, 0, FsyncPolicy::Never)
    }

    /// The bytes of every visited block.
    fn bytes_of(visited: &Visited) -> Vec<Vec<u8>> {
        visited.iter().map(|(_, b)| b.clone()).collect()
    }

    fn blocks(range: std::ops::Range<u64>) -> Vec<Vec<u8>> {
        range.map(block_bytes).collect()
    }

    /// Blocks read back at the frames their appends reported, and visited
    /// at the same frames by a reopen, which leaves the directory as it
    /// was: one file, not a byte changed.
    #[test]
    fn append_read_reopen() {
        let dir = TestDir::new("bf-basic");
        let mut frames = Vec::new();
        {
            let (mut bf, visited) = open(dir.path()).unwrap();
            assert!(visited.is_empty());
            let reader = bf.reader().unwrap();
            for i in 0..11 {
                frames.push(bf.append(i, &block_bytes(i), 1).unwrap());
            }
            assert_eq!(bf.height(), 11);
            for i in [0, 3, 4, 7, 10] {
                assert_eq!(reader.read(i, frames[i as usize]).unwrap(), block_bytes(i));
            }
        }
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let before = std::fs::read(&data_path).unwrap();
        let (bf, visited) = open(dir.path()).unwrap();
        assert_eq!(bf.height(), 11);
        let expected: Visited = frames.into_iter().zip(blocks(0..11)).collect();
        assert_eq!(visited, expected);
        assert_eq!(std::fs::read(&data_path).unwrap(), before);
        let names: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [BLOCKS_DATA_FILE]);
    }

    #[test]
    fn out_of_order_append_rejected() {
        let dir = TestDir::new("bf-order");
        let (mut bf, _) = open(dir.path()).unwrap();
        bf.append(0, b"b0", 1).unwrap();
        assert!(bf.append(5, b"b5", 1).is_err());
        assert!(bf.append(0, b"again", 1).is_err());
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = TestDir::new("bf-torn");
        {
            let (mut bf, _) = open(dir.path()).unwrap();
            for i in 0..6 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
        }
        // Cut the data file mid-way through the last frame.
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let bytes = std::fs::read(&data_path).unwrap();
        std::fs::write(&data_path, &bytes[..bytes.len() - 3]).unwrap();

        let (mut bf, visited) = open(dir.path()).unwrap();
        assert_eq!(bf.height(), 5, "torn block dropped");
        assert_eq!(bytes_of(&visited), blocks(0..5));
        let (last, _) = visited[4];
        let end = last.offset + FRAME_HEADER_BYTES + u64::from(last.len);
        assert_eq!(std::fs::metadata(&data_path).unwrap().len(), end);
        // Appending continues cleanly at the repaired height.
        let at = bf.append(5, &block_bytes(5), 1).unwrap();
        assert_eq!(at.offset, end);
        assert_eq!(bf.reader().unwrap().read(5, at).unwrap(), block_bytes(5));
    }

    #[test]
    fn deep_cut_recovers_the_whole_frames() {
        let dir = TestDir::new("bf-deep-cut");
        {
            let (mut bf, _) = open(dir.path()).unwrap();
            for i in 0..8 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
        }
        // Cut the data file roughly in half.
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let bytes = std::fs::read(&data_path).unwrap();
        std::fs::write(&data_path, &bytes[..bytes.len() / 2]).unwrap();
        let (bf, visited) = open(dir.path()).unwrap();
        let h = bf.height();
        assert!(h < 8);
        assert_eq!(bytes_of(&visited), blocks(0..h));
    }

    /// A visitor's error fails the open before any repair: a torn tail
    /// stays on disk until an open gets past every block.
    #[test]
    fn visitor_error_fails_the_open_and_writes_nothing() {
        let dir = TestDir::new("bf-visit-err");
        {
            let (mut bf, _) = open(dir.path()).unwrap();
            for i in 0..4 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
        }
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let mut torn = std::fs::read(&data_path).unwrap();
        torn.truncate(torn.len() - 2);
        std::fs::write(&data_path, &torn).unwrap();
        let err = BlockFile::open_at(
            dir.path(),
            0,
            FsyncPolicy::Never,
            |height, _, _| match height {
                2 => Err(StoreError::Corrupt("refused".into())),
                _ => Ok(()),
            },
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(m) if m == "refused"));
        assert_eq!(std::fs::read(&data_path).unwrap(), torn);
        assert_eq!(open(dir.path()).unwrap().0.height(), 3);
    }

    #[test]
    fn pruned_store_starts_at_base() {
        let dir = TestDir::new("bf-pruned");
        let mut frames = Vec::new();
        {
            let (mut bf, _) = open_at(dir.path(), 100, FsyncPolicy::Never).unwrap();
            assert_eq!(bf.height(), 100);
            assert!(bf.append(0, b"wrong", 1).is_err());
            for i in 100..110 {
                frames.push(bf.append(i, &block_bytes(i), 1).unwrap());
            }
            assert_eq!(bf.height(), 110);
            let reader = bf.reader().unwrap();
            assert!(reader.read(99, frames[0]).is_err(), "not block 99");
            for i in [100, 104, 109] {
                let at = frames[i as usize - 100];
                assert_eq!(reader.read(i, at).unwrap(), block_bytes(i));
            }
        }
        // Reopen with a *wrong* hint: the first frame wins.
        let (mut bf, visited) = open_at(dir.path(), 0, FsyncPolicy::Never).unwrap();
        assert_eq!(bf.height(), 110);
        let expected: Visited = frames.into_iter().zip(blocks(100..110)).collect();
        assert_eq!(visited, expected);
        let at = bf.append(110, &block_bytes(110), 1).unwrap();
        assert_eq!(
            bf.reader().unwrap().read(110, at).unwrap(),
            block_bytes(110)
        );
    }

    /// Every truncation and every single-bit flip of a ten-block file:
    /// `open` never panics, and every block it visits is the block
    /// appended. A cut file reopens at its whole frames. A bit flipped in
    /// frame k either fails the open or, in the last frame, is a torn tail
    /// that reopens at the nine blocks before it.
    #[test]
    fn truncation_and_bit_flip_sweep() {
        const BLOCKS: u64 = 10;
        let dir = TestDir::new("bf-sweep");
        {
            let (mut bf, _) = open(dir.path()).unwrap();
            for i in 0..BLOCKS {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
        }
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let data = std::fs::read(&data_path).unwrap();
        // Frame k of the data file is bytes ends[k]..ends[k + 1].
        let mut ends = vec![0usize];
        for i in 0..BLOCKS {
            ends.push(ends[i as usize] + 16 + block_bytes(i).len());
        }
        assert_eq!(*ends.last().unwrap(), data.len());
        let frame_of = |byte: usize| ends.iter().rposition(|&e| e <= byte).unwrap() as u64;

        // Open the image; the height it reopens at (a wrong block fails
        // here).
        let reopen = |img: &[u8]| -> Option<u64> {
            std::fs::write(&data_path, img).unwrap();
            let (bf, visited) = open(dir.path()).ok()?;
            assert_eq!(bytes_of(&visited), blocks(0..bf.height()));
            Some(bf.height())
        };

        for cut in 0..=data.len() {
            let whole = frame_of(cut);
            assert_eq!(reopen(&data[..cut]), Some(whole), "data cut at {cut}");
            assert_eq!(
                std::fs::metadata(&data_path).unwrap().len(),
                ends[whole as usize] as u64
            );
        }
        let mut flipped_tail = 0;
        for byte in 0..data.len() {
            let k = frame_of(byte);
            for bit in 0..8 {
                let mut img = data.clone();
                img[byte] ^= 1 << bit;
                if let Some(height) = reopen(&img) {
                    assert_eq!(height, k, "flip at {byte}.{bit}");
                    flipped_tail += 1;
                }
            }
        }
        // A flip inside the last frame is a torn tail: every one of them
        // recovers the nine blocks before it.
        let last = (data.len() - ends[BLOCKS as usize - 1]) * 8;
        assert_eq!(flipped_tail, last, "flips truncated");
    }

    /// One bit flipped inside frame 9 of eleven: block 10 after it is
    /// intact, so this is no torn append. Open fails and truncates nothing.
    #[test]
    fn bit_flip_before_a_valid_frame_is_corruption() {
        let dir = TestDir::new("bf-flip-mid");
        {
            let (mut bf, _) = open(dir.path()).unwrap();
            for i in 0..11 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
        }
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let mut data = std::fs::read(&data_path).unwrap();
        let frame9: usize = (0..9).map(|i| 16 + block_bytes(i).len()).sum();
        data[frame9 + 16 + 2] ^= 0x10;
        std::fs::write(&data_path, &data).unwrap();

        let err = open(dir.path()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        assert_eq!(
            std::fs::read(&data_path).unwrap(),
            data,
            "nothing truncated"
        );
        // The same flip in the last frame is a torn tail, repaired.
        std::fs::write(&data_path, &data[..frame9 + 16 + block_bytes(9).len()]).unwrap();
        let (bf, visited) = open(dir.path()).unwrap();
        assert_eq!(bf.height(), 9);
        assert_eq!(visited.len(), 9);
        drop(bf);

        // A flip in frame 2, far from the end: the scan meets it before
        // the valid frames after it, and the open fails.
        data[frame9 + 16 + 2] ^= 0x10;
        let frame2: usize = (0..2).map(|i| 16 + block_bytes(i).len()).sum();
        data[frame2 + 16] ^= 0x01;
        std::fs::write(&data_path, &data).unwrap();
        assert!(matches!(open(dir.path()), Err(StoreError::Corrupt(_))));
        assert_eq!(std::fs::read(&data_path).unwrap(), data);
    }

    /// Each of the 32 bits of frame 9's length field flipped in turn, of
    /// eleven frames: whether the wrong length overruns the file or lands
    /// on a failing CRC, block 10 still follows intact, so open reports
    /// corruption and leaves every byte of the file.
    #[test]
    fn flipped_length_field_is_corruption() {
        let dir = TestDir::new("bf-flip-len");
        {
            let (mut bf, _) = open(dir.path()).unwrap();
            for i in 0..11 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
        }
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let data = std::fs::read(&data_path).unwrap();
        assert_eq!(data.len(), 324);
        let frame9: usize = (0..9).map(|i| 16 + block_bytes(i).len()).sum();
        for bit in 0..32 {
            let mut img = data.clone();
            img[frame9 + bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&data_path, &img).unwrap();
            let err = open(dir.path()).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "bit {bit}: {err:?}");
            assert_eq!(std::fs::read(&data_path).unwrap(), img, "bit {bit}");
        }
        // Cut in the middle of frame 10, the file is a torn tail again.
        std::fs::write(&data_path, &data[..data.len() - 5]).unwrap();
        assert_eq!(open(dir.path()).unwrap().0.height(), 10);
    }

    /// A torn append of block 10 whose payload carries, among its bytes,
    /// the whole frame that appending block 11 would write: cut anywhere
    /// inside frame 10 — right after the carried frame too, where that
    /// frame ends at end-of-file — the file is a torn tail, truncated back
    /// to block 9.
    #[test]
    fn frame_inside_a_torn_payload_is_still_a_torn_tail() {
        let dir = TestDir::new("bf-torn-nested");
        let mut carried = 11u64.to_le_bytes().to_vec();
        carried.extend_from_slice(&block_bytes(11));
        let mut block10 = b"value:".to_vec();
        encode_frame_into(&mut block10, &carried);
        block10.extend_from_slice(b":rest of the block");
        {
            let (mut bf, _) = open(dir.path()).unwrap();
            for i in 0..10 {
                bf.append(i, &block_bytes(i), 1).unwrap();
            }
            bf.append(10, &block10, 1).unwrap();
        }
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let data = std::fs::read(&data_path).unwrap();
        let frame10: usize = (0..10).map(|i| 16 + block_bytes(i).len()).sum();
        let carried_end = frame10 + 16 + 6 + 8 + carried.len();
        assert_eq!(&data[carried_end - carried.len()..carried_end], carried);
        for cut in frame10 + 1..data.len() {
            std::fs::write(&data_path, &data[..cut]).unwrap();
            let (bf, _) = open(dir.path()).unwrap_or_else(|e| panic!("cut at {cut}: {e:?}"));
            assert_eq!(bf.height(), 10, "cut at {cut}");
            assert_eq!(
                std::fs::metadata(&data_path).unwrap().len(),
                frame10 as u64,
                "cut at {cut}"
            );
        }
    }

    /// A reader fetches every block at the `FrameAt` its append reported,
    /// and a reopen visits every block at the same place. A flipped bit or
    /// a cut file under an open reader is corruption.
    #[test]
    fn reader_reads_each_block_at_its_frame() {
        let dir = TestDir::new("bf-reader");
        let (mut bf, _) = open(dir.path()).unwrap();
        let reader = bf.reader().unwrap();
        let mut frames = Vec::new();
        for i in 0..9 {
            frames.push(bf.append(i, &block_bytes(i), 1).unwrap());
            // Appends go on under an open reader.
            assert_eq!(reader.read(i, frames[i as usize]).unwrap(), block_bytes(i));
        }
        drop(bf);
        let (bf, visited) = open(dir.path()).unwrap();
        assert_eq!(
            visited.iter().map(|(at, _)| *at).collect::<Vec<_>>(),
            frames
        );
        let reader = bf.reader().unwrap();
        assert!(matches!(
            reader.read(4, frames[3]),
            Err(StoreError::Corrupt(_))
        ));

        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let mut data = std::fs::read(&data_path).unwrap();
        data[frames[5].offset as usize + 16] ^= 0x04;
        std::fs::write(&data_path, &data).unwrap();
        assert!(matches!(
            reader.read(5, frames[5]),
            Err(StoreError::Corrupt(_))
        ));
        assert_eq!(reader.read(6, frames[6]).unwrap(), block_bytes(6));
        std::fs::write(&data_path, &data[..frames[7].offset as usize + 3]).unwrap();
        assert!(matches!(
            reader.read(7, frames[7]),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_store() {
        let dir = TestDir::new("bf-empty");
        let (bf, visited) = open(dir.path()).unwrap();
        assert_eq!(bf.height(), 0);
        assert!(visited.is_empty());
        let nothing = FrameAt { offset: 0, len: 8 };
        assert!(bf.reader().unwrap().read(0, nothing).is_err());
    }

    #[test]
    fn fsync_policy_counts_records_and_sync_resets_the_count() {
        let dir = TestDir::new("bf-policy-always");
        let (mut always, _) = open_at(dir.path(), 0, FsyncPolicy::Always).unwrap();
        for i in 0..3 {
            always.append(i, &block_bytes(i), 0).unwrap();
        }
        assert_eq!(always.fsyncs(), 3, "Always syncs every block");

        let dir = TestDir::new("bf-policy-every");
        let (mut every, _) = open_at(dir.path(), 0, FsyncPolicy::EveryN(3)).unwrap();
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
