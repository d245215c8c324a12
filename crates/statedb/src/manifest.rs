//! The manifest: the single atomically-updated root of LSM metadata.
//!
//! Everything the engine needs to reopen — the table sequence numbers in
//! each level, per-level compaction cursors, the next sequence number,
//! and an opaque caller blob (the backend stores its flushed height and
//! state digest there) — is serialized into one CRC-guarded file that is
//! replaced via write-to-temp + fsync + rename. A crash between table
//! writes and the manifest rename leaves orphan `.tbl` files that the
//! next open simply deletes: the manifest *is* the commit point for
//! every flush and compaction.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use fabric_store::crc32::crc32;
use fabric_store::StoreError;

const MANIFEST_MAGIC: &[u8; 8] = b"LVSTMAN1";
pub const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";

/// Decoded manifest contents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Next table sequence number to allocate.
    pub next_seq: u64,
    /// Table sequence numbers per level; `levels[0]` is L0 in age order
    /// (oldest first), deeper levels are sorted by min key.
    pub levels: Vec<Vec<u64>>,
    /// Per-level compaction cursor: the max key of the last table pushed
    /// down from that level (round-robin pick survives restarts).
    pub cursors: Vec<Option<String>>,
    /// Opaque caller metadata (flushed height, digest, ...).
    pub meta: Vec<u8>,
}

fn corrupt(msg: &str) -> StoreError {
    StoreError::Corrupt(format!("manifest: {msg}"))
}

impl Manifest {
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(MANIFEST_MAGIC);
        body.extend_from_slice(&self.next_seq.to_le_bytes());
        body.extend_from_slice(&(self.levels.len() as u32).to_le_bytes());
        for level in &self.levels {
            body.extend_from_slice(&(level.len() as u32).to_le_bytes());
            for seq in level {
                body.extend_from_slice(&seq.to_le_bytes());
            }
        }
        body.extend_from_slice(&(self.cursors.len() as u32).to_le_bytes());
        for cursor in &self.cursors {
            match cursor {
                None => body.extend_from_slice(&u32::MAX.to_le_bytes()),
                Some(k) => {
                    body.extend_from_slice(&(k.len() as u32).to_le_bytes());
                    body.extend_from_slice(k.as_bytes());
                }
            }
        }
        body.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        body.extend_from_slice(&self.meta);
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    pub fn decode(bytes: &[u8]) -> Result<Manifest, StoreError> {
        if bytes.len() < MANIFEST_MAGIC.len() + 4 {
            return Err(corrupt("truncated"));
        }
        let (body, crc_bytes) = bytes
            .split_last_chunk::<4>()
            .ok_or_else(|| corrupt("truncated"))?;
        if crc32(body) != u32::from_le_bytes(*crc_bytes) {
            return Err(corrupt("checksum mismatch"));
        }
        let mut cur = Cursor { buf: body, pos: 0 };
        let magic = cur.take(8)?;
        if magic != MANIFEST_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let next_seq = cur.u64()?;
        let nlevels = cur.u32()? as usize;
        if nlevels > 64 {
            return Err(corrupt("implausible level count"));
        }
        let mut levels = Vec::with_capacity(nlevels);
        for _ in 0..nlevels {
            let ntables = cur.u32()? as usize;
            // Each sequence number takes 8 bytes: a count the rest of the
            // body cannot hold is corrupt, and never sizes an allocation.
            if ntables > cur.remaining() / 8 {
                return Err(corrupt("implausible table count"));
            }
            let mut tables = Vec::with_capacity(ntables);
            for _ in 0..ntables {
                tables.push(cur.u64()?);
            }
            levels.push(tables);
        }
        let ncursors = cur.u32()? as usize;
        if ncursors > 64 {
            return Err(corrupt("implausible cursor count"));
        }
        let mut cursors = Vec::with_capacity(ncursors);
        for _ in 0..ncursors {
            let len = cur.u32()?;
            if len == u32::MAX {
                cursors.push(None);
            } else {
                let raw = cur.take(len as usize)?;
                let key = std::str::from_utf8(raw).map_err(|_| corrupt("cursor not utf-8"))?;
                cursors.push(Some(key.to_string()));
            }
        }
        let meta_len = cur.u32()? as usize;
        let meta = cur.take(meta_len)?.to_vec();
        if cur.pos != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Manifest {
            next_seq,
            levels,
            cursors,
            meta,
        })
    }

    /// All table sequence numbers referenced by any level.
    pub fn live_seqs(&self) -> Vec<u64> {
        self.levels.iter().flatten().copied().collect()
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.buf.len() {
            return Err(corrupt("unexpected end"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let out = *self.buf[self.pos..]
            .first_chunk::<N>()
            .ok_or_else(|| corrupt("unexpected end"))?;
        self.pos += N;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        self.array().map(u64::from_le_bytes)
    }
}

/// Load the manifest if present. A missing file means a fresh database;
/// a present-but-corrupt file is an error (the rename either happened or
/// it didn't — torn manifests indicate real damage, not a crash window).
pub fn load(dir: &Path) -> Result<Option<Manifest>, StoreError> {
    let path = dir.join(MANIFEST_FILE);
    let mut file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(StoreError::Io)?;
    Manifest::decode(&bytes).map(Some)
}

/// Atomically replace the manifest: write temp, fsync, rename, fsync dir.
/// With `sync` on, `Ok` means the rename itself is durable.
pub fn save(dir: &Path, manifest: &Manifest, sync: bool) -> Result<(), StoreError> {
    let tmp = dir.join(MANIFEST_TMP);
    let path = dir.join(MANIFEST_FILE);
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(StoreError::Io)?;
    file.write_all(&manifest.encode()).map_err(StoreError::Io)?;
    if sync {
        file.sync_all().map_err(StoreError::Io)?;
    }
    drop(file);
    fs::rename(&tmp, &path).map_err(StoreError::Io)?;
    if sync {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Fsync a directory, persisting the renames made in it. A directory that
/// cannot be opened is an error too: the rename would not be durable.
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(StoreError::Io)
}

/// Path of the temp file (deleted as part of orphan cleanup at open).
pub fn tmp_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_TMP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_store::testdir::TestDir;

    fn sample() -> Manifest {
        Manifest {
            next_seq: 42,
            levels: vec![vec![3, 7], vec![1, 2, 5], vec![]],
            cursors: vec![None, Some("key-99".to_string()), None],
            meta: b"opaque".to_vec(),
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn save_load_cycle() {
        let dir = TestDir::new("statedb-manifest");
        assert!(load(dir.path()).unwrap().is_none());
        save(dir.path(), &sample(), true).unwrap();
        assert_eq!(load(dir.path()).unwrap().unwrap(), sample());
        let mut next = sample();
        next.next_seq = 43;
        save(dir.path(), &next, false).unwrap();
        assert_eq!(load(dir.path()).unwrap().unwrap().next_seq, 43);
    }

    #[test]
    fn rejects_corruption() {
        let m = sample();
        let mut bytes = m.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(Manifest::decode(&bytes).is_err());
        bytes = m.encode();
        bytes.truncate(bytes.len() - 1);
        assert!(Manifest::decode(&bytes).is_err());
        bytes = m.encode();
        bytes.push(0);
        assert!(Manifest::decode(&bytes).is_err());
        // Every single-bit flip, anywhere, is an error.
        let pristine = m.encode();
        for i in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[i] ^= 1 << (i % 8);
            assert!(Manifest::decode(&bytes).is_err(), "flip at byte {i}");
        }
    }

    /// A body re-sealed with a valid CRC, so the parser (not just the
    /// checksum) sees whatever damage it carries.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut bytes = body.to_vec();
        bytes.extend_from_slice(&crc32(body).to_le_bytes());
        bytes
    }

    /// Damaged bytes decode to `Corrupt`, or to a manifest that encodes
    /// back to exactly those bytes — never to a panic.
    fn assert_corrupt_or_exact(bytes: &[u8], what: &str) {
        match Manifest::decode(bytes) {
            Ok(m) => assert_eq!(m.encode(), bytes, "{what}: decoded to another manifest"),
            Err(StoreError::Corrupt(_)) => {}
            Err(e) => panic!("{what}: {e}"),
        }
    }

    #[test]
    fn damaged_bytes_are_corrupt_never_a_panic() {
        let m = Manifest {
            next_seq: 1_000,
            levels: vec![vec![901, 940, 977], vec![12, 400, 512, 760], vec![3, 5]],
            cursors: vec![None, Some("acct~00001234".into()), Some(String::new())],
            meta: b"height=98;digest=...".to_vec(),
        };
        let pristine = m.encode();
        let body = &pristine[..pristine.len() - 4];
        for len in 0..pristine.len() {
            assert_corrupt_or_exact(&pristine[..len], &format!("cut at {len}"));
            if len <= body.len() {
                assert_corrupt_or_exact(&sealed(&body[..len]), &format!("sealed cut at {len}"));
            }
        }
        for bit in 0..pristine.len() * 8 {
            let mut bytes = pristine.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_corrupt_or_exact(&bytes, &format!("flip {bit}"));
            if bit < body.len() * 8 {
                let mut flipped = body.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_corrupt_or_exact(&sealed(&flipped), &format!("sealed flip {bit}"));
            }
        }
    }

    #[test]
    fn a_table_count_the_body_cannot_hold_is_corrupt() {
        let mut body = MANIFEST_MAGIC.to_vec();
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&(1u32 << 20).to_le_bytes());
        let err = Manifest::decode(&sealed(&body)).unwrap_err();
        assert!(matches!(&err, StoreError::Corrupt(msg) if msg.contains("table count")));
    }

    #[test]
    fn an_unopenable_directory_fails_the_sync() {
        let dir = TestDir::new("statedb-manifest-sync");
        let missing = dir.path().join("gone");
        assert!(matches!(sync_dir(&missing), Err(StoreError::Io(_))));
        sync_dir(dir.path()).unwrap();
    }

    #[test]
    fn live_seqs_flattens_levels() {
        let mut seqs = sample().live_seqs();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 5, 7]);
    }
}
