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
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
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
            if ntables > 1 << 20 {
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

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
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
        // Persist the rename itself.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
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

    #[test]
    fn live_seqs_flattens_levels() {
        let mut seqs = sample().live_seqs();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 5, 7]);
    }
}
