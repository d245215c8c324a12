//! Length-prefixed, CRC-checked record framing.
//!
//! The block data file this crate writes is a sequence of *frames*:
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc32: u32 LE  | payload: len B   |
//! +----------------+----------------+------------------+
//! ```
//!
//! The CRC covers the payload only. A frame whose header or payload runs
//! past end-of-file, or a last frame whose CRC does not match, marks a
//! **torn tail**: the write was cut by a crash mid-record. Recovery keeps
//! every frame before the torn one and truncates the file back to the last
//! whole frame — the standard log repair rule (anything after the first bad
//! frame was never acknowledged as durable, so dropping it is safe). A torn
//! append can only damage the last frame, so a bad frame — a CRC that
//! fails, or a length that runs past end-of-file — is not a torn tail but
//! **corruption** if whole, valid frames run from where it really ends to
//! end-of-file; the scan reports it and no caller repairs it by truncation.
//! One damaged field leaves that end in one of two places: where the
//! length points, if the payload or CRC was damaged, or, if the length
//! was, where the bytes after the header first match the stored CRC. The
//! scan looks only there. A torn tail's written prefix may hold frames of
//! its own (a block carries client-supplied values), but none of them
//! starts at either place.
//!
//! [`scan_frames`] reads the file once, front to back, through a 64 KiB
//! buffer, and holds one payload at a time: each valid frame is handed to
//! the caller as it is read.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;

use crate::crc32::{crc32, crc32_extend};
use crate::StoreError;

/// Bytes of framing overhead per record (length + CRC).
pub const FRAME_HEADER_BYTES: u64 = 8;

/// The read buffer of a scan: how many bytes of the file one read fetches.
const IO_RUN_BYTES: usize = 64 * 1024;

/// Append the frame encoding of `payload` to `buf` (several frames can be
/// encoded into one buffer and written with a single syscall).
pub fn encode_frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// The frame encoding of `payload` as a fresh buffer.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + FRAME_HEADER_BYTES as usize);
    encode_frame_into(&mut buf, payload);
    buf
}

/// How a scan of a frame file ended.
#[derive(Debug, Default)]
pub struct Scan {
    /// File length covered by valid frames (the truncation point if torn).
    pub valid_len: u64,
    /// Whether the scan stopped at a bad frame before the end of the file:
    /// a torn tail, unless `corrupt_at` is set.
    pub torn: bool,
    /// The offset of the bad frame the scan stopped at if whole, valid
    /// frames run from its end to end-of-file: damage inside the file, not
    /// a torn tail.
    pub corrupt_at: Option<u64>,
}

/// Scan `file` from its start to EOF, handing every whole, CRC-valid frame
/// to `visit` as `(offset, payload)` in file order, and detect a torn tail
/// or corruption after the last of them. Does not modify the file. The
/// first error `visit` returns ends the scan.
pub fn scan_frames<E: From<StoreError>>(
    file: &File,
    mut visit: impl FnMut(u64, Vec<u8>) -> Result<(), E>,
) -> Result<Scan, E> {
    let file_len = file.metadata().map_err(StoreError::Io)?.len();
    let mut bytes = BufReader::with_capacity(IO_RUN_BYTES, file);
    bytes.seek(SeekFrom::Start(0)).map_err(StoreError::Io)?;
    let mut scan = Scan::default();
    while scan.valid_len < file_len {
        let offset = scan.valid_len;
        let body_at = offset + FRAME_HEADER_BYTES;
        if body_at > file_len {
            scan.torn = true;
            break;
        }
        let mut header = [0u8; FRAME_HEADER_BYTES as usize];
        bytes.read_exact(&mut header).map_err(StoreError::Io)?;
        let (len, crc) = decode_header(header);
        let mut payload = Vec::new();
        if u64::from(len) <= file_len - body_at {
            payload.resize(len as usize, 0);
            bytes.read_exact(&mut payload).map_err(StoreError::Io)?;
        }
        if payload.len() != len as usize || crc32(&payload) != crc {
            // A header whose length overruns the file or whose CRC fails.
            scan.torn = true;
            if damaged_before_whole_frames(file, body_at, file_len, len, crc)? {
                scan.corrupt_at = Some(offset);
            }
            break;
        }
        visit(offset, payload)?;
        scan.valid_len = body_at + u64::from(len);
    }
    Ok(scan)
}

/// Whether the frame whose header says `(len, crc)`, its body starting at
/// `body_at`, is a damaged frame with whole, valid frames after it. Its
/// payload ends either where `len` points or, if `len` is the damaged
/// field, where the bytes of the body read so far first match `crc`; one
/// pass over the rest of the file tries both, and only where one holds
/// are the frames after it checked.
fn damaged_before_whole_frames(
    file: &File,
    body_at: u64,
    file_len: u64,
    len: u32,
    crc: u32,
) -> Result<bool, StoreError> {
    let mut bytes = BufReader::with_capacity(IO_RUN_BYTES, file);
    bytes.seek(SeekFrom::Start(body_at))?;
    let mut running = crc32(&[]);
    let mut byte = [0u8; 1];
    for end in body_at..file_len {
        if (end - body_at == u64::from(len) || running == crc) && whole_frames(file, end, file_len)?
        {
            return Ok(true);
        }
        bytes.read_exact(&mut byte)?;
        running = crc32_extend(running, &byte);
    }
    Ok(false)
}

/// Whether the bytes of `file` from `from` to `file_len` are whole frames
/// whose CRCs match, read one frame at a time.
fn whole_frames(file: &File, mut from: u64, file_len: u64) -> Result<bool, StoreError> {
    let mut header = [0u8; FRAME_HEADER_BYTES as usize];
    while file_len - from >= FRAME_HEADER_BYTES {
        file.read_exact_at(&mut header, from)?;
        let (len, crc) = decode_header(header);
        let body_at = from + FRAME_HEADER_BYTES;
        if u64::from(len) > file_len - body_at {
            return Ok(false);
        }
        let mut payload = vec![0u8; len as usize];
        file.read_exact_at(&mut payload, body_at)?;
        if crc32(&payload) != crc {
            return Ok(false);
        }
        from = body_at + u64::from(len);
    }
    Ok(from == file_len)
}

/// A frame header's `(payload length, CRC)`.
pub(crate) fn decode_header(header: [u8; 8]) -> (u32, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    (
        u32::from_le_bytes([l0, l1, l2, l3]),
        u32::from_le_bytes([c0, c1, c2, c3]),
    )
}

/// Truncate `file` to `len` bytes and seek to the new end (repairing a torn
/// tail found by [`scan_frames`]).
pub fn truncate_to(file: &mut File, len: u64) -> std::io::Result<()> {
    file.set_len(len)?;
    file.seek(SeekFrom::Start(len))?;
    Ok(())
}

/// Write `buf` at the current end of `file`.
pub fn append_bytes(file: &mut File, buf: &[u8]) -> std::io::Result<()> {
    file.write_all(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;
    use std::fs::OpenOptions;

    fn open_rw(path: &std::path::Path) -> File {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .unwrap()
    }

    /// Scan `file`, collecting every payload handed over.
    fn scan_all(file: &File) -> (Scan, Vec<Vec<u8>>) {
        let mut payloads = Vec::new();
        let scan = scan_frames::<StoreError>(file, |_, payload| {
            payloads.push(payload);
            Ok(())
        })
        .unwrap();
        (scan, payloads)
    }

    #[test]
    fn frames_round_trip() {
        let dir = TestDir::new("frames-round-trip");
        let path = dir.path().join("f.log");
        let mut file = open_rw(&path);
        for payload in [&b"alpha"[..], b"", b"gamma-gamma"] {
            append_bytes(&mut file, &encode_frame(payload)).unwrap();
        }
        let (scan, payloads) = scan_all(&file);
        assert!(!scan.torn);
        assert_eq!(payloads, [&b"alpha"[..], b"", b"gamma-gamma"]);
        assert_eq!(scan.valid_len, file.metadata().unwrap().len());
    }

    #[test]
    fn torn_tail_detected_at_every_truncation_point() {
        let dir = TestDir::new("torn-tail");
        let path = dir.path().join("f.log");
        let mut whole = Vec::new();
        encode_frame_into(&mut whole, b"first-record");
        encode_frame_into(&mut whole, b"second-record");
        let first_len = encode_frame(b"first-record").len() as u64;

        // Cutting exactly between frames leaves a clean file: a crash that
        // loses an entire trailing record leaves no evidence of it.
        std::fs::write(&path, &whole[..first_len as usize]).unwrap();
        let (scan, payloads) = scan_all(&open_rw(&path));
        assert!(!scan.torn);
        assert_eq!(payloads.len(), 1);

        // Truncate the file at every byte offset strictly inside the second
        // frame: the first frame must survive, the partial second dropped.
        for cut in first_len + 1..whole.len() as u64 {
            std::fs::write(&path, &whole[..cut as usize]).unwrap();
            let (scan, payloads) = scan_all(&open_rw(&path));
            assert!(scan.torn, "cut at {cut} not flagged as torn");
            assert_eq!(payloads, [b"first-record"], "cut at {cut}");
            assert_eq!(scan.valid_len, first_len);
        }
    }

    #[test]
    fn corrupt_byte_stops_scan() {
        let dir = TestDir::new("corrupt-byte");
        let path = dir.path().join("f.log");
        let mut whole = Vec::new();
        encode_frame_into(&mut whole, b"aaaa");
        encode_frame_into(&mut whole, b"bbbb");
        // Flip a payload byte of the first frame: nothing survives.
        whole[9] ^= 0x40;
        std::fs::write(&path, &whole).unwrap();
        let (scan, payloads) = scan_all(&open_rw(&path));
        assert!(scan.torn);
        assert!(payloads.is_empty());
        assert_eq!(scan.valid_len, 0);
        // A valid frame follows the bad one: damage, not a torn tail.
        assert_eq!(scan.corrupt_at, Some(0));
        // The same flip in the last frame is a torn tail.
        let first_len = encode_frame(b"aaaa").len();
        std::fs::write(&path, &whole[..first_len]).unwrap();
        let (scan, _) = scan_all(&open_rw(&path));
        assert!(scan.torn);
        assert_eq!(scan.corrupt_at, None);
    }

    /// The first error the visitor returns ends the scan, with nothing
    /// read past the frame it was handed.
    #[test]
    fn visitor_error_ends_the_scan() {
        let dir = TestDir::new("visitor-error");
        let path = dir.path().join("f.log");
        let mut file = open_rw(&path);
        for payload in [&b"one"[..], b"two", b"three"] {
            append_bytes(&mut file, &encode_frame(payload)).unwrap();
        }
        let mut seen = Vec::new();
        let err = scan_frames(&file, |offset, payload| {
            seen.push(offset);
            match payload.as_slice() {
                b"two" => Err(StoreError::Corrupt("refused".into())),
                _ => Ok(()),
            }
        })
        .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        assert_eq!(seen, [0, 11]);
    }

    #[test]
    fn truncate_repairs_file() {
        let dir = TestDir::new("truncate-repairs");
        let path = dir.path().join("f.log");
        let mut file = open_rw(&path);
        append_bytes(&mut file, &encode_frame(b"keep")).unwrap();
        let keep_len = file.metadata().unwrap().len();
        append_bytes(&mut file, &[0xFF; 5]).unwrap(); // torn garbage
        let (scan, _) = scan_all(&file);
        assert!(scan.torn);
        truncate_to(&mut file, scan.valid_len).unwrap();
        assert_eq!(file.metadata().unwrap().len(), keep_len);
        // A fresh append after repair scans clean.
        append_bytes(&mut file, &encode_frame(b"new")).unwrap();
        let (scan, payloads) = scan_all(&file);
        assert!(!scan.torn);
        assert_eq!(payloads.len(), 2);
    }
}
