//! Length-prefixed, CRC-checked record framing.
//!
//! Every file this crate writes — the block data file and the sparse block
//! index — is a sequence of *frames*:
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc32: u32 LE  | payload: len B   |
//! +----------------+----------------+------------------+
//! ```
//!
//! The CRC covers the payload only. A frame whose header or payload runs
//! past end-of-file, or whose CRC does not match, marks a **torn tail**: the
//! write was cut by a crash mid-record. Recovery keeps every frame before
//! the torn one and truncates the file back to the last whole frame — the
//! standard log repair rule (anything after the first bad frame was never
//! acknowledged as durable, so dropping it is safe).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};

use crate::crc32::crc32;

/// Bytes of framing overhead per record (length + CRC).
pub const FRAME_HEADER_BYTES: u64 = 8;

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

/// One recovered frame: its byte offset in the file and its payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScannedFrame {
    /// Offset of the frame header within the file.
    pub offset: u64,
    /// The verified payload.
    pub payload: Vec<u8>,
}

/// The result of scanning a frame file.
#[derive(Debug, Default)]
pub struct Scan {
    /// Every whole, CRC-valid frame in order.
    pub frames: Vec<ScannedFrame>,
    /// File length covered by valid frames (the truncation point if torn).
    pub valid_len: u64,
    /// Whether a torn/corrupt tail was found after the valid frames.
    pub torn: bool,
}

/// Scan `file` from `from_offset` to EOF, collecting whole valid frames and
/// detecting a torn tail. Does not modify the file.
pub fn scan_frames(file: &mut File, from_offset: u64) -> std::io::Result<Scan> {
    let file_len = file.seek(SeekFrom::End(0))?;
    file.seek(SeekFrom::Start(from_offset))?;
    let mut bytes = Vec::with_capacity(file_len.saturating_sub(from_offset) as usize);
    file.read_to_end(&mut bytes)?;

    let mut scan = Scan {
        frames: Vec::new(),
        valid_len: from_offset,
        torn: false,
    };
    let mut rest = bytes.as_slice();
    while !rest.is_empty() {
        let Some((header, body)) = rest.split_first_chunk() else {
            scan.torn = true;
            break;
        };
        let (len, crc) = decode_header(*header);
        let Some(payload) = body.get(..len as usize) else {
            scan.torn = true;
            break;
        };
        if crc32(payload) != crc {
            scan.torn = true;
            break;
        }
        scan.frames.push(ScannedFrame {
            offset: scan.valid_len,
            payload: payload.to_vec(),
        });
        rest = &body[payload.len()..];
        scan.valid_len += FRAME_HEADER_BYTES + u64::from(len);
    }
    Ok(scan)
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

    #[test]
    fn frames_round_trip() {
        let dir = TestDir::new("frames-round-trip");
        let path = dir.path().join("f.log");
        let mut file = open_rw(&path);
        for payload in [&b"alpha"[..], b"", b"gamma-gamma"] {
            append_bytes(&mut file, &encode_frame(payload)).unwrap();
        }
        let scan = scan_frames(&mut file, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.frames[0].payload, b"alpha");
        assert_eq!(scan.frames[1].payload, b"");
        assert_eq!(scan.frames[2].payload, b"gamma-gamma");
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
        let mut file = open_rw(&path);
        let scan = scan_frames(&mut file, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.frames.len(), 1);

        // Truncate the file at every byte offset strictly inside the second
        // frame: the first frame must survive, the partial second dropped.
        for cut in first_len + 1..whole.len() as u64 {
            std::fs::write(&path, &whole[..cut as usize]).unwrap();
            let mut file = open_rw(&path);
            let scan = scan_frames(&mut file, 0).unwrap();
            assert!(scan.torn, "cut at {cut} not flagged as torn");
            assert_eq!(scan.frames.len(), 1, "cut at {cut}");
            assert_eq!(scan.frames[0].payload, b"first-record");
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
        let mut file = open_rw(&path);
        let scan = scan_frames(&mut file, 0).unwrap();
        assert!(scan.torn);
        assert!(scan.frames.is_empty());
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn truncate_repairs_file() {
        let dir = TestDir::new("truncate-repairs");
        let path = dir.path().join("f.log");
        let mut file = open_rw(&path);
        append_bytes(&mut file, &encode_frame(b"keep")).unwrap();
        let keep_len = file.metadata().unwrap().len();
        append_bytes(&mut file, &[0xFF; 5]).unwrap(); // torn garbage
        let scan = scan_frames(&mut file, 0).unwrap();
        assert!(scan.torn);
        truncate_to(&mut file, scan.valid_len).unwrap();
        assert_eq!(file.metadata().unwrap().len(), keep_len);
        // A fresh append after repair scans clean.
        append_bytes(&mut file, &encode_frame(b"new")).unwrap();
        let scan = scan_frames(&mut file, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.frames.len(), 2);
    }
}
