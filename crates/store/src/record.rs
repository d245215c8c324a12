//! The one frame layout on disk — the block file's ([`crate::blockfile`])
//! and every SSTable's in `ledgerview-statedb` — and the little-endian
//! reader the fields inside them are decoded through.
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc32: u32 LE  | payload: len B   |
//! +----------------+----------------+------------------+
//! ```
//!
//! The CRC covers the payload only. Only this module encodes or checks
//! the header: [`write_frame`], [`check_frame`], [`read_frame`] and
//! [`scan_frames`]. [`Fields`] reads the fields inside a payload; no byte
//! from disk makes it panic or size an allocation.
//!
//! A frame whose header or payload runs past end-of-file, or a last frame
//! whose CRC does not match, marks a **torn tail**: the write was cut by a
//! crash mid-record. Recovery keeps every frame before the torn one and
//! truncates the file back to the last whole frame — the standard log
//! repair rule (anything after the first bad frame was never acknowledged
//! as durable, so dropping it is safe). A torn append can only damage the
//! last frame, so a bad frame — a CRC that fails, or a length that runs
//! past end-of-file — is not a torn tail but **corruption** if whole,
//! valid frames run from where it really ends to end-of-file; the scan
//! reports it and no caller repairs it by truncation. One damaged field
//! leaves that end in one of two places: where the length points, if the
//! payload or CRC was damaged, or, if the length was, where the bytes
//! after the header first match the stored CRC. The scan looks only
//! there. A torn tail's written prefix may hold frames of its own (a block
//! carries client-supplied values), but none of them starts at either
//! place.
//!
//! [`scan_frames`] reads the file once, front to back, through a 64 KiB
//! buffer, and holds one payload at a time: each valid frame is handed to
//! the caller as it is read.

use std::fmt::Display;
use std::fs::File;
use std::io::{BufReader, ErrorKind, IoSlice, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;

use crate::crc32::{crc32, crc32_extend};
use crate::StoreError;

/// Bytes of framing overhead per record (length + CRC).
pub const FRAME_HEADER_BYTES: u64 = 8;

/// The read buffer of a scan: how many bytes of the file one read fetches.
const IO_RUN_BYTES: usize = 64 * 1024;

/// The header of the frame carrying `payload`: its length, then its CRC.
fn header(payload: &[u8]) -> [u8; 8] {
    let [l0, l1, l2, l3] = (payload.len() as u32).to_le_bytes();
    let [c0, c1, c2, c3] = crc32(payload).to_le_bytes();
    [l0, l1, l2, l3, c0, c1, c2, c3]
}

/// The frame encoding of `payload` as a fresh buffer.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    [&header(payload)[..], payload].concat()
}

/// Write `payload` to `out` as one frame, header and payload in one
/// vectored write (more only if `out` takes part of it), and return the
/// frame's length, copying nothing itself.
pub fn write_frame(out: &mut impl Write, payload: &[u8]) -> std::io::Result<u64> {
    let header = header(payload);
    let mut parts = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match out.write_vectored(parts) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(FRAME_HEADER_BYTES + payload.len() as u64)
}

/// The payload of `frame`, which must be exactly one frame: its header's
/// length spans the rest and its CRC matches. `what` names the frame in
/// the error.
pub fn check_frame(frame: &[u8], what: impl Display) -> Result<&[u8], StoreError> {
    let mut fields = Fields::new(frame, &what);
    let (len, crc) = decode_header(fields.array()?);
    let payload = fields.bytes(len as usize)?;
    fields.end()?;
    match crc32(payload) == crc {
        true => Ok(payload),
        false => Err(fields.corrupt("frame CRC mismatch")),
    }
}

/// Read the `len`-byte frame at `offset` with one positioned read, check
/// it as [`check_frame`] does, and return its payload: the first `L`
/// bytes as a label, the rest drained to the front of the same buffer.
/// Bytes the file lacks are [`StoreError::Corrupt`], any other failed
/// read [`StoreError::Io`].
pub fn read_frame<const L: usize>(
    file: &File,
    offset: u64,
    len: u64,
    what: impl Display,
) -> Result<([u8; L], Vec<u8>), StoreError> {
    let mut frame = vec![0u8; len as usize];
    file.read_exact_at(&mut frame, offset)
        .map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => StoreError::Corrupt(format!(
                "{what}: frame at offset {offset} runs past the end of the file"
            )),
            _ => StoreError::Io(e),
        })?;
    let label = Fields::new(check_frame(&frame, &what)?, &what).array()?;
    frame.drain(..FRAME_HEADER_BYTES as usize + L);
    Ok((label, frame))
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

/// A frame header's `(payload length, CRC)`: [`header`] read back.
fn decode_header(header: [u8; 8]) -> (u32, u32) {
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

/// One [`Fields`] reader per integer width: the next little-endian `u8`,
/// `u16`, `u32` or `u64`.
macro_rules! read_int {
    ($($int:ident)*) => {$(
        #[doc = concat!("The next `", stringify!($int), "`.")]
        #[inline]
        pub fn $int(&mut self) -> Result<$int, StoreError> {
            self.array().map($int::from_le_bytes)
        }
    )*};
}

/// A little-endian reader over bytes read back from disk. A read the
/// bytes left cannot satisfy is [`StoreError::Corrupt`], its message
/// starting with the caller's `what`; nothing here panics or allocates.
pub struct Fields<'a, 'w> {
    rest: &'a [u8],
    what: &'w dyn Display,
}

impl<'a, 'w> Fields<'a, 'w> {
    /// Read `bytes`, naming them `what` in every error.
    #[inline]
    pub fn new(bytes: &'a [u8], what: &'w dyn Display) -> Fields<'a, 'w> {
        Fields { rest: bytes, what }
    }

    /// A [`StoreError::Corrupt`] naming the bytes read, for a bad value.
    pub fn corrupt(&self, msg: impl Display) -> StoreError {
        StoreError::Corrupt(format!("{}: {msg}", self.what))
    }

    fn truncated(&self, n: usize) -> StoreError {
        let left = self.rest.len();
        self.corrupt(format_args!("truncated: {n} bytes wanted, {left} left"))
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let (head, tail) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(n))?;
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let (head, tail) = self
            .rest
            .split_first_chunk()
            .ok_or_else(|| self.truncated(N))?;
        self.rest = tail;
        Ok(*head)
    }

    read_int!(u8 u16 u32 u64);

    /// The next `n` bytes, which must be UTF-8.
    #[inline]
    pub fn utf8(&mut self, n: usize) -> Result<&'a str, StoreError> {
        let bytes = self.bytes(n)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt(format_args!("{n} bytes not UTF-8")))
    }

    /// A `u32` count of items of at least `item_bytes` each, refused
    /// (`name` says what it counts) if the bytes left cannot hold them.
    pub fn count(&mut self, item_bytes: usize, name: &str) -> Result<usize, StoreError> {
        let (n, left) = (self.u32()? as usize, self.rest.len());
        match n <= left / item_bytes.max(1) {
            true => Ok(n),
            false => Err(self.corrupt(format_args!("{name} {n} exceeds the {left} bytes left"))),
        }
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The end of the fields: a byte left over is corrupt.
    #[inline]
    pub fn end(&self) -> Result<(), StoreError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(self.corrupt(format_args!("{n} trailing bytes"))),
        }
    }
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
            file.write_all(&encode_frame(payload)).unwrap();
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
        whole.extend(encode_frame(b"first-record"));
        whole.extend(encode_frame(b"second-record"));
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
        whole.extend(encode_frame(b"aaaa"));
        whole.extend(encode_frame(b"bbbb"));
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
            file.write_all(&encode_frame(payload)).unwrap();
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
        file.write_all(&encode_frame(b"keep")).unwrap();
        let keep_len = file.metadata().unwrap().len();
        file.write_all(&[0xFF; 5]).unwrap(); // torn garbage
        let (scan, _) = scan_all(&file);
        assert!(scan.torn);
        truncate_to(&mut file, scan.valid_len).unwrap();
        assert_eq!(file.metadata().unwrap().len(), keep_len);
        // A fresh append after repair scans clean.
        file.write_all(&encode_frame(b"new")).unwrap();
        let (scan, payloads) = scan_all(&file);
        assert!(!scan.torn);
        assert_eq!(payloads.len(), 2);
    }

    /// `n` bytes of a fixed pattern, so a misplaced byte shows.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + i / 251) as u8).collect()
    }

    fn is_corrupt<T>(result: Result<T, StoreError>) -> bool {
        matches!(result, Err(StoreError::Corrupt(_)))
    }

    /// A frame written through the writer — into a buffer and into a
    /// file — is `encode_frame`'s, and reads back identically through the
    /// check, the positioned read (whole and with a label split off) and
    /// the scan.
    #[test]
    fn writer_check_positioned_read_and_scan_agree() {
        let dir = TestDir::new("record-one-codec");
        let path = dir.path().join("f.log");
        for n in [0, 1, 7, 8, 4096, 200 * 1024] {
            let payload = pattern(n);
            let mut buf = Vec::new();
            let len = write_frame(&mut buf, &payload).unwrap();
            assert_eq!(buf, encode_frame(&payload), "{n}");
            assert_eq!(len, buf.len() as u64, "{n}");
            assert_eq!(check_frame(&buf, "frame").unwrap(), payload, "{n}");

            let mut file = open_rw(&path);
            file.set_len(0).unwrap();
            file.write_all(b"pad").unwrap();
            assert_eq!(write_frame(&mut file, &payload).unwrap(), len, "{n}");
            assert_eq!(std::fs::read(&path).unwrap()[3..], buf, "{n}");
            let ([], read) = read_frame(&file, 3, len, "frame").unwrap();
            assert_eq!(read, payload, "{n}");
            if let Some(head) = payload.first_chunk::<7>() {
                let (label, rest) = read_frame::<7>(&file, 3, len, "frame").unwrap();
                assert_eq!((&label, &rest[..]), (head, &payload[7..]), "{n}");
            }

            std::fs::write(&path, &buf).unwrap();
            let (scan, payloads) = scan_all(&open_rw(&path));
            assert!(!scan.torn, "{n}");
            assert_eq!(payloads, [payload], "{n}");
        }
    }

    /// Every truncation and every single-bit flip of one frame is
    /// `Corrupt` from the check and from the positioned read, and a
    /// label longer than the payload is too.
    #[test]
    fn every_cut_and_flip_of_a_frame_is_corrupt() {
        let dir = TestDir::new("record-cut-flip");
        let path = dir.path().join("f.log");
        let frame = encode_frame(&pattern(37));
        let len = frame.len() as u64;
        let read = |bytes: &[u8], len: u64| {
            std::fs::write(&path, bytes).unwrap();
            read_frame::<0>(&open_rw(&path), 0, len, "frame")
        };
        for cut in 0..frame.len() {
            let short = &frame[..cut];
            assert!(is_corrupt(check_frame(short, "frame")), "cut at {cut}");
            assert!(is_corrupt(read(short, len)), "file cut at {cut}");
            assert!(is_corrupt(read(&frame, cut as u64)), "read cut at {cut}");
        }
        for bit in 0..frame.len() * 8 {
            let mut bytes = frame.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(is_corrupt(check_frame(&bytes, "frame")), "flip {bit}");
            assert!(is_corrupt(read(&bytes, len)), "read flip {bit}");
        }
        std::fs::write(&path, encode_frame(b"abc")).unwrap();
        assert!(is_corrupt(read_frame::<4>(&open_rw(&path), 0, 11, "frame")));
    }

    /// Bytes the file does not have are lost data, not an I/O failure.
    #[test]
    fn a_read_past_the_end_is_corrupt() {
        let dir = TestDir::new("record-past-end");
        let path = dir.path().join("f.log");
        std::fs::write(&path, encode_frame(b"payload")).unwrap();
        let file = open_rw(&path);
        let err = read_frame::<0>(&file, 10, 15, "block 4").unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.starts_with("block 4:")),
            "{err:?}"
        );
        assert!(is_corrupt(read_frame::<0>(&file, 1 << 40, 8, "far")));
    }

    /// Each field read on a slice too short for it is `Corrupt`, and its
    /// message names the caller's context; the bytes it had stay unread.
    #[test]
    fn a_short_field_is_corrupt_and_named() {
        let what = format!("sstable {}", 9);
        let named = |result: Result<(), StoreError>, field: &str| match result {
            Err(StoreError::Corrupt(m)) => assert!(m.starts_with("sstable 9: "), "{field}: {m}"),
            other => panic!("{field}: {other:?}"),
        };
        let bytes = [1u8, 2, 3, 4, 5, 6, 7];
        let short = |n: usize| Fields::new(&bytes[..n], &what);
        named(short(0).u8().map(drop), "u8");
        named(short(1).u16().map(drop), "u16");
        named(short(3).u32().map(drop), "u32");
        named(short(7).u64().map(drop), "u64");
        named(short(2).array::<3>().map(drop), "array");
        named(short(4).bytes(5).map(drop), "bytes");
        named(short(4).utf8(5).map(drop), "utf8");
        named(short(3).count(1, "entries").map(drop), "count");
        named(short(1).end(), "end");
        named(
            Fields::new(&[0xff, 0xfe], &what).utf8(2).map(drop),
            "not UTF-8",
        );

        let mut fields = Fields::new(&bytes, &what);
        assert_eq!(fields.u8().unwrap(), 1);
        assert!(fields.u64().is_err());
        assert_eq!(fields.u16().unwrap(), u16::from_le_bytes([2, 3]));
        assert_eq!(fields.bytes(4).unwrap(), [4, 5, 6, 7]);
        assert!(fields.is_empty());
        fields.end().unwrap();
    }

    /// A count the bytes behind it cannot hold is refused before any
    /// caller could size an allocation from it; one they can is returned.
    #[test]
    fn a_count_the_bytes_cannot_hold_is_corrupt() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        for item_bytes in [0, 1, 16] {
            let err = Fields::new(&bytes, &"index").count(item_bytes, "entry count");
            assert!(
                matches!(&err, Err(StoreError::Corrupt(m)) if m.contains("entry count")),
                "{err:?}"
            );
        }
        bytes[..4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(Fields::new(&bytes, &"index").count(8, "n").unwrap(), 2);
        assert!(Fields::new(&bytes, &"index").count(9, "n").is_err());
    }
}
