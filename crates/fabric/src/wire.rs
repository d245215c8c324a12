//! Deterministic binary codec.
//!
//! Everything that is hashed or signed (transactions, block headers,
//! read/write sets) must serialize identically on every peer, so the
//! substrate uses this hand-written length-prefixed codec instead of a
//! general serialization framework whose output could drift between
//! versions.
//!
//! The rules, decided here once: integers are fixed-width big-endian;
//! byte strings and UTF-8 strings carry a `u32` length prefix; fixed-size
//! arrays carry none; and a list is a `u32` count followed by its items,
//! written by [`Writer::list`] and read by [`Reader::list`].

use crate::error::FabricError;

/// Append-only encoder producing canonical bytes.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A new empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Finish and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a `u32` (big-endian).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a `u64` (big-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(u32::try_from(v.len()).expect("payload < 4 GiB"));
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Append a fixed-size array without a length prefix.
    pub fn array<const N: usize>(&mut self, v: &[u8; N]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a list: its `u32` count, then each item through `item`.
    pub fn list<I>(&mut self, items: I, mut item: impl FnMut(&mut Writer, I::Item)) -> &mut Self
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.u32(items.len() as u32);
        for x in items {
            item(self, x);
        }
        self
    }

    /// Append a length-prefixed nested encoding produced by `f`, without
    /// materialising it in a temporary buffer: the length slot is reserved,
    /// `f` writes in place, and the prefix is patched afterwards. The bytes
    /// are identical to `self.bytes(&{ nested writer }.into_bytes())`.
    pub fn nested(&mut self, f: impl FnOnce(&mut Writer)) -> &mut Self {
        let slot = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        f(self);
        let len = u32::try_from(self.buf.len() - slot - 4).expect("payload < 4 GiB");
        self.buf[slot..slot + 4].copy_from_slice(&len.to_be_bytes());
        self
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential decoder over canonical bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FabricError> {
        if self.remaining() < n {
            return Err(end_of_input());
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, FabricError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FabricError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FabricError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, FabricError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, FabricError> {
        String::from_utf8(self.bytes()?).map_err(|_| FabricError::Malformed("invalid UTF-8".into()))
    }

    /// Read a fixed-size array (no length prefix).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], FabricError> {
        let (head, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or_else(end_of_input)?;
        self.pos += N;
        Ok(*head)
    }

    /// Read a list written by [`Writer::list`]: its `u32` count, then
    /// each item through `item`.
    ///
    /// Every item must take at least one byte, so no honest count exceeds
    /// the bytes left to read. The count is untrusted, so those bytes,
    /// never the count alone, bound the preallocation, and a lying count
    /// fails at the end of the input.
    pub fn list<T, E: From<FabricError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Read a value written by [`Writer::nested`]: its `u32` length, then
    /// `decode` over exactly that many bytes, borrowed in place rather
    /// than copied out. Bytes `decode` leaves unread are an error.
    pub fn nested<T, E: From<FabricError>>(
        &mut self,
        decode: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let len = self.u32()? as usize;
        let mut inner = Reader::new(self.take(len)?);
        let value = decode(&mut inner)?;
        inner.finish()?;
        Ok(value)
    }

    /// Whether all input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Error unless all input was consumed (reject trailing garbage).
    pub fn finish(&self) -> Result<(), FabricError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(FabricError::Malformed("trailing bytes".into()))
        }
    }
}

fn end_of_input() -> FabricError {
    FabricError::Malformed("unexpected end of input".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.u8(7)
            .u32(0xdead_beef)
            .u64(42)
            .bytes(b"hello")
            .string("wörld")
            .array(&[1u8, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.string().unwrap(), "wörld");
        assert_eq!(r.array::<3>().unwrap(), [1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_rejected() {
        let mut w = Writer::new();
        w.bytes(b"hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        w.u8(1).u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
        r.u8().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.string().is_err());
    }

    #[test]
    fn length_prefix_lies_rejected() {
        // A length prefix longer than the remaining input.
        let mut w = Writer::new();
        w.u32(1_000_000);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn empty_collections() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.bytes(b"").string("");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.bytes().unwrap(), Vec::<u8>::new());
        assert_eq!(r.string().unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn list_round_trips() {
        let items = vec!["a".to_string(), String::new(), "ccc".into()];
        let mut w = Writer::new();
        w.list(&items, |w, s| {
            w.string(s);
        })
        .list(Vec::<u64>::new(), |w, v| {
            w.u64(v);
        });
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..4], &3u32.to_be_bytes());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.list(Reader::string).unwrap(), items);
        assert_eq!(r.list(Reader::u64).unwrap(), Vec::<u64>::new());
        r.finish().unwrap();
    }

    #[test]
    fn nested_reads_exactly_its_segment() {
        let mut w = Writer::new();
        w.nested(|w| {
            w.u8(1).u8(2);
        })
        .u8(9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.nested(|r| Ok::<_, FabricError>((r.u8()?, r.u8()?)))
                .unwrap(),
            (1, 2)
        );
        assert_eq!(r.u8().unwrap(), 9);
        r.finish().unwrap();
        // A decoder that leaves a byte of its segment unread fails, and so
        // does a segment longer than the input.
        assert!(Reader::new(&bytes).nested(Reader::u8).is_err());
        assert!(Reader::new(&bytes[..5]).nested(Reader::u8).is_err());
    }

    #[test]
    fn lying_list_count_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX).array(&[0u8; 16]);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).list(Reader::bytes).is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let encode = || {
            let mut w = Writer::new();
            w.string("key").bytes(b"value").u64(9);
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
    }
}
