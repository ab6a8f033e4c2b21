//! Little-endian wire primitives for the run cache's binary entries.
//!
//! A frame is a magic + codec-version header, a body of fixed-width
//! words and length-prefixed sequences, and a trailing [`checksum`] of
//! everything before it. [`Writer`] builds one, [`Reader`] walks one.
//! The reader treats its input as hostile: a length is accepted only if
//! that many elements still fit in the bytes that remain, so no decode
//! can allocate more than the frame it was handed.

use std::fmt;

/// First four bytes of every frame.
const MAGIC: [u8; 4] = *b"PSCR";
/// Codec version, the four bytes after [`MAGIC`]. Bump on any change to
/// the field order or to an existing tag's number.
const VERSION: u32 = 1;
const CHECKSUM_BYTES: usize = 8;

/// Why a frame did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Magic or codec version mismatch (including any non-frame file).
    BadHeader,
    /// The trailing checksum does not match the bytes before it.
    BadChecksum,
    /// The body ended inside a field.
    Truncated,
    /// A sequence length exceeds what the remaining bytes can hold, or
    /// a word does not fit `usize`.
    BadLength,
    /// An enum tag byte outside its table (or a non-canonical padding
    /// word); the payload names the table.
    BadTag(&'static str),
    /// A string is not UTF-8.
    BadUtf8,
    /// Bytes remain after the last field.
    TrailingBytes,
    /// The frame is whole but not the result it was read as: its
    /// structure differs from what the reader already knows of it. The
    /// payload names the first part that differs.
    Foreign(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "undecodable run entry: {self:?}")
    }
}

impl std::error::Error for WireError {}

/// 64-bit multiply-xor checksum, one little-endian word per step (a
/// short tail is zero-padded; the length is folded in last). Each step
/// is a bijection of the state for a fixed word and of the word for a
/// fixed state, so any change confined to one word changes the sum.
pub fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME).rotate_left(29);
    let mut words = bytes.chunks_exact(8);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    step(step(h, u64::from_le_bytes(tail)), bytes.len() as u64)
}

/// Builds one frame.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A frame holding only its header.
    #[allow(clippy::new_without_default)] // a frame is never "default": it starts with its header
    pub fn new() -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        Writer { buf }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append one word.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as one word (also the sequence-length prefix).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a float by its bits: NaN payloads, `-0.0` and subnormals
    /// survive.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed sequence, one `encode` call per item.
    pub fn seq<T>(&mut self, items: &[T], mut encode: impl FnMut(&mut Writer, &T)) {
        self.usize(items.len());
        for item in items {
            encode(self, item);
        }
    }

    /// Seal the frame: append the checksum of everything written.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.u64(sum);
        self.buf
    }
}

/// Walks the body of one frame.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Check `frame`'s header and checksum and position at its body.
    pub fn open(frame: &'a [u8]) -> Result<Self, WireError> {
        let Some(body_end) = frame.len().checked_sub(CHECKSUM_BYTES) else {
            return Err(WireError::BadHeader);
        };
        let (sealed, sum) = frame.split_at(body_end);
        let Some(body) =
            sealed.strip_prefix(&MAGIC).and_then(|b| b.strip_prefix(&VERSION.to_le_bytes()))
        else {
            return Err(WireError::BadHeader);
        };
        if sum != checksum(sealed).to_le_bytes() {
            return Err(WireError::BadChecksum);
        }
        Ok(Reader { rest: body })
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.rest.len() {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// The next word.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    /// The next word, as a `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::BadLength)
    }

    /// The next word, as a float's bits.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A sequence length: the next word, accepted only if that many
    /// elements of at least `min_elem_bytes` each fit in the rest of the
    /// frame — checked before anything is allocated for the sequence.
    /// For decoders that split one sequence into several buffers; see
    /// [`Reader::seq`] for the one-buffer case.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        match n.checked_mul(min_elem_bytes) {
            Some(bytes) if bytes <= self.rest.len() => Ok(n),
            _ => Err(WireError::BadLength),
        }
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.seq_len(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::BadUtf8)
    }

    /// A length-prefixed sequence of elements at least `min_elem_bytes`
    /// wide, one `decode` call per element, into a vector of exactly
    /// that capacity.
    pub fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut decode: impl FnMut(&mut Reader<'a>) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.seq_len(min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(decode(self)?);
        }
        Ok(out)
    }

    /// End of frame: any byte left over is an error.
    pub fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_floats_and_strings_round_trip_by_bits() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut w = Writer::new();
        w.u8(7);
        w.u64(u64::MAX);
        w.f64(nan);
        w.f64(-0.0);
        w.f64(f64::MIN_POSITIVE / 4.0);
        w.str("héllo ✓");
        w.str("");
        let frame = w.finish();

        let mut r = Reader::open(&frame).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), nan.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE / 4.0);
        assert_eq!(r.str().unwrap(), "héllo ✓");
        assert_eq!(r.str().unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn open_rejects_foreign_short_and_damaged_frames() {
        let mut w = Writer::new();
        w.u64(1);
        w.str("abc"); // leaves a 3-byte checksum tail
        let frame = w.finish();
        assert!(Reader::open(&frame).is_ok());

        for n in 0..frame.len() {
            assert!(Reader::open(&frame[..n]).is_err(), "truncated to {n}");
        }
        assert_eq!(Reader::open(b"{\"time_s\":1.0}").unwrap_err(), WireError::BadHeader);
        for bit in 0..frame.len() * 8 {
            let mut damaged = frame.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            let err = Reader::open(&damaged).unwrap_err();
            let expected = if bit < 64 { WireError::BadHeader } else { WireError::BadChecksum };
            assert_eq!(err, expected, "bit {bit}");
        }
        let mut longer = frame.clone();
        longer.push(0);
        assert_eq!(Reader::open(&longer).unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn lengths_are_bounded_by_the_bytes_that_remain() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // a length no frame can hold
        w.u64(3); // three 8-byte elements, but only 16 bytes follow
        w.u64(0);
        w.u64(0);
        let frame = w.finish();
        let mut r = Reader::open(&frame).unwrap();
        assert_eq!(r.seq(1, |r| r.u8()).unwrap_err(), WireError::BadLength);
        assert_eq!(r.seq(8, |r| r.u64()).unwrap_err(), WireError::BadLength);
        assert_eq!(r.u64().unwrap(), 0);
        assert_eq!(r.finish().unwrap_err(), WireError::TrailingBytes);
    }

    #[test]
    fn sequences_decode_into_exact_capacity_vectors() {
        let mut w = Writer::new();
        w.seq(&[3u64, 1, 4, 1, 5], |w, v| w.u64(*v));
        w.seq(&[] as &[u64], |w, v| w.u64(*v));
        let frame = w.finish();
        let mut r = Reader::open(&frame).unwrap();
        let five = r.seq(8, |r| r.u64()).unwrap();
        let none = r.seq(8, |r| r.u64()).unwrap();
        r.finish().unwrap();
        assert_eq!(five, [3, 1, 4, 1, 5]);
        assert_eq!((five.capacity(), none.capacity()), (5, 0));
    }

    #[test]
    fn reads_past_the_end_and_bad_utf8_are_errors() {
        let mut w = Writer::new();
        w.u64(2);
        w.u8(0xff);
        w.u8(0xfe);
        let frame = w.finish();
        let mut r = Reader::open(&frame).unwrap();
        assert_eq!(r.str().unwrap_err(), WireError::BadUtf8);
        assert_eq!(r.u8().unwrap_err(), WireError::Truncated);
        assert_eq!(r.u64().unwrap_err(), WireError::Truncated);
    }
}
