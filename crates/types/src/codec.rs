//! A small hand-rolled binary codec.
//!
//! Every protocol object implements [`Encode`]/[`Decode`]. The encoding is
//! deterministic (little-endian integers, `u32` length prefixes), so it
//! serves three purposes at once: hashing input for content digests, the
//! durable format of the WAL and checkpoints, and the ground truth for the
//! simulator's byte-accounting (`encoded_len`). No message is encoded
//! between nodes: the simulator passes typed values.

use std::fmt;

/// Error returned when decoding malformed input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A tag or discriminant byte had no defined meaning.
    InvalidTag(u8),
    /// A length prefix exceeded the sanity limit.
    LengthOverflow(u64),
    /// Trailing bytes remained after a top-level decode.
    TrailingBytes(usize),
    /// Fields decoded individually but violate a cross-field invariant
    /// (e.g. a payload whose length contradicts the declared batch shape).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            DecodeError::LengthOverflow(l) => write!(f, "length prefix {l} too large"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maximum accepted collection length; guards against hostile prefixes.
const MAX_LEN: u64 = 64 * 1024 * 1024;

/// Output buffer for encoding.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Input cursor for decoding.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length prefix, rejecting absurd values.
    pub fn get_len(&mut self) -> Result<usize, DecodeError> {
        let l = self.get_u32()? as u64;
        if l > MAX_LEN {
            return Err(DecodeError::LengthOverflow(l));
        }
        Ok(l as usize)
    }
}

/// Types that can serialize themselves to the workspace wire format.
pub trait Encode {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Exact encoded length in bytes. The default implementation encodes and
    /// measures; hot types override with an O(1) computation.
    fn encoded_len(&self) -> usize {
        self.to_bytes().len()
    }
}

/// Types that can deserialize themselves from the workspace wire format.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes a full buffer, requiring all bytes to be consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(DecodeError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

// --- primitive impls -------------------------------------------------------

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.get_u8()
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
    fn encoded_len(&self) -> usize {
        2
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.get_u16()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.get_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.get_u64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.get_len()?;
        // An element takes at least one byte, so a prefix beyond what is
        // left is about to fail: it must not size the reservation.
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl<T: Encode> Encode for Box<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        T::decode(r).map(Box::new)
    }
}

// --- crypto type impls -----------------------------------------------------

impl Encode for clanbft_crypto::Digest {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for clanbft_crypto::Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(clanbft_crypto::Digest(
            r.take(32)?.try_into().expect("32 bytes"),
        ))
    }
}

impl Encode for clanbft_crypto::Signature {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.0);
    }
    fn encoded_len(&self) -> usize {
        64
    }
}

impl Decode for clanbft_crypto::Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(clanbft_crypto::Signature(
            r.take(64)?.try_into().expect("64 bytes"),
        ))
    }
}

// --- identifier impls ------------------------------------------------------

impl Encode for crate::ids::PartyId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for crate::ids::PartyId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::ids::PartyId(r.get_u32()?))
    }
}

impl Encode for crate::ids::Round {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for crate::ids::Round {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::ids::Round(r.get_u64()?))
    }
}

impl Encode for crate::ids::ClanId {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.0);
    }
    fn encoded_len(&self) -> usize {
        2
    }
}

impl Decode for crate::ids::ClanId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::ids::ClanId(r.get_u16()?))
    }
}

impl Encode for crate::time::Micros {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for crate::time::Micros {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::time::Micros(r.get_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_crypto::Digest;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len mismatch");
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xbeefu16);
        roundtrip(0xdeadbeefu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(42u64));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![Some(1u8), None, Some(3)]);
    }

    #[test]
    fn digest_roundtrip() {
        roundtrip(Digest::of(b"hello"));
    }

    #[test]
    fn truncated_input_fails() {
        let bytes = 0xdeadbeefu32.to_bytes();
        assert_eq!(
            u32::from_bytes(&bytes[..3]),
            Err(DecodeError::UnexpectedEnd)
        );
    }

    #[test]
    fn trailing_bytes_fail() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert_eq!(u32::from_bytes(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn bad_bool_tag_fails() {
        assert_eq!(bool::from_bytes(&[2]), Err(DecodeError::InvalidTag(2)));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let err = Vec::<u8>::from_bytes(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, DecodeError::LengthOverflow(_)));
    }
}
