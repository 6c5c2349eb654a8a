//! The Quantum Waltz wire format: a self-contained versioned binary codec.
//!
//! The sanctioned dependency set contains no serialization crates, so this
//! crate hand-rolls the persistence substrate the rest of the workspace
//! builds on:
//!
//! * [`Encode`] / [`Decode`] — the codec traits every persistent artifact
//!   type implements (`waltz_math::Matrix` up through
//!   `waltz_core::CompileArtifact`).
//! * [`ByteWriter`] / [`ByteReader`] — a little-endian byte stream with
//!   length-prefixed collections and strings; floats travel as IEEE-754
//!   bit patterns ([`f64::to_bits`]) so round trips are bit-exact, NaN
//!   payloads included.
//! * [`encode_versioned`] / [`decode_versioned`] — the on-disk envelope:
//!   magic + [`CODEC_VERSION`] + payload. Readers reject foreign magic and
//!   mismatched versions instead of misinterpreting bytes.
//! * [`fnv1a64`] / [`content_hash`] — the stable 64-bit content hash
//!   (FNV-1a over the canonical encoding) that content-addressed caches
//!   key on.
//!
//! # Determinism contract
//!
//! The canonical encoding of a value is a pure function of its contents:
//! no timestamps, no pointers, no platform-dependent layout. Every
//! implementation must satisfy `encode(decode(encode(x))) == encode(x)`
//! byte-for-byte — the workspace pins this with proptest round-trip suites
//! and a golden-bytes fixture keyed to [`CODEC_VERSION`].
//!
//! # Versioning policy
//!
//! [`CODEC_VERSION`] names the format of *every* type at once: any change
//! to any canonical encoding (field added, reordered, widened) must bump
//! it and regenerate the golden fixture. There is no in-band migration —
//! a cache entry written by another version is simply a miss.
//!
//! # Example
//!
//! ```
//! use waltz_codec::{decode_versioned, encode_versioned, content_hash};
//!
//! let v: Vec<u64> = vec![3, 1, 4, 1, 5];
//! let bytes = encode_versioned(&v);
//! let back: Vec<u64> = decode_versioned(&bytes).unwrap();
//! assert_eq!(back, v);
//! assert_eq!(content_hash(&back), content_hash(&v));
//! ```

#![warn(missing_docs)]

use std::fmt;

/// Version of the wire format. Bump on **any** change to **any** canonical
/// encoding, and regenerate the golden fixture (`tests/golden/`) in the
/// same change — CI gates on the pair moving together.
pub const CODEC_VERSION: u32 = 2;

/// Four magic bytes opening every versioned envelope.
pub const MAGIC: [u8; 4] = *b"WLTZ";

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before the value was complete.
    Eof,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type whose tag was unrecognized.
        ty: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A decoded value violated a structural invariant of its type.
    Invalid(&'static str),
    /// The envelope did not start with [`MAGIC`].
    BadMagic,
    /// The envelope was written by a different [`CODEC_VERSION`].
    VersionMismatch {
        /// Version found in the envelope.
        found: u32,
    },
    /// Bytes remained after the value was fully decoded.
    TrailingBytes(usize),
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Eof => write!(f, "unexpected end of input"),
            DecodeError::BadTag { ty, tag } => write!(f, "unknown tag {tag} for {ty}"),
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
            DecodeError::BadMagic => write!(f, "missing WLTZ magic"),
            DecodeError::VersionMismatch { found } => {
                write!(f, "codec version {found} != supported {CODEC_VERSION}")
            }
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Growable little-endian byte sink the canonical encoding is written to.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the format is width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_raw(s.as_bytes());
    }
}

/// Cursor over a byte slice, mirroring [`ByteWriter`]'s primitives.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors with [`DecodeError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Eof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to the platform `usize`.
    pub fn get_usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.get_u64()?).map_err(|_| DecodeError::Invalid("usize overflow"))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than 0 and 1.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { ty: "bool", tag }),
        }
    }

    /// Reads a length-prefixed string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

/// A value with a canonical binary encoding.
///
/// The encoding must be a pure function of the value's contents and must
/// re-encode byte-identically after a decode.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut ByteWriter);
}

/// A value reconstructible from its canonical encoding.
pub trait Decode: Sized {
    /// Reads one value from `r`, validating structural invariants.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError>;
}

impl Encode for u8 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.get_u8()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.get_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.get_u64()
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(*self);
    }
}

impl Decode for usize {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.get_usize()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
}

impl Decode for f64 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.get_f64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bool(*self);
    }
}

impl Decode for bool {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.get_bool()
    }
}

impl Encode for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        r.get_str()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let len = r.get_usize()?;
        // Guard the pre-allocation against corrupt length prefixes: never
        // reserve more entries than bytes remaining (every entry consumes
        // at least one byte).
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::BadTag { ty: "Option", tag }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Encodes a value to its bare canonical bytes (no envelope).
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from bare canonical bytes, requiring full consumption.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Encodes a value inside the versioned envelope
/// (`MAGIC || CODEC_VERSION || payload`) — the format cache files and any
/// cross-process artifact exchange use.
pub fn encode_versioned<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(&MAGIC);
    w.put_u32(CODEC_VERSION);
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from the versioned envelope, rejecting foreign magic,
/// other versions and trailing bytes.
pub fn decode_versioned<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let found = r.get_u32()?;
    if found != CODEC_VERSION {
        return Err(DecodeError::VersionMismatch { found });
    }
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// FNV-1a 64-bit hash — stable across platforms and releases, the basis
/// of every content address in the workspace.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The stable 64-bit content hash of a value: FNV-1a over its canonical
/// encoding. Equal values hash equal on every platform; the hash is part
/// of the format contract and changes only with [`CODEC_VERSION`].
pub fn content_hash<T: Encode>(value: &T) -> u64 {
    fnv1a64(&encode_to_vec(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_usize(42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("waltz");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "waltz");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_is_eof_not_panic() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let err = decode_from_slice::<Vec<u64>>(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, DecodeError::Eof), "cut={cut}: {err:?}");
        }
    }

    #[test]
    fn corrupt_length_prefix_does_not_overallocate() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let err = decode_from_slice::<Vec<u64>>(w.as_bytes()).unwrap_err();
        assert!(matches!(err, DecodeError::Eof | DecodeError::Invalid(_)));
    }

    #[test]
    fn versioned_envelope_gates_magic_and_version() {
        let bytes = encode_versioned(&3u64);
        assert_eq!(decode_versioned::<u64>(&bytes).unwrap(), 3);

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            decode_versioned::<u64>(&wrong_magic).unwrap_err(),
            DecodeError::BadMagic
        );

        let mut wrong_version = bytes.clone();
        wrong_version[4] = wrong_version[4].wrapping_add(1);
        assert!(matches!(
            decode_versioned::<u64>(&wrong_version).unwrap_err(),
            DecodeError::VersionMismatch { .. }
        ));

        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            decode_versioned::<u64>(&trailing).unwrap_err(),
            DecodeError::TrailingBytes(1)
        );
    }

    #[test]
    fn fnv1a64_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn content_hash_is_injective_on_distinct_options() {
        assert_ne!(
            content_hash(&Some(0u64)),
            content_hash(&Option::<u64>::None)
        );
    }
}
