//! # glsc-wire — binary state serialization for durable snapshots
//!
//! A tiny, dependency-free binary codec used to write [`Machine`]
//! snapshots, run reports, the service journal and protocol messages.
//! The workspace takes no serialization dependency (the build
//! environment is offline), so this crate plays the role serde+bincode
//! would: a [`Wire`] trait with hand-rolled little-endian encoding, a
//! bounds-checked [`Reader`], and a [`wire_struct!`] macro that derives
//! field-by-field impls with an exhaustive-destructuring guard — adding
//! a field to a serialized struct without updating its wire impl is a
//! compile error, not a silently-truncated snapshot.
//!
//! Design rules, chosen for the snapshot use case:
//!
//! * **Deterministic**: a value encodes to exactly one byte string.
//!   Containers are length-prefixed; map-like callers must sort their
//!   keys before encoding (see `glsc-mem`'s backing-store impl).
//! * **Strict**: decoding validates lengths, enum tags and invariants
//!   and fails with a typed [`WireError`] — never panics, never guesses.
//! * **Versioned at the envelope, not per field**: the snapshot codec in
//!   `glsc-sim` frames the payload with a magic string, format version
//!   and whole-payload checksum ([`fnv64`]). Everything else that goes
//!   to disk or a socket — job-store entries, journal records, protocol
//!   messages — travels in one checksummed [`frame`], split back off a
//!   byte slice by [`split_frame`]:
//!
//!   ```text
//!   +--------------+------------------+---------------------------+
//!   | len (u32 LE) | payload (len)    | fnv64(payload) (u64 LE)   |
//!   +--------------+------------------+---------------------------+
//!   ```
//!
//! Floating-point fields travel as IEEE-754 bit patterns (`to_bits`),
//! so round-trips are bit-exact even for NaNs.
//!
//! [`Machine`]: ../glsc_sim/struct.Machine.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Why a byte string failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Eof {
        /// Byte offset at which more input was needed.
        at: usize,
    },
    /// A value decoded to something the target type cannot represent
    /// (bad enum tag, out-of-range length, non-boolean byte...).
    Invalid {
        /// Byte offset of the offending value.
        at: usize,
        /// What was being decoded.
        what: &'static str,
    },
    /// Decoding finished but input bytes remain.
    TrailingBytes {
        /// Number of undecoded bytes left over.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof { at } => write!(f, "unexpected end of input at byte {at}"),
            WireError::Invalid { at, what } => write!(f, "invalid {what} at byte {at}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the value")
            }
        }
    }
}

impl Error for WireError {}

/// Growable little-endian byte sink.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix (caller frames them).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked little-endian byte source.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset (for error reporting).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`WireError::TrailingBytes`] unless all input was
    /// consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }

    /// An [`WireError::Invalid`] at the current offset.
    pub fn invalid(&self, what: &'static str) -> WireError {
        WireError::Invalid { at: self.pos, what }
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Eof { at: self.buf.len() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(
            b.try_into().expect("take(4) returned 4 bytes"),
        ))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(
            b.try_into().expect("take(8) returned 8 bytes"),
        ))
    }

    /// Reads a length prefix, rejecting values that could not possibly
    /// fit in the remaining input (each element takes at least one
    /// byte), so a corrupt length fails fast instead of attempting a
    /// multi-gigabyte allocation.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let at = self.pos;
        let v = self.get_u64()?;
        if v > self.remaining() as u64 {
            return Err(WireError::Invalid {
                at,
                what: "length prefix",
            });
        }
        Ok(v as usize)
    }
}

/// A type with a canonical binary encoding.
///
/// `decode(encode(x)) == x` must hold bit-exactly, and `encode` must be
/// a pure function of the value (no iteration-order or address
/// dependence).
pub trait Wire: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decodes one value, advancing `r` past it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value to a fresh byte vector.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value that must span the entire input.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

macro_rules! impl_wire_int {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_bytes(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let b = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(b.try_into().expect("take returned the requested size")))
            }
        }
    )+};
}

impl_wire_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Wire for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        let v = r.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid { at, what: "usize" })
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid { at, what: "bool" }),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.to_bits());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl Wire for f32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.to_bits());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f32::from_bits(r.get_u32()?))
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.get_len()?;
        let at = r.pos();
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid { at, what: "utf-8" })
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Invalid {
                at,
                what: "option tag",
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.get_len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, w: &mut Writer) {
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Collect through a Vec to avoid requiring T: Default/Copy.
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(r)?);
        }
        Ok(out
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly N elements were decoded")))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// Derives a [`Wire`] impl for a struct by encoding the listed fields in
/// order. The expansion destructures `Self` exhaustively, so the impl
/// fails to compile if the struct gains, loses or renames a field — the
/// guard that keeps snapshots honest as state structs evolve.
///
/// ```
/// struct Point { x: u64, y: u64 }
/// glsc_wire::wire_struct!(Point { x, y });
///
/// let p = Point { x: 3, y: 9 };
/// let bytes = glsc_wire::to_bytes(&p);
/// let q: Point = glsc_wire::from_bytes(&bytes).unwrap();
/// assert_eq!((q.x, q.y), (3, 9));
/// ```
///
/// Fields listed after `derived` are caches of the encoded ones: they are
/// not encoded, and decoding starts them at `Default::default()` and then
/// calls the given `fn(&mut Self)` to rebuild them.
///
/// ```
/// #[derive(Default)]
/// struct Bag { items: Vec<u64>, total: u64 }
/// glsc_wire::wire_struct!(Bag { items } derived { total } => |b: &mut Bag| {
///     b.total = b.items.iter().sum()
/// });
///
/// let bytes = glsc_wire::to_bytes(&Bag { items: vec![2, 5], total: 7 });
/// assert_eq!(glsc_wire::from_bytes::<Bag>(&bytes).unwrap().total, 7);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            fn encode(&self, w: &mut $crate::Writer) {
                let Self { $($field),+ } = self;
                $( $crate::Wire::encode($field, w); )+
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok(Self { $( $field: $crate::Wire::decode(r)? ),+ })
            }
        }
    };
    ($ty:ty { $($field:ident),+ $(,)? } derived { $($derived:ident),+ $(,)? } => $rebuild:expr) => {
        impl $crate::Wire for $ty {
            fn encode(&self, w: &mut $crate::Writer) {
                let Self { $($field,)+ $($derived: _),+ } = self;
                $( $crate::Wire::encode($field, w); )+
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                let mut v = Self {
                    $( $field: $crate::Wire::decode(r)?, )+
                    $( $derived: Default::default(), )+
                };
                let rebuild: fn(&mut Self) = $rebuild;
                rebuild(&mut v);
                Ok(v)
            }
        }
    };
}

/// FNV-1a 64-bit digest — the whole-payload checksum of the snapshot
/// envelope and the trailer of every [`frame`]. Not
/// cryptographic; it detects torn writes and bit rot, which is all a
/// local cache needs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bytes a [`frame`] adds around its payload: the u32 length prefix and
/// the u64 checksum trailer.
const FRAME_OVERHEAD: usize = 12;

/// Wraps `payload` in one frame: `len (u32 LE) | payload |
/// fnv64(payload) (u64 LE)`. [`split_frame`] inverts it.
///
/// # Panics
///
/// Panics if the payload is 4 GiB or longer (its length must fit the u32
/// prefix).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame payloads are under 4 GiB");
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out
}

/// Splits one intact [`frame`] off the front of `bytes`, returning its
/// payload and the bytes after it. Never allocates: a length prefix
/// larger than the input is a [`WireError::Eof`] (a torn frame), and a
/// payload whose digest does not match the trailer is a
/// [`WireError::Invalid`] `"frame checksum"`.
pub fn split_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), WireError> {
    let mut r = Reader::new(bytes);
    let len = r.get_u32()? as usize;
    let payload = r.take(len)?;
    let at = r.pos();
    if r.get_u64()? != fnv64(payload) {
        return Err(WireError::Invalid {
            at,
            what: "frame checksum",
        });
    }
    Ok((payload, &bytes[r.pos()..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u64,
        b: Vec<u8>,
        c: Option<(u32, bool)>,
        d: [u64; 3],
        e: f64,
    }
    wire_struct!(Demo { a, b, c, d, e });

    #[test]
    fn primitives_round_trip() {
        let v = Demo {
            a: u64::MAX,
            b: vec![1, 2, 3],
            c: Some((7, true)),
            d: [9, 8, 7],
            e: -0.0,
        };
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<Demo>(&bytes).unwrap(), v);
        // NaN survives bit-exactly.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let back: f64 = from_bytes(&to_bytes(&nan)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let bytes = to_bytes(&Demo {
            a: 1,
            b: vec![5; 4],
            c: None,
            d: [0; 3],
            e: 1.5,
        });
        for cut in 0..bytes.len() {
            let err = from_bytes::<Demo>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Eof { .. } | WireError::Invalid { .. }),
                "cut at {cut}: {err:?}"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(
            from_bytes::<Demo>(&extra),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        // A bad bool byte and a bad option tag are Invalid, not panics.
        assert_eq!(
            from_bytes::<bool>(&[2]),
            Err(WireError::Invalid {
                at: 0,
                what: "bool"
            })
        );
        assert_eq!(
            from_bytes::<Option<u8>>(&[9, 0]),
            Err(WireError::Invalid {
                at: 0,
                what: "option tag"
            })
        );
    }

    #[test]
    fn hostile_length_prefix_fails_fast() {
        // Vec length claims 2^60 elements with 0 bytes of payload: the
        // reader must reject the prefix, not try to allocate.
        let mut w = Writer::new();
        w.put_u64(1 << 60);
        assert!(matches!(
            from_bytes::<Vec<u8>>(&w.into_bytes()),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut stream = frame(b"first");
        stream.extend(frame(b""));
        stream.extend(frame(&[7u8; 300]));
        assert_eq!(stream.len(), 5 + 300 + 3 * FRAME_OVERHEAD);
        let (a, rest) = split_frame(&stream).unwrap();
        let (b, rest) = split_frame(rest).unwrap();
        let (c, rest) = split_frame(rest).unwrap();
        assert_eq!((a, b, c), (&b"first"[..], &b""[..], &[7u8; 300][..]));
        assert!(rest.is_empty());
        // The layout is pinned: length prefix, payload, FNV-64 trailer.
        let one = frame(b"ab");
        assert_eq!(&one[..4], &2u32.to_le_bytes());
        assert_eq!(&one[4..6], b"ab");
        assert_eq!(&one[6..], &fnv64(b"ab").to_le_bytes());
    }

    #[test]
    fn torn_frames_are_eof() {
        let whole = frame(b"payload bytes");
        for cut in 0..whole.len() {
            assert!(
                matches!(split_frame(&whole[..cut]), Err(WireError::Eof { .. })),
                "cut at {cut}"
            );
        }
        // A hostile length prefix is a torn frame, not an allocation.
        let mut hostile = u32::MAX.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0u8; 32]);
        assert!(matches!(split_frame(&hostile), Err(WireError::Eof { .. })));
    }

    #[test]
    fn bad_checksum_is_invalid() {
        let whole = frame(b"payload bytes");
        for i in 4..whole.len() {
            let mut bad = whole.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                split_frame(&bad),
                Err(WireError::Invalid {
                    at: whole.len() - 8,
                    what: "frame checksum"
                }),
                "flip at byte {i}"
            );
        }
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }
}
