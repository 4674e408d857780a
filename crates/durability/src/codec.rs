//! Compact binary codec for ingest records and operator state snapshots.
//!
//! Hand-rolled (the workspace is zero-external-crate) and deterministic:
//! the same value always encodes to the same bytes, which is what makes
//! checkpoint payloads comparable bit-for-bit across runs. Conventions:
//!
//! * fixed-width integers are little-endian;
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`), so `NaN`
//!   round-trips exactly;
//! * `Option<T>` is a 1-byte presence tag (0/1) followed by the value;
//! * sequences are a `u64` length followed by the items;
//! * strings are a `u64` byte length followed by UTF-8 bytes;
//! * enums are a 1-byte variant tag in declaration order;
//! * varints ([`ByteWriter::put_varint`]) are LEB128, 1–10 bytes, and
//!   signed values ride on them zigzag-mapped. Formats built for size
//!   (the core crate's entity checkpoint) use them; the fixed-width
//!   conventions above are the default.
//!
//! Decoding never panics: every malformed input maps to a [`CodecError`].

use std::sync::Arc;

use datacron_geo::{EntityId, GeoPoint, MovingKind, PositionReport, Timestamp};
use datacron_linkdisc::links::LinkTarget;
use datacron_linkdisc::{Link, LinkStats, Relation};
use datacron_rdf::{Literal, Term, Triple};
use datacron_stream::bus::TopicStats;
use datacron_stream::{AreaEvent, AreaEventKind, CleaningOutcome};
use datacron_synopses::{CriticalKind, CriticalPoint};

/// A malformed encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Truncated,
    /// An enum tag byte had no matching variant.
    InvalidTag(u8),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// Bytes remained after the value was fully decoded.
    TrailingBytes,
    /// A varint ran past 10 bytes or past 64 bits.
    VarintOverflow,
    /// A back-reference pointed outside the values it may refer to.
    BadReference,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "encoding truncated"),
            CodecError::InvalidTag(t) => write!(f, "invalid enum tag {t}"),
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after value"),
            CodecError::VarintOverflow => write!(f, "varint longer than 64 bits"),
            CodecError::BadReference => write!(f, "back-reference out of range"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, yielding its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Clears the buffer, keeping its allocation (for hot-path reuse).
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// Writes one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its bit pattern (NaN-exact).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `u64` as a LEB128 varint: 7 bits a byte, low bits first,
    /// so values below 128 take one byte and `u64::MAX` takes ten.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Writes an `i64` zigzag-mapped (0, -1, 1, -2, … → 0, 1, 2, 3, …) as a
    /// varint, so small magnitudes of either sign stay short.
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over an encoded byte slice for decoding.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a LEB128 varint. More than ten bytes, or a tenth byte that
    /// carries bits beyond the 64th, is [`CodecError::VarintOverflow`].
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.get_u8()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::VarintOverflow);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::VarintOverflow)
    }

    /// Reads a zigzag-mapped `i64` (see [`ByteWriter::put_zigzag`]).
    pub fn get_zigzag(&mut self) -> Result<i64, CodecError> {
        let u = self.get_varint()?;
        Ok((u >> 1) as i64 ^ -((u & 1) as i64))
    }

    /// Reads a varint sequence length, bounds-checked against the
    /// remaining input like [`get_len`](Self::get_len).
    pub fn get_varint_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_varint()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(len as usize)
    }

    /// Reads a bool; any byte other than 0/1 is an invalid tag.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::InvalidTag(t)),
        }
    }

    /// Reads a length-prefixed sequence length, bounds-checked against the
    /// remaining input so corrupt lengths fail fast instead of allocating.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Fails with [`CodecError::TrailingBytes`] unless the input is spent.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Serialises a value into a [`ByteWriter`].
pub trait Encode {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut ByteWriter);
}

/// Deserialises a value from a [`ByteReader`].
pub trait Decode: Sized {
    /// Reads one value, advancing the reader.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// Encodes `value` into a fresh buffer.
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Encodes `value` into `buf`, replacing its contents but keeping its
/// allocation — the hot-path variant of [`encode_to_vec`] for callers
/// that recycle encode buffers (e.g. the cold-state spill tier, which
/// round-trips similarly-sized blobs millions of times).
pub fn encode_into<T: Encode>(value: &T, buf: &mut Vec<u8>) {
    buf.clear();
    let mut w = ByteWriter {
        buf: std::mem::take(buf),
    };
    value.encode(&mut w);
    *buf = w.into_bytes();
}

/// Decodes exactly one value from `bytes`, rejecting trailing garbage.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

// --- primitives ---

macro_rules! impl_codec_int {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    };
}

impl_codec_int!(u8, put_u8, get_u8);
impl_codec_int!(u32, put_u32, get_u32);
impl_codec_int!(u64, put_u64, get_u64);
impl_codec_int!(i64, put_i64, get_i64);
impl_codec_int!(f64, put_f64, get_f64);
impl_codec_int!(bool, put_bool, get_bool);

impl Encode for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_str()
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
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// --- geo ---

impl Encode for Timestamp {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_i64(self.0);
    }
}

impl Decode for Timestamp {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Timestamp(r.get_i64()?))
    }
}

impl Encode for GeoPoint {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.lon);
        w.put_f64(self.lat);
    }
}

impl Decode for GeoPoint {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let lon = r.get_f64()?;
        let lat = r.get_f64()?;
        Ok(GeoPoint::new(lon, lat))
    }
}

impl Encode for MovingKind {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            MovingKind::Vessel => 0,
            MovingKind::Aircraft => 1,
        });
    }
}

impl Decode for MovingKind {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(MovingKind::Vessel),
            1 => Ok(MovingKind::Aircraft),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Encode for EntityId {
    fn encode(&self, w: &mut ByteWriter) {
        self.kind.encode(w);
        w.put_u64(self.id);
    }
}

impl Decode for EntityId {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let kind = MovingKind::decode(r)?;
        let id = r.get_u64()?;
        Ok(EntityId { kind, id })
    }
}

impl Encode for PositionReport {
    fn encode(&self, w: &mut ByteWriter) {
        self.entity.encode(w);
        self.ts.encode(w);
        self.point.encode(w);
        w.put_f64(self.altitude_m);
        w.put_f64(self.speed_mps);
        w.put_f64(self.heading_deg);
        w.put_f64(self.vertical_rate_mps);
    }
}

impl Decode for PositionReport {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(PositionReport {
            entity: EntityId::decode(r)?,
            ts: Timestamp::decode(r)?,
            point: GeoPoint::decode(r)?,
            altitude_m: r.get_f64()?,
            speed_mps: r.get_f64()?,
            heading_deg: r.get_f64()?,
            vertical_rate_mps: r.get_f64()?,
        })
    }
}

// --- stream: cleaning, bus, low-level events ---

impl Encode for CleaningOutcome {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            CleaningOutcome::Accepted => 0,
            CleaningOutcome::Implausible => 1,
            CleaningOutcome::Duplicate => 2,
            CleaningOutcome::OutOfOrder => 3,
            CleaningOutcome::Teleport => 4,
        });
    }
}

impl Decode for CleaningOutcome {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(CleaningOutcome::Accepted),
            1 => Ok(CleaningOutcome::Implausible),
            2 => Ok(CleaningOutcome::Duplicate),
            3 => Ok(CleaningOutcome::OutOfOrder),
            4 => Ok(CleaningOutcome::Teleport),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Encode for TopicStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.published);
        w.put_u64(self.rejected);
        w.put_u64(self.dropped);
        w.put_u64(self.reclaimed);
        w.put_u64(self.blocked);
        w.put_u64(self.consumed);
        w.put_u64(self.lag_signals);
    }
}

impl Decode for TopicStats {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(TopicStats {
            published: r.get_u64()?,
            rejected: r.get_u64()?,
            dropped: r.get_u64()?,
            reclaimed: r.get_u64()?,
            blocked: r.get_u64()?,
            consumed: r.get_u64()?,
            lag_signals: r.get_u64()?,
        })
    }
}

impl Encode for AreaEventKind {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            AreaEventKind::Entered => 0,
            AreaEventKind::Exited => 1,
        });
    }
}

impl Decode for AreaEventKind {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(AreaEventKind::Entered),
            1 => Ok(AreaEventKind::Exited),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Encode for AreaEvent {
    fn encode(&self, w: &mut ByteWriter) {
        self.entity.encode(w);
        self.ts.encode(w);
        w.put_u64(self.area_id);
        self.kind.encode(w);
        self.point.encode(w);
    }
}

impl Decode for AreaEvent {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(AreaEvent {
            entity: EntityId::decode(r)?,
            ts: Timestamp::decode(r)?,
            area_id: r.get_u64()?,
            kind: AreaEventKind::decode(r)?,
            point: GeoPoint::decode(r)?,
        })
    }
}

// --- synopses ---

impl Encode for CriticalKind {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            CriticalKind::Start => w.put_u8(0),
            CriticalKind::End => w.put_u8(1),
            CriticalKind::StopStart => w.put_u8(2),
            CriticalKind::StopEnd => w.put_u8(3),
            CriticalKind::SlowMotionStart => w.put_u8(4),
            CriticalKind::SlowMotionEnd => w.put_u8(5),
            CriticalKind::ChangeInHeading { delta_deg } => {
                w.put_u8(6);
                w.put_f64(*delta_deg);
            }
            CriticalKind::SpeedChange { ratio } => {
                w.put_u8(7);
                w.put_f64(*ratio);
            }
            CriticalKind::GapStart => w.put_u8(8),
            CriticalKind::GapEnd { silence_s } => {
                w.put_u8(9);
                w.put_f64(*silence_s);
            }
            CriticalKind::ChangeInAltitude { rate_mps } => {
                w.put_u8(10);
                w.put_f64(*rate_mps);
            }
            CriticalKind::Takeoff => w.put_u8(11),
            CriticalKind::Landing => w.put_u8(12),
        }
    }
}

impl Decode for CriticalKind {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(CriticalKind::Start),
            1 => Ok(CriticalKind::End),
            2 => Ok(CriticalKind::StopStart),
            3 => Ok(CriticalKind::StopEnd),
            4 => Ok(CriticalKind::SlowMotionStart),
            5 => Ok(CriticalKind::SlowMotionEnd),
            6 => Ok(CriticalKind::ChangeInHeading { delta_deg: r.get_f64()? }),
            7 => Ok(CriticalKind::SpeedChange { ratio: r.get_f64()? }),
            8 => Ok(CriticalKind::GapStart),
            9 => Ok(CriticalKind::GapEnd { silence_s: r.get_f64()? }),
            10 => Ok(CriticalKind::ChangeInAltitude { rate_mps: r.get_f64()? }),
            11 => Ok(CriticalKind::Takeoff),
            12 => Ok(CriticalKind::Landing),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Encode for CriticalPoint {
    fn encode(&self, w: &mut ByteWriter) {
        self.report.encode(w);
        self.kind.encode(w);
    }
}

impl Decode for CriticalPoint {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let report = PositionReport::decode(r)?;
        let kind = CriticalKind::decode(r)?;
        Ok(CriticalPoint { report, kind })
    }
}

// --- link discovery ---

impl Encode for Relation {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            Relation::Within => 0,
            Relation::NearTo => 1,
        });
    }
}

impl Decode for Relation {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Relation::Within),
            1 => Ok(Relation::NearTo),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Encode for LinkTarget {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            LinkTarget::Region(id) => {
                w.put_u8(0);
                w.put_u64(*id);
            }
            LinkTarget::Port(id) => {
                w.put_u8(1);
                w.put_u64(*id);
            }
            LinkTarget::Entity(e) => {
                w.put_u8(2);
                e.encode(w);
            }
        }
    }
}

impl Decode for LinkTarget {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(LinkTarget::Region(r.get_u64()?)),
            1 => Ok(LinkTarget::Port(r.get_u64()?)),
            2 => Ok(LinkTarget::Entity(EntityId::decode(r)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Encode for Link {
    fn encode(&self, w: &mut ByteWriter) {
        self.entity.encode(w);
        self.ts.encode(w);
        self.relation.encode(w);
        self.target.encode(w);
    }
}

impl Decode for Link {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Link {
            entity: EntityId::decode(r)?,
            ts: Timestamp::decode(r)?,
            relation: Relation::decode(r)?,
            target: LinkTarget::decode(r)?,
        })
    }
}

impl Encode for LinkStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.points);
        w.put_u64(self.mask_hits);
        w.put_u64(self.refinements);
        w.put_u64(self.links);
    }
}

impl Decode for LinkStats {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(LinkStats {
            points: r.get_u64()?,
            mask_hits: r.get_u64()?,
            refinements: r.get_u64()?,
            links: r.get_u64()?,
        })
    }
}

// --- RDF ---

impl Encode for Literal {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Literal::Str(s) => {
                w.put_u8(0);
                w.put_str(s);
            }
            Literal::Int(v) => {
                w.put_u8(1);
                w.put_i64(*v);
            }
            Literal::Double(v) => {
                w.put_u8(2);
                w.put_f64(*v);
            }
            Literal::DateTime(v) => {
                w.put_u8(3);
                w.put_i64(*v);
            }
            Literal::Wkt(s) => {
                w.put_u8(4);
                w.put_str(s);
            }
            Literal::Bool(v) => {
                w.put_u8(5);
                w.put_bool(*v);
            }
        }
    }
}

impl Decode for Literal {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Literal::Str(Arc::from(r.get_str()?))),
            1 => Ok(Literal::Int(r.get_i64()?)),
            2 => Ok(Literal::Double(r.get_f64()?)),
            3 => Ok(Literal::DateTime(r.get_i64()?)),
            4 => Ok(Literal::Wkt(Arc::from(r.get_str()?))),
            5 => Ok(Literal::Bool(r.get_bool()?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Encode for Term {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Term::Iri(s) => {
                w.put_u8(0);
                w.put_str(s);
            }
            Term::Blank(id) => {
                w.put_u8(1);
                w.put_u64(*id);
            }
            Term::Literal(l) => {
                w.put_u8(2);
                l.encode(w);
            }
        }
    }
}

impl Decode for Term {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Term::Iri(Arc::from(r.get_str()?))),
            1 => Ok(Term::Blank(r.get_u64()?)),
            2 => Ok(Term::Literal(Literal::decode(r)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Encode for Triple {
    fn encode(&self, w: &mut ByteWriter) {
        self.s.encode(w);
        self.p.encode(w);
        self.o.encode(w);
    }
}

impl Decode for Triple {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Triple {
            s: Term::decode(r)?,
            p: Term::decode(r)?,
            o: Term::decode(r)?,
        })
    }
}

// --- topic checkpoints ---

/// Durable snapshot of one in-memory topic: its base offset, counters and
/// the retained log contents. Restoring all three reproduces the topic's
/// observable state (offsets, health, unread messages) exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicCheckpoint<T> {
    /// Offset of the first retained message.
    pub base: u64,
    /// Publish/drop/reclaim counters at snapshot time.
    pub stats: TopicStats,
    /// The retained log contents, oldest first.
    pub retained: Vec<T>,
}

impl<T: Encode> Encode for TopicCheckpoint<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.base);
        self.stats.encode(w);
        self.retained.encode(w);
    }
}

impl<T: Decode> Decode for TopicCheckpoint<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(TopicCheckpoint {
            base: r.get_u64()?,
            stats: TopicStats::decode(r)?,
            retained: Vec::<T>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + std::fmt::Debug>(value: &T) -> T {
        let bytes = encode_to_vec(value);
        decode_from_slice(&bytes).expect("roundtrip decode")
    }

    fn sample_report(id: u64, ts: i64) -> PositionReport {
        PositionReport {
            entity: EntityId::vessel(id),
            ts: Timestamp(ts),
            point: GeoPoint::new(23.5 + id as f64 * 0.01, 37.9),
            altitude_m: 0.0,
            speed_mps: 5.25,
            heading_deg: 271.5,
            vertical_rate_mps: 0.0,
        }
    }

    #[test]
    fn position_report_roundtrips() {
        let r = sample_report(42, 1_000);
        assert_eq!(roundtrip(&r), r);
        let a = PositionReport {
            entity: EntityId::aircraft(7),
            altitude_m: 10_500.0,
            vertical_rate_mps: -12.5,
            ..sample_report(7, -5)
        };
        assert_eq!(roundtrip(&a), a);
    }

    #[test]
    fn nan_and_infinity_roundtrip_exactly() {
        let mut r = sample_report(1, 0);
        r.heading_deg = f64::NAN;
        r.speed_mps = f64::INFINITY;
        r.altitude_m = f64::NEG_INFINITY;
        let back = roundtrip(&r);
        assert_eq!(back.heading_deg.to_bits(), r.heading_deg.to_bits());
        assert_eq!(back.speed_mps, f64::INFINITY);
        assert_eq!(back.altitude_m, f64::NEG_INFINITY);
    }

    #[test]
    fn critical_kinds_roundtrip() {
        let kinds = vec![
            CriticalKind::Start,
            CriticalKind::End,
            CriticalKind::StopStart,
            CriticalKind::StopEnd,
            CriticalKind::SlowMotionStart,
            CriticalKind::SlowMotionEnd,
            CriticalKind::ChangeInHeading { delta_deg: -34.5 },
            CriticalKind::SpeedChange { ratio: 0.75 },
            CriticalKind::GapStart,
            CriticalKind::GapEnd { silence_s: 1800.0 },
            CriticalKind::ChangeInAltitude { rate_mps: -9.0 },
            CriticalKind::Takeoff,
            CriticalKind::Landing,
        ];
        assert_eq!(roundtrip(&kinds), kinds);
    }

    #[test]
    fn rdf_terms_roundtrip() {
        let triple = Triple {
            s: Term::iri("http://datacron.eu/vessel/9"),
            p: Term::Blank(3),
            o: Term::Literal(Literal::Double(4.5)),
        };
        assert_eq!(roundtrip(&triple), triple);
        let lits = vec![
            Literal::str("hello"),
            Literal::Int(-9),
            Literal::DateTime(1_700_000_000_000),
            Literal::wkt("POINT (23.5 37.9)"),
            Literal::Bool(true),
        ];
        assert_eq!(roundtrip(&lits), lits);
    }

    #[test]
    fn links_and_events_roundtrip() {
        let link = Link {
            entity: EntityId::vessel(5),
            ts: Timestamp(99),
            relation: Relation::NearTo,
            target: LinkTarget::Port(11),
        };
        assert_eq!(roundtrip(&link), link);
        let ev = AreaEvent {
            entity: EntityId::aircraft(2),
            ts: Timestamp(7),
            area_id: 13,
            kind: AreaEventKind::Exited,
            point: GeoPoint::new(1.0, 2.0),
        };
        assert_eq!(roundtrip(&ev), ev);
    }

    #[test]
    fn topic_checkpoint_roundtrips() {
        let ck = TopicCheckpoint {
            base: 17,
            stats: TopicStats {
                published: 40,
                rejected: 1,
                dropped: 2,
                reclaimed: 17,
                blocked: 3,
                consumed: 23,
                lag_signals: 4,
            },
            retained: vec![sample_report(1, 10), sample_report(2, 20)],
        };
        assert_eq!(roundtrip(&ck), ck);
    }

    #[test]
    fn varints_round_trip_at_every_width_and_reject_overlong_input() {
        let mut w = ByteWriter::new();
        let unsigned = [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX];
        let signed = [0, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for v in unsigned {
            w.put_varint(v);
        }
        for v in signed {
            w.put_zigzag(v);
        }
        let mut r = ByteReader::new(w.as_bytes());
        for v in unsigned {
            assert_eq!(r.get_varint(), Ok(v));
        }
        for v in signed {
            assert_eq!(r.get_zigzag(), Ok(v));
        }
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(encode_varint(u64::MAX).len(), 10);
        assert_eq!(encode_varint(127).len(), 1);
        // Eleven continuation bytes, and a tenth byte past the 64th bit.
        assert_eq!(ByteReader::new(&[0xff; 11]).get_varint(), Err(CodecError::VarintOverflow));
        let mut past = vec![0xff; 9];
        past.push(0x02);
        assert_eq!(ByteReader::new(&past).get_varint(), Err(CodecError::VarintOverflow));
        assert_eq!(ByteReader::new(&[0x80, 0x80]).get_varint(), Err(CodecError::Truncated));
        // A varint length beyond the remaining input fails before allocating.
        assert_eq!(ByteReader::new(&encode_varint(5)).get_varint_len(), Err(CodecError::Truncated));
    }

    fn encode_varint(v: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(v);
        w.into_bytes()
    }

    #[test]
    fn corrupt_inputs_yield_typed_errors_not_panics() {
        // Truncation at every prefix length.
        let bytes = encode_to_vec(&sample_report(3, 3));
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_from_slice::<PositionReport>(&bytes[..cut]),
                Err(CodecError::Truncated)
            );
        }
        // Bad enum tag.
        assert_eq!(decode_from_slice::<MovingKind>(&[9]), Err(CodecError::InvalidTag(9)));
        // Trailing garbage.
        let mut padded = encode_to_vec(&Timestamp(5));
        padded.push(0);
        assert_eq!(decode_from_slice::<Timestamp>(&padded), Err(CodecError::TrailingBytes));
        // Absurd length prefix must not allocate/panic.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_from_slice::<Vec<u64>>(&huge), Err(CodecError::Truncated));
    }
}
