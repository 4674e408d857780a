//! The framed wire protocol.
//!
//! Every message travels in the exact frame format the write-ahead log
//! uses on disk ([`datacron_durability::framing`]):
//!
//! ```text
//! frame := len:u32 | crc:u32 | seq:u64 | payload[len - 8]     (little endian)
//! ```
//!
//! with the CRC32 computed over `seq ‖ payload`. A bit flip anywhere on the
//! wire is therefore detected exactly like a bit flip on disk: the frame
//! parses as `Corrupt` and the connection is torn down, after which session
//! resume redelivers everything past the server's ACK watermark.
//!
//! For [`WireMsg::Record`] frames the frame `seq` field carries the
//! client's **session sequence** (the resume cursor); control frames carry
//! a per-connection counter that receivers treat as diagnostic only —
//! contiguity is enforced at the session level, not the frame level,
//! because the fault proxy may legitimately duplicate frames.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::Range;

use datacron_durability::codec::{self, ByteReader, ByteWriter, CodecError, Decode, Encode};
use datacron_durability::framing::{self, FrameParse, FRAME_HEADER};
use datacron_durability::{decode_from_slice, encode_to_vec};
use datacron_geo::PositionReport;
use datacron_obs::Counter;

use crate::NetError;

/// Wire protocol version carried in the handshake. Mismatches are refused
/// with [`NackReason::BadVersion`].
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame's declared payload size. A `len` field above
/// this is treated as corruption rather than trusted as an allocation hint.
pub const MAX_PAYLOAD_BYTES: usize = 1 << 20;

/// How many consecutive mid-frame read timeouts are tolerated before the
/// connection is declared stalled. Each retry waits the socket's read
/// timeout, so the total stall budget is `MID_FRAME_RETRIES × read_timeout`.
const MID_FRAME_RETRIES: u32 = 50;

/// Size of a [`FrameReader`]'s buffer: what one `read` can drain from a
/// socket. Eight of the feeder's coalesced writes.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Why a server refused a record or a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackReason {
    /// The bridged topic is full under `OverflowPolicy::RejectNew`, or has
    /// no consumers left to drain it. Retryable: back off and resume.
    TopicFull,
    /// The server is at its concurrent-session limit. Retryable.
    SessionLimit,
    /// The record's session sequence skipped ahead of the server's
    /// watermark — frames were lost in flight. The client must reconnect
    /// and replay from the acknowledged watermark.
    SequenceGap,
    /// The client spoke an incompatible protocol version. Fatal.
    BadVersion,
}

impl std::fmt::Display for NackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NackReason::TopicFull => write!(f, "topic full"),
            NackReason::SessionLimit => write!(f, "session limit reached"),
            NackReason::SequenceGap => write!(f, "session sequence gap"),
            NackReason::BadVersion => write!(f, "protocol version mismatch"),
        }
    }
}

impl Encode for NackReason {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            NackReason::TopicFull => 1,
            NackReason::SessionLimit => 2,
            NackReason::SequenceGap => 3,
            NackReason::BadVersion => 4,
        });
    }
}

impl Decode for NackReason {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            1 => Ok(NackReason::TopicFull),
            2 => Ok(NackReason::SessionLimit),
            3 => Ok(NackReason::SequenceGap),
            4 => Ok(NackReason::BadVersion),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

/// Every message either peer can put on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Client → server: open or resume a session.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// Stable client-chosen session identity; reconnects reuse it.
        session_id: u64,
    },
    /// Client → server: one position report, stamped with the session
    /// sequence (also carried in the frame `seq` field).
    Record {
        /// Monotonic per-session sequence, starting at 0.
        session_seq: u64,
        /// The report itself.
        report: PositionReport,
    },
    /// Client → server: liveness probe; the nonce comes back in
    /// [`WireMsg::HeartbeatAck`] for RTT measurement.
    Heartbeat {
        /// Echo token.
        nonce: u64,
    },
    /// Client → server: the stream is complete; `total` records were sent.
    Finish {
        /// Total session sequence count (= next unused sequence).
        total: u64,
    },
    /// Server → client: handshake accepted; `ack` is the durable
    /// watermark — every sequence below it is already ingested, so the
    /// client prunes its replay window to `ack..`.
    HelloAck {
        /// Echoed session identity.
        session_id: u64,
        /// Next session sequence the server expects.
        ack: u64,
    },
    /// Server → client: cumulative acknowledgement — every sequence below
    /// `up_to` is durably ingested.
    Ack {
        /// Next session sequence the server expects.
        up_to: u64,
    },
    /// Server → client: typed refusal; the connection closes after this.
    Nack {
        /// Session sequence the refusal refers to (0 for session-level).
        seq: u64,
        /// Why.
        reason: NackReason,
    },
    /// Server → client: heartbeat echo.
    HeartbeatAck {
        /// The probe's nonce.
        nonce: u64,
    },
    /// Server → client: the finish marker was accepted at `total`.
    FinishAck {
        /// Echoed total.
        total: u64,
    },
}

impl Encode for WireMsg {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            WireMsg::Hello { version, session_id } => {
                w.put_u8(1);
                w.put_u32(*version);
                w.put_u64(*session_id);
            }
            WireMsg::Record { session_seq, report } => {
                w.put_u8(2);
                w.put_u64(*session_seq);
                report.encode(w);
            }
            WireMsg::Heartbeat { nonce } => {
                w.put_u8(3);
                w.put_u64(*nonce);
            }
            WireMsg::Finish { total } => {
                w.put_u8(4);
                w.put_u64(*total);
            }
            WireMsg::HelloAck { session_id, ack } => {
                w.put_u8(5);
                w.put_u64(*session_id);
                w.put_u64(*ack);
            }
            WireMsg::Ack { up_to } => {
                w.put_u8(6);
                w.put_u64(*up_to);
            }
            WireMsg::Nack { seq, reason } => {
                w.put_u8(7);
                w.put_u64(*seq);
                reason.encode(w);
            }
            WireMsg::HeartbeatAck { nonce } => {
                w.put_u8(8);
                w.put_u64(*nonce);
            }
            WireMsg::FinishAck { total } => {
                w.put_u8(9);
                w.put_u64(*total);
            }
        }
    }
}

impl Decode for WireMsg {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            1 => Ok(WireMsg::Hello { version: r.get_u32()?, session_id: r.get_u64()? }),
            2 => Ok(WireMsg::Record {
                session_seq: r.get_u64()?,
                report: PositionReport::decode(r)?,
            }),
            3 => Ok(WireMsg::Heartbeat { nonce: r.get_u64()? }),
            4 => Ok(WireMsg::Finish { total: r.get_u64()? }),
            5 => Ok(WireMsg::HelloAck { session_id: r.get_u64()?, ack: r.get_u64()? }),
            6 => Ok(WireMsg::Ack { up_to: r.get_u64()? }),
            7 => Ok(WireMsg::Nack { seq: r.get_u64()?, reason: NackReason::decode(r)? }),
            8 => Ok(WireMsg::HeartbeatAck { nonce: r.get_u64()? }),
            9 => Ok(WireMsg::FinishAck { total: r.get_u64()? }),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

/// Encode `msg` into a single CRC-framed buffer.
pub fn encode_msg(wire_seq: u64, msg: &WireMsg) -> Vec<u8> {
    let payload = encode_to_vec(msg);
    let mut frame = Vec::with_capacity(framing::frame_size(payload.len()));
    framing::encode_frame_into(wire_seq, &payload, &mut frame);
    frame
}

/// Write one framed message. Socket write timeouts surface as `Err`.
pub fn write_msg<W: Write>(w: &mut W, wire_seq: u64, msg: &WireMsg) -> io::Result<()> {
    w.write_all(&encode_msg(wire_seq, msg))
}

/// Validate and decode a complete frame buffer into `(frame_seq, msg)`.
pub fn decode_frame(buf: &[u8]) -> Result<(u64, WireMsg), NetError> {
    match framing::parse_frame(buf) {
        FrameParse::Complete(f) if f.size == buf.len() => {
            let msg = decode_from_slice::<WireMsg>(f.payload)?;
            Ok((f.seq, msg))
        }
        _ => Err(NetError::CorruptFrame),
    }
}

/// Append `msg` as one frame to `out` without allocating, its payload
/// encoded through the reused `scratch`. Byte-identical to [`encode_msg`].
pub fn encode_msg_into(wire_seq: u64, msg: &WireMsg, scratch: &mut Vec<u8>, out: &mut Vec<u8>) {
    codec::encode_into(msg, scratch);
    framing::encode_frame_into(wire_seq, scratch, out);
}

/// The one frame-reassembly loop, used by server, client and proxy: a
/// buffer filled by **one `read` per socket drain**, its frames validated
/// and parsed in place, so a peer that coalesces writes costs its receiver
/// one syscall per batch instead of two per frame. The buffer outgrows
/// [`READ_BUF_BYTES`] only to hold one frame whose declared size passed the
/// [`MAX_PAYLOAD_BYTES`] check.
#[derive(Default)]
pub struct FrameReader {
    /// `buf[start..end]` holds the bytes received and not yet consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    reads: Counter,
}

impl FrameReader {
    /// A reader counting on `reads` its socket reads that moved bytes.
    pub fn new(reads: Counter) -> Self {
        Self { reads, ..Self::default() }
    }

    /// Whether a whole frame (by its declared length; the CRC is checked
    /// when it is taken) is buffered, i.e. the next message costs no read.
    pub fn has_buffered_frame(&self) -> bool {
        let pending = &self.buf[self.start..self.end];
        framing::declared_payload_len(pending).is_some_and(|p| pending.len() >= FRAME_HEADER + p)
    }

    /// The next message if it is already buffered; never touches a socket.
    pub fn buffered_msg(&mut self) -> Result<Option<(u64, WireMsg)>, NetError> {
        self.take_buffered()?.map(|span| self.decode(span)).transpose()
    }

    /// The next message, reading from `r` under its read timeout when none
    /// is buffered. `Ok(None)` means the timeout elapsed with **no partial
    /// frame** buffered — the stream is frame-aligned and the caller may
    /// simply try again (this is how handlers notice shutdown flags and
    /// idle peers). Once a frame has started arriving it is read to
    /// completion, tolerating up to [`MID_FRAME_RETRIES`] further timeouts
    /// before declaring a stall.
    pub fn next_msg<R: Read>(&mut self, r: &mut R) -> Result<Option<(u64, WireMsg)>, NetError> {
        self.next_span(r)?.map(|span| self.decode(span)).transpose()
    }

    /// Like [`next_msg`](Self::next_msg) but yields the validated frame's
    /// raw bytes (the fault proxy forwards or damages them undecoded).
    pub fn next_frame<R: Read>(&mut self, r: &mut R) -> Result<Option<&[u8]>, NetError> {
        Ok(self.next_span(r)?.map(|(_, frame)| &self.buf[frame]))
    }

    /// Like [`next_msg`](Self::next_msg) but never waits: at most one
    /// non-blocking read, a partial frame staying buffered for the next
    /// call. The client drains ACKs with it after a coalesced write; the
    /// only place a socket's mode is toggled.
    pub fn poll_msg(&mut self, stream: &TcpStream) -> Result<Option<(u64, WireMsg)>, NetError> {
        if let Some(found) = self.buffered_msg()? {
            return Ok(Some(found));
        }
        stream.set_nonblocking(true)?;
        let filled = self.fill(&mut &*stream);
        // Restore blocking mode even on the error paths; an error here is
        // subordinate to the read result.
        let _ = stream.set_nonblocking(false);
        filled?;
        self.buffered_msg()
    }

    fn next_span<R: Read>(&mut self, r: &mut R) -> Result<Option<(u64, Range<usize>)>, NetError> {
        let mut stalls = 0u32;
        loop {
            if let Some(span) = self.take_buffered()? {
                return Ok(Some(span));
            }
            if !self.fill(r)? {
                if self.start == self.end {
                    return Ok(None);
                }
                stalls += 1;
                if stalls > MID_FRAME_RETRIES {
                    return Err(NetError::Timeout);
                }
            }
        }
    }

    /// Validate and consume the frame at the front of the buffer.
    fn take_buffered(&mut self) -> Result<Option<(u64, Range<usize>)>, NetError> {
        match framing::parse_frame(&self.buf[self.start..self.end]) {
            FrameParse::Complete(f) => {
                let frame = self.start..self.start + f.size;
                self.start = frame.end;
                Ok(Some((f.seq, frame)))
            }
            FrameParse::Corrupt => Err(NetError::CorruptFrame),
            FrameParse::Incomplete => Ok(None),
        }
    }

    /// Decode the payload of a frame `take_buffered` validated.
    fn decode(&self, (seq, frame): (u64, Range<usize>)) -> Result<(u64, WireMsg), NetError> {
        Ok((seq, decode_from_slice(&self.buf[frame][FRAME_HEADER..])?))
    }

    /// One `read` into the free tail; `Ok(false)` when it timed out or would
    /// block. Called only when the front frame is incomplete, so the bytes
    /// moved to the buffer's start are less than one frame.
    fn fill<R: Read>(&mut self, r: &mut R) -> Result<bool, NetError> {
        let pending = self.end - self.start;
        let need = match framing::declared_payload_len(&self.buf[self.start..self.end]) {
            Some(payload) if payload <= MAX_PAYLOAD_BYTES => FRAME_HEADER + payload,
            None if pending < 4 => FRAME_HEADER,
            // A `len` field above the cap or below the minimum: corruption,
            // never an allocation hint.
            _ => return Err(NetError::CorruptFrame),
        };
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, pending);
        if need > self.buf.len() {
            self.buf.resize(need.max(READ_BUF_BYTES), 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(NetError::ConnectionClosed),
                Ok(n) => {
                    self.end += n;
                    self.reads.inc();
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                    return Ok(false)
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{EntityId, GeoPoint, PositionReport, Timestamp};

    fn sample_report() -> PositionReport {
        PositionReport {
            entity: EntityId::vessel(77),
            ts: Timestamp::from_millis(1_720_000_000_123),
            point: GeoPoint::new(23.5, 37.9),
            altitude_m: 0.0,
            speed_mps: 6.25,
            heading_deg: 131.0,
            vertical_rate_mps: 0.0,
        }
    }

    fn all_variants() -> Vec<WireMsg> {
        vec![
            WireMsg::Hello { version: PROTOCOL_VERSION, session_id: 0xA11CE },
            WireMsg::Record { session_seq: 41, report: sample_report() },
            WireMsg::Heartbeat { nonce: 7 },
            WireMsg::Finish { total: 1000 },
            WireMsg::HelloAck { session_id: 0xA11CE, ack: 17 },
            WireMsg::Ack { up_to: 42 },
            WireMsg::Nack { seq: 9, reason: NackReason::TopicFull },
            WireMsg::Nack { seq: 0, reason: NackReason::BadVersion },
            WireMsg::HeartbeatAck { nonce: 7 },
            WireMsg::FinishAck { total: 1000 },
        ]
    }

    #[test]
    fn every_message_round_trips_through_a_frame() {
        for (i, msg) in all_variants().into_iter().enumerate() {
            let frame = encode_msg(i as u64, &msg);
            let (seq, back) = decode_frame(&frame).expect("frame decodes");
            assert_eq!(seq, i as u64);
            assert_eq!(back, msg, "variant {i} mismatch");
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let msg = WireMsg::Record { session_seq: 3, report: sample_report() };
        let frame = encode_msg(3, &msg);
        // Flipping any bit of the seq+payload region must trip the CRC;
        // flipping len/crc bytes must fail framing or the CRC compare.
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let frame = encode_msg(1, &WireMsg::Ack { up_to: 5 });
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn nack_reasons_round_trip() {
        for reason in [
            NackReason::TopicFull,
            NackReason::SessionLimit,
            NackReason::SequenceGap,
            NackReason::BadVersion,
        ] {
            let frame = encode_msg(0, &WireMsg::Nack { seq: 1, reason });
            let (_, back) = decode_frame(&frame).unwrap();
            assert_eq!(back, WireMsg::Nack { seq: 1, reason });
        }
    }
}
