//! Property tests for [`FrameReader`], the one frame-reassembly loop on
//! every socket: however the bytes of a coalesced write arrive — one at a
//! time, cut inside the 16-byte header, interleaved with read timeouts —
//! the reader yields exactly the framed messages, and damaged or arbitrary
//! bytes surface as typed errors, never a panic or an oversized allocation.

use std::io::{self, Read};

use datacron_geo::{EntityId, GeoPoint, PositionReport, Timestamp};
use datacron_net::wire::{encode_msg, FrameReader};
use datacron_net::{NackReason, NetError, WireMsg, MAX_PAYLOAD_BYTES, PROTOCOL_VERSION};
use proptest::prelude::*;

/// A `Read` that hands `data` out in seeded random chunks of 1..=`max_chunk`
/// bytes, reports a read timeout now and then, and ends with EOF.
struct Chunked<'a> {
    data: &'a [u8],
    state: u64,
    max_chunk: usize,
}

impl Chunked<'_> {
    fn roll(&mut self) -> u64 {
        // splitmix64
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.roll() & 7 == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = (1 + self.roll() as usize % self.max_chunk).min(self.data.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Every message the reader yields until the stream ends, and how it ended.
fn read_all(bytes: &[u8], seed: u64, max_chunk: usize) -> (Vec<(u64, WireMsg)>, NetError) {
    let mut src = Chunked { data: bytes, state: seed, max_chunk };
    let mut reader = FrameReader::default();
    let mut got = Vec::new();
    loop {
        match reader.next_msg(&mut src) {
            Ok(Some(found)) => got.push(found),
            Ok(None) => {} // a timeout at a frame boundary: try again
            Err(e) => return (got, e),
        }
    }
}

fn wire_msg() -> impl Strategy<Value = WireMsg> {
    let record = (0u64..u64::MAX, 0u64..100_000, -180.0f64..180.0, -90.0f64..90.0, 0.0f64..40.0)
        .prop_map(|(session_seq, entity, lon, lat, speed)| WireMsg::Record {
            session_seq,
            report: PositionReport {
                speed_mps: speed,
                heading_deg: lon.abs(),
                ..PositionReport::basic(
                    EntityId::vessel(entity),
                    Timestamp::from_millis(session_seq as i64 >> 16),
                    GeoPoint::new(lon, lat),
                )
            },
        });
    prop_oneof![
        record,
        (0u64..u64::MAX).prop_map(|session_id| WireMsg::Hello { version: PROTOCOL_VERSION, session_id }),
        (0u64..u64::MAX).prop_map(|nonce| WireMsg::Heartbeat { nonce }),
        (0u64..u64::MAX).prop_map(|total| WireMsg::Finish { total }),
        (0u64..u64::MAX).prop_map(|up_to| WireMsg::Ack { up_to }),
        (0u64..u64::MAX).prop_map(|seq| WireMsg::Nack { seq, reason: NackReason::TopicFull }),
    ]
}

/// `msgs` framed back to back, as one coalesced write puts them on the
/// wire, with each frame's offset.
fn coalesce(msgs: &[WireMsg]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut offsets = Vec::new();
    for (i, msg) in msgs.iter().enumerate() {
        offsets.push(bytes.len());
        bytes.extend_from_slice(&encode_msg(i as u64, msg));
    }
    (bytes, offsets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Chunking is invisible: 1-byte reads, cuts inside the header and
    /// mid-frame timeouts all yield the original `(seq, msg)` sequence,
    /// then a clean `ConnectionClosed` at EOF.
    #[test]
    fn any_chunking_yields_the_framed_sequence(
        msgs in proptest::collection::vec(wire_msg(), 1..200),
        seed in 0u64..u64::MAX,
        max_chunk in prop_oneof![1usize..2, 1usize..24, 1usize..4096],
    ) {
        let (bytes, _) = coalesce(&msgs);
        let (got, end) = read_all(&bytes, seed, max_chunk);
        let want: Vec<(u64, WireMsg)> =
            msgs.into_iter().enumerate().map(|(i, m)| (i as u64, m)).collect();
        prop_assert_eq!(got, want);
        prop_assert!(matches!(end, NetError::ConnectionClosed), "ended with {end:?}");
    }

    /// Arbitrary bytes never panic and end in one of the three errors a
    /// damaged or closed stream is allowed to produce.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..2048),
        seed in 0u64..u64::MAX,
    ) {
        let (_, end) = read_all(&bytes, seed, 64);
        prop_assert!(
            matches!(end, NetError::CorruptFrame | NetError::Codec(_) | NetError::ConnectionClosed),
            "ended with {end:?}"
        );
    }

    /// One flipped bit in frame `k` of a coalesced write: frames before `k`
    /// are delivered intact, frame `k` and everything after it never are.
    #[test]
    fn a_flipped_bit_rejects_its_frame_after_delivering_the_ones_before(
        msgs in proptest::collection::vec(wire_msg(), 1..64),
        pick in 0usize..usize::MAX,
        bit in 0u8..8,
        seed in 0u64..u64::MAX,
    ) {
        let (mut bytes, offsets) = coalesce(&msgs);
        let k = pick % msgs.len();
        let frame_end = offsets.get(k + 1).copied().unwrap_or(bytes.len());
        let at = offsets[k] + (pick / msgs.len()) % (frame_end - offsets[k]);
        bytes[at] ^= 1 << bit;

        let (got, end) = read_all(&bytes, seed, 256);
        let want: Vec<(u64, WireMsg)> =
            msgs.into_iter().take(k).enumerate().map(|(i, m)| (i as u64, m)).collect();
        prop_assert_eq!(got, want);
        if at - offsets[k] >= 4 {
            // Outside the `len` field the damage is seen on frame k itself.
            prop_assert!(matches!(end, NetError::CorruptFrame), "ended with {end:?}");
        } else {
            // A damaged `len` may also run the frame past the end of the stream.
            prop_assert!(
                matches!(end, NetError::CorruptFrame | NetError::ConnectionClosed),
                "ended with {end:?}"
            );
        }
    }
}

/// A `len` field above the cap is refused from its four bytes alone: the
/// reader neither waits for the rest of the header nor sizes a buffer by it
/// (asking the source for more would end in `ConnectionClosed` instead).
#[test]
fn an_oversized_declared_length_is_rejected_before_any_allocation() {
    for declared in [MAX_PAYLOAD_BYTES as u32 + 8 + 1, u32::MAX] {
        let mut src: &[u8] = &declared.to_le_bytes();
        let mut reader = FrameReader::default();
        assert!(matches!(reader.next_msg(&mut src), Err(NetError::CorruptFrame)));
    }
    // The largest legal declaration is only incomplete, not corrupt.
    let mut src: &[u8] = &(MAX_PAYLOAD_BYTES as u32 + 8).to_le_bytes();
    let mut reader = FrameReader::default();
    assert!(matches!(reader.next_msg(&mut src), Err(NetError::ConnectionClosed)));
}
