#![warn(missing_docs)]

//! # datacron-durability
//!
//! Durability substrate for the datAcron real-time layer: a write-ahead
//! ingest log, checkpointed operator state and crash recovery.
//!
//! The paper's deployment delegates exactly this to its infrastructure —
//! Kafka is the replayable log feeding the Flink jobs, and Flink's
//! checkpoint/restore gives the streaming operators exactly-once state.
//! This crate rebuilds that substrate natively (zero external crates, like
//! the rest of the workspace):
//!
//! * [`wal`] — a segmented append-only **write-ahead log**: length+CRC32
//!   framed records, configurable fsync policy (per-record / batched /
//!   interval), segment rotation and retention, and a replay iterator
//!   that tolerates and truncates a torn tail.
//! * [`framing`] — the shared `[len|crc|seq|payload]` **frame format**
//!   consumed by both the WAL and `datacron-net`'s TCP wire protocol.
//! * [`codec`] — a compact, deterministic **binary codec** for ingest
//!   records ([`datacron_geo::PositionReport`]) and operator state
//!   snapshots (cleaner, synopses, topics, links, RDF terms).
//! * [`checkpoint`] — atomically-written, checksummed **checkpoints**,
//!   each tagged with the WAL sequence number it covers.
//! * [`recovery`] — the [`RecoveryManager`]: newest valid checkpoint +
//!   contiguous WAL suffix, deduped by sequence number, so a recovered
//!   run applies every durable record exactly once.
//!
//! The integration lives in `datacron-core`: `DatacronSystem` logs every
//! ingest before processing it and checkpoints the full real-time-layer
//! state on a configurable interval, which makes a recovered run's
//! outputs bit-identical to an uninterrupted one.

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod framing;
pub mod recovery;
pub mod wal;

pub use checkpoint::CheckpointStore;
pub use codec::{
    decode_from_slice, encode_into, encode_to_vec, ByteReader, ByteWriter, CodecError, Decode, Encode, TopicCheckpoint,
};
pub use framing::{encode_frame, encode_frame_into, parse_frame, Frame, FrameParse, FRAME_HEADER};
pub use recovery::{RecoveryManager, RecoveryOutcome};
pub use wal::{FsyncPolicy, ReplayIter, WalConfig, WalRecord, WalStats, WriteAheadLog};

use std::path::PathBuf;

/// Everything that can go wrong in the durability layer. Damaged on-disk
/// state is always surfaced as one of these — never a panic.
#[derive(Debug)]
pub enum DurabilityError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A WAL or checkpoint payload failed to decode.
    Codec(CodecError),
    /// A sealed WAL segment holds a frame whose checksum or framing is
    /// invalid (e.g. a bit flip): the log cannot be trusted past here.
    CorruptRecord {
        /// The damaged segment file.
        segment: PathBuf,
        /// Byte offset of the bad frame within the segment.
        offset: u64,
    },
    /// Sequence numbering is discontinuous (e.g. a deleted segment).
    SequenceGap {
        /// The sequence number that should have come next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// A file in the WAL directory matches the segment naming scheme but
    /// its name does not parse.
    BadSegmentName(PathBuf),
    /// The WAL's next sequence number disagrees with the system state it
    /// is being attached to.
    SequenceMismatch {
        /// The log's next sequence number.
        wal: u64,
        /// The system's record count.
        system: u64,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurabilityError::Codec(e) => write!(f, "durability codec error: {e}"),
            DurabilityError::CorruptRecord { segment, offset } => {
                write!(f, "corrupt WAL record in {} at offset {offset}", segment.display())
            }
            DurabilityError::SequenceGap { expected, found } => {
                write!(f, "WAL sequence gap: expected {expected}, found {found}")
            }
            DurabilityError::BadSegmentName(path) => {
                write!(f, "unparseable WAL segment name: {}", path.display())
            }
            DurabilityError::SequenceMismatch { wal, system } => {
                write!(f, "WAL at sequence {wal} but system has processed {system} records")
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            DurabilityError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<CodecError> for DurabilityError {
    fn from(e: CodecError) -> Self {
        DurabilityError::Codec(e)
    }
}
