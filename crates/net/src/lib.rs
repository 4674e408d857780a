#![warn(missing_docs)]

//! # datacron-net
//!
//! Fault-tolerant networked ingestion for the datAcron real-time layer: a
//! TCP bus that carries [`datacron_geo::PositionReport`] streams from remote
//! feeders into the in-process [`datacron_stream::Topic`] bus.
//!
//! The paper's deployment delegates this to Kafka: surveillance feeds enter
//! the cluster over the network, brokers absorb disconnects, and consumer
//! offsets make redelivery exactly-once. This crate rebuilds that ingestion
//! edge natively on `std::net` (zero external crates, like the rest of the
//! workspace):
//!
//! * [`wire`] — the framed wire protocol. Every message rides in the same
//!   `[len | crc32 | seq | payload]` frame the write-ahead log uses
//!   ([`datacron_durability::framing`]), so a bit flip anywhere on the wire
//!   is detected exactly like a bit flip on disk. Every socket reads
//!   through one buffered [`wire::FrameReader`].
//! * [`backoff`] — capped exponential reconnect backoff with deterministic
//!   seeded jitter: same seed, same delay sequence, every run.
//! * [`client`] — [`client::NetClient`]: connect/read/write timeouts,
//!   heartbeats with dead-peer detection, and **session resume** — records
//!   are stamped with a monotonic session sequence, held in a bounded
//!   unacked window, and replayed after reconnect; the server's cumulative
//!   ACK watermark plus sequence-level dedup makes delivery exactly-once.
//! * [`server`] — [`server::NetServer`]: accepts connections, bridges them
//!   onto a `Topic<PositionReport>`, and maps the topic's
//!   [`datacron_stream::OverflowPolicy`] to wire-level admission control
//!   (`Block` → TCP backpressure, `RejectNew` → typed NACK, `DropOldest`
//!   on a bounded topic refused outright: the wire may never silently drop
//!   an acknowledged record).
//! * [`proxy`] — [`proxy::FaultProxy`]: a wire-level chaos shim driven by
//!   the seeded [`datacron_stream::NetFaultPlan`] schedule — connection
//!   resets, byte truncation, in-frame bit flips, stalls and duplicated
//!   delivery, injected between client and server.
//!
//! Observability flows through [`datacron_obs::ObsRegistry`]
//! (`net.client.reconnects`, `net.client.backoff_ms`, `net.client.rtt_us`,
//! `net.client.writes`, `net.server.sessions`, `net.server.records`,
//! `net.server.reads`, `net.server.nacks`, `net.frame.crc_errors`), and
//! [`NetHealth`] snapshots the server side for `HealthReport`.

pub mod backoff;
pub mod client;
pub mod proxy;
pub mod server;
pub mod wire;

pub use backoff::{Backoff, BackoffConfig};
pub use client::{ClientConfig, ClientStats, NetClient};
pub use proxy::FaultProxy;
pub use server::{NetServer, ServerConfig, SessionSnapshot};
pub use wire::{NackReason, WireMsg, MAX_PAYLOAD_BYTES, PROTOCOL_VERSION};

use datacron_durability::CodecError;

/// Everything that can go wrong on the wire. Network damage is always
/// surfaced as one of these — never a panic, never silent loss.
#[derive(Debug)]
pub enum NetError {
    /// An underlying socket operation failed.
    Io(std::io::Error),
    /// A frame arrived intact (CRC passed) but its payload failed to
    /// decode: the peers disagree about the protocol.
    Codec(CodecError),
    /// A frame failed CRC or framing validation — bytes were damaged in
    /// flight. The connection is unusable past this point.
    CorruptFrame,
    /// The peer closed the connection.
    ConnectionClosed,
    /// A connect/read/write deadline expired mid-operation.
    Timeout,
    /// The peer violated the protocol (unexpected message, bad handshake).
    Protocol(&'static str),
    /// The server refused a record or session with a typed NACK.
    Nacked {
        /// Session sequence the NACK refers to (0 for session-level NACKs).
        seq: u64,
        /// Why the server refused.
        reason: NackReason,
    },
    /// Reconnect attempts were exhausted without reaching the server.
    PeerUnavailable {
        /// Consecutive failed connection attempts.
        attempts: u32,
    },
    /// The bridged topic is bounded with `OverflowPolicy::DropOldest`:
    /// forbidden over the wire, because the server would acknowledge
    /// records it later silently discards.
    LossyTopicPolicy,
    /// The server answered the handshake with a watermark below what it
    /// had already acknowledged to this client: it lost the session (it
    /// restarted with an empty session table). Replaying cannot heal this,
    /// because the server would wait for sequences the client has pruned.
    SessionLost {
        /// The watermark the server offered in its `HelloAck`.
        server_ack: u64,
        /// The watermark the client already holds acknowledged.
        client_acked: u64,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network I/O error: {e}"),
            NetError::Codec(e) => write!(f, "wire payload codec error: {e}"),
            NetError::CorruptFrame => write!(f, "corrupt frame on the wire (CRC mismatch)"),
            NetError::ConnectionClosed => write!(f, "peer closed the connection"),
            NetError::Timeout => write!(f, "network operation timed out"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Nacked { seq, reason } => {
                write!(f, "server refused sequence {seq}: {reason}")
            }
            NetError::PeerUnavailable { attempts } => {
                write!(f, "peer unavailable after {attempts} connection attempts")
            }
            NetError::LossyTopicPolicy => write!(
                f,
                "bounded DropOldest topic cannot back a network server: \
                 acknowledged records must never be silently dropped"
            ),
            NetError::SessionLost { server_ack, client_acked } => write!(
                f,
                "server lost the session: it acknowledges {server_ack} records, \
                 {client_acked} were already acknowledged"
            ),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

/// Point-in-time snapshot of the network server, surfaced as the
/// `NetHealth` section of the core `HealthReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetHealth {
    /// Connections currently attached (post-handshake).
    pub active_sessions: u64,
    /// Total handshakes accepted over the server's lifetime.
    pub sessions_started: u64,
    /// Records published onto the bridged topic.
    pub records_ingested: u64,
    /// Records re-delivered after resume and deduplicated by sequence.
    pub duplicates_dropped: u64,
    /// Typed NACK frames sent (admission refusals, sequence gaps).
    pub nacks_sent: u64,
    /// Frames that failed CRC or framing validation on arrival.
    pub crc_errors: u64,
}

impl NetHealth {
    /// True when the wire has seen no damage and no refusals.
    pub fn is_clean(&self) -> bool {
        self.nacks_sent == 0 && self.crc_errors == 0
    }
}
