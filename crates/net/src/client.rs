//! The feeder client: robust delivery of a position stream over TCP.
//!
//! ## Delivery contract
//!
//! [`NetClient::send`] stamps every record with a monotonic **session
//! sequence** and holds it in a bounded unacked window until the server's
//! cumulative ACK watermark passes it. If the connection dies — reset,
//! corruption, stall, dead peer — the client reconnects under capped
//! exponential backoff with seeded jitter, re-handshakes, prunes the
//! window to the server's acknowledged watermark, and replays the unacked
//! suffix. The server deduplicates by sequence, so the merged stream the
//! topic sees is exactly-once regardless of how many times the wire
//! failed: [`NetClient::finish`] after [`NetClient::flush`] yields output
//! bit-identical to an uninterrupted run.
//!
//! ## Batching on the wire (DESIGN §12.7)
//!
//! `send` encodes frames onto one `out` buffer, written with a single
//! `write_all` and followed by one non-blocking ACK drain when it reaches
//! `COALESCE_BYTES` (8 KiB), when the previous socket write is
//! `COALESCE_LINGER` (1 ms) old, or before anything that blocks or ends. A
//! feeder slower than the linger is therefore write-through, and one that
//! keeps sending holds no record longer than the linger plus one
//! inter-arrival gap. A frame in `out` is never the only copy of its
//! record — the window has it — so a reconnect discards `out` and replays.
//!
//! ## Liveness
//!
//! Heartbeats flow every `heartbeat_interval`; their echoed nonce feeds
//! the `net.client.rtt_us` histogram. A connection that produces no
//! inbound traffic for `dead_after` is declared dead and replaced. Backoff
//! resets only when a post-handshake ACK arrives — a server that accepts
//! connections but refuses records keeps the retry rate decaying.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

use datacron_geo::PositionReport;
use datacron_obs::{Counter, LogHistogram, ObsRegistry};

use crate::backoff::{Backoff, BackoffConfig};
use crate::wire::{self, FrameReader, NackReason, WireMsg, PROTOCOL_VERSION};
use crate::NetError;

/// `out` is written once it holds this many bytes (≈ 90 record frames).
const COALESCE_BYTES: usize = 8 * 1024;
/// `out` is written by the first `send` that finds the previous socket
/// write this old: the hold time batching may add while the feeder sends.
const COALESCE_LINGER: Duration = Duration::from_millis(1);

/// Tuning for [`NetClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `"127.0.0.1:7400"`.
    pub addr: String,
    /// Stable session identity; reconnects resume under the same id.
    pub session_id: u64,
    /// TCP connect deadline per attempt.
    pub connect_timeout: Duration,
    /// Socket read timeout (one blocking pump tick).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Send a heartbeat after this much time without one.
    pub heartbeat_interval: Duration,
    /// Declare the peer dead after this long without any inbound frame.
    pub dead_after: Duration,
    /// Reconnect backoff policy.
    pub backoff: BackoffConfig,
    /// Maximum unacknowledged records held for replay; `send` blocks
    /// (draining ACKs) once the window is full.
    pub window: usize,
    /// Consecutive failed connection attempts before
    /// [`NetError::PeerUnavailable`].
    pub max_connect_attempts: u32,
}

impl ClientConfig {
    /// Defaults for `addr` under session `session_id`.
    pub fn new(addr: impl Into<String>, session_id: u64) -> Self {
        Self {
            addr: addr.into(),
            session_id,
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(1),
            heartbeat_interval: Duration::from_millis(500),
            dead_after: Duration::from_secs(5),
            backoff: BackoffConfig::default(),
            window: 256,
            max_connect_attempts: 50,
        }
    }
}

/// Counters describing one client's life so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Records handed to [`NetClient::send`] (each stamped once).
    pub sent: u64,
    /// Record frames rewritten during window replays after reconnects.
    pub replayed: u64,
    /// Acknowledged watermark: every sequence below this is durable
    /// server-side.
    pub acked: u64,
    /// Successful re-establishments after the first connection.
    pub reconnects: u64,
    /// Typed NACK frames received.
    pub nacks_seen: u64,
    /// Inbound frames that failed CRC/framing validation.
    pub crc_errors: u64,
    /// Heartbeats sent.
    pub heartbeats: u64,
    /// Socket writes after the handshake: `(sent + replayed) / writes`
    /// frames went out per write.
    pub writes: u64,
}

/// One live connection's state.
struct Conn {
    stream: TcpStream,
    /// Per-connection wire frame counter for control messages.
    wire_seq: u64,
    /// Session sequences below this were already framed for *this*
    /// connection (replay high-water), so `send` never double-writes.
    sent_up_to: u64,
    last_write: Instant,
    last_rx: Instant,
    last_hb_sent: Instant,
    outstanding_hb: Option<(u64, Instant)>,
}

/// A fault-tolerant feeder. See the module docs for the delivery contract.
pub struct NetClient {
    cfg: ClientConfig,
    conn: Option<Conn>,
    /// Unacked `(session_seq, report)` pairs, ordered by sequence.
    window: VecDeque<(u64, PositionReport)>,
    next_seq: u64,
    acked: u64,
    finish_acked: Option<u64>,
    ever_connected: bool,
    backoff: Backoff,
    stats: ClientStats,
    reader: FrameReader,
    /// Frames encoded for the live connection and not yet written, and
    /// the payload buffer reused to encode them.
    out: Vec<u8>,
    scratch: Vec<u8>,
    hb_nonce: u64,
    reconnects_c: Counter,
    sessions_lost_c: Counter,
    writes_c: Counter,
    crc_errors_c: Counter,
    backoff_ms_h: LogHistogram,
    rtt_us_h: LogHistogram,
}

/// Errors that a reconnect-and-resume cycle can heal; everything else is
/// surfaced to the caller.
fn recoverable(e: &NetError) -> bool {
    match e {
        NetError::Io(_)
        | NetError::Codec(_)
        | NetError::CorruptFrame
        | NetError::ConnectionClosed
        | NetError::Timeout
        | NetError::Protocol(_) => true,
        NetError::Nacked { reason, .. } => *reason != NackReason::BadVersion,
        NetError::PeerUnavailable { .. }
        | NetError::LossyTopicPolicy
        | NetError::SessionLost { .. } => false,
    }
}

impl NetClient {
    /// Connect (with retries under the backoff policy) and handshake.
    pub fn connect(cfg: ClientConfig, obs: &ObsRegistry) -> Result<NetClient, NetError> {
        let backoff = Backoff::new(cfg.backoff);
        let mut client = NetClient {
            conn: None,
            window: VecDeque::new(),
            next_seq: 0,
            acked: 0,
            finish_acked: None,
            ever_connected: false,
            backoff,
            stats: ClientStats::default(),
            reader: FrameReader::default(),
            out: Vec::with_capacity(2 * COALESCE_BYTES),
            scratch: Vec::new(),
            hb_nonce: 0,
            reconnects_c: obs.counter("net.client.reconnects"),
            sessions_lost_c: obs.counter("net.client.sessions_lost"),
            writes_c: obs.counter("net.client.writes"),
            crc_errors_c: obs.counter("net.frame.crc_errors"),
            backoff_ms_h: obs.histogram("net.client.backoff_ms"),
            rtt_us_h: obs.histogram("net.client.rtt_us"),
            cfg,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats.clone()
    }

    /// Records stamped but not yet acknowledged.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Next session sequence to be stamped (= records sent so far).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Deliver one record. Returns once the record is stamped, windowed
    /// and framed (delivery then survives any number of reconnects);
    /// blocks draining ACKs when the window is full.
    ///
    /// The frame reaches the socket now if the line was quiet for
    /// `COALESCE_LINGER` (1 ms) or the buffer reached `COALESCE_BYTES`;
    /// otherwise with the next client call that writes. A burst's tail of
    /// under 8 KiB therefore waits for that next call: a feeder going quiet
    /// calls [`flush`](Self::flush).
    pub fn send(&mut self, report: PositionReport) -> Result<(), NetError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.push_back((seq, report));
        self.stats.sent += 1;
        loop {
            self.ensure_connected()?;
            match self.send_step(seq) {
                Ok(()) => return Ok(()),
                Err(e) if recoverable(&e) => self.drop_conn(),
                Err(e) => return Err(e),
            }
        }
    }

    /// Block until every stamped record is acknowledged.
    pub fn flush(&mut self) -> Result<(), NetError> {
        while !self.window.is_empty() {
            self.ensure_connected()?;
            match self.pump(true) {
                Ok(()) => {}
                Err(e) if recoverable(&e) => self.drop_conn(),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Flush, exchange the finish marker, and return the final counters.
    pub fn finish(mut self) -> Result<ClientStats, NetError> {
        self.flush()?;
        let total = self.next_seq;
        loop {
            self.ensure_connected()?;
            match self.finish_step(total) {
                Ok(()) => return Ok(self.stats.clone()),
                Err(e) if recoverable(&e) => self.drop_conn(),
                Err(e) => return Err(e),
            }
        }
    }

    /// Fault hook for drills and tests: shut the live socket down without
    /// telling the client state machine, exactly as a crashed link would.
    /// The next operation discovers the dead socket and resumes.
    pub fn sever_connection(&mut self) {
        if let Some(conn) = &self.conn {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
    }

    /// Establish (or re-establish) the connection, re-handshake, prune
    /// the window to the server's watermark and replay the rest.
    fn ensure_connected(&mut self) -> Result<(), NetError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut attempts = 0u32;
        loop {
            if attempts > 0 || self.ever_connected {
                let delay = self.backoff.next_delay();
                self.backoff_ms_h.record(delay.as_millis() as u64);
                thread::sleep(delay);
            }
            attempts += 1;
            match self.try_connect() {
                Ok(conn) => {
                    if self.ever_connected {
                        self.stats.reconnects += 1;
                        self.reconnects_c.inc();
                    }
                    self.ever_connected = true;
                    self.conn = Some(conn);
                    match self.replay_window() {
                        Ok(()) => return Ok(()),
                        Err(e) if recoverable(&e) => {
                            self.drop_conn();
                            // fall through to retry under the attempt cap
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(e) if !recoverable(&e) => return Err(e),
                Err(_) => {}
            }
            if self.conn.is_none() && attempts >= self.cfg.max_connect_attempts {
                return Err(NetError::PeerUnavailable { attempts });
            }
        }
    }

    /// One TCP connect + Hello/HelloAck handshake.
    fn try_connect(&mut self) -> Result<Conn, NetError> {
        let addr = self
            .cfg
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or(NetError::Protocol("unresolvable server address"))?;
        let stream = TcpStream::connect_timeout(&addr, self.cfg.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.cfg.read_timeout))?;
        stream.set_write_timeout(Some(self.cfg.write_timeout))?;

        // Bytes buffered from or for the previous connection died with it;
        // `replay_window` re-frames everything unacknowledged.
        self.reader = FrameReader::default();
        self.out.clear();
        let mut wire_seq = 0u64;
        let hello =
            WireMsg::Hello { version: PROTOCOL_VERSION, session_id: self.cfg.session_id };
        wire::write_msg(&mut (&stream), wire_seq, &hello)?;
        wire_seq += 1;

        let deadline = Instant::now() + self.cfg.dead_after;
        loop {
            match self.reader.next_msg(&mut &stream) {
                Ok(Some((_, WireMsg::HelloAck { session_id, ack }))) => {
                    if session_id != self.cfg.session_id {
                        return Err(NetError::Protocol("handshake echoed wrong session"));
                    }
                    self.apply_ack(ack, true)?;
                    let now = Instant::now();
                    return Ok(Conn {
                        stream,
                        wire_seq,
                        sent_up_to: 0,
                        last_write: now,
                        last_rx: now,
                        last_hb_sent: now,
                        outstanding_hb: None,
                    });
                }
                Ok(Some((_, WireMsg::Nack { seq, reason }))) => {
                    self.stats.nacks_seen += 1;
                    return Err(NetError::Nacked { seq, reason });
                }
                Ok(Some(_)) => return Err(NetError::Protocol("unexpected handshake reply")),
                Ok(None) => {
                    if Instant::now() > deadline {
                        return Err(NetError::Timeout);
                    }
                }
                Err(NetError::CorruptFrame) => {
                    self.stats.crc_errors += 1;
                    self.crc_errors_c.inc();
                    return Err(NetError::CorruptFrame);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Rewrite every windowed record on the fresh connection, in order.
    fn replay_window(&mut self) -> Result<(), NetError> {
        for i in 0..self.window.len() {
            let (seq, report) = self.window[i];
            self.frame_record(seq, report);
            self.stats.replayed += 1;
            if self.out.len() >= COALESCE_BYTES {
                self.write_out()?;
            }
        }
        self.conn.as_mut().expect("replay without connection").sent_up_to = self.next_seq;
        self.write_out()
    }

    /// Encode one record frame onto `out`.
    fn frame_record(&mut self, seq: u64, report: PositionReport) {
        let msg = WireMsg::Record { session_seq: seq, report };
        wire::encode_msg_into(seq, &msg, &mut self.scratch, &mut self.out);
    }

    /// Encode one control frame onto `out` and write everything buffered.
    fn write_control(&mut self, msg: &WireMsg) -> Result<(), NetError> {
        let conn = self.conn.as_mut().ok_or(NetError::ConnectionClosed)?;
        let seq = conn.wire_seq;
        conn.wire_seq += 1;
        wire::encode_msg_into(seq, msg, &mut self.scratch, &mut self.out);
        self.write_out()
    }

    /// Put `out` on the socket with one `write_all`.
    fn write_out(&mut self) -> Result<(), NetError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let conn = self.conn.as_mut().ok_or(NetError::ConnectionClosed)?;
        (&conn.stream).write_all(&self.out)?;
        self.out.clear();
        conn.last_write = Instant::now();
        self.stats.writes += 1;
        self.writes_c.inc();
        Ok(())
    }

    /// Drain the window below the cap, frame the new record, and — when the
    /// size or linger rule says so — write the batch and drain ACKs.
    fn send_step(&mut self, seq: u64) -> Result<(), NetError> {
        while self.window.len() > self.cfg.window {
            self.pump(true)?;
        }
        // Already acknowledged while draining (possible after a resume)?
        if seq < self.acked {
            return Ok(());
        }
        let conn = self.conn.as_mut().ok_or(NetError::ConnectionClosed)?;
        let last_write = conn.last_write;
        if seq >= conn.sent_up_to {
            // Not covered by this connection's replay: frame it now.
            conn.sent_up_to = seq + 1;
            let front = self.window.front().map(|(s, _)| *s).unwrap_or(self.next_seq);
            let report = self.window[(seq - front) as usize].1;
            self.frame_record(seq, report);
        }
        if self.out.len() >= COALESCE_BYTES || last_write.elapsed() >= COALESCE_LINGER {
            self.write_out()?;
            self.pump(false)?;
        }
        Ok(())
    }

    /// Exchange the finish marker and wait for its acknowledgement.
    fn finish_step(&mut self, total: u64) -> Result<(), NetError> {
        self.write_control(&WireMsg::Finish { total })?;
        let deadline = Instant::now() + self.cfg.dead_after;
        loop {
            let res = self.pump(true);
            // The server closes the connection right after FinishAck, so
            // one pump tick can deliver the ack *and* hit EOF; the ack
            // wins — reconnecting just to re-finish would be spurious.
            if self.finish_acked == Some(total) {
                return Ok(());
            }
            res?;
            if Instant::now() > deadline {
                return Err(NetError::Timeout);
            }
        }
    }

    /// One pump tick: one socket read (when `block`, `out` is written
    /// first and the read waits up to the read timeout; else non-blocking)
    /// and every frame it buffered, then heartbeat and dead-peer checks.
    fn pump(&mut self, block: bool) -> Result<(), NetError> {
        if block {
            self.write_out()?;
        }
        let conn = self.conn.as_ref().ok_or(NetError::ConnectionClosed)?;
        let mut next = if block {
            self.reader.next_msg(&mut &conn.stream)
        } else {
            self.reader.poll_msg(&conn.stream)
        };
        loop {
            match next {
                Ok(Some((_, msg))) => {
                    if let Some(c) = self.conn.as_mut() {
                        c.last_rx = Instant::now();
                    }
                    self.process_msg(msg)?;
                }
                Ok(None) => break,
                Err(NetError::CorruptFrame) => {
                    self.stats.crc_errors += 1;
                    self.crc_errors_c.inc();
                    return Err(NetError::CorruptFrame);
                }
                Err(e) => return Err(e),
            }
            next = self.reader.buffered_msg();
        }

        let conn = self.conn.as_mut().ok_or(NetError::ConnectionClosed)?;
        if conn.last_rx.elapsed() > self.cfg.dead_after {
            // Nothing inbound for too long — declare the peer dead so the
            // caller reconnects instead of waiting forever.
            return Err(NetError::Timeout);
        }
        if conn.last_hb_sent.elapsed() >= self.cfg.heartbeat_interval {
            let nonce = self.hb_nonce;
            self.hb_nonce += 1;
            let now = Instant::now();
            conn.last_hb_sent = now;
            conn.outstanding_hb = Some((nonce, now));
            self.stats.heartbeats += 1;
            self.write_control(&WireMsg::Heartbeat { nonce })?;
        }
        Ok(())
    }

    /// Apply one inbound post-handshake message.
    fn process_msg(&mut self, msg: WireMsg) -> Result<(), NetError> {
        match msg {
            WireMsg::Ack { up_to } => self.apply_ack(up_to, false),
            WireMsg::HeartbeatAck { nonce } => {
                if let Some(conn) = self.conn.as_mut() {
                    if let Some((expected, sent_at)) = conn.outstanding_hb {
                        if nonce == expected {
                            conn.outstanding_hb = None;
                            self.rtt_us_h.record(sent_at.elapsed().as_micros() as u64);
                        }
                        // A stale nonce is a duplicated frame: ignore.
                    }
                }
                Ok(())
            }
            WireMsg::Nack { seq, reason } => {
                self.stats.nacks_seen += 1;
                Err(NetError::Nacked { seq, reason })
            }
            WireMsg::FinishAck { total } => {
                self.finish_acked = Some(total);
                Ok(())
            }
            // A duplicated HelloAck (fault proxy): its watermark is still
            // authoritative.
            WireMsg::HelloAck { ack, .. } => self.apply_ack(ack, true),
            _ => Err(NetError::Protocol("client-bound message expected")),
        }
    }

    /// Advance the acknowledged watermark: prune the window and (for real
    /// post-handshake ACKs) reset the reconnect backoff. A handshake
    /// watermark below one already acknowledged means the server forgot
    /// the session: [`NetError::SessionLost`]. Every `HelloAck` carries the
    /// session's current watermark, so a duplicated one cannot trip this.
    fn apply_ack(&mut self, up_to: u64, handshake: bool) -> Result<(), NetError> {
        if up_to > self.next_seq {
            return Err(NetError::Protocol("ack beyond the sent window"));
        }
        if handshake && up_to < self.acked {
            self.sessions_lost_c.inc();
            return Err(NetError::SessionLost { server_ack: up_to, client_acked: self.acked });
        }
        while let Some(&(seq, _)) = self.window.front() {
            if seq < up_to {
                self.window.pop_front();
            } else {
                break;
            }
        }
        if up_to > self.acked {
            self.acked = up_to;
        }
        self.stats.acked = self.acked;
        if !handshake {
            self.backoff.reset();
        }
        Ok(())
    }
}
