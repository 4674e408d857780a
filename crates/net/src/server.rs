//! The ingestion server: accepts TCP connections and bridges them onto an
//! in-process [`Topic<PositionReport>`].
//!
//! ## Admission control
//!
//! The bridged topic's [`OverflowPolicy`] maps onto the wire:
//!
//! * `Block` — the handler parks in the publish loop until consumers free
//!   space. While parked it does not read its socket, so the kernel's
//!   receive window fills and the remote client blocks in `write`: topic
//!   backpressure becomes TCP backpressure, end to end.
//! * `RejectNew` — a full topic refuses the record with a typed
//!   [`NackReason::TopicFull`] frame and closes the connection; the
//!   client's reconnect backoff doubles as the flow-control retry timer.
//! * `DropOldest` on a **bounded** topic is refused at bind time
//!   ([`NetError::LossyTopicPolicy`]): the server would acknowledge records
//!   it later silently discards, which breaks the exactly-once contract.
//!   (Unbounded `DropOldest` topics are lossless and accepted.)
//!
//! ## Session resume
//!
//! Sessions are keyed by the client-chosen `session_id` and **outlive
//! connections**: the per-session high watermark (`next_expected`) stays in
//! the server's session table across disconnects. On `Hello` the server
//! replies with the watermark so the client can prune its replay window;
//! records below the watermark are duplicates (counted, re-acked, not
//! published), records above it are a gap (NACK + close, forcing a
//! resume), and only the exact next sequence is published — exactly-once
//! onto the topic no matter how often the wire fails mid-stream.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LockResult, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use datacron_geo::PositionReport;
use datacron_obs::{Counter, Gauge, ObsRegistry};
use datacron_stream::{OverflowPolicy, PublishError, SpaceWaitError, Topic};

use crate::wire::{self, FrameReader, NackReason, WireMsg, PROTOCOL_VERSION};
use crate::{NetError, NetHealth};

/// Tuning for [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent post-handshake connections; further handshakes
    /// are refused with [`NackReason::SessionLimit`].
    pub max_sessions: usize,
    /// Send a cumulative [`WireMsg::Ack`] after at most this many records;
    /// sooner whenever the batch read from the socket is used up (and on
    /// every heartbeat).
    pub ack_every: u64,
    /// Socket read timeout; also the granularity at which handlers notice
    /// shutdown and idle peers.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Close a connection that has been silent this long.
    pub idle_timeout: Duration,
    /// Per-iteration wait inside the blocked-publish loop, used to detect
    /// the consumers-all-dropped condition promptly.
    pub publish_retry: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_sessions: 64,
            ack_every: 32,
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(1),
            idle_timeout: Duration::from_secs(30),
            publish_retry: Duration::from_millis(20),
        }
    }
}

/// Point-in-time view of one session, for drills and debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// The client-chosen session identity.
    pub session_id: u64,
    /// Next session sequence the server expects (= records ingested).
    pub next_expected: u64,
    /// Redelivered records deduplicated by sequence.
    pub duplicates: u64,
    /// `Some(total)` once the client's finish marker was accepted.
    pub finished: Option<u64>,
}

/// Per-session resume state; outlives individual connections.
#[derive(Debug, Default)]
struct SessionState {
    next_expected: u64,
    duplicates: u64,
    finished: Option<u64>,
}

/// Obs instruments, resolved once at bind time and shared by every
/// handler thread (a disabled registry hands out detached instruments, so
/// resolving once keeps reads and writes on the same instrument).
struct NetCounters {
    active: Gauge,
    sessions: Counter,
    records: Counter,
    reads: Counter,
    duplicates: Counter,
    nacks: Counter,
    crc_errors: Counter,
}

impl NetCounters {
    fn resolve(obs: &ObsRegistry) -> Self {
        Self {
            active: obs.gauge("net.server.active_sessions"),
            sessions: obs.counter("net.server.sessions"),
            records: obs.counter("net.server.records"),
            reads: obs.counter("net.server.reads"),
            duplicates: obs.counter("net.server.duplicates"),
            nacks: obs.counter("net.server.nacks"),
            crc_errors: obs.counter("net.frame.crc_errors"),
        }
    }
}

/// Decrements the active-session gauge on every handler exit path.
struct ActiveGuard(Arc<NetCounters>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active.sub(1);
    }
}

type SessionMap = HashMap<u64, Arc<Mutex<SessionState>>>;

/// Takes a lock's guard whether or not it is poisoned: one handler that
/// panicked must not turn every later handshake, snapshot and shutdown
/// into a panic too. Sound because nothing here is left half-updated —
/// `SessionState` advances only after a successful publish, the session
/// table and handler list change by single inserts and removals.
fn relock<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A running ingestion server. Dropping (or [`shutdown`](Self::shutdown))
/// stops the accept loop and joins every handler thread.
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: Arc<NetCounters>,
    sessions: Arc<Mutex<SessionMap>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting feeders into
    /// `topic`. Refuses lossy topics — see the module docs.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        topic: Arc<Topic<PositionReport>>,
        obs: &ObsRegistry,
    ) -> Result<NetServer, NetError> {
        let cfg = topic.config();
        if cfg.capacity.is_some() && cfg.policy == OverflowPolicy::DropOldest {
            return Err(NetError::LossyTopicPolicy);
        }

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::resolve(obs));
        let sessions: Arc<Mutex<SessionMap>> = Arc::new(Mutex::new(HashMap::new()));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let sessions = Arc::clone(&sessions);
            let handlers = Arc::clone(&handlers);
            let config = config.clone();
            thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || {
                    accept_loop(listener, config, topic, stop, counters, sessions, handlers)
                })
                .map_err(NetError::Io)?
        };

        Ok(NetServer { local_addr, stop, accept: Some(accept), handlers, counters, sessions })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot the server-side network health.
    pub fn health(&self) -> NetHealth {
        NetHealth {
            active_sessions: self.counters.active.get().max(0) as u64,
            sessions_started: self.counters.sessions.get(),
            records_ingested: self.counters.records.get(),
            duplicates_dropped: self.counters.duplicates.get(),
            nacks_sent: self.counters.nacks.get(),
            crc_errors: self.counters.crc_errors.get(),
        }
    }

    /// Snapshot one session's resume state.
    pub fn session(&self, session_id: u64) -> Option<SessionSnapshot> {
        let map = relock(self.sessions.lock());
        map.get(&session_id).map(|st| snapshot(session_id, st))
    }

    /// Snapshot every session ever seen, sorted by id.
    pub fn sessions(&self) -> Vec<SessionSnapshot> {
        let map = relock(self.sessions.lock());
        let mut all: Vec<_> = map.iter().map(|(id, st)| snapshot(*id, st)).collect();
        all.sort_by_key(|s| s.session_id);
        all
    }

    /// Stop accepting, close handlers, join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let drained: Vec<_> = relock(self.handlers.lock()).drain(..).collect();
        for h in drained {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn snapshot(session_id: u64, st: &Arc<Mutex<SessionState>>) -> SessionSnapshot {
    let st = relock(st.lock());
    SessionSnapshot {
        session_id,
        next_expected: st.next_expected,
        duplicates: st.duplicates,
        finished: st.finished,
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    config: ServerConfig,
    topic: Arc<Topic<PositionReport>>,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    sessions: Arc<Mutex<SessionMap>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                if counters.active.get() >= config.max_sessions as i64 {
                    counters.nacks.inc();
                    let _ = stream.set_write_timeout(Some(config.write_timeout));
                    let _ = wire::write_msg(
                        &mut (&stream),
                        0,
                        &WireMsg::Nack { seq: 0, reason: NackReason::SessionLimit },
                    );
                    continue;
                }
                let config = config.clone();
                let topic = Arc::clone(&topic);
                let stop = Arc::clone(&stop);
                let counters = Arc::clone(&counters);
                let sessions = Arc::clone(&sessions);
                let spawned = thread::Builder::new().name("net-conn".into()).spawn(move || {
                    handle_conn(stream, config, topic, stop, counters, sessions)
                });
                if let Ok(h) = spawned {
                    // Reap handlers that have exited, so a flapping feeder
                    // does not grow the list by one handle per reconnect.
                    let mut live = relock(handlers.lock());
                    let (done, running): (Vec<_>, Vec<_>) =
                        live.drain(..).partition(JoinHandle::is_finished);
                    *live = running;
                    live.push(h);
                    for finished in done {
                        let _ = finished.join();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Outcome of trying to publish one admitted record onto the topic.
enum Admit {
    Ok,
    Reject,
    Stop,
}

fn publish_admitted(
    topic: &Topic<PositionReport>,
    report: PositionReport,
    config: &ServerConfig,
    stop: &AtomicBool,
) -> Admit {
    let mut msg = report;
    loop {
        match topic.try_publish(msg) {
            Ok(_) => return Admit::Ok,
            // RejectNew: hand the refusal to the client as a typed NACK.
            Err(PublishError::Rejected(_)) => return Admit::Reject,
            // Block: no space within block_timeout, or consumers vanished.
            Err(PublishError::Timeout(m)) => {
                if stop.load(Ordering::SeqCst) {
                    return Admit::Stop;
                }
                match topic.wait_for_space(config.publish_retry) {
                    // Space appeared, or plain timeout: keep applying
                    // backpressure by staying parked off the socket.
                    Ok(()) | Err(SpaceWaitError::Timeout) => msg = m,
                    // Nobody left to drain the topic: admitting more
                    // records would strand them. Refuse.
                    Err(SpaceWaitError::NoConsumers) => return Admit::Reject,
                }
            }
        }
    }
}

fn handle_conn(
    stream: TcpStream,
    config: ServerConfig,
    topic: Arc<Topic<PositionReport>>,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    sessions: Arc<Mutex<SessionMap>>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));

    let mut reader = FrameReader::new(counters.reads.clone());
    let mut wire_seq = 0u64;
    let send = |msg: &WireMsg, wire_seq: &mut u64| -> bool {
        let seq = *wire_seq;
        *wire_seq += 1;
        wire::write_msg(&mut (&stream), seq, msg).is_ok()
    };

    // Handshake: the first frame must be a valid Hello.
    let hello_deadline = Instant::now() + config.idle_timeout;
    let session_id = loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match reader.next_msg(&mut &stream) {
            Ok(Some((_, WireMsg::Hello { version, session_id }))) => {
                if version != PROTOCOL_VERSION {
                    counters.nacks.inc();
                    send(&WireMsg::Nack { seq: 0, reason: NackReason::BadVersion }, &mut wire_seq);
                    return;
                }
                break session_id;
            }
            Ok(Some(_)) => return, // protocol violation: not a Hello
            Ok(None) => {
                if Instant::now() > hello_deadline {
                    return;
                }
            }
            Err(NetError::CorruptFrame) | Err(NetError::Codec(_)) => {
                counters.crc_errors.inc();
                return;
            }
            Err(_) => return,
        }
    };

    let session = {
        let mut map = relock(sessions.lock());
        Arc::clone(map.entry(session_id).or_default())
    };
    counters.sessions.inc();
    counters.active.add(1);
    let _active = ActiveGuard(Arc::clone(&counters));

    let ack0 = relock(session.lock()).next_expected;
    if !send(&WireMsg::HelloAck { session_id, ack: ack0 }, &mut wire_seq) {
        return;
    }

    let mut unacked = 0u64;
    let mut last_rx = Instant::now();
    loop {
        if stop.load(Ordering::SeqCst) {
            let up_to = relock(session.lock()).next_expected;
            send(&WireMsg::Ack { up_to }, &mut wire_seq);
            return;
        }
        // No record waits for its acknowledgement while this waits on the
        // socket: the record arm acks as soon as the buffered batch is used up.
        let msg = match reader.next_msg(&mut &stream) {
            Ok(Some((_, msg))) => msg,
            Ok(None) => {
                if last_rx.elapsed() > config.idle_timeout {
                    return;
                }
                continue;
            }
            Err(NetError::CorruptFrame) | Err(NetError::Codec(_)) => {
                // Damaged bytes in flight: the stream alignment is gone.
                // Close; resume redelivers everything unacknowledged.
                counters.crc_errors.inc();
                return;
            }
            Err(_) => return, // closed / stalled / io error
        };
        last_rx = Instant::now();

        match msg {
            // A duplicated Hello frame (fault proxy) — re-ack idempotently.
            WireMsg::Hello { version, .. } => {
                if version != PROTOCOL_VERSION {
                    return;
                }
                let ack = relock(session.lock()).next_expected;
                if !send(&WireMsg::HelloAck { session_id, ack }, &mut wire_seq) {
                    return;
                }
            }
            WireMsg::Record { session_seq, report } => {
                // Hold the session lock across check+publish+advance so a
                // lingering half-dead connection for the same session
                // cannot interleave and double-publish.
                let mut st = relock(session.lock());
                if session_seq < st.next_expected {
                    // Redelivery after resume: drop, re-ack to resync.
                    st.duplicates += 1;
                    counters.duplicates.inc();
                    let up_to = st.next_expected;
                    drop(st);
                    if !send(&WireMsg::Ack { up_to }, &mut wire_seq) {
                        return;
                    }
                    unacked = 0;
                } else if session_seq > st.next_expected {
                    // Frames vanished in flight; force a resume.
                    let expected = st.next_expected;
                    drop(st);
                    counters.nacks.inc();
                    send(
                        &WireMsg::Nack { seq: expected, reason: NackReason::SequenceGap },
                        &mut wire_seq,
                    );
                    return;
                } else {
                    match publish_admitted(&topic, report, &config, &stop) {
                        Admit::Ok => {
                            st.next_expected += 1;
                            let up_to = st.next_expected;
                            drop(st);
                            counters.records.inc();
                            unacked += 1;
                            // One cumulative ACK per drained batch: when
                            // the next record would cost a socket read, or
                            // `ack_every` caps a long buffered run.
                            if unacked >= config.ack_every || !reader.has_buffered_frame() {
                                if !send(&WireMsg::Ack { up_to }, &mut wire_seq) {
                                    return;
                                }
                                unacked = 0;
                            }
                        }
                        Admit::Reject => {
                            drop(st);
                            counters.nacks.inc();
                            send(
                                &WireMsg::Nack {
                                    seq: session_seq,
                                    reason: NackReason::TopicFull,
                                },
                                &mut wire_seq,
                            );
                            return;
                        }
                        Admit::Stop => return,
                    }
                }
            }
            WireMsg::Heartbeat { nonce } => {
                let up_to = relock(session.lock()).next_expected;
                if !send(&WireMsg::Ack { up_to }, &mut wire_seq) {
                    return;
                }
                unacked = 0;
                if !send(&WireMsg::HeartbeatAck { nonce }, &mut wire_seq) {
                    return;
                }
            }
            WireMsg::Finish { total } => {
                let mut st = relock(session.lock());
                if st.next_expected == total {
                    st.finished = Some(total);
                    drop(st);
                    if !send(&WireMsg::Ack { up_to: total }, &mut wire_seq) {
                        return;
                    }
                    send(&WireMsg::FinishAck { total }, &mut wire_seq);
                } else {
                    // The finish marker outran lost records (or arrived
                    // stale and duplicated): force a resume.
                    let expected = st.next_expected;
                    drop(st);
                    counters.nacks.inc();
                    send(
                        &WireMsg::Nack { seq: expected, reason: NackReason::SequenceGap },
                        &mut wire_seq,
                    );
                }
                return;
            }
            // Server-bound protocol only; anything else is a violation.
            _ => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientConfig, NetClient};
    use datacron_geo::{EntityId, GeoPoint, Timestamp};

    fn report(i: i64) -> PositionReport {
        PositionReport::basic(EntityId::vessel(1), Timestamp::from_secs(i), GeoPoint::new(1.0, 40.0))
    }

    fn client_config(server: &NetServer, session_id: u64) -> ClientConfig {
        let mut cfg = ClientConfig::new(server.local_addr().to_string(), session_id);
        cfg.backoff.base = Duration::from_millis(1);
        cfg.backoff.cap = Duration::from_millis(10);
        cfg
    }

    #[test]
    fn finished_handlers_are_reaped_as_connections_come_and_go() {
        let topic: Arc<Topic<PositionReport>> = Topic::new("net.reap");
        let _consumer = topic.consumer();
        let obs = ObsRegistry::disabled();
        let server = NetServer::bind("127.0.0.1:0", ServerConfig::default(), topic, &obs).unwrap();
        let mut most = 0;
        for session_id in 0..50 {
            let mut client = NetClient::connect(client_config(&server, session_id), &obs).unwrap();
            client.send(report(0)).unwrap();
            client.finish().unwrap();
            most = most.max(relock(server.handlers.lock()).len());
        }
        // A handler may still be exiting when the next connection is
        // accepted; fifty of them may not pile up.
        assert!(most <= 8, "{most} handles held after sequential connections");
        server.shutdown();
    }

    #[test]
    fn a_poisoned_session_lock_does_not_end_the_session() {
        let topic: Arc<Topic<PositionReport>> = Topic::new("net.poison");
        let mut consumer = topic.consumer();
        let obs = ObsRegistry::disabled();
        let server = NetServer::bind("127.0.0.1:0", ServerConfig::default(), topic, &obs).unwrap();
        let mut client = NetClient::connect(client_config(&server, 9), &obs).unwrap();
        for i in 0..5 {
            client.send(report(i)).unwrap();
        }
        client.flush().unwrap();

        // A handler thread dies holding the session lock.
        let session = Arc::clone(&relock(server.sessions.lock())[&9]);
        let poisoner = thread::spawn(move || {
            let _held = session.lock().unwrap();
            panic!("poison the session lock");
        });
        assert!(poisoner.join().is_err());

        // Snapshots still work, and a later connection of the same session
        // handshakes and resumes at the watermark.
        assert_eq!(server.session(9).unwrap().next_expected, 5);
        client.sever_connection();
        for i in 5..10 {
            client.send(report(i)).unwrap();
        }
        let stats = client.finish().unwrap();
        assert!(stats.reconnects >= 1);
        assert_eq!(stats.acked, 10);
        let snap = server.session(9).unwrap();
        assert_eq!((snap.next_expected, snap.duplicates, snap.finished), (10, 0, Some(10)));
        assert_eq!(consumer.drain().unwrap(), (0..10).map(report).collect::<Vec<_>>());
        server.shutdown();
    }
}
