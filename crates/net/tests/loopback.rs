//! Loopback integration tests for the wire protocol: clean round trips,
//! admission control per overflow policy, dead-peer handling, session
//! resume across a killed connection, and the batching contract (coalesced
//! writes on the feeder, one cumulative ACK per drained batch).

use std::sync::Arc;
use std::time::{Duration, Instant};

use datacron_geo::{EntityId, GeoPoint, PositionReport, Timestamp};
use datacron_net::{
    ClientConfig, NetClient, NetError, NetServer, ServerConfig, SessionSnapshot,
};
use datacron_obs::ObsRegistry;
use datacron_stream::{OverflowPolicy, Topic};

fn report(entity: u64, i: u64) -> PositionReport {
    PositionReport {
        entity: EntityId::vessel(entity),
        ts: Timestamp::from_millis(1_700_000_000_000 + i as i64 * 1_000),
        point: GeoPoint::new(-5.0 + i as f64 * 0.01, 40.0 + i as f64 * 0.005),
        altitude_m: 0.0,
        speed_mps: 5.0 + (i % 7) as f64,
        heading_deg: (i * 13 % 360) as f64,
        vertical_rate_mps: 0.0,
    }
}

fn fast_client(addr: impl Into<String>, session_id: u64) -> ClientConfig {
    let mut cfg = ClientConfig::new(addr, session_id);
    cfg.connect_timeout = Duration::from_millis(200);
    cfg.read_timeout = Duration::from_millis(20);
    cfg.heartbeat_interval = Duration::from_millis(100);
    cfg.dead_after = Duration::from_secs(2);
    cfg.backoff.base = Duration::from_millis(2);
    cfg.backoff.cap = Duration::from_millis(50);
    cfg.max_connect_attempts = 100;
    cfg
}

fn fast_server() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(20),
        ack_every: 8,
        ..ServerConfig::default()
    }
}

#[test]
fn clean_stream_arrives_in_order_exactly_once() {
    let topic: Arc<Topic<PositionReport>> = Topic::new("net.in");
    let mut consumer = topic.consumer();
    let obs = ObsRegistry::new();
    let server = NetServer::bind("127.0.0.1:0", fast_server(), Arc::clone(&topic), &obs).unwrap();

    let cfg = fast_client(server.local_addr().to_string(), 7);
    let mut client = NetClient::connect(cfg, &obs).unwrap();
    let sent: Vec<PositionReport> = (0..200).map(|i| report(9, i)).collect();
    for r in &sent {
        client.send(*r).unwrap();
    }
    let stats = client.finish().unwrap();
    assert_eq!(stats.sent, 200);
    assert_eq!(stats.acked, 200);
    assert_eq!(stats.reconnects, 0);

    let got = consumer.drain().unwrap();
    assert_eq!(got, sent, "topic must see the stream in order, exactly once");

    assert_eq!(
        server.session(7),
        Some(SessionSnapshot {
            session_id: 7,
            next_expected: 200,
            duplicates: 0,
            finished: Some(200),
        })
    );
    let health = server.health();
    assert_eq!(health.records_ingested, 200);
    assert!(health.is_clean(), "clean run must see no nacks/crc errors: {health:?}");
    server.shutdown();
}

#[test]
fn bounded_drop_oldest_topic_is_refused_at_bind() {
    let topic: Arc<Topic<PositionReport>> =
        Topic::bounded("net.lossy", 16, OverflowPolicy::DropOldest);
    let obs = ObsRegistry::disabled();
    match NetServer::bind("127.0.0.1:0", fast_server(), topic, &obs) {
        Err(NetError::LossyTopicPolicy) => {}
        other => panic!("expected LossyTopicPolicy, got {other:?}", other = other.err()),
    }
}

#[test]
fn reject_new_topic_nacks_when_full_and_recovers_when_drained() {
    // Capacity 8, no consumer draining while the first burst lands.
    let topic: Arc<Topic<PositionReport>> =
        Topic::bounded("net.reject", 8, OverflowPolicy::RejectNew);
    let mut consumer = topic.consumer();
    let obs = ObsRegistry::new();
    let server = NetServer::bind("127.0.0.1:0", fast_server(), Arc::clone(&topic), &obs).unwrap();

    let cfg = fast_client(server.local_addr().to_string(), 3);
    let mut client = NetClient::connect(cfg, &obs).unwrap();

    // Fill the topic; the 9th record draws a TopicFull NACK, the client
    // reconnects under backoff, and eventually we drain to let it in.
    for i in 0..8 {
        client.send(report(1, i)).unwrap();
    }
    client.flush().unwrap();
    assert_eq!(topic.len(), 8);

    let drainer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let mut total = Vec::new();
        loop {
            match consumer.poll_wait(64, Duration::from_millis(200)) {
                Ok(batch) if batch.is_empty() => break,
                Ok(batch) => total.extend(batch),
                Err(_) => break,
            }
        }
        total
    });

    client.send(report(1, 8)).unwrap();
    let stats = client.finish().unwrap();
    assert_eq!(stats.acked, 9);
    assert!(stats.nacks_seen >= 1, "the full topic must have nacked at least once");

    let drained = drainer.join().unwrap();
    assert_eq!(drained.len(), 9, "every acked record must reach the topic exactly once");
    assert!(server.health().nacks_sent >= 1);
    server.shutdown();
}

#[test]
fn session_resumes_after_connection_kill_with_no_loss_or_duplication() {
    let topic: Arc<Topic<PositionReport>> = Topic::new("net.resume");
    let mut consumer = topic.consumer();
    let obs = ObsRegistry::new();
    let server = NetServer::bind("127.0.0.1:0", fast_server(), Arc::clone(&topic), &obs).unwrap();

    let cfg = fast_client(server.local_addr().to_string(), 11);
    let mut client = NetClient::connect(cfg, &obs).unwrap();

    let sent: Vec<PositionReport> = (0..300).map(|i| report(2, i)).collect();
    for (i, r) in sent.iter().enumerate() {
        if i == 150 {
            // Mid-stream kill: drop the live connection behind the
            // client's back. The next operation must reconnect, resume
            // from the server's watermark and replay the unacked window.
            client.sever_connection();
        }
        client.send(*r).unwrap();
    }
    let stats = client.finish().unwrap();
    assert_eq!(stats.sent, 300);
    assert_eq!(stats.acked, 300);
    assert!(stats.reconnects >= 1, "the kill must have forced a reconnect");

    let got = consumer.drain().unwrap();
    assert_eq!(got, sent, "resume must deliver exactly the uninterrupted stream");

    let snap = server.session(11).unwrap();
    assert_eq!(snap.next_expected, 300);
    assert_eq!(snap.finished, Some(300));
    server.shutdown();
}

#[test]
fn server_survives_shutdown_with_live_client() {
    let topic: Arc<Topic<PositionReport>> = Topic::new("net.stop");
    let _consumer = topic.consumer();
    let obs = ObsRegistry::disabled();
    let server = NetServer::bind("127.0.0.1:0", fast_server(), Arc::clone(&topic), &obs).unwrap();
    let cfg = fast_client(server.local_addr().to_string(), 1);
    let mut client = NetClient::connect(cfg, &obs).unwrap();
    client.send(report(1, 0)).unwrap();
    client.flush().unwrap();
    // Shutdown with the client still attached must join promptly.
    server.shutdown();
}

#[test]
fn short_tail_is_acked_without_waiting_out_the_read_timeout() {
    // Five records against `ack_every: 1_000`: only the ACK-per-drained-batch
    // rule can acknowledge them before the server's 2 s read timeout.
    let topic: Arc<Topic<PositionReport>> = Topic::new("net.tail");
    let _consumer = topic.consumer();
    let obs = ObsRegistry::disabled();
    let config = ServerConfig {
        read_timeout: Duration::from_secs(2),
        ack_every: 1_000,
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config, Arc::clone(&topic), &obs).unwrap();
    let mut cfg = fast_client(server.local_addr().to_string(), 5);
    // No heartbeat inside the test either: the server acks on those too.
    cfg.heartbeat_interval = Duration::from_secs(10);
    cfg.dead_after = Duration::from_secs(10);
    let mut client = NetClient::connect(cfg, &obs).unwrap();

    let t0 = Instant::now();
    for i in 0..5 {
        client.send(report(4, i)).unwrap();
    }
    client.flush().unwrap();
    let took = t0.elapsed();
    assert_eq!(client.window_len(), 0);
    assert!(took < Duration::from_millis(500), "flush of a 5-record tail took {took:?}");
    drop(client);
    server.shutdown();
}

#[test]
fn a_send_on_a_quiet_line_is_written_through() {
    let topic: Arc<Topic<PositionReport>> = Topic::new("net.quiet");
    let mut consumer = topic.consumer();
    let obs = ObsRegistry::new();
    let server = NetServer::bind("127.0.0.1:0", fast_server(), Arc::clone(&topic), &obs).unwrap();
    let mut client =
        NetClient::connect(fast_client(server.local_addr().to_string(), 21), &obs).unwrap();

    // The idle gap under test: far longer than the 1 ms coalescing linger.
    std::thread::sleep(Duration::from_millis(20));
    client.send(report(6, 0)).unwrap();
    // No further client call: the record must already be on its way.
    let got = consumer.poll_wait(1, Duration::from_secs(2)).unwrap();
    assert_eq!(got, vec![report(6, 0)]);
    drop(client);
    server.shutdown();
}

#[test]
fn a_small_burst_then_flush_is_fully_acknowledged() {
    let topic: Arc<Topic<PositionReport>> = Topic::new("net.burst");
    let mut consumer = topic.consumer();
    let obs = ObsRegistry::new();
    let server = NetServer::bind("127.0.0.1:0", fast_server(), Arc::clone(&topic), &obs).unwrap();
    let mut client =
        NetClient::connect(fast_client(server.local_addr().to_string(), 22), &obs).unwrap();

    // 40 records are ~3.6 KB: under the 8 KiB write threshold.
    let sent: Vec<PositionReport> = (0..40).map(|i| report(7, i)).collect();
    for r in &sent {
        client.send(*r).unwrap();
    }
    client.flush().unwrap();
    assert_eq!(client.window_len(), 0);
    let stats = client.stats();
    assert_eq!((stats.sent, stats.acked), (40, 40));
    assert_eq!(consumer.drain().unwrap(), sent);

    // Frames per write and per read come out of one metrics snapshot.
    let snap = obs.snapshot();
    assert_eq!(snap.counter("net.client.writes"), Some(stats.writes));
    assert!(stats.writes < 40, "a burst must not cost one write per record: {stats:?}");
    let reads = snap.counter("net.server.reads").unwrap();
    assert!((1..=41).contains(&reads), "41 frames (Hello + 40 records) in {reads} reads");
    drop(client);
    server.shutdown();
}

#[test]
fn frames_still_buffered_at_a_kill_are_replayed_exactly_once() {
    let topic: Arc<Topic<PositionReport>> = Topic::new("net.buffered");
    let mut consumer = topic.consumer();
    let obs = ObsRegistry::new();
    let server = NetServer::bind("127.0.0.1:0", fast_server(), Arc::clone(&topic), &obs).unwrap();
    let mut client =
        NetClient::connect(fast_client(server.local_addr().to_string(), 23), &obs).unwrap();

    // Send until a record is left sitting in the write buffer (a send that
    // caused no socket write), then cut the link under it.
    let mut sent = Vec::new();
    loop {
        let writes = client.stats().writes;
        sent.push(report(8, sent.len() as u64));
        client.send(*sent.last().unwrap()).unwrap();
        if client.stats().writes == writes {
            break;
        }
        assert!(sent.len() < 10_000, "no send was ever coalesced");
    }
    client.sever_connection();
    for _ in 0..100 {
        sent.push(report(8, sent.len() as u64));
        client.send(*sent.last().unwrap()).unwrap();
    }
    let stats = client.finish().unwrap();
    assert_eq!(stats.sent, sent.len() as u64);
    assert_eq!(stats.acked, stats.sent);
    assert!(stats.reconnects >= 1, "the kill must have forced a reconnect");
    assert_eq!(consumer.drain().unwrap(), sent, "buffered frames live in the window: no loss, no double publish");
    server.shutdown();
}
