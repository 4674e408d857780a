//! End-to-end networked-ingestion chaos drills: a client streams a seeded
//! fleet through the wire-level fault proxy (connection resets, frame
//! corruption, truncation, duplication, stalls, plus forced kills every N
//! frames) into a `NetServer` bridged onto a topic, and the result must be
//! **bit-identical** to in-process ingestion:
//!
//! * the topic receives exactly the sent stream — no loss, no duplication,
//!   no reordering — after any number of session resumes;
//! * feeding the received stream through the real-time layer produces
//!   cleaned outputs, dead-letter labels and health counters identical to
//!   feeding the original stream directly.

use std::sync::Arc;
use std::time::Duration;

use datacron::core::realtime::RealTimeLayer;
use datacron::core::{DatacronConfig, DeadLetter};
use datacron::geo::{BoundingBox, EntityId, GeoPoint, PositionReport, Timestamp};
use datacron::net::{ClientConfig, NetClient, NetServer, ServerConfig};
use datacron::obs::ObsRegistry;
use datacron::stream::faults::{ChaosSource, FaultPlan, NetFaultPlan};
use datacron::stream::{OverflowPolicy, Topic, TopicConfig};

/// The eight fixed chaos seeds; same set as the in-process chaos suite.
const SEEDS: [u64; 8] = [1, 7, 23, 42, 97, 1234, 0xDEAD_BEEF, u64::MAX / 3];

fn extent() -> BoundingBox {
    BoundingBox::new(0.0, 38.0, 6.0, 42.0)
}

/// Benign straight-line fleet, interleaved by time (see tests/chaos.rs).
fn fleet(entities: u64, reports_each: i64) -> Vec<PositionReport> {
    let mut all = Vec::new();
    for e in 0..entities {
        let mut p = GeoPoint::new(0.5 + e as f64, 39.0 + 0.2 * e as f64);
        for i in 0..reports_each {
            all.push(PositionReport {
                speed_mps: 8.0,
                heading_deg: 90.0,
                ..PositionReport::basic(EntityId::vessel(e), Timestamp::from_secs(i * 10), p)
            });
            p = p.destination(90.0, 80.0);
        }
    }
    all.sort_by_key(|r| (r.ts, r.entity));
    all
}

fn bit_eq(a: &PositionReport, b: &PositionReport) -> bool {
    a.entity == b.entity
        && a.ts == b.ts
        && a.point.lon.to_bits() == b.point.lon.to_bits()
        && a.point.lat.to_bits() == b.point.lat.to_bits()
        && a.altitude_m.to_bits() == b.altitude_m.to_bits()
        && a.speed_mps.to_bits() == b.speed_mps.to_bits()
        && a.heading_deg.to_bits() == b.heading_deg.to_bits()
        && a.vertical_rate_mps.to_bits() == b.vertical_rate_mps.to_bits()
}

fn assert_bit_identical(got: &[PositionReport], want: &[PositionReport], what: &str, seed: u64) {
    assert_eq!(
        got.len(),
        want.len(),
        "seed {seed}: {what}: length mismatch (got {}, want {})",
        got.len(),
        want.len()
    );
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            bit_eq(g, w),
            "seed {seed}: {what}: record {i} differs: got {g:?}, want {w:?}"
        );
    }
}

fn drill_server_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(20),
        ack_every: 16,
        ..ServerConfig::default()
    }
}

fn drill_client_config(addr: String, session_id: u64, seed: u64) -> ClientConfig {
    let mut cfg = ClientConfig::new(addr, session_id);
    cfg.connect_timeout = Duration::from_millis(500);
    cfg.read_timeout = Duration::from_millis(20);
    cfg.heartbeat_interval = Duration::from_millis(100);
    cfg.dead_after = Duration::from_secs(3);
    cfg.backoff.base = Duration::from_millis(2);
    cfg.backoff.cap = Duration::from_millis(40);
    cfg.backoff.seed = seed;
    cfg.max_connect_attempts = 200;
    cfg
}

/// Stream `input` through proxy+server onto `topic` and return
/// (received records, client reconnects, proxy stats).
fn stream_through_chaos(
    input: &[PositionReport],
    topic: Arc<Topic<PositionReport>>,
    seed: u64,
    plan: NetFaultPlan,
) -> (Vec<PositionReport>, datacron::net::ClientStats, datacron::stream::NetFaultStats) {
    let obs = ObsRegistry::new();
    let server =
        NetServer::bind("127.0.0.1:0", drill_server_config(), Arc::clone(&topic), &obs)
            .expect("server binds");
    let proxy =
        datacron::net::FaultProxy::start(server.local_addr(), plan).expect("proxy starts");

    let mut consumer = topic.consumer();
    let cfg = drill_client_config(proxy.local_addr().to_string(), seed, seed);
    let mut client = NetClient::connect(cfg, &obs).expect("client connects through proxy");
    for r in input {
        client.send(*r).expect("send never fails terminally under chaos");
    }
    let stats = client.finish().expect("finish completes under chaos");

    let received = consumer.drain().expect("unbounded topic never lags");
    assert_eq!(received.len() as u64, topic.stats().published, "seed {seed}: the whole topic");
    let session = server.session(seed).expect("session exists");
    assert_eq!(session.next_expected, input.len() as u64, "seed {seed}: watermark");
    assert_eq!(session.finished, Some(input.len() as u64), "seed {seed}: finish marker");

    let health = server.health();
    assert_eq!(
        health.records_ingested,
        input.len() as u64,
        "seed {seed}: server must ingest exactly once: {health:?}"
    );
    let fstats = proxy.stats();
    proxy.shutdown();
    server.shutdown();
    (received, stats, fstats)
}

/// Feeds `input` through a fresh real-time layer; returns the layer with
/// its cleaned and dead-letter streams. Both topics are subscribed before
/// the first ingest (a topic keeps nothing for a reader that joins later),
/// and each drained stream must be everything its topic published.
fn run_layer(input: &[PositionReport]) -> (RealTimeLayer, Vec<PositionReport>, Vec<DeadLetter>) {
    let mut layer = RealTimeLayer::new(DatacronConfig::maritime(extent()), Vec::new(), Vec::new());
    let mut cleaned_rx = layer.cleaned.consumer();
    let mut dead_rx = layer.dead_letters.consumer();
    for r in input {
        layer.ingest(*r);
    }
    let cleaned = cleaned_rx.drain().expect("unbounded topic never lags");
    let dead = dead_rx.drain().expect("unbounded topic never lags");
    assert_eq!(cleaned.len() as u64, layer.cleaned.stats().published, "whole cleaned topic");
    assert_eq!(dead.len() as u64, layer.dead_letters.stats().published, "whole dead-letter topic");
    (layer, cleaned, dead)
}

/// The acceptance drill: every seed, full wire chaos plus a forced
/// connection kill every 101 frames; the topic must see exactly the sent
/// stream.
#[test]
fn wire_chaos_delivers_exactly_once_in_order() {
    let input = fleet(6, 150);
    for seed in SEEDS {
        let topic: Arc<Topic<PositionReport>> = Topic::new("net.chaos");
        let plan = NetFaultPlan::chaos(seed).with_kill_every(101);
        let (received, stats, fstats) = stream_through_chaos(&input, topic, seed, plan);

        assert_bit_identical(&received, &input, "received stream", seed);
        assert!(
            stats.reconnects >= 1,
            "seed {seed}: forced kills must cause at least one resume ({stats:?})"
        );
        assert!(
            fstats.resets >= 1,
            "seed {seed}: the kill schedule must have fired ({fstats:?})"
        );
        assert_eq!(stats.acked, input.len() as u64, "seed {seed}: all acked");
    }
}

/// Frame corruption alone (no kills): every flipped frame must be caught
/// by the CRC, the connection torn down, and the stream still delivered
/// exactly once.
#[test]
fn frame_corruption_is_always_caught_and_healed() {
    let input = fleet(4, 120);
    for seed in SEEDS {
        let topic: Arc<Topic<PositionReport>> = Topic::new("net.corrupt");
        let plan = NetFaultPlan { bit_flip: 0.02, ..NetFaultPlan::none() }.with_seed(seed);
        let (received, stats, fstats) = stream_through_chaos(&input, topic, seed, plan);

        assert_bit_identical(&received, &input, "received stream", seed);
        if fstats.bit_flips > 0 {
            assert!(
                stats.reconnects >= 1,
                "seed {seed}: corruption must force resumes ({fstats:?}, {stats:?})"
            );
        }
    }
}

/// The equivalence drill from the issue: a data-faulted feed (drops,
/// duplicates, corruption — the PR-1 harness) travels the chaotic wire,
/// then through the full real-time layer. Outputs, dead-letter labels and
/// health counters must be bit-identical to in-process ingestion of the
/// same feed.
#[test]
fn pipeline_equivalence_under_wire_chaos() {
    let raw = fleet(4, 150);
    for seed in SEEDS {
        // Data-level faults first: what the sensor feed actually delivers.
        let delivered: Vec<PositionReport> =
            ChaosSource::new(raw.iter().copied(), FaultPlan::chaos(seed)).collect();

        // In-process arm.
        let (direct_layer, direct_cleaned, direct_dead) = run_layer(&delivered);

        // Networked arm under wire chaos with forced kills.
        let topic: Arc<Topic<PositionReport>> = Topic::new("net.equiv");
        let plan = NetFaultPlan::chaos(seed).with_kill_every(83);
        let (received, _, _) = stream_through_chaos(&delivered, topic, seed, plan);
        let (net_layer, net_cleaned, net_dead) = run_layer(&received);

        // Cleaned outputs bit-identical.
        assert_bit_identical(&net_cleaned, &direct_cleaned, "cleaned output", seed);

        // Dead letters: same records, same labels, same order.
        assert_eq!(direct_dead.len(), net_dead.len(), "seed {seed}: dead-letter count");
        for (i, (a, b)) in direct_dead.iter().zip(net_dead.iter()).enumerate() {
            assert!(
                bit_eq(&a.report, &b.report),
                "seed {seed}: dead letter {i} record differs"
            );
            assert_eq!(
                format!("{:?}", a.reason),
                format!("{:?}", b.reason),
                "seed {seed}: dead letter {i} label differs"
            );
        }

        // Health counters agree.
        let dh = direct_layer.health();
        let nh = net_layer.health();
        assert_eq!(dh.accepted, nh.accepted, "seed {seed}: accepted");
        assert_eq!(dh.rejected, nh.rejected, "seed {seed}: rejected");
        assert_eq!(dh.panics, nh.panics, "seed {seed}: panics");
    }
}

/// Backpressure arm: a small bounded Block topic with a slow concurrent
/// drainer. The server must park on the topic (TCP backpressure) rather
/// than drop, and the drained stream is still exactly the sent stream.
#[test]
fn block_topic_backpressure_under_chaos() {
    let input = fleet(3, 100);
    let seed = SEEDS[3];
    let topic: Arc<Topic<PositionReport>> = Topic::with_config(
        "net.block",
        TopicConfig {
            capacity: Some(32),
            policy: OverflowPolicy::Block,
            block_timeout: Duration::from_millis(200),
        },
    );
    let mut consumer = topic.consumer();
    let total = input.len();
    let drainer = std::thread::spawn(move || {
        let mut got = Vec::with_capacity(total);
        while got.len() < total {
            match consumer.poll_wait(16, Duration::from_secs(10)) {
                Ok(batch) if batch.is_empty() => break,
                Ok(batch) => {
                    got.extend(batch);
                    // Slow consumer: let the topic fill and backpressure
                    // propagate down the TCP link.
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => unreachable!("lossless Block topic never lags"),
            }
        }
        got
    });

    let obs = ObsRegistry::new();
    let server =
        NetServer::bind("127.0.0.1:0", drill_server_config(), Arc::clone(&topic), &obs).unwrap();
    let proxy = datacron::net::FaultProxy::start(
        server.local_addr(),
        NetFaultPlan::chaos(seed).with_kill_every(151),
    )
    .unwrap();
    let cfg = drill_client_config(proxy.local_addr().to_string(), seed, seed);
    let mut client = NetClient::connect(cfg, &obs).unwrap();
    for r in &input {
        client.send(*r).unwrap();
    }
    let stats = client.finish().unwrap();
    assert_eq!(stats.acked, input.len() as u64);

    let got = drainer.join().unwrap();
    assert_bit_identical(&got, &input, "drained stream", seed);
    proxy.shutdown();
    server.shutdown();
}

/// Control arm: a pass-through proxy injects nothing — zero reconnects,
/// zero duplicates server-side, and the fault schedule reports only
/// passed frames.
#[test]
fn control_arm_proxy_is_transparent() {
    let input = fleet(2, 100);
    let seed = SEEDS[0];
    let topic: Arc<Topic<PositionReport>> = Topic::new("net.control");
    let (received, stats, fstats) =
        stream_through_chaos(&input, Arc::clone(&topic), seed, NetFaultPlan::none());
    assert_bit_identical(&received, &input, "received stream", seed);
    assert_eq!(stats.reconnects, 0, "control arm must not reconnect");
    assert_eq!(stats.nacks_seen, 0);
    assert_eq!(fstats.frames, fstats.passed, "control arm must pass every frame: {fstats:?}");
}
