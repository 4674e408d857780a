//! Networked-ingestion drill: stream a seeded fleet from a client process
//! to a server process over TCP, through the wire-level fault proxy
//! (resets, truncation, bit-flips, duplicates, stalls, forced kills), and
//! prove the server-side result is bit-identical to in-process ingestion
//! (CI `net-chaos` job).
//!
//! ```text
//! # terminal 1: bind the ingest server, drain the topic, print digests
//! cargo run --release --example net_drill -- \
//!     --mode serve --addr 127.0.0.1:47171 [--seed 7] [--records 12000]
//!
//! # terminal 2: stream the same seeded fleet through a chaotic proxy
//! cargo run --release --example net_drill -- \
//!     --mode send --addr 127.0.0.1:47171 [--seed 7] [--records 12000] \
//!     [--kill-every 997]
//! ```
//!
//! Equivalence check: `send` prints `sent_digest` (over the records it
//! streamed) and `pipeline_digest` (over in-process ingestion of those
//! records); `serve` prints `received_digest` and `pipeline_digest` over
//! what actually crossed the wire. All four must match pairwise — exactly
//! once, in order, despite every injected wire fault.

use datacron::core::realtime::RealTimeLayer;
use datacron::core::DatacronConfig;
use datacron::data::rng::SeededRng;
use datacron::geo::{BoundingBox, EntityId, GeoPoint, PositionReport, Timestamp};
use datacron::net::{ClientConfig, FaultProxy, NetClient, NetServer, ServerConfig};
use datacron::obs::ObsRegistry;
use datacron::stream::faults::{ChaosSource, FaultPlan, NetFaultPlan};
use datacron::stream::Topic;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    mode: String,
    addr: String,
    seed: u64,
    records: usize,
    kill_every: u64,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            mode: String::new(),
            addr: "127.0.0.1:47171".to_string(),
            seed: 7,
            records: 12_000,
            kill_every: 997,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let value = |i: &mut usize| -> String {
                *i += 1;
                argv.get(*i).unwrap_or_else(|| panic!("{} needs a value", argv[*i - 1])).clone()
            };
            match argv[i].as_str() {
                "--mode" => args.mode = value(&mut i),
                "--addr" => args.addr = value(&mut i),
                "--seed" => args.seed = value(&mut i).parse().expect("--seed"),
                "--records" => args.records = value(&mut i).parse().expect("--records"),
                "--kill-every" => args.kill_every = value(&mut i).parse().expect("--kill-every"),
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        assert!(
            matches!(args.mode.as_str(), "serve" | "send"),
            "--mode must be serve | send"
        );
        args
    }
}

/// FNV-1a 64 over a byte stream; the drill's equivalence fingerprint.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

fn extent() -> BoundingBox {
    BoundingBox::new(-10.0, 30.0, 10.0, 50.0)
}

/// The seeded workload: a turning fleet pushed through the data-level
/// chaos harness (drops, duplicates, reordering, corruption), so the
/// stream the wire carries already contains records the cleaner will
/// dead-letter. Both processes regenerate it identically from the seed.
fn input(seed: u64, records: usize) -> Vec<PositionReport> {
    let entities = 24u64;
    let reports_each = records.div_ceil(entities as usize) as i64;
    let mut rng = SeededRng::new(seed);
    let mut tracks: Vec<(GeoPoint, f64, f64, i64)> = (0..entities)
        .map(|_| {
            (
                GeoPoint::new(rng.uniform(-4.0, 4.0), rng.uniform(37.0, 43.0)),
                rng.uniform(0.0, 360.0),
                rng.uniform(4.0, 12.0),
                rng.int_range(10, 40),
            )
        })
        .collect();
    let mut fleet = Vec::with_capacity(entities as usize * reports_each as usize);
    for t in 0..reports_each {
        for (e, track) in tracks.iter_mut().enumerate() {
            track.3 -= 1;
            if track.3 <= 0 {
                track.1 = (track.1 + rng.uniform(-120.0, 120.0)).rem_euclid(360.0);
                track.2 = (track.2 + rng.uniform(-3.0, 3.0)).clamp(1.0, 15.0);
                track.3 = rng.int_range(10, 40);
            }
            track.0 = track.0.destination(track.1, track.2 * 10.0);
            fleet.push(PositionReport {
                speed_mps: track.2,
                heading_deg: track.1,
                ..PositionReport::basic(
                    EntityId::vessel(e as u64 + 1),
                    Timestamp::from_secs(t * 10),
                    track.0,
                )
            });
        }
    }
    ChaosSource::new(fleet.into_iter(), FaultPlan::chaos(seed)).collect()
}

/// Digest over a record stream plus its full in-process pipeline run:
/// every per-record output, then the final health report.
fn stream_and_pipeline_digests(records: &[PositionReport]) -> (Digest, Digest) {
    let mut stream = Digest::new();
    let mut pipeline = Digest::new();
    let mut layer = RealTimeLayer::new(DatacronConfig::maritime(extent()), Vec::new(), Vec::new());
    for r in records {
        stream.update(&format!("{r:?}"));
        pipeline.update(&format!("{:?}", layer.ingest(*r)));
    }
    pipeline.update(&format!("{:?}", layer.health()));
    (stream, pipeline)
}

fn serve(args: &Args) {
    let expected = input(args.seed, args.records).len();
    let obs = ObsRegistry::new();
    let topic: Arc<Topic<PositionReport>> = Topic::new("net.drill");
    let mut consumer = topic.consumer();
    let server = NetServer::bind(args.addr.as_str(), ServerConfig::default(), topic, &obs)
        .expect("server binds");
    println!("serving on {} (expecting {expected} records)", server.local_addr());

    let deadline = Instant::now() + Duration::from_secs(300);
    let mut received = Vec::with_capacity(expected);
    while received.len() < expected {
        assert!(Instant::now() < deadline, "drill timed out waiting for the stream");
        match consumer.poll_wait(1024, Duration::from_millis(200)) {
            Ok(batch) => received.extend(batch),
            Err(_) => unreachable!("unbounded topic never lags"),
        }
    }
    // Every record is here, but the client still needs its Finish frame
    // acknowledged (and may be mid-reconnect if the proxy killed it); stay
    // up until the session is marked finished.
    loop {
        let s = server.session(args.seed).expect("client session exists");
        if s.finished == Some(expected as u64) {
            break;
        }
        assert!(Instant::now() < deadline, "drill timed out waiting for Finish");
        std::thread::sleep(Duration::from_millis(20));
    }
    let session = server.session(args.seed).expect("client session exists");
    let health = server.health();
    println!(
        "session: next_expected={} duplicates_dropped={} finished={:?}",
        session.next_expected, session.duplicates, session.finished
    );
    println!(
        "health: ingested={} duplicates={} nacks={} crc_errors={}",
        health.records_ingested, health.duplicates_dropped, health.nacks_sent, health.crc_errors
    );
    let (stream, pipeline) = stream_and_pipeline_digests(&received);
    println!("received_digest: {}", stream.hex());
    println!("pipeline_digest: {}", pipeline.hex());
    server.shutdown();
}

fn send(args: &Args) {
    let records = input(args.seed, args.records);
    let upstream = args.addr.parse().expect("--addr must be host:port");
    let mut plan = NetFaultPlan::chaos(args.seed);
    if args.kill_every > 0 {
        plan = plan.with_kill_every(args.kill_every);
    }
    let proxy = FaultProxy::start(upstream, plan).expect("fault proxy starts");
    println!("proxying {} -> {} under wire chaos (seed {})", proxy.local_addr(), upstream, args.seed);

    let obs = ObsRegistry::new();
    let mut cfg = ClientConfig::new(proxy.local_addr().to_string(), args.seed);
    cfg.backoff.seed = args.seed;
    let mut client = NetClient::connect(cfg, &obs).expect("client connects");
    for r in &records {
        client.send(*r).expect("send survives wire chaos");
    }
    let stats = client.finish().expect("finish survives wire chaos");
    let faults = proxy.stats();
    println!(
        "client: sent={} replayed={} acked={} reconnects={} nacks_seen={} crc_errors={}",
        stats.sent, stats.replayed, stats.acked, stats.reconnects, stats.nacks_seen,
        stats.crc_errors
    );
    println!(
        "proxy: frames={} passed={} duplicated={} bit_flips={} truncated={} resets={} stalls={}",
        faults.frames, faults.passed, faults.duplicated, faults.bit_flips, faults.truncated,
        faults.resets, faults.stalls
    );
    proxy.shutdown();
    let (stream, pipeline) = stream_and_pipeline_digests(&records);
    println!("sent_digest: {}", stream.hex());
    println!("pipeline_digest: {}", pipeline.hex());
}

fn main() {
    let args = Args::parse();
    match args.mode.as_str() {
        "serve" => serve(&args),
        "send" => send(&args),
        _ => unreachable!(),
    }
}
