//! The metrics conservation law, asserted under chaos:
//!
//! ```text
//! ingested = accepted + dead_lettered + dropped + in_flight
//! ```
//!
//! For the synchronous layer `dropped` and `in_flight` are zero by
//! construction, so `ingest.records == ingest.accepted +
//! ingest.dead_lettered` must hold exactly — for every fault seed, through
//! both the supervised single-threaded pipeline and the sharded pipeline —
//! and the counters must reconcile exactly against the topic statistics
//! and the dead-letter topic contents.

use datacron::core::realtime::RealTimeLayer;
use datacron::core::sharded::ShardedRealTimeLayer;
use datacron::core::{DatacronConfig, DeadLetter, RejectReason};
use datacron::geo::{BoundingBox, EntityId, GeoPoint, PositionReport, Timestamp};
use datacron::obs::MetricsSnapshot;
use datacron::stream::faults::{ChaosSource, FaultPlan};
use datacron::stream::bus::Consumer;
use datacron::stream::parallel::ShardedConfig;
use std::sync::{Arc, Mutex};

/// The eight fixed chaos seeds; CI runs the same set nightly.
const SEEDS: [u64; 8] = [1, 7, 23, 42, 97, 1234, 0xDEAD_BEEF, u64::MAX / 3];

fn config() -> DatacronConfig {
    DatacronConfig::maritime(BoundingBox::new(0.0, 38.0, 6.0, 42.0))
}

fn fleet(entities: u64, reports_each: i64) -> Vec<PositionReport> {
    let mut all = Vec::new();
    for e in 0..entities {
        let mut p = GeoPoint::new(0.5 + 0.6 * e as f64, 39.0 + 0.2 * e as f64);
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

/// Entity 2 panics on every record: exercises the supervision reject
/// paths (`panic` then, past `max_restarts`, `quarantined`) so the
/// conservation law is checked across *all* dead-letter reasons, not just
/// cleaning.
fn poison(layer: &mut RealTimeLayer) {
    layer.attach_entity_stage(|r| {
        if r.entity.id == 2 {
            panic!("injected");
        }
    });
}

/// Asserts the conservation law and the exact reconciliation of the
/// counter series against the dead-letter records and topic stats.
fn check_conservation(snap: &MetricsSnapshot, ingested: u64, dead: &[DeadLetter], seed: u64) {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(c("ingest.records"), ingested, "seed {seed}: every delivered record counted");
    assert_eq!(
        c("ingest.records"),
        c("ingest.accepted") + c("ingest.dead_lettered"),
        "seed {seed}: conservation law (dropped and in_flight are 0 in a drained run)"
    );

    // Per-reason counters reconcile exactly against the dead-letter topic
    // contents...
    let by_reason = |f: fn(&RejectReason) -> bool| dead.iter().filter(|d| f(&d.reason)).count() as u64;
    assert_eq!(
        c("ingest.rejected.cleaning"),
        by_reason(|r| matches!(r, RejectReason::Cleaning(_))),
        "seed {seed}"
    );
    assert_eq!(
        c("ingest.rejected.quarantined"),
        by_reason(|r| matches!(r, RejectReason::Quarantined)),
        "seed {seed}"
    );
    assert_eq!(
        c("ingest.rejected.panic"),
        by_reason(|r| matches!(r, RejectReason::ProcessingPanic)),
        "seed {seed}"
    );
    // ...and sum back to the dead-letter total, which equals the topic's
    // own published counter.
    assert_eq!(c("ingest.dead_lettered"), dead.len() as u64, "seed {seed}");
    assert_eq!(
        c("ingest.dead_lettered"),
        c("ingest.rejected.cleaning") + c("ingest.rejected.quarantined") + c("ingest.rejected.panic"),
        "seed {seed}"
    );
    // The drained stream is the whole topic.
    assert_eq!(c("topic.dead-letters.published"), dead.len() as u64, "seed {seed}");
    assert_eq!(c("topic.cleaned.published"), c("ingest.accepted"), "seed {seed}");
    // Supervision counters agree with the panic-labelled dead letters.
    assert_eq!(c("supervision.panics"), c("ingest.rejected.panic"), "seed {seed}");
    assert_eq!(c("supervision.restarts"), c("ingest.rejected.panic"), "seed {seed}");
    // The layer topics are unbounded: nothing may ever drop or refuse.
    for t in ["cleaned", "critical-points", "area-events", "triples", "links", "dead-letters"] {
        assert_eq!(c(&format!("topic.{t}.dropped")), 0, "seed {seed}: {t}");
        assert_eq!(c(&format!("topic.{t}.rejected")), 0, "seed {seed}: {t}");
    }
}

#[test]
fn conservation_holds_under_chaos_single_threaded() {
    let input = fleet(5, 100);
    for seed in SEEDS {
        let mut chaos = ChaosSource::new(input.iter().copied(), FaultPlan::chaos(seed));
        let mut layer = RealTimeLayer::new(config(), Vec::new(), Vec::new());
        poison(&mut layer);
        // Subscribed before the first ingest: a topic keeps nothing for a
        // reader that joins later.
        let mut dead_rx = layer.dead_letters.consumer();
        let mut ingested = 0u64;
        for r in chaos.by_ref() {
            layer.ingest(r);
            ingested += 1;
        }
        layer.flush();
        assert_eq!(ingested, chaos.stats().emitted(), "seed {seed}");
        let dead = dead_rx.drain().expect("unbounded topic never lags");
        check_conservation(&layer.metrics_snapshot(), ingested, &dead, seed);
    }
}

#[test]
fn conservation_holds_under_chaos_sharded() {
    let input = fleet(5, 100);
    for seed in SEEDS {
        let mut chaos = ChaosSource::new(input.iter().copied(), FaultPlan::chaos(seed));
        let stream: Vec<PositionReport> = chaos.by_ref().collect();
        // Every shard's dead-letter topic is subscribed as its layer is
        // built, before the first ingest.
        let taps: Arc<Mutex<Vec<Consumer<DeadLetter>>>> = Arc::default();
        let setup_taps = Arc::clone(&taps);
        let mut sharded = ShardedRealTimeLayer::with_setup(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(4),
            move |layer| {
                poison(layer);
                setup_taps.lock().unwrap().push(layer.dead_letters.consumer());
            },
        );
        sharded.ingest_batch(stream.iter().copied());
        sharded.flush();
        // The merged snapshot is a consistent cut: taken at the metrics
        // barrier, after every shard drained its queue — so `in_flight` is
        // 0 and the law holds with the same exactness as single-threaded.
        let snap = sharded.metrics();
        let done = sharded.finish();
        let mut dead = Vec::new();
        for tap in taps.lock().unwrap().iter_mut() {
            dead.extend(tap.drain().expect("unbounded topic never lags"));
        }
        assert_eq!(done.layers.len(), 4);
        check_conservation(&snap, stream.len() as u64, &dead, seed);
    }
}

/// Mid-stream, before a barrier, the sharded law needs the `in_flight`
/// term: `submitted - merged` records are inside the executor. The
/// executor's own gauges expose exactly that quantity.
#[test]
fn in_flight_term_closes_the_law_mid_stream() {
    let input = fleet(6, 60);
    let mut sharded = ShardedRealTimeLayer::new(
        config(),
        Vec::new(),
        Vec::new(),
        ShardedConfig::with_shards(3),
    );
    sharded.ingest_batch(input.iter().copied());
    let snap = sharded.metrics();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    // After the metrics barrier every submitted record has been processed
    // by its shard; `exec.in_flight` counts those not yet merged out.
    let in_flight = snap.gauge("exec.in_flight").unwrap_or(0) as u64;
    assert_eq!(
        c("ingest.records"),
        c("ingest.accepted") + c("ingest.dead_lettered"),
        "shard-side accounting is already closed at the barrier"
    );
    assert_eq!(c("ingest.records"), input.len() as u64);
    assert!(in_flight <= input.len() as u64);
    sharded.finish();
}
