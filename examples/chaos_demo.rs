//! Chaos quickstart: the real-time layer under seed-driven fault injection.
//!
//! Demonstrates the failure model end to end (DESIGN.md §7):
//! a clean fleet is pushed through `ChaosSource` (drops, duplicates,
//! reordering, corruption, gaps, bursts — all reproducible from one seed),
//! one entity carries a poisoned processing stage, and the layer's health
//! report plus dead-letter topic account for everything that happened.
//! A bounded `DropOldest` topic shows observable — never silent — loss.

use datacron::core::realtime::RealTimeLayer;
use datacron::core::{DatacronConfig, RejectReason};
use datacron::geo::{BoundingBox, EntityId, GeoPoint, PositionReport, Timestamp};
use datacron::stream::bus::{OverflowPolicy, Topic};
use datacron::stream::faults::{ChaosSource, FaultPlan};

fn fleet(entities: u64, reports_each: i64) -> Vec<PositionReport> {
    let mut out = Vec::new();
    for t in 0..reports_each {
        for e in 1..=entities {
            out.push(PositionReport {
                speed_mps: 8.0,
                heading_deg: 90.0,
                ..PositionReport::basic(
                    EntityId::vessel(e),
                    Timestamp::from_secs(t * 10),
                    GeoPoint::new(0.5 + e as f64 * 0.2 + t as f64 * 0.001, 40.0),
                )
            });
        }
    }
    out
}

fn run(seed: u64) -> (usize, usize, u64) {
    let config = DatacronConfig::maritime(BoundingBox::new(0.0, 38.0, 6.0, 42.0));
    let mut layer = RealTimeLayer::new(config, Vec::new(), Vec::new());
    // Entity 3 is poisoned: its records panic inside the per-entity stage.
    layer.attach_entity_stage(|r: &PositionReport| {
        assert!(r.entity != EntityId::vessel(3), "poison record");
    });
    // Subscribe before ingesting: a topic keeps nothing for a reader that
    // joins later.
    let mut dead_rx = layer.dead_letters.consumer();

    let source = ChaosSource::new(fleet(4, 50).into_iter(), FaultPlan::chaos(seed));
    let mut accepted = 0usize;
    for report in source {
        if layer.ingest(report).accepted {
            accepted += 1;
        }
    }
    let health = layer.health();
    let dead = dead_rx.drain().expect("unbounded topic never lags");

    println!("seed {seed}:");
    println!("  status               : {:?}", health.status);
    println!("  accepted             : {accepted}");
    println!("  dead-lettered        : {}", dead.len());
    println!(
        "  panics / restarts    : {} / {} (then quarantine)",
        health.panics, health.restarts
    );
    println!("  quarantined entities : {}", health.quarantined_entities);
    let mut by_reason = [0u64; 3];
    for d in &dead {
        match d.reason {
            RejectReason::Cleaning(_) => by_reason[0] += 1,
            RejectReason::ProcessingPanic => by_reason[1] += 1,
            RejectReason::Quarantined => by_reason[2] += 1,
        }
    }
    println!(
        "  reject reasons       : cleaning {} | panic {} | quarantined {}",
        by_reason[0], by_reason[1], by_reason[2]
    );
    (accepted, dead.len(), health.panics)
}

fn main() {
    println!("== supervised pipeline under chaos ==");
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed, same outcome");
    println!("  (both runs identical: fault injection is deterministic)\n");
    run(7);

    println!("\n== bounded topic: loss is observable, never silent ==");
    let topic: std::sync::Arc<Topic<u64>> = Topic::bounded("demo", 8, OverflowPolicy::DropOldest);
    let mut consumer = topic.consumer();
    for i in 0..20u64 {
        topic.publish(i);
    }
    match consumer.poll(usize::MAX) {
        Err(lagged) => println!("  consumer lagged: skipped {} messages", lagged.skipped),
        Ok(_) => println!("  consumer kept up"),
    }
    let caught_up = consumer.poll(usize::MAX).expect("resynced after lag");
    println!("  then read {:?}", caught_up);
    let stats = topic.stats();
    println!(
        "  topic stats: published {} dropped {} (retained {})",
        stats.published,
        stats.dropped,
        topic.retained()
    );
}
