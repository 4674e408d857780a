//! End-to-end chaos tests: the full real-time pipeline is driven through
//! every fault mode of `datacron::stream::faults` and must
//!
//! * terminate and never panic,
//! * account for every injected record (accepted + dead-lettered =
//!   delivered),
//! * keep the accepted-record outputs **bit-identical** to the fault-free
//!   run for the records that survive injection.

use datacron::core::realtime::RealTimeLayer;
use datacron::core::{ComponentStatus, DatacronConfig, DeadLetter, RejectReason};
use datacron::geo::{BoundingBox, EntityId, GeoPoint, PositionReport, Timestamp};
use datacron::stream::faults::{ChaosSource, FaultPlan};
use std::collections::HashMap;

/// The eight fixed chaos seeds; CI runs the same set nightly.
const SEEDS: [u64; 8] = [1, 7, 23, 42, 97, 1234, 0xDEAD_BEEF, u64::MAX / 3];

fn extent() -> BoundingBox {
    BoundingBox::new(0.0, 38.0, 6.0, 42.0)
}

/// A benign fleet: straight, constant-speed tracks. Any subsequence of such
/// a track is itself clean (no teleports appear when records go missing),
/// so under injection the accepted set equals the surviving set exactly.
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
    // Interleave entities by time, as a live feed would.
    all.sort_by_key(|r| (r.ts, r.entity));
    all
}

fn fresh_layer() -> RealTimeLayer {
    RealTimeLayer::new(DatacronConfig::maritime(extent()), Vec::new(), Vec::new())
}

/// Feeds the stream through a layer; returns the accepted inputs, in
/// order (from `IngestOutput::accepted`), and the dead-letter-topic
/// contents. The dead-letter topic is subscribed before the first ingest
/// (a topic keeps nothing for a reader that joins later), and each stream
/// must be everything the layer counted.
fn run_pipeline(
    layer: &mut RealTimeLayer,
    stream: impl Iterator<Item = PositionReport>,
) -> (Vec<PositionReport>, Vec<DeadLetter>) {
    let mut dead_rx = layer.dead_letters.consumer();
    let mut accepted = Vec::new();
    for r in stream {
        if layer.ingest(r).accepted {
            accepted.push(r);
        }
    }
    let dead = dead_rx.drain().expect("unbounded topic never lags");
    assert_eq!(accepted.len() as u64, layer.health().accepted, "every accepted record");
    assert_eq!(dead.len() as u64, layer.dead_letters.stats().published, "whole dead-letter topic");
    (accepted, dead)
}

/// Bit-exact equality (f64 compared by bits, so NaN corruption can never
/// masquerade as equality).
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

/// `sub` is an in-order subsequence of `full`, bit-identically.
fn is_bit_subsequence(sub: &[PositionReport], full: &[PositionReport]) -> bool {
    let mut it = full.iter();
    sub.iter().all(|s| it.by_ref().any(|f| bit_eq(s, f)))
}

/// Drives one fault plan through a fresh pipeline and checks the
/// invariants shared by every fault mode.
fn check_plan(plan: FaultPlan, baseline_cleaned: &[PositionReport], input: &[PositionReport]) {
    let mut chaos = ChaosSource::new(input.iter().copied(), plan.clone());
    let mut layer = fresh_layer();
    let (cleaned, dead) = run_pipeline(&mut layer, chaos.by_ref());
    let stats = chaos.stats();

    // 1. Accounting: every record the injector emitted was either fully
    // processed (cleaned) or dead-lettered — nothing vanished inside the
    // pipeline.
    assert_eq!(
        cleaned.len() as u64 + dead.len() as u64,
        stats.emitted(),
        "seed {}: accepted + dead-lettered must equal delivered ({stats:?})",
        plan.seed
    );

    // 2. No supervision incidents: faults are data faults, not panics.
    let health = layer.health();
    assert_eq!(health.panics, 0, "seed {}: data faults must not panic", plan.seed);
    assert_eq!(health.quarantined_entities, 0);
    assert_eq!(health.rejected, dead.len() as u64);

    // 3. Every dead letter carries a cleaning label (supervision never
    // fired), and every corrupted record was caught by cleaning.
    assert!(dead
        .iter()
        .all(|d| matches!(d.reason, RejectReason::Cleaning(_))));
    assert!(
        dead.len() as u64 >= stats.corrupted,
        "seed {}: all {} corrupted records must be rejected, {} dead letters",
        plan.seed,
        stats.corrupted,
        dead.len()
    );

    // 4. Bit-identical survivors: per entity, the accepted stream is an
    // in-order, bit-exact subsequence of the fault-free accepted stream.
    let mut by_entity: HashMap<EntityId, Vec<PositionReport>> = HashMap::new();
    for r in &cleaned {
        by_entity.entry(r.entity).or_default().push(*r);
    }
    let mut baseline_by_entity: HashMap<EntityId, Vec<PositionReport>> = HashMap::new();
    for r in baseline_cleaned {
        baseline_by_entity.entry(r.entity).or_default().push(*r);
    }
    for (entity, survivors) in &by_entity {
        let base = baseline_by_entity
            .get(entity)
            .unwrap_or_else(|| panic!("seed {}: unknown entity {entity} in survivors", plan.seed));
        assert!(
            is_bit_subsequence(survivors, base),
            "seed {}: {entity}: surviving records are not a bit-identical subsequence",
            plan.seed
        );
    }
}

fn baseline(input: &[PositionReport]) -> Vec<PositionReport> {
    let mut layer = fresh_layer();
    let (cleaned, _) = run_pipeline(&mut layer, input.iter().copied());
    assert_eq!(cleaned.len(), input.len(), "the benign fleet is fully accepted");
    assert!(layer.health().is_all_ok());
    cleaned
}

#[test]
fn chaos_drops() {
    let input = fleet(3, 120);
    let base = baseline(&input);
    for seed in SEEDS {
        check_plan(FaultPlan::drops(0.1).with_seed(seed), &base, &input);
    }
}

#[test]
fn chaos_duplicates() {
    let input = fleet(3, 120);
    let base = baseline(&input);
    for seed in SEEDS {
        check_plan(FaultPlan::duplicates(0.1).with_seed(seed), &base, &input);
    }
}

#[test]
fn chaos_reordering() {
    let input = fleet(3, 120);
    let base = baseline(&input);
    for seed in SEEDS {
        check_plan(FaultPlan::reorders(0.1).with_seed(seed), &base, &input);
    }
}

#[test]
fn chaos_corruption() {
    let input = fleet(3, 120);
    let base = baseline(&input);
    for seed in SEEDS {
        check_plan(FaultPlan::corruption(0.1).with_seed(seed), &base, &input);
    }
}

#[test]
fn chaos_gaps() {
    let input = fleet(3, 200);
    let base = baseline(&input);
    for seed in SEEDS {
        check_plan(FaultPlan::gaps(0.01).with_seed(seed), &base, &input);
    }
}

#[test]
fn chaos_bursts() {
    let input = fleet(3, 120);
    let base = baseline(&input);
    for seed in SEEDS {
        check_plan(FaultPlan::bursts(0.02).with_seed(seed), &base, &input);
    }
}

#[test]
fn chaos_all_modes_at_once() {
    let input = fleet(4, 150);
    let base = baseline(&input);
    for seed in SEEDS {
        check_plan(FaultPlan::chaos(seed), &base, &input);
    }
}

/// The control arm: a zero-fault plan leaves the pipeline bit-identical to
/// the unwrapped run — the chaos harness itself injects nothing.
#[test]
fn chaos_control_arm_is_transparent() {
    let input = fleet(2, 100);
    let base = baseline(&input);
    let mut layer = fresh_layer();
    let (cleaned, dead) = run_pipeline(&mut layer, ChaosSource::new(input.iter().copied(), FaultPlan::none()));
    assert_eq!(cleaned.len(), base.len());
    assert!(cleaned.iter().zip(base.iter()).all(|(a, b)| bit_eq(a, b)));
    assert!(dead.is_empty());
    assert_eq!(layer.health().status, ComponentStatus::Ok);
}
