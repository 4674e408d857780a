//! Supervision integration: a panicking per-entity operator must be
//! contained — the entity is restarted, then quarantined, the rest of the
//! fleet keeps processing, and the health report tells the story.

use datacron::core::realtime::RealTimeLayer;
use datacron::core::{ComponentStatus, DatacronConfig, DatacronSystem, RejectReason};
use datacron::geo::{BoundingBox, EntityId, GeoPoint, PositionReport, Timestamp};
use datacron::store::StoreConfig;

fn extent() -> BoundingBox {
    BoundingBox::new(0.0, 38.0, 6.0, 42.0)
}

fn rep(entity: u64, t_s: i64, lon: f64) -> PositionReport {
    PositionReport {
        speed_mps: 8.0,
        heading_deg: 90.0,
        ..PositionReport::basic(
            EntityId::vessel(entity),
            Timestamp::from_secs(t_s),
            GeoPoint::new(lon, 40.0),
        )
    }
}

#[test]
fn panicking_entity_is_restarted_then_quarantined_while_fleet_survives() {
    let config = DatacronConfig::maritime(extent());
    let max_restarts = config.supervision.max_restarts;
    let mut layer = RealTimeLayer::new(config, Vec::new(), Vec::new());
    // Entity 13 is poisoned: its records blow up the attached stage.
    layer.attach_entity_stage(|r: &PositionReport| {
        assert!(r.entity != EntityId::vessel(13), "poison record");
    });
    // Subscribed before the first ingest: a topic keeps nothing for a
    // reader that joins later.
    let mut dead_rx = layer.dead_letters.consumer();

    let mut lon_ok = 0.5f64;
    let mut lon_bad = 2.5f64;
    let mut poisoned_outputs = Vec::new();
    for i in 0..40i64 {
        // The healthy entity processes normally throughout.
        let out = layer.ingest(rep(1, i * 10, lon_ok));
        assert!(out.accepted, "healthy entity must not be affected at step {i}");
        poisoned_outputs.push(layer.ingest(rep(13, i * 10, lon_bad)));
        lon_ok += 0.001;
        lon_bad += 0.001;
    }

    // Every poisoned record was rejected, none accepted.
    assert!(poisoned_outputs.iter().all(|o| !o.accepted));
    // First records hit the panic (restart); later ones are quarantined
    // before reaching the pipeline.
    let panics = poisoned_outputs
        .iter()
        .filter(|o| o.rejected == Some(RejectReason::ProcessingPanic))
        .count();
    let quarantined = poisoned_outputs
        .iter()
        .filter(|o| o.rejected == Some(RejectReason::Quarantined))
        .count();
    assert_eq!(panics as u32, max_restarts + 1, "restarts are bounded");
    assert_eq!(panics + quarantined, 40);

    let health = layer.health();
    assert_eq!(health.status, ComponentStatus::Degraded);
    assert_eq!(health.panics as u32, max_restarts + 1);
    assert_eq!(health.restarts as u32, max_restarts + 1);
    assert_eq!(health.quarantined_entities, 1);
    assert_eq!(health.degraded.len(), 1);
    assert_eq!(health.degraded[0].entity, EntityId::vessel(13));
    assert_eq!(health.degraded[0].status, ComponentStatus::Quarantined);
    assert_eq!(health.accepted, 40, "the healthy entity's records all landed");
    assert_eq!(health.rejected, 40, "the poisoned entity's records all dead-lettered");

    // The dead-letter topic carries the full rejection history.
    let dead = dead_rx.drain().expect("unbounded topic never lags");
    assert_eq!(dead.len() as u64, layer.dead_letters.stats().published, "the whole topic");
    assert_eq!(dead.len(), 40);
    assert!(dead.iter().all(|d| d.report.entity == EntityId::vessel(13)));
}

#[test]
fn system_surfaces_health_in_situation_picture() {
    let config = DatacronConfig::maritime(extent());
    let mut system = DatacronSystem::new(config, Vec::new(), Vec::new(), StoreConfig::default());
    system.realtime.attach_entity_stage(|r: &PositionReport| {
        assert!(r.entity != EntityId::vessel(13), "poison record");
    });
    let mut lon = 0.5f64;
    for i in 0..20i64 {
        system.ingest(rep(1, i * 10, lon));
        system.ingest(rep(13, i * 10, lon + 2.0));
        lon += 0.001;
    }
    let health = system.health();
    assert_eq!(health.status, ComponentStatus::Degraded);
    assert_eq!(health.quarantined_entities, 1);
    assert!(health.panics > 0);

    let picture = system.situation(2, 10.0);
    assert_eq!(picture.health.status, ComponentStatus::Degraded);
    assert_eq!(picture.health.quarantined_entities, 1);
    assert_eq!(picture.health.accepted, 20);
    // The dead-letter topic is part of the health report's topic view.
    let dl = picture
        .health
        .topics
        .iter()
        .find(|t| t.name == "dead-letters")
        .expect("dead-letter topic in health report");
    assert_eq!(dl.end_offset, 20);
    // Only the healthy entity contributes a situation entry.
    assert_eq!(picture.entries.len(), 1);
    assert_eq!(picture.entries[0].entity, EntityId::vessel(1));
}

#[test]
fn clean_run_reports_all_ok() {
    let config = DatacronConfig::maritime(extent());
    let mut layer = RealTimeLayer::new(config, Vec::new(), Vec::new());
    let mut lon = 0.5f64;
    for i in 0..30i64 {
        layer.ingest(rep(1, i * 10, lon));
        lon += 0.001;
    }
    let health = layer.health();
    assert!(health.is_all_ok(), "{health:?}");
    assert_eq!(health.accepted, 30);
    assert_eq!(health.rejected, 0);
    assert!(health.degraded.is_empty());
    assert!(health.topics.iter().all(|t| t.is_lossless()));
}
