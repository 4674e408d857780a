//! End-to-end integration: the full datAcron architecture over a generated
//! fleet — every component of Figure 2 exercised in one flow, with
//! cross-component consistency checks.

use datacron::cep::{Dfa, Pattern, PatternMarkovChain, Wayeb};
use datacron::core::realtime::symbols;
use datacron::core::{DatacronConfig, DatacronSystem};
use datacron::data::context::{AreaGenerator, PortGenerator};
use datacron::data::maritime::{VoyageConfig, VoyageGenerator};
use datacron::geo::{BoundingBox, TimeInterval, Timestamp};
use datacron::rdf::term::Term;
use datacron::rdf::vocab;
use datacron::store::{StExecution, StarQuery, StoreConfig};

fn build_system(extent: BoundingBox) -> DatacronSystem {
    let mut area_gen = AreaGenerator::new(extent);
    area_gen.radius_m = (15_000.0, 50_000.0);
    area_gen.vertices = (12, 24);
    let regions = area_gen.generate(30, "natura", 5);
    let ports = PortGenerator::new(extent).generate(15, 6);
    let config = DatacronConfig::maritime(extent);
    let mut system = DatacronSystem::new(
        config,
        regions.iter().map(|r| (r.id, r.polygon.clone())).collect(),
        ports.iter().map(|p| (p.id, p.point)).collect(),
        StoreConfig::default(),
    );
    let pattern = Pattern::north_to_south_reversal(symbols::NORTH, symbols::EAST, symbols::SOUTH);
    let dfa = Dfa::compile(&pattern, symbols::ALPHABET);
    let pmc = PatternMarkovChain::new(dfa, 0, vec![0.25; symbols::ALPHABET]);
    system.realtime.attach_cep(Wayeb::new(pmc, 0.5, 60), symbols::heading_symbolizer);
    system
}

#[test]
fn full_pipeline_products_are_consistent() {
    let extent = BoundingBox::new(-6.0, 35.0, 10.0, 44.0);
    let mut system = build_system(extent);
    let ports = PortGenerator::new(extent).generate(15, 6);
    let fleet = VoyageGenerator::new(VoyageConfig::default()).fleet(8, &ports, Timestamp(0), 42);
    let mut reports: Vec<_> = fleet.iter().flat_map(|v| v.reports.iter().copied()).collect();
    reports.sort_by_key(|r| r.ts);
    let total_input = reports.len() as u64;

    let mut accepted = 0u64;
    let mut critical = 0u64;
    for r in reports {
        let out = system.ingest(r);
        if out.accepted {
            accepted += 1;
        }
        critical += out.critical_points.len() as u64;
    }
    let flushed = system.realtime.flush().len() as u64;

    // Cleaning accepted most but not all records (the generator injected
    // noise), and the synopsis is a dramatic reduction.
    assert!(accepted > total_input / 2, "{accepted}/{total_input} accepted");
    assert!(accepted < total_input, "some records must be rejected");
    assert!(critical + flushed < accepted / 5, "synopses must compress");

    // Topic consistency: everything emitted is on the bus.
    assert_eq!(system.realtime.critical.len(), critical + flushed);
    // Each critical point lifts to ten triples via the standard template.
    assert_eq!(system.realtime.triples.len(), (critical + flushed) * 10);

    // Batch layer: node count matches the critical topic.
    let nodes = system.sync_batch();
    assert_eq!(nodes, critical + flushed);

    // Store agreement between execution strategies on a real query.
    let q = StarQuery {
        arms: vec![
            (vocab::rdf_type(), Some(vocab::semantic_node_class())),
            (vocab::event_type(), Some(Term::str("change_in_heading"))),
        ],
        st: Some((
            extent,
            TimeInterval::new(Timestamp(0), Timestamp(100 * 3_600_000)),
        )),
    };
    let (push, _) = system.batch.query(&q, StExecution::Pushdown);
    let (post, _) = system.batch.query(&q, StExecution::PostFilter);
    assert_eq!(push, post);
    assert!(!push.is_empty(), "fleet voyages must contain turns");
}

#[test]
fn fishing_fleet_triggers_reversal_forecasting() {
    let extent = BoundingBox::new(-6.0, 35.0, 10.0, 44.0);
    let mut system = build_system(extent);
    let gen = VoyageGenerator::new(VoyageConfig::clean());
    let mut detections = 0usize;
    for i in 0..4u64 {
        let port = datacron::geo::GeoPoint::new(1.0 + i as f64, 39.0);
        let grounds = port.destination(45.0, 25_000.0);
        let trip = gen.fishing_trip(i, port, grounds, Timestamp(0), 7 + i);
        for r in trip.reports {
            detections += system.ingest(r).cep_detections;
        }
    }
    assert!(detections >= 2, "zig-zag trawling produces reversal detections, got {detections}");
}

#[test]
fn situation_picture_tracks_fleet() {
    let extent = BoundingBox::new(-6.0, 35.0, 10.0, 44.0);
    let mut system = build_system(extent);
    let ports = PortGenerator::new(extent).generate(15, 6);
    let fleet = VoyageGenerator::new(VoyageConfig::clean()).fleet(5, &ports, Timestamp(0), 21);
    let mut reports: Vec<_> = fleet.iter().flat_map(|v| v.reports.iter().copied()).collect();
    reports.sort_by_key(|r| r.ts);
    for r in reports {
        system.ingest(r);
    }
    let picture = system.situation(4, 10.0);
    assert_eq!(picture.entries.len(), 5);
    for entry in &picture.entries {
        assert_eq!(entry.predicted.len(), 4);
        // Predictions start near the last position (sanity bound: a vessel
        // does not move more than ~1 km in 10 s).
        let d = entry.last.point.haversine_distance(&entry.predicted[0]);
        assert!(d < 1_000.0, "{}: first prediction {d} m away", entry.entity);
    }
}
