//! Shared workload builders for the experiments.

use datacron_data::aviation::{FlightGenerator, FlightPlan, FlightProfile, GeneratedFlight};
use datacron_data::context::{AreaGenerator, PortGenerator, Region};
use datacron_data::maritime::{GeneratedVoyage, VoyageConfig, VoyageGenerator};
use datacron_data::weather::WeatherField;
use datacron_geo::{BoundingBox, GeoPoint, Timestamp};

/// The European-waters extent every experiment shares.
pub fn extent() -> BoundingBox {
    BoundingBox::new(-10.0, 35.0, 30.0, 60.0)
}

/// A maritime fleet of `n` voyages on the shared extent.
pub fn maritime_fleet(n: usize, config: VoyageConfig, seed: u64) -> Vec<GeneratedVoyage> {
    let ports = PortGenerator::new(extent()).generate(40, seed ^ 0xF0);
    VoyageGenerator::new(config).fleet(n, &ports, Timestamp(0), seed)
}

/// The regions of the link-discovery experiment (Natura-like + fishing).
pub fn regions(n: usize, seed: u64) -> Vec<Region> {
    let gen = AreaGenerator::new(extent());
    let mut r = gen.generate(n / 2, "natura", seed ^ 1);
    let mut fishing = gen.generate(n - n / 2, "fishing", seed ^ 2);
    // Re-number the second batch so ids stay unique.
    for (k, reg) in fishing.iter_mut().enumerate() {
        reg.id = (n / 2 + k) as u64;
    }
    r.extend(fishing);
    r
}

/// Ports for the link-discovery experiment.
pub fn ports(n: usize, seed: u64) -> Vec<datacron_data::context::Port> {
    PortGenerator::new(extent()).generate(n, seed ^ 3)
}

/// The Barcelona–Madrid flight plan of the FLP experiment (Figure 5a).
pub fn bcn_mad_plan(seed: u64) -> FlightPlan {
    FlightPlan::between(
        1,
        GeoPoint::new(2.08, 41.30),
        GeoPoint::new(-3.56, 40.47),
        5,
        10_500.0,
        220.0,
        seed,
    )
}

/// A Barcelona–Madrid routing with pronounced doglegs (SID/STAR-like course
/// changes of 20–50 degrees), exercising the non-linear phases the Fig 5a
/// evaluation focuses on.
pub fn bcn_mad_dogleg_plan() -> FlightPlan {
    use datacron_data::aviation::Waypoint;
    let origin = GeoPoint::new(2.08, 41.30);
    let destination = GeoPoint::new(-3.56, 40.47);
    let offsets_km: [f64; 5] = [35.0, -50.0, 20.0, -45.0, 40.0];
    let mut waypoints = vec![Waypoint {
        name: "DEP".into(),
        point: origin,
        altitude_m: 0.0,
    }];
    let n = offsets_km.len();
    for (k, &off) in offsets_km.iter().enumerate() {
        let f = (k + 1) as f64 / (n + 1) as f64;
        let on_line = origin.lerp(&destination, f);
        let dir = origin.bearing_to(&destination);
        let side = if off >= 0.0 { dir + 90.0 } else { dir - 90.0 };
        let alt = if f < 0.2 {
            10_500.0 * (f / 0.2)
        } else if f > 0.8 {
            10_500.0 * ((1.0 - f) / 0.2)
        } else {
            10_500.0
        };
        waypoints.push(Waypoint {
            name: format!("WP{}", k + 1),
            point: on_line.destination(side, off.abs() * 1_000.0),
            altitude_m: alt,
        });
    }
    waypoints.push(Waypoint {
        name: "ARR".into(),
        point: destination,
        altitude_m: 0.0,
    });
    FlightPlan {
        id: 2,
        waypoints,
        cruise_speed_mps: 220.0,
    }
}

/// A flight generator with 8-second sampling (the paper's rate) and mild
/// sensor noise.
pub fn flight_generator(seed: u64) -> FlightGenerator {
    let weather = WeatherField::new(extent(), seed, 4, 10.0);
    FlightGenerator::new(FlightProfile::default(), weather)
}

/// A corpus of flights on the dogleg Barcelona–Madrid routing — the FLP
/// evaluation corpus (turns and climb/descent phases included).
pub fn bcn_mad_corpus(n: usize, seed: u64) -> Vec<GeneratedFlight> {
    let plan = bcn_mad_dogleg_plan();
    flight_generator(seed).fleet_on_route(n, &plan, Timestamp(0), 1800.0, seed ^ 0xB)
}
