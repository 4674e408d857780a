//! The seven workloads: what each one is, the input it is generated from,
//! the layer it is built over, and the checksum its outputs fold into.

use datacron_cep::{Dfa, Pattern, PatternMarkovChain, Wayeb};
use datacron_core::realtime::symbols;
use datacron_core::{DatacronConfig, IngestOutput, RealTimeLayer};
use datacron_data::scenario::{ScenarioGenerator, ScenarioSpec};
use datacron_geo::{BoundingBox, GeoPoint, MovingKind, Polygon, PositionReport};

/// Records per `ingest_batch` call, and per trace id.
pub const CHUNK: usize = 512;

/// Fixed arrival rate of the open-loop workload, records per second.
pub const PACED_RATE: u64 = 100_000;

/// How a workload drives the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `RealTimeLayer::ingest_batch` on the driver thread, closed loop.
    Single,
    /// `ShardedRealTimeLayer`, closed loop.
    Sharded,
    /// `ShardedRealTimeLayer`, open loop at [`PACED_RATE`].
    Paced,
    /// `ShardedRealTimeLayer::with_live_kg` with standing subscriptions.
    Kg,
    /// `NetClient` → `NetServer` on 127.0.0.1 → `RealTimeLayer`.
    Net,
}

pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    /// The `.scenario` text the input is generated from.
    scenario: &'static str,
    /// Run under the scenario's `budget` (cold-state spill) or unbounded.
    pub budgeted: bool,
}

const STEADY: &str = include_str!("../workloads/steady.scenario");
const FLEET: &str = include_str!("../workloads/fleet.scenario");
const KG: &str = include_str!("../workloads/kg.scenario");
const NET: &str = include_str!("../workloads/net.scenario");

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "steady_single",
        why: "256 hot entities on one thread: the per-record chain does all the work; the baseline every other workload is read against",
        kind: Kind::Single,
        scenario: STEADY,
        budgeted: false,
    },
    Workload {
        name: "steady_sharded",
        why: "the same records through the sharded executor: the difference from steady_single is the executor tax (route, two topic hops, merge)",
        kind: Kind::Sharded,
        scenario: STEADY,
        budgeted: false,
    },
    Workload {
        name: "paced_sharded",
        why: "the same fleet open loop at 100k records/s: partial polls and prompt handoff, so throughput bought with batching delay shows as latency",
        kind: Kind::Paced,
        scenario: STEADY,
        budgeted: false,
    },
    Workload {
        name: "fleet_churn",
        why: "32k entities in short wave visits, all resident: working set beyond cache and one cold start per entity, so state allocation dominates",
        kind: Kind::Single,
        scenario: FLEET,
        budgeted: false,
    },
    Workload {
        name: "fleet_spill",
        why: "fleet_churn under a 12% resident budget: evictions beside rehydrations on one store, so a gain on one side that costs the other shows",
        kind: Kind::Single,
        scenario: FLEET,
        budgeted: true,
    },
    Workload {
        name: "kg_live",
        why: "1,024 entities into the sharded layer with the live KG and four standing star queries: the only workload where KG ingest and matching work",
        kind: Kind::Kg,
        scenario: KG,
        budgeted: false,
    },
    Workload {
        name: "net_loopback",
        why: "128k records over one TCP connection into a RealTimeLayer: the only workload that pays wire encode, CRC framing, ack window and admission",
        kind: Kind::Net,
        scenario: NET,
        budgeted: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Worker threads of the sharded workloads: one core is left to the driver
/// thread, which routes and merges.
pub fn shards() -> usize {
    nproc().saturating_sub(1).clamp(1, 4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    /// The scenario this workload runs, with `seed` in place of the file's
    /// own; `quick` shrinks it about twenty times (long visits get shorter,
    /// short-visit fleets get smaller).
    pub fn spec(&self, seed: u64, quick: bool) -> ScenarioSpec {
        let mut spec = ScenarioSpec::parse(self.scenario).expect("the committed scenarios parse");
        spec.seed = seed;
        if quick {
            if spec.reports_per_visit >= 100 {
                spec.reports_per_visit /= 20;
            } else {
                spec.vessels /= 20;
                spec.aircraft /= 20;
                spec.budget = spec.budget.map(|b| b / 20);
            }
        }
        spec
    }

    /// Threads that are busy during a timed pass (the driver included).
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::Single => 1,
            Kind::Sharded | Kind::Paced | Kind::Kg => 1 + shards(),
            // Driver and the server's session thread; the accept thread sleeps.
            Kind::Net => 2,
        }
    }

    pub fn shards(&self) -> usize {
        match self.kind {
            Kind::Sharded | Kind::Paced | Kind::Kg => shards(),
            Kind::Single | Kind::Net => 0,
        }
    }

    /// The CEP engine rides on every workload except `kg_live`, whose
    /// constructor (`with_live_kg`) has no per-shard setup hook.
    pub fn has_cep(&self) -> bool {
        self.kind != Kind::Kg
    }
}

/// Protected areas and ports, by id: the stationary context a layer is built over.
pub type Regions = Vec<(u64, Polygon)>;
pub type Ports = Vec<(u64, GeoPoint)>;

/// A workload's generated input and the stationary context its layer is
/// built over. Everything the product sees of the seed is in here.
pub struct Input {
    pub spec: ScenarioSpec,
    pub reports: Vec<PositionReport>,
    pub regions: Regions,
    pub ports: Ports,
}

impl Input {
    pub fn generate(spec: ScenarioSpec) -> Self {
        let reports = ScenarioGenerator::new(spec.clone()).collect_reports();
        let (regions, ports) = context(&spec.extent);
        Self { spec, reports, regions, ports }
    }

    /// The layer configuration `datacron-cli` would run this scenario with:
    /// mixed fleets under aviation cleaning thresholds (which admit slow
    /// movers).
    pub fn config(&self, budgeted: bool, metrics: bool) -> DatacronConfig {
        let mut config = if self.spec.aircraft > 0 {
            DatacronConfig::aviation(self.spec.extent)
        } else {
            DatacronConfig::maritime(self.spec.extent)
        };
        config.max_resident_entities = if budgeted { self.spec.budget } else { None };
        config.metrics = metrics;
        config
    }

    /// A single-threaded layer over this input's context.
    pub fn layer(&self, cep: bool, budgeted: bool, metrics: bool) -> RealTimeLayer {
        let mut layer = RealTimeLayer::new(self.config(budgeted, metrics), self.regions.clone(), self.ports.clone());
        if cep {
            attach_cep(&mut layer);
        }
        layer
    }
}

/// Two protected areas in the interior and two ports on the mid-latitude
/// line (the context `datacron-cli` derives from a scenario extent), so
/// area events and link discovery do real work.
fn context(e: &BoundingBox) -> (Regions, Ports) {
    let (w, h) = (e.max_lon - e.min_lon, e.max_lat - e.min_lat);
    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
        Polygon::rect(BoundingBox::new(e.min_lon + x0 * w, e.min_lat + y0 * h, e.min_lon + x1 * w, e.min_lat + y1 * h))
    };
    let regions = vec![(1, rect(0.2, 0.2, 0.45, 0.45)), (2, rect(0.55, 0.55, 0.8, 0.8))];
    let mid = e.min_lat + 0.5 * h;
    let ports = vec![(1, GeoPoint::new(e.min_lon + 0.25 * w, mid)), (2, GeoPoint::new(e.min_lon + 0.75 * w, mid))];
    (regions, ports)
}

/// The NorthToSouthReversal forecaster over heading-change critical points,
/// as `examples/maritime_monitoring.rs` attaches it.
pub fn cep_engine() -> Wayeb {
    let pattern = Pattern::north_to_south_reversal(symbols::NORTH, symbols::EAST, symbols::SOUTH);
    let dfa = Dfa::compile(&pattern, symbols::ALPHABET);
    Wayeb::new(PatternMarkovChain::new(dfa, 0, vec![0.25; symbols::ALPHABET]), 0.5, 60)
}

pub fn attach_cep(layer: &mut RealTimeLayer) {
    layer.attach_cep(cep_engine(), symbols::heading_symbolizer);
}

const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Everything the benchmark checks about a pass's per-record outputs: an
/// order-sensitive checksum per 512-record chunk over (entity, timestamp,
/// acceptance, counts of critical points / area events / links / triples /
/// detections), and the totals. Three multiplies per record — cheap enough
/// to fold while the pass runs, which is what "the driver observed the
/// output" means here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    running: u64,
    /// One checksum per completed chunk of `CHUNK` records, in order.
    pub chunks: Vec<u64>,
    pub records: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub critical_points: u64,
    pub area_events: u64,
    pub links: u64,
    pub triples: u64,
    pub detections: u64,
}

impl Default for Fold {
    fn default() -> Self {
        Self {
            running: FOLD_SEED,
            chunks: Vec::new(),
            records: 0,
            accepted: 0,
            rejected: 0,
            critical_points: 0,
            area_events: 0,
            links: 0,
            triples: 0,
            detections: 0,
        }
    }
}

impl Fold {
    #[inline]
    pub fn absorb(&mut self, report: &PositionReport, out: &IngestOutput) {
        let kind_bit = u64::from(report.entity.kind == MovingKind::Aircraft) << 63;
        let counts = out.critical_points.len() as u64
            | (out.area_events.len() as u64) << 12
            | (out.links.len() as u64) << 24
            | (out.triples.len() as u64) << 36
            | (out.cep_detections as u64) << 50
            | u64::from(out.accepted) << 62;
        let mut h = mix(self.running, report.entity.id | kind_bit);
        h = mix(h, report.ts.0 as u64);
        self.running = mix(h, counts);
        self.records += 1;
        self.accepted += u64::from(out.accepted);
        self.rejected += u64::from(!out.accepted);
        self.critical_points += out.critical_points.len() as u64;
        self.area_events += out.area_events.len() as u64;
        self.links += out.links.len() as u64;
        self.triples += out.triples.len() as u64;
        self.detections += out.cep_detections as u64;
        if self.records.is_multiple_of(CHUNK as u64) {
            self.chunks.push(std::mem::replace(&mut self.running, FOLD_SEED));
        }
    }

    /// Closes the last, partial chunk. Call once, after the last record.
    pub fn finish(&mut self) {
        if !self.records.is_multiple_of(CHUNK as u64) {
            self.chunks.push(std::mem::replace(&mut self.running, FOLD_SEED));
        }
    }

    /// Records of `expected` whose output this fold is missing, has twice,
    /// or has different — counted per chunk: a chunk whose checksum differs
    /// fails all its records. Both folds must be finished.
    pub fn failed_against(&self, expected: &Fold) -> u64 {
        let chunk_len = |i: usize, records: u64| (records - (i * CHUNK) as u64).min(CHUNK as u64);
        let mut failed = 0;
        for i in 0..self.chunks.len().max(expected.chunks.len()) {
            match (self.chunks.get(i), expected.chunks.get(i)) {
                (Some(a), Some(b)) if a == b => {}
                (_, Some(_)) => failed += chunk_len(i, expected.records),
                (Some(_), None) => failed += chunk_len(i, self.records),
                (None, None) => unreachable!("i is below one of the lengths"),
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{EntityId, Timestamp};

    fn fold_of(reports: &[PositionReport], outs: &[IngestOutput]) -> Fold {
        let mut f = Fold::default();
        for (r, o) in reports.iter().zip(outs) {
            f.absorb(r, o);
        }
        f.finish();
        f
    }

    fn fixture(n: usize) -> (Vec<PositionReport>, Vec<IngestOutput>) {
        let reports: Vec<PositionReport> = (0..n)
            .map(|i| PositionReport::basic(EntityId::vessel(i as u64 % 7), Timestamp(i as i64), GeoPoint::new(0.0, 40.0)))
            .collect();
        let outs = (0..n).map(|i| IngestOutput { accepted: i % 5 != 0, ..IngestOutput::default() }).collect();
        (reports, outs)
    }

    #[test]
    fn equal_streams_fold_equal_and_count_what_they_saw() {
        let (reports, outs) = fixture(CHUNK * 2 + 10);
        let a = fold_of(&reports, &outs);
        assert_eq!(a, fold_of(&reports, &outs));
        assert_eq!(a.failed_against(&a), 0);
        assert_eq!(a.chunks.len(), 3);
        assert_eq!(a.records, a.accepted + a.rejected);
    }

    #[test]
    fn a_swap_a_loss_and_a_changed_output_each_fail_their_chunk() {
        let (reports, outs) = fixture(CHUNK * 2 + 10);
        let expected = fold_of(&reports, &outs);

        let mut swapped = reports.clone();
        swapped.swap(3, 4);
        assert_eq!(fold_of(&swapped, &outs).failed_against(&expected), CHUNK as u64);

        let mut changed = outs.clone();
        changed[CHUNK + 1].cep_detections = 1;
        assert_eq!(fold_of(&reports, &changed).failed_against(&expected), CHUNK as u64);

        // The last ten records never arrive: only the partial chunk fails.
        let short = fold_of(&reports[..CHUNK * 2], &outs);
        assert_eq!(short.failed_against(&expected), 10);
        // And a record delivered twice shifts everything after it.
        let mut dup = reports.clone();
        dup.insert(0, reports[0]);
        let mut dup_outs = outs.clone();
        dup_outs.insert(0, outs[0].clone());
        assert_eq!(fold_of(&dup, &dup_outs).failed_against(&expected), expected.records);
    }

    #[test]
    fn every_committed_scenario_parses_and_quick_shrinks_it() {
        for w in &WORKLOADS {
            let full = w.spec(7, false);
            let quick = w.spec(7, true);
            assert_eq!(full.seed, 7);
            assert!(quick.max_reports() * 10 < full.max_reports(), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(find("fleet_spill").is_some_and(|w| w.budgeted && w.spec(1, false).budget.is_some()));
        assert!(find("nope").is_none());
    }
}
