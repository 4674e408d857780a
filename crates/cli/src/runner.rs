//! Scenario execution: streams a generated scenario through the
//! real-time layer and reduces everything observable about the run to a
//! comparable digest plus count aggregates.
//!
//! The runner's job is the spill contract at fleet scale: a budgeted arm
//! (resident-entity budget + optional directory spill tier) never holds
//! more entities resident than its budget, and produces the same digest
//! — per-record outputs, end-of-stream flush, health and every
//! count-typed metric — as an unbounded arm over byte-identical input
//! (the unit tests below run both). Digests are FNV-1a over `Debug`
//! formatting, the same bit-faithful comparison the equivalence test
//! suites use, but streamed so million-entity runs never hold output
//! text in memory.

use datacron_core::spill::SpillStats;
use datacron_core::{DatacronConfig, RealTimeLayer};
use datacron_data::scenario::{ScenarioGenerator, ScenarioSpec};
use datacron_geo::{GeoPoint, Polygon, PositionReport};
use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::time::Instant;

/// Streaming FNV-1a 64 over anything `Debug`-formattable.
struct Digest(u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn absorb(&mut self, value: &impl fmt::Debug) {
        write!(self, "{value:?}").expect("fmt::Write to a hasher never fails");
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.as_bytes() {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        Ok(())
    }
}

/// Everything measured about one arm of a scenario run.
#[derive(Debug, Clone)]
pub struct ArmReport {
    /// `"budgeted"` when the arm ran under a budget, else `"resident"`.
    pub label: &'static str,
    /// Resident-entity budget the arm ran with (`None` = unbounded).
    pub budget: Option<usize>,
    /// Records ingested.
    pub reports: u64,
    /// Wall time spent inside `ingest_batch` (digesting excluded), ns.
    pub elapsed_ns: u128,
    /// `reports / elapsed`.
    pub records_per_sec: f64,
    /// FNV-1a over every per-record output, the flush, the health report
    /// and the count-typed metrics, in `Debug` form.
    pub digest: u64,
    /// Records accepted by cleaning + supervision.
    pub accepted: u64,
    /// Records dead-lettered.
    pub dead_lettered: u64,
    /// Critical points emitted (per-record, excluding flush).
    pub critical_points: u64,
    /// Low-level area events emitted.
    pub area_events: u64,
    /// Links discovered.
    pub links: u64,
    /// RDF triples generated.
    pub triples: u64,
    /// Logical entity count at end of run (resident + spilled).
    pub entities: usize,
    /// Highest residency observed after any ingest chunk.
    pub max_resident: usize,
    /// `true` when residency stayed within the budget after every chunk.
    pub budget_respected: bool,
    /// Spill-tier lifetime counters.
    pub spill: SpillStats,
}

/// The layer one arm runs on. Its monitoring context is derived from the
/// scenario extent — two protected areas in the interior and two ports on
/// the mid-latitude line — so area events and link discovery do real work
/// in every run.
fn layer(spec: &ScenarioSpec, budget: Option<usize>, spill_dir: Option<PathBuf>) -> RealTimeLayer {
    // Mixed fleets run under aviation cleaning thresholds (which admit
    // slow movers); a pure-vessel scenario keeps the maritime profile.
    let mut config = if spec.aircraft > 0 {
        DatacronConfig::aviation(spec.extent)
    } else {
        DatacronConfig::maritime(spec.extent)
    };
    config.max_resident_entities = budget;
    config.spill_dir = spill_dir;

    let e = &spec.extent;
    let (w, h) = (e.max_lon - e.min_lon, e.max_lat - e.min_lat);
    let rect = |lon0: f64, lat0: f64, lon1: f64, lat1: f64| {
        Polygon::rect(datacron_geo::BoundingBox::new(lon0, lat0, lon1, lat1))
    };
    let regions = vec![
        (1u64, rect(e.min_lon + 0.2 * w, e.min_lat + 0.2 * h, e.min_lon + 0.45 * w, e.min_lat + 0.45 * h)),
        (2u64, rect(e.min_lon + 0.55 * w, e.min_lat + 0.55 * h, e.min_lon + 0.8 * w, e.min_lat + 0.8 * h)),
    ];
    let mid = e.min_lat + 0.5 * h;
    let ports = vec![
        (1u64, GeoPoint::new(e.min_lon + 0.25 * w, mid)),
        (2u64, GeoPoint::new(e.min_lon + 0.75 * w, mid)),
    ];
    RealTimeLayer::new(config, regions, ports)
}

/// Runs one arm of a scenario, streaming the generator's reports into
/// `ingest_batch` through one reused `chunk`-sized buffer: the input is
/// never materialised, so a million-entity scenario holds one chunk of
/// reports, not the whole run.
///
/// Only the `ingest_batch` calls are timed; generation, digesting,
/// residency checks and recycling happen between timed sections.
pub fn run_arm(
    spec: &ScenarioSpec,
    mut generator: ScenarioGenerator,
    budget: Option<usize>,
    spill_dir: Option<PathBuf>,
    chunk: usize,
) -> ArmReport {
    let mut layer = layer(spec, budget, spill_dir);
    let mut digest = Digest::new();
    let mut reports = 0u64;
    let mut elapsed_ns: u128 = 0;
    let (mut accepted, mut dead_lettered) = (0u64, 0u64);
    let (mut critical_points, mut area_events, mut links, mut triples) = (0u64, 0u64, 0u64, 0u64);
    let mut max_resident = 0usize;
    let mut budget_respected = true;

    // Ingests and drains one chunk, leaving the buffer empty for reuse.
    let mut ingest = |buf: &mut Vec<PositionReport>| {
        reports += buf.len() as u64;
        let start = Instant::now();
        let outputs = layer.ingest_batch(buf.drain(..));
        elapsed_ns += start.elapsed().as_nanos();
        let resident = layer.resident_entity_count();
        max_resident = max_resident.max(resident);
        if let Some(b) = budget {
            budget_respected &= resident <= b;
        }
        for out in outputs {
            digest.absorb(&out);
            accepted += u64::from(out.accepted);
            dead_lettered += u64::from(!out.accepted);
            critical_points += out.critical_points.len() as u64;
            area_events += out.area_events.len() as u64;
            links += out.links.len() as u64;
            triples += out.triples.len() as u64;
            layer.recycle(out);
        }
    };
    let chunk = chunk.max(1);
    let mut buf = Vec::with_capacity(chunk);
    generator.run(|report| {
        buf.push(report);
        if buf.len() == chunk {
            ingest(&mut buf);
        }
    });
    if !buf.is_empty() {
        ingest(&mut buf);
    }

    digest.absorb(&layer.flush());
    digest.absorb(&layer.health());
    digest.absorb(&layer.metrics_snapshot().counters_only());
    let elapsed = elapsed_ns.max(1);
    ArmReport {
        label: if budget.is_some() { "budgeted" } else { "resident" },
        budget,
        reports,
        elapsed_ns,
        records_per_sec: reports as f64 / (elapsed as f64 / 1e9),
        digest: digest.finish(),
        accepted,
        dead_lettered,
        critical_points,
        area_events,
        links,
        triples,
        entities: layer.entity_count(),
        max_resident,
        budget_respected,
        spill: layer.spill_stats(),
    }
}

/// Executes a scenario: one arm over the scenario's generated input.
pub fn run_scenario(
    spec: &ScenarioSpec,
    budget: Option<usize>,
    spill_dir: Option<PathBuf>,
    chunk: usize,
) -> ArmReport {
    run_arm(spec, ScenarioGenerator::new(spec.clone()), budget, spill_dir, chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
name = runner-unit
seed = 11
extent = -6 36 6 44
vessels = 40
aircraft = 24
waves = 4
rounds = 2
reports_per_visit = 6
step_seconds = 10
burst = 0.4 0.6 2
regime_shift = 0.5
gap = 0.7 0.9 0.5
budget = 20
";

    #[test]
    fn budgeted_arm_is_bit_identical_to_the_resident_reference() {
        // The inline spec, and the committed smoke scenario CI runs.
        for text in [SPEC, include_str!("../../../scenarios/smoke.scenario")] {
            let spec = ScenarioSpec::parse(text).expect("spec parses");
            let budgeted =
                run_arm(&spec, ScenarioGenerator::new(spec.clone()), spec.budget, None, 173);
            let resident = run_arm(&spec, ScenarioGenerator::new(spec.clone()), None, None, 173);
            assert_eq!(budgeted.digest, resident.digest, "{budgeted:?}\nvs\n{resident:?}");
            assert!(budgeted.budget_respected, "max resident {}", budgeted.max_resident);
            assert!(budgeted.spill.evictions > 0, "{}: a budget below the fleet must evict", spec.name);
            assert!(budgeted.spill.rehydrations > 0, "{}: later rounds must rehydrate", spec.name);
            assert_eq!(resident.spill.evictions, 0);
            assert_eq!(budgeted.entities, resident.entities);
            assert_eq!(
                (budgeted.accepted, budgeted.critical_points, budgeted.triples),
                (resident.accepted, resident.critical_points, resident.triples)
            );
        }
    }

    #[test]
    fn chunk_size_does_not_change_the_digest() {
        let spec = ScenarioSpec::parse(SPEC).expect("spec parses");
        let a = run_arm(&spec, ScenarioGenerator::new(spec.clone()), spec.budget, None, 64);
        let b = run_arm(&spec, ScenarioGenerator::new(spec.clone()), spec.budget, None, 4096);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn directory_tier_matches_the_memory_tier() {
        let spec = ScenarioSpec::parse(SPEC).expect("spec parses");
        let dir = std::env::temp_dir().join(format!("datacron-cli-test-{}", std::process::id()));
        let mem = run_arm(&spec, ScenarioGenerator::new(spec.clone()), spec.budget, None, 173);
        let disk = run_arm(
            &spec,
            ScenarioGenerator::new(spec.clone()),
            spec.budget,
            Some(dir.clone()),
            173,
        );
        assert_eq!(mem.digest, disk.digest);
        assert_eq!(disk.spill.disk_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
