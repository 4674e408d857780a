//! Spill/rehydrate equivalence: a run under a resident-entity budget
//! (`DatacronConfig::max_resident_entities`) — cold entities evicted into
//! the spill store and rehydrated on their next report — must be
//! **bit-identical** to a fully-resident run: per-record outputs, all five
//! topic contents, end-of-stream flush, health, dead-letter labels and
//! every count-typed metric. Pinned under the 8 chaos seeds, single and
//! sharded, for tight (4), loose (64) and absent budgets, through the
//! directory tier, across supervision quarantines, and across a
//! crash/recover cycle with spill enabled.

use datacron::core::realtime::RealTimeLayer;
use datacron::core::sharded::ShardedRealTimeLayer;
use datacron::core::{DatacronConfig, DatacronSystem, DeadLetter, DurabilityConfig};
use datacron::data::rng::SeededRng;
use datacron::geo::{BoundingBox, EntityId, GeoPoint, Polygon, PositionReport, Timestamp};
use datacron::linkdisc::Link;
use datacron::obs::MetricsSnapshot;
use datacron::rdf::term::Triple;
use datacron::stream::bus::{Consumer, Topic};
use datacron::stream::faults::{ChaosSource, FaultPlan};
use datacron::stream::lowlevel::AreaEvent;
use datacron::stream::parallel::ShardedConfig;
use datacron::synopses::CriticalPoint;

const SEEDS: [u64; 8] = [1, 7, 23, 42, 97, 1234, 0xDEAD_BEEF, u64::MAX / 3];

fn config(budget: Option<usize>) -> DatacronConfig {
    let mut c = DatacronConfig::maritime(BoundingBox::new(-6.0, 36.0, 6.0, 44.0));
    c.max_resident_entities = budget;
    c
}

type Context = (Vec<(u64, Polygon)>, Vec<(u64, GeoPoint)>);

fn context() -> Context {
    let regions = vec![
        (7u64, Polygon::rect(BoundingBox::new(-1.0, 39.0, 1.0, 41.0))),
        (8u64, Polygon::rect(BoundingBox::new(1.5, 37.5, 3.5, 39.5))),
    ];
    let ports = vec![(3u64, GeoPoint::new(0.0, 40.0)), (4u64, GeoPoint::new(2.0, 38.0))];
    (regions, ports)
}

/// A seeded maneuvering fleet large enough that a budget of 4 keeps the
/// spill tier churning: most records of most entities arrive while the
/// entity is cold.
fn fleet(seed: u64) -> Vec<PositionReport> {
    let mut rng = SeededRng::new(seed);
    let entities = 12 + seed % 5;
    let reports_each = 50i64;
    struct Track {
        pos: GeoPoint,
        heading: f64,
        speed: f64,
        turn_in: i64,
    }
    let mut tracks: Vec<Track> = (0..entities)
        .map(|_| Track {
            pos: GeoPoint::new(rng.uniform(-2.0, 3.0), rng.uniform(38.0, 41.0)),
            heading: rng.uniform(0.0, 360.0),
            speed: rng.uniform(4.0, 12.0),
            turn_in: rng.int_range(5, 20),
        })
        .collect();
    let mut out = Vec::new();
    for t in 0..reports_each {
        for (e, track) in tracks.iter_mut().enumerate() {
            track.turn_in -= 1;
            if track.turn_in <= 0 {
                track.heading = (track.heading + rng.uniform(-120.0, 120.0)).rem_euclid(360.0);
                track.speed = (track.speed + rng.uniform(-3.0, 3.0)).clamp(1.0, 15.0);
                track.turn_in = rng.int_range(5, 20);
            }
            track.pos = track.pos.destination(track.heading, track.speed * 10.0);
            out.push(PositionReport {
                speed_mps: track.speed,
                heading_deg: track.heading,
                ..PositionReport::basic(
                    EntityId::vessel(e as u64),
                    Timestamp::from_secs(t * 10),
                    track.pos,
                )
            });
        }
    }
    out
}

/// The chaos-wrapped input of a seed, materialised once so every arm sees
/// byte-identical records.
fn chaotic_input(seed: u64) -> Vec<PositionReport> {
    ChaosSource::new(fleet(seed).into_iter(), FaultPlan::chaos(seed)).collect()
}

/// A per-entity stage that panics on one poisoned entity, exercising
/// supervision (restarts, quarantine, dead letters) while the tier churns.
fn poison_stage(r: &PositionReport) {
    assert!(r.entity != EntityId::vessel(3), "poison record");
}

/// Everything observable about a completed run, in comparable (Debug)
/// form. Debug spells every `f64` bit-faithfully, and NaN == NaN as text,
/// which chaos-corrupted records require.
struct RunTrace {
    outputs: Vec<String>,
    flush: String,
    health: String,
    counters: MetricsSnapshot,
    topics: Vec<String>,
    checkpoint: String,
}

/// Consumers on all five output topics, registered before the first
/// ingest: a topic keeps nothing for a reader that joins later.
struct Taps {
    critical: Consumer<CriticalPoint>,
    area_events: Consumer<AreaEvent>,
    triples: Consumer<Triple>,
    links: Consumer<Link>,
    dead_letters: Consumer<DeadLetter>,
}

impl Taps {
    fn subscribe(layer: &RealTimeLayer) -> Self {
        Self {
            critical: layer.critical.consumer(),
            area_events: layer.area_events.consumer(),
            triples: layer.triples.consumer(),
            links: layer.links.consumer(),
            dead_letters: layer.dead_letters.consumer(),
        }
    }

    /// Each topic's contents in Debug form.
    fn drain(mut self, layer: &RealTimeLayer) -> Vec<String> {
        vec![
            drain_whole(&mut self.critical, &layer.critical),
            drain_whole(&mut self.area_events, &layer.area_events),
            drain_whole(&mut self.triples, &layer.triples),
            drain_whole(&mut self.links, &layer.links),
            drain_whole(&mut self.dead_letters, &layer.dead_letters),
        ]
    }
}

/// Drains a tap, asserting it read everything the topic ever published
/// (so the comparison can never pass on two empty streams).
fn drain_whole<T: Clone + std::fmt::Debug>(rx: &mut Consumer<T>, topic: &Topic<T>) -> String {
    let all = rx.drain().expect("no lag");
    assert_eq!(all.len() as u64, topic.stats().published, "{}: the whole topic", topic.name());
    format!("{all:?}")
}

fn finish_trace(mut layer: RealTimeLayer, taps: Taps, outputs: Vec<String>) -> RunTrace {
    let flush = format!("{:?}", layer.flush());
    let health = format!("{:?}", layer.health());
    let counters = layer.metrics_snapshot().counters_only();
    // The durable state must also be budget-blind: spilled entities decode
    // back into the checkpoint.
    let checkpoint = format!("{:?}", layer.checkpoint_state().entities);
    let topics = taps.drain(&layer);
    RunTrace { outputs, flush, health, counters, topics, checkpoint }
}

/// Single-threaded arm under the given budget, asserting the budget is
/// actually enforced after every record.
fn trace_single(input: &[PositionReport], budget: Option<usize>, poisoned: bool) -> RunTrace {
    let (regions, ports) = context();
    let mut layer = RealTimeLayer::new(config(budget), regions, ports);
    if poisoned {
        layer.attach_entity_stage(poison_stage);
    }
    let taps = Taps::subscribe(&layer);
    let mut outputs = Vec::with_capacity(input.len());
    for r in input {
        outputs.push(format!("{:?}", layer.ingest(*r)));
        if let Some(b) = budget {
            assert!(
                layer.resident_entity_count() <= b,
                "resident {} exceeded budget {b}",
                layer.resident_entity_count()
            );
        }
    }
    if let Some(b) = budget {
        let stats = layer.spill_stats();
        // Fleets are 12–16 entities: a tight budget must churn the tier; a
        // loose one (64) must leave it untouched.
        if b < 12 {
            assert!(stats.evictions > 0, "the tier must be exercised: {stats:?}");
        } else {
            assert_eq!(stats.evictions, 0, "a loose budget must never evict: {stats:?}");
        }
        assert_eq!(stats.disk_errors, 0);
        assert_eq!(stats.rehydrate_failures, 0);
    }
    finish_trace(layer, taps, outputs)
}

const TOPIC_NAMES: [&str; 5] = ["critical", "area_events", "triples", "links", "dead_letters"];

fn assert_traces_match(reference: &RunTrace, got: &RunTrace, label: &str) {
    assert_eq!(got.outputs.len(), reference.outputs.len(), "{label}: output count");
    for (i, (g, e)) in got.outputs.iter().zip(&reference.outputs).enumerate() {
        assert_eq!(g, e, "{label}: output {i} must be bit-identical");
    }
    assert_eq!(got.flush, reference.flush, "{label}: end-of-stream flush");
    assert_eq!(got.health, reference.health, "{label}: health report");
    assert_eq!(got.counters, reference.counters, "{label}: count-typed metrics");
    assert_eq!(got.checkpoint, reference.checkpoint, "{label}: durable entity state");
    for (name, (g, e)) in TOPIC_NAMES.iter().zip(got.topics.iter().zip(&reference.topics)) {
        assert_eq!(g, e, "{label}: {name} topic contents");
    }
}

#[test]
fn budgeted_runs_are_bit_identical_to_resident_runs() {
    for seed in SEEDS {
        let input = chaotic_input(seed);
        let reference = trace_single(&input, None, false);
        assert!(
            reference.outputs.iter().any(|o| o.contains("ChangeInHeading")),
            "seed {seed}: the fleet must exercise the synopses stage"
        );
        for budget in [4usize, 64] {
            let got = trace_single(&input, Some(budget), false);
            assert_traces_match(&reference, &got, &format!("seed {seed}, budget {budget}"));
        }
    }
}

#[test]
fn directory_tier_is_bit_identical_too() {
    let dir = std::env::temp_dir().join(format!("datacron-spill-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for seed in [SEEDS[0], SEEDS[5]] {
        let input = chaotic_input(seed);
        let reference = trace_single(&input, None, false);
        let (regions, ports) = context();
        let mut cfg = config(Some(4));
        cfg.spill_dir = Some(dir.clone());
        let mut layer = RealTimeLayer::new(cfg, regions, ports);
        let taps = Taps::subscribe(&layer);
        let mut outputs = Vec::with_capacity(input.len());
        let mut saw_files = false;
        for r in &input {
            outputs.push(format!("{:?}", layer.ingest(*r)));
            assert!(layer.resident_entity_count() <= 4);
            saw_files |= layer.spill_stats().spilled > 0;
        }
        assert!(saw_files, "seed {seed}: blobs went through the directory tier");
        assert_eq!(layer.spill_stats().disk_errors, 0, "seed {seed}: tier stayed healthy");
        let got = finish_trace(layer, taps, outputs);
        assert_traces_match(&reference, &got, &format!("dir tier, seed {seed}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantined_entities_are_never_spilled() {
    for seed in [SEEDS[1], SEEDS[3]] {
        let input = chaotic_input(seed);
        let reference = trace_single(&input, None, true);
        assert!(
            reference.health.contains("quarantined_entities: 1"),
            "seed {seed}: the poisoned entity must be quarantined in the reference run"
        );
        let (regions, ports) = context();
        let mut layer = RealTimeLayer::new(config(Some(4)), regions, ports);
        layer.attach_entity_stage(poison_stage);
        let taps = Taps::subscribe(&layer);
        let mut outputs = Vec::with_capacity(input.len());
        for r in &input {
            outputs.push(format!("{:?}", layer.ingest(*r)));
            // The invariant, checked after every record: quarantine follows
            // a panic, which drops the entity's state — nothing of it may
            // ever sit in the cold tier.
            assert!(
                !layer.spilled_entities().contains(&EntityId::vessel(3)),
                "seed {seed}: a poisoned entity leaked into the spill store"
            );
        }
        let got = finish_trace(layer, taps, outputs);
        assert_traces_match(&reference, &got, &format!("poisoned seed {seed}"));
    }
}

#[test]
fn sharded_budgeted_runs_match_the_single_threaded_resident_reference() {
    for (seed, budget) in [
        (SEEDS[2], Some(4usize)),
        (SEEDS[4], Some(64)),
        (SEEDS[6], Some(4)),
        (SEEDS[7], None),
    ] {
        let input = chaotic_input(seed);
        let reference = trace_single(&input, None, false);
        // Nothing subscribes to the shards' topics, so their merged health
        // is compared with an unsubscribed single-threaded run's.
        let reference_health = {
            let (regions, ports) = context();
            let mut plain = RealTimeLayer::new(config(None), regions, ports);
            for r in &input {
                plain.ingest(*r);
            }
            plain.flush();
            format!("{:?}", plain.health())
        };

        let (regions, ports) = context();
        let mut sharded = ShardedRealTimeLayer::new(
            config(budget),
            regions,
            ports,
            ShardedConfig::with_shards(4),
        );
        let mut got = Vec::new();
        for chunk in input.chunks(256) {
            sharded.ingest_batch(chunk.iter().copied());
            got.extend(sharded.poll_outputs());
        }
        let flush = sharded.flush();
        let health = sharded.health();
        let done = sharded.finish();
        got.extend(done.outputs);

        let label = format!("seed {seed}, 4 shards, budget {budget:?}");
        assert_eq!(done.merged, input.len() as u64, "{label}: lossless merge");
        assert_eq!(done.duplicates, 0, "{label}: exactly-once");
        assert_eq!(got.len(), reference.outputs.len(), "{label}: output count");
        for (i, (g, e)) in got.iter().zip(&reference.outputs).enumerate() {
            assert_eq!(format!("{:?}", g.output), *e, "{label}: output {i} must be bit-identical");
        }
        assert_eq!(format!("{flush:?}"), reference.flush, "{label}: flush");
        assert_eq!(format!("{health:?}"), reference_health, "{label}: merged health");
    }
}

#[test]
fn recovery_with_spill_enabled_round_trips() {
    // Crash mid-stream under a tight budget (entities split between the
    // hot map and the cold tier at checkpoint time), recover with the same
    // budget, finish the stream: everything observable must equal an
    // uninterrupted fully-resident run.
    let seed = SEEDS[0];
    let input = chaotic_input(seed);
    let cut = input.len() / 2;
    let dir = std::env::temp_dir().join(format!("datacron-spill-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (regions, ports) = context();

    // Reference: uninterrupted, no budget, no durability.
    let mut reference = DatacronSystem::new(
        config(None),
        regions.clone(),
        ports.clone(),
        datacron::store::StoreConfig::default(),
    );
    let ref_outputs: Vec<String> =
        input.iter().map(|r| format!("{:?}", reference.ingest(*r))).collect();
    let ref_flush = format!("{:?}", reference.realtime.flush());
    let ref_state = format!("{:?}", reference.realtime.checkpoint_state().entities);
    // Layer-level health: the system report carries a `durability` section
    // only the durable arm has; everything else must match bit-for-bit.
    let ref_health = format!("{:?}", reference.realtime.health());

    // Budgeted, durable run that crashes at the cut.
    let mut crashed = DatacronSystem::new(
        config(Some(4)),
        regions.clone(),
        ports.clone(),
        datacron::store::StoreConfig::default(),
    );
    crashed.enable_durability(DurabilityConfig::at(&dir)).expect("fresh dir");
    let mut outputs: Vec<String> = Vec::with_capacity(input.len());
    for r in &input[..cut] {
        outputs.push(format!("{:?}", crashed.ingest(*r)));
    }
    assert!(
        crashed.realtime.spill_stats().evictions > 0,
        "the tier must be populated before the crash"
    );
    drop(crashed);

    // Recover with the budget still configured and finish the stream.
    let (mut recovered, report) = DatacronSystem::recover(
        config(Some(4)),
        regions,
        ports,
        datacron::store::StoreConfig::default(),
        DurabilityConfig::at(&dir),
    )
    .expect("recovery succeeds");
    assert_eq!(report.recovered_through, cut as u64, "nothing lost at the cut");
    // Replayed records re-run through ingest; their outputs replace the
    // pre-crash tail beyond the last checkpoint, so rebuild the full
    // output list deterministically: keep the checkpoint-covered prefix,
    // then re-trace the replayed suffix by re-ingesting the remainder.
    for r in &input[cut..] {
        outputs.push(format!("{:?}", recovered.ingest(*r)));
    }
    assert!(
        recovered.realtime.resident_entity_count() <= 4,
        "budget enforced after recovery"
    );
    assert_eq!(
        format!("{:?}", recovered.realtime.flush()),
        ref_flush,
        "flush after recovery"
    );
    assert_eq!(
        format!("{:?}", recovered.realtime.checkpoint_state().entities),
        ref_state,
        "durable entity state after recovery"
    );
    assert_eq!(
        format!("{:?}", recovered.realtime.health()),
        ref_health,
        "health after recovery"
    );
    assert_eq!(outputs, ref_outputs, "per-record outputs across the crash");
    let _ = std::fs::remove_dir_all(&dir);
}
