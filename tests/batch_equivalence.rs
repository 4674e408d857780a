//! Chunk-size invariance of the layer's one ingest path.
//!
//! `RealTimeLayer::ingest` is `ingest_batch` over one record: both run the
//! same per-record chain and flush the deferred publishes and counter bumps
//! at the end of the call. This suite pins that nothing observable depends
//! on where the input is cut into calls: per-record outputs, all five topic
//! contents, end-of-stream flush, health, dead-letter labels and every
//! count-typed metric are bit-identical between one record per call and
//! chunks of 2, `CHUNK` and the whole input — under chaotic input, with
//! supervision panics in the middle of chunks (recycling every output), and
//! through the sharded executor (whose workers cut runs at their own
//! boundaries via `ShardStage::on_batch`). Since every arm shares one
//! publish path, each run also checks every topic against its own
//! outputs: one dead letter per rejected record, and every critical
//! point, area event, triple and link.
//! Every compared stream is the whole topic, and the reference run
//! exercises the synopses stage and quarantine, so no comparison can pass
//! vacuously.

use datacron::core::realtime::{IngestOutput, RealTimeLayer};
use datacron::core::sharded::ShardedRealTimeLayer;
use datacron::core::{DatacronConfig, DeadLetter};
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

const SEEDS: [u64; 4] = [7, 42, 1234, 0xDEAD_BEEF];
/// Odd chunk size, so batch boundaries never align with entity or leg
/// structure and plenty of entity state crosses them.
const CHUNK: usize = 173;

fn config() -> DatacronConfig {
    DatacronConfig::maritime(BoundingBox::new(-6.0, 36.0, 6.0, 44.0))
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

/// A seeded maneuvering fleet: legs of steady cruising punctuated by turns
/// and speed changes, so every stage of the chain (synopses, area events,
/// links, RDF, CEP-free) does real work.
fn fleet(seed: u64) -> Vec<PositionReport> {
    let mut rng = SeededRng::new(seed);
    let entities = 10 + seed % 5;
    let reports_each = 60i64;
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

/// The chaos-wrapped input of a seed, materialised once so both runs see
/// byte-identical records.
fn chaotic_input(seed: u64) -> Vec<PositionReport> {
    ChaosSource::new(fleet(seed).into_iter(), FaultPlan::chaos(seed)).collect()
}

/// A per-entity stage that panics on one poisoned entity, exercising
/// supervision (restarts, quarantine, dead letters) mid-batch.
fn poison_stage(r: &PositionReport) {
    assert!(r.entity != EntityId::vessel(3), "poison record");
}

fn make_layer(poisoned: bool) -> RealTimeLayer {
    let (regions, ports) = context();
    let mut layer = RealTimeLayer::new(config(), regions, ports);
    if poisoned {
        layer.attach_entity_stage(poison_stage);
    }
    layer
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

/// A run's per-record outputs in Debug form, plus how many messages they
/// say each topic must hold, in `TOPIC_NAMES` order.
#[derive(Default)]
struct Outputs {
    debug: Vec<String>,
    expected: [u64; 5],
}

impl Outputs {
    fn push(&mut self, out: &IngestOutput) {
        self.debug.push(format!("{out:?}"));
        let counts = [
            out.critical_points.len(),
            out.area_events.len(),
            out.triples.len(),
            out.links.len(),
            usize::from(out.rejected.is_some()),
        ];
        for (expected, n) in self.expected.iter_mut().zip(counts) {
            *expected += n as u64;
        }
    }
}

/// Captures the run's aggregate state, after checking that the topics hold
/// exactly what the outputs and the flush report: the arms share one
/// publish path, so comparing them cannot catch a product that path loses.
/// Counter snapshot is taken before draining the topics (drains bump topic
/// `consumed` stats).
fn finish_trace(mut layer: RealTimeLayer, taps: Taps, mut outputs: Outputs) -> RunTrace {
    let flush = layer.flush();
    // Each flushed critical point lifts to ten triples.
    outputs.expected[0] += flush.len() as u64;
    outputs.expected[2] += 10 * flush.len() as u64;
    let published = [
        layer.critical.stats().published,
        layer.area_events.stats().published,
        layer.triples.stats().published,
        layer.links.stats().published,
        layer.dead_letters.stats().published,
    ];
    assert_eq!(published, outputs.expected, "topics {TOPIC_NAMES:?} hold what the outputs and the flush report");
    let health = format!("{:?}", layer.health());
    let counters = layer.metrics_snapshot().counters_only();
    let topics = taps.drain(&layer);
    RunTrace { outputs: outputs.debug, flush: format!("{flush:?}"), health, counters, topics }
}

/// Reference arm: one `ingest` call per record.
fn trace_per_record(input: &[PositionReport], poisoned: bool) -> RunTrace {
    let mut layer = make_layer(poisoned);
    let taps = Taps::subscribe(&layer);
    let mut outputs = Outputs::default();
    for r in input {
        outputs.push(&layer.ingest(*r));
    }
    finish_trace(layer, taps, outputs)
}

/// Batch arm: `ingest_batch` in `chunk`-sized slices, recycling every
/// output back into the layer's buffer pool (recycling must never change
/// what a later record produces).
fn trace_batched(input: &[PositionReport], poisoned: bool, chunk: usize) -> RunTrace {
    let mut layer = make_layer(poisoned);
    let taps = Taps::subscribe(&layer);
    let mut outputs = Outputs::default();
    for chunk in input.chunks(chunk) {
        for out in layer.ingest_batch(chunk.iter().copied()) {
            outputs.push(&out);
            layer.recycle(out);
        }
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
    for (name, (g, e)) in TOPIC_NAMES.iter().zip(got.topics.iter().zip(&reference.topics)) {
        assert_eq!(g, e, "{label}: {name} topic contents");
    }
}

#[test]
fn batch_path_is_bit_identical_to_per_record_under_chaos() {
    for seed in SEEDS {
        let input = chaotic_input(seed);
        let reference = trace_per_record(&input, false);
        assert!(
            reference.outputs.iter().any(|o| o.contains("ChangeInHeading")),
            "seed {seed}: the fleet must exercise the synopses stage"
        );
        for chunk in [2, CHUNK, input.len()] {
            let batched = trace_batched(&input, false, chunk);
            assert_traces_match(&reference, &batched, &format!("chaos seed {seed}, chunks of {chunk}"));
        }
    }
}

#[test]
fn batch_path_matches_under_supervision_panics() {
    // A poisoned entity panics inside the supervised section on every
    // record: restarts, quarantine and panic dead-letters all land
    // mid-batch and must replay identically.
    let seed = SEEDS[2];
    let input = chaotic_input(seed);
    let reference = trace_per_record(&input, true);
    assert!(
        reference.health.contains("quarantined_entities: 1"),
        "seed {seed}: the poisoned entity must be quarantined in the reference run"
    );
    let batched = trace_batched(&input, true, CHUNK);
    assert_traces_match(&reference, &batched, &format!("poisoned chaos seed {seed}"));
}

#[test]
fn sharded_workers_on_the_batch_path_match_single_threaded() {
    // Sharded workers run `ingest_batch` via `ShardStage::on_batch`;
    // the merged output stream must still be positionally identical to the
    // single-threaded per-record reference.
    for (seed, shards) in [(SEEDS[0], 2usize), (SEEDS[3], 4usize)] {
        let input = chaotic_input(seed);
        let mut single = make_layer(true);
        let expect: Vec<IngestOutput> = input.iter().map(|r| single.ingest(*r)).collect();
        let expect_flush = single.flush();
        let expect_health = single.health();

        let (regions, ports) = context();
        let mut sharded = ShardedRealTimeLayer::with_setup(
            config(),
            regions,
            ports,
            ShardedConfig::with_shards(shards),
            |layer| layer.attach_entity_stage(poison_stage),
        );
        let mut got = Vec::new();
        for chunk in input.chunks(256) {
            sharded.ingest_batch(chunk.iter().copied());
            got.extend(sharded.poll_outputs());
        }
        let flush = sharded.flush();
        let done = sharded.finish();
        got.extend(done.outputs);

        let label = format!("seed {seed}, {shards} shards");
        assert_eq!(done.merged, input.len() as u64, "{label}: lossless merge");
        assert_eq!(done.duplicates, 0, "{label}: exactly-once");
        assert_eq!(got.len(), expect.len(), "{label}");
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(
                format!("{:?}", g.output),
                format!("{e:?}"),
                "{label}: output {i} must be bit-identical"
            );
        }
        assert_eq!(format!("{flush:?}"), format!("{expect_flush:?}"), "{label}: flush");
        assert_eq!(
            format!("{:?}", done.health),
            format!("{expect_health:?}"),
            "{label}: merged health"
        );
    }
}
