//! Live knowledge-graph acceptance suite: streaming triple ingestion with
//! continuous star-join subscriptions must be **equivalent** to batch
//! loading — for 8 chaos seeds and shard counts {1, 4}, registering a
//! subscription and streaming triples through the pipeline yields exactly
//! the match set obtained by batch-loading the same triples and running
//! `execute_star` once at the end. On top of the equivalence drill:
//! concurrent snapshot reads never observe a half-applied batch, a slow
//! KG consumer cannot silently drop triples (bounded `triples` topic with
//! blocking backpressure), the count-typed `kg.*` series are bit-identical
//! single vs sharded, and the `kg.ingest_to_match_ns` histogram plus
//! `KgHealth` surface in metrics and health.
//!
//! The store's write path (sorted runs, size-tiered merge, semi-naive
//! subscription evaluation) is pinned by properties over seeded random
//! triple streams: `emissions_are_independent_of_batching`,
//! `segments_stay_logarithmic_and_pinned_snapshots_survive_merges`, and
//! `subscribing_while_draining_counts_each_match_once`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use datacron::core::kg::{LiveKg, LiveKgConfig};
use datacron::core::realtime::RealTimeLayer;
use datacron::core::sharded::ShardedRealTimeLayer;
use datacron::core::system::DatacronSystem;
use datacron::core::DatacronConfig;
use datacron::data::rng::SeededRng;
use datacron::geo::{
    BoundingBox, EntityId, EquiGrid, GeoPoint, PositionReport, StCellEncoder, TimeInterval,
    Timestamp,
};
use datacron::rdf::term::{Term, Triple};
use datacron::rdf::vocab;
use datacron::store::store::{StExecution, StarQuery};
use datacron::store::{anchored_node_triples, LiveStore, StoreConfig};
use datacron::stream::faults::{ChaosSource, FaultPlan};
use datacron::stream::parallel::ShardedConfig;

const SEEDS: [u64; 8] = [1, 7, 23, 42, 97, 1234, 0xDEAD_BEEF, u64::MAX / 3];
const SHARD_COUNTS: [usize; 2] = [1, 4];

fn config() -> DatacronConfig {
    DatacronConfig::maritime(BoundingBox::new(0.0, 38.0, 6.0, 42.0))
}

/// A seed-shaped fleet with one turn per entity (critical points → RDF
/// triples) and a chaos pass (drops, duplicates, reorders) over it.
fn stream(seed: u64) -> Vec<PositionReport> {
    let entities = 4 + seed % 5;
    let mut all = Vec::new();
    for e in 0..entities {
        let mut p = GeoPoint::new(0.5 + 0.5 * e as f64, 39.0 + 0.2 * e as f64);
        for i in 0..80i64 {
            let heading = if i < 40 { 90.0 } else { 180.0 };
            all.push(PositionReport {
                speed_mps: 8.0,
                heading_deg: heading,
                ..PositionReport::basic(EntityId::vessel(e), Timestamp::from_secs(i * 10), p)
            });
            p = p.destination(heading, 80.0);
        }
    }
    all.sort_by_key(|r| (r.ts, r.entity));
    ChaosSource::new(all.into_iter(), FaultPlan::chaos(seed)).collect()
}

/// The continuous queries under test: a plain star join over heading
/// changes, and the same join constrained to a spatio-temporal window
/// (exercises the dictionary's st pushdown on the live path).
fn queries() -> Vec<StarQuery> {
    let arms = vec![
        (vocab::rdf_type(), Some(vocab::semantic_node_class())),
        (vocab::event_type(), Some(Term::str("change_in_heading"))),
    ];
    vec![
        StarQuery { arms: arms.clone(), st: None },
        StarQuery {
            arms,
            st: Some((
                BoundingBox::new(0.0, 38.0, 3.0, 42.0),
                TimeInterval::new(Timestamp::from_secs(0), Timestamp::from_secs(500)),
            )),
        },
    ]
}

fn subject_set(terms: &[Term]) -> BTreeSet<String> {
    terms.iter().map(|t| format!("{t:?}")).collect()
}

fn match_set(matches: &[datacron::store::StarMatch]) -> BTreeSet<String> {
    matches.iter().map(|m| format!("{:?}", m.subject)).collect()
}

/// Runs the pipeline single-threaded with no KG attached and captures the
/// full `triples` stream, then batch-loads it into a fresh [`LiveStore`]
/// in **one** `ingest_batch` and runs each query once at the end — the
/// reference the live paths must reproduce exactly.
fn batch_reference(input: &[PositionReport]) -> Vec<BTreeSet<String>> {
    let cfg = config();
    let mut layer = RealTimeLayer::new(cfg.clone(), Vec::new(), Vec::new());
    let mut triples_rx = layer.triples.consumer();
    for r in input {
        layer.ingest(*r);
    }
    layer.flush();
    let mut all: Vec<Triple> = Vec::new();
    loop {
        let batch = triples_rx.drain().expect("unbounded topic never lags");
        if batch.is_empty() {
            break;
        }
        all.extend(batch);
    }
    assert!(!all.is_empty(), "the fixture must produce triples");

    let grid = EquiGrid::new(cfg.extent, cfg.st_grid_cells, cfg.st_grid_cells);
    let encoder = StCellEncoder::new(grid, cfg.epoch, cfg.st_bucket_millis);
    let store = LiveStore::new(encoder, StoreConfig::default());
    store.ingest_batch(&all);
    queries()
        .iter()
        .map(|q| {
            let (push, _) = store.snapshot().execute_star(q, StExecution::Pushdown);
            let (post, _) = store.snapshot().execute_star(q, StExecution::PostFilter);
            assert_eq!(subject_set(&push), subject_set(&post), "execution modes agree");
            subject_set(&push)
        })
        .collect()
}

#[test]
fn live_matches_equal_batch_load_then_query() {
    for seed in SEEDS {
        let input = stream(seed);
        let expected = batch_reference(&input);
        assert!(
            !expected[0].is_empty(),
            "seed {seed}: the fixture must produce heading-change matches"
        );

        // Single-threaded: the system drains the KG on every ingest.
        let mut system =
            DatacronSystem::new(config(), Vec::new(), Vec::new(), StoreConfig::default());
        let kg = system.enable_live_kg(LiveKgConfig::default());
        let mut handles: Vec<_> = queries().into_iter().map(|q| kg.subscribe(q)).collect();
        for r in &input {
            system.ingest(*r);
        }
        system.realtime.flush();
        system.sync_batch();
        for (i, handle) in handles.iter_mut().enumerate() {
            let matches = handle.matches.drain().expect("match topic never overflows here");
            assert_eq!(
                match_set(&matches), expected[i],
                "seed {seed}, single-threaded, query {i}"
            );
        }
        assert!(system.health().kg.expect("kg enabled").is_clean(), "seed {seed}");

        // Sharded: the KG drains at the barrier points.
        for shards in SHARD_COUNTS {
            let (mut sharded, kg) = ShardedRealTimeLayer::with_live_kg(
                config(),
                Vec::new(),
                Vec::new(),
                ShardedConfig::with_shards(shards),
                LiveKgConfig::default(),
            );
            let mut handles: Vec<_> = queries().into_iter().map(|q| kg.subscribe(q)).collect();
            sharded.ingest_batch(input.iter().copied());
            sharded.flush();
            for (i, handle) in handles.iter_mut().enumerate() {
                let matches = handle.matches.drain().expect("match topic never overflows here");
                assert_eq!(
                    match_set(&matches), expected[i],
                    "seed {seed}, {shards} shards, query {i}"
                );
            }
            let shutdown = sharded.finish();
            let health = shutdown.health.kg.expect("kg enabled");
            assert!(health.is_clean(), "seed {seed}, {shards} shards");
        }
    }
}

#[test]
fn kg_counters_are_bit_identical_single_vs_sharded() {
    let kg_counters = |snap: &datacron::obs::MetricsSnapshot| -> Vec<(String, u64)> {
        snap.counters()
            .iter()
            .filter(|(name, _)| name.starts_with("kg."))
            .cloned()
            .collect()
    };
    for seed in [7u64, 42] {
        let input = stream(seed);

        let mut system =
            DatacronSystem::new(config(), Vec::new(), Vec::new(), StoreConfig::default());
        let kg = system.enable_live_kg(LiveKgConfig::default());
        let _handles: Vec<_> = queries().into_iter().map(|q| kg.subscribe(q)).collect();
        for r in &input {
            system.ingest(*r);
        }
        system.realtime.flush();
        system.sync_batch();
        let expected = kg_counters(&system.metrics());
        assert!(
            expected.iter().any(|(n, v)| n == "kg.matches_emitted" && *v > 0),
            "seed {seed}: the fixture must emit matches"
        );

        for shards in SHARD_COUNTS {
            let (mut sharded, kg) = ShardedRealTimeLayer::with_live_kg(
                config(),
                Vec::new(),
                Vec::new(),
                ShardedConfig::with_shards(shards),
                LiveKgConfig::default(),
            );
            let _handles: Vec<_> = queries().into_iter().map(|q| kg.subscribe(q)).collect();
            sharded.ingest_batch(input.iter().copied());
            sharded.flush();
            let got = kg_counters(&sharded.metrics());
            sharded.finish();
            assert_eq!(got, expected, "seed {seed}, {shards} shards");
        }
    }
}

#[test]
fn health_and_metrics_expose_the_kg_section() {
    let input = stream(42);
    let mut system = DatacronSystem::new(config(), Vec::new(), Vec::new(), StoreConfig::default());
    let kg = system.enable_live_kg(LiveKgConfig::default());
    let _handle = kg.subscribe(queries().remove(0));
    for r in &input {
        system.ingest(*r);
    }
    system.realtime.flush();
    system.sync_batch();

    let health = system.health().kg.expect("health carries the KG section");
    assert!(health.ingested_triples > 0);
    assert!(health.st_subjects > 0);
    assert_eq!(health.subscriptions, 1);
    assert!(health.matches_emitted > 0);
    assert!(health.is_clean());

    let snap = system.metrics();
    assert_eq!(snap.counter("kg.ingested_triples"), Some(health.ingested_triples));
    assert_eq!(snap.counter("kg.matches_emitted"), Some(health.matches_emitted));
    assert_eq!(snap.counter("kg.subscriptions"), Some(1));
    let hist = snap.histogram("kg.ingest_to_match_ns").expect("latency histogram registered");
    assert_eq!(hist.count, health.matches_emitted, "one latency sample per streamed match");
    assert!(snap.gauge("kg.watermark").unwrap_or(0) > 0);
    assert_eq!(snap.gauge("kg.triples_lost"), Some(0));
}

#[test]
fn concurrent_snapshots_never_observe_a_partial_batch() {
    let input = stream(97);
    let mut system = DatacronSystem::new(config(), Vec::new(), Vec::new(), StoreConfig::default());
    let kg = system.enable_live_kg(LiveKgConfig::default());
    let done = AtomicBool::new(false);
    // Snapshots checked so far. The writer holds back two thirds of the
    // stream until the reader has checked one (the store ingests this stream
    // in a few milliseconds: an unsynchronised reader can miss all of it).
    let observed = AtomicU64::new(0);

    std::thread::scope(|s| {
        let reader_kg = kg.clone();
        let (done_ref, observed) = (&done, &observed);
        let reader = s.spawn(move || {
            let mut last_watermark = 0u64;
            while !done_ref.load(Ordering::Acquire) {
                let snap = reader_kg.store().snapshot();
                let watermark = snap.triple_count();
                // A generation is immutable and complete: the segment sum
                // always equals the watermark (never a half-applied batch),
                // and pinned reads are stable.
                assert_eq!(snap.generation().triple_count(), watermark);
                assert_eq!(snap.triple_count(), watermark, "pinned snapshot is stable");
                assert!(watermark >= last_watermark, "watermark is monotone");
                last_watermark = watermark;
                observed.fetch_add(1, Ordering::Release);
            }
        });

        let (head, tail) = input.split_at(input.len() / 3);
        for r in head {
            system.ingest(*r);
        }
        while observed.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        for r in tail {
            system.ingest(*r);
        }
        system.realtime.flush();
        system.sync_batch();
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread");
    });
    assert!(kg.health().ingested_triples > 0);
}

/// Satellite regression: with the KG attached, the `triples` topic is
/// bounded under a **blocking** overflow policy — a slow consumer stalls
/// the publisher instead of losing data, and every produced triple is
/// accounted for in the store (`published == consumed == ingested`).
#[test]
fn slow_kg_consumer_cannot_silently_drop_triples() {
    let kg_config = LiveKgConfig {
        triples_capacity: 8, // tiny: the pipeline outruns the drainer at once
        ..LiveKgConfig::default()
    };
    let kg = LiveKg::new(&config(), kg_config);
    let mut layer = RealTimeLayer::new(config(), Vec::new(), Vec::new());
    kg.attach(&mut layer);
    let input = stream(23);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let drainer_kg: Arc<LiveKg> = kg.clone();
        let done_ref = &done;
        // A deliberately slow consumer: drains, then naps.
        s.spawn(move || {
            while !done_ref.load(Ordering::Acquire) {
                drainer_kg.drain();
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            drainer_kg.drain();
        });
        for r in &input {
            layer.ingest(*r);
        }
        layer.flush();
        done.store(true, Ordering::Release);
    });
    kg.drain();

    let stats = layer.triples.stats();
    let health = kg.health();
    assert!(stats.published > 8, "the fixture overruns the tiny topic");
    assert_eq!(stats.consumed, stats.published, "every triple was consumed");
    assert_eq!(health.ingested_triples, stats.published, "every triple reached the store");
    assert_eq!(health.triples_lost, 0, "nothing was lost, silently or otherwise");
    assert_eq!(stats.dropped, 0, "blocking backpressure never drops");
    assert!(health.is_clean());
}

/// A live resize must be invisible to the knowledge graph: subscriptions
/// registered before the resize keep matching across it (the KG detaches
/// the drained fleet at the epoch boundary and re-attaches the new one),
/// no triple is lost or double-ingested, and the count-typed `kg.*`
/// series still equal the single-threaded run's at end of stream.
#[test]
fn live_kg_survives_mid_stream_resizes() {
    let kg_counters = |snap: &datacron::obs::MetricsSnapshot| -> Vec<(String, u64)> {
        snap.counters()
            .iter()
            .filter(|(name, _)| name.starts_with("kg."))
            .cloned()
            .collect()
    };
    for seed in [7u64, 42] {
        let input = stream(seed);
        let expected = batch_reference(&input);

        // Single-threaded reference for the kg.* counter series.
        let mut system =
            DatacronSystem::new(config(), Vec::new(), Vec::new(), StoreConfig::default());
        let single_kg = system.enable_live_kg(LiveKgConfig::default());
        let _single_handles: Vec<_> =
            queries().into_iter().map(|q| single_kg.subscribe(q)).collect();
        for r in &input {
            system.ingest(*r);
        }
        system.realtime.flush();
        system.sync_batch();
        let expected_counters = kg_counters(&system.metrics());

        let (mut sharded, kg) = ShardedRealTimeLayer::with_live_kg(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(2),
            LiveKgConfig::default(),
        );
        let mut handles: Vec<_> = queries().into_iter().map(|q| kg.subscribe(q)).collect();
        let third = input.len() / 3;
        for (i, r) in input.iter().enumerate() {
            if i == third {
                sharded.resize(8).expect("resize 2 -> 8 with KG attached");
            }
            if i == 2 * third {
                sharded.resize(4).expect("resize 8 -> 4 with KG attached");
            }
            sharded.ingest(*r);
            sharded.poll_outputs();
        }
        sharded.flush();
        for (i, handle) in handles.iter_mut().enumerate() {
            let matches = handle.matches.drain().expect("match topic never overflows here");
            assert_eq!(
                match_set(&matches),
                expected[i],
                "seed {seed}, query {i}: matches must survive the resizes"
            );
        }
        let got_counters = kg_counters(&sharded.metrics());
        assert_eq!(got_counters, expected_counters, "seed {seed}: kg.* series continuous");
        let health = sharded.finish().health.kg.expect("kg enabled");
        assert!(health.is_clean(), "seed {seed}: no triple lost or left behind");
    }
}

fn prop_store(partitions: usize) -> LiveStore {
    let grid = EquiGrid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 16, 16);
    let encoder = StCellEncoder::new(grid, Timestamp(0), 60_000);
    LiveStore::new(encoder, StoreConfig { partitions, ..StoreConfig::default() })
}

/// Star queries over the random streams: anchored nodes (plain and under an
/// st window) and the recurring, never-anchored entity subjects.
fn prop_queries() -> Vec<StarQuery> {
    let node_arms = vec![
        (Term::iri("p:type"), Some(Term::iri("c:Node"))),
        (Term::iri("p:event"), Some(Term::str("turn"))),
    ];
    let window = (
        BoundingBox::new(1.0, 0.0, 7.0, 6.0),
        TimeInterval::new(Timestamp(0), Timestamp(1_500_000)),
    );
    vec![
        StarQuery { arms: node_arms.clone(), st: None },
        StarQuery { arms: node_arms, st: Some(window) },
        StarQuery {
            arms: vec![
                (Term::iri("p:kind"), Some(Term::iri("c:Entity"))),
                (Term::iri("p:flag"), Some(Term::str("hot"))),
                (Term::iri("p:hasNode"), None),
            ],
            st: None,
        },
    ]
}

/// A seeded triple stream shaped like the pipeline's, but adversarial about
/// *when* a subject's arms arrive. Entities recur in every round (one
/// `hasNode` each time, like a trajectory IRI) and receive their `kind` and
/// `flag` arms at random, unrelated points of the stream; a node's `event`
/// arm is sometimes held back and delivered many triples later. Returns the
/// stream and the indices no batch may start at: between a node's `asWKT`
/// and `hasTemporalFeature` triples, which the live store needs together in
/// the batch of the node's first appearance to anchor it.
fn random_stream(seed: u64) -> (Vec<Triple>, Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let entities = 3 + rng.index(6);
    let mut stream: Vec<Triple> = Vec::new();
    let mut no_cut = Vec::new();
    let mut held_back: Vec<(usize, Triple)> = Vec::new();
    for i in 0..(120 + rng.index(120)) {
        let node = Term::iri(format!("n:{seed}:{i}"));
        let entity = Term::iri(format!("e:{}", rng.index(entities)));
        let point = GeoPoint::new(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0));
        let ts = Timestamp(rng.int_range(0, 3_000_000));
        let event = Triple::new(
            node.clone(),
            Term::iri("p:event"),
            Term::str(if rng.chance(0.4) { "turn" } else { "cruise" }),
        );
        let mut extra = vec![Triple::new(node.clone(), Term::iri("p:type"), Term::iri("c:Node"))];
        if rng.chance(0.3) {
            held_back.push((stream.len() + 5 + rng.index(200), event));
        } else {
            extra.push(event);
        }
        extra.push(Triple::new(node.clone(), Term::iri("p:speed"), Term::double(i as f64)));
        no_cut.push(stream.len() + 1);
        stream.extend(anchored_node_triples(&node, &point, ts, &extra));
        stream.push(Triple::new(entity.clone(), Term::iri("p:hasNode"), node));
        if rng.chance(0.08) {
            stream.push(Triple::new(entity.clone(), Term::iri("p:kind"), Term::iri("c:Entity")));
        }
        if rng.chance(0.05) {
            stream.push(Triple::new(entity, Term::iri("p:flag"), Term::str("hot")));
        }
        let at = stream.len();
        held_back.retain(|(due, t)| {
            if *due <= at {
                stream.push(t.clone());
            }
            *due > at
        });
    }
    stream.extend(held_back.into_iter().map(|(_, t)| t));
    (stream, no_cut)
}

/// Cuts `0..len` into batches of 1..=40 triples at random boundaries —
/// mid-node included, as the benchmark's stage replay does — moving a cut
/// that would separate an anchor pair one triple later.
fn random_cuts(rng: &mut SeededRng, len: usize, no_cut: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < len {
        let mut end = (at + 1 + rng.index(40)).min(len);
        if no_cut.contains(&end) {
            end += 1;
        }
        cuts.push(at..end.min(len));
        at = end.min(len);
    }
    cuts
}

/// Batching-independence as a property: however a stream is cut into
/// batches, (i) the union of a subscription's emissions, (ii) the final
/// `execute_star` in either execution mode, (iii) a single-batch load of
/// the same triples and (iv) a late subscriber's backfill plus stream are
/// the same set, and every subject is emitted exactly once.
#[test]
fn emissions_are_independent_of_batching() {
    let drain_subjects = |handle: &mut datacron::store::SubscriptionHandle| {
        let matches = handle.matches.drain().expect("match topic never overflows here");
        let set = match_set(&matches);
        assert_eq!(set.len(), matches.len(), "a subject was emitted twice");
        (set, matches.iter().filter(|m| m.latency_ns.is_none()).count() as u64)
    };
    for seed in SEEDS {
        let (stream, no_cut) = random_stream(seed);
        let reference = prop_store(4);
        reference.ingest_batch(&stream);
        let expected: Vec<BTreeSet<String>> = prop_queries()
            .iter()
            .map(|q| subject_set(&reference.snapshot().execute_star(q, StExecution::Pushdown).0))
            .collect();
        assert!(expected.iter().all(|set| !set.is_empty()), "seed {seed}: every query must match something");
        assert!(expected[1].len() < expected[0].len(), "seed {seed}: the st window must prune");

        for partitions in [1usize, 4] {
            let mut rng = SeededRng::new(seed ^ partitions as u64);
            let cuts = random_cuts(&mut rng, stream.len(), &no_cut);
            let late_at = rng.index(cuts.len());
            let live = prop_store(partitions);
            let mut early: Vec<_> = prop_queries().into_iter().map(|q| live.subscribe(q, 1 << 16)).collect();
            let mut late = Vec::new();
            for (b, cut) in cuts.iter().enumerate() {
                if b == late_at {
                    late = prop_queries().into_iter().map(|q| live.subscribe(q, 1 << 16)).collect();
                }
                live.ingest_batch(&stream[cut.clone()]);
            }
            assert_eq!(live.triple_count(), stream.len() as u64);
            for (i, q) in prop_queries().iter().enumerate() {
                let ctx = format!("seed {seed}, {partitions} partitions, {} batches, query {i}", cuts.len());
                let (push, _) = live.snapshot().execute_star(q, StExecution::Pushdown);
                let (post, _) = live.snapshot().execute_star(q, StExecution::PostFilter);
                assert_eq!(subject_set(&push), expected[i], "{ctx}: final query vs single-batch load");
                assert_eq!(subject_set(&post), expected[i], "{ctx}: execution modes agree");
                let (streamed, backfilled) = drain_subjects(&mut early[i]);
                assert_eq!(streamed, expected[i], "{ctx}: emissions vs final query");
                assert_eq!(backfilled, 0, "{ctx}: nothing to backfill on an empty store");
                let (with_backfill, backfilled) = drain_subjects(&mut late[i]);
                assert_eq!(with_backfill, expected[i], "{ctx}: late subscriber, backfill + stream");
                assert_eq!(backfilled, late[i].backfilled, "{ctx}: the handle reports its backfill");
            }
        }
    }
}

/// The merge rule keeps a partition at O(log batches) runs however long
/// the stream, and merging never disturbs a pinned snapshot: the runs it
/// points at stay alive and whole.
#[test]
fn segments_stay_logarithmic_and_pinned_snapshots_survive_merges() {
    const BATCHES: usize = 2_000;
    let batch = |i: usize| {
        let node = Term::iri(format!("n:{i}"));
        let point = GeoPoint::new((i % 97) as f64 * 0.1, (i % 89) as f64 * 0.1);
        let event = Term::str(if i.is_multiple_of(4) { "turn" } else { "cruise" });
        let mut triples = anchored_node_triples(
            &node,
            &point,
            Timestamp((i as i64 % 40) * 30_000),
            &[
                Triple::new(node.clone(), Term::iri("p:type"), Term::iri("c:Node")),
                Triple::new(node.clone(), Term::iri("p:event"), event),
            ],
        );
        triples.push(Triple::new(Term::iri(format!("e:{}", i % 7)), Term::iri("p:hasNode"), node));
        triples
    };
    let query = &prop_queries()[0];
    for partitions in [1usize, 4] {
        let live = prop_store(partitions);
        let bound = (partitions * (BATCHES.next_power_of_two().trailing_zeros() as usize + 2)) as u64;
        let mut pinned = None;
        let mut most_segments = 0;
        for i in 0..BATCHES {
            live.ingest_batch(&batch(i));
            most_segments = most_segments.max(live.stats().segments);
            if i == 99 {
                let snap = live.snapshot();
                let answer = snap.execute_star(query, StExecution::Pushdown);
                pinned = Some((snap, answer));
            }
        }
        assert!(
            most_segments <= bound,
            "{partitions} partitions: {most_segments} segments after {BATCHES} batches (bound {bound})"
        );
        // The snapshot pinned at batch 100 has since seen every one of its
        // runs merged away underneath it.
        let (snap, answer) = pinned.expect("pinned at batch 100");
        assert_eq!(snap.generation().number(), 100);
        assert_eq!(snap.generation().triple_count(), snap.triple_count(), "pinned runs are whole");
        assert_eq!(snap.execute_star(query, StExecution::Pushdown), answer, "pinned answer is stable");
        assert_eq!(answer.0.len(), 25, "i % 4 == 0 in 0..100");
        let now = live.snapshot();
        assert_eq!(now.generation().triple_count(), now.triple_count());
        assert_eq!(now.execute_star(query, StExecution::Pushdown).0.len(), BATCHES / 4);
    }
}

/// Satellite regression: `LiveKg::subscribe` used to count its backfill as
/// the difference of two `stats()` reads around the store call; a `drain`
/// on another thread emitting matches for an older subscription in between
/// was counted there and again by the drain itself, so the
/// `kg.matches_emitted` counter drifted above the store's own total. The
/// store now reports the backfill it emitted under its writer lock.
#[test]
fn subscribing_while_draining_counts_each_match_once() {
    let input = stream(42);
    let kg = LiveKg::new(&config(), LiveKgConfig::default());
    let mut layer = RealTimeLayer::new(config(), Vec::new(), Vec::new());
    kg.attach(&mut layer);
    let _first = kg.subscribe(queries().remove(0));
    // The subscriber registers (and backfills) back to back for as long as
    // the main thread ingests and drains, so every drain that emits for the
    // older subscriptions lands beside some `subscribe`. The main thread
    // holds back two thirds of the stream until the first one is in.
    let registered = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (kg, done, registered) = (&kg, &done, &registered);
        let subscriber = s.spawn(move || {
            while !done.load(Ordering::Acquire) && registered.load(Ordering::Relaxed) < 400 {
                kg.subscribe(queries().remove(0));
                registered.fetch_add(1, Ordering::Release);
            }
        });
        for (i, r) in input.iter().enumerate() {
            while i == input.len() / 3 && registered.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            layer.ingest(*r);
            kg.drain();
        }
        layer.flush();
        kg.drain();
        done.store(true, Ordering::Release);
        subscriber.join().expect("subscriber thread");
    });
    let stats = kg.stats();
    assert!(stats.matches_emitted > 0, "the fixture must emit matches");
    assert_eq!(
        kg.metrics_snapshot().counter("kg.matches_emitted"),
        Some(stats.matches_emitted),
        "the counter and the store agree however subscribe and drain interleave"
    );
    assert_eq!(kg.metrics_snapshot().counter("kg.subscriptions"), Some(stats.subscriptions));
}
