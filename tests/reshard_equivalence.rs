//! Resize-equivalence chaos suite: a `ShardedRealTimeLayer` that resizes
//! 2 → 8 → 4 *mid-stream* must produce outputs, end-of-stream flush,
//! merged health and dead-letter labels bit-identical to a run whose
//! shard count was fixed from the start — under every chaos seed — and
//! the skewed-key scenario (one entity emitting half the traffic) must
//! end below the rebalance policy's imbalance threshold after the
//! hot key is pinned.
//!
//! Satellite properties ride along: `ShardAssigner` routing is total and
//! stable for any shard count, and a resize's migration plan moves
//! exactly the entities whose route changed (minimal movement, unlike a
//! naive full rehash).

use datacron::core::realtime::{IngestOutput, RealTimeLayer};
use datacron::core::sharded::{
    repartition_states, ResizeError, ShardOutput, ShardedRealTimeLayer,
};
use datacron::core::{DatacronConfig, DeadLetter};
use datacron::data::rng::SeededRng;
use datacron::geo::{BoundingBox, EntityId, GeoPoint, Polygon, PositionReport, Timestamp};
use datacron::stream::faults::{ChaosSource, FaultPlan};
use datacron::stream::parallel::{RebalancePolicy, ShardAssigner, ShardedConfig};
use proptest::prelude::*;

/// The eight fixed chaos seeds; CI runs the same set in the
/// `reshard-chaos` job.
const SEEDS: [u64; 8] = [1, 7, 23, 42, 97, 1234, 0xDEAD_BEEF, u64::MAX / 3];

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

/// A seeded maneuvering fleet (as in `sharded_equivalence`): legs of
/// steady cruising punctuated by turns, so every stage of the chain does
/// real work and cleaning has something to reject once chaos corrupts it.
fn fleet(seed: u64) -> Vec<PositionReport> {
    let mut rng = SeededRng::new(seed);
    let entities = 10 + seed % 5;
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
    for t in 0..60i64 {
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

/// The faulted stream for one seed, materialised once so the elastic run
/// and the fixed-shard reference see byte-for-byte the same records
/// (drops, duplicates, reorders, corruption and all).
fn chaotic_stream(seed: u64) -> Vec<PositionReport> {
    ChaosSource::new(fleet(seed).into_iter(), FaultPlan::chaos(seed)).collect()
}

/// Everything a run must reproduce bit-identically: per-record outputs,
/// flush, merged health and the dead-letter labels (sorted, since shards
/// interleave).
struct Fingerprint {
    outputs: Vec<String>,
    flush: String,
    health: String,
    dead_letters: Vec<String>,
}

/// The dead letters a run produced, rebuilt from its per-record outputs
/// (each rejected output beside its input report), sorted.
fn dead_letter_labels<'a>(records: impl IntoIterator<Item = (&'a PositionReport, &'a IngestOutput)>) -> Vec<String> {
    let mut labels: Vec<String> = records
        .into_iter()
        .filter_map(|(report, out)| out.rejected.map(|reason| DeadLetter { report: *report, reason }))
        .map(|d| format!("{d:?}"))
        .collect();
    labels.sort();
    labels
}

/// The fixed-shard reference: `shards` workers from the first record to
/// the last (itself pinned bit-identical to the single-threaded layer by
/// `sharded_equivalence`).
fn run_fixed(stream: &[PositionReport], shards: usize) -> Fingerprint {
    let (regions, ports) = context();
    let mut layer = ShardedRealTimeLayer::new(
        config(),
        regions,
        ports,
        ShardedConfig::with_shards(shards),
    );
    let mut outputs: Vec<ShardOutput> = Vec::new();
    for r in stream {
        layer.ingest(*r);
        outputs.extend(layer.poll_outputs());
    }
    let flush = layer.flush();
    let health = layer.health();
    let done = layer.finish();
    outputs.extend(done.outputs);
    assert_eq!(done.merged, stream.len() as u64);
    Fingerprint {
        outputs: outputs.iter().map(|o| format!("{:?}", o.output)).collect(),
        flush: format!("{flush:?}"),
        health: format!("{health:?}"),
        dead_letters: dead_letter_labels(outputs.iter().map(|o| (&o.report, &o.output))),
    }
}

/// The elastic run: starts at 2 shards, resizes to 8 at one third of the
/// stream and down to 4 at two thirds, mid-ingest.
fn run_elastic(stream: &[PositionReport]) -> Fingerprint {
    let (regions, ports) = context();
    let mut layer = ShardedRealTimeLayer::new(
        config(),
        regions,
        ports,
        ShardedConfig::with_shards(2),
    );
    let mut outputs: Vec<ShardOutput> = Vec::new();
    let third = stream.len() / 3;
    for (i, r) in stream.iter().enumerate() {
        if i == third {
            let report = layer.resize(8).expect("resize 2 -> 8");
            assert_eq!((report.from_shards, report.to_shards), (2, 8));
        }
        if i == 2 * third {
            let report = layer.resize(4).expect("resize 8 -> 4");
            assert_eq!((report.from_shards, report.to_shards), (8, 4));
        }
        layer.ingest(*r);
        outputs.extend(layer.poll_outputs());
    }
    assert_eq!(layer.epoch(), 2);
    assert_eq!(layer.shards(), 4);
    let flush = layer.flush();
    let health = layer.health();
    let done = layer.finish();
    outputs.extend(done.outputs);
    // Exactly-once across all three routing epochs.
    assert_eq!(done.submitted, stream.len() as u64);
    assert_eq!(done.merged, stream.len() as u64);
    assert_eq!(done.late, 0, "no record may straddle an epoch boundary");
    assert_eq!(done.duplicates, 0);
    Fingerprint {
        outputs: outputs.iter().map(|o| format!("{:?}", o.output)).collect(),
        flush: format!("{flush:?}"),
        health: format!("{health:?}"),
        dead_letters: dead_letter_labels(outputs.iter().map(|o| (&o.report, &o.output))),
    }
}

#[test]
fn resize_mid_stream_is_bit_identical_to_fixed_shard_run_under_chaos() {
    for seed in SEEDS {
        let stream = chaotic_stream(seed);
        assert!(stream.len() > 100, "seed {seed}: chaos must leave a real stream");
        let fixed = run_fixed(&stream, 4);
        let elastic = run_elastic(&stream);

        assert_eq!(
            elastic.outputs.len(),
            fixed.outputs.len(),
            "seed {seed}: same record count"
        );
        for (i, (e, f)) in elastic.outputs.iter().zip(&fixed.outputs).enumerate() {
            assert_eq!(e, f, "seed {seed}: output {i} diverged across a resize");
        }
        assert_eq!(elastic.flush, fixed.flush, "seed {seed}: flush");
        assert_eq!(elastic.health, fixed.health, "seed {seed}: merged health");
        assert_eq!(
            elastic.dead_letters, fixed.dead_letters,
            "seed {seed}: dead-letter labels"
        );
    }
}

/// The same equivalence, pinned against the single-threaded layer for one
/// seed — so the elastic run is transitively anchored to the layer the
/// whole equivalence tower is built on.
#[test]
fn resize_mid_stream_matches_single_threaded_layer() {
    let stream = chaotic_stream(SEEDS[0]);
    let (regions, ports) = context();
    let mut single = RealTimeLayer::new(config(), regions, ports);
    let expected: Vec<IngestOutput> = stream.iter().map(|r| single.ingest(*r)).collect();
    let expected_flush = single.flush();
    let expected_health = single.health();
    let expected_dead = dead_letter_labels(stream.iter().zip(&expected));
    assert!(!expected_dead.is_empty(), "chaos must dead-letter something");

    let elastic = run_elastic(&stream);
    assert_eq!(elastic.outputs.len(), expected.len());
    for (i, (e, f)) in elastic.outputs.iter().zip(&expected).enumerate() {
        assert_eq!(e, &format!("{f:?}"), "output {i}");
    }
    assert_eq!(elastic.flush, format!("{expected_flush:?}"));
    assert_eq!(elastic.health, format!("{expected_health:?}"));
    assert_eq!(elastic.dead_letters, expected_dead);
}

/// Background entity ids that hash to the same shard as `hot` — the
/// co-location that makes hot-key skew *addressable* (isolating the hot
/// key actually shrinks the max shard).
fn co_resident_ids(assigner: &ShardAssigner, hot: EntityId, n: usize) -> Vec<u64> {
    let hot_shard = assigner.assign(&hot);
    let mut out = Vec::new();
    let mut id = hot.id + 1;
    while out.len() < n {
        if assigner.assign(&EntityId::vessel(id)) == hot_shard {
            out.push(id);
        }
        id += 1;
    }
    out
}

/// The skewed-key chaos scenario: one entity emits 50% of the traffic and
/// shares its shard with the whole background fleet. The auto-rebalance
/// policy must trip, pin the hot key elsewhere, and leave the post-
/// rebalance per-shard load imbalance at the policy's achievable floor —
/// below its threshold — without disturbing a single output.
#[test]
fn skewed_hot_key_rebalances_below_policy_threshold() {
    let shards = 4usize;
    let assigner = ShardAssigner::new(shards);
    let hot = EntityId::vessel(0);
    let cold = co_resident_ids(&assigner, hot, 6);

    let mut input = Vec::new();
    for t in 0..600i64 {
        let e = if t % 2 == 0 { 0 } else { cold[(t as usize / 2) % cold.len()] };
        input.push(PositionReport {
            speed_mps: 8.0,
            heading_deg: 90.0,
            ..PositionReport::basic(
                EntityId::vessel(e),
                Timestamp::from_secs(t * 10),
                GeoPoint::new(-4.0 + 0.001 * t as f64, 38.0 + 0.0001 * e as f64),
            )
        });
    }

    let (regions, ports) = context();
    let mut single = RealTimeLayer::new(config(), regions.clone(), ports.clone());
    let expected: Vec<IngestOutput> = input.iter().map(|r| single.ingest(*r)).collect();

    let policy = RebalancePolicy {
        max_imbalance: 1.5,
        min_records: 128,
        cooldown_records: 128,
        ..RebalancePolicy::default()
    };
    let mut layer = ShardedRealTimeLayer::new(
        config(),
        regions,
        ports,
        ShardedConfig::with_shards(shards),
    );
    layer.set_rebalance_policy(policy.clone());

    let mut outputs: Vec<ShardOutput> = Vec::new();
    for (i, r) in input.iter().enumerate() {
        layer.ingest(*r);
        outputs.extend(layer.poll_outputs());
        if i % 64 == 63 {
            layer.maybe_rebalance().expect("rebalance never fails at a fixed count");
        }
    }
    assert!(layer.resizes() >= 1, "the 50% hot key must trip the policy");
    assert!(
        !layer.assigner().overrides().is_empty(),
        "the hot key must be pinned off the shared shard"
    );

    // Post-rebalance balance: loads accrued since the rebalance (the
    // current routing epoch) sit at the achievable floor.
    let loads = layer.shard_loads().to_vec();
    let max_key = layer.key_loads().iter().map(|&(_, n)| n).max().unwrap_or(0);
    let imbalance = RebalancePolicy::imbalance(&loads, max_key);
    assert!(
        imbalance <= policy.max_imbalance,
        "post-rebalance imbalance {imbalance} exceeds the policy threshold"
    );
    assert!(
        loads.iter().filter(|&&l| l > 0).count() >= 2,
        "the hot key and the background fleet must sit on different shards"
    );

    // The rebalance was invisible to the output stream.
    let done = layer.finish();
    outputs.extend(done.outputs);
    assert_eq!(outputs.len(), expected.len());
    for (i, (g, e)) in outputs.iter().zip(&expected).enumerate() {
        assert_eq!(format!("{:?}", g.output), format!("{e:?}"), "output {i}");
    }
    assert_eq!(done.late, 0);
    assert_eq!(done.duplicates, 0);
}

/// Regression (satellite): a state set whose shard count disagrees with
/// the config is a typed error from `with_states`, not a silent remap or
/// a downstream panic.
#[test]
fn with_states_shard_count_mismatch_is_a_typed_error() {
    let (regions, ports) = context();
    let mut layer = ShardedRealTimeLayer::new(
        config(),
        regions.clone(),
        ports.clone(),
        ShardedConfig::with_shards(2),
    );
    for r in fleet(3).iter().take(50) {
        layer.ingest(*r);
        layer.poll_outputs();
    }
    let states = layer.checkpoint();
    layer.finish();
    assert_eq!(states.len(), 2);

    let err = ShardedRealTimeLayer::with_states(
        config(),
        regions,
        ports,
        ShardedConfig::with_shards(5),
        states,
        |_| {},
    )
    .err()
    .expect("mismatched restore must be rejected");
    assert_eq!(err, ResizeError::StateCountMismatch { expected: 5, got: 2 });
    assert!(err.to_string().contains("5 shard state(s)"));
}

/// Real per-shard states for the migration-plan properties: a short run
/// over a 3-shard layer, checkpointed once and reused across proptest
/// cases.
fn checkpointed_states() -> &'static [datacron::core::realtime::LayerState] {
    use std::sync::OnceLock;
    static STATES: OnceLock<Vec<datacron::core::realtime::LayerState>> = OnceLock::new();
    STATES.get_or_init(|| {
        let (regions, ports) = context();
        let mut layer = ShardedRealTimeLayer::new(
            config(),
            regions,
            ports,
            ShardedConfig::with_shards(3),
        );
        for r in fleet(7).iter().take(300) {
            layer.ingest(*r);
            layer.poll_outputs();
        }
        let states = layer.checkpoint();
        layer.finish();
        states
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Routing is total (always a shard in range) and stable (two
    /// assigners over the same count agree on every key) for any shard
    /// count — including with a hot-key override in play.
    #[test]
    fn assigner_routing_is_total_and_stable(
        shards in 1usize..65,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..50),
        pin_to in 0u32..u32::MAX,
    ) {
        let a = ShardAssigner::new(shards);
        let b = ShardAssigner::new(shards);
        for key in &keys {
            let shard = a.assign(key);
            prop_assert!((shard as usize) < shards, "total: {shard} < {shards}");
            prop_assert_eq!(shard, b.assign(key), "stable across construction");
            prop_assert_eq!(shard, a.assign(key), "stable across calls");
        }
        // Pin the first key somewhere explicit: only that key moves.
        let pinned_hash = datacron::geo::hash::fx_hash(&keys[0]);
        let target = pin_to % shards as u32;
        let mut overrides = datacron::geo::hash::FxHashMap::default();
        overrides.insert(pinned_hash, target);
        let pinned = ShardAssigner::with_overrides(shards, overrides);
        prop_assert_eq!(pinned.assign(&keys[0]), target);
        for key in &keys[1..] {
            if datacron::geo::hash::fx_hash(key) != pinned_hash {
                prop_assert_eq!(pinned.assign(key), a.assign(key), "unpinned keys untouched");
            }
        }
    }

    /// A resize's migration plan moves exactly the entities whose route
    /// changed: no entity whose old shard equals its new route appears in
    /// the plan (minimal movement — a naive full rehash would rebuild all
    /// placements), and every entity that did change routes is listed.
    #[test]
    fn migration_plan_moves_exactly_the_rerouted_entities(new_shards in 1usize..33) {
        let states = checkpointed_states().to_vec();
        let new = ShardAssigner::new(new_shards);
        let (migrated, plan) = repartition_states(states.clone(), &new);
        prop_assert_eq!(migrated.len(), new_shards);
        prop_assert_eq!(plan.from_shards, states.len());
        prop_assert_eq!(plan.to_shards, new_shards);

        for (old_shard, state) in states.iter().enumerate() {
            for e in &state.entities {
                let changed = new.assign(&e.entity) as usize != old_shard;
                prop_assert_eq!(
                    plan.moved.contains(&e.entity),
                    changed,
                    "entity {:?} on shard {}: moved iff rerouted", e.entity, old_shard
                );
            }
        }
        // Minimal vs naive: never more than the full entity population,
        // and a same-count resize moves nobody.
        prop_assert!(plan.moved.len() <= plan.total_entities);
        if new_shards == states.len() {
            prop_assert!(plan.moved.is_empty(), "identity resize moves nothing");
        }

        // Conservation: per-entity state and merged counters survive.
        let entities = |ss: &[datacron::core::realtime::LayerState]| -> usize {
            ss.iter().map(|s| s.entities.len()).sum()
        };
        prop_assert_eq!(entities(&migrated), entities(&states));
        let accepted = |ss: &[datacron::core::realtime::LayerState]| -> u64 {
            ss.iter().map(|s| s.accepted_total).sum()
        };
        prop_assert_eq!(accepted(&migrated), accepted(&states));
        // Every entity landed on its assigned shard.
        for (shard, s) in migrated.iter().enumerate() {
            for e in &s.entities {
                prop_assert_eq!(new.assign(&e.entity) as usize, shard);
            }
        }
    }
}
