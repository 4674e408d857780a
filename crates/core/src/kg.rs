//! The live knowledge-graph subsystem: drains the real-time layer's
//! `triples` topic into a [`LiveStore`] and serves continuous star-join
//! subscriptions while ingestion runs.
//!
//! The batch layer ([`BatchLayer`](crate::BatchLayer)) moves critical
//! points into a batch-load-then-query store on explicit syncs; until now
//! the RDF stream on the `triples` topic itself had no subscriber and was
//! simply retained. [`LiveKg`] closes the Figure-2 loop on the streaming
//! side: triples flow into a concurrently-readable store with snapshot
//! isolation, and registered star queries emit matches as the data
//! arrives.
//!
//! ## Topic contract
//!
//! Attaching the live KG replaces the layer's unbounded `triples` topic
//! with a **bounded** one under [`OverflowPolicy::Block`]: a slow KG
//! consumer exerts backpressure on the pipeline instead of silently
//! losing triples. A publish that waits out the block timeout is counted
//! in the topic's `rejected` stats — visible in metrics, topic health and
//! [`KgHealth::triples_lost`], and it degrades the layer's health status;
//! nothing is ever dropped silently (the `kg_live` suite pins this with a
//! deliberately stalled consumer).
//!
//! ## Determinism
//!
//! Count-typed `kg.*` series (triples ingested, st subjects, matches
//! emitted, subscriptions) depend only on the input stream: matches are
//! emitted exactly once per subject and star-joins are monotone, so the
//! totals at any barrier are independent of batch cadence and shard
//! interleaving — the sharded layer's merged `kg.*` counters equal a
//! single-threaded run's bit for bit. Generation numbers and watermarks
//! *do* depend on drain cadence and are exported as gauges; latencies are
//! histograms. Both are excluded from the bit-identity contract, exactly
//! like the topic gauges.

use crate::config::DatacronConfig;
use crate::realtime::RealTimeLayer;
use datacron_geo::{EquiGrid, StCellEncoder};
use datacron_obs::{Counter, Gauge, LogHistogram, MetricsSnapshot, ObsRegistry};
use datacron_rdf::term::Triple;
use datacron_store::store::{StarQuery, StoreConfig};
use datacron_store::subscribe::SubscriptionHandle;
use datacron_store::{LiveSnapshot, LiveStore, LiveStoreStats};
use datacron_stream::bus::{Consumer, OverflowPolicy, Topic};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Configuration of the live KG subsystem.
#[derive(Debug, Clone)]
pub struct LiveKgConfig {
    /// Store configuration; the live store reads only `partitions`.
    pub store: StoreConfig,
    /// Capacity of each attached `triples` topic. Publishes block when a
    /// topic is full ([`OverflowPolicy::Block`]); sized so that the
    /// triples produced between two drains fit comfortably.
    pub triples_capacity: usize,
    /// Capacity of each subscription's match topic (drop-oldest; a lagging
    /// subscriber observes `Lagged` and re-syncs from a snapshot).
    pub match_capacity: usize,
}

impl Default for LiveKgConfig {
    fn default() -> Self {
        Self {
            store: StoreConfig::default(),
            triples_capacity: 65_536,
            match_capacity: 4_096,
        }
    }
}

/// Health of the live KG subsystem, reported inside
/// [`HealthReport`](crate::HealthReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KgHealth {
    /// Triples committed to the live store.
    pub ingested_triples: u64,
    /// Spatio-temporally encoded subjects.
    pub st_subjects: u64,
    /// Committed store generation.
    pub generation: u64,
    /// Registered continuous queries.
    pub subscriptions: u64,
    /// Matches emitted across all subscriptions (backfill + streaming).
    pub matches_emitted: u64,
    /// Matches truncated from subscription topics by slow subscribers
    /// (visible to them as `Lagged`).
    pub match_drops: u64,
    /// Triples that never reached the store: blocked publishes that timed
    /// out plus consumer lag signals. Non-zero means the ingestion path
    /// was stalled past the block timeout — always loud, never silent.
    pub triples_lost: u64,
}

impl KgHealth {
    /// `true` when every produced triple reached the store.
    pub fn is_clean(&self) -> bool {
        self.triples_lost == 0
    }
}

/// One attached layer's `triples` topic and the KG's consumer on it.
type TripleInput = (Arc<Topic<Triple>>, Consumer<Triple>);

struct KgMetrics {
    ingested_triples: Counter,
    st_subjects: Counter,
    matches_emitted: Counter,
    subscriptions: Counter,
    generation: Gauge,
    watermark: Gauge,
    match_drops: Gauge,
    triples_lost: Gauge,
    ingest_to_match_ns: LogHistogram,
    drain_ns: LogHistogram,
}

impl KgMetrics {
    fn new(obs: &ObsRegistry) -> Self {
        Self {
            ingested_triples: obs.counter("kg.ingested_triples"),
            st_subjects: obs.counter("kg.st_subjects"),
            matches_emitted: obs.counter("kg.matches_emitted"),
            subscriptions: obs.counter("kg.subscriptions"),
            generation: obs.gauge("kg.generation"),
            watermark: obs.gauge("kg.watermark"),
            match_drops: obs.gauge("kg.match_drops"),
            triples_lost: obs.gauge("kg.triples_lost"),
            ingest_to_match_ns: obs.histogram("kg.ingest_to_match_ns"),
            drain_ns: obs.histogram("kg.drain_ns"),
        }
    }
}

/// The live KG runtime: one [`LiveStore`] fed by the `triples` topics of
/// one or more real-time layers (one per shard in sharded mode).
///
/// All methods take `&self`; share it via [`Arc`]. Single-threaded
/// systems drain on every ingest ([`DatacronSystem`](crate::DatacronSystem)
/// does this automatically); the sharded layer drains at its barrier
/// points.
pub struct LiveKg {
    config: LiveKgConfig,
    store: LiveStore,
    obs: ObsRegistry,
    metrics: KgMetrics,
    /// Attached `triples` topics and their consumers, one pair per layer.
    inputs: Mutex<Vec<TripleInput>>,
    /// Triples skipped by consumer lag (never happens under `Block`; kept
    /// for the accounting invariant).
    lag_lost: AtomicU64,
}

impl LiveKg {
    /// Locks the input registry, recovering from poisoning. A drain that
    /// panicked mid-batch (e.g. a corrupt triple tripping a store
    /// invariant) poisons the mutex; treating that as fatal would turn
    /// one bad batch into a process-wide panic cascade on every later
    /// drain, health probe and barrier. The registry holds only
    /// `(topic, consumer)` pairs whose own state is internally
    /// consistent (consumer cursors advance only after a successful
    /// poll), so recovering the guard is sound: at worst the interrupted
    /// batch is re-drained, and `KgHealth` keeps reporting instead of
    /// panicking.
    fn inputs(&self) -> MutexGuard<'_, Vec<TripleInput>> {
        self.inputs.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Creates the live KG over the system's spatio-temporal encoder (the
    /// same grid/epoch the batch layer uses, so both stores assign
    /// identical st cells). Metrics follow [`DatacronConfig::metrics`].
    pub fn new(config: &DatacronConfig, kg_config: LiveKgConfig) -> Arc<Self> {
        let grid = EquiGrid::new(config.extent, config.st_grid_cells, config.st_grid_cells);
        let encoder = StCellEncoder::new(grid, config.epoch, config.st_bucket_millis);
        let obs = if config.metrics {
            ObsRegistry::new()
        } else {
            ObsRegistry::disabled()
        };
        let metrics = KgMetrics::new(&obs);
        Arc::new(Self {
            store: LiveStore::new(encoder, kg_config.store.clone()),
            config: kg_config,
            obs,
            metrics,
            inputs: Mutex::new(Vec::new()),
            lag_lost: AtomicU64::new(0),
        })
    }

    /// Attaches a real-time layer: replaces its `triples` topic with a
    /// bounded, blocking one and subscribes to it. Must run before the
    /// layer ingests anything (triples published to the old topic would
    /// never reach the store).
    ///
    /// # Panics
    /// Panics when the layer already published triples.
    pub fn attach(&self, layer: &mut RealTimeLayer) {
        assert_eq!(
            layer.triples.stats().published, 0,
            "attach the live KG before ingesting any reports"
        );
        let topic = Topic::bounded(
            "triples",
            self.config.triples_capacity.max(1),
            OverflowPolicy::Block,
        );
        let consumer = topic.consumer();
        layer.triples = topic.clone();
        self.inputs().push((topic, consumer));
    }

    /// The underlying live store (snapshots, direct queries).
    pub fn store(&self) -> &LiveStore {
        &self.store
    }

    /// Pins a read snapshot of the live store.
    pub fn snapshot(&self) -> LiveSnapshot<'_> {
        self.store.snapshot()
    }

    /// Registers a continuous star-join subscription (see
    /// [`LiveStore::subscribe`]); matches arrive on the returned handle's
    /// bounded topic.
    pub fn subscribe(&self, query: StarQuery) -> SubscriptionHandle {
        let handle = self.store.subscribe(query, self.config.match_capacity);
        self.metrics.subscriptions.inc();
        // Counted by the store under its writer lock: two `stats()` reads
        // here would also count what a concurrent `drain` emits (and counts).
        self.metrics.matches_emitted.add(handle.backfilled);
        handle
    }

    /// Drains every attached `triples` topic into the store, evaluating
    /// subscriptions per batch. Returns the number of triples committed by
    /// this call. Safe to call from any thread; concurrent drains
    /// serialize on the input registry.
    pub fn drain(&self) -> u64 {
        let t0 = Instant::now();
        let mut total = 0u64;
        let mut inputs = self.inputs();
        for (_, consumer) in inputs.iter_mut() {
            loop {
                match consumer.drain() {
                    Ok(batch) => {
                        if batch.is_empty() {
                            break;
                        }
                        let summary = self.store.ingest_batch(&batch);
                        total += summary.triples;
                        self.metrics.ingested_triples.add(summary.triples);
                        self.metrics.st_subjects.add(summary.new_st_subjects);
                        self.metrics.matches_emitted.add(summary.new_matches);
                        for ns in &summary.match_ns {
                            self.metrics.ingest_to_match_ns.record(*ns);
                        }
                    }
                    // Unreachable under Block (nothing is truncated), but a
                    // reconfigured topic must still account loudly.
                    Err(lagged) => {
                        self.lag_lost.fetch_add(lagged.skipped, Ordering::Relaxed);
                    }
                }
            }
        }
        drop(inputs);
        let stats = self.store.stats();
        self.metrics.generation.set(stats.generation as i64);
        self.metrics.watermark.set(stats.watermark as i64);
        self.metrics.match_drops.set(stats.match_drops as i64);
        self.metrics.triples_lost.set(self.lost() as i64);
        if total > 0 {
            self.metrics.drain_ns.record_since(t0);
        }
        total
    }

    /// Starts a routing epoch: detaches every input registered by the
    /// previous worker fleet. Called by the sharded layer mid-resize,
    /// *after* the final pre-resize [`drain`](Self::drain) (so nothing is
    /// left behind) and *before* the new fleet's layers attach. Loss
    /// accounting stays continuous without the old topics: the restored
    /// per-shard `triples` checkpoints carry the epoch's `rejected` stats
    /// forward onto the new topics.
    pub fn begin_epoch(&self) {
        self.inputs().clear();
    }

    /// Re-synchronizes every input consumer with its topic's restored
    /// *end* offset. [`attach`](Self::attach) subscribes at offset 0 on a
    /// fresh topic; when the layer then restores a checkpoint, the topic
    /// jumps forward and the stale consumer would observe the jump as a
    /// `Lagged` skip — phantom loss — or, worse, re-read retained messages
    /// the store already ingested before the cut (double-counting every
    /// triple). Everything in a restored topic predates the pre-resize
    /// drain, so the consumer fast-forwards past it all. Called by the
    /// sharded layer after every restore-path fleet build (resize,
    /// [`with_states`]).
    ///
    /// [`with_states`]: crate::ShardedRealTimeLayer::with_states
    pub fn resync(&self) {
        for (_, consumer) in self.inputs().iter_mut() {
            consumer.fast_forward();
        }
    }

    /// Triples that never reached the store: timed-out blocked publishes
    /// plus consumer lag skips.
    fn lost(&self) -> u64 {
        let rejected: u64 = self
            .inputs()
            .iter()
            .map(|(topic, _)| topic.stats().rejected)
            .sum();
        rejected + self.lag_lost.load(Ordering::Relaxed)
    }

    /// Store statistics (generation, watermark, subscription counts).
    pub fn stats(&self) -> LiveStoreStats {
        self.store.stats()
    }

    /// Point-in-time health of the subsystem.
    pub fn health(&self) -> KgHealth {
        let stats = self.store.stats();
        KgHealth {
            ingested_triples: stats.watermark,
            st_subjects: stats.st_subjects,
            generation: stats.generation,
            subscriptions: stats.subscriptions,
            matches_emitted: stats.matches_emitted,
            match_drops: stats.match_drops,
            triples_lost: self.lost(),
        }
    }

    /// The subsystem's metrics (all `kg.*` series). Merge into the
    /// layer snapshot; [`DatacronSystem::metrics`](crate::DatacronSystem::metrics)
    /// and the sharded layer do this automatically. Empty when metrics are
    /// disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{BoundingBox, EntityId, GeoPoint, PositionReport, Timestamp};
    use datacron_rdf::term::Term;
    use datacron_rdf::vocab;

    fn config() -> DatacronConfig {
        DatacronConfig::maritime(BoundingBox::new(-10.0, 30.0, 10.0, 50.0))
    }

    fn drive(layer: &mut RealTimeLayer, kg: &LiveKg, reports: i64) {
        let mut p = GeoPoint::new(0.5, 40.0);
        for i in 0..reports {
            let heading = if i % 40 < 20 { 90.0 } else { 0.0 };
            let r = PositionReport {
                speed_mps: 8.0,
                heading_deg: heading,
                ..PositionReport::basic(EntityId::vessel(1), Timestamp::from_secs(i * 10), p)
            };
            layer.ingest(r);
            kg.drain();
            p = p.destination(heading, 80.0);
        }
        layer.flush();
        kg.drain();
    }

    #[test]
    fn drains_pipeline_triples_into_the_store() {
        let kg = LiveKg::new(&config(), LiveKgConfig::default());
        let mut layer = RealTimeLayer::new(config(), Vec::new(), Vec::new());
        kg.attach(&mut layer);
        drive(&mut layer, &kg, 120);
        let health = kg.health();
        assert!(health.ingested_triples > 0, "triples flowed");
        assert!(health.st_subjects > 0, "nodes were anchored");
        assert!(health.is_clean());
        assert_eq!(layer.triples.stats().published, health.ingested_triples);
        assert_eq!(layer.triples.stats().consumed, health.ingested_triples);
    }

    #[test]
    fn continuous_query_sees_turns_as_they_stream() {
        let kg = LiveKg::new(&config(), LiveKgConfig::default());
        let mut layer = RealTimeLayer::new(config(), Vec::new(), Vec::new());
        kg.attach(&mut layer);
        let mut handle = kg.subscribe(StarQuery {
            arms: vec![
                (vocab::rdf_type(), Some(vocab::semantic_node_class())),
                (vocab::event_type(), Some(Term::str("change_in_heading"))),
            ],
            st: None,
        });
        drive(&mut layer, &kg, 200);
        let matches = handle.matches.drain().expect("no overflow");
        assert!(!matches.is_empty(), "turns matched while streaming");
        assert!(matches.iter().any(|m| m.latency_ns.is_some()));
        let (final_set, _) = kg
            .snapshot()
            .execute_star(
                &StarQuery {
                    arms: vec![
                        (vocab::rdf_type(), Some(vocab::semantic_node_class())),
                        (vocab::event_type(), Some(Term::str("change_in_heading"))),
                    ],
                    st: None,
                },
                datacron_store::StExecution::Pushdown,
            );
        assert_eq!(matches.len(), final_set.len(), "emit-once covers the final set");
        assert_eq!(kg.health().matches_emitted, matches.len() as u64);
    }

    #[test]
    fn metrics_carry_kg_series() {
        let kg = LiveKg::new(&config(), LiveKgConfig::default());
        let mut layer = RealTimeLayer::new(config(), Vec::new(), Vec::new());
        kg.attach(&mut layer);
        let _handle = kg.subscribe(StarQuery {
            arms: vec![(vocab::event_type(), Some(Term::str("change_in_heading")))],
            st: None,
        });
        drive(&mut layer, &kg, 150);
        let snap = kg.metrics_snapshot();
        assert_eq!(snap.counter("kg.ingested_triples"), Some(kg.health().ingested_triples));
        assert_eq!(snap.counter("kg.subscriptions"), Some(1));
        assert_eq!(snap.counter("kg.matches_emitted"), Some(kg.health().matches_emitted));
        let hist = snap.histogram("kg.ingest_to_match_ns").expect("registered");
        assert_eq!(hist.count, kg.health().matches_emitted);
        assert!(snap.gauge("kg.watermark").unwrap() > 0);
    }

    #[test]
    fn a_panicking_drain_does_not_poison_later_drains() {
        // Regression: one drain panicking while holding the input-registry
        // lock (here simulated by panicking under the guard) used to poison
        // the mutex, and every later drain/health/attach would panic on
        // `expect("kg lock poisoned")` — a process-wide cascade from a
        // single bad batch. The registry lock now recovers from poisoning.
        let kg = LiveKg::new(&config(), LiveKgConfig::default());
        let mut layer = RealTimeLayer::new(config(), Vec::new(), Vec::new());
        kg.attach(&mut layer);
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = kg.inputs.lock().unwrap();
            panic!("simulated mid-drain panic");
        }));
        assert!(poisoner.is_err(), "the drain really panicked");
        assert!(kg.inputs.lock().is_err(), "the registry mutex is poisoned");
        // The next drain, health probe, and full pipeline pass all succeed.
        drive(&mut layer, &kg, 120);
        let health = kg.health();
        assert!(health.ingested_triples > 0, "drains still flow after the panic");
        assert!(health.is_clean(), "nothing was lost to the poisoned lock");
    }

    #[test]
    #[should_panic(expected = "before ingesting")]
    fn attach_after_ingest_panics() {
        let kg = LiveKg::new(&config(), LiveKgConfig::default());
        let mut layer = RealTimeLayer::new(config(), Vec::new(), Vec::new());
        let r = PositionReport {
            speed_mps: 8.0,
            heading_deg: 90.0,
            ..PositionReport::basic(EntityId::vessel(1), Timestamp::from_secs(0), GeoPoint::new(0.5, 40.0))
        };
        layer.ingest(r);
        layer.ingest(PositionReport {
            speed_mps: 8.0,
            heading_deg: 90.0,
            ..PositionReport::basic(EntityId::vessel(1), Timestamp::from_secs(10), GeoPoint::new(0.51, 40.0))
        });
        layer.flush();
        kg.attach(&mut layer);
    }
}
