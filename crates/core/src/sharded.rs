//! The sharded real-time layer: entity-hash-partitioned parallel execution
//! of the full per-record chain (§4.2, the Flink parallelism model).
//!
//! The paper scales the online layer by hash-partitioning the keyed
//! per-entity state across operator instances. This module does the same
//! natively: N worker threads each own a complete [`RealTimeLayer`]
//! partition (cleaning, synopses, low-level events, link discovery, RDF
//! generation, CEP, supervision and dead-lettering for the entities
//! routed to them), fed over bounded backpressured topics by a
//! [`ShardedExecutor`], with stamped outputs merged back into exact
//! submission order.
//!
//! ## Determinism contract
//!
//! Every per-record component of the chain is either per-entity keyed
//! state (cleaner, synopses, FLP history, CEP, area monitor
//! inside-sets, supervision) or a pure function of the record and the
//! stationary context (link discovery, RDF generation). Entity → shard
//! routing is a deterministic hash, so each shard sees exactly the
//! subsequence of records its entities produced, in submission order —
//! and therefore computes bit-identical per-record outputs. The merge
//! restores global submission order, so [`ShardedRealTimeLayer`] emits an
//! output stream **positionally identical** to a single-threaded
//! [`RealTimeLayer`] fed the same input, for any shard count.
//!
//! [`flush`](ShardedRealTimeLayer::flush) preserves the contract at end of
//! stream: the single-threaded layer flushes entities in sorted id order,
//! so the per-shard flushes (each itself sorted) are merged with a stable
//! sort by entity id.
//!
//! ## Elastic re-sharding
//!
//! The shard count is **not** fixed for the layer's lifetime:
//! [`resize`](ShardedRealTimeLayer::resize) checkpoints every shard at a
//! consistent cut ([`ShardedExecutor::at_cut`]), re-partitions the per-entity
//! [`LayerState`] onto a fresh fleet under a new routing epoch
//! ([`repartition_states`]), and resumes — without dropping, duplicating
//! or reordering a record relative to a run that used the new shard count
//! from the start. Hot-key skew is handled the same way:
//! [`rebalance`](ShardedRealTimeLayer::rebalance) (manual) and
//! [`maybe_rebalance`](ShardedRealTimeLayer::maybe_rebalance) (gated by a
//! [`RebalancePolicy`]) re-route heavy entities via [`ShardAssigner`]
//! overrides at the current shard count. See DESIGN.md §15 for the epoch
//! model and migration invariants.

use crate::config::DatacronConfig;
use crate::kg::{LiveKg, LiveKgConfig};
use crate::realtime::{
    ComponentStatus, HealthReport, IngestOutput, LayerState, RealTimeLayer, RejectReason,
};
use datacron_durability::TopicCheckpoint;
use datacron_geo::hash::FxHashMap;
use datacron_geo::{EntityId, GeoPoint, Polygon, PositionReport};
use datacron_obs::{Gauge, LogHistogram, MetricsSnapshot, ObsRegistry};
use datacron_stream::bus::TopicHealth;
use datacron_stream::parallel::{
    RebalancePolicy, SeqStamp, ShardAssigner, ShardStage, ShardedConfig, ShardedExecutor,
};
use datacron_synopses::CriticalPoint;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One fully processed record: the report and everything the chain
/// produced for it.
#[derive(Debug, Clone)]
pub struct ShardOutput {
    /// The ingested report.
    pub report: PositionReport,
    /// What the chain produced (acceptance, critical points, events,
    /// links, triples, CEP detections — or the rejection reason).
    pub output: IngestOutput,
}

impl ShardOutput {
    /// Why the record was rejected, when it was.
    pub fn rejected(&self) -> Option<RejectReason> {
        self.output.rejected
    }
}

/// One shard of the sharded layer is a complete [`RealTimeLayer`] over the
/// partition of entities routed to it.
impl ShardStage for RealTimeLayer {
    type In = PositionReport;
    type Out = ShardOutput;

    fn on_batch(&mut self, inputs: &mut Vec<PositionReport>, out: &mut Vec<ShardOutput>) {
        // One deferred-publish flush per run. The layer's outputs do not
        // depend on where its input is cut (the batch-equivalence
        // contract), so the executor's merge reproduces the
        // single-threaded output stream exactly.
        let outputs = self.ingest_batch(inputs.iter().copied());
        out.extend(
            inputs
                .drain(..)
                .zip(outputs)
                .map(|(report, output)| ShardOutput { report, output }),
        );
    }
}

/// Everything the sharded layer hands back after a clean shutdown.
pub struct ShardedShutdown {
    /// Merged outputs not yet taken via
    /// [`poll_outputs`](ShardedRealTimeLayer::poll_outputs), in global
    /// submission order (including outputs carried across resizes).
    pub outputs: Vec<ShardOutput>,
    /// The merged final health report.
    pub health: HealthReport,
    /// Records ingested over the layer's lifetime, across every routing
    /// epoch.
    pub submitted: u64,
    /// Outputs merged back over the layer's lifetime (== `submitted` on a
    /// lossless run).
    pub merged: u64,
    /// Stamped outputs that arrived behind the release cursor (must be 0).
    pub late: u64,
    /// Duplicate stamped outputs observed while buffered (must be 0).
    pub duplicates: u64,
    /// High-water mark of the reorder buffer across every epoch.
    pub max_reorder: usize,
    /// The per-shard layers of the **final** epoch, in shard order, for
    /// post-run inspection (dead-letter topics, linker stats, per-shard
    /// health, …). Earlier epochs' state was migrated into them.
    pub layers: Vec<RealTimeLayer>,
}

/// A live resize was rejected before any state moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeError {
    /// The requested shard count was 0.
    InvalidShardCount,
    /// [`ShardedRealTimeLayer::with_states`] got a state set whose length
    /// disagrees with `options.shards` — restoring it would silently remap
    /// entities the caller believed pinned, so it is a typed error, never
    /// a silent override or a panic.
    StateCountMismatch {
        /// `options.shards`.
        expected: usize,
        /// `states.len()`.
        got: usize,
    },
}

impl std::fmt::Display for ResizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidShardCount => write!(f, "shard count must be at least 1"),
            Self::StateCountMismatch { expected, got } => write!(
                f,
                "config expects {expected} shard state(s) but {got} were supplied"
            ),
        }
    }
}

impl std::error::Error for ResizeError {}

/// What a state re-partition decided to move (see [`repartition_states`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Shard count before.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// Entities whose route changed — exactly the set that physically
    /// migrates; everything else stays on its shard (minimal movement, as
    /// opposed to a naive full rehash that rebuilds every placement).
    pub moved: Vec<EntityId>,
    /// Distinct entities with any per-entity state.
    pub total_entities: usize,
}

/// Summary of one completed live resize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResizeReport {
    /// The routing epoch the new fleet runs under.
    pub epoch: u64,
    /// Shard count before.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// What moved.
    pub plan: MigrationPlan,
    /// Merged outputs drained at the boundary and buffered for the next
    /// [`poll_outputs`](ShardedRealTimeLayer::poll_outputs).
    pub carried_outputs: usize,
    /// Wall-clock pause: cut + migration + re-spawn.
    pub duration: Duration,
}

fn empty_topic<T>() -> TopicCheckpoint<T> {
    TopicCheckpoint { base: 0, stats: Default::default(), retained: Vec::new() }
}

fn empty_state(watermark: datacron_geo::Timestamp) -> LayerState {
    LayerState {
        entities: Vec::new(),
        supervision: Vec::new(),
        accepted_total: 0,
        panics_total: 0,
        restarts_total: 0,
        supervision_evictions: 0,
        watermark,
        ingests_since_sweep: 0,
        monitor_inside: Vec::new(),
        linker_stats: Default::default(),
        rdf_generated: 0,
        rdf_skipped: 0,
        critical: empty_topic(),
        area_events: empty_topic(),
        triples: empty_topic(),
        links: empty_topic(),
        dead_letters: empty_topic(),
    }
}

/// Folds a source topic checkpoint's base offset and counters into a
/// destination (retained contents are routed separately, per entity).
/// Additive, so every per-topic sum — `Σ base`, `Σ end = Σ base + Σ
/// retained`, `Σ stats` — is preserved across the re-partition, which is
/// exactly what [`merge_health`] aggregates.
fn fold_topic_meta<T>(dst: &mut TopicCheckpoint<T>, src: &TopicCheckpoint<T>) {
    dst.base += src.base;
    dst.stats.published += src.stats.published;
    dst.stats.rejected += src.stats.rejected;
    dst.stats.dropped += src.stats.dropped;
    dst.stats.reclaimed += src.stats.reclaimed;
    dst.stats.blocked += src.stats.blocked;
    dst.stats.consumed += src.stats.consumed;
    dst.stats.lag_signals += src.stats.lag_signals;
}

/// Re-partitions a consistent cut of per-shard [`LayerState`]s onto the
/// shard layout of `assigner`, for the [`with_states`] restore path of a
/// live resize.
///
/// Invariants (DESIGN.md §15):
///
/// * **Per-entity state travels whole.** Entity checkpoints, supervision
///   records (including quarantine), area-monitor residency and retained
///   per-entity topic items (critical, area events, links, dead letters)
///   each land on the entity's new route; per-shard collections are
///   re-sorted by entity id, matching what a fixed-layout checkpoint
///   produces.
/// * **Sums are conserved.** Scalar counters, linker/RDF counters and
///   topic base offsets/stats fold additively into new shard `old % N'`
///   (entity-unattributable `triples` retained items fold the same way),
///   so the *merged* health and topic aggregates after migration equal a
///   fixed-layout run's.
/// * **Watermarks are monotone.** Every new shard gets the global maximum
///   watermark — never behind any entity state it may receive.
/// * **Movement is minimal.** [`MigrationPlan::moved`] lists exactly the
///   entities whose route changed; an entity whose old shard equals its
///   new route is untouched.
///
/// [`with_states`]: ShardedRealTimeLayer::with_states
pub fn repartition_states(
    states: Vec<LayerState>,
    assigner: &ShardAssigner,
) -> (Vec<LayerState>, MigrationPlan) {
    let from_shards = states.len();
    let to_shards = assigner.shards();
    let watermark = states.iter().map(|s| s.watermark).max().unwrap_or_default();
    let mut out: Vec<LayerState> = (0..to_shards).map(|_| empty_state(watermark)).collect();
    let mut moved: BTreeSet<EntityId> = BTreeSet::new();
    let mut seen: BTreeSet<EntityId> = BTreeSet::new();
    for (old_shard, state) in states.into_iter().enumerate() {
        let fold = old_shard % to_shards;
        {
            let t = &mut out[fold];
            t.accepted_total += state.accepted_total;
            t.panics_total += state.panics_total;
            t.restarts_total += state.restarts_total;
            t.supervision_evictions += state.supervision_evictions;
            t.ingests_since_sweep += state.ingests_since_sweep;
            t.linker_stats.points += state.linker_stats.points;
            t.linker_stats.mask_hits += state.linker_stats.mask_hits;
            t.linker_stats.refinements += state.linker_stats.refinements;
            t.linker_stats.links += state.linker_stats.links;
            t.rdf_generated += state.rdf_generated;
            t.rdf_skipped += state.rdf_skipped;
            fold_topic_meta(&mut t.critical, &state.critical);
            fold_topic_meta(&mut t.area_events, &state.area_events);
            fold_topic_meta(&mut t.triples, &state.triples);
            fold_topic_meta(&mut t.links, &state.links);
            fold_topic_meta(&mut t.dead_letters, &state.dead_letters);
        }
        let mut route = |entity: EntityId| -> usize {
            let target = assigner.assign(&entity) as usize;
            seen.insert(entity);
            if target != old_shard {
                moved.insert(entity);
            }
            target
        };
        for e in state.entities {
            let s = route(e.entity);
            out[s].entities.push(e);
        }
        for rec in state.supervision {
            let s = route(rec.entity);
            out[s].supervision.push(rec);
        }
        for m in state.monitor_inside {
            let s = route(m.0);
            out[s].monitor_inside.push(m);
        }
        for cp in state.critical.retained {
            out[assigner.assign(&cp.report.entity) as usize].critical.retained.push(cp);
        }
        for ev in state.area_events.retained {
            out[assigner.assign(&ev.entity) as usize].area_events.retained.push(ev);
        }
        for l in state.links.retained {
            out[assigner.assign(&l.entity) as usize].links.retained.push(l);
        }
        for dl in state.dead_letters.retained {
            out[assigner.assign(&dl.report.entity) as usize].dead_letters.retained.push(dl);
        }
        // Triples name graph terms, not entities; with a live KG attached
        // they were drained before the cut, so this is normally empty.
        for t in state.triples.retained {
            out[fold].triples.retained.push(t);
        }
    }
    for s in &mut out {
        s.entities.sort_by_key(|e| e.entity);
        s.supervision.sort_by_key(|r| r.entity);
        s.monitor_inside.sort_by_key(|m| m.0);
    }
    let plan = MigrationPlan {
        from_shards,
        to_shards,
        moved: moved.into_iter().collect(),
        total_entities: seen.len(),
    };
    (out, plan)
}

/// Per-fleet setup hook, stored so every re-spawned epoch rebuilds shards
/// with identical attachments (CEP pattern, entity stages, live-KG
/// topics).
type SetupFn = Arc<dyn Fn(&mut RealTimeLayer) + Send + Sync>;

/// Lifetime totals of fully drained (pre-resize) epochs.
#[derive(Debug, Clone, Copy, Default)]
struct EpochTotals {
    submitted: u64,
    merged: u64,
    late: u64,
    duplicates: u64,
    max_reorder: usize,
}

/// The real-time layer, hash-partitioned across worker threads.
///
/// Drop-in parallel counterpart of [`RealTimeLayer`]: same inputs, same
/// outputs, same health semantics — with records flowing through N shards
/// concurrently and reassembled deterministically. The shard count is
/// elastic: see [`resize`](Self::resize) and
/// [`maybe_rebalance`](Self::maybe_rebalance).
pub struct ShardedRealTimeLayer {
    /// `None` only transiently, while the first fleet spawns or a resize
    /// swaps fleets.
    exec: Option<ShardedExecutor<RealTimeLayer>>,
    /// Live KG draining every shard's `triples` topic; `None` unless built
    /// via [`with_live_kg`](Self::with_live_kg).
    kg: Option<Arc<LiveKg>>,
    config: DatacronConfig,
    regions: Vec<(u64, Polygon)>,
    ports: Vec<(u64, GeoPoint)>,
    /// Capacity/pacing template for every epoch's executor (`shards`
    /// tracks the current count).
    options: ShardedConfig,
    setup: SetupFn,
    policy: Option<RebalancePolicy>,
    /// Current-epoch submitted() at the last automatic rebalance, for the
    /// policy cooldown.
    routed_at_last_rebalance: u64,
    /// Merged outputs drained at resize boundaries, served (in order)
    /// before the live executor's — a resize never reorders the output
    /// stream.
    carried: Vec<ShardOutput>,
    prior: EpochTotals,
    epoch: u64,
    resizes: u64,
    obs: ObsRegistry,
    resize_epoch_gauge: Gauge,
    resize_shards_gauge: Gauge,
    resize_migrated_gauge: Gauge,
    resize_count_gauge: Gauge,
    resize_ns: LogHistogram,
}

impl ShardedRealTimeLayer {
    /// Builds the sharded layer: one [`RealTimeLayer`] per shard over
    /// clones of the stationary context.
    pub fn new(
        config: DatacronConfig,
        regions: Vec<(u64, Polygon)>,
        ports: Vec<(u64, GeoPoint)>,
        options: ShardedConfig,
    ) -> Self {
        Self::with_setup(config, regions, ports, options, |_| {})
    }

    /// Like [`new`](Self::new), but runs `setup` on each shard's layer
    /// before its worker starts — the place to attach a CEP engine, an
    /// entity stage, or fusion, identically on every shard. `setup` runs
    /// on the caller's thread; it is retained and re-runs on every fleet
    /// re-spawned by a live resize.
    pub fn with_setup(
        config: DatacronConfig,
        regions: Vec<(u64, Polygon)>,
        ports: Vec<(u64, GeoPoint)>,
        options: ShardedConfig,
        setup: impl Fn(&mut RealTimeLayer) + Send + Sync + 'static,
    ) -> Self {
        Self::assemble(config, regions, ports, options, Arc::new(setup), None)
            .expect("no states to mismatch")
    }

    /// Like [`new`](Self::new), but with the live knowledge-graph
    /// subsystem attached: every shard's `triples` topic is re-bounded
    /// (blocking backpressure, never silent loss) and drained into one
    /// shared [`LiveKg`] whenever the layer hands back control
    /// ([`poll_outputs`](Self::poll_outputs), [`flush`](Self::flush),
    /// [`health`](Self::health), [`metrics`](Self::metrics),
    /// [`checkpoint`](Self::checkpoint), [`finish`](Self::finish)).
    /// Subscribe and query through the returned handle. Count-typed
    /// `kg.*` series are bit-identical to a single-threaded run over the
    /// same input. The attachment survives live resizes: the KG detaches
    /// the old fleet's topics at the boundary and re-attaches the new
    /// fleet's.
    pub fn with_live_kg(
        config: DatacronConfig,
        regions: Vec<(u64, Polygon)>,
        ports: Vec<(u64, GeoPoint)>,
        options: ShardedConfig,
        kg_config: LiveKgConfig,
    ) -> (Self, Arc<LiveKg>) {
        let kg = LiveKg::new(&config, kg_config);
        let attach_kg = kg.clone();
        let mut layer = Self::with_setup(config, regions, ports, options, move |shard_layer| {
            attach_kg.attach(shard_layer);
        });
        layer.kg = Some(kg.clone());
        (layer, kg)
    }

    /// Rebuilds a sharded layer from per-shard checkpoint states (one
    /// [`LayerState`] per shard, in shard order, as returned by
    /// [`checkpoint`](Self::checkpoint)). `options.shards` must equal
    /// `states.len()` — entity → shard routing is deterministic, so each
    /// state must land back on the shard that produced it; a disagreement
    /// is a typed [`ResizeError::StateCountMismatch`], never a silent
    /// remap. (To *change* the shard count, restore at the original count
    /// and call [`resize`](Self::resize), or re-partition explicitly with
    /// [`repartition_states`].) `setup` runs on each fresh layer *before*
    /// its state is applied, exactly as in
    /// [`with_setup`](Self::with_setup).
    pub fn with_states(
        config: DatacronConfig,
        regions: Vec<(u64, Polygon)>,
        ports: Vec<(u64, GeoPoint)>,
        options: ShardedConfig,
        states: Vec<LayerState>,
        setup: impl Fn(&mut RealTimeLayer) + Send + Sync + 'static,
    ) -> Result<Self, ResizeError> {
        Self::assemble(config, regions, ports, options, Arc::new(setup), Some(states))
    }

    fn assemble(
        config: DatacronConfig,
        regions: Vec<(u64, Polygon)>,
        ports: Vec<(u64, GeoPoint)>,
        options: ShardedConfig,
        setup: SetupFn,
        states: Option<Vec<LayerState>>,
    ) -> Result<Self, ResizeError> {
        if options.shards == 0 {
            return Err(ResizeError::InvalidShardCount);
        }
        if let Some(states) = &states {
            if states.len() != options.shards {
                return Err(ResizeError::StateCountMismatch {
                    expected: options.shards,
                    got: states.len(),
                });
            }
        }
        let obs = if options.metrics { ObsRegistry::new() } else { ObsRegistry::disabled() };
        let resize_epoch_gauge = obs.gauge("exec.resize.epoch");
        let resize_shards_gauge = obs.gauge("exec.resize.shards");
        let resize_migrated_gauge = obs.gauge("exec.resize.migrated_entities");
        let resize_count_gauge = obs.gauge("exec.resize.count");
        let resize_ns = obs.histogram("exec.resize.ns");
        resize_shards_gauge.set(options.shards as i64);
        let mut layer = Self {
            exec: None,
            kg: None,
            config,
            regions,
            ports,
            options,
            setup,
            policy: None,
            routed_at_last_rebalance: 0,
            carried: Vec::new(),
            prior: EpochTotals::default(),
            epoch: 0,
            resizes: 0,
            obs,
            resize_epoch_gauge,
            resize_shards_gauge,
            resize_migrated_gauge,
            resize_count_gauge,
            resize_ns,
        };
        let assigner = ShardAssigner::new(layer.options.shards);
        layer.exec = Some(layer.spawn(assigner, 0, states));
        Ok(layer)
    }

    /// Spawns one epoch's worker fleet: fresh layers, the stored setup,
    /// then (on the restore path) one migrated state per shard. `make`
    /// runs on the caller's thread, so restores complete before this
    /// returns.
    fn spawn(
        &self,
        assigner: ShardAssigner,
        epoch: u64,
        states: Option<Vec<LayerState>>,
    ) -> ShardedExecutor<RealTimeLayer> {
        let options = ShardedConfig { shards: assigner.shards(), ..self.options.clone() };
        let slots = states
            .map(|s| RefCell::new(s.into_iter().map(Some).collect::<Vec<Option<LayerState>>>()));
        ShardedExecutor::with_assigner(options, assigner, epoch, |shard| {
            let mut layer =
                RealTimeLayer::new(self.config.clone(), self.regions.clone(), self.ports.clone());
            (self.setup)(&mut layer);
            if let Some(slots) = &slots {
                let state = slots.borrow_mut()[shard as usize]
                    .take()
                    .expect("one state per shard, used once");
                layer.restore_state(state);
            }
            layer
        })
    }

    fn exec_ref(&self) -> &ShardedExecutor<RealTimeLayer> {
        self.exec.as_ref().expect("executor live outside resize")
    }

    fn exec_mut(&mut self) -> &mut ShardedExecutor<RealTimeLayer> {
        self.exec.as_mut().expect("executor live outside resize")
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.exec_ref().shards()
    }

    /// The current routing epoch (bumped by every resize/rebalance).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Completed resizes/rebalances.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// The current routing assigner (shard count + hot-key overrides).
    pub fn assigner(&self) -> &ShardAssigner {
        self.exec_ref().assigner()
    }

    /// Records routed to each shard this epoch, in shard order — the load
    /// signal behind the `exec.shard{i}.routed` gauges and the rebalance
    /// policy.
    pub fn shard_loads(&self) -> &[u64] {
        self.exec_ref().shard_loads()
    }

    /// Per-key-hash routed-record loads this epoch (unsorted) — what the
    /// rebalance policy plans hot-key overrides from.
    pub fn key_loads(&self) -> Vec<(u64, u64)> {
        self.exec_ref().key_loads()
    }

    /// Installs (or replaces) the automatic rebalance policy consulted by
    /// [`maybe_rebalance`](Self::maybe_rebalance).
    pub fn set_rebalance_policy(&mut self, policy: RebalancePolicy) {
        self.policy = Some(policy);
    }

    /// Records ingested so far, across every routing epoch.
    pub fn submitted(&self) -> u64 {
        self.prior.submitted + self.exec_ref().submitted()
    }

    /// Routes one report to its entity's shard (blocking on backpressure
    /// when that shard's queue is full) and returns the record's stamps.
    /// Outputs are retrieved, in global submission order, via
    /// [`poll_outputs`](Self::poll_outputs).
    pub fn ingest(&mut self, report: PositionReport) -> SeqStamp {
        self.exec_mut().submit(&report.entity, report)
    }

    /// Ingests a batch with one handoff per shard (records grouped by
    /// destination, appended under a single lock per shard queue).
    pub fn ingest_batch(&mut self, reports: impl IntoIterator<Item = PositionReport>) {
        self.exec_mut().submit_batch(reports.into_iter().map(|r| (r.entity, r)));
    }

    /// Takes every output whose global order is already reassembled, in
    /// submission order — outputs buffered at a resize boundary first,
    /// then the live fleet's. Non-blocking.
    pub fn poll_outputs(&mut self) -> Vec<ShardOutput> {
        let mut out = std::mem::take(&mut self.carried);
        out.extend(self.exec_mut().poll());
        self.drain_kg();
        out
    }

    /// Like [`poll_outputs`](Self::poll_outputs), but parks event-driven
    /// (woken by the next worker publish) for up to `timeout` when nothing
    /// is ready — the low-latency way for a paced consumer to observe
    /// merges the moment they happen.
    pub fn poll_outputs_timeout(&mut self, timeout: Duration) -> Vec<ShardOutput> {
        if !self.carried.is_empty() {
            return self.poll_outputs();
        }
        let out = self.exec_mut().poll_timeout(timeout);
        self.drain_kg();
        out
    }

    /// Drains pending triples into the live KG, when attached.
    fn drain_kg(&self) {
        if let Some(kg) = &self.kg {
            kg.drain();
        }
    }

    /// Settles the pipeline when a live KG is attached: a bare cut
    /// processes every queued record and publishes its triples, and the
    /// drain moves them into the KG — so a snapshot taken next sees
    /// `triples.consumed == published`, like a single-threaded
    /// drain-per-ingest run at the same point in the stream.
    fn settle_kg(&mut self) {
        if self.kg.is_some() {
            self.exec_mut().at_cut(|_, _| ());
            self.drain_kg();
        }
    }

    /// End-of-stream flush at a cut: every shard finishes its queued
    /// records and flushes its synopses. The per-shard flushes are merged
    /// by entity id, reproducing the single-threaded
    /// [`RealTimeLayer::flush`] output exactly.
    pub fn flush(&mut self) -> Vec<CriticalPoint> {
        let mut all: Vec<CriticalPoint> =
            self.exec_mut().at_cut(|_, layer| layer.flush()).into_iter().flatten().collect();
        // The flush published every trailing triple; move them into the
        // live KG before handing control back.
        self.drain_kg();
        // Entities are disjoint across shards and each shard flushes its
        // own in sorted order, so a stable sort by entity reproduces the
        // single-threaded order (per-entity emission order preserved).
        all.sort_by_key(|cp| cp.report.entity);
        all
    }

    /// Health at a cut: every shard finishes its queued records and
    /// reports health; the reports are merged into one layer-wide view.
    pub fn health(&mut self) -> HealthReport {
        self.settle_kg();
        let mut merged = merge_health(&self.exec_mut().at_cut(|_, layer| layer.health()));
        if let Some(kg) = &self.kg {
            merged = merged.with_kg(kg.health());
        }
        merged
    }

    /// Metrics at a cut: every shard finishes its queued records and
    /// snapshots its instruments; the per-shard snapshots and the
    /// executor's own (queue depths, per-shard routed loads, merge
    /// occupancy, submit→merge latency, resize series) merge into one
    /// layer-wide [`MetricsSnapshot`]. The merged count-typed series equal
    /// a single-threaded [`RealTimeLayer`]'s over the same input, bit for
    /// bit. (Count-typed series restart with the fleet at a resize — the
    /// executor's own instruments are gauges and histograms precisely so
    /// the contract is never diluted; lifetime totals live in
    /// [`ShardedShutdown`] and health.)
    pub fn metrics(&mut self) -> MetricsSnapshot {
        self.settle_kg();
        let mut merged = MetricsSnapshot::new();
        for snap in self.exec_mut().at_cut(|_, layer| layer.metrics_snapshot()) {
            merged.merge(&snap);
        }
        merged.merge(&self.exec_ref().obs_snapshot());
        merged.merge(&self.obs.snapshot());
        if let Some(kg) = &self.kg {
            merged.merge(&kg.metrics_snapshot());
        }
        merged
    }

    /// Checkpoint at a cut: every shard finishes its queued records and
    /// captures its complete durable state. The returned states (shard
    /// order) form a consistent cut — every record ingested before the
    /// call is reflected, none after — and feed
    /// [`with_states`](Self::with_states) to resume a run.
    pub fn checkpoint(&mut self) -> Vec<LayerState> {
        let states = self.exec_mut().at_cut(|_, layer| layer.checkpoint_state());
        self.drain_kg();
        states
    }

    /// Live resize to `new_shards` workers: checkpoints every shard at a
    /// consistent cut, re-partitions every entity's state
    /// onto a fresh fleet ([`repartition_states`]), re-routes the
    /// [`ShardAssigner`] and resumes under the next routing epoch. The
    /// output stream is unaffected: no record is dropped, duplicated or
    /// reordered relative to a run fixed at `new_shards` from the start
    /// (outputs in flight at the boundary are buffered and served by the
    /// next [`poll_outputs`](Self::poll_outputs)). Hot-key overrides are
    /// cleared — the new layout starts from pure hash routing; call
    /// [`rebalance`](Self::rebalance) to re-pin.
    pub fn resize(&mut self, new_shards: usize) -> Result<ResizeReport, ResizeError> {
        self.reshard(new_shards, FxHashMap::default())
    }

    /// Manual hot-key rebalance at the current shard count: plans
    /// [`ShardAssigner`] overrides from this epoch's observed per-key
    /// loads (the installed [`RebalancePolicy`], or the default policy)
    /// and re-shards when the plan differs from the current routing.
    /// Returns `Ok(None)` when the routing is already optimal. Always
    /// available — no threshold or cooldown applies.
    pub fn rebalance(&mut self) -> Result<Option<ResizeReport>, ResizeError> {
        let policy = self.policy.clone().unwrap_or_default();
        let plan = policy.plan(self.shards(), &self.exec_ref().key_loads());
        if plan == *self.exec_ref().assigner().overrides() {
            return Ok(None);
        }
        let shards = self.shards();
        self.reshard(shards, plan).map(Some)
    }

    /// Automatic rebalance: consults the installed [`RebalancePolicy`]
    /// (none installed → never triggers) against this epoch's per-shard
    /// loads, heaviest key and cooldown, and re-shards only when the
    /// skew-adjusted imbalance exceeds the policy threshold *and* a better
    /// routing exists. Cheap when idle — call it from the ingest loop at
    /// any convenient cadence.
    pub fn maybe_rebalance(&mut self) -> Result<Option<ResizeReport>, ResizeError> {
        let Some(policy) = self.policy.clone() else {
            return Ok(None);
        };
        let exec = self.exec_ref();
        let key_loads = exec.key_loads();
        let max_key = key_loads.iter().map(|&(_, n)| n).max().unwrap_or(0);
        let since = exec.submitted() - self.routed_at_last_rebalance;
        if !policy.should_rebalance(exec.shard_loads(), max_key, since) {
            return Ok(None);
        }
        let plan = policy.plan(self.shards(), &key_loads);
        if plan == *self.exec_ref().assigner().overrides() {
            // Residual imbalance this plan cannot improve (e.g. one
            // unsplittable hot key already isolated): restart the cooldown
            // instead of tearing the fleet down for nothing.
            self.routed_at_last_rebalance = self.exec_ref().submitted();
            return Ok(None);
        }
        let shards = self.shards();
        self.reshard(shards, plan).map(Some)
    }

    /// The shared teardown → migrate → re-spawn sequence behind
    /// [`resize`](Self::resize) and the rebalance paths.
    fn reshard(
        &mut self,
        new_shards: usize,
        overrides: FxHashMap<u64, u32>,
    ) -> Result<ResizeReport, ResizeError> {
        if new_shards == 0 {
            return Err(ResizeError::InvalidShardCount);
        }
        let t0 = Instant::now();
        let from_shards = self.shards();
        // 1. Settle + final drain of the outgoing epoch's triples, so the
        //    cut below checkpoints empty triples topics (drained triples
        //    must not re-materialize — the KG would double-ingest them).
        self.settle_kg();
        // 2. Consistent cut: every record ingested so far is reflected.
        let states = self.exec_mut().at_cut(|_, layer| layer.checkpoint_state());
        // 3. Teardown. The cut already merged everything, so finish()
        //    returns immediately; its outputs joined the carried buffer and
        //    its totals the lifetime accumulators.
        let run = self.exec.take().expect("executor live outside resize").finish();
        self.prior.submitted += run.submitted;
        self.prior.merged += run.merged;
        self.prior.late += run.late;
        self.prior.duplicates += run.duplicates;
        self.prior.max_reorder = self.prior.max_reorder.max(run.max_reorder);
        let carried_outputs = run.outputs.len();
        self.carried.extend(run.outputs);
        // 4. Re-route and re-partition.
        let assigner = ShardAssigner::with_overrides(new_shards, overrides);
        let (new_states, plan) = repartition_states(states, &assigner);
        // 5. KG epoch boundary: detach the dead fleet's topics (fully
        //    drained in step 1; their loss counters ride forward inside the
        //    restored topic stats).
        if let Some(kg) = &self.kg {
            kg.begin_epoch();
        }
        // 6. Re-spawn under the next epoch, restoring the migrated states.
        let epoch = self.epoch + 1;
        self.exec = Some(self.spawn(assigner, epoch, Some(new_states)));
        self.options.shards = new_shards;
        self.epoch = epoch;
        self.resizes += 1;
        self.routed_at_last_rebalance = 0;
        // 7. Re-sync the KG consumers with the restored base offsets (a
        //    fresh consumer at 0 would read the restored base jump as a
        //    phantom `Lagged` loss).
        if let Some(kg) = &self.kg {
            kg.resync();
        }
        self.resize_epoch_gauge.set(epoch as i64);
        self.resize_shards_gauge.set(new_shards as i64);
        self.resize_migrated_gauge.set(plan.moved.len() as i64);
        self.resize_count_gauge.set(self.resizes as i64);
        self.resize_ns.record_since(t0);
        Ok(ResizeReport {
            epoch,
            from_shards,
            to_shards: new_shards,
            plan,
            carried_outputs,
            duration: t0.elapsed(),
        })
    }

    /// Shuts the shards down, drains every in-flight record and returns
    /// the merged remainder, the final merged health and the per-shard
    /// layers. Lossless across every routing epoch: `merged == submitted`
    /// and `duplicates == 0` unless a worker died (which panics instead).
    pub fn finish(mut self) -> ShardedShutdown {
        let run = self.exec.take().expect("executor live outside resize").finish();
        let layers = run.stages;
        // Workers are done: one final drain moves every remaining triple
        // into the live KG before health is computed from the layers.
        if let Some(kg) = &self.kg {
            kg.drain();
        }
        let healths: Vec<HealthReport> = layers.iter().map(|l| l.health()).collect();
        let mut health = merge_health(&healths);
        if let Some(kg) = &self.kg {
            health = health.with_kg(kg.health());
        }
        let mut outputs = std::mem::take(&mut self.carried);
        outputs.extend(run.outputs);
        ShardedShutdown {
            outputs,
            health,
            submitted: self.prior.submitted + run.submitted,
            merged: self.prior.merged + run.merged,
            late: self.prior.late + run.late,
            duplicates: self.prior.duplicates + run.duplicates,
            max_reorder: self.prior.max_reorder.max(run.max_reorder),
            layers,
        }
    }
}

/// Merges per-shard health reports into one layer-wide report with the
/// same semantics as [`RealTimeLayer::health`]: counters sum, degraded
/// entities concatenate (disjoint across shards) and sort, per-topic
/// health aggregates by topic name, and the overall status is recomputed
/// from the merged view.
pub fn merge_health(shards: &[HealthReport]) -> HealthReport {
    let mut merged = HealthReport::default();
    let mut topics: Vec<TopicHealth> = Vec::new();
    for h in shards {
        merged.accepted += h.accepted;
        merged.rejected += h.rejected;
        merged.panics += h.panics;
        merged.restarts += h.restarts;
        merged.quarantined_entities += h.quarantined_entities;
        merged.degraded.extend(h.degraded.iter().cloned());
        for t in &h.topics {
            match topics.iter_mut().find(|m| m.name == t.name) {
                Some(m) => {
                    m.retained += t.retained;
                    m.end_offset += t.end_offset;
                    m.base_offset += t.base_offset;
                    m.stats.published += t.stats.published;
                    m.stats.rejected += t.stats.rejected;
                    m.stats.dropped += t.stats.dropped;
                    m.stats.reclaimed += t.stats.reclaimed;
                    m.stats.blocked += t.stats.blocked;
                    m.stats.consumed += t.stats.consumed;
                    m.stats.lag_signals += t.stats.lag_signals;
                }
                None => topics.push(t.clone()),
            }
        }
    }
    merged.degraded.sort_by_key(|e| e.entity);
    topics.sort_by(|a, b| a.name.cmp(&b.name));
    merged.status = if merged.quarantined_entities > 0
        || !merged.degraded.is_empty()
        || topics.iter().any(|t| !t.is_lossless())
    {
        ComponentStatus::Degraded
    } else {
        ComponentStatus::Ok
    };
    merged.topics = topics;
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{BoundingBox, EntityId, Timestamp};

    fn config() -> DatacronConfig {
        DatacronConfig::maritime(BoundingBox::new(-10.0, 30.0, 10.0, 50.0))
    }

    fn rep(entity: u64, t: i64, lon: f64, lat: f64) -> PositionReport {
        PositionReport {
            speed_mps: 8.0,
            heading_deg: 90.0,
            ..PositionReport::basic(
                EntityId::vessel(entity),
                Timestamp::from_secs(t),
                GeoPoint::new(lon, lat),
            )
        }
    }

    fn fleet(entities: u64, reports: i64) -> Vec<PositionReport> {
        let mut out = Vec::new();
        for t in 0..reports {
            for e in 0..entities {
                let lon = -5.0 + 0.002 * t as f64 + 0.05 * e as f64;
                let lat = 38.0 + 0.001 * (e as f64) + if t % 7 == 0 { 0.001 } else { 0.0 };
                out.push(rep(e, t * 30, lon, lat));
            }
        }
        out
    }

    #[test]
    fn sharded_layer_matches_single_threaded_outputs() {
        let input = fleet(12, 40);
        let mut single = RealTimeLayer::new(config(), Vec::new(), Vec::new());
        let expected: Vec<IngestOutput> =
            input.iter().map(|r| single.ingest(*r)).collect();
        let expected_flush = single.flush();

        for shards in [1usize, 3] {
            let mut sharded = ShardedRealTimeLayer::new(
                config(),
                Vec::new(),
                Vec::new(),
                ShardedConfig::with_shards(shards),
            );
            let mut got = Vec::new();
            for r in &input {
                sharded.ingest(*r);
                got.extend(sharded.poll_outputs());
            }
            let flush = sharded.flush();
            let done = sharded.finish();
            got.extend(done.outputs);
            assert_eq!(got.len(), expected.len(), "{shards} shards");
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(g.report, input[i], "record {i} in submission order");
                assert_eq!(
                    format!("{:?}", g.output),
                    format!("{e:?}"),
                    "output {i} with {shards} shards"
                );
            }
            assert_eq!(
                format!("{flush:?}"),
                format!("{expected_flush:?}"),
                "flush with {shards} shards"
            );
            assert_eq!(done.submitted, input.len() as u64);
            assert_eq!(done.merged, input.len() as u64);
            assert_eq!(done.late, 0);
            assert_eq!(done.duplicates, 0);
        }
    }

    #[test]
    fn merged_health_matches_single_threaded() {
        let input = fleet(9, 25);
        let mut single = RealTimeLayer::new(config(), Vec::new(), Vec::new());
        for r in &input {
            single.ingest(*r);
        }
        let expected = single.health();

        let mut sharded = ShardedRealTimeLayer::new(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(4),
        );
        sharded.ingest_batch(input.iter().copied());
        let merged = sharded.health();
        assert_eq!(format!("{merged:?}"), format!("{expected:?}"));
        let done = sharded.finish();
        assert_eq!(format!("{:?}", done.health), format!("{expected:?}"));
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identically() {
        let input = fleet(10, 30);
        let (head, tail) = input.split_at(input.len() / 2);

        // Uninterrupted sharded run over the whole input.
        let mut full = ShardedRealTimeLayer::new(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(3),
        );
        let mut expected = Vec::new();
        for r in &input {
            full.ingest(*r);
            expected.extend(full.poll_outputs());
        }
        let expected_flush = full.flush();
        let done = full.finish();
        expected.extend(done.outputs);

        // Run the head, checkpoint, tear down, resume from the states.
        let mut first = ShardedRealTimeLayer::new(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(3),
        );
        let mut got = Vec::new();
        for r in head {
            first.ingest(*r);
            got.extend(first.poll_outputs());
        }
        let states = first.checkpoint();
        assert_eq!(states.len(), 3);
        got.extend(first.finish().outputs);

        let mut resumed = ShardedRealTimeLayer::with_states(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(3),
            states,
            |_| {},
        )
        .expect("counts agree");
        for r in tail {
            resumed.ingest(*r);
            got.extend(resumed.poll_outputs());
        }
        let flush = resumed.flush();
        got.extend(resumed.finish().outputs);

        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(format!("{:?}", g.output), format!("{:?}", e.output));
        }
        assert_eq!(format!("{flush:?}"), format!("{expected_flush:?}"));
    }

    #[test]
    fn with_states_rejects_shard_count_mismatch() {
        // Checkpoint at 3 shards, restore claiming 4: the typed error
        // surfaces instead of a silent remap (or a panic downstream).
        let input = fleet(6, 10);
        let mut layer = ShardedRealTimeLayer::new(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(3),
        );
        sharded_ingest_all(&mut layer, &input);
        let states = layer.checkpoint();
        layer.finish();
        let err = ShardedRealTimeLayer::with_states(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(4),
            states,
            |_| {},
        )
        .err()
        .expect("mismatch must be rejected");
        assert_eq!(err, ResizeError::StateCountMismatch { expected: 4, got: 3 });
        assert!(err.to_string().contains("4 shard state(s)"));
    }

    fn sharded_ingest_all(layer: &mut ShardedRealTimeLayer, input: &[PositionReport]) {
        for r in input {
            layer.ingest(*r);
            layer.poll_outputs();
        }
    }

    #[test]
    fn mid_stream_resize_preserves_the_output_stream() {
        let input = fleet(10, 24);
        let mut single = RealTimeLayer::new(config(), Vec::new(), Vec::new());
        let expected: Vec<IngestOutput> = input.iter().map(|r| single.ingest(*r)).collect();
        let expected_flush = single.flush();
        let expected_health = single.health();

        let mut layer = ShardedRealTimeLayer::new(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(2),
        );
        let mut got = Vec::new();
        let third = input.len() / 3;
        for (i, r) in input.iter().enumerate() {
            if i == third {
                let report = layer.resize(5).expect("resize up");
                assert_eq!(report.from_shards, 2);
                assert_eq!(report.to_shards, 5);
                assert_eq!(layer.shards(), 5);
                assert_eq!(layer.epoch(), 1);
            }
            if i == 2 * third {
                layer.resize(3).expect("resize down");
                assert_eq!(layer.epoch(), 2);
            }
            layer.ingest(*r);
            got.extend(layer.poll_outputs());
        }
        let flush = layer.flush();
        let health = layer.health();
        let done = layer.finish();
        got.extend(done.outputs);

        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.report, input[i], "record {i} in submission order across resizes");
            assert_eq!(format!("{:?}", g.output), format!("{e:?}"), "output {i}");
        }
        assert_eq!(format!("{flush:?}"), format!("{expected_flush:?}"));
        assert_eq!(format!("{health:?}"), format!("{expected_health:?}"));
        assert_eq!(done.submitted, input.len() as u64);
        assert_eq!(done.merged, input.len() as u64);
        assert_eq!(done.late, 0);
        assert_eq!(done.duplicates, 0);
        assert_eq!(done.layers.len(), 3);
    }

    #[test]
    fn repartition_moves_exactly_the_rerouted_entities() {
        let input = fleet(12, 8);
        let mut layer = ShardedRealTimeLayer::new(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(3),
        );
        sharded_ingest_all(&mut layer, &input);
        let states = layer.checkpoint();
        layer.finish();

        let old = ShardAssigner::new(3);
        let new = ShardAssigner::new(7);
        let (migrated, plan) = repartition_states(states.clone(), &new);
        assert_eq!(migrated.len(), 7);
        assert_eq!(plan.total_entities, 12);
        for e in 0..12u64 {
            let entity = EntityId::vessel(e);
            let changed = old.assign(&entity) != new.assign(&entity);
            assert_eq!(
                plan.moved.contains(&entity),
                changed,
                "entity {e}: moved iff its route changed"
            );
        }
        // Sums are conserved: merged counters across the migrated states
        // equal the originals'.
        let sum = |ss: &[LayerState]| {
            (
                ss.iter().map(|s| s.accepted_total).sum::<u64>(),
                ss.iter().map(|s| s.entities.len()).sum::<usize>(),
                ss.iter().map(|s| s.critical.base + s.critical.retained.len() as u64).sum::<u64>(),
                ss.iter().map(|s| s.dead_letters.base + s.dead_letters.retained.len() as u64).sum::<u64>(),
            )
        };
        assert_eq!(sum(&migrated), sum(&states));
        // Every migrated entity landed on its assigned shard, sorted.
        for (shard, s) in migrated.iter().enumerate() {
            for e in &s.entities {
                assert_eq!(new.assign(&e.entity) as usize, shard);
            }
            assert!(s.entities.windows(2).all(|w| w[0].entity < w[1].entity));
        }
    }

    #[test]
    fn supervision_is_per_shard_and_merges() {
        let cfg = config();
        let input = fleet(8, 10);
        let mut sharded = ShardedRealTimeLayer::with_setup(
            cfg,
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(3),
            |layer| {
                layer.attach_entity_stage(|r| {
                    if r.entity.id == 3 {
                        panic!("injected");
                    }
                });
            },
        );
        sharded.ingest_batch(input.iter().copied());
        let done = sharded.finish();
        // Entity 3 panics on every record: 10 records, max_restarts
        // default 3 → 4 restarts then quarantined, the rest rejected.
        assert_eq!(done.health.quarantined_entities, 1);
        assert_eq!(done.health.rejected, 10);
        assert_eq!(done.health.accepted, (8 - 1) * 10);
        assert_eq!(done.health.status, ComponentStatus::Degraded);
        // Outputs stay in submission order; the rejected entity's records
        // carry their rejection reason in place.
        let rejected: Vec<_> = done
            .outputs
            .iter()
            .filter(|o| o.output.rejected.is_some())
            .map(|o| o.report.entity.id)
            .collect();
        assert_eq!(rejected.len(), 10);
        assert!(rejected.iter().all(|&id| id == 3));
    }

    #[test]
    fn supervision_and_quarantine_survive_a_resize() {
        let cfg = config();
        let input = fleet(8, 12);
        let mk = |shards: usize| {
            ShardedRealTimeLayer::with_setup(
                cfg.clone(),
                Vec::new(),
                Vec::new(),
                ShardedConfig::with_shards(shards),
                |layer| {
                    layer.attach_entity_stage(|r| {
                        if r.entity.id == 3 {
                            panic!("injected");
                        }
                    });
                },
            )
        };
        // Reference: fixed at 4 shards the whole way.
        let mut fixed = mk(4);
        fixed.ingest_batch(input.iter().copied());
        let expected = fixed.finish();

        // Resized run: quarantine accrues at 2 shards, then migrates.
        let mut elastic = mk(2);
        let half = input.len() / 2;
        elastic.ingest_batch(input[..half].iter().copied());
        elastic.resize(4).expect("resize");
        elastic.ingest_batch(input[half..].iter().copied());
        let done = elastic.finish();

        assert_eq!(format!("{:?}", done.health), format!("{:?}", expected.health));
        assert_eq!(done.outputs.len(), expected.outputs.len());
        for (g, e) in done.outputs.iter().zip(&expected.outputs) {
            assert_eq!(format!("{:?}", g.output), format!("{:?}", e.output));
        }
    }

    /// Background entity ids that hash to the same shard as `hot` under
    /// `assigner` — the co-location that makes a hot key *addressable*
    /// skew (isolating it actually shrinks the max shard).
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

    #[test]
    fn rebalance_pins_a_hot_entity_and_keeps_outputs_identical() {
        // Entity 0 emits half the traffic, and the background entities all
        // hash to its shard — the worst case the policy exists for.
        let assigner = ShardAssigner::new(4);
        let cold = co_resident_ids(&assigner, EntityId::vessel(0), 6);
        let mut input = Vec::new();
        for t in 0..240i64 {
            let e = if t % 2 == 0 { 0 } else { cold[(t as usize / 2) % cold.len()] };
            input.push(rep(e, t * 10, -5.0 + 0.001 * t as f64, 38.0 + 0.0001 * e as f64));
        }
        let mut single = RealTimeLayer::new(config(), Vec::new(), Vec::new());
        let expected: Vec<IngestOutput> = input.iter().map(|r| single.ingest(*r)).collect();

        let mut layer = ShardedRealTimeLayer::new(
            config(),
            Vec::new(),
            Vec::new(),
            ShardedConfig::with_shards(4),
        );
        layer.set_rebalance_policy(RebalancePolicy {
            max_imbalance: 1.5,
            min_records: 64,
            cooldown_records: 64,
            ..RebalancePolicy::default()
        });
        let mut got = Vec::new();
        let mut rebalanced = false;
        for (i, r) in input.iter().enumerate() {
            layer.ingest(*r);
            got.extend(layer.poll_outputs());
            if i == input.len() / 2 {
                rebalanced |= layer.maybe_rebalance().expect("rebalance").is_some();
            }
        }
        assert!(rebalanced, "the skew must trip the policy");
        assert!(!layer.assigner().overrides().is_empty(), "hot key pinned");
        let done = layer.finish();
        got.extend(done.outputs);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(format!("{:?}", g.output), format!("{e:?}"));
        }
        assert_eq!(done.late, 0);
        assert_eq!(done.duplicates, 0);
    }
}
