//! The real-time layer: cleaning → low-level events → synopses → RDF
//! generation → link discovery → prediction → CEP, per record, with every
//! intermediate product published to a topic.
//!
//! # Hot path
//!
//! There is one ingest path. Each record runs the chain once; its topic
//! publishes and metric-counter bumps are appended to per-topic buffers,
//! and RDF is generated by the compiled [`SemanticNodeLifter`].
//! [`RealTimeLayer::ingest_batch`] flushes those buffers once per call
//! (one lock per topic, one atomic add per counter);
//! [`RealTimeLayer::ingest`] is the same path over one record. Outputs,
//! topic contents, flush, health and count metrics therefore do not depend
//! on how the input is cut into calls — pinned by the `batch_equivalence`
//! suite. See DESIGN.md §13.
//!
//! # Supervision
//!
//! Per-entity processing is *supervised*: a panic anywhere in the
//! post-cleaning chain is caught, the panicking entity's state is discarded
//! (an automatic restart — the entity re-enters the pipeline fresh on its
//! next report), and the offending record goes to the [`dead
//! letters`](RealTimeLayer::dead_letters) topic with a typed
//! [`RejectReason`]. An entity that keeps panicking is **quarantined**
//! after [`SupervisionConfig::max_restarts`] restarts: its records are
//! dead-lettered without touching the pipeline, so one poisoned vessel
//! cannot take down fleet-wide processing. [`RealTimeLayer::health`]
//! reports per-entity status and counters.

use crate::config::DatacronConfig;
use crate::slots::Slots;
use crate::spill::{SpillStats, SpillStore};
use datacron_cep::{Wayeb, WayebState};
use datacron_durability::TopicCheckpoint;
use datacron_geo::hash::FxHashMap;
use datacron_geo::{EntityId, GeoPoint, MovingKind, Polygon, PositionReport, Timestamp};
use datacron_linkdisc::{Link, LinkStats, LinkerConfig, StaticLinker};
use datacron_obs::{Counter, LogHistogram, MetricsSnapshot, ObsRegistry};
use datacron_predict::flp::Predictor;
use datacron_predict::RmfStarPredictor;
use datacron_rdf::fast::SemanticNodeLifter;
use datacron_rdf::term::Triple;
use datacron_stream::bus::{Topic, TopicHealth};
use datacron_stream::cleaning::{CleanerState, CleaningOutcome, StreamCleaner};
use datacron_stream::lowlevel::{AreaEvent, AreaMonitor};
use datacron_synopses::{CriticalKind, CriticalPoint, SynopsesGenerator, SynopsesState};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Why a record was rejected instead of processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The online cleaner rejected it, with the cleaner's label.
    Cleaning(CleaningOutcome),
    /// The entity is quarantined after repeated processing panics.
    Quarantined,
    /// Processing this record panicked; the entity state was restarted.
    ProcessingPanic,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Cleaning(outcome) => write!(f, "cleaning: {outcome:?}"),
            RejectReason::Quarantined => write!(f, "entity quarantined"),
            RejectReason::ProcessingPanic => write!(f, "processing panicked"),
        }
    }
}

/// A record the pipeline refused, published to the dead-letter topic so
/// nothing is silently lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadLetter {
    /// The rejected record.
    pub report: PositionReport,
    /// Why it was rejected.
    pub reason: RejectReason,
}

/// Health of one supervised component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComponentStatus {
    /// Operating normally.
    #[default]
    Ok,
    /// Operating, but it has been restarted or is losing data.
    Degraded,
    /// Taken out of service after repeated failures.
    Quarantined,
}

/// Health of one entity's processing chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityHealth {
    /// The entity.
    pub entity: EntityId,
    /// Its current status.
    pub status: ComponentStatus,
    /// How many times its state was restarted after a panic.
    pub restarts: u32,
}

/// A point-in-time health report of the real-time layer.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Worst status across all components.
    pub status: ComponentStatus,
    /// Records accepted by cleaning and fully processed.
    pub accepted: u64,
    /// Records rejected (all reasons); equals the dead-letter topic length.
    pub rejected: u64,
    /// Processing panics caught.
    pub panics: u64,
    /// Entity restarts performed.
    pub restarts: u64,
    /// Entities currently quarantined.
    pub quarantined_entities: u64,
    /// Entities that are not `Ok` (restarted or quarantined), sorted.
    pub degraded: Vec<EntityHealth>,
    /// Health of the output topics, sorted by name.
    pub topics: Vec<TopicHealth>,
    /// Write-ahead-log / checkpoint counters, when durability is enabled on
    /// the owning [`DatacronSystem`](crate::DatacronSystem) (`None` here and
    /// for per-shard reports).
    pub durability: Option<crate::durable::DurabilityHealth>,
    /// Networked-ingestion counters, when a `datacron-net` server feeds
    /// this layer (attach via [`HealthReport::with_net`]; `None` for
    /// purely in-process ingestion).
    pub net: Option<datacron_net::NetHealth>,
    /// Live knowledge-graph counters, when a [`LiveKg`](crate::kg::LiveKg)
    /// drains this layer's triples (attach via [`HealthReport::with_kg`];
    /// `None` otherwise and for per-shard reports).
    pub kg: Option<crate::kg::KgHealth>,
}

impl HealthReport {
    /// `true` when everything is `Ok` and nothing was rejected.
    pub fn is_all_ok(&self) -> bool {
        self.status == ComponentStatus::Ok && self.rejected == 0 && self.panics == 0
    }

    /// Attach the network-ingestion section (from `NetServer::health()`).
    /// A wire with NACKs or CRC errors marks the layer `Degraded` unless
    /// something worse is already reported.
    pub fn with_net(mut self, net: datacron_net::NetHealth) -> Self {
        if !net.is_clean() && self.status == ComponentStatus::Ok {
            self.status = ComponentStatus::Degraded;
        }
        self.net = Some(net);
        self
    }

    /// Attach the live knowledge-graph section (from `LiveKg::health()`).
    /// Lost triples mark the layer `Degraded` unless something worse is
    /// already reported.
    pub fn with_kg(mut self, kg: crate::kg::KgHealth) -> Self {
        if !kg.is_clean() && self.status == ComponentStatus::Ok {
            self.status = ComponentStatus::Degraded;
        }
        self.kg = Some(kg);
        self
    }
}

/// Supervision thresholds.
#[derive(Debug, Clone)]
pub struct SupervisionConfig {
    /// How many automatic restarts an entity gets before it is
    /// quarantined.
    pub max_restarts: u32,
    /// Event-time horizon (seconds) after which an **idle, non-quarantined**
    /// supervision record is evicted and its restart history forgiven, so a
    /// week-long replay does not leak one record per transient entity that
    /// ever panicked. Quarantined entities are never evicted. `None`
    /// disables eviction.
    ///
    /// Eviction is driven by event time, in two ways that compose:
    /// * lazily, when the entity's own next record arrives more than the
    ///   horizon after its last incident (deterministic per entity, so the
    ///   sharded and single-threaded pipelines agree), and
    /// * by a periodic sweep against the layer's event-time watermark
    ///   (every [`sweep_interval`](Self::sweep_interval) ingests), which
    ///   reclaims records of entities that never report again.
    pub idle_horizon_s: Option<i64>,
    /// How many ingests between idle-supervision sweeps. Lower values bound
    /// supervision memory more tightly at the cost of more frequent scans;
    /// defaults to [`SWEEP_INTERVAL`]. A value of 0 sweeps on every ingest.
    pub sweep_interval: u64,
}

/// Default number of ingests between idle-supervision sweeps
/// ([`SupervisionConfig::sweep_interval`]).
pub const SWEEP_INTERVAL: u64 = 4096;

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            // One week of event time: generous enough that no test fleet or
            // realistic replay forgives a restart history by accident.
            idle_horizon_s: Some(7 * 86_400),
            sweep_interval: SWEEP_INTERVAL,
        }
    }
}

/// Per-entity supervision record.
#[derive(Debug, Clone, Copy, Default)]
struct Supervision {
    restarts: u32,
    quarantined: bool,
    /// Event time of the last caught panic (drives idle eviction).
    last_incident: Timestamp,
}

/// What one ingested report produced.
#[derive(Debug, Clone, Default)]
pub struct IngestOutput {
    /// `false` when the record was rejected by cleaning or supervision.
    pub accepted: bool,
    /// Why the record was rejected, when it was.
    pub rejected: Option<RejectReason>,
    /// Critical points emitted by the synopses generator.
    pub critical_points: Vec<CriticalPoint>,
    /// Low-level area events.
    pub area_events: Vec<AreaEvent>,
    /// Links discovered for the emitted critical points.
    pub links: Vec<Link>,
    /// RDF triples generated for the emitted critical points.
    pub triples: Vec<Triple>,
    /// Detections of the attached CEP pattern, if any.
    pub cep_detections: usize,
}

/// Maps a critical point to a CEP symbol; `None` = not a CEP event.
type Symbolizer = Arc<dyn Fn(&CriticalPoint) -> Option<u8> + Send + Sync>;

/// A user-attached per-entity stage, run first in the supervised section of
/// the chain. May panic; supervision contains the blast radius.
type EntityStage = Arc<dyn Fn(&PositionReport) + Send + Sync>;

/// Every 64th ingested record (`tick & STAGE_SAMPLE_MASK == 0`) is timed
/// into the `stage.*_ns` latency histograms. Counters are exact and
/// unsampled regardless.
const STAGE_SAMPLE_MASK: u64 = 63;

/// Pre-resolved instrument handles for the ingest hot path. Counters are
/// exact (bumped on every record — a relaxed atomic add, or nothing when
/// the registry is disabled); stage-latency histograms are fed from a
/// sampled subset of records ([`STAGE_SAMPLE_MASK`], one in 64) so the
/// steady state never pays two clock reads per stage per record.
struct LayerMetrics {
    enabled: bool,
    records: Counter,
    accepted: Counter,
    dead_lettered: Counter,
    rejected_cleaning: Counter,
    rejected_quarantined: Counter,
    rejected_panic: Counter,
    panics: Counter,
    restarts: Counter,
    critical_points: Counter,
    area_events: Counter,
    links: Counter,
    triples: Counter,
    cep_matches: Counter,
    stage_clean_ns: LogHistogram,
    stage_synopses_ns: LogHistogram,
    stage_link_ns: LogHistogram,
    stage_rdf_ns: LogHistogram,
    stage_cep_ns: LogHistogram,
    spill_evict_ns: LogHistogram,
    spill_rehydrate_ns: LogHistogram,
    spill_trigger_ns: LogHistogram,
    ingest_ns: LogHistogram,
}

impl LayerMetrics {
    fn new(obs: &ObsRegistry) -> Self {
        Self {
            enabled: obs.is_enabled(),
            records: obs.counter("ingest.records"),
            accepted: obs.counter("ingest.accepted"),
            dead_lettered: obs.counter("ingest.dead_lettered"),
            rejected_cleaning: obs.counter("ingest.rejected.cleaning"),
            rejected_quarantined: obs.counter("ingest.rejected.quarantined"),
            rejected_panic: obs.counter("ingest.rejected.panic"),
            panics: obs.counter("supervision.panics"),
            restarts: obs.counter("supervision.restarts"),
            critical_points: obs.counter("synopses.critical_points"),
            area_events: obs.counter("lowlevel.area_events"),
            links: obs.counter("linkdisc.links"),
            triples: obs.counter("rdf.triples"),
            cep_matches: obs.counter("cep.matches"),
            stage_clean_ns: obs.histogram("stage.clean_ns"),
            stage_synopses_ns: obs.histogram("stage.synopses_ns"),
            stage_link_ns: obs.histogram("stage.link_ns"),
            stage_rdf_ns: obs.histogram("stage.rdf_ns"),
            stage_cep_ns: obs.histogram("stage.cep_ns"),
            spill_evict_ns: obs.histogram("spill.evict_ns"),
            spill_rehydrate_ns: obs.histogram("spill.rehydrate_ns"),
            spill_trigger_ns: obs.histogram("spill.trigger_ns"),
            ingest_ns: obs.histogram("stage.ingest_ns"),
        }
    }
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Per-entity streaming state: one slot of the layer's [`Slots`] slab.
///
/// A slot outlives its entity. Eviction and a supervision restart free it
/// with its allocations (history ring, synopses window), and the next cold
/// start [`reset`](Self::reset)s it or the next rehydration
/// [`revive`](Self::revive)s it in place. Both overwrite every field, so
/// nothing of the slot's former entity survives.
struct EntityState {
    cleaner: StreamCleaner,
    synopses: SynopsesGenerator,
    /// FLP history, oldest first. Its ring is allocated on the first push
    /// with room for exactly `flp_window` reports, and never grows past it.
    history: VecDeque<PositionReport>,
    /// A clone of the layer's CEP template: the model is shared, only the
    /// run-state is the entity's own.
    cep: Option<Wayeb>,
    /// Event time of the entity's newest report (monotone under
    /// out-of-order input). Drives the idle ranking of cold-state spill;
    /// never part of the durable state — a rehydrated or restored entity
    /// re-learns it from its next report.
    last_seen: Timestamp,
}

impl EntityState {
    /// A new slot's state, overwritten by `reset` or `revive` before use.
    fn new(config: &DatacronConfig) -> Self {
        Self {
            cleaner: StreamCleaner::new(config.cleaning.clone()),
            synopses: SynopsesGenerator::new(config.synopses.clone()),
            history: VecDeque::new(),
            cep: None,
            last_seen: Timestamp(i64::MIN),
        }
    }

    /// A cold start: the state of an entity first seen at `now`.
    fn reset(&mut self, config: &DatacronConfig, cep_template: &Option<Wayeb>, now: Timestamp) {
        self.cleaner = StreamCleaner::new(config.cleaning.clone());
        self.synopses.restore_from(&SynopsesState::default());
        self.history.clear();
        self.cep.clone_from(cep_template);
        self.last_seen = now;
    }

    /// Rebuilds the state a checkpoint captured — rehydration, the flush
    /// of a spilled entity and restore all share this. `last_seen` starts
    /// at the distant past: the entity's next report re-learns it, and
    /// until then it ranks as the idlest, which only affects eviction
    /// *choice*, never outputs.
    fn revive(&mut self, config: &DatacronConfig, cep_template: &Option<Wayeb>, ckpt: &EntityCheckpoint) {
        self.cleaner = StreamCleaner::restore(config.cleaning.clone(), ckpt.cleaner.clone());
        self.synopses.restore_from(&ckpt.synopses);
        self.history.clear();
        self.history.extend(ckpt.history.iter().copied());
        self.cep = match (cep_template, &ckpt.cep) {
            (Some(template), Some(run)) => {
                let mut engine = template.clone();
                engine.restore_online_state(*run);
                Some(engine)
            }
            _ => None,
        };
        self.last_seen = Timestamp(i64::MIN);
    }
}

/// Products and counter increments deferred until the end of the current
/// ingest call.
///
/// The chain appends to these buffers at the code points where it
/// produces a product or counts an event; the end of every
/// [`ingest`](RealTimeLayer::ingest) and [`ingest_batch`](RealTimeLayer::ingest_batch),
/// and of each entity's [`flush`](RealTimeLayer::flush), publishes each
/// topic with one `publish_batch` (one lock) and bumps each counter with
/// one atomic add.
/// Per-topic message order is production order whatever the call size, so
/// every topic's content is too. Nothing can observe the topics mid-call
/// (every entry point takes `&mut self`), so the deferral is invisible.
#[derive(Default)]
struct BatchBuffers {
    critical: Vec<CriticalPoint>,
    area_events: Vec<AreaEvent>,
    triples: Vec<Triple>,
    links: Vec<Link>,
    dead_letters: Vec<DeadLetter>,
    n_records: u64,
    n_accepted: u64,
    n_dead_lettered: u64,
    n_rejected_cleaning: u64,
    n_rejected_quarantined: u64,
    n_rejected_panic: u64,
    n_panics: u64,
    n_restarts: u64,
    n_area_events: u64,
    n_critical_points: u64,
    n_triples: u64,
    n_links: u64,
    n_cep_matches: u64,
}

/// Upper bound on recycled buffers retained per output field.
const POOL_CAP: usize = 256;

/// Recycled [`IngestOutput`] buffers: callers done with an output hand it
/// back via [`RealTimeLayer::recycle`]; its vectors are cleared and reused
/// by later records instead of reallocated.
#[derive(Default)]
struct OutputPool {
    critical_points: Vec<Vec<CriticalPoint>>,
    area_events: Vec<Vec<AreaEvent>>,
    links: Vec<Vec<Link>>,
    triples: Vec<Vec<Triple>>,
}

impl OutputPool {
    /// An empty output backed by recycled buffers where available.
    fn checkout(&mut self) -> IngestOutput {
        IngestOutput {
            accepted: false,
            rejected: None,
            critical_points: self.critical_points.pop().unwrap_or_default(),
            area_events: self.area_events.pop().unwrap_or_default(),
            links: self.links.pop().unwrap_or_default(),
            triples: self.triples.pop().unwrap_or_default(),
            cep_detections: 0,
        }
    }

    /// Reclaims an output's allocations (contents dropped, capacity kept).
    fn put(&mut self, out: IngestOutput) {
        let IngestOutput { critical_points, area_events, links, triples, .. } = out;
        Self::stash(&mut self.critical_points, critical_points);
        Self::stash(&mut self.area_events, area_events);
        Self::stash(&mut self.links, links);
        Self::stash(&mut self.triples, triples);
    }

    fn stash<T>(pool: &mut Vec<Vec<T>>, mut v: Vec<T>) {
        if pool.len() < POOL_CAP && v.capacity() > 0 {
            v.clear();
            pool.push(v);
        }
    }
}

/// Publishes a deferred topic buffer in one append (none when empty),
/// keeping its allocation.
fn publish_deferred<T: Clone>(topic: &Topic<T>, buf: &mut Vec<T>) {
    if !buf.is_empty() {
        topic.publish_batch(buf.drain(..));
    }
}

/// Applies a deferred counter sum in one atomic add.
fn drain_counter(counter: &Counter, pending: &mut u64) {
    if *pending != 0 {
        counter.add(*pending);
        *pending = 0;
    }
}

/// The assembled real-time layer.
pub struct RealTimeLayer {
    config: DatacronConfig,
    /// The resident tier: every entity with live operator state, one slab
    /// slot each.
    entities: Slots<EntityState>,
    monitor: AreaMonitor,
    linker: StaticLinker,
    /// RDF triples generated (checkpointed beside the linker's counters).
    rdf_generated: u64,
    /// RDF template patterns skipped. The lifter binds every pattern, so
    /// this only carries a restored checkpoint's value forward.
    rdf_skipped: u64,
    /// CEP template cloned into each entity: the clones share its model
    /// and keep their own run-state. `None` disables forecasting.
    cep_template: Option<Wayeb>,
    cep_symbolizer: Option<Symbolizer>,
    /// Optional user-attached per-entity stage (supervised).
    entity_stage: Option<EntityStage>,
    /// Per-entity supervision records.
    supervision: FxHashMap<EntityId, Supervision>,
    /// The cold state tier: entities evicted under the resident budget
    /// ([`DatacronConfig::max_resident_entities`]), keyed by entity,
    /// rehydrated transparently on their next report.
    spill: SpillStore,
    /// Scratch checkpoint for the spill hot path: evictions snapshot into
    /// it and rehydrations decode into it, so the steady-state cycle
    /// reuses one set of history/window allocations instead of churning
    /// the allocator millions of times (allocator churn degrades *every*
    /// stage's cache locality, not just the spill ops).
    spill_scratch: EntityCheckpoint,
    /// Records fully processed.
    accepted_total: u64,
    /// Panics caught by supervision.
    panics_total: u64,
    /// Entity restarts performed.
    restarts_total: u64,
    /// Idle supervision records evicted (restart history forgiven).
    supervision_evictions: u64,
    /// Event-time watermark: max report timestamp ever ingested.
    watermark: Timestamp,
    /// Ingests since the last idle-supervision sweep.
    ingests_since_sweep: u64,
    /// Reusable per-record critical-point scratch buffer: cleared and
    /// refilled by the synopses stage each record, so the steady-state hot
    /// path allocates nothing for records that emit no critical point.
    cps_scratch: Vec<CriticalPoint>,
    /// Compiled semantic-node lifter: the layer's only RDF engine. Its
    /// output equals the `semantic_node_template` interpreter's (pinned by
    /// `datacron-rdf`'s property tests); its interned symbols are
    /// process-local and never checkpointed.
    lifter: SemanticNodeLifter,
    /// Publishes and counter bumps deferred to the end of the current call.
    batch: BatchBuffers,
    /// Recycled output buffers (see [`recycle`](Self::recycle)).
    pool: OutputPool,
    /// Instrument registry ([disabled](ObsRegistry::disabled) when
    /// [`DatacronConfig::metrics`] is off).
    obs: ObsRegistry,
    /// Pre-resolved hot-path instrument handles.
    metrics: LayerMetrics,
    /// Records ingested, for the stage-latency sample
    /// ([`STAGE_SAMPLE_MASK`]). Not part of the durable
    /// state: sampling only shapes timing histograms, never outputs.
    metric_ticks: u64,
    // --- topics ---
    // Unbounded: each keeps a message only until every consumer registered
    // at publish time has read it, so a topic nobody subscribes to holds
    // nothing. Subscribe before the first ingest to observe a stream.
    /// Trajectory synopses.
    pub critical: Arc<Topic<CriticalPoint>>,
    /// Low-level area events.
    pub area_events: Arc<Topic<AreaEvent>>,
    /// Generated RDF.
    pub triples: Arc<Topic<Triple>>,
    /// Discovered links.
    pub links: Arc<Topic<Link>>,
    /// Every rejected record, with its typed [`RejectReason`].
    pub dead_letters: Arc<Topic<DeadLetter>>,
}

impl RealTimeLayer {
    /// Builds the layer over stationary context (regions and ports).
    pub fn new(
        config: DatacronConfig,
        regions: Vec<(u64, Polygon)>,
        ports: Vec<(u64, GeoPoint)>,
    ) -> Self {
        let monitor = AreaMonitor::new(regions.clone(), config.linker.cell_deg);
        let linker = StaticLinker::new(
            regions,
            ports,
            LinkerConfig {
                ..config.linker.clone()
            },
        );
        let obs = if config.metrics {
            ObsRegistry::new()
        } else {
            ObsRegistry::disabled()
        };
        let metrics = LayerMetrics::new(&obs);
        Self {
            monitor,
            linker,
            rdf_generated: 0,
            rdf_skipped: 0,
            cep_template: None,
            cep_symbolizer: None,
            entity_stage: None,
            supervision: FxHashMap::default(),
            spill: SpillStore::new(config.spill_dir.clone()),
            spill_scratch: EntityCheckpoint::empty(),
            accepted_total: 0,
            panics_total: 0,
            restarts_total: 0,
            supervision_evictions: 0,
            watermark: Timestamp(i64::MIN),
            ingests_since_sweep: 0,
            cps_scratch: Vec::new(),
            lifter: SemanticNodeLifter::new(),
            batch: BatchBuffers::default(),
            pool: OutputPool::default(),
            obs,
            metrics,
            metric_ticks: 0,
            critical: Topic::new("critical-points"),
            area_events: Topic::new("area-events"),
            triples: Topic::new("triples"),
            links: Topic::new("links"),
            dead_letters: Topic::new("dead-letters"),
            entities: Slots::default(),
            config,
        }
    }

    /// Attaches a custom per-entity stage that runs first in the supervised
    /// section of the chain, once per accepted record. A panicking stage
    /// exercises supervision: the entity is restarted and, after
    /// [`SupervisionConfig::max_restarts`] restarts, quarantined.
    pub fn attach_entity_stage(&mut self, stage: impl Fn(&PositionReport) + Send + Sync + 'static) {
        self.entity_stage = Some(Arc::new(stage));
    }

    /// Attaches a CEP pattern engine: each entity gets its own clone of
    /// `engine`; `symbolizer` maps critical points to pattern symbols.
    pub fn attach_cep(
        &mut self,
        engine: Wayeb,
        symbolizer: impl Fn(&CriticalPoint) -> Option<u8> + Send + Sync + 'static,
    ) {
        self.cep_template = Some(engine);
        self.cep_symbolizer = Some(Arc::new(symbolizer));
    }

    /// The number of entities with state — resident plus spilled. See
    /// [`resident_entity_count`](Self::resident_entity_count) for the
    /// in-memory operator count alone.
    pub fn entity_count(&self) -> usize {
        self.entities.len() + self.spill.len()
    }

    /// Link-discovery statistics.
    pub fn linker_stats(&self) -> datacron_linkdisc::LinkStats {
        self.linker.stats()
    }

    /// Ingests one raw report through the whole chain, under supervision:
    /// cleaning rejections, quarantined entities and processing panics all
    /// surface as dead letters rather than lost records or a crashed layer.
    /// The same path as [`ingest_batch`](Self::ingest_batch) over one
    /// record.
    pub fn ingest(&mut self, report: PositionReport) -> IngestOutput {
        let out = self.ingest_one(report);
        self.flush_batch_buffers();
        out
    }

    /// Ingests a batch, returning the per-record outputs in order.
    ///
    /// Watermark, sweeps, quarantine, supervision and `catch_unwind` fire
    /// per record, exactly as in [`ingest`](Self::ingest); only the
    /// deferred publishes and counter bumps are flushed once, at the end
    /// (one lock per topic, one atomic add per counter). Outputs, topic
    /// contents, flush, health and count metrics do not depend on how the
    /// input is cut into calls; the `batch_equivalence` suite pins this
    /// under chaotic input, single-threaded and sharded.
    pub fn ingest_batch(&mut self, reports: impl IntoIterator<Item = PositionReport>) -> Vec<IngestOutput> {
        let outputs = reports.into_iter().map(|r| self.ingest_one(r)).collect();
        self.flush_batch_buffers();
        outputs
    }

    /// One record through the chain, its publishes and counter bumps left
    /// in [`BatchBuffers`] for the caller to flush.
    fn ingest_one(&mut self, report: PositionReport) -> IngestOutput {
        self.batch.n_records += 1;
        self.metric_ticks += 1;
        let timed = self.metrics.enabled && self.metric_ticks & STAGE_SAMPLE_MASK == 0;
        let t0 = timed.then(Instant::now);
        let out = self.ingest_inner(report, timed);
        self.maybe_spill();
        if let Some(t0) = t0 {
            self.metrics.ingest_ns.record(elapsed_ns(t0));
        }
        out
    }

    /// The ingest chain body; `timed` marks the records sampled into the
    /// `stage.*_ns` latency histograms.
    fn ingest_inner(&mut self, report: PositionReport, timed: bool) -> IngestOutput {
        // Event-time bookkeeping: watermark + periodic idle-supervision
        // sweep (bounds supervision memory over week-long replays).
        if report.ts > self.watermark {
            self.watermark = report.ts;
        }
        self.ingests_since_sweep += 1;
        if self.ingests_since_sweep >= self.config.supervision.sweep_interval {
            self.evict_idle_supervision();
        }

        // 0. Quarantine gate — a poisoned entity no longer reaches the
        // pipeline at all. An entity whose last incident fell more than the
        // idle horizon behind its own stream is forgiven first (lazy
        // eviction, deterministic per entity).
        if let Some(sup) = self.supervision.get(&report.entity) {
            let forgiven = !sup.quarantined
                && self
                    .config
                    .supervision
                    .idle_horizon_s
                    .is_some_and(|h| report.ts.delta_secs(&sup.last_incident) > h as f64);
            if forgiven {
                self.supervision.remove(&report.entity);
                self.supervision_evictions += 1;
            } else if sup.quarantined {
                return self.reject(report, RejectReason::Quarantined);
            }
        }

        // 0b. An entity without state claims a free slot, or a new one. A
        // spilled entity's next report restores its exact operator state
        // from the cold tier before anything touches the chain — the spill
        // is invisible to every downstream product. Any other entity cold-
        // starts, and so does one whose rehydration fails (cold-tier file
        // lost under us; the store counts it), like a restart.
        let (state, cold) = self.entities.claim(report.entity, || EntityState::new(&self.config));
        if cold {
            let t0 = (self.metrics.enabled && self.spill.contains(report.entity)).then(Instant::now);
            if self.spill.take_into(report.entity, &mut self.spill_scratch) {
                state.revive(&self.config, &self.cep_template, &self.spill_scratch);
            } else {
                state.reset(&self.config, &self.cep_template, report.ts);
            }
            if let Some(t0) = t0 {
                self.metrics.spill_rehydrate_ns.record(elapsed_ns(t0));
            }
        }
        state.last_seen = state.last_seen.max(report.ts);

        // 1. Online cleaning (per-entity, panic-free by construction).
        let t0 = timed.then(Instant::now);
        let outcome = state.cleaner.check(&report);
        if let Some(t0) = t0 {
            self.metrics.stage_clean_ns.record(elapsed_ns(t0));
        }
        if outcome != CleaningOutcome::Accepted {
            return self.reject(report, RejectReason::Cleaning(outcome));
        }

        // 2–8. The supervised section: any panic in per-entity processing
        // is caught, the entity state is discarded (restart) and the record
        // dead-lettered.
        match catch_unwind(AssertUnwindSafe(|| self.process_accepted(report, timed))) {
            Ok(mut out) => {
                out.accepted = true;
                self.accepted_total += 1;
                self.batch.n_accepted += 1;
                out
            }
            Err(_) => {
                self.panics_total += 1;
                self.batch.n_panics += 1;
                self.batch.n_restarts += 1;
                // Restart: free the (possibly inconsistent) entity state's
                // slot; the entity re-enters fresh on its next record.
                self.entities.free(report.entity);
                self.restarts_total += 1;
                let sup = self.supervision.entry(report.entity).or_default();
                sup.restarts += 1;
                sup.last_incident = report.ts;
                if sup.restarts > self.config.supervision.max_restarts {
                    sup.quarantined = true;
                }
                self.reject(report, RejectReason::ProcessingPanic)
            }
        }
    }

    /// Evicts every idle, non-quarantined supervision record whose last
    /// incident fell more than the configured horizon behind the layer's
    /// event-time watermark; their restart history is forgiven. Returns how
    /// many records were evicted. Called automatically every
    /// [`SupervisionConfig::sweep_interval`] ingests; callable explicitly
    /// from long replays.
    pub fn evict_idle_supervision(&mut self) -> usize {
        self.ingests_since_sweep = 0;
        let Some(horizon) = self.config.supervision.idle_horizon_s else {
            return 0;
        };
        let watermark = self.watermark;
        let before = self.supervision.len();
        self.supervision
            .retain(|_, s| s.quarantined || watermark.delta_secs(&s.last_incident) <= horizon as f64);
        let evicted = before - self.supervision.len();
        self.supervision_evictions += evicted as u64;
        evicted
    }

    /// Idle supervision records evicted so far (restart histories
    /// forgiven).
    pub fn supervision_evictions(&self) -> u64 {
        self.supervision_evictions
    }

    /// Evicts the idlest resident entities into the cold tier whenever
    /// residency exceeds [`DatacronConfig::max_resident_entities`]. Runs
    /// after every ingested record (accepted *or* rejected — cleaning
    /// rejections still materialize entity state). Ranking is by
    /// `(last_seen event time, entity id)` — deterministic for a given
    /// input stream — and eviction overshoots to `budget - budget/8`
    /// (hysteresis) so a fleet cycling just above budget doesn't pay a
    /// full ranking scan per record.
    fn maybe_spill(&mut self) {
        let Some(budget) = self.config.max_resident_entities else {
            return;
        };
        if self.entities.len() <= budget {
            return;
        }
        let trig0 = self.metrics.enabled.then(Instant::now);
        let target = budget - budget / 8;
        let n_evict = self.entities.len() - target;
        let mut ranked: Vec<(Timestamp, EntityId)> =
            self.entities.iter().map(|(id, s)| (s.last_seen, id)).collect();
        if n_evict < ranked.len() {
            ranked.select_nth_unstable(n_evict - 1);
        }
        for &(_, id) in ranked.iter().take(n_evict) {
            let t0 = self.metrics.enabled.then(Instant::now);
            if let Some(state) = self.entities.get(id) {
                snapshot_into(&mut self.spill_scratch, id, state);
                self.spill.spill(&self.spill_scratch);
                self.entities.free(id);
            }
            if let Some(t0) = t0 {
                self.metrics.spill_evict_ns.record(elapsed_ns(t0));
            }
        }
        if let Some(trig0) = trig0 {
            self.metrics.spill_trigger_ns.record(elapsed_ns(trig0));
        }
    }

    /// Cold-tier counters: evictions, rehydrations, current spill
    /// occupancy and bytes, disk-tier errors. All zero when no resident
    /// budget is configured.
    pub fn spill_stats(&self) -> SpillStats {
        self.spill.stats()
    }

    /// Entities currently resident (live operator state in memory). Never
    /// exceeds [`DatacronConfig::max_resident_entities`] between ingests
    /// when a budget is configured.
    pub fn resident_entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Entities currently parked in the cold tier, sorted. Quarantined
    /// entities are never here: quarantine follows a supervised panic,
    /// which drops the entity's state outright — there is nothing left to
    /// spill.
    pub fn spilled_entities(&self) -> Vec<EntityId> {
        let mut v = self.spill.ids();
        v.sort();
        v
    }

    /// Dead-letters a record and returns the rejection output.
    fn reject(&mut self, report: PositionReport, reason: RejectReason) -> IngestOutput {
        let b = &mut self.batch;
        b.n_dead_lettered += 1;
        match reason {
            RejectReason::Cleaning(_) => b.n_rejected_cleaning += 1,
            RejectReason::Quarantined => b.n_rejected_quarantined += 1,
            RejectReason::ProcessingPanic => b.n_rejected_panic += 1,
        }
        b.dead_letters.push(DeadLetter { report, reason });
        IngestOutput {
            rejected: Some(reason),
            ..IngestOutput::default()
        }
    }

    /// Steps 2–7 of the chain for an already-accepted record. Runs inside
    /// `catch_unwind`; appends each product to its topic's buffer as it is
    /// produced, so topic contents remain an in-order prefix-consistent
    /// view.
    fn process_accepted(&mut self, report: PositionReport, timed: bool) -> IngestOutput {
        let mut out = self.pool.checkout();
        let state = self
            .entities
            .get_mut(report.entity)
            .expect("entity state exists for an accepted record");

        // Custom supervised stage (fault-injection hook).
        if let Some(stage) = &self.entity_stage {
            stage(&report);
        }

        // 2. FLP history window: pop before push, so the ring holds
        // exactly `flp_window` reports and never reallocates once full.
        let window = self.config.flp_window;
        if window > 0 {
            while state.history.len() >= window {
                state.history.pop_front();
            }
            state.history.reserve_exact(window - state.history.len());
            state.history.push_back(report);
        }

        // 3. Low-level area events, appended into the (pooled) output
        // buffer — the monitor allocates nothing per record.
        self.monitor.observe_into(&report, &mut out.area_events);
        if !out.area_events.is_empty() {
            self.batch.area_events.extend_from_slice(&out.area_events);
            self.batch.n_area_events += out.area_events.len() as u64;
        }

        // 4. Synopses, into the reused scratch buffer (no per-record
        // allocation in the common no-critical-point case).
        let mut cps = std::mem::take(&mut self.cps_scratch);
        cps.clear();
        let t0 = timed.then(Instant::now);
        state.synopses.process(report, &mut cps);
        if let Some(t0) = t0 {
            self.metrics.stage_synopses_ns.record(elapsed_ns(t0));
        }
        // Per-record accumulators for the sampled downstream-stage timings
        // (the stages interleave per critical point; one histogram sample
        // per record keeps the distributions per-record comparable).
        let (mut rdf_ns, mut link_ns, mut cep_ns) = (0u64, 0u64, 0u64);
        for cp in &cps {
            self.batch.critical.push(*cp);
            // 5. RDF generation per critical point: lift straight into the
            // output buffer and defer a copy for the topic (it must own
            // its copy).
            let t0 = timed.then(Instant::now);
            let triples_start = out.triples.len();
            self.rdf_generated += self.lifter.lift_into(cp, &mut out.triples) as u64;
            self.batch.triples.extend_from_slice(&out.triples[triples_start..]);
            if let Some(t0) = t0 {
                rdf_ns += elapsed_ns(t0);
            }
            // 6. Link discovery on the critical point, same single-buffer
            // pattern.
            let t0 = timed.then(Instant::now);
            let links_start = out.links.len();
            out.links
                .extend(self.linker.link_point(cp.report.entity, cp.report.ts, &cp.report.point));
            self.batch.links.extend_from_slice(&out.links[links_start..]);
            if let Some(t0) = t0 {
                link_ns += elapsed_ns(t0);
            }
            // 7. CEP.
            let t0 = timed.then(Instant::now);
            if let (Some(engine), Some(symbolizer)) = (&mut state.cep, &self.cep_symbolizer) {
                if let Some(sym) = symbolizer(cp) {
                    let step = engine.process(sym);
                    if step.detected {
                        out.cep_detections += 1;
                    }
                }
            }
            if let Some(t0) = t0 {
                cep_ns += elapsed_ns(t0);
            }
        }
        if timed && !cps.is_empty() {
            self.metrics.stage_rdf_ns.record(rdf_ns);
            self.metrics.stage_link_ns.record(link_ns);
            self.metrics.stage_cep_ns.record(cep_ns);
        }
        let b = &mut self.batch;
        b.n_critical_points += cps.len() as u64;
        b.n_triples += out.triples.len() as u64;
        b.n_links += out.links.len() as u64;
        b.n_cep_matches += out.cep_detections as u64;
        out.critical_points.extend_from_slice(&cps);
        self.cps_scratch = cps;
        out
    }

    /// A point-in-time health report: per-entity supervision status,
    /// layer-wide counters and output-topic health.
    pub fn health(&self) -> HealthReport {
        let mut degraded: Vec<EntityHealth> = self
            .supervision
            .iter()
            .filter(|(_, s)| s.restarts > 0 || s.quarantined)
            .map(|(entity, s)| EntityHealth {
                entity: *entity,
                status: if s.quarantined {
                    ComponentStatus::Quarantined
                } else {
                    ComponentStatus::Degraded
                },
                restarts: s.restarts,
            })
            .collect();
        degraded.sort_by_key(|e| e.entity);
        let quarantined_entities = degraded
            .iter()
            .filter(|e| e.status == ComponentStatus::Quarantined)
            .count() as u64;
        let mut topics = vec![
            self.critical.health(),
            self.area_events.health(),
            self.triples.health(),
            self.links.health(),
            self.dead_letters.health(),
        ];
        topics.sort_by(|a, b| a.name.cmp(&b.name));
        let status = if quarantined_entities > 0 {
            // The layer keeps running, but with entities out of service.
            ComponentStatus::Degraded
        } else if !degraded.is_empty() || topics.iter().any(|t| !t.is_lossless()) {
            ComponentStatus::Degraded
        } else {
            ComponentStatus::Ok
        };
        HealthReport {
            status,
            accepted: self.accepted_total,
            rejected: self.dead_letters.len(),
            panics: self.panics_total,
            restarts: self.restarts_total,
            quarantined_entities,
            degraded,
            topics,
            durability: None,
            net: None,
            kg: None,
        }
    }

    /// The layer's configuration.
    pub fn config(&self) -> &DatacronConfig {
        &self.config
    }

    /// The layer's instrument registry — the place for adjacent subsystems
    /// (durability, custom stages) to register their own instruments so
    /// one snapshot covers the whole system. Disabled (all instruments
    /// detached no-ops) when [`DatacronConfig::metrics`] is off.
    pub fn obs(&self) -> &ObsRegistry {
        &self.obs
    }

    /// A deterministic point-in-time metrics snapshot: every registry
    /// instrument, plus per-topic counters folded in as `topic.<name>.*`
    /// series and per-topic retention as `topic.<name>.retained` gauges.
    ///
    /// Count-typed series depend only on the input stream — never on
    /// thread interleaving or wall-clock — so merging a sharded run's
    /// per-shard snapshots reproduces a single-threaded run's counters
    /// bit-for-bit ([`MetricsSnapshot::counters_only`]). Gauges and
    /// histograms carry occupancies and timings and are excluded from that
    /// contract. Empty when metrics are disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.snapshot();
        if self.obs.is_enabled() {
            for health in [
                self.critical.health(),
                self.area_events.health(),
                self.triples.health(),
                self.links.health(),
                self.dead_letters.health(),
            ] {
                let n = &health.name;
                snap.add_counter(&format!("topic.{n}.published"), health.stats.published);
                snap.add_counter(&format!("topic.{n}.rejected"), health.stats.rejected);
                snap.add_counter(&format!("topic.{n}.dropped"), health.stats.dropped);
                snap.add_counter(&format!("topic.{n}.reclaimed"), health.stats.reclaimed);
                snap.add_counter(&format!("topic.{n}.blocked"), health.stats.blocked);
                snap.add_counter(&format!("topic.{n}.consumed"), health.stats.consumed);
                snap.add_counter(&format!("topic.{n}.lag_signals"), health.stats.lag_signals);
                snap.set_gauge(&format!("topic.{n}.retained"), health.retained as i64);
            }
            // Cold-tier occupancy and round-trip totals. Gauges, not
            // counters: eviction/rehydration cadence depends on the
            // resident budget, which the count-metric determinism contract
            // (budgeted ≡ unbounded, sharded ≡ single) must not see.
            let spill = self.spill.stats();
            snap.set_gauge("spill.resident", self.entities.len() as i64);
            snap.set_gauge("spill.spilled", spill.spilled as i64);
            snap.set_gauge("spill.evictions", spill.evictions as i64);
            snap.set_gauge("spill.rehydrations", spill.rehydrations as i64);
            snap.set_gauge("spill.spilled_bytes", spill.spilled_bytes as i64);
            snap.set_gauge("spill.disk_errors", spill.disk_errors as i64);
        }
        snap
    }

    /// Publishes everything the current call deferred: one
    /// `publish_batch` per non-empty topic buffer, one atomic add per
    /// touched counter. Buffer allocations are retained for the next call.
    fn flush_batch_buffers(&mut self) {
        let b = &mut self.batch;
        publish_deferred(&self.critical, &mut b.critical);
        publish_deferred(&self.area_events, &mut b.area_events);
        publish_deferred(&self.triples, &mut b.triples);
        publish_deferred(&self.links, &mut b.links);
        publish_deferred(&self.dead_letters, &mut b.dead_letters);
        let m = &self.metrics;
        drain_counter(&m.records, &mut b.n_records);
        drain_counter(&m.accepted, &mut b.n_accepted);
        drain_counter(&m.dead_lettered, &mut b.n_dead_lettered);
        drain_counter(&m.rejected_cleaning, &mut b.n_rejected_cleaning);
        drain_counter(&m.rejected_quarantined, &mut b.n_rejected_quarantined);
        drain_counter(&m.rejected_panic, &mut b.n_rejected_panic);
        drain_counter(&m.panics, &mut b.n_panics);
        drain_counter(&m.restarts, &mut b.n_restarts);
        drain_counter(&m.area_events, &mut b.n_area_events);
        drain_counter(&m.critical_points, &mut b.n_critical_points);
        drain_counter(&m.triples, &mut b.n_triples);
        drain_counter(&m.links, &mut b.n_links);
        drain_counter(&m.cep_matches, &mut b.n_cep_matches);
    }

    /// Hands an output's buffers back to the layer for reuse: its vectors
    /// are cleared and recycled into later [`IngestOutput`]s instead of
    /// reallocated. Purely an allocation optimisation for drains that are
    /// done with an output (e.g. the throughput bench); skipping it is
    /// always correct.
    pub fn recycle(&mut self, output: IngestOutput) {
        self.pool.put(output);
    }

    /// Flushes end-of-stream synopses (emits trailing `End` points and their
    /// downstream products). Entities are flushed in sorted id order, so
    /// the emitted stream is deterministic — and a sharded run's per-shard
    /// flushes, merged by entity, reproduce it exactly.
    pub fn flush(&mut self) -> Vec<CriticalPoint> {
        let mut ids: Vec<EntityId> = self.entities.ids().collect();
        ids.extend(self.spill.ids());
        ids.sort();
        let mut all = Vec::new();
        let mut cps = Vec::new();
        for id in ids {
            // Spilled entities round-trip through the cold tier one at a
            // time — residency never exceeds budget + 1 during a flush, and
            // the post-flush state goes back to the tier so records
            // arriving after the flush see exactly what a fully-resident
            // run would.
            let revived = !self.entities.contains(id) && self.spill.take_into(id, &mut self.spill_scratch);
            if revived {
                let (state, _) = self.entities.claim(id, || EntityState::new(&self.config));
                state.revive(&self.config, &self.cep_template, &self.spill_scratch);
            }
            let Some(state) = self.entities.get_mut(id) else {
                continue;
            };
            cps.clear();
            state.synopses.flush(&mut cps);
            if revived {
                snapshot_into(&mut self.spill_scratch, id, state);
                self.spill.spill(&self.spill_scratch);
                self.entities.free(id);
            }
            for cp in &cps {
                let n = self.lifter.lift_into(cp, &mut self.batch.triples) as u64;
                self.rdf_generated += n;
                self.batch.n_triples += n;
            }
            self.batch.critical.extend_from_slice(&cps);
            self.batch.n_critical_points += cps.len() as u64;
            // Per entity, so a fleet's flush never buffers all its triples.
            self.flush_batch_buffers();
            all.extend_from_slice(&cps);
        }
        all
    }

    /// Predicts the future location of an entity `k` steps of
    /// `step_seconds` ahead with RMF\*, from its recent cleaned history.
    /// `None` when the entity is unknown or has no history.
    pub fn predict_location(&self, entity: EntityId, k: usize, step_seconds: f64) -> Option<Vec<GeoPoint>> {
        let reports: Vec<PositionReport> = match self.entities.get(entity) {
            Some(state) => state.history.iter().copied().collect(),
            // A spilled entity's history answers queries without
            // rehydrating (peek decodes a copy; residency is untouched).
            None => self.spill.peek(entity)?.history,
        };
        if reports.is_empty() {
            return None;
        }
        let trajectory = datacron_geo::Trajectory::from_reports(reports);
        let (frame, pts) = trajectory.to_local();
        let frame = frame?;
        let last_t = pts.last()?.2;
        let futures: Vec<f64> = (1..=k).map(|i| last_t + step_seconds * i as f64).collect();
        let preds = RmfStarPredictor::default().predict(&pts, &futures);
        Some(preds.into_iter().map(|(x, y)| frame.unproject(x, y)).collect())
    }

    /// The last accepted report of an entity, resident or spilled.
    pub fn last_position(&self, entity: EntityId) -> Option<PositionReport> {
        match self.entities.get(entity) {
            Some(state) => state.history.back().copied(),
            None => self.spill.peek(entity)?.history.last().copied(),
        }
    }

    /// All entities with state, resident and spilled, sorted.
    pub fn entities(&self) -> Vec<EntityId> {
        let mut v: Vec<EntityId> = self.entities.ids().collect();
        v.extend(self.spill.ids());
        v.sort();
        v
    }

    /// Captures the layer's complete durable state: per-entity operator
    /// snapshots, supervision records, layer counters, area-monitor
    /// residency, linker/RDF counters and all five output topics (offsets,
    /// counters and the messages some consumer has not read yet — empty
    /// for a topic nobody subscribes to). Entities are sorted, so two
    /// identical runs produce byte-identical encodings.
    ///
    /// Deliberately excluded: the RDF lifter's interned symbols
    /// (process-local handles, rebuilt on first use).
    pub fn checkpoint_state(&self) -> LayerState {
        let mut entities: Vec<EntityCheckpoint> =
            self.entities.iter().map(|(entity, s)| snapshot_entity(entity, s)).collect();
        // Spilled entities decode back into the checkpoint, so the durable
        // state — and therefore recovery, re-sharding and their encodings —
        // is identical whether or not a resident budget was configured.
        for id in self.spill.ids() {
            if let Some(ckpt) = self.spill.peek(id) {
                entities.push(ckpt);
            }
        }
        entities.sort_by_key(|e| e.entity);
        let mut supervision: Vec<SupervisionCheckpoint> = self
            .supervision
            .iter()
            .map(|(entity, s)| SupervisionCheckpoint {
                entity: *entity,
                restarts: s.restarts,
                quarantined: s.quarantined,
                last_incident: s.last_incident,
            })
            .collect();
        supervision.sort_by_key(|s| s.entity);
        LayerState {
            entities,
            supervision,
            accepted_total: self.accepted_total,
            panics_total: self.panics_total,
            restarts_total: self.restarts_total,
            supervision_evictions: self.supervision_evictions,
            watermark: self.watermark,
            ingests_since_sweep: self.ingests_since_sweep,
            monitor_inside: self.monitor.inside_state(),
            linker_stats: self.linker.stats(),
            rdf_generated: self.rdf_generated,
            rdf_skipped: self.rdf_skipped,
            critical: topic_checkpoint(&self.critical),
            area_events: topic_checkpoint(&self.area_events),
            triples: topic_checkpoint(&self.triples),
            links: topic_checkpoint(&self.links),
            dead_letters: topic_checkpoint(&self.dead_letters),
        }
    }

    /// Restores the layer to a state captured by
    /// [`checkpoint_state`](Self::checkpoint_state). Structural
    /// configuration (regions, ports, CEP pattern, attached stages) is NOT
    /// part of the state — the caller must have built this layer with the
    /// same configuration and attachments as the one that checkpointed.
    ///
    /// A configured resident budget holds throughout: each restored entity
    /// comes in resident and the eviction an ingest runs follows it, so a
    /// restore never holds more than budget + 1 entity states.
    pub fn restore_state(&mut self, state: LayerState) {
        self.entities.clear();
        // Stale cold-tier blobs (from before the restore) must never
        // resurrect.
        self.spill.clear();
        for e in &state.entities {
            let (slot, _) = self.entities.claim(e.entity, || EntityState::new(&self.config));
            slot.revive(&self.config, &self.cep_template, e);
            self.maybe_spill();
        }
        self.supervision.clear();
        for s in state.supervision {
            self.supervision.insert(
                s.entity,
                Supervision {
                    restarts: s.restarts,
                    quarantined: s.quarantined,
                    last_incident: s.last_incident,
                },
            );
        }
        self.accepted_total = state.accepted_total;
        self.panics_total = state.panics_total;
        self.restarts_total = state.restarts_total;
        self.supervision_evictions = state.supervision_evictions;
        self.watermark = state.watermark;
        self.ingests_since_sweep = state.ingests_since_sweep;
        self.monitor.restore_inside_state(state.monitor_inside);
        self.linker.restore_stats(state.linker_stats);
        self.rdf_generated = state.rdf_generated;
        self.rdf_skipped = state.rdf_skipped;
        restore_topic(&self.critical, state.critical);
        restore_topic(&self.area_events, state.area_events);
        restore_topic(&self.triples, state.triples);
        restore_topic(&self.links, state.links);
        restore_topic(&self.dead_letters, state.dead_letters);
    }
}

fn snapshot_entity(entity: EntityId, s: &EntityState) -> EntityCheckpoint {
    let mut out = EntityCheckpoint::empty();
    snapshot_into(&mut out, entity, s);
    out
}

/// [`snapshot_entity`] into an existing checkpoint, reusing its history
/// and window allocations (the eviction hot path snapshots through one
/// recycled scratch value).
fn snapshot_into(out: &mut EntityCheckpoint, entity: EntityId, s: &EntityState) {
    out.entity = entity;
    out.cleaner = s.cleaner.state();
    s.synopses.state_into(&mut out.synopses);
    out.history.clear();
    out.history.extend(s.history.iter().copied());
    out.cep = s.cep.as_ref().map(Wayeb::online_state);
}

fn topic_checkpoint<T: Clone>(topic: &Topic<T>) -> TopicCheckpoint<T> {
    let (base, stats, retained) = topic.durable_state();
    TopicCheckpoint { base, stats, retained }
}

fn restore_topic<T: Clone>(topic: &Topic<T>, ckpt: TopicCheckpoint<T>) {
    topic.restore_state(ckpt.base, ckpt.stats, ckpt.retained);
}

impl EntityCheckpoint {
    /// A placeholder checkpoint (scratch target for
    /// [`decode_into`](Self::decode_into) / [`snapshot_into`]).
    pub(crate) fn empty() -> Self {
        Self {
            entity: EntityId {
                kind: MovingKind::Vessel,
                id: 0,
            },
            cleaner: CleanerState::default(),
            synopses: SynopsesState::default(),
            history: Vec::new(),
            cep: None,
        }
    }
}

/// Durable snapshot of one entity's streaming state (one element of a
/// [`LayerState`]).
#[derive(Debug, Clone)]
pub struct EntityCheckpoint {
    /// The entity.
    pub entity: EntityId,
    /// Online-cleaner state.
    pub cleaner: CleanerState,
    /// Synopses-generator state.
    pub synopses: SynopsesState,
    /// FLP history window, oldest first.
    pub history: Vec<PositionReport>,
    /// CEP engine run-state, when a pattern is attached.
    pub cep: Option<WayebState>,
}

/// Durable snapshot of one entity's supervision record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionCheckpoint {
    /// The entity.
    pub entity: EntityId,
    /// Restarts performed for it.
    pub restarts: u32,
    /// Whether it is quarantined.
    pub quarantined: bool,
    /// Event time of its last incident.
    pub last_incident: Timestamp,
}

/// The complete durable state of a [`RealTimeLayer`], captured by
/// [`RealTimeLayer::checkpoint_state`] and applied by
/// [`RealTimeLayer::restore_state`]. Encodable via the
/// `datacron-durability` codec (impl in [`crate::durable`]).
#[derive(Debug, Clone)]
pub struct LayerState {
    /// Per-entity operator snapshots, sorted by entity.
    pub entities: Vec<EntityCheckpoint>,
    /// Supervision records, sorted by entity.
    pub supervision: Vec<SupervisionCheckpoint>,
    /// Records fully processed.
    pub accepted_total: u64,
    /// Panics caught.
    pub panics_total: u64,
    /// Restarts performed.
    pub restarts_total: u64,
    /// Idle supervision records evicted.
    pub supervision_evictions: u64,
    /// Event-time watermark.
    pub watermark: Timestamp,
    /// Ingests since the last idle sweep.
    pub ingests_since_sweep: u64,
    /// Area-monitor residency: `(entity, sorted area ids)`, sorted.
    pub monitor_inside: Vec<(EntityId, Vec<u64>)>,
    /// Link-discovery counters.
    pub linker_stats: LinkStats,
    /// RDF triples generated.
    pub rdf_generated: u64,
    /// RDF patterns skipped.
    pub rdf_skipped: u64,
    /// The `critical-points` topic.
    pub critical: TopicCheckpoint<CriticalPoint>,
    /// The `area-events` topic.
    pub area_events: TopicCheckpoint<AreaEvent>,
    /// The `triples` topic.
    pub triples: TopicCheckpoint<Triple>,
    /// The `links` topic.
    pub links: TopicCheckpoint<Link>,
    /// The `dead-letters` topic.
    pub dead_letters: TopicCheckpoint<DeadLetter>,
}

/// The standard maritime CEP symbol alphabet used by the examples and
/// experiments: turn events classified by resulting heading.
pub mod symbols {
    use super::*;

    /// Northward turn.
    pub const NORTH: u8 = 0;
    /// Eastward turn.
    pub const EAST: u8 = 1;
    /// Southward turn.
    pub const SOUTH: u8 = 2;
    /// Any other turn.
    pub const OTHER: u8 = 3;
    /// Alphabet size.
    pub const ALPHABET: usize = 4;

    /// Maps change-in-heading critical points to the heading-sector
    /// alphabet; other critical points are not CEP events.
    pub fn heading_symbolizer(cp: &CriticalPoint) -> Option<u8> {
        match cp.kind {
            CriticalKind::ChangeInHeading { .. } => {
                let h = cp.report.heading_deg;
                Some(if !(45.0..315.0).contains(&h) {
                    NORTH
                } else if h < 135.0 {
                    EAST
                } else if h < 225.0 {
                    SOUTH
                } else {
                    OTHER
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{BoundingBox, Timestamp};
    use datacron_stream::fusion::{CrossStreamFusion, FusionConfig};

    fn layer() -> RealTimeLayer {
        let extent = BoundingBox::new(0.0, 38.0, 3.0, 42.0);
        // The test track heads ~8 km east from (0, 40): the region straddles
        // that leg so it gets entered and exited.
        let regions = vec![(
            7u64,
            Polygon::rect(BoundingBox::new(0.03, 39.95, 0.07, 40.05)),
        )];
        let ports = vec![(3u64, GeoPoint::new(0.0, 40.0))];
        RealTimeLayer::new(DatacronConfig::maritime(extent), regions, ports)
    }

    fn rep(t_s: i64, lon: f64, lat: f64, speed: f64, heading: f64) -> PositionReport {
        PositionReport {
            speed_mps: speed,
            heading_deg: heading,
            ..PositionReport::basic(EntityId::vessel(1), Timestamp::from_secs(t_s), GeoPoint::new(lon, lat))
        }
    }

    #[test]
    fn chain_produces_all_products() {
        let mut l = layer();
        // Eastbound track crossing the region with a big turn inside it.
        let mut outs = Vec::new();
        let mut p = GeoPoint::new(0.0, 40.0);
        for i in 0..200i64 {
            let heading = if i < 100 { 90.0 } else { 0.0 };
            outs.push(l.ingest(rep(i * 10, p.lon, p.lat, 8.0, heading)));
            p = p.destination(heading, 80.0);
        }
        let total_cp: usize = outs.iter().map(|o| o.critical_points.len()).sum();
        assert!(total_cp >= 2, "start + turn expected, got {total_cp}");
        assert!(l.critical.len() >= 2);
        assert!(l.triples.len() >= 10, "each critical point lifts to ~10 triples");
        let area_entries: usize = outs.iter().map(|o| o.area_events.len()).sum();
        assert!(area_entries >= 1, "the region was crossed");
        // The first point sits on the port: a nearTo link must exist.
        assert!(!l.links.is_empty(), "port proximity link");
        assert_eq!(l.entity_count(), 1);
    }

    #[test]
    fn rejected_records_produce_nothing() {
        let mut l = layer();
        let mut bad = rep(0, 0.5, 40.0, 8.0, 90.0);
        bad.speed_mps = 400.0;
        let out = l.ingest(bad);
        assert!(!out.accepted);
        assert!(out.critical_points.is_empty());
        assert_eq!(l.health().accepted, 0);
    }

    #[test]
    fn flush_emits_end_points() {
        let mut l = layer();
        let mut p = GeoPoint::new(1.0, 40.0);
        for i in 0..10i64 {
            l.ingest(rep(i * 10, p.lon, p.lat, 8.0, 90.0));
            p = p.destination(90.0, 80.0);
        }
        let ends = l.flush();
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].kind.label(), "end");
    }

    #[test]
    fn predict_location_extrapolates() {
        let mut l = layer();
        let mut p = GeoPoint::new(1.0, 40.0);
        for i in 0..20i64 {
            l.ingest(rep(i * 10, p.lon, p.lat, 8.0, 90.0));
            p = p.destination(90.0, 80.0);
        }
        let preds = l.predict_location(EntityId::vessel(1), 3, 10.0).expect("known entity");
        assert_eq!(preds.len(), 3);
        // ~80 m east per step from the last position.
        let last = l.last_position(EntityId::vessel(1)).unwrap().point;
        let d1 = last.haversine_distance(&preds[0]);
        assert!((d1 - 80.0).abs() < 10.0, "step distance {d1}");
        assert!(l.predict_location(EntityId::vessel(99), 3, 10.0).is_none());
    }

    #[test]
    fn cep_attachment_detects_reversals() {
        let mut l = cep_layer();
        // Drive a track that turns north, then east, then south.
        let mut outs = Vec::new();
        let mut p = GeoPoint::new(1.0, 40.0);
        let phases: [(i64, f64); 4] = [(40, 90.0), (40, 0.0), (40, 80.0), (40, 170.0)];
        let mut t = 0i64;
        for (steps, heading) in phases {
            for _ in 0..steps {
                outs.push(l.ingest(rep(t * 10, p.lon, p.lat, 8.0, heading)));
                p = p.destination(heading, 80.0);
                t += 1;
            }
        }
        let detections: usize = outs.iter().map(|o| o.cep_detections).sum();
        assert!(detections >= 1, "north→east→south reversal should be detected");
    }

    #[test]
    fn fused_multi_source_ingestion() {
        // The caller composes fusion in front of the layer: what
        // `CrossStreamFusion::push` releases goes to `ingest_batch`.
        let mut l = layer();
        let mut fusion = CrossStreamFusion::new(FusionConfig::default(), [(0u8, 0u8), (1, 1)]);
        let mut p = GeoPoint::new(1.0, 40.0);
        let mut outs = Vec::new();
        for i in 0..40i64 {
            outs.extend(l.ingest_batch(fusion.push(0, rep(i * 10, p.lon, p.lat, 8.0, 90.0))));
            if i % 4 == 0 {
                // Satellite echo of the same observation, slightly offset.
                let echo = rep(i * 10 + 1, p.lon + 0.0001, p.lat, 8.0, 90.0);
                outs.extend(l.ingest_batch(fusion.push(1, echo)));
            }
            p = p.destination(90.0, 80.0);
        }
        outs.extend(l.ingest_batch(fusion.flush()));
        let stats = fusion.stats();
        assert_eq!(stats.ingested, 50);
        assert_eq!(stats.duplicates, 10, "satellite echoes deduplicated");
        // The pipeline saw exactly the fused stream.
        assert_eq!(outs.len() as u64, stats.emitted);
        assert_eq!(outs.iter().filter(|o| o.accepted).count() as u64, stats.emitted);
    }

    #[test]
    fn idle_supervision_is_forgiven_after_horizon() {
        let mut l = layer();
        l.config.supervision.max_restarts = 2;
        l.config.supervision.idle_horizon_s = Some(3600);
        // Panic exactly once, at t=0.
        l.attach_entity_stage(|r| {
            if r.ts == Timestamp::from_secs(0) {
                panic!("injected");
            }
        });
        let mut p = GeoPoint::new(1.0, 40.0);
        assert!(!l.ingest(rep(0, p.lon, p.lat, 8.0, 90.0)).accepted);
        assert_eq!(l.health().restarts, 1);
        assert_eq!(l.health().degraded.len(), 1, "restart history retained");
        // Well within the horizon: history stays.
        l.ingest(rep(600, p.lon, p.lat, 8.0, 90.0));
        assert_eq!(l.health().degraded.len(), 1);
        // The entity's next record arrives past the horizon: forgiven.
        p = p.destination(90.0, 80.0);
        l.ingest(rep(4000, p.lon, p.lat, 8.0, 90.0));
        assert!(l.health().degraded.is_empty(), "idle history evicted");
        assert_eq!(l.supervision_evictions(), 1);
    }

    #[test]
    fn quarantined_entities_are_never_evicted() {
        let mut l = layer();
        l.config.supervision.max_restarts = 0;
        l.config.supervision.idle_horizon_s = Some(10);
        l.attach_entity_stage(|r| {
            if r.ts == Timestamp::from_secs(0) {
                panic!("injected");
            }
        });
        let p = GeoPoint::new(1.0, 40.0);
        l.ingest(rep(0, p.lon, p.lat, 8.0, 90.0));
        assert_eq!(l.health().quarantined_entities, 1);
        // Far past the horizon, and through an explicit sweep: quarantine
        // holds (the gate, not the pipeline, rejects the record).
        let out = l.ingest(rep(10_000, p.lon, p.lat, 8.0, 90.0));
        assert_eq!(out.rejected, Some(RejectReason::Quarantined));
        l.evict_idle_supervision();
        assert_eq!(l.health().quarantined_entities, 1);
    }

    #[test]
    fn sweep_reclaims_transient_entities() {
        let mut l = layer();
        l.config.supervision.max_restarts = 5;
        l.config.supervision.idle_horizon_s = Some(60);
        // Every entity panics on its first record (ts == 0) and never
        // reports again; a later long-lived entity advances the watermark.
        l.attach_entity_stage(|r| {
            if r.entity.id < 50 && r.ts == Timestamp::from_secs(0) {
                panic!("injected");
            }
        });
        for e in 0..50u64 {
            let mut r = rep(0, 1.0 + 0.01 * e as f64, 40.0, 8.0, 90.0);
            r.entity = EntityId::vessel(e);
            l.ingest(r);
        }
        assert_eq!(l.health().degraded.len(), 50);
        let mut r = rep(3600, 2.0, 41.0, 8.0, 90.0);
        r.entity = EntityId::vessel(999);
        l.ingest(r);
        assert_eq!(l.evict_idle_supervision(), 50, "transient histories reclaimed");
        assert!(l.health().degraded.is_empty());
    }

    #[test]
    fn resident_budget_spills_idle_entities_and_rehydrates_transparently() {
        let mut bounded = layer();
        bounded.config.max_resident_entities = Some(2);
        let mut unbounded = layer();
        // Six entities reporting round-robin: under a budget of 2 every
        // report but the first per round rehydrates a spilled entity.
        let drive = |l: &mut RealTimeLayer| {
            let mut outs = Vec::new();
            for round in 0..30i64 {
                for e in 0..6u64 {
                    let mut r = rep(
                        round * 60 + e as i64,
                        1.0 + 0.001 * (round as f64) ,
                        40.0 + 0.1 * e as f64,
                        8.0,
                        if round < 15 { 90.0 } else { 0.0 },
                    );
                    r.entity = EntityId::vessel(e);
                    outs.push(l.ingest(r));
                }
            }
            outs.extend(l.flush().into_iter().map(|cp| IngestOutput {
                critical_points: vec![cp],
                ..IngestOutput::default()
            }));
            outs
        };
        let a = drive(&mut bounded);
        let b = drive(&mut unbounded);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "outputs are bit-identical");
        assert!(bounded.resident_entity_count() <= 3, "budget held (flush round-trip ≤ budget + 1)");
        assert_eq!(bounded.entity_count(), 6, "all entities logically alive");
        assert_eq!(bounded.entities(), unbounded.entities());
        let stats = bounded.spill_stats();
        assert!(stats.evictions > 0 && stats.rehydrations > 0, "the tier was exercised: {stats:?}");
        assert_eq!(stats.disk_errors, 0);
        // Read-side queries see through the tier.
        for e in 0..6u64 {
            assert_eq!(
                bounded.last_position(EntityId::vessel(e)).map(|r| r.ts),
                unbounded.last_position(EntityId::vessel(e)).map(|r| r.ts),
            );
        }
        // The durable state is identical with and without a budget.
        let ca = bounded.checkpoint_state();
        let cb = unbounded.checkpoint_state();
        assert_eq!(format!("{:?}", ca.entities), format!("{:?}", cb.entities));
    }

    #[test]
    fn restore_holds_the_resident_budget() {
        // 500 entities on a lattice east of the region, one record per
        // round; the turn north from round 3 on gives the rounds after the
        // restore critical points of their own.
        let round = |k: i64| -> Vec<PositionReport> {
            (0..500u64)
                .map(|e| {
                    let heading = if k < 3 { 90.0 } else { 0.0 };
                    let lon = 1.0 + 0.01 * (e % 25) as f64 + 0.0005 * k as f64;
                    let lat = 40.0 + 0.01 * (e / 25) as f64 + if k < 3 { 0.0 } else { 0.0005 * (k - 2) as f64 };
                    let mut r = rep(k * 60 + (e % 60) as i64, lon, lat, 8.0, heading);
                    r.entity = EntityId::vessel(e);
                    r
                })
                .collect()
        };
        let mut source = layer();
        for k in 0..3 {
            source.ingest_batch(round(k));
        }
        let state = source.checkpoint_state();
        assert_eq!(state.entities.len(), 500);

        let mut budgeted = layer();
        budgeted.config.max_resident_entities = Some(64);
        budgeted.restore_state(state.clone());
        assert!(budgeted.resident_entity_count() <= 64, "{} resident", budgeted.resident_entity_count());
        let spilled = budgeted.spill_stats().spilled;
        assert_eq!(budgeted.resident_entity_count() as u64 + spilled, 500);
        assert!(budgeted.entities.capacity() <= 65, "the restore itself held the budget");

        let mut unbudgeted = layer();
        unbudgeted.restore_state(state);
        let next: Vec<PositionReport> = (3..5).flat_map(round).collect();
        assert_eq!(next.len(), 1000);
        let a: Vec<IngestOutput> = next.iter().map(|r| budgeted.ingest(*r)).collect();
        let b: Vec<IngestOutput> = next.iter().map(|r| unbudgeted.ingest(*r)).collect();
        assert!(a.iter().all(|o| o.accepted) && a.iter().any(|o| !o.critical_points.is_empty()));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(budgeted.resident_entity_count() <= 64);
        assert_eq!(
            format!("{:?}", budgeted.checkpoint_state().entities),
            format!("{:?}", unbudgeted.checkpoint_state().entities)
        );
    }

    /// Entity A (vessel 1): twenty records inside region 7 with a turn
    /// north halfway, so its slot holds a full history, an open synopses
    /// window, an area membership and an advanced CEP run.
    fn slot_holder_track() -> Vec<PositionReport> {
        let mut p = GeoPoint::new(0.04, 40.0);
        (0..20i64)
            .map(|i| {
                let heading = if i < 10 { 90.0 } else { 0.0 };
                let r = rep(i * 10, p.lon, p.lat, 8.0, heading);
                p = p.destination(heading, 80.0);
                r
            })
            .collect()
    }

    /// Entity B (vessel 2): eight records from t = 1000 s, starting inside
    /// the region.
    fn slot_taker_track() -> Vec<PositionReport> {
        let mut p = GeoPoint::new(0.05, 40.01);
        (0..8i64)
            .map(|i| {
                let mut r = rep(1000 + i * 10, p.lon, p.lat, 8.0, 180.0);
                r.entity = EntityId::vessel(2);
                p = p.destination(180.0, 80.0);
                r
            })
            .collect()
    }

    /// A test layer with the north-to-south reversal pattern attached.
    fn cep_layer() -> RealTimeLayer {
        use datacron_cep::{Dfa, Pattern, PatternMarkovChain};
        let mut l = layer();
        let pattern = Pattern::north_to_south_reversal(symbols::NORTH, symbols::EAST, symbols::SOUTH);
        let pmc = PatternMarkovChain::new(Dfa::compile(&pattern, symbols::ALPHABET), 0, vec![0.25; 4]);
        l.attach_cep(Wayeb::new(pmc, 0.5, 50), symbols::heading_symbolizer);
        l
    }

    /// Asserts that A's state is non-trivial in every part a reused slot
    /// could leak.
    fn assert_slot_is_dirty(l: &RealTimeLayer) {
        let state = l.checkpoint_state();
        let a = state.entities.iter().find(|e| e.entity == EntityId::vessel(1)).expect("A has state");
        assert_eq!(a.history.len(), l.config.flp_window, "full history");
        assert!(!a.synopses.window.is_empty(), "open synopses window");
        assert!(a.cep.is_some_and(|run| run.consumed > 0), "advanced CEP run: {:?}", a.cep);
        assert!(l.monitor.currently_inside(EntityId::vessel(1)).is_some(), "inside an area");
    }

    /// B's outputs and checkpoint entry, with B's records ingested into `l`.
    fn run_taker(l: &mut RealTimeLayer) -> (String, String) {
        let outs: Vec<IngestOutput> = slot_taker_track().into_iter().map(|r| l.ingest(r)).collect();
        assert!(outs.iter().any(|o| !o.area_events.is_empty()), "B enters the region");
        let state = l.checkpoint_state();
        let b = state.entities.iter().find(|e| e.entity == EntityId::vessel(2)).expect("B has state");
        (format!("{outs:?}"), format!("{b:?}"))
    }

    #[test]
    fn a_slot_freed_by_eviction_leaks_nothing_into_its_next_entity() {
        let mut fresh = cep_layer();
        let expected = run_taker(&mut fresh);

        let mut l = cep_layer();
        l.config.max_resident_entities = Some(1);
        for r in slot_holder_track() {
            l.ingest(r);
        }
        assert_slot_is_dirty(&l);
        // A second entity evicts A, the idler of the two.
        let mut x = rep(500, 1.5, 40.5, 8.0, 90.0);
        x.entity = EntityId::vessel(3);
        l.ingest(x);
        assert_eq!(l.spilled_entities(), vec![EntityId::vessel(1)]);
        assert_eq!(l.entities.capacity(), 2);
        let got = run_taker(&mut l);
        assert_eq!(l.entities.capacity(), 2, "B took A's freed slot");
        assert_eq!(got, expected);
    }

    #[test]
    fn a_slot_freed_by_a_restart_leaks_nothing_into_its_next_entity() {
        let mut fresh = cep_layer();
        let expected = run_taker(&mut fresh);

        let mut l = cep_layer();
        let track = slot_holder_track();
        let last = track[track.len() - 1].ts;
        l.attach_entity_stage(move |r| {
            if r.entity == EntityId::vessel(1) && r.ts == last {
                panic!("injected");
            }
        });
        for r in &track[..track.len() - 1] {
            l.ingest(*r);
        }
        assert_slot_is_dirty(&l);
        assert_eq!(l.ingest(track[track.len() - 1]).rejected, Some(RejectReason::ProcessingPanic));
        assert_eq!(l.entity_count(), 0, "the restart freed A's slot");
        assert_eq!(l.entities.capacity(), 1);
        let got = run_taker(&mut l);
        assert_eq!(l.entities.capacity(), 1, "B took A's freed slot");
        assert_eq!(got, expected);
    }

    #[test]
    fn entities_are_isolated() {
        let mut l = layer();
        let mut p1 = GeoPoint::new(1.0, 40.0);
        let mut p2 = GeoPoint::new(2.0, 41.0);
        for i in 0..20i64 {
            let mut r1 = rep(i * 10, p1.lon, p1.lat, 8.0, 90.0);
            r1.entity = EntityId::vessel(1);
            let mut r2 = rep(i * 10, p2.lon, p2.lat, 8.0, 180.0);
            r2.entity = EntityId::vessel(2);
            l.ingest(r1);
            l.ingest(r2);
            p1 = p1.destination(90.0, 80.0);
            p2 = p2.destination(180.0, 80.0);
        }
        assert_eq!(l.entity_count(), 2);
        assert_eq!(l.entities(), vec![EntityId::vessel(1), EntityId::vessel(2)]);
    }
}
