//! The real-time layer: cleaning → low-level events → synopses → RDF
//! generation → link discovery → prediction → CEP, per record, with every
//! intermediate product published to a topic.
//!
//! # Hot path
//!
//! [`RealTimeLayer::ingest`] is the per-record reference path.
//! [`RealTimeLayer::ingest_batch`] runs the same chain in batch mode:
//! topic publishes and metric-counter bumps are deferred into per-topic
//! buffers and flushed once per batch (one lock / one atomic each), and
//! RDF generation runs through the compiled [`SemanticNodeLifter`] instead
//! of the template engine. Outputs, topic contents, flush, health and
//! count metrics are bit-identical between the two paths — pinned by the
//! `batch_equivalence` suite. See DESIGN.md §13.
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
use crate::spill::{SpillStats, SpillStore};
use datacron_cep::{Wayeb, WayebState};
use datacron_durability::TopicCheckpoint;
use datacron_geo::hash::FxHashMap;
use datacron_geo::{EntityId, GeoPoint, MovingKind, Polygon, PositionReport, RecordBatch, Timestamp};
use datacron_linkdisc::{Link, LinkStats, LinkerConfig, StaticLinker};
use datacron_obs::{Counter, LogHistogram, MetricsSnapshot, ObsRegistry};
use datacron_predict::flp::Predictor;
use datacron_predict::RmfStarPredictor;
use datacron_rdf::connectors::{critical_point_vector, semantic_node_template};
use datacron_rdf::fast::SemanticNodeLifter;
use datacron_rdf::generator::TripleGenerator;
use datacron_rdf::term::Triple;
use datacron_stream::bus::{Topic, TopicHealth};
use datacron_stream::cleaning::{CleanerState, CleaningOutcome, CleaningStats, StreamCleaner};
use datacron_stream::fusion::{CrossStreamFusion, FusionConfig, SourceId};
use datacron_stream::lowlevel::{AreaEvent, AreaMonitor};
use datacron_stream::operator::panic_message;
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

/// Per-entity streaming state.
struct EntityState {
    cleaner: StreamCleaner,
    synopses: SynopsesGenerator,
    history: VecDeque<PositionReport>,
    cep: Option<Wayeb>,
    /// Event time of the entity's newest report (monotone under
    /// out-of-order input). Drives the idle ranking of cold-state spill;
    /// never part of the durable state — a rehydrated or restored entity
    /// re-learns it from its next report.
    last_seen: Timestamp,
}

/// Products and counter increments deferred while a batch is in flight.
///
/// The batch path appends to these buffers at exactly the code points
/// where the per-record path publishes or bumps a counter, then flushes
/// each topic with one `publish_batch` (one lock) and each counter with
/// one atomic add at batch end. Per-topic message order — and therefore
/// every topic's content — is identical to per-record publishing; only
/// the lock/atomic cadence changes. Nothing can observe the topics while
/// a batch is in flight (`ingest_batch` takes `&mut self`), so the
/// deferral is invisible.
#[derive(Default)]
struct BatchBuffers {
    /// `true` while `ingest_batch` is draining records.
    active: bool,
    cleaned: Vec<PositionReport>,
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
    entities: FxHashMap<EntityId, EntityState>,
    monitor: AreaMonitor,
    linker: StaticLinker,
    rdfizer: TripleGenerator,
    /// CEP template cloned into each entity (pattern engine is stateful per
    /// entity); `None` disables forecasting.
    cep_template: Option<Wayeb>,
    cep_symbolizer: Option<Symbolizer>,
    /// Optional cross-stream fusion front-end (multi-source ingestion).
    fusion: Option<CrossStreamFusion>,
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
    /// Retired [`EntityState`]s from evictions, recycled by rehydrations —
    /// same rationale as `spill_scratch`; bounded by [`STATE_POOL_CAP`].
    state_pool: Vec<EntityState>,
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
    /// Compiled semantic-node lifter driving RDF generation on the batch
    /// path. Emits output bit-identical to the template `rdfizer`, which
    /// remains the per-record reference engine and the flush/checkpoint
    /// path; its interned symbols are process-local and never checkpointed.
    lifter: SemanticNodeLifter,
    /// Deferred publishes/counters of an in-progress [`ingest_batch`](Self::ingest_batch).
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
    /// Accepted (clean) reports that completed the full chain.
    pub cleaned: Arc<Topic<PositionReport>>,
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
            rdfizer: TripleGenerator::new(semantic_node_template()),
            cep_template: None,
            cep_symbolizer: None,
            fusion: None,
            entity_stage: None,
            supervision: FxHashMap::default(),
            spill: SpillStore::new(config.spill_dir.clone()),
            spill_scratch: EntityCheckpoint::empty(),
            state_pool: Vec::new(),
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
            cleaned: Topic::new("cleaned"),
            critical: Topic::new("critical-points"),
            area_events: Topic::new("area-events"),
            triples: Topic::new("triples"),
            links: Topic::new("links"),
            dead_letters: Topic::new("dead-letters"),
            entities: FxHashMap::default(),
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

    /// Enables the cross-stream fusion front-end: reports ingested via
    /// [`ingest_from`](Self::ingest_from) are merged across sources
    /// (reordered, deduplicated, conflict-resolved) before entering the
    /// pipeline.
    pub fn enable_fusion(
        &mut self,
        config: FusionConfig,
        priorities: impl IntoIterator<Item = (SourceId, u8)>,
    ) {
        self.fusion = Some(CrossStreamFusion::new(config, priorities));
    }

    /// Ingests a report from a tagged source through the fusion front-end;
    /// every report the fusion releases flows through the full chain.
    ///
    /// # Panics
    /// Panics when fusion was not enabled.
    pub fn ingest_from(&mut self, source: SourceId, report: PositionReport) -> Vec<IngestOutput> {
        let fusion = self.fusion.as_mut().expect("call enable_fusion first");
        let released = fusion.push(source, report);
        released.into_iter().map(|r| self.ingest(r)).collect()
    }

    /// Flushes the fusion buffer (end of stream) through the chain.
    pub fn flush_fusion(&mut self) -> Vec<IngestOutput> {
        match self.fusion.as_mut() {
            None => Vec::new(),
            Some(fusion) => {
                let released = fusion.flush();
                released.into_iter().map(|r| self.ingest(r)).collect()
            }
        }
    }

    /// Fusion statistics, when fusion is enabled.
    pub fn fusion_stats(&self) -> Option<datacron_stream::fusion::FusionStats> {
        self.fusion.as_ref().map(|f| f.stats())
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
    pub fn ingest(&mut self, report: PositionReport) -> IngestOutput {
        if self.batch.active {
            self.batch.n_records += 1;
        } else {
            self.metrics.records.inc();
        }
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

        // 0b. Rehydrate: a spilled entity's next report restores its exact
        // operator state from the cold tier before anything touches the
        // chain — the spill is invisible to every downstream product. A
        // rehydrate failure (cold-tier file lost under us) is counted by
        // the store and the entity re-enters fresh, like a restart.
        if !self.entities.contains_key(&report.entity) && self.spill.contains(report.entity) {
            let t0 = self.metrics.enabled.then(Instant::now);
            if self.spill.take_into(report.entity, &mut self.spill_scratch) {
                let state = revive_pooled(
                    &mut self.state_pool,
                    &self.config,
                    &self.cep_template,
                    &self.spill_scratch,
                );
                self.entities.insert(report.entity, state);
            }
            if let Some(t0) = t0 {
                self.metrics.spill_rehydrate_ns.record(elapsed_ns(t0));
            }
        }

        // 1. Online cleaning (per-entity, panic-free by construction).
        let cep_template = &self.cep_template;
        let config = &self.config;
        let state = self.entities.entry(report.entity).or_insert_with(|| EntityState {
            cleaner: StreamCleaner::new(config.cleaning.clone()),
            synopses: SynopsesGenerator::new(config.synopses.clone()),
            history: VecDeque::new(),
            cep: cep_template.clone(),
            last_seen: report.ts,
        });
        state.last_seen = state.last_seen.max(report.ts);
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
                if self.batch.active {
                    self.batch.n_accepted += 1;
                } else {
                    self.metrics.accepted.inc();
                }
                out
            }
            Err(payload) => {
                self.panics_total += 1;
                if self.batch.active {
                    self.batch.n_panics += 1;
                    self.batch.n_restarts += 1;
                } else {
                    self.metrics.panics.inc();
                    self.metrics.restarts.inc();
                }
                // Restart: drop the (possibly inconsistent) entity state;
                // the entity re-enters fresh on its next record.
                self.entities.remove(&report.entity);
                self.restarts_total += 1;
                let sup = self.supervision.entry(report.entity).or_default();
                sup.restarts += 1;
                sup.last_incident = report.ts;
                if sup.restarts > self.config.supervision.max_restarts {
                    sup.quarantined = true;
                }
                let _ = panic_message(payload.as_ref());
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

    /// Rebuilds live operator state from an entity checkpoint (the
    /// restore path and cold-tier rehydration share this). `last_seen`
    /// starts at the distant past — the caller's next report (or the
    /// restored watermark ordering) re-learns it; until then a revived
    /// entity ranks as the idlest, which only affects eviction *choice*,
    /// never outputs.
    fn revive_entity(&self, e: EntityCheckpoint) -> EntityState {
        let cep = match (&self.cep_template, e.cep) {
            (Some(template), Some(ws)) => {
                let mut engine = template.clone();
                engine.restore_online_state(ws);
                Some(engine)
            }
            _ => None,
        };
        EntityState {
            cleaner: StreamCleaner::restore(self.config.cleaning.clone(), e.cleaner),
            synopses: SynopsesGenerator::restore(self.config.synopses.clone(), e.synopses),
            // `VecDeque::from(Vec)` reuses the decoded allocation (O(1)).
            history: VecDeque::from(e.history),
            cep,
            last_seen: Timestamp(i64::MIN),
        }
    }

    /// Cold-tier helpers for the spill hot path live as free functions
    /// ([`revive_pooled`], [`retire_state`]) because they run while other
    /// fields of `self` are mutably borrowed.
    ///
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
        let mut ranked: Vec<(Timestamp, EntityId)> = self
            .entities
            .iter()
            .map(|(id, s)| (s.last_seen, *id))
            .collect();
        if n_evict < ranked.len() {
            ranked.select_nth_unstable(n_evict - 1);
        }
        for &(_, id) in ranked.iter().take(n_evict) {
            let t0 = self.metrics.enabled.then(Instant::now);
            if let Some(state) = self.entities.remove(&id) {
                snapshot_into(&mut self.spill_scratch, id, &state);
                self.spill.spill(&self.spill_scratch);
                retire_state(&mut self.state_pool, state);
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

    /// Publishes a dead letter and returns the rejection output.
    fn reject(&mut self, report: PositionReport, reason: RejectReason) -> IngestOutput {
        if self.batch.active {
            self.batch.n_dead_lettered += 1;
            match reason {
                RejectReason::Cleaning(_) => self.batch.n_rejected_cleaning += 1,
                RejectReason::Quarantined => self.batch.n_rejected_quarantined += 1,
                RejectReason::ProcessingPanic => self.batch.n_rejected_panic += 1,
            }
            self.batch.dead_letters.push(DeadLetter { report, reason });
        } else {
            self.metrics.dead_lettered.inc();
            match reason {
                RejectReason::Cleaning(_) => self.metrics.rejected_cleaning.inc(),
                RejectReason::Quarantined => self.metrics.rejected_quarantined.inc(),
                RejectReason::ProcessingPanic => self.metrics.rejected_panic.inc(),
            }
            self.dead_letters.publish(DeadLetter { report, reason });
        }
        IngestOutput {
            rejected: Some(reason),
            ..IngestOutput::default()
        }
    }

    /// Steps 2–7 of the chain for an already-accepted record. Runs inside
    /// `catch_unwind`; publishes to the output topics only as products are
    /// produced, with `cleaned` published first so downstream topic
    /// contents remain an in-order prefix-consistent view. In batch mode
    /// (`self.batch.active`) every publish/counter bump is deferred into
    /// [`BatchBuffers`] at the same code point, preserving per-topic order
    /// exactly, and RDF generation runs through the compiled lifter.
    fn process_accepted(&mut self, report: PositionReport, timed: bool) -> IngestOutput {
        let batching = self.batch.active;
        let mut out = self.pool.checkout();
        let state = self
            .entities
            .get_mut(&report.entity)
            .expect("entity state exists for an accepted record");

        // Custom supervised stage (fault-injection hook).
        if let Some(stage) = &self.entity_stage {
            stage(&report);
        }

        if batching {
            self.batch.cleaned.push(report);
        } else {
            self.cleaned.publish(report);
        }

        // 2. FLP history window.
        state.history.push_back(report);
        while state.history.len() > self.config.flp_window {
            state.history.pop_front();
        }

        // 3. Low-level area events, appended into the (pooled) output
        // buffer — the monitor allocates nothing per record.
        self.monitor.observe_into(&report, &mut out.area_events);
        if !out.area_events.is_empty() {
            if batching {
                self.batch.area_events.extend_from_slice(&out.area_events);
            } else {
                self.area_events.publish_batch(out.area_events.iter().copied());
            }
        }
        if batching {
            self.batch.n_area_events += out.area_events.len() as u64;
        } else {
            self.metrics.area_events.add(out.area_events.len() as u64);
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
            if batching {
                self.batch.critical.push(*cp);
            } else {
                self.critical.publish(*cp);
            }
            // 5. RDF generation per critical point: generate straight into
            // the output buffer and publish from that same buffer — the
            // topic clones (it must own its copy), but the intermediate
            // per-point `Vec<Triple>` and its extra whole-set clone are
            // gone. The batch path uses the compiled lifter (bit-identical
            // output, counters credited to the same `rdfizer`).
            let t0 = timed.then(Instant::now);
            let triples_start = out.triples.len();
            if batching {
                let n = self.lifter.lift_into(cp, &mut out.triples);
                self.rdfizer.record_generated(n as u64);
                self.batch.triples.extend_from_slice(&out.triples[triples_start..]);
            } else {
                self.rdfizer.generate_into(&critical_point_vector(cp), &mut out.triples);
                self.triples.publish_batch(out.triples[triples_start..].iter().cloned());
            }
            if let Some(t0) = t0 {
                rdf_ns += elapsed_ns(t0);
            }
            // 6. Link discovery on the critical point, same single-buffer
            // pattern.
            let t0 = timed.then(Instant::now);
            let links_start = out.links.len();
            out.links
                .extend(self.linker.link_point(cp.report.entity, cp.report.ts, &cp.report.point));
            if batching {
                self.batch.links.extend_from_slice(&out.links[links_start..]);
            } else {
                self.links.publish_batch(out.links[links_start..].iter().copied());
            }
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
        if batching {
            self.batch.n_critical_points += cps.len() as u64;
            self.batch.n_triples += out.triples.len() as u64;
            self.batch.n_links += out.links.len() as u64;
            self.batch.n_cep_matches += out.cep_detections as u64;
        } else {
            self.metrics.critical_points.add(cps.len() as u64);
            self.metrics.triples.add(out.triples.len() as u64);
            self.metrics.links.add(out.links.len() as u64);
            self.metrics.cep_matches.add(out.cep_detections as u64);
        }
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
            self.cleaned.health(),
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
                self.cleaned.health(),
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

    /// Ingests a batch through the batched hot path, returning the
    /// per-record outputs in order.
    ///
    /// Runs the exact per-record chain (watermark, sweeps, quarantine,
    /// supervision and `catch_unwind` all fire per record), but defers
    /// topic publishes and metric-counter bumps into [`BatchBuffers`] and
    /// flushes them once at batch end — one lock per topic, one atomic add
    /// per counter — and generates RDF through the compiled
    /// [`SemanticNodeLifter`]. Outputs, topic contents, flush, health and
    /// count metrics are bit-identical to calling
    /// [`ingest`](Self::ingest) per record; the `batch_equivalence` suite
    /// pins this under chaotic input, single-threaded and sharded.
    pub fn ingest_batch(&mut self, reports: impl IntoIterator<Item = PositionReport>) -> Vec<IngestOutput> {
        self.batch.active = true;
        let outputs: Vec<IngestOutput> = reports.into_iter().map(|r| self.ingest(r)).collect();
        self.batch.active = false;
        self.flush_batch_buffers();
        outputs
    }

    /// [`ingest_batch`](Self::ingest_batch) over a columnar
    /// [`RecordBatch`], reassembling rows from the columns as it drains.
    pub fn ingest_record_batch(&mut self, batch: &RecordBatch) -> Vec<IngestOutput> {
        self.ingest_batch(batch.iter())
    }

    /// Publishes everything an in-flight batch deferred: one
    /// `publish_batch` per non-empty topic buffer, one atomic add per
    /// touched counter. Buffer allocations are retained for the next batch.
    fn flush_batch_buffers(&mut self) {
        let b = &mut self.batch;
        if !b.cleaned.is_empty() {
            self.cleaned.publish_batch(b.cleaned.drain(..));
        }
        if !b.critical.is_empty() {
            self.critical.publish_batch(b.critical.drain(..));
        }
        if !b.area_events.is_empty() {
            self.area_events.publish_batch(b.area_events.drain(..));
        }
        if !b.triples.is_empty() {
            self.triples.publish_batch(b.triples.drain(..));
        }
        if !b.links.is_empty() {
            self.links.publish_batch(b.links.drain(..));
        }
        if !b.dead_letters.is_empty() {
            self.dead_letters.publish_batch(b.dead_letters.drain(..));
        }
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
        let mut ids: Vec<EntityId> = self.entities.keys().copied().collect();
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
            let mut revived = match self.entities.get_mut(&id) {
                Some(_) => None,
                None => match self.spill.take(id) {
                    Some(ckpt) => Some(self.revive_entity(ckpt)),
                    None => continue,
                },
            };
            let state = match revived.as_mut() {
                Some(s) => s,
                None => self.entities.get_mut(&id).expect("resident: checked above"),
            };
            cps.clear();
            state.synopses.flush(&mut cps);
            for cp in &cps {
                self.critical.publish(*cp);
                let triples = self.rdfizer.generate(&critical_point_vector(cp));
                self.metrics.triples.add(triples.len() as u64);
                self.triples.publish_batch(triples);
            }
            self.metrics.critical_points.add(cps.len() as u64);
            all.extend_from_slice(&cps);
            if let Some(s) = revived {
                self.spill.spill(&snapshot_entity(id, &s));
            }
        }
        all
    }

    /// Predicts the future location of an entity `k` steps of
    /// `step_seconds` ahead with RMF\*, from its recent cleaned history.
    /// `None` when the entity is unknown or has no history.
    pub fn predict_location(&self, entity: EntityId, k: usize, step_seconds: f64) -> Option<Vec<GeoPoint>> {
        let reports: Vec<PositionReport> = match self.entities.get(&entity) {
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
        match self.entities.get(&entity) {
            Some(state) => state.history.back().copied(),
            None => self.spill.peek(entity)?.history.last().copied(),
        }
    }

    /// All entities with state, resident and spilled, sorted.
    pub fn entities(&self) -> Vec<EntityId> {
        let mut v: Vec<EntityId> = self.entities.keys().copied().collect();
        v.extend(self.spill.ids());
        v.sort();
        v
    }

    /// Captures the layer's complete durable state: per-entity operator
    /// snapshots, supervision records, layer counters, area-monitor
    /// residency, linker/RDF counters and all six output topics (offsets,
    /// counters and the messages some consumer has not read yet — empty
    /// for a topic nobody subscribes to). Entities are sorted, so two
    /// identical runs produce byte-identical encodings.
    ///
    /// Deliberately excluded: the fusion front-end buffer (records inside
    /// it have not yet been write-ahead logged, so recovery re-feeds them
    /// from the source) and the batch lifter's interned symbols
    /// (process-local handles, rebuilt on first use).
    pub fn checkpoint_state(&self) -> LayerState {
        let mut entities: Vec<EntityCheckpoint> = self
            .entities
            .iter()
            .map(|(entity, s)| snapshot_entity(*entity, s))
            .collect();
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
            rdf_generated: self.rdfizer.generated(),
            rdf_skipped: self.rdfizer.skipped_patterns(),
            cleaned: topic_checkpoint(&self.cleaned),
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
    pub fn restore_state(&mut self, state: LayerState) {
        self.entities.clear();
        // A restored state's entities all come in resident; stale cold-tier
        // blobs (from before the restore) must never resurrect.
        self.spill.clear();
        for e in state.entities {
            let entity = e.entity;
            let revived = self.revive_entity(e);
            self.entities.insert(entity, revived);
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
        self.rdfizer.restore_counters(state.rdf_generated, state.rdf_skipped);
        restore_topic(&self.cleaned, state.cleaned);
        restore_topic(&self.critical, state.critical);
        restore_topic(&self.area_events, state.area_events);
        restore_topic(&self.triples, state.triples);
        restore_topic(&self.links, state.links);
        restore_topic(&self.dead_letters, state.dead_letters);
    }
}

/// Durable snapshot of one entity's operator state — the unit of both the
/// full layer checkpoint and cold-tier spill.
/// Upper bound on recycled [`EntityState`]s (caps idle pool memory; sized
/// to absorb one full eviction burst at fleet scale).
const STATE_POOL_CAP: usize = 16 * 1024;

/// The hot-path twin of [`RealTimeLayer::revive_entity`]: rebuilds an
/// entity's operator state from a *borrowed* checkpoint, reusing a retired
/// [`EntityState`]'s allocations when the pool has one. Behaviour is
/// identical to `revive_entity(ckpt.clone())`.
fn revive_pooled(
    pool: &mut Vec<EntityState>,
    config: &DatacronConfig,
    cep_template: &Option<Wayeb>,
    ckpt: &EntityCheckpoint,
) -> EntityState {
    let cep = match (cep_template, &ckpt.cep) {
        (Some(template), Some(ws)) => {
            let mut engine = template.clone();
            engine.restore_online_state(*ws);
            Some(engine)
        }
        _ => None,
    };
    let mut s = pool.pop().unwrap_or_else(|| EntityState {
        cleaner: StreamCleaner::new(config.cleaning.clone()),
        synopses: SynopsesGenerator::new(config.synopses.clone()),
        history: VecDeque::new(),
        cep: None,
        last_seen: Timestamp(i64::MIN),
    });
    s.cleaner = StreamCleaner::restore(config.cleaning.clone(), ckpt.cleaner.clone());
    s.synopses.restore_from(&ckpt.synopses);
    s.history.clear();
    s.history.extend(ckpt.history.iter().copied());
    s.cep = cep;
    s.last_seen = Timestamp(i64::MIN);
    s
}

/// Parks an evicted [`EntityState`] for reuse by [`revive_pooled`].
/// States carrying a CEP engine are dropped instead (pattern run-state is
/// not safely recyclable by overwrite; scenarios that attach patterns
/// simply fall back to the allocating path).
fn retire_state(pool: &mut Vec<EntityState>, s: EntityState) {
    if s.cep.is_none() && pool.len() < STATE_POOL_CAP {
        pool.push(s);
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
            cleaner: CleanerState {
                last: None,
                stats: CleaningStats::default(),
            },
            synopses: SynopsesState {
                window: Vec::new(),
                last: None,
                started: false,
                stop_candidate: None,
                in_stop: false,
                slow_candidate: None,
                in_slow: false,
                airborne: false,
                vertical_regime: 0,
                last_heading_emit: None,
                last_speed_emit: None,
                anchor: None,
                seen: 0,
                emitted: 0,
            },
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
    /// The `cleaned` topic.
    pub cleaned: TopicCheckpoint<PositionReport>,
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
        assert_eq!(l.cleaned.len(), 0);
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
        use datacron_cep::{Dfa, Pattern, PatternMarkovChain, Wayeb};
        let mut l = layer();
        let pattern = Pattern::north_to_south_reversal(symbols::NORTH, symbols::EAST, symbols::SOUTH);
        let dfa = Dfa::compile(&pattern, symbols::ALPHABET);
        let pmc = PatternMarkovChain::new(dfa, 0, vec![0.25; 4]);
        l.attach_cep(Wayeb::new(pmc, 0.5, 50), symbols::heading_symbolizer);
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
        let mut l = layer();
        l.enable_fusion(datacron_stream::fusion::FusionConfig::default(), [(0u8, 0u8), (1, 1)]);
        let mut p = GeoPoint::new(1.0, 40.0);
        let mut outs = Vec::new();
        for i in 0..40i64 {
            outs.extend(l.ingest_from(0, rep(i * 10, p.lon, p.lat, 8.0, 90.0)));
            if i % 4 == 0 {
                // Satellite echo of the same observation, slightly offset.
                let echo = rep(i * 10 + 1, p.lon + 0.0001, p.lat, 8.0, 90.0);
                outs.extend(l.ingest_from(1, echo));
            }
            p = p.destination(90.0, 80.0);
        }
        outs.extend(l.flush_fusion());
        let stats = l.fusion_stats().expect("fusion enabled");
        assert_eq!(stats.ingested, 50);
        assert_eq!(stats.duplicates, 10, "satellite echoes deduplicated");
        // The pipeline saw exactly the fused stream.
        assert_eq!(l.cleaned.len(), stats.emitted);
        assert!(outs.iter().filter(|o| o.accepted).count() as u64 == stats.emitted);
    }

    #[test]
    #[should_panic(expected = "enable_fusion")]
    fn ingest_from_requires_fusion() {
        let mut l = layer();
        l.ingest_from(0, rep(0, 1.0, 40.0, 8.0, 90.0));
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
