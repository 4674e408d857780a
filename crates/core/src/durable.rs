//! Durability integration: write-ahead logging and checkpointing for
//! [`DatacronSystem`].
//!
//! The protocol (the paper delegates this to Kafka + Flink checkpoints;
//! here it is native, via `datacron-durability`):
//!
//! 1. **Log ahead.** Every report is appended to the WAL *before* it
//!    enters the pipeline; the record's sequence number equals the
//!    system's report count at append time.
//! 2. **Checkpoint.** Every [`DurabilityConfig::checkpoint_interval`]
//!    records the full system state ([`SystemState`]) is encoded and
//!    atomically persisted, tagged with the WAL sequence it covers. The
//!    WAL is synced first, so a checkpoint never claims coverage beyond
//!    durable records, and sealed segments older than the oldest retained
//!    checkpoint are retired.
//! 3. **Recover.** [`DatacronSystem::recover`] loads the newest valid
//!    checkpoint, replays the WAL suffix (deduped by sequence number)
//!    through the ordinary ingest path with WAL appends suppressed, and
//!    resumes. A recovered run's outputs, flush and health are
//!    bit-identical to an uninterrupted run over the same input. Topics
//!    keep only what a live consumer has not read, so the checkpoint
//!    carries the batch layer's synced input ([`BatchState`]); recovery
//!    rebuilds its store from it and re-subscribes it to the restored
//!    topics.
//!
//! WAL I/O errors during normal operation are absorbed and counted, never
//! panicked on: the pipeline keeps processing with degraded durability.

use std::path::PathBuf;
use std::time::Instant;

use crate::batch::BatchState;
use crate::realtime::{
    DeadLetter, EntityCheckpoint, LayerState, RejectReason, SupervisionCheckpoint,
};
use crate::system::DatacronSystem;
use datacron_cep::WayebState;
use datacron_durability::codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use datacron_durability::{
    decode_from_slice, decode_synopses_state_into, decode_vec_into, encode_to_vec,
    CheckpointStore, DurabilityError, FsyncPolicy, RecoveryManager, WalConfig, WriteAheadLog,
};
use datacron_geo::{PositionReport, Timestamp};
use datacron_obs::{LogHistogram, ObsRegistry};
use datacron_stream::cleaning::CleaningOutcome;

/// Durability settings for a [`DatacronSystem`]; off unless
/// [`DatacronSystem::enable_durability`] is called.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and checkpoints.
    pub dir: PathBuf,
    /// When appends reach disk.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold in bytes.
    pub segment_max_bytes: u64,
    /// Records between state checkpoints (0 disables checkpointing; the
    /// WAL alone still makes the run recoverable).
    pub checkpoint_interval: u64,
    /// How many checkpoints to keep (the WAL is retained back to the
    /// oldest of them).
    pub retained_checkpoints: usize,
}

impl DurabilityConfig {
    /// Sensible defaults rooted at `dir`: batched fsync, 8 MiB segments,
    /// a checkpoint every 1024 records, 2 checkpoints retained.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(64),
            segment_max_bytes: 8 * 1024 * 1024,
            checkpoint_interval: 1024,
            retained_checkpoints: 2,
        }
    }
}

/// Durability counters surfaced in
/// [`HealthReport`](crate::realtime::HealthReport). Deliberately limited
/// to *deterministic* quantities (they depend only on the input stream,
/// not on crash/recovery history), so a recovered run's health report
/// stays bit-identical to an uninterrupted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityHealth {
    /// Records covered by the write-ahead protocol (the system's lifetime
    /// report count).
    pub logged: u64,
    /// WAL sequence covered by the newest checkpoint, `None` before the
    /// first.
    pub last_checkpoint: Option<u64>,
}

/// Live durability state attached to a running system.
pub(crate) struct DurabilityRuntime {
    pub(crate) cfg: DurabilityConfig,
    pub(crate) wal: WriteAheadLog,
    pub(crate) store: CheckpointStore,
    pub(crate) last_checkpoint: Option<u64>,
    /// While replaying recovered records, appends are suppressed (they are
    /// already in the log) but checkpoints still fire on schedule.
    pub(crate) replaying: bool,
    /// WAL append/sync failures absorbed (processing continued).
    pub(crate) wal_errors: u64,
    /// Reusable encode buffer for the ingest hot path.
    pub(crate) buf: ByteWriter,
    /// Whether the timing instruments below are live (they come from the
    /// real-time layer's registry, so durability shares one snapshot with
    /// the pipeline).
    pub(crate) timed: bool,
    /// WAL append latency. Histograms only: timing series are excluded
    /// from the deterministic counter contract, so durability adds no
    /// run-to-run variance to count-typed metrics.
    pub(crate) wal_append_ns: LogHistogram,
    /// Checkpoint-time WAL sync latency.
    pub(crate) wal_sync_ns: LogHistogram,
    /// Full checkpoint duration (encode + sync + atomic save).
    pub(crate) checkpoint_ns: LogHistogram,
    /// Encoded checkpoint payload sizes.
    pub(crate) checkpoint_bytes: LogHistogram,
}

impl DurabilityRuntime {
    fn open(
        cfg: DurabilityConfig,
        last_checkpoint: Option<u64>,
        obs: &ObsRegistry,
    ) -> Result<Self, DurabilityError> {
        let wal = WriteAheadLog::open(WalConfig {
            dir: cfg.dir.clone(),
            fsync: cfg.fsync,
            segment_max_bytes: cfg.segment_max_bytes,
        })?;
        let store = CheckpointStore::open(&cfg.dir, cfg.retained_checkpoints)?;
        Ok(Self {
            cfg,
            wal,
            store,
            last_checkpoint,
            replaying: false,
            wal_errors: 0,
            buf: ByteWriter::new(),
            timed: obs.is_enabled(),
            wal_append_ns: obs.histogram("durability.wal_append_ns"),
            wal_sync_ns: obs.histogram("durability.wal_sync_ns"),
            checkpoint_ns: obs.histogram("durability.checkpoint_ns"),
            checkpoint_bytes: obs.histogram("durability.checkpoint_bytes"),
        })
    }
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Appends `report` to the WAL ahead of processing. I/O failures are
/// counted, not surfaced: durability degrades, the pipeline keeps going.
pub(crate) fn log_report(system: &mut DatacronSystem, report: &PositionReport) {
    let Some(rt) = system.durability.as_mut() else {
        return;
    };
    if rt.replaying {
        return; // already durable — this record came *from* the log
    }
    rt.buf.reset();
    report.encode(&mut rt.buf);
    let DurabilityRuntime { wal, wal_errors, buf, timed, wal_append_ns, .. } = rt;
    let t0 = timed.then(Instant::now);
    if wal.append(buf.as_bytes()).is_err() {
        *wal_errors += 1;
    }
    if let Some(t0) = t0 {
        wal_append_ns.record(elapsed_ns(t0));
    }
}

/// Checkpoints the full system state when the report count crosses the
/// configured interval. Runs on the ordinary ingest path *and* during
/// replay (re-saving a checkpoint it already took is idempotent: the
/// state — hence the encoding — is identical).
pub(crate) fn maybe_checkpoint(system: &mut DatacronSystem) {
    let due = match &system.durability {
        Some(rt) => {
            rt.cfg.checkpoint_interval > 0
                && system.total_reports > 0
                && system.total_reports.is_multiple_of(rt.cfg.checkpoint_interval)
        }
        None => return,
    };
    if !due {
        return;
    }
    let timed = system.durability.as_ref().is_some_and(|rt| rt.timed);
    let start = timed.then(Instant::now);
    let state = SystemState {
        total_reports: system.total_reports,
        total_detections: system.total_detections,
        total_area_events: system.total_area_events,
        as_of: system.as_of,
        layer: system.realtime.checkpoint_state(),
        batch: system.batch.state(),
    };
    let payload = encode_to_vec(&state);
    let seq = system.total_reports;
    let rt = system.durability.as_mut().expect("checked above");
    if timed {
        rt.checkpoint_bytes.record(payload.len() as u64);
    }
    // The checkpoint claims coverage of [0, seq): those records must be on
    // disk before it is.
    let t0 = timed.then(Instant::now);
    let synced = rt.wal.sync();
    if let Some(t0) = t0 {
        rt.wal_sync_ns.record(elapsed_ns(t0));
    }
    if synced.is_err() {
        rt.wal_errors += 1;
        return; // don't persist a checkpoint ahead of its records
    }
    if rt.store.save(seq, &payload).is_ok() {
        rt.last_checkpoint = Some(seq);
        // Retire WAL segments no retained checkpoint needs.
        if let Ok(list) = rt.store.list() {
            if let Some((oldest, _)) = list.first() {
                let _ = rt.wal.retain_from(*oldest);
            }
        }
    }
    if let Some(start) = start {
        rt.checkpoint_ns.record(elapsed_ns(start));
    }
}

/// What [`DatacronSystem::recover`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Checkpoint the recovered state started from, if any.
    pub checkpoint_seq: Option<u64>,
    /// WAL records replayed on top of it.
    pub replayed: usize,
    /// The sequence number processing resumes from.
    pub recovered_through: u64,
    /// Torn-tail bytes truncated from the WAL.
    pub truncated_tail_bytes: u64,
    /// Corrupt checkpoint files skipped while finding a valid one.
    pub corrupt_checkpoints: u64,
}

impl DatacronSystem {
    /// Turns on write-ahead logging + checkpointing for this system.
    ///
    /// The log in `config.dir` must agree with this system's history:
    /// enabling on a fresh system requires an empty (or fresh) log, and
    /// attaching an existing non-empty log to a fresh system is a
    /// [`DurabilityError::SequenceMismatch`] — use
    /// [`recover`](Self::recover) for that.
    pub fn enable_durability(&mut self, config: DurabilityConfig) -> Result<(), DurabilityError> {
        let rt = DurabilityRuntime::open(config, None, self.realtime.obs())?;
        if rt.wal.next_seq() != self.total_reports {
            return Err(DurabilityError::SequenceMismatch {
                wal: rt.wal.next_seq(),
                system: self.total_reports,
            });
        }
        self.durability = Some(rt);
        Ok(())
    }

    /// Whether durability is enabled.
    pub fn durability_enabled(&self) -> bool {
        self.durability.is_some()
    }

    /// WAL append/sync failures absorbed so far (0 on a healthy disk).
    pub fn wal_errors(&self) -> u64 {
        self.durability.as_ref().map_or(0, |rt| rt.wal_errors)
    }

    /// Rebuilds a crashed system from its durability directory: newest
    /// valid checkpoint, then the WAL suffix replayed through the ordinary
    /// ingest path. See [`recover_with_setup`](Self::recover_with_setup)
    /// when the crashed system had a CEP pattern or custom stages
    /// attached.
    pub fn recover(
        config: crate::config::DatacronConfig,
        regions: Vec<(u64, datacron_geo::Polygon)>,
        ports: Vec<(u64, datacron_geo::GeoPoint)>,
        store_config: datacron_store::StoreConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        Self::recover_with_setup(config, regions, ports, store_config, durability, |_| {})
    }

    /// [`recover`](Self::recover), with a `setup` hook that runs on the
    /// fresh system *before* state is applied — attach the same CEP
    /// pattern / entity stages / fusion the crashed system had, or the
    /// restored state cannot be faithful.
    pub fn recover_with_setup(
        config: crate::config::DatacronConfig,
        regions: Vec<(u64, datacron_geo::Polygon)>,
        ports: Vec<(u64, datacron_geo::GeoPoint)>,
        store_config: datacron_store::StoreConfig,
        durability: DurabilityConfig,
        setup: impl FnOnce(&mut Self),
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let outcome = RecoveryManager::recover(&durability.dir, durability.retained_checkpoints)?;
        let mut system = Self::new(config, regions, ports, store_config);
        setup(&mut system);

        let mut checkpoint_seq = None;
        if let Some((seq, payload)) = &outcome.checkpoint {
            let state: SystemState = decode_from_slice(payload)?;
            checkpoint_seq = Some(*seq);
            system.apply_state(state);
        }

        // Opening the log for append truncates any torn tail.
        let mut rt = DurabilityRuntime::open(durability, checkpoint_seq, system.realtime.obs())?;
        rt.replaying = true;
        system.durability = Some(rt);

        let replayed = outcome.records.len();
        for record in &outcome.records {
            debug_assert_eq!(record.seq, system.total_reports);
            let report: PositionReport = decode_from_slice(&record.payload)?;
            system.ingest(report);
        }
        if let Some(rt) = system.durability.as_mut() {
            rt.replaying = false;
        }

        Ok((
            system,
            RecoveryReport {
                checkpoint_seq,
                replayed,
                recovered_through: outcome.next_seq,
                truncated_tail_bytes: outcome.truncated_tail_bytes,
                corrupt_checkpoints: outcome.corrupt_checkpoints,
            },
        ))
    }

    pub(crate) fn apply_state(&mut self, state: SystemState) {
        self.total_reports = state.total_reports;
        self.total_detections = state.total_detections;
        self.total_area_events = state.total_area_events;
        self.as_of = state.as_of;
        // The batch layer lets go of the fresh topics before they are
        // restored, then re-subscribes as their first reader: it inherits
        // exactly the suffix it had not synced at the checkpoint.
        self.batch.restore(state.batch);
        self.realtime.restore_state(state.layer);
        self.batch.subscribe(&self.realtime);
    }
}

/// The complete durable state of a [`DatacronSystem`]: its counters, the
/// real-time layer's [`LayerState`] and the batch layer's [`BatchState`].
/// This is the checkpoint payload.
#[derive(Debug, Clone)]
pub struct SystemState {
    /// Lifetime report count (the WAL sequence this state covers).
    pub total_reports: u64,
    /// CEP detections.
    pub total_detections: u64,
    /// Area events.
    pub total_area_events: u64,
    /// Snapshot time.
    pub as_of: Timestamp,
    /// The real-time layer.
    pub layer: LayerState,
    /// The batch layer.
    pub batch: BatchState,
}

// --- codecs for the core-owned state types ------------------------------
//
// `Encode`/`Decode` impls for foreign types live in `datacron-durability`;
// the impls here cover types this crate owns (orphan rule). `WayebState`
// belongs to `datacron-cep`, which the durability crate does not depend
// on, so its three counters are framed inline.

fn put_wayeb(w: &mut ByteWriter, s: &WayebState) {
    w.put_u64(s.dfa_state as u64);
    w.put_u64(s.context as u64);
    w.put_u64(s.consumed as u64);
}

fn get_wayeb(r: &mut ByteReader<'_>) -> Result<WayebState, CodecError> {
    Ok(WayebState {
        dfa_state: r.get_u64()? as usize,
        context: r.get_u64()? as usize,
        consumed: r.get_u64()? as usize,
    })
}

impl Encode for RejectReason {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            RejectReason::Cleaning(outcome) => {
                w.put_u8(0);
                outcome.encode(w);
            }
            RejectReason::Quarantined => w.put_u8(1),
            RejectReason::ProcessingPanic => w.put_u8(2),
        }
    }
}

impl Decode for RejectReason {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => RejectReason::Cleaning(CleaningOutcome::decode(r)?),
            1 => RejectReason::Quarantined,
            2 => RejectReason::ProcessingPanic,
            t => return Err(CodecError::InvalidTag(t)),
        })
    }
}

impl Encode for DeadLetter {
    fn encode(&self, w: &mut ByteWriter) {
        self.report.encode(w);
        self.reason.encode(w);
    }
}

impl Decode for DeadLetter {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            report: PositionReport::decode(r)?,
            reason: RejectReason::decode(r)?,
        })
    }
}

impl Encode for EntityCheckpoint {
    fn encode(&self, w: &mut ByteWriter) {
        self.entity.encode(w);
        self.cleaner.encode(w);
        self.synopses.encode(w);
        self.history.encode(w);
        match &self.cep {
            None => w.put_u8(0),
            Some(s) => {
                w.put_u8(1);
                put_wayeb(w, s);
            }
        }
    }
}

impl Decode for EntityCheckpoint {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut out = EntityCheckpoint::empty();
        out.decode_into(r)?;
        Ok(out)
    }
}

impl EntityCheckpoint {
    /// Decodes into `self` (same wire format as the `Decode` impl),
    /// reusing the history and window allocations — the rehydration hot
    /// path decodes millions of similarly-shaped checkpoints into one
    /// recycled scratch value. On error, `self` is partially overwritten
    /// and must be treated as garbage.
    pub(crate) fn decode_into(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.entity = Decode::decode(r)?;
        self.cleaner = Decode::decode(r)?;
        decode_synopses_state_into(r, &mut self.synopses)?;
        decode_vec_into(r, &mut self.history)?;
        self.cep = match r.get_u8()? {
            0 => None,
            1 => Some(get_wayeb(r)?),
            t => return Err(CodecError::InvalidTag(t)),
        };
        Ok(())
    }
}

impl Encode for SupervisionCheckpoint {
    fn encode(&self, w: &mut ByteWriter) {
        self.entity.encode(w);
        w.put_u32(self.restarts);
        w.put_bool(self.quarantined);
        self.last_incident.encode(w);
    }
}

impl Decode for SupervisionCheckpoint {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            entity: Decode::decode(r)?,
            restarts: r.get_u32()?,
            quarantined: r.get_bool()?,
            last_incident: Decode::decode(r)?,
        })
    }
}

impl Encode for LayerState {
    fn encode(&self, w: &mut ByteWriter) {
        self.entities.encode(w);
        self.supervision.encode(w);
        w.put_u64(self.accepted_total);
        w.put_u64(self.panics_total);
        w.put_u64(self.restarts_total);
        w.put_u64(self.supervision_evictions);
        self.watermark.encode(w);
        w.put_u64(self.ingests_since_sweep);
        self.monitor_inside.encode(w);
        self.linker_stats.encode(w);
        w.put_u64(self.rdf_generated);
        w.put_u64(self.rdf_skipped);
        self.cleaned.encode(w);
        self.critical.encode(w);
        self.area_events.encode(w);
        self.triples.encode(w);
        self.links.encode(w);
        self.dead_letters.encode(w);
    }
}

impl Decode for LayerState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            entities: Decode::decode(r)?,
            supervision: Decode::decode(r)?,
            accepted_total: r.get_u64()?,
            panics_total: r.get_u64()?,
            restarts_total: r.get_u64()?,
            supervision_evictions: r.get_u64()?,
            watermark: Decode::decode(r)?,
            ingests_since_sweep: r.get_u64()?,
            monitor_inside: Decode::decode(r)?,
            linker_stats: Decode::decode(r)?,
            rdf_generated: r.get_u64()?,
            rdf_skipped: r.get_u64()?,
            cleaned: Decode::decode(r)?,
            critical: Decode::decode(r)?,
            area_events: Decode::decode(r)?,
            triples: Decode::decode(r)?,
            links: Decode::decode(r)?,
            dead_letters: Decode::decode(r)?,
        })
    }
}

impl Encode for SystemState {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.total_reports);
        w.put_u64(self.total_detections);
        w.put_u64(self.total_area_events);
        self.as_of.encode(w);
        self.layer.encode(w);
        self.batch.encode(w);
    }
}

impl Decode for SystemState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            total_reports: r.get_u64()?,
            total_detections: r.get_u64()?,
            total_area_events: r.get_u64()?,
            as_of: Decode::decode(r)?,
            layer: Decode::decode(r)?,
            batch: Decode::decode(r)?,
        })
    }
}

impl Encode for BatchState {
    fn encode(&self, w: &mut ByteWriter) {
        self.critical.encode(w);
        self.links.encode(w);
        w.put_u64(self.critical_offset);
        w.put_u64(self.links_offset);
        w.put_u64(self.lagged_lost);
    }
}

impl Decode for BatchState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            critical: Decode::decode(r)?,
            links: Decode::decode(r)?,
            critical_offset: r.get_u64()?,
            links_offset: r.get_u64()?,
            lagged_lost: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_durability::TopicCheckpoint;
    use datacron_geo::{EntityId, GeoPoint};

    fn empty_topic<T>() -> TopicCheckpoint<T> {
        TopicCheckpoint {
            base: 0,
            stats: Default::default(),
            retained: Vec::new(),
        }
    }

    #[test]
    fn dead_letter_roundtrips() {
        let report = PositionReport::basic(
            EntityId::vessel(9),
            Timestamp::from_secs(120),
            GeoPoint::new(1.5, 40.25),
        );
        for reason in [
            RejectReason::Quarantined,
            RejectReason::ProcessingPanic,
            RejectReason::Cleaning(CleaningOutcome::Accepted),
        ] {
            let dl = DeadLetter { report, reason };
            let bytes = encode_to_vec(&dl);
            let back: DeadLetter = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, dl);
        }
    }

    #[test]
    fn supervision_checkpoint_roundtrips() {
        let s = SupervisionCheckpoint {
            entity: EntityId::vessel(4),
            restarts: 3,
            quarantined: true,
            last_incident: Timestamp::from_secs(77),
        };
        let bytes = encode_to_vec(&s);
        let back: SupervisionCheckpoint = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn truncated_layer_state_is_a_typed_error() {
        let state = LayerState {
            entities: Vec::new(),
            supervision: Vec::new(),
            accepted_total: 1,
            panics_total: 0,
            restarts_total: 0,
            supervision_evictions: 0,
            watermark: Timestamp::from_secs(5),
            ingests_since_sweep: 3,
            monitor_inside: Vec::new(),
            linker_stats: Default::default(),
            rdf_generated: 0,
            rdf_skipped: 0,
            cleaned: empty_topic(),
            critical: empty_topic(),
            area_events: empty_topic(),
            triples: empty_topic(),
            links: empty_topic(),
            dead_letters: empty_topic(),
        };
        let bytes = encode_to_vec(&state);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_from_slice::<LayerState>(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
        let back: LayerState = decode_from_slice(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{state:?}"));
    }
}
