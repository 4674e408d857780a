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
    decode_from_slice, encode_to_vec, CheckpointStore, DurabilityError, FsyncPolicy,
    RecoveryManager, WalConfig, WriteAheadLog,
};
use datacron_geo::{EntityId, GeoPoint, MovingKind, PositionReport, Timestamp};
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
// the impls here cover types this crate owns (orphan rule).

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

// --- the entity checkpoint format ---------------------------------------
//
// One format for every place an entity's state is written: spill blobs
// (memory and directory tiers), `LayerState` checkpoints and re-sharding.
// An entity's state is mostly position reports — the FLP history, the
// synopses window and up to five single reports (the synopses' `last`,
// stop and slow candidates and anchor, and the cleaner's `last`) — and
// most of those are the same few reports. So each report is written once:
//
// * `history` comes first. The window is written as "the last k of
//   history" when it is that, and each optional report as a
//   back-reference into history when one matches; only the rest is
//   written inline. Matches compare bit patterns, never `==`, which
//   would equate `-0.0` with `0.0` and flip a sign on the way back.
// * An inline report starts with a header byte: bit 0 marks a report of
//   another entity (its id follows; otherwise the checkpoint's own id is
//   implied), bits 1 and 2 mark `altitude_m` and `vertical_rate_mps` as
//   present (absent means their bits are `+0.0`, as for every vessel),
//   bit 3 marks the `ts` delta as whole seconds. Then `ts` as a zigzag
//   varint delta (in seconds when bit 3 is set, else milliseconds) from
//   the previous timestamp written, and the remaining floats as raw bits.
// * Lengths, counters and the CEP run-state are varints; the four
//   synopses flags and three presence bits share one byte.
//
// Layout: kind u8, id varint, flags u8, vertical regime u8; history
// (varint n, n reports); window (varint `k << 1 | 1` for a history
// suffix of k, `n << 1` then n reports); the synopses' `last`, stop and
// slow candidates, anchor and the cleaner's `last` (varint 0 = none,
// 1 = inline report, 2 + j = history[len - 1 - j]); the two emit times
// when flagged (zigzag ts deltas); seen and emitted; the five cleaning
// counters; the CEP state when flagged (three varints).

const FLAG_STARTED: u8 = 1;
const FLAG_IN_STOP: u8 = 1 << 1;
const FLAG_IN_SLOW: u8 = 1 << 2;
const FLAG_AIRBORNE: u8 = 1 << 3;
const FLAG_HEADING_EMIT: u8 = 1 << 4;
const FLAG_SPEED_EMIT: u8 = 1 << 5;
const FLAG_CEP: u8 = 1 << 6;

const REPORT_FOREIGN: u8 = 1;
const REPORT_ALTITUDE: u8 = 1 << 1;
const REPORT_VERTICAL: u8 = 1 << 2;
const REPORT_WHOLE_SECONDS: u8 = 1 << 3;

const REF_NONE: u64 = 0;
const REF_INLINE: u64 = 1;
const REF_HISTORY: u64 = 2;

/// Bit-for-bit report equality: `-0.0` and `0.0` differ, a NaN equals
/// itself only with the same payload.
fn same_bits(a: &PositionReport, b: &PositionReport) -> bool {
    a.entity == b.entity
        && a.ts == b.ts
        && a.point.lon.to_bits() == b.point.lon.to_bits()
        && a.point.lat.to_bits() == b.point.lat.to_bits()
        && a.altitude_m.to_bits() == b.altitude_m.to_bits()
        && a.speed_mps.to_bits() == b.speed_mps.to_bits()
        && a.heading_deg.to_bits() == b.heading_deg.to_bits()
        && a.vertical_rate_mps.to_bits() == b.vertical_rate_mps.to_bits()
}

fn put_entity(w: &mut ByteWriter, e: EntityId) {
    e.kind.encode(w);
    w.put_varint(e.id);
}

fn get_entity(r: &mut ByteReader<'_>) -> Result<EntityId, CodecError> {
    Ok(EntityId { kind: MovingKind::decode(r)?, id: r.get_varint()? })
}

fn get_usize(r: &mut ByteReader<'_>) -> Result<usize, CodecError> {
    usize::try_from(r.get_varint()?).map_err(|_| CodecError::VarintOverflow)
}

/// The running context of one checkpoint's reports: the implied entity
/// and the previous timestamp written (delta base).
struct ReportCoder {
    entity: EntityId,
    prev_ts: i64,
}

impl ReportCoder {
    fn new(entity: EntityId) -> Self {
        Self { entity, prev_ts: 0 }
    }

    fn put_ts(&mut self, w: &mut ByteWriter, ts: Timestamp) {
        w.put_zigzag(ts.0.wrapping_sub(self.prev_ts));
        self.prev_ts = ts.0;
    }

    fn get_ts(&mut self, r: &mut ByteReader<'_>) -> Result<Timestamp, CodecError> {
        self.prev_ts = self.prev_ts.wrapping_add(r.get_zigzag()?);
        Ok(Timestamp(self.prev_ts))
    }

    fn put_report(&mut self, w: &mut ByteWriter, p: &PositionReport) {
        let foreign = p.entity != self.entity;
        let altitude = p.altitude_m.to_bits() != 0;
        let vertical = p.vertical_rate_mps.to_bits() != 0;
        let delta = p.ts.0.wrapping_sub(self.prev_ts);
        let whole_seconds = delta % 1000 == 0;
        w.put_u8(
            if foreign { REPORT_FOREIGN } else { 0 }
                | if altitude { REPORT_ALTITUDE } else { 0 }
                | if vertical { REPORT_VERTICAL } else { 0 }
                | if whole_seconds { REPORT_WHOLE_SECONDS } else { 0 },
        );
        if foreign {
            put_entity(w, p.entity);
        }
        w.put_zigzag(if whole_seconds { delta / 1000 } else { delta });
        self.prev_ts = p.ts.0;
        w.put_f64(p.point.lon);
        w.put_f64(p.point.lat);
        w.put_f64(p.speed_mps);
        w.put_f64(p.heading_deg);
        if altitude {
            w.put_f64(p.altitude_m);
        }
        if vertical {
            w.put_f64(p.vertical_rate_mps);
        }
    }

    fn get_report(&mut self, r: &mut ByteReader<'_>) -> Result<PositionReport, CodecError> {
        let header = r.get_u8()?;
        if header & !(REPORT_FOREIGN | REPORT_ALTITUDE | REPORT_VERTICAL | REPORT_WHOLE_SECONDS)
            != 0
        {
            return Err(CodecError::InvalidTag(header));
        }
        let entity = if header & REPORT_FOREIGN != 0 { get_entity(r)? } else { self.entity };
        let delta = r.get_zigzag()?;
        let scale = if header & REPORT_WHOLE_SECONDS != 0 { 1000 } else { 1 };
        self.prev_ts = self.prev_ts.wrapping_add(delta.wrapping_mul(scale));
        let ts = Timestamp(self.prev_ts);
        let lon = r.get_f64()?;
        let lat = r.get_f64()?;
        let speed_mps = r.get_f64()?;
        let heading_deg = r.get_f64()?;
        let optional = |r: &mut ByteReader<'_>, bit: u8| {
            if header & bit != 0 {
                r.get_f64()
            } else {
                Ok(0.0)
            }
        };
        let altitude_m = optional(r, REPORT_ALTITUDE)?;
        let vertical_rate_mps = optional(r, REPORT_VERTICAL)?;
        Ok(PositionReport {
            entity,
            ts,
            point: GeoPoint { lon, lat },
            altitude_m,
            speed_mps,
            heading_deg,
            vertical_rate_mps,
        })
    }

    fn put_ref(
        &mut self,
        w: &mut ByteWriter,
        history: &[PositionReport],
        p: &Option<PositionReport>,
    ) {
        let Some(p) = p else {
            return w.put_varint(REF_NONE);
        };
        match history.iter().rev().position(|h| same_bits(h, p)) {
            Some(back) => w.put_varint(REF_HISTORY + back as u64),
            None => {
                w.put_varint(REF_INLINE);
                self.put_report(w, p);
            }
        }
    }

    fn get_ref(
        &mut self,
        r: &mut ByteReader<'_>,
        history: &[PositionReport],
    ) -> Result<Option<PositionReport>, CodecError> {
        Ok(match r.get_varint()? {
            REF_NONE => None,
            REF_INLINE => Some(self.get_report(r)?),
            tag => {
                let back = tag - REF_HISTORY;
                if back >= history.len() as u64 {
                    return Err(CodecError::BadReference);
                }
                Some(history[history.len() - 1 - back as usize])
            }
        })
    }
}

impl Encode for EntityCheckpoint {
    fn encode(&self, w: &mut ByteWriter) {
        let s = &self.synopses;
        let mut flags = 0;
        for (set, bit) in [
            (s.started, FLAG_STARTED),
            (s.in_stop, FLAG_IN_STOP),
            (s.in_slow, FLAG_IN_SLOW),
            (s.airborne, FLAG_AIRBORNE),
            (s.last_heading_emit.is_some(), FLAG_HEADING_EMIT),
            (s.last_speed_emit.is_some(), FLAG_SPEED_EMIT),
            (self.cep.is_some(), FLAG_CEP),
        ] {
            if set {
                flags |= bit;
            }
        }
        put_entity(w, self.entity);
        w.put_u8(flags);
        w.put_u8(s.vertical_regime as u8);

        let mut coder = ReportCoder::new(self.entity);
        let history = &self.history[..];
        w.put_varint(history.len() as u64);
        for p in history {
            coder.put_report(w, p);
        }
        let k = s.window.len();
        let suffix = k <= history.len()
            && s.window.iter().zip(&history[history.len() - k..]).all(|(a, b)| same_bits(a, b));
        if suffix {
            w.put_varint((k as u64) << 1 | 1);
        } else {
            w.put_varint((k as u64) << 1);
            for p in &s.window {
                coder.put_report(w, p);
            }
        }
        for p in [&s.last, &s.stop_candidate, &s.slow_candidate, &s.anchor, &self.cleaner.last] {
            coder.put_ref(w, history, p);
        }
        for ts in [s.last_heading_emit, s.last_speed_emit].into_iter().flatten() {
            coder.put_ts(w, ts);
        }
        w.put_varint(s.seen);
        w.put_varint(s.emitted);
        let c = &self.cleaner.stats;
        for n in [c.accepted, c.implausible, c.duplicates, c.out_of_order, c.teleports] {
            w.put_varint(n);
        }
        if let Some(cep) = &self.cep {
            w.put_varint(cep.dfa_state as u64);
            w.put_varint(cep.context as u64);
            w.put_varint(cep.consumed as u64);
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
        self.entity = get_entity(r)?;
        let flags = r.get_u8()?;
        if flags & 0x80 != 0 {
            return Err(CodecError::InvalidTag(flags));
        }
        let s = &mut self.synopses;
        s.started = flags & FLAG_STARTED != 0;
        s.in_stop = flags & FLAG_IN_STOP != 0;
        s.in_slow = flags & FLAG_IN_SLOW != 0;
        s.airborne = flags & FLAG_AIRBORNE != 0;
        s.vertical_regime = r.get_u8()? as i8;

        let mut coder = ReportCoder::new(self.entity);
        let n = r.get_varint_len()?;
        self.history.clear();
        self.history.reserve(n);
        for _ in 0..n {
            self.history.push(coder.get_report(r)?);
        }
        let history = &self.history[..];
        let tag = r.get_varint()?;
        s.window.clear();
        if tag & 1 == 1 {
            let k = tag >> 1;
            if k > history.len() as u64 {
                return Err(CodecError::BadReference);
            }
            s.window.extend_from_slice(&history[history.len() - k as usize..]);
        } else {
            let k = tag >> 1;
            if k > r.remaining() as u64 {
                return Err(CodecError::Truncated);
            }
            for _ in 0..k {
                s.window.push(coder.get_report(r)?);
            }
        }
        s.last = coder.get_ref(r, history)?;
        s.stop_candidate = coder.get_ref(r, history)?;
        s.slow_candidate = coder.get_ref(r, history)?;
        s.anchor = coder.get_ref(r, history)?;
        self.cleaner.last = coder.get_ref(r, history)?;
        s.last_heading_emit =
            if flags & FLAG_HEADING_EMIT != 0 { Some(coder.get_ts(r)?) } else { None };
        s.last_speed_emit =
            if flags & FLAG_SPEED_EMIT != 0 { Some(coder.get_ts(r)?) } else { None };
        s.seen = r.get_varint()?;
        s.emitted = r.get_varint()?;
        let c = &mut self.cleaner.stats;
        for n in [
            &mut c.accepted,
            &mut c.implausible,
            &mut c.duplicates,
            &mut c.out_of_order,
            &mut c.teleports,
        ] {
            *n = r.get_varint()?;
        }
        self.cep = if flags & FLAG_CEP != 0 {
            Some(WayebState {
                dfa_state: get_usize(r)?,
                context: get_usize(r)?,
                consumed: get_usize(r)?,
            })
        } else {
            None
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
pub(crate) mod tests {
    use super::*;
    use datacron_data::rng::SeededRng;
    use datacron_durability::TopicCheckpoint;
    use datacron_stream::cleaning::{CleanerState, CleaningStats};
    use datacron_synopses::SynopsesState;

    fn empty_topic<T>() -> TopicCheckpoint<T> {
        TopicCheckpoint {
            base: 0,
            stats: Default::default(),
            retained: Vec::new(),
        }
    }

    // --- the entity checkpoint format ---

    /// Float bit patterns `==` gets wrong or that must survive exactly:
    /// both zeros, NaNs with payloads and either sign, infinities, a
    /// subnormal, and ordinary values.
    fn any_f64(rng: &mut SeededRng) -> f64 {
        match rng.index(9) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(0x7ff8_0000_0000_0000 | rng.next_u64() & 0x0007_ffff_ffff_ffff),
            3 => f64::from_bits(0xfff0_0000_0000_0001 | rng.next_u64() & 0x0007_ffff_ffff_ffff),
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => f64::from_bits(1),
            _ => rng.uniform(-400.0, 400.0),
        }
    }

    fn any_ts(rng: &mut SeededRng) -> Timestamp {
        Timestamp(match rng.index(6) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => rng.next_u64() as i64,
            3 => 1_700_000_000_000 + 1000 * rng.int_range(-86_400, 86_400),
            _ => 1_700_000_000_000 + rng.int_range(-86_400_000, 86_400_000),
        })
    }

    fn any_entity(rng: &mut SeededRng) -> EntityId {
        let id = match rng.index(3) {
            0 => u64::MAX,
            1 => rng.next_u64(),
            _ => rng.index(1000) as u64,
        };
        if rng.chance(0.5) {
            EntityId::vessel(id)
        } else {
            EntityId::aircraft(id)
        }
    }

    /// A report of `own`, or now and then of another entity.
    fn any_report(rng: &mut SeededRng, own: EntityId) -> PositionReport {
        let vessel_like = rng.chance(0.5);
        PositionReport {
            entity: if rng.chance(0.1) { any_entity(rng) } else { own },
            ts: any_ts(rng),
            point: GeoPoint { lon: any_f64(rng), lat: any_f64(rng) },
            altitude_m: if vessel_like { 0.0 } else { any_f64(rng) },
            speed_mps: any_f64(rng),
            heading_deg: any_f64(rng),
            vertical_rate_mps: if vessel_like { 0.0 } else { any_f64(rng) },
        }
    }

    /// `r` with its altitude's sign bit flipped: different in bits, and
    /// equal under `==` when the altitude is a zero (every vessel's).
    fn sign_twin(r: &PositionReport) -> PositionReport {
        let mut t = *r;
        t.altitude_m = f64::from_bits(t.altitude_m.to_bits() ^ (1 << 63));
        t
    }

    /// Seeded arbitrary checkpoint. `case` cycles the window through its
    /// three arms (history suffix, bit-twin of a suffix, unrelated reports)
    /// and each optional report through its four (none, a history
    /// report, a bit-twin of one, an unrelated report), so every arm is
    /// covered whatever the seed.
    pub(crate) fn arbitrary_checkpoint(rng: &mut SeededRng, case: usize) -> EntityCheckpoint {
        let entity = any_entity(rng);
        let n = if case.is_multiple_of(7) { 0 } else { rng.index(15) };
        let history: Vec<PositionReport> = (0..n).map(|_| any_report(rng, entity)).collect();
        let k = rng.index(n + 1);
        let window = match case % 3 {
            0 => history[n - k..].to_vec(),
            1 if k > 0 => {
                let mut w = history[n - k..].to_vec();
                let i = rng.index(k);
                w[i] = sign_twin(&w[i]);
                w
            }
            _ => (0..rng.index(6)).map(|_| any_report(rng, entity)).collect(),
        };
        let mut field = 0;
        let mut opt = |rng: &mut SeededRng| {
            field += 1;
            match (case + field) % 4 {
                0 => None,
                1 if n > 0 => Some(history[rng.index(n)]),
                2 if n > 0 => Some(sign_twin(&history[rng.index(n)])),
                _ => Some(any_report(rng, entity)),
            }
        };
        let (last, stop_candidate, slow_candidate, anchor, cleaner_last) =
            (opt(rng), opt(rng), opt(rng), opt(rng), opt(rng));
        let count =
            |rng: &mut SeededRng| if rng.chance(0.2) { u64::MAX } else { rng.index(5000) as u64 };
        EntityCheckpoint {
            entity,
            cleaner: CleanerState {
                last: cleaner_last,
                stats: CleaningStats {
                    accepted: count(rng),
                    implausible: count(rng),
                    duplicates: count(rng),
                    out_of_order: count(rng),
                    teleports: count(rng),
                },
            },
            synopses: SynopsesState {
                window,
                last,
                started: rng.chance(0.5),
                stop_candidate,
                in_stop: rng.chance(0.5),
                slow_candidate,
                in_slow: rng.chance(0.5),
                airborne: rng.chance(0.5),
                vertical_regime: rng.next_u64() as i8,
                last_heading_emit: rng.chance(0.5).then(|| any_ts(rng)),
                last_speed_emit: rng.chance(0.5).then(|| any_ts(rng)),
                anchor,
                seen: count(rng),
                emitted: count(rng),
            },
            history,
            cep: rng.chance(0.5).then(|| WayebState {
                dfa_state: count(rng) as usize,
                context: count(rng) as usize,
                consumed: count(rng) as usize,
            }),
        }
    }

    fn report_bits(r: &PositionReport) -> String {
        let f = [
            r.point.lon,
            r.point.lat,
            r.altitude_m,
            r.speed_mps,
            r.heading_deg,
            r.vertical_rate_mps,
        ];
        format!("{:?}@{}{:x?}", r.entity, r.ts.0, f.map(f64::to_bits))
    }

    /// Every report of `c` in bits (where `Debug` hides NaN payloads),
    /// after the `Debug` of the whole checkpoint (every other field).
    pub(crate) fn checkpoint_bits(c: &EntityCheckpoint) -> String {
        let s = &c.synopses;
        let singles = [&s.last, &s.stop_candidate, &s.slow_candidate, &s.anchor, &c.cleaner.last];
        format!(
            "{c:?}\n{:?}\n{:?}\n{:?}",
            c.history.iter().map(report_bits).collect::<Vec<_>>(),
            s.window.iter().map(report_bits).collect::<Vec<_>>(),
            singles.map(|o| o.as_ref().map(report_bits)),
        )
    }

    #[test]
    fn entity_checkpoints_round_trip_bit_for_bit() {
        let mut rng = SeededRng::new(0x0047_c0de);
        let mut scratch = EntityCheckpoint::empty();
        for case in 0..3000 {
            let c = arbitrary_checkpoint(&mut rng, case);
            let bytes = encode_to_vec(&c);
            let back: EntityCheckpoint = decode_from_slice(&bytes).expect("a valid blob decodes");
            assert_eq!(checkpoint_bits(&back), checkpoint_bits(&c), "case {case}");
            // The recycled-scratch path agrees with the fresh one.
            let mut r = ByteReader::new(&bytes);
            scratch.decode_into(&mut r).expect("decode_into");
            assert_eq!(r.remaining(), 0);
            assert_eq!(checkpoint_bits(&scratch), checkpoint_bits(&c), "case {case}, decode_into");
            assert_eq!(encode_to_vec(&back), bytes, "case {case}: not canonical");
        }
    }

    /// A vessel at sea: 12 reports 10 s apart, no altitude.
    fn vessel_at_sea() -> EntityCheckpoint {
        let entity = EntityId::vessel(244_670_123);
        let history: Vec<PositionReport> = (0..12)
            .map(|i| PositionReport {
                speed_mps: 6.2 + 0.01 * i as f64,
                heading_deg: 87.5 - 0.3 * i as f64,
                ..PositionReport::basic(
                    entity,
                    Timestamp(1_700_000_000_000 + 10_000 * i),
                    GeoPoint::new(23.61 + 0.0007 * i as f64, 37.94 + 0.0001 * i as f64),
                )
            })
            .collect();
        EntityCheckpoint {
            entity,
            cleaner: CleanerState {
                last: history.last().copied(),
                stats: CleaningStats {
                    accepted: 612,
                    implausible: 3,
                    duplicates: 9,
                    out_of_order: 4,
                    teleports: 1,
                },
            },
            synopses: SynopsesState {
                window: history[4..].to_vec(),
                last: history.last().copied(),
                started: true,
                stop_candidate: None,
                in_stop: false,
                slow_candidate: Some(history[2]),
                in_slow: false,
                airborne: false,
                vertical_regime: 0,
                last_heading_emit: Some(Timestamp(1_700_000_060_000)),
                last_speed_emit: Some(Timestamp(1_699_999_500_000)),
                anchor: Some(history[6]),
                seen: 629,
                emitted: 57,
            },
            history,
            cep: Some(WayebState { dfa_state: 3, context: 17, consumed: 212 }),
        }
    }

    #[test]
    fn a_vessel_with_a_full_history_fits_in_480_bytes() {
        let c = vessel_at_sea();
        let bytes = encode_to_vec(&c);
        // A report inline costs a header byte, its ts delta (one byte for
        // 10 s) and 32 float bytes; the window and the four optional
        // reports are references.
        assert!(bytes.len() <= 480, "{} bytes", bytes.len());
        let back: EntityCheckpoint = decode_from_slice(&bytes).unwrap();
        assert_eq!(checkpoint_bits(&back), checkpoint_bits(&c));
    }

    /// Damaged variants of a valid blob: every strict prefix, then seeded
    /// 1–4-byte mutations, then seeded arbitrary bytes.
    pub(crate) fn damaged(valid: &[u8], rng: &mut SeededRng) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let prefixes = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
        let mut other = Vec::new();
        for _ in 0..400 {
            let mut b = valid.to_vec();
            for _ in 0..1 + rng.index(4) {
                let at = rng.index(b.len());
                b[at] = rng.next_u64() as u8;
            }
            other.push(b);
        }
        for _ in 0..400 {
            let n = rng.index(2 * valid.len() + 1);
            other.push((0..n).map(|_| rng.next_u64() as u8).collect());
        }
        (prefixes, other)
    }

    #[test]
    fn entity_checkpoint_decoding_never_panics() {
        let mut rng = SeededRng::new(0x0bad_b10b);
        for case in 0..40 {
            let c = arbitrary_checkpoint(&mut rng, case);
            let valid = encode_to_vec(&c);
            let (prefixes, other) = damaged(&valid, &mut rng);
            for p in prefixes {
                assert_eq!(
                    decode_from_slice::<EntityCheckpoint>(&p).err(),
                    Some(CodecError::Truncated)
                );
            }
            for b in other {
                // Ok (a mutation may land on a float) or a typed error.
                let _ = decode_from_slice::<EntityCheckpoint>(&b);
            }
        }
        // Handcrafted: vessel 1, no flags, level, empty history, then …
        let head = [0u8, 1, 0, 0, 0];
        let with = |tail: &[u8]| [&head[..], tail].concat();
        // … a window said to be the last 1 of an empty history;
        assert_eq!(
            decode_from_slice::<EntityCheckpoint>(&with(&[3])).err(),
            Some(CodecError::BadReference)
        );
        // … an empty window, then `last` pointing one past the history;
        assert_eq!(
            decode_from_slice::<EntityCheckpoint>(&with(&[1, 2])).err(),
            Some(CodecError::BadReference)
        );
        let mut far = ByteWriter::new();
        far.put_varint(1);
        far.put_varint(u64::MAX);
        assert_eq!(
            decode_from_slice::<EntityCheckpoint>(&with(far.as_bytes())).err(),
            Some(CodecError::BadReference)
        );
        // … an inline window of 100 reports with nothing behind it.
        assert_eq!(
            decode_from_slice::<EntityCheckpoint>(&with(&[200, 1])).err(),
            Some(CodecError::Truncated)
        );
        // A history length beyond the remaining input.
        assert_eq!(
            decode_from_slice::<EntityCheckpoint>(&[0, 1, 0, 0, 90, 0]).err(),
            Some(CodecError::Truncated)
        );
        // An entity id varint of eleven bytes.
        let mut long = vec![0u8];
        long.extend([0xff; 11]);
        assert_eq!(
            decode_from_slice::<EntityCheckpoint>(&long).err(),
            Some(CodecError::VarintOverflow)
        );
        // The unused flag bit, and a report header bit beyond the four.
        assert_eq!(
            decode_from_slice::<EntityCheckpoint>(&[0, 1, 0x80, 0]).err(),
            Some(CodecError::InvalidTag(0x80))
        );
        assert_eq!(
            decode_from_slice::<EntityCheckpoint>(&[0, 1, 0, 0, 1, 16]).err(),
            Some(CodecError::InvalidTag(16))
        );
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
