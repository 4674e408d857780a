//! Cold-entity state spill: bounds the real-time layer's resident
//! per-entity state so fleet size no longer bounds memory.
//!
//! The paper's claim is time-critical analytics over *fleets* — millions
//! of moving entities — but per-entity state (cleaner, synopses, FLP
//! history, CEP run-state) grows linearly with fleet size if every entity
//! stays resident. The spill store is the cold tier under
//! [`RealTimeLayer`](crate::RealTimeLayer): when resident entities exceed
//! [`DatacronConfig::max_resident_entities`](crate::DatacronConfig::max_resident_entities),
//! the idlest entities (smallest `last_seen` event time, entity id as the
//! tiebreak — the same event-time ranking the supervision watermark sweep
//! uses) are encoded as [`EntityCheckpoint`]s via the `datacron-durability`
//! codec and parked here; an entity's next report transparently rehydrates
//! it before entering the chain.
//!
//! ## Tiers
//!
//! * **Memory tier** (always available): the encoded blob is held in a
//!   size-classed slab arena ([`BlobSlab`]) — compact codec bytes instead
//!   of live operator state, still O(fleet) but a fraction of the
//!   resident footprint, and packed into a few large segments so a
//!   million spilled entities do not fragment the general-purpose heap
//!   the per-record pipeline allocates from.
//! * **Directory tier** ([`DatacronConfig::spill_dir`](crate::DatacronConfig::spill_dir)):
//!   the blob is written to one file per entity with the same atomic
//!   tmp+rename pattern the checkpoint store uses, keeping RSS flat in
//!   fleet size. The spill store is a *cache*, not a durability tier —
//!   files are not fsynced, and membership is decided solely by the
//!   in-memory index (stale files from a previous run or a re-shard are
//!   never resurrected). A disk write error falls back to the memory tier
//!   and is counted in [`SpillStats::disk_errors`]; processing never
//!   stops.
//!
//! ## Equivalence contract
//!
//! A spill/rehydrate round-trip restores the exact operator state that was
//! evicted, so a budgeted run's outputs, flush, health, dead-letter labels
//! and count metrics are **bit-identical** to a fully-resident run —
//! single-threaded and sharded — pinned by `tests/spill_equivalence.rs`
//! under the 8 chaos seeds. Occupancy series (`spill.*`) are exported as
//! gauges, which the determinism contract excludes, exactly like topic
//! retention.

use crate::realtime::EntityCheckpoint;
use datacron_durability::{decode_from_slice, encode_into, ByteReader};
use datacron_geo::hash::FxHashMap;
use datacron_geo::{EntityId, MovingKind};
use std::fs;
use std::path::{Path, PathBuf};

/// Point-in-time counters of a [`SpillStore`]. Occupancy quantities
/// (`spilled`, `spilled_bytes`) are gauges; the lifetime totals
/// (`evictions`, `rehydrations`) count codec round-trips, which depend on
/// budget and arrival order — all excluded from the count-metric
/// determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Entities evicted into the store over the layer's lifetime
    /// (including flush round-trips).
    pub evictions: u64,
    /// Entities rehydrated out of the store over the layer's lifetime.
    pub rehydrations: u64,
    /// Entities currently spilled.
    pub spilled: u64,
    /// Encoded bytes currently spilled (memory tier: heap bytes held;
    /// directory tier: file bytes on disk).
    pub spilled_bytes: u64,
    /// Directory-tier write failures absorbed by falling back to the
    /// memory tier.
    pub disk_errors: u64,
    /// Spilled entities whose blob could not be read back (directory-tier
    /// file lost or corrupt under us). The entity re-enters the pipeline
    /// fresh, like a supervised restart; 0 on a healthy disk.
    pub rehydrate_failures: u64,
}

/// Where one entity's encoded checkpoint lives.
enum Slot {
    /// Encoded blob held in the memory tier's slab arena.
    Mem(MemRef),
    /// Blob written to the directory tier; the payload size is kept for
    /// byte accounting.
    Disk(u64),
}

impl Slot {
    fn bytes(&self) -> u64 {
        match self {
            Slot::Mem(r) => r.len as u64,
            Slot::Disk(n) => *n,
        }
    }
}

/// Blob size-class granularity: a blob occupies the smallest multiple of
/// this that fits it, so same-class cells are interchangeable.
const SLAB_GRANULE: usize = 256;

/// Slab segment size. Large segments keep the memory tier in a handful of
/// contiguous allocations instead of one heap allocation per entity.
const SLAB_SEGMENT_BYTES: usize = 1 << 20;

/// The size class of a `len`-byte blob (1-based; class × granule = cell).
fn blob_class(len: usize) -> usize {
    len.div_ceil(SLAB_GRANULE).max(1)
}

/// Handle to a blob in the [`BlobSlab`]: its cell index within its size
/// class plus the exact payload length (which also determines the class).
#[derive(Clone, Copy)]
struct MemRef {
    idx: u32,
    len: u32,
}

/// Fixed-cell slab for one size class: cells carved out of
/// [`SLAB_SEGMENT_BYTES`] segments, recycled through a free list.
struct ClassSlab {
    cell: usize,
    per_seg: usize,
    segments: Vec<Box<[u8]>>,
    free: Vec<u32>,
    next: u32,
}

impl ClassSlab {
    fn new(class: usize) -> Self {
        let cell = class * SLAB_GRANULE;
        Self {
            cell,
            per_seg: (SLAB_SEGMENT_BYTES / cell).max(1),
            segments: Vec::new(),
            free: Vec::new(),
            next: 0,
        }
    }

    fn store(&mut self, bytes: &[u8]) -> u32 {
        let idx = self.free.pop().unwrap_or_else(|| {
            let i = self.next;
            self.next += 1;
            i
        });
        let seg = idx as usize / self.per_seg;
        if seg == self.segments.len() {
            self.segments.push(vec![0u8; self.per_seg * self.cell].into_boxed_slice());
        }
        let off = (idx as usize % self.per_seg) * self.cell;
        self.segments[seg][off..off + bytes.len()].copy_from_slice(bytes);
        idx
    }

    fn get(&self, idx: u32, len: usize) -> &[u8] {
        let seg = idx as usize / self.per_seg;
        let off = (idx as usize % self.per_seg) * self.cell;
        &self.segments[seg][off..off + len]
    }

    fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }
}

/// The memory tier's blob arena. Spilled checkpoints are near-uniform in
/// size, so hundreds of thousands of them as individual heap allocations
/// scatter the allocator's arena across a huge address range — and the
/// per-record pipeline, which shares that allocator, pays for it in TLB
/// and cache locality (measured: every stage runs 20–40% slower with a
/// million individually-boxed blobs resident). The slab keeps blob bytes
/// out of the general heap entirely: size-classed fixed cells in 1 MiB
/// segments, free-listed, never individually freed.
#[derive(Default)]
struct BlobSlab {
    classes: Vec<Option<ClassSlab>>,
}

impl BlobSlab {
    fn store(&mut self, bytes: &[u8]) -> MemRef {
        let class = blob_class(bytes.len());
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, || None);
        }
        let slab = self.classes[class].get_or_insert_with(|| ClassSlab::new(class));
        MemRef { idx: slab.store(bytes), len: bytes.len() as u32 }
    }

    /// The blob behind `r`; empty (→ counted decode failure, not a panic)
    /// if the handle does not match a live cell.
    fn get(&self, r: MemRef) -> &[u8] {
        match self.classes.get(blob_class(r.len as usize)).and_then(|c| c.as_ref()) {
            Some(slab) => slab.get(r.idx, r.len as usize),
            None => &[],
        }
    }

    fn release(&mut self, r: MemRef) {
        if let Some(Some(slab)) = self.classes.get_mut(blob_class(r.len as usize)) {
            slab.release(r.idx);
        }
    }

    fn clear(&mut self) {
        self.classes.clear();
    }
}

/// The cold tier: spilled entity checkpoints, keyed by entity.
pub struct SpillStore {
    dir: Option<PathBuf>,
    /// `true` once the directory has been created.
    dir_ready: bool,
    slots: FxHashMap<EntityId, Slot>,
    /// Memory-tier blob storage (see [`BlobSlab`]).
    slab: BlobSlab,
    /// Persistent encode buffer: every [`spill`](Self::spill) encodes into
    /// this one allocation before copying into a slab cell or file, so the
    /// eviction hot path never touches the allocator.
    scratch: Vec<u8>,
    evictions: u64,
    rehydrations: u64,
    bytes: u64,
    disk_errors: u64,
    rehydrate_failures: u64,
}

/// The directory-tier file name of an entity: kind-prefixed so vessel 7
/// and aircraft 7 never collide.
fn file_name(entity: EntityId) -> String {
    let kind = match entity.kind {
        MovingKind::Vessel => 'v',
        MovingKind::Aircraft => 'a',
    };
    format!("{kind}{}.ent", entity.id)
}

/// Decodes a checkpoint blob into `out` (exact-fit, trailing bytes
/// rejected), reusing `out`'s allocations.
fn decode_into_checkpoint(bytes: &[u8], out: &mut EntityCheckpoint) -> bool {
    let mut r = ByteReader::new(bytes);
    out.decode_into(&mut r).is_ok() && r.finish().is_ok()
}

/// Writes `blob` to `dir/name` atomically (tmp + rename): a crash
/// mid-write never leaves a torn file under the final name. Not fsynced —
/// the spill store is a cache, not a durability tier.
fn write_atomic(dir: &Path, name: &str, blob: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    fs::write(&tmp, blob)?;
    fs::rename(&tmp, dir.join(name))?;
    Ok(())
}

impl SpillStore {
    /// An empty store; `dir` selects the directory tier.
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self {
            dir,
            dir_ready: false,
            slots: FxHashMap::default(),
            slab: BlobSlab::default(),
            scratch: Vec::new(),
            evictions: 0,
            rehydrations: 0,
            bytes: 0,
            disk_errors: 0,
            rehydrate_failures: 0,
        }
    }

    /// Whether this entity is currently spilled.
    pub fn contains(&self, entity: EntityId) -> bool {
        self.slots.contains_key(&entity)
    }

    /// Entities currently spilled.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing is spilled.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Encoded bytes currently spilled.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The spilled entity ids, unsorted.
    pub fn ids(&self) -> Vec<EntityId> {
        self.slots.keys().copied().collect()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> SpillStats {
        SpillStats {
            evictions: self.evictions,
            rehydrations: self.rehydrations,
            spilled: self.slots.len() as u64,
            spilled_bytes: self.bytes,
            disk_errors: self.disk_errors,
            rehydrate_failures: self.rehydrate_failures,
        }
    }

    /// Parks an entity checkpoint in the store (directory tier when
    /// configured and writable, memory tier otherwise). Re-spilling an
    /// already-spilled entity replaces its blob.
    pub fn spill(&mut self, ckpt: &EntityCheckpoint) {
        encode_into(ckpt, &mut self.scratch);
        let n = self.scratch.len() as u64;
        let slot = match self.dir.clone() {
            Some(dir) => {
                if !self.dir_ready {
                    self.dir_ready = fs::create_dir_all(&dir).is_ok();
                }
                if self.dir_ready
                    && write_atomic(&dir, &file_name(ckpt.entity), &self.scratch).is_ok()
                {
                    Slot::Disk(n)
                } else {
                    self.disk_errors += 1;
                    Slot::Mem(self.slab.store(&self.scratch))
                }
            }
            None => Slot::Mem(self.slab.store(&self.scratch)),
        };
        if let Some(old) = self.slots.insert(ckpt.entity, slot) {
            self.bytes -= old.bytes();
            if let Slot::Mem(r) = old {
                self.slab.release(r);
            }
        }
        self.bytes += n;
        self.evictions += 1;
    }

    /// Removes and decodes an entity's checkpoint. `None` when the entity
    /// is not spilled — or, on the directory tier, when its file was lost
    /// or corrupted under us (counted in
    /// [`rehydrate_failures`](SpillStats::rehydrate_failures); the caller
    /// lets the entity re-enter fresh, like a restart).
    pub fn take(&mut self, entity: EntityId) -> Option<EntityCheckpoint> {
        if !self.slots.contains_key(&entity) {
            return None;
        }
        let mut out = EntityCheckpoint::empty();
        self.take_into(entity, &mut out).then_some(out)
    }

    /// [`take`](Self::take) into an existing checkpoint, reusing its
    /// history and window allocations (the rehydration hot path decodes
    /// through one recycled scratch value). Returns `false` when the
    /// entity is not spilled or its blob fails to decode — in the failure
    /// case `out` is partially overwritten and must be treated as garbage,
    /// and the same accounting as [`take`](Self::take) applies (the entity
    /// is dropped from the store, the failure is counted).
    pub fn take_into(&mut self, entity: EntityId, out: &mut EntityCheckpoint) -> bool {
        let Some(slot) = self.slots.remove(&entity) else {
            return false;
        };
        self.bytes -= slot.bytes();
        let decoded = match slot {
            Slot::Mem(r) => {
                let decoded = decode_into_checkpoint(self.slab.get(r), out);
                self.slab.release(r);
                decoded
            }
            Slot::Disk(_) => {
                let Some(dir) = self.dir.as_ref() else {
                    self.rehydrate_failures += 1;
                    return false;
                };
                let path = dir.join(file_name(entity));
                let decoded = fs::read(&path)
                    .is_ok_and(|blob| decode_into_checkpoint(&blob, out));
                let _ = fs::remove_file(&path);
                decoded
            }
        };
        if decoded {
            self.rehydrations += 1;
        } else {
            self.rehydrate_failures += 1;
        }
        decoded
    }

    /// Decodes an entity's checkpoint without removing it (read-only
    /// queries and [`checkpoint_state`](crate::RealTimeLayer::checkpoint_state)
    /// peek through to spilled state).
    pub fn peek(&self, entity: EntityId) -> Option<EntityCheckpoint> {
        match self.slots.get(&entity)? {
            Slot::Mem(r) => decode_from_slice(self.slab.get(*r)).ok(),
            Slot::Disk(_) => {
                let path = self.dir.as_ref()?.join(file_name(entity));
                fs::read(&path).ok().and_then(|blob| decode_from_slice(&blob).ok())
            }
        }
    }

    /// Empties the store (restore-path reset: a restored checkpoint's
    /// entities are all resident, so any spilled blobs are stale).
    /// Directory-tier files are deleted; lifetime counters are kept.
    pub fn clear(&mut self) {
        if let Some(dir) = &self.dir {
            for (entity, slot) in &self.slots {
                if matches!(slot, Slot::Disk(_)) {
                    let _ = fs::remove_file(dir.join(file_name(*entity)));
                }
            }
        }
        self.slots.clear();
        self.slab.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{GeoPoint, PositionReport, Timestamp};
    use datacron_stream::cleaning::{CleaningConfig, StreamCleaner};
    use datacron_synopses::{SynopsesConfig, SynopsesGenerator};

    fn ckpt(id: u64) -> EntityCheckpoint {
        let entity = EntityId::vessel(id);
        let mut cleaner = StreamCleaner::new(CleaningConfig::maritime());
        let mut synopses = SynopsesGenerator::new(SynopsesConfig::maritime());
        let r = PositionReport {
            speed_mps: 8.0,
            heading_deg: 90.0,
            ..PositionReport::basic(entity, Timestamp::from_secs(10 * id as i64), GeoPoint::new(1.0, 40.0))
        };
        cleaner.check(&r);
        let mut cps = Vec::new();
        synopses.process(r, &mut cps);
        EntityCheckpoint {
            entity,
            cleaner: cleaner.state(),
            synopses: synopses.state(),
            history: vec![r],
            cep: None,
        }
    }

    #[test]
    fn memory_tier_round_trips() {
        let mut store = SpillStore::new(None);
        let c = ckpt(7);
        store.spill(&c);
        assert!(store.contains(EntityId::vessel(7)));
        assert!(store.bytes() > 0);
        let peeked = store.peek(EntityId::vessel(7)).expect("peek decodes");
        assert_eq!(format!("{peeked:?}"), format!("{c:?}"));
        let back = store.take(EntityId::vessel(7)).expect("take decodes");
        assert_eq!(format!("{back:?}"), format!("{c:?}"));
        assert!(store.is_empty());
        assert_eq!(store.bytes(), 0);
        let s = store.stats();
        assert_eq!((s.evictions, s.rehydrations, s.disk_errors), (1, 1, 0));
    }

    #[test]
    fn directory_tier_round_trips_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("datacron-spill-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = SpillStore::new(Some(dir.clone()));
        let c = ckpt(3);
        store.spill(&c);
        assert!(dir.join("v3.ent").exists(), "blob landed on disk");
        assert_eq!(store.stats().disk_errors, 0);
        let back = store.take(EntityId::vessel(3)).expect("take decodes");
        assert_eq!(format!("{back:?}"), format!("{c:?}"));
        assert!(!dir.join("v3.ent").exists(), "file reclaimed on rehydrate");
        store.spill(&ckpt(4));
        store.clear();
        assert!(!dir.join("v4.ent").exists(), "clear deletes the tier");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_disk_file_is_a_counted_rehydrate_failure() {
        let dir = std::env::temp_dir().join(format!("datacron-spill-lost-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = SpillStore::new(Some(dir.clone()));
        store.spill(&ckpt(9));
        fs::remove_file(dir.join("v9.ent")).expect("sabotage");
        assert!(store.take(EntityId::vessel(9)).is_none(), "blob is gone");
        assert_eq!(store.stats().rehydrate_failures, 1);
        assert!(!store.contains(EntityId::vessel(9)), "slot reclaimed either way");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn vessel_and_aircraft_ids_never_collide() {
        let mut store = SpillStore::new(None);
        let v = ckpt(1);
        let mut a = ckpt(1);
        a.entity = EntityId::aircraft(1);
        store.spill(&v);
        store.spill(&a);
        assert_eq!(store.len(), 2);
        assert_eq!(store.take(EntityId::aircraft(1)).unwrap().entity, EntityId::aircraft(1));
        assert_eq!(store.take(EntityId::vessel(1)).unwrap().entity, EntityId::vessel(1));
    }
}
