//! Sharded parallel stream execution with a deterministic merge.
//!
//! The paper's central scalability claim is that the online layer keeps up
//! with surveillance streams *by scaling with parallelism*: Flink
//! hash-partitions the keyed per-entity state across operator instances and
//! the output stream is reassembled downstream. This module reproduces that
//! execution model natively:
//!
//! * [`ShardAssigner`] — deterministic key → shard routing (Fx hash of the
//!   key, reduced modulo the shard count); the same key always lands on the
//!   same shard, so per-key processing order is preserved.
//! * [`SeqStamp`]/[`Stamped`] — every record is stamped at submission with
//!   a **global sequence number** (its position in the input stream), its
//!   shard, and a per-key sequence number.
//! * [`SequenceMerger`] — a reorder buffer that reassembles the shard
//!   outputs into the exact global input order, so the merged output stream
//!   is **bit-identical** to a single-threaded run over the same input, not
//!   merely per-key ordered.
//! * [`ShardedExecutor`] — N worker threads, each owning one [`ShardStage`]
//!   (a full per-key pipeline partition), fed through bounded
//!   [`Topic`]s with [`OverflowPolicy::Block`] so a saturated shard
//!   backpressures the submitter instead of buffering unboundedly.
//!
//! ## Ordering and determinism contract
//!
//! Records with the same key are processed by one shard in submission
//! order, so any deterministic per-key stage produces per-key outputs
//! identical to a sequential run. Because the merge orders by the global
//! stamp, the *interleaving* is also reproduced exactly: consuming
//! [`ShardedExecutor::poll`] yields outputs in submission order, always.
//!
//! ## Latency model
//!
//! The executor is time-critical, not merely throughput-oriented:
//!
//! * **Bounded admission window** — [`ShardedConfig::max_in_flight`] caps
//!   records submitted but not yet released by the merger; `submit` and
//!   `submit_batch` drain-and-wait when the window is full, so the reorder
//!   buffer can never balloon (`max_pending ≤ max_in_flight`, always).
//! * **Prompt handoff** — workers publish completed outputs as soon as the
//!   input queue is momentarily empty (a partial poll batch), falling back
//!   to batched handoff only when a backlog exists to amortize.
//! * **Event-driven waits** — every blocked edge (full shard queue, full
//!   admission window, shutdown wind-down) parks on a condvar ([`Topic::wait_for_space`], [`Consumer::poll_wait`]) and is
//!   woken by the progress that unblocks it; nothing busy-spins or sleeps
//!   on a fixed quantum in the common path.
//! * **Honest per-record latency** — every [`Stamped`] record carries its
//!   own routing-time [`Instant`], so the `exec.submit_to_merge_ns`
//!   histogram measures each record from submission to in-order release,
//!   not a per-drain smear.
//!
//! ## Consistent cuts
//!
//! Everything that needs the workers' state — end-of-stream flush, health,
//! metrics, checkpoints, a resize, the live KG's settle — goes through one
//! primitive, [`ShardedExecutor::at_cut`]: a closure is queued on every
//! shard behind the records already submitted, each worker runs it on its
//! stage once those records are processed and their outputs published, and
//! the results come back in shard order. The cut therefore reflects exactly
//! the records submitted before the call, and on return every one of their
//! outputs is merged and ready for [`ShardedExecutor::poll`].
//!
//! ## Failure model
//!
//! The executor is lossless by construction: every directive goes through
//! one send that retries the refused suffix in order (backpressure, not
//! loss), the output topic is unbounded (it retains only unpolled outputs,
//! which the admission window caps), and [`ShardedExecutor::finish`]
//! drains everything and reports `submitted == merged` (plus late/duplicate
//! counters from the merger, which must be zero). A worker that dies (a
//! stage panic escaping `on_batch`, or a cut closure that panics) is
//! detected when a send meets its full queue, while the admission window
//! waits on it, at the next quiet tick of a cut, or at `finish`, and
//! reported as a [`ShardPanic`] rather than a hang.

use crate::bus::{Consumer, OverflowPolicy, SpaceWaitError, Topic, TopicConfig};
use datacron_geo::hash::{fx_hash, FxHashMap};
use datacron_obs::{Gauge, LogHistogram, MetricsSnapshot, ObsRegistry};
use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Provenance stamps carried by every record through the sharded pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqStamp {
    /// The routing epoch the record was submitted under. Each live resize
    /// (executor teardown + re-spawn with a new [`ShardAssigner`]) starts a
    /// new epoch with a fresh gap-free sequence space; the merger uses the
    /// epoch to tell a stale pre-resize stamp from a current one.
    pub epoch: u64,
    /// Position in the epoch's input stream (0-based, gap-free per epoch).
    pub global_seq: u64,
    /// The shard that processed (or will process) the record.
    pub shard: u32,
    /// Position in the per-key substream (0-based per key).
    pub key_seq: u64,
}

/// A value plus its pipeline stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped<T> {
    /// The stamps.
    pub stamp: SeqStamp,
    /// When the coordinator routed the record (`None` when executor
    /// metrics are disabled). Carried through the worker unchanged, so the
    /// submit→merge latency of every record is measured against its *own*
    /// submission instant — not smeared across a batch or a drain.
    pub submitted_at: Option<Instant>,
    /// The value.
    pub value: T,
}

/// A closure every worker runs on its stage at a cut, given its shard id.
type CutJob<S> = Arc<dyn Fn(u32, &mut S) + Send + Sync>;

/// What flows down a shard's input topic.
enum Directive<S: ShardStage> {
    /// Process one stamped record.
    Record(Stamped<S::In>),
    /// Finish the queued records, publish their outputs, then run the
    /// closure on the stage (see [`ShardedExecutor::at_cut`]).
    Cut(CutJob<S>),
    /// Drain and exit, returning the stage to the coordinator.
    Shutdown,
}

// `Topic<T>` requires `T: Clone`; a derive would also demand `S: Clone`.
impl<S: ShardStage> Clone for Directive<S> {
    fn clone(&self) -> Self {
        match self {
            Self::Record(stamped) => Self::Record(stamped.clone()),
            Self::Cut(job) => Self::Cut(Arc::clone(job)),
            Self::Shutdown => Self::Shutdown,
        }
    }
}

/// Deterministic key → shard routing: Fx hash of the key reduced modulo
/// the shard count, with an optional hot-key override table consulted
/// first.
///
/// Routing is **total** (every key hash maps to exactly one shard in
/// `0..shards`) and **stable** (the same key always routes identically for
/// the same assigner). Overrides pin individual heavy keys — identified by
/// their hash — to explicit shards, so a rebalance can peel a hot entity
/// off an overloaded shard without touching anyone else's route.
#[derive(Debug, Clone)]
pub struct ShardAssigner {
    shards: u32,
    /// Hot-key pins: key hash → shard. Shared, immutable per assigner.
    overrides: Arc<FxHashMap<u64, u32>>,
}

impl ShardAssigner {
    /// An assigner over `shards` shards (at least 1), no overrides.
    pub fn new(shards: usize) -> Self {
        Self::with_overrides(shards, FxHashMap::default())
    }

    /// An assigner over `shards` shards with hot-key pins. Override targets
    /// must be valid shards.
    pub fn with_overrides(shards: usize, overrides: FxHashMap<u64, u32>) -> Self {
        assert!(shards >= 1, "at least one shard");
        assert!(shards <= u32::MAX as usize, "shard count fits u32");
        assert!(
            overrides.values().all(|&s| (s as usize) < shards),
            "override targets a shard out of range"
        );
        Self { shards: shards as u32, overrides: Arc::new(overrides) }
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The hot-key override table (key hash → pinned shard).
    pub fn overrides(&self) -> &FxHashMap<u64, u32> {
        &self.overrides
    }

    /// The shard a key routes to. Deterministic across runs and processes.
    pub fn assign<K: Hash>(&self, key: &K) -> u32 {
        self.assign_hashed(fx_hash(key))
    }

    /// The shard a pre-hashed key routes to (the submit hot path hashes
    /// once and reuses it for routing and per-key sequencing).
    pub fn assign_hashed(&self, key_hash: u64) -> u32 {
        if !self.overrides.is_empty() {
            if let Some(&shard) = self.overrides.get(&key_hash) {
                return shard;
            }
        }
        (key_hash % self.shards as u64) as u32
    }
}

/// When and how to rebalance a skewed shard fleet.
///
/// Hash partitioning spreads *keys* evenly but not *load*: one hot entity
/// (a busy port, a surveilled aircraft) can concentrate half the traffic
/// on one shard, and that shard's queue drives the whole pipeline's tail
/// latency. The policy watches per-shard routed-record loads, and when the
/// skew-adjusted imbalance exceeds the threshold it plans a set of hot-key
/// [`ShardAssigner`] overrides that isolates the heavy hitters on the
/// least-loaded shards.
///
/// The imbalance metric is `max shard load / max(mean shard load, max
/// single-key load)`: a shard carrying exactly one unsplittable hot key is
/// as balanced as hash routing can get, so 1.0 is the achievable floor and
/// the metric never blames the policy for skew it cannot remove.
#[derive(Debug, Clone)]
pub struct RebalancePolicy {
    /// Trigger threshold: rebalance when
    /// [`imbalance`](Self::imbalance) exceeds this (must be > 1.0).
    pub max_imbalance: f64,
    /// Minimum records routed in the current epoch before load estimates
    /// are trusted.
    pub min_records: u64,
    /// Minimum records routed between two automatic rebalances (a manual
    /// trigger ignores the cooldown).
    pub cooldown_records: u64,
    /// Override-table budget: at most this many heavy keys are pinned.
    pub max_overrides: usize,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        Self {
            max_imbalance: 1.5,
            min_records: 1024,
            cooldown_records: 4096,
            max_overrides: 64,
        }
    }
}

impl RebalancePolicy {
    /// Skew-adjusted load imbalance of a fleet: the heaviest shard's load
    /// over the larger of the mean shard load and the heaviest single
    /// key's load. 1.0 is perfectly balanced *given the key skew*; returns
    /// 1.0 for an idle fleet.
    pub fn imbalance(shard_loads: &[u64], max_key_load: u64) -> f64 {
        let total: u64 = shard_loads.iter().sum();
        if total == 0 || shard_loads.is_empty() {
            return 1.0;
        }
        let max_shard = *shard_loads.iter().max().expect("non-empty") as f64;
        let mean = total as f64 / shard_loads.len() as f64;
        max_shard / mean.max(max_key_load as f64)
    }

    /// Whether the policy wants an automatic rebalance: enough routed
    /// records to trust the estimate, cooldown elapsed, imbalance above
    /// threshold.
    pub fn should_rebalance(
        &self,
        shard_loads: &[u64],
        max_key_load: u64,
        routed_since_last: u64,
    ) -> bool {
        let total: u64 = shard_loads.iter().sum();
        total >= self.min_records
            && routed_since_last >= self.cooldown_records
            && Self::imbalance(shard_loads, max_key_load) > self.max_imbalance
    }

    /// Plans hot-key overrides for `shards` shards from observed per-key
    /// loads (`(key hash, records routed)`): heavy keys — those whose solo
    /// load exceeds the ideal per-shard share — are peeled off their hash
    /// shard and placed, heaviest first, on the currently least-loaded
    /// shard. Deterministic: ties break on shard index, then key hash.
    /// Returns the override table (empty when nothing is heavy).
    pub fn plan(&self, shards: usize, key_loads: &[(u64, u64)]) -> FxHashMap<u64, u32> {
        assert!(shards >= 1, "at least one shard");
        let total: u64 = key_loads.iter().map(|(_, n)| n).sum();
        if total == 0 || shards < 2 {
            return FxHashMap::default();
        }
        let ideal = total as f64 / shards as f64;
        let mut heavy: Vec<(u64, u64)> = key_loads
            .iter()
            .copied()
            .filter(|&(_, n)| n as f64 > ideal)
            .collect();
        // Heaviest first; hash tiebreak keeps the plan deterministic.
        heavy.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        heavy.truncate(self.max_overrides);
        if heavy.is_empty() {
            return FxHashMap::default();
        }
        // Base load per shard with the heavy keys lifted out of their hash
        // shards, then greedy least-loaded placement.
        let mut loads = vec![0u64; shards];
        for &(hash, n) in key_loads {
            if !heavy.iter().any(|&(h, _)| h == hash) {
                loads[(hash % shards as u64) as usize] += n;
            }
        }
        let mut overrides = FxHashMap::default();
        for (hash, n) in heavy {
            let target = loads
                .iter()
                .enumerate()
                .min_by_key(|(i, &l)| (l, *i))
                .map(|(i, _)| i)
                .expect("non-empty fleet");
            loads[target] += n;
            overrides.insert(hash, target as u32);
        }
        overrides
    }
}

/// A reorder buffer that restores global submission order from
/// shard-interleaved stamped outputs.
///
/// The merger is **routing-epoch aware**: a live resize tears the worker
/// fleet down and re-spawns it, restarting the gap-free sequence space
/// from 0 under a new epoch ([`with_epoch`](Self::with_epoch)). A stamp
/// from an older epoch arriving after the boundary is behind the release
/// cursor *by construction* (its epoch was fully released before the
/// boundary), so it is classified late — exactly like a same-epoch
/// re-delivery after release.
#[derive(Debug)]
pub struct SequenceMerger<T> {
    epoch: u64,
    next: u64,
    pending: BTreeMap<u64, T>,
    late: u64,
    duplicates: u64,
    max_pending: usize,
}

impl<T> Default for SequenceMerger<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SequenceMerger<T> {
    /// An empty merger in epoch 0, expecting sequence 0 first.
    pub fn new() -> Self {
        Self::with_epoch(0)
    }

    /// An empty merger starting in `epoch` — the resume path after a
    /// resize: the re-spawned executor's merger continues the epoch
    /// numbering, so stale pre-resize stamps stay classifiable.
    pub fn with_epoch(epoch: u64) -> Self {
        Self {
            epoch,
            next: 0,
            pending: BTreeMap::new(),
            late: 0,
            duplicates: 0,
            max_pending: 0,
        }
    }

    /// The current routing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Offers one stamped value; appends to `out` every value that became
    /// deliverable in order (possibly none, possibly many).
    ///
    /// A value whose sequence the merger has already released past —
    /// `global_seq < next` within the current epoch (a re-delivery after
    /// release, or a late arrival after an upstream lag skip), or any
    /// stamp from an **older epoch** (released in full before the resize
    /// boundary) — is dropped and counted as [`late`](Self::late); a value
    /// whose sequence is already buffered waiting for a gap is dropped and
    /// counted as [`duplicates`](Self::duplicates). The two failure modes
    /// are distinct: late records are an ordering violation, duplicates an
    /// at-most-once violation. A stamp from a *future* epoch is a protocol
    /// violation (the boundary starts only after the prior epoch fully
    /// drained) and is counted late as well, defensively.
    pub fn push(&mut self, epoch: u64, global_seq: u64, value: T, out: &mut Vec<T>) {
        if epoch != self.epoch || global_seq < self.next {
            self.late += 1;
            return;
        }
        if self.pending.contains_key(&global_seq) {
            self.duplicates += 1;
            return;
        }
        self.pending.insert(global_seq, value);
        self.max_pending = self.max_pending.max(self.pending.len());
        while let Some(v) = self.pending.remove(&self.next) {
            out.push(v);
            self.next += 1;
        }
    }

    /// The next global sequence number the merger will release — equal to
    /// the number of values released so far.
    pub fn released(&self) -> u64 {
        self.next
    }

    /// Values buffered waiting for a gap to fill.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// High-water mark of the reorder buffer.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Stamped values that arrived after their sequence was already
    /// released (must be 0 in a healthy pipeline).
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Stamped values that arrived twice while the first copy was still
    /// buffered (must be 0 in a healthy pipeline).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// `true` when nothing is buffered out of order.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }
}

/// One shard's worth of pipeline: a stateful per-key stage.
///
/// Everything else a caller needs from the stage (flush, health, metrics,
/// checkpoint) is a closure run at a consistent cut
/// ([`ShardedExecutor::at_cut`]), so the trait carries only the record
/// path.
pub trait ShardStage: Send + 'static {
    /// Input record type.
    type In: Send + Clone + 'static;
    /// Per-record output type.
    type Out: Send + Clone + 'static;

    /// Processes a run of records as one batch, draining `inputs` and
    /// appending exactly one output per input to `out`, in order. Records
    /// sharing a key arrive in submission order; runs are cut at cuts and
    /// poll-batch boundaries, so the outputs must not depend on where a run
    /// was cut.
    fn on_batch(&mut self, inputs: &mut Vec<Self::In>, out: &mut Vec<Self::Out>);
}

/// Capacity and pacing knobs of the sharded executor.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Worker thread / shard count.
    pub shards: usize,
    /// Bounded capacity of each shard's input topic; a full queue
    /// backpressures [`ShardedExecutor::submit`].
    pub queue_capacity: usize,
    /// Bounded admission window: the maximum number of records in flight
    /// at once (submitted but not yet released by the merger, wherever
    /// they sit — shard queue, stage, output topic or reorder buffer).
    /// [`submit`](ShardedExecutor::submit)/[`submit_batch`](ShardedExecutor::submit_batch)
    /// drain-and-wait when the window is full, so the reorder buffer is
    /// hard-bounded: `SequenceMerger::max_pending() ≤ max_in_flight` on
    /// every run. `None` disables admission control (in-flight records are
    /// then bounded only by the shard queue capacities) — a throughput
    /// knob that forfeits the latency bound.
    pub max_in_flight: Option<usize>,
    /// Whether the executor keeps its own observability instruments
    /// (per-shard queue-depth gauges, merge-buffer occupancy, submit→merge
    /// latency). Disabling removes all metric cost from the submit path.
    pub metrics: bool,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            max_in_flight: Some(4096),
            metrics: true,
        }
    }
}

impl ShardedConfig {
    /// A config with the given shard count and defaults otherwise.
    pub fn with_shards(shards: usize) -> Self {
        Self { shards, ..Self::default() }
    }
}

/// A shard worker died mid-run (a panic escaped `on_batch` or a cut).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPanic {
    /// Which shard.
    pub shard: u32,
    /// The panic message, when it was a string.
    pub message: String,
}

impl std::fmt::Display for ShardPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} worker panicked: {}", self.shard, self.message)
    }
}

impl std::error::Error for ShardPanic {}

/// Everything `finish` hands back after a clean drain.
#[derive(Debug)]
pub struct FinishedRun<S: ShardStage> {
    /// Merged outputs not yet taken via `poll`, in global order.
    pub outputs: Vec<S::Out>,
    /// The per-shard stages, in shard order, for post-run inspection.
    pub stages: Vec<S>,
    /// Records submitted over the executor's lifetime.
    pub submitted: u64,
    /// Outputs released by the merger over the executor's lifetime
    /// (== `submitted` on a lossless run).
    pub merged: u64,
    /// Stamped outputs that arrived after their sequence was already
    /// released (must be 0).
    pub late: u64,
    /// Duplicate stamped outputs observed while the first copy was still
    /// pending (must be 0).
    pub duplicates: u64,
    /// High-water mark of the reorder buffer (never exceeds
    /// [`ShardedConfig::max_in_flight`] when the window is enabled).
    pub max_reorder: usize,
}

/// N worker threads, each owning one [`ShardStage`], fed over bounded
/// backpressured topics, with outputs merged back into submission order.
pub struct ShardedExecutor<S: ShardStage> {
    assigner: ShardAssigner,
    inputs: Vec<Arc<Topic<Directive<S>>>>,
    output_consumer: Consumer<Stamped<S::Out>>,
    workers: Vec<JoinHandle<S>>,
    key_seqs: FxHashMap<u64, u64>,
    /// Records routed to each shard this epoch — the load signal behind
    /// the `exec.shard{i}.routed` gauges and [`RebalancePolicy`].
    shard_routed: Vec<u64>,
    epoch: u64,
    merger: SequenceMerger<Stamped<S::Out>>,
    ready: Vec<S::Out>,
    /// Reused buffer for outputs released by one merger push-batch.
    released_scratch: Vec<Stamped<S::Out>>,
    next_seq: u64,
    max_in_flight: Option<usize>,
    obs: ObsRegistry,
    queue_depth_gauges: Vec<Gauge>,
    routed_gauges: Vec<Gauge>,
    merge_pending_gauge: Gauge,
    merge_late_gauge: Gauge,
    merge_duplicates_gauge: Gauge,
    in_flight_gauge: Gauge,
    submit_to_merge_ns: LogHistogram,
}

impl<S: ShardStage> ShardedExecutor<S> {
    /// Spawns the shard workers. `make` is called once per shard, on the
    /// caller's thread, to build that shard's stage.
    pub fn new(config: ShardedConfig, make: impl FnMut(u32) -> S) -> Self {
        let assigner = ShardAssigner::new(config.shards);
        Self::with_assigner(config, assigner, 0, make)
    }

    /// Spawns the shard workers under an explicit routing assigner and
    /// epoch — the resume path after a live resize: the new fleet carries
    /// the rebalanced routes and continues the epoch numbering, so any
    /// stale pre-resize stamp is classifiable. `config.shards` must match
    /// the assigner's shard count.
    pub fn with_assigner(
        config: ShardedConfig,
        assigner: ShardAssigner,
        epoch: u64,
        mut make: impl FnMut(u32) -> S,
    ) -> Self {
        assert_eq!(
            config.shards,
            assigner.shards(),
            "config and assigner disagree on the shard count"
        );
        // The merged-output topic is unbounded, so a worker never waits on
        // the coordinator. It keeps only what the coordinator has not
        // polled yet, which the admission window caps.
        let output = Topic::new("shard-outputs");
        let output_consumer = output.consumer();
        let obs = if config.metrics {
            ObsRegistry::new()
        } else {
            ObsRegistry::disabled()
        };
        let mut inputs = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for shard in 0..config.shards as u32 {
            // A zero block timeout: a full queue refuses the publish
            // immediately and the coordinator's `send` parks on
            // `wait_for_space`, where it can also tell a dead worker
            // (no consumer left) from a slow one.
            let input: Arc<Topic<Directive<S>>> = Topic::with_config(
                format!("shard-{shard}-input"),
                TopicConfig {
                    capacity: Some(config.queue_capacity),
                    policy: OverflowPolicy::Block,
                    block_timeout: Duration::ZERO,
                },
            );
            let stage = make(shard);
            let worker = {
                let input = Arc::clone(&input);
                let output = Arc::clone(&output);
                std::thread::Builder::new()
                    .name(format!("datacron-shard-{shard}"))
                    .spawn(move || worker_loop(shard, stage, input, output))
                    .expect("spawn shard worker")
            };
            inputs.push(input);
            workers.push(worker);
        }
        let queue_depth_gauges = (0..config.shards)
            .map(|shard| obs.gauge(&format!("exec.shard{shard}.queue_depth")))
            .collect();
        let routed_gauges = (0..config.shards)
            .map(|shard| obs.gauge(&format!("exec.shard{shard}.routed")))
            .collect();
        let merge_pending_gauge = obs.gauge("exec.merge.pending");
        let merge_late_gauge = obs.gauge("exec.merge.late");
        let merge_duplicates_gauge = obs.gauge("exec.merge.duplicates");
        let in_flight_gauge = obs.gauge("exec.in_flight");
        let submit_to_merge_ns = obs.histogram("exec.submit_to_merge_ns");
        Self {
            shard_routed: vec![0; config.shards],
            assigner,
            inputs,
            output_consumer,
            workers,
            key_seqs: FxHashMap::default(),
            epoch,
            merger: SequenceMerger::with_epoch(epoch),
            ready: Vec::new(),
            released_scratch: Vec::new(),
            next_seq: 0,
            max_in_flight: config.max_in_flight,
            obs,
            queue_depth_gauges,
            routed_gauges,
            merge_pending_gauge,
            merge_late_gauge,
            merge_duplicates_gauge,
            in_flight_gauge,
            submit_to_merge_ns,
        }
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.assigner.shards()
    }

    /// The routing assigner (shard count + hot-key overrides).
    pub fn assigner(&self) -> &ShardAssigner {
        &self.assigner
    }

    /// The routing epoch this fleet runs under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records routed to each shard this epoch, in shard order — the load
    /// signal for [`RebalancePolicy`].
    pub fn shard_loads(&self) -> &[u64] {
        &self.shard_routed
    }

    /// Records routed per key hash this epoch, unsorted — the heavy-hitter
    /// signal for [`RebalancePolicy::plan`].
    pub fn key_loads(&self) -> Vec<(u64, u64)> {
        self.key_seqs.iter().map(|(&h, &n)| (h, n)).collect()
    }

    /// Records submitted so far.
    pub fn submitted(&self) -> u64 {
        self.next_seq
    }

    /// Outputs merged back into global order so far.
    pub fn merged(&self) -> u64 {
        self.merger.released()
    }

    /// Records in flight: submitted but not yet released by the merger.
    pub fn in_flight(&self) -> usize {
        (self.next_seq - self.merger.released()) as usize
    }

    /// Routes one keyed record to its shard, blocking (backpressure) while
    /// the admission window or that shard's queue is full. Returns the
    /// record's stamps.
    ///
    /// A full shard queue parks the call until that worker consumes; it
    /// does not drain outputs meanwhile (workers never wait on the
    /// unbounded output topic, so none is needed for progress). Once the
    /// record is queued, finished outputs are drained into the internal
    /// ready buffer, so the merge stays current for the next poll.
    ///
    /// # Panics
    /// Panics with the shard's [`ShardPanic`] when the record's shard
    /// worker has died and its queue is full.
    pub fn submit(&mut self, key: &impl Hash, input: S::In) -> SeqStamp {
        self.await_admission();
        let stamped = self.stamp(key, input);
        let stamp = stamped.stamp;
        self.send(stamp.shard as usize, [Directive::Record(stamped)]);
        self.drain_outputs();
        stamp
    }

    /// Submits a batch of keyed records with **one handoff per shard**:
    /// records are grouped by destination shard and appended to each shard
    /// queue under a single lock acquisition ([`Topic::publish_batch_all`]),
    /// retrying refused suffixes so nothing is lost. The admission window
    /// applies to every record: the batch is admitted in window-sized
    /// chunks, draining between chunks, so `max_pending ≤ max_in_flight`
    /// holds mid-batch too. Backpressure and a dead worker behave as in
    /// [`submit`](Self::submit).
    pub fn submit_batch<K: Hash>(&mut self, items: impl IntoIterator<Item = (K, S::In)>) {
        let mut per_shard: Vec<Vec<Directive<S>>> = (0..self.shards()).map(|_| Vec::new()).collect();
        let mut items = items.into_iter();
        loop {
            self.await_admission();
            let budget = match self.max_in_flight {
                Some(max) => max.max(1) - self.in_flight(),
                None => usize::MAX,
            };
            let mut taken = 0usize;
            for (key, input) in items.by_ref().take(budget) {
                let stamped = self.stamp(&key, input);
                per_shard[stamped.stamp.shard as usize].push(Directive::Record(stamped));
                taken += 1;
            }
            if taken == 0 {
                break;
            }
            for (shard, batch) in per_shard.iter_mut().enumerate() {
                if !batch.is_empty() {
                    self.send(shard, batch.drain(..));
                }
            }
            self.drain_outputs();
        }
    }

    /// Stamps one keyed record for its shard: the next global sequence,
    /// the key's next sequence and, when metrics are on, the routing
    /// instant.
    fn stamp(&mut self, key: &impl Hash, value: S::In) -> Stamped<S::In> {
        let submitted_at = self.obs.is_enabled().then(Instant::now);
        let key_hash = fx_hash(key);
        let shard = self.assigner.assign_hashed(key_hash);
        let key_seq = self.key_seqs.entry(key_hash).or_insert(0);
        let stamp = SeqStamp {
            epoch: self.epoch,
            global_seq: self.next_seq,
            shard,
            key_seq: *key_seq,
        };
        *key_seq += 1;
        self.next_seq += 1;
        self.shard_routed[shard as usize] += 1;
        Stamped { stamp, submitted_at, value }
    }

    /// Takes every output whose global order is already reassembled, in
    /// submission order. Non-blocking.
    pub fn poll(&mut self) -> Vec<S::Out> {
        self.drain_outputs();
        std::mem::take(&mut self.ready)
    }

    /// Like [`poll`](Self::poll), but when nothing is ready yet, parks on
    /// the output topic (condvar-woken by the next worker publish) for up
    /// to `timeout`. The event-driven way to observe merges promptly
    /// without spinning — a low-rate consumer sees each output
    /// microseconds after its worker finishes, not at its own next poll.
    pub fn poll_timeout(&mut self, timeout: Duration) -> Vec<S::Out> {
        self.drain_outputs();
        if self.ready.is_empty() && self.in_flight() > 0 {
            self.absorb_outputs(timeout);
            self.drain_outputs();
        }
        std::mem::take(&mut self.ready)
    }

    /// Blocks while the admission window is full, draining outputs
    /// (event-driven: parked on the output consumer, woken by worker
    /// publishes) until at least one slot frees.
    fn await_admission(&mut self) {
        let Some(max) = self.max_in_flight else {
            return;
        };
        let max = max.max(1);
        if self.in_flight() < max {
            return;
        }
        loop {
            self.drain_outputs();
            if self.in_flight() < max {
                return;
            }
            if !self.absorb_outputs(OUTPUT_WAIT) {
                // Sustained silence with a full window: make sure the
                // records we are waiting on can still arrive.
                self.panic_if_worker_died();
            }
        }
    }

    /// Fails fast when a shard worker died while the executor is still
    /// accepting records: its queued records can never merge, so a
    /// submit-side wait would hang forever. Never called on the shutdown
    /// path, where finished workers are the expected state.
    fn panic_if_worker_died(&mut self) {
        for shard in 0..self.workers.len() {
            self.panic_if_shard_died(shard);
        }
    }

    fn panic_if_shard_died(&mut self, shard: usize) {
        if self.workers[shard].is_finished() {
            let message = match self.workers.remove(shard).join() {
                Err(payload) => crate::operator::panic_message(payload.as_ref()),
                Ok(_) => "worker exited without a shutdown directive".to_string(),
            };
            panic!("{}", ShardPanic { shard: shard as u32, message });
        }
    }

    /// Absorbs every worker output published so far. Non-blocking.
    fn drain_outputs(&mut self) {
        while self.absorb_outputs(Duration::ZERO) {}
    }

    /// Absorbs one poll of up to [`OUTPUT_DRAIN_BATCH`] worker outputs,
    /// parking up to `wait` for the first one (`Duration::ZERO` does not
    /// park). Returns whether anything arrived.
    fn absorb_outputs(&mut self, wait: Duration) -> bool {
        let polled = if wait.is_zero() {
            self.output_consumer.poll(OUTPUT_DRAIN_BATCH)
        } else {
            self.output_consumer.poll_wait(OUTPUT_DRAIN_BATCH, wait)
        };
        let batch = polled.unwrap_or_else(|lagged| {
            unreachable!("unbounded output topic never truncates unread data: {lagged:?}")
        });
        let arrived = !batch.is_empty();
        self.absorb(batch);
        arrived
    }

    /// Feeds one batch of stamped worker outputs through the reorder
    /// buffer, recording submit→merge latency for every record released:
    /// one release instant per batch (they became globally ordered
    /// together, at this moment) against each record's own routing-time
    /// stamp.
    fn absorb(&mut self, batch: Vec<Stamped<S::Out>>) {
        for stamped in batch {
            self.merger.push(
                stamped.stamp.epoch,
                stamped.stamp.global_seq,
                stamped,
                &mut self.released_scratch,
            );
        }
        if self.released_scratch.is_empty() {
            return;
        }
        let now = if self.obs.is_enabled() { Some(Instant::now()) } else { None };
        for stamped in self.released_scratch.drain(..) {
            if let (Some(now), Some(t0)) = (now, stamped.submitted_at) {
                let ns = now.duration_since(t0).as_nanos();
                self.submit_to_merge_ns.record(ns.min(u64::MAX as u128) as u64);
            }
            self.ready.push(stamped.value);
        }
    }

    /// Appends directives to one shard queue, in order, under one lock per
    /// attempt, parking on the queue's space between backpressure retries
    /// (never dropping, never draining outputs: workers do not wait on the
    /// coordinator). A full queue with no consumer left belongs to a dead
    /// worker (a worker drops its consumer only on exit, and exits cleanly
    /// only on its own `Shutdown`, which is sent once and last), so only
    /// that shard is checked and its [`ShardPanic`] raised — otherwise
    /// nothing would ever free the space and the send would spin forever.
    fn send(&mut self, shard: usize, msgs: impl IntoIterator<Item = Directive<S>>) {
        let (_, mut refused) = self.inputs[shard].publish_batch_all(msgs);
        while !refused.is_empty() {
            if self.inputs[shard].wait_for_space(COORD_SPACE_WAIT) == Err(SpaceWaitError::NoConsumers) {
                self.panic_if_shard_died(shard);
            }
            refused = self.inputs[shard].publish_batch_all(refused).1;
        }
    }

    /// Runs `job` on every shard's stage at a **consistent cut** and returns
    /// the results in shard order.
    ///
    /// The job is queued behind every record already submitted, so each
    /// worker runs it only after processing those records and publishing
    /// their outputs: the cut reflects exactly the records submitted before
    /// the call, none after. On return every earlier output is merged —
    /// `in_flight() == 0` and the next [`poll`](Self::poll) returns them
    /// all, in order. Flush, health, metrics, checkpoints and resizes are
    /// all callers; `at_cut(|_, _| ())` is a bare settle.
    ///
    /// # Panics
    /// Panics with the worker's [`ShardPanic`] when a shard dies before
    /// answering (checked when its full queue refuses the cut and on every
    /// quiet tick, so within milliseconds), and when a live shard has not
    /// answered after a minute.
    pub fn at_cut<R: Send + 'static>(
        &mut self,
        job: impl Fn(u32, &mut S) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let (tx, rx) = mpsc::channel();
        let cut: CutJob<S> = Arc::new(move |shard, stage: &mut S| {
            // The receiver is gone only if the coordinator panicked mid-cut.
            let _ = tx.send((shard, job(shard, stage)));
        });
        for shard in 0..self.shards() {
            self.send(shard, [Directive::Cut(Arc::clone(&cut))]);
        }
        let mut got: Vec<Option<R>> = (0..self.shards()).map(|_| None).collect();
        let mut remaining = got.len();
        let deadline = Instant::now() + CUT_TIMEOUT;
        while remaining > 0 {
            match rx.recv_timeout(CUT_TICK) {
                Ok((shard, result)) => {
                    // Each worker runs the job once, so each slot fills once.
                    got[shard as usize] = Some(result);
                    remaining -= 1;
                }
                Err(_) => {
                    // `cut` still holds a sender, so this is a quiet tick.
                    self.panic_if_worker_died();
                    assert!(
                        Instant::now() < deadline,
                        "cut timed out with {remaining} shard(s) unresponsive"
                    );
                }
            }
        }
        self.drain_outputs();
        got.into_iter().map(|r| r.expect("every shard answered")).collect()
    }

    /// The executor's own instruments (timing/occupancy-typed only, never
    /// counters — so merged per-shard counter metrics stay bit-identical to
    /// a single-threaded run): per-shard queue depth, merge-buffer
    /// occupancy, in-flight records, and submit→merge latency. Gauges are
    /// refreshed at call time. Empty when metrics are disabled.
    pub fn obs_snapshot(&self) -> MetricsSnapshot {
        if self.obs.is_enabled() {
            for (shard, gauge) in self.queue_depth_gauges.iter().enumerate() {
                gauge.set(self.inputs[shard].retained() as i64);
            }
            for (shard, gauge) in self.routed_gauges.iter().enumerate() {
                gauge.set(self.shard_routed[shard] as i64);
            }
            self.merge_pending_gauge.set(self.merger.pending() as i64);
            self.in_flight_gauge
                .set((self.next_seq - self.merger.released()) as i64);
            self.merge_late_gauge.set(self.merger.late() as i64);
            self.merge_duplicates_gauge
                .set(self.merger.duplicates() as i64);
        }
        self.obs.snapshot()
    }

    /// Shuts the workers down, drains every in-flight record, and returns
    /// the merged remainder plus the per-shard stages. Lossless: on return,
    /// `merged == submitted` unless a worker died, in which case this
    /// panics with the shard's [`ShardPanic`] message.
    pub fn finish(mut self) -> FinishedRun<S> {
        for shard in 0..self.shards() {
            self.send(shard, [Directive::Shutdown]);
        }
        // Event-driven wind-down: park on the output topic and absorb until
        // every submitted record has merged — at that point no worker can be
        // blocked publishing, so joining is safe and immediate. Waking is
        // condvar-driven (worker publishes), not sleep-quantized. If a
        // worker died mid-run some records can never merge; the all-finished
        // check below breaks the wait so the join can surface its panic.
        while self.merger.released() < self.next_seq {
            if !self.absorb_outputs(OUTPUT_WAIT) && self.workers.iter().all(|w| w.is_finished()) {
                break;
            }
        }
        let mut stages = Vec::with_capacity(self.workers.len());
        for (shard, worker) in self.workers.drain(..).enumerate() {
            match worker.join() {
                Ok(stage) => stages.push(stage),
                Err(payload) => {
                    let message = crate::operator::panic_message(payload.as_ref());
                    panic!("{}", ShardPanic { shard: shard as u32, message });
                }
            }
        }
        // All workers have exited; everything they published is in the
        // output topic.
        self.drain_outputs();
        let outputs = std::mem::take(&mut self.ready);
        assert!(
            self.merger.is_drained(),
            "merger holds {} out-of-order outputs after full drain (lost records?)",
            self.merger.pending()
        );
        FinishedRun {
            outputs,
            stages,
            submitted: self.next_seq,
            merged: self.merger.released(),
            late: self.merger.late(),
            duplicates: self.merger.duplicates(),
            max_reorder: self.merger.max_pending(),
        }
    }
}

/// How many directives a worker pulls per wakeup.
const WORKER_BATCH: usize = 256;
/// How long a worker parks waiting for input before re-checking.
const WORKER_PARK: Duration = Duration::from_millis(50);
/// Upper bound on one coordinator park for input-queue space. The common
/// wake path is the worker's consume → condvar; a dying worker's consumer
/// drop wakes it too.
const COORD_SPACE_WAIT: Duration = Duration::from_millis(1);
/// Upper bound on one coordinator park for output data.
const OUTPUT_WAIT: Duration = Duration::from_millis(50);
/// How many outputs the coordinator pulls per drain step.
const OUTPUT_DRAIN_BATCH: usize = 4096;
/// How long a cut waits for an answer before checking worker liveness.
const CUT_TICK: Duration = Duration::from_millis(10);
/// How long a cut waits on live but silent workers before giving up.
const CUT_TIMEOUT: Duration = Duration::from_secs(60);

fn worker_loop<S: ShardStage>(
    shard: u32,
    mut stage: S,
    input: Arc<Topic<Directive<S>>>,
    output: Arc<Topic<Stamped<S::Out>>>,
) -> S {
    let mut consumer = input.consumer();
    // Run accumulators: consecutive records are grouped and handed to the
    // stage's `on_batch` in one call (runs are cut at cuts and at
    // poll-batch ends); stamps ride in a parallel array and are re-zipped
    // with the outputs, so stamping is untouched by batching.
    let mut run_inputs: Vec<S::In> = Vec::new();
    let mut run_stamps: Vec<(SeqStamp, Option<Instant>)> = Vec::new();
    let mut run_scratch: Vec<S::Out> = Vec::new();
    loop {
        let batch = consumer
            .poll_wait(WORKER_BATCH, WORKER_PARK)
            .unwrap_or_else(|lagged| {
                unreachable!("Block-bounded input topic never truncates unread data: {lagged:?}")
            });
        // Prompt handoff: a partial batch means the input queue was
        // momentarily empty — the pipeline is in tail/low-rate mode, so
        // publish each output as it is produced (latency over batching). A
        // full batch means backlog — amortize the handoff lock per batch.
        let prompt = batch.len() < WORKER_BATCH;
        for directive in batch {
            match directive {
                Directive::Record(stamped) => {
                    run_stamps.push((stamped.stamp, stamped.submitted_at));
                    run_inputs.push(stamped.value);
                    if prompt || run_inputs.len() >= WORKER_BATCH {
                        drain_run(&mut stage, &mut run_inputs, &mut run_stamps, &mut run_scratch, &output);
                    }
                }
                Directive::Cut(job) => {
                    drain_run(&mut stage, &mut run_inputs, &mut run_stamps, &mut run_scratch, &output);
                    job(shard, &mut stage);
                }
                Directive::Shutdown => {
                    drain_run(&mut stage, &mut run_inputs, &mut run_stamps, &mut run_scratch, &output);
                    return stage;
                }
            }
        }
        // Batched handoff: one publish per input batch, not per record.
        drain_run(&mut stage, &mut run_inputs, &mut run_stamps, &mut run_scratch, &output);
    }
}

/// Feeds the accumulated run through the stage's `on_batch` and publishes
/// the outputs, re-zipped with their stamps, in one append, leaving the
/// run buffers empty (allocations retained). The output topic is unbounded
/// (the admission window bounds what it holds), so nothing is ever refused
/// and the worker never waits on the coordinator.
fn drain_run<S: ShardStage>(
    stage: &mut S,
    inputs: &mut Vec<S::In>,
    stamps: &mut Vec<(SeqStamp, Option<Instant>)>,
    scratch: &mut Vec<S::Out>,
    output: &Topic<Stamped<S::Out>>,
) {
    if inputs.is_empty() {
        return;
    }
    stage.on_batch(inputs, scratch);
    debug_assert!(inputs.is_empty(), "on_batch must drain its inputs");
    debug_assert_eq!(scratch.len(), stamps.len(), "on_batch must emit one output per input");
    let outputs = stamps.drain(..).zip(scratch.drain(..));
    output.publish_batch(outputs.map(|((stamp, submitted_at), value)| Stamped { stamp, submitted_at, value }));
    inputs.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles its input and counts the records it has seen.
    struct Doubler {
        seen: u64,
    }

    impl ShardStage for Doubler {
        type In = u64;
        type Out = u64;

        fn on_batch(&mut self, inputs: &mut Vec<u64>, out: &mut Vec<u64>) {
            self.seen += inputs.len() as u64;
            out.extend(inputs.drain(..).map(|x| x * 2));
        }
    }

    /// Dies on a sentinel input, like a stage with a bug.
    struct Poisoned;

    const POISON: u64 = 13;

    impl ShardStage for Poisoned {
        type In = u64;
        type Out = u64;

        fn on_batch(&mut self, inputs: &mut Vec<u64>, out: &mut Vec<u64>) {
            assert!(!inputs.contains(&POISON), "poison record");
            out.append(inputs);
        }
    }

    #[test]
    fn assigner_is_deterministic_and_stable() {
        let a = ShardAssigner::new(4);
        for key in 0..1000u64 {
            assert_eq!(a.assign(&key), a.assign(&key));
            assert!(a.assign(&key) < 4);
        }
        assert_eq!(ShardAssigner::new(1).assign(&99u64), 0);
    }

    #[test]
    fn merger_restores_global_order() {
        let mut m = SequenceMerger::new();
        let mut out = Vec::new();
        m.push(0, 2, "c", &mut out);
        m.push(0, 0, "a", &mut out);
        assert_eq!(out, vec!["a"]);
        m.push(0, 1, "b", &mut out);
        assert_eq!(out, vec!["a", "b", "c"]);
        assert!(m.is_drained());
        assert_eq!(m.released(), 3);
        assert_eq!(m.duplicates(), 0);
        assert_eq!(m.max_pending(), 2);
    }

    #[test]
    fn merger_counts_late_records() {
        // A sequence that was already released arrives again: it is *late*
        // (behind the release cursor), not a buffered duplicate.
        let mut m = SequenceMerger::new();
        let mut out = Vec::new();
        m.push(0, 0, 10, &mut out);
        m.push(0, 0, 10, &mut out);
        m.push(0, 1, 11, &mut out);
        m.push(0, 1, 11, &mut out);
        assert_eq!(out, vec![10, 11]);
        assert_eq!(m.late(), 2);
        assert_eq!(m.duplicates(), 0);
        assert_eq!(m.released(), 2);
    }

    #[test]
    fn merger_counts_buffered_duplicates() {
        // The same out-of-order sequence arrives twice while the first copy
        // is still buffered: a true duplicate, distinct from lateness.
        let mut m = SequenceMerger::new();
        let mut out = Vec::new();
        m.push(0, 2, 12, &mut out);
        m.push(0, 2, 12, &mut out);
        assert!(out.is_empty());
        assert_eq!(m.duplicates(), 1);
        assert_eq!(m.late(), 0);
        m.push(0, 0, 10, &mut out);
        m.push(0, 1, 11, &mut out);
        assert_eq!(out, vec![10, 11, 12]);
        // Re-delivery after release flips to the late counter.
        m.push(0, 2, 12, &mut out);
        assert_eq!(m.duplicates(), 1);
        assert_eq!(m.late(), 1);
        assert_eq!(m.released(), 3);
        assert!(m.is_drained());
    }

    #[test]
    fn merger_clean_path_across_epoch_boundary() {
        // The clean resize path: epoch 0 fully drains, and the re-spawned
        // fleet's merger restarts the sequence space at 0 under epoch 1 —
        // nothing is counted late or duplicate on either side.
        let mut old = SequenceMerger::new();
        let mut out = Vec::new();
        old.push(0, 0, "a0", &mut out);
        old.push(0, 1, "a1", &mut out);
        assert!(old.is_drained());
        let mut m = SequenceMerger::with_epoch(1);
        assert_eq!(m.epoch(), 1);
        m.push(1, 1, "b1", &mut out);
        m.push(1, 0, "b0", &mut out);
        assert_eq!(out, vec!["a0", "a1", "b0", "b1"]);
        assert_eq!(old.late() + m.late(), 0);
        assert_eq!(old.duplicates() + m.duplicates(), 0);
        assert_eq!(m.released(), 2, "sequence space restarted at the boundary");
        assert!(m.is_drained());
    }

    #[test]
    fn merger_classifies_stale_epoch_stamps_as_late() {
        // A pre-resize stamp straddling the boundary: its epoch was fully
        // released before the boundary, so it is late even though its
        // sequence number (1) is not behind the new epoch's cursor (0).
        let mut m = SequenceMerger::with_epoch(1);
        let mut out = Vec::new();
        m.push(0, 1, 11, &mut out);
        assert_eq!(m.late(), 1, "stale-epoch re-delivery is late, not duplicate");
        assert_eq!(m.duplicates(), 0);
        // A current-epoch duplicate while buffered still counts as a
        // duplicate — the epoch check does not mask at-most-once tracking.
        m.push(1, 1, 21, &mut out);
        m.push(1, 1, 21, &mut out);
        assert_eq!(m.duplicates(), 1);
        m.push(1, 0, 20, &mut out);
        assert_eq!(out, vec![20, 21]);
        // A future-epoch stamp is a protocol violation, counted late
        // defensively rather than buffered against a cursor that will
        // never reach it.
        m.push(7, 0, 99, &mut out);
        assert_eq!(m.late(), 2);
        assert!(m.is_drained());
    }

    #[test]
    fn assigner_overrides_reroute_only_pinned_keys() {
        let plain = ShardAssigner::new(4);
        let hot = 777u64;
        let hot_hash = fx_hash(&hot);
        let pinned_shard = (plain.assign(&hot) + 1) % 4;
        let mut overrides = FxHashMap::default();
        overrides.insert(hot_hash, pinned_shard);
        let pinned = ShardAssigner::with_overrides(4, overrides);
        assert_eq!(pinned.assign(&hot), pinned_shard);
        for key in 0..500u64 {
            if key != hot {
                assert_eq!(pinned.assign(&key), plain.assign(&key), "key {key} unaffected");
            }
        }
    }

    #[test]
    fn rebalance_policy_isolates_heavy_keys() {
        // One key carries half the load over 4 shards: solo it exceeds the
        // ideal share, so the plan pins it; light keys are untouched.
        let key_loads: Vec<(u64, u64)> = (0..8u64)
            .map(|h| (h, if h == 3 { 700 } else { 100 }))
            .collect();
        let policy = RebalancePolicy::default();
        let plan = policy.plan(4, &key_loads);
        assert_eq!(plan.len(), 1, "only the heavy key is pinned: {plan:?}");
        assert!(plan.contains_key(&3));
        // Re-planning from the same loads is deterministic.
        assert_eq!(plan, policy.plan(4, &key_loads));
        // Uniform load plans nothing.
        let uniform: Vec<(u64, u64)> = (0..32u64).map(|h| (h, 10)).collect();
        assert!(policy.plan(4, &uniform).is_empty());
    }

    #[test]
    fn imbalance_floor_is_one_for_unsplittable_skew() {
        // A shard holding exactly one hot key cannot be split further:
        // the skew-adjusted metric reports 1.0, not max/mean.
        assert!((RebalancePolicy::imbalance(&[500, 100, 100, 100], 500) - 1.0).abs() < 1e-9);
        // Without key skew the metric is plain max/mean.
        assert!((RebalancePolicy::imbalance(&[200, 100, 100, 0], 10) - 2.0).abs() < 1e-9);
        assert!((RebalancePolicy::imbalance(&[], 0) - 1.0).abs() < 1e-9);
        assert!((RebalancePolicy::imbalance(&[0, 0], 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn executor_with_assigner_carries_epoch_and_counts_loads() {
        let assigner = ShardAssigner::new(2);
        let mut exec = ShardedExecutor::with_assigner(
            ShardedConfig::with_shards(2),
            assigner,
            3,
            |_| Doubler { seen: 0 },
        );
        assert_eq!(exec.epoch(), 3);
        for i in 0..100u64 {
            exec.submit(&(i % 10), i);
        }
        assert_eq!(exec.shard_loads().iter().sum::<u64>(), 100);
        let key_total: u64 = exec.key_loads().iter().map(|(_, n)| n).sum();
        assert_eq!(key_total, 100);
        let snap = exec.obs_snapshot();
        let routed: i64 = (0..2)
            .map(|s| snap.gauge(&format!("exec.shard{s}.routed")).unwrap())
            .sum();
        assert_eq!(routed, 100);
        let run = exec.finish();
        assert_eq!(run.merged, 100);
    }

    #[test]
    fn executor_outputs_in_submission_order() {
        for shards in [1usize, 2, 4] {
            let mut exec = ShardedExecutor::new(
                ShardedConfig::with_shards(shards),
                |_| Doubler { seen: 0 },
            );
            let mut got = Vec::new();
            for i in 0..500u64 {
                exec.submit(&(i % 37), i);
                got.extend(exec.poll());
            }
            let run = exec.finish();
            got.extend(run.outputs);
            assert_eq!(got, (0..500u64).map(|i| i * 2).collect::<Vec<_>>(), "{shards} shards");
            assert_eq!(run.submitted, 500);
            assert_eq!(run.merged, 500);
            assert_eq!(run.duplicates, 0);
            let total: u64 = run.stages.iter().map(|s| s.seen).sum();
            assert_eq!(total, 500, "every record processed exactly once");
        }
    }

    #[test]
    fn executor_batch_submit_is_equivalent() {
        let mut exec = ShardedExecutor::new(ShardedConfig::with_shards(3), |_| Doubler { seen: 0 });
        exec.submit_batch((0..300u64).map(|i| (i % 11, i)));
        let run = exec.finish();
        assert_eq!(run.outputs, (0..300u64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(run.merged, 300);
    }

    #[test]
    fn cut_is_consistent_for_every_shard_count_and_window() {
        for shards in [1usize, 2, 4] {
            for window in [1usize, 8, 4096] {
                let what = format!("{shards} shards, window {window}");
                let mut exec = ShardedExecutor::new(
                    ShardedConfig { max_in_flight: Some(window), ..ShardedConfig::with_shards(shards) },
                    |_| Doubler { seen: 0 },
                );
                let (mut submitted, mut expected, mut got) = (0u64, Vec::new(), Vec::new());
                for round in 0..4u64 {
                    // Interleave the two submission paths, in uneven runs.
                    for _ in 0..(7 + 11 * round) {
                        exec.submit(&(submitted % 13), submitted);
                        expected.push(submitted * 2);
                        submitted += 1;
                    }
                    let batch: Vec<(u64, u64)> =
                        (submitted..submitted + 29 + round).map(|i| (i % 13, i)).collect();
                    submitted += batch.len() as u64;
                    expected.extend(batch.iter().map(|&(_, i)| i * 2));
                    exec.submit_batch(batch);

                    let counts = exec.at_cut(|_, stage| stage.seen);
                    assert_eq!(counts.len(), shards, "{what}");
                    assert_eq!(counts.iter().sum::<u64>(), submitted, "{what}: cut sees every prior record");
                    assert_eq!(exec.in_flight(), 0, "{what}: the cut merged everything");
                    got.extend(exec.poll());
                    assert_eq!(got, expected, "{what}: poll after the cut returns every earlier output, in order");
                }
                let order = exec.at_cut(|shard, _| shard);
                assert_eq!(order, (0..shards as u32).collect::<Vec<_>>(), "{what}: results in shard order");
                let snap = exec.obs_snapshot();
                let h = snap.histogram("exec.submit_to_merge_ns").expect("latency recorded");
                assert_eq!(h.count, submitted, "{what}: one submit→merge sample per record");
                assert_eq!(snap.gauge("exec.in_flight"), Some(0), "{what}");
                assert_eq!(snap.gauge("exec.merge.pending"), Some(0), "{what}");
                for s in 0..shards {
                    let depth = format!("exec.shard{s}.queue_depth");
                    assert!(snap.gauge(&depth).is_some(), "{what}: {depth} missing");
                }
                let run = exec.finish();
                assert!(run.outputs.is_empty(), "{what}");
                assert_eq!(run.merged, submitted, "{what}");
            }
        }
    }

    #[test]
    fn dead_worker_surfaces_at_a_cut_promptly() {
        let mut exec = ShardedExecutor::new(ShardedConfig::with_shards(1), |_| Poisoned);
        exec.submit(&0u64, POISON);
        let t0 = Instant::now();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.at_cut(|_, _| ())))
            .expect_err("a dead worker cannot answer the cut");
        let message = crate::operator::panic_message(err.as_ref());
        assert!(message.contains("worker panicked"), "{message}");
        assert!(message.contains("poison record"), "{message}");
        assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
    }

    #[test]
    fn dead_worker_with_a_full_queue_surfaces_on_every_send() {
        // Nothing consumes a dead worker's queue, so once it is exactly full
        // no directive can be queued: the one send every operation shares
        // must notice the dead shard instead of retrying forever.
        type Op = fn(&mut ShardedExecutor<Poisoned>);
        let ops: [(&str, Op); 3] = [
            ("at_cut", |exec| {
                exec.at_cut(|_, _| ());
            }),
            ("submit", |exec| {
                exec.submit(&0u64, 1);
            }),
            ("submit_batch", |exec| exec.submit_batch([(0u64, 1)])),
        ];
        for (name, op) in ops {
            let mut exec = ShardedExecutor::new(
                ShardedConfig { queue_capacity: 4, ..ShardedConfig::with_shards(1) },
                |_| Poisoned,
            );
            exec.submit(&0u64, POISON);
            while !exec.workers[0].is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            while exec.inputs[0].retained() < 4 {
                exec.submit(&0u64, 1);
            }
            let t0 = Instant::now();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(&mut exec)))
                .expect_err("a dead worker's full queue cannot take a directive");
            let message = crate::operator::panic_message(err.as_ref());
            assert!(message.contains("shard 0 worker panicked"), "{name}: {message}");
            assert!(t0.elapsed() < Duration::from_secs(5), "{name}: took {:?}", t0.elapsed());
        }
    }

    #[test]
    fn disabled_metrics_cost_nothing_and_snapshot_is_empty() {
        let mut exec = ShardedExecutor::new(
            ShardedConfig { metrics: false, ..ShardedConfig::with_shards(2) },
            |_| Doubler { seen: 0 },
        );
        for i in 0..50u64 {
            exec.submit(&i, i);
        }
        // A cut still reaches the stages (it is independent of the
        // executor's own instruments)…
        assert_eq!(exec.at_cut(|_, stage| stage.seen).iter().sum::<u64>(), 50);
        // …but the executor records nothing about itself.
        let snap = exec.obs_snapshot();
        assert!(snap.counters().is_empty());
        assert!(snap.gauges().is_empty());
        assert!(snap.histograms().is_empty());
        let run = exec.finish();
        assert_eq!(run.merged, 50);
    }

    #[test]
    fn bounded_queues_backpressure_without_loss() {
        let mut exec = ShardedExecutor::new(
            ShardedConfig {
                shards: 2,
                queue_capacity: 4,
                ..ShardedConfig::default()
            },
            |_| Doubler { seen: 0 },
        );
        // Far more records than the queues hold: submission must block and
        // drain rather than drop.
        for i in 0..2000u64 {
            exec.submit(&(i % 5), i);
        }
        let run = exec.finish();
        assert_eq!(run.submitted, 2000);
        assert_eq!(run.merged, 2000);
        assert_eq!(run.duplicates, 0);
    }

    #[test]
    fn admission_window_bounds_the_reorder_buffer() {
        let mut exec = ShardedExecutor::new(
            ShardedConfig { max_in_flight: Some(8), ..ShardedConfig::with_shards(4) },
            |_| Doubler { seen: 0 },
        );
        let mut got = Vec::new();
        for i in 0..1000u64 {
            exec.submit(&(i % 13), i);
            assert!(exec.in_flight() <= 8, "window violated at record {i}");
            got.extend(exec.poll());
        }
        let run = exec.finish();
        got.extend(run.outputs);
        assert_eq!(got, (0..1000u64).map(|i| i * 2).collect::<Vec<_>>());
        assert!(
            run.max_reorder <= 8,
            "reorder buffer exceeded the admission window: {}",
            run.max_reorder
        );
        assert_eq!(run.merged, 1000);
        assert_eq!(run.late, 0);
        assert_eq!(run.duplicates, 0);
    }

    #[test]
    fn admission_window_bounds_batch_submission_too() {
        let mut exec = ShardedExecutor::new(
            ShardedConfig { max_in_flight: Some(16), ..ShardedConfig::with_shards(3) },
            |_| Doubler { seen: 0 },
        );
        exec.submit_batch((0..600u64).map(|i| (i % 11, i)));
        let run = exec.finish();
        assert_eq!(run.outputs, (0..600u64).map(|i| i * 2).collect::<Vec<_>>());
        assert!(run.max_reorder <= 16, "mid-batch window violated: {}", run.max_reorder);
        assert_eq!(run.merged, 600);
    }

    #[test]
    fn unbounded_window_still_works() {
        let mut exec = ShardedExecutor::new(
            ShardedConfig { max_in_flight: None, ..ShardedConfig::with_shards(2) },
            |_| Doubler { seen: 0 },
        );
        for i in 0..400u64 {
            exec.submit(&(i % 7), i);
        }
        let run = exec.finish();
        assert_eq!(run.merged, 400);
        assert_eq!(run.outputs.len(), 400);
    }
}
