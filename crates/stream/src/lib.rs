#![warn(missing_docs)]

//! # datacron-stream
//!
//! A small single-process stream-processing runtime plus the in-situ
//! processing components of the datAcron real-time layer (§4.2.1).
//!
//! The paper implements its stream layer on Apache Flink and wires the
//! components together over Apache Kafka. The algorithms it evaluates are
//! per-record, keyed-state computations, so this crate reproduces the same
//! processing model natively:
//!
//! * [`bus`] — a Kafka-like in-memory message bus: append-only topic logs
//!   with independent consumer offsets, optional bounded capacity with
//!   backpressure, and explicit lag signalling.
//! * [`faults`] — deterministic fault injection (drops, duplicates,
//!   reordering, corruption, gaps, bursts) for chaos-testing the pipeline.
//! * [`operator`] — the operator abstraction: a stateful record-at-a-time
//!   transformer.
//! * [`parallel`] — the sharded parallel executor: key-hash partitioning
//!   across worker threads over bounded backpressured topics, with stamped
//!   outputs, a deterministic merge back into submission order (the Flink
//!   `keyBy` + parallelism scaling model of §4.2), and consistent cuts
//!   across every worker.
//! * [`cleaning`] — online data cleaning: plausibility filtering,
//!   impossible-speed outlier rejection, duplicate and out-of-order
//!   handling ("online data cleaning of erroneous data", §3).
//! * [`insitu`] — per-trajectory running statistics (min/max/average/median
//!   of speed, acceleration, …) computed "as close to the sources as
//!   possible" (§4.2.1).
//! * [`lowlevel`] — low-level event detection: entry/exit of moving
//!   entities to/from geographical areas of interest.
//! * [`fusion`] — cross-stream fusion of multiple surveillance sources into
//!   one coherent per-entity stream (the paper's stated next step for the
//!   synopses pipeline).

pub mod bus;
pub mod cleaning;
pub mod faults;
pub mod fusion;
pub mod insitu;
pub mod lowlevel;
pub mod operator;
pub mod parallel;

pub use bus::{Consumer, Lagged, MessageBus, OverflowPolicy, PublishError, SpaceWaitError, Topic, TopicConfig, TopicHealth, TopicStats};
pub use faults::{ChaosSource, ChaosTopic, Corrupt, DiskFault, FaultInjector, FaultPlan, FaultStats, NetFault, NetFaultPlan, NetFaultSchedule, NetFaultStats, inject_disk_fault};
pub use fusion::{CrossStreamFusion, FusionConfig, FusionStats};
pub use cleaning::{CleanerState, CleaningConfig, CleaningOutcome, StreamCleaner};
pub use insitu::{InSituProcessor, RunningStats, TrajectoryStats};
pub use lowlevel::{AreaEvent, AreaEventKind, AreaMonitor};
pub use operator::Operator;
pub use parallel::{
    FinishedRun, SeqStamp, SequenceMerger, ShardAssigner, ShardPanic, ShardStage, ShardedConfig,
    ShardedExecutor, Stamped,
};
