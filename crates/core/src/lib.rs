#![warn(missing_docs)]

//! # datacron-core
//!
//! The integrated datAcron architecture (§3, Figure 2 of the paper): the
//! real-time layer and the batch layer, wired together over the
//! Kafka-like topic bus of `datacron-stream`.
//!
//! ```text
//!  raw reports ─▶ cleaning ─▶ in-situ stats ─▶ low-level events
//!       │                            │
//!       └─▶ synopses generator ─▶ critical points ─▶ RDFizers ─▶ triples
//!                                    │                             │
//!                                    ├─▶ link discovery ─▶ links ──┤
//!                                    ├─▶ future-location prediction│
//!                                    └─▶ complex event forecasting │
//!                                                                  ▼
//!                                            batch layer: knowledge store
//! ```
//!
//! * [`config`] — one configuration object per domain (maritime/aviation).
//! * [`realtime`] — the real-time layer: every component of the left side
//!   of Figure 2, executed per record with per-entity keyed state, all
//!   intermediate products published to topics. Per-entity processing is
//!   supervised: panics are caught, state is restarted, repeat offenders
//!   are quarantined, and rejected records go to a dead-letter topic.
//! * [`sharded`] — the real-time layer hash-partitioned across worker
//!   threads (the paper's Flink-parallelism scaling model): one full
//!   pipeline partition per shard, stamped outputs, deterministic merge
//!   back into submission order.
//! * [`spill`] — the cold state tier: when resident entities exceed the
//!   configured budget, idle entities' operator state is encoded and
//!   parked (memory or directory tier) and transparently rehydrated on
//!   their next report, so fleet size no longer bounds resident memory.
//! * [`durable`] — crash durability: every report write-ahead logged
//!   before processing, the full system state checkpointed on an
//!   interval, and recovery that replays the log suffix so a restarted
//!   run's outputs are bit-identical to an uninterrupted one.
//! * [`batch`] — the batch layer: drains the real-time topics into the
//!   spatio-temporal knowledge store and answers star queries.
//! * [`kg`] — the live knowledge-graph subsystem: the `triples` topic
//!   drained into a streaming store with snapshot isolation and
//!   continuous star-join subscriptions.
//! * [`offline`] — the batch-layer analytics: trajectory reconstruction
//!   from the store, route clustering, and frequent event-sequence mining.
//! * [`system`] — the assembled system plus the live situation picture
//!   backing the real-time dashboard (Figure 13).

pub mod batch;
pub mod config;
pub mod durable;
pub mod kg;
pub mod offline;
pub mod realtime;
pub mod sharded;
pub mod spill;
pub mod system;

pub use batch::{BatchLayer, BatchState};
pub use kg::{KgHealth, LiveKg, LiveKgConfig};
pub use config::{DatacronConfig, Domain};
pub use durable::{DurabilityConfig, DurabilityHealth, RecoveryReport, SystemState};
pub use realtime::{
    ComponentStatus, DeadLetter, EntityHealth, HealthReport, IngestOutput, LayerState,
    RealTimeLayer, RejectReason, SupervisionConfig,
};
pub use sharded::{ShardOutput, ShardedRealTimeLayer, ShardedShutdown};
pub use spill::{SpillStats, SpillStore};
pub use system::{DatacronSystem, SituationPicture};
// Re-export so `HealthReport::net` consumers need no direct dependency on
// the networking crate.
pub use datacron_net::NetHealth;
