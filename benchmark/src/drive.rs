//! One live pass of a workload through the product's public entry points,
//! and the single-threaded reference pass every workload is checked against.
//!
//! A pass builds a fresh layer, feeds it the whole pre-generated input and
//! stops its clock when the driver has observed the output of every record.
//! The same code runs timed (tracer off) and traced (a span around every
//! call into the product).

use crate::affinity::Split;
use crate::stats::LatencyWindows;
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{attach_cep, shards, Fold, Input, Kind, Workload, CHUNK, PACED_RATE};
use datacron_core::realtime::EntityCheckpoint;
use datacron_core::{LiveKgConfig, ShardOutput, ShardedRealTimeLayer};
use datacron_geo::{BoundingBox, EquiGrid, PositionReport, StCellEncoder, TimeInterval, Timestamp};
use datacron_net::{ClientConfig, NetClient, NetServer, ServerConfig};
use datacron_obs::ObsRegistry;
use datacron_rdf::term::{Term, Triple};
use datacron_rdf::vocab;
use datacron_store::{LiveStore, StExecution, StarQuery, StoreConfig, SubscriptionHandle};
use datacron_stream::bus::{OverflowPolicy, Topic};
use datacron_stream::parallel::ShardedConfig;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// `kg_live` runs one ad-hoc star query beside the writers every this many chunks.
pub const ADHOC_QUERY_EVERY: usize = 64;

/// The sharded closed loops run this many clients, each with one
/// 512-record chunk outstanding: the driver sends the next chunk only when
/// at most `CLIENTS − 1` are still in flight. Left to run free against the
/// executor's own 4,096-record admission window, the same build settles
/// into one of two regimes (1.0M or 0.62M records/s on `steady_sharded`,
/// 2 or 4 ms median latency on `kg_live`) and a one-line change elsewhere
/// in the binary picks the other. Two chunks keep every worker fed while
/// the driver merges, and pin the depth the latency is measured at.
const CLIENTS: usize = 2;

/// Width of a latency window of the open loop: 10,000 samples at 100k
/// records/s, 100 of them beyond the window's p99.
const PACED_WINDOW_NS: u64 = 20_000_000;

/// Capacity of the topic behind the `net_loopback` server: bounded and
/// blocking, so admission is on the measured path; never full in practice
/// because the driver polls after every chunk.
const NET_TOPIC_CAPACITY: usize = 8192;

#[derive(Debug, Clone, Copy)]
pub struct PassOpts {
    /// `DatacronConfig::metrics` / `ShardedConfig::metrics` of the layer under test.
    pub metrics: bool,
    pub trace: bool,
    /// How long `paced_sharded` keeps sending.
    pub paced_seconds: f64,
}

pub struct Pass {
    /// First call into the product → output of the last record observed.
    pub wall_ns: u64,
    /// What tracing or metrics can make longer: the wall time of a closed
    /// loop; of the open loop, whose wall time is its schedule, the time the
    /// driver spent not waiting for the next slot.
    pub busy_ns: u64,
    pub fold: Fold,
    /// Critical points emitted by the end-of-stream flush (after the clock stopped).
    pub flush_cps: u64,
    /// Closed loops: per 512-record chunk, in order, the time from handing
    /// it to the product to observing the output of its last record.
    pub chunk_latency_ns: Vec<u64>,
    /// `paced_sharded`: per record, due → observed, in 20 ms windows.
    pub latency: LatencyWindows,
    /// Operations beyond the per-record fold: KG matches checked.
    pub attempted_other: u64,
    /// Failures beyond the per-record fold: net Nacks and CRC errors, spill
    /// disk errors and rehydrate failures, chunks over the resident budget,
    /// late / duplicate / unmerged records, lost triples, dropped matches.
    pub failed_other: u64,
    /// Counts and occupancies read from the product's public stats accessors.
    pub facts: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
    /// `paced_sharded`: how late each record was sent, ns.
    pub sched_lag_ns: Vec<u64>,
    /// `kg_live`: per standing query, the sorted subjects it matched.
    pub kg_matches: Vec<Vec<String>>,
}

impl Pass {
    /// A closed-loop pass with nothing beyond its fold to report yet.
    fn new(wall_ns: u64, fold: Fold, flush_cps: u64, tracer: Tracer) -> Self {
        Self {
            wall_ns,
            busy_ns: wall_ns,
            fold,
            flush_cps,
            chunk_latency_ns: Vec::new(),
            latency: LatencyWindows::default(),
            attempted_other: 0,
            failed_other: 0,
            facts: Vec::new(),
            tracer,
            sched_lag_ns: Vec::new(),
            kg_matches: Vec::new(),
        }
    }

    pub fn fact(&self, name: &str) -> f64 {
        self.facts.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
    }
}

/// Chunks handed to the product whose outputs are not all observed yet,
/// oldest first, and the completion latency of those that are.
#[derive(Default)]
struct InFlight {
    /// `(handed over at, records still out)`.
    pending: VecDeque<(u64, usize)>,
    chunk_latency_ns: Vec<u64>,
}

impl InFlight {
    fn sent(&mut self, at_ns: u64, records: usize) {
        self.pending.push_back((at_ns, records));
    }

    fn observed(&mut self, mut records: usize, now_ns: u64) {
        while records > 0 {
            let Some((sent, out)) = self.pending.front_mut() else { return };
            let take = records.min(*out);
            *out -= take;
            records -= take;
            if *out == 0 {
                self.chunk_latency_ns.push(now_ns.saturating_sub(*sent));
                self.pending.pop_front();
            }
        }
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

pub fn run_pass(w: &Workload, input: &Input, opts: PassOpts) -> Pass {
    let mut pass = match w.kind {
        Kind::Single => run_single(w, input, opts),
        Kind::Sharded | Kind::Kg => run_sharded(w, input, opts),
        Kind::Paced => run_paced(input, opts),
        Kind::Net => run_net(w, input, opts),
    };
    pass.fold.finish();
    pass
}

fn run_single(w: &Workload, input: &Input, opts: PassOpts) -> Pass {
    let mut tracer = Tracer::new(opts.trace);
    let mut layer = input.layer(w.has_cep(), w.budgeted, opts.metrics);
    let budget = layer.config().max_resident_entities;
    let mut fold = Fold::default();
    let mut chunk_latency_ns = Vec::with_capacity(input.reports.len().div_ceil(CHUNK));
    let (mut max_resident, mut over_budget) = (0usize, 0u64);

    let t0 = Instant::now();
    let root = tracer.begin("pass", NO_PARENT, 0);
    for (c, slice) in input.reports.chunks(CHUNK).enumerate() {
        let sent = ns_since(t0);
        let outs = tracer.span("RealTimeLayer::ingest_batch", root, c as u32, || layer.ingest_batch(slice.iter().copied()));
        chunk_latency_ns.push(ns_since(t0) - sent);
        for (report, out) in slice.iter().zip(outs) {
            fold.absorb(report, &out);
            layer.recycle(out);
        }
        let resident = layer.resident_entity_count();
        max_resident = max_resident.max(resident);
        over_budget += u64::from(budget.is_some_and(|b| resident > b));
    }
    let wall_ns = ns_since(t0);
    tracer.end(root);
    let flush_cps = tracer.span("RealTimeLayer::flush", NO_PARENT, 0, || layer.flush()).len() as u64;

    let spill = layer.spill_stats();
    Pass {
        chunk_latency_ns,
        failed_other: over_budget + spill.disk_errors + spill.rehydrate_failures,
        facts: vec![
            ("max_resident", max_resident as f64),
            ("evictions", spill.evictions as f64),
            ("rehydrations", spill.rehydrations as f64),
            ("spilled_entities", spill.spilled as f64),
            ("spilled_bytes", spill.spilled_bytes as f64),
        ],
        ..Pass::new(wall_ns, fold, flush_cps, tracer)
    }
}

/// Max ÷ mean of the records routed to each shard.
fn shard_skew(layer: &ShardedRealTimeLayer) -> f64 {
    let loads = layer.shard_loads();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    loads.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
}

/// Stops the workers and folds in whatever they still held (nothing, when
/// every output was observed). Returns the records the merge lost, saw
/// twice or saw late, and the deepest the reorder buffer got.
fn shut_down(layer: ShardedRealTimeLayer, fold: &mut Fold) -> (u64, usize) {
    let done = layer.finish();
    for o in &done.outputs {
        fold.absorb(&o.report, &o.output);
    }
    (done.late + done.duplicates + (done.submitted - done.merged), done.max_reorder)
}

/// The steady fleet's sharded layer, CEP attached on every shard.
fn sharded_layer(input: &Input, metrics: bool) -> ShardedRealTimeLayer {
    let cfg = input.config(false, metrics);
    ShardedRealTimeLayer::with_setup(cfg, input.regions.clone(), input.ports.clone(), sharded_config(metrics), attach_cep)
}

/// An empty live store over the grid and epoch the layer's KG would use.
pub fn live_store(input: &Input) -> LiveStore {
    let cfg = input.config(false, false);
    let grid = EquiGrid::new(cfg.extent, cfg.st_grid_cells, cfg.st_grid_cells);
    LiveStore::new(StCellEncoder::new(grid, cfg.epoch, cfg.st_bucket_millis), StoreConfig::default())
}

fn sharded_config(metrics: bool) -> ShardedConfig {
    ShardedConfig { metrics, ..ShardedConfig::with_shards(shards()) }
}

fn kg_config() -> LiveKgConfig {
    // Match topics drop their oldest entry when full; sized so a whole pass
    // fits and the match sets can be compared after the clock stops.
    LiveKgConfig { match_capacity: 1 << 21, ..LiveKgConfig::default() }
}

/// The four standing queries of `kg_live`: heading changes and speed
/// changes, each once over the whole extent and once under a
/// spatio-temporal window (which exercises the st pushdown).
pub fn kg_queries(input: &Input) -> Vec<StarQuery> {
    let e = &input.spec.extent;
    let mid_lon = (e.min_lon + e.max_lon) / 2.0;
    let t_end = input.reports.last().map_or(0, |r| r.ts.0);
    let arms = |event: &str| {
        vec![(vocab::rdf_type(), Some(vocab::semantic_node_class())), (vocab::event_type(), Some(Term::str(event)))]
    };
    let west_early =
        (BoundingBox::new(e.min_lon, e.min_lat, mid_lon, e.max_lat), TimeInterval::new(Timestamp(0), Timestamp(t_end / 2)));
    let east_late =
        (BoundingBox::new(mid_lon, e.min_lat, e.max_lon, e.max_lat), TimeInterval::new(Timestamp(t_end / 2), Timestamp(t_end)));
    vec![
        StarQuery { arms: arms("change_in_heading"), st: None },
        StarQuery { arms: arms("change_in_heading"), st: Some(west_early) },
        StarQuery { arms: arms("speed_change"), st: None },
        StarQuery { arms: arms("speed_change"), st: Some(east_late) },
    ]
}

fn sorted_subjects(subjects: impl IntoIterator<Item = Term>) -> Vec<String> {
    let mut v: Vec<String> = subjects.into_iter().map(|t| format!("{t:?}")).collect();
    v.sort_unstable();
    v
}

/// Batch-load-then-query: the whole triple stream in one `ingest_batch`,
/// each standing query run once at the end.
pub fn kg_batch_matches(input: &Input, triples: &[Triple]) -> Vec<Vec<String>> {
    let store = live_store(input);
    store.ingest_batch(triples);
    kg_queries(input).iter().map(|q| sorted_subjects(store.snapshot().execute_star(q, StExecution::Pushdown).0)).collect()
}

/// Entries of two sorted lists that are in one and not the other.
pub fn symmetric_difference(a: &[String], b: &[String]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => (i, diff) = (i + 1, diff + 1),
            std::cmp::Ordering::Greater => (j, diff) = (j + 1, diff + 1),
            std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
        }
    }
    diff + (a.len() - i + b.len() - j) as u64
}

fn run_sharded(w: &Workload, input: &Input, opts: PassOpts) -> Pass {
    let mut tracer = Tracer::new(opts.trace);
    let cpus = Split::for_product_threads();
    let (mut layer, kg) = if w.kind == Kind::Kg {
        let (layer, kg) = ShardedRealTimeLayer::with_live_kg(
            input.config(false, opts.metrics),
            input.regions.clone(),
            input.ports.clone(),
            sharded_config(opts.metrics),
            kg_config(),
        );
        (layer, Some(kg))
    } else {
        (sharded_layer(input, opts.metrics), None)
    };
    cpus.driver();
    let queries = if kg.is_some() { kg_queries(input) } else { Vec::new() };
    let mut handles: Vec<SubscriptionHandle> = kg.iter().flat_map(|kg| queries.iter().map(|q| kg.subscribe(q.clone()))).collect();

    let total = input.reports.len();
    let mut fold = Fold::default();
    let mut inflight = InFlight::default();
    let (mut observed, mut max_in_flight, mut adhoc_results) = (0usize, 0u64, 0u64);

    let t0 = Instant::now();
    let root = tracer.begin("pass", NO_PARENT, 0);
    let mut chunk = 0u32;
    let take = |outs: Vec<ShardOutput>, inflight: &mut InFlight, fold: &mut Fold, observed: &mut usize| {
        if !outs.is_empty() {
            inflight.observed(outs.len(), ns_since(t0));
            *observed += outs.len();
            for o in &outs {
                fold.absorb(&o.report, &o.output);
            }
        }
    };
    for slice in input.reports.chunks(CHUNK) {
        inflight.sent(ns_since(t0), slice.len());
        tracer.span("ShardedRealTimeLayer::ingest_batch", root, chunk, || layer.ingest_batch(slice.iter().copied()));
        max_in_flight = max_in_flight.max(layer.submitted() - observed as u64);
        let outs = tracer.span("ShardedRealTimeLayer::poll_outputs", root, chunk, || layer.poll_outputs());
        take(outs, &mut inflight, &mut fold, &mut observed);
        while layer.submitted() as usize - observed > (CLIENTS - 1) * CHUNK {
            // Parked until a worker publishes, not spinning: every poll also
            // drains the live KG, and a spinning driver would feed the store
            // a few triples at a time (and fight the workers for the topic locks).
            let outs = tracer.span("ShardedRealTimeLayer::poll_outputs_timeout", root, chunk, || {
                layer.poll_outputs_timeout(Duration::from_millis(5))
            });
            take(outs, &mut inflight, &mut fold, &mut observed);
        }
        if let Some(kg) = &kg {
            if chunk as usize % ADHOC_QUERY_EVERY == ADHOC_QUERY_EVERY - 1 {
                let q = &queries[1];
                adhoc_results += tracer
                    .span("LiveSnapshot::execute_star", root, chunk, || kg.snapshot().execute_star(q, StExecution::Pushdown))
                    .0
                    .len() as u64;
            }
        }
        chunk += 1;
    }
    while observed < total {
        let outs = tracer.span("ShardedRealTimeLayer::poll_outputs_timeout", root, chunk, || {
            layer.poll_outputs_timeout(Duration::from_millis(5))
        });
        take(outs, &mut inflight, &mut fold, &mut observed);
    }
    let wall_ns = ns_since(t0);
    tracer.end(root);
    // The layer drains the KG inside `poll_outputs`, where no span of the
    // benchmark's can separate it; the KG's own exact `sum` can (read here,
    // before the flush adds its drain).
    let kg_drain_ns = kg.as_ref().and_then(|kg| kg.metrics_snapshot().histogram("kg.drain_ns").map(|h| h.sum)).unwrap_or(0);

    let flush_cps = tracer.span("ShardedRealTimeLayer::flush", NO_PARENT, chunk, || layer.flush()).len() as u64;
    let skew = shard_skew(&layer);
    let mut facts =
        vec![("max_in_flight", max_in_flight as f64), ("shard_skew", skew), ("adhoc_query_results", adhoc_results as f64)];
    let mut failed_other = 0;
    let mut kg_matches = Vec::new();
    if let Some(kg) = &kg {
        for h in &mut handles {
            // A lagged consumer lost matches to the drop-oldest topic; the
            // health check below counts them, so an empty set is enough here.
            kg_matches.push(sorted_subjects(h.matches.drain().unwrap_or_default().into_iter().map(|m| m.subject)));
        }
        let health = kg.health();
        let stats = kg.stats();
        failed_other += health.triples_lost + health.match_drops;
        facts.extend([
            ("kg_drain_ns", kg_drain_ns as f64),
            ("kg_triples", health.ingested_triples as f64),
            ("kg_segments", stats.segments as f64),
            ("kg_generations", stats.generation as f64),
            ("kg_matches", stats.matches_emitted as f64),
        ]);
    }
    let (unmerged, max_pending) = shut_down(layer, &mut fold);
    facts.push(("merge_max_pending", max_pending as f64));
    Pass {
        chunk_latency_ns: inflight.chunk_latency_ns,
        attempted_other: kg_matches.iter().map(|m| m.len() as u64).sum(),
        failed_other: failed_other + unmerged,
        facts,
        kg_matches,
        ..Pass::new(wall_ns, fold, flush_cps, tracer)
    }
}

fn run_paced(input: &Input, opts: PassOpts) -> Pass {
    let mut tracer = Tracer::new(opts.trace);
    let cpus = Split::for_product_threads();
    let mut layer = sharded_layer(input, opts.metrics);
    cpus.driver();
    let total = input.reports.len().min((PACED_RATE as f64 * opts.paced_seconds) as usize);
    let due_ns = |i: usize| i as u64 * 1_000_000_000 / PACED_RATE;
    let mut fold = Fold::default();
    let mut latency = LatencyWindows::default();
    let mut sched_lag_ns = Vec::with_capacity(total);
    let (mut observed, mut max_in_flight, mut busy_ns) = (0usize, 0u64, 0u64);

    let t0 = Instant::now();
    let root = tracer.begin("pass", NO_PARENT, 0);
    // Outputs come back in submission order, so the next one observed is
    // record `observed`, and its latency counts from that record's slot.
    let take = |outs: Vec<ShardOutput>, latency: &mut LatencyWindows, fold: &mut Fold, observed: &mut usize| {
        if outs.is_empty() {
            return;
        }
        let now = ns_since(t0);
        for o in &outs {
            let due = due_ns(*observed);
            latency.record((due / PACED_WINDOW_NS) as usize, now.saturating_sub(due));
            fold.absorb(&o.report, &o.output);
            *observed += 1;
        }
    };
    for (i, report) in input.reports[..total].iter().enumerate() {
        let due = due_ns(i);
        let mut now = ns_since(t0);
        while now < due {
            std::hint::spin_loop();
            now = ns_since(t0);
        }
        sched_lag_ns.push(now - due);
        let chunk = (i / CHUNK) as u32;
        tracer.span("ShardedRealTimeLayer::ingest", root, chunk, || layer.ingest(*report));
        max_in_flight = max_in_flight.max(layer.submitted() - observed as u64);
        let outs = tracer.span("ShardedRealTimeLayer::poll_outputs", root, chunk, || layer.poll_outputs());
        take(outs, &mut latency, &mut fold, &mut observed);
        busy_ns += ns_since(t0) - now;
    }
    while observed < total {
        let outs = tracer.span("ShardedRealTimeLayer::poll_outputs_timeout", root, (total / CHUNK) as u32, || {
            layer.poll_outputs_timeout(Duration::from_millis(1))
        });
        take(outs, &mut latency, &mut fold, &mut observed);
    }
    let wall_ns = ns_since(t0);
    tracer.end(root);

    let flush_cps = tracer.span("ShardedRealTimeLayer::flush", NO_PARENT, 0, || layer.flush()).len() as u64;
    let skew = shard_skew(&layer);
    let (unmerged, max_pending) = shut_down(layer, &mut fold);
    Pass {
        busy_ns,
        latency,
        failed_other: unmerged,
        facts: vec![("max_in_flight", max_in_flight as f64), ("shard_skew", skew), ("merge_max_pending", max_pending as f64)],
        sched_lag_ns,
        ..Pass::new(wall_ns, fold, flush_cps, tracer)
    }
}

fn run_net(w: &Workload, input: &Input, opts: PassOpts) -> Pass {
    let mut tracer = Tracer::new(opts.trace);
    let obs = if opts.metrics { ObsRegistry::new() } else { ObsRegistry::disabled() };
    // The server's accept thread, and the session thread it spawns when the
    // client connects, inherit the product threads' CPUs.
    let cpus = Split::for_product_threads();
    let topic = Topic::bounded("net.ingest", NET_TOPIC_CAPACITY, OverflowPolicy::Block);
    let mut consumer = topic.consumer();
    let server = NetServer::bind("127.0.0.1:0", ServerConfig::default(), topic, &obs).expect("bind a loopback port");
    let mut client =
        NetClient::connect(ClientConfig::new(server.local_addr().to_string(), 1), &obs).expect("connect over loopback");
    cpus.driver();
    let mut layer = input.layer(w.has_cep(), w.budgeted, opts.metrics);

    let total = input.reports.len();
    let mut fold = Fold::default();
    let mut inflight = InFlight::default();
    let (mut observed, mut send_errors) = (0usize, 0u64);

    let t0 = Instant::now();
    let root = tracer.begin("pass", NO_PARENT, 0);
    let mut chunk = 0u32;
    let mut ingest = |received: Vec<PositionReport>,
                      tracer: &mut Tracer,
                      chunk: u32,
                      inflight: &mut InFlight,
                      fold: &mut Fold,
                      observed: &mut usize| {
        if received.is_empty() {
            return;
        }
        let outs = tracer.span("RealTimeLayer::ingest_batch", root, chunk, || layer.ingest_batch(received.iter().copied()));
        inflight.observed(outs.len(), ns_since(t0));
        *observed += outs.len();
        for (report, out) in received.iter().zip(outs) {
            fold.absorb(report, &out);
            layer.recycle(out);
        }
    };
    for slice in input.reports.chunks(CHUNK) {
        inflight.sent(ns_since(t0), slice.len());
        for report in slice {
            let sent = tracer.span("NetClient::send", root, chunk, || client.send(*report));
            send_errors += u64::from(sent.is_err());
        }
        let received = tracer.span("Consumer::poll", root, chunk, || consumer.poll(usize::MAX)).unwrap_or_default();
        ingest(received, &mut tracer, chunk, &mut inflight, &mut fold, &mut observed);
        chunk += 1;
    }
    let client_stats = tracer.span("NetClient::finish", root, chunk, || client.finish());
    let expected = total - send_errors as usize;
    let give_up = Instant::now() + Duration::from_secs(30);
    while observed < expected && Instant::now() < give_up {
        let received = tracer
            .span("Consumer::poll_wait", root, chunk, || consumer.poll_wait(usize::MAX, Duration::from_millis(5)))
            .unwrap_or_default();
        ingest(received, &mut tracer, chunk, &mut inflight, &mut fold, &mut observed);
    }
    let wall_ns = ns_since(t0);
    tracer.end(root);

    let flush_cps = tracer.span("RealTimeLayer::flush", NO_PARENT, 0, || layer.flush()).len() as u64;
    let health = server.health();
    server.shutdown();
    let stats = client_stats.as_ref().ok();
    let failed_other = send_errors
        + u64::from(stats.is_none())
        + health.nacks_sent
        + health.crc_errors
        + stats.map_or(0, |s| s.nacks_seen + s.crc_errors);
    Pass {
        chunk_latency_ns: inflight.chunk_latency_ns,
        failed_other,
        facts: vec![
            ("net_retransmits", stats.map_or(0, |s| s.replayed) as f64),
            ("net_reconnects", stats.map_or(0, |s| s.reconnects) as f64),
            ("net_nacks", health.nacks_sent as f64),
            ("net_duplicates_dropped", health.duplicates_dropped as f64),
        ],
        ..Pass::new(wall_ns, fold, flush_cps, tracer)
    }
}

/// What a workload's passes are checked against: the per-record reference
/// path (`RealTimeLayer::ingest`, one record at a time, unbounded
/// residency, one thread) over the same input.
pub struct Reference {
    pub fold: Fold,
    pub flush_cps: u64,
    /// The whole `triples` topic, flush included (`kg_live` and the stage replay).
    pub triples: Vec<Triple>,
    /// Every entity's state at end of stream (the spill replay's input).
    pub checkpoints: Vec<EntityCheckpoint>,
}

/// `keep` also captures the triple stream and the end-of-stream
/// checkpoints; the plain correctness check needs only the fold.
pub fn reference(w: &Workload, input: &Input, keep: bool) -> Reference {
    let mut layer = input.layer(w.has_cep(), false, false);
    let mut triples_rx = keep.then(|| layer.triples.consumer());
    let mut fold = Fold::default();
    for report in &input.reports {
        fold.absorb(report, &layer.ingest(*report));
    }
    fold.finish();
    let checkpoints = if keep { layer.checkpoint_state().entities } else { Vec::new() };
    let flush_cps = layer.flush().len() as u64;
    let triples = triples_rx.as_mut().map_or_else(Vec::new, |rx| rx.drain().unwrap_or_default());
    Reference { fold, flush_cps, triples, checkpoints }
}
