//! The stage replay of a traced run: the workload's input fed through each
//! stage's public function on its own, in chain order and with the inputs
//! the chain would hand it, one span per stage per 512-record chunk.
//!
//! The product interleaves the stages record by record; the replay runs
//! them stage by stage over a chunk so that each can be timed from outside
//! with two clock reads per 512 calls. Per-entity state lives in dense
//! vectors indexed before the clock starts, so an entity-map lookup is not
//! billed to a stage (in the product it is part of `core::realtime`'s glue).

use crate::drive::{self, kg_queries, Reference, ADHOC_QUERY_EVERY};
use crate::trace::{layer_times, sum_ns, SpanId, Tracer, NO_PARENT};
use crate::workload::{cep_engine, shards, Input, Workload, CHUNK};
use datacron_core::realtime::symbols::heading_symbolizer;
use datacron_core::SpillStore;
use datacron_geo::{EntityId, FxHashMap, PositionReport};
use datacron_linkdisc::{LinkStats, StaticLinker};
use datacron_net::wire::{decode_frame, encode_msg};
use datacron_net::WireMsg;
use datacron_rdf::fast::SemanticNodeLifter;
use datacron_store::StExecution;
use datacron_stream::bus::{OverflowPolicy, Topic};
use datacron_stream::cleaning::{CleaningOutcome, StreamCleaner};
use datacron_stream::lowlevel::AreaMonitor;
use datacron_stream::parallel::{SequenceMerger, ShardAssigner};
use datacron_synopses::{CriticalPoint, SynopsesGenerator};
use std::hint::black_box;

/// Spill and rehydrate at least this many checkpoints, cycling the fleet.
const MIN_SPILL_OPS: usize = 20_000;

/// The live store freezes one segment per partition per batch and a query
/// visits them all, so its cost per triple grows with the batches taken:
/// the fleets' 1.4M triples in 780 batches would replay for minutes. The
/// replay stops here; `kg_live`'s whole stream (about 95k triples) fits.
const KG_REPLAY_MAX_TRIPLES: usize = 120_000;

pub struct Replay {
    pub accepted: u64,
    pub rejected: u64,
    pub area_events: u64,
    pub critical_points: u64,
    pub triples: u64,
    pub links: u64,
    pub symbols: u64,
    pub detections: u64,
    pub link_stats: LinkStats,
    /// Per-layer numbers, by the names in `BENCHMARK.json`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Wall time of the six chain stages together, ns.
    pub chain_busy_ns: u64,
}

fn per(sum_ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_ns as f64 / count as f64
    }
}

pub fn run(w: &Workload, input: &Input, reference: &Reference, tracer: &mut Tracer) -> Replay {
    let first_span = tracer.spans().len();
    let root = tracer.begin("replay", NO_PARENT, 0);
    let mut replay = chain(w, input, tracer, root);
    let kg = live_store(input, reference, tracer, root);
    let bytes_per_record = wire(input, tracer, root);
    let (spill_ops, spill_bytes_per_entity) = spill(reference, tracer, root);
    bus(input, tracer, root);
    parallel(input, tracer, root);
    tracer.end(root);

    let layers = layer_times(&tracer.spans()[first_span..]);
    let t = |name: &str| sum_ns(&layers, name);
    let records = input.reports.len() as u64;
    replay.chain_busy_ns =
        ["stream::cleaning", "stream::lowlevel", "synopses", "rdf", "linkdisc", "cep"].iter().map(|name| t(name)).sum();
    replay.metrics = vec![
        ("clean_ns_per_call", per(t("stream::cleaning"), records)),
        ("area_ns_per_call", per(t("stream::lowlevel"), replay.accepted)),
        ("synopses_ns_per_call", per(t("synopses"), replay.accepted)),
        ("rdf_ns_per_cp", per(t("rdf"), replay.critical_points)),
        ("link_ns_per_cp", per(t("linkdisc"), replay.critical_points)),
        ("cep_ns_per_symbol", per(t("cep"), replay.symbols)),
        ("topic_publish_ns_per_msg", per(t("stream::bus.publish"), records)),
        ("topic_poll_ns_per_msg", per(t("stream::bus.poll"), records)),
        ("topic_publish_bounded_ns_per_msg", per(t("stream::bus.publish_bounded"), records)),
        ("topic_poll_bounded_ns_per_msg", per(t("stream::bus.poll_bounded"), records)),
        ("route_ns_per_record", per(t("stream::parallel.route"), records)),
        ("merge_ns_per_record", per(t("stream::parallel.merge"), records)),
        ("merge_reordered_ns_per_record", per(t("stream::parallel.merge_reordered"), records)),
        ("spill_encode_ns", per(t("core::spill.encode"), spill_ops)),
        ("spill_decode_ns", per(t("core::spill.decode"), spill_ops)),
        ("spill_bytes_per_entity", spill_bytes_per_entity),
        ("kg_ingest_ns_per_triple", per(t("store::live.ingest_batch"), kg.triples)),
        ("kg_query_ns", per(t("store::live.execute_star"), kg.queries)),
        ("wire_encode_ns", per(t("net::wire.encode"), records)),
        ("wire_decode_ns", per(t("net::wire.decode"), records)),
        ("bytes_per_record", bytes_per_record),
    ];
    replay
}

/// clean → area → synopses → rdf → link → cep, stage by stage per chunk.
fn chain(w: &Workload, input: &Input, tracer: &mut Tracer, root: SpanId) -> Replay {
    let cfg = input.config(false, false);
    let mut index: FxHashMap<EntityId, u32> = FxHashMap::default();
    let slots: Vec<u32> = input
        .reports
        .iter()
        .map(|r| {
            let next = index.len() as u32;
            *index.entry(r.entity).or_insert(next)
        })
        .collect();
    let mut cleaners: Vec<StreamCleaner> = (0..index.len()).map(|_| StreamCleaner::new(cfg.cleaning.clone())).collect();
    let mut synopses: Vec<SynopsesGenerator> = (0..index.len()).map(|_| SynopsesGenerator::new(cfg.synopses.clone())).collect();
    let engine = cep_engine();
    let mut engines = if w.has_cep() { vec![engine; index.len()] } else { Vec::new() };
    let mut monitor = AreaMonitor::new(input.regions.clone(), cfg.linker.cell_deg);
    let mut linker = StaticLinker::new(input.regions.clone(), input.ports.clone(), cfg.linker.clone());
    let mut lifter = SemanticNodeLifter::new();

    let mut out = Replay {
        accepted: 0,
        rejected: 0,
        area_events: 0,
        critical_points: 0,
        triples: 0,
        links: 0,
        symbols: 0,
        detections: 0,
        link_stats: LinkStats::default(),
        metrics: Vec::new(),
        chain_busy_ns: 0,
    };
    let mut accepted: Vec<(u32, PositionReport)> = Vec::with_capacity(CHUNK);
    let mut cps: Vec<(u32, CriticalPoint)> = Vec::new();
    let (mut events, mut cp_buf, mut triples) = (Vec::new(), Vec::new(), Vec::new());
    for (c, (slice, slots)) in input.reports.chunks(CHUNK).zip(slots.chunks(CHUNK)).enumerate() {
        let c = c as u32;
        accepted.clear();
        cps.clear();
        tracer.span("stream::cleaning", root, c, || {
            for (report, &slot) in slice.iter().zip(slots) {
                if cleaners[slot as usize].check(report) == CleaningOutcome::Accepted {
                    accepted.push((slot, *report));
                }
            }
        });
        out.accepted += accepted.len() as u64;
        out.rejected += (slice.len() - accepted.len()) as u64;
        tracer.span("stream::lowlevel", root, c, || {
            for (_, report) in &accepted {
                monitor.observe_into(report, &mut events);
            }
        });
        out.area_events += events.len() as u64;
        events.clear();
        tracer.span("synopses", root, c, || {
            for &(slot, report) in &accepted {
                synopses[slot as usize].process(report, &mut cp_buf);
                cps.extend(cp_buf.drain(..).map(|cp| (slot, cp)));
            }
        });
        out.critical_points += cps.len() as u64;
        tracer.span("rdf", root, c, || {
            for (_, cp) in &cps {
                lifter.lift_into(cp, &mut triples);
            }
        });
        out.triples += triples.len() as u64;
        triples.clear();
        out.links += tracer.span("linkdisc", root, c, || {
            cps.iter()
                .map(|(_, cp)| linker.link_point(cp.report.entity, cp.report.ts, &cp.report.point).len() as u64)
                .sum::<u64>()
        });
        if !engines.is_empty() {
            let (symbols, detections) = tracer.span("cep", root, c, || {
                let (mut symbols, mut detections) = (0u64, 0u64);
                for (slot, cp) in &cps {
                    if let Some(symbol) = heading_symbolizer(cp) {
                        symbols += 1;
                        detections += u64::from(engines[*slot as usize].process(symbol).detected);
                    }
                }
                (symbols, detections)
            });
            out.symbols += symbols;
            out.detections += detections;
        }
    }
    out.link_stats = linker.stats();
    out
}

struct KgWork {
    triples: u64,
    queries: u64,
}

/// The captured triple stream into a `LiveStore` with the four standing
/// queries subscribed, in as many batches as the live pass has chunks, and
/// an ad-hoc star query at the live pass's cadence.
fn live_store(input: &Input, reference: &Reference, tracer: &mut Tracer, root: SpanId) -> KgWork {
    let store = drive::live_store(input);
    let queries = kg_queries(input);
    let _standing: Vec<_> = queries.iter().map(|q| store.subscribe(q.clone(), 1 << 21)).collect();
    let chunks = input.reports.len().div_ceil(CHUNK).max(1);
    let per_batch = reference.triples.len().div_ceil(chunks).max(1);
    let replayed = &reference.triples[..reference.triples.len().min(KG_REPLAY_MAX_TRIPLES)];
    let mut work = KgWork { triples: 0, queries: 0 };
    for (b, batch) in replayed.chunks(per_batch).enumerate() {
        tracer.span("store::live.ingest_batch", root, b as u32, || store.ingest_batch(batch));
        work.triples += batch.len() as u64;
        if b % ADHOC_QUERY_EVERY == ADHOC_QUERY_EVERY - 1 {
            black_box(tracer.span("store::live.execute_star", root, b as u32, || {
                store.snapshot().execute_star(&queries[1], StExecution::Pushdown)
            }));
            work.queries += 1;
        }
    }
    work
}

/// Every report through `wire::encode_msg` and back through
/// `decode_frame`; returns the mean frame size.
fn wire(input: &Input, tracer: &mut Tracer, root: SpanId) -> f64 {
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(CHUNK);
    let (mut seq, mut bytes) = (0u64, 0u64);
    for (c, slice) in input.reports.chunks(CHUNK).enumerate() {
        frames.clear();
        tracer.span("net::wire.encode", root, c as u32, || {
            for report in slice {
                frames.push(encode_msg(seq, &WireMsg::Record { session_seq: seq, report: *report }));
                seq += 1;
            }
        });
        bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        tracer.span("net::wire.decode", root, c as u32, || {
            for frame in &frames {
                black_box(decode_frame(frame).is_ok());
            }
        });
    }
    per(bytes, input.reports.len() as u64)
}

/// The end-of-stream checkpoints through `SpillStore::spill` and back
/// through `take_into`, memory tier; returns (checkpoints cycled, mean
/// encoded bytes per entity).
fn spill(reference: &Reference, tracer: &mut Tracer, root: SpanId) -> (u64, f64) {
    let Some(first) = reference.checkpoints.first() else {
        return (0, 0.0);
    };
    let mut store = SpillStore::new(None);
    let mut scratch = first.clone();
    let rounds = MIN_SPILL_OPS.div_ceil(reference.checkpoints.len());
    let mut bytes_per_entity = 0.0;
    for _ in 0..rounds {
        for (c, group) in reference.checkpoints.chunks(CHUNK).enumerate() {
            tracer.span("core::spill.encode", root, c as u32, || {
                for checkpoint in group {
                    store.spill(checkpoint);
                }
            });
        }
        bytes_per_entity = per(store.bytes(), store.len() as u64);
        for (c, group) in reference.checkpoints.chunks(CHUNK).enumerate() {
            tracer.span("core::spill.decode", root, c as u32, || {
                for checkpoint in group {
                    black_box(store.take_into(checkpoint.entity, &mut scratch));
                }
            });
        }
    }
    ((rounds * reference.checkpoints.len()) as u64, bytes_per_entity)
}

/// A chunk published then polled, on an unbounded topic and on a bounded
/// blocking one (the two kinds the executor and the net server use).
fn bus(input: &Input, tracer: &mut Tracer, root: SpanId) {
    let unbounded = Topic::<PositionReport>::new("replay.unbounded");
    let bounded = Topic::<PositionReport>::bounded("replay.bounded", 2 * CHUNK, OverflowPolicy::Block);
    for (topic, publish, poll) in [
        (unbounded, "stream::bus.publish", "stream::bus.poll"),
        (bounded, "stream::bus.publish_bounded", "stream::bus.poll_bounded"),
    ] {
        let mut consumer = topic.consumer();
        for (c, slice) in input.reports.chunks(CHUNK).enumerate() {
            tracer.span(publish, root, c as u32, || topic.publish_batch(slice.iter().copied()));
            black_box(tracer.span(poll, root, c as u32, || consumer.poll(CHUNK)).map_or(0, |got| got.len()));
        }
    }
}

/// `ShardAssigner::assign` per record, and `SequenceMerger::push` per
/// record in order and with each chunk's halves swapped (two shards
/// finishing out of turn).
fn parallel(input: &Input, tracer: &mut Tracer, root: SpanId) {
    let assigner = ShardAssigner::new(shards());
    let mut in_order = SequenceMerger::<u32>::new();
    let mut reordered = SequenceMerger::<u32>::new();
    let mut released = Vec::with_capacity(CHUNK);
    let mut base = 0u64;
    for (c, slice) in input.reports.chunks(CHUNK).enumerate() {
        let c = c as u32;
        let n = slice.len() as u64;
        black_box(
            tracer.span("stream::parallel.route", root, c, || slice.iter().map(|r| assigner.assign(&r.entity)).sum::<u32>()),
        );
        tracer.span("stream::parallel.merge", root, c, || {
            for seq in base..base + n {
                in_order.push(0, seq, 0, &mut released);
            }
        });
        released.clear();
        tracer.span("stream::parallel.merge_reordered", root, c, || {
            for seq in (base + n / 2..base + n).chain(base..base + n / 2) {
                reordered.push(0, seq, 0, &mut released);
            }
        });
        released.clear();
        base += n;
    }
    black_box((in_order.released(), reordered.released()));
}
