//! One workload, timed (`--trace 0`: the end-to-end metrics) or traced
//! (`--trace 1`: the per-layer metrics), and the one report both write.

use crate::drive::{kg_batch_matches, reference, run_pass, symmetric_difference, Pass, PassOpts, Reference};
use crate::json::{obj, Json};
use crate::stats::{least_squares, median, median_by_index, percentile, quartiles};
use crate::trace::{layer_times, LayerTime, Tracer, NO_PARENT};
use crate::workload::{nproc, Input, Kind, Workload, CHUNK, PACED_RATE};
use crate::{replay, Args};
use datacron_geo::FxHashSet;
use std::process::ExitCode;
use std::time::Instant;

/// `(name, unit, better)` of every end-to-end metric; `BENCHMARK.json`
/// adds the bounds (a unit test keeps the two in step).
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("records_per_s", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, grouped by layer as in
/// the README's table.
pub const PER_LAYER: [(&str, &str, &str); 55] = [
    // data::scenario
    ("gen_ns_per_record", "ns", "lower"),
    ("sched_lag_p99_us", "us", "lower"),
    // stream::cleaning
    ("clean_ns_per_call", "ns", "lower"),
    ("records_in", "count", "higher"),
    ("accepted", "count", "higher"),
    ("rejected", "count", "lower"),
    // stream::lowlevel
    ("area_ns_per_call", "ns", "lower"),
    ("area_events", "count", "higher"),
    // synopses
    ("synopses_ns_per_call", "ns", "lower"),
    ("critical_points", "count", "higher"),
    ("cp_per_record", "ratio", "lower"),
    // rdf
    ("rdf_ns_per_cp", "ns", "lower"),
    ("triples", "count", "higher"),
    // linkdisc
    ("link_ns_per_cp", "ns", "lower"),
    ("links", "count", "higher"),
    ("link_useful_share", "ratio", "higher"),
    // cep
    ("cep_ns_per_symbol", "ns", "lower"),
    ("cep_symbols", "count", "higher"),
    ("detections", "count", "higher"),
    // stream::bus
    ("topic_publish_ns_per_msg", "ns", "lower"),
    ("topic_poll_ns_per_msg", "ns", "lower"),
    ("topic_publish_bounded_ns_per_msg", "ns", "lower"),
    ("topic_poll_bounded_ns_per_msg", "ns", "lower"),
    // stream::parallel
    ("route_ns_per_record", "ns", "lower"),
    ("merge_ns_per_record", "ns", "lower"),
    ("merge_reordered_ns_per_record", "ns", "lower"),
    ("ingest_share", "ratio", "lower"),
    ("poll_share", "ratio", "lower"),
    ("max_in_flight", "count", "lower"),
    ("merge_max_pending", "count", "lower"),
    ("shard_skew", "ratio", "lower"),
    // core::realtime
    ("core_glue_share", "ratio", "lower"),
    ("cold_start_ns_per_entity", "ns", "lower"),
    ("metrics_overhead_pct", "%", "lower"),
    // core::spill + durability::codec
    ("spill_encode_ns", "ns", "lower"),
    ("spill_decode_ns", "ns", "lower"),
    ("spill_bytes_per_entity", "B", "lower"),
    ("evictions_per_record", "ratio", "lower"),
    ("rehydrations", "count", "lower"),
    ("max_resident", "count", "lower"),
    // core::kg + store::live
    ("kg_ingest_ns_per_triple", "ns", "lower"),
    ("kg_query_ns", "ns", "lower"),
    ("kg_drain_share", "ratio", "lower"),
    ("kg_segments", "count", "lower"),
    ("kg_generations", "count", "higher"),
    ("kg_matches", "count", "higher"),
    // net
    ("wire_encode_ns", "ns", "lower"),
    ("wire_decode_ns", "ns", "lower"),
    ("net_send_share", "ratio", "lower"),
    ("bytes_per_record", "B", "lower"),
    ("net_retransmits", "count", "lower"),
    ("net_reconnects", "count", "lower"),
    ("net_nacks", "count", "lower"),
    // the trace itself
    ("unattributed_share", "ratio", "lower"),
    ("trace_overhead_pct", "%", "lower"),
];

/// Set-up is repeated and its median reported, so one cold start does not
/// decide `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Closed-loop workloads time at least this many passes.
const MIN_PASSES: usize = 3;
const WARMUP_PACED_SECONDS: f64 = 0.5;
const OUT_DIR: &str = "benchmark/out";

/// Writes a report or trace under `benchmark/out/` — of the directory the
/// benchmark was started in, so only when that is the repository root
/// (`run.sh` sees to it); started elsewhere, it writes nothing.
fn write_out(path: &str, text: &str) {
    if !std::path::Path::new("benchmark/Cargo.toml").is_file() {
        eprintln!("benchmark: not started at the repository root, {path} not written");
    } else if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(path, text)) {
        eprintln!("benchmark: cannot write {path}: {e}");
    }
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Generates the input and runs one untimed warm-up pass over it: what a
/// workload pays before its first timed pass. Returns the input and what
/// generating one record took, ns.
fn set_up(w: &Workload, args: &Args, paced_seconds: f64) -> (Input, f64) {
    let t0 = Instant::now();
    let mut input = Input::generate(w.spec(args.seed, args.quick));
    let gen_ns_per_record = t0.elapsed().as_nanos() as f64 / input.reports.len().max(1) as f64;
    if w.kind == Kind::Paced {
        // The open loop sends for a fixed time, not a fixed count: what it
        // will not reach is cut here, so the reference covers the same records.
        input.reports.truncate((PACED_RATE as f64 * paced_seconds) as usize);
    }
    let warm = PassOpts { metrics: true, trace: false, paced_seconds: paced_seconds.min(WARMUP_PACED_SECONDS) };
    std::hint::black_box(run_pass(w, &input, warm).fold.records);
    (input, gen_ns_per_record)
}

/// Failures of one pass against the reference, and the operations it attempted.
fn verify(w: &Workload, pass: &Pass, reference: &Reference, kg_expected: &[Vec<String>]) -> (u64, u64) {
    let mut failed = pass.fold.failed_against(&reference.fold) + pass.flush_cps.abs_diff(reference.flush_cps) + pass.failed_other;
    if w.kind == Kind::Kg {
        if pass.kg_matches.len() != kg_expected.len() {
            failed += 1;
        }
        for (live, batch) in pass.kg_matches.iter().zip(kg_expected) {
            failed += symmetric_difference(live, batch);
        }
    }
    (failed, reference.fold.records + pass.attempted_other)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

fn env_json() -> Json {
    let var = |name: &str| Json::from(std::env::var(name).unwrap_or_else(|_| "unknown".into()));
    obj([
        ("nproc", Json::from(nproc())),
        ("rustc", var("BENCH_RUSTC")),
        ("commit", var("BENCH_COMMIT")),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug (numbers are meaningless)"
            } else {
                "release, lto=thin, codegen-units=1"
            }),
        ),
    ])
}

fn workload_json(w: &Workload, input: &Input, args: &Args) -> Json {
    obj([
        ("name", Json::from(w.name)),
        ("why", Json::from(w.why)),
        ("seed", Json::from(args.seed)),
        ("quick", Json::from(args.quick)),
        ("entities", Json::from(input.spec.entities())),
        ("records", Json::from(input.reports.len())),
        ("chunk", Json::from(CHUNK)),
        ("shards", Json::from(w.shards())),
        ("threads", Json::from(w.threads())),
        ("loop", Json::from(if w.kind == Kind::Paced { "open" } else { "closed" })),
        ("rate", if w.kind == Kind::Paced { Json::from(PACED_RATE) } else { Json::Null }),
        ("resident_budget", if w.budgeted { input.spec.budget.map_or(Json::Null, Json::from) } else { Json::Null }),
    ])
}

fn pass_json(kind: &str, pass: &Pass) -> Json {
    obj([
        ("kind", Json::from(kind)),
        ("wall_s", Json::from(ns_to_s(pass.wall_ns))),
        ("records", Json::from(pass.fold.records)),
        ("records_per_s", Json::from(rate(pass))),
    ])
}

fn rate(pass: &Pass) -> f64 {
    pass.fold.records as f64 / ns_to_s(pass.wall_ns)
}

/// Prints the metrics as a table, writes the report file, prints the
/// result line and turns correctness into the exit code.
fn finish(
    w: &Workload,
    args: &Args,
    input: &Input,
    values: &[(&str, f64)],
    passes: Vec<Json>,
    (failed, attempted): (u64, u64),
    notes: Vec<(&str, Json)>,
) -> ExitCode {
    let (group, catalog): (&str, &[(&str, &str, &str)]) = if args.trace { ("layers", &PER_LAYER) } else { ("e2e", &END_TO_END) };
    let correct = failed == 0;
    let mut metrics = Vec::new();
    println!("{:<34} {:>18}  unit", w.name, "value");
    for (name, unit, _) in catalog {
        let value = values.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v);
        println!("  {name:<32} {value:>18.4}  {unit}");
        metrics.push((*name, obj([("value", Json::from(value)), ("unit", Json::from(*unit))])));
    }
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!("  {:<32} {failed_share:>18.6}  ({failed} of {attempted} operations)", "failed_share");
    let metrics = obj(metrics);

    let mut report = vec![
        ("env", env_json()),
        ("workload", workload_json(w, input, args)),
        ("trace", Json::from(args.trace)),
        ("seconds", Json::from(args.seconds)),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("failed_share", Json::from(failed_share)),
        (group, metrics.clone()),
        ("passes", Json::Arr(passes)),
    ];
    report.extend(notes);
    let path = format!("{OUT_DIR}/report.{}.trace{}.json", w.name, u8::from(args.trace));
    write_out(&path, &obj(report).pretty());

    let result = obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub fn run(w: &Workload, args: &Args) -> ExitCode {
    println!(
        "{}: {} — {} thread(s), seed {}{}",
        w.name,
        w.why,
        w.threads(),
        args.seed,
        if args.quick { ", QUICK (numbers are not comparable)" } else { "" }
    );
    if args.trace {
        traced(w, args)
    } else {
        timed(w, args)
    }
}

fn timed(w: &Workload, args: &Args) -> ExitCode {
    let mut setups = Vec::new();
    let mut input = None;
    let mut peak_rss = 0.0;
    for repeat in 0..SETUP_REPEATS {
        drop(input.take());
        let t0 = Instant::now();
        input = Some(set_up(w, args, args.seconds).0);
        setups.push(t0.elapsed().as_secs_f64());
        if repeat == 0 {
            // One input and one full pass in a fresh process: the same heap
            // history in every run. Read later, the mark depends on how the
            // allocator reused what earlier passes freed (423 to 480 MB on
            // `fleet_churn` after three passes, 396 to 397 MB here).
            peak_rss = peak_rss_mb();
        }
    }
    let input = input.expect("SETUP_REPEATS >= 1");

    let opts = PassOpts { metrics: true, trace: false, paced_seconds: args.seconds };
    let min_passes = if w.kind == Kind::Paced { 1 } else { MIN_PASSES };
    let measuring = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || measuring.elapsed().as_secs_f64() < args.seconds {
        passes.push(run_pass(w, &input, opts));
    }

    let reference = reference(w, &input, w.kind == Kind::Kg);
    let kg_expected = if w.kind == Kind::Kg { kg_batch_matches(&input, &reference.triples) } else { Vec::new() };
    let (mut failed, mut attempted) = (0, 0);
    for pass in &passes {
        let (f, a) = verify(w, pass, &reference, &kg_expected);
        failed += f;
        attempted += a;
    }

    let rates: Vec<f64> = passes.iter().map(rate).collect();
    let (q1, q2, q3) = quartiles(&rates);
    println!("  {} pass(es): records_per_s quartiles {q1:.0} / {q2:.0} / {q3:.0}", rates.len());
    println!("  records_per_s by pass: {}", rates.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>().join(" "));
    let pass_docs = passes.iter().map(|p| pass_json("timed", p)).collect();
    let (p50_ns, p99_ns, latency_note) = match passes.as_mut_slice() {
        [open] if w.kind == Kind::Paced => {
            let l = &mut open.latency;
            let note = format!(
                "{} samples in {} windows of 20 ms, {} beyond p99 in the smallest; mean over the calmer half of the windows",
                l.sample_count(),
                l.window_count(),
                l.min_window_samples() / 100
            );
            (l.estimate(0.50), l.estimate(0.99), note)
        }
        closed => {
            let by_pass: Vec<&[u64]> = closed.iter().map(|p| p.chunk_latency_ns.as_slice()).collect();
            let mut by_chunk = median_by_index(&by_pass);
            let note = format!(
                "{} chunk completions, each the median of {} passes, {} beyond p99",
                by_chunk.len(),
                by_pass.len(),
                by_chunk.len() / 100
            );
            (percentile(&mut by_chunk, 0.50), percentile(&mut by_chunk, 0.99), note)
        }
    };
    println!("  latency: {latency_note}");
    let values = [
        ("setup_s", median(&setups)),
        ("records_per_s", q2),
        ("latency_p50_us", p50_ns / 1e3),
        ("latency_p99_us", p99_ns / 1e3),
        ("peak_rss_mb", peak_rss),
    ];
    let notes = vec![
        ("setup_runs_s", Json::Arr(setups.iter().map(|&s| Json::from(s)).collect())),
        ("latency_estimator", Json::from(latency_note)),
    ];
    finish(w, args, &input, &values, pass_docs, (failed, attempted), notes)
}

/// Share of `wall_ns` inside the spans whose name satisfies `pick`.
fn share(layers: &[LayerTime], wall_ns: u64, pick: impl Fn(&str) -> bool) -> f64 {
    layers.iter().filter(|l| pick(l.name)).map(|l| l.sum_ns).sum::<u64>() as f64 / wall_ns.max(1) as f64
}

/// Cost of an entity's first record, from the traced pass alone: least
/// squares of each `ingest_batch` span's duration on the number of
/// first-seen entities in its chunk. The intercept is a chunk of records
/// whose entities all have state already; the slope is what one cold
/// start adds.
fn cold_start_ns_per_entity(input: &Input, pass: &Pass) -> f64 {
    let mut seen = FxHashSet::default();
    let new_per_chunk: Vec<f64> =
        input.reports.chunks(CHUNK).map(|slice| slice.iter().filter(|r| seen.insert(r.entity)).count() as f64).collect();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for span in pass.tracer.spans().iter().filter(|s| s.name == "RealTimeLayer::ingest_batch") {
        if let Some(&new) = new_per_chunk.get(span.trace_id as usize) {
            xs.push(new);
            ys.push(span.duration_ns() as f64);
        }
    }
    least_squares(&xs, &ys).map_or(0.0, |(_, slope)| slope)
}

fn traced(w: &Workload, args: &Args) -> ExitCode {
    // Three kinds of live pass share the run, so the open loop sends for a third of it each time.
    let paced_seconds = (args.seconds / 3.0).max(1.0);
    let mut setup_tracer = Tracer::new(true);
    let (input, gen_ns_per_record) = setup_tracer.span("setup", NO_PARENT, 0, || set_up(w, args, paced_seconds));
    let reference = reference(w, &input, true);
    let kg_expected = if w.kind == Kind::Kg { kg_batch_matches(&input, &reference.triples) } else { Vec::new() };

    let mut replay_tracer = Tracer::new(true);
    let replay = replay::run(w, &input, &reference, &mut replay_tracer);

    // Untraced, traced and metrics-off live passes in rotation, so drift hits all three alike.
    let kinds = [
        ("untraced", PassOpts { metrics: true, trace: false, paced_seconds }),
        ("traced", PassOpts { metrics: true, trace: true, paced_seconds }),
        ("metrics_off", PassOpts { metrics: false, trace: false, paced_seconds }),
    ];
    let mut costs: [Vec<f64>; 3] = Default::default();
    let mut pass_docs = Vec::new();
    let mut last_traced = None;
    let (mut failed, mut attempted) = (0, 0);
    let measuring = Instant::now();
    while last_traced.is_none() || measuring.elapsed().as_secs_f64() < args.seconds {
        for (i, (kind, opts)) in kinds.iter().enumerate() {
            let pass = run_pass(w, &input, *opts);
            let (f, a) = verify(w, &pass, &reference, &kg_expected);
            failed += f;
            attempted += a;
            costs[i].push(pass.busy_ns as f64);
            pass_docs.push(pass_json(kind, &pass));
            if opts.trace {
                last_traced = Some(pass);
            }
        }
    }
    let pass = last_traced.expect("the loop runs until a traced pass exists");
    let [untraced, traced_cost, metrics_off] = costs.map(|c| median(&c));

    // Counts must reconcile exactly: the stage replay saw the same records as the live pass.
    let fold = &pass.fold;
    let reconciled = [
        ("accepted", replay.accepted, fold.accepted),
        ("rejected", replay.rejected, fold.rejected),
        ("area_events", replay.area_events, fold.area_events),
        ("critical_points", replay.critical_points, fold.critical_points),
        ("triples", replay.triples, fold.triples),
        ("links", replay.links, fold.links),
        ("detections", replay.detections, fold.detections),
    ];
    for (name, replayed, live) in reconciled {
        if replayed != live {
            eprintln!("benchmark: {name} does not reconcile: stage replay {replayed}, live pass {live}");
            failed += replayed.abs_diff(live);
        }
    }

    let layers = layer_times(pass.tracer.spans());
    let wall = pass.wall_ns;
    let records = fold.records.max(1) as f64;
    let root_self = layers.iter().find(|l| l.name == "pass").map_or(0, |l| l.self_ns);
    let mut lag = pass.sched_lag_ns.clone();
    lag.sort_unstable();
    let lag_p99 = lag.get(lag.len().saturating_sub(1) * 99 / 100).copied().unwrap_or(0);
    let single_threaded = matches!(w.kind, Kind::Single);
    let mut values: Vec<(&str, f64)> = replay.metrics.clone();
    values.extend([
        ("gen_ns_per_record", gen_ns_per_record),
        ("sched_lag_p99_us", lag_p99 as f64 / 1e3),
        ("records_in", fold.records as f64),
        ("accepted", fold.accepted as f64),
        ("rejected", fold.rejected as f64),
        ("area_events", fold.area_events as f64),
        ("critical_points", fold.critical_points as f64),
        ("cp_per_record", fold.critical_points as f64 / records),
        ("triples", fold.triples as f64),
        ("links", fold.links as f64),
        ("link_useful_share", replay.link_stats.links as f64 / replay.link_stats.refinements.max(1) as f64),
        ("cep_symbols", replay.symbols as f64),
        ("detections", fold.detections as f64),
        ("ingest_share", share(&layers, wall, |n| n.ends_with("::ingest_batch") || n.ends_with("::ingest"))),
        ("poll_share", share(&layers, wall, |n| n.contains("poll"))),
        ("max_in_flight", pass.fact("max_in_flight")),
        ("merge_max_pending", pass.fact("merge_max_pending")),
        ("shard_skew", pass.fact("shard_skew")),
        // Only where the driver thread is the only busy one does wall − Σ(stage busy) mean glue.
        ("core_glue_share", if single_threaded { 1.0 - replay.chain_busy_ns as f64 / untraced.max(1.0) } else { 0.0 }),
        ("cold_start_ns_per_entity", if single_threaded { cold_start_ns_per_entity(&input, &pass) } else { 0.0 }),
        ("metrics_overhead_pct", (untraced - metrics_off) / metrics_off.max(1.0) * 100.0),
        ("evictions_per_record", pass.fact("evictions") / records),
        ("rehydrations", pass.fact("rehydrations")),
        ("max_resident", pass.fact("max_resident")),
        ("kg_drain_share", pass.fact("kg_drain_ns") / wall.max(1) as f64),
        ("kg_segments", pass.fact("kg_segments")),
        ("kg_generations", pass.fact("kg_generations")),
        ("kg_matches", pass.fact("kg_matches")),
        ("net_send_share", share(&layers, wall, |n| n == "NetClient::send")),
        ("net_retransmits", pass.fact("net_retransmits")),
        ("net_reconnects", pass.fact("net_reconnects")),
        ("net_nacks", pass.fact("net_nacks")),
        ("unattributed_share", root_self as f64 / wall.max(1) as f64),
        ("trace_overhead_pct", (traced_cost - untraced) / untraced.max(1.0) * 100.0),
    ]);

    println!("  live pass, span totals (self time = the span minus what its children cover):");
    for l in &layers {
        println!(
            "    {:<44} {:>9} span(s) {:>10.3} ms, self {:>10.3} ms",
            l.name,
            l.count,
            l.sum_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        );
    }
    let trace_path = format!("{OUT_DIR}/trace.{}.json", w.name);
    let doc = obj([
        ("setup", setup_tracer.to_json(w.name)),
        ("replay", replay_tracer.to_json(w.name)),
        ("live", pass.tracer.to_json(w.name)),
    ]);
    write_out(&trace_path, &doc.compact());
    let notes = vec![("trace_file", Json::from(trace_path)), ("facts", obj(pass.facts.iter().map(|&(n, v)| (n, Json::from(v)))))];
    finish(w, args, &input, &values, pass_docs, (failed, attempted), notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is hand-written; the names, units and directions in
    /// it must be the ones this binary emits.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")).expect("parses");
        let declared = |list: &str| -> Vec<(String, String, String)> {
            doc.get(list)
                .and_then(Json::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).expect("a string").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let emitted = |catalog: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            catalog.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), emitted(&END_TO_END));
        assert_eq!(declared("per_layer"), emitted(&PER_LAYER));
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("a list")
            .iter()
            .map(|w| (w.get("name").and_then(Json::as_str).expect("name"), w.get("why").and_then(Json::as_str).expect("why")))
            .collect();
        let ours: Vec<(&str, &str)> = crate::workload::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);
        for m in doc.get("end_to_end").and_then(Json::as_array).expect("a list") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }

    #[test]
    fn every_metric_name_is_declared_once() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
