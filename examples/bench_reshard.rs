//! Skewed-key re-sharding benchmark: elastic resize and hot-key rebalance
//! under open-loop load (EXPERIMENTS.md, skewed-key table).
//!
//! The scenario the paper's time-critical setting produces: one entity (a
//! busy port's feed, a surveilled aircraft) emits **half** of all traffic,
//! and the background fleet hashes onto the same shard — the worst case
//! for static hash partitioning, and the dominant tail-latency driver in
//! real deployments. Three arms over the identical paced stream:
//!
//! * `skewed_static` — a fixed fleet with no rebalancing: the baseline,
//!   with the hot shard carrying everything.
//! * `skewed_rebalanced` — the same fleet with a [`RebalancePolicy`]
//!   installed and `maybe_rebalance` polled from the ingest loop: the
//!   policy must trip, pin the hot key to its own shard mid-stream, and
//!   hold the post-rebalance imbalance at the achievable floor.
//! * `elastic` — live resizes 2 → 8 → 4 mid-stream, measuring the
//!   stop-the-world pause of each checkpoint-migrate-respawn cycle.
//!
//! Every arm is open-loop (arrivals paced at `--rate` records/second
//! regardless of pipeline progress) and must be lossless: submitted ==
//! merged, zero late, zero duplicates — a resize may pause the stream but
//! never bend it. Writes `BENCH_reshard.json` (validate with
//! `tools/validate_reshard_bench.py`).
//!
//! ```text
//! cargo run --release --example bench_reshard -- \
//!     [--records 120000] [--background 12] [--shards 4] [--rate 20000] \
//!     [--seed 42] [--out BENCH_reshard.json] [--quick] \
//!     [--p99-gate-us N] [--imbalance-gate X]
//! ```
//!
//! `--p99-gate-us` / `--imbalance-gate` turn the report into an enforcing
//! CI gate: exit non-zero when the rebalanced arm's post-rebalance p99
//! exceeds the gate, when its post-rebalance imbalance exceeds the
//! threshold, or when the policy never tripped at all.

use datacron::core::sharded::ShardedRealTimeLayer;
use datacron::core::DatacronConfig;
use datacron::geo::{BoundingBox, EntityId, GeoPoint, PositionReport, Timestamp};
use datacron::stream::parallel::{RebalancePolicy, ShardAssigner, ShardedConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Args {
    records: usize,
    background: usize,
    shards: usize,
    rate: f64,
    seed: u64,
    out: String,
    quick: bool,
    p99_gate_us: Option<u64>,
    imbalance_gate: Option<f64>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            records: 120_000,
            background: 12,
            shards: 4,
            rate: 20_000.0,
            seed: 42,
            out: "BENCH_reshard.json".to_string(),
            quick: false,
            p99_gate_us: None,
            imbalance_gate: None,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let value = |i: &mut usize| -> String {
                *i += 1;
                argv.get(*i).unwrap_or_else(|| panic!("{} needs a value", argv[*i - 1])).clone()
            };
            match argv[i].as_str() {
                "--records" => args.records = value(&mut i).parse().expect("--records"),
                "--background" => args.background = value(&mut i).parse().expect("--background"),
                "--shards" => args.shards = value(&mut i).parse().expect("--shards"),
                "--rate" => args.rate = value(&mut i).parse().expect("--rate"),
                "--seed" => args.seed = value(&mut i).parse().expect("--seed"),
                "--out" => args.out = value(&mut i),
                "--quick" => args.quick = true,
                "--p99-gate-us" => {
                    args.p99_gate_us = Some(value(&mut i).parse().expect("--p99-gate-us"))
                }
                "--imbalance-gate" => {
                    args.imbalance_gate = Some(value(&mut i).parse().expect("--imbalance-gate"))
                }
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        if args.quick {
            args.records = args.records.min(24_000);
        }
        assert!(args.rate > 0.0, "--rate must be positive");
        assert!(args.background >= 1 && args.shards >= 2);
        args
    }
}

fn config() -> DatacronConfig {
    DatacronConfig::maritime(BoundingBox::new(-10.0, 30.0, 10.0, 50.0))
}

/// The skewed stream: entity `1` (the hot key) emits every second record —
/// 50% of all traffic — and the background entities are *chosen to hash
/// onto the hot key's shard* at the arm's shard count, so the whole
/// stream lands on one shard until something reroutes. Tracks are slow
/// circles (1°/step), so every track stays inside the extent no matter
/// how long the run.
fn skewed_fleet(records: usize, background: usize, shards: usize) -> Vec<PositionReport> {
    let assigner = ShardAssigner::new(shards);
    let hot = EntityId::vessel(1);
    let hot_shard = assigner.assign(&hot);
    let mut ids = Vec::with_capacity(background);
    let mut id = hot.id + 1;
    while ids.len() < background {
        if assigner.assign(&EntityId::vessel(id)) == hot_shard {
            ids.push(id);
        }
        id += 1;
    }

    // Per-track cursor: position, step counter. Rank 0 is the hot entity.
    let mut pos: Vec<GeoPoint> = (0..=background)
        .map(|rank| GeoPoint::new(-6.0 + 0.5 * (rank % 24) as f64, 36.0 + 0.4 * (rank / 24) as f64))
        .collect();
    let mut step = vec![0i64; background + 1];
    let mut out = Vec::with_capacity(records);
    for i in 0..records {
        let (entity, rank) =
            if i % 2 == 0 { (hot.id, 0) } else { (ids[(i / 2) % background], 1 + (i / 2) % background) };
        let k = step[rank];
        step[rank] += 1;
        let heading = (k % 360) as f64;
        pos[rank] = pos[rank].destination(heading, 80.0);
        out.push(PositionReport {
            speed_mps: 8.0,
            heading_deg: heading,
            ..PositionReport::basic(
                EntityId::vessel(entity),
                Timestamp::from_secs(k * 10),
                pos[rank],
            )
        });
    }
    out
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Spin-assisted pacing: sleep the bulk, spin the last stretch.
fn pace_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_micros(300) {
            std::thread::sleep(remaining - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One mid-stream reconfiguration event.
struct ReconfigEvent {
    from: usize,
    to: usize,
    pause_us: u64,
    moved_entities: usize,
}

/// What one arm is allowed to do mid-stream.
struct ArmPlan {
    start_shards: usize,
    /// `(record index, new shard count)` — explicit live resizes.
    resizes: Vec<(usize, usize)>,
    /// Auto-rebalance policy, polled every `check_every` records.
    policy: Option<RebalancePolicy>,
    check_every: usize,
}

struct ArmResult {
    final_shards: usize,
    elapsed: Duration,
    records: usize,
    accepted: u64,
    latencies_us: Vec<u64>,
    /// Submission index of the last reconfiguration, if any.
    reconfig_at: Option<usize>,
    events: Vec<ReconfigEvent>,
    overrides: usize,
    /// Skew-adjusted imbalance observed at the moment the policy tripped.
    imbalance_before: Option<f64>,
    /// Skew-adjusted imbalance over the final routing epoch's loads.
    imbalance_after: f64,
    max_reorder: usize,
}

impl ArmResult {
    /// Latencies of records submitted after the last reconfiguration (all
    /// records when the arm never reconfigured), sorted.
    fn post_latencies(&self) -> Vec<u64> {
        let from = self.reconfig_at.unwrap_or(0);
        let mut v: Vec<u64> = self.latencies_us[from..].to_vec();
        v.sort_unstable();
        v
    }

    fn sorted_latencies(&self) -> Vec<u64> {
        let mut v = self.latencies_us.clone();
        v.sort_unstable();
        v
    }

    fn rps(&self) -> f64 {
        self.records as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// One open-loop arm: paced arrivals, per-record submit→merge latencies
/// (attributed by submission order — the merge preserves it), mid-stream
/// resizes and policy checks per the plan. Panics unless the run is
/// lossless across every routing epoch.
fn run_arm(input: &[PositionReport], rate: f64, plan: &ArmPlan) -> ArmResult {
    let mut layer = ShardedRealTimeLayer::new(
        config(),
        Vec::new(),
        Vec::new(),
        ShardedConfig::with_shards(plan.start_shards),
    );
    if let Some(policy) = &plan.policy {
        layer.set_rebalance_policy(policy.clone());
    }
    let mut submit_times: Vec<Instant> = Vec::with_capacity(input.len());
    let mut latencies_us: Vec<u64> = Vec::with_capacity(input.len());
    let mut merged_so_far = 0usize;
    let mut accepted = 0u64;
    let mut events = Vec::new();
    let mut reconfig_at = None;
    let mut imbalance_before = None;
    let mut resizes = plan.resizes.iter().copied().peekable();
    let started = Instant::now();
    for (i, r) in input.iter().enumerate() {
        if let Some(&(at, to)) = resizes.peek() {
            if i == at {
                resizes.next();
                let report = layer.resize(to).expect("live resize");
                events.push(ReconfigEvent {
                    from: report.from_shards,
                    to: report.to_shards,
                    pause_us: report.duration.as_micros() as u64,
                    moved_entities: report.plan.moved.len(),
                });
                reconfig_at = Some(i);
            }
        }
        if plan.policy.is_some() && i > 0 && i % plan.check_every == 0 {
            let loads = layer.shard_loads().to_vec();
            let max_key = layer.key_loads().iter().map(|&(_, n)| n).max().unwrap_or(0);
            let imbalance = RebalancePolicy::imbalance(&loads, max_key);
            if let Some(report) = layer.maybe_rebalance().expect("rebalance at a fixed count") {
                imbalance_before.get_or_insert(imbalance);
                events.push(ReconfigEvent {
                    from: report.from_shards,
                    to: report.to_shards,
                    pause_us: report.duration.as_micros() as u64,
                    moved_entities: report.plan.moved.len(),
                });
                reconfig_at = Some(i);
            }
        }
        // Pace to the arrival schedule, observing merges event-driven.
        let deadline = started + Duration::from_secs_f64(i as f64 / rate);
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let remaining = deadline - now;
            if remaining <= Duration::from_micros(300) {
                pace_until(deadline);
                break;
            }
            let outs = layer.poll_outputs_timeout(remaining - Duration::from_micros(200));
            if outs.is_empty() {
                continue;
            }
            let done = Instant::now();
            for out in outs {
                latencies_us
                    .push(done.duration_since(submit_times[merged_so_far]).as_micros() as u64);
                merged_so_far += 1;
                accepted += out.output.accepted as u64;
            }
        }
        submit_times.push(Instant::now());
        layer.ingest(*r);
        for out in layer.poll_outputs() {
            let done = Instant::now();
            latencies_us.push(done.duration_since(submit_times[merged_so_far]).as_micros() as u64);
            merged_so_far += 1;
            accepted += out.output.accepted as u64;
        }
    }
    let final_shards = layer.shards();
    let overrides = layer.assigner().overrides().len();
    let loads = layer.shard_loads().to_vec();
    let max_key = layer.key_loads().iter().map(|&(_, n)| n).max().unwrap_or(0);
    let imbalance_after = RebalancePolicy::imbalance(&loads, max_key);
    let done = layer.finish();
    let end = Instant::now();
    for out in &done.outputs {
        latencies_us.push(end.duration_since(submit_times[merged_so_far]).as_micros() as u64);
        merged_so_far += 1;
        accepted += out.output.accepted as u64;
    }
    let elapsed = started.elapsed();
    assert_eq!(merged_so_far, input.len(), "lossless across every epoch");
    assert_eq!(done.submitted, input.len() as u64);
    assert_eq!(done.merged, input.len() as u64);
    assert_eq!(done.late, 0, "no record may straddle an epoch boundary");
    assert_eq!(done.duplicates, 0);
    ArmResult {
        final_shards,
        elapsed,
        records: input.len(),
        accepted,
        latencies_us,
        reconfig_at,
        events,
        overrides,
        imbalance_before,
        imbalance_after,
        max_reorder: done.max_reorder,
    }
}

fn latency_json(sorted: &[u64]) -> String {
    format!(
        "{{\"p50\": {}, \"p99\": {}, \"max\": {}}}",
        percentile(sorted, 0.50),
        percentile(sorted, 0.99),
        sorted.last().copied().unwrap_or(0)
    )
}

fn arm_json(r: &ArmResult) -> String {
    let sorted = r.sorted_latencies();
    let post = r.post_latencies();
    let mut out = format!(
        "{{\"final_shards\": {}, \"records_per_sec\": {:.1}, \"elapsed_ms\": {:.3}, \
         \"accepted\": {}, \"latency_us\": {}, \"post_reconfig_latency_us\": {}, \
         \"max_reorder\": {}, \"overrides\": {}, \"imbalance_after\": {:.4}, \"lossless\": true",
        r.final_shards,
        r.rps(),
        r.elapsed.as_secs_f64() * 1e3,
        r.accepted,
        latency_json(&sorted),
        latency_json(&post),
        r.max_reorder,
        r.overrides,
        r.imbalance_after,
    );
    if let Some(b) = r.imbalance_before {
        let _ = write!(out, ", \"imbalance_before\": {b:.4}");
    }
    out.push_str(", \"reconfigs\": [");
    for (i, e) in r.events.iter().enumerate() {
        let sep = if i + 1 < r.events.len() { ", " } else { "" };
        let _ = write!(
            out,
            "{{\"from\": {}, \"to\": {}, \"pause_us\": {}, \"moved_entities\": {}}}{sep}",
            e.from, e.to, e.pause_us, e.moved_entities
        );
    }
    out.push_str("]}");
    out
}

fn print_arm(name: &str, r: &ArmResult) {
    let sorted = r.sorted_latencies();
    let post = r.post_latencies();
    println!(
        "  {name:<17}: p50 {} us, p99 {} us, max {} us | post-reconfig p99 {} us | \
         imbalance {:.2}{} | {} reconfig(s), {} override(s), attained {:.0} rec/s",
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.99),
        sorted.last().copied().unwrap_or(0),
        percentile(&post, 0.99),
        r.imbalance_after,
        r.imbalance_before.map(|b| format!(" (was {b:.2})")).unwrap_or_default(),
        r.events.len(),
        r.overrides,
        r.rps(),
    );
    for e in &r.events {
        println!(
            "    reconfig {} -> {} shards: paused {} us, moved {} entities",
            e.from, e.to, e.pause_us, e.moved_entities
        );
    }
}

fn main() {
    let args = Args::parse();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let input = skewed_fleet(args.records, args.background, args.shards);
    let policy = RebalancePolicy::default();
    println!(
        "bench_reshard: {} records (hot entity at 50%, {} co-resident background), \
         {} shards, paced at {:.0} rec/s, {} core(s){}",
        input.len(),
        args.background,
        args.shards,
        args.rate,
        cores,
        if args.quick { " [quick]" } else { "" },
    );

    // Warm-up: page in code and allocator arenas before any measured arm.
    let _ = run_arm(
        &input[..input.len().min(4096)],
        args.rate,
        &ArmPlan {
            start_shards: args.shards,
            resizes: Vec::new(),
            policy: None,
            check_every: usize::MAX,
        },
    );

    let skewed_static = run_arm(
        &input,
        args.rate,
        &ArmPlan {
            start_shards: args.shards,
            resizes: Vec::new(),
            policy: None,
            check_every: usize::MAX,
        },
    );
    print_arm("skewed_static", &skewed_static);

    let skewed_rebalanced = run_arm(
        &input,
        args.rate,
        &ArmPlan {
            start_shards: args.shards,
            resizes: Vec::new(),
            policy: Some(policy.clone()),
            check_every: 512,
        },
    );
    print_arm("skewed_rebalanced", &skewed_rebalanced);
    assert_eq!(
        skewed_rebalanced.accepted, skewed_static.accepted,
        "a rebalance must not change a single accept/reject decision"
    );

    let third = input.len() / 3;
    let elastic = run_arm(
        &input,
        args.rate,
        &ArmPlan {
            start_shards: 2,
            resizes: vec![(third, 8), (2 * third, 4)],
            policy: None,
            check_every: usize::MAX,
        },
    );
    print_arm("elastic", &elastic);
    assert_eq!(
        elastic.accepted, skewed_static.accepted,
        "live resizes must not change a single accept/reject decision"
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"reshard\",").unwrap();
    writeln!(json, "  \"seed\": {},", args.seed).unwrap();
    writeln!(json, "  \"cores\": {cores},").unwrap();
    writeln!(json, "  \"quick\": {},", args.quick).unwrap();
    writeln!(json, "  \"records\": {},", input.len()).unwrap();
    writeln!(json, "  \"rate_per_sec\": {:.1},", args.rate).unwrap();
    writeln!(json, "  \"hot_share\": 0.5,").unwrap();
    writeln!(json, "  \"background_entities\": {},", args.background).unwrap();
    writeln!(json, "  \"shards\": {},", args.shards).unwrap();
    writeln!(
        json,
        "  \"policy\": {{\"max_imbalance\": {:.2}, \"min_records\": {}, \
         \"cooldown_records\": {}, \"max_overrides\": {}}},",
        policy.max_imbalance, policy.min_records, policy.cooldown_records, policy.max_overrides
    )
    .unwrap();
    writeln!(json, "  \"skewed_static\": {},", arm_json(&skewed_static)).unwrap();
    writeln!(json, "  \"skewed_rebalanced\": {},", arm_json(&skewed_rebalanced)).unwrap();
    writeln!(json, "  \"elastic\": {}", arm_json(&elastic)).unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&args.out, &json).expect("write benchmark output");
    println!("wrote {}", args.out);

    // Enforcing gates (CI): the policy must have tripped, held the
    // post-rebalance imbalance under the threshold, and kept the
    // post-rebalance tail bounded.
    let mut failed = false;
    if (args.p99_gate_us.is_some() || args.imbalance_gate.is_some())
        && skewed_rebalanced.events.is_empty()
    {
        eprintln!("FAIL: the rebalance policy never tripped on a 50% hot key");
        failed = true;
    }
    if let Some(gate) = args.imbalance_gate {
        if skewed_rebalanced.imbalance_after > gate {
            eprintln!(
                "FAIL: post-rebalance imbalance {:.3} exceeds the {gate:.3} gate",
                skewed_rebalanced.imbalance_after
            );
            failed = true;
        }
    }
    if let Some(gate) = args.p99_gate_us {
        let post_p99 = percentile(&skewed_rebalanced.post_latencies(), 0.99);
        if post_p99 > gate {
            eprintln!("FAIL: post-rebalance p99 {post_p99} us exceeds the {gate} us gate");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
