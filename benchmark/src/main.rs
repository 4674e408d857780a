//! The datAcron-rs benchmark: seven named workloads, five end-to-end
//! metrics, per-layer attribution from outside the product.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! benchmark [--seed <n>] [--seconds <s>] [--quick]        every workload, timed then traced
//! benchmark aa [--seed <n>] [--seconds <s>] [--quick]     the timed set twice; differences against the bounds
//! ```
//!
//! The last line of a single-workload run is the result object the
//! driver reads; everything above it is for people. See `README.md`.

mod affinity;
mod drive;
mod json;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use json::Json;
use std::process::{Command, ExitCode, Stdio};
use workload::WORKLOADS;

/// Where the metric names, units, directions and bounds are declared.
const MANIFEST: &str = "BENCHMARK.json";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 42, seconds: 5.0, trace: false, quick: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => args.trace = value()? == "1",
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one workload in a child process (so `peak_rss_mb` is that
/// workload's alone) and returns its result line, parsed.
fn child(args: &Args, workload: &str, trace: bool, show: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if show {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload}: failed ({}); result: {last}", out.status));
    }
    Ok(result)
}

fn all(args: &Args) -> ExitCode {
    let mut failures = 0;
    for w in &WORKLOADS {
        for trace in [false, true] {
            if let Err(e) = child(args, w.name, trace, true) {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Name → bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("{MANIFEST}: {e} (run from the repository root)"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let metrics = doc.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// A/A: the timed set twice on this build. Any end-to-end metric that
/// differs between the two by more than its bound means the benchmark
/// cannot resolve a regression of that size.
fn aa(args: &Args) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rounds: Vec<Vec<Json>> = Vec::new();
    for round in ["A", "B"] {
        let mut results = Vec::new();
        for w in &WORKLOADS {
            eprintln!("aa: round {round}, {}", w.name);
            match child(args, w.name, false, false) {
                Ok(result) => results.push(result),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        rounds.push(results);
    }
    println!("{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}", "workload", "metric", "A", "B", "|B-A|/A", "bound");
    let mut exceeded = 0;
    for (i, w) in WORKLOADS.iter().enumerate() {
        for (name, bound) in &bounds {
            let value = |round: usize| {
                rounds[round][i].get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value")).and_then(Json::as_f64)
            };
            let (Some(a), Some(b)) = (value(0), value(1)) else {
                eprintln!("{}: {name} missing from a result", w.name);
                exceeded += 1;
                continue;
            };
            let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            let over = diff > *bound;
            exceeded += usize::from(over);
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                w.name,
                name,
                a,
                b,
                diff * 100.0,
                bound * 100.0,
                if over { "  EXCEEDED" } else { "" }
            );
        }
    }
    if exceeded == 0 {
        println!("aa: every difference is within its bound");
        ExitCode::SUCCESS
    } else {
        println!("aa: {exceeded} difference(s) beyond the bound");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match argv.first().map(String::as_str) {
        Some("aa") => ("aa", &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (sub, &args.workload) {
        ("aa", _) => aa(&args),
        (_, None) => all(&args),
        (_, Some(name)) => match workload::find(name) {
            Some(w) => run::run(w, &args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("benchmark: unknown workload {name}; one of {}", names.join(", "));
                ExitCode::from(2)
            }
        },
    }
}
