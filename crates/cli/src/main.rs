//! `datacron-cli` — the scenario runner.
//!
//! The surface binary of the workspace: everything it does is a thin
//! composition of library crates (`datacron-data` parses and generates
//! scenarios, `datacron-core` runs them); the binary owns only argument
//! parsing, process exit codes and report serialisation.
//!
//! ```text
//! datacron-cli check scenarios/smoke.scenario
//! datacron-cli run scenarios/smoke.scenario --json out.json
//! ```
//!
//! Exit codes: `0` success, `1` scenario/file error, `2` usage error,
//! `3` contract violation (residency over budget).

mod json;
mod runner;

use datacron_data::scenario::{ScenarioGenerator, ScenarioSpec};
use json::Value;
use runner::ArmReport;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

const USAGE: &str = "\
datacron-cli — declarative scenario runner for the datAcron reproduction

USAGE:
    datacron-cli check <file.scenario>
    datacron-cli run   <file.scenario> [OPTIONS]

COMMANDS:
    check    Parse and validate the scenario, print the execution plan.
    run      Generate the fleet and stream it through the real-time layer.

OPTIONS (run):
    --budget N        Override the scenario's resident-entity budget
                      (0 = unbounded).
    --spill-dir DIR   Spill cold entities to one file per entity under
                      DIR (the directory tier) instead of memory.
    --chunk N         Ingest batch size (default 1024).
    --json PATH       Write the machine-readable run report to PATH.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn load_spec(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn check(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match load_spec(path) {
        Ok(spec) => {
            let cohort = (spec.entities() as usize).div_ceil(spec.waves);
            println!("scenario       {}", spec.name);
            println!("seed           {}", spec.seed);
            println!(
                "extent         [{}, {}] x [{}, {}]",
                spec.extent.min_lon, spec.extent.max_lon, spec.extent.min_lat, spec.extent.max_lat
            );
            println!("fleet          {} vessels + {} aircraft", spec.vessels, spec.aircraft);
            println!("waves          {} x {} rounds (cohort ~{} entities)", spec.waves, spec.rounds, cohort);
            println!("reports        <= {} ({} per visit every {} s)", spec.max_reports(), spec.reports_per_visit, spec.step_seconds);
            match &spec.burst {
                Some(b) => println!("burst          [{}, {}) x{}", b.start, b.end, b.multiplier),
                None => println!("burst          none"),
            }
            match spec.regime_shift {
                Some(s) => println!("regime shift   at {s}"),
                None => println!("regime shift   none"),
            }
            match &spec.gap {
                Some(g) => println!("gap            [{}, {}) silencing {}", g.start, g.end, g.silent),
                None => println!("gap            none"),
            }
            match spec.budget {
                Some(b) => println!("budget         {b} resident entities"),
                None => println!("budget         unbounded"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    path: String,
    budget_override: Option<Option<usize>>,
    spill_dir: Option<PathBuf>,
    chunk: usize,
    json_out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        path: String::new(),
        budget_override: None,
        spill_dir: None,
        chunk: 1024,
        json_out: None,
    };
    let mut it = args.iter();
    let value_of = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => {
                let v = value_of("--budget", &mut it)?;
                let n: usize = v.parse().map_err(|_| format!("--budget: bad value {v:?}"))?;
                parsed.budget_override = Some((n > 0).then_some(n));
            }
            "--spill-dir" => parsed.spill_dir = Some(PathBuf::from(value_of("--spill-dir", &mut it)?)),
            "--chunk" => {
                let v = value_of("--chunk", &mut it)?;
                parsed.chunk = v.parse().map_err(|_| format!("--chunk: bad value {v:?}"))?;
                if parsed.chunk == 0 {
                    return Err("--chunk must be >= 1".into());
                }
            }
            "--json" => parsed.json_out = Some(PathBuf::from(value_of("--json", &mut it)?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            path if parsed.path.is_empty() => parsed.path = path.to_string(),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    if parsed.path.is_empty() {
        return Err("missing <file.scenario>".into());
    }
    Ok(parsed)
}

fn run(args: &[String]) -> ExitCode {
    let parsed = match parse_run_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match load_spec(&parsed.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = parsed.budget_override.unwrap_or(spec.budget);
    let estimate = ScenarioGenerator::new(spec.clone()).spec().max_reports();
    eprintln!(
        "running `{}`: {} entities, <= {} reports, budget {}",
        spec.name,
        spec.entities(),
        estimate,
        budget.map_or("unbounded".to_string(), |b| b.to_string()),
    );
    let arm = runner::run_scenario(&spec, budget, parsed.spill_dir.clone(), parsed.chunk);

    eprintln!(
        "  {:>9}: {} reports in {:.2} s ({:.0} rec/s), {} accepted, {} dead-lettered, \
         max resident {}, evictions {}, rehydrations {}",
        arm.label,
        arm.reports,
        arm.elapsed_ns as f64 / 1e9,
        arm.records_per_sec,
        arm.accepted,
        arm.dead_lettered,
        arm.max_resident,
        arm.spill.evictions,
        arm.spill.rehydrations,
    );

    if let Some(path) = &parsed.json_out {
        let rendered = render_report(&spec, &arm, parsed.chunk).render();
        if let Err(e) = std::fs::write(path, rendered) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("  report written to {}", path.display());
    }

    if !arm.budget_respected {
        eprintln!("CONTRACT VIOLATION: residency exceeded the budget, see report above");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

fn arm_json(arm: &ArmReport) -> Value {
    Value::object(vec![
        ("label", Value::Str(arm.label.into())),
        ("budget", arm.budget.map_or(Value::Null, |b| Value::Int(b as i128))),
        ("reports", Value::Int(arm.reports as i128)),
        ("elapsed_ms", Value::Float(arm.elapsed_ns as f64 / 1e6)),
        ("records_per_sec", Value::Float(arm.records_per_sec)),
        ("digest", Value::Str(format!("{:016x}", arm.digest))),
        ("accepted", Value::Int(arm.accepted as i128)),
        ("dead_lettered", Value::Int(arm.dead_lettered as i128)),
        ("critical_points", Value::Int(arm.critical_points as i128)),
        ("area_events", Value::Int(arm.area_events as i128)),
        ("links", Value::Int(arm.links as i128)),
        ("triples", Value::Int(arm.triples as i128)),
        ("entities", Value::Int(arm.entities as i128)),
        ("max_resident", Value::Int(arm.max_resident as i128)),
        ("budget_respected", Value::Bool(arm.budget_respected)),
        (
            "spill",
            Value::object(vec![
                ("evictions", Value::Int(arm.spill.evictions as i128)),
                ("rehydrations", Value::Int(arm.spill.rehydrations as i128)),
                ("spilled", Value::Int(arm.spill.spilled as i128)),
                ("spilled_bytes", Value::Int(arm.spill.spilled_bytes as i128)),
                ("disk_errors", Value::Int(arm.spill.disk_errors as i128)),
                ("rehydrate_failures", Value::Int(arm.spill.rehydrate_failures as i128)),
            ]),
        ),
    ])
}

fn render_report(spec: &ScenarioSpec, arm: &ArmReport, chunk: usize) -> Value {
    let now_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as i128)
        .unwrap_or(0);
    Value::object(vec![
        ("bench", Value::Str("spill".into())),
        ("scenario", Value::Str(spec.name.clone())),
        ("generated_unix_ms", Value::Int(now_ms)),
        ("seed", Value::Int(spec.seed as i128)),
        ("vessels", Value::Int(spec.vessels as i128)),
        ("aircraft", Value::Int(spec.aircraft as i128)),
        ("entities", Value::Int(spec.entities() as i128)),
        ("waves", Value::Int(spec.waves as i128)),
        ("rounds", Value::Int(spec.rounds as i128)),
        ("chunk", Value::Int(chunk as i128)),
        ("arm", arm_json(arm)),
    ])
}
