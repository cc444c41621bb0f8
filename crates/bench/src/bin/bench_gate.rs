//! `bench_gate` — the deterministic bench gate CLI (see `deco_bench::gate`).
//!
//! ```text
//! bench_gate write <baseline.json> <BENCH_*.json> ...
//!     Record the given bench outputs as the committed baseline.
//!
//! bench_gate check <baseline.json> <BENCH_*.json> ... [--diff <report.txt>]
//!     Diff fresh bench outputs against the baseline. Deterministic-counter
//!     regressions and scenario changes fail (exit 1); wall-clock deltas
//!     are reported but never fatal. The report is printed and, with
//!     --diff, also written to a file for the CI artifact.
//! ```
//!
//! Benches are matched by their `"bench"` field, so argument order does not
//! matter; a baseline entry with no matching input fails the check (the
//! trajectory must never silently lose coverage).

use deco_bench::gate;
use deco_probe::json::{self, Obj, Value};
use std::process::ExitCode;

const USAGE: &str = "usage: bench_gate write <baseline.json> <bench.json>...\n       \
                     bench_gate check <baseline.json> <bench.json>... [--diff <report.txt>]";

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Loads a bench output together with its `"bench"` name.
fn load_bench(path: &str) -> Result<(String, Value), String> {
    let v = load(path)?;
    let name = v.get("bench").and_then(Value::as_str).map(str::to_string);
    let name = name.ok_or_else(|| format!("{path}: missing \"bench\" field"))?;
    Ok((name, v))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one command: `Ok(false)` when the check fails, `Err` on bad usage
/// or unreadable input.
fn run(args: &[String]) -> Result<bool, String> {
    let (mode, baseline_path, rest) = match args {
        [mode, baseline, rest @ ..] if mode == "write" || mode == "check" => (mode, baseline, rest),
        _ => return Err(USAGE.to_string()),
    };
    let mut inputs = Vec::new();
    let mut diff_path: Option<&String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--diff" {
            diff_path = Some(it.next().ok_or(USAGE)?);
        } else {
            inputs.push(arg);
        }
    }
    if inputs.is_empty() {
        return Err(USAGE.to_string());
    }
    let loaded = inputs.iter().map(|p| load_bench(p)).collect::<Result<Vec<_>, _>>()?;

    if mode == "write" {
        let benches = loaded.into_iter().fold(Obj::new(), |o, (name, v)| o.field(&name, v));
        let doc = Obj::new()
            .field(
                "comment",
                "Deterministic bench baseline: counters (rounds, messages, regions, \
                 hashes) must not regress; wall-clock, acceptance and environment \
                 fields are informational. Regenerate deliberately with `cargo run \
                 --release -p deco-bench --bin bench_gate -- write BENCH_baseline.json \
                 BENCH_gate.json PROFILE_report.json` and say why in CHANGES.md.",
            )
            .field("benches", benches.build())
            .build();
        std::fs::write(baseline_path, json::to_string(&doc))
            .map_err(|e| format!("cannot write {baseline_path}: {e}"))?;
        println!("wrote {baseline_path}");
        return Ok(true);
    }

    let Some(Value::Object(entries)) = load(baseline_path)?.get("benches").cloned() else {
        return Err(format!("{baseline_path}: missing \"benches\" object"));
    };
    let mut all = String::new();
    let mut ok = true;
    for (name, base_v) in &entries {
        match loaded.iter().find(|(n, _)| n == name) {
            Some((_, fresh)) => {
                let report = gate::check(base_v, fresh);
                ok &= report.passed();
                all.push_str(&report.render(name));
            }
            None => {
                ok = false;
                all.push_str(&format!("== {name}: FAIL (no fresh bench output supplied)\n"));
            }
        }
    }
    for (name, _) in &loaded {
        if !entries.iter().any(|(n, _)| n == name) {
            all.push_str(&format!("== {name}: note: not in baseline (re-baseline to track)\n"));
        }
    }
    print!("{all}");
    if let Some(path) = diff_path {
        std::fs::write(path, &all).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if ok {
        println!("bench gate: PASS");
    } else {
        println!("bench gate: FAIL (deterministic counter regression or scenario drift)");
    }
    Ok(ok)
}
