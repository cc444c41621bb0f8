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
use deco_bench::json::{self, Obj, Value};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_gate write <baseline.json> <bench.json>...\n       \
         bench_gate check <baseline.json> <bench.json>... [--diff <report.txt>]"
    );
    ExitCode::FAILURE
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bench_name(v: &Value, path: &str) -> Result<String, String> {
    v.get("bench")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{path}: missing \"bench\" field"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.split_first() {
        Some((m, rest)) if (m == "write" || m == "check") && rest.len() >= 2 => (m.clone(), rest),
        _ => return usage(),
    };
    let baseline_path = &rest[0];
    let mut inputs = Vec::new();
    let mut diff_path: Option<String> = None;
    let mut it = rest[1..].iter();
    while let Some(arg) = it.next() {
        if arg == "--diff" {
            match it.next() {
                Some(p) => diff_path = Some(p.clone()),
                None => return usage(),
            }
        } else {
            inputs.push(arg.clone());
        }
    }
    if inputs.is_empty() {
        return usage();
    }
    let mut loaded: Vec<(String, Value)> = Vec::new();
    for path in &inputs {
        match load(path).and_then(|v| bench_name(&v, path).map(|n| (n, v))) {
            Ok(entry) => loaded.push(entry),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if mode == "write" {
        let mut benches = Obj::new();
        for (name, v) in loaded {
            benches = benches.field(&name, v);
        }
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
        if let Err(e) = std::fs::write(baseline_path, json::to_string(&doc)) {
            eprintln!("cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {baseline_path}");
        return ExitCode::SUCCESS;
    }

    let baseline = match load(baseline_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(Value::Object(entries)) = baseline.get("benches").cloned() else {
        eprintln!("{baseline_path}: missing \"benches\" object");
        return ExitCode::FAILURE;
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
        if let Err(e) = std::fs::write(&path, &all) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if ok {
        println!("bench gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!("bench gate: FAIL (deterministic counter regression or scenario drift)");
        ExitCode::FAILURE
    }
}
