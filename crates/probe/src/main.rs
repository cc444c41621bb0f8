//! `deco-probe`: summarize JSONL profiles recorded by the probe layer.
//!
//! ```text
//! deco-probe report <profile.jsonl> [--json <out.json>] [--bench <name>]
//! deco-probe digest <profile.jsonl>
//! ```
//!
//! `report` renders the per-phase cost breakdown to stdout and optionally
//! writes the bench-gate-compatible JSON document; `digest` prints the
//! FNV-1a fingerprint of the deterministic event subsequence (byte-equal
//! across `DECO_THREADS` for the same scenario, so two
//! profiles can be compared with `cmp`-level confidence without diffing).

use std::process::ExitCode;

use deco_probe::report::Report;
use deco_probe::{digest_events, read_jsonl, Event};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("deco-probe: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("report") => report(&args[1..]),
        Some("digest") => digest(&args[1..]),
        _ => Err("usage: deco-probe report <profile.jsonl> [--json <out.json>] [--bench <name>]\n\
                  \x20      deco-probe digest <profile.jsonl>"
            .to_string()),
    }
}

fn load_events(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    read_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn report(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut json_out: Option<&str> = None;
    let mut bench = "pr8_profile";
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                json_out = Some(it.next().ok_or("--json needs a path")?.as_str());
            }
            "--bench" => {
                bench = it.next().ok_or("--bench needs a name")?.as_str();
            }
            a if path.is_none() => path = Some(a),
            a => return Err(format!("unexpected argument {a:?}")),
        }
    }
    let path = path.ok_or("report needs a profile path")?;
    let events = load_events(path)?;
    let report = Report::build(&events);
    print!("{}", report.render_text());
    println!("deterministic digest: {:#018x}", digest_events(&events));
    if let Some(out) = json_out {
        std::fs::write(out, report.to_json(bench))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out} (bench {bench:?})");
    }
    Ok(())
}

fn digest(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("digest needs a profile path")?;
    let events = load_events(path)?;
    println!("{:#018x}", digest_events(&events));
    Ok(())
}
