//! The `deco-stream` front end: replay a churn trace, or generate one.
//!
//! ```text
//! deco-stream <trace-file> [threshold_pct] [--profile <out.jsonl>]
//!             [--engine legacy|segmented]
//!     Replay a trace, printing one row per commit (repaired edges, region
//!     size, strategy, simulator rounds/messages, wall time) and totals.
//!     With --profile, the full structured event stream of the run —
//!     commit decisions, phase spans, per-round samples — is written as
//!     JSONL for `deco-probe report`. --engine picks the commit
//!     representation (default: legacy delta-CSR; segmented = stable edge
//!     ids, O(region) commit traffic) — both are driven through the same
//!     `RegionRecolor` facade and produce identical colorings.
//!
//! deco-stream --gen <n> <delta_cap> <commits> <churn> <seed> [out-file]
//!     Generate the canonical seeded churn trace; write it to the file, or
//!     to stdout when no file is given.
//! ```

use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_graph::generators::random_bounded_degree;
use deco_graph::trace::{parse_trace, to_text, try_churn_trace_from, Trace};
use deco_probe::JsonlProbe;
use deco_stream::{replay_trace_on, RecolorConfig, Recolorer, RegionRecolor, SegRecolorer};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: deco-stream <trace-file> [threshold_pct] [--profile <out.jsonl>] \
         [--engine legacy|segmented]\n       \
         deco-stream --gen <n> <delta_cap> <commits> <churn> <seed> [out-file]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--gen") => generate(&args[1..]),
        Some(path) if !path.starts_with('-') => replay(path, &args[1..]),
        _ => usage(),
    }
}

/// Parses `--gen`'s five numbers and generates the trace, rejecting the
/// arguments the generators cannot serve. The trace is exactly
/// `churn_trace(n, delta_cap, commits, churn, seed)`.
fn gen_trace(args: &[String]) -> Result<Trace, String> {
    let nums: Vec<u64> = args.iter().take(5).filter_map(|a| a.parse().ok()).collect();
    let [n, delta_cap, commits, churn, seed] = nums[..] else {
        return Err("--gen takes five numbers".to_string());
    };
    let [n, delta_cap, commits, churn] = [n, delta_cap, commits, churn].map(|x| x as usize);
    if n > u32::MAX as usize {
        return Err(format!("n = {n} exceeds the u32 vertex range"));
    }
    if delta_cap >= n {
        return Err(format!("delta_cap = {delta_cap} must be below n = {n}"));
    }
    let base = random_bounded_degree(n, delta_cap, seed);
    try_churn_trace_from(&base, delta_cap, commits, churn, seed).map_err(|e| e.to_string())
}

fn generate(args: &[String]) -> ExitCode {
    let trace = match gen_trace(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("deco-stream: {e}");
            return usage();
        }
    };
    let text = to_text(&trace);
    match args.get(5) {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {path}: n={} Δ≤{}, {} commits ({} churn × {} edges)",
                trace.n0,
                args[1],
                trace.commit_count(),
                args[2],
                args[3]
            );
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn replay(path: &str, rest: &[String]) -> ExitCode {
    let mut threshold_pct: u32 = 25;
    let mut profile_path: Option<&str> = None;
    let mut segmented = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--profile" {
            match it.next() {
                Some(p) => profile_path = Some(p),
                None => return usage(),
            }
        } else if arg == "--engine" {
            match it.next().map(String::as_str) {
                Some("legacy") => segmented = false,
                Some("segmented") => segmented = true,
                _ => return usage(),
            }
        } else {
            match arg.parse() {
                Ok(pct) => threshold_pct = pct,
                Err(_) => return usage(),
            }
        }
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match parse_trace(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let probe: Arc<dyn deco_probe::Probe> = match profile_path {
        Some(p) => match JsonlProbe::create(p) {
            Ok(j) => Arc::new(j),
            Err(e) => {
                eprintln!("cannot create {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => deco_probe::null(),
    };
    println!(
        "replaying {path}: n0={}, {} commits, repair threshold {threshold_pct}% of m{}",
        trace.n0,
        trace.commit_count(),
        if segmented { ", segmented engine" } else { "" }
    );
    let cfg = RecolorConfig::default().with_repair_threshold(threshold_pct).with_probe(probe);
    let (params, mode) = (edge_log_depth(1), MessageMode::Long);
    let engine: Result<Box<dyn RegionRecolor>, _> = if segmented {
        SegRecolorer::new_with(trace.n0, params, mode, cfg)
            .map(|e| Box::new(e) as Box<dyn RegionRecolor>)
    } else {
        Recolorer::new_with(trace.n0, params, mode, cfg)
            .map(|e| Box::new(e) as Box<dyn RegionRecolor>)
    };
    let mut engine = match engine {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{path}: invalid parameters: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match replay_trace_on(engine.as_mut(), &trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "\n{:>6} {:>5} {:>5} {:>8} {:>8} {:>8} {:>11} {:>8} {:>9} {:>9}",
        "commit", "+e", "-e", "m", "dirty", "region", "strategy", "rounds", "msgs", "wall ms"
    );
    let mut totals = deco_local::RunStats::zero();
    for (rep, wall) in out.reports.iter().zip(&out.wall) {
        totals += rep.stats;
        println!(
            "{:>6} {:>5} {:>5} {:>8} {:>8} {:>8} {:>11} {:>8} {:>9} {:>9.2}",
            rep.commit,
            rep.inserted,
            rep.deleted,
            rep.m,
            rep.dirty,
            rep.region_vertices,
            rep.strategy.to_string(),
            rep.stats.rounds,
            rep.stats.messages,
            wall.as_secs_f64() * 1e3,
        );
    }
    let g = engine.snapshot();
    let coloring = engine.coloring();
    assert!(coloring.is_proper(&g), "final coloring must be proper");
    println!(
        "\nfinal: n={} m={} Δ={}; {} colors in use (bound {}); coloring verified proper",
        g.n(),
        g.m(),
        g.max_degree(),
        coloring.palette_size(),
        engine.color_bound()
    );
    println!("totals: {totals}");
    // The steady-state trend at a glance: how the last commit's cost moved
    // against the first post-build commit (commit 0 is the from-scratch
    // initial coloring, a different regime).
    if out.reports.len() >= 3 {
        let first = &out.reports[1];
        // INVARIANT: guarded by the len() >= 3 check above.
        let last = out.reports.last().expect("non-empty");
        println!("last commit vs commit {}: {}", first.commit, last.stats.diff(&first.stats));
    }
    if let Some(p) = profile_path {
        eprintln!("profile events written to {p} (summarize with: deco-probe report {p})");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::trace::churn_trace;

    fn gen(line: &str) -> Result<Trace, String> {
        gen_trace(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn gen_arguments_are_checked_before_generating() {
        assert_eq!(gen("40 4 3 5 7"), Ok(churn_trace(40, 4, 3, 5, 7)));
        assert!(gen("40 4 3 5").is_err(), "four numbers");
        assert!(gen("40 x 3 5 7").is_err(), "not a number");
        assert!(gen("4 8 2 1 7").unwrap_err().contains("below n"));
        assert!(gen("4 4 2 1 7").unwrap_err().contains("below n"));
        assert!(gen("4294967296 8 2 1 7").unwrap_err().contains("u32"));
        assert!(gen("10 2 3 1000 7").unwrap_err().contains("churn"));
        // Without churn commits, any churn is harmless.
        assert_eq!(gen("10 2 0 1000 7"), Ok(churn_trace(10, 2, 0, 1000, 7)));
    }
}
