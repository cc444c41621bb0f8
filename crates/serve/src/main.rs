//! The `deco-serve` front end: host a fleet of synthetic tenants and
//! report deterministic per-tenant and fleet-wide results.
//!
//! ```text
//! deco-serve [--tenants K] [--shards S] [--commits C] [--n N] [--cap D]
//!            [--seed X] [--engine legacy|segmented|mix]
//!            [--compact-budget B] [--quota Q] [--verbose]
//!     Register K tenants, each over its own seeded churn trace
//!     (churn_trace(N, D, C commits)), stream every batch through the
//!     sharded worker pool, drain, verify every tenant's coloring, and
//!     print fleet totals plus the fleet fingerprint. The fingerprint is
//!     shard-count-invariant: re-run with any --shards value and it must
//!     not move.
//! ```

use deco_graph::generators::random_bounded_degree;
use deco_graph::trace::{churn_trace_from, Trace};
use deco_serve::{EngineKind, Serve, ServeConfig, TenantSpec};
use std::process::ExitCode;

struct Args {
    tenants: usize,
    shards: usize,
    commits: usize,
    n: usize,
    cap: usize,
    seed: u64,
    engine: Option<EngineKind>, // None = mix
    compact_budget: u64,
    quota: u64,
    verbose: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: deco-serve [--tenants K] [--shards S] [--commits C] [--n N] [--cap D] \
         [--seed X] [--engine legacy|segmented|mix] [--compact-budget B] [--quota Q] \
         [--verbose]"
    );
    ExitCode::FAILURE
}

/// Parses the flags; `None` on an unknown flag or a missing or
/// non-numeric value.
fn parse(args: &[String]) -> Option<Args> {
    let mut out = Args {
        tenants: 64,
        shards: 4,
        commits: 3,
        n: 48,
        cap: 4,
        seed: 0x5e12e,
        engine: None,
        compact_budget: 0,
        quota: 0,
        verbose: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--verbose" => out.verbose = true,
            "--engine" => match it.next().map(String::as_str)? {
                "legacy" => out.engine = Some(EngineKind::Legacy),
                "segmented" => out.engine = Some(EngineKind::Segmented),
                "mix" => out.engine = None,
                _ => return None,
            },
            flag => {
                let value = it.next()?;
                match flag {
                    "--tenants" => out.tenants = value.parse().ok()?,
                    "--shards" => out.shards = value.parse().ok()?,
                    "--commits" => out.commits = value.parse().ok()?,
                    "--n" => out.n = value.parse().ok()?,
                    "--cap" => out.cap = value.parse().ok()?,
                    "--seed" => out.seed = value.parse().ok()?,
                    "--compact-budget" => out.compact_budget = value.parse().ok()?,
                    "--quota" => out.quota = value.parse().ok()?,
                    _ => return None,
                }
            }
        }
    }
    Some(out)
}

/// Each tenant's seeded churn trace: exactly `churn_trace(n, cap, commits,
/// n / 12 + 1, seed ^ tenant)`, or an error where that would panic (a cap
/// not below `n`, or more churn than the tenant's base graph has edges).
fn fleet_traces(args: &Args) -> Result<Vec<Trace>, String> {
    if args.cap >= args.n {
        return Err(format!("--cap {} must be below --n {}", args.cap, args.n));
    }
    let churn = args.n / 12 + 1;
    (0..args.tenants)
        .map(|i| {
            let seed = args.seed ^ i as u64;
            let base = random_bounded_degree(args.n, args.cap, seed);
            if args.commits > 0 && churn > base.m() {
                return Err(format!("tenant {i}: churn {churn} exceeds its {} edges", base.m()));
            }
            Ok(churn_trace_from(&base, args.cap, args.commits, churn, seed))
        })
        .collect()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse(&raw) else {
        return usage();
    };
    let traces = match fleet_traces(&args) {
        Ok(traces) => traces,
        Err(e) => {
            eprintln!("deco-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServeConfig::default()
        .with_shards(args.shards)
        .with_cost_quota(args.quota)
        .with_compact_cost_budget(args.compact_budget);
    println!(
        "deco-serve: {} tenants x churn_trace(n={}, Δ≤{}, {} commits), {} shards",
        args.tenants, args.n, args.cap, args.commits, args.shards
    );
    let serve = Serve::start(cfg);

    // Register the fleet: per-tenant seeded traces, engines alternating
    // unless pinned.
    let ids: Vec<_> = match traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let engine = args.engine.unwrap_or(if i % 2 == 0 {
                EngineKind::Legacy
            } else {
                EngineKind::Segmented
            });
            serve.register(TenantSpec::new(format!("tenant-{i}"), trace.n0).with_engine(engine))
        })
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(ids) => ids,
        Err(e) => {
            eprintln!("registration failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Stream every batch; the blocking path keeps the accepted stream
    // equal to the submitted stream whatever the worker backlog.
    // tidy: allow(wall-clock) — CLI throughput line (commits/sec) is
    // informational; fleet fingerprints are clock-free.
    let t0 = std::time::Instant::now();
    for (&id, trace) in ids.iter().zip(&traces) {
        for batch in trace.batches() {
            for &op in batch {
                if let Err(e) = serve.submit_blocking(id, op) {
                    eprintln!("tenant {id}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Err(e) = serve.commit_blocking(id) {
                eprintln!("tenant {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    serve.drain();
    let wall = t0.elapsed();

    // Verify and summarize.
    let mut total_commits = 0usize;
    let mut total_cost = 0u64;
    let mut total_errors = 0usize;
    for &id in &ids {
        // INVARIANT: the id was returned by register() above and tenants are never removed from the fleet.
        let snap = serve.snapshot(id).expect("registered");
        if !snap.coloring.is_proper(&snap.graph) {
            eprintln!("tenant {id}: final coloring is not proper");
            return ExitCode::FAILURE;
        }
        total_commits += snap.commits;
        // INVARIANT: the id was returned by register() above and tenants are never removed from the fleet.
        total_cost += serve.cost(id).expect("registered");
        // INVARIANT: the id was returned by register() above and tenants are never removed from the fleet.
        total_errors += serve.errors(id).expect("registered").len();
        if args.verbose {
            println!(
                "  {}: {} commits, n={} m={} Δ={}, bound {}, fingerprint {:016x}",
                // INVARIANT: the id was returned by register() above and tenants are never removed from the fleet.
                serve.tenant_name(id).expect("registered"),
                snap.commits,
                snap.n,
                snap.m,
                snap.max_degree,
                snap.color_bound,
                snap.fingerprint()
            );
        }
    }
    let fingerprint = serve.fleet_fingerprint();
    serve.shutdown();
    println!(
        "{} commits, {} node-rounds admission cost, {} tenant errors in {:.1} ms \
         ({:.0} commits/s)",
        total_commits,
        total_cost,
        total_errors,
        wall.as_secs_f64() * 1e3,
        total_commits as f64 / wall.as_secs_f64().max(1e-9),
    );
    println!("fleet fingerprint {fingerprint:016x} (shard-count-invariant)");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::trace::churn_trace;

    fn parse_line(line: &str) -> Option<Args> {
        parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parse_reads_flags_and_rejects_bad_ones() {
        let a = parse_line("--tenants 3 --shards 2 --n 20 --cap 5 --engine legacy --verbose")
            .expect("valid flags");
        assert_eq!((a.tenants, a.shards, a.n, a.cap, a.verbose), (3, 2, 20, 5, true));
        assert!(matches!(a.engine, Some(EngineKind::Legacy)));
        assert!(parse_line("").is_some(), "defaults are valid");
        assert!(parse_line("--tenants").is_none(), "missing value");
        assert!(parse_line("--seed x").is_none(), "non-numeric value");
        assert!(parse_line("--bogus 1").is_none(), "unknown flag");
        assert!(parse_line("--engine fast").is_none(), "unknown engine");
    }

    #[test]
    fn fleet_traces_check_the_generator_arguments() {
        let a = parse_line("--tenants 2 --n 24 --cap 3 --commits 2 --seed 9").expect("valid");
        let traces = fleet_traces(&a).expect("churn fits");
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(*t, churn_trace(24, 3, 2, 24 / 12 + 1, 9 ^ i as u64));
        }
        for bad in ["--n 4 --cap 8", "--n 4 --cap 4"] {
            let a = parse_line(bad).expect("well-formed flags");
            assert!(fleet_traces(&a).unwrap_err().contains("below"), "{bad}");
        }
        let a = parse_line("--tenants 1 --n 24 --cap 0").expect("well-formed flags");
        assert!(fleet_traces(&a).unwrap_err().contains("churn"));
    }
}
