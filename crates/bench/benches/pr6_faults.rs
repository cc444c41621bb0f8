//! **PR6 — transport faults**: the self-stabilizing repair path under the
//! deterministic fault matrix, versus the perfect-transport baseline.
//!
//! Each cell drives the streaming recolorer through the same churn scenario
//! over one transport: perfect (the legacy bit-exact path) and four
//! seed-driven [`FaultyTransport`] configurations (drop / delay / reorder /
//! mixed). Every commit must terminate with a verified-legal coloring
//! within the bounded retry/fallback budget, and every cell is driven twice
//! to prove the counters — retries, fallbacks, rounds, messages, dropped
//! messages, the final color hash — are a pure function of the transport
//! seed. Those counters are what the gate pins: wall-clock is reported
//! alongside but never decides anything.
//!
//! Acceptance: all cells legal + deterministic + within budget, and the
//! perfect cell reports zero retries, zero fallbacks and zero transport
//! drops (the fault machinery must be invisible off the fault path).
//! Results land in `BENCH_pr6.json` (override with `DECO_BENCH_OUT`;
//! `DECO_BENCH_SCALE=full` deepens).

use deco_bench::json::{Obj, Value};
use deco_bench::{banner, millis, scale, time_interleaved, Scale, Table};
use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_probe::Fnv;
use deco_stream::{FaultyTransport, RecolorConfig, Recolorer, RepairStrategy, Transport};
use std::sync::Arc;
use std::time::Duration;

struct Cell {
    name: &'static str,
    commits: usize,
    incremental: usize,
    retries: u32,
    fallbacks: u32,
    max_retries_per_commit: u32,
    rounds: usize,
    node_rounds: usize,
    messages: usize,
    transport_dropped: usize,
    color_hash: String,
    wall: Duration,
}

impl Cell {
    fn to_json(&self) -> Value {
        Obj::new()
            .field("cell", self.name)
            .field("commits", self.commits)
            .field("incremental_commits", self.incremental)
            .field("retries", self.retries as usize)
            .field("fallbacks", self.fallbacks as usize)
            .field("max_retries_per_commit", self.max_retries_per_commit as usize)
            .field("rounds", self.rounds)
            .field("node_rounds", self.node_rounds)
            .field("messages", self.messages)
            .field("transport_dropped", self.transport_dropped)
            .field("color_hash", self.color_hash.clone())
            .field("drive_ms", self.wall.as_secs_f64() * 1e3)
            .build()
    }
}

fn fnv_hex(values: &[u64]) -> String {
    let mut h = Fnv::with_prime(0x1000_0000_01b3);
    for &x in values {
        h.word(x);
    }
    format!("{:016x}", h.digest())
}

/// One full drive of a cell: initial build plus `epochs` flap epochs
/// (delete a window, commit, reinsert it, commit), verifying legality after
/// every commit. Returns everything but the name and the wall time.
#[allow(clippy::type_complexity)]
fn drive(
    base: &deco_graph::Graph,
    transport: Option<Arc<dyn Transport>>,
    epochs: usize,
    flap: usize,
) -> (usize, usize, u32, u32, u32, deco_local::RunStats, String) {
    let params = edge_log_depth(1);
    let mut cfg = RecolorConfig::default();
    if let Some(t) = transport {
        cfg = cfg.with_transport(t);
    }
    let mut r = Recolorer::from_graph_with(base.clone(), params, MessageMode::Long, cfg)
        .expect("preset params are valid");
    let mut reports = vec![r.commit().expect("valid batch")];
    for step in 0..epochs {
        let edges: Vec<_> = r.graph().edges().skip(step * 29).take(flap).collect();
        for &(u, v) in &edges {
            r.delete_edge(u, v).expect("edge exists");
        }
        reports.push(r.commit().expect("valid batch"));
        for &(u, v) in &edges {
            r.insert_edge(u, v).expect("edge was deleted");
        }
        reports.push(r.commit().expect("valid batch"));
        let coloring = r.coloring();
        assert!(coloring.is_proper(r.graph()), "epoch {step}: improper coloring");
        let bound = r.color_bound();
        assert!(coloring.colors().iter().all(|&c| c < bound), "epoch {step}: bound exceeded");
    }
    let stats = reports.iter().fold(deco_local::RunStats::zero(), |acc, rep| acc + rep.stats);
    let incremental =
        reports.iter().filter(|rep| rep.strategy == RepairStrategy::Incremental).count();
    let retries: u32 = reports.iter().map(|rep| rep.retries).sum();
    let fallbacks: u32 = reports.iter().map(|rep| rep.fallbacks).sum();
    let max_retries = reports.iter().map(|rep| rep.retries).max().unwrap_or(0);
    let hash = fnv_hex(&r.coloring().into_colors());
    (reports.len(), incremental, retries, fallbacks, max_retries, stats, hash)
}

fn main() {
    banner("PR6 / faults", "self-stabilizing repair under the deterministic fault matrix");
    let full = scale() == Scale::Full;
    let samples = if full { 5 } else { 3 };
    let (n, cap, epochs, flap) = if full { (5_000, 6, 5, 12) } else { (2_000, 6, 3, 12) };
    let seed = 0x6F6u64;
    println!(
        "base graph: random_bounded_degree(n={n}, Δ≤{cap}), {epochs} flap epochs × {flap} edges"
    );
    let base = deco_graph::generators::random_bounded_degree(n, cap, seed);

    let cells: Vec<(&'static str, Option<Arc<dyn Transport>>)> = vec![
        ("perfect", None),
        ("drop", Some(Arc::new(FaultyTransport::new(seed).with_drop(150_000)))),
        ("delay", Some(Arc::new(FaultyTransport::new(seed).with_delay(120_000, 3)))),
        ("reorder", Some(Arc::new(FaultyTransport::new(seed).with_reorder(100_000)))),
        (
            "mixed",
            Some(Arc::new(
                FaultyTransport::new(seed)
                    .with_drop(80_000)
                    .with_delay(80_000, 2)
                    .with_reorder(60_000),
            )),
        ),
        // Total loss: no distributed repair can ever finish, so every
        // incremental commit must burn its full retry budget and degrade to
        // the fault-free from-scratch fallback — pinning the retry and
        // fallback counters at their deterministic non-zero worst case.
        ("blackout", Some(Arc::new(FaultyTransport::new(seed).with_drop(1_000_000)))),
    ];

    let mut rows: Vec<Cell> = Vec::new();
    for (name, transport) in cells {
        let once = || drive(&base, transport.clone(), epochs, flap);
        let first = once();
        let again = once();
        assert_eq!(
            (first.0, first.1, first.2, first.3, first.4, first.5, first.6.clone()),
            (again.0, again.1, again.2, again.3, again.4, again.5, again.6.clone()),
            "{name}: counters must be a pure function of the transport seed"
        );
        let wall = time_interleaved(samples, &mut [&mut || once().5.rounds])[0];
        let (commits, incremental, retries, fallbacks, max_retries, stats, color_hash) = first;
        rows.push(Cell {
            name,
            commits,
            incremental,
            retries,
            fallbacks,
            max_retries_per_commit: max_retries,
            rounds: stats.rounds,
            node_rounds: stats.node_rounds,
            messages: stats.messages,
            transport_dropped: stats.transport_dropped,
            color_hash,
            wall,
        });
    }

    println!();
    let table = Table::new(
        &["cell", "commits", "retries", "fallbk", "rounds", "node-rnds", "dropped", "drive ms"],
        &[8, 8, 8, 7, 8, 10, 8, 9],
    );
    for c in &rows {
        table.row(&[
            c.name.to_string(),
            c.commits.to_string(),
            c.retries.to_string(),
            c.fallbacks.to_string(),
            c.rounds.to_string(),
            c.node_rounds.to_string(),
            c.transport_dropped.to_string(),
            millis(c.wall),
        ]);
    }
    println!("\n(every cell driven twice and counter-compared before timing; every commit");
    println!(" verified proper and within the snapshot palette bound)");

    let perfect = &rows[0];
    let budget_ok =
        rows.iter().all(|c| c.max_retries_per_commit <= 5 && c.fallbacks as usize <= c.commits);
    let perfect_clean =
        perfect.retries == 0 && perfect.fallbacks == 0 && perfect.transport_dropped == 0;
    let met = budget_ok && perfect_clean;
    let json = Obj::new()
        .field("bench", "pr6_faults")
        .field("scale", if full { "full" } else { "quick" })
        .field("samples", samples)
        .field("n", n)
        .field("delta_cap", cap)
        .field("epochs", epochs)
        .field("flap_edges", flap)
        .field("transport_seed", seed as usize)
        .field(
            "acceptance",
            Obj::new()
                .field(
                    "criterion",
                    "every fault cell terminates every commit with a verified-legal \
                     coloring within the bounded retry/fallback budget, counters are \
                     bit-deterministic across re-drives, and the perfect cell shows \
                     zero retries/fallbacks/drops (fault machinery invisible off the \
                     fault path)",
                )
                .field("met", met)
                .field("budget_ok", budget_ok)
                .field("perfect_cell_clean", perfect_clean)
                .build(),
        )
        .field("cells", Value::Array(rows.iter().map(Cell::to_json).collect()))
        .build();
    let out = std::env::var("DECO_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_pr6.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, deco_bench::json::to_string(&json)).expect("write bench json");
    println!("wrote {out}");
    assert!(met, "acceptance failed: budget_ok={budget_ok}, perfect_clean={perfect_clean}");
}
