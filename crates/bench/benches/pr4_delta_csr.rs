//! **PR4 — delta-CSR commits**: the pr3_churn scenario re-run with the
//! patch-based graph commit against the PR 3 rebuild.
//!
//! The workload is identical to `pr3_churn` (`churn_trace(n = 50k, Δ ≤ 8)`,
//! 1% churn per commit, same seed), replayed as **split commits**: each
//! churn batch lands as its deletions first, then its insertions. The split
//! changes nothing about the outcome (asserted against an unsplit replay,
//! color for color) but separates the two kinds of commit: the **deletion
//! commit** repairs nothing (deletions never invalidate a proper
//! coloring), the **insertion commit** runs the `O(region)` repair.
//!
//! Every sub-commit runs once through a `Recolorer`, whose `CommitReport`
//! and coloring supply the gated counters. The timed legs are the graph
//! layer underneath it: `MutableGraph::commit` (the delta-CSR patch,
//! `delta_ms`) against `MutableGraph::commit_rebuild` (`Graph::from_edges`,
//! `rebuild_ms`) on replicas of the pre-commit graph, whose resulting
//! snapshots are asserted equal to each other and to the engine's before
//! timing. Per-variant medians are taken (the required idiom on the noisy
//! shared container); clone and queueing are excluded from the timed
//! section. Results land in `BENCH_pr4.json` (override with
//! `DECO_BENCH_OUT`; `DECO_BENCH_SCALE=full` deepens the run).

use deco_bench::json::{Obj, Value};
use deco_bench::{banner, millis, scale, Scale, Table};
use deco_graph::trace::{churn_trace_from, TraceOp};
use deco_graph::MutableGraph;
use deco_probe::Fnv;
use deco_stream::{Recolorer, RegionRecolor, RepairStrategy};
use std::time::{Duration, Instant};

use deco_core::edge::legal::{edge_log_depth, MessageMode};

/// FNV-1a over one commit's colors (the stream_churn pin's hash function).
fn color_hash(colors: &[u64]) -> u64 {
    let mut h = Fnv::with_prime(0x1000_0000_01b3);
    h.word(colors.len() as u64);
    for &c in colors {
        h.word(c);
    }
    h.digest()
}

/// Queues a churn sub-batch on a bare graph replica.
fn queue_graph(g: &mut MutableGraph, ops: &[TraceOp]) {
    for &op in ops {
        match op {
            TraceOp::Insert(u, v) => g.insert_edge(u, v).expect("valid trace"),
            TraceOp::Delete(u, v) => g.delete_edge(u, v).expect("valid trace"),
            _ => unreachable!("churn batches only insert/delete"),
        }
    }
}

/// Median graph-commit wall time over `samples` runs from `base`'s state
/// (clone + queueing untimed): the delta-CSR patch, or the rebuild.
fn time_graph_commit(
    base: &MutableGraph,
    ops: &[TraceOp],
    rebuild: bool,
    samples: usize,
) -> Duration {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..=samples {
        let mut g = base.clone();
        queue_graph(&mut g, ops);
        let t0 = Instant::now();
        if rebuild { g.commit_rebuild() } else { g.commit() }.expect("valid trace");
        times.push(t0.elapsed());
    }
    times.remove(0); // warm-up
    times.sort_unstable();
    times[times.len() / 2]
}

struct Row {
    commit: usize,
    kind: &'static str,
    m: usize,
    dirty: usize,
    region_vertices: usize,
    rounds: usize,
    messages: usize,
    color_hash: u64,
    delta: Duration,
    rebuild: Duration,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.rebuild.as_secs_f64() / self.delta.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> Value {
        Obj::new()
            .field("commit", self.commit)
            .field("kind", self.kind)
            .field("m", self.m)
            .field("repaired_edges", self.dirty)
            .field("region_vertices", self.region_vertices)
            .field("rounds", self.rounds)
            .field("messages", self.messages)
            .field("color_hash", format!("{:016x}", self.color_hash))
            .field("delta_ms", self.delta.as_secs_f64() * 1e3)
            .field("rebuild_ms", self.rebuild.as_secs_f64() * 1e3)
            .field("speedup_delta_vs_rebuild", self.speedup())
            .build()
    }
}

fn main() {
    banner("PR4 / delta-CSR", "patched graph commits vs the PR 3 rebuild, per commit");
    let full = scale() == Scale::Full;
    let params = edge_log_depth(1);
    let mode = MessageMode::Long;
    let samples = if full { 5 } else { 3 };

    // The pr3_churn acceptance scenario, same seed: n = 50k, Δ ≤ 8, 1%.
    let (n, cap, commits) = if full { (50_000, 8, 6) } else { (50_000, 8, 3) };
    println!("generating churn_trace(n={n}, Δ≤{cap}, {commits} churn commits @ 1%) ...");
    let base = deco_graph::generators::random_bounded_degree(n, cap, 0x9126);
    let churn = base.m() / 100;
    let trace = churn_trace_from(&base, cap, commits, churn, 0x9126);
    drop(base);

    // Two engines share the initial build — the split replay and an
    // unsplit replica proving the split changes nothing — plus the bare
    // graph replica the timed legs commit on.
    let batches = trace.batches();
    let mut delta_engine = Recolorer::new(trace.n0, params, mode).expect("preset params");
    let mut unsplit_engine = Recolorer::new(trace.n0, params, mode).expect("preset params");
    for &op in batches[0] {
        delta_engine.queue_op(op).expect("valid trace");
        unsplit_engine.queue_op(op).expect("valid trace");
    }
    let initial = delta_engine.commit().expect("valid trace");
    unsplit_engine.commit().expect("valid trace");
    let mut graph = MutableGraph::from_graph(delta_engine.graph().clone());
    println!(
        "initial build: m = {}, Δ = {}, {} rounds, {} msgs",
        initial.m, initial.max_degree, initial.stats.rounds, initial.stats.messages
    );

    let mut rows: Vec<Row> = Vec::new();
    for (c, batch) in batches.iter().enumerate().skip(1) {
        // Split by *net* effect (the CommitDelta semantics): a pair deleted
        // and reinserted within the batch keeps its color in the unsplit
        // replay, so it must not be split into a real delete + insert.
        let mut seen: std::collections::HashMap<(usize, usize), (bool, bool)> =
            std::collections::HashMap::new();
        for op in batch.iter() {
            let (pair, is_insert) = match *op {
                TraceOp::Insert(u, v) => ((u.min(v), u.max(v)), true),
                TraceOp::Delete(u, v) => ((u.min(v), u.max(v)), false),
                _ => unreachable!("churn batches only insert/delete"),
            };
            seen.entry(pair)
                .and_modify(|(_, last)| *last = is_insert)
                .or_insert((is_insert, is_insert));
        }
        let mut dels: Vec<TraceOp> = Vec::new();
        let mut inss: Vec<TraceOp> = Vec::new();
        for (&(u, v), &(first, last)) in &seen {
            match (first, last) {
                (false, false) => dels.push(TraceOp::Delete(u, v)),
                (true, true) => inss.push(TraceOp::Insert(u, v)),
                _ => {} // toggled within the batch: net no-op
            }
        }
        // Deterministic queue order (HashMap iteration is not).
        let key = |op: &TraceOp| match *op {
            TraceOp::Insert(u, v) | TraceOp::Delete(u, v) => (u, v),
            _ => unreachable!(),
        };
        dels.sort_unstable_by_key(key);
        inss.sort_unstable_by_key(key);
        for &op in *batch {
            unsplit_engine.queue_op(op).expect("valid trace");
        }
        unsplit_engine.commit().expect("valid trace");

        for (kind, ops, want) in [
            ("deletions (machinery only)", &dels, RepairStrategy::Clean),
            ("insertions (machinery + repair)", &inss, RepairStrategy::Incremental),
        ] {
            // Execute once: the engine fixes the post-commit state and the
            // gated counters, and both graph paths must land on its
            // snapshot before anything is timed.
            let pre = graph.clone();
            for &op in ops {
                delta_engine.queue_op(op).expect("valid trace");
            }
            let report = delta_engine.commit().expect("valid trace");
            let colors = delta_engine.coloring().into_colors();
            assert_eq!(report.strategy, want, "commit {c} {kind}");
            let mut rebuilt = pre.clone();
            queue_graph(&mut rebuilt, ops);
            rebuilt.commit_rebuild().expect("valid trace");
            queue_graph(&mut graph, ops);
            graph.commit().expect("valid trace");
            assert_eq!(rebuilt.graph(), graph.graph(), "commit {c} {kind}: paths diverge");
            assert_eq!(graph.graph(), delta_engine.graph(), "commit {c} {kind}: engine diverges");

            let delta_t = time_graph_commit(&pre, ops, false, samples);
            let rebuild_t = time_graph_commit(&pre, ops, true, samples);
            rows.push(Row {
                commit: c,
                kind,
                m: report.m,
                dirty: report.dirty,
                region_vertices: report.region_vertices,
                rounds: report.stats.rounds,
                messages: report.stats.messages,
                color_hash: color_hash(&colors),
                delta: delta_t,
                rebuild: rebuild_t,
            });
        }
        // The split replay is the same machine as the unsplit one.
        assert_eq!(
            delta_engine.coloring(),
            unsplit_engine.coloring(),
            "commit {c}: split replay diverged from the unsplit trace"
        );
    }

    println!();
    let table = Table::new(
        &["commit", "kind", "repaired", "delta ms", "rebuild ms", "speedup"],
        &[6, 31, 9, 10, 11, 8],
    );
    for r in &rows {
        table.row(&[
            r.commit.to_string(),
            r.kind.to_string(),
            r.dirty.to_string(),
            millis(r.delta),
            millis(r.rebuild),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    println!("\n(both legs time the graph commit alone: the delta-CSR patch against the");
    println!(" from-scratch rebuild, on each half of the split churn batch)");

    let machinery: Vec<&Row> = rows.iter().filter(|r| r.dirty == 0).collect();
    let repairing: Vec<&Row> = rows.iter().filter(|r| r.dirty > 0).collect();
    let machinery_min = machinery.iter().map(|r| r.speedup()).fold(f64::INFINITY, f64::min);
    let machinery_median = {
        let mut s: Vec<f64> = machinery.iter().map(|r| r.speedup()).collect();
        s.sort_unstable_by(|a, b| a.total_cmp(b));
        s[s.len() / 2]
    };
    let end_to_end: f64 = {
        let d: f64 = rows.iter().map(|r| r.delta.as_secs_f64()).sum();
        let b: f64 = rows.iter().map(|r| r.rebuild.as_secs_f64()).sum();
        b / d.max(1e-9)
    };
    // Median across commits: single-sample minima are inside the container's
    // ±10% wall noise (ROADMAP), which deterministic counters — not
    // timings — are responsible for guarding.
    let met = machinery_median >= 5.0;
    if !met {
        eprintln!(
            "WARNING: deletion-commit graph speedup (median) {machinery_median:.2}x below \
             the 5x target (wall-clock; see acceptance notes in the json)"
        );
    }
    let json = Obj::new()
        .field("bench", "pr4_delta_csr")
        .field("scale", if full { "full" } else { "quick" })
        .field("samples", samples)
        .field("n", n)
        .field("delta_cap", cap)
        .field("churn_edges_per_commit", churn)
        .field(
            "acceptance",
            Obj::new()
                .field(
                    "criterion",
                    "MutableGraph::commit (the delta-CSR patch) is >=5x faster (median \
                     across the deletion sub-commits) than MutableGraph::commit_rebuild \
                     at n=50k/1% churn, with both snapshots equal to the engine's on \
                     every sub-commit (asserted before timing) and the split replay \
                     equal to the unsplit trace",
                )
                .field("met", met)
                .field("machinery_median_speedup", machinery_median)
                .field("machinery_min_speedup", machinery_min)
                .field("end_to_end_speedup", end_to_end)
                .field(
                    "note",
                    "every leg times the graph commit alone; the machinery figures \
                     cover the deletion sub-commits and end_to_end_speedup sums all \
                     sub-commits",
                )
                .build(),
        )
        .field(
            "initial_build",
            Obj::new()
                .field("m", initial.m)
                .field("rounds", initial.stats.rounds)
                .field("messages", initial.stats.messages)
                .build(),
        )
        .field("commits", Value::Array(rows.iter().map(Row::to_json).collect()))
        .build();
    let out = std::env::var("DECO_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_pr4.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, deco_bench::json::to_string(&json)).expect("write bench json");
    println!("wrote {out}");
    println!(
        "graph-commit speedup over {} deletion commits: median {machinery_median:.2}x, \
         min {machinery_min:.2}x; {end_to_end:.2}x over all {} commits",
        machinery.len(),
        machinery.len() + repairing.len()
    );
}
