//! **PR5 — early-halting repair**: the Theorem 5.5 repair phase with early
//! node halting versus the worst-case `2 + 6W` schedule, measured in
//! isolation on the canonical churn scenario (n = 50k, Δ ≤ 8, 1% churn).
//!
//! PR 4 made the repair pipeline the floor of the incremental commit: most
//! of the commit is engine stepping on the region sub-network, because
//! `PrAssign` kept every region node live for the full `2 + 6W` rounds.
//! With early halting each node ends at its own last `(forest, CV)` step
//! and drops off the active worklist, so late rounds step only the
//! surviving frontier.
//!
//! For every churn commit the bench reconstructs the exact repair input the
//! engine sees (post-commit snapshot, carried colors, dirty region) and
//! times [`deco_stream::repair_phase`] — the phase `Recolorer::commit` runs
//! — under both halting modes, interleaved. Both are verified bit-identical
//! to the engine's own coloring before any timing; only round counters may
//! differ. The whole mixed commit is also timed both ways for the
//! end-to-end view.
//!
//! Acceptance: the repair phase is at least 1.5× faster with early halting
//! (median across churn commits) in **stepped node-rounds** — the
//! simulator's own deterministic cost model (`RunStats::node_rounds`, the
//! `Protocol::round` calls actually made). Wall-clock medians are measured
//! and reported alongside, but the acceptance rides on the counter: the
//! shared container's wall noise exceeds ±10% (ROADMAP), and the counter
//! is exactly what the gate can pin. Results land in `BENCH_pr5.json`
//! (override with `DECO_BENCH_OUT`; `DECO_BENCH_SCALE=full` deepens).

use deco_bench::json::{Obj, Value};
use deco_bench::{banner, millis, scale, time_interleaved, Scale, Table};
use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_graph::trace::{churn_trace_from, TraceOp};
use deco_graph::{EdgeIdx, Vertex};
use deco_stream::{repair_phase, Recolorer, RegionRecolor, RepairStrategy};
use std::time::Duration;

/// In-band "dirty" marker for the reconstructed carry (ignored by
/// `repair_phase`, which overwrites dirty entries).
const UNCOLORED: u64 = u64::MAX;

struct Row {
    commit: usize,
    m: usize,
    dirty: usize,
    region_vertices: usize,
    repair_rounds: usize,
    repair_rounds_nohalt: usize,
    repair_node_rounds: usize,
    repair_node_rounds_nohalt: usize,
    repair_messages: usize,
    halt: Duration,
    nohalt: Duration,
    commit_halt: Duration,
    commit_nohalt: Duration,
}

impl Row {
    /// The acceptance metric: deterministic stepped-node-round reduction.
    fn node_round_speedup(&self) -> f64 {
        self.repair_node_rounds_nohalt as f64 / self.repair_node_rounds.max(1) as f64
    }

    /// Wall-clock ratio, informational (noisy on shared containers).
    fn wall_speedup(&self) -> f64 {
        self.nohalt.as_secs_f64() / self.halt.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> Value {
        Obj::new()
            .field("commit", self.commit)
            .field("m", self.m)
            .field("dirty", self.dirty)
            .field("region_vertices", self.region_vertices)
            .field("repair_rounds", self.repair_rounds)
            .field("repair_rounds_nohalt", self.repair_rounds_nohalt)
            .field("repair_node_rounds", self.repair_node_rounds)
            .field("repair_node_rounds_nohalt", self.repair_node_rounds_nohalt)
            .field("repair_messages", self.repair_messages)
            .field("node_round_speedup", self.node_round_speedup())
            .field("repair_ms", self.halt.as_secs_f64() * 1e3)
            .field("repair_nohalt_ms", self.nohalt.as_secs_f64() * 1e3)
            .field("wall_speedup_repair", self.wall_speedup())
            .field("commit_ms", self.commit_halt.as_secs_f64() * 1e3)
            .field("commit_nohalt_ms", self.commit_nohalt.as_secs_f64() * 1e3)
            .build()
    }
}

/// Carried colors for the post-commit snapshot: the pre-commit color of
/// every surviving endpoint pair, [`UNCOLORED`] for fresh edges. Returns
/// the colors and the dirty (fresh) edge indices — exactly the repair
/// input `Recolorer::commit` derives from the delta (no renumbering and no
/// palette-bound shrink in this scenario, asserted by the caller).
fn carry(
    old: &deco_graph::Graph,
    old_colors: &[u64],
    new: &deco_graph::Graph,
) -> (Vec<u64>, Vec<EdgeIdx>) {
    let old_edges: Vec<(Vertex, Vertex)> = old.edges().collect();
    let mut colors = vec![UNCOLORED; new.m()];
    let mut dirty = Vec::new();
    let mut i = 0usize;
    for (e, (u, v)) in new.edges().enumerate() {
        while i < old_edges.len() && old_edges[i] < (u, v) {
            i += 1;
        }
        if i < old_edges.len() && old_edges[i] == (u, v) {
            colors[e] = old_colors[i];
            i += 1;
        } else {
            dirty.push(e);
        }
    }
    (colors, dirty)
}

fn main() {
    banner("PR5 / repair", "early-halting repair phase vs the 2+6W schedule");
    let full = scale() == Scale::Full;
    let params = edge_log_depth(1);
    let mode = MessageMode::Long;
    let samples = if full { 5 } else { 3 };

    let (n, cap, commits) = if full { (50_000, 8, 6) } else { (50_000, 8, 3) };
    println!("generating churn_trace(n={n}, Δ≤{cap}, {commits} churn commits @ 1%) ...");
    let base = deco_graph::generators::random_bounded_degree(n, cap, 0x9127);
    let churn = base.m() / 100;
    let trace = churn_trace_from(&base, cap, commits, churn, 0x9127);
    drop(base);

    let batches = trace.batches();
    let mut engine = Recolorer::new(trace.n0, params, mode).expect("preset params are valid");
    for &op in batches[0] {
        engine.queue_op(op).expect("generated traces are valid");
    }
    let initial = engine.commit().expect("generated traces are valid");
    println!(
        "initial build: m = {}, Δ = {}, {} rounds, {} msgs",
        initial.m, initial.max_degree, initial.stats.rounds, initial.stats.messages
    );

    let spill_before = deco_local::spill::stats();
    let mut rows: Vec<Row> = Vec::new();
    for (c, batch) in batches.iter().enumerate().skip(1) {
        // Fix the post-commit snapshot and the engine's own repair answer.
        let pre_graph = engine.graph().clone();
        let pre_colors = engine.coloring().into_colors();
        let mut probe = engine.clone();
        for &op in *batch {
            probe.queue_op(op).expect("valid trace");
        }
        let report = probe.commit().expect("valid trace");
        assert_eq!(report.strategy, RepairStrategy::Incremental, "1% churn repairs incrementally");
        let snapshot = probe.graph().clone();
        let engine_colors = probe.coloring().into_colors();

        // Reconstruct the repair input and verify both halting modes
        // reproduce the engine's coloring bit for bit.
        let (carried, dirty) = carry(&pre_graph, &pre_colors, &snapshot);
        assert_eq!(dirty.len(), report.dirty, "reconstructed region diverged from the engine");
        let run = |early: bool| {
            let mut colors = carried.clone();
            let stats = repair_phase(&snapshot, &dirty, &mut colors, params, mode, early);
            (colors, stats)
        };
        let (on_colors, on_stats) = run(true);
        let (off_colors, off_stats) = run(false);
        assert_eq!(on_colors, engine_colors, "halting-on repair diverged from the engine");
        assert_eq!(off_colors, engine_colors, "halting-off repair diverged from the engine");
        assert_eq!(on_stats.0.messages, off_stats.0.messages, "messages must not move");
        // Round counts may tie when some node's last step sits at the
        // schedule's worst case; the stepped-node-round reduction is the
        // invariant (and the acceptance metric).
        assert!(on_stats.0.rounds <= off_stats.0.rounds, "halting must not lengthen the repair");
        assert!(
            on_stats.0.node_rounds < off_stats.0.node_rounds,
            "halting must cut stepped node-rounds"
        );

        // Interleaved timing: the repair phase alone, then the whole mixed
        // commit (clone + queue + commit), both ways.
        let times = time_interleaved(samples, &mut [&mut || run(true).1, &mut || run(false).1]);
        let batch_ops: Vec<TraceOp> = batch.to_vec();
        let base_engine = &engine;
        let commit_with = |early: bool| {
            let mut r = base_engine.clone();
            r.set_config(base_engine.config().clone().with_early_halt(early));
            for &op in &batch_ops {
                r.queue_op(op).expect("valid trace");
            }
            r.commit().expect("valid trace").stats.rounds
        };
        let commit_times =
            time_interleaved(samples, &mut [&mut || commit_with(true), &mut || commit_with(false)]);

        rows.push(Row {
            commit: c,
            m: report.m,
            dirty: report.dirty,
            region_vertices: report.region_vertices,
            repair_rounds: on_stats.0.rounds,
            repair_rounds_nohalt: off_stats.0.rounds,
            repair_node_rounds: on_stats.0.node_rounds,
            repair_node_rounds_nohalt: off_stats.0.node_rounds,
            repair_messages: on_stats.0.messages,
            halt: times[0],
            nohalt: times[1],
            commit_halt: commit_times[0],
            commit_nohalt: commit_times[1],
        });
        engine = probe;
    }
    let spill_after = deco_local::spill::stats();

    println!();
    let table = Table::new(
        &[
            "commit",
            "dirty",
            "node-rnds",
            "no-halt",
            "nr-speedup",
            "repair ms",
            "no-halt ms",
            "commit ms",
        ],
        &[6, 7, 10, 9, 10, 10, 11, 10],
    );
    for r in &rows {
        table.row(&[
            r.commit.to_string(),
            r.dirty.to_string(),
            r.repair_node_rounds.to_string(),
            r.repair_node_rounds_nohalt.to_string(),
            format!("{:.2}x", r.node_round_speedup()),
            millis(r.halt),
            millis(r.nohalt),
            millis(r.commit_halt),
        ]);
    }
    println!("\n(repair phase timed in isolation on the engine's exact inputs; both modes");
    println!(" verified bit-identical to the engine's coloring before timing)");

    let mut speedups: Vec<f64> = rows.iter().map(Row::node_round_speedup).collect();
    speedups.sort_by(f64::total_cmp);
    let median = speedups[speedups.len() / 2];
    let mut walls: Vec<f64> = rows.iter().map(Row::wall_speedup).collect();
    walls.sort_by(f64::total_cmp);
    let wall_median = walls[walls.len() / 2];
    let met = median >= 1.5;
    let json = Obj::new()
        .field("bench", "pr5_repair")
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
                    "repair-phase median >= 1.5x faster with early halting on the \
                     n=50k 1%-churn scenario, measured in stepped node-rounds (the \
                     deterministic engine cost model; wall medians reported \
                     alongside), colorings bit-identical either way",
                )
                .field("met", met)
                .field("median_node_round_speedup", median)
                .field("median_wall_speedup", wall_median)
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
        .field(
            "environment",
            Obj::new()
                .field(
                    "spill_arena_bytes_allocated",
                    (spill_after.allocated_bytes - spill_before.allocated_bytes) as usize,
                )
                .build(),
        )
        .field("commits", Value::Array(rows.iter().map(Row::to_json).collect()))
        .build();
    let out = std::env::var("DECO_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_pr5.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, deco_bench::json::to_string(&json)).expect("write bench json");
    println!("wrote {out}");
    assert!(met, "acceptance failed: median node-round speedup {median:.2}x < 1.5x");
}
