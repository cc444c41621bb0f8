//! **PR3 — streaming churn**: incremental repair vs from-scratch
//! recoloring, per commit, on the canonical 1%-churn scenario.
//!
//! The workload is `churn_trace(n = 50k, Δ ≤ 8)`: each commit deletes and
//! inserts 1% of the edges. For every churn commit two variants recolor the
//! *same post-commit snapshot*:
//!
//! * **incremental** — clone the pre-commit [`Recolorer`], queue the batch,
//!   `commit()`: carry colors, extract the repair region, re-run the
//!   pipeline on the region sub-network only;
//! * **from-scratch** — the one-shot Theorem 5.5 pipeline on the whole
//!   snapshot (what every pre-PR3 driver would have to do).
//!
//! Timing uses `time_interleaved` (rotating starting variant, per-variant
//! medians — the required idiom on the noisy shared container). Both
//! variants are verified proper and within the snapshot's ϑ bound before
//! timing. The acceptance criterion — incremental beats from-scratch on
//! every churn commit — lands in `BENCH_pr3.json` (override the path with
//! `DECO_BENCH_OUT`; `DECO_BENCH_SCALE=full` deepens the run).

use deco_bench::json::{Obj, Value};
use deco_bench::{banner, millis, ratio, scale, time_interleaved, Scale, Table};
use deco_core::edge::legal::{edge_color, edge_color_bound, edge_log_depth, MessageMode};
use deco_graph::trace::{churn_trace_from, TraceOp};
use deco_stream::{Recolorer, RegionRecolor, RepairStrategy};
use std::time::Duration;

struct Row {
    commit: usize,
    m: usize,
    dirty: usize,
    incr_rounds: usize,
    scratch_rounds: usize,
    incr_msgs: usize,
    scratch_msgs: usize,
    incr: Duration,
    scratch: Duration,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scratch.as_secs_f64() / self.incr.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> Value {
        Obj::new()
            .field("commit", self.commit)
            .field("m", self.m)
            .field("repaired_edges", self.dirty)
            .field("incremental_rounds", self.incr_rounds)
            .field("from_scratch_rounds", self.scratch_rounds)
            .field("incremental_messages", self.incr_msgs)
            .field("from_scratch_messages", self.scratch_msgs)
            .field("incremental_ms", self.incr.as_secs_f64() * 1e3)
            .field("from_scratch_ms", self.scratch.as_secs_f64() * 1e3)
            .field("speedup_incremental_vs_scratch", self.speedup())
            .build()
    }
}

fn main() {
    banner("PR3 / churn", "incremental repair vs from-scratch per commit");
    let full = scale() == Scale::Full;
    let params = edge_log_depth(1);
    let mode = MessageMode::Long;
    let samples = 3;

    // The acceptance scenario: n = 50k, Δ ≤ 8, 1% churn per commit.
    let (n, cap, commits) = if full { (50_000, 8, 6) } else { (50_000, 8, 3) };
    println!("generating churn_trace(n={n}, Δ≤{cap}, {commits} churn commits @ 1%) ...");
    let base = deco_graph::generators::random_bounded_degree(n, cap, 0x9126);
    let churn = base.m() / 100;
    let trace = churn_trace_from(&base, cap, commits, churn, 0x9126);
    drop(base);

    // Replay the initial build once; the clones below restart each churn
    // commit from the same engine state.
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

    let mut rows: Vec<Row> = Vec::new();
    for (c, batch) in batches.iter().enumerate().skip(1) {
        // Run the commit once to fix the post-commit snapshot and verify.
        let mut probe = engine.clone();
        for &op in *batch {
            probe.queue_op(op).expect("valid trace");
        }
        let report = probe.commit().expect("valid trace");
        assert_eq!(
            report.strategy,
            RepairStrategy::Incremental,
            "1% churn must repair incrementally"
        );
        let snapshot = probe.graph().clone();
        let bound = edge_color_bound(&params, snapshot.max_degree() as u64);
        let incr_coloring = probe.coloring();
        assert!(incr_coloring.is_proper(&snapshot), "incremental coloring improper");
        assert!(incr_coloring.colors().iter().all(|&x| x < bound));
        let scratch = edge_color(&snapshot, params, mode).expect("valid params");
        assert!(scratch.coloring.is_proper(&snapshot), "from-scratch coloring improper");

        let batch_ops: Vec<TraceOp> = batch.to_vec();
        let base = &engine;
        let times = time_interleaved(
            samples,
            &mut [
                &mut || {
                    let mut r = base.clone();
                    for &op in &batch_ops {
                        r.queue_op(op).expect("valid trace");
                    }
                    r.commit().expect("valid trace").stats.rounds
                },
                &mut || edge_color(&snapshot, params, mode).expect("valid params").stats.rounds,
            ],
        );
        rows.push(Row {
            commit: c,
            m: report.m,
            dirty: report.dirty,
            incr_rounds: report.stats.rounds,
            scratch_rounds: scratch.stats.rounds,
            incr_msgs: report.stats.messages,
            scratch_msgs: scratch.stats.messages,
            incr: times[0],
            scratch: times[1],
        });
        // Advance the engine to the next commit boundary.
        engine = probe;
    }

    println!();
    let table = Table::new(
        &["commit", "m", "repaired", "incr ms", "scratch ms", "speedup", "msg ratio"],
        &[6, 9, 9, 10, 11, 8, 10],
    );
    for r in &rows {
        table.row(&[
            r.commit.to_string(),
            r.m.to_string(),
            r.dirty.to_string(),
            millis(r.incr),
            millis(r.scratch),
            format!("{:.2}x", r.speedup()),
            format!("{}x", ratio(r.scratch_msgs, r.incr_msgs)),
        ]);
    }
    println!("\n(incremental clones the engine per sample: snapshot rebuild + repair included)");

    let met = rows.iter().all(|r| r.speedup() > 1.0);
    let json = Obj::new()
        .field("bench", "pr3_churn")
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
                    "incremental repair beats the from-scratch pipeline on every commit \
                     of the 1%-churn scenario at n=50k",
                )
                .field("met", met)
                .field("min_speedup", rows.iter().map(Row::speedup).fold(f64::INFINITY, f64::min))
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
        .unwrap_or_else(|_| format!("{}/../../BENCH_pr3.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, deco_bench::json::to_string(&json)).expect("write bench json");
    println!("wrote {out}");
    assert!(met, "acceptance failed: incremental did not beat from-scratch on every commit");
}
