//! **PR7 — segmented CSR commits**: O(region) commit memory traffic.
//!
//! Three scenarios, all guarded by deterministic byte counters (wall
//! medians are informational only — ±10% container noise, ROADMAP):
//!
//! * **A. engine parity** — the pr3/pr4 acceptance workload
//!   (`churn_trace(n = 50k, Δ ≤ 8)`, 1% churn per commit, same seed)
//!   replayed through the legacy [`Recolorer`] (full-rewrite commits) and
//!   the [`SegRecolorer`] (segmented commits). Reports and colorings are
//!   asserted bit-identical (up to `stats.commit_bytes`, the quantity
//!   under test) before anything is recorded; per-commit `commit_bytes`
//!   for both engines land in the json as cost counters.
//! * **B. large-m machinery** — a 1% churn batch committed on a
//!   `SegmentedGraph` vs `MutableGraph` at m ≈ 200k (the
//!   `Graph::patched` ≈ 12 MB regime the issue names), topology only so
//!   the byte ratio is undiluted by repair. **Hard-asserts** segmented
//!   bytes × 10 ≤ full-rewrite bytes — the PR's acceptance criterion —
//!   and bit-identical resulting snapshots.
//! * **C. power-law churn** — the heavy-tailed trace (Δ = 64 > λ = 48)
//!   through both engines, long-mode/spill paths hot, same parity
//!   asserts.
//!
//! Results land in `BENCH_pr7.json` (override with `DECO_BENCH_OUT`;
//! `DECO_BENCH_SCALE=full` deepens the run).

use deco_bench::json::{Obj, Value};
use deco_bench::{banner, millis, scale, Scale, Table};
use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_graph::trace::{churn_trace_from, power_law_churn_trace, Trace, TraceOp};
use deco_graph::{generators, MutableGraph, SegmentedGraph};
use deco_probe::Fnv;
use deco_stream::{Recolorer, RegionRecolor, SegRecolorer};
use std::time::{Duration, Instant};

/// FNV-1a over one commit's colors (the stream_churn pin's hash function).
fn color_hash(colors: &[u64]) -> u64 {
    let mut h = Fnv::with_prime(0x1000_0000_01b3);
    h.word(colors.len() as u64);
    for &c in colors {
        h.word(c);
    }
    h.digest()
}

/// Median commit() wall time over `samples` runs from `base`'s state
/// (clone + queueing untimed).
fn time_commit<E: RegionRecolor + Clone>(base: &E, ops: &[TraceOp], samples: usize) -> Duration {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..=samples {
        let mut r = base.clone();
        for &op in ops {
            r.queue_op(op).expect("valid trace");
        }
        let t0 = Instant::now();
        r.commit().expect("valid trace");
        times.push(t0.elapsed());
    }
    times.remove(0); // warm-up
    times.sort_unstable();
    times[times.len() / 2]
}

struct Row {
    scenario: &'static str,
    commit: usize,
    m: usize,
    dirty: usize,
    rounds: usize,
    messages: usize,
    seg_commit_bytes: usize,
    full_commit_bytes: usize,
    color_hash: u64,
    seg: Duration,
    legacy: Duration,
}

impl Row {
    fn byte_ratio(&self) -> f64 {
        self.full_commit_bytes as f64 / (self.seg_commit_bytes as f64).max(1.0)
    }

    fn to_json(&self) -> Value {
        Obj::new()
            .field("scenario", self.scenario)
            .field("commit", self.commit)
            .field("m", self.m)
            .field("repaired_edges", self.dirty)
            .field("rounds", self.rounds)
            .field("messages", self.messages)
            .field("segmented_commit_bytes", self.seg_commit_bytes)
            .field("full_rewrite_commit_bytes", self.full_commit_bytes)
            .field("byte_ratio_full_over_segmented", self.byte_ratio())
            .field("color_hash", format!("{:016x}", self.color_hash))
            .field("segmented_ms", self.seg.as_secs_f64() * 1e3)
            .field("legacy_ms", self.legacy.as_secs_f64() * 1e3)
            .build()
    }
}

/// Replays `trace` through both engines, asserting parity per commit and
/// recording one [`Row`] per *churn* commit (the build commit is reported
/// separately by the caller).
fn run_pair(scenario: &'static str, trace: &Trace, samples: usize, rows: &mut Vec<Row>) {
    let params = edge_log_depth(1);
    let mode = MessageMode::Long;
    let mut legacy = Recolorer::new(trace.n0, params, mode).expect("preset params");
    let mut seg = SegRecolorer::new(trace.n0, params, mode).expect("preset params");
    for (c, batch) in trace.batches().into_iter().enumerate() {
        let (seg_t, legacy_t) = if c > 0 {
            (time_commit(&seg, batch, samples), time_commit(&legacy, batch, samples))
        } else {
            (Duration::ZERO, Duration::ZERO) // build commit: not timed
        };
        for &op in batch {
            legacy.queue_op(op).expect("valid trace");
            seg.queue_op(op).expect("valid trace");
        }
        let a = legacy.commit().expect("valid trace");
        let b = seg.commit().expect("valid trace");
        let (mut a0, mut b0) = (a.clone(), b.clone());
        a0.stats.commit_bytes = 0;
        b0.stats.commit_bytes = 0;
        assert_eq!(a0, b0, "{scenario} commit {c}: reports diverge across engines");
        let colors = legacy.coloring().into_colors();
        assert_eq!(
            colors,
            seg.coloring().into_colors(),
            "{scenario} commit {c}: colors diverge across engines"
        );
        if c > 0 {
            rows.push(Row {
                scenario,
                commit: c,
                m: a.m,
                dirty: a.dirty,
                rounds: a.stats.rounds,
                messages: a.stats.messages,
                seg_commit_bytes: b.stats.commit_bytes,
                full_commit_bytes: a.stats.commit_bytes,
                color_hash: color_hash(&colors),
                seg: seg_t,
                legacy: legacy_t,
            });
        }
    }
}

fn main() {
    banner("PR7 / segmented CSR", "O(region) commit bytes vs full-rewrite commits");
    let full = scale() == Scale::Full;
    let samples = if full { 5 } else { 3 };
    let mut rows: Vec<Row> = Vec::new();

    // A. The pr3/pr4 acceptance workload: n = 50k, Δ ≤ 8, 1% churn.
    let (n, cap, commits) = if full { (50_000, 8, 6) } else { (50_000, 8, 3) };
    println!("A: churn_trace(n={n}, Δ≤{cap}, {commits} churn commits @ 1%) ...");
    let base = generators::random_bounded_degree(n, cap, 0x9126);
    let churn = base.m() / 100;
    let trace = churn_trace_from(&base, cap, commits, churn, 0x9126);
    drop(base);
    run_pair("churn_50k", &trace, samples, &mut rows);

    // C. Heavy-tailed churn: hubs at Δ = 64 > λ = 48 keep the long-mode
    // and spill paths hot in both engines.
    let (pn, pd, pc, pchurn) = if full { (4000, 64, 4, 40) } else { (2000, 64, 3, 20) };
    println!("C: power_law_churn_trace(n={pn}, Δ={pd}, {pc} churn commits @ {pchurn}) ...");
    let ptrace = power_law_churn_trace(pn, pd, pc, pchurn, 0x9072);
    run_pair("power_law", &ptrace, samples, &mut rows);

    // B. Large-m machinery: the byte claim undiluted by repair. m ≈ 200k
    // is the issue's `Graph::patched` ≈ 12 MB regime.
    let (bn, bcap) = if full { (100_000, 8) } else { (50_000, 8) };
    println!("B: large-m machinery, random_bounded_degree(n={bn}, Δ≤{bcap}), 1% batch ...");
    let big = generators::random_bounded_degree(bn, bcap, 0xb16);
    let big_m = big.m();
    let batch = churn_trace_from(&big, bcap, 1, big_m / 100, 0xb16);
    let churn_batch = batch.batches()[1].to_vec();
    let mut sg = SegmentedGraph::from_graph(&big);
    let mut mg = MutableGraph::from_graph(big);
    for &op in &churn_batch {
        match op {
            TraceOp::Insert(u, v) => {
                sg.insert_edge(u, v).expect("valid batch");
                mg.insert_edge(u, v).expect("valid batch");
            }
            TraceOp::Delete(u, v) => {
                sg.delete_edge(u, v).expect("valid batch");
                mg.delete_edge(u, v).expect("valid batch");
            }
            _ => unreachable!("churn batches only insert/delete"),
        }
    }
    let t0 = Instant::now();
    let sd = sg.commit().expect("valid batch");
    let seg_wall = t0.elapsed();
    let t1 = Instant::now();
    let md = mg.commit().expect("valid batch");
    let full_wall = t1.elapsed();
    assert_eq!(&sg.to_graph().0, mg.graph(), "large-m snapshots diverge");
    let ratio = md.commit_bytes as f64 / (sd.commit_bytes as f64).max(1.0);
    // The PR's acceptance criterion, hard-asserted where it is measured.
    assert!(
        sd.commit_bytes * 10 <= md.commit_bytes,
        "segmented commit must write >=10x fewer bytes on large-m: {} vs {}",
        sd.commit_bytes,
        md.commit_bytes
    );
    println!(
        "   m = {}, churn = {}: segmented {} B vs full rewrite {} B ({ratio:.1}x fewer)",
        mg.graph().m(),
        big_m / 100,
        sd.commit_bytes,
        md.commit_bytes
    );

    println!();
    let table = Table::new(
        &["scenario", "commit", "dirty", "seg bytes", "full bytes", "ratio", "seg ms", "legacy ms"],
        &[10, 6, 7, 11, 12, 7, 9, 9],
    );
    for r in &rows {
        table.row(&[
            r.scenario.to_string(),
            r.commit.to_string(),
            r.dirty.to_string(),
            r.seg_commit_bytes.to_string(),
            r.full_commit_bytes.to_string(),
            format!("{:.1}x", r.byte_ratio()),
            millis(r.seg),
            millis(r.legacy),
        ]);
    }
    println!("\n(byte counters are deterministic and gate-guarded; wall medians are");
    println!(" informational — repair work dominates both engines' commit wall time)");

    let churn_ratios: Vec<f64> =
        rows.iter().filter(|r| r.scenario == "churn_50k").map(Row::byte_ratio).collect();
    let min_churn_ratio = churn_ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let met = sd.commit_bytes * 10 <= md.commit_bytes;
    let json = Obj::new()
        .field("bench", "pr7_segments")
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
                    "segmented commits write >=10x fewer bytes than the full-rewrite \
                     oracle on the large-m machinery scenario (hard-asserted above), \
                     with reports and colorings bit-identical across engines on every \
                     commit of the churn and power-law scenarios (asserted before \
                     recording); wall medians are informational",
                )
                .field("met", met)
                .field("large_m_byte_ratio", ratio)
                .field("min_churn_byte_ratio", min_churn_ratio)
                .field("large_m_segmented_ms", seg_wall.as_secs_f64() * 1e3)
                .field("large_m_full_rewrite_ms", full_wall.as_secs_f64() * 1e3)
                .build(),
        )
        .field(
            "large_m_machinery",
            Obj::new()
                .field("n", bn)
                .field("m", big_m)
                .field("churn_edges", big_m / 100)
                .field("segmented_commit_bytes", sd.commit_bytes)
                .field("full_rewrite_commit_bytes", md.commit_bytes)
                .build(),
        )
        .field("commits", Value::Array(rows.iter().map(Row::to_json).collect()))
        .build();
    let out = std::env::var("DECO_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_pr7.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, deco_bench::json::to_string(&json)).expect("write bench json");
    println!("wrote {out}");
    println!(
        "large-m byte ratio {ratio:.1}x (target >=10x); churn-commit byte ratios \
         min {min_churn_ratio:.1}x over {} commits",
        rows.len()
    );
}
