//! PR 3 acceptance tests for the streaming recoloring engine.
//!
//! * **Locality** — incremental repair after a small batch steps only the
//!   repair-region sub-network: repaired-edge, region and message counts
//!   are `O(affected)`, not `O(m)`.
//! * **Bit-identity** — same trace + seed produces the same color history
//!   under every `DECO_THREADS` / `DECO_DELIVERY` setting. The history
//!   hash below is pinned to a constant, and CI runs this file across its
//!   thread matrix, so any engine/thread divergence breaks the pin.
//! * **Equivalence** — after every commit the incremental coloring is
//!   proper and stays within the from-scratch pipeline's palette bound for
//!   the same snapshot.

use deco_core::edge::legal::{edge_color, edge_color_bound, edge_log_depth, MessageMode};
use deco_graph::trace::{churn_trace, parse_trace};
use deco_probe::Fnv;
use deco_stream::{replay_trace, Recolorer, RegionRecolor, RepairStrategy};

/// FNV-1a over the full per-commit color history: pins every color of
/// every commit without storing them all in the source.
fn history_hash(reports_colors: &[Vec<u64>]) -> u64 {
    let mut h = Fnv::with_prime(0x1000_0000_01b3);
    for colors in reports_colors {
        h.word(colors.len() as u64);
        for &c in colors {
            h.word(c);
        }
    }
    h.digest()
}

#[test]
fn incremental_repair_touches_only_the_region() {
    // A graph big enough that O(m) work is unmistakably distinct from
    // O(affected): m ≈ 40k edges, batch of ~30 mutations.
    let trace = churn_trace(10_000, 8, 1, 30, 0xABCD);
    let out = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
    let m = out.recolorer.graph().m();
    assert!(m > 30_000, "scenario must be large, got m = {m}");
    let churn = &out.reports[1];
    assert_eq!(churn.strategy, RepairStrategy::Incremental);
    // Repaired edges: the ~30 inserted edges (plus possible palette-bound
    // evictions, none expected here), nowhere near m.
    assert!(churn.dirty <= 60, "repair region {} must be O(batch)", churn.dirty);
    assert_eq!(churn.recolored, churn.dirty);
    assert!(churn.region_vertices <= 2 * churn.dirty);
    // Message count is O(affected): orders of magnitude below one sweep of
    // the graph, let alone the from-scratch pipeline's m × rounds.
    assert!(
        churn.stats.messages * 20 < m,
        "{} messages is not O(affected) on m = {m}",
        churn.stats.messages
    );
    // Round count tracks the region schedule, not the graph.
    assert!(churn.stats.rounds < 100, "rounds {} must not scale with m", churn.stats.rounds);
    // And the result is a valid coloring within the snapshot bound.
    let g = out.recolorer.graph();
    let coloring = out.recolorer.coloring();
    assert!(coloring.is_proper(g));
    let bound = edge_color_bound(&edge_log_depth(1), g.max_degree() as u64);
    assert!(coloring.colors().iter().all(|&c| c < bound));
}

#[test]
fn incremental_never_exceeds_from_scratch_palette_bound() {
    // The acceptance equivalence: on every commit's snapshot, the
    // incremental coloring obeys the same ϑ bound the from-scratch
    // pipeline guarantees for that snapshot — checked here against an
    // actual from-scratch run on the final snapshot.
    let trace = churn_trace(600, 6, 4, 15, 0x77);
    let params = edge_log_depth(1);
    let out = replay_trace(&trace, params, MessageMode::Long, 25).unwrap();
    let g = out.recolorer.graph();
    let incremental = out.recolorer.coloring();
    assert!(incremental.is_proper(g));
    let scratch = edge_color(g, params, MessageMode::Long).unwrap();
    assert!(scratch.coloring.is_proper(g));
    let bound = edge_color_bound(&params, g.max_degree() as u64);
    assert_eq!(scratch.theta, bound);
    assert!(incremental.colors().iter().all(|&c| c < bound));
    assert!(incremental.palette_size() as u64 <= bound);
}

#[test]
fn replay_matches_manual_engine_drive() {
    // replay_trace and hand-driving a Recolorer are the same machine.
    let trace = churn_trace(150, 5, 3, 8, 0x31);
    let params = edge_log_depth(1);
    let out = replay_trace(&trace, params, MessageMode::Long, 25).unwrap();
    let mut r = Recolorer::new(trace.n0, params, MessageMode::Long).unwrap();
    let mut reports = Vec::new();
    for batch in trace.batches() {
        for &op in batch {
            r.queue_op(op).unwrap();
        }
        reports.push(r.commit().unwrap());
    }
    assert_eq!(reports, out.reports);
    assert_eq!(r.coloring(), out.recolorer.coloring());
}

/// The pinned trace of the determinism contract: colors of every commit,
/// hashed. CI replays this under `DECO_THREADS` ∈ {1, 2, 8} and forced
/// scan delivery; the constant must hold everywhere. The initial from-
/// scratch commit runs on an n = 3000 graph, which crosses the parallel
/// stepping threshold, so the thread matrix genuinely exercises chunked
/// parallel rounds.
#[test]
fn pinned_color_history_across_thread_counts() {
    let trace = churn_trace(3_000, 8, 3, 25, 0xD1CE);
    let params = edge_log_depth(1);
    let out = replay_trace(&trace, params, MessageMode::Long, 25).unwrap();
    let mut r = Recolorer::new(trace.n0, params, MessageMode::Long).unwrap();
    let mut history = Vec::new();
    for batch in trace.batches() {
        for &op in batch {
            r.queue_op(op).unwrap();
        }
        r.commit().unwrap();
        history.push(r.coloring().into_colors());
    }
    // Sanity: replay agrees with the hand drive before pinning.
    assert_eq!(r.coloring(), out.recolorer.coloring());
    let strategies: Vec<_> = out.reports.iter().map(|rep| rep.strategy).collect();
    assert_eq!(
        strategies,
        vec![
            RepairStrategy::FromScratch,
            RepairStrategy::Incremental,
            RepairStrategy::Incremental,
            RepairStrategy::Incremental,
        ]
    );
    assert_eq!(history_hash(&history), PINNED_HISTORY_HASH);
    // Stats are part of the contract too: pin the totals.
    let total = out.reports.iter().fold(deco_local::RunStats::zero(), |acc, r| acc + r.stats);
    assert_eq!((total.rounds, total.messages), PINNED_TOTALS);
}

const PINNED_HISTORY_HASH: u64 = 6_594_720_363_075_280_134;
/// Deliberate re-pin (PR 5): early halting in the repair pipelines cut the
/// round total 126 → 118; the message total and the color-history hash
/// above are unchanged — exactly the contract of the halting knob.
/// Re-pinned again for silent Cole–Vishkin roots: roots no longer send,
/// and repairs whose CV nodes all settle end CV in round 1; the
/// color-history hash is unchanged.
const PINNED_TOTALS: (usize, usize) = (85, 89_420);

#[test]
fn trace_text_roundtrip_replays_identically() {
    let trace = churn_trace(200, 6, 2, 10, 5);
    let text = deco_graph::trace::to_text(&trace);
    let back = parse_trace(&text).unwrap();
    assert_eq!(back, trace);
    let a = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
    let b = replay_trace(&back, edge_log_depth(1), MessageMode::Long, 25).unwrap();
    assert_eq!(a.reports, b.reports);
    assert_eq!(a.recolorer.coloring(), b.recolorer.coloring());
}

#[test]
fn net_churn_matches_replayed_deltas() {
    // Trace::net_churn is exactly what the engine observes per commit.
    let trace = churn_trace(200, 6, 3, 10, 0x21);
    let churn = trace.net_churn();
    let out = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
    assert_eq!(churn.len(), out.reports.len());
    for (c, rep) in churn.iter().zip(&out.reports) {
        assert_eq!((c.inserted, c.deleted), (rep.inserted, rep.deleted), "commit {}", rep.commit);
    }
}

#[test]
fn capacity_fallback_surfaces_extra_deletions() {
    // On a near-saturated graph (n=6, Δ≤3 caps m at 9) the generator's
    // capacity fallback must delete extra edges to make room for the
    // requested insertions. The extra churn is no longer just documented:
    // net_churn surfaces it, and the replayed engine sees the same counts.
    let trace = churn_trace(6, 3, 4, 2, 2);
    let churn = trace.net_churn();
    let nominal = 2usize;
    // Off saturation every churn commit nets inserted == deleted (m is
    // preserved); the fallback's extra deletions show up as a net shrink.
    assert!(
        churn[1..].iter().any(|c| c.deleted > c.inserted),
        "fallback did not fire: net churn {churn:?}"
    );
    for c in &churn[1..] {
        assert!(c.inserted <= nominal, "insert phase never exceeds the request");
        assert!(c.deleted >= c.inserted, "net deletions = request + fallback extras");
    }
    // And the engine replays it cleanly, reporting the same net effect.
    let out = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
    for (c, rep) in churn.iter().zip(&out.reports) {
        assert_eq!((c.inserted, c.deleted), (rep.inserted, rep.deleted), "commit {}", rep.commit);
    }
    assert!(out.recolorer.coloring().is_proper(out.recolorer.graph()));
}

#[test]
fn net_churn_is_label_based_across_shrink() {
    // Documented limitation: inside a shrink batch, pair labels change
    // numbering, so net_churn counts by label while the replayed delta
    // nets physical edges. Here (4,5) is deleted pre-shrink and the same
    // physical edge reinserted as (3,4) post-shrink: net_churn sees one
    // delete + one insert, the engine's CommitDelta nets to zero.
    let text = "t 7\n+ 1 2\n+ 2 3\n+ 4 5\n+ 5 6\n+ 4 6\ncommit\n- 4 5\nshrink\n+ 3 4\ncommit\n";
    let trace = parse_trace(text).unwrap();
    let churn = trace.net_churn();
    assert_eq!((churn[1].inserted, churn[1].deleted), (1, 1), "label-based accounting");
    let out = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
    assert_eq!((out.reports[1].inserted, out.reports[1].deleted), (0, 0), "physical net is zero");
    assert!(out.recolorer.coloring().is_proper(out.recolorer.graph()));
}

#[test]
fn shrink_traces_replay_and_stay_proper() {
    // A growth workload with periodic shrink compactions: vertices come
    // and go, the coloring stays proper and the vertex set stays compact.
    let text = "t 4\n+ 0 1\n+ 1 2\ncommit\nv 2\n+ 3 4\n+ 4 5\ncommit\n- 0 1\nshrink\ncommit\n";
    let trace = parse_trace(text).unwrap();
    let out = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
    let g = out.recolorer.graph();
    // After deleting (0,1), vertex 0 is isolated and shrinks away.
    assert_eq!(g.n(), 5);
    assert_eq!(g.m(), 3);
    assert!(out.recolorer.coloring().is_proper(g));
    // Round-trip including the shrink line.
    assert_eq!(deco_graph::trace::to_text(&trace), text);
}

#[test]
fn threshold_zero_always_runs_from_scratch() {
    let trace = churn_trace(100, 4, 2, 5, 9);
    let out = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 0).unwrap();
    for rep in &out.reports {
        assert_eq!(rep.strategy, RepairStrategy::FromScratch);
    }
    assert!(out.recolorer.coloring().is_proper(out.recolorer.graph()));
}
