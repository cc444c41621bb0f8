//! Regression pins: exact measured values for fixed seeds.
//!
//! The reproduction's claims in EXPERIMENTS.md rest on the simulator being
//! bit-for-bit deterministic. These tests pin concrete (colors, rounds,
//! messages) triples so any behavioral drift — a changed tie-break, a
//! reordered loop, an accounting fix — shows up as an explicit diff that
//! must be acknowledged by updating the pin and re-running the benches.
//!
//! The seeded graphs come from the workspace-local `rand` stand-in (see
//! `crates/rand`), so these values are pinned against *its* streams; a
//! change to that crate's PRNG invalidates every pin below.

use deco_core::edge::legal::{edge_color, edge_log_depth, MessageMode};
use deco_core::edge::panconesi_rizzi::pr_edge_color;
use deco_core::legal::legal_color;
use deco_core::params::LegalParams;
use deco_graph::generators;
use deco_graph::line_graph::line_graph;
use deco_local::Network;

#[test]
fn pin_edge_color_on_seeded_graph() {
    let g = generators::random_bounded_degree(512, 64, 0xF1);
    assert_eq!((g.n(), g.m(), g.max_degree()), (512, 16380, 64));
    let run = edge_color(&g, edge_log_depth(1), MessageMode::Long).unwrap();
    assert!(run.coloring.is_proper(&g));
    assert_eq!(run.coloring.palette_size(), 185);
    assert_eq!(run.theta, 23_808);
    // Deliberate re-pin (PR 5): early node halting in the PR assignment
    // phase ends each node at its own last (forest, CV) step, so the round
    // total dropped from 466; colors and message counts are unchanged (the
    // halting-on/off differential test pins that).
    assert_eq!(run.stats.rounds, 206);
    // Deliberate re-pin (silent Cole–Vishkin roots): roots no longer send
    // their per-round colors, because their children simulate them; every
    // remaining message is one the full-schedule protocol sent, and colors
    // are unchanged.
    assert_eq!(run.stats.messages, 3_056_104);
    assert_eq!(run.levels.len(), 2);
}

#[test]
fn pin_panconesi_rizzi_on_seeded_graph() {
    let g = generators::random_bounded_degree(512, 64, 0xF1);
    let (pr, stats) = pr_edge_color(&g);
    assert!(pr.is_proper(&g));
    assert_eq!(pr.palette_size(), 93);
    // Deliberate re-pin (PR 5, early halting): 399 → 397. On this dense
    // graph the global maximum (forest, CV) step nearly fills the 6Δ
    // schedule, so only the tail rounds vanish — the win is in live-node
    // rounds, not the round total.
    assert_eq!(stats.rounds, 397);
    // Deliberate re-pin (silent Cole–Vishkin roots), as above.
    assert_eq!(stats.messages, 146_107);
}

#[test]
fn pin_vertex_legal_color_on_seeded_line_graph() {
    let l = line_graph(&generators::random_bounded_degree(100, 10, 0xF2));
    assert_eq!((l.n(), l.m(), l.max_degree()), (500, 4500, 18));
    let net = Network::new(&l);
    let run = legal_color(&net, 2, LegalParams::log_depth(2, 1)).unwrap();
    assert!(run.coloring.is_proper(&l));
    assert_eq!(run.coloring.palette_size(), 15);
    assert_eq!(run.theta, 19);
    assert_eq!(run.stats.rounds, 196);
    assert_eq!(run.stats.messages, 54_000);
}

#[test]
fn pin_crossover_direction() {
    // The Table 1 crossover claim, pinned: at this Δ ours is strictly
    // faster than PR in rounds.
    let params = edge_log_depth(1);
    let g = generators::random_bounded_degree(512, 2 * params.lambda as usize, 0xF3);
    let ours = edge_color(&g, params, MessageMode::Long).unwrap();
    let (_, pr) = pr_edge_color(&g);
    assert!(
        ours.stats.rounds < pr.rounds,
        "crossover regressed: ours {} vs PR {}",
        ours.stats.rounds,
        pr.rounds
    );
}

#[test]
fn pin_churn_trace_color_history() {
    // The streaming engine's determinism pin: a fixed churn trace must
    // reproduce this exact per-commit trajectory — strategies, repair
    // sizes, rounds, messages and the palette after every commit. Any
    // drift in the recolorer (dirty marking, schedule compaction, mask
    // tie-breaks) or in the underlying pipeline shows up here first.
    use deco_graph::trace::churn_trace;
    use deco_stream::{replay_trace, RepairStrategy};

    let trace = churn_trace(256, 6, 4, 10, 0xF4);
    let out = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
    let g = out.recolorer.graph();
    let coloring = out.recolorer.coloring();
    assert!(coloring.is_proper(g));
    assert_eq!((g.n(), g.m(), g.max_degree()), (256, 767, 6));
    let got: Vec<(RepairStrategy, usize, usize, usize)> = out
        .reports
        .iter()
        .map(|r| (r.strategy, r.dirty, r.stats.rounds, r.stats.messages))
        .collect();
    let i = RepairStrategy::Incremental;
    // Rounds re-pinned for PR 5's early halting (48/20/26/19/20 were
    // 50/28/28/21/28); repair sizes, messages, colors and the checksum
    // below are unchanged. Re-pinned again for silent Cole–Vishkin roots:
    // roots no longer send, and a repair whose CV nodes all settle ends CV
    // in round 1. Repair sizes, colors and the checksum are unchanged.
    let expected = vec![
        (RepairStrategy::FromScratch, 767, 48, 5_229),
        (i, 10, 20, 62),
        (i, 10, 15, 50),
        (i, 10, 8, 50),
        (i, 10, 9, 50),
    ];
    assert_eq!(got, expected);
    assert_eq!(coloring.palette_size(), 9);
    // The full color vector of the final snapshot, squashed to a checksum.
    let checksum = coloring
        .colors()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &c| (h ^ c).wrapping_mul(0x1000_0000_01b3));
    assert_eq!(checksum, 4_543_418_779_868_263_760);
}
