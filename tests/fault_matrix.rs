//! PR 6 acceptance: the fault matrix.
//!
//! Sweeps transport-fault kinds × seeds over a churn scenario on the
//! streaming recolorer and asserts, for every cell:
//!
//! * **termination with a verified-legal coloring** — every commit ends
//!   proper and within the snapshot's palette bound, within the bounded
//!   retry/fallback budget, and never panics;
//! * **determinism** — the whole history (colors, reports, fault counters)
//!   is a pure function of the transport seed. A pinned hash over the full
//!   matrix makes this hold *across processes*: CI replays this file under
//!   `DECO_THREADS` ∈ {1, 8}, so thread-count or delivery divergence breaks
//!   the pin (faulty runs force the sequential scan engine; the fault-free
//!   from-scratch builds exercise the thread matrix for real).

use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_graph::generators;
use deco_probe::Fnv;
use deco_stream::{CommitReport, FaultyTransport, RecolorConfig, Recolorer, RepairStrategy};
use std::sync::Arc;

/// One faulty-transport cell of the matrix.
fn transports(seed: u64) -> Vec<(&'static str, FaultyTransport)> {
    vec![
        ("drop", FaultyTransport::new(seed).with_drop(150_000)),
        ("delay", FaultyTransport::new(seed).with_delay(120_000, 3)),
        ("reorder", FaultyTransport::new(seed).with_reorder(100_000)),
        (
            "mixed",
            FaultyTransport::new(seed).with_drop(80_000).with_delay(80_000, 2).with_reorder(60_000),
        ),
    ]
}

/// Drives one matrix cell: initial build plus four flap epochs (delete a
/// window of edges, commit, reinsert them, commit), validating after every
/// commit. Returns the full report history and the final colors.
fn run_cell(seed: u64, transport: FaultyTransport) -> (Vec<CommitReport>, Vec<u64>) {
    let g = generators::random_bounded_degree(220, 6, seed);
    let mut r = Recolorer::from_graph_with(
        g,
        edge_log_depth(1),
        MessageMode::Long,
        RecolorConfig::default().with_transport(Arc::new(transport)),
    )
    .unwrap();
    let mut reports = vec![r.commit().unwrap()];
    for step in 0..4 {
        let edges: Vec<_> = r.graph().edges().skip(step * 13).take(3).collect();
        for &(u, v) in &edges {
            r.delete_edge(u, v).unwrap();
        }
        reports.push(r.commit().unwrap());
        for &(u, v) in &edges {
            r.insert_edge(u, v).unwrap();
        }
        reports.push(r.commit().unwrap());
        let coloring = r.coloring();
        assert!(coloring.is_proper(r.graph()), "seed {seed}: improper after step {step}");
        let bound = r.color_bound();
        assert!(
            coloring.colors().iter().all(|&c| c < bound),
            "seed {seed}: color above bound {bound} after step {step}"
        );
    }
    (reports, r.coloring().into_colors())
}

#[test]
fn every_cell_terminates_legal_within_budget_and_deterministically() {
    for seed in [2u64, 5, 11] {
        for (kind, transport) in transports(seed) {
            let (reports, colors) = run_cell(seed, transport.clone());
            // Bounded self-stabilization budget: at most the default five
            // retries and one fallback per commit, and incremental commits
            // must actually dominate at these fault rates.
            for rep in &reports {
                assert!(rep.retries <= 5, "{kind}/{seed}: retries {}", rep.retries);
                assert!(rep.fallbacks <= 1, "{kind}/{seed}: fallbacks {}", rep.fallbacks);
            }
            let incremental =
                reports.iter().filter(|r| r.strategy == RepairStrategy::Incremental).count();
            assert!(incremental >= 4, "{kind}/{seed}: only {incremental} incremental commits");
            // Determinism: the exact same history on a second run.
            let again = run_cell(seed, transport);
            assert_eq!(reports, again.0, "{kind}/{seed}: reports diverge across runs");
            assert_eq!(colors, again.1, "{kind}/{seed}: colors diverge across runs");
        }
    }
}

/// Cross-process pin of the whole matrix (one seed per kind, to keep the
/// sweep cheap): colors plus retry/fallback/round/message counters, hashed.
/// CI replays this under `DECO_THREADS` ∈ {1, 8}; the constant must hold
/// everywhere.
#[test]
fn pinned_fault_matrix_fingerprint() {
    let mut h = Fnv::with_prime(0x1000_0000_01b3);
    for (_, transport) in transports(5) {
        let (reports, colors) = run_cell(5, transport);
        for rep in &reports {
            h.word(u64::from(rep.retries));
            h.word(u64::from(rep.fallbacks));
            h.word(rep.stats.rounds as u64);
            h.word(rep.stats.messages as u64);
            h.word(rep.stats.transport_dropped as u64);
        }
        h.word(colors.len() as u64);
        for &c in &colors {
            h.word(c);
        }
    }
    assert_eq!(h.digest(), PINNED_MATRIX_FINGERPRINT);
}

/// Re-pinned for silent Cole–Vishkin roots: the fingerprint folds each
/// commit's round and message counts, which fell in the from-scratch
/// commits; retries, fallbacks, drops and every color are unchanged.
const PINNED_MATRIX_FINGERPRINT: u64 = 10_899_603_127_139_954_661;
