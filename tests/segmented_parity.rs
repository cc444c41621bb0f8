//! Differential sweep: the segmented engine against the legacy delta-CSR
//! engine — the PR 7 parity contract.
//!
//! [`SegRecolorer`] is the same engine as [`Recolorer`] but commits
//! through the segmented store (O(region) bytes) and colors by stable edge
//! id. The contract pinned here:
//!
//! * **Perfect transport** — per-commit [`CommitReport`]s are
//!   bit-identical up to `stats.commit_bytes` (the very quantity the
//!   segmented path improves), and colorings are bit-identical in
//!   lexicographic edge order after every commit.
//! * **Faulty transport** — colorings stay bit-identical (the fault-era
//!   priority order is host-independent), while message-bit counters may
//!   differ; only colors are compared.
//! * **Bytes** — on a churny trace the segmented engine's cumulative
//!   commit traffic is strictly below the legacy engine's full rewrites.
//! * **Power-law churn** — the seeded heavy-tail trace keeps Δ above the
//!   λ = 48 palette-depth cutoff, so the long-mode/spill paths run on a
//!   realistic workload in both engines.
//!
//! CI replays this binary across the `DECO_THREADS` {1, 2, 8} matrix; any
//! thread-dependent divergence breaks the asserts below.

use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_graph::trace::{churn_trace, power_law_churn_trace, Trace};
use deco_graph::{generators, Graph};
use deco_stream::{
    FaultyTransport, RecolorConfig, Recolorer, RegionRecolor, SegRecolorer, Transport,
};
use std::sync::Arc;

/// Replays `trace` through both engines, asserting the parity contract
/// after every commit; returns cumulative (legacy, segmented) commit
/// bytes. `exact_reports` is off under faulty transports, where message
/// counters legitimately differ.
fn run_parity(
    trace: &Trace,
    mut legacy: Recolorer,
    mut seg: SegRecolorer,
    exact_reports: bool,
) -> (usize, usize) {
    let (mut legacy_bytes, mut seg_bytes) = (0usize, 0usize);
    for (ci, batch) in trace.batches().into_iter().enumerate() {
        for &op in batch {
            legacy.queue_op(op).unwrap();
            seg.queue_op(op).unwrap();
        }
        let a = legacy.commit().unwrap();
        let b = seg.commit().unwrap();
        legacy_bytes += a.stats.commit_bytes;
        seg_bytes += b.stats.commit_bytes;
        if exact_reports {
            let mut a0 = a.clone();
            let mut b0 = b.clone();
            a0.stats.commit_bytes = 0;
            b0.stats.commit_bytes = 0;
            assert_eq!(a0, b0, "commit {ci}: reports diverged");
        }
        let (snapshot, _) = seg.segmented().to_graph();
        assert_eq!(&snapshot, legacy.graph(), "commit {ci}: snapshots diverged");
        let ca = legacy.coloring();
        let cb = seg.coloring();
        assert_eq!(ca, cb, "commit {ci}: colorings diverged");
        assert!(ca.is_proper(&snapshot), "commit {ci}: improper coloring");
        assert_eq!(a.color_bound, b.color_bound, "commit {ci}");
    }
    (legacy_bytes, seg_bytes)
}

#[test]
fn perfect_transport_reports_and_colorings_match() {
    for seed in [0x5e61u64, 0x5e62, 0x5e63] {
        let trace = churn_trace(200, 6, 6, 10, seed);
        let cfg = RecolorConfig::default().with_repair_threshold(25);
        let legacy =
            Recolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg.clone())
                .unwrap();
        let seg =
            SegRecolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg).unwrap();
        let (legacy_bytes, seg_bytes) = run_parity(&trace, legacy, seg, true);
        // The legacy engine rewrites the whole CSR every commit; segmented
        // commits write the churn region. Cumulatively that must win even
        // with the build-everything first commit included.
        assert!(
            seg_bytes < legacy_bytes,
            "segmented commits must write fewer bytes: {seg_bytes} vs {legacy_bytes}"
        );
        assert!(legacy_bytes > 0 && seg_bytes > 0, "byte counters must be wired");
    }
}

#[test]
fn from_graph_engines_agree_too() {
    // The other construction path: both engines seeded from an existing
    // snapshot (ids start as lexicographic indices), first commit colors
    // from scratch, then rolling delete/reinsert churn.
    let g = generators::random_bounded_degree(300, 7, 0x7a11);
    let mut legacy =
        Recolorer::from_graph(g.clone(), edge_log_depth(1), MessageMode::Long).unwrap();
    let mut seg = SegRecolorer::from_graph(g, edge_log_depth(1), MessageMode::Long).unwrap();
    let compare = |legacy: &mut Recolorer, seg: &mut SegRecolorer, ctx: &str| {
        let a = legacy.commit().unwrap();
        let mut b = seg.commit().unwrap();
        b.stats.commit_bytes = a.stats.commit_bytes;
        assert_eq!(a, b, "{ctx}: reports diverged");
        assert_eq!(legacy.coloring(), seg.coloring(), "{ctx}: colorings diverged");
        assert!(legacy.coloring().is_proper(legacy.graph()), "{ctx}");
    };
    compare(&mut legacy, &mut seg, "initial");
    for step in 0..4 {
        let edges: Vec<_> = legacy.graph().edges().skip(step * 13).take(3).collect();
        for &(u, v) in &edges {
            legacy.delete_edge(u, v).unwrap();
            seg.delete_edge(u, v).unwrap();
        }
        compare(&mut legacy, &mut seg, &format!("delete step {step}"));
        for &(u, v) in &edges {
            legacy.insert_edge(u, v).unwrap();
            seg.insert_edge(u, v).unwrap();
        }
        compare(&mut legacy, &mut seg, &format!("reinsert step {step}"));
    }
}

#[test]
fn compaction_commits_stay_in_parity() {
    let trace = churn_trace(160, 5, 6, 8, 0xc0a1);
    let cfg = RecolorConfig::default().with_compaction_every(2);
    let legacy =
        Recolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg.clone()).unwrap();
    let seg = SegRecolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg).unwrap();
    run_parity(&trace, legacy, seg, true);
}

#[test]
fn faulty_transport_colorings_match() {
    // Same seeded fault schedule on both sides. Reports are NOT compared:
    // the hosts encode repair priorities with different bit widths, so
    // message-bit counters legitimately differ — but the priority *order*
    // is host-independent, so colors must not.
    for seed in [3u64, 9, 21] {
        let trace = churn_trace(150, 5, 5, 8, 0xfa0 ^ seed);
        let transport = |s: u64| -> Arc<dyn Transport> {
            Arc::new(FaultyTransport::new(s).with_drop(100_000).with_delay(100_000, 2))
        };
        let cfg = |s| RecolorConfig::default().with_transport(transport(s));
        let legacy =
            Recolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg(seed)).unwrap();
        let seg = SegRecolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg(seed))
            .unwrap();
        run_parity(&trace, legacy, seg, false);
    }
}

#[test]
fn power_law_churn_keeps_long_mode_hot_and_in_parity() {
    // The heavy-tail workload: hubs above the λ = 48 palette-depth cutoff
    // force the long-mode/spill paths while the tail stays sparse. Both
    // engines must agree on it bit for bit.
    let trace = power_law_churn_trace(512, 64, 3, 8, 0x9072);
    let legacy = Recolorer::new(trace.n0, edge_log_depth(1), MessageMode::Long).unwrap();
    let seg = SegRecolorer::new(trace.n0, edge_log_depth(1), MessageMode::Long).unwrap();
    run_parity(&trace, legacy, seg, true);

    // Δ really is above the cutoff after replay (the generator wires the
    // hub core deterministically, so this holds for every seed).
    let mut check = SegRecolorer::new(trace.n0, edge_log_depth(1), MessageMode::Long).unwrap();
    for batch in trace.batches() {
        for &op in batch {
            check.queue_op(op).unwrap();
        }
        check.commit().unwrap();
        assert!(check.segmented().max_degree() > 48, "power-law trace must keep Δ above λ = 48");
        assert!(check.segmented().max_degree() <= 64);
    }
}

#[test]
fn segmented_bytes_scale_with_region_not_graph() {
    // The headline O(region) claim at test scale: a single-edge commit on
    // an m ≈ 3.5k graph writes well under a tenth of the full rewrite.
    let g = generators::random_bounded_degree(1000, 7, 0xb17e);
    let mut seg =
        SegRecolorer::from_graph(g.clone(), edge_log_depth(1), MessageMode::Long).unwrap();
    seg.commit().unwrap(); // initial from-scratch coloring
    let full = Graph::full_rewrite_bytes(g.n(), g.m());
    let (u, v) = (0, g.n() - 1);
    let report = if g.edge_between(u, v).is_some() {
        seg.delete_edge(u, v).unwrap();
        seg.commit().unwrap()
    } else {
        seg.insert_edge(u, v).unwrap();
        seg.commit().unwrap()
    };
    assert!(
        report.stats.commit_bytes * 10 <= full,
        "single-edge commit wrote {} bytes, full rewrite is {full}",
        report.stats.commit_bytes
    );
}
