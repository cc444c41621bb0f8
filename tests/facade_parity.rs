//! The [`RegionRecolor`] facade must be a zero-cost veneer: driving either
//! engine through `&mut dyn RegionRecolor` produces bit-identical reports,
//! colorings and snapshots to driving the concrete type directly, on both
//! the delta-CSR sweep and a churn trace. [`RecolorConfig`] is the one
//! configuration surface: the deprecated per-engine `with_*` builder shims
//! served their one grace-period PR and are gone.

use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_graph::trace::{churn_trace, Trace};
use deco_stream::{
    replay_trace_on, CommitReport, RecolorConfig, Recolorer, RegionRecolor, SegRecolorer,
};

const THRESHOLD: u32 = 25;

/// Drives a trace through the concrete engine API (no facade anywhere).
fn run_direct_legacy(trace: &Trace) -> (Vec<CommitReport>, Vec<u64>) {
    let cfg = RecolorConfig::default().with_repair_threshold(THRESHOLD);
    let mut r = Recolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg).unwrap();
    let mut reports = Vec::new();
    for batch in trace.batches() {
        for &op in batch {
            r.queue_op(op).unwrap();
        }
        reports.push(r.commit().unwrap());
    }
    (reports, r.coloring().into_colors())
}

fn run_direct_segmented(trace: &Trace) -> (Vec<CommitReport>, Vec<u64>) {
    let cfg = RecolorConfig::default().with_repair_threshold(THRESHOLD);
    let mut r =
        SegRecolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg).unwrap();
    let mut reports = Vec::new();
    for batch in trace.batches() {
        for &op in batch {
            r.queue_op(op).unwrap();
        }
        reports.push(r.commit().unwrap());
    }
    (reports, r.coloring().into_colors())
}

/// Drives the same trace through `&mut dyn RegionRecolor` via
/// [`replay_trace_on`] — the path the CLI, the benches and `deco-serve`
/// all take.
fn run_facade(trace: &Trace, segmented: bool) -> (Vec<CommitReport>, Vec<u64>) {
    let cfg = RecolorConfig::default().with_repair_threshold(THRESHOLD);
    let mut engine: Box<dyn RegionRecolor> = if segmented {
        Box::new(
            SegRecolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg).unwrap(),
        )
    } else {
        Box::new(Recolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg).unwrap())
    };
    let run = replay_trace_on(engine.as_mut(), trace).unwrap();
    engine.verify().expect("facade verify must pass after the last commit");
    assert_eq!(engine.commits(), run.reports.len());
    (run.reports, engine.coloring().into_colors())
}

#[test]
fn facade_matches_direct_api_on_churn_for_both_engines() {
    for seed in [0xfacade, 0xfacadd] {
        let trace = churn_trace(220, 6, 5, 9, seed);
        assert_eq!(run_facade(&trace, false), run_direct_legacy(&trace), "legacy diverged");
        assert_eq!(run_facade(&trace, true), run_direct_segmented(&trace), "segmented diverged");
    }
}

#[test]
fn facade_engines_agree_with_each_other() {
    // Cross-engine parity through the facade alone: identical colorings,
    // and identical reports up to `stats.commit_bytes` (the quantity the
    // segmented representation exists to improve).
    let trace = churn_trace(200, 5, 6, 8, 0xd1ff);
    let (legacy_reports, legacy_colors) = run_facade(&trace, false);
    let (seg_reports, seg_colors) = run_facade(&trace, true);
    assert_eq!(legacy_colors, seg_colors);
    for (a, b) in legacy_reports.iter().zip(&seg_reports) {
        let mut a = a.clone();
        let mut b = b.clone();
        a.stats.commit_bytes = 0;
        b.stats.commit_bytes = 0;
        assert_eq!(a, b, "commit {}: reports diverged beyond commit_bytes", a.commit);
    }
}

#[test]
fn facade_snapshots_are_lexicographic_on_both_engines() {
    let trace = churn_trace(150, 5, 4, 7, 0x51ab);
    let engines: [Box<dyn RegionRecolor>; 2] = [
        Box::new(
            Recolorer::new_with(
                trace.n0,
                edge_log_depth(1),
                MessageMode::Long,
                RecolorConfig::default(),
            )
            .unwrap(),
        ),
        Box::new(
            SegRecolorer::new_with(
                trace.n0,
                edge_log_depth(1),
                MessageMode::Long,
                RecolorConfig::default(),
            )
            .unwrap(),
        ),
    ];
    let mut snaps = Vec::new();
    for mut engine in engines {
        replay_trace_on(engine.as_mut(), &trace).unwrap();
        let (graph, coloring) = engine.publish();
        assert_eq!(graph, engine.snapshot(), "publish and snapshot disagree");
        assert_eq!(coloring, engine.coloring(), "publish and coloring disagree");
        snaps.push((graph, coloring, engine.color_bound()));
    }
    assert_eq!(snaps[0].0, snaps[1].0, "lexicographic snapshots diverged");
    assert_eq!(snaps[0].1, snaps[1].1, "lexicographic colorings diverged");
    assert_eq!(snaps[0].2, snaps[1].2, "palette bounds diverged");
    assert!(snaps[0].1.is_proper(&snaps[0].0));
}

#[test]
fn request_compaction_forces_one_from_scratch_commit() {
    use deco_stream::RepairStrategy;
    for segmented in [false, true] {
        let trace = churn_trace(140, 5, 4, 6, 0xc0de);
        let cfg = RecolorConfig::default();
        let mut engine: Box<dyn RegionRecolor> = if segmented {
            Box::new(
                SegRecolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg)
                    .unwrap(),
            )
        } else {
            Box::new(
                Recolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg).unwrap(),
            )
        };
        replay_trace_on(engine.as_mut(), &trace).unwrap();
        // An empty batch is clean...
        let clean = engine.commit().unwrap();
        assert_eq!(clean.strategy, RepairStrategy::Clean);
        // ...until a compaction is requested: the next commit recolors
        // from scratch, and the request is consumed by it.
        engine.request_compaction();
        engine.request_compaction(); // idempotent until consumed
        let compacted = engine.commit().unwrap();
        assert_eq!(compacted.strategy, RepairStrategy::FromScratch, "segmented={segmented}");
        assert_eq!(compacted.recolored, compacted.m);
        let after = engine.commit().unwrap();
        assert_eq!(after.strategy, RepairStrategy::Clean, "request must be consumed");
        engine.verify().unwrap();
    }
}

/// `RecolorConfig` is the one configuration surface: a config built once
/// drives both engines identically through [`set_config`], covering the
/// knobs the deleted per-engine `with_*` shims used to forward.
///
/// [`set_config`]: Recolorer::set_config
#[test]
fn recolor_config_is_the_single_config_surface() {
    use deco_stream::FaultyTransport;
    use std::sync::Arc;

    let trace = churn_trace(160, 5, 4, 8, 0x5111);
    let cfg = RecolorConfig::default()
        .with_repair_threshold(40)
        .with_compaction_every(3)
        .with_early_halt(false);
    let constructed = {
        let mut r =
            Recolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg.clone())
                .unwrap();
        replay_trace_on(&mut r, &trace).unwrap();
        (r.config().threshold_pct(), r.config().compaction_every(), r.coloring())
    };
    let reconfigured = {
        let mut r = Recolorer::new(trace.n0, edge_log_depth(1), MessageMode::Long).unwrap();
        r.set_config(cfg.clone());
        replay_trace_on(&mut r, &trace).unwrap();
        (r.config().threshold_pct(), r.config().compaction_every(), r.coloring())
    };
    assert_eq!(constructed, reconfigured);

    // Every config knob lands in both engines' live configuration.
    // The builder clamps a zero attempt budget to 1.
    let seg_cfg = cfg.with_transport(Arc::new(FaultyTransport::new(1))).with_max_repair_attempts(0);
    let r =
        SegRecolorer::new_with(20, edge_log_depth(1), MessageMode::Long, seg_cfg.clone()).unwrap();
    assert!(!r.config().transport().is_perfect());
    assert_eq!(r.config().max_attempts(), 1);
    let r = Recolorer::new_with(20, edge_log_depth(1), MessageMode::Long, seg_cfg).unwrap();
    assert!(!r.config().transport().is_perfect());
    assert_eq!(r.config().max_attempts(), 1);
}
