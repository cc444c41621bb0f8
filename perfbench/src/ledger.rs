//! The traced replay: the workload's batches re-run directly on engine and
//! graph replicas of **both** stores, timing the public entry point of
//! every layer on the commit path, plus separate allocation-counting and
//! probe passes on clones of the same pre-commit state.
//!
//! Layers: `stream` (`RegionRecolor` commit, publish calls, verify),
//! `graph` (`MutableGraph` / `SegmentedGraph` commits, `to_graph`,
//! `edge_induced`), `local` (`Network::new`, round counters), `core`
//! (`edge_color_in_groups`, the Cole–Vishkin and PR-assign phase counters).
//! Replicas run with the engine thread count the service's tenants get
//! (the process default), so the timings break down `serve.engine_ms_*`.
//! Only the allocation-counting pass pins one engine thread, so no worker
//! thread allocates inside its counting window.

use crate::alloc;
use crate::gen::{Batch, Workload};
use deco_core::edge::legal::{edge_color_in_groups, edge_log_depth, MessageMode};
use deco_graph::{EdgeIdx, Graph, MutableGraph, SegmentedGraph};
use deco_local::Network;
use deco_probe::{Event, RecordingProbe};
use deco_serve::EngineKind;
use deco_stream::{
    repair_phase, CommitReport, RecolorConfig, Recolorer, RegionRecolor, RepairStrategy,
    SegRecolorer,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Colors not yet assigned in a reconstructed repair input.
const UNCOLORED: u64 = u64::MAX;

/// Per-commit samples of every traced quantity, keyed by metric name.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Per-commit samples.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Totals over the replay (counts and sums).
    pub totals: BTreeMap<String, f64>,
    /// Engine commit wall on the store each tenant runs in the service.
    pub native_commit_ms: Vec<f64>,
    /// Self-check failures.
    pub problems: Vec<String>,
    /// Commits replayed.
    pub commits: usize,
}

impl Ledger {
    fn push(&mut self, key: &str, v: f64) {
        self.samples.entry(key.to_string()).or_default().push(v);
    }

    fn add(&mut self, key: &str, v: f64) {
        *self.totals.entry(key.to_string()).or_default() += v;
    }

    /// Median of a sample (0 if nothing was recorded).
    pub fn median(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |xs| crate::stats::median_of(xs.clone()))
    }

    /// Mean of a sample (0 if nothing was recorded).
    pub fn mean(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |xs| xs.iter().sum::<f64>() / xs.len().max(1) as f64)
    }

    /// A total (0 if nothing was recorded).
    pub fn total(&self, key: &str) -> f64 {
        self.totals.get(key).copied().unwrap_or(0.0)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn queue(e: &mut dyn RegionRecolor, batch: &Batch) {
    for op in batch.trace_ops() {
        e.queue_op(op).expect("generated batches are valid");
    }
}

/// A report with the store-dependent byte counter cleared, for comparing
/// the two stores (the engine-parity contract).
fn parity(r: &CommitReport) -> CommitReport {
    let mut r = r.clone();
    r.stats.commit_bytes = 0;
    r
}

/// Times one engine commit and the calls `Serve::finish_commit` and a
/// verifying caller make after it; records them under `store`.
fn timed_commit(
    e: &mut dyn RegionRecolor,
    batch: &Batch,
    store: &str,
    l: &mut Ledger,
) -> (CommitReport, f64) {
    queue(e, batch);
    let t = Instant::now();
    let report = e.commit().expect("generated batches commit");
    let commit_ms = ms_since(t);
    let t = Instant::now();
    let published = (e.snapshot(), e.coloring());
    let publish_ms = ms_since(t);
    drop(std::hint::black_box(published));
    let t = Instant::now();
    let verified = e.verify();
    let verify_ms = ms_since(t);
    l.check(verified.is_ok(), || format!("{store}: verify failed: {verified:?}"));
    l.push(&format!("stream.commit_ms.{store}"), commit_ms);
    l.push(&format!("serve.publish_ms.{store}"), publish_ms);
    l.push(&format!("stream.verify_ms.{store}"), verify_ms);
    (report, commit_ms)
}

/// The repair input `Recolorer::commit` derives from a delta, rebuilt by
/// endpoint-pair matching: carried colors, and the dirty edges (fresh
/// ones, plus carried colors the palette bound no longer admits).
fn carry(old: &Graph, old_colors: &[u64], new: &Graph, bound: u64) -> (Vec<u64>, Vec<EdgeIdx>) {
    let old_edges: Vec<(usize, usize)> = old.edges().collect();
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
        }
        if colors[e] == UNCOLORED || colors[e] >= bound {
            dirty.push(e);
        }
    }
    (colors, dirty)
}

/// Rank-renumbers a region graph's identifiers to 1..=n, as the engine
/// does before scheduling it.
fn dense_idents(sub: Graph) -> Graph {
    let mut rank: Vec<usize> = (0..sub.n()).collect();
    rank.sort_unstable_by_key(|&v| sub.ident(v));
    let mut dense = vec![0u64; sub.n()];
    for (r, &v) in rank.iter().enumerate() {
        dense[v] = r as u64 + 1;
    }
    sub.with_idents(dense).expect("ranks are distinct")
}

/// Times the repair layers on a reconstructed incremental repair input,
/// checks `repair_phase` reproduces the engine's coloring and counters,
/// and returns the `repair_phase` wall in ms.
fn repair_layers(
    pre: &Graph,
    pre_colors: &[u64],
    post: &Graph,
    report: &CommitReport,
    engine_colors: &[u64],
    l: &mut Ledger,
) -> f64 {
    let params = edge_log_depth(1);
    let mode = MessageMode::Long;
    let (carried, dirty) = carry(pre, pre_colors, post, report.color_bound);
    l.check(dirty.len() == report.dirty, || {
        format!(
            "commit {}: rebuilt region {} != engine's {}",
            report.commit,
            dirty.len(),
            report.dirty
        )
    });

    let t = Instant::now();
    let (sub, _, _) = post.edge_induced(&dirty);
    let extract_ms = ms_since(t);
    let t = Instant::now();
    let sub = dense_idents(sub);
    let net = Network::new(&sub).with_early_halt(true);
    let build_ms = ms_since(t);
    let t = Instant::now();
    let groups = vec![0u64; sub.m()];
    let run = edge_color_in_groups(&net, &groups, 1, params, sub.max_degree() as u64, mode)
        .expect("preset params are valid");
    let schedule_ms = ms_since(t);
    drop(std::hint::black_box(run));
    drop(net);

    let mut colors = carried;
    let t = Instant::now();
    let (stats, _, _) = repair_phase(post, &dirty, &mut colors, params, mode, true);
    let repair_ms = ms_since(t);
    l.check(colors == engine_colors, || {
        format!("commit {}: repair_phase diverged from the engine's coloring", report.commit)
    });
    let mut engine_stats = report.stats;
    engine_stats.commit_bytes = 0;
    l.check(stats == engine_stats, || {
        format!("commit {}: repair_phase counters diverged from the engine's", report.commit)
    });

    l.push("graph.region_extract_ms", extract_ms);
    l.push("local.network_build_ms", build_ms);
    l.push("core.schedule_ms", schedule_ms);
    l.push("stream.repair_ms", repair_ms);
    l.push("stream.finalize_ms", repair_ms - extract_ms - build_ms - schedule_ms);
    l.push("local.us_per_node_round", repair_ms * 1e3 / stats.node_rounds.max(1) as f64);
    repair_ms
}

/// Allocations of one commit on a clone of the pre-commit engine pinned to
/// one engine thread, counted twice; the two counts must agree.
fn count_allocs<E: RegionRecolor + Clone>(
    pre: &E,
    batch: &Batch,
    store: &str,
    expect: &CommitReport,
    l: &mut Ledger,
) {
    let mut counts = [0u64; 2];
    for c in &mut counts {
        let mut e = pre.clone();
        queue(&mut e, batch);
        let (report, n) = alloc::count(|| e.commit());
        let report = report.expect("generated batches commit");
        l.check(&report == expect, || format!("{store}: alloc-pass report diverged"));
        *c = n;
    }
    l.check(counts[0] == counts[1], || {
        format!("{store}: commit {} allocation count moved: {counts:?}", expect.commit)
    });
    l.push(&format!("stream.allocs_per_commit.{store}"), counts[0] as f64);
}

/// Phase counters of one commit through a `RecordingProbe`, on a clone of
/// the pre-commit legacy engine.
fn probe_pass(pre: &Recolorer, batch: &Batch, expect: &CommitReport, l: &mut Ledger) {
    let probe = Arc::new(RecordingProbe::new());
    let mut e = pre.clone();
    e.set_probe(probe.clone());
    queue(&mut e, batch);
    let report = e.commit().expect("generated batches commit");
    l.check(&report == expect, || "probe-pass report diverged".to_string());
    let (mut cv, mut pr) = (0u64, 0u64);
    for ev in probe.take() {
        if let Event::PhaseExit { name, stats } = ev {
            match name.as_ref() {
                "cole-vishkin-forests" => cv += stats.node_rounds,
                "pr-assign" => pr += stats.node_rounds,
                _ => {}
            }
        }
    }
    l.push("core.cv_node_rounds", cv as f64);
    l.push("core.pr_assign_node_rounds", pr as f64);
}

/// Replays up to `w.replay_batches` churn batches of every tenant.
pub fn replay(w: &Workload) -> Ledger {
    let mut l = Ledger::default();
    let params = edge_log_depth(1);
    let mode = MessageMode::Long;
    let cfg = RecolorConfig::default();
    for t in &w.tenants {
        let mut leg = Recolorer::new_with(t.n, params, mode, cfg.clone()).expect("preset params");
        let mut seg =
            SegRecolorer::new_with(t.n, params, mode, cfg.clone()).expect("preset params");
        let mut mg = MutableGraph::new(t.n);
        let mut sg = SegmentedGraph::new(t.n);
        for &(u, v) in &t.base {
            let (u, v) = (u as usize, v as usize);
            leg.insert_edge(u, v).expect("valid base");
            seg.insert_edge(u, v).expect("valid base");
            mg.insert_edge(u, v).expect("valid base");
            sg.insert_edge(u, v).expect("valid base");
        }
        leg.commit().expect("valid base");
        seg.commit().expect("valid base");
        mg.commit().expect("valid base");
        sg.commit().expect("valid base");

        for batch in t.batches.iter().take(w.replay_batches) {
            let pre_leg = leg.clone();
            let pre_seg = seg.clone();

            // graph: bare store commits.
            for op in batch.trace_ops() {
                match op {
                    deco_graph::trace::TraceOp::Insert(u, v) => {
                        mg.insert_edge(u, v).expect("valid batch");
                        sg.insert_edge(u, v).expect("valid batch");
                    }
                    deco_graph::trace::TraceOp::Delete(u, v) => {
                        mg.delete_edge(u, v).expect("valid batch");
                        sg.delete_edge(u, v).expect("valid batch");
                    }
                    _ => unreachable!("batches hold inserts and deletes only"),
                }
            }
            let tm = Instant::now();
            let mdelta = mg.commit().expect("valid batch");
            let mg_ms = ms_since(tm);
            let ts = Instant::now();
            let sdelta = sg.commit().expect("valid batch");
            let sg_ms = ms_since(ts);
            l.push("graph.commit_ms.legacy", mg_ms);
            l.push("graph.commit_ms.segmented", sg_ms);
            l.push("graph.commit_bytes.legacy", mdelta.commit_bytes as f64);
            l.push("graph.commit_bytes.segmented", sdelta.commit_bytes as f64);

            // stream: engine commits, publish calls, verify.
            let (rl, leg_ms) = timed_commit(&mut leg, batch, "legacy", &mut l);
            let (rs, seg_ms) = timed_commit(&mut seg, batch, "segmented", &mut l);
            let tg = Instant::now();
            let lex = seg.segmented().to_graph();
            l.push("graph.to_graph_ms", ms_since(tg));
            drop(std::hint::black_box(lex));
            l.native_commit_ms.push(match t.engine {
                EngineKind::Legacy => leg_ms,
                EngineKind::Segmented => seg_ms,
            });
            l.check(parity(&rl) == parity(&rs), || {
                format!("commit {}: stores disagree", rl.commit)
            });
            l.check(rl.stats.commit_bytes == mdelta.commit_bytes, || {
                format!("commit {}: legacy commit_bytes differ from the bare graph's", rl.commit)
            });
            l.check(rs.stats.commit_bytes == sdelta.commit_bytes, || {
                format!("commit {}: segmented commit_bytes differ from the bare graph's", rs.commit)
            });
            let engine_colors = leg.coloring().into_colors();
            l.check(seg.coloring().colors() == engine_colors.as_slice(), || {
                format!("commit {}: stores colored differently", rl.commit)
            });

            // stream/local: report counters.
            l.push("stream.region_edges", rl.dirty as f64);
            l.push("stream.region_vertices", rl.region_vertices as f64);
            l.push("local.rounds", rl.stats.rounds as f64);
            l.push("local.node_rounds", rl.stats.node_rounds as f64);
            l.push("local.messages", rl.stats.messages as f64);
            l.add("stream.recolored", rl.recolored as f64);
            l.add("stream.inserted", rl.inserted as f64);
            l.add(
                "stream.from_scratch_commits",
                f64::from(rl.strategy == RepairStrategy::FromScratch),
            );

            // core/local/graph: the repair layers on the rebuilt input.
            // What the commit spent outside its graph commit and repair is
            // carry and region derivation: the unattributed remainder.
            let repair_ms = match rl.strategy {
                RepairStrategy::Incremental => {
                    let pre_colors = pre_leg.coloring().into_colors();
                    let post = leg.graph();
                    Some(repair_layers(
                        pre_leg.graph(),
                        &pre_colors,
                        post,
                        &rl,
                        &engine_colors,
                        &mut l,
                    ))
                }
                RepairStrategy::Clean => Some(0.0),
                RepairStrategy::FromScratch => None,
            };
            if let Some(repair) = repair_ms {
                for (store, ms, graph_ms) in
                    [("legacy", leg_ms, mg_ms), ("segmented", seg_ms, sg_ms)]
                {
                    l.push(&format!("stream.unattributed_ms.{store}"), ms - graph_ms - repair);
                }
            }

            // Separate passes: allocation counts, then probe counters.
            let one = cfg.clone().with_threads(1);
            let mut one_leg = pre_leg.clone();
            one_leg.set_config(one.clone());
            let mut one_seg = pre_seg.clone();
            one_seg.set_config(one);
            count_allocs(&one_leg, batch, "legacy", &rl, &mut l);
            count_allocs(&one_seg, batch, "segmented", &rs, &mut l);
            probe_pass(&pre_leg, batch, &rl, &mut l);
            l.commits += 1;
        }
    }
    l
}
