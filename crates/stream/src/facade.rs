//! The object-safe engine facade.
//!
//! [`RegionRecolor`] is the one surface the replay machinery, the
//! `deco-stream` CLI, the benches and the `deco-serve` multi-tenant
//! service drive a recoloring engine through. [`RecolorEngine`] implements
//! it over any [`Store`] — [`Recolorer`](crate::Recolorer) (delta-CSR
//! commits, lexicographic edge indices) and
//! [`SegRecolorer`](crate::SegRecolorer) (segmented commits, stable edge
//! ids) — so callers pick a representation at construction time and stay
//! representation-agnostic afterwards, and future strategies (the
//! Fuchs–Kuhn (Δ+1) line of work) can slot in behind the same trait.

use crate::host::Store;
use crate::recolor::{CommitReport, RecolorEngine};
use deco_graph::coloring::EdgeColoring;
use deco_graph::trace::TraceOp;
use deco_graph::{Graph, GraphError};
use deco_probe::Probe;
use std::sync::Arc;

/// An incremental edge-recoloring engine driven through one object-safe
/// surface: queue trace operations, commit them in batches, read the
/// maintained coloring.
///
/// # Determinism contract
///
/// Every implementation extends the simulator's determinism contract over
/// mutation: for a fixed engine construction (same initial graph,
/// parameters, mode and [`RecolorConfig`](crate::RecolorConfig)), the same
/// sequence of [`queue_op`](RegionRecolor::queue_op) /
/// [`commit`](RegionRecolor::commit) /
/// [`request_compaction`](RegionRecolor::request_compaction) calls
/// produces **bit-identical** [`CommitReport`]s, colorings and snapshots —
/// at any thread count, any delivery mode, and regardless of what else
/// runs in the process. Across the two shipped stores the contract is
/// the parity contract of the [`RecolorEngine`] module docs: identical
/// reports up to `stats.commit_bytes` (the quantity the segmented store
/// improves) and identical [`coloring`](RegionRecolor::coloring) on a
/// perfect transport; identical colorings with possibly differing
/// message-bit counters on a faulty one. Wall time is, obviously,
/// excluded.
///
/// `deco-serve` leans on this contract for its own: per-tenant results
/// are independent of how tenants are sharded across worker threads,
/// because each tenant's call sequence is totally ordered and each call
/// is deterministic.
pub trait RegionRecolor {
    /// Queues one trace operation for the next commit.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] exactly when the underlying queueing call
    /// does; the already-queued prefix of the batch stays queued.
    fn queue_op(&mut self, op: TraceOp) -> Result<(), GraphError>;

    /// Applies the queued batch and repairs the coloring.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the batch is invalid; the previous
    /// snapshot and coloring are untouched and the batch is discarded.
    fn commit(&mut self) -> Result<CommitReport, GraphError>;

    /// Commits applied so far.
    fn commits(&self) -> usize;

    /// The current committed snapshot, materialized in lexicographic edge
    /// order (both stores agree bit for bit). The legacy store clones its
    /// CSR; the segmented store builds it with `SegmentedGraph::to_graph`,
    /// one linear O(n + m) walk of its neighbor-sorted segments with no
    /// sorting.
    fn snapshot(&self) -> Graph;

    /// The current coloring in lexicographic edge order — index `i`
    /// colors edge `i` of [`snapshot`](RegionRecolor::snapshot), so
    /// results compare directly across engines.
    ///
    /// # Panics
    ///
    /// Panics if called before the first commit on an engine constructed
    /// over a non-empty graph (the initial coloring has not run yet).
    fn coloring(&self) -> EdgeColoring;

    /// The palette bound the current snapshot's colors are kept under.
    fn color_bound(&self) -> u64;

    /// Requests a palette compaction: the next successful
    /// [`commit`](RegionRecolor::commit) runs the from-scratch pipeline
    /// (reporting `FromScratch`) even if its batch alone would have been
    /// clean, then the request is consumed. Idempotent until consumed; a
    /// commit on an edgeless snapshot consumes it as a no-op. This is the
    /// demand-driven sibling of
    /// [`with_compaction_every`](crate::RecolorConfig::with_compaction_every) —
    /// `deco-serve` schedules it per tenant from accumulated
    /// `node_rounds` cost, deterministically.
    fn request_compaction(&mut self);

    /// Verifies the maintained coloring: complete, proper on the current
    /// snapshot, and within [`color_bound`](RegionRecolor::color_bound).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation. The
    /// engines uphold the invariant after every commit, so an `Err` here
    /// means a bug (or a caller inspecting an engine before its first
    /// commit over a non-empty graph).
    fn verify(&self) -> Result<(), String>;

    /// The engine's event sink.
    fn probe(&self) -> &Arc<dyn Probe>;
}

impl<S: Store> RegionRecolor for RecolorEngine<S> {
    fn queue_op(&mut self, op: TraceOp) -> Result<(), GraphError> {
        match op {
            TraceOp::Insert(u, v) => self.insert_edge(u, v),
            TraceOp::Delete(u, v) => self.delete_edge(u, v),
            TraceOp::AddVertices(k) => {
                for _ in 0..k {
                    self.add_vertex();
                }
                Ok(())
            }
            TraceOp::SetIdent(v, ident) => self.set_ident(v, ident),
            TraceOp::Shrink => {
                self.shrink_isolated();
                Ok(())
            }
            // `Trace::batches()` strips these; tolerate anyway.
            TraceOp::Commit => Ok(()),
        }
    }

    fn commit(&mut self) -> Result<CommitReport, GraphError> {
        RecolorEngine::commit(self)
    }

    fn commits(&self) -> usize {
        RecolorEngine::commits(self)
    }

    fn snapshot(&self) -> Graph {
        self.store.snapshot()
    }

    fn coloring(&self) -> EdgeColoring {
        RecolorEngine::coloring(self)
    }

    fn color_bound(&self) -> u64 {
        RecolorEngine::color_bound(self)
    }

    fn request_compaction(&mut self) {
        RecolorEngine::request_compaction(self)
    }

    fn verify(&self) -> Result<(), String> {
        let g = self.store.snapshot();
        let coloring = RecolorEngine::coloring(self);
        if coloring.colors().len() != g.m() {
            return Err(format!(
                "coloring covers {} edges, snapshot has {}",
                coloring.colors().len(),
                g.m()
            ));
        }
        if !coloring.is_proper(&g) {
            return Err("coloring is not proper on the committed snapshot".to_string());
        }
        let bound = RecolorEngine::color_bound(self);
        if let Some(&worst) = coloring.colors().iter().max() {
            if worst >= bound {
                return Err(format!("color {worst} breaches the palette bound {bound}"));
            }
        }
        Ok(())
    }

    fn probe(&self) -> &Arc<dyn Probe> {
        RecolorEngine::probe(self)
    }
}
