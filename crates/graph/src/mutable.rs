//! A mutable overlay over the immutable CSR [`Graph`].
//!
//! Every algorithm in this workspace runs on the immutable [`Graph`], whose
//! CSR layout is what makes the simulator's slot delivery zero-allocation.
//! Streaming workloads mutate the topology, so [`MutableGraph`] keeps the
//! graph as a *committed snapshot plus a batch of pending mutations*:
//! mutations are queued with [`MutableGraph::insert_edge`],
//! [`MutableGraph::delete_edge`], [`MutableGraph::add_vertex`],
//! [`MutableGraph::set_ident`] and [`MutableGraph::shrink_isolated`], and
//! [`MutableGraph::commit`] applies the whole batch atomically. The batch
//! itself — queue-time checks, resolution into net lists, the identifier
//! rule, the queue-order replay — is shared with
//! [`crate::SegmentedGraph`], so both stores accept, reject and number
//! exactly alike.
//!
//! # Delta-CSR commits
//!
//! A commit does **not** rebuild the snapshot from its edge list. It
//! resolves the batch against a sparse overlay into the net insert/delete
//! lists, then patches the CSR with [`Graph::patched`]: only the adjacency
//! of touched vertices is spliced, everything else is shifted in linear
//! copies, and the result is bit-identical to a [`Graph::from_edges`]
//! rebuild — same edge indices, slots and mirror slots — at memcpy-class
//! cost instead of hash-plus-sort cost. The pre-delta path survives as
//! [`MutableGraph::commit_rebuild`], the differential oracle benches and
//! tests compare against (the same role the simulator's `Engine::Naive`
//! plays for slot delivery): it resolves every batch by queue-order
//! replay, never through the overlay.
//!
//! Batches containing a [`MutableGraph::shrink_isolated`] compaction
//! renumber vertices, which no patch can express; those commits take the
//! rebuild path by design (a compaction is an explicit `O(n + m)` event).
//!
//! Commits are **atomic**: if any queued operation is invalid (range,
//! self-loop, duplicate insert, missing delete, identifier clash), the
//! committed state is left untouched and the whole batch is discarded, so a
//! failed commit never leaves a half-applied topology behind. The returned
//! [`CommitDelta`] lists the *net* effect — an edge deleted and re-inserted
//! within one batch appears in neither list, which is exactly what the
//! incremental recoloring engine wants (its color is still valid) — plus
//! the stable [`CommitDelta::edge_origin`] map that lets per-edge state be
//! carried across the commit by edge slot instead of endpoint matching.

use crate::batch::Batch;
use crate::{Graph, GraphError, Vertex};
use deco_probe::{Event, Probe};
use std::sync::Arc;

/// The net effect of one committed mutation batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitDelta {
    /// Edges present after the commit that were absent before, as
    /// normalized `(u, v)` pairs with `u < v`, sorted, in the post-commit
    /// numbering.
    pub inserted: Vec<(Vertex, Vertex)>,
    /// Edges absent after the commit that were present before, normalized
    /// and sorted, in the pre-commit numbering (the two numberings differ
    /// only when the batch shrank).
    pub deleted: Vec<(Vertex, Vertex)>,
    /// Vertices added by the batch.
    pub added_vertices: usize,
    /// For each edge of the new snapshot, the edge index it had in the old
    /// snapshot, or [`Graph::NO_EDGE_ORIGIN`] for newly inserted edges.
    ///
    /// This is the stable-slot carry map: per-edge state (the streaming
    /// engine's colors) moves across the commit with one indexed copy per
    /// edge, no endpoint-pair matching.
    pub edge_origin: Vec<u32>,
    /// Vertices removed by [`MutableGraph::shrink_isolated`] compactions in
    /// this batch (0 otherwise).
    pub removed_vertices: usize,
    /// When the batch renumbered vertices (a shrink removed at least one),
    /// maps each post-commit vertex to its pre-commit index; `None` entries
    /// are vertices added by this batch. `None` when no renumbering
    /// happened, in which case vertex indices are unchanged.
    pub vertex_map: Option<Vec<Option<Vertex>>>,
    /// Bytes this commit wrote into the committed representation, counted
    /// by [`Graph::full_rewrite_bytes`]: both full-rewrite paths
    /// ([`MutableGraph::commit`] via [`Graph::patched`] and
    /// [`MutableGraph::commit_rebuild`]) rewrite every array, so they
    /// report the same value for the same batch (0 for an empty batch,
    /// which short-circuits). The segmented engine
    /// ([`crate::SegmentedGraph`]) counts its actual per-segment writes in
    /// the same currency — that differential is what the `gate` bench
    /// pins in its `churn` and `machinery` scenarios.
    pub commit_bytes: usize,
}

impl CommitDelta {
    /// The old edge index carried into new edge `e`, if any.
    pub fn origin_of(&self, e: usize) -> Option<usize> {
        let src = self.edge_origin[e];
        (src != Graph::NO_EDGE_ORIGIN).then_some(src as usize)
    }
}

/// A graph under batched mutation. See the module docs.
///
/// # Example
///
/// ```
/// use deco_graph::MutableGraph;
///
/// let mut mg = MutableGraph::new(3);
/// mg.insert_edge(0, 1)?;
/// mg.insert_edge(1, 2)?;
/// let delta = mg.commit()?;
/// assert_eq!(delta.inserted.len(), 2);
/// assert_eq!(mg.graph().m(), 2);
///
/// mg.delete_edge(0, 1)?;
/// let v = mg.add_vertex();
/// mg.insert_edge(2, v)?;
/// let delta = mg.commit()?;
/// assert_eq!(delta.deleted, vec![(0, 1)]);
/// assert_eq!(delta.inserted, vec![(2, 3)]);
/// assert_eq!(mg.graph().n(), 4);
/// # Ok::<(), deco_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MutableGraph {
    /// The committed snapshot.
    snapshot: Graph,
    /// Queued, not-yet-committed operations.
    batch: Batch,
    /// Observability sink: both commit paths emit one
    /// [`Event::CommitBytes`] per non-empty batch (default: disabled).
    probe: Arc<dyn Probe>,
}

impl MutableGraph {
    /// An edgeless mutable graph with `n` vertices.
    pub fn new(n: usize) -> MutableGraph {
        MutableGraph::from_graph(Graph::empty(n))
    }

    /// Wraps an existing graph as the committed state.
    pub fn from_graph(snapshot: Graph) -> MutableGraph {
        MutableGraph { snapshot, batch: Batch::default(), probe: deco_probe::null() }
    }

    /// Attaches an observability probe (default: the shared disabled
    /// [`deco_probe::NullProbe`]). With an enabled probe every non-empty
    /// committed batch emits one [`Event::CommitBytes`] carrying the bytes
    /// written into the committed representation — the same value as
    /// [`CommitDelta::commit_bytes`], as the write happens.
    pub fn set_probe(&mut self, probe: Arc<dyn Probe>) {
        self.probe = probe;
    }

    /// Emission helper shared by both commit paths.
    fn emit_commit_bytes(&self, bytes: usize) {
        if self.probe.enabled() {
            self.probe.emit(Event::CommitBytes { bytes: bytes as u64 });
        }
    }

    /// The current committed snapshot (pending operations excluded).
    pub fn graph(&self) -> &Graph {
        &self.snapshot
    }

    /// Number of vertices the next commit will have (committed + pending),
    /// ignoring any queued [`MutableGraph::shrink_isolated`] compactions
    /// (their removal count is only known at commit time).
    pub fn next_n(&self) -> usize {
        self.snapshot.n() + self.batch.added()
    }

    /// Number of queued, uncommitted operations.
    pub fn pending_ops(&self) -> usize {
        self.batch.len()
    }

    /// Queues insertion of the undirected edge `(u, v)`.
    ///
    /// Endpoints may be vertices added earlier in the same batch. Whether
    /// the edge already exists is checked at [`MutableGraph::commit`] time
    /// (the batch may delete it first).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range for the
    /// post-batch vertex count or the edge is a self-loop.
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        self.batch.insert(self.snapshot.n(), u, v)
    }

    /// Queues deletion of the undirected edge `(u, v)`.
    ///
    /// Existence is checked at [`MutableGraph::commit`] time.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range for the
    /// post-batch vertex count or the edge is a self-loop.
    pub fn delete_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        self.batch.delete(self.snapshot.n(), u, v)
    }

    /// Queues addition of one vertex and returns its index (valid from the
    /// next commit on, but usable as an endpoint within this batch).
    ///
    /// The new vertex receives the smallest identifier `>= index + 1` not
    /// already in use — exactly `index + 1` (the classic default scheme)
    /// unless identifiers were customized or a shrink compaction left
    /// survivors holding higher identifiers. Override with
    /// [`MutableGraph::set_ident`] for full control.
    pub fn add_vertex(&mut self) -> Vertex {
        self.batch.add_vertex(self.snapshot.n())
    }

    /// Queues an identifier override for `v` (applied after vertex
    /// additions of the same batch, in queue order). Distinctness is
    /// validated at commit time.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `v` is out of range for the post-batch
    /// vertex count.
    pub fn set_ident(&mut self, v: Vertex, ident: u64) -> Result<(), GraphError> {
        self.batch.set_ident(self.snapshot.n(), v, ident)
    }

    /// Queues a compaction: at this point of the batch, every vertex with
    /// no incident edge is removed and the survivors are renumbered (order
    /// preserved, identifiers carried). Later operations in the same batch
    /// address the compacted numbering.
    ///
    /// Long-running growth workloads accumulate isolated vertices, which
    /// are harmless for correctness but cost `O(n)` per commit; this is the
    /// trace format's `shrink` op. A batch containing a shrink commits via
    /// the rebuild path (renumbering defeats CSR patching by design).
    pub fn shrink_isolated(&mut self) {
        self.batch.shrink();
    }

    /// Applies the queued batch atomically via the delta-CSR patch
    /// ([`Graph::patched`]) and returns the net delta. Batches containing a
    /// shrink compaction route to [`MutableGraph::commit_rebuild`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] for the first invalid operation (inserting an
    /// edge that exists, deleting one that does not, identifier clashes).
    /// On error the committed state is unchanged and the batch is
    /// discarded.
    pub fn commit(&mut self) -> Result<CommitDelta, GraphError> {
        if self.batch.is_empty() {
            return Ok(self.empty_batch_delta());
        }
        if self.batch.has_shrink() {
            return self.commit_rebuild();
        }
        let old = &self.snapshot;
        let resolved = self.batch.resolve(old.idents(), |u, v| old.has_edge(u, v));
        self.batch.clear();
        let r = resolved?;
        let (graph, edge_origin) =
            old.patched(&r.inserted, &r.deleted, r.added_vertices, r.idents)?;
        let commit_bytes = Graph::full_rewrite_bytes(graph.n(), graph.m());
        self.emit_commit_bytes(commit_bytes);
        self.snapshot = graph;
        Ok(CommitDelta {
            inserted: r.inserted,
            deleted: r.deleted,
            added_vertices: r.added_vertices,
            edge_origin,
            removed_vertices: 0,
            vertex_map: None,
            commit_bytes,
        })
    }

    /// The no-op delta an empty batch commits to: identity origin map, zero
    /// bytes written. Both commit paths short-circuit here, so neither pays
    /// the full splice/rebuild pass for a batch with nothing in it.
    fn empty_batch_delta(&self) -> CommitDelta {
        CommitDelta {
            inserted: Vec::new(),
            deleted: Vec::new(),
            added_vertices: 0,
            edge_origin: (0..self.snapshot.m() as u32).collect(),
            removed_vertices: 0,
            vertex_map: None,
            commit_bytes: 0,
        }
    }

    /// Applies the queued batch by rebuilding the snapshot from scratch
    /// (`Graph::from_edges`, `O(m log m)`): the pre-delta-CSR commit path,
    /// kept as the differential oracle benches and tests compare
    /// [`MutableGraph::commit`] against, and the designated path for
    /// batches that renumber vertices (shrink compactions).
    ///
    /// Outcomes — snapshot, delta, and error on invalid batches — are
    /// bit-identical to [`MutableGraph::commit`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`MutableGraph::commit`].
    pub fn commit_rebuild(&mut self) -> Result<CommitDelta, GraphError> {
        if self.batch.is_empty() {
            return Ok(self.empty_batch_delta());
        }
        let old = &self.snapshot;
        let rebuilt = self.batch.replay(old.n(), old.edges(), old.idents());
        self.batch.clear();
        let rebuilt = rebuilt?;
        let graph = &rebuilt.graph;
        let commit_bytes = Graph::full_rewrite_bytes(graph.n(), graph.m());
        let delta = if rebuilt.removed_vertices > 0 {
            // Vertices were renumbered: match edges through the back map.
            let matched =
                rebuilt.match_back(old.m(), old.edges().enumerate(), |u, v| old.edge_between(u, v));
            CommitDelta {
                inserted: matched.inserted,
                deleted: matched.deleted,
                added_vertices: rebuilt.added_vertices,
                edge_origin: matched.origin,
                removed_vertices: rebuilt.removed_vertices,
                vertex_map: Some(rebuilt.back),
                commit_bytes,
            }
        } else {
            // Net delta and origin map via one sorted merge of the old and
            // new edge lists.
            let mut inserted = Vec::new();
            let mut deleted = Vec::new();
            let mut edge_origin = vec![Graph::NO_EDGE_ORIGIN; graph.m()];
            let mut old_it = old.edges().enumerate().peekable();
            let mut new_it = graph.edges().enumerate().peekable();
            loop {
                match (old_it.peek().copied(), new_it.peek().copied()) {
                    (Some((oe, a)), Some((ne, b))) if a == b => {
                        edge_origin[ne] = oe as u32;
                        old_it.next();
                        new_it.next();
                    }
                    (Some((_, a)), Some((_, b))) if a < b => {
                        deleted.push(a);
                        old_it.next();
                    }
                    (Some(_), Some((_, b))) => {
                        inserted.push(b);
                        new_it.next();
                    }
                    (Some((_, a)), None) => {
                        deleted.push(a);
                        old_it.next();
                    }
                    (None, Some((_, b))) => {
                        inserted.push(b);
                        new_it.next();
                    }
                    (None, None) => break,
                }
            }
            CommitDelta {
                inserted,
                deleted,
                added_vertices: rebuilt.added_vertices,
                edge_origin,
                removed_vertices: 0,
                vertex_map: None,
                commit_bytes,
            }
        };
        self.emit_commit_bytes(commit_bytes);
        self.snapshot = rebuilt.graph;
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_is_atomic_on_error() {
        let mut mg = MutableGraph::new(4);
        mg.insert_edge(0, 1).unwrap();
        mg.commit().unwrap();
        mg.insert_edge(2, 3).unwrap();
        mg.insert_edge(1, 0).unwrap(); // duplicate of committed edge
        assert_eq!(mg.commit().unwrap_err(), GraphError::DuplicateEdge { u: 0, v: 1 });
        // The valid part of the failed batch was discarded too.
        assert_eq!(mg.graph().m(), 1);
        assert_eq!(mg.pending_ops(), 0);
    }

    #[test]
    fn delete_then_reinsert_is_a_net_noop() {
        let mut mg = MutableGraph::new(3);
        mg.insert_edge(0, 1).unwrap();
        mg.insert_edge(1, 2).unwrap();
        mg.commit().unwrap();
        mg.delete_edge(0, 1).unwrap();
        mg.insert_edge(0, 1).unwrap();
        let delta = mg.commit().unwrap();
        assert!(delta.inserted.is_empty());
        assert!(delta.deleted.is_empty());
        // The reinserted edge keeps its identity in the origin map.
        assert_eq!(delta.edge_origin.iter().filter(|&&o| o == Graph::NO_EDGE_ORIGIN).count(), 0);
        assert_eq!(mg.graph().m(), 2);
    }

    #[test]
    fn missing_delete_rejected() {
        let mut mg = MutableGraph::new(3);
        mg.delete_edge(0, 2).unwrap();
        assert_eq!(mg.commit().unwrap_err(), GraphError::MissingEdge { u: 0, v: 2 });
    }

    #[test]
    fn added_vertices_usable_within_batch() {
        let mut mg = MutableGraph::new(2);
        mg.insert_edge(0, 1).unwrap();
        let a = mg.add_vertex();
        let b = mg.add_vertex();
        assert_eq!((a, b), (2, 3));
        mg.insert_edge(a, b).unwrap();
        mg.insert_edge(1, a).unwrap();
        let delta = mg.commit().unwrap();
        assert_eq!(delta.added_vertices, 2);
        assert_eq!(delta.inserted, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(mg.graph().n(), 4);
        assert_eq!(mg.graph().ident(3), 4); // default scheme
    }

    #[test]
    fn ident_overrides_validated_at_commit() {
        let mut mg = MutableGraph::new(3);
        mg.set_ident(0, 10).unwrap();
        mg.set_ident(1, 10).unwrap();
        assert!(matches!(mg.commit(), Err(GraphError::DuplicateIdent { ident: 10 })));
        mg.set_ident(0, 10).unwrap();
        mg.set_ident(0, 7).unwrap(); // last override wins
        mg.commit().unwrap();
        assert_eq!(mg.graph().ident(0), 7);
    }

    #[test]
    fn range_checks_respect_pending_vertices() {
        let mut mg = MutableGraph::new(1);
        assert!(mg.insert_edge(0, 1).is_err());
        let v = mg.add_vertex();
        mg.insert_edge(0, v).unwrap();
        assert!(mg.set_ident(2, 5).is_err());
        mg.commit().unwrap();
        assert_eq!((mg.graph().n(), mg.graph().m()), (2, 1));
    }

    #[test]
    fn self_loops_rejected_immediately() {
        let mut mg = MutableGraph::new(2);
        assert_eq!(mg.insert_edge(1, 1), Err(GraphError::SelfLoop { vertex: 1 }));
        assert_eq!(mg.delete_edge(0, 0), Err(GraphError::SelfLoop { vertex: 0 }));
    }

    #[test]
    fn from_graph_preserves_idents() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap().with_idents(vec![5, 6, 7]).unwrap();
        let mut mg = MutableGraph::from_graph(g);
        mg.add_vertex();
        mg.commit().unwrap();
        assert_eq!(mg.graph().idents(), &[5, 6, 7, 4]);
    }

    #[test]
    fn edge_origin_maps_surviving_edges() {
        let mut mg = MutableGraph::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (2, 3)] {
            mg.insert_edge(u, v).unwrap();
        }
        let delta = mg.commit().unwrap();
        assert!(delta.edge_origin.iter().all(|&o| o == Graph::NO_EDGE_ORIGIN));
        // Delete edge 0=(0,1), insert (1,3): indices shift both ways.
        mg.delete_edge(0, 1).unwrap();
        mg.insert_edge(1, 3).unwrap();
        let before = mg.graph().clone();
        let delta = mg.commit().unwrap();
        let after = mg.graph();
        for (e, &src) in delta.edge_origin.iter().enumerate() {
            let pair = after.endpoints(e);
            if src == Graph::NO_EDGE_ORIGIN {
                assert_eq!(pair, (1, 3));
            } else {
                assert_eq!(before.endpoints(src as usize), pair);
            }
        }
        assert_eq!(delta.origin_of(0), Some(1)); // (0,2) was edge 1
    }

    #[test]
    fn commit_and_rebuild_agree() {
        // Drive two engines through identical batches; snapshots and deltas
        // must match bit for bit (the delta-CSR contract).
        let mut fast = MutableGraph::new(5);
        let mut slow = MutableGraph::new(5);
        type Queue = fn(&mut MutableGraph) -> Result<(), GraphError>;
        let batches: [Queue; 3] = [
            |g| {
                g.insert_edge(0, 1)?;
                g.insert_edge(1, 2)?;
                g.insert_edge(3, 4)
            },
            |g| {
                g.delete_edge(1, 2)?;
                g.insert_edge(2, 3)?;
                g.add_vertex();
                g.insert_edge(4, 5)
            },
            |g| {
                g.set_ident(0, 99)?;
                g.insert_edge(0, 2)
            },
        ];
        for batch in batches {
            batch(&mut fast).unwrap();
            batch(&mut slow).unwrap();
            let a = fast.commit().unwrap();
            let b = slow.commit_rebuild().unwrap();
            assert_eq!(a, b);
            assert_eq!(fast.graph(), slow.graph());
        }
    }

    #[test]
    fn shrink_drops_isolated_vertices_and_renumbers() {
        let mut mg = MutableGraph::new(5); // vertices 1 and 4 stay isolated
        mg.insert_edge(0, 2).unwrap();
        mg.insert_edge(2, 3).unwrap();
        mg.set_ident(3, 77).unwrap();
        mg.commit().unwrap();
        mg.shrink_isolated();
        let delta = mg.commit().unwrap();
        assert_eq!(delta.removed_vertices, 2);
        assert_eq!(mg.graph().n(), 3);
        assert_eq!(mg.graph().m(), 2);
        // Survivors keep order and identifiers: {0, 2, 3} -> {0, 1, 2}.
        assert_eq!(delta.vertex_map, Some(vec![Some(0), Some(2), Some(3)]));
        assert_eq!(mg.graph().idents(), &[1, 3, 77]);
        // Edges carried 1:1 through the renumbering.
        assert_eq!(delta.inserted, Vec::<(usize, usize)>::new());
        assert_eq!(delta.deleted, Vec::<(usize, usize)>::new());
        assert_eq!(delta.origin_of(0), Some(0));
        assert_eq!(delta.origin_of(1), Some(1));
    }

    #[test]
    fn shrink_mid_batch_renumbers_later_ops() {
        let mut mg = MutableGraph::new(4); // vertex 3 isolated
        mg.insert_edge(0, 1).unwrap();
        mg.insert_edge(1, 2).unwrap();
        mg.commit().unwrap();
        // Shrink first (drops 3), then address the compacted numbering.
        mg.shrink_isolated();
        mg.insert_edge(0, 2).unwrap();
        let delta = mg.commit().unwrap();
        assert_eq!(mg.graph().n(), 3);
        assert_eq!(delta.inserted, vec![(0, 2)]);
        assert_eq!(delta.removed_vertices, 1);
    }

    #[test]
    fn op_referencing_shrunk_vertex_fails_atomically() {
        let mut mg = MutableGraph::new(4); // vertex 3 isolated
        mg.insert_edge(0, 1).unwrap();
        mg.insert_edge(1, 2).unwrap();
        mg.commit().unwrap();
        // Queue-time the index 3 is in range; after the shrink it is not.
        mg.shrink_isolated();
        mg.insert_edge(0, 3).unwrap();
        assert_eq!(mg.commit().unwrap_err(), GraphError::VertexOutOfRange { vertex: 3, n: 3 });
        // Atomic: the shrink was rolled back with the rest of the batch.
        assert_eq!(mg.graph().n(), 4);
        assert_eq!(mg.pending_ops(), 0);
    }

    #[test]
    fn growth_after_shrink_avoids_ident_clashes() {
        // Survivors of a shrink keep their (higher) identifiers; default
        // idents of later additions must skip them instead of clashing.
        let mut mg = MutableGraph::new(3); // vertex 0 isolated, idents {1,2,3}
        mg.insert_edge(1, 2).unwrap();
        mg.commit().unwrap();
        // Shrink and grow in the same batch. After the shrink the survivors
        // are {0, 1} and the added vertex lands at index 2 (ops after a
        // shrink address the compacted numbering; the index returned by
        // add_vertex is the pre-shrink estimate).
        mg.shrink_isolated();
        mg.add_vertex();
        mg.insert_edge(0, 2).unwrap();
        let delta = mg.commit().unwrap();
        assert_eq!(delta.removed_vertices, 1);
        assert_eq!(mg.graph().idents(), &[2, 3, 4], "default skipped the carried idents");
        // And in a later batch (the fast delta path).
        mg.add_vertex();
        mg.commit().unwrap();
        assert_eq!(mg.graph().idents(), &[2, 3, 4, 5]);
        // Oracle parity for the post-shrink growth batch.
        let mut a = mg.clone();
        let mut b = mg.clone();
        a.add_vertex();
        b.add_vertex();
        assert_eq!(a.commit().unwrap(), b.commit_rebuild().unwrap());
        assert_eq!(a.graph(), b.graph());
    }

    #[test]
    fn shrink_on_fully_isolated_graph_empties_it() {
        let mut mg = MutableGraph::new(3);
        mg.shrink_isolated();
        let delta = mg.commit().unwrap();
        assert_eq!(delta.removed_vertices, 3);
        assert_eq!(mg.graph().n(), 0);
        assert_eq!(delta.vertex_map, Some(vec![]));
    }

    #[test]
    fn shrink_noop_when_nothing_isolated() {
        let mut mg = MutableGraph::new(2);
        mg.insert_edge(0, 1).unwrap();
        mg.commit().unwrap();
        mg.shrink_isolated();
        let delta = mg.commit().unwrap();
        assert_eq!(delta.removed_vertices, 0);
        assert_eq!(delta.vertex_map, None);
        assert_eq!(mg.graph().n(), 2);
    }
}
