//! The store seams: what a commit needs from a graph store.
//!
//! [`Store`] is the mutable side: the store a
//! [`RecolorEngine`](crate::RecolorEngine) queues into and commits
//! through. It owns the only decisions that depend on how a store names
//! its edges — the queue calls, the graph commit, the color carry with
//! its repair region, and the lexicographic snapshot and coloring — so
//! one engine commit flow serves both stores:
//!
//! * [`MutableGraph`] — delta-CSR commits into a contiguous [`Graph`]
//!   whose lexicographic edge indices shift on every commit, so colors
//!   cross by one gather through the commit's `edge_origin` map;
//! * [`SegmentedGraph`] — O(region) commits with stable edge ids, so
//!   surviving colors never move and the carry is O(churn).
//!
//! [`RegionHost`] is the committed side: the incremental repair machinery
//! (the Theorem 5.5 schedule pipeline on the edge-induced region, the
//! class-per-round finalize, the self-stabilizing fault-era loop) never
//! looks at the host graph as a whole — it extracts a region sub-network,
//! reads the colors of the region's line-graph boundary, and scatters
//! results back through an edge map. Both committed representations
//! implement it: [`Graph`] (the [`MutableGraph`] snapshot) and
//! [`SegmentedGraph`] itself.
//!
//! Edge indices handed to either trait are *host edge handles*:
//! lexicographic indices for [`Graph`], stable ids for [`SegmentedGraph`].
//! Color stores are indexed by handle and sized [`RegionHost::edge_bound`];
//! `Color::MAX` marks an uncolored handle (a fresh edge, or a freed id).
//!
//! # Priority isomorphism
//!
//! The fault-era protocol breaks symmetry with a total order on region
//! edges ([`RegionHost::robust_prio`]). The legacy store uses the host's
//! lexicographic edge index. Stable ids are *not* pair-ordered, so the
//! segmented host uses the region rank instead — the index of the edge in
//! the pair-sorted region, which is **order-isomorphic** to the host
//! lexicographic order among region edges. Comparisons, and therefore
//! every protocol decision and final color, are bit-identical across
//! hosts; only the message *bit-width* accounting of the priority fields
//! can differ.

use crate::config::RecolorConfig;
use crate::recolor::{full_recolor, UNCOLORED};
use deco_core::edge::legal::MessageMode;
use deco_core::params::LegalParams;
use deco_graph::coloring::{Color, EdgeColoring};
use deco_graph::{
    CommitDelta, EdgeIdx, Graph, GraphError, MutableGraph, SegCommitDelta, SegmentedGraph, Vertex,
};
use deco_local::RunStats;
use deco_probe::Probe;
use std::sync::Arc;

/// A mutable graph store a [`RecolorEngine`](crate::RecolorEngine)
/// commits through. See the module docs; implemented for [`MutableGraph`]
/// and [`SegmentedGraph`], whose inherent methods of the same names these
/// forward to.
pub trait Store {
    /// The committed representation repairs run over.
    type Host: RegionHost;
    /// What a graph commit hands the color carry.
    type Delta;

    /// A store whose committed state is `g` (edge handles start as `g`'s
    /// lexicographic indices).
    fn from_graph(g: Graph) -> Self;

    /// Points the commit machinery's `CommitBytes` events at `probe`.
    fn set_probe(&mut self, probe: Arc<dyn Probe>);

    /// Queues insertion of edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MutableGraph::insert_edge`].
    fn insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError>;

    /// Queues deletion of edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MutableGraph::delete_edge`].
    fn delete_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError>;

    /// Queues addition of one vertex; returns its index.
    fn add_vertex(&mut self) -> Vertex;

    /// Queues an identifier override.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MutableGraph::set_ident`].
    fn set_ident(&mut self, v: Vertex, ident: u64) -> Result<(), GraphError>;

    /// Queues a shrink compaction (isolated vertices dropped, survivors
    /// renumbered).
    fn shrink_isolated(&mut self);

    /// Applies the queued batch atomically.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the batch is invalid; the committed state
    /// is unchanged and the batch is discarded.
    fn commit(&mut self) -> Result<Self::Delta, GraphError>;

    /// The committed state.
    fn host(&self) -> &Self::Host;

    /// Carries the handle-indexed `colors` across `delta` (edges the
    /// commit created come out uncolored) and returns the commit's
    /// [`Carry`]. The region is every live edge colored at or above
    /// `evict_above`; uncolored edges (`Color::MAX`) always qualify.
    fn carry(&self, delta: Self::Delta, colors: &mut Vec<Color>, evict_above: Color) -> Carry;

    /// The committed state in lexicographic edge order.
    fn snapshot(&self) -> Graph;

    /// The handle-indexed `colors` in lexicographic edge order: index `i`
    /// colors edge `i` of [`Store::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if a live edge is uncolored.
    fn lex_coloring(&self, colors: &[Color]) -> EdgeColoring;

    /// [`Store::snapshot`] and [`Store::lex_coloring`] together, for a
    /// store that can build both from one walk. Panics as `lex_coloring`
    /// does.
    fn publish(&self, colors: &[Color]) -> (Graph, EdgeColoring) {
        (self.snapshot(), self.lex_coloring(colors))
    }
}

/// The complete coloring `colors` yields, in order.
fn complete(colors: impl Iterator<Item = Color>) -> EdgeColoring {
    EdgeColoring::new(
        colors
            .inspect(|&c| assert_ne!(c, UNCOLORED, "coloring is complete between commits"))
            .collect(),
    )
}

/// One commit's outcome as [`Store::carry`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Carry {
    /// Net edges inserted by the batch.
    pub inserted: usize,
    /// Net edges deleted by the batch.
    pub deleted: usize,
    /// Bytes the graph commit wrote into the committed representation.
    pub commit_bytes: usize,
    /// The repair region as host edge handles, ascending.
    pub dirty: Vec<EdgeIdx>,
}

impl Store for MutableGraph {
    type Host = Graph;
    type Delta = CommitDelta;

    fn from_graph(g: Graph) -> Self {
        MutableGraph::from_graph(g)
    }

    fn set_probe(&mut self, probe: Arc<dyn Probe>) {
        MutableGraph::set_probe(self, probe)
    }

    fn insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        MutableGraph::insert_edge(self, u, v)
    }

    fn delete_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        MutableGraph::delete_edge(self, u, v)
    }

    fn add_vertex(&mut self) -> Vertex {
        MutableGraph::add_vertex(self)
    }

    fn set_ident(&mut self, v: Vertex, ident: u64) -> Result<(), GraphError> {
        MutableGraph::set_ident(self, v, ident)
    }

    fn shrink_isolated(&mut self) {
        MutableGraph::shrink_isolated(self)
    }

    fn commit(&mut self) -> Result<CommitDelta, GraphError> {
        MutableGraph::commit(self)
    }

    fn host(&self) -> &Graph {
        self.graph()
    }

    fn carry(&self, delta: CommitDelta, colors: &mut Vec<Color>, evict_above: Color) -> Carry {
        // Indices shift on every commit: one gather per edge through the
        // origin map (which already crossed any renumbering), with the
        // region collected in the same pass.
        let old = std::mem::replace(colors, Vec::with_capacity(delta.edge_origin.len()));
        let mut dirty: Vec<EdgeIdx> = Vec::new();
        for (e, &src) in delta.edge_origin.iter().enumerate() {
            let c = if src == Graph::NO_EDGE_ORIGIN { UNCOLORED } else { old[src as usize] };
            if c >= evict_above {
                dirty.push(e);
            }
            colors.push(c);
        }
        Carry {
            inserted: delta.inserted.len(),
            deleted: delta.deleted.len(),
            commit_bytes: delta.commit_bytes,
            dirty,
        }
    }

    fn snapshot(&self) -> Graph {
        self.graph().clone()
    }

    fn lex_coloring(&self, colors: &[Color]) -> EdgeColoring {
        complete(colors.iter().copied())
    }
}

impl Store for SegmentedGraph {
    type Host = SegmentedGraph;
    type Delta = SegCommitDelta;

    fn from_graph(g: Graph) -> Self {
        SegmentedGraph::from_graph(&g)
    }

    fn set_probe(&mut self, probe: Arc<dyn Probe>) {
        SegmentedGraph::set_probe(self, probe)
    }

    fn insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        SegmentedGraph::insert_edge(self, u, v)
    }

    fn delete_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        SegmentedGraph::delete_edge(self, u, v)
    }

    fn add_vertex(&mut self) -> Vertex {
        SegmentedGraph::add_vertex(self)
    }

    fn set_ident(&mut self, v: Vertex, ident: u64) -> Result<(), GraphError> {
        SegmentedGraph::set_ident(self, v, ident)
    }

    fn shrink_isolated(&mut self) {
        SegmentedGraph::shrink_isolated(self)
    }

    fn commit(&mut self) -> Result<SegCommitDelta, GraphError> {
        SegmentedGraph::commit(self)
    }

    fn host(&self) -> &SegmentedGraph {
        self
    }

    fn carry(&self, delta: SegCommitDelta, colors: &mut Vec<Color>, evict_above: Color) -> Carry {
        // Stable ids make the ordinary carry O(churn): surviving edges
        // never move, so only the freed and inserted ids are touched. A
        // rebuild commit (shrink) reassigned every id and says so via
        // `edge_remap` — the one remaining O(m) carry.
        if let Some(remap) = &delta.edge_remap {
            let mut remapped = vec![UNCOLORED; self.edge_bound()];
            for (old_id, &new_id) in remap.iter().enumerate() {
                if new_id != Graph::NO_EDGE_ORIGIN {
                    remapped[new_id as usize] = colors[old_id];
                }
            }
            *colors = remapped;
        } else {
            colors.resize(self.edge_bound(), UNCOLORED);
            for &id in delta.freed_ids.iter().chain(&delta.inserted_ids) {
                colors[id as usize] = UNCOLORED;
            }
        }
        // The ordinary region is exactly the inserted ids (carried colors
        // cannot conflict; deletions never create conflicts). A live
        // sweep is only needed when the region can hide outside the
        // delta: evictions (the first commit's pre-existing edges, or a
        // shrunk palette bound) or a rebuild (fresh ids everywhere).
        let dirty: Vec<EdgeIdx> = if evict_above != UNCOLORED || delta.edge_remap.is_some() {
            self.edges_with_ids()
                .map(|(id, _)| id)
                .filter(|&id| colors[id] >= evict_above)
                .collect()
        } else {
            let mut d: Vec<EdgeIdx> = delta.inserted_ids.iter().map(|&id| id as EdgeIdx).collect();
            d.sort_unstable();
            d
        };
        Carry {
            inserted: delta.inserted.len(),
            deleted: delta.deleted.len(),
            commit_bytes: delta.commit_bytes,
            dirty,
        }
    }

    fn snapshot(&self) -> Graph {
        self.to_graph().0
    }

    fn lex_coloring(&self, colors: &[Color]) -> EdgeColoring {
        complete(self.lex_edge_ids().iter().map(|&id| colors[id as usize]))
    }

    /// One walk: `to_graph` already builds the lexicographic id map that
    /// [`Store::lex_coloring`] would walk the segments again for.
    fn publish(&self, colors: &[Color]) -> (Graph, EdgeColoring) {
        let (g, idmap) = self.to_graph();
        (g, complete(idmap.iter().map(|&id| colors[id as usize])))
    }
}

/// A committed graph the repair machinery can run over. See the module
/// docs; implemented for [`Graph`] and [`SegmentedGraph`].
pub trait RegionHost {
    /// Vertex count.
    fn host_n(&self) -> usize;

    /// Live edge count.
    fn live_m(&self) -> usize;

    /// Exclusive upper bound on host edge handles: size handle-indexed
    /// stores (colors, dirty flags) to this. Equals [`RegionHost::live_m`]
    /// for [`Graph`]; for [`SegmentedGraph`] it also covers freed ids.
    fn edge_bound(&self) -> usize;

    /// Maximum degree Δ of the host graph.
    fn host_max_degree(&self) -> usize;

    /// Extracts the sub-network induced by exactly the given host edges:
    /// `(subgraph, vertex_map, edge_map)` with `edge_map[sub_e]` the host
    /// handle of subgraph edge `sub_e`. Both implementations order kept
    /// edges by endpoint pair, so the subgraph is byte-identical across
    /// hosts for the same edge set.
    fn region_subgraph(&self, keep_edges: &[EdgeIdx]) -> (Graph, Vec<Vertex>, Vec<EdgeIdx>);

    /// Calls `f(neighbor, edge_handle)` for every edge incident to `v`, in
    /// increasing neighbor order.
    fn for_each_incident(&self, v: Vertex, f: &mut dyn FnMut(Vertex, EdgeIdx));

    /// The symmetry-breaking priority of a region edge in the fault-era
    /// protocol, given its host handle and its rank in the pair-sorted
    /// region. Must induce the same total order on any region as the
    /// host's lexicographic edge order (module docs).
    fn robust_prio(&self, host_e: EdgeIdx, region_rank: usize) -> u64;

    /// Runs the fault-free from-scratch pipeline on the whole host graph
    /// and replaces `colors` (handle-indexed, resized to
    /// [`RegionHost::edge_bound`]) with the result. The shared reset path
    /// of threshold fallbacks, compactions and exhausted fault-era
    /// retries. The pipeline's phase spans and round samples are emitted
    /// into the config's probe; the config also supplies the early-halt
    /// flag and any pinned thread budget (its transport is ignored —
    /// the reset path models a centralized rebuild).
    fn full_recolor_into(
        &self,
        colors: &mut Vec<Color>,
        params: LegalParams,
        mode: MessageMode,
        cfg: &RecolorConfig,
    ) -> RunStats;
}

impl RegionHost for Graph {
    fn host_n(&self) -> usize {
        self.n()
    }

    fn live_m(&self) -> usize {
        self.m()
    }

    fn edge_bound(&self) -> usize {
        self.m()
    }

    fn host_max_degree(&self) -> usize {
        self.max_degree()
    }

    fn region_subgraph(&self, keep_edges: &[EdgeIdx]) -> (Graph, Vec<Vertex>, Vec<EdgeIdx>) {
        self.edge_induced(keep_edges)
    }

    fn for_each_incident(&self, v: Vertex, f: &mut dyn FnMut(Vertex, EdgeIdx)) {
        for (nbr, e) in self.incident(v) {
            f(nbr, e);
        }
    }

    fn robust_prio(&self, host_e: EdgeIdx, _region_rank: usize) -> u64 {
        // Lexicographic edge indices are already a pair-ordered total
        // order.
        host_e as u64
    }

    fn full_recolor_into(
        &self,
        colors: &mut Vec<Color>,
        params: LegalParams,
        mode: MessageMode,
        cfg: &RecolorConfig,
    ) -> RunStats {
        let (new_colors, stats) = full_recolor(self, params, mode, cfg);
        *colors = new_colors;
        stats
    }
}

impl RegionHost for SegmentedGraph {
    fn host_n(&self) -> usize {
        self.n()
    }

    fn live_m(&self) -> usize {
        self.m()
    }

    fn edge_bound(&self) -> usize {
        self.edge_bound()
    }

    fn host_max_degree(&self) -> usize {
        self.max_degree()
    }

    fn region_subgraph(&self, keep_edges: &[EdgeIdx]) -> (Graph, Vec<Vertex>, Vec<EdgeIdx>) {
        self.edge_induced(keep_edges)
    }

    fn for_each_incident(&self, v: Vertex, f: &mut dyn FnMut(Vertex, EdgeIdx)) {
        for (nbr, e) in self.incident(v) {
            f(nbr, e);
        }
    }

    fn robust_prio(&self, _host_e: EdgeIdx, region_rank: usize) -> u64 {
        // Stable ids are not pair-ordered; the region rank is, and is
        // order-isomorphic to the host lexicographic order among region
        // edges (module docs) — decisions match the legacy store bit for
        // bit.
        region_rank as u64
    }

    fn full_recolor_into(
        &self,
        colors: &mut Vec<Color>,
        params: LegalParams,
        mode: MessageMode,
        cfg: &RecolorConfig,
    ) -> RunStats {
        // Color on the materialized lexicographic snapshot, then scatter
        // back to stable ids; freed ids stay uncolored holes.
        let (g, idmap) = self.to_graph();
        let (new_colors, stats) = full_recolor(&g, params, mode, cfg);
        colors.clear();
        colors.resize(self.edge_bound(), UNCOLORED);
        for (lex, &id) in idmap.iter().enumerate() {
            colors[id as usize] = new_colors[lex];
        }
        stats
    }
}
