//! Segmented CSR: a mutable adjacency store with O(region) commit traffic.
//!
//! [`crate::MutableGraph`] commits by rewriting the whole CSR snapshot —
//! [`Graph::patched`] splices in linear passes, but every array (offsets,
//! adjacency, mirror table, edge list, origin map) is written end to end,
//! so a one-edge batch on an `m = 200k` graph still moves ~12MB. The wall
//! is memory bandwidth, not the repair pipeline.
//!
//! [`SegmentedGraph`] replaces the monolithic arrays with a **segmented
//! adjacency layout**:
//!
//! - **Per-vertex extents** ([`SegExtent`]): a stable indirection table
//!   mapping each vertex to its segment `start..start+len` (capacity
//!   `cap >= len`) in one shared arena. A commit rewrites only the
//!   segments of vertices incident to the batch; everything else is
//!   untouched memory. Segments that outgrow their capacity relocate to
//!   the arena tail with amortized-growth slack (`len + len/2 + 2`), so
//!   repeated growth on one vertex is amortized O(1) per slot.
//! - **Stable edge identifiers**: edges are addressed by an id that never
//!   moves (a slot in the [`SegmentedGraph::edge_bound`]-sized endpoint
//!   table), with deleted ids kept on a LIFO free list and reused
//!   deterministically. Per-edge state (the streaming engine's colors)
//!   lives at the id and needs **no carry pass at all** — only freed and
//!   inserted ids change, which the [`SegCommitDelta`] lists explicitly.
//!   Contrast with the lexicographic edge indices of [`Graph`], which
//!   shift on every insert/delete and force the O(m) origin-map gather.
//! - **Epoch-tagged mirror slots**: `mirror[p]` holds the arena position
//!   of the reverse directed edge, as in the contiguous CSR. Positions
//!   are absolute, but they are only guaranteed for the current commit
//!   *epoch*: every commit re-links the mirrors of all touched segments
//!   in one O(region) fixup pass (a segment that moved in epoch `e`
//!   rewrites its neighbors' mirror entries in the same epoch), and each
//!   extent records the epoch that last rewrote it. The involution
//!   invariant — `mirror[mirror[p]] == p`, same edge id on both sides —
//!   therefore holds after every commit, exactly as on [`Graph`].
//!
//! # Differential oracle
//!
//! The contiguous snapshot engine stays the bit-exact oracle, the same
//! playbook as `Engine::Naive` and [`crate::MutableGraph::commit_rebuild`]:
//! [`SegmentedGraph::to_graph`] materializes the lexicographic [`Graph`]
//! this store is equivalent to, and the `tests/delta_csr.rs` sweep pins
//! segmented == patched == rebuild under arbitrary churn (graph equality,
//! mirror involution, line graphs, per-edge state carry, shrink
//! interplay). Batches containing a [`SegmentedGraph::shrink_isolated`]
//! compaction rebuild the store — an explicit O(n + m) event that
//! reassigns every edge id (reported via [`SegCommitDelta::edge_remap`]),
//! just as shrink batches take the rebuild path on [`crate::MutableGraph`].
//! The mutation batch (queue checks, overlay resolution, identifier rule,
//! shrink replay) is [`crate::MutableGraph`]'s; this store adds only the
//! segment splice with its stable-id assignment and a rebuild's id remap.
//!
//! # Publishing
//!
//! Every live segment is kept strictly sorted by neighbor (every splice
//! merges in neighbor order; [`SegmentedGraph::check_consistency`] asserts
//! it). Under that precondition one walk — vertices in order, and in each
//! segment the entries whose neighbor is larger than the vertex — visits
//! the edges in lexicographic order. [`SegmentedGraph::lex_edge_ids`] and
//! [`SegmentedGraph::to_graph`] are both that walk: O(n + m), with no
//! sorting. `to_graph` fills the edge list, the id map, the CSR offsets,
//! the adjacency and the mirror table as it goes, translating each
//! stored mirror position into a slot of the new CSR. Only the identifier
//! distinctness check sorts, one copy of n identifiers. Each entry costs
//! O(1) asserts of the invariants the walk relies on: neighbors in range
//! and not the vertex itself, strictly increasing segments, exactly m
//! edges, and mirrors that land in the partner segment on an entry
//! pointing back.
//!
//! # Byte accounting
//!
//! [`SegCommitDelta::commit_bytes`] counts the bytes actually written into
//! the committed representation: touched extents, spliced segment entries,
//! both sides of every fixed-up mirror slot, endpoint-table writes and
//! identifier writes. Full-rewrite commits (the shrink/rebuild path here,
//! and both [`crate::MutableGraph`] paths) count
//! [`Graph::full_rewrite_bytes`] in the same currency, which is what the
//! `gate` bench compares.

use crate::batch::{self, Batch, Resolved};
use crate::{EdgeIdx, Graph, GraphError, Vertex};
use deco_probe::{Event, Probe};
use std::sync::Arc;

/// Tombstone in the endpoint table for a freed edge id.
const HOLE: (u32, u32) = (u32::MAX, u32::MAX);

/// Bytes one arena entry write costs: `(neighbor, edge id)`, two `u32`s.
const ENTRY_BYTES: usize = 8;
/// Bytes one endpoint-table write costs (normalized pair, two `u32`s).
const ENDS_BYTES: usize = 8;
/// Bytes one extent rewrite costs (`start`, `len`, `cap`, `epoch`).
const EXT_BYTES: usize = 16;
/// Bytes one mirror fixup costs: both sides of the involution, 4 + 4.
const MIRROR_BYTES: usize = 8;
/// Bytes one identifier write costs.
const IDENT_BYTES: usize = 8;

/// The per-vertex indirection record of the segmented layout: vertex `v`
/// owns arena positions `start..start + len`, with `cap - len` slack slots
/// reserved behind them for in-place growth. `epoch` is the commit epoch
/// that last rewrote this segment (see the module docs on epoch-tagged
/// mirror slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegExtent {
    /// First arena position of the segment.
    pub start: u32,
    /// Live entries (the vertex degree).
    pub len: u32,
    /// Reserved entries; `len <= cap`. Outgrowing `cap` relocates the
    /// segment to the arena tail with fresh amortized slack.
    pub cap: u32,
    /// Commit epoch that last rewrote this segment.
    pub epoch: u32,
}

/// The net effect of one committed batch on a [`SegmentedGraph`].
///
/// Where [`crate::CommitDelta`] must ship a full `O(m)` origin map (every
/// lexicographic edge index shifts), stable ids make the delta sparse:
/// only [`SegCommitDelta::freed_ids`] and [`SegCommitDelta::inserted_ids`]
/// change, everything else keeps its id and its per-edge state in place.
/// The default value is the empty batch's delta.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegCommitDelta {
    /// Net inserted edges, normalized `(u, v)` with `u < v`, sorted, in
    /// the post-commit numbering.
    pub inserted: Vec<(Vertex, Vertex)>,
    /// Net deleted edges, normalized and sorted, in the pre-commit
    /// numbering.
    pub deleted: Vec<(Vertex, Vertex)>,
    /// Edge id assigned to each entry of [`SegCommitDelta::inserted`]
    /// (aligned): freed ids are reused LIFO — deleted ids of the same
    /// batch included — before fresh ids are minted.
    pub inserted_ids: Vec<u32>,
    /// Edge id freed by each entry of [`SegCommitDelta::deleted`]
    /// (aligned).
    pub freed_ids: Vec<u32>,
    /// Vertices added by the batch.
    pub added_vertices: usize,
    /// Vertices removed by shrink compactions in this batch.
    pub removed_vertices: usize,
    /// Present only when the batch rebuilt the store (it contained a
    /// shrink): maps every pre-commit edge id to its post-commit id, with
    /// [`Graph::NO_EDGE_ORIGIN`] for ids that did not survive (deleted
    /// edges and pre-existing holes). `None` for ordinary commits, whose
    /// surviving ids are unchanged by construction.
    pub edge_remap: Option<Vec<u32>>,
    /// As [`crate::CommitDelta::vertex_map`]: post-commit vertex to
    /// pre-commit index when the batch renumbered vertices.
    pub vertex_map: Option<Vec<Option<Vertex>>>,
    /// Bytes written into the committed representation by this commit
    /// (module docs); 0 for an empty batch.
    pub commit_bytes: usize,
}

/// A mutable graph in the segmented CSR layout. See the module docs.
///
/// The batched mutation API mirrors [`crate::MutableGraph`] — queue with
/// [`SegmentedGraph::insert_edge`] / [`SegmentedGraph::delete_edge`] /
/// [`SegmentedGraph::add_vertex`] / [`SegmentedGraph::set_ident`] /
/// [`SegmentedGraph::shrink_isolated`], apply atomically with
/// [`SegmentedGraph::commit`] — and commits accept or reject exactly the
/// batches the contiguous engine would, with the same [`GraphError`]s.
///
/// # Example
///
/// ```
/// use deco_graph::SegmentedGraph;
///
/// let mut sg = SegmentedGraph::new(3);
/// sg.insert_edge(0, 1)?;
/// sg.insert_edge(1, 2)?;
/// let delta = sg.commit()?;
/// assert_eq!(delta.inserted_ids, vec![0, 1]);
/// sg.delete_edge(0, 1)?;
/// sg.insert_edge(0, 2)?;
/// let delta = sg.commit()?;
/// // The freed id is reused for the inserted edge; id 1 never moved.
/// assert_eq!((delta.freed_ids, delta.inserted_ids), (vec![0], vec![0]));
/// assert!(delta.commit_bytes > 0);
/// # Ok::<(), deco_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SegmentedGraph {
    n: usize,
    /// Per-vertex extents into `arena` (the indirection table).
    ext: Vec<SegExtent>,
    /// Shared adjacency arena: `(neighbor, edge id)` entries, sorted by
    /// neighbor within each live segment; positions outside every
    /// `start..start+len` window are garbage (capacity slack or leaked
    /// slots of relocated segments).
    arena: Vec<(u32, u32)>,
    /// Mirror table parallel to `arena`: absolute position of the reverse
    /// directed edge, re-linked every epoch for touched segments.
    mirror: Vec<u32>,
    /// Endpoint table indexed by edge id; [`HOLE`] for freed ids.
    ends: Vec<(u32, u32)>,
    /// Freed edge ids, reused LIFO (deterministic).
    free_ids: Vec<u32>,
    /// Distinct identifier per vertex (the paper's `Id`).
    idents: Vec<u64>,
    live_edges: usize,
    /// Degree histogram backing O(1) max-degree maintenance.
    deg_hist: Vec<usize>,
    max_degree: usize,
    /// Commit epoch; incremented once per successful commit.
    epoch: u32,
    /// Arena capacity leaked by relocated segments (diagnostics).
    dead_slots: usize,
    /// Queued, not-yet-committed operations.
    batch: Batch,
    /// Observability sink: both commit paths emit one
    /// [`Event::CommitBytes`] per non-empty batch (default: disabled).
    probe: Arc<dyn Probe>,
}

impl SegmentedGraph {
    /// An edgeless segmented graph with `n` vertices.
    pub fn new(n: usize) -> SegmentedGraph {
        SegmentedGraph::from_graph(&Graph::empty(n))
    }

    /// Builds the segmented store equivalent to `g`: edge ids are `g`'s
    /// lexicographic edge indices, segments start tight (`cap == len`;
    /// the first growth of a vertex relocates it with amortized slack).
    pub fn from_graph(g: &Graph) -> SegmentedGraph {
        let n = g.n();
        let offsets = g.slot_offsets();
        let mut ext = Vec::with_capacity(n);
        let mut deg_hist = vec![0usize; g.max_degree() + 1];
        for (v, &start) in offsets.iter().enumerate().take(n) {
            let deg = g.degree(v);
            ext.push(SegExtent { start: start as u32, len: deg as u32, cap: deg as u32, epoch: 0 });
            deg_hist[deg] += 1;
        }
        let mut arena = Vec::with_capacity(g.slot_count());
        for v in 0..n {
            for (nbr, e) in g.incident(v) {
                arena.push((nbr as u32, e as u32));
            }
        }
        SegmentedGraph {
            n,
            ext,
            arena,
            mirror: g.mirror_slots().to_vec(),
            ends: g.edges().map(|(u, v)| (u as u32, v as u32)).collect(),
            free_ids: Vec::new(),
            idents: g.idents().to_vec(),
            live_edges: g.m(),
            deg_hist,
            max_degree: g.max_degree(),
            epoch: 0,
            dead_slots: 0,
            batch: Batch::default(),
            probe: deco_probe::null(),
        }
    }

    /// Attaches an observability probe (default: the shared disabled
    /// [`deco_probe::NullProbe`]). With an enabled probe every non-empty
    /// committed batch emits one [`Event::CommitBytes`] carrying the same
    /// value as [`SegCommitDelta::commit_bytes`] — O(region) for ordinary
    /// commits, the full-rewrite figure for shrink rebuilds.
    pub fn set_probe(&mut self, probe: Arc<dyn Probe>) {
        self.probe = probe;
    }

    /// Emission helper shared by both commit paths.
    fn emit_commit_bytes(&self, bytes: usize) {
        if self.probe.enabled() {
            self.probe.emit(Event::CommitBytes { bytes: bytes as u64 });
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of live edges.
    pub fn m(&self) -> usize {
        self.live_edges
    }

    /// Exclusive upper bound on edge ids: size any id-indexed store to
    /// this (ids below it may be live or free — see
    /// [`SegmentedGraph::is_live`]).
    pub fn edge_bound(&self) -> usize {
        self.ends.len()
    }

    /// Maximum degree Δ (0 for the edgeless graph), maintained
    /// incrementally via a degree histogram.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: Vertex) -> usize {
        self.ext[v].len as usize
    }

    /// The distinct identifier of `v`.
    pub fn ident(&self, v: Vertex) -> u64 {
        self.idents[v]
    }

    /// All identifiers, indexed by vertex.
    pub fn idents(&self) -> &[u64] {
        &self.idents
    }

    /// Current commit epoch (0 before the first commit).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Arena slots leaked by relocated segments — the fragmentation a
    /// shrink-compaction commit reclaims.
    pub fn dead_slots(&self) -> usize {
        self.dead_slots
    }

    /// Whether edge id `e` currently addresses a live edge.
    pub fn is_live(&self, e: EdgeIdx) -> bool {
        e < self.ends.len() && self.ends[e] != HOLE
    }

    /// Endpoints of the live edge `e` as `(u, v)` with `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or a freed id.
    pub fn endpoints(&self, e: EdgeIdx) -> (Vertex, Vertex) {
        let pair = self.ends[e];
        assert_ne!(pair, HOLE, "edge id {e} is freed");
        (pair.0 as Vertex, pair.1 as Vertex)
    }

    /// Iterates over `(edge id, (u, v))` for every live edge, in id order
    /// (ids are stable, so this order is *not* lexicographic; see
    /// [`SegmentedGraph::lex_edge_ids`]).
    pub fn edges_with_ids(&self) -> impl Iterator<Item = (EdgeIdx, (Vertex, Vertex))> + '_ {
        self.ends
            .iter()
            .enumerate()
            .filter(|&(_, &pair)| pair != HOLE)
            .map(|(e, &(u, v))| (e, (u as Vertex, v as Vertex)))
    }

    /// Live edge ids sorted by endpoint pair — the lexicographic order the
    /// contiguous [`Graph`] numbers its edges in. `lex_edge_ids()[i]` is
    /// the id of edge `i` of [`SegmentedGraph::to_graph`].
    ///
    /// One linear walk of the segments (module docs, *Publishing*):
    /// O(n + m), no sorting.
    pub fn lex_edge_ids(&self) -> Vec<u32> {
        let mut ids = Vec::with_capacity(self.live_edges);
        self.walk(|v, _, nbr, id| {
            if v < nbr {
                ids.push(id);
            }
        });
        ids
    }

    /// The walk both publish views share: every live entry, vertices in
    /// order and each segment in neighbor order, as `visit(v, p, nbr, id)`
    /// with `p` the entry's arena position. Segments are sorted by
    /// neighbor, so the entries with `nbr > v` arrive in lexicographic
    /// edge order: the `i`-th of them is edge `i` of the materialized
    /// [`Graph`]. Asserts, per entry, the invariants that order rests on.
    fn walk(&self, mut visit: impl FnMut(u32, usize, u32, u32)) {
        let mut forward = 0usize;
        for v in 0..self.n {
            let start = self.ext[v].start as usize;
            let seg = self.segment(v);
            for (i, &(nbr, id)) in seg.iter().enumerate() {
                // INVARIANT: commits only splice in validated, normalized pairs.
                assert!(
                    (nbr as usize) < self.n && nbr as usize != v,
                    "vertex {v}: bad entry {nbr}"
                );
                // INVARIANT: every splice merges in neighbor order; strictness also rules out duplicates.
                assert!(i == 0 || seg[i - 1].0 < nbr, "vertex {v}: segment not strictly sorted");
                forward += usize::from(nbr as usize > v);
                visit(v as u32, start + i, nbr, id);
            }
        }
        // INVARIANT: each live edge has exactly one entry above its lower endpoint.
        assert_eq!(forward, self.live_edges, "the walk must yield exactly m edges");
    }

    /// Iterates over `(neighbor, edge id)` pairs incident to `v`, in
    /// increasing neighbor order.
    pub fn incident(&self, v: Vertex) -> impl Iterator<Item = (Vertex, EdgeIdx)> + '_ {
        self.segment(v).iter().map(|&(u, e)| (u as Vertex, e as EdgeIdx))
    }

    /// Iterates over the neighbors of `v` in increasing vertex order.
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.segment(v).iter().map(|&(u, _)| u as Vertex)
    }

    /// The edge id of `(u, v)`, if that edge exists.
    pub fn edge_between(&self, u: Vertex, v: Vertex) -> Option<EdgeIdx> {
        if u >= self.n || v >= self.n || u == v {
            return None;
        }
        let seg = self.segment(u);
        seg.binary_search_by_key(&(v as u32), |&(w, _)| w).ok().map(|i| seg[i].1 as EdgeIdx)
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// The live entries of `v`'s segment.
    fn segment(&self, v: Vertex) -> &[(u32, u32)] {
        let SegExtent { start, len, .. } = self.ext[v];
        &self.arena[start as usize..(start + len) as usize]
    }

    /// Materializes the contiguous [`Graph`] this store is equivalent to,
    /// plus the map from its lexicographic edge indices to the stable ids
    /// here (`idmap[lex] = id`). The result is bit-identical to driving
    /// the same batches through [`crate::MutableGraph`] — the differential
    /// oracle contract the `delta_csr` sweep pins.
    ///
    /// Built in the one linear walk of [`SegmentedGraph::lex_edge_ids`]
    /// (module docs, *Publishing*): O(n + m) with no sorting, apart from
    /// the identifier distinctness check.
    pub fn to_graph(&self) -> (Graph, Vec<u32>) {
        let m = self.live_edges;
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0usize);
        let mut max_degree = 0usize;
        for e in &self.ext {
            max_degree = max_degree.max(e.len as usize);
            offsets.push(offsets[offsets.len() - 1] + e.len as usize);
        }
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
        let mut idmap: Vec<u32> = Vec::with_capacity(m);
        let mut adj: Vec<(u32, u32)> = Vec::with_capacity(2 * m);
        let mut mirror: Vec<u32> = Vec::with_capacity(2 * m);
        self.walk(|v, p, nbr, id| {
            // Segment `w` fills slots `offsets[w]..` in walk order, so the
            // stored mirror position translates to a slot by its offset
            // inside the partner segment.
            let partner = self.ext[nbr as usize];
            let q = self.mirror[p].wrapping_sub(partner.start);
            // INVARIANT: every commit re-links the mirrors of the segments it touched.
            assert!(q < partner.len, "slot {p}: mirror outside the partner segment");
            let t = offsets[nbr as usize] + q as usize;
            mirror.push(t as u32);
            let e = if v < nbr {
                edges.push((v, nbr));
                idmap.push(id);
                (edges.len() - 1) as u32
            } else {
                // The partner slot was filled when segment `nbr` was walked.
                let (back, e) = adj[t];
                // INVARIANT: the mirror of an entry is its partner's entry for the same edge.
                assert_eq!(back, v, "slot {p}: mirror does not point back");
                e
            };
            adj.push((nbr, e));
        });
        // INVARIANT: commits validate identifier distinctness before writing identifiers.
        batch::check_idents(&[], &self.idents).expect("segmented identifiers are distinct");
        let g = Graph::from_parts(offsets, adj, edges, mirror, self.idents.clone(), max_degree);
        (g, idmap)
    }

    /// The subgraph consisting of exactly the edges in `keep_edges` (edge
    /// ids), on the vertex set of their endpoints — the repair-region
    /// extraction, mirroring [`Graph::edge_induced`].
    ///
    /// Returns `(subgraph, vertex_map, edge_map)` with `edge_map[new_e]`
    /// the *edge id* of subgraph edge `new_e`. Kept edges are sorted by
    /// endpoint pair, so the subgraph (topology, identifiers, and the
    /// correspondence `new_e ↔ edge_map[new_e]`) is **byte-identical** to
    /// what [`Graph::edge_induced`] extracts for the same edge set on the
    /// materialized graph — repairs computed on either host agree bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range or freed.
    pub fn edge_induced(&self, keep_edges: &[EdgeIdx]) -> (Graph, Vec<Vertex>, Vec<EdgeIdx>) {
        let mut eids: Vec<EdgeIdx> = keep_edges.to_vec();
        eids.sort_unstable();
        eids.dedup();
        let mut items: Vec<(u32, u32, u32)> = eids
            .iter()
            .map(|&e| {
                let (u, v) = self.endpoints(e);
                (u as u32, v as u32, e as u32)
            })
            .collect();
        items.sort_unstable();
        let mut verts: Vec<Vertex> = Vec::with_capacity(2 * items.len());
        for &(u, v, _) in &items {
            verts.push(u as Vertex);
            verts.push(v as Vertex);
        }
        verts.sort_unstable();
        verts.dedup();
        let mut back = vec![usize::MAX; self.n];
        for (new, &old) in verts.iter().enumerate() {
            back[old] = new;
        }
        let edges: Vec<(usize, usize)> =
            items.iter().map(|&(u, v, _)| (back[u as usize], back[v as usize])).collect();
        let g = Graph::from_edges(verts.len(), &edges)
            // INVARIANT: the subgraph inherits validated endpoints from a valid host graph.
            .expect("edge-induced subgraph of a valid graph is valid");
        let idents = verts.iter().map(|&old| self.idents[old]).collect();
        // INVARIANT: the identifier list is distinct by construction, so re-labelling cannot fail.
        let g = g.with_idents(idents).expect("inherited identifiers stay distinct");
        let emap = items.into_iter().map(|(_, _, e)| e as EdgeIdx).collect();
        (g, verts, emap)
    }

    /// Number of vertices the next commit will have (committed + pending),
    /// ignoring queued shrink compactions.
    pub fn next_n(&self) -> usize {
        self.n + self.batch.added()
    }

    /// Number of queued, uncommitted operations.
    pub fn pending_ops(&self) -> usize {
        self.batch.len()
    }

    /// Queues insertion of the undirected edge `(u, v)`; existence is
    /// checked at commit time, exactly as on
    /// [`crate::MutableGraph::insert_edge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] for out-of-range endpoints or self-loops.
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        self.batch.insert(self.n, u, v)
    }

    /// Queues deletion of the undirected edge `(u, v)`; existence is
    /// checked at commit time.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] for out-of-range endpoints or self-loops.
    pub fn delete_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        self.batch.delete(self.n, u, v)
    }

    /// Queues addition of one vertex and returns its index (usable as an
    /// endpoint within this batch). Default identifiers follow the same
    /// smallest-unused rule as [`crate::MutableGraph::add_vertex`].
    pub fn add_vertex(&mut self) -> Vertex {
        self.batch.add_vertex(self.n)
    }

    /// Queues an identifier override for `v`; distinctness is validated at
    /// commit time.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `v` is out of range for the post-batch
    /// vertex count.
    pub fn set_ident(&mut self, v: Vertex, ident: u64) -> Result<(), GraphError> {
        self.batch.set_ident(self.n, v, ident)
    }

    /// Queues a shrink compaction (see
    /// [`crate::MutableGraph::shrink_isolated`]). A batch containing one
    /// rebuilds the whole store — an explicit O(n + m) event that
    /// reassigns every edge id, reclaims [`SegmentedGraph::dead_slots`]
    /// and reports the reassignment via [`SegCommitDelta::edge_remap`].
    pub fn shrink_isolated(&mut self) {
        self.batch.shrink();
    }

    /// Applies the queued batch atomically, writing only the segments of
    /// touched vertices — O(region) bytes, counted in
    /// [`SegCommitDelta::commit_bytes`]. Batches containing a shrink
    /// rebuild the store (module docs); empty batches short-circuit to a
    /// zero-byte no-op.
    ///
    /// # Errors
    ///
    /// Exactly the conditions of [`crate::MutableGraph::commit`] — on
    /// error the committed state is untouched and the batch is discarded.
    pub fn commit(&mut self) -> Result<SegCommitDelta, GraphError> {
        if self.batch.is_empty() {
            return Ok(SegCommitDelta::default());
        }
        let out = if self.batch.has_shrink() {
            self.commit_shrink_rebuild()
        } else {
            self.commit_splice()
        };
        self.batch.clear();
        out
    }

    /// The ordinary commit: resolve the batch through the overlay, then
    /// splice the touched segments.
    fn commit_splice(&mut self) -> Result<SegCommitDelta, GraphError> {
        let Resolved { inserted, deleted, added_vertices, idents, ident_writes } =
            self.batch.resolve(&self.idents, |u, v| self.has_edge(u, v))?;
        batch::check_idents(&self.idents, &idents)?;

        // Everything validated; all mutations below are infallible.
        let epoch = self.epoch.wrapping_add(1);
        let mut bytes = 0usize;
        for _ in 0..added_vertices {
            self.ext.push(SegExtent { start: self.arena.len() as u32, len: 0, cap: 0, epoch });
            self.bump_hist(0, 1);
            bytes += EXT_BYTES;
        }
        self.n += added_vertices;

        // Edge id assignment: free deleted ids first (in sorted-pair
        // order), then serve inserts LIFO — freed ids of this very batch
        // are reused immediately, keeping the id space dense.
        let mut freed_ids: Vec<u32> = Vec::with_capacity(deleted.len());
        for &(u, v) in &deleted {
            // INVARIANT: edge presence between u and v was checked just above.
            let id = self.edge_between(u, v).expect("validated above") as u32;
            self.ends[id as usize] = HOLE;
            bytes += ENDS_BYTES;
            self.free_ids.push(id);
            freed_ids.push(id);
        }
        self.live_edges -= deleted.len();
        let mut inserted_ids: Vec<u32> = Vec::with_capacity(inserted.len());
        for &(u, v) in &inserted {
            let id = match self.free_ids.pop() {
                Some(id) => {
                    self.ends[id as usize] = (u as u32, v as u32);
                    id
                }
                None => {
                    self.ends.push((u as u32, v as u32));
                    (self.ends.len() - 1) as u32
                }
            };
            bytes += ENDS_BYTES;
            inserted_ids.push(id);
        }
        self.live_edges += inserted.len();
        assert!(
            2 * self.ends.len() <= u32::MAX as usize,
            "graph too large for u32 edge ids and arena positions"
        );

        let (add_adj, del_adj) = batch::patch_lists(&inserted, &inserted_ids, &deleted);

        // Phase A: splice each touched vertex's segment — merge the old
        // entries minus deletions with the insertions, in neighbor order.
        // In place when the new degree fits the capacity; otherwise the
        // segment relocates to the arena tail with amortized slack.
        let mut touched: Vec<u32> = Vec::new();
        let mut scratch: Vec<(u32, u32)> = Vec::new();
        let (mut ai, mut di) = (0usize, 0usize);
        while ai < add_adj.len() || di < del_adj.len() {
            let v = match (add_adj.get(ai), del_adj.get(di)) {
                (Some(&(av, _, _)), Some(&(dv, _))) => av.min(dv),
                (Some(&(av, _, _)), None) => av,
                (None, Some(&(dv, _))) => dv,
                // INVARIANT: the while condition guarantees at least one side is non-exhausted.
                (None, None) => unreachable!(),
            };
            touched.push(v);
            scratch.clear();
            {
                let old = self.segment(v as usize);
                let mut oi = 0usize;
                loop {
                    let next_add = add_adj.get(ai).filter(|&&(o, _, _)| o == v);
                    match (old.get(oi), next_add) {
                        (Some(&(nbr, e)), add) if add.map_or(true, |&(_, anbr, _)| nbr < anbr) => {
                            oi += 1;
                            if di < del_adj.len() && del_adj[di] == (v, nbr) {
                                di += 1;
                            } else {
                                scratch.push((nbr, e));
                            }
                        }
                        (_, Some(&(_, anbr, ae))) => {
                            ai += 1;
                            scratch.push((anbr, ae));
                        }
                        (None, None) => break,
                        // INVARIANT: the merge loop's first arm consumes every remaining old entry, so no other combination reaches this arm.
                        _ => unreachable!("first arm covers remaining old entries"),
                    }
                }
            }
            let old_deg = self.ext[v as usize].len as usize;
            let new_deg = scratch.len();
            let e = &mut self.ext[v as usize];
            if new_deg as u32 <= e.cap {
                let start = e.start as usize;
                self.arena[start..start + new_deg].copy_from_slice(&scratch);
                e.len = new_deg as u32;
                e.epoch = epoch;
            } else {
                // Relocate with amortized growth; the old capacity leaks
                // until the next shrink compaction reclaims it.
                let new_cap = new_deg + new_deg / 2 + 2;
                let start = self.arena.len();
                self.dead_slots += e.cap as usize;
                self.arena.extend_from_slice(&scratch);
                self.arena.resize(start + new_cap, (0, 0));
                self.mirror.resize(self.arena.len(), 0);
                *e = SegExtent {
                    start: start as u32,
                    len: new_deg as u32,
                    cap: new_cap as u32,
                    epoch,
                };
            }
            bytes += EXT_BYTES + ENTRY_BYTES * new_deg;
            self.bump_hist(old_deg, -1);
            self.bump_hist(new_deg, 1);
        }
        // Restore max-degree from the histogram after all splices.
        while self.max_degree > 0 && self.deg_hist[self.max_degree] == 0 {
            self.max_degree -= 1;
        }

        // Phase B: one mirror-fixup pass over the touched segments. Every
        // slot whose position changed has a touched owner, so re-linking
        // both sides of each touched slot restores the involution for the
        // whole graph — O(Σ deg(touched) · log deg) work, nothing else in
        // the mirror table is read or written.
        for &v in &touched {
            let SegExtent { start, len, .. } = self.ext[v as usize];
            for p in start as usize..(start + len) as usize {
                let (nbr, _) = self.arena[p];
                let seg = self.segment(nbr as usize);
                let i = seg
                    .binary_search_by_key(&v, |&(w, _)| w)
                    // INVARIANT: segments store both directions of every edge, so the partner lookup succeeds.
                    .expect("partner segment lists the reverse edge");
                let q = self.ext[nbr as usize].start as usize + i;
                self.mirror[p] = q as u32;
                self.mirror[q] = p as u32;
                bytes += MIRROR_BYTES;
            }
        }

        self.idents = idents;
        bytes += IDENT_BYTES * ident_writes;
        self.epoch = epoch;
        self.emit_commit_bytes(bytes);
        Ok(SegCommitDelta {
            inserted,
            deleted,
            inserted_ids,
            freed_ids,
            added_vertices,
            commit_bytes: bytes,
            ..SegCommitDelta::default()
        })
    }

    /// The rebuild path for batches containing a shrink compaction: replay
    /// in queue order (mid-batch renumbering included, bit-compatible with
    /// [`crate::MutableGraph::commit_rebuild`]), rebuild the store from
    /// the resulting contiguous graph — reassigning every edge id to its
    /// lexicographic rank and reclaiming all dead arena slots — and report
    /// the id reassignment via [`SegCommitDelta::edge_remap`].
    fn commit_shrink_rebuild(&mut self) -> Result<SegCommitDelta, GraphError> {
        let edges = self.edges_with_ids().map(|(_, pair)| pair);
        let rebuilt = self.batch.replay(self.n, edges, &self.idents)?;
        // Delta against the *old* store: match each new edge back through
        // the vertex map; the new ids are lexicographic ranks.
        let old_bound = self.ends.len();
        let matched =
            rebuilt.match_back(old_bound, self.edges_with_ids(), |u, v| self.edge_between(u, v));
        let mut edge_remap = vec![Graph::NO_EDGE_ORIGIN; old_bound];
        let mut inserted_ids = Vec::new();
        for (e, &old_id) in matched.origin.iter().enumerate() {
            match old_id {
                Graph::NO_EDGE_ORIGIN => inserted_ids.push(e as u32),
                old_id => edge_remap[old_id as usize] = e as u32,
            }
        }
        let graph = &rebuilt.graph;
        let commit_bytes = Graph::full_rewrite_bytes(graph.n(), graph.m());
        let old = std::mem::replace(self, SegmentedGraph::from_graph(graph));
        self.epoch = old.epoch.wrapping_add(1);
        self.probe = old.probe;
        self.batch = old.batch;
        self.emit_commit_bytes(commit_bytes);
        Ok(SegCommitDelta {
            inserted: matched.inserted,
            deleted: matched.deleted,
            inserted_ids,
            freed_ids: matched.freed,
            added_vertices: rebuilt.added_vertices,
            removed_vertices: rebuilt.removed_vertices,
            edge_remap: Some(edge_remap),
            vertex_map: (rebuilt.removed_vertices > 0).then_some(rebuilt.back),
            commit_bytes,
        })
    }

    fn bump_hist(&mut self, deg: usize, by: isize) {
        if deg >= self.deg_hist.len() {
            self.deg_hist.resize(deg + 1, 0);
        }
        self.deg_hist[deg] = (self.deg_hist[deg] as isize + by) as usize;
        if by > 0 && deg > self.max_degree {
            self.max_degree = deg;
        }
    }

    /// Validates every structural invariant of the segmented layout —
    /// extent bounds, neighbor-sorted segments, endpoint-table agreement,
    /// mirror involution, degree histogram, live-edge accounting — and
    /// panics on any violation. Test support for the differential sweeps;
    /// O(n + m log Δ).
    pub fn check_consistency(&self) {
        assert_eq!(self.ext.len(), self.n);
        assert_eq!(self.idents.len(), self.n);
        assert_eq!(self.arena.len(), self.mirror.len());
        let mut live_seen = 0usize;
        let mut slot_total = 0usize;
        let mut max_deg = 0usize;
        for v in 0..self.n {
            let SegExtent { start, len, cap, .. } = self.ext[v];
            assert!(len <= cap, "vertex {v}: len {len} > cap {cap}");
            assert!(
                (start + cap) as usize <= self.arena.len(),
                "vertex {v}: extent exceeds the arena"
            );
            let seg = self.segment(v);
            slot_total += seg.len();
            max_deg = max_deg.max(seg.len());
            for (i, &(nbr, id)) in seg.iter().enumerate() {
                if i > 0 {
                    assert!(seg[i - 1].0 < nbr, "vertex {v}: segment not strictly sorted");
                }
                assert_ne!(nbr as usize, v, "vertex {v}: self-loop entry");
                let pair = self.ends[id as usize];
                assert_ne!(pair, HOLE, "vertex {v}: entry references freed id {id}");
                let expect = if (v as u32) < nbr { (v as u32, nbr) } else { (nbr, v as u32) };
                assert_eq!(pair, expect, "vertex {v}: endpoint table disagrees for id {id}");
                let p = start as usize + i;
                let q = self.mirror[p] as usize;
                let ne = self.ext[nbr as usize];
                assert!(
                    (ne.start as usize..(ne.start + ne.len) as usize).contains(&q),
                    "slot {p}: mirror {q} not inside partner segment"
                );
                assert_eq!(self.arena[q], (v as u32, id), "slot {p}: mirror entry mismatch");
                assert_eq!(self.mirror[q] as usize, p, "slot {p}: mirror is not an involution");
            }
        }
        for (id, &pair) in self.ends.iter().enumerate() {
            if pair == HOLE {
                assert!(
                    self.free_ids.contains(&(id as u32)),
                    "freed id {id} missing from the free list"
                );
            } else {
                live_seen += 1;
                assert!(pair.0 < pair.1, "id {id}: endpoints not normalized");
            }
        }
        assert_eq!(live_seen, self.live_edges, "live-edge accounting drifted");
        assert_eq!(self.free_ids.len(), self.ends.len() - self.live_edges);
        assert_eq!(slot_total, 2 * self.live_edges, "segment slots must cover each edge twice");
        assert_eq!(max_deg, self.max_degree, "max-degree maintenance drifted");
        let mut hist = vec![0usize; self.deg_hist.len()];
        for v in 0..self.n {
            hist[self.ext[v].len as usize] += 1;
        }
        assert_eq!(hist, self.deg_hist, "degree histogram drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MutableGraph;

    /// Drives a `SegmentedGraph` and a `MutableGraph` through the same
    /// committed batch and asserts the bit-identical-materialization
    /// contract.
    fn assert_matches_oracle(sg: &SegmentedGraph, mg: &MutableGraph) {
        sg.check_consistency();
        let (g, idmap) = sg.to_graph();
        assert_eq!(&g, mg.graph(), "materialized graph must equal the oracle snapshot");
        assert_eq!(idmap.len(), g.m());
        for (lex, &id) in idmap.iter().enumerate() {
            assert_eq!(g.endpoints(lex), sg.endpoints(id as usize));
        }
        assert_eq!(sg.max_degree(), mg.graph().max_degree());
        assert_eq!(sg.m(), mg.graph().m());
        assert_eq!(sg.n(), mg.graph().n());
        assert_eq!(sg.idents(), mg.graph().idents());
    }

    #[test]
    fn basic_commits_match_oracle() {
        let mut sg = SegmentedGraph::new(5);
        let mut mg = MutableGraph::new(5);
        for (u, v) in [(0, 1), (1, 2), (3, 4), (0, 4)] {
            sg.insert_edge(u, v).unwrap();
            mg.insert_edge(u, v).unwrap();
        }
        let d = sg.commit().unwrap();
        mg.commit().unwrap();
        assert_eq!(d.inserted_ids, vec![0, 1, 2, 3]);
        assert!(d.commit_bytes > 0);
        assert_matches_oracle(&sg, &mg);

        sg.delete_edge(1, 2).unwrap();
        sg.insert_edge(2, 3).unwrap();
        mg.delete_edge(1, 2).unwrap();
        mg.insert_edge(2, 3).unwrap();
        let d = sg.commit().unwrap();
        mg.commit().unwrap();
        assert_eq!((d.freed_ids.clone(), d.inserted_ids.clone()), (vec![2], vec![2]));
        assert_matches_oracle(&sg, &mg);
    }

    #[test]
    fn empty_batch_is_a_zero_byte_noop() {
        let mut sg = SegmentedGraph::new(3);
        sg.insert_edge(0, 1).unwrap();
        sg.commit().unwrap();
        let before = sg.epoch();
        let d = sg.commit().unwrap();
        assert_eq!(d.commit_bytes, 0);
        assert_eq!(sg.epoch(), before, "an empty batch does not advance the epoch");
        sg.check_consistency();
    }

    #[test]
    fn segment_growth_relocates_with_slack() {
        let mut sg = SegmentedGraph::new(10);
        let mut mg = MutableGraph::new(10);
        // Grow vertex 0's segment past its (tight) capacity repeatedly.
        for v in 1..10 {
            sg.insert_edge(0, v).unwrap();
            mg.insert_edge(0, v).unwrap();
            sg.commit().unwrap();
            mg.commit().unwrap();
            assert_matches_oracle(&sg, &mg);
        }
        assert!(sg.dead_slots() > 0, "relocations must leak the old capacity");
        assert_eq!(sg.max_degree(), 9);
    }

    #[test]
    fn errors_and_atomicity_match_oracle() {
        let mut sg = SegmentedGraph::new(4);
        let mut mg = MutableGraph::new(4);
        sg.insert_edge(0, 1).unwrap();
        mg.insert_edge(0, 1).unwrap();
        sg.commit().unwrap();
        mg.commit().unwrap();
        // Duplicate insert fails identically and atomically.
        sg.insert_edge(2, 3).unwrap();
        sg.insert_edge(1, 0).unwrap();
        mg.insert_edge(2, 3).unwrap();
        mg.insert_edge(1, 0).unwrap();
        assert_eq!(sg.commit().unwrap_err(), mg.commit().unwrap_err());
        assert_eq!(sg.pending_ops(), 0);
        assert_matches_oracle(&sg, &mg);
        // Ident clash.
        sg.set_ident(0, 9).unwrap();
        sg.set_ident(1, 9).unwrap();
        mg.set_ident(0, 9).unwrap();
        mg.set_ident(1, 9).unwrap();
        assert_eq!(sg.commit().unwrap_err(), mg.commit().unwrap_err());
        assert_matches_oracle(&sg, &mg);
        // Missing delete.
        sg.delete_edge(2, 3).unwrap();
        mg.delete_edge(2, 3).unwrap();
        assert_eq!(sg.commit().unwrap_err(), mg.commit().unwrap_err());
        assert_matches_oracle(&sg, &mg);
    }

    #[test]
    fn shrink_rebuild_reassigns_ids_and_reports_remap() {
        let mut sg = SegmentedGraph::new(5); // vertices 1, 4 stay isolated
        let mut mg = MutableGraph::new(5);
        for (u, v) in [(0, 2), (2, 3)] {
            sg.insert_edge(u, v).unwrap();
            mg.insert_edge(u, v).unwrap();
        }
        sg.commit().unwrap();
        mg.commit().unwrap();
        sg.shrink_isolated();
        mg.shrink_isolated();
        let d = sg.commit().unwrap();
        let od = mg.commit().unwrap();
        assert_eq!(d.removed_vertices, 2);
        assert_eq!(d.vertex_map, od.vertex_map);
        let remap = d.edge_remap.unwrap();
        assert_eq!(remap, vec![0, 1]); // both edges survive, ids = lex ranks
        assert_eq!(sg.dead_slots(), 0, "a rebuild reclaims all fragmentation");
        assert_matches_oracle(&sg, &mg);
    }

    #[test]
    fn edge_induced_matches_graph_edge_induced() {
        let mut sg = SegmentedGraph::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)] {
            sg.insert_edge(u, v).unwrap();
        }
        sg.commit().unwrap();
        // Churn so ids diverge from lex ranks.
        sg.delete_edge(1, 2).unwrap();
        sg.insert_edge(1, 3).unwrap();
        sg.commit().unwrap();
        let (g, idmap) = sg.to_graph();
        // Pick host edges by id; the Graph-side selection uses lex ranks.
        let ids: Vec<usize> = vec![idmap[0] as usize, idmap[3] as usize, idmap[4] as usize];
        let (sub_a, vmap_a, emap_a) = sg.edge_induced(&ids);
        let (sub_b, vmap_b, emap_b) = g.edge_induced(&[0, 3, 4]);
        assert_eq!(sub_a, sub_b, "region sub-networks must be byte-identical");
        assert_eq!(vmap_a, vmap_b);
        // emaps address different id spaces but the same edges.
        for (i, &id) in emap_a.iter().enumerate() {
            assert_eq!(sg.endpoints(id), g.endpoints(emap_b[i]));
        }
    }

    #[test]
    fn commit_bytes_are_region_not_graph_sized() {
        // A big graph, a one-edge batch: segmented bytes must be far below
        // the full-rewrite accounting both oracle paths report.
        let g = crate::generators::random_bounded_degree(2000, 8, 7);
        let mut sg = SegmentedGraph::from_graph(&g);
        let mut mg = MutableGraph::from_graph(g);
        let nbr = sg.neighbors(0).next().unwrap();
        sg.delete_edge(0, nbr).unwrap();
        mg.delete_edge(0, nbr).unwrap();
        let ds = sg.commit().unwrap();
        let dm = mg.commit().unwrap();
        assert_eq!(dm.commit_bytes, Graph::full_rewrite_bytes(mg.graph().n(), mg.graph().m()));
        assert!(
            ds.commit_bytes * 10 < dm.commit_bytes,
            "segmented {} vs full rewrite {}",
            ds.commit_bytes,
            dm.commit_bytes
        );
        assert_matches_oracle(&sg, &mg);
    }

    #[test]
    fn vertex_only_batches_commit() {
        let mut sg = SegmentedGraph::new(2);
        let mut mg = MutableGraph::new(2);
        let a = sg.add_vertex();
        assert_eq!(a, mg.add_vertex());
        sg.set_ident(0, 77).unwrap();
        mg.set_ident(0, 77).unwrap();
        let d = sg.commit().unwrap();
        mg.commit().unwrap();
        assert_eq!(d.added_vertices, 1);
        assert!(d.commit_bytes > 0);
        assert_matches_oracle(&sg, &mg);
        // The added vertex is usable next batch.
        sg.insert_edge(0, a).unwrap();
        mg.insert_edge(0, a).unwrap();
        sg.commit().unwrap();
        mg.commit().unwrap();
        assert_matches_oracle(&sg, &mg);
    }
}
