use crate::batch::{check_idents, check_pair, patch_lists};
use crate::{EdgeIdx, GraphError, Vertex};

/// An immutable simple undirected graph in CSR form.
///
/// Vertices are the indices `0..n`. Every vertex additionally carries a
/// distinct *identifier* ([`Graph::ident`]), the `Id` of the paper's model;
/// by default `ident(v) = v + 1`, i.e. identifiers are `{1, ..., n}` exactly
/// as Section 1.1 assumes, but generators may permute them.
///
/// Edges are normalized to `(u, v)` with `u < v`, sorted lexicographically,
/// and addressed by their index in [`Graph::edges`]. The adjacency of every
/// vertex stores `(neighbor, edge index)` pairs sorted by neighbor, so both
/// vertex- and edge-coloring algorithms can navigate in `O(log deg)`.
///
/// # Example
///
/// ```
/// use deco_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(0, 3));
/// # Ok::<(), deco_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Flattened adjacency: `(neighbor, edge index)`, sorted by neighbor
    /// within each vertex's slice.
    adj: Vec<(u32, u32)>,
    /// Normalized edge list `(u, v)` with `u < v`, lexicographically sorted.
    edges: Vec<(u32, u32)>,
    /// For each directed-edge slot `s` (an index into `adj`), the slot of the
    /// reverse directed edge: if slot `s` belongs to `u` and points at `v`,
    /// `mirror[s]` is the slot in `v`'s adjacency that points back at `u`.
    mirror: Vec<u32>,
    /// Distinct identifier per vertex.
    idents: Vec<u64>,
    max_degree: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices from an edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range, an edge is a
    /// self-loop, or an edge appears twice.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        b.build()
    }

    /// Creates an edgeless graph with `n` vertices.
    pub fn empty(n: usize) -> Graph {
        // INVARIANT: an empty edge list trivially satisfies validation.
        Graph::from_edges(n, &[]).expect("empty edge list is always valid")
    }

    /// Starts building a graph with `n` vertices.
    pub fn builder(n: usize) -> GraphBuilder {
        GraphBuilder::new(n)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: Vertex) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The distinct identifier of `v` (the paper's `Id(v)`).
    pub fn ident(&self, v: Vertex) -> u64 {
        self.idents[v]
    }

    /// All identifiers, indexed by vertex.
    pub fn idents(&self) -> &[u64] {
        &self.idents
    }

    /// Returns a copy of this graph with the given identifiers.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `idents.len() != n` or identifiers repeat.
    pub fn with_idents(mut self, idents: Vec<u64>) -> Result<Graph, GraphError> {
        if idents.len() != self.n {
            return Err(GraphError::BadIdentCount { got: idents.len(), expected: self.n });
        }
        // No identifier was validated before, so all of them are checked.
        check_idents(&[], &idents)?;
        self.idents = idents;
        Ok(self)
    }

    /// Iterates over the neighbors of `v` in increasing vertex order.
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.adj[self.offsets[v]..self.offsets[v + 1]].iter().map(|&(u, _)| u as Vertex)
    }

    /// Iterates over `(neighbor, edge index)` pairs incident to `v`.
    pub fn incident(&self, v: Vertex) -> impl Iterator<Item = (Vertex, EdgeIdx)> + '_ {
        self.adj[self.offsets[v]..self.offsets[v + 1]]
            .iter()
            .map(|&(u, e)| (u as Vertex, e as EdgeIdx))
    }

    /// The normalized edge list: `(u, v)` with `u < v`, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.edges.iter().map(|&(u, v)| (u as Vertex, v as Vertex))
    }

    /// Endpoints of edge `e` as `(u, v)` with `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    pub fn endpoints(&self, e: EdgeIdx) -> (Vertex, Vertex) {
        let (u, v) = self.edges[e];
        (u as Vertex, v as Vertex)
    }

    /// For an edge `e` incident to `v`, the endpoint that is not `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    pub fn other_endpoint(&self, e: EdgeIdx, v: Vertex) -> Vertex {
        let (a, b) = self.endpoints(e);
        if a == v {
            b
        } else if b == v {
            a
        } else {
            // INVARIANT: callers must pass an endpoint of e; anything else is a caller bug worth aborting on.
            panic!("vertex {v} is not an endpoint of edge {e}")
        }
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// The edge index of `(u, v)`, if that edge exists.
    pub fn edge_between(&self, u: Vertex, v: Vertex) -> Option<EdgeIdx> {
        if u >= self.n || v >= self.n || u == v {
            return None;
        }
        let slice = &self.adj[self.offsets[u]..self.offsets[u + 1]];
        slice.binary_search_by_key(&(v as u32), |&(w, _)| w).ok().map(|i| slice[i].1 as EdgeIdx)
    }

    /// The subgraph induced by `keep`, together with the map from new vertex
    /// indices to original ones.
    ///
    /// Identifiers are inherited from the original graph, so symmetry
    /// breaking in the induced subgraph is consistent with the host graph
    /// (Lemma 3.6 is about exactly such subgraphs).
    ///
    /// Vertices listed more than once are kept once; order of `keep` does not
    /// matter (output vertices are sorted by original index).
    pub fn induced(&self, keep: &[Vertex]) -> (Graph, Vec<Vertex>) {
        let mut verts: Vec<Vertex> = keep.to_vec();
        verts.sort_unstable();
        verts.dedup();
        let mut back = vec![usize::MAX; self.n];
        for (new, &old) in verts.iter().enumerate() {
            back[old] = new;
        }
        let mut edges = Vec::new();
        for &(u, v) in &self.edges {
            let (u, v) = (u as usize, v as usize);
            if back[u] != usize::MAX && back[v] != usize::MAX {
                edges.push((back[u], back[v]));
            }
        }
        let g = Graph::from_edges(verts.len(), &edges)
            // INVARIANT: the subgraph inherits validated endpoints from a valid host graph.
            .expect("induced subgraph of a valid graph is valid");
        let idents = verts.iter().map(|&old| self.idents[old]).collect();
        // INVARIANT: the identifier list is distinct by construction, so re-labelling cannot fail.
        let g = g.with_idents(idents).expect("inherited identifiers stay distinct");
        (g, verts)
    }

    /// The subgraph consisting of exactly the edges in `keep_edges`, on the
    /// vertex set of their endpoints.
    ///
    /// Returns `(subgraph, vertex_map, edge_map)`: `vertex_map[new_v]` is
    /// the original index of subgraph vertex `new_v` and `edge_map[new_e]`
    /// the original index of subgraph edge `new_e`. Identifiers are
    /// inherited, so symmetry breaking inside the subgraph is consistent
    /// with the host (the same Lemma 3.6 argument as [`Graph::induced`]).
    /// This is the repair-region extraction of the streaming recolorer: the
    /// kept edges form the sub-network the pipeline re-runs on.
    ///
    /// Duplicate edge indices are kept once; order of `keep_edges` does not
    /// matter (output edges are sorted like any edge list).
    ///
    /// # Panics
    ///
    /// Panics if an edge index is `>= m`.
    pub fn edge_induced(&self, keep_edges: &[EdgeIdx]) -> (Graph, Vec<Vertex>, Vec<EdgeIdx>) {
        let mut eids: Vec<EdgeIdx> = keep_edges.to_vec();
        eids.sort_unstable();
        eids.dedup();
        let mut verts: Vec<Vertex> = Vec::with_capacity(2 * eids.len());
        for &e in &eids {
            let (u, v) = self.endpoints(e);
            verts.push(u);
            verts.push(v);
        }
        verts.sort_unstable();
        verts.dedup();
        let mut back = vec![usize::MAX; self.n];
        for (new, &old) in verts.iter().enumerate() {
            back[old] = new;
        }
        // The vertex remap is monotone, so host-lex edge order is preserved
        // and subgraph edge `i` is exactly `eids[i]`.
        let edges: Vec<(usize, usize)> = eids
            .iter()
            .map(|&e| {
                let (u, v) = self.endpoints(e);
                (back[u], back[v])
            })
            .collect();
        let g = Graph::from_edges(verts.len(), &edges)
            // INVARIANT: the subgraph inherits validated endpoints from a valid host graph.
            .expect("edge-induced subgraph of a valid graph is valid");
        let idents = verts.iter().map(|&old| self.idents[old]).collect();
        // INVARIANT: the identifier list is distinct by construction, so re-labelling cannot fail.
        let g = g.with_idents(idents).expect("inherited identifiers stay distinct");
        (g, verts, eids)
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        let mut seen = vec![false; self.n];
        let mut count = 0;
        let mut stack = Vec::new();
        for s in 0..self.n {
            if seen[s] {
                continue;
            }
            count += 1;
            seen[s] = true;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for u in self.neighbors(v) {
                    if !seen[u] {
                        seen[u] = true;
                        stack.push(u);
                    }
                }
            }
        }
        count
    }

    /// Number of directed-edge *slots*: `2·m`, one per (vertex, incident
    /// edge) pair. Slots index the flattened CSR adjacency; they are the
    /// address space of the simulator's zero-allocation delivery arena.
    ///
    /// Slot layout: vertex `v` owns the contiguous slot range
    /// [`Graph::slots_of`]`(v)`, sorted by neighbor; slot `s` in that range
    /// represents the directed edge `v → `[`Graph::slot_neighbor`]`(s)`.
    pub fn slot_count(&self) -> usize {
        self.adj.len()
    }

    /// CSR slot offsets, length `n + 1`: vertex `v` owns slots
    /// `slot_offsets()[v]..slot_offsets()[v + 1]`.
    pub fn slot_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The contiguous slot range owned by vertex `v` (one slot per incident
    /// edge, sorted by neighbor).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn slots_of(&self, v: Vertex) -> std::ops::Range<usize> {
        self.offsets[v]..self.offsets[v + 1]
    }

    /// The neighbor a slot points at: for slot `s` owned by `v`, the head of
    /// the directed edge `v → u`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= slot_count()`.
    pub fn slot_neighbor(&self, s: usize) -> Vertex {
        self.adj[s].0 as Vertex
    }

    /// The undirected edge index a slot belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `s >= slot_count()`.
    pub fn slot_edge(&self, s: usize) -> EdgeIdx {
        self.adj[s].1 as EdgeIdx
    }

    /// The mirror of slot `s`: the slot of the reverse directed edge.
    ///
    /// If slot `s` is the directed edge `u → v`, then `mirror_slot(s)` is
    /// the slot of `v → u`, and `mirror_slot(mirror_slot(s)) == s`. This is
    /// the key primitive of slot-based message delivery: a message posted
    /// by `u` along its slot `s` lands in the inbox slot `mirror_slot(s)`
    /// owned by the receiver `v`, with no per-message search.
    ///
    /// # Panics
    ///
    /// Panics if `s >= slot_count()`.
    pub fn mirror_slot(&self, s: usize) -> usize {
        self.mirror[s] as usize
    }

    /// The full mirror table, aligned with slot indices.
    pub fn mirror_slots(&self) -> &[u32] {
        &self.mirror
    }

    /// Applies an edge/vertex delta to this graph in linear passes, without
    /// the hash-and-sort machinery of [`Graph::from_edges`].
    ///
    /// `inserted` and `deleted` are normalized `(u, v)` pairs with `u < v`,
    /// strictly sorted; inserted edges must be absent, deleted edges must be
    /// present, and no pair may appear in both lists. `added_vertices` new
    /// vertices are appended after the existing ones, and `idents` is the
    /// complete post-patch identifier vector.
    ///
    /// The result is **bit-identical** to
    /// `Graph::from_edges(n + added_vertices, &merged_edges)?.with_idents(idents)?`
    /// — same edge indices (lexicographic rank), same CSR offsets, same slot
    /// and mirror-slot numbering — but built by splicing only the adjacency
    /// of touched vertices and shifting the rest, so the cost is linear
    /// scans and copies (`O(n + m + k log k)` with memcpy-class constants)
    /// instead of hashing plus `O(m log m)` sorting. The delta-CSR commit of
    /// [`crate::MutableGraph`] is built on this.
    ///
    /// Also returns the *edge-origin map*: for each new edge index, the edge
    /// index it had in `self`, or [`Graph::NO_EDGE_ORIGIN`] for inserted
    /// edges. Streaming consumers use it to carry per-edge state (colors)
    /// across the patch by stable slot instead of matching endpoint pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] under exactly the conditions the rebuild
    /// would: out-of-range or self-loop pairs, inserting a present edge or
    /// deleting an absent one (both reported as the offending pair), or
    /// identifier problems. Identifier distinctness is revalidated only
    /// when `idents` differs from the current identifiers.
    pub fn patched(
        &self,
        inserted: &[(Vertex, Vertex)],
        deleted: &[(Vertex, Vertex)],
        added_vertices: usize,
        idents: Vec<u64>,
    ) -> Result<(Graph, Vec<u32>), GraphError> {
        let n_old = self.n;
        let n_new = n_old + added_vertices;
        if idents.len() != n_new {
            return Err(GraphError::BadIdentCount { got: idents.len(), expected: n_new });
        }
        self.check_patch_list(inserted, n_new, false)?;
        self.check_patch_list(deleted, n_old, true)?;
        if let Some(&(u, v)) = sorted_intersect(inserted, deleted) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        check_idents(&self.idents, &idents)?;

        let m_old = self.edges.len();
        let m_new = m_old + inserted.len() - deleted.len();
        assert!(2 * m_new <= u32::MAX as usize, "graph too large for u32 slot indices");

        // 1. Splice the sorted edge list, recording both directions of the
        // index shift — `origin[new_e]` (returned) and `new_of_old[old_e]`
        // (drives the adjacency patch below) — plus each inserted pair's
        // new index for the directed patch lists. The splice walks *delta
        // events* (k of them), not edges: the runs between events are bulk
        // slice copies and sequential index fills.
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m_new);
        let mut origin: Vec<u32> = Vec::with_capacity(m_new);
        let mut new_of_old: Vec<u32> = vec![Graph::NO_EDGE_ORIGIN; m_old];
        let mut ins_idx: Vec<u32> = vec![0; inserted.len()];
        {
            // Old-edge position of each event, via a moving lower bound
            // (both lists are sorted): deletions sit *at* their position,
            // insertions go *before* theirs.
            let mut del_pos: Vec<usize> = Vec::with_capacity(deleted.len());
            let mut lo = 0usize;
            for &(u, v) in deleted {
                let key = (u as u32, v as u32);
                lo += self.edges[lo..].partition_point(|&p| p < key);
                debug_assert_eq!(self.edges[lo], key);
                del_pos.push(lo);
            }
            let mut ins_pos: Vec<usize> = Vec::with_capacity(inserted.len());
            let mut lo = 0usize;
            for &(u, v) in inserted {
                let key = (u as u32, v as u32);
                lo += self.edges[lo..].partition_point(|&p| p < key);
                ins_pos.push(lo);
            }
            let copy_run = |edges: &mut Vec<(u32, u32)>,
                            origin: &mut Vec<u32>,
                            new_of_old: &mut [u32],
                            cursor: usize,
                            end: usize| {
                let out = edges.len();
                edges.extend_from_slice(&self.edges[cursor..end]);
                origin.extend((cursor..end).map(|e| e as u32));
                for (k, slot) in new_of_old[cursor..end].iter_mut().enumerate() {
                    *slot = (out + k) as u32;
                }
            };
            let mut cursor = 0usize;
            let (mut ii, mut di) = (0usize, 0usize);
            loop {
                let next_ins = ins_pos.get(ii).copied();
                let next_del = del_pos.get(di).copied();
                // At equal positions the insertion precedes the deletion
                // (its pair sorts before the old edge at that position).
                match (next_ins, next_del) {
                    (Some(ip), nd) if nd.map_or(true, |dp| ip <= dp) => {
                        copy_run(&mut edges, &mut origin, &mut new_of_old, cursor, ip);
                        cursor = ip;
                        ins_idx[ii] = edges.len() as u32;
                        origin.push(Graph::NO_EDGE_ORIGIN);
                        edges.push((inserted[ii].0 as u32, inserted[ii].1 as u32));
                        ii += 1;
                    }
                    (_, Some(dp)) => {
                        copy_run(&mut edges, &mut origin, &mut new_of_old, cursor, dp);
                        cursor = dp + 1; // the deleted edge keeps NO_EDGE_ORIGIN
                        di += 1;
                    }
                    (None, None) => {
                        copy_run(&mut edges, &mut origin, &mut new_of_old, cursor, m_old);
                        break;
                    }
                    // INVARIANT: the guarded first arm captured this combination, so it cannot recur here.
                    (Some(_), None) => unreachable!("covered by the guarded first arm"),
                }
            }
            debug_assert_eq!(edges.len(), m_new);
        }

        // 2. Directed patch lists, consumed by the cursors of the splice pass.
        let (add_adj, del_adj) = patch_lists(inserted, &ins_idx, deleted);

        // 3. New CSR offsets and per-vertex slot shifts in one cheap
        // sequential pass. An untouched vertex keeps its old adjacency
        // order, so all its slots move by the same amount — the cumulative
        // degree delta of the vertices before it. Touched (spliced)
        // vertices get the `TOUCHED` sentinel instead of a shift, folding
        // both lookups of the hot pass into one load.
        const TOUCHED: i32 = i32::MIN;
        assert!(
            inserted.len() + deleted.len() < (i32::MAX / 4) as usize,
            "patch too large for i32 slot shifts (use a rebuild)"
        );
        let mut offsets = vec![0usize; n_new + 1];
        let mut shift: Vec<i32> = vec![0; n_new];
        let mut max_degree = 0usize;
        {
            let (mut ai, mut di) = (0usize, 0usize);
            let mut cum = 0i32;
            for v in 0..n_new {
                let old_deg = if v < n_old { self.offsets[v + 1] - self.offsets[v] } else { 0 };
                let (mut adds, mut dels) = (0usize, 0usize);
                while ai < add_adj.len() && add_adj[ai].0 as usize == v {
                    ai += 1;
                    adds += 1;
                }
                while di < del_adj.len() && del_adj[di].0 as usize == v {
                    di += 1;
                    dels += 1;
                }
                shift[v] = if adds + dels > 0 { TOUCHED } else { cum };
                let deg = old_deg + adds - dels;
                offsets[v + 1] = offsets[v] + deg;
                max_degree = max_degree.max(deg);
                cum += adds as i32 - dels as i32;
            }
        }

        // 4. Adjacency and mirror table in one pass. Untouched vertices
        // copy their slice: edge indices shift (the `(v, nbr > v)` suffix
        // is consecutive in the lex-sorted edge list, so one lookup seeds
        // the whole run), and mirror slots of untouched partners are the
        // old values moved by the partner's shift — no searching. Touched
        // vertices merge-splice in neighbor order (what from_edges'
        // per-vertex sort would also produce, neighbors being unique);
        // edges with a touched endpoint link by the builder's two-visit
        // scheme from both sides.
        let mut adj: Vec<(u32, u32)> = Vec::with_capacity(2 * m_new);
        let mut mirror = vec![0u32; 2 * m_new];
        let mut first_slot = vec![u32::MAX; m_new];
        let (mut ai, mut di) = (0usize, 0usize);
        for v in 0..n_new {
            if shift[v] != TOUCHED {
                if v >= n_old {
                    continue; // appended vertex with no incident insertions
                }
                let old_off = self.offsets[v];
                let slice = &self.adj[old_off..self.offsets[v + 1]];
                let split = slice.partition_point(|&(nbr, _)| (nbr as usize) < v);
                let mut suffix_base = 0u32;
                for (i, &(nbr, e)) in slice.iter().enumerate() {
                    let e_new = if i > split {
                        suffix_base + (i - split) as u32
                    } else {
                        let m = new_of_old[e as usize];
                        if i == split {
                            suffix_base = m;
                        }
                        m
                    };
                    debug_assert_eq!(e_new, new_of_old[e as usize]);
                    adj.push((nbr, e_new));
                    let sh = shift[nbr as usize];
                    if sh == TOUCHED {
                        two_visit_link(&mut mirror, &mut first_slot, e_new, adj.len() - 1);
                    } else {
                        mirror[adj.len() - 1] =
                            (self.mirror[old_off + i] as i64 + sh as i64) as u32;
                    }
                }
            } else {
                let old_slice: &[(u32, u32)] =
                    if v < n_old { &self.adj[self.offsets[v]..self.offsets[v + 1]] } else { &[] };
                let mut oi = 0usize;
                loop {
                    let next_add = add_adj.get(ai).filter(|&&(o, _, _)| o as usize == v);
                    match (old_slice.get(oi), next_add) {
                        (Some(&(nbr, e)), add) if add.map_or(true, |&(_, anbr, _)| nbr < anbr) => {
                            oi += 1;
                            if di < del_adj.len() && del_adj[di] == (v as u32, nbr) {
                                di += 1;
                            } else {
                                let e_new = new_of_old[e as usize];
                                adj.push((nbr, e_new));
                                two_visit_link(&mut mirror, &mut first_slot, e_new, adj.len() - 1);
                            }
                        }
                        (_, Some(&(_, anbr, ae))) => {
                            ai += 1;
                            adj.push((anbr, ae));
                            two_visit_link(&mut mirror, &mut first_slot, ae, adj.len() - 1);
                        }
                        (None, None) => break,
                        // INVARIANT: the merge loop's first arm consumes every remaining old entry, so no other combination reaches this arm.
                        _ => unreachable!("first arm covers remaining old entries"),
                    }
                }
            }
            debug_assert_eq!(adj.len(), offsets[v + 1]);
        }
        debug_assert_eq!(adj.len(), 2 * m_new);

        let graph = Graph { n: n_new, offsets, adj, edges, mirror, idents, max_degree };
        Ok((graph, origin))
    }

    /// Sentinel in the edge-origin map of [`Graph::patched`] (and
    /// [`crate::CommitDelta::edge_origin`]): the edge is newly inserted and
    /// has no predecessor.
    pub const NO_EDGE_ORIGIN: u32 = u32::MAX;

    /// Bytes a full CSR rewrite of an `n`-vertex, `m`-edge snapshot writes
    /// into the committed representation: offsets (`8(n+1)`), adjacency
    /// (`2m` slots × 8), mirror table (`2m` × 4), edge list (`m` × 8),
    /// identifiers (`n` × 8) and the edge-origin carry map (`m` × 4).
    ///
    /// This is the deterministic `commit_bytes` accounting shared by every
    /// full-rewrite commit path — [`Graph::patched`] and the `from_edges`
    /// rebuild report the *same* value for the same batch, keeping the
    /// differential oracles bit-identical — and the currency the segmented
    /// layout's per-segment write counts are compared against.
    pub fn full_rewrite_bytes(n: usize, m: usize) -> usize {
        8 * (n + 1) + 16 * m + 8 * m + 8 * m + 8 * n + 4 * m
    }

    /// Validates one patch list: strictly sorted normalized pairs in range,
    /// no self-loops, and membership matching `must_exist`.
    fn check_patch_list(
        &self,
        list: &[(Vertex, Vertex)],
        n: usize,
        must_exist: bool,
    ) -> Result<(), GraphError> {
        for (i, &(u, v)) in list.iter().enumerate() {
            check_pair(n, u, v)?;
            assert!(u < v, "patch pairs must be normalized (u < v)");
            if i > 0 {
                assert!(list[i - 1] < (u, v), "patch lists must be strictly sorted");
            }
            match (self.has_edge(u, v), must_exist) {
                (true, false) => return Err(GraphError::DuplicateEdge { u, v }),
                (false, true) => return Err(GraphError::MissingEdge { u, v }),
                _ => {}
            }
        }
        Ok(())
    }

    /// Breadth-first distances from `source` (`usize::MAX` for unreachable).
    pub fn bfs_distances(&self, source: Vertex) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        dist[source] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for u in self.neighbors(v) {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }
}

/// The builder's two-visit mirror linking, one slot at a time: the first
/// slot of an edge parks in `first_slot`, the second visit links the pair.
#[inline]
fn two_visit_link(mirror: &mut [u32], first_slot: &mut [u32], e: u32, s: usize) {
    let other = &mut first_slot[e as usize];
    if *other == u32::MAX {
        *other = s as u32;
    } else {
        mirror[s] = *other;
        mirror[*other as usize] = s as u32;
    }
}

/// First element common to two strictly sorted pair lists, if any.
fn sorted_intersect<'a>(
    a: &'a [(Vertex, Vertex)],
    b: &[(Vertex, Vertex)],
) -> Option<&'a (Vertex, Vertex)> {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return Some(&a[i]),
        }
    }
    None
}

/// Incremental builder for [`Graph`].
///
/// # Example
///
/// ```
/// use deco_graph::Graph;
///
/// let mut b = Graph::builder(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// let g = b.build()?;
/// assert_eq!(g.m(), 2);
/// # Ok::<(), deco_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> GraphBuilder {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range or the edge is a
    /// self-loop. Duplicates are detected at [`GraphBuilder::build`] time.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> Result<&mut Self, GraphError> {
        self.edges.push(check_pair(self.n, u, v)?);
        Ok(self)
    }

    /// Adds the edge if not already present; returns whether it was added.
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::add_edge`] for range and self-loop violations.
    pub fn add_edge_dedup(&mut self, u: Vertex, v: Vertex) -> Result<bool, GraphError> {
        let pair = check_pair(self.n, u, v)?;
        if self.edges.contains(&pair) {
            return Ok(false);
        }
        self.edges.push(pair);
        Ok(true)
    }

    /// Number of edges added so far (including any duplicates).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateEdge`] if the same undirected edge was
    /// added twice.
    pub fn build(&self) -> Result<Graph, GraphError> {
        let n = self.n;
        let mut edges = self.edges.clone();
        edges.sort_unstable();
        for w in edges.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge { u: w[0].0 as usize, v: w[0].1 as usize });
            }
        }
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![(0u32, 0u32); 2 * edges.len()];
        for (e, &(u, v)) in edges.iter().enumerate() {
            adj[cursor[u as usize]] = (v, e as u32);
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = (u, e as u32);
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        // Mirror table: the two slots of edge `e` point at each other. One
        // pass records the first slot seen per edge, the second visit links
        // the pair — O(m), no searching.
        assert!(adj.len() <= u32::MAX as usize, "graph too large for u32 slot indices");
        let mut mirror = vec![0u32; adj.len()];
        let mut first_slot = vec![u32::MAX; edges.len()];
        for (s, &(_, e)) in adj.iter().enumerate() {
            let other = &mut first_slot[e as usize];
            if *other == u32::MAX {
                *other = s as u32;
            } else {
                mirror[s] = *other;
                mirror[*other as usize] = s as u32;
            }
        }
        let max_degree = degree.iter().copied().max().unwrap_or(0);
        Ok(Graph { n, offsets, adj, edges, mirror, idents: (1..=n as u64).collect(), max_degree })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_square() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(g.ident(0), 1);
        assert_eq!(g.ident(3), 4);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]).unwrap_err(),
            GraphError::SelfLoop { vertex: 1 }
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 2, n: 2 }
        );
    }

    #[test]
    fn rejects_duplicate_even_reversed() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (1, 0)]).unwrap_err(),
            GraphError::DuplicateEdge { u: 0, v: 1 }
        );
    }

    #[test]
    fn edge_lookup() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (3, 4)]).unwrap();
        assert_eq!(g.edge_between(2, 0), Some(1));
        assert_eq!(g.edge_between(0, 3), None);
        assert_eq!(g.endpoints(2), (3, 4));
        assert_eq!(g.other_endpoint(2, 4), 3);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_endpoint_panics_for_non_incident() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        g.other_endpoint(0, 2);
    }

    #[test]
    fn induced_subgraph_keeps_idents() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (h, map) = g.induced(&[4, 0, 1]);
        assert_eq!(h.n(), 3);
        assert_eq!(map, vec![0, 1, 4]);
        assert_eq!(h.m(), 2); // edges (0,1) and (4,0)
        assert_eq!(h.ident(2), 5); // vertex 4 kept ident 5
    }

    #[test]
    fn edge_induced_keeps_exact_edges_and_idents() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        // Sorted edge list: 0=(0,1) 1=(0,5) 2=(1,2) 3=(2,3) 4=(3,4) 5=(4,5).
        let (h, vmap, emap) = g.edge_induced(&[4, 0, 4, 2]);
        assert_eq!(emap, vec![0, 2, 4]);
        assert_eq!(vmap, vec![0, 1, 2, 3, 4]);
        assert_eq!(h.m(), 3);
        // Subgraph edge i corresponds to host edge emap[i].
        for (i, &e) in emap.iter().enumerate() {
            let (u, v) = h.endpoints(i);
            assert_eq!((vmap[u], vmap[v]), g.endpoints(e));
        }
        // Sparse selection drops untouched vertices.
        let (h, vmap, emap) = g.edge_induced(&[1]);
        assert_eq!((h.n(), h.m()), (2, 1));
        assert_eq!(vmap, vec![0, 5]);
        assert_eq!(emap, vec![1]);
        assert_eq!(h.ident(1), g.ident(5));
        let (h, vmap, emap) = g.edge_induced(&[]);
        assert_eq!((h.n(), h.m()), (0, 0));
        assert!(vmap.is_empty() && emap.is_empty());
    }

    #[test]
    fn with_idents_validates() {
        let g = Graph::empty(3);
        assert!(g.clone().with_idents(vec![7, 8]).is_err());
        assert!(g.clone().with_idents(vec![7, 8, 7]).is_err());
        let g = g.with_idents(vec![30, 10, 20]).unwrap();
        assert_eq!(g.ident(0), 30);
    }

    #[test]
    fn components_and_bfs() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(g.component_count(), 3);
        let d = g.bfs_distances(0);
        assert_eq!(d[2], 2);
        assert_eq!(d[5], usize::MAX);
    }

    #[test]
    fn mirror_slots_are_involutive_and_consistent() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert_eq!(g.slot_count(), 2 * g.m());
        for v in 0..g.n() {
            for s in g.slots_of(v) {
                let u = g.slot_neighbor(s);
                let back = g.mirror_slot(s);
                // The mirror lives in u's range and points back at v.
                assert!(g.slots_of(u).contains(&back), "slot {s}: mirror {back} not owned by {u}");
                assert_eq!(g.slot_neighbor(back), v);
                assert_eq!(g.mirror_slot(back), s, "mirror is an involution");
                assert_eq!(g.slot_edge(back), g.slot_edge(s), "same undirected edge");
            }
        }
    }

    #[test]
    fn slots_sorted_by_neighbor() {
        let g = Graph::from_edges(6, &[(3, 1), (3, 5), (3, 0), (3, 2)]).unwrap();
        let nbrs: Vec<usize> = g.slots_of(3).map(|s| g.slot_neighbor(s)).collect();
        assert_eq!(nbrs, vec![0, 1, 2, 5]);
        assert_eq!(g.slot_offsets().len(), g.n() + 1);
        assert_eq!(g.slots_of(3).len(), g.degree(3));
    }

    /// Oracle for the delta-CSR: `patched` must equal the full rebuild.
    fn assert_patch_matches_rebuild(
        g: &Graph,
        ins: &[(Vertex, Vertex)],
        del: &[(Vertex, Vertex)],
        added: usize,
        idents: Vec<u64>,
    ) -> Graph {
        let (patched, origin) = g.patched(ins, del, added, idents.clone()).unwrap();
        let mut merged: Vec<(Vertex, Vertex)> = g
            .edges()
            .filter(|pair| del.binary_search(pair).is_err())
            .chain(ins.iter().copied())
            .collect();
        merged.sort_unstable();
        let rebuilt =
            Graph::from_edges(g.n() + added, &merged).unwrap().with_idents(idents).unwrap();
        assert_eq!(patched, rebuilt, "patched graph must be bit-identical to the rebuild");
        // The origin map is exactly the endpoint-pair matching.
        assert_eq!(origin.len(), patched.m());
        for (e, &src) in origin.iter().enumerate() {
            let pair = patched.endpoints(e);
            match g.edge_between(pair.0, pair.1) {
                Some(old_e) if del.binary_search(&pair).is_err() => {
                    assert_eq!(src as usize, old_e, "carried edge {pair:?}");
                }
                _ => assert_eq!(src, Graph::NO_EDGE_ORIGIN, "inserted edge {pair:?}"),
            }
        }
        patched
    }

    #[test]
    fn patched_matches_rebuild_small() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        // Pure insertions, pure deletions, mixed, vertex growth.
        assert_patch_matches_rebuild(&g, &[(0, 2), (1, 4)], &[], 0, (1..=6).collect());
        assert_patch_matches_rebuild(&g, &[], &[(0, 1), (4, 5)], 0, (1..=6).collect());
        assert_patch_matches_rebuild(&g, &[(1, 3)], &[(2, 3)], 0, (1..=6).collect());
        assert_patch_matches_rebuild(&g, &[(2, 6), (6, 7)], &[(0, 5)], 2, (1..=8).collect());
        // Empty delta is the identity.
        let same = assert_patch_matches_rebuild(&g, &[], &[], 0, (1..=6).collect());
        assert_eq!(same, g);
    }

    #[test]
    fn patched_with_custom_idents() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap().with_idents(vec![30, 10, 20]).unwrap();
        assert_patch_matches_rebuild(&g, &[(1, 2)], &[], 1, vec![30, 10, 20, 4]);
        // A changed-ident clash is caught...
        assert_eq!(
            g.patched(&[], &[], 1, vec![30, 10, 20, 10]).unwrap_err(),
            GraphError::DuplicateIdent { ident: 10 }
        );
        // ...and unchanged idents skip revalidation but stay intact.
        let (p, _) = g.patched(&[(0, 2)], &[], 0, vec![30, 10, 20]).unwrap();
        assert_eq!(p.idents(), &[30, 10, 20]);
    }

    #[test]
    fn patched_rejects_bad_deltas() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let id: Vec<u64> = (1..=4).collect();
        assert_eq!(
            g.patched(&[(0, 1)], &[], 0, id.clone()).unwrap_err(),
            GraphError::DuplicateEdge { u: 0, v: 1 }
        );
        assert_eq!(
            g.patched(&[], &[(0, 3)], 0, id.clone()).unwrap_err(),
            GraphError::MissingEdge { u: 0, v: 3 }
        );
        assert_eq!(
            g.patched(&[(0, 4)], &[], 0, id.clone()).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 4, n: 4 }
        );
        // A pair in both lists is ambiguous, not a replace.
        assert_eq!(
            g.patched(&[(0, 1)], &[(0, 1)], 0, id.clone()).unwrap_err(),
            GraphError::DuplicateEdge { u: 0, v: 1 }
        );
        assert_eq!(
            g.patched(&[], &[], 1, id).unwrap_err(),
            GraphError::BadIdentCount { got: 4, expected: 5 }
        );
    }

    #[test]
    fn patched_preserves_mirror_invariants() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]).unwrap();
        let (p, _) = g.patched(&[(0, 4), (1, 3)], &[(1, 2)], 0, (1..=5).collect()).unwrap();
        for v in 0..p.n() {
            for s in p.slots_of(v) {
                let u = p.slot_neighbor(s);
                let back = p.mirror_slot(s);
                assert!(p.slots_of(u).contains(&back));
                assert_eq!(p.slot_neighbor(back), v);
                assert_eq!(p.mirror_slot(back), s);
                assert_eq!(p.slot_edge(back), p.slot_edge(s));
            }
        }
    }

    #[test]
    fn dedup_builder() {
        let mut b = Graph::builder(3);
        assert!(b.add_edge_dedup(0, 1).unwrap());
        assert!(!b.add_edge_dedup(1, 0).unwrap());
        assert_eq!(b.build().unwrap().m(), 1);
    }
}
