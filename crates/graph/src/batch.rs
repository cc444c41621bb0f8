//! The mutation batch both graph stores queue into and commit from.
//!
//! [`crate::MutableGraph`] and [`crate::SegmentedGraph`] must accept or
//! reject the same batches with the same [`GraphError`]s and assign the
//! same default identifiers (`tests/delta_csr.rs` pins this), so the batch
//! rules live here once. A batch resolves one of two ways:
//! [`Batch::resolve`] runs a shrink-free batch through a sparse overlay in
//! O(batch), for both stores' ordinary commits; [`Batch::replay`] replays
//! in queue order against the materialized edge set and rebuilds from
//! scratch, for shrink batches and for the
//! [`crate::MutableGraph::commit_rebuild`] oracle, which never touches the
//! overlay and so stays an independent check of it.

use crate::{EdgeIdx, Graph, GraphError, Vertex};
// tidy: allow(hash-iter) — hash containers serve membership probes and
// per-pair overlay flags only; every iteration result is sorted before it
// can reach a delta or a graph.
use std::collections::{HashMap, HashSet};

/// One queued mutation; edge pairs are normalized (`u < v`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Insert(u32, u32),
    Delete(u32, u32),
    AddVertex,
    SetIdent(u32, u64),
    Shrink,
}

/// Queued, not-yet-committed operations, in queue order. Every queueing
/// method takes `n`, the store's committed vertex count.
#[derive(Debug, Clone, Default)]
pub(crate) struct Batch {
    ops: Vec<Op>,
    /// Vertices added by queued ops (so queued inserts can address them).
    added: usize,
}

/// A shrink-free batch resolved by [`Batch::resolve`].
pub(crate) struct Resolved {
    /// Net inserted pairs, normalized and sorted.
    pub(crate) inserted: Vec<(Vertex, Vertex)>,
    /// Net deleted pairs, normalized and sorted.
    pub(crate) deleted: Vec<(Vertex, Vertex)>,
    pub(crate) added_vertices: usize,
    /// The complete post-commit identifier vector (distinctness unchecked).
    pub(crate) idents: Vec<u64>,
    /// Identifier writes: one per added vertex and per override.
    pub(crate) ident_writes: usize,
}

/// A batch rebuilt by [`Batch::replay`].
pub(crate) struct Rebuilt {
    pub(crate) graph: Graph,
    /// Post-commit vertex to pre-commit index; `None` for added vertices.
    pub(crate) back: Vec<Option<Vertex>>,
    pub(crate) added_vertices: usize,
    /// Vertices removed by shrinks; nonzero exactly when the batch
    /// renumbered vertices.
    pub(crate) removed_vertices: usize,
}

/// A [`Rebuilt`] graph's edges matched back to the store it replaces.
pub(crate) struct Matched {
    /// For each rebuilt edge, the old edge id it continues, or
    /// [`Graph::NO_EDGE_ORIGIN`] for a net insertion.
    pub(crate) origin: Vec<u32>,
    /// Net inserted pairs in the post-commit numbering, sorted.
    pub(crate) inserted: Vec<(Vertex, Vertex)>,
    /// Old edges that did not survive, sorted by their pre-commit pair.
    pub(crate) deleted: Vec<(Vertex, Vertex)>,
    /// The old ids of `deleted`, aligned.
    pub(crate) freed: Vec<u32>,
}

/// Directed patch lists: `(owner, neighbor, edge id)` for both directions
/// of each inserted edge and `(owner, neighbor)` for both directions of
/// each deleted edge, sorted so that every touched vertex's additions and
/// removals form one contiguous window for a splice pass.
pub(crate) type PatchLists = (Vec<(u32, u32, u32)>, Vec<(u32, u32)>);

impl Batch {
    /// Number of queued operations.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Vertices the queued ops add.
    pub(crate) fn added(&self) -> usize {
        self.added
    }

    /// Whether the batch holds a shrink (and so must resolve by replay).
    pub(crate) fn has_shrink(&self) -> bool {
        self.ops.contains(&Op::Shrink)
    }

    /// Queues an edge insertion; existence is checked at commit time.
    pub(crate) fn insert(&mut self, n: usize, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        let (u, v) = check_pair(n + self.added, u, v)?;
        self.ops.push(Op::Insert(u, v));
        Ok(())
    }

    /// Queues an edge deletion; existence is checked at commit time.
    pub(crate) fn delete(&mut self, n: usize, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        let (u, v) = check_pair(n + self.added, u, v)?;
        self.ops.push(Op::Delete(u, v));
        Ok(())
    }

    /// Queues a vertex addition and returns its index.
    pub(crate) fn add_vertex(&mut self, n: usize) -> Vertex {
        self.ops.push(Op::AddVertex);
        self.added += 1;
        n + self.added - 1
    }

    /// Queues an identifier override; distinctness is checked at commit.
    pub(crate) fn set_ident(&mut self, n: usize, v: Vertex, ident: u64) -> Result<(), GraphError> {
        let n = n + self.added;
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        self.ops.push(Op::SetIdent(v as u32, ident));
        Ok(())
    }

    /// Queues a shrink compaction.
    pub(crate) fn shrink(&mut self) {
        self.ops.push(Op::Shrink);
    }

    /// Empties the batch, keeping the queue's allocation for the next one.
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.added = 0;
    }

    /// Resolves a shrink-free batch through a sparse overlay holding
    /// `(was, now)` existence per touched pair; `has_edge` probes the
    /// committed store. Errors in queue order: the first insert of a
    /// present edge or delete of an absent one. The caller checks
    /// identifier distinctness ([`check_idents`]).
    pub(crate) fn resolve(
        &self,
        idents: &[u64],
        has_edge: impl Fn(Vertex, Vertex) -> bool,
    ) -> Result<Resolved, GraphError> {
        // tidy: allow(hash-iter) — iterated once below, then both lists are
        // sorted (sort_unstable) before anything reads them.
        let mut overlay: HashMap<(u32, u32), (bool, bool)> = HashMap::new();
        let mut ids = IdentReplay::new(idents, self.added > 0);
        for &op in &self.ops {
            let (u, v, insert) = match op {
                Op::Insert(u, v) => (u, v, true),
                Op::Delete(u, v) => (u, v, false),
                Op::AddVertex => {
                    ids.add();
                    continue;
                }
                Op::SetIdent(v, ident) => {
                    ids.set(v as usize, ident);
                    continue;
                }
                // INVARIANT: both stores route shrink batches to `replay`.
                Op::Shrink => unreachable!("shrink batches resolve by replay"),
            };
            let slot = overlay.entry((u, v)).or_insert_with(|| {
                let was = has_edge(u as Vertex, v as Vertex);
                (was, was)
            });
            if slot.1 == insert {
                return Err(conflict(insert, u, v));
            }
            slot.1 = insert;
        }
        let (mut inserted, mut deleted) = (Vec::new(), Vec::new());
        for (&(u, v), &(was, now)) in &overlay {
            match (was, now) {
                (false, true) => inserted.push((u as Vertex, v as Vertex)),
                (true, false) => deleted.push((u as Vertex, v as Vertex)),
                _ => {}
            }
        }
        inserted.sort_unstable();
        deleted.sort_unstable();
        Ok(Resolved {
            inserted,
            deleted,
            added_vertices: self.added,
            idents: ids.idents,
            ident_writes: ids.writes,
        })
    }

    /// Replays the batch in queue order against the committed `edges` and
    /// rebuilds the graph with [`Graph::from_edges`] (`O(m log m)`). Queue
    /// order makes delete-then-reinsert legal and the last identifier
    /// override win, and gives each shrink a well-defined point: it drops
    /// the vertices isolated there and renumbers the survivors (order and
    /// identifiers kept). Later ops address the compacted numbering, so
    /// they are range-checked again here.
    pub(crate) fn replay(
        &self,
        n: usize,
        edges: impl Iterator<Item = (Vertex, Vertex)>,
        idents: &[u64],
    ) -> Result<Rebuilt, GraphError> {
        let mut n_cur = n;
        // tidy: allow(hash-iter) — membership probes during the replay; the
        // rebuilt edge list is sorted before `from_edges` sees it.
        let mut set: HashSet<(u32, u32)> = edges.map(|(u, v)| (u as u32, v as u32)).collect();
        let mut ids = IdentReplay::new(idents, self.added > 0);
        let mut back: Vec<Option<Vertex>> = (0..n).map(Some).collect();
        let mut removed_vertices = 0;
        for &op in &self.ops {
            match op {
                Op::Insert(u, v) => {
                    check_cur_pair(u, v, n_cur)?;
                    if !set.insert((u, v)) {
                        return Err(conflict(true, u, v));
                    }
                }
                Op::Delete(u, v) => {
                    check_cur_pair(u, v, n_cur)?;
                    if !set.remove(&(u, v)) {
                        return Err(conflict(false, u, v));
                    }
                }
                Op::AddVertex => {
                    ids.add();
                    back.push(None);
                    n_cur += 1;
                }
                Op::SetIdent(v, ident) => {
                    if v as usize >= n_cur {
                        return Err(GraphError::VertexOutOfRange { vertex: v as usize, n: n_cur });
                    }
                    ids.set(v as usize, ident);
                }
                Op::Shrink => {
                    let mut connected = vec![false; n_cur];
                    for &(u, v) in &set {
                        connected[u as usize] = true;
                        connected[v as usize] = true;
                    }
                    let keep: Vec<usize> = (0..n_cur).filter(|&v| connected[v]).collect();
                    if keep.len() == n_cur {
                        continue;
                    }
                    let mut remap = vec![u32::MAX; n_cur];
                    for (new, &old) in keep.iter().enumerate() {
                        remap[old] = new as u32;
                    }
                    // The remap is monotone, so pairs stay normalized.
                    set =
                        set.iter().map(|&(u, v)| (remap[u as usize], remap[v as usize])).collect();
                    ids.idents = keep.iter().map(|&v| ids.idents[v]).collect();
                    back = keep.iter().map(|&v| back[v]).collect();
                    removed_vertices += n_cur - keep.len();
                    n_cur = keep.len();
                }
            }
        }
        let mut edges: Vec<(Vertex, Vertex)> =
            set.into_iter().map(|(u, v)| (u as Vertex, v as Vertex)).collect();
        edges.sort_unstable();
        let graph = Graph::from_edges(n_cur, &edges)?.with_idents(ids.idents)?;
        Ok(Rebuilt { graph, back, added_vertices: self.added, removed_vertices })
    }
}

impl Rebuilt {
    /// Matches each rebuilt edge back to the old store through the vertex
    /// map. `old_edges` lists the old store's live `(id, pair)`s, all ids
    /// below `old_bound`, and `edge_between` looks up an old pair's id.
    pub(crate) fn match_back(
        &self,
        old_bound: usize,
        old_edges: impl Iterator<Item = (EdgeIdx, (Vertex, Vertex))>,
        edge_between: impl Fn(Vertex, Vertex) -> Option<EdgeIdx>,
    ) -> Matched {
        let mut origin = vec![Graph::NO_EDGE_ORIGIN; self.graph.m()];
        let mut survived = vec![false; old_bound];
        let mut inserted = Vec::new();
        for (e, (u, v)) in self.graph.edges().enumerate() {
            let carried = match (self.back[u], self.back[v]) {
                (Some(bu), Some(bv)) => edge_between(bu, bv),
                _ => None,
            };
            match carried {
                Some(old) => {
                    origin[e] = old as u32;
                    survived[old] = true;
                }
                None => inserted.push((u, v)),
            }
        }
        let mut gone: Vec<((Vertex, Vertex), u32)> = old_edges
            .filter(|&(id, _)| !survived[id])
            .map(|(id, pair)| (pair, id as u32))
            .collect();
        gone.sort_unstable();
        let (deleted, freed) = gone.into_iter().unzip();
        Matched { origin, inserted, deleted, freed }
    }
}

/// Identifiers replayed in queue order, last override winning. A batch
/// that adds vertices pays one O(n) set build so that defaults skip
/// identifiers in use: after a shrink the survivors keep their (higher)
/// identifiers, so a plain `index + 1` default would clash and spuriously
/// fail the commit. Values claimed in a batch stay claimed even if a
/// shrink removes their vertex; they are free again from the next batch.
struct IdentReplay {
    idents: Vec<u64>,
    // tidy: allow(hash-iter) — membership probes only; candidate
    // identifiers come from the deterministic `index + 1` walk.
    used: Option<HashSet<u64>>,
    writes: usize,
}

impl IdentReplay {
    fn new(idents: &[u64], adds: bool) -> IdentReplay {
        let used = adds.then(|| idents.iter().copied().collect());
        IdentReplay { idents: idents.to_vec(), used, writes: 0 }
    }

    /// Appends a vertex with the default identifier: the smallest value
    /// `>= index + 1` not claimed yet.
    fn add(&mut self) {
        // INVARIANT: `used` exists whenever the batch adds vertices.
        let used = self.used.as_mut().expect("adds imply the set exists");
        let mut c = self.idents.len() as u64 + 1;
        while !used.insert(c) {
            c += 1;
        }
        self.idents.push(c);
        self.writes += 1;
    }

    fn set(&mut self, v: usize, ident: u64) {
        if let Some(used) = self.used.as_mut() {
            used.insert(ident);
        }
        self.idents[v] = ident;
        self.writes += 1;
    }
}

/// Revalidates identifier distinctness where `new` differs from `old`
/// (unchanged identifiers are distinct by the store's invariant), reporting
/// the first duplicate in sorted order.
pub(crate) fn check_idents(old: &[u64], new: &[u64]) -> Result<(), GraphError> {
    if new != old {
        let mut sorted = new.to_vec();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateIdent { ident: w[0] });
        }
    }
    Ok(())
}

/// Builds the [`PatchLists`] of a delta; `ids` is aligned with `inserted`.
pub(crate) fn patch_lists(
    inserted: &[(Vertex, Vertex)],
    ids: &[u32],
    deleted: &[(Vertex, Vertex)],
) -> PatchLists {
    let mut add: Vec<(u32, u32, u32)> = Vec::with_capacity(2 * inserted.len());
    for (&(u, v), &id) in inserted.iter().zip(ids) {
        add.push((u as u32, v as u32, id));
        add.push((v as u32, u as u32, id));
    }
    add.sort_unstable();
    let mut del: Vec<(u32, u32)> = Vec::with_capacity(2 * deleted.len());
    for &(u, v) in deleted {
        del.push((u as u32, v as u32));
        del.push((v as u32, u as u32));
    }
    del.sort_unstable();
    (add, del)
}

/// The edge rule of a simple graph on `n` vertices: both endpoints in
/// range, no self-loop. Returns the normalized pair. Queue time checks
/// against the post-batch count; the graph builder checks with it too.
pub(crate) fn check_pair(n: usize, u: Vertex, v: Vertex) -> Result<(u32, u32), GraphError> {
    for w in [u, v] {
        if w >= n {
            return Err(GraphError::VertexOutOfRange { vertex: w, n });
        }
    }
    if u == v {
        return Err(GraphError::SelfLoop { vertex: u });
    }
    Ok((u.min(v) as u32, u.max(v) as u32))
}

/// The error for inserting a present edge (`insert`) or deleting an absent
/// one.
fn conflict(insert: bool, u: u32, v: u32) -> GraphError {
    let (u, v) = (u as usize, v as usize);
    if insert {
        GraphError::DuplicateEdge { u, v }
    } else {
        GraphError::MissingEdge { u, v }
    }
}

/// Range check against the *current* vertex count during replay. Without
/// shrinks it never fires (queue time checked against the post-batch
/// count); after a shrink, later ops may address compacted-away indices.
fn check_cur_pair(u: u32, v: u32, n_cur: usize) -> Result<(), GraphError> {
    for w in [u, v] {
        if (w as usize) >= n_cur {
            return Err(GraphError::VertexOutOfRange { vertex: w as usize, n: n_cur });
        }
    }
    Ok(())
}
