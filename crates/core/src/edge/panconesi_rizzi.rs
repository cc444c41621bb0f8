//! The Panconesi–Rizzi `(2Δ-1)`-edge-coloring \[24\] in `O(Δ) + log* n`
//! rounds.
//!
//! 1. **Decompose** the edges into at most `Δ` rooted pseudo-forests: every
//!    vertex sorts its neighbors with smaller identifier; its `f`-th such
//!    edge joins forest `f` (each vertex has at most one parent edge per
//!    forest).
//! 2. **3-color** the vertices of every forest in parallel with
//!    Cole–Vishkin ([`crate::cole_vishkin`], `O(log* n)` rounds).
//! 3. **Assign**: for each forest `f` and color class `j`, every parent
//!    whose forest-`f` color is `j` colors *all its child edges* in forest
//!    `f`, avoiding the colors already used at either endpoint — children
//!    first report their used sets, then the parent replies with
//!    assignments, 2 rounds per `(f, j)` step, `6Δ` rounds total. Two
//!    simultaneous assigners never touch incident edges because adjacent
//!    forest vertices have different Cole–Vishkin colors.
//!
//! Every edge needs to avoid at most `2Δ - 2` previously colored incident
//! edges, so the palette `{0, ..., 2Δ-2}` always has a free color.
//!
//! The implementation is group-aware: the edge variant of Procedure
//! Legal-Color (Theorem 5.5) runs it on all classes of its final edge
//! partition **in parallel**, each class on its own `(2Λ̂-1)`-color palette —
//! this is the bottom level of the recursion (Algorithm 2, line 2).

use crate::cole_vishkin::cv_three_color;
use crate::msg::FieldMsg;
use crate::pipeline::{merge_edge_replicas, Pipeline};
use deco_graph::coloring::EdgeColoring;
use deco_graph::{EdgeIdx, Graph, Vertex};
use deco_local::{Action, Network, NodeCtx, Protocol, RunStats};
use std::collections::BTreeMap;

const TAG_CV: u64 = 0;
const TAG_REQUEST: u64 = 1;
const TAG_ASSIGN: u64 = 2;

#[derive(Debug, Clone)]
struct AEdge {
    nbr: Vertex,
    eid: EdgeIdx,
    branch: u64,
    forest: u64,
    fid: u64,
    i_am_parent: bool,
    parent_cv: Option<u64>,
    color: Option<u64>,
}

#[derive(Debug)]
struct PrAssign {
    /// `(forest id, CV color)` of every forest this node holds a slot in,
    /// sorted by forest id (Cole–Vishkin's output, taken by move).
    my_cv: Vec<(u64, u64)>,
    aedges: Vec<AEdge>,
    /// Child-edge indices sorted by `(forest, parent CV color)` — the order
    /// the `(f, j)` steps consume them in. Built once when all parent colors
    /// are known; `child_cursor` then advances monotonically, so a request
    /// round touches only its own step's edges instead of scanning every
    /// incident edge (the `O(deg)` sweep that made the long tail of the
    /// assignment phase protocol-bound).
    child_order: Vec<u32>,
    child_cursor: usize,
    w_cap: u64,
    palette: u64,
    /// Halt at each node's own last relevant `(f, j)` step instead of the
    /// worst-case `2 + 6W` schedule (see [`deco_local::Network::early_halt`];
    /// results are bit-identical either way, only round counts move).
    early_halt: bool,
    /// The last round this node can receive anything relevant — computed in
    /// round 2, once every incident edge's `(forest, CV color)` step is
    /// known. 0 until then.
    halt_after: usize,
    /// Reusable buffers: the per-request forbidden set, the request list
    /// (inbox indices) and the request-message fields. Steady sizes after
    /// the first use, so answering and issuing requests allocates nothing
    /// beyond the messages' own spill spans.
    forbidden_scratch: Vec<u64>,
    request_scratch: Vec<u32>,
    fields_scratch: Vec<u64>,
}

impl PrAssign {
    /// This node's CV color in forest `fid`, which it parents.
    fn cv_of(&self, fid: u64) -> u64 {
        let i = self
            .my_cv
            .binary_search_by_key(&fid, |&(f, _)| f)
            // INVARIANT: my_cv is filled for every forest this node parents before coloring begins.
            .expect("parent has a CV color per forest");
        self.my_cv[i].1
    }

    fn edge_by_nbr(&mut self, nbr: Vertex) -> &mut AEdge {
        // INVARIANT: the transport delivers only along host edges, so the sender is always incident.
        self.aedges.iter_mut().find(|e| e.nbr == nbr).expect("message from non-incident sender")
    }

    fn process_inbox(&mut self, inbox: &[(Vertex, FieldMsg)]) -> Vec<(Vertex, FieldMsg)> {
        // Requests are collected and answered after recording CV colors and
        // assignments.
        let mut requests = std::mem::take(&mut self.request_scratch);
        requests.clear();
        for (i, (sender, m)) in inbox.iter().enumerate() {
            match m.field(0) {
                TAG_CV => {
                    self.edge_by_nbr(*sender).parent_cv = Some(m.field(1));
                }
                TAG_ASSIGN => {
                    let e = self.edge_by_nbr(*sender);
                    debug_assert!(!e.i_am_parent);
                    e.color = Some(m.field(1));
                }
                TAG_REQUEST => {
                    requests.push(i as u32);
                }
                // INVARIANT: peers in this protocol emit only the tags matched above; an unknown tag is a wire bug worth aborting on.
                tag => unreachable!("unknown tag {tag}"),
            }
        }
        if requests.is_empty() {
            self.request_scratch = requests;
            return Vec::new();
        }
        // Deterministic order: by child vertex index (senders are distinct).
        requests.sort_by_key(|&i| inbox[i as usize].0);
        let mut replies = Vec::with_capacity(requests.len());
        let mut forbidden = std::mem::take(&mut self.forbidden_scratch);
        for &i in &requests {
            let (sender, msg) = &inbox[i as usize];
            let branch = {
                let e = self.edge_by_nbr(*sender);
                debug_assert!(e.i_am_parent, "request arrived at the child endpoint");
                e.branch
            };
            // Colors already used on the branch at this endpoint — including
            // the ones assigned to earlier requests of this very round, which
            // were recorded in `aedges` as they were answered — plus the
            // child's used set from the request payload.
            forbidden.clear();
            forbidden
                .extend(self.aedges.iter().filter(|e| e.branch == branch).filter_map(|e| e.color));
            forbidden.extend_from_slice(&msg.fields()[1..]);
            let color = (0..self.palette)
                .find(|c| !forbidden.contains(c))
                // INVARIANT: each endpoint blocks at most W-1 colors, so a (2W-1)-palette retains a free one.
                .expect("palette 2W-1 always has a free color");
            let e = self.edge_by_nbr(*sender);
            e.color = Some(color);
            replies.push((*sender, FieldMsg::new(&[(TAG_ASSIGN, 3), (color, self.palette)])));
        }
        self.forbidden_scratch = forbidden;
        self.request_scratch = requests;
        replies
    }

    /// The round after which nothing relevant can reach this node: for a
    /// child edge of step `s = 3f + j` the assignment arrives in round
    /// `4 + 2s` (request out in `2 + 2s`, reply back one round later); for
    /// a parent edge the last request arrives in round `3 + 2s`, and the
    /// reply rides on the halt action of that same round. Each node knows
    /// every incident edge's step locally — `f` is the edge's φ-rank in the
    /// forest decomposition and `j` the parent's CV color (own for parent
    /// edges, announced in round 1 for child edges) — so the node halts the
    /// round its last step completes instead of idling to the global
    /// `2 + 6W` bound.
    fn last_relevant_round(&self) -> usize {
        let mut last = 0usize;
        for e in &self.aedges {
            let (j, due) = if e.i_am_parent {
                (self.cv_of(e.fid), 3)
            } else {
                // INVARIANT: round 1 delivers the parent's CV color before any later round reads it.
                (e.parent_cv.expect("parent CV color arrives in round 1"), 4)
            };
            last = last.max(due + 2 * (3 * e.forest + j) as usize);
        }
        last
    }
}

impl Protocol for PrAssign {
    type Msg = FieldMsg;
    type Output = Vec<(EdgeIdx, u64)>;

    fn start(&mut self, _ctx: &NodeCtx<'_>) -> Vec<(Vertex, FieldMsg)> {
        // Parents announce their forest color over each child edge.
        let mut out = Vec::new();
        for e in &self.aedges {
            if e.i_am_parent {
                let cv = self.cv_of(e.fid);
                out.push((e.nbr, FieldMsg::new(&[(TAG_CV, 3), (cv, 3)])));
            }
        }
        out
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, FieldMsg)]) -> Action<FieldMsg> {
        let mut out = self.process_inbox(inbox);
        let steps = 3 * self.w_cap as usize;
        if !self.early_halt && ctx.round >= 2 + 2 * steps {
            debug_assert!(self.aedges.iter().all(|e| e.color.is_some()));
            return Action::Halt(out);
        }
        if ctx.round >= 2 && ctx.round % 2 == 0 {
            if ctx.round == 2 {
                // All parent CV colors arrived in round 1; lay the child
                // edges out in step order. The stable sort keeps same-step
                // edges in incident (neighbor-sorted) order.
                let mut order: Vec<u32> = (0..self.aedges.len() as u32)
                    .filter(|&i| !self.aedges[i as usize].i_am_parent)
                    .collect();
                order.sort_by_key(|&i| {
                    let e = &self.aedges[i as usize];
                    // INVARIANT: round 1 delivers the parent's CV color before any later round reads it.
                    (e.forest, e.parent_cv.expect("parent CV color arrives in round 1"))
                });
                self.child_order = order;
                if self.early_halt {
                    self.halt_after = self.last_relevant_round();
                }
            }
            // Request round for step s = (round - 2) / 2: consume exactly
            // this step's children (each child edge is requested once, at
            // its own step, so the cursor only ever moves forward).
            let s = (ctx.round - 2) / 2;
            let step_key = ((s / 3) as u64, (s % 3) as u64);
            let mut fields = std::mem::take(&mut self.fields_scratch);
            while let Some(&i) = self.child_order.get(self.child_cursor) {
                let e = &self.aedges[i as usize];
                // INVARIANT: parent_cv was populated in round 1, before the ordering phase runs.
                let key = (e.forest, e.parent_cv.expect("set before ordering"));
                if key > step_key {
                    break; // a later step's edge; this step is done
                }
                self.child_cursor += 1;
                if key < step_key || e.color.is_some() {
                    continue; // defensive: never happens for a valid CV coloring
                }
                let (branch, nbr) = (e.branch, e.nbr);
                fields.clear();
                fields.push(TAG_REQUEST);
                fields.extend(
                    self.aedges.iter().filter(|e| e.branch == branch).filter_map(|e| e.color),
                );
                // Wire format: a used-color bitmap of `palette` bits.
                out.push((nbr, FieldMsg::with_bits(&fields, 2 + self.palette as usize)));
            }
            self.fields_scratch = fields;
        }
        if self.aedges.is_empty() {
            return Action::halt();
        }
        if self.early_halt && ctx.round >= 2 && ctx.round >= self.halt_after {
            // Everything this node can still receive is in; everything it
            // owes (this round's replies) rides on the halt action.
            debug_assert!(self.aedges.iter().all(|e| e.color.is_some()));
            return Action::Halt(out);
        }
        Action::Continue(out)
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> Vec<(EdgeIdx, u64)> {
        // INVARIANT: the run loop halts only once every element is decided, so the Option is always Some.
        self.aedges.into_iter().map(|e| (e.eid, e.color.expect("all edges colored"))).collect()
    }
}

/// Per-edge `(fid = branch·w_cap + f, parent)` spec plus `(branch, f)`
/// parts, as produced by [`forest_spec`].
type ForestSpec = (Vec<(u64, Vertex)>, Vec<(u64, u64)>);

/// The pseudo-forest decomposition: edge `e` joins forest
/// `(branch, f)` where `f` is `e`'s rank among the child endpoint's
/// same-branch edges toward smaller identifiers. Returns
/// `(fid = branch·w_cap + f, parent)` per edge, plus `(branch, f)` parts.
fn forest_spec(g: &Graph, edge_groups: &[u64], w_cap: u64) -> ForestSpec {
    let mut spec = vec![(0u64, 0usize); g.m()];
    let mut parts = vec![(0u64, 0u64); g.m()];
    for v in 0..g.n() {
        // v's parent edges: neighbors with smaller ident, grouped by branch.
        let mut by_branch: BTreeMap<u64, Vec<(u64, Vertex, EdgeIdx)>> = BTreeMap::new();
        for (u, e) in g.incident(v) {
            if g.ident(u) < g.ident(v) {
                by_branch.entry(edge_groups[e]).or_default().push((g.ident(u), u, e));
            }
        }
        for (branch, mut parents) in by_branch {
            parents.sort_unstable();
            assert!(
                parents.len() as u64 <= w_cap,
                "vertex {v} has {} same-branch out-edges > W = {w_cap}",
                parents.len()
            );
            for (f, &(_, u, e)) in parents.iter().enumerate() {
                spec[e] = (branch * w_cap + f as u64, u);
                parts[e] = (branch, f as u64);
            }
        }
    }
    (spec, parts)
}

/// Panconesi–Rizzi on every class of an edge partition in parallel: a legal
/// `(2W-1)`-edge-coloring *within every class*, where `w_cap = W` bounds the
/// number of same-class edges at any vertex.
///
/// Returns per-edge colors in `{0, ..., 2W-2}` (class-local palettes; add
/// `branch·(2W-1)` for globally disjoint palettes) and the statistics
/// (`O(W) + log* n` rounds).
///
/// # Panics
///
/// Panics if some vertex has more than `w_cap` same-class edges.
pub fn pr_edge_color_in_groups(
    net: &Network<'_>,
    edge_groups: &[u64],
    w_cap: u64,
) -> (Vec<u64>, RunStats) {
    let g = net.graph();
    assert_eq!(edge_groups.len(), g.m(), "one group per edge");
    if g.m() == 0 {
        return (Vec::new(), RunStats::zero());
    }
    let w_cap = w_cap.max(1);
    let (spec, parts) = forest_spec(g, edge_groups, w_cap);
    let mut pl = Pipeline::new(net);
    let (mut cv_colors, stats1) = cv_three_color(net, &spec);
    pl.absorb("cole-vishkin-forests", stats1);

    let outputs = pl.run("pr-assign", |ctx| {
        let v = ctx.vertex;
        let aedges: Vec<AEdge> = g
            .incident(v)
            .map(|(nbr, e)| {
                let (fid, parent) = spec[e];
                let (branch, forest) = parts[e];
                AEdge {
                    nbr,
                    eid: e,
                    branch,
                    forest,
                    fid,
                    i_am_parent: parent == v,
                    parent_cv: None,
                    color: None,
                }
            })
            .collect();
        PrAssign {
            my_cv: std::mem::take(&mut cv_colors[v]),
            aedges,
            child_order: Vec::new(),
            child_cursor: 0,
            w_cap,
            palette: 2 * w_cap - 1,
            early_halt: net.early_halt(),
            halt_after: 0,
            forbidden_scratch: Vec::new(),
            request_scratch: Vec::new(),
            fields_scratch: Vec::new(),
        }
    });

    let colors = merge_edge_replicas(g.m(), &outputs, "color");
    (colors, pl.into_stats())
}

/// The plain Panconesi–Rizzi algorithm: a legal `(2Δ-1)`-edge-coloring of
/// the whole graph in `O(Δ) + O(log* n)` rounds. This is the deterministic
/// baseline of Tables 1 and 2.
///
/// # Example
///
/// ```
/// use deco_core::edge::panconesi_rizzi::pr_edge_color;
/// use deco_graph::generators;
///
/// let g = generators::random_bounded_degree(100, 6, 1);
/// let (coloring, stats) = pr_edge_color(&g);
/// assert!(coloring.is_proper(&g));
/// assert!(coloring.palette_size() <= 2 * g.max_degree() - 1);
/// # let _ = stats;
/// ```
pub fn pr_edge_color(g: &Graph) -> (EdgeColoring, RunStats) {
    let net = Network::new(g);
    let groups = vec![0u64; g.m()];
    let (colors, stats) = pr_edge_color_in_groups(&net, &groups, g.max_degree() as u64);
    (EdgeColoring::new(colors), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cole_vishkin::cv_rounds;
    use deco_graph::generators;

    #[test]
    fn proper_2delta_minus_1_on_families() {
        for g in [
            generators::complete(8),
            generators::petersen(),
            generators::star(10),
            generators::cycle(13),
            generators::random_bounded_degree(90, 7, 41),
            generators::clique_with_pendants(7),
        ] {
            let (coloring, stats) = pr_edge_color(&g);
            assert!(coloring.is_proper(&g), "PR output must be proper");
            let delta = g.max_degree() as u64;
            assert!(
                (coloring.palette_size() as u64) < 2 * delta,
                "palette {} > 2Δ-1 = {}",
                coloring.palette_size(),
                2 * delta - 1
            );
            // O(Δ) + log* n with explicit constants: CV + 6Δ + 3.
            let bound = cv_rounds(g.n() as u64) + 6 * delta as usize + 4;
            assert!(stats.rounds <= bound, "rounds {} > {bound}", stats.rounds);
        }
    }

    #[test]
    fn rounds_scale_linearly_in_delta() {
        // Fixed n, growing Δ: PR rounds must grow linearly — the Table 1
        // contrast against the paper's O(log Δ) algorithm.
        let r8 = pr_edge_color(&generators::random_bounded_degree(256, 8, 5)).1.rounds;
        let r32 = pr_edge_color(&generators::random_bounded_degree(256, 32, 5)).1.rounds;
        assert!(r32 > r8 + 2 * (32 - 8), "expected ~6Δ growth: {r8} -> {r32}");
    }

    #[test]
    fn grouped_pr_stays_within_class_palettes() {
        let g = generators::random_bounded_degree(60, 8, 17);
        let net = Network::new(&g);
        // Arbitrary 2-class split; W = Δ is a valid per-class bound.
        let groups: Vec<u64> = (0..g.m()).map(|e| (e % 2) as u64).collect();
        let w = g.max_degree() as u64;
        let (colors, _) = pr_edge_color_in_groups(&net, &groups, w);
        for &c in &colors {
            assert!(c < 2 * w - 1);
        }
        // Properness within each class.
        for v in 0..g.n() {
            let mut seen: Vec<(u64, u64)> =
                g.incident(v).map(|(_, e)| (groups[e], colors[e])).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(
                seen.len(),
                g.degree(v),
                "same-class incident edges share a color at vertex {v}"
            );
        }
    }

    #[test]
    fn single_edge() {
        let g = deco_graph::Graph::from_edges(2, &[(0, 1)]).unwrap();
        let (coloring, _) = pr_edge_color(&g);
        assert!(coloring.is_proper(&g));
        assert_eq!(coloring.palette_size(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = deco_graph::Graph::empty(3);
        let (coloring, stats) = pr_edge_color(&g);
        assert!(coloring.is_empty());
        assert_eq!(stats.rounds, 0);
    }
}
