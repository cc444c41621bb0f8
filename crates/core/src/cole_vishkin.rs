//! Cole–Vishkin 3-coloring of rooted pseudo-forests in `O(log* n)` rounds.
//!
//! The Panconesi–Rizzi edge-coloring algorithm \[24\] decomposes the edge set
//! into rooted pseudo-forests (every vertex has at most one parent edge per
//! forest) and 3-colors each forest's vertices to schedule edge-color
//! assignments. This module implements the classic two-stage procedure:
//!
//! 1. **bit reduction**: each vertex repeatedly recolors itself with
//!    `2i + bit_i`, where `i` is the lowest bit position at which its color
//!    differs from its parent's (roots use a fake parent differing in bit 0);
//!    the palette shrinks to 6 in `O(log* n)` rounds;
//! 2. **shift-down + recolor**: for each color class `q ∈ {5, 4, 3}`, every
//!    vertex first adopts its parent's color (making all its children
//!    monochromatic), then class-`q` vertices pick a free color in
//!    `{0, 1, 2}` — their parent and children each block one color.
//!
//! All forests are processed **in parallel**: every edge belongs to exactly
//! one forest, so each parent→child message carries a single color and
//! messages stay `O(log n)` bits.
//!
//! # Silent roots
//!
//! A root's trajectory depends only on its own identifier: bit reduction
//! against the fake parent keeps only the low bit of its initial color,
//! each shift-down moves it to the smallest color in `{0, 1, 2}` other than
//! its own, and it never holds a recolor class `q ≥ 3`. So roots send
//! nothing. A child that hears nothing from its parent in round 0 knows the
//! parent is a root. It then steps a *shadow* of the root in lockstep with
//! itself, seeded from the root's identifier in
//! [`NodeCtx::neighbor_idents`]. A child's color after round `r` depends only
//! on its own state and its parent's color after round `r − 1`, which is
//! exactly what the shadow supplies. A child of a root that has children of
//! its own keeps sending its per-round colors; deeper slots run the classic
//! rounds unchanged.
//!
//! **Message subset.** Every message this protocol sends is one the classic
//! full-schedule protocol sends, in the same round, with the same fields and
//! bits; only the roots' messages are gone. Colors are therefore
//! bit-identical to the classic protocol, and no round, node-round, message
//! or bit counter can rise. A test-only copy of the classic protocol is the
//! differential oracle.
//!
//! **Early halting.** A node is *settled* once every slot it holds is a
//! root or a child of a root and none of those children has children: it
//! then neither needs nor owes per-round colors. In round 1 a settled node
//! fast-forwards its slots and shadows to the last round. Under
//! [`Network::early_halt`] it halts right away; with early halting off it
//! idles to the last round, sending the same (no) messages.
//!
//! **Precondition: a perfect transport.** Silence is a signal only when no
//! message can be lost or delayed. Every caller in the workspace runs on
//! one, `deco-stream` included: its fault-free repair branch and its
//! in-process from-scratch recolor. Repairs over a faulty transport use the
//! loss-tolerant finalize instead.
//!
//! **Identifier domain.** A slot's initial color is its identifier minus
//! one, wrapping, so identifier 0 starts at `u64::MAX`. The schedule's
//! palettes span `max(n, max identifier)` (saturating): identifiers above
//! `n` lengthen the bit reduction instead of leaving colors of 3 or more
//! behind. Identifiers within `1..=n` keep the schedule of
//! [`cv_rounds`]`(n)`.
//!
//! The slot structure is built once per run into flat tables shared by
//! every node; a node owns only its slots' state.

use crate::msg::FieldMsg;
use crate::pipeline::Pipeline;
use deco_graph::{Graph, Vertex};
use deco_local::{bits_for_range, Action, Network, NodeCtx, Protocol, RunStats, SharedConfig};

/// The bit-reduction schedule: the palette after each round, ending at 6.
fn cv_palettes(n: u64) -> Vec<u64> {
    let mut palettes = Vec::new();
    let mut m = n.max(1);
    while m > 6 {
        m = 2 * bits_for_range(m) as u64;
        palettes.push(m.max(6));
    }
    palettes
}

/// Total rounds of [`cv_three_color`] when every identifier lies in
/// `1..=n`: bit-reduction steps plus the nine shift-down/sync/recolor
/// rounds. This is a bound: an early-halting run whose nodes all settle
/// ends in round 1 (see the module docs).
pub fn cv_rounds(n: u64) -> usize {
    cv_palettes(n).len() + 9
}

/// The schedule's color domain: `n`, or more if an initial color
/// `ident − 1` (wrapping) lies at or above it.
fn cv_domain(g: &Graph) -> u64 {
    g.idents().iter().fold(g.n() as u64, |d, &id| d.max(id.wrapping_sub(1).saturating_add(1)))
}

/// Lowest bit position at which `a` and `b` differ.
fn lowest_differing_bit(a: u64, b: u64) -> u32 {
    debug_assert_ne!(a, b, "colors must differ from parent");
    (a ^ b).trailing_zeros()
}

/// What one round of the schedule does.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Bit reduction against the parent's color.
    Reduce,
    /// Adopt the parent's color; roots move within `{0, 1, 2}`.
    ShiftDown,
    /// Colors are re-sent; nothing changes.
    Sync,
    /// Class `q` recolors into `{0, 1, 2}`.
    Recolor(u64),
}

/// Round `r` of a schedule with `s` bit-reduction rounds: then, per class
/// `q = 5, 4, 3`, shift-down, sync and recolor.
fn step_of(r: usize, s: usize) -> Step {
    if r <= s {
        return Step::Reduce;
    }
    let step = r - s - 1; // 0..9
    match step % 3 {
        0 => Step::ShiftDown,
        1 => Step::Sync,
        _ => Step::Recolor(5 - (step / 3) as u64),
    }
}

/// A root's color after a round, from its color before it. The fake parent
/// differs in bit 0, so bit reduction keeps bit 0; shift-down takes the
/// smallest color in `{0, 1, 2}` other than the root's own. From the first
/// shift-down on the color is 0 or 1, so no recolor class `q ≥ 3` matches.
fn root_next(color: u64, step: Step) -> u64 {
    match step {
        Step::Reduce => color & 1,
        Step::ShiftDown => u64::from(color == 0),
        Step::Sync | Step::Recolor(_) => color,
    }
}

/// How a slot learns its parent's per-round colors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// No parent edge in this forest.
    Root,
    /// The parent was silent in round 0, so it is a root: the slot steps a
    /// shadow of it. Every non-root slot starts here.
    Shadow,
    /// The parent sends its color every round.
    Deep,
}

/// One forest slot of a node: O(1) words.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    color: u64,
    /// Our color before the current shift-down: the (uniform) color of all
    /// our children during the recolor step.
    pre_shift: u64,
    /// The parent's color after the previous round: received (a deep slot)
    /// or stepped locally (a shadow). Unused for roots.
    parent_color: u64,
    kind: Kind,
}

impl SlotState {
    /// Steps the slot through one round, then its shadow root if it has one.
    fn advance(&mut self, step: Step) {
        if self.kind == Kind::Root {
            self.color = root_next(self.color, step);
            return;
        }
        let parent = self.parent_color;
        match step {
            Step::Reduce => {
                let i = lowest_differing_bit(self.color, parent);
                self.color = 2 * i as u64 + ((self.color >> i) & 1);
            }
            Step::ShiftDown => {
                self.pre_shift = self.color;
                self.color = parent;
            }
            Step::Sync => {}
            Step::Recolor(q) => {
                // The parent's current color and the children's (uniform)
                // color — our pre-shift color — each block one choice.
                if self.color == q {
                    self.color = (0..3)
                        .find(|&c| c != parent && c != self.pre_shift)
                        // INVARIANT: at most two colors are blocked, so {0,1,2} retains a free one.
                        .expect("two blockers leave a free color in {0,1,2}");
                }
            }
        }
        if self.kind == Kind::Shadow {
            self.parent_color = root_next(parent, step);
        }
    }
}

/// `SlotSpec::parent` of a root slot.
const NO_PARENT: u32 = u32::MAX;

/// One forest slot of the run's structure.
#[derive(Debug, Clone, Copy)]
struct SlotSpec {
    fid: u64,
    /// Position of the parent among the owner's neighbors, or [`NO_PARENT`].
    parent: u32,
}

/// The run's slot structure and schedule, flattened once and shared by
/// every node.
#[derive(Debug)]
struct SlotTables {
    /// `slots[slot_off[v]..slot_off[v + 1]]` are `v`'s slots, sorted by
    /// forest id.
    slot_off: Vec<usize>,
    slots: Vec<SlotSpec>,
    /// One entry per graph CSR slot (per incident edge, in neighbor order):
    /// the index of the edge's forest slot among its owner's slots, shifted
    /// left once, with bit 0 set when the neighbor is the owner's child.
    links: Vec<u32>,
    /// The palette after each bit-reduction round.
    palettes: Vec<u64>,
    /// The field domain of the round-0 colors.
    start_domain: u64,
}

impl SlotTables {
    fn new(g: &Graph, forest_of_edge: &[(u64, Vertex)]) -> SlotTables {
        for (e, &(_, parent)) in forest_of_edge.iter().enumerate() {
            let (u, v) = g.endpoints(e);
            assert!(parent == u || parent == v, "parent of edge {e} must be an endpoint");
        }
        let mut slot_off = Vec::with_capacity(g.n() + 1);
        let mut slots: Vec<SlotSpec> = Vec::new();
        let mut links = vec![0u32; g.slot_count()];
        // (fid, neighbor position, neighbor is a child), reused per vertex.
        let mut by_fid: Vec<(u64, u32, bool)> = Vec::new();
        slot_off.push(0);
        for v in 0..g.n() {
            by_fid.clear();
            by_fid.extend(g.incident(v).enumerate().map(|(i, (_, e))| {
                let (fid, parent) = forest_of_edge[e];
                (fid, i as u32, parent == v)
            }));
            by_fid.sort_unstable();
            let first = slots.len();
            let base = g.slots_of(v).start;
            for &(fid, i, to_child) in &by_fid {
                if slots.len() == first || slots[slots.len() - 1].fid != fid {
                    slots.push(SlotSpec { fid, parent: NO_PARENT });
                }
                let k = slots.len() - 1;
                if !to_child {
                    assert!(
                        slots[k].parent == NO_PARENT,
                        "vertex {v} has two parent edges in forest {fid}: not a pseudo-forest"
                    );
                    slots[k].parent = i;
                }
                links[base + i as usize] = (((k - first) as u32) << 1) | u32::from(to_child);
            }
            slot_off.push(slots.len());
        }
        let domain = cv_domain(g);
        SlotTables {
            slot_off,
            slots,
            links,
            palettes: cv_palettes(domain),
            start_domain: domain.max(6),
        }
    }
}

/// One node's protocol state: its slots, in forest-id order.
#[derive(Debug)]
struct CvColor {
    tables: SharedConfig<SlotTables>,
    /// This node's first slot in `tables.slots`.
    slot_at: usize,
    /// This node's first entry in `tables.links`.
    link_at: usize,
    state: Vec<SlotState>,
    /// Messages sent per round: the child links of non-root slots.
    sends: usize,
    early_halt: bool,
    /// Set in round 1 once no slot needs or owes per-round colors; the
    /// slots then hold their final colors.
    settled: bool,
}

impl CvColor {
    /// One message per child of a non-root slot, in neighbor order.
    fn send(&self, ctx: &NodeCtx<'_>, msg: impl Fn(u64) -> FieldMsg) -> Vec<(Vertex, FieldMsg)> {
        let mut out = Vec::with_capacity(self.sends);
        if self.sends == 0 {
            return out;
        }
        let links = &self.tables.links[self.link_at..self.link_at + ctx.degree()];
        for (&u, &link) in ctx.neighbors.iter().zip(links) {
            let slot = &self.state[(link >> 1) as usize];
            if link & 1 == 1 && slot.kind != Kind::Root {
                out.push((u, msg(slot.color)));
            }
        }
        out
    }

    /// Records parent colors. Only non-root parents send, so a message also
    /// marks its slot deep.
    fn receive(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, FieldMsg)]) {
        let links = &self.tables.links[self.link_at..self.link_at + ctx.degree()];
        let mut i = 0;
        for (sender, m) in inbox {
            // Inbox and neighbors are both sorted by vertex.
            while ctx.neighbors[i] != *sender {
                i += 1;
            }
            debug_assert_eq!(links[i] & 1, 0, "only parents send");
            let slot = &mut self.state[(links[i] >> 1) as usize];
            slot.parent_color = m.field(0);
            slot.kind = Kind::Deep;
        }
    }

    fn advance(&mut self, r: usize) {
        let step = step_of(r, self.tables.palettes.len());
        for slot in &mut self.state {
            slot.advance(step);
        }
    }
}

impl Protocol for CvColor {
    type Msg = FieldMsg;
    type Output = Vec<(u64, u64)>;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, FieldMsg)> {
        // Identifier 0 starts at u64::MAX, one past the saturated domain;
        // its field's 64 bits still encode it.
        let bits = bits_for_range(self.tables.start_domain);
        self.send(ctx, |color| FieldMsg::with_bits(&[color], bits))
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, FieldMsg)]) -> Action<FieldMsg> {
        let s = self.tables.palettes.len();
        let (r, last) = (ctx.round, s + 9);
        if self.state.is_empty() {
            return Action::halt();
        }
        if self.settled {
            return if r == last { Action::halt() } else { Action::idle() };
        }
        self.receive(ctx, inbox);
        if r == 1 && self.sends == 0 && self.state.iter().all(|slot| slot.kind != Kind::Deep) {
            for r in 1..=last {
                self.advance(r);
            }
            self.settled = true;
            return if self.early_halt { Action::halt() } else { Action::idle() };
        }
        self.advance(r);
        if r == last {
            return Action::halt();
        }
        let palette = if r <= s { self.tables.palettes[r - 1] } else { 6 };
        Action::Continue(self.send(ctx, |color| FieldMsg::new(&[(color, palette)])))
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> Vec<(u64, u64)> {
        let specs = &self.tables.slots[self.slot_at..];
        specs.iter().zip(&self.state).map(|(spec, slot)| (spec.fid, slot.color)).collect()
    }
}

/// 3-colors the vertices of every rooted pseudo-forest simultaneously.
///
/// `forest_of_edge[e] = (fid, parent)`: edge `e` belongs to forest `fid` and
/// is oriented from its child endpoint toward `parent` (which must be an
/// endpoint of `e`). Every vertex may have **at most one parent edge per
/// forest** (the pseudo-forest property). The network's transport must be
/// perfect (see the module docs).
///
/// Returns per-vertex `(fid, color)` lists, sorted by forest id (colors in
/// `{0, 1, 2}`, proper within every forest) and the run statistics; for
/// identifiers in `1..=n` the round count is at most
/// [`cv_rounds`]`(n)` = `O(log* n)`.
///
/// # Panics
///
/// Panics if a parent is not an endpoint of its edge or the pseudo-forest
/// property is violated.
pub fn cv_three_color(
    net: &Network<'_>,
    forest_of_edge: &[(u64, Vertex)],
) -> (Vec<Vec<(u64, u64)>>, RunStats) {
    let g = net.graph();
    assert_eq!(forest_of_edge.len(), g.m(), "one forest assignment per edge");
    debug_assert!(net.transport().is_perfect(), "silent roots need a perfect transport");
    let tables = SharedConfig::new(SlotTables::new(g, forest_of_edge));
    let early_halt = net.early_halt();
    let mut pl = Pipeline::new(net);
    let outputs = pl.run("cole-vishkin", |ctx| {
        let (slot_at, link_at) = (tables.slot_off[ctx.vertex], g.slots_of(ctx.vertex).start);
        let specs = &tables.slots[slot_at..tables.slot_off[ctx.vertex + 1]];
        let state: Vec<SlotState> = specs
            .iter()
            .map(|spec| {
                let color = ctx.ident.wrapping_sub(1);
                match spec.parent {
                    NO_PARENT => {
                        SlotState { color, pre_shift: 0, parent_color: 0, kind: Kind::Root }
                    }
                    // The parent's round-0 color, whether it sends it or not.
                    p => SlotState {
                        color,
                        pre_shift: 0,
                        parent_color: ctx.neighbor_idents[p as usize].wrapping_sub(1),
                        kind: Kind::Shadow,
                    },
                }
            })
            .collect();
        let links = &tables.links[link_at..link_at + ctx.degree()];
        let sends = links
            .iter()
            .filter(|&&link| link & 1 == 1 && state[(link >> 1) as usize].kind != Kind::Root)
            .count();
        CvColor {
            tables: SharedConfig::clone(&tables),
            slot_at,
            link_at,
            state,
            sends,
            early_halt,
            settled: false,
        }
    });
    (outputs, pl.into_stats())
}

/// The classic full-schedule protocol, kept verbatim as the differential
/// oracle: every slot, roots included, sends its color every round, and
/// every node runs the whole schedule.
#[cfg(test)]
mod oracle {
    use super::{cv_palettes, lowest_differing_bit};
    use crate::msg::FieldMsg;
    use crate::pipeline::Pipeline;
    use deco_graph::{Graph, Vertex};
    use deco_local::{Action, Network, NodeCtx, Protocol, RunStats, SharedConfig};
    use std::collections::BTreeMap;

    #[derive(Debug)]
    struct Slot {
        parent: Option<Vertex>,
        children: Vec<Vertex>,
        color: u64,
        /// Our color before the current shift-down: the (uniform) color of all
        /// our children during the recolor step.
        pre_shift: u64,
        /// Parent's color as received this round.
        parent_color: u64,
    }

    #[derive(Debug)]
    struct CvColor {
        /// `(forest id, slot)`, sorted by forest id — a flat sorted vector
        /// beats a `BTreeMap` here: every round iterates all slots (sends) and
        /// the per-node slot count is small, so contiguity wins.
        slots: Vec<(u64, Slot)>,
        /// `(parent sender, forest id of our parent edge from it)`, sorted by
        /// sender.
        parent_fid: Vec<(Vertex, u64)>,
        /// `(child, index into slots)`, sorted by child: the per-round outbox
        /// order. Emitting child-sorted outboxes lets the simulator's posting
        /// cursor match slots in O(1) per message instead of falling back to a
        /// binary search (children are distinct across forests — each parent
        /// edge is a distinct graph edge).
        send_order: Vec<(Vertex, u32)>,
        palettes: SharedConfig<Vec<u64>>,
        n: u64,
    }

    impl CvColor {
        fn send_colors(&self, palette: u64) -> Vec<(Vertex, FieldMsg)> {
            self.send_order
                .iter()
                .map(|&(child, si)| {
                    (child, FieldMsg::new(&[(self.slots[si as usize].1.color, palette)]))
                })
                .collect()
        }

        fn receive(&mut self, inbox: &[(Vertex, FieldMsg)]) {
            for (sender, m) in inbox {
                if let Ok(i) = self.parent_fid.binary_search_by_key(sender, |&(s, _)| s) {
                    let fid = self.parent_fid[i].1;
                    let j = self
                        .slots
                        .binary_search_by_key(&fid, |&(f, _)| f)
                        // INVARIANT: a slot is pushed for every forest id recorded in parent_fid within the same construction pass.
                        .expect("parent_fid entries have slots");
                    self.slots[j].1.parent_color = m.field(0);
                }
            }
        }
    }

    impl Protocol for CvColor {
        type Msg = FieldMsg;
        type Output = Vec<(u64, u64)>;

        fn start(&mut self, _ctx: &NodeCtx<'_>) -> Vec<(Vertex, FieldMsg)> {
            if self.slots.is_empty() {
                return Vec::new();
            }
            self.send_colors(self.n.max(6))
        }

        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, FieldMsg)]) -> Action<FieldMsg> {
            if self.slots.is_empty() {
                return Action::halt();
            }
            self.receive(inbox);
            let s = self.palettes.len();
            let r = ctx.round;
            let palette = if r <= s { self.palettes[r - 1] } else { 6 };
            if r <= s {
                // Bit-reduction step.
                for (_, slot) in self.slots.iter_mut() {
                    let parent_color = match slot.parent {
                        Some(_) => slot.parent_color,
                        None => slot.color ^ 1, // fake parent differing in bit 0
                    };
                    let i = lowest_differing_bit(slot.color, parent_color);
                    slot.color = 2 * i as u64 + ((slot.color >> i) & 1);
                }
            } else {
                // Shift-down phases for q = 5, 4, 3: rounds (per q) are
                // shift-down, sync, recolor.
                let step = r - s - 1; // 0..9
                let q = 5 - (step / 3) as u64;
                match step % 3 {
                    0 => {
                        // Shift-down: adopt the parent's color; roots take the
                        // smallest color in {0,1,2} different from their own.
                        for (_, slot) in self.slots.iter_mut() {
                            slot.pre_shift = slot.color;
                            slot.color = match slot.parent {
                                Some(_) => slot.parent_color,
                                // INVARIANT: only one color is excluded, so {0,1,2} retains at least two candidates.
                                None => (0..3).find(|&c| c != slot.color).expect("palette >= 2"),
                            };
                        }
                    }
                    1 => {
                        // Sync: colors already re-broadcast below.
                    }
                    _ => {
                        // Recolor class q into {0,1,2}: the parent's current
                        // color and the children's (uniform) color — our
                        // pre-shift color — each block one choice.
                        for (_, slot) in self.slots.iter_mut() {
                            if slot.color == q {
                                let parent = match slot.parent {
                                    Some(_) => slot.parent_color,
                                    None => u64::MAX,
                                };
                                slot.color = (0..3)
                                    .find(|&c| c != parent && c != slot.pre_shift)
                                    // INVARIANT: at most two colors are blocked, so {0,1,2} retains a free one.
                                    .expect("two blockers leave a free color in {0,1,2}");
                            }
                        }
                    }
                }
            }
            if r == s + 9 {
                Action::halt()
            } else {
                Action::Continue(self.send_colors(palette))
            }
        }

        fn finish(self, _ctx: &NodeCtx<'_>) -> Vec<(u64, u64)> {
            self.slots.into_iter().map(|(fid, slot)| (fid, slot.color)).collect()
        }
    }

    pub(super) fn cv_three_color(
        net: &Network<'_>,
        forest_of_edge: &[(u64, Vertex)],
    ) -> (Vec<Vec<(u64, u64)>>, RunStats) {
        let g = net.graph();
        assert_eq!(forest_of_edge.len(), g.m(), "one forest assignment per edge");
        let inits = slot_inits(g, forest_of_edge);
        let palettes = SharedConfig::new(cv_palettes(g.n() as u64));
        let mut pl = Pipeline::new(net);
        let outputs = pl.run("cole-vishkin", |ctx| {
            let (slots_init, parent_fid) = &inits[ctx.vertex];
            let slots: Vec<(u64, Slot)> = slots_init
                .iter()
                .map(|(fid, parent, children)| {
                    (
                        *fid,
                        Slot {
                            parent: *parent,
                            children: children.clone(),
                            color: ctx.ident - 1,
                            pre_shift: 0,
                            parent_color: 0,
                        },
                    )
                })
                .collect();
            let mut send_order: Vec<(Vertex, u32)> = slots
                .iter()
                .enumerate()
                .flat_map(|(si, (_, slot))| slot.children.iter().map(move |&c| (c, si as u32)))
                .collect();
            send_order.sort_unstable();
            CvColor {
                slots,
                parent_fid: parent_fid.clone(),
                send_order,
                palettes: SharedConfig::clone(&palettes),
                n: g.n() as u64,
            }
        });
        (outputs, pl.into_stats())
    }

    type SlotInit = (u64, Option<Vertex>, Vec<Vertex>);

    /// Per-vertex slot structure: (slots, sorted (parent-sender, fid) pairs).
    /// This is purely local information (each vertex's incident edges and their
    /// forest ids).
    #[allow(clippy::type_complexity)]
    fn slot_inits(
        g: &Graph,
        forest_of_edge: &[(u64, Vertex)],
    ) -> Vec<(Vec<SlotInit>, Vec<(Vertex, u64)>)> {
        let mut slots: Vec<BTreeMap<u64, (Option<Vertex>, Vec<Vertex>)>> =
            vec![BTreeMap::new(); g.n()];
        let mut parent_fid: Vec<BTreeMap<Vertex, u64>> = vec![BTreeMap::new(); g.n()];
        for (e, &(fid, parent)) in forest_of_edge.iter().enumerate() {
            let (u, v) = g.endpoints(e);
            assert!(parent == u || parent == v, "parent of edge {e} must be an endpoint");
            let child = if parent == u { v } else { u };
            let entry = slots[child].entry(fid).or_default();
            assert!(
                entry.0.is_none(),
                "vertex {child} has two parent edges in forest {fid}: not a pseudo-forest"
            );
            entry.0 = Some(parent);
            parent_fid[child].insert(parent, fid);
            slots[parent].entry(fid).or_default().1.push(child);
        }
        slots
            .into_iter()
            .zip(parent_fid)
            .map(|(m, pf)| {
                let inits = m
                    .into_iter()
                    .map(|(fid, (parent, mut children))| {
                        children.sort_unstable();
                        (fid, parent, children)
                    })
                    .collect();
                (inits, pf.into_iter().collect())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::generators;

    /// Checks colors are in {0,1,2} and proper within each forest.
    fn assert_valid(g: &Graph, forest_of_edge: &[(u64, Vertex)], colors: &[Vec<(u64, u64)>]) {
        let lookup = |v: Vertex, fid: u64| -> u64 {
            colors[v]
                .iter()
                .find(|&&(f, _)| f == fid)
                .unwrap_or_else(|| panic!("vertex {v} missing color for forest {fid}"))
                .1
        };
        for (e, &(fid, parent)) in forest_of_edge.iter().enumerate() {
            let (u, v) = g.endpoints(e);
            let (cu, cv) = (lookup(u, fid), lookup(v, fid));
            assert!(cu < 3 && cv < 3, "colors must be in {{0,1,2}}");
            assert_ne!(cu, cv, "edge ({u},{v}) monochromatic in forest {fid}");
            let _ = parent;
        }
    }

    fn ident_forest(g: &Graph) -> Vec<(u64, Vertex)> {
        // Forest f = each vertex's f-th out-edge toward smaller-ident
        // neighbors; this is the Panconesi–Rizzi decomposition.
        let mut out: Vec<(u64, Vertex)> = vec![(0, 0); g.m()];
        for v in 0..g.n() {
            let mut parents: Vec<(u64, Vertex, usize)> = g
                .incident(v)
                .filter(|&(u, _)| g.ident(u) < g.ident(v))
                .map(|(u, e)| (g.ident(u), u, e))
                .collect();
            parents.sort_unstable();
            for (f, &(_, u, e)) in parents.iter().enumerate() {
                out[e] = (f as u64, u);
            }
        }
        out
    }

    #[test]
    fn colors_path_as_single_forest() {
        let g = generators::path(50);
        let net = Network::new(&g);
        let spec = ident_forest(&g);
        let (colors, stats) = cv_three_color(&net, &spec);
        assert_valid(&g, &spec, &colors);
        assert_eq!(stats.rounds, cv_rounds(50));
    }

    #[test]
    fn colors_cycles() {
        // In a cycle with idents along it, the largest-ident vertex has two
        // out-edges (forests 0 and 1); others form long chains.
        for n in [3usize, 4, 17, 60] {
            let g = generators::cycle(n);
            let net = Network::new(&g);
            let spec = ident_forest(&g);
            let (colors, _) = cv_three_color(&net, &spec);
            assert_valid(&g, &spec, &colors);
        }
    }

    #[test]
    fn colors_dense_decompositions() {
        for g in [
            generators::complete(9),
            generators::random_bounded_degree(100, 8, 33),
            generators::clique_with_pendants(7),
        ] {
            let net = Network::new(&g);
            let spec = ident_forest(&g);
            let (colors, stats) = cv_three_color(&net, &spec);
            assert_valid(&g, &spec, &colors);
            // O(log* n) + O(1) rounds.
            assert!(stats.rounds <= cv_rounds(g.n() as u64));
        }
    }

    #[test]
    fn shuffled_idents_remain_valid() {
        let g = generators::shuffle_idents(&generators::random_bounded_degree(70, 6, 4), 5);
        let net = Network::new(&g);
        let spec = ident_forest(&g);
        let (colors, _) = cv_three_color(&net, &spec);
        assert_valid(&g, &spec, &colors);
    }

    #[test]
    #[should_panic(expected = "not a pseudo-forest")]
    fn rejects_double_parent() {
        let g = generators::path(3); // edges (0,1), (1,2)
        let net = Network::new(&g);
        // Vertex 1 would have two parent edges in forest 0.
        let spec = vec![(0, 0), (0, 2)];
        let _ = cv_three_color(&net, &spec);
    }

    #[test]
    fn cv_rounds_is_log_star_like() {
        assert_eq!(cv_rounds(6), 9);
        assert!(cv_rounds(1 << 16) <= 9 + 4);
        assert!(cv_rounds(u64::MAX / 2) <= 9 + 6);
    }

    /// The same graph with its identifier order reversed within the same
    /// range, so that [`ident_forest`] orients every edge toward the larger
    /// original identifier.
    fn reversed(g: &Graph) -> Graph {
        let (lo, hi) = (g.idents().iter().min().unwrap(), g.idents().iter().max().unwrap());
        g.clone().with_idents(g.idents().iter().map(|&id| lo + (hi - id)).collect()).unwrap()
    }

    /// Every `k`-th edge of a bounded-degree graph, on the touched vertices
    /// renumbered by rank: the near-matchings churn repairs run on.
    fn churn_region(k: usize, seed: u64) -> Graph {
        let host = generators::random_bounded_degree(5000, 8, seed);
        let picked: Vec<(Vertex, Vertex)> = host.edges().step_by(k).collect();
        let mut touched: Vec<Vertex> = picked.iter().flat_map(|&(u, v)| [u, v]).collect();
        touched.sort_unstable();
        touched.dedup();
        let rank = |v: Vertex| touched.binary_search(&v).unwrap();
        let edges: Vec<(Vertex, Vertex)> =
            picked.iter().map(|&(u, v)| (rank(u), rank(v))).collect();
        Graph::from_edges(touched.len(), &edges).unwrap()
    }

    /// Runs the protocol against the classic oracle on one case, with early
    /// halting on and off, at 1, 2 and the default number of threads: the
    /// colors must be equal, no counter may exceed the oracle's, and the
    /// traffic must not depend on early halting or threads.
    fn check_against_oracle(g: &Graph, spec: &[(u64, Vertex)], what: &str) {
        let mut traffic = Vec::new();
        for early_halt in [true, false] {
            let oracle_net = Network::new(g).with_early_halt(early_halt);
            let (want, oracle) = oracle::cv_three_color(&oracle_net, spec);
            for threads in [Some(1), Some(2), None] {
                let net = Network::new(g).with_early_halt(early_halt);
                let net = match threads {
                    Some(t) => net.with_threads(t),
                    None => net,
                };
                let case = format!("{what} (early_halt {early_halt}, threads {threads:?})");
                let (got, stats) = cv_three_color(&net, spec);
                assert_eq!(got, want, "{case}: colors differ from the oracle");
                for (name, new, old) in [
                    ("rounds", stats.rounds, oracle.rounds),
                    ("node-rounds", stats.node_rounds, oracle.node_rounds),
                    ("messages", stats.messages, oracle.messages),
                    ("max bits", stats.max_message_bits, oracle.max_message_bits),
                    ("total bits", stats.total_message_bits, oracle.total_message_bits),
                ] {
                    assert!(new <= old, "{case}: {name} {new} above the oracle's {old}");
                }
                if !early_halt {
                    assert_eq!(
                        stats.rounds, oracle.rounds,
                        "{case}: settled nodes idle to the end"
                    );
                }
                traffic.push((stats.messages, stats.max_message_bits, stats.total_message_bits));
            }
        }
        assert!(
            traffic.windows(2).all(|w| w[0] == w[1]),
            "{what}: traffic depends on early halting or threads: {traffic:?}"
        );
    }

    #[test]
    fn matches_oracle_on_random_forests() {
        for seed in 0..40u64 {
            let n = 2 + (seed as usize * 37) % 150;
            let g = generators::random_bounded_degree(n, (2 + seed as usize % 7).min(n - 1), seed);
            check_against_oracle(&g, &ident_forest(&g), &format!("random n={n} seed={seed}"));
            let g = generators::shuffle_idents(&g, seed ^ 0x5eed);
            check_against_oracle(&g, &ident_forest(&g), &format!("shuffled n={n} seed={seed}"));
        }
    }

    #[test]
    fn matches_oracle_on_paths_cycles_stars_and_cliques() {
        check_against_oracle(&Graph::empty(4), &[], "edgeless");
        for n in (2..=70).chain([100, 200]) {
            // Ident-ordered: one chain of depth n - 1.
            let g = generators::path(n);
            check_against_oracle(&g, &ident_forest(&g), &format!("path {n}"));
            let g = generators::star(n);
            check_against_oracle(&g, &ident_forest(&g), &format!("star {n}"));
            if n >= 3 {
                let g = generators::cycle(n);
                check_against_oracle(&g, &ident_forest(&g), &format!("cycle {n}"));
                // Oriented around the cycle: every vertex has a parent, so
                // no forest has a root.
                let around: Vec<(u64, Vertex)> =
                    g.edges().map(|(u, v)| (0, if v == u + 1 { v } else { u })).collect();
                check_against_oracle(&g, &around, &format!("rootless cycle {n}"));
            }
        }
        for n in [4, 6, 9] {
            let g = generators::complete(n);
            check_against_oracle(&g, &ident_forest(&g), &format!("K{n}"));
            let g = reversed(&g);
            check_against_oracle(&g, &ident_forest(&g), &format!("reversed K{n}"));
        }
    }

    #[test]
    fn matches_oracle_without_bit_reduction() {
        // n ≤ 6: the schedule has no bit-reduction round, so round 1 is
        // already a shift-down and roots may start in class 3..5.
        assert!(cv_palettes(6).is_empty());
        for n in 2..=6 {
            for seed in 0..12u64 {
                let g = generators::random_bounded_degree(n, n - 1, seed);
                check_against_oracle(&g, &ident_forest(&g), &format!("n={n} seed={seed}"));
                let g = generators::shuffle_idents(&g, seed);
                check_against_oracle(&g, &ident_forest(&g), &format!("shuffled n={n} seed={seed}"));
            }
        }
    }

    #[test]
    fn matches_oracle_on_churn_regions() {
        for (k, seed) in [(10, 1), (10, 2), (4, 3), (25, 4)] {
            let g = churn_region(k, seed);
            check_against_oracle(&g, &ident_forest(&g), &format!("region k={k} seed={seed}"));
        }
    }

    #[test]
    fn settled_nodes_halt_in_round_one() {
        // A star rooted at its center and a matching: every slot is a root
        // or a childless child of one, so nothing is sent.
        let matching = Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        for g in [generators::star(12), matching] {
            let spec = ident_forest(&g);
            let (colors, halting) = cv_three_color(&Network::new(&g), &spec);
            assert_valid(&g, &spec, &colors);
            assert_eq!((halting.rounds, halting.node_rounds, halting.messages), (1, g.n(), 0));
            let idle = cv_three_color(&Network::new(&g).with_early_halt(false), &spec).1;
            assert_eq!((idle.rounds, idle.messages), (cv_rounds(g.n() as u64), 0));
        }
    }

    #[test]
    fn identifiers_above_n_stay_within_three_colors() {
        use crate::edge::legal::{edge_color, edge_log_depth, MessageMode};
        let base = 1_000_000_000_000u64;
        let path = generators::path(5).with_idents((0..5).map(|i| base + i).collect()).unwrap();
        let random = generators::random_bounded_degree(60, 6, 9);
        let random = random
            .clone()
            .with_idents(random.idents().iter().map(|&id| base + 7 * id).collect())
            .unwrap();
        for g in [path, random] {
            for g in [reversed(&g), g] {
                let spec = ident_forest(&g);
                for early_halt in [true, false] {
                    let net = Network::new(&g).with_early_halt(early_halt);
                    let (colors, _) = cv_three_color(&net, &spec);
                    assert_valid(&g, &spec, &colors);
                }
                let run = edge_color(&g, edge_log_depth(1), MessageMode::Long).unwrap();
                assert!(run.coloring.is_proper(&g));
            }
        }
    }

    #[test]
    fn identifier_zero_stays_within_three_colors() {
        use crate::edge::legal::{edge_color, edge_log_depth, MessageMode};
        let from_zero = |g: Graph| {
            let idents = g.idents().iter().map(|&id| id - 1).collect();
            g.with_idents(idents).unwrap()
        };
        for g in [
            from_zero(generators::path(7)),
            from_zero(generators::cycle(9)),
            from_zero(generators::shuffle_idents(&generators::random_bounded_degree(40, 5, 2), 3)),
        ] {
            // Identifier 0 is a root toward smaller identifiers and a child
            // toward larger ones.
            for g in [reversed(&g), g] {
                let spec = ident_forest(&g);
                for early_halt in [true, false] {
                    let net = Network::new(&g).with_early_halt(early_halt);
                    let (colors, _) = cv_three_color(&net, &spec);
                    assert_valid(&g, &spec, &colors);
                }
                let run = edge_color(&g, edge_log_depth(1), MessageMode::Long).unwrap();
                assert!(run.coloring.is_proper(&g));
            }
        }
    }
}
