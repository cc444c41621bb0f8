//! Parallelized color reduction to a `(Λ+1)`-coloring (Lemma 2.1(2)).
//!
//! Given a proper `m`-coloring of a (sub)graph with maximum degree `Λ`,
//! repeatedly halve the palette: split the palette into blocks of
//! `2(Λ+1)` colors; within each block, process its color classes one per
//! round, each vertex picking a free color from the block's private
//! `(Λ+1)`-color target palette. Blocks run in parallel on disjoint target
//! palettes, so one phase of `2(Λ+1)` rounds maps `m` colors to
//! `⌈m/(2(Λ+1))⌉·(Λ+1) ≈ m/2` colors. After `O(log(m/Λ))` phases the palette
//! is `Λ+1`.
//!
//! This is the Kuhn–Wattenhofer reduction; the paper cites the linear-in-Δ
//! algorithm of Barenboim–Elkin \[4\] for this lemma. Our variant costs
//! `O(Λ·log Λ)` instead of `O(Λ)` rounds from an `O(Λ²)` palette — a
//! substitution documented in DESIGN.md, absorbed by the paper's own
//! ε-rescaling argument.
//!
//! Like every subroutine of Procedure Legal-Color, the protocol is
//! group-aware: it reduces all classes of a partition simultaneously,
//! coloring each class from its own `(Λ+1)`-palette.

use crate::msg::FieldMsg;
use crate::pipeline::Pipeline;
use deco_graph::Vertex;
use deco_local::{Action, Network, NodeCtx, Protocol, RunStats};
// tidy: allow(hash-iter) — nbr_colors is keyed per neighbor; its only
// iterations are commutative folds (set-union into a bool mask, uniform
// rebase), so hash order cannot reach colors or counters.
use std::collections::HashMap;
use std::sync::Arc;

/// One palette-halving phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionPhase {
    /// Palette size entering the phase.
    pub m: u64,
    /// Block size `2(Λ+1)` (the last block may be smaller).
    pub block: u64,
    /// Number of blocks `⌈m/block⌉`.
    pub nblocks: u64,
    /// Rounds in the phase: `block` picking steps plus one sync step.
    pub rounds: u64,
}

/// The phase schedule reducing palette `m0` to `target = Λ+1`.
pub fn reduction_schedule(m0: u64, lambda: u64) -> Vec<ReductionPhase> {
    let target = lambda + 1;
    let block = 2 * target;
    let mut phases = Vec::new();
    let mut m = m0;
    while m > target {
        let nblocks = m.div_ceil(block);
        phases.push(ReductionPhase { m, block, nblocks, rounds: block + 1 });
        m = nblocks * target;
    }
    phases
}

/// Total rounds of [`reduction_schedule`] plus the initial sync round.
pub fn reduction_rounds(m0: u64, lambda: u64) -> u64 {
    let phases = reduction_schedule(m0, lambda);
    if phases.is_empty() {
        0
    } else {
        1 + phases.iter().map(|p| p.rounds).sum::<u64>()
    }
}

#[derive(Debug)]
struct KwReduce {
    group: u64,
    group_domain: u64,
    color: u64,
    lambda: u64,
    phases: Arc<Vec<ReductionPhase>>,
    phase_idx: usize,
    /// Round at which the current phase started (its step 0).
    phase_start: usize,
    /// Current colors of same-group neighbors, on the same clock as ours:
    /// during a phase, values `>= m` encode `m + block·(Λ+1) + j` picks.
    // tidy: allow(hash-iter) — values() folds are order-insensitive (see
    // the module-head allow); keys are never enumerated.
    nbr_colors: HashMap<Vertex, u64>,
    picked: bool,
}

impl KwReduce {
    fn announce(&self, ctx: &NodeCtx<'_>, value: u64, domain: u64) -> Vec<(Vertex, FieldMsg)> {
        ctx.broadcast(FieldMsg::new(&[(self.group, self.group_domain), (value, domain)]))
    }
}

impl Protocol for KwReduce {
    type Msg = FieldMsg;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, FieldMsg)> {
        // Initial sync: everyone learns same-group neighbors' colors.
        let m0 = self.phases[0].m;
        self.announce(ctx, self.color, m0)
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, FieldMsg)]) -> Action<FieldMsg> {
        for (sender, m) in inbox {
            if m.field(0) == self.group {
                self.nbr_colors.insert(*sender, m.field(1));
            }
        }
        if ctx.round == 1 {
            // Colors learned; phases begin next round.
            self.phase_start = 2;
            return Action::idle();
        }
        let phase = self.phases[self.phase_idx];
        let target = self.lambda + 1;
        let step = (ctx.round - self.phase_start) as u64;
        let mut out = Vec::new();
        if step < phase.block {
            // Picking step: vertices whose in-block position equals `step`
            // choose a free color in their block's target palette.
            if !self.picked && self.color % phase.block == step {
                let my_block = self.color / phase.block;
                let mut used = vec![false; target as usize];
                for &c in self.nbr_colors.values() {
                    if c >= phase.m {
                        let rebased = c - phase.m;
                        if rebased / target == my_block {
                            used[(rebased % target) as usize] = true;
                        }
                    }
                }
                let j = (0..target)
                    .find(|&j| !used[j as usize])
                    // INVARIANT: within-group degree is at most the group bound by the partition property, so the block palette retains a free color.
                    .expect("within-group degree exceeds Λ: no free color in block palette");
                self.color = phase.m + my_block * target + j;
                self.picked = true;
                let domain = phase.m + phase.nblocks * target;
                out = self.announce(ctx, self.color, domain);
            }
            Action::Continue(out)
        } else {
            // Sync step: everyone picked; rebase to the new palette.
            debug_assert!(self.picked, "every position is scheduled within a phase");
            self.color -= phase.m;
            for c in self.nbr_colors.values_mut() {
                debug_assert!(*c >= phase.m, "neighbor failed to pick during phase");
                *c -= phase.m;
            }
            self.picked = false;
            self.phase_idx += 1;
            self.phase_start = ctx.round + 1;
            if self.phase_idx == self.phases.len() {
                Action::halt()
            } else {
                Action::idle()
            }
        }
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.color
    }
}

/// Reduces a proper-within-groups `m0`-coloring to a proper-within-groups
/// `(Λ+1)`-coloring, all groups in parallel, each group on the palette
/// `{0, ..., Λ}`.
///
/// `lambda` must bound the maximum degree *within* every group.
///
/// # Panics
///
/// Panics (inside the protocol) if a vertex has more than `lambda`
/// same-group neighbors, or if `init` is not proper within groups.
pub fn reduce_colors_in_groups(
    net: &Network<'_>,
    groups: &[u64],
    group_domain: u64,
    init: &[u64],
    m0: u64,
    lambda: u64,
) -> (Vec<u64>, RunStats) {
    assert_eq!(groups.len(), net.graph().n());
    assert_eq!(init.len(), net.graph().n());
    let phases = reduction_schedule(m0, lambda);
    if phases.is_empty() {
        return (init.to_vec(), RunStats::zero());
    }
    let phases = Arc::new(phases);
    let mut pl = Pipeline::new(net);
    let outputs = pl.run("kuhn-wattenhofer-reduce", |ctx| KwReduce {
        group: groups[ctx.vertex],
        group_domain,
        color: init[ctx.vertex],
        lambda,
        phases: Arc::clone(&phases),
        phase_idx: 0,
        phase_start: 0,
        // tidy: allow(hash-iter) — same order-insensitive map as above.
        nbr_colors: HashMap::new(),
        picked: false,
    });
    (outputs, pl.into_stats())
}

/// Lemma 2.1(2): a legal `(Δ+1)`-coloring of the whole graph, via Linial
/// followed by the Kuhn–Wattenhofer reduction, in
/// `O(Δ log Δ) + O(log* n)` rounds.
///
/// Returns `(colors, stats)` with colors in `{0, ..., Δ}`.
pub fn delta_plus_one_coloring(net: &Network<'_>) -> (Vec<u64>, RunStats) {
    let g = net.graph();
    let delta = g.max_degree() as u64;
    let (lin, palette, stats1) = crate::code_reduction::linial_coloring(net);
    let groups = vec![0u64; g.n()];
    let (colors, stats2) = reduce_colors_in_groups(net, &groups, 1, &lin, palette, delta);
    (colors, stats1 + stats2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::coloring::VertexColoring;
    use deco_graph::generators;

    #[test]
    fn schedule_halves_palette() {
        let phases = reduction_schedule(100, 4);
        let mut m = 100;
        for p in &phases {
            assert_eq!(p.m, m);
            assert!(p.nblocks * 5 <= m.div_ceil(2).max(5) + 5);
            m = p.nblocks * 5;
        }
        assert!(m <= 5);
        assert!(reduction_schedule(5, 4).is_empty());
        assert!(reduction_schedule(1, 0).is_empty());
    }

    #[test]
    fn delta_plus_one_on_families() {
        for g in [
            generators::complete(9),
            generators::cycle(12),
            generators::petersen(),
            generators::random_bounded_degree(120, 7, 13),
            generators::clique_with_pendants(8),
        ] {
            let net = Network::new(&g);
            let (colors, stats) = delta_plus_one_coloring(&net);
            let c = VertexColoring::new(colors);
            assert!(c.is_proper(&g));
            assert!(
                c.color_bound() <= g.max_degree() as u64 + 1,
                "palette {} exceeds Δ+1 = {}",
                c.color_bound(),
                g.max_degree() + 1
            );
            // O(Δ log Δ + log* n) rounds with explicit constants.
            let delta = g.max_degree() as u64;
            let bound =
                reduction_rounds(crate::math::linial_final_palette(g.n() as u64, delta), delta)
                    + crate::math::log_star(g.n() as u64) as u64
                    + 8;
            assert!((stats.rounds as u64) <= bound, "rounds {} > bound {bound}", stats.rounds);
        }
    }

    #[test]
    fn grouped_reduction_runs_in_parallel() {
        // Clique split into 3 groups: each group (within-group degree 3)
        // reduces to palette {0..3} independently.
        let g = generators::complete(12);
        let net = Network::new(&g);
        let groups: Vec<u64> = (0..12).map(|v| (v % 3) as u64).collect();
        // Start from a trivially proper coloring: ident-1 (palette 12).
        let init: Vec<u64> = (0..12).map(|v| g.ident(v) - 1).collect();
        let (colors, _) = reduce_colors_in_groups(&net, &groups, 3, &init, 12, 3);
        for v in 0..12 {
            assert!(colors[v] <= 3);
            for u in g.neighbors(v) {
                if groups[u] == groups[v] {
                    assert_ne!(colors[u], colors[v]);
                }
            }
        }
    }

    #[test]
    fn already_small_palette_is_free() {
        let g = generators::path(6);
        let net = Network::new(&g);
        let init = vec![0, 1, 2, 0, 1, 2];
        let groups = vec![0u64; 6];
        let (colors, stats) = reduce_colors_in_groups(&net, &groups, 1, &init, 3, 2);
        assert_eq!(colors, init);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn reduction_rounds_formula() {
        assert_eq!(reduction_rounds(5, 4), 0);
        let phases = reduction_schedule(200, 4);
        assert_eq!(reduction_rounds(200, 4), 1 + phases.iter().map(|p| p.rounds).sum::<u64>());
    }
}
