//! The distributed polynomial-code color-reduction protocol.
//!
//! This single protocol executes both Linial reductions (Lemma 2.1(1)) and
//! Kuhn's defective reductions (Lemma 2.1(3) / Theorem 4.7): each round,
//! every vertex broadcasts its current color, interprets its own and its
//! neighbors' colors as polynomials over GF(q) (see [`crate::math`]), and
//! picks an evaluation point:
//!
//! * **Linial step** (defect budget 0, `q > k·Δ`): the smallest point at
//!   which it collides with *no* neighbor — a proper coloring stays proper;
//! * **Kuhn step** (`q >= ⌈k·Δ/δ⌉`): the point minimizing the number of
//!   collisions, which adds at most `⌊k·Δ/q⌋ <= δ` defect.
//!
//! The protocol is *group-aware*: vertices carry a group label and ignore
//! neighbors in other groups, which is how Procedure Legal-Color runs its
//! recursive invocations on all ψ-color classes simultaneously (Algorithm 2,
//! line 7: "for i = 1..p in parallel").

use crate::math::{digits_base, poly_eval, CodeStep};
use crate::msg::FieldMsg;
use crate::pipeline::Pipeline;
use deco_graph::Vertex;
use deco_local::{Action, Network, NodeCtx, Protocol, RunStats};
use std::sync::Arc;

/// Per-vertex state of the code-reduction protocol.
#[derive(Debug)]
pub struct CodeReduction {
    group: u64,
    group_domain: u64,
    color: u64,
    steps: Arc<Vec<CodeStep>>,
    applied: usize,
}

impl CodeReduction {
    fn msg(&self) -> FieldMsg {
        let palette = self.steps[self.applied].from_palette;
        FieldMsg::new(&[(self.group, self.group_domain), (self.color, palette)])
    }

    fn apply_step(&mut self, same_group_colors: &[u64]) {
        let step = self.steps[self.applied];
        let k = step.k as usize;
        let q = step.q;
        let mine = digits_base(self.color, q, k + 1);
        let nbr_polys: Vec<Vec<u64>> = same_group_colors
            .iter()
            .filter(|&&c| c != self.color)
            .map(|&c| digits_base(c, q, k + 1))
            .collect();
        // Pick the evaluation point with the fewest collisions; for Linial
        // steps (q > kΔ) a zero-collision point always exists and is taken.
        let mut best_x = 0u64;
        let mut best_collisions = usize::MAX;
        for x in 0..q {
            let my_val = poly_eval(&mine, x, q);
            let collisions = nbr_polys.iter().filter(|p| poly_eval(p, x, q) == my_val).count();
            if collisions < best_collisions {
                best_collisions = collisions;
                best_x = x;
                if collisions == 0 {
                    break;
                }
            }
        }
        debug_assert!(
            step.defect_budget > 0 || best_collisions == 0,
            "Linial step must find a collision-free point"
        );
        self.color = best_x * q + poly_eval(&mine, best_x, q);
        self.applied += 1;
    }
}

impl Protocol for CodeReduction {
    type Msg = FieldMsg;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, FieldMsg)> {
        if self.steps.is_empty() {
            return Vec::new();
        }
        ctx.broadcast(self.msg())
    }

    fn round(&mut self, _ctx: &NodeCtx<'_>, inbox: &[(Vertex, FieldMsg)]) -> Action<FieldMsg> {
        if self.applied >= self.steps.len() {
            return Action::halt();
        }
        let same_group: Vec<u64> = inbox
            .iter()
            .filter(|(_, m)| m.field(0) == self.group)
            .map(|(_, m)| m.field(1))
            .collect();
        self.apply_step(&same_group);
        if self.applied == self.steps.len() {
            Action::halt()
        } else {
            Action::Broadcast(self.msg())
        }
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.color
    }
}

/// Runs a code-reduction schedule over the network.
///
/// `groups[v]` is the group label of vertex `v` (use all-zeros for an
/// ungrouped run); `group_domain` bounds the label values (for message-size
/// accounting); `init[v]` is the starting color, which must be proper
/// *within groups* and fit in `steps\[0\].from_palette`.
///
/// Returns the final colors and the run statistics. An empty schedule costs
/// zero rounds.
pub fn run_code_reduction(
    net: &Network<'_>,
    groups: &[u64],
    group_domain: u64,
    init: &[u64],
    steps: Vec<CodeStep>,
) -> (Vec<u64>, RunStats) {
    assert_eq!(groups.len(), net.graph().n(), "one group per vertex");
    assert_eq!(init.len(), net.graph().n(), "one initial color per vertex");
    if steps.is_empty() {
        return (init.to_vec(), RunStats::zero());
    }
    let steps = Arc::new(steps);
    let mut pl = Pipeline::new(net);
    let outputs = pl.run("code-reduction", |ctx| CodeReduction {
        group: groups[ctx.vertex],
        group_domain,
        color: init[ctx.vertex],
        steps: Arc::clone(&steps),
        applied: 0,
    });
    (outputs, pl.into_stats())
}

/// The *oriented* variant of the code reduction: every vertex only avoids
/// its **out-neighbors** under the acyclic orientation "toward smaller
/// `(rank, ident)`". Since each edge is avoided by its tail, the coloring is
/// proper on the whole graph, but the polynomial field only needs
/// `q > k·d` where `d` bounds the *out*-degree — this is how the
/// forest-decomposition baseline gets `O(a²)` colors from an out-degree-`a`
/// orientation.
#[derive(Debug)]
pub struct OrientedCodeReduction {
    rank: u64,
    rank_domain: u64,
    color: u64,
    steps: Arc<Vec<CodeStep>>,
    applied: usize,
}

impl OrientedCodeReduction {
    fn msg(&self) -> FieldMsg {
        let palette = self.steps[self.applied].from_palette;
        FieldMsg::new(&[(self.rank, self.rank_domain), (self.color, palette)])
    }
}

impl Protocol for OrientedCodeReduction {
    type Msg = FieldMsg;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, FieldMsg)> {
        if self.steps.is_empty() {
            return Vec::new();
        }
        ctx.broadcast(self.msg())
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, FieldMsg)]) -> Action<FieldMsg> {
        if self.applied >= self.steps.len() {
            return Action::halt();
        }
        let step = self.steps[self.applied];
        let mine = (self.rank, ctx.ident);
        let out_colors: Vec<u64> = inbox
            .iter()
            .filter(|(sender, m)| (m.field(0), ctx.ident_of(*sender)) < mine)
            .map(|(_, m)| m.field(1))
            .collect();
        // Reuse the CodeReduction step logic through a scratch state.
        let mut scratch = CodeReduction {
            group: 0,
            group_domain: 1,
            color: self.color,
            steps: Arc::new(vec![step]),
            applied: 0,
        };
        scratch.apply_step(&out_colors);
        self.color = scratch.color;
        self.applied += 1;
        if self.applied == self.steps.len() {
            Action::halt()
        } else {
            Action::Broadcast(self.msg())
        }
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.color
    }
}

/// Runs an oriented code-reduction schedule: vertices avoid only neighbors
/// with smaller `(rank, ident)`. `init` must be proper along oriented edges
/// (globally distinct values always qualify). See [`OrientedCodeReduction`].
pub fn run_oriented_code_reduction(
    net: &Network<'_>,
    ranks: &[u64],
    rank_domain: u64,
    init: &[u64],
    steps: Vec<CodeStep>,
) -> (Vec<u64>, RunStats) {
    assert_eq!(ranks.len(), net.graph().n(), "one rank per vertex");
    assert_eq!(init.len(), net.graph().n(), "one initial color per vertex");
    if steps.is_empty() {
        return (init.to_vec(), RunStats::zero());
    }
    let steps = Arc::new(steps);
    let mut pl = Pipeline::new(net);
    let outputs = pl.run("oriented-code-reduction", |ctx| OrientedCodeReduction {
        rank: ranks[ctx.vertex],
        rank_domain: rank_domain.max(1),
        color: init[ctx.vertex],
        steps: Arc::clone(&steps),
        applied: 0,
    });
    (outputs, pl.into_stats())
}

/// Theorem 4.7 (Kuhn \[19\]): refine a `d'`-defective `M`-coloring into a
/// `d`-defective `O(((Λ-d')/(d+1-d'))²)`-coloring in `O(log* M)` rounds.
///
/// The argmin steps only ever *add* defect (same-colored neighbors share a
/// polynomial and collide at every point), so scheduling the added budget
/// to `d - d'` preserves the hard bound: the result is `d`-defective.
/// The paper uses this with `d' = 0` and the auxiliary `O(Δ²)`-coloring ρ
/// as input, which is what removes the `log* n` from every recursion level
/// (Section 4.2).
///
/// Returns `(colors, palette_bound, stats)`.
///
/// # Panics
///
/// Panics if `d < d_current` or the input sizes disagree.
#[allow(clippy::too_many_arguments)] // the paper's parameter tuple, verbatim
pub fn refine_defective(
    net: &Network<'_>,
    groups: &[u64],
    group_domain: u64,
    colors: &[u64],
    palette: u64,
    lambda: u64,
    d_current: u64,
    d_target: u64,
) -> (Vec<u64>, u64, RunStats) {
    assert!(d_target >= d_current, "cannot reduce defect by refining");
    let steps = crate::math::kuhn_schedule(palette, lambda, d_target - d_current);
    let out_palette = steps.last().map(|s| s.to_palette).unwrap_or(palette);
    let (out, stats) = run_code_reduction(net, groups, group_domain, colors, steps);
    (out, out_palette, stats)
}

/// Computes Linial's legal `O(Δ²)`-coloring from scratch (colors start as
/// `ident - 1`), in `O(log* n)` rounds (Lemma 2.1(1)).
///
/// Returns `(colors, palette_bound, stats)`.
pub fn linial_coloring(net: &Network<'_>) -> (Vec<u64>, u64, RunStats) {
    let g = net.graph();
    let n = g.n() as u64;
    let delta = g.max_degree() as u64;
    let steps = crate::math::linial_schedule(n.max(1), delta);
    let palette = steps.last().map(|s| s.to_palette).unwrap_or(n.max(1));
    let groups = vec![0u64; g.n()];
    let init: Vec<u64> = (0..g.n()).map(|v| g.ident(v) - 1).collect();
    let (colors, stats) = run_code_reduction(net, &groups, 1, &init, steps);
    (colors, palette, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{kuhn_schedule, linial_final_palette, linial_schedule, log_star};
    use deco_graph::coloring::VertexColoring;
    use deco_graph::generators;

    #[test]
    fn linial_produces_proper_small_palette() {
        for g in [
            generators::complete(8),
            generators::cycle(17),
            generators::random_bounded_degree(120, 6, 3),
            generators::clique_with_pendants(9),
        ] {
            let net = Network::new(&g);
            let (colors, palette, stats) = linial_coloring(&net);
            let c = VertexColoring::new(colors);
            assert!(c.is_proper(&g), "Linial output must be proper");
            assert!(c.color_bound() <= palette);
            let delta = g.max_degree() as u64;
            let bound = crate::math::next_prime(delta + 2).pow(2);
            assert!(palette <= 4 * bound.max(16));
            // O(log* n) rounds.
            assert!(stats.rounds as u32 <= log_star(g.n() as u64) + 4);
        }
    }

    #[test]
    fn linial_respects_groups() {
        // Two interleaved groups on a clique: within-group properness only.
        let g = generators::complete(10);
        let net = Network::new(&g);
        let groups: Vec<u64> = (0..10).map(|v| (v % 2) as u64).collect();
        // Within-group degree is 4.
        let steps = linial_schedule(10, 4);
        let init: Vec<u64> = (0..10).map(|v| g.ident(v) - 1).collect();
        let (colors, _) = run_code_reduction(&net, &groups, 2, &init, steps);
        for u in 0..10 {
            for v in 0..10 {
                if u != v && groups[u] == groups[v] {
                    assert_ne!(colors[u], colors[v], "same-group clique vertices collide");
                }
            }
        }
    }

    #[test]
    fn kuhn_defect_within_target() {
        for (n, delta_cap, p) in [(150, 12, 3u64), (150, 12, 2), (200, 16, 4)] {
            let g = generators::random_bounded_degree(n, delta_cap, 7);
            let delta = g.max_degree() as u64;
            let net = Network::new(&g);
            let (lin, palette, _) = linial_coloring(&net);
            let target = delta / p;
            let steps = kuhn_schedule(palette, delta, target);
            let groups = vec![0u64; g.n()];
            let (colors, stats) = run_code_reduction(&net, &groups, 1, &lin, steps.clone());
            let c = VertexColoring::new(colors);
            assert!(
                c.defect(&g) as u64 <= target,
                "defect {} exceeds target {target}",
                c.defect(&g)
            );
            if let Some(last) = steps.last() {
                assert!(c.color_bound() <= last.to_palette);
            }
            assert_eq!(stats.rounds, steps.len());
        }
    }

    #[test]
    fn theorem_4_7_refinement_chain() {
        // Refine 0-defective -> Δ/4-defective -> Δ/2-defective; the defect
        // bound must hold at every stage and palettes must shrink.
        let g = generators::random_bounded_degree(200, 24, 47);
        let delta = g.max_degree() as u64;
        let net = Network::new(&g);
        let groups = vec![0u64; g.n()];
        let (rho, rho_palette, _) = linial_coloring(&net);
        let (c1, p1, s1) = crate::code_reduction::refine_defective(
            &net,
            &groups,
            1,
            &rho,
            rho_palette,
            delta,
            0,
            delta / 4,
        );
        let vc1 = VertexColoring::new(c1.clone());
        assert!(vc1.defect(&g) as u64 <= delta / 4);
        assert!(p1 <= rho_palette);
        let (c2, p2, s2) = crate::code_reduction::refine_defective(
            &net,
            &groups,
            1,
            &c1,
            p1,
            delta,
            delta / 4,
            delta / 2,
        );
        let vc2 = VertexColoring::new(c2);
        assert!(vc2.defect(&g) as u64 <= delta / 2);
        assert!(p2 <= p1);
        // O(log* M) rounds each.
        assert!(s1.rounds <= 6 && s2.rounds <= 6);
    }

    #[test]
    #[should_panic(expected = "cannot reduce defect")]
    fn refinement_rejects_decreasing_defect() {
        let g = generators::path(4);
        let net = Network::new(&g);
        let groups = vec![0u64; 4];
        let init = vec![0, 1, 0, 1];
        let _ = crate::code_reduction::refine_defective(&net, &groups, 1, &init, 2, 1, 3, 1);
    }

    #[test]
    fn empty_schedule_is_free() {
        let g = generators::path(5);
        let net = Network::new(&g);
        let init = vec![0, 1, 0, 1, 0];
        let groups = vec![0u64; 5];
        let (colors, stats) = run_code_reduction(&net, &groups, 1, &init, Vec::new());
        assert_eq!(colors, init);
        assert_eq!(stats, RunStats::zero());
    }

    #[test]
    fn message_sizes_are_logarithmic() {
        let g = generators::random_bounded_degree(300, 8, 5);
        let net = Network::new(&g);
        let (_, _, stats) = linial_coloring(&net);
        // First round sends a color from a palette of n: ~ ⌈log n⌉ + group.
        assert!(stats.max_message_bits <= 2 * (64 - (g.n() as u64).leading_zeros() as usize));
    }

    #[test]
    fn shuffled_idents_still_proper() {
        let g = generators::shuffle_idents(&generators::random_bounded_degree(80, 7, 2), 99);
        let net = Network::new(&g);
        let (colors, _, _) = linial_coloring(&net);
        assert!(VertexColoring::new(colors).is_proper(&g));
    }

    #[test]
    fn final_palette_matches_helper() {
        let g = generators::random_bounded_degree(64, 5, 1);
        let net = Network::new(&g);
        let (_, palette, _) = linial_coloring(&net);
        assert_eq!(palette, linial_final_palette(64, g.max_degree() as u64));
    }
}
