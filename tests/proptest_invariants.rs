//! Property-based tests: the core invariants hold on arbitrary random
//! graphs, not just the curated battery.
//!
//! The offline build has no proptest, so properties are checked over a
//! deterministic sweep of seeded random cases instead of strategy-driven
//! sampling. Every case is a pure function of its index, so a failure
//! report ("case i: n=.., seed=..") is immediately reproducible; shrinking
//! is traded away for reproducibility and zero dependencies.

use deco_core::defective::{defective_color, theorem_3_7_defect};
use deco_core::edge::legal::{edge_color, edge_log_depth, MessageMode};
use deco_core::edge::panconesi_rizzi::pr_edge_color;
use deco_core::legal::legal_color;
use deco_core::math::{kuhn_schedule, linial_schedule, log_star};
use deco_core::params::LegalParams;
use deco_core::reduction::delta_plus_one_coloring;
use deco_graph::coloring::VertexColoring;
use deco_graph::line_graph::line_graph;
use deco_graph::properties::{
    max_independent_subset, neighborhood_independence, vertex_neighborhood_independence,
};
use deco_graph::{generators, Graph};
use deco_local::Network;

const CASES: u64 = 24;

/// The sweep analogue of the old `small_graph()` strategy: for case `i`,
/// a graph with `n` in `2..=28` and edge count derived from the seed.
fn small_graph(i: u64) -> Graph {
    let n = 2 + (i.wrapping_mul(0x9e37_79b9) % 27) as usize;
    let seed = i.wrapping_mul(7919) % 1000;
    let max_m = n * (n - 1) / 2;
    let m = (seed as usize * 7919) % (max_m + 1);
    generators::random_graph(n, m, seed)
}

/// A case-derived pseudo-random u64 (stands in for auxiliary strategy
/// parameters like masks and seeds).
fn aux(i: u64, salt: u64) -> u64 {
    let mut z = i.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Lemma 5.1 as a universal property: I(L(G)) <= 2 for every graph.
#[test]
fn line_graph_bounded_independence() {
    for i in 0..CASES {
        let g = small_graph(i);
        let l = line_graph(&g);
        assert!(neighborhood_independence(&l) <= 2, "case {i}");
    }
}

/// Lemma 3.6: induced subgraphs never increase neighborhood independence.
#[test]
fn induced_subgraph_closure() {
    for i in 0..CASES {
        let g = small_graph(i);
        let mask = aux(i, 1);
        let keep: Vec<usize> = (0..g.n()).filter(|v| mask >> (v % 64) & 1 == 1).collect();
        let (h, _) = g.induced(&keep);
        for v in 0..h.n() {
            assert!(
                vertex_neighborhood_independence(&h, v) <= neighborhood_independence(&g),
                "case {i}, vertex {v}"
            );
        }
    }
}

/// Panconesi–Rizzi always yields a proper (2Δ-1)-edge-coloring.
#[test]
fn pr_proper_everywhere() {
    for i in 0..CASES {
        let g = small_graph(i);
        if g.m() > 0 {
            let (coloring, _) = pr_edge_color(&g);
            assert!(coloring.is_proper(&g), "case {i}");
            assert!(coloring.palette_size() < 2 * g.max_degree(), "case {i}");
        }
    }
}

/// The native edge algorithm is proper with colors below ϑ.
#[test]
fn edge_color_proper_everywhere() {
    for i in 0..CASES {
        let g = small_graph(i);
        let run = edge_color(&g, edge_log_depth(1), MessageMode::Long).unwrap();
        assert!(run.coloring.is_proper(&g), "case {i}");
        assert!(run.coloring.colors().iter().all(|&c| c < run.theta.max(1)), "case {i}");
    }
}

/// (Δ+1)-coloring is proper and within palette on every graph.
#[test]
fn delta_plus_one_everywhere() {
    for i in 0..CASES {
        let g = small_graph(i);
        let net = Network::new(&g);
        let (colors, _) = delta_plus_one_coloring(&net);
        let c = VertexColoring::new(colors);
        assert!(c.is_proper(&g), "case {i}");
        assert!(c.color_bound() <= g.max_degree() as u64 + 1, "case {i}");
    }
}

/// Algorithm 1's Theorem 3.7 bound holds with the graph's true c.
#[test]
fn defective_color_respects_theorem_3_7() {
    for i in 0..CASES {
        let g = small_graph(i);
        let p = 2 + aux(i, 2) % 3; // 2..5
        let lambda = g.max_degree() as u64;
        if lambda >= p {
            let c = neighborhood_independence(&g).max(1) as u64;
            let net = Network::new(&g);
            let run = defective_color(&net, 1, p, lambda);
            let coloring = VertexColoring::new(run.psi);
            assert!(coloring.color_bound() <= p, "case {i}");
            assert!(coloring.defect(&g) as u64 <= theorem_3_7_defect(c, 1, p, lambda), "case {i}");
        }
    }
}

/// Legal-Color with the graph's true c is always proper.
#[test]
fn legal_color_proper_with_true_c() {
    for i in 0..CASES {
        let g = small_graph(i);
        let c = neighborhood_independence(&g).max(1) as u64;
        let net = Network::new(&g);
        let run = legal_color(&net, c, LegalParams::log_depth(c, 1)).unwrap();
        assert!(run.coloring.is_proper(&g), "case {i}");
    }
}

/// Kuhn schedules never exceed their defect budget and Linial schedules
/// always land at O(Δ²).
#[test]
fn schedules_are_sound() {
    for i in 0..CASES {
        let m0 = 8 + aux(i, 3) % 999_992; // 8..1_000_000
        let delta = 1 + aux(i, 4) % 511; // 1..512
        let p = 1 + aux(i, 5) % 31; // 1..32
        let lin = linial_schedule(m0, delta);
        assert!(lin.len() as u32 <= log_star(m0) + 3, "case {i}");
        for s in &lin {
            assert!(s.q > u64::from(s.k) * delta, "case {i}");
            assert_eq!(s.defect_budget, 0, "case {i}");
        }
        let d = (delta / p).max(1);
        let kuhn = kuhn_schedule(m0, delta, d);
        let total: u64 = kuhn.iter().map(|s| s.defect_budget).sum();
        assert!(total <= d, "case {i}");
    }
}

/// Exact MIS is monotone under taking subsets.
#[test]
fn mis_monotone() {
    for i in 0..CASES {
        let g = small_graph(i);
        let mask = aux(i, 6);
        let all: Vec<usize> = (0..g.n()).collect();
        let sub: Vec<usize> = all.iter().copied().filter(|v| mask >> (v % 61) & 1 == 1).collect();
        assert!(max_independent_subset(&g, &sub) <= max_independent_subset(&g, &all), "case {i}");
    }
}

/// Cole–Vishkin 3-colors the identifier pseudo-forest decomposition of
/// any graph: colors in {0,1,2}, proper within every forest.
#[test]
fn cole_vishkin_on_arbitrary_graphs() {
    for i in 0..CASES {
        let g = generators::shuffle_idents(&small_graph(i), aux(i, 7) % 1000);
        // Forest f = each vertex's f-th out-edge toward smaller idents.
        let mut spec = vec![(0u64, 0usize); g.m()];
        for v in 0..g.n() {
            let mut parents: Vec<(u64, usize, usize)> = g
                .incident(v)
                .filter(|&(u, _)| g.ident(u) < g.ident(v))
                .map(|(u, e)| (g.ident(u), u, e))
                .collect();
            parents.sort_unstable();
            for (f, &(_, u, e)) in parents.iter().enumerate() {
                spec[e] = (f as u64, u);
            }
        }
        let net = Network::new(&g);
        let (colors, _) = deco_core::cole_vishkin::cv_three_color(&net, &spec);
        let lookup =
            |v: usize, fid: u64| colors[v].iter().find(|&&(f, _)| f == fid).map(|&(_, c)| c);
        for (e, &(fid, _)) in spec.iter().enumerate() {
            let (u, v) = g.endpoints(e);
            let (cu, cv) = (lookup(u, fid), lookup(v, fid));
            assert!(cu.is_some() && cv.is_some(), "case {i}, edge {e}");
            assert!(cu.unwrap() < 3 && cv.unwrap() < 3, "case {i}, edge {e}");
            assert_ne!(cu, cv, "case {i}, edge {e}");
        }
    }
}

/// Lemma 3.4 via the protocol: proper (d+1)-coloring along any rank
/// orientation.
#[test]
fn orientation_coloring_proper() {
    for i in 0..CASES {
        let g = small_graph(i);
        let rank_seed = aux(i, 8) % 1000;
        let ranks: Vec<u64> =
            (0..g.n()).map(|v| (v as u64).wrapping_mul(rank_seed + 1) % 5).collect();
        let o = deco_graph::orientation::Orientation::toward_smaller_rank(&g, &ranks);
        let d = o.max_out_degree(&g) as u64;
        let net = Network::new(&g);
        let (colors, _) = deco_core::orientation_color::orientation_coloring(&net, &ranks, 5, d);
        let c = VertexColoring::new(colors);
        assert!(c.is_proper(&g), "case {i}");
        assert!(c.color_bound() <= d + 1, "case {i}");
    }
}

/// Corollary 5.4 defect bound on arbitrary graphs and label widths.
#[test]
fn kuhn_labels_defect() {
    for i in 0..CASES {
        let g = small_graph(i);
        let p = 1 + aux(i, 9) % 5; // 1..6
        if g.m() > 0 {
            let net = Network::new(&g);
            let groups = vec![0u64; g.m()];
            let w = g.max_degree() as u64;
            let (phi, palette, stats) =
                deco_core::edge::kuhn_labels::kuhn_defective_edge_coloring(&net, &groups, p, w);
            assert_eq!(stats.rounds, 1, "case {i}");
            assert!(phi.iter().all(|&c| c < palette), "case {i}");
            let ec = deco_graph::coloring::EdgeColoring::new(phi);
            assert!(
                (ec.defect(&g) as u64) <= deco_core::edge::kuhn_labels::corollary_5_4_defect(w, p),
                "case {i}"
            );
        }
    }
}

/// The randomized baselines stay proper for arbitrary seeds.
#[test]
fn randomized_baselines_proper() {
    for i in 0..CASES {
        let g = small_graph(i);
        let seed = aux(i, 10) % 5000;
        if g.m() > 0 {
            let (ec, _) =
                deco_core::baselines::randomized_trial::randomized_trial_edge_color(&g, seed);
            assert!(ec.is_proper(&g), "case {i}");
        }
        let (vc, _) =
            deco_core::baselines::randomized_trial::randomized_trial_vertex_color(&g, seed);
        assert!(vc.is_proper(&g), "case {i}");
        assert!(vc.color_bound() <= 2 * g.max_degree().max(1) as u64, "case {i}");
    }
}

/// The edge variant of Algorithm 1 meets the Theorem 3.7 (c = 2) bound on
/// arbitrary graphs.
#[test]
fn edge_defective_bound() {
    for i in 0..CASES {
        let g = small_graph(i);
        let p = 2 + aux(i, 11) % 3; // 2..5
        if g.m() > 0 {
            let net = Network::new(&g);
            let groups = vec![0u64; g.m()];
            let w = g.max_degree() as u64;
            let run = deco_core::edge::defective::edge_defective_color_in_groups(
                &net,
                &groups,
                1,
                p,
                w,
                deco_core::edge::defective::MessageMode::Long,
            );
            assert!(run.psi.iter().all(|&k| k < p), "case {i}");
            let bound = deco_core::edge::defective::edge_defect_bound(1, p, w) as usize;
            let ec = deco_graph::coloring::EdgeColoring::new(run.psi);
            for e in 0..g.m() {
                assert!(ec.defect_of(&g, e) <= bound, "case {i}, edge {e}");
            }
        }
    }
}

/// The streaming recolorer's contract on arbitrary churn: after **every**
/// commit the incremental coloring is proper and uses no more colors than
/// the from-scratch pipeline's bound ϑ for the same snapshot (palette size
/// and color values alike). Sweeps graph size, degree cap, churn size and
/// repair threshold, so both the incremental path and the from-scratch
/// fallback are exercised.
#[test]
fn stream_recoloring_valid_after_every_commit() {
    use deco_core::edge::legal::edge_color_bound;
    use deco_graph::trace::churn_trace;
    use deco_stream::{RecolorConfig, Recolorer, RegionRecolor};

    for i in 0..12u64 {
        let n = 24 + (aux(i, 12) % 120) as usize;
        let cap = 3 + (aux(i, 13) % 4) as usize; // 3..7
        let churn = 2 + (aux(i, 14) % 7) as usize; // 2..9
        let threshold = [5, 25, 60][(aux(i, 15) % 3) as usize];
        let params = edge_log_depth(1);
        let trace = churn_trace(n, cap, 3, churn, aux(i, 16));
        let mut r = Recolorer::new_with(
            trace.n0,
            params,
            MessageMode::Long,
            RecolorConfig::default().with_repair_threshold(threshold),
        )
        .unwrap();
        for (c, batch) in trace.batches().into_iter().enumerate() {
            for &op in batch {
                r.queue_op(op).unwrap();
            }
            r.commit().unwrap();
            let g = r.graph();
            let coloring = r.coloring();
            assert!(coloring.is_proper(g), "case {i}, commit {c}: improper");
            let bound = edge_color_bound(&params, g.max_degree() as u64);
            assert!(
                coloring.colors().iter().all(|&col| col < bound),
                "case {i}, commit {c}: color exceeds from-scratch bound {bound}"
            );
            assert!(coloring.palette_size() as u64 <= bound, "case {i}, commit {c}");
        }
    }
}

/// Misra–Gries always meets Vizing's bound Δ+1 — the strongest centralized
/// quality oracle.
#[test]
fn misra_gries_vizing_bound() {
    for i in 0..CASES {
        let g = small_graph(i);
        let c = deco_core::baselines::misra_gries::misra_gries_edge_color(&g);
        assert!(c.is_proper(&g), "case {i}");
        if g.m() > 0 {
            assert!(c.palette_size() <= g.max_degree() + 1, "case {i}");
        }
    }
}

/// The forest-decomposition baseline is proper with O(threshold²) colors.
#[test]
fn forest_decomposition_proper() {
    for i in 0..CASES {
        let g = small_graph(i);
        let run = deco_core::baselines::forest_decomposition::forest_decomposition_coloring(&g);
        assert!(run.coloring.is_proper(&g), "case {i}");
        assert!(run.coloring.color_bound() <= run.palette, "case {i}");
    }
}
