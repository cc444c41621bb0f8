//! Differential tests: every algorithm pipeline runs on the threaded slot
//! engine end to end, and must be **bit-identical** across thread budgets
//! (1, 2, 8) and against the naive reference engine, which never takes the
//! slot engine's push-list delivery path. A pipeline here means the whole
//! driver — auxiliary colorings, recursion levels, bottom phases — not a
//! single protocol run.

use deco_core::cole_vishkin::cv_three_color;
use deco_core::edge::legal::{edge_color_in_groups, edge_log_depth, MessageMode};
use deco_core::edge::panconesi_rizzi::pr_edge_color_in_groups;
use deco_core::legal::legal_color;
use deco_core::params::LegalParams;
use deco_core::reduction::delta_plus_one_coloring;
use deco_graph::{generators, Graph, Vertex};
use deco_local::{Engine, Network};

/// One simulator configuration: a name and how to derive it from a fresh
/// network.
type Config = (&'static str, Box<dyn Fn(Network<'_>) -> Network<'_>>);

/// All simulator configurations every pipeline is differentially run under.
/// `with_threads(1)` is the sequential baseline; 2 and 8 exercise chunked
/// parallel stepping (the test graphs are big enough to cross the
/// parallelism threshold); naive is the pre-refactor reference engine.
fn configs() -> Vec<Config> {
    vec![
        ("threads-1", Box::new(|net: Network<'_>| net.with_threads(1))),
        ("threads-2", Box::new(|net: Network<'_>| net.with_threads(2))),
        ("threads-8", Box::new(|net: Network<'_>| net.with_threads(8))),
        ("engine-naive", Box::new(|net: Network<'_>| net.with_engine(Engine::Naive))),
    ]
}

/// Runs `driver` under every config and asserts the results agree with the
/// sequential run bit for bit.
fn assert_differential<T, D>(g: &Graph, driver: D)
where
    T: PartialEq + std::fmt::Debug,
    D: Fn(&Network<'_>) -> T,
{
    let reference = driver(&Network::new(g).with_threads(1));
    for (name, cfg) in configs() {
        let run = driver(&cfg(Network::new(g)));
        assert_eq!(run, reference, "pipeline diverged under {name}");
    }
}

/// The Panconesi–Rizzi pseudo-forest decomposition used by the CV tests.
fn ident_forest(g: &Graph) -> Vec<(u64, Vertex)> {
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
fn cole_vishkin_pipeline_differential() {
    // Big enough that rounds with ~3000 live nodes step in parallel.
    let g = generators::random_bounded_degree(3000, 8, 0xcf01);
    let spec = ident_forest(&g);
    assert_differential(&g, |net| cv_three_color(net, &spec));
}

#[test]
fn code_reduction_and_kw_reduction_pipeline_differential() {
    // delta_plus_one_coloring = Linial code reduction followed by the
    // Kuhn–Wattenhofer reduction: both migrated drivers in sequence.
    let g = generators::random_bounded_degree(3000, 7, 0xcf02);
    assert_differential(&g, delta_plus_one_coloring);
}

#[test]
fn legal_color_pipeline_differential() {
    // Torus has neighborhood independence <= 4; Δ = 4 keeps it fast while
    // n = 3136 crosses the parallel-stepping threshold.
    let g = generators::torus(56, 56);
    assert_differential(&g, |net| {
        let run = legal_color(net, 4, LegalParams::log_depth(4, 1)).expect("valid params");
        assert!(run.coloring.is_proper(net.graph()));
        (run.coloring, run.theta, run.levels, run.stats)
    });
}

#[test]
fn edge_pipeline_differential() {
    // Δ above the preset threshold so the edge recursion actually fires.
    let params = edge_log_depth(1);
    let g = generators::random_bounded_degree(1500, (params.lambda + 4) as usize, 0xcf03);
    let groups = vec![0u64; g.m()];
    assert_differential(&g, |net| {
        let run =
            edge_color_in_groups(net, &groups, 1, params, g.max_degree() as u64, MessageMode::Long)
                .expect("valid params");
        assert!(run.coloring.is_proper(&g));
        assert!(!run.levels.is_empty(), "recursion must fire for the test to mean anything");
        (run.coloring, run.theta, run.levels, run.stats)
    });
}

#[test]
fn panconesi_rizzi_pipeline_differential() {
    let g = generators::random_bounded_degree(2000, 9, 0xcf04);
    let groups = vec![0u64; g.m()];
    assert_differential(&g, |net| pr_edge_color_in_groups(net, &groups, g.max_degree() as u64));
}
