//! Line graphs of ordinary graphs.
//!
//! The line graph `L(G)` has a vertex for every edge of `G`, and two vertices
//! of `L(G)` are adjacent iff the corresponding edges of `G` share an
//! endpoint. Lemma 5.1 of the paper shows `I(L(G)) <= 2`, which is what makes
//! the bounded-neighborhood-independence machinery apply to edge coloring of
//! *general* graphs.

use crate::{Graph, Vertex};

/// The line graph of `g`.
///
/// Vertex `i` of the result corresponds to edge `i` of `g` (the normalized,
/// lexicographically sorted edge list), so an edge coloring of `g` and a
/// vertex coloring of `line_graph(g)` are the same vector. Following
/// Lemma 5.2, the identifier of line-graph vertex `i` is derived from the
/// ordered identifier pair of the endpoints of edge `i`: identifiers are
/// assigned by lexicographic rank of `(ident(u), ident(v))` with
/// `ident(u) < ident(v)`, which yields distinct identifiers in `{1, ..., m}`.
///
/// # Example
///
/// ```
/// use deco_graph::{line_graph::line_graph, Graph};
///
/// // A path on 4 vertices has 3 edges forming a path in the line graph.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
/// let l = line_graph(&g);
/// assert_eq!(l.n(), 3);
/// assert_eq!(l.m(), 2);
/// # Ok::<(), deco_graph::GraphError>(())
/// ```
pub fn line_graph(g: &Graph) -> Graph {
    let m = g.m();
    let mut b = Graph::builder(m);
    for v in 0..g.n() {
        let incident: Vec<usize> = g.incident(v).map(|(_, e)| e).collect();
        for (a, &e) in incident.iter().enumerate() {
            for &f in &incident[a + 1..] {
                // Two distinct edges sharing v. Distinct edges of a simple
                // graph share at most one endpoint (sharing both would make
                // them parallel), so each pair is produced exactly once,
                // at its one shared vertex: no deduplication is needed.
                // INVARIANT: line-graph vertex indices come from enumerate() over the edge list, so they are in range.
                b.add_edge(e, f).expect("edge indices in range");
            }
        }
    }
    // INVARIANT: each edge pair is produced once, at its one shared endpoint, so build cannot report duplicates.
    let l = b.build().expect("each pair is produced once");
    // Identifier of line vertex e = rank of (ident(u), ident(v)) ordered pairs.
    let mut keyed: Vec<((u64, u64), usize)> = (0..m)
        .map(|e| {
            let (u, v) = g.endpoints(e);
            let (a, b) = (g.ident(u), g.ident(v));
            (if a < b { (a, b) } else { (b, a) }, e)
        })
        .collect();
    keyed.sort_unstable();
    let mut idents = vec![0u64; m];
    for (rank, &(_, e)) in keyed.iter().enumerate() {
        idents[e] = rank as u64 + 1;
    }
    // INVARIANT: the identifier list is distinct by construction, so re-labelling cannot fail.
    l.with_idents(idents).expect("lexicographic ranks are distinct")
}

/// Maximum degree of the line graph of `g` without building it:
/// `deg_L(e) = deg(u) + deg(v) - 2` for `e = (u, v)`, so
/// `Δ(L(G)) <= 2Δ(G) - 2` (Section 5).
pub fn line_graph_max_degree(g: &Graph) -> usize {
    g.edges().map(|(u, v): (Vertex, Vertex)| g.degree(u) + g.degree(v) - 2).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::properties::neighborhood_independence;

    #[test]
    fn line_graph_of_triangle_is_triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let l = line_graph(&g);
        assert_eq!(l.n(), 3);
        assert_eq!(l.m(), 3);
    }

    #[test]
    fn line_graph_of_star_is_clique() {
        let g = generators::star(6);
        let l = line_graph(&g);
        assert_eq!(l.n(), 5);
        assert_eq!(l.m(), 5 * 4 / 2);
    }

    #[test]
    fn lemma_5_1_bounded_independence() {
        for g in [
            generators::complete(6),
            generators::star(9),
            generators::cycle(11),
            generators::grid(4, 5),
        ] {
            let l = line_graph(&g);
            assert!(neighborhood_independence(&l) <= 2, "Lemma 5.1 violated");
        }
    }

    #[test]
    fn degree_bound_matches() {
        let g = generators::grid(5, 5);
        let l = line_graph(&g);
        assert_eq!(l.max_degree(), line_graph_max_degree(&g));
        assert!(l.max_degree() <= 2 * g.max_degree() - 2);
    }

    #[test]
    fn idents_are_a_permutation() {
        let g = generators::grid(3, 4);
        let l = line_graph(&g);
        let mut ids: Vec<u64> = l.idents().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (1..=g.m() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(4);
        let l = line_graph(&g);
        assert_eq!(l.n(), 0);
        assert_eq!(line_graph_max_degree(&g), 0);
    }
}
