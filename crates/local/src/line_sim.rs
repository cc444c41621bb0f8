//! Lemma 5.2: simulating line-graph algorithms on the host graph.
//!
//! Any `T`-round algorithm for the line graph `L(G)` can be simulated by the
//! network `G` in at most `2T + O(1)` rounds: the endpoint with the smaller
//! identifier of each edge simulates the corresponding line-graph vertex, and
//! a line-graph message between vertices whose simulators are at distance 2
//! in `G` is relayed through the shared endpoint.
//!
//! A line-graph algorithm runs as any other protocol: [`Network::run`] on
//! `L(G)` (built by `deco_graph::line_graph::line_graph`) gives its
//! *native* stats. This module translates them into the *host* stats of
//! the Lemma 5.2 simulation: rounds doubled plus the constant setup round,
//! message sizes multiplied by the worst-case relay congestion of a host
//! edge. The host numbers are upper bounds, which is exactly how the paper
//! uses the lemma.
//!
//! [`Network::run`]: crate::Network::run

use crate::stats::RunStats;
use deco_graph::{Graph, Vertex};

/// Translates the statistics of a native `L(G)` run into host-network
/// statistics per Lemma 5.2: `2T + O(1)` rounds, twice the messages, and
/// message sizes multiplied by the worst-case relay congestion.
///
/// # Example
///
/// ```
/// use deco_graph::generators;
/// use deco_graph::line_graph::line_graph;
/// use deco_local::line_sim::lemma_5_2_host_stats;
/// use deco_local::{Action, Network, NodeCtx, Protocol};
///
/// /// Each line-graph vertex (host edge) learns its degree in L(G).
/// struct LineDegree(usize);
/// impl Protocol for LineDegree {
///     type Msg = u64;
///     type Output = usize;
///     fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, u64)> {
///         self.0 = ctx.degree();
///         Vec::new()
///     }
///     fn round(&mut self, _: &NodeCtx<'_>, _: &[(usize, u64)]) -> Action<u64> {
///         Action::halt()
///     }
///     fn finish(self, _: &NodeCtx<'_>) -> usize {
///         self.0
///     }
/// }
///
/// let g = generators::path(4); // 3 edges in a path of L(G)
/// let l = line_graph(&g);
/// let run = Network::new(&l).run(|_| LineDegree(0));
/// assert_eq!(run.outputs, vec![1, 2, 1]);
/// let host = lemma_5_2_host_stats(&g, run.stats);
/// assert_eq!(host.rounds, 2 * run.stats.rounds + 1);
/// ```
pub fn lemma_5_2_host_stats(g: &Graph, native: RunStats) -> RunStats {
    let congestion = relay_congestion(g).max(1);
    RunStats {
        rounds: 2 * native.rounds + 1,
        // Each native node-round is simulated by its owner across the two
        // host rounds of the Lemma 5.2 cadence.
        node_rounds: 2 * native.node_rounds,
        messages: 2 * native.messages,
        max_message_bits: native.max_message_bits * congestion,
        total_message_bits: 2 * native.total_message_bits,
        transport_dropped: 2 * native.transport_dropped,
        // Commit traffic is a host-side quantity; the simulation relays
        // messages, it does not commit topology.
        commit_bytes: native.commit_bytes,
    }
}

/// The worst-case number of line-graph message routes crossing a single host
/// edge in one simulated round (each line vertex messaging each line
/// neighbor). This bounds the message-size blowup of the simulation; it is
/// `O(Δ)`, matching the paper's remark that the naive simulation needs
/// `O(Δ log n)`-bit messages.
pub fn relay_congestion(g: &Graph) -> usize {
    let m = g.m();
    if m == 0 {
        return 0;
    }
    // owner(e) = endpoint with smaller ident (Lemma 5.2's convention).
    let owner: Vec<Vertex> = (0..m)
        .map(|e| {
            let (u, v) = g.endpoints(e);
            if g.ident(u) < g.ident(v) {
                u
            } else {
                v
            }
        })
        .collect();
    let mut load = vec![0usize; m]; // per host edge, both directions pooled
    let mut route = |a: Vertex, b: Vertex| {
        if a != b {
            // INVARIANT: routes are built from host adjacency, so every step is an existing edge.
            let e = g.edge_between(a, b).expect("route step must be a host edge");
            load[e] += 1;
        }
    };
    for w in 0..g.n() {
        let incident: Vec<usize> = g.incident(w).map(|(_, e)| e).collect();
        for &e in &incident {
            for &f in &incident {
                if e == f {
                    continue;
                }
                // Message from line vertex e to line vertex f, relayed
                // through the shared endpoint w when the owners are not
                // adjacent or identical.
                let (a, b) = (owner[e], owner[f]);
                if a == b {
                    continue;
                }
                if g.has_edge(a, b) {
                    route(a, b);
                } else {
                    route(a, w);
                    route(w, b);
                }
            }
        }
    }
    load.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Action, Network, NodeCtx, Protocol};
    use deco_graph::generators;
    use deco_graph::line_graph::line_graph;

    struct CountNeighbors(usize);
    impl Protocol for CountNeighbors {
        type Msg = u64;
        type Output = usize;
        fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
            ctx.broadcast(1)
        }
        fn round(&mut self, _ctx: &NodeCtx<'_>, inbox: &[(Vertex, u64)]) -> Action<u64> {
            self.0 = inbox.len();
            Action::halt()
        }
        fn finish(self, _ctx: &NodeCtx<'_>) -> usize {
            self.0
        }
    }

    #[test]
    fn star_line_graph_is_clique() {
        let g = generators::star(5);
        let run = Network::new(&line_graph(&g)).run(|_| CountNeighbors(0));
        // L(K_{1,4}) = K_4: every line vertex has 3 neighbors.
        assert_eq!(run.outputs, vec![3, 3, 3, 3]);
        let host = lemma_5_2_host_stats(&g, run.stats);
        assert_eq!(host.rounds, 2 * run.stats.rounds + 1);
        assert_eq!(host.messages, 2 * run.stats.messages);
    }

    #[test]
    fn congestion_scales_with_degree() {
        // On a star all line vertices are simulated by leaves (center has
        // ident 1 < leaves? center ident is 1, so center owns everything:
        // all messages are local and congestion is 0).
        let star = generators::star(6);
        assert_eq!(relay_congestion(&star), 0);
        // Flip identifiers so the center has the largest ident: now every
        // leaf owns its edge and all messages relay through the center.
        let n = star.n();
        let mut ids: Vec<u64> = (1..=n as u64).collect();
        ids.rotate_left(1); // center gets ident n
        let star = star.with_idents(ids).unwrap();
        assert!(relay_congestion(&star) >= star.max_degree() - 1);
    }

    #[test]
    fn congestion_zero_for_empty() {
        assert_eq!(relay_congestion(&Graph::empty(3)), 0);
    }

    /// The Lemma 5.2 host-stat invariants must hold — and the native `L(G)`
    /// run, hence its host translation, must be bit-identical — under every
    /// engine/thread selection.
    #[test]
    fn host_stat_invariants_under_engine_selection() {
        use crate::network::Engine;
        let g = generators::random_bounded_degree(200, 8, 31);
        let l = line_graph(&g);
        let reference = Network::new(&l).run(|_| CountNeighbors(0));
        let native = reference.stats;
        let host = lemma_5_2_host_stats(&g, native);
        // rounds: exactly 2T + 1; messages doubled; bits doubled; max bits
        // scaled by the (engine-independent) relay congestion.
        assert_eq!(host.rounds, 2 * native.rounds + 1);
        assert_eq!(host.messages, 2 * native.messages);
        assert_eq!(host.total_message_bits, 2 * native.total_message_bits);
        let congestion = relay_congestion(&g).max(1);
        assert_eq!(host.max_message_bits, native.max_message_bits * congestion);
        let configs = [
            ("naive", Network::new(&l).with_engine(Engine::Naive)),
            ("threaded", Network::new(&l).with_threads(4)),
        ];
        for (name, net) in configs {
            let run = net.run(|_| CountNeighbors(0));
            assert_eq!(run.outputs, reference.outputs, "{name} outputs diverged");
            assert_eq!(run.stats, native, "{name} native stats diverged");
        }
    }

    #[test]
    fn path_congestion_small() {
        let g = generators::path(6);
        assert!(relay_congestion(&g) <= 4);
    }
}
