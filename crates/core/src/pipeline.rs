//! The pipeline runner every algorithm driver goes through.
//!
//! Before PR 2 each driver hand-rolled the same loop: build per-node
//! protocol state, call the simulator, sum the [`RunStats`], merge per-edge
//! replicas, repeat for the next phase — and, because the per-node state
//! held `Rc` tables, all of it was locked out of parallel stepping.
//! [`Pipeline`] centralizes that boilerplate:
//!
//! * **Phase sequencing** — phases run in order against one [`Network`];
//!   each phase's [`RunStats`] accumulates into the pipeline total and is
//!   kept per phase in a [`PhaseTrace`] for diagnostics.
//! * **Threaded execution** — every phase executes through
//!   [`Network::run`], so all drivers inherit deterministic parallel
//!   stepping (and the thread budget and engine selection of the
//!   underlying network: `Engine::Naive` still routes to the reference
//!   engine for differential benches). Protocol state must be `Send`:
//!   shared read-only tables are held through an `Arc`, never `Rc`.
//! * **Verification hooks** — [`Pipeline::verify`] runs a boolean-output
//!   protocol (e.g. the one-round checkers in [`crate::verify`]) as a phase
//!   and reports whether every node accepted, charging its rounds to the
//!   pipeline like any other phase.
//!
//! Per-edge algorithms replicate each edge's result at both endpoints;
//! [`merge_edge_replicas`] folds the per-vertex outputs into one value per
//! edge and asserts the replicas agree — the shared consistency check the
//! edge drivers used to copy-paste.

use deco_graph::EdgeIdx;
use deco_local::{Network, NodeCtx, Protocol, RoundLoad, RunStats};
use deco_probe::Event;

/// Stats of one named pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Phase name (static, driver-chosen).
    pub name: &'static str,
    /// The phase's own run statistics.
    pub stats: RunStats,
}

/// Sequences protocol phases over one network, accumulating statistics.
/// See the module docs.
#[derive(Debug)]
pub struct Pipeline<'n, 'g> {
    net: &'n Network<'g>,
    stats: RunStats,
    phases: Vec<PhaseTrace>,
    /// Phase whose `PhaseEnter` was emitted but whose `PhaseExit` is still
    /// pending — set by [`Pipeline::run_profiled`] before the run so the
    /// phase's `Round` events land inside its span, cleared by
    /// [`Pipeline::absorb`].
    pending: Option<&'static str>,
}

impl<'n, 'g> Pipeline<'n, 'g> {
    /// Starts an empty pipeline over `net`.
    pub fn new(net: &'n Network<'g>) -> Pipeline<'n, 'g> {
        Pipeline { net, stats: RunStats::zero(), phases: Vec::new(), pending: None }
    }

    /// The underlying network.
    pub fn net(&self) -> &'n Network<'g> {
        self.net
    }

    /// Runs one protocol phase through [`Network::run`] and returns the
    /// per-vertex outputs; stats accumulate into the pipeline.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Network::run`].
    pub fn run<P, F>(&mut self, name: &'static str, make: F) -> Vec<P::Output>
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
        F: FnMut(&NodeCtx<'_>) -> P,
    {
        self.run_profiled(name, make).0
    }

    /// [`Pipeline::run`], additionally returning the phase's per-round load
    /// profile.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Network::run`].
    pub fn run_profiled<P, F>(
        &mut self,
        name: &'static str,
        make: F,
    ) -> (Vec<P::Output>, Vec<RoundLoad>)
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
        F: FnMut(&NodeCtx<'_>) -> P,
    {
        let probe = self.net.probe();
        if probe.enabled() {
            probe.emit(Event::PhaseEnter { name: name.into() });
            self.pending = Some(name);
        }
        let run = self.net.run(make);
        self.absorb(name, run.stats);
        (run.outputs, run.profile)
    }

    /// Verification hook: runs a boolean-verdict protocol phase and returns
    /// whether every node accepted. The verification rounds are charged to
    /// the pipeline like any other phase.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Network::run`].
    pub fn verify<P, F>(&mut self, name: &'static str, make: F) -> bool
    where
        P: Protocol<Output = bool> + Send,
        P::Msg: Send + Sync,
        F: FnMut(&NodeCtx<'_>) -> P,
    {
        self.run(name, make).iter().all(|&ok| ok)
    }

    /// Folds the stats of a nested driver (one that ran its own phases,
    /// e.g. a recursion level) into the pipeline as a named phase.
    ///
    /// With an enabled probe on the network this closes the phase's span:
    /// a `PhaseExit` event carrying the phase's stats, preceded by a
    /// `PhaseEnter` for phases absorbed without a [`Pipeline::run_profiled`]
    /// call (nested drivers emit balanced spans either way). Aggregate
    /// phases absorbed on top of their inner phases overlap them in a
    /// report — the report documents that — so no de-duplication happens
    /// here.
    pub fn absorb(&mut self, name: &'static str, stats: RunStats) {
        let probe = self.net.probe();
        if probe.enabled() {
            if self.pending.take() != Some(name) {
                probe.emit(Event::PhaseEnter { name: name.into() });
            }
            probe.emit(Event::PhaseExit { name: name.into(), stats: stats.into() });
        }
        self.stats += stats;
        self.phases.push(PhaseTrace { name, stats });
    }

    /// Total statistics over all phases so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The per-phase traces, in execution order.
    pub fn phases(&self) -> &[PhaseTrace] {
        &self.phases
    }

    /// Consumes the pipeline, returning the total statistics.
    pub fn into_stats(self) -> RunStats {
        self.stats
    }
}

/// Merges per-vertex replicated edge values into one value per edge.
///
/// Per-edge protocols output `Vec<(edge, value)>` at both endpoints;
/// this folds them into a per-edge vector, asserting (a) the endpoints
/// agree on every edge and (b) every one of the `m` edges was decided.
///
/// # Panics
///
/// Panics if replicas disagree or an edge is missing — both indicate a
/// protocol bug, never valid input.
pub fn merge_edge_replicas(m: usize, per_vertex: &[Vec<(EdgeIdx, u64)>], what: &str) -> Vec<u64> {
    let mut merged: Vec<Option<u64>> = vec![None; m];
    for outputs in per_vertex {
        for &(e, value) in outputs {
            match merged[e] {
                None => merged[e] = Some(value),
                Some(prior) => {
                    assert_eq!(prior, value, "endpoints disagree on {what}({e})");
                }
            }
        }
    }
    merged
        .into_iter()
        .enumerate()
        // INVARIANT: every stage must decide all edges before the pipeline advances; a missing value is a stage bug worth aborting on.
        .map(|(e, v)| v.unwrap_or_else(|| panic!("edge {e} carries no {what} value")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::generators;
    use deco_local::Action;

    struct Ping(bool);
    impl Protocol for Ping {
        type Msg = u64;
        type Output = bool;
        fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, u64)> {
            ctx.broadcast(ctx.ident)
        }
        fn round(&mut self, _ctx: &NodeCtx<'_>, inbox: &[(usize, u64)]) -> Action<u64> {
            self.0 = !inbox.is_empty();
            Action::halt()
        }
        fn finish(self, _ctx: &NodeCtx<'_>) -> bool {
            self.0
        }
    }

    #[test]
    fn phases_accumulate_stats() {
        let g = generators::cycle(10);
        let net = Network::new(&g);
        let mut pl = Pipeline::new(&net);
        let a = pl.run("first", |_| Ping(false));
        assert!(a.iter().all(|&b| b));
        assert!(pl.verify("check", |_| Ping(false)));
        pl.absorb("external", RunStats { rounds: 3, ..RunStats::zero() });
        assert_eq!(pl.phases().len(), 3);
        assert_eq!(pl.stats().rounds, 1 + 1 + 3);
        let two_runs = pl.phases()[0].stats + pl.phases()[1].stats;
        assert_eq!(two_runs.messages, 2 * 2 * g.m());
        assert_eq!(pl.into_stats().rounds, 5);
    }

    /// Every edge reported from both endpoints with the edge id as value.
    struct EdgeEcho(Vec<(EdgeIdx, u64)>);
    impl Protocol for EdgeEcho {
        type Msg = ();
        type Output = Vec<(EdgeIdx, u64)>;
        fn start(&mut self, _ctx: &NodeCtx<'_>) -> Vec<(usize, ())> {
            Vec::new()
        }
        fn round(&mut self, _ctx: &NodeCtx<'_>, _inbox: &[(usize, ())]) -> Action<()> {
            Action::halt()
        }
        fn finish(self, _ctx: &NodeCtx<'_>) -> Vec<(EdgeIdx, u64)> {
            self.0
        }
    }

    #[test]
    fn merge_checks_agreement() {
        let g = generators::path(4);
        let net = Network::new(&g);
        let mut pl = Pipeline::new(&net);
        let outs = pl.run("echo", |ctx| {
            EdgeEcho(g.incident(ctx.vertex).map(|(_, e)| (e, e as u64 * 7)).collect())
        });
        let merged = merge_edge_replicas(g.m(), &outs, "echo");
        assert_eq!(merged, vec![0, 7, 14]);
    }

    #[test]
    #[should_panic(expected = "endpoints disagree")]
    fn merge_rejects_disagreement() {
        let per_vertex = vec![vec![(0usize, 1u64)], vec![(0usize, 2u64)]];
        let _ = merge_edge_replicas(1, &per_vertex, "test");
    }

    #[test]
    #[should_panic(expected = "carries no")]
    fn merge_rejects_missing_edge() {
        let per_vertex = vec![vec![(0usize, 1u64)]];
        let _ = merge_edge_replicas(2, &per_vertex, "test");
    }

    #[test]
    fn probe_sees_balanced_phase_spans() {
        use deco_probe::{Event, RecordingProbe};
        use std::sync::Arc;
        let g = generators::cycle(10);
        let probe = Arc::new(RecordingProbe::new());
        let net = Network::new(&g).with_probe(probe.clone());
        let mut pl = Pipeline::new(&net);
        pl.run("first", |_| Ping(false));
        pl.absorb("external", RunStats { rounds: 3, node_rounds: 30, ..RunStats::zero() });
        let events = probe.events();
        let spans: Vec<(&str, &str)> = events
            .iter()
            .filter_map(|e| match e {
                Event::PhaseEnter { name } => Some(("enter", name.as_ref())),
                Event::PhaseExit { name, .. } => Some(("exit", name.as_ref())),
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
            [("enter", "first"), ("exit", "first"), ("enter", "external"), ("exit", "external")]
        );
        // The run's rounds were emitted inside the "first" span.
        let round_pos = events.iter().position(|e| matches!(e, Event::Round { .. })).unwrap();
        let exit_pos = events
            .iter()
            .position(|e| matches!(e, Event::PhaseExit { name, .. } if name == "first"))
            .unwrap();
        assert!(round_pos < exit_pos);
        // The absorbed phase's stats ride on its exit event.
        let Some(Event::PhaseExit { stats, .. }) = events.last() else {
            panic!("expected trailing PhaseExit");
        };
        assert_eq!((stats.rounds, stats.node_rounds), (3, 30));
    }

    #[test]
    fn merge_accepts_max_sentinel_free_values() {
        // u64::MAX is a legitimate value, not an in-band "missing" marker.
        let per_vertex = vec![vec![(0usize, u64::MAX)], vec![(0usize, u64::MAX)]];
        assert_eq!(merge_edge_replicas(1, &per_vertex, "test"), vec![u64::MAX]);
    }
}
