//! The simulator's determinism contract, pinned across delivery engines:
//! the slot-arena engine on one thread and at several thread budgets, and
//! the pre-refactor naive reference must produce bit-identical outputs,
//! `RunStats` and per-round `RoundLoad` profiles.

use deco_graph::generators;
use deco_local::{Action, DeliveryChoice, Engine, Network, NodeCtx, Protocol, RoundTrace, Run};

/// A gossip protocol with data-dependent fan-out and staggered halting:
/// every branch of the delivery machinery (broadcasts, selective sends,
/// silent rounds, mid-run halts with a final send) is exercised, and the
/// output hashes the entire message history, so any reordering or lost or
/// duplicated delivery changes it.
struct Gossip {
    acc: u64,
    rounds_left: usize,
}

impl Protocol for Gossip {
    type Msg = u64;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, u64)> {
        self.acc = ctx.ident.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ctx.broadcast(self.acc)
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(usize, u64)]) -> Action<u64> {
        for &(s, m) in inbox {
            self.acc = self
                .acc
                .rotate_left(7)
                .wrapping_add(m ^ (s as u64).wrapping_mul(0xd134_2543_de82_ef95));
        }
        if self.rounds_left == 0 || (ctx.vertex + ctx.round) % 11 == 0 {
            return Action::Halt(ctx.broadcast(self.acc));
        }
        self.rounds_left -= 1;
        match self.acc % 3 {
            0 => Action::Broadcast(self.acc),
            1 => Action::Continue(
                ctx.neighbors
                    .iter()
                    .filter(|&&u| (u ^ ctx.vertex) % 2 == 0)
                    .map(|&u| (u, self.acc ^ u as u64))
                    .collect(),
            ),
            _ => Action::idle(),
        }
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.acc
    }
}

fn run_all_engines(g: &deco_graph::Graph) -> Vec<(&'static str, Run<u64>)> {
    let mk = |_: &NodeCtx<'_>| Gossip { acc: 0, rounds_left: 20 };
    let mut runs = vec![
        ("slot-seq", Network::new(g).with_threads(1).run(mk)),
        ("naive", Network::new(g).with_engine(Engine::Naive).run(mk)),
    ];
    // `usize::MAX` is a budget larger than any round can use: it must run
    // like the others, with no scratch allocated for the surplus.
    for threads in [2usize, 3, 8, usize::MAX] {
        runs.push(("slot-threaded", Network::new(g).with_threads(threads).run(mk)));
    }
    runs
}

#[test]
fn all_engines_bit_identical_on_random_graphs() {
    for (n, m, seed) in [(60, 150, 1u64), (500, 2000, 2), (3000, 12000, 3)] {
        let g = generators::random_graph(n, m, seed);
        let runs = run_all_engines(&g);
        let (name0, reference) = &runs[0];
        assert_eq!(*name0, "slot-seq");
        for (name, run) in &runs[1..] {
            assert_eq!(reference.outputs, run.outputs, "{name} outputs diverged");
            assert_eq!(reference.stats, run.stats, "{name} stats diverged");
            assert_eq!(reference.profile, run.profile, "{name} profile diverged");
        }
        // Identifier permutations must not be able to hide behind vertex
        // indices: a shuffled-ident copy diverges, deterministically.
        let h = generators::shuffle_idents(&g, seed ^ 0xabcd);
        let h_run = Network::new(&h).run(|_: &NodeCtx<'_>| Gossip { acc: 0, rounds_left: 20 });
        assert_ne!(reference.outputs, h_run.outputs);
    }
}

#[test]
fn delivered_never_exceeds_sent_with_mid_run_halts() {
    let g = generators::random_graph(800, 4000, 7);
    for (name, run) in run_all_engines(&g) {
        let profile = &run.profile;
        assert_eq!(profile.len(), run.stats.rounds, "{name}");
        let mut sent_total = 0usize;
        for (i, r) in profile.iter().enumerate() {
            assert!(
                r.messages <= r.sent_messages,
                "{name} round {}: delivered {} > sent {}",
                i + 1,
                r.messages,
                r.sent_messages
            );
            assert!(r.bits <= r.sent_bits, "{name} round {}", i + 1);
            sent_total += r.sent_messages;
        }
        // Everything due for delivery was sent at some point (final-round
        // sends are due after the run ends, hence <=).
        assert!(sent_total <= run.stats.messages, "{name}");
        let delivered: usize = profile.iter().map(|r| r.messages).sum();
        assert!(delivered < run.stats.messages, "{name}: staggered halts must drop messages");
        // Live-node counts are non-increasing.
        for w in profile.windows(2) {
            assert!(w[0].live_nodes >= w[1].live_nodes, "{name}");
        }
    }
}

/// Early node halting in the Panconesi–Rizzi assignment phase must be
/// **color- and message-identical** to the worst-case `2 + 6W` schedule —
/// across every thread budget — with only round totals allowed to move
/// (downward). This is the contract that lets the repair pipeline halt
/// nodes at their own last `(forest, CV)` step without perturbing a single
/// pinned coloring.
#[test]
fn early_halting_bit_identical_across_thread_budgets() {
    use deco_core::edge::legal::{edge_color_in_groups, edge_log_depth, MessageMode};

    let g = generators::random_bounded_degree(1500, 16, 0x5a11);
    let groups = vec![0u64; g.m()];
    let params = edge_log_depth(1);
    let w0 = g.max_degree() as u64;
    let mut pinned: Option<(Vec<u64>, usize, usize, usize)> = None;
    for threads in [1usize, 2, 8] {
        let run_with = |early: bool| {
            let net = Network::new(&g).with_threads(threads).with_early_halt(early);
            edge_color_in_groups(&net, &groups, 1, params, w0, MessageMode::Long)
                .expect("preset params are valid")
        };
        let on = run_with(true);
        let off = run_with(false);
        let case = format!("threads={threads}");
        assert_eq!(on.coloring, off.coloring, "{case}: colorings diverged");
        assert_eq!(on.stats.messages, off.stats.messages, "{case}: messages diverged");
        assert_eq!(
            on.stats.total_message_bits, off.stats.total_message_bits,
            "{case}: traffic diverged"
        );
        assert_eq!(
            on.stats.max_message_bits, off.stats.max_message_bits,
            "{case}: max message diverged"
        );
        // Rounds may tie when some node's last (forest, CV) step sits at
        // the schedule's worst case; stepped node-rounds always shrink.
        assert!(
            on.stats.rounds <= off.stats.rounds,
            "{case}: early halting must not lengthen the run ({} vs {})",
            on.stats.rounds,
            off.stats.rounds
        );
        assert!(
            on.stats.node_rounds < off.stats.node_rounds,
            "{case}: early halting must cut stepped node-rounds ({} vs {})",
            on.stats.node_rounds,
            off.stats.node_rounds
        );
        // Every thread budget agrees with the first one, both modes.
        let key =
            (on.coloring.colors().to_vec(), on.stats.messages, on.stats.rounds, off.stats.rounds);
        match &pinned {
            None => pinned = Some(key),
            Some(p) => assert_eq!(*p, key, "{case}: diverged from threads=1"),
        }
    }
}

/// The same pin end-to-end through the streaming engine: a repair-heavy
/// churn run with halting off reproduces the exact colorings and reports of
/// the default engine, apart from round counters.
#[test]
fn early_halting_off_recolorer_matches_default() {
    use deco_core::edge::legal::{edge_log_depth, MessageMode};
    use deco_graph::trace::churn_trace;
    use deco_stream::{RecolorConfig, Recolorer, RegionRecolor};

    let trace = churn_trace(800, 8, 3, 20, 0x0ff);
    let params = edge_log_depth(1);
    let mut on = Recolorer::new(trace.n0, params, MessageMode::Long).unwrap();
    let mut off = Recolorer::new_with(
        trace.n0,
        params,
        MessageMode::Long,
        RecolorConfig::default().with_early_halt(false),
    )
    .unwrap();
    for batch in trace.batches() {
        for &op in batch {
            on.queue_op(op).unwrap();
            off.queue_op(op).unwrap();
        }
        let a = on.commit().unwrap();
        let b = off.commit().unwrap();
        assert_eq!(on.coloring(), off.coloring(), "commit {}: colors diverged", a.commit);
        assert_eq!(a.stats.messages, b.stats.messages, "commit {}", a.commit);
        assert!(a.stats.rounds <= b.stats.rounds, "commit {}", a.commit);
        let strip = |mut r: deco_stream::CommitReport| {
            r.stats = deco_local::RunStats::zero();
            r
        };
        assert_eq!(strip(a), strip(b), "reports diverged beyond stats");
    }
}

#[test]
fn threaded_runner_on_line_graph_workload() {
    // The Lemma 5.2 workload shape: Legal-Color style traffic runs on
    // L(G), which is much denser than G — a good stress for chunked
    // parallel delivery.
    let host = generators::random_bounded_degree(600, 12, 9);
    let l = deco_graph::line_graph::line_graph(&host);
    let mk = |_: &NodeCtx<'_>| Gossip { acc: 0, rounds_left: 12 };
    let seq = Network::new(&l).with_threads(1).run(mk);
    let par = Network::new(&l).with_threads(4).run(mk);
    assert_eq!(seq.outputs, par.outputs);
    assert_eq!(seq.stats, par.stats);
    assert_eq!(seq.profile, par.profile);
}

/// Sparse speakers over staggered halts: every 16th vertex broadcasts each
/// round, to halted neighbors too, and vertex `v` halts in round
/// `2 + v % 9`. The traffic is sparse enough for the slot engine to pick
/// push delivery, and its push lists carry entries addressed to receivers
/// that have already halted, which delivery must skip.
struct SparseStagger {
    acc: u64,
}

impl Protocol for SparseStagger {
    type Msg = u64;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, u64)> {
        self.acc = ctx.ident;
        if ctx.vertex % 16 == 0 {
            ctx.broadcast(self.acc)
        } else {
            Vec::new()
        }
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(usize, u64)]) -> Action<u64> {
        for &(s, m) in inbox {
            self.acc = self.acc.rotate_left(5) ^ m.wrapping_add(s as u64);
        }
        if ctx.round >= 2 + ctx.vertex % 9 {
            Action::halt()
        } else if ctx.vertex % 16 == 0 {
            Action::Broadcast(self.acc)
        } else {
            Action::idle()
        }
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.acc
    }
}

#[test]
fn push_delivery_skips_entries_for_halted_receivers() {
    let g = generators::random_graph(2000, 8000, 21);
    let mk = |_: &NodeCtx<'_>| SparseStagger { acc: 0 };
    let naive = Network::new(&g).with_engine(Engine::Naive).run(mk);
    for threads in [1usize, 2, 8] {
        let run = Network::new(&g).with_threads(threads).run(mk);
        let push = |t: &RoundTrace| t.delivery == DeliveryChoice::Push;
        let push_rounds = run.trace.iter().filter(|t| push(t)).count();
        assert!(push_rounds >= 3, "threads={threads}: {:?}", run.trace);
        // Some push round dropped sends toward halted receivers.
        assert!(
            run.trace.iter().zip(&run.profile).any(|(t, l)| push(t) && l.dropped_messages() > 0),
            "threads={threads}: no push round dropped a message"
        );
        assert_eq!(run.outputs, naive.outputs, "threads={threads}: outputs diverged");
        assert_eq!(run.stats, naive.stats, "threads={threads}: stats diverged");
        assert_eq!(run.profile, naive.profile, "threads={threads}: profile diverged");
    }
}
