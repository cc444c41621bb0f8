//! The pre-refactor delivery engine, kept as a reference implementation.
//!
//! This is the simulator's original hot path: per-round `Vec<Vec<_>>` inbox
//! allocation, a stable sort of every inbox by sender, and a binary-search
//! neighbor validation per posted message. It exists for two reasons:
//!
//! 1. **Differential testing** — the slot-arena engine in [`crate::network`]
//!    must produce bit-identical outputs, [`RunStats`] and [`RoundLoad`]
//!    profiles; the integration tests run both engines on the same
//!    workloads and compare.
//! 2. **Benchmark baseline** — the perf suites report the slot engine's
//!    speedup against this engine, measured in the same harness.
//!
//! Semantics differ from the slot engine in exactly one deliberate way:
//! this engine tolerates several messages to the same neighbor in one round
//! (they all arrive, sender-sorted stably), while the slot engine enforces
//! the LOCAL model's one-message-per-edge rule with a panic. No protocol in
//! this workspace sends duplicates.

use crate::message::Message;
use crate::network::{Action, Network, NodeCtx, Protocol, RoundLoad, Run, RunError};
use crate::stats::RunStats;
use crate::transport::Fate;
use deco_graph::Vertex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A transport-deferred message in the naive engine, ordered by
/// `(arrival, seq)` exactly like the slot engine's pending queue — the two
/// engines assign sequence numbers in the same (vertex, outbox) posting
/// order, so their injection schedules are identical.
struct Late<M> {
    arrival: usize,
    seq: u64,
    slot: usize,
    from: Vertex,
    msg: M,
}

impl<M> PartialEq for Late<M> {
    fn eq(&self, other: &Late<M>) -> bool {
        self.arrival == other.arrival && self.seq == other.seq
    }
}

impl<M> Eq for Late<M> {}

impl<M> PartialOrd for Late<M> {
    fn partial_cmp(&self, other: &Late<M>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Late<M> {
    fn cmp(&self, other: &Late<M>) -> std::cmp::Ordering {
        (self.arrival, self.seq).cmp(&(other.arrival, other.seq))
    }
}

/// Fault-injection state for a naive-engine run under a non-perfect
/// transport (`None` on the perfect default).
struct NaiveFaults<M> {
    pending: BinaryHeap<Reverse<Late<M>>>,
    seq: u64,
    /// Per directed-edge slot: the round in which the slot's in-flight
    /// message is due, mirroring the slot engine's arena occupancy (a late
    /// message postpones rather than displace a fresher one).
    busy: Vec<usize>,
    /// Transport drops in the current step phase (reset per phase; the
    /// profile reports them one phase behind, like sent counts).
    dropped_msgs: usize,
    dropped_bits: usize,
}

impl<M> NaiveFaults<M> {
    /// Takes and resets the phase's drop counters.
    fn take_dropped(&mut self) -> (usize, usize) {
        let taken = (self.dropped_msgs, self.dropped_bits);
        self.dropped_msgs = 0;
        self.dropped_bits = 0;
        taken
    }
}

impl Network<'_> {
    /// [`Network::run_profiled`] on the naive reference engine.
    ///
    /// # Panics
    ///
    /// Panics if a node addresses a message to a non-neighbor or the round
    /// cap is exceeded.
    pub fn run_profiled_naive<P, F>(&self, make: F) -> (Run<P::Output>, Vec<RoundLoad>)
    where
        P: Protocol,
        F: FnMut(&NodeCtx<'_>) -> P,
    {
        // INVARIANT: the infallible wrapper re-raises errors from the fallible variant; callers choosing it accept the panic.
        self.try_run_profiled_naive(make).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Network::run_profiled_naive`]: an exceeded round cap
    /// comes back as [`RunError::RoundCapExceeded`] instead of a panic.
    ///
    /// Honors the configured [`Transport`](crate::Transport) with fault
    /// semantics bit-identical to the slot engine's — the differential
    /// contract extends to faulty runs.
    pub fn try_run_profiled_naive<P, F>(
        &self,
        mut make: F,
    ) -> Result<(Run<P::Output>, Vec<RoundLoad>), RunError>
    where
        P: Protocol,
        F: FnMut(&NodeCtx<'_>) -> P,
    {
        let g = self.graph();
        let n = g.n();
        let mut stats = RunStats::zero();
        let mut profile: Vec<RoundLoad> = Vec::new();

        let mut nodes: Vec<P> = Vec::with_capacity(n);
        let mut halted = vec![false; n];
        // inboxes[v] collects (sender, msg) for the next delivery.
        let mut inboxes: Vec<Vec<(Vertex, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        let mut faults: Option<NaiveFaults<P::Msg>> =
            (!self.transport().is_perfect()).then(|| NaiveFaults {
                pending: BinaryHeap::new(),
                seq: 0,
                busy: vec![0; g.slot_count()],
                dropped_msgs: 0,
                dropped_bits: 0,
            });

        // Round 0: start.
        let msgs_at_start = stats.messages;
        let bits_at_start = stats.total_message_bits;
        for v in 0..n {
            let ctx = self.ctx_for(v, 0);
            let mut p = make(&ctx);
            let out = p.start(&ctx);
            self.post(v, out, 0, &mut inboxes, &mut stats, &mut faults);
            nodes.push(p);
        }
        let mut sent_prev_msgs = stats.messages - msgs_at_start;
        let mut sent_prev_bits = stats.total_message_bits - bits_at_start;
        let (mut fault_prev_msgs, mut fault_prev_bits) =
            faults.as_mut().map_or((0, 0), NaiveFaults::take_dropped);

        let mut round = 0usize;
        loop {
            if halted.iter().all(|&h| h) {
                break;
            }
            round += 1;
            if round > self.round_cap() {
                stats.rounds = round - 1;
                return Err(RunError::RoundCapExceeded {
                    cap: self.round_cap(),
                    live: halted.iter().filter(|&&h| !h).count(),
                    stats,
                });
            }
            let live = halted.iter().filter(|&&h| !h).count();
            stats.node_rounds += live;
            // Sent-vs-delivered accounting: the deltas of the step phase
            // below are this round's sends, reported in the *next* round's
            // profile entry (they are due for delivery then).
            let (msgs_before, bits_before) = (stats.messages, stats.total_message_bits);
            // Swap out inboxes for this round's delivery.
            let mut delivered: Vec<Vec<(Vertex, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
            std::mem::swap(&mut delivered, &mut inboxes);
            // Inject transport-deferred messages due this round (the same
            // schedule as the slot engine: arrival order, then posting
            // order; an occupied slot postpones, a halted receiver drops).
            if let Some(f) = faults.as_mut() {
                while f.pending.peek().is_some_and(|Reverse(p)| p.arrival <= round) {
                    // INVARIANT: extraction follows a successful peek on the same source.
                    let Reverse(p) = f.pending.pop().expect("peeked entry");
                    let to = g.slot_neighbor(p.slot);
                    if halted[to] {
                        continue;
                    }
                    if f.busy[p.slot] == round {
                        f.pending.push(Reverse(Late { arrival: round + 1, ..p }));
                        continue;
                    }
                    f.busy[p.slot] = round;
                    delivered[to].push((p.from, p.msg));
                }
            }
            let mut delivered_msgs = 0usize;
            let mut delivered_bits = 0usize;
            for v in 0..n {
                if halted[v] {
                    continue;
                }
                let mut inbox = std::mem::take(&mut delivered[v]);
                inbox.sort_by_key(|&(s, _)| s);
                delivered_msgs += inbox.len();
                delivered_bits += inbox.iter().map(|(_, m)| m.size_bits()).sum::<usize>();
                let ctx = self.ctx_for(v, round);
                match nodes[v].round(&ctx, &inbox) {
                    Action::Continue(out) => {
                        self.post(v, out, round, &mut inboxes, &mut stats, &mut faults)
                    }
                    Action::Broadcast(msg) => self.post(
                        v,
                        ctx.broadcast(msg),
                        round,
                        &mut inboxes,
                        &mut stats,
                        &mut faults,
                    ),
                    Action::Halt(out) => {
                        self.post(v, out, round, &mut inboxes, &mut stats, &mut faults);
                        halted[v] = true;
                    }
                }
            }
            profile.push(RoundLoad {
                messages: delivered_msgs,
                bits: delivered_bits,
                live_nodes: live,
                sent_messages: sent_prev_msgs,
                sent_bits: sent_prev_bits,
                transport_dropped: fault_prev_msgs,
                transport_dropped_bits: fault_prev_bits,
            });
            sent_prev_msgs = stats.messages - msgs_before;
            sent_prev_bits = stats.total_message_bits - bits_before;
            (fault_prev_msgs, fault_prev_bits) =
                faults.as_mut().map_or((0, 0), NaiveFaults::take_dropped);
        }
        stats.rounds = round;

        let mut outputs = Vec::with_capacity(n);
        for (v, p) in nodes.into_iter().enumerate() {
            let ctx = self.ctx_for(v, round);
            outputs.push(p.finish(&ctx));
        }
        // The determinism contract makes this profile bit-identical to the
        // slot engine's, so the probe's Round events match across engines.
        self.emit_run(&profile, &[]);
        Ok((Run { outputs, stats }, profile))
    }

    fn post<M: Message>(
        &self,
        from: Vertex,
        out: Vec<(Vertex, M)>,
        round: usize,
        inboxes: &mut [Vec<(Vertex, M)>],
        stats: &mut RunStats,
        faults: &mut Option<NaiveFaults<M>>,
    ) {
        let neighbors = self.neighbors_of(from);
        let slot_base = self.graph().slots_of(from).start;
        for (to, msg) in out {
            let i = neighbors
                .binary_search(&to)
                // INVARIANT: the LOCAL model permits sends only along incident edges; anything else is a protocol bug worth aborting on.
                .unwrap_or_else(|_| panic!("node {from} addressed a message to non-neighbor {to}"));
            let bits = msg.size_bits();
            stats.record_message(bits);
            match faults {
                None => inboxes[to].push((from, msg)),
                Some(f) => {
                    // Same fate key as the slot engine: (sender-side slot,
                    // posting round) — the two engines decide identically.
                    let slot = slot_base + i;
                    match self.transport().fate(slot, round) {
                        Fate::Deliver => {
                            f.busy[slot] = round + 1;
                            inboxes[to].push((from, msg));
                        }
                        Fate::Drop => {
                            stats.transport_dropped += 1;
                            f.dropped_msgs += 1;
                            f.dropped_bits += bits;
                        }
                        Fate::Delay(k) => {
                            f.pending.push(Reverse(Late {
                                arrival: round + 1 + k.max(1) as usize,
                                seq: f.seq,
                                slot,
                                from,
                                msg,
                            }));
                            f.seq += 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::network::{Action, Network, NodeCtx, Protocol};
    use deco_graph::generators;
    use deco_graph::Vertex;

    /// A protocol with staggered halts, broadcasts, list sends and silent
    /// rounds — a workout for both engines.
    struct Mixed;
    impl Protocol for Mixed {
        type Msg = u64;
        type Output = u64;
        fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
            ctx.broadcast(ctx.ident)
        }
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, u64)]) -> Action<u64> {
            let acc: u64 = inbox.iter().map(|&(s, m)| m ^ s as u64).sum();
            match (ctx.vertex + ctx.round) % 4 {
                0 => Action::Broadcast(acc % 997),
                1 => Action::Continue(
                    ctx.neighbors.iter().filter(|&&u| u % 2 == 0).map(|&u| (u, acc)).collect(),
                ),
                2 => Action::idle(),
                _ if ctx.round >= 3 => Action::Halt(ctx.broadcast(acc % 31)),
                _ => Action::Broadcast(acc % 13),
            }
        }
        fn finish(self, ctx: &NodeCtx<'_>) -> u64 {
            ctx.ident
        }
    }

    #[test]
    fn naive_and_slot_engines_agree() {
        let g = generators::random_graph(400, 1500, 42);
        let net = Network::new(&g);
        let fast = net.run_profiled(|_| Mixed);
        let naive = net.run_profiled_naive(|_| Mixed);
        assert_eq!(fast.0.outputs, naive.0.outputs);
        assert_eq!(fast.0.stats, naive.0.stats);
        assert_eq!(fast.1, naive.1);
    }

    #[test]
    fn engine_selector_routes_run_profiled() {
        use crate::network::Engine;
        let g = generators::random_graph(120, 400, 5);
        let slot = Network::new(&g).run_profiled(|_| Mixed);
        let via_selector = Network::new(&g).with_engine(Engine::Naive).run_profiled(|_| Mixed);
        assert_eq!(slot.0.outputs, via_selector.0.outputs);
        assert_eq!(slot.0.stats, via_selector.0.stats);
        assert_eq!(slot.1, via_selector.1);
    }

    #[test]
    fn engines_agree_under_faulty_transport() {
        // The determinism contract extends to faults: both engines consult
        // the transport with the same (slot, round) keys and inject late
        // messages on the same (arrival, seq) schedule, so a faulty run is
        // bit-identical across engines.
        use crate::transport::FaultyTransport;
        use std::sync::Arc;
        let g = generators::random_graph(200, 700, 11);
        for seed in [1u64, 2, 3] {
            let t = FaultyTransport::new(seed)
                .with_drop(120_000)
                .with_delay(150_000, 3)
                .with_reorder(100_000);
            let slot = Network::new(&g).with_transport(Arc::new(t.clone())).run_profiled(|_| Mixed);
            let naive = Network::new(&g).with_transport(Arc::new(t)).run_profiled_naive(|_| Mixed);
            assert_eq!(slot.0.outputs, naive.0.outputs, "seed {seed}");
            assert_eq!(slot.0.stats, naive.0.stats, "seed {seed}");
            assert_eq!(slot.1, naive.1, "seed {seed}");
            assert!(slot.0.stats.transport_dropped > 0, "seed {seed} dropped nothing");
        }
    }

    #[test]
    fn naive_profile_sent_accounting() {
        let g = generators::cycle(12);
        struct TwoRounds;
        impl Protocol for TwoRounds {
            type Msg = u64;
            type Output = ();
            fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
                ctx.broadcast(1)
            }
            fn round(&mut self, ctx: &NodeCtx<'_>, _: &[(Vertex, u64)]) -> Action<u64> {
                if ctx.round >= 2 {
                    Action::halt()
                } else {
                    Action::Broadcast(2)
                }
            }
            fn finish(self, _: &NodeCtx<'_>) {}
        }
        let (run, profile) = Network::new(&g).run_profiled_naive(|_| TwoRounds);
        assert_eq!(run.stats.rounds, 2);
        assert_eq!(profile[0].sent_messages, 24); // the start broadcasts
        assert_eq!(profile[0].messages, 24);
        assert_eq!(profile[1].sent_messages, 24); // round 1 re-broadcasts
        assert_eq!(profile[1].messages, 24);
    }
}
