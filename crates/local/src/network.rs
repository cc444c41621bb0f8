//! The synchronous network simulator.
//!
//! # Delivery architecture (slot arenas)
//!
//! The simulator's hot path is built on the host graph's directed-edge
//! *slots* (see [`Graph::slots_of`] and [`Graph::mirror_slot`]): every
//! directed edge `u → v` has a fixed slot index, and a message from `u` to
//! `v` is one `Option` write into a preallocated arena at `u`'s slot —
//! O(1), no per-round allocation, no inbox sorting (slot ranges are already
//! neighbor-sorted) and no per-message search in the common case (outboxes
//! addressed in neighbor order are matched by a moving cursor; out-of-order
//! sends fall back to one binary search).
//!
//! Two arenas alternate roles every round: nodes read their inbox from the
//! arena written in the previous round and write sends into the other, so a
//! round never observes its own messages. A node that halted more than one
//! round ago leaves stale slots behind; receivers skip them with an O(1)
//! halt-round check instead of any clearing pass. Halted nodes leave the
//! active worklist entirely and cost nothing.
//!
//! # Adaptive delivery (scan vs push)
//!
//! Reading an inbox by scanning all of a receiver's in-slots costs O(deg)
//! per node per round even when almost nobody spoke — the long sparse tail
//! of the edge-coloring pipeline. The engine therefore supports a second,
//! *push-list* delivery mode: while posting, each worker also records the
//! receiver-side slot of every message it writes; if the round's sent count
//! is small relative to the live slot count, the next round sorts that list
//! once and each receiver reads exactly its occupied slots instead of
//! sweeping its whole neighborhood. The engine chooses per round from the
//! previous round's sent count; a non-perfect transport always scans. The
//! choice is observable in [`Run::trace`] but never changes results.
//!
//! # Determinism contract
//!
//! For a fixed graph and protocol, [`Network::run`] and [`Network::try_run`]
//! produce bit-identical outputs, [`RunStats`] and [`RoundLoad`] profiles —
//! regardless of delivery engine (the slot arenas or the [`Engine::Naive`]
//! reference), of the per-round scan/push delivery choice, and of the
//! thread budget set by [`Network::with_threads`]. Within a round every node
//! reads only its own inbox slice and writes only its own out slots, so
//! parallel stepping is an embarrassingly parallel map; stats are merged in
//! fixed chunk order. The integration tests pin this contract.

use crate::message::Message;
use crate::stats::RunStats;
use crate::transport::{Fate, InProcess, Transport};
use deco_graph::{Graph, Vertex};
use deco_probe::{Event, Probe};
use std::fmt::Write as _;
use std::sync::Arc;

/// Immutable per-node view handed to every [`Protocol`] callback.
///
/// Global quantities (`n`, `max_degree`) are common knowledge, exactly as the
/// paper assumes vertices know `n` and Δ.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    /// This node's vertex index in the host graph.
    pub vertex: Vertex,
    /// This node's distinct identifier (the paper's `Id`).
    pub ident: u64,
    /// Sorted neighbor vertex indices.
    pub neighbors: &'a [Vertex],
    /// Identifiers of the neighbors, aligned with `neighbors`.
    ///
    /// The LOCAL model lets endpoints learn each other's identifiers in one
    /// round; we provide them up front and charge no round for it (every
    /// algorithm in the paper spends its first round exchanging identifiers
    /// or colors anyway, and the `O(1)` additive term absorbs it — see
    /// Lemma 5.2's `+O(1)`).
    pub neighbor_idents: &'a [u64],
    /// Number of vertices in the network (common knowledge).
    pub n: usize,
    /// Maximum degree Δ of the network (common knowledge).
    pub max_degree: usize,
    /// Current round number: 0 in [`Protocol::start`], then 1, 2, ... in
    /// [`Protocol::round`].
    pub round: usize,
}

impl NodeCtx<'_> {
    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Convenience: the same message addressed to every neighbor.
    ///
    /// Allocates one `Vec` per call; inside [`Protocol::round`], prefer
    /// returning [`Action::Broadcast`], which writes the arena slots
    /// directly and allocates nothing.
    pub fn broadcast<M: Clone>(&self, msg: M) -> Vec<(Vertex, M)> {
        self.neighbors.iter().map(|&u| (u, msg.clone())).collect()
    }

    /// The identifier of neighbor `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a neighbor of this node.
    pub fn ident_of(&self, u: Vertex) -> u64 {
        let i = self
            .neighbors
            .binary_search(&u)
            // INVARIANT: the LOCAL model permits sends only along incident edges; anything else is a protocol bug worth aborting on.
            .unwrap_or_else(|_| panic!("vertex {u} is not a neighbor of {}", self.vertex));
        self.neighbor_idents[i]
    }
}

/// What a node does at the end of a round.
#[derive(Debug, Clone)]
pub enum Action<M> {
    /// Keep running; send the given messages (addressed to neighbors).
    Continue(Vec<(Vertex, M)>),
    /// Keep running; send a copy of the same message to *every* neighbor.
    ///
    /// Equivalent to `Continue(ctx.broadcast(msg))` but allocation-free:
    /// the simulator clones the message straight into the delivery slots.
    Broadcast(M),
    /// Halt after sending the given messages. A halted node no longer sends,
    /// and its inbox is discarded.
    Halt(Vec<(Vertex, M)>),
}

impl<M> Action<M> {
    /// Halt without sending anything.
    pub fn halt() -> Action<M> {
        Action::Halt(Vec::new())
    }

    /// Continue without sending anything (idle round).
    pub fn idle() -> Action<M> {
        Action::Continue(Vec::new())
    }
}

/// A per-node state machine run by [`Network::run`].
///
/// The simulator creates one value per vertex, calls [`Protocol::start`]
/// once (round 0, before any delivery), then calls [`Protocol::round`] once
/// per synchronous round with the messages delivered that round, until every
/// node has returned [`Action::Halt`]. Finally [`Protocol::finish`] extracts
/// each node's output.
///
/// The LOCAL model allows at most one message per directed edge per round;
/// the slot engine enforces this (sending twice to the same neighbor in one
/// round panics).
pub trait Protocol {
    /// Message type exchanged by this protocol.
    type Msg: Message;
    /// Per-node result extracted when the run completes.
    type Output;

    /// Called once before the first round; returns the initial messages.
    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, Self::Msg)>;

    /// Called once per round with the messages received this round
    /// (sender-sorted). Returns the node's action for the round.
    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, Self::Msg)]) -> Action<Self::Msg>;

    /// Extracts the node's output after the network has quiesced.
    fn finish(self, ctx: &NodeCtx<'_>) -> Self::Output;
}

/// Typed failure of a simulated run (see [`Network::try_run`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The round cap was exceeded: the protocol failed to halt within the
    /// budget set by [`Network::with_round_cap`]. Carries the stats
    /// accumulated through the capped rounds, so a caller that retries with
    /// a larger budget (e.g. the self-stabilizing repair loop in
    /// `deco-stream`) still accounts for the spent rounds and messages
    /// deterministically.
    RoundCapExceeded {
        /// The configured round cap.
        cap: usize,
        /// Nodes still live when the cap tripped.
        live: usize,
        /// Stats accumulated up to (and including) the last completed round.
        stats: RunStats,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::RoundCapExceeded { cap, live, .. } => write!(
                f,
                "round cap {cap} exceeded: protocol failed to halt ({live} nodes still live)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// The result of simulating a protocol on a network.
#[derive(Debug, Clone)]
pub struct Run<T> {
    /// Per-vertex outputs, indexed by vertex.
    pub outputs: Vec<T>,
    /// Round/message accounting for the run.
    pub stats: RunStats,
    /// Per-round load profile, one entry per round — useful to visualize
    /// an algorithm's phase structure (e.g. the quiet `log*` prefix
    /// followed by the busy recursion levels). Part of the determinism
    /// contract.
    pub profile: Vec<RoundLoad>,
    /// Per-round execution trace: delivery choice and worker count. Purely
    /// observational, and empty under [`Engine::Naive`], which has no slot
    /// machinery.
    pub trace: Vec<RoundTrace>,
}

impl<T> Run<T> {
    /// Maps the per-vertex outputs, keeping the stats, profile and trace.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> Run<U> {
        Run {
            outputs: self.outputs.into_iter().map(f).collect(),
            stats: self.stats,
            profile: self.profile,
            trace: self.trace,
        }
    }
}

/// Load observed in one simulated round (see [`Run::profile`]).
///
/// Entry `r` of a profile records round `r + 1` of the run: what was
/// *delivered* that round, plus what had been *sent* toward it in the
/// preceding step phase (the start phase for the first entry). The gap
/// `sent_messages - messages` is traffic addressed to nodes that halted
/// before delivery; `messages <= sent_messages` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundLoad {
    /// Messages delivered in this round.
    pub messages: usize,
    /// Total bits delivered in this round.
    pub bits: usize,
    /// Nodes still live at the start of the round.
    pub live_nodes: usize,
    /// Messages sent in the preceding step phase, due for delivery in this
    /// round (delivered or dropped at a halted receiver).
    pub sent_messages: usize,
    /// Bits sent in the preceding step phase.
    pub sent_bits: usize,
    /// Messages from the preceding step phase destroyed by the transport
    /// (zero on the default in-process transport).
    pub transport_dropped: usize,
    /// Bits from the preceding step phase destroyed by the transport.
    pub transport_dropped_bits: usize,
}

impl RoundLoad {
    /// Messages sent toward this round that were never delivered in it —
    /// because the receiver had already halted, the transport destroyed
    /// them, or the transport deferred them to a later round.
    ///
    /// Saturating: under a faulty transport a round can *deliver* more than
    /// the preceding phase sent (late messages from earlier phases arriving
    /// on top of the fresh traffic), in which case this reads zero.
    pub fn dropped_messages(&self) -> usize {
        self.sent_messages.saturating_sub(self.messages)
    }
}

/// Which delivery engine [`Network::run`] uses.
///
/// Both engines honor the same determinism contract and produce identical
/// results; [`Engine::Naive`] exists so whole algorithm pipelines (which
/// construct their own inner runs against a borrowed [`Network`]) can be
/// benchmarked and differentially tested against the pre-refactor delivery
/// path without any change to the algorithm code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The zero-allocation slot-arena engine (the default).
    #[default]
    Slot,
    /// The pre-refactor reference engine (per-round allocation + sorting).
    Naive,
}

/// Which delivery path a round used (see [`Run::trace`]): the slot engine
/// picks the push list after a sparse round and the sweep otherwise. Both
/// are bit-identical in results, stats and profiles; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryChoice {
    /// The O(deg)-per-receiver slot sweep.
    Scan,
    /// The sorted push list of the previous round's writes.
    Push,
}

/// Per-round execution trace of a slot-engine run: which delivery path the
/// round used and how many worker threads stepped it. Purely observational —
/// results never depend on either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTrace {
    /// Delivery path used for the round's inboxes.
    pub delivery: DeliveryChoice,
    /// Worker threads that stepped the round (1 = sequential).
    pub workers: usize,
}

/// A simulated synchronous network over a host graph.
///
/// The simulator is deterministic: nodes are stepped in vertex order (or an
/// order-equivalent parallel schedule, see [`Network::run`]) and inboxes
/// arrive sender-sorted. See the crate-level example.
#[derive(Debug)]
pub struct Network<'g> {
    graph: &'g Graph,
    /// Neighbor vertex per slot, aligned with the graph's CSR slots.
    flat_neighbors: Vec<Vertex>,
    /// Neighbor identifier per slot, aligned with `flat_neighbors`.
    flat_idents: Vec<u64>,
    round_cap: usize,
    threads: usize,
    engine: Engine,
    early_halt: bool,
    transport: Arc<dyn Transport>,
    probe: Arc<dyn Probe>,
}

/// Run-length encodes a [`RoundTrace`] as `<mode><workers>x<len>` groups
/// (`s` = scan, `p` = push), e.g. `"s1x3,p4x2"` — three sequential scan
/// rounds then two push rounds stepped by four workers. This is the value
/// of the probe's `round_trace` [`Event::Env`] entry: delivery choices and
/// worker counts are machine/configuration facts, excluded from the
/// deterministic stream by the same policy as the bench gate's
/// `environment` blocks.
pub fn encode_round_trace(trace: &[RoundTrace]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < trace.len() {
        let t = trace[i];
        let mut len = 1;
        while i + len < trace.len() && trace[i + len] == t {
            len += 1;
        }
        if !out.is_empty() {
            out.push(',');
        }
        let mode = match t.delivery {
            DeliveryChoice::Scan => 's',
            DeliveryChoice::Push => 'p',
        };
        let _ = write!(out, "{mode}{}x{len}", t.workers);
        i += len;
    }
    out
}

/// Parses a `DECO_THREADS` value; `None` means the variable is unset.
/// Returns the thread budget plus a warning when the value was malformed
/// and the default had to be used.
fn parse_threads(raw: Option<&str>) -> (usize, Option<String>) {
    let fallback = std::thread::available_parallelism().map_or(1, |p| p.get());
    match raw {
        None => (fallback, None),
        Some(s) => match s.parse::<usize>() {
            Ok(t) if t >= 1 => (t, None),
            _ => (
                fallback,
                Some(format!(
                    "DECO_THREADS must be a positive integer, got {s:?}; \
                     using default ({fallback})"
                )),
            ),
        },
    }
}

/// Reads the `DECO_THREADS` default thread budget from the environment,
/// per call. It is not cached: a cache would freeze whatever the first
/// `Network` construction saw, so an env matrix that flips the variable
/// between runs in one process would re-run its first leg, and the `var`
/// read is trivia next to flattening the host graph.
///
/// A malformed value warns **once** per process and falls back to the
/// default: a typo'd matrix leg should run (visibly) rather than abort
/// every `Network` construction in the process, and a warning per commit
/// would drown the run.
fn env_threads() -> usize {
    let raw = std::env::var("DECO_THREADS").ok();
    let (threads, warning) = parse_threads(raw.as_deref());
    if let Some(warning) = warning {
        static WARNED: std::sync::OnceLock<()> = std::sync::OnceLock::new();
        WARNED.get_or_init(|| eprintln!("deco-local: {warning}"));
    }
    threads.min(16)
}

/// Minimum number of active nodes per worker thread before a round is
/// stepped in parallel; below `2 × this`, rounds run sequentially (thread
/// spawn overhead would dominate).
const MIN_ACTIVE_PER_THREAD: usize = 512;

/// Adaptive-delivery cost model: a push-list entry costs roughly this many
/// scan probes (sort + indirection), so a round uses the push list when
/// `sent × PUSH_COST_FACTOR < live slots`.
const PUSH_COST_FACTOR: usize = 4;

impl<'g> Network<'g> {
    /// Wraps a host graph in a simulator.
    ///
    /// The worker-thread budget defaults to the `DECO_THREADS` environment
    /// variable if set (the CI thread matrix), else available parallelism
    /// capped at 16. The variable is re-read on every construction, so it
    /// is a *default*, not process-wide state: two `Network`s in one
    /// process may run with different budgets (multi-tenant shards), and
    /// [`Network::with_threads`] overrides the default per instance
    /// regardless of the environment.
    pub fn new(graph: &'g Graph) -> Network<'g> {
        let flat_neighbors: Vec<Vertex> =
            (0..graph.slot_count()).map(|s| graph.slot_neighbor(s)).collect();
        let flat_idents: Vec<u64> = flat_neighbors.iter().map(|&u| graph.ident(u)).collect();
        Network {
            graph,
            flat_neighbors,
            flat_idents,
            round_cap: 1_000_000,
            threads: env_threads(),
            engine: Engine::Slot,
            early_halt: true,
            transport: Arc::new(InProcess),
            probe: deco_probe::null(),
        }
    }

    /// The host graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    pub(crate) fn round_cap(&self) -> usize {
        self.round_cap
    }

    pub(crate) fn neighbors_of(&self, v: Vertex) -> &[Vertex] {
        &self.flat_neighbors[self.graph.slots_of(v)]
    }

    /// Sets a safety cap on rounds (default one million).
    ///
    /// [`Network::try_run`] surfaces an exceeded cap as
    /// [`RunError::RoundCapExceeded`] — used by callers that budget rounds
    /// deliberately, like the self-stabilizing repair loop.
    /// [`Network::run`] panics with that error's message: for it an
    /// exceeded cap always indicates a protocol that fails to halt.
    pub fn with_round_cap(mut self, cap: usize) -> Network<'g> {
        self.round_cap = cap;
        self
    }

    /// Replaces the message transport (default: the perfect
    /// [`InProcess`] transport).
    ///
    /// A non-perfect transport (see [`Transport::is_perfect`]) routes the
    /// slot engine through its fault-tolerant path — sequential stepping,
    /// scan delivery, take-semantics fetches — so faulty runs are
    /// bit-deterministic for a fixed transport, independent of the thread
    /// budget and `DECO_THREADS`. With the default perfect
    /// transport the engine is bit-identical to what it was before the
    /// transport seam existed.
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Network<'g> {
        self.transport = transport;
        self
    }

    /// The message transport in effect.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Sets the worker-thread budget of [`Network::run`] (default: available
    /// parallelism, capped at 16). A budget of 1 forces sequential
    /// stepping. Results never depend on this value.
    pub fn with_threads(mut self, threads: usize) -> Network<'g> {
        self.threads = threads.max(1);
        self
    }

    /// Selects the delivery engine used by [`Network::run`] (default:
    /// [`Engine::Slot`]). Algorithm pipelines that run inner protocols
    /// against this network inherit the choice, which is how the benches
    /// compare whole pipelines across engines.
    pub fn with_engine(mut self, engine: Engine) -> Network<'g> {
        self.engine = engine;
        self
    }

    /// Enables or disables protocols' *early node halting* optimizations
    /// (default on). Protocols that know each node's last relevant round —
    /// e.g. the Panconesi–Rizzi assignment phase, where every node can read
    /// its last `(forest, CV color)` step off its incident edges — consult
    /// this flag and halt as soon as that round passes, instead of idling
    /// to the schedule's worst-case bound. Halted nodes leave the engine's
    /// active worklist and their arena slots are skipped, so late rounds
    /// step only the surviving frontier.
    ///
    /// Outputs are bit-identical either way (the same messages are sent and
    /// delivered); only round totals and live-node profiles move. Disabling
    /// is the differential-testing and benchmarking escape hatch.
    pub fn with_early_halt(mut self, on: bool) -> Network<'g> {
        self.early_halt = on;
        self
    }

    /// Whether protocols should halt nodes at their individually computed
    /// last relevant round (see [`Network::with_early_halt`]).
    pub fn early_halt(&self) -> bool {
        self.early_halt
    }

    /// Attaches an observability probe (default: the shared disabled
    /// [`deco_probe::NullProbe`], which costs one branch per run). With an
    /// enabled probe every successful run emits one
    /// [`Event::Round`] per delivery round (the [`RoundLoad`] profile in
    /// event form) plus a `round_trace` [`Event::Env`] entry encoding the
    /// per-round delivery choices and worker counts (see
    /// [`encode_round_trace`]) when the slot engine traced them. Emission
    /// happens post-run on the driving thread, so the hot path is untouched
    /// and event order is deterministic.
    pub fn with_probe(mut self, probe: Arc<dyn Probe>) -> Network<'g> {
        self.probe = probe;
        self
    }

    /// The observability probe in effect.
    pub fn probe(&self) -> &Arc<dyn Probe> {
        &self.probe
    }

    /// Emits a finished run's per-round profile (and, when non-empty, its
    /// execution trace) into the probe, once per successful run.
    fn emit_run<T>(&self, run: &Run<T>) {
        if !self.probe.enabled() {
            return;
        }
        for (i, load) in run.profile.iter().enumerate() {
            self.probe.emit(Event::Round {
                round: (i + 1) as u64,
                live_nodes: load.live_nodes as u64,
                messages: load.messages as u64,
                bits: load.bits as u64,
                sent_messages: load.sent_messages as u64,
                sent_bits: load.sent_bits as u64,
                transport_dropped: load.transport_dropped as u64,
            });
        }
        if !run.trace.is_empty() {
            self.probe.emit(Event::env("round_trace", encode_round_trace(&run.trace)));
        }
    }

    /// Runs `protocol` (one instance per vertex, built by `make`) to
    /// quiescence and returns per-vertex outputs, stats, the per-round load
    /// profile and the execution trace.
    ///
    /// Rounds with enough active nodes are stepped by up to
    /// [`Network::with_threads`] workers: the active worklist is split into
    /// contiguous vertex ranges, and each worker reads the previous round's
    /// arena (shared) while writing its own nodes' out-slots (exclusive,
    /// disjoint slices) — no locks, no unsafe, no nondeterminism. Outputs,
    /// stats and profile are bit-identical for every thread budget, either
    /// per-round delivery path and both [`Engine`]s; only wall-clock and
    /// the trace change.
    ///
    /// # Panics
    ///
    /// Panics if a node addresses a message to a non-neighbor, sends twice
    /// to the same neighbor in one round, or the round cap is exceeded.
    pub fn run<P, F>(&self, make: F) -> Run<P::Output>
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
        F: FnMut(&NodeCtx<'_>) -> P,
    {
        // INVARIANT: the infallible wrapper re-raises errors from the fallible variant; callers choosing it accept the panic.
        self.try_run(make).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Network::run`]: an exceeded round cap comes back as
    /// [`RunError::RoundCapExceeded`] (with the stats accumulated so far)
    /// instead of a panic. Protocol contract violations — messages to
    /// non-neighbors, duplicate sends — still panic: those are bugs, not
    /// runtime conditions.
    pub fn try_run<P, F>(&self, make: F) -> Result<Run<P::Output>, RunError>
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
        F: FnMut(&NodeCtx<'_>) -> P,
    {
        let run = match self.engine {
            Engine::Slot => engine::run(self, make)?,
            Engine::Naive => crate::naive::run(self, make)?,
        };
        self.emit_run(&run);
        Ok(run)
    }

    pub(crate) fn ctx_for(&self, v: Vertex, round: usize) -> NodeCtx<'_> {
        let range = self.graph.slots_of(v);
        NodeCtx {
            vertex: v,
            ident: self.graph.ident(v),
            neighbors: &self.flat_neighbors[range.clone()],
            neighbor_idents: &self.flat_idents[range],
            n: self.graph.n(),
            max_degree: self.graph.max_degree(),
            round,
        }
    }
}

/// The slot-arena delivery engine. See the module docs for the design.
mod engine {
    use super::{
        Action, DeliveryChoice, Fate, Message, Network, NodeCtx, Protocol, RoundLoad, RoundTrace,
        Run, RunError, RunStats, Vertex, PUSH_COST_FACTOR,
    };
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Never-halted sentinel for `halt_round`.
    const LIVE: usize = usize::MAX;

    /// A message the transport deferred, waiting in the engine's pending
    /// queue for its arrival round. Ordered by `(arrival, seq)` — `seq` is
    /// a monotone posting counter, so equal-arrival messages inject in the
    /// deterministic order they were posted (and re-postponed entries keep
    /// their original rank).
    struct Pending<M> {
        arrival: usize,
        seq: u64,
        /// Sender-side directed-edge slot (identifies sender and receiver).
        slot: u32,
        /// Slot owner, cached to bump the arena occupancy on injection.
        from: Vertex,
        msg: M,
    }

    impl<M> PartialEq for Pending<M> {
        fn eq(&self, other: &Pending<M>) -> bool {
            self.arrival == other.arrival && self.seq == other.seq
        }
    }

    impl<M> Eq for Pending<M> {}

    impl<M> PartialOrd for Pending<M> {
        fn partial_cmp(&self, other: &Pending<M>) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<M> Ord for Pending<M> {
        fn cmp(&self, other: &Pending<M>) -> std::cmp::Ordering {
            (self.arrival, self.seq).cmp(&(other.arrival, other.seq))
        }
    }

    /// Per-worker reusable state; all buffers reach a steady size after the
    /// first rounds and are never reallocated again.
    struct Scratch<M> {
        /// Inbox assembly buffer, reused across nodes and rounds.
        inbox: Vec<(Vertex, M)>,
        /// Vertices that returned `Halt` this round (applied sequentially
        /// after the parallel phase).
        halts: Vec<Vertex>,
        /// Messages written this round, packed `receiver_slot << 32 |
        /// sender_slot` — next round's push list. Packing both slots lets
        /// push delivery skip the random mirror lookup per message. Capped
        /// at `push_cap`: a worker that overflows the cap proves the round
        /// is too dense for push delivery, so recording stops.
        pushed: Vec<u64>,
        push_cap: usize,
        push_overflow: bool,
        delivered_msgs: usize,
        delivered_bits: usize,
        sent_msgs: usize,
        sent_bits: usize,
        max_bits: usize,
        /// Messages the transport deferred this round: `(arrival_round,
        /// sender-side slot, message)`, drained into the engine's pending
        /// queue after the step (faulty runs are sequential, so only
        /// scratch 0 ever fills this).
        delayed: Vec<(usize, u32, M)>,
        /// Messages the transport destroyed this round.
        fault_dropped_msgs: usize,
        fault_dropped_bits: usize,
    }

    impl<M> Scratch<M> {
        fn new() -> Scratch<M> {
            Scratch {
                inbox: Vec::new(),
                halts: Vec::new(),
                pushed: Vec::new(),
                push_cap: 0,
                push_overflow: false,
                delivered_msgs: 0,
                delivered_bits: 0,
                sent_msgs: 0,
                sent_bits: 0,
                max_bits: 0,
                delayed: Vec::new(),
                fault_dropped_msgs: 0,
                fault_dropped_bits: 0,
            }
        }

        fn reset_round(&mut self, push_cap: usize) {
            self.halts.clear();
            self.pushed.clear();
            self.push_cap = push_cap;
            self.push_overflow = false;
            self.delivered_msgs = 0;
            self.delivered_bits = 0;
            self.sent_msgs = 0;
            self.sent_bits = 0;
            self.fault_dropped_msgs = 0;
            self.fault_dropped_bits = 0;
            // max_bits survives: it is a run-wide maximum.
            // `delayed` is drained by the engine after every step.
        }

        fn record_sent(&mut self, bits: usize) {
            self.sent_msgs += 1;
            self.sent_bits += bits;
            self.max_bits = self.max_bits.max(bits);
        }

        /// Records a posted message for the next round's push list
        /// (a no-op beyond the cap — see `pushed`).
        #[inline]
        fn record_push(&mut self, mirror_slot: u32, send_slot: usize) {
            if self.pushed.len() < self.push_cap {
                self.pushed.push(((mirror_slot as u64) << 32) | send_slot as u64);
            } else {
                self.push_overflow = true;
            }
        }
    }

    /// The previous round's arena, borrowed exclusively (sequential: inbox
    /// messages are moved out and the sender's occupancy count drops) or
    /// shared (parallel: cloned, occupancy untouched).
    ///
    /// `occ[v]` is the number of occupied (`Some`) slots vertex `v` owns in
    /// this arena — the invariant both variants maintain. A zero count lets
    /// receivers skip a quiet sender with one dense load, and lets the
    /// sender skip the clear pass on its next write into the arena; in
    /// sequential runs, where takes drain the slots, the steady state of a
    /// sparse round does almost no arena work at all.
    enum Prev<'a, M> {
        Excl { slots: &'a mut [Option<M>], occ: &'a mut [u32] },
        Shared { slots: &'a [Option<M>], occ: &'a [u32] },
    }

    impl<M: Clone> Prev<'_, M> {
        /// Whether sender `u` has no occupied slots left in this arena.
        #[inline]
        fn sender_quiet(&self, u: Vertex) -> bool {
            match self {
                Prev::Excl { occ, .. } => occ[u] == 0,
                Prev::Shared { occ, .. } => occ[u] == 0,
            }
        }

        #[inline]
        fn fetch(&mut self, slot: usize, sender: Vertex) -> Option<M> {
            match self {
                Prev::Excl { slots, occ } => {
                    let m = slots[slot].take();
                    if m.is_some() {
                        occ[sender] -= 1;
                    }
                    m
                }
                Prev::Shared { slots, .. } => slots[slot].clone(),
            }
        }
    }

    /// Read-only state shared by all workers within a round.
    struct Shared<'a, 'g> {
        net: &'a Network<'g>,
        offsets: &'a [usize],
        mirror: &'a [u32],
        /// Round in which each vertex halted (`LIVE` if still running).
        halt_round: &'a [usize],
        /// Whether the run goes through a non-perfect transport. Posts then
        /// consult the transport per message, and the stale-slot skip is
        /// bypassed (safe: faulty runs always take-fetch, so arenas stay
        /// drained; necessary: a late message from a halted sender must
        /// still deliver).
        faulty: bool,
    }

    /// Collects one node's inbox from the previous arena into `scratch`.
    ///
    /// Slots arrive in neighbor order, so the inbox is sender-sorted with
    /// no sorting. A sender that halted before the previous round left only
    /// stale slots; the halt-round check skips them in O(1).
    #[inline]
    fn fill_inbox<M: Message>(
        sh: &Shared<'_, '_>,
        v: Vertex,
        round: usize,
        prev: &mut Prev<'_, M>,
        scratch: &mut Scratch<M>,
    ) {
        scratch.inbox.clear();
        for s in sh.offsets[v]..sh.offsets[v + 1] {
            let u = sh.net.flat_neighbors[s];
            if prev.sender_quiet(u) {
                continue; // nothing of u's left in the previous arena
            }
            if !sh.faulty && sh.halt_round[u] < round - 1 {
                continue; // stale slots from a long-halted sender (LIVE = MAX never trips)
            }
            if let Some(m) = prev.fetch(sh.mirror[s] as usize, u) {
                scratch.delivered_msgs += 1;
                scratch.delivered_bits += m.size_bits();
                scratch.inbox.push((u, m));
            }
        }
    }

    /// Push-mode [`fill_inbox`]: `entries` lists exactly this node's
    /// messages written in the previous step phase (packed
    /// `receiver_slot << 32 | sender_slot`), ascending. Ascending
    /// receiver-slot order within the node's range *is* neighbor order, so
    /// the inbox comes out sender-sorted, identical to the scan sweep —
    /// every entry is fresh by construction, so no staleness checks, and
    /// the packed sender slot spares the mirror lookup.
    #[inline]
    fn fill_inbox_from_push<M: Message>(
        sh: &Shared<'_, '_>,
        entries: &[u64],
        prev: &mut Prev<'_, M>,
        scratch: &mut Scratch<M>,
    ) {
        scratch.inbox.clear();
        for &packed in entries {
            let u = sh.net.flat_neighbors[(packed >> 32) as usize];
            if let Some(m) = prev.fetch((packed & u32::MAX as u64) as usize, u) {
                scratch.delivered_msgs += 1;
                scratch.delivered_bits += m.size_bits();
                scratch.inbox.push((u, m));
            }
        }
    }

    /// Writes one node's outgoing messages into its own out-slots.
    ///
    /// `cur` is the chunk-local window of the write arena starting at slot
    /// `cur_base`; `occ` is the node's occupancy count for that arena (the
    /// invariant: exactly `*occ` slots of the node's range are `Some`). The
    /// slots are cleared first — skipped entirely when the count says the
    /// range is already clean, which after a sequential round's takes is
    /// the common case — then each message lands at the slot of its
    /// addressee: a moving cursor matches neighbor-ordered outboxes in O(1)
    /// per message, with a binary-search fallback for out-of-order sends.
    ///
    /// Under a non-perfect transport ([`Shared::faulty`]) each message's
    /// [`Fate`] is consulted before the write: drops are counted and
    /// destroyed, delays go to the scratch's deferred list instead of the
    /// arena. The fault-free path is untouched.
    #[allow(clippy::too_many_arguments)]
    fn post_list<M: Message>(
        sh: &Shared<'_, '_>,
        from: Vertex,
        out: Vec<(Vertex, M)>,
        round: usize,
        cur: &mut [Option<M>],
        cur_base: usize,
        occ: &mut u32,
        scratch: &mut Scratch<M>,
    ) {
        if sh.faulty {
            post_list_faulty(sh, from, out, round, cur, cur_base, occ, scratch);
            return;
        }
        let range = sh.offsets[from]..sh.offsets[from + 1];
        if *occ > 0 {
            for s in range.clone() {
                cur[s - cur_base] = None;
            }
        }
        *occ = out.len() as u32;
        let nbrs = &sh.net.flat_neighbors[range.clone()];
        let mut cursor = 0usize;
        for (to, msg) in out {
            let i = if cursor < nbrs.len() && nbrs[cursor] == to {
                cursor += 1;
                cursor - 1
            } else {
                match nbrs.binary_search(&to) {
                    Ok(i) => {
                        cursor = i + 1;
                        i
                    }
                    Err(_) => {
                        // INVARIANT: the LOCAL model permits sends only along incident edges; anything else is a protocol bug worth aborting on.
                        panic!("node {from} addressed a message to non-neighbor {to}")
                    }
                }
            };
            scratch.record_sent(msg.size_bits());
            scratch.record_push(sh.mirror[range.start + i], range.start + i);
            let cell = &mut cur[range.start + i - cur_base];
            assert!(
                cell.is_none(),
                "node {from} sent two messages to {to} in one round (the LOCAL model \
                 allows one message per neighbor per round)"
            );
            *cell = Some(msg);
        }
    }

    /// [`post_list`] through a non-perfect transport: every message is
    /// still counted as sent, then its fate decides whether it lands in the
    /// arena (`occ` counts only landed messages), dies, or is deferred.
    #[allow(clippy::too_many_arguments)]
    fn post_list_faulty<M: Message>(
        sh: &Shared<'_, '_>,
        from: Vertex,
        out: Vec<(Vertex, M)>,
        round: usize,
        cur: &mut [Option<M>],
        cur_base: usize,
        occ: &mut u32,
        scratch: &mut Scratch<M>,
    ) {
        let range = sh.offsets[from]..sh.offsets[from + 1];
        if *occ > 0 {
            for s in range.clone() {
                cur[s - cur_base] = None;
            }
        }
        *occ = 0;
        let nbrs = &sh.net.flat_neighbors[range.clone()];
        let mut cursor = 0usize;
        for (to, msg) in out {
            let i = if cursor < nbrs.len() && nbrs[cursor] == to {
                cursor += 1;
                cursor - 1
            } else {
                match nbrs.binary_search(&to) {
                    Ok(i) => {
                        cursor = i + 1;
                        i
                    }
                    Err(_) => {
                        // INVARIANT: the LOCAL model permits sends only along incident edges; anything else is a protocol bug worth aborting on.
                        panic!("node {from} addressed a message to non-neighbor {to}")
                    }
                }
            };
            let slot = range.start + i;
            let bits = msg.size_bits();
            scratch.record_sent(bits);
            match sh.net.transport.fate(slot, round) {
                Fate::Deliver => {
                    let cell = &mut cur[slot - cur_base];
                    assert!(
                        cell.is_none(),
                        "node {from} sent two messages to {to} in one round (the LOCAL \
                         model allows one message per neighbor per round)"
                    );
                    *cell = Some(msg);
                    *occ += 1;
                }
                Fate::Drop => {
                    scratch.fault_dropped_msgs += 1;
                    scratch.fault_dropped_bits += bits;
                }
                Fate::Delay(k) => {
                    scratch.delayed.push((round + 1 + k.max(1) as usize, slot as u32, msg));
                }
            }
        }
    }

    /// [`Action::Broadcast`]: clone the message into every out-slot, no
    /// intermediate `Vec`, no addressing. Under a non-perfect transport
    /// each copy's fate is consulted individually, exactly as if the node
    /// had sent the copies one by one.
    #[allow(clippy::too_many_arguments)]
    fn post_broadcast<M: Message>(
        sh: &Shared<'_, '_>,
        from: Vertex,
        msg: M,
        round: usize,
        cur: &mut [Option<M>],
        cur_base: usize,
        occ: &mut u32,
        scratch: &mut Scratch<M>,
    ) {
        let range = sh.offsets[from]..sh.offsets[from + 1];
        if sh.faulty {
            if *occ > 0 {
                for s in range.clone() {
                    cur[s - cur_base] = None;
                }
            }
            *occ = 0;
            let bits = msg.size_bits();
            for s in range {
                scratch.record_sent(bits);
                match sh.net.transport.fate(s, round) {
                    Fate::Deliver => {
                        cur[s - cur_base] = Some(msg.clone());
                        *occ += 1;
                    }
                    Fate::Drop => {
                        scratch.fault_dropped_msgs += 1;
                        scratch.fault_dropped_bits += bits;
                    }
                    Fate::Delay(k) => {
                        scratch.delayed.push((
                            round + 1 + k.max(1) as usize,
                            s as u32,
                            msg.clone(),
                        ));
                    }
                }
            }
            return;
        }
        *occ = range.len() as u32; // every slot is overwritten, no clear pass
        let bits = msg.size_bits();
        for s in range {
            scratch.record_sent(bits);
            scratch.record_push(sh.mirror[s], s);
            cur[s - cur_base] = Some(msg.clone());
        }
    }

    /// Steps every vertex of `seg` through round `round`.
    ///
    /// `nodes`/`cur` are the windows of the state vector and write arena
    /// covering exactly the chunk's vertex range — each worker owns its
    /// windows exclusively, which is what makes the parallel schedule safe
    /// and deterministic by construction. `push` is the segment's window of
    /// the round's sorted push list (`None` = scan delivery); a cursor walks
    /// it in lockstep with the segment's ascending vertices, skipping
    /// entries addressed to halted (non-stepped) receivers.
    #[allow(clippy::too_many_arguments)]
    fn step_segment<P: Protocol>(
        sh: &Shared<'_, '_>,
        seg: &[Vertex],
        round: usize,
        nodes: &mut [P],
        node_base: usize,
        cur: &mut [Option<P::Msg>],
        cur_base: usize,
        occ_cur: &mut [u32],
        mut prev: Prev<'_, P::Msg>,
        scratch: &mut Scratch<P::Msg>,
        push: Option<&[u64]>,
    ) {
        let mut pos = 0usize;
        for &v in seg {
            match push {
                None => fill_inbox(sh, v, round, &mut prev, scratch),
                Some(list) => {
                    while pos < list.len() && ((list[pos] >> 32) as usize) < sh.offsets[v] {
                        pos += 1; // entries for receivers that halted mid-run
                    }
                    let start = pos;
                    while pos < list.len() && ((list[pos] >> 32) as usize) < sh.offsets[v + 1] {
                        pos += 1;
                    }
                    fill_inbox_from_push(sh, &list[start..pos], &mut prev, scratch);
                }
            }
            let ctx = sh.net.ctx_for(v, round);
            let inbox = std::mem::take(&mut scratch.inbox);
            let action = nodes[v - node_base].round(&ctx, &inbox);
            scratch.inbox = inbox;
            let occ = &mut occ_cur[v - node_base];
            match action {
                Action::Continue(out) => post_list(sh, v, out, round, cur, cur_base, occ, scratch),
                Action::Broadcast(msg) => {
                    post_broadcast(sh, v, msg, round, cur, cur_base, occ, scratch)
                }
                Action::Halt(out) => {
                    post_list(sh, v, out, round, cur, cur_base, occ, scratch);
                    scratch.halts.push(v);
                }
            }
        }
    }

    /// Digit width of the push-list radix sort.
    const RADIX_BITS: u32 = 11;

    /// Sorts the round's push list ascending by receiver-side slot (the
    /// high 32 bits of each packed entry; receiver slots are distinct, so
    /// any sort yields the same canonical order). A stable LSD radix sort
    /// over the key bits with a reused scratch buffer is ~2× a comparison
    /// sort at the mid-density round sizes where the scan/push choice is
    /// closest.
    fn sort_push_list(list: &mut Vec<u64>, scratch: &mut Vec<u64>, max_slot: u32) {
        if list.len() <= 64 {
            list.sort_unstable();
            return;
        }
        let key_bits = 32 - max_slot.leading_zeros();
        scratch.clear();
        scratch.resize(list.len(), 0);
        let mut shift = 32;
        let end = 32 + key_bits;
        while shift < end {
            let mut counts = [0u32; 1 << RADIX_BITS];
            for &x in list.iter() {
                counts[((x >> shift) as usize) & ((1 << RADIX_BITS) - 1)] += 1;
            }
            let mut sum = 0u32;
            for c in counts.iter_mut() {
                let bucket = *c;
                *c = sum;
                sum += bucket;
            }
            for &x in list.iter() {
                let d = ((x >> shift) as usize) & ((1 << RADIX_BITS) - 1);
                scratch[counts[d] as usize] = x;
                counts[d] += 1;
            }
            std::mem::swap(list, scratch);
            shift += RADIX_BITS;
        }
    }

    /// The slot engine behind [`Network::run`].
    ///
    /// A round with one worker steps on the calling thread. Sparse rounds
    /// then move messages out of the previous arena (the take keeps the
    /// arena self-cleaning, so a quiet steady state does no arena work at
    /// all); dense rounds fetch by clone exactly like the parallel schedule
    /// — skipping the per-message write-back and occupancy decrement is
    /// cheaper than the clear pass it trades for when most slots are full.
    ///
    /// A non-perfect transport forces the deterministic fault path:
    /// sequential stepping, scan delivery, take-semantics fetches. Take
    /// fetches keep the arenas drained, which is what makes late injection
    /// sound — a deferred message is parked in a heap keyed by
    /// `(arrival, seq)` and injected into the read arena at the top of its
    /// arrival round, postponed further if a fresher message occupies its
    /// slot, dropped if its receiver has halted.
    pub(super) fn run<P, F>(net: &Network<'_>, mut make: F) -> Result<Run<P::Output>, RunError>
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
        F: FnMut(&NodeCtx<'_>) -> P,
    {
        let n = net.graph.n();
        let offsets = net.graph.slot_offsets();
        let mirror = net.graph.mirror_slots();
        let slot_count = net.graph.slot_count();
        let faulty = !net.transport.is_perfect();
        // No round steps more than `n / MIN_ACTIVE_PER_THREAD` workers, so a
        // larger budget would only allocate scratches that never run.
        let most = (n / super::MIN_ACTIVE_PER_THREAD).max(1);
        let threads = if faulty { 1 } else { net.threads.min(most) };
        // The per-round budget of push-list entries for `live_slots` live
        // in-slots: a round whose sent count exceeds it cannot qualify for
        // push delivery, so recording past it is pointless. Faulty runs
        // always scan, so they record nothing.
        let push_cap = |live_slots: usize| if faulty { 0 } else { live_slots / PUSH_COST_FACTOR };

        let mut halt_round: Vec<usize> = vec![LIVE; n];
        let mut active: Vec<Vertex> = (0..n).collect();
        // In-slots owned by still-active receivers: the scan cost the
        // adaptive delivery choice weighs a push round against.
        let mut live_slots = slot_count;
        let mut arena_prev: Vec<Option<P::Msg>> = (0..slot_count).map(|_| None).collect();
        let mut arena_cur: Vec<Option<P::Msg>> = (0..slot_count).map(|_| None).collect();
        // Occupancy counts, one per vertex per arena (swapped together):
        // exactly how many of the vertex's slots in that arena are `Some`.
        let mut occ_prev: Vec<u32> = vec![0; n];
        let mut occ_cur: Vec<u32> = vec![0; n];
        let mut scratches: Vec<Scratch<P::Msg>> = (0..threads).map(|_| Scratch::new()).collect();
        // Reusable merge + radix-scratch buffers for the sorted push list.
        let mut push_list: Vec<u64> = Vec::new();
        let mut push_scratch: Vec<u64> = Vec::new();
        // Transport-deferred messages awaiting their arrival round.
        let mut pending: BinaryHeap<Reverse<Pending<P::Msg>>> = BinaryHeap::new();
        let mut pending_seq = 0u64;
        let mut stats = RunStats::zero();
        let mut profile: Vec<RoundLoad> = Vec::new();
        let mut trace: Vec<RoundTrace> = Vec::new();

        // Round 0: build the nodes and deliver their initial sends into the
        // current arena (always sequential — `make` is FnMut).
        let mut nodes: Vec<P> = Vec::with_capacity(n);
        {
            let sh = Shared { net, offsets, mirror, halt_round: &halt_round, faulty };
            scratches[0].reset_round(push_cap(live_slots));
            for (v, occ) in occ_cur.iter_mut().enumerate() {
                let ctx = net.ctx_for(v, 0);
                let mut p = make(&ctx);
                let out = p.start(&ctx);
                post_list(&sh, v, out, 0, &mut arena_cur, 0, occ, &mut scratches[0]);
                nodes.push(p);
            }
        }
        let (mut sent_prev_msgs, mut sent_prev_bits) =
            (scratches[0].sent_msgs, scratches[0].sent_bits);
        stats.messages += sent_prev_msgs;
        stats.total_message_bits += sent_prev_bits;
        let (mut fault_prev_msgs, mut fault_prev_bits) =
            (scratches[0].fault_dropped_msgs, scratches[0].fault_dropped_bits);
        stats.transport_dropped += fault_prev_msgs;
        for (arrival, slot, msg) in scratches[0].delayed.drain(..) {
            let from = offsets.partition_point(|&o| o <= slot as usize) - 1;
            pending.push(Reverse(Pending { arrival, seq: pending_seq, slot, from, msg }));
            pending_seq += 1;
        }
        let mut recorded_prev = push_cap(live_slots) > 0;

        let mut round = 0usize;
        while !active.is_empty() {
            round += 1;
            if round > net.round_cap {
                stats.rounds = round - 1;
                return Err(RunError::RoundCapExceeded {
                    cap: net.round_cap,
                    live: active.len(),
                    stats,
                });
            }
            let live = active.len();
            stats.node_rounds += live;
            std::mem::swap(&mut arena_prev, &mut arena_cur);
            std::mem::swap(&mut occ_prev, &mut occ_cur);

            // Inject transport-deferred messages due this round into the
            // read arena (before any node steps, so they are observationally
            // ordinary — just late). An occupied slot postpones the laggard
            // one more round; a halted receiver drops it, exactly like any
            // send toward a halted node.
            while pending.peek().is_some_and(|Reverse(p)| p.arrival <= round) {
                // INVARIANT: extraction follows a successful peek on the same source.
                let Reverse(p) = pending.pop().expect("peeked entry");
                let slot = p.slot as usize;
                let to = net.flat_neighbors[slot];
                if halt_round[to] != LIVE {
                    continue;
                }
                if arena_prev[slot].is_some() {
                    pending.push(Reverse(Pending { arrival: round + 1, ..p }));
                    continue;
                }
                occ_prev[p.from] += 1;
                arena_prev[slot] = Some(p.msg);
            }

            // Delivery choice for the round, from the previous step phase's
            // sent count. Push needs last round's records: a worker that
            // overflowed its recording cap proves the round was too dense
            // (the arithmetic check then also fails), and a round after a
            // dense round, like every round of a faulty run, skipped
            // recording entirely (hysteresis below).
            let sparse = sent_prev_msgs * PUSH_COST_FACTOR < live_slots;
            let use_push = sparse && recorded_prev && !scratches.iter().any(|s| s.push_overflow);
            let push = if use_push {
                push_list.clear();
                for s in scratches.iter() {
                    push_list.extend_from_slice(&s.pushed);
                }
                // Ascending receiver-side slots = receivers in vertex order,
                // senders in neighbor order within each receiver — the exact
                // delivery order of the scan sweep, whatever the chunking.
                sort_push_list(&mut push_list, &mut push_scratch, slot_count.max(2) as u32 - 1);
                Some(push_list.as_slice())
            } else {
                None
            };
            // Hysteresis: a dense finished round predicts a dense next
            // round, so its successor skips recording — dense phases pay
            // nothing for the adaptive machinery; at a dense→sparse phase
            // boundary one round scans before push kicks in.
            let cap = if sparse { push_cap(live_slots) } else { 0 };
            recorded_prev = cap > 0;
            for s in scratches.iter_mut() {
                s.reset_round(cap);
            }

            let workers = if threads > 1 && live >= 2 * super::MIN_ACTIVE_PER_THREAD {
                threads.min(live / super::MIN_ACTIVE_PER_THREAD).max(1)
            } else {
                1
            };
            // A round too dense for push delivery is also a round where
            // clone-fetch beats take-fetch (most slots are due a fetch, so
            // the write-backs outweigh the clear pass they save). Faulty
            // runs always take-fetch: injection relies on drained arenas.
            let dense = !faulty && !use_push && !sparse;
            let sh = Shared { net, offsets, mirror, halt_round: &halt_round, faulty };
            if workers == 1 {
                let prev = if dense {
                    Prev::Shared { slots: &arena_prev, occ: &occ_prev }
                } else {
                    Prev::Excl { slots: &mut arena_prev, occ: &mut occ_prev }
                };
                step_segment(
                    &sh,
                    &active,
                    round,
                    &mut nodes,
                    0,
                    &mut arena_cur,
                    0,
                    &mut occ_cur,
                    prev,
                    &mut scratches[0],
                    push,
                );
            } else {
                parallel::step_round(
                    &sh,
                    &active,
                    round,
                    workers,
                    &mut nodes,
                    &mut arena_cur,
                    &mut occ_cur,
                    &arena_prev,
                    &occ_prev,
                    &mut scratches,
                    push,
                );
            }
            trace.push(RoundTrace {
                delivery: if use_push { DeliveryChoice::Push } else { DeliveryChoice::Scan },
                workers,
            });

            // Merge the round, in fixed chunk order (all sums, so the totals
            // equal the sequential engine's regardless of the split).
            let (mut delivered_msgs, mut delivered_bits) = (0usize, 0usize);
            let (mut sent_msgs, mut sent_bits) = (0usize, 0usize);
            let (mut fault_msgs, mut fault_bits) = (0usize, 0usize);
            let mut any_halt = false;
            for s in scratches.iter_mut() {
                delivered_msgs += s.delivered_msgs;
                delivered_bits += s.delivered_bits;
                sent_msgs += s.sent_msgs;
                sent_bits += s.sent_bits;
                fault_msgs += s.fault_dropped_msgs;
                fault_bits += s.fault_dropped_bits;
                stats.max_message_bits = stats.max_message_bits.max(s.max_bits);
                for &v in &s.halts {
                    halt_round[v] = round;
                    any_halt = true;
                }
            }
            stats.messages += sent_msgs;
            stats.total_message_bits += sent_bits;
            stats.transport_dropped += fault_msgs;
            for (arrival, slot, msg) in scratches[0].delayed.drain(..) {
                let from = offsets.partition_point(|&o| o <= slot as usize) - 1;
                pending.push(Reverse(Pending { arrival, seq: pending_seq, slot, from, msg }));
                pending_seq += 1;
            }
            if any_halt {
                active.retain(|&v| halt_round[v] == LIVE);
                live_slots = active.iter().map(|&v| offsets[v + 1] - offsets[v]).sum();
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
            (sent_prev_msgs, sent_prev_bits) = (sent_msgs, sent_bits);
            (fault_prev_msgs, fault_prev_bits) = (fault_msgs, fault_bits);
        }
        stats.rounds = round;

        let mut outputs = Vec::with_capacity(n);
        for (v, p) in nodes.into_iter().enumerate() {
            let ctx = net.ctx_for(v, round);
            outputs.push(p.finish(&ctx));
        }
        Ok(Run { outputs, stats, profile, trace })
    }

    /// Deterministic parallel stepping: contiguous chunks of the active
    /// worklist, disjoint `&mut` windows per worker, shared read-only view
    /// of the previous arena.
    mod parallel {
        use super::{step_segment, Prev, Protocol, Scratch, Shared, Vertex};

        #[allow(clippy::too_many_arguments)]
        pub(super) fn step_round<P>(
            sh: &Shared<'_, '_>,
            active: &[Vertex],
            round: usize,
            workers: usize,
            nodes: &mut [P],
            arena_cur: &mut [Option<P::Msg>],
            occ_cur: &mut [u32],
            arena_prev: &[Option<P::Msg>],
            occ_prev: &[u32],
            scratches: &mut [Scratch<P::Msg>],
            push: Option<&[u64]>,
        ) where
            P: Protocol + Send,
            P::Msg: Send + Sync,
        {
            // Carve the active list into `workers` contiguous segments;
            // because it is sorted and duplicate-free, segments own disjoint
            // vertex intervals, which lets the state vector and write arena
            // be split into disjoint `&mut` windows with safe code only.
            struct Job<'j, P: Protocol> {
                seg: &'j [Vertex],
                nodes: &'j mut [P],
                node_base: usize,
                cur: &'j mut [Option<P::Msg>],
                cur_base: usize,
                occ_cur: &'j mut [u32],
                scratch: &'j mut Scratch<P::Msg>,
                /// This segment's window of the sorted push list (entries in
                /// the segment's slot interval), `None` under scan delivery.
                push: Option<&'j [u64]>,
            }

            let mut jobs: Vec<Job<'_, P>> = Vec::with_capacity(workers);
            let mut nodes_rest = nodes;
            let mut nodes_off = 0usize;
            let mut cur_rest = arena_cur;
            let mut cur_off = 0usize;
            let mut occ_rest = occ_cur;
            let mut occ_off = 0usize;
            let mut scratch_rest = scratches;
            let per = active.len().div_ceil(workers);
            for seg in active.chunks(per) {
                let v_lo = seg[0];
                let v_hi = seg[seg.len() - 1];
                let (_, rest) = nodes_rest.split_at_mut(v_lo - nodes_off);
                let (mine, rest) = rest.split_at_mut(v_hi + 1 - v_lo);
                nodes_rest = rest;
                nodes_off = v_hi + 1;
                let (slot_lo, slot_hi) = (sh.offsets[v_lo], sh.offsets[v_hi + 1]);
                let (_, rest) = cur_rest.split_at_mut(slot_lo - cur_off);
                let (mine_cur, rest) = rest.split_at_mut(slot_hi - slot_lo);
                cur_rest = rest;
                cur_off = slot_hi;
                let (_, rest) = occ_rest.split_at_mut(v_lo - occ_off);
                let (mine_occ, rest) = rest.split_at_mut(v_hi + 1 - v_lo);
                occ_rest = rest;
                occ_off = v_hi + 1;
                let (scratch, rest) = std::mem::take(&mut scratch_rest).split_at_mut(1);
                scratch_rest = rest;
                // The push list is sorted by (receiver-side) slot, so the
                // segment's entries form one contiguous window.
                let push_window = push.map(|list| {
                    let lo = list.partition_point(|&e| ((e >> 32) as usize) < slot_lo);
                    let hi = list.partition_point(|&e| ((e >> 32) as usize) < slot_hi);
                    &list[lo..hi]
                });
                jobs.push(Job {
                    seg,
                    nodes: mine,
                    node_base: v_lo,
                    cur: mine_cur,
                    cur_base: slot_lo,
                    occ_cur: mine_occ,
                    scratch: &mut scratch[0],
                    push: push_window,
                });
            }

            std::thread::scope(|scope| {
                let mut jobs = jobs.into_iter();
                // INVARIANT: the shard plan always yields at least one job for a non-empty network.
                let first = jobs.next().expect("at least one job");
                for job in jobs {
                    scope.spawn(move || {
                        step_segment(
                            sh,
                            job.seg,
                            round,
                            job.nodes,
                            job.node_base,
                            job.cur,
                            job.cur_base,
                            job.occ_cur,
                            Prev::Shared { slots: arena_prev, occ: occ_prev },
                            job.scratch,
                            job.push,
                        );
                    });
                }
                // The caller's thread works chunk 0 instead of idling.
                step_segment(
                    sh,
                    first.seg,
                    round,
                    first.nodes,
                    first.node_base,
                    first.cur,
                    first.cur_base,
                    first.occ_cur,
                    Prev::Shared { slots: arena_prev, occ: occ_prev },
                    first.scratch,
                    first.push,
                );
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FaultyTransport;
    use deco_graph::generators;

    /// Flood the maximum identifier for `radius` rounds.
    struct FloodMax {
        radius: usize,
        best: u64,
    }

    impl Protocol for FloodMax {
        type Msg = u64;
        type Output = u64;

        fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
            self.best = ctx.ident;
            ctx.broadcast(self.best)
        }

        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, u64)]) -> Action<u64> {
            for &(_, v) in inbox {
                self.best = self.best.max(v);
            }
            if ctx.round >= self.radius {
                Action::halt()
            } else {
                Action::Broadcast(self.best)
            }
        }

        fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
            self.best
        }
    }

    /// Asserts that two runs agree on everything the determinism contract
    /// covers: outputs, stats and profile (the trace is observational).
    fn assert_same<T: PartialEq + std::fmt::Debug>(a: &Run<T>, b: &Run<T>, case: &str) {
        assert_eq!(a.outputs, b.outputs, "{case}: outputs diverged");
        assert_eq!(a.stats, b.stats, "{case}: stats diverged");
        assert_eq!(a.profile, b.profile, "{case}: profile diverged");
    }

    #[test]
    fn flood_on_path_reaches_radius() {
        let g = generators::path(10);
        let net = Network::new(&g);
        let run = net.run(|_| FloodMax { radius: 3, best: 0 });
        assert_eq!(run.stats.rounds, 3);
        // Vertex 0 can have heard from at most distance 3.
        assert_eq!(run.outputs[0], 4);
        // Vertex 9 has the max already.
        assert_eq!(run.outputs[9], 10);
    }

    #[test]
    fn flood_covers_whole_graph() {
        let g = generators::cycle(8);
        let run = Network::new(&g).run(|_| FloodMax { radius: 4, best: 0 });
        assert!(run.outputs.iter().all(|&b| b == 8));
    }

    #[test]
    fn message_accounting() {
        let g = generators::star(4); // 3 edges
        let run = Network::new(&g).run(|_| FloodMax { radius: 1, best: 0 });
        // start: every vertex broadcasts once over each incident edge;
        // in round 1 every node halts without sending.
        assert_eq!(run.stats.messages, 2 * g.m());
        assert!(run.stats.max_message_bits >= 3); // ident 4 needs 3 bits
        assert_eq!(run.stats.rounds, 1);
    }

    #[test]
    fn deterministic_runs() {
        let g = generators::random_graph(30, 60, 5);
        let a = Network::new(&g).run(|_| FloodMax { radius: 2, best: 0 });
        let b = Network::new(&g).run(|_| FloodMax { radius: 2, best: 0 });
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
    }

    struct NeverHalts;
    impl Protocol for NeverHalts {
        type Msg = u64;
        type Output = ();
        fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
            ctx.broadcast(1)
        }
        fn round(&mut self, _ctx: &NodeCtx<'_>, _inbox: &[(Vertex, u64)]) -> Action<u64> {
            Action::Broadcast(1)
        }
        fn finish(self, _ctx: &NodeCtx<'_>) {}
    }

    #[test]
    #[should_panic(expected = "round cap")]
    fn round_cap_triggers() {
        let g = generators::path(3);
        let _ = Network::new(&g).with_round_cap(10).run(|_| NeverHalts);
    }

    struct ImmediateHalt;
    impl Protocol for ImmediateHalt {
        type Msg = ();
        type Output = u64;
        fn start(&mut self, _ctx: &NodeCtx<'_>) -> Vec<(Vertex, ())> {
            Vec::new()
        }
        fn round(&mut self, _ctx: &NodeCtx<'_>, _inbox: &[(Vertex, ())]) -> Action<()> {
            Action::halt()
        }
        fn finish(self, ctx: &NodeCtx<'_>) -> u64 {
            ctx.ident
        }
    }

    #[test]
    fn silent_protocol_takes_one_round() {
        let g = generators::path(4);
        let run = Network::new(&g).run(|_| ImmediateHalt);
        assert_eq!(run.stats.rounds, 1);
        assert_eq!(run.stats.messages, 0);
        assert_eq!(run.outputs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn ctx_ident_lookup() {
        let g = generators::shuffle_idents(&generators::path(5), 9);
        struct Check;
        impl Protocol for Check {
            type Msg = ();
            type Output = ();
            fn start(&mut self, _ctx: &NodeCtx<'_>) -> Vec<(Vertex, ())> {
                Vec::new()
            }
            fn round(&mut self, ctx: &NodeCtx<'_>, _inbox: &[(Vertex, ())]) -> Action<()> {
                for &u in ctx.neighbors {
                    let _ = ctx.ident_of(u);
                }
                Action::halt()
            }
            fn finish(self, _ctx: &NodeCtx<'_>) {}
        }
        let run = Network::new(&g).run(|_| Check);
        assert_eq!(run.stats.rounds, 1);
    }

    #[test]
    fn run_map_keeps_stats() {
        let g = generators::path(3);
        let run = Network::new(&g).run(|_| ImmediateHalt).map(|x| x * 10);
        assert_eq!(run.outputs, vec![10, 20, 30]);
        assert_eq!(run.stats.rounds, 1);
    }

    #[test]
    fn profile_accounts_per_round() {
        let g = generators::cycle(6);
        let run = Network::new(&g).run(|_| FloodMax { radius: 2, best: 0 });
        let profile = &run.profile;
        assert_eq!(profile.len(), run.stats.rounds);
        // Round 1 delivers the start broadcasts (2 per vertex on a cycle);
        // round 2 the re-broadcasts; all 6 nodes live throughout.
        assert_eq!(profile[0].messages, 12);
        assert_eq!(profile[1].messages, 12);
        assert!(profile.iter().all(|r| r.live_nodes == 6));
        let total: usize = profile.iter().map(|r| r.messages).sum();
        // The profile counts *delivered* messages; sends into halted nodes
        // (none here) would be dropped, so delivered <= sent.
        assert_eq!(total, run.stats.messages);
        let bits: usize = profile.iter().map(|r| r.bits).sum();
        assert!(bits <= run.stats.total_message_bits);
        // Per-entry sent accounting: every delivery was sent one phase
        // earlier, and nothing was dropped on this halt-free run.
        assert!(profile.iter().all(|r| r.messages == r.sent_messages));
        assert!(profile.iter().all(|r| r.dropped_messages() == 0));
    }

    /// Nodes halt at staggered times; messages sent toward halted receivers
    /// must be dropped (delivered < sent) and stale slots must never be
    /// redelivered.
    struct StaggerHalt;
    impl Protocol for StaggerHalt {
        type Msg = u64;
        type Output = u64;
        fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
            ctx.broadcast(ctx.ident)
        }
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, u64)]) -> Action<u64> {
            // Vertex v halts silently in round v+1; everyone else keeps
            // broadcasting, so sends toward already-halted nodes pile up.
            let wave = 100 * ctx.round as u64 + inbox.len() as u64;
            if ctx.round > ctx.vertex {
                Action::halt()
            } else {
                Action::Broadcast(wave)
            }
        }
        fn finish(self, ctx: &NodeCtx<'_>) -> u64 {
            ctx.ident
        }
    }

    #[test]
    fn staggered_halts_drop_messages_to_halted() {
        let g = generators::path(6);
        let run = Network::new(&g).run(|_| StaggerHalt);
        let profile = &run.profile;
        // Vertex v halts in round v+1, so 6 rounds total.
        assert_eq!(run.stats.rounds, 6);
        let delivered: usize = profile.iter().map(|r| r.messages).sum();
        assert!(delivered < run.stats.messages, "some sends must be dropped");
        for r in profile {
            assert!(r.messages <= r.sent_messages, "delivered > sent in {r:?}");
        }
        let dropped: usize = profile.iter().map(|r| r.dropped_messages()).sum();
        // Halts are silent here, so every send is due in some profiled
        // round: the sent/delivered/dropped ledger closes exactly.
        assert_eq!(delivered + dropped, run.stats.messages);
        // Live-node counts decay one per round: 6, 5, 4, ...
        let lives: Vec<usize> = profile.iter().map(|r| r.live_nodes).collect();
        assert_eq!(lives, vec![6, 5, 4, 3, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn posting_to_non_neighbor_panics() {
        let g = generators::path(3);
        struct BadSend;
        impl Protocol for BadSend {
            type Msg = u64;
            type Output = ();
            fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
                if ctx.vertex == 0 {
                    vec![(2, 7)] // not adjacent on a path
                } else {
                    Vec::new()
                }
            }
            fn round(&mut self, _: &NodeCtx<'_>, _: &[(Vertex, u64)]) -> Action<u64> {
                Action::halt()
            }
            fn finish(self, _: &NodeCtx<'_>) {}
        }
        let _ = Network::new(&g).run(|_| BadSend);
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn duplicate_send_panics() {
        let g = generators::path(3);
        struct DoubleSend;
        impl Protocol for DoubleSend {
            type Msg = u64;
            type Output = ();
            fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
                if ctx.vertex == 0 {
                    vec![(1, 7), (1, 8)]
                } else {
                    Vec::new()
                }
            }
            fn round(&mut self, _: &NodeCtx<'_>, _: &[(Vertex, u64)]) -> Action<u64> {
                Action::halt()
            }
            fn finish(self, _: &NodeCtx<'_>) {}
        }
        let _ = Network::new(&g).run(|_| DoubleSend);
    }

    /// Out-of-order (reverse-sorted) outboxes still land correctly via the
    /// binary-search fallback.
    #[test]
    fn out_of_order_sends_are_delivered() {
        let g = generators::star(5);
        struct ReverseSendState(usize);
        impl Protocol for ReverseSendState {
            type Msg = u64;
            type Output = usize;
            fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
                ctx.neighbors.iter().rev().map(|&u| (u, u as u64)).collect()
            }
            fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, u64)]) -> Action<u64> {
                for w in inbox.windows(2) {
                    assert!(w[0].0 < w[1].0, "inbox must stay sender-sorted");
                }
                for &(_, m) in inbox {
                    // Every message carries its addressee's index.
                    assert_eq!(m, ctx.vertex as u64, "message landed at the wrong receiver");
                }
                self.0 = inbox.len();
                Action::halt()
            }
            fn finish(self, _: &NodeCtx<'_>) -> usize {
                self.0
            }
        }
        let run = Network::new(&g).run(|_| ReverseSendState(0));
        // The center received one message from each of the 4 leaves.
        assert_eq!(run.outputs[0], 4);
        assert!(run.outputs[1..].iter().all(|&c| c == 1));
    }

    /// Mostly-quiet traffic: only vertex 0 speaks after the first round —
    /// the sparse-tail shape adaptive delivery exists for.
    struct SparseTail {
        rounds: usize,
        heard: u64,
    }

    impl Protocol for SparseTail {
        type Msg = u64;
        type Output = u64;
        fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
            ctx.broadcast(ctx.ident)
        }
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, u64)]) -> Action<u64> {
            for &(_, m) in inbox {
                self.heard = self.heard.wrapping_mul(31).wrapping_add(m);
            }
            if ctx.round >= self.rounds {
                Action::halt()
            } else if ctx.vertex == 0 {
                Action::Broadcast(self.heard)
            } else {
                Action::idle()
            }
        }
        fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
            self.heard
        }
    }

    #[test]
    fn adaptive_chooses_push_on_sparse_rounds_and_scan_on_dense() {
        let g = generators::random_bounded_degree(300, 6, 77);
        let mk = |_: &NodeCtx<'_>| SparseTail { rounds: 6, heard: 0 };
        let trace = Network::new(&g).run(mk).trace;
        // Round 1 delivers the dense start broadcasts -> scan; the tail
        // rounds carry <= deg(0) messages -> push.
        assert_eq!(trace[0].delivery, DeliveryChoice::Scan);
        assert!(
            trace[2..].iter().all(|t| t.delivery == DeliveryChoice::Push),
            "sparse tail must use push delivery: {trace:?}"
        );
    }

    #[test]
    fn traced_naive_engine_has_empty_trace() {
        let g = generators::path(8);
        let run =
            Network::new(&g).with_engine(Engine::Naive).run(|_| FloodMax { radius: 2, best: 0 });
        assert_eq!(run.profile.len(), run.stats.rounds);
        assert!(run.trace.is_empty());
    }

    /// Staggered halts with a bounded horizon, each with a final broadcast:
    /// big enough graphs stay parallel-stepped, so halted senders' stale
    /// slots sit across chunk boundaries.
    struct ModHalt;
    impl Protocol for ModHalt {
        type Msg = u64;
        type Output = u64;
        fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
            ctx.broadcast(ctx.ident)
        }
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, u64)]) -> Action<u64> {
            let sum: u64 = inbox.iter().map(|&(s, m)| m ^ s as u64).sum();
            if ctx.round > ctx.vertex % 13 {
                Action::Halt(ctx.broadcast(sum))
            } else {
                Action::Broadcast(sum % 4093)
            }
        }
        fn finish(self, ctx: &NodeCtx<'_>) -> u64 {
            ctx.ident
        }
    }

    #[test]
    fn threaded_push_delivery_matches_sequential() {
        let g = generators::random_graph(4000, 9000, 5);
        let mk = |_: &NodeCtx<'_>| ModHalt;
        let seq = Network::new(&g).with_threads(1).run(mk);
        for threads in [2usize, 8] {
            let par = Network::new(&g).with_threads(threads).run(mk);
            assert_same(&seq, &par, &format!("threads={threads}"));
        }
    }

    #[test]
    fn threaded_run_matches_sequential() {
        let g = generators::random_graph(3000, 9000, 12);
        let mk = |_: &NodeCtx<'_>| FloodMax { radius: 4, best: 0 };
        let seq = Network::new(&g).with_threads(1).run(mk);
        for threads in [2, 3, 8] {
            let par = Network::new(&g).with_threads(threads).run(mk);
            assert_same(&seq, &par, &format!("threads={threads}"));
        }
    }

    /// The worker count of every round follows the thread budget, not the
    /// host's core count: `min(threads, live / MIN_ACTIVE_PER_THREAD)` once
    /// at least two workers' worth of nodes are live, else one — and one
    /// always under a non-perfect transport.
    #[test]
    fn run_honours_the_thread_budget() {
        let g = generators::random_graph(3000, 9000, 12);
        let mk = |_: &NodeCtx<'_>| FloodMax { radius: 4, best: 0 };
        // (live nodes, workers) per round.
        let workers = |net: Network<'_>| -> Vec<(usize, usize)> {
            let run = net.run(mk);
            assert_eq!(run.trace.len(), run.stats.rounds);
            run.profile.iter().zip(&run.trace).map(|(l, t)| (l.live_nodes, t.workers)).collect()
        };
        let two = workers(Network::new(&g).with_threads(2));
        assert!(two.iter().any(|&(live, _)| live >= 2 * MIN_ACTIVE_PER_THREAD));
        for (live, w) in two {
            assert_eq!(w, if live >= 2 * MIN_ACTIVE_PER_THREAD { 2 } else { 1 }, "live={live}");
        }
        let one = workers(Network::new(&g).with_threads(1));
        assert!(one.iter().all(|&(_, w)| w == 1), "{one:?}");
        let faulty =
            Network::new(&g).with_transport(Arc::new(FaultyTransport::new(7))).with_threads(8);
        let faulty = workers(faulty);
        assert!(faulty.iter().all(|&(_, w)| w == 1), "{faulty:?}");
    }

    #[test]
    fn env_parsing_falls_back_with_warning() {
        assert!(parse_threads(None).0 >= 1);
        assert_eq!(parse_threads(Some("4")), (4, None));
        for bad in ["banana", "0", "-3", "1.5"] {
            let (t, warn) = parse_threads(Some(bad));
            assert!(t >= 1, "fallback must be usable for {bad:?}");
            assert!(warn.expect("malformed value must warn").contains("DECO_THREADS"));
        }
    }

    #[test]
    fn typed_round_cap_error_preserves_partial_stats() {
        let g = generators::path(3);
        let err = Network::new(&g).with_round_cap(10).try_run(|_| NeverHalts).unwrap_err();
        let RunError::RoundCapExceeded { cap, live, stats } = err.clone();
        assert_eq!(cap, 10);
        assert_eq!(live, 3);
        assert_eq!(stats.rounds, 10);
        assert_eq!(stats.node_rounds, 30);
        assert!(stats.messages > 0);
        assert!(err.to_string().contains("round cap"));
        // Both engines report the identical typed error.
        let naive_err = Network::new(&g)
            .with_engine(Engine::Naive)
            .with_round_cap(10)
            .try_run(|_| NeverHalts)
            .unwrap_err();
        assert_eq!(err, naive_err);
    }

    #[test]
    fn zero_rate_faulty_transport_matches_perfect_transport() {
        // A zero-rate FaultyTransport delivers everything but routes
        // through the engine's full fault path (sequential, scan, take
        // fetches) — pinned bit-identical to the perfect oracle.
        let g = generators::random_graph(500, 1800, 21);
        let perfect = Network::new(&g).run(|_| StaggerHalt);
        let zero =
            Network::new(&g).with_transport(Arc::new(FaultyTransport::new(7))).run(|_| StaggerHalt);
        assert_same(&perfect, &zero, "zero-rate transport");
        // A thread budget cannot perturb a faulty run.
        let threaded = Network::new(&g)
            .with_transport(Arc::new(FaultyTransport::new(7)))
            .with_threads(8)
            .run(|_| StaggerHalt);
        assert_same(&perfect, &threaded, "threads=8");
    }

    #[test]
    fn transport_drops_are_counted_byte_accurately() {
        let g = generators::random_graph(60, 150, 9);
        let all_drop = FaultyTransport::new(3).with_drop(1_000_000);
        let run = Network::new(&g)
            .with_transport(Arc::new(all_drop))
            .run(|_| FloodMax { radius: 3, best: 0 });
        let profile = &run.profile;
        // Nobody ever hears anything: every node keeps its own ident.
        for (v, &out) in run.outputs.iter().enumerate() {
            assert_eq!(out, g.ident(v));
        }
        assert!(run.stats.messages > 0);
        assert_eq!(run.stats.transport_dropped, run.stats.messages);
        // The per-round ledger closes exactly, in messages and in bits
        // (halts are silent here, so every send appears in some entry).
        let dropped: usize = profile.iter().map(|r| r.transport_dropped).sum();
        assert_eq!(dropped, run.stats.transport_dropped);
        let dropped_bits: usize = profile.iter().map(|r| r.transport_dropped_bits).sum();
        assert_eq!(dropped_bits, run.stats.total_message_bits);
        assert!(profile.iter().all(|r| r.messages == 0));
        assert!(profile.iter().all(|r| r.dropped_messages() == r.sent_messages));
    }

    /// Test transport: delay every message by a fixed `k`.
    #[derive(Debug)]
    struct DelayAll(u32);
    impl crate::transport::Transport for DelayAll {
        fn fate(&self, _slot: usize, _round: usize) -> Fate {
            Fate::Delay(self.0)
        }
    }

    /// Logs `(round, inbox size)` for every nonempty inbox until `horizon`.
    struct LogArrivals {
        horizon: usize,
        log: Vec<(usize, usize)>,
    }
    impl Protocol for LogArrivals {
        type Msg = u64;
        type Output = Vec<(usize, usize)>;
        fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
            ctx.broadcast(ctx.ident)
        }
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, u64)]) -> Action<u64> {
            if !inbox.is_empty() {
                self.log.push((ctx.round, inbox.len()));
            }
            if ctx.round >= self.horizon {
                Action::halt()
            } else {
                Action::idle()
            }
        }
        fn finish(self, _ctx: &NodeCtx<'_>) -> Vec<(usize, usize)> {
            self.log
        }
    }

    #[test]
    fn delayed_messages_arrive_exactly_k_rounds_late() {
        let g = generators::cycle(6);
        for k in [1u32, 3] {
            let run = Network::new(&g)
                .with_transport(Arc::new(DelayAll(k)))
                .run(|_| LogArrivals { horizon: 8, log: Vec::new() });
            for log in &run.outputs {
                // Both start broadcasts reach each node, k rounds late.
                assert_eq!(log.as_slice(), &[(1 + k as usize, 2)], "k = {k}");
            }
            // Late messages still count as delivered when they land.
            assert_eq!(run.stats.transport_dropped, 0);
        }
    }

    /// Test transport: delay only the round-0 messages by one round.
    #[derive(Debug)]
    struct DelayRoundZero;
    impl crate::transport::Transport for DelayRoundZero {
        fn fate(&self, _slot: usize, round: usize) -> Fate {
            if round == 0 {
                Fate::Delay(1)
            } else {
                Fate::Deliver
            }
        }
    }

    /// Sends payload 10 in the start phase and 20 in round 1, then logs
    /// every arrival as `(round, payload)`.
    struct TwoSends {
        horizon: usize,
        log: Vec<(usize, u64)>,
    }
    impl Protocol for TwoSends {
        type Msg = u64;
        type Output = Vec<(usize, u64)>;
        fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
            ctx.broadcast(10)
        }
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, u64)]) -> Action<u64> {
            for &(_, m) in inbox {
                self.log.push((ctx.round, m));
            }
            if ctx.round >= self.horizon {
                Action::halt()
            } else if ctx.round == 1 {
                Action::Broadcast(20)
            } else {
                Action::idle()
            }
        }
        fn finish(self, _ctx: &NodeCtx<'_>) -> Vec<(usize, u64)> {
            self.log
        }
    }

    #[test]
    fn collision_postpones_the_late_message_behind_the_fresh_one() {
        // The round-0 send is delayed to round 2, where the fresh round-1
        // send already occupies the edge: the laggard is postponed to round
        // 3 — late messages never displace fresh ones, and the overtaking
        // is exactly the bounded-reorder semantics.
        let g = generators::path(2);
        let run = Network::new(&g)
            .with_transport(Arc::new(DelayRoundZero))
            .run(|_| TwoSends { horizon: 5, log: Vec::new() });
        for log in &run.outputs {
            assert_eq!(log.as_slice(), &[(2, 20), (3, 10)]);
        }
    }

    #[test]
    fn delayed_message_to_halted_receiver_is_dropped() {
        // Vertex halts before the late arrival: the message dies silently,
        // exactly like a fresh send toward a halted node.
        let g = generators::path(2);
        let run = Network::new(&g)
            .with_transport(Arc::new(DelayAll(6)))
            .run(|_| LogArrivals { horizon: 3, log: Vec::new() });
        // Arrival would be round 7; everyone halts at round 3.
        assert!(run.outputs.iter().all(|log| log.is_empty()));
        assert_eq!(run.stats.rounds, 3);
    }

    #[test]
    fn threaded_with_staggered_halts_matches_sequential() {
        // Halting nodes mid-run exercises the stale-slot check across chunk
        // boundaries.
        struct HalfLife;
        impl Protocol for HalfLife {
            type Msg = u64;
            type Output = u64;
            fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(Vertex, u64)> {
                ctx.broadcast(ctx.ident)
            }
            fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, u64)]) -> Action<u64> {
                let sum: u64 = inbox.iter().map(|&(_, m)| m).sum();
                // Every vertex halts within 7 rounds, staggered by index.
                if (ctx.vertex + ctx.round) % 7 == 0 {
                    Action::Halt(ctx.broadcast(sum))
                } else {
                    Action::Broadcast(sum % 1000)
                }
            }
            fn finish(self, ctx: &NodeCtx<'_>) -> u64 {
                ctx.ident
            }
        }
        let g = generators::random_graph(4000, 16000, 77);
        let seq = Network::new(&g).with_threads(1).run(|_| HalfLife);
        let par = Network::new(&g).with_threads(4).run(|_| HalfLife);
        assert_same(&seq, &par, "threads=4");
    }
}
