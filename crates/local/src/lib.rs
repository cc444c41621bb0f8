//! A deterministic synchronous message-passing simulator for the LOCAL /
//! CONGEST models of distributed computing.
//!
//! The paper's model (Section 1.1): each vertex of an `n`-vertex graph hosts
//! a processor with a distinct identifier from `{1, ..., n}`; computation
//! proceeds in synchronous rounds; in every round each vertex may send one
//! message to each neighbor; running time is the number of rounds. This crate
//! simulates exactly that, and additionally accounts for message *sizes* in
//! bits, because the paper distinguishes algorithms using `O(log n)`-bit
//! messages from those needing `O(Δ log n)` bits (Section 5).
//!
//! The delivery hot path is zero-allocation: messages land in preallocated
//! per-directed-edge slots of the host graph's CSR (see [`Network`] and the
//! `network` module docs), payloads too long for a slot's inline buffer
//! live in the pooled [`spill`] arena (recycled chunks, byte-accurate
//! accounting), halted nodes drop off an active worklist, and rounds are
//! stepped in parallel deterministically up to [`Network::with_threads`]
//! workers. [`Network::run`] (panicking) and [`Network::try_run`]
//! (fallible) are the only run entry points; both return a [`Run`] with
//! the outputs, [`RunStats`], the per-round [`RoundLoad`] profile and the
//! [`RoundTrace`]. The pre-refactor engine survives as [`Engine::Naive`] —
//! a differential-testing oracle and the baseline the perf benches measure
//! speedups against. All engines honor the same determinism contract:
//! bit-identical outputs, [`RunStats`] and [`RoundLoad`] profiles.
//!
//! # Writing a protocol
//!
//! A protocol is a per-node state machine implementing [`Protocol`]. The
//! simulator instantiates one state per vertex, calls [`Protocol::start`]
//! once, then repeatedly delivers messages and calls [`Protocol::round`]
//! until every node has halted.
//!
//! ```
//! use deco_graph::generators;
//! use deco_local::{Action, Network, NodeCtx, Protocol};
//!
//! /// Every vertex learns the maximum identifier among its neighbors.
//! struct MaxOfNeighbors {
//!     best: u64,
//! }
//!
//! impl Protocol for MaxOfNeighbors {
//!     type Msg = u64;
//!     type Output = u64;
//!
//!     fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, u64)> {
//!         ctx.broadcast(ctx.ident)
//!     }
//!
//!     fn round(&mut self, _ctx: &NodeCtx<'_>, inbox: &[(usize, u64)]) -> Action<u64> {
//!         self.best = inbox.iter().map(|&(_, id)| id).max().unwrap_or(0);
//!         Action::halt()
//!     }
//!
//!     fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
//!         self.best
//!     }
//! }
//!
//! let g = generators::star(4);
//! let run = Network::new(&g).run(|_ctx| MaxOfNeighbors { best: 0 });
//! assert_eq!(run.stats.rounds, 1);
//! assert_eq!(run.outputs[0], 4); // the center saw idents 2, 3, 4
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod message;
mod naive;
mod network;
mod stats;
mod transport;

pub mod line_sim;
pub mod spill;

pub use message::{bits_for_range, bits_for_value, Bitset, Message};
pub use network::{
    encode_round_trace, Action, DeliveryChoice, Engine, Network, NodeCtx, Protocol, RoundLoad,
    RoundTrace, Run, RunError,
};
pub use stats::{RunStats, StatsDiff};
pub use transport::{Fate, FaultyTransport, InProcess, Transport};
