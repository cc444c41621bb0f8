//! `deco-stream` — incremental recoloring for mutating graphs.
//!
//! The rest of the workspace colors a graph once and exits. This crate
//! keeps a legal edge coloring **alive while the graph changes**: edges
//! arrive and leave in batches (TDMA links flapping, job-shop tasks
//! finishing), and after every committed batch the coloring is repaired by
//! re-running the paper's machinery on the *repair region only* — the
//! uncolored/conflicting edges — instead of the whole graph. The paper's
//! locality (an edge insertion only perturbs a bounded neighborhood of the
//! line graph; Lemma 5.1 bounds its independence by 2 everywhere, so the
//! pipeline works on any region) is what makes this sound.
//!
//! Three layers:
//!
//! * [`deco_graph::MutableGraph`] + [`deco_graph::trace`] (in the graph
//!   crate) — batched mutation with atomic **delta-CSR** commits (the
//!   snapshot is patched, not rebuilt, and stays bit-identical to a
//!   rebuild), and the replayable plain-text trace format / seeded churn
//!   generator;
//! * [`RecolorEngine`] — the engine, generic over its graph [`Store`]:
//!   carry colors across a commit, extract the repair region from the
//!   delta alone, schedule it with the Theorem 5.5 pipeline on the
//!   edge-induced sub-network, finalize with `O(Δ)`-bit forbidden-color
//!   masks, fall back to from-scratch when the region is too dense.
//!   [`Recolorer`] runs it over the delta-CSR [`deco_graph::MutableGraph`],
//!   [`SegRecolorer`] over the O(region) [`deco_graph::SegmentedGraph`];
//! * [`replay_trace`] / [`replay_trace_on`] and the `deco-stream` binary —
//!   replay a trace file, reporting per-commit repair sizes, rounds and
//!   wall time.
//!
//! Engines are configured per instance through [`RecolorConfig`] and
//! driven representation-agnostically through the object-safe
//! [`RegionRecolor`] facade, which [`RecolorEngine`] implements for every
//! store — the surface `deco-serve` hosts thousands of tenants behind.
//!
//! Determinism: same trace + parameters ⇒ bit-identical colorings and
//! [`CommitReport`]s at any `DECO_THREADS` / `DECO_DELIVERY` setting (see
//! the [`RegionRecolor`] contract).
//!
//! Fault tolerance: [`RecolorConfig::with_transport`] runs the repair
//! sub-networks over a pluggable [`Transport`] (e.g. the deterministic
//! seed-driven [`FaultyTransport`]); under a lossy transport the engine
//! switches to a loss-tolerant repair protocol wrapped in a verified retry
//! loop with exponential round-cap backoff, degrading to a fault-free
//! from-scratch recolor after a bounded number of failed attempts — every
//! commit still terminates with a verified-legal coloring, never a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod facade;
mod host;
mod recolor;
mod replay;

pub use config::RecolorConfig;
pub use facade::RegionRecolor;
pub use host::{Carry, RegionHost, Store};
pub use recolor::{
    repair_phase, CommitReport, RecolorEngine, Recolorer, RepairStrategy, SegRecolorer,
};
pub use replay::{
    replay_trace, replay_trace_on, replay_trace_probed, ReplayError, ReplayOutcome, ReplayRun,
};

// The configuration vocabulary ([`RecolorConfig::with_transport`] /
// [`RecolorConfig::with_delivery`]), re-exported so engine users need no
// direct `deco_local` dependency.
pub use deco_local::{Delivery, Fate, FaultyTransport, InProcess, RunError, Transport};
