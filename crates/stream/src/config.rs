//! Per-instance engine configuration.
//!
//! [`RecolorConfig`] gathers every knob the recoloring engine accepts —
//! repair threshold, compaction cadence, early halting, transport, retry
//! budget, probe, and the simulator's thread/delivery settings — into one
//! value owned by the engine instance. The thread/delivery pair is not
//! process-global: `deco-serve` registers thousands of engines in one
//! process, each with its own config, so the `DECO_THREADS` /
//! `DECO_DELIVERY` environment read is merely the *default* for the unset
//! fields.

use deco_local::{Delivery, InProcess, Transport};
use deco_probe::Probe;
use std::sync::Arc;

/// Every per-instance knob of a recoloring engine, with the workspace-wide
/// defaults. Construct with [`RecolorConfig::default`], refine with the
/// builder methods, hand to [`RecolorEngine::new_with`] (or
/// [`RecolorEngine::from_graph_with`]).
///
/// None of the fields participate in the determinism contract except
/// through their documented semantics: colorings and [`CommitReport`]s are
/// bit-identical at any `threads` / `delivery` setting and with any probe,
/// while `threshold_pct`, `compaction_every`, `transport` and
/// `max_attempts` legitimately select *which* deterministic outcome runs.
///
/// [`RecolorEngine::new_with`]: crate::RecolorEngine::new_with
/// [`RecolorEngine::from_graph_with`]: crate::RecolorEngine::from_graph_with
/// [`CommitReport`]: crate::CommitReport
#[derive(Debug, Clone)]
pub struct RecolorConfig {
    /// Repair-region density (percent of `m`) above which a commit falls
    /// back to the from-scratch pipeline.
    pub(crate) threshold_pct: u32,
    /// Force a from-scratch recolor every `k`-th commit (0 = never).
    pub(crate) compaction_every: usize,
    /// Early node halting in the repair pipelines (default on).
    pub(crate) early_halt: bool,
    /// Transport under the incremental repair sub-networks.
    pub(crate) transport: Arc<dyn Transport>,
    /// Bounded self-stabilization budget for fault-era repairs.
    pub(crate) max_attempts: u32,
    /// Structured event sink (default: the shared no-op probe).
    pub(crate) probe: Arc<dyn Probe>,
    /// Worker-thread budget for every network the engine builds; `None`
    /// defers to the process default (`DECO_THREADS` or available
    /// parallelism).
    pub(crate) threads: Option<usize>,
    /// Delivery mode for every network the engine builds; `None` defers to
    /// the process default (`DECO_DELIVERY` or adaptive).
    pub(crate) delivery: Option<Delivery>,
}

impl Default for RecolorConfig {
    fn default() -> Self {
        RecolorConfig {
            threshold_pct: 25,
            compaction_every: 0,
            early_halt: true,
            transport: Arc::new(InProcess),
            max_attempts: 5,
            probe: deco_probe::null(),
            threads: None,
            delivery: None,
        }
    }
}

impl RecolorConfig {
    /// Sets the repair-region density threshold in percent of `m` (default
    /// 25): a commit whose region is larger falls back to from-scratch.
    pub fn with_repair_threshold(mut self, pct: u32) -> RecolorConfig {
        self.threshold_pct = pct;
        self
    }

    /// Forces a from-scratch recolor on every `k`-th commit (`0`, the
    /// default, never compacts): the steady-state **palette-drift**
    /// mitigation. Greedy incremental repairs only promise colors below
    /// the cap `2Δ - 1`, so over many churn epochs the palette in use can
    /// creep upward from the tight coloring the from-scratch pipeline
    /// produces; a periodic compaction commit re-runs the whole pipeline
    /// and resets the palette toward its ϑ. Compaction commits report
    /// `FromScratch` even when the batch alone would have been `Clean`.
    ///
    /// Commits are counted from the engine's first: with `k = 4`, commits
    /// 3, 7, 11, ... (0-based) compact. For demand-driven compaction (the
    /// `deco-serve` cost budgets) see
    /// [`RegionRecolor::request_compaction`](crate::RegionRecolor::request_compaction).
    pub fn with_compaction_every(mut self, k: usize) -> RecolorConfig {
        self.compaction_every = k;
        self
    }

    /// Enables or disables early node halting inside the repair pipelines
    /// (default on; see [`deco_local::Network::with_early_halt`]).
    /// Colorings and reports are bit-identical either way apart from round
    /// counters.
    pub fn with_early_halt(mut self, on: bool) -> RecolorConfig {
        self.early_halt = on;
        self
    }

    /// Plugs a [`Transport`] under the incremental repair sub-networks
    /// (default: the perfect in-process transport). Any non-perfect
    /// transport switches incremental repairs to the loss-tolerant
    /// self-stabilizing path; from-scratch recolors always run in-process.
    /// See the [`RecolorEngine`](crate::RecolorEngine) module docs.
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> RecolorConfig {
        self.transport = transport;
        self
    }

    /// Sets the bounded self-stabilization budget (default 5, clamped to
    /// at least 1): how many repair attempts a fault-era commit runs —
    /// each under a doubled round cap — before degrading to the
    /// fault-free from-scratch pipeline.
    pub fn with_max_repair_attempts(mut self, attempts: u32) -> RecolorConfig {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Plugs a structured event sink under the engine (default: the shared
    /// no-op probe). Shared with the commit machinery and every repair
    /// sub-network, so commit decisions, phase spans and round samples
    /// land in one stream.
    pub fn with_probe(mut self, probe: Arc<dyn Probe>) -> RecolorConfig {
        self.probe = probe;
        self
    }

    /// Pins the worker-thread budget of every network this engine builds
    /// (clamped to at least 1 downstream). Unset, the process default
    /// applies — `DECO_THREADS` or available parallelism, re-read per
    /// network. Results never depend on this value; two tenants in one
    /// process may differ.
    pub fn with_threads(mut self, threads: usize) -> RecolorConfig {
        self.threads = Some(threads);
        self
    }

    /// Pins the delivery mode of every network this engine builds. Unset,
    /// the process default applies — `DECO_DELIVERY` or
    /// [`Delivery::Adaptive`], re-read per network. Results are identical
    /// in every mode; only wall-clock differs.
    pub fn with_delivery(mut self, delivery: Delivery) -> RecolorConfig {
        self.delivery = Some(delivery);
        self
    }

    /// The repair-region density threshold in percent of `m`.
    pub fn threshold_pct(&self) -> u32 {
        self.threshold_pct
    }

    /// The scheduled compaction cadence (0 = never).
    pub fn compaction_every(&self) -> usize {
        self.compaction_every
    }

    /// Whether early node halting is enabled.
    pub fn early_halt(&self) -> bool {
        self.early_halt
    }

    /// The transport under the incremental repair sub-networks.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The bounded self-stabilization budget.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The engine's event sink.
    pub fn probe(&self) -> &Arc<dyn Probe> {
        &self.probe
    }

    /// The pinned worker-thread budget, if any.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The pinned delivery mode, if any.
    pub fn delivery(&self) -> Option<Delivery> {
        self.delivery
    }
}
