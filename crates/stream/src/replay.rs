//! Trace replay: drive any [`RegionRecolor`] engine from a parsed churn
//! trace.

use crate::config::RecolorConfig;
use crate::facade::RegionRecolor;
use crate::recolor::{CommitReport, Recolorer};
use deco_core::edge::legal::MessageMode;
use deco_core::params::{LegalParams, ParamError};
use deco_graph::trace::Trace;
use deco_graph::GraphError;
use deco_probe::{Event, Probe};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
// tidy: allow(wall-clock) — replay reports per-commit wall time only as
// non-fatal Env probe events and ReplayRun timings; no deterministic
// counter reads the clock.
use std::time::{Duration, Instant};

/// Error from [`replay_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayError {
    /// The parameters cannot contract.
    Params(ParamError),
    /// A trace operation was invalid for the evolving topology.
    Graph {
        /// 0-based commit index of the failing batch.
        commit: usize,
        /// The underlying graph error.
        error: GraphError,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Params(e) => write!(f, "invalid parameters: {e}"),
            ReplayError::Graph { commit, error } => write!(f, "commit {commit}: {error}"),
        }
    }
}

impl Error for ReplayError {}

impl From<ParamError> for ReplayError {
    fn from(e: ParamError) -> Self {
        ReplayError::Params(e)
    }
}

/// The outcome of replaying a whole trace.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// One report per commit, in order.
    pub reports: Vec<CommitReport>,
    /// Wall time of each commit (repair included), aligned with `reports`.
    /// Excluded from the determinism contract, obviously.
    pub wall: Vec<Duration>,
    /// The engine after the final commit (coloring, snapshot).
    pub recolorer: Recolorer,
}

/// The outcome of [`replay_trace_on`]: the caller keeps the engine, so
/// only the per-commit record comes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRun {
    /// One report per commit, in order.
    pub reports: Vec<CommitReport>,
    /// Wall time of each commit (repair included), aligned with `reports`.
    /// Excluded from the determinism contract, obviously.
    pub wall: Vec<Duration>,
}

/// Replays every committed batch of `trace` through a caller-supplied
/// engine — the representation-agnostic workhorse under [`replay_trace`],
/// the `deco-stream` CLI and the `deco-serve` tenants. Each commit's wall
/// time is additionally emitted as a non-deterministic `Env` event
/// (`commit_wall_micros`) when the engine's probe is enabled.
///
/// The engine need not be fresh; replaying onto a mid-life engine simply
/// continues its commit history.
///
/// # Errors
///
/// Returns [`ReplayError::Graph`] on an invalid batch; the engine is left
/// as of the last successful commit with the failing batch discarded.
pub fn replay_trace_on(
    engine: &mut dyn RegionRecolor,
    trace: &Trace,
) -> Result<ReplayRun, ReplayError> {
    let mut reports = Vec::new();
    let mut wall = Vec::new();
    for (commit, batch) in trace.batches().into_iter().enumerate() {
        // tidy: allow(wall-clock) — informational commit timing, emitted
        // as an Env event the probe digest skips.
        let t0 = Instant::now();
        for &op in batch {
            engine.queue_op(op).map_err(|error| ReplayError::Graph { commit, error })?;
        }
        let report = engine.commit().map_err(|error| ReplayError::Graph { commit, error })?;
        let elapsed = t0.elapsed();
        let probe = engine.probe();
        if probe.enabled() {
            probe.emit(Event::env("commit_wall_micros", elapsed.as_micros().to_string()));
        }
        wall.push(elapsed);
        reports.push(report);
    }
    Ok(ReplayRun { reports, wall })
}

/// Replays every committed batch of `trace` through a fresh [`Recolorer`],
/// collecting per-commit reports and wall times.
///
/// # Errors
///
/// Returns [`ReplayError`] on invalid parameters or an invalid batch.
pub fn replay_trace(
    trace: &Trace,
    params: LegalParams,
    mode: MessageMode,
    threshold_pct: u32,
) -> Result<ReplayOutcome, ReplayError> {
    replay_trace_probed(trace, params, mode, threshold_pct, deco_probe::null())
}

/// [`replay_trace`] with a structured event sink attached to the engine
/// (see [`RecolorConfig::with_probe`]): every commit's decision trail, phase
/// spans and round samples land in `probe`, plus one non-deterministic
/// `Env` event per commit carrying its wall time in microseconds
/// (`commit_wall_micros` — excluded from determinism digests like every
/// `Env` event, same policy as the bench gate's `environment` blocks).
///
/// # Errors
///
/// Returns [`ReplayError`] on invalid parameters or an invalid batch.
pub fn replay_trace_probed(
    trace: &Trace,
    params: LegalParams,
    mode: MessageMode,
    threshold_pct: u32,
    probe: Arc<dyn Probe>,
) -> Result<ReplayOutcome, ReplayError> {
    let cfg = RecolorConfig::default().with_repair_threshold(threshold_pct).with_probe(probe);
    let mut recolorer = Recolorer::new_with(trace.n0, params, mode, cfg)?;
    let run = replay_trace_on(&mut recolorer, trace)?;
    Ok(ReplayOutcome { reports: run.reports, wall: run.wall, recolorer })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recolor::RepairStrategy;
    use deco_core::edge::legal::edge_log_depth;
    use deco_graph::trace::{churn_trace, parse_trace};

    #[test]
    fn churn_trace_replays_clean() {
        let trace = churn_trace(120, 5, 4, 6, 0x5eed);
        let out = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
        assert_eq!(out.reports.len(), 5);
        assert_eq!(out.reports[0].strategy, RepairStrategy::FromScratch);
        let c = out.recolorer.coloring();
        assert!(c.is_proper(out.recolorer.graph()));
        for rep in &out.reports[1..] {
            assert!(rep.dirty <= 12, "1-commit churn of 6+6 edges, got {}", rep.dirty);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = churn_trace(80, 4, 3, 4, 7);
        let a = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
        let b = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.recolorer.coloring(), b.recolorer.coloring());
    }

    #[test]
    fn invalid_batch_reports_commit_index() {
        let trace = parse_trace("t 3\n+ 0 1\ncommit\n- 1 2\ncommit\n").unwrap();
        let err = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap_err();
        assert!(matches!(err, ReplayError::Graph { commit: 1, .. }));
        assert!(err.to_string().contains("commit 1"));
    }

    #[test]
    fn vertex_growth_and_idents_replay() {
        let trace = parse_trace("t 2\n+ 0 1\ncommit\nv 1\ni 2 9\n+ 1 2\ncommit\n").unwrap();
        let out = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
        let g = out.recolorer.graph();
        assert_eq!(g.n(), 3);
        assert_eq!(g.ident(2), 9);
        assert!(out.recolorer.coloring().is_proper(g));
    }
}
