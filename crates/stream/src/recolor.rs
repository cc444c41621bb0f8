//! The incremental recoloring engine.
//!
//! [`RecolorEngine`] maintains a legal edge coloring of a mutating graph
//! across commit boundaries. The key observation is the paper's locality:
//! in the line graph, an edge insertion or deletion only invalidates colors
//! inside a bounded neighborhood of the touched edges, so repairing after a
//! batch costs `O(affected region)` — not `O(m)` — as long as the batch is
//! small. Lemma 5.1 bounds the line graph's neighborhood independence by 2
//! everywhere, so the same repair runs on any region of any store: the
//! engine is generic over its graph [`Store`], and [`Recolorer`]
//! (delta-CSR [`MutableGraph`]) and [`SegRecolorer`] (O(region)
//! [`SegmentedGraph`]) are its two instantiations.
//!
//! # Repair algorithm
//!
//! After [`RecolorEngine::commit`] applies a batch through the store, the
//! engine:
//!
//! 1. **Carries colors** across the commit ([`Store::carry`]): the legacy
//!    store gathers each new edge index's color through the commit's
//!    [`CommitDelta::edge_origin`](deco_graph::CommitDelta::edge_origin)
//!    map, one indexed copy per edge; the segmented store keeps colors by
//!    stable edge id and only touches the churned ids.
//! 2. **Extracts the repair region**: every uncolored edge, plus — only
//!    when the palette bound shrank (Δ decreased) — every edge whose
//!    carried color now falls outside it. Carried colors cannot conflict
//!    with each other (they come from a proper coloring of the previous
//!    snapshot and deletions never create conflicts), so no conflict sweep
//!    is needed; the region is exactly the delta plus bound evictions. The
//!    region's distance-1 line-graph boundary participates through
//!    forbidden-color masks, never as recolorable members.
//! 3. **Schedules** the region by running the paper's full
//!    defective-to-legal pipeline ([`edge_color_in_groups`], Theorem 5.5)
//!    on the sub-network induced by the region edges alone
//!    ([`RegionHost::region_subgraph`]); the resulting legal sub-coloring
//!    is rank-compacted into consecutive *schedule classes*.
//! 4. **Finalizes** with one class per round on the same sub-network: both
//!    endpoints of a region edge exchange `O(Δ)`-bit [`Bitset`] masks of
//!    the colors already taken around them (fixed neighbors and earlier
//!    classes) and deterministically pick the smallest free color below
//!    `2Δ - 1`. Same-class edges are non-adjacent, so each round's picks
//!    are conflict-free; every region edge costs exactly two mask messages.
//!
//! If the region exceeds [`RecolorConfig::with_repair_threshold`] (percent of
//! `m`), repairing locally would approach the cost of a full run, so the
//! engine falls back to the from-scratch pipeline on the whole snapshot.
//!
//! # Determinism
//!
//! Everything above is a deterministic function of the committed topology:
//! same trace + seed ⇒ bit-identical colorings, [`CommitReport`]s and
//! [`RunStats`] at any thread count, any delivery mode and either store —
//! the simulator's determinism contract extended end-to-end over mutation.
//! Across stores the reports agree up to `stats.commit_bytes` (the quantity
//! the segmented store improves) on a perfect transport; under a faulty one
//! the colorings still agree bit for bit while message-bit counters may
//! differ (see the [`host`](crate::RegionHost) module docs).
//!
//! # Faulty transports and self-stabilization
//!
//! [`RecolorConfig::with_transport`] plugs a [`deco_local::Transport`] under the
//! repair sub-networks. On the default perfect transport nothing changes —
//! the schedule-pipeline-plus-finalize path above runs bit-identically. On a
//! lossy transport (e.g. [`deco_local::FaultyTransport`]) the schedule
//! pipeline's rigid class-per-round cadence cannot survive dropped or late
//! masks, so the engine swaps in a **loss-tolerant priority protocol**
//! (`RobustFinalize`): every region message carries a snapshot-consistent
//! (taken-mask, min-undecided-priority, decided-color) triple, the lower
//! ident endpoint of each edge decides it once it is the minimum undecided
//! priority at *both* endpoints, and decided colors ride every subsequent
//! message, so drops only delay progress and can never produce a conflict.
//!
//! Self-stabilization wraps that protocol in a verified retry loop: each
//! attempt runs under a round cap that doubles per attempt
//! ([`RunError::RoundCapExceeded`] is absorbed, not propagated), the result
//! is merged tolerantly (disagreeing or missing replicas become uncolored)
//! and re-verified centrally, and any damage becomes the next attempt's
//! region. After [`RecolorConfig::with_max_repair_attempts`] failed attempts the
//! commit degrades to the fault-free from-scratch pipeline — the same reset
//! path compaction uses. The loop never panics and always terminates with a
//! verified-legal coloring; [`CommitReport::retries`] and
//! [`CommitReport::fallbacks`] account for it deterministically (the fate of
//! every message is a pure function of the transport seed, the slot and the
//! round).

use crate::config::RecolorConfig;
use crate::host::{RegionHost, Store};
use deco_core::edge::legal::{
    edge_color_bound, edge_color_in_groups, validate_edge_params, MessageMode,
};
use deco_core::params::{LegalParams, ParamError};
use deco_core::pipeline::{merge_edge_replicas, Pipeline};
use deco_graph::coloring::{Color, EdgeColoring};
use deco_graph::{EdgeIdx, Graph, GraphError, MutableGraph, SegmentedGraph, Vertex};
use deco_local::{
    bits_for_value, Action, Bitset, Message, Network, NodeCtx, Protocol, RunError, RunStats,
};
use deco_probe::{Event, Probe};
use std::sync::Arc;

/// How a commit's repair was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// Nothing to repair: every carried color is still valid.
    Clean,
    /// The repair-region sub-network was recolored in place.
    Incremental,
    /// The region exceeded the density threshold (or the graph had no
    /// coloring yet); the whole snapshot was recolored by the from-scratch
    /// pipeline.
    FromScratch,
}

impl std::fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RepairStrategy::Clean => "clean",
            RepairStrategy::Incremental => "incremental",
            RepairStrategy::FromScratch => "from-scratch",
        })
    }
}

/// Per-commit accounting returned by [`RecolorEngine::commit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReport {
    /// 0-based commit index.
    pub commit: usize,
    /// Net edges inserted / deleted by the batch.
    pub inserted: usize,
    /// Net edges deleted by the batch.
    pub deleted: usize,
    /// Snapshot size after the commit.
    pub n: usize,
    /// Snapshot edge count after the commit.
    pub m: usize,
    /// Snapshot maximum degree after the commit.
    pub max_degree: usize,
    /// Repair-region size in edges (0 under [`RepairStrategy::Clean`]).
    pub dirty: usize,
    /// Vertices of the repair sub-network.
    pub region_vertices: usize,
    /// How the repair ran.
    pub strategy: RepairStrategy,
    /// Edges whose color was (re)assigned.
    pub recolored: usize,
    /// Schedule classes the finalize phase stepped through (incremental
    /// repairs only).
    pub schedule_classes: u64,
    /// The palette bound colors are kept under for this snapshot.
    pub color_bound: u64,
    /// Failed repair attempts that were retried under a faulty transport
    /// (always 0 on the default perfect transport; module docs).
    pub retries: u32,
    /// 1 when every bounded retry failed and the commit degraded to the
    /// fault-free from-scratch pipeline, else 0.
    pub fallbacks: u32,
    /// Simulator statistics of all repair phases of this commit.
    pub stats: RunStats,
}

/// Sentinel for "no color yet" in the engine's dense color store. Real
/// colors are bounded by ϑ ≤ 2Δ-1, nowhere near it; a sentinel keeps the
/// per-edge slot at 8 bytes (`Option<Color>` would double it, and the
/// legacy carry streams the whole store every commit).
pub(crate) const UNCOLORED: Color = Color::MAX;

/// Incremental recoloring engine over a mutating graph [`Store`]. See
/// module docs.
#[derive(Debug, Clone)]
pub struct RecolorEngine<S> {
    /// The mutable graph store the engine commits through.
    pub(crate) store: S,
    /// Color per host edge handle ([`RegionHost::edge_bound`] entries):
    /// live edges hold committed colors between commits, freed segmented
    /// ids hold [`UNCOLORED`] holes.
    colors: Vec<Color>,
    params: LegalParams,
    mode: MessageMode,
    /// Every per-instance knob — threshold, compaction cadence, early
    /// halting, transport, retry budget, probe, threads/delivery. The
    /// probe is shared with the store's commit machinery and every repair
    /// sub-network so commit decisions, phase spans and round samples land
    /// in one stream.
    cfg: RecolorConfig,
    commits: usize,
    /// Palette bound of the previous snapshot: every committed color is
    /// below it, so the out-of-palette sweep only runs when the bound
    /// shrinks past it (0 before the first commit — no constraint).
    prev_bound: u64,
    /// A pending [`RecolorEngine::request_compaction`], consumed by the
    /// next successful commit.
    force_compaction: bool,
}

/// The engine over the delta-CSR [`MutableGraph`]: lexicographic edge
/// indices, full-rewrite commits.
pub type Recolorer = RecolorEngine<MutableGraph>;

/// The engine over the [`SegmentedGraph`]: stable edge ids, O(region)
/// commits, O(churn) color carry.
pub type SegRecolorer = RecolorEngine<SegmentedGraph>;

impl<S: Store> RecolorEngine<S> {
    /// An engine over an initially edgeless graph with `n0` vertices, with
    /// the default [`RecolorConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `params` cannot contract (the same
    /// validation as the one-shot pipeline).
    pub fn new(n0: usize, params: LegalParams, mode: MessageMode) -> Result<Self, ParamError> {
        Self::new_with(n0, params, mode, RecolorConfig::default())
    }

    /// An engine over an initially edgeless graph with `n0` vertices and
    /// the given per-instance configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `params` cannot contract.
    pub fn new_with(
        n0: usize,
        params: LegalParams,
        mode: MessageMode,
        cfg: RecolorConfig,
    ) -> Result<Self, ParamError> {
        Self::from_graph_with(Graph::empty(n0), params, mode, cfg)
    }

    /// An engine over an existing graph, with the default
    /// [`RecolorConfig`]. The initial coloring runs from scratch at the
    /// first [`RecolorEngine::commit`] (queue an empty batch to force it
    /// immediately).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `params` cannot contract.
    pub fn from_graph(
        g: Graph,
        params: LegalParams,
        mode: MessageMode,
    ) -> Result<Self, ParamError> {
        Self::from_graph_with(g, params, mode, RecolorConfig::default())
    }

    /// An engine over an existing graph with the given per-instance
    /// configuration. The initial coloring runs from scratch at the first
    /// [`RecolorEngine::commit`].
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `params` cannot contract.
    pub fn from_graph_with(
        g: Graph,
        params: LegalParams,
        mode: MessageMode,
        cfg: RecolorConfig,
    ) -> Result<Self, ParamError> {
        validate_edge_params(&params)?;
        let colors = vec![UNCOLORED; g.m()];
        let mut store = S::from_graph(g);
        store.set_probe(Arc::clone(&cfg.probe));
        Ok(RecolorEngine {
            store,
            colors,
            params,
            mode,
            cfg,
            commits: 0,
            prev_bound: 0,
            force_compaction: false,
        })
    }

    /// The engine's per-instance configuration.
    pub fn config(&self) -> &RecolorConfig {
        &self.cfg
    }

    /// Re-points the engine's structured event sink mid-life (shared with
    /// the commit machinery and every subsequent repair sub-network).
    /// Construction-time attachment goes through
    /// [`RecolorConfig::with_probe`]; this setter exists for callers that
    /// warm an engine first and start observing later. Every
    /// [`RecolorEngine::commit`] emits its decision trail —
    /// `CommitEnter`/`Region`/`Strategy`/`Retry`/`Fallback`/`Compaction`/
    /// `CommitExit` — plus the commit machinery's `CommitBytes` (emitted
    /// *before* the commit's `CommitEnter` because the graph layer runs
    /// first) and the repairs' phase spans and round samples, all in one
    /// stream. Deterministic events are bit-identical across thread counts
    /// and delivery modes; see the [`Probe`] determinism contract.
    pub fn set_probe(&mut self, probe: Arc<dyn Probe>) {
        self.store.set_probe(Arc::clone(&probe));
        self.cfg.probe = probe;
    }

    /// Replaces the engine's whole configuration mid-life (probe
    /// included, re-pointed as by [`Self::set_probe`]). Knobs are read at
    /// commit time, so the new settings govern every subsequent commit;
    /// past commits are obviously unaffected. The idiomatic use is
    /// cloning a warmed engine and re-running it under different knobs:
    /// `engine.config().clone().with_early_halt(false)` and so on.
    pub fn set_config(&mut self, cfg: RecolorConfig) {
        self.store.set_probe(Arc::clone(&cfg.probe));
        self.cfg = cfg;
    }

    /// Requests a palette compaction: the next successful commit runs the
    /// from-scratch pipeline even if its batch alone would be clean. See
    /// [`crate::RegionRecolor::request_compaction`].
    pub fn request_compaction(&mut self) {
        self.force_compaction = true;
    }

    /// The engine's event sink.
    pub fn probe(&self) -> &Arc<dyn Probe> {
        &self.cfg.probe
    }

    /// Commits applied so far.
    pub fn commits(&self) -> usize {
        self.commits
    }

    /// The current coloring in lexicographic edge order (valid after
    /// every commit): index `i` colors edge `i` of the committed snapshot,
    /// so results compare directly across stores.
    ///
    /// # Panics
    ///
    /// Panics if called before the first commit on a
    /// [`RecolorEngine::from_graph`] engine (the initial coloring has not
    /// run yet).
    pub fn coloring(&self) -> EdgeColoring {
        self.store.lex_coloring(&self.colors)
    }

    /// The palette bound the current snapshot's colors are kept under:
    /// the from-scratch pipeline's ϑ for the snapshot's Δ (never below the
    /// greedy repair cap `2Δ - 1`).
    pub fn color_bound(&self) -> u64 {
        bound_for(&self.params, self.store.host().host_max_degree() as u64)
    }

    /// Queues insertion of edge `(u, v)` for the next commit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MutableGraph::insert_edge`].
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        self.store.insert_edge(u, v)
    }

    /// Queues deletion of edge `(u, v)` for the next commit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MutableGraph::delete_edge`].
    pub fn delete_edge(&mut self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        self.store.delete_edge(u, v)
    }

    /// Queues addition of one vertex; returns its index.
    pub fn add_vertex(&mut self) -> Vertex {
        self.store.add_vertex()
    }

    /// Queues an identifier override.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MutableGraph::set_ident`].
    pub fn set_ident(&mut self, v: Vertex, ident: u64) -> Result<(), GraphError> {
        self.store.set_ident(v, ident)
    }

    /// Queues a shrink compaction: isolated vertices are dropped and the
    /// survivors renumbered at this point of the batch. Colors are carried
    /// through the renumbering (no edge is touched, so a shrink-only commit
    /// is clean). See [`MutableGraph::shrink_isolated`].
    pub fn shrink_isolated(&mut self) {
        self.store.shrink_isolated()
    }

    /// Applies the queued batch and repairs the coloring. See module docs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the batch is invalid; the previous
    /// snapshot and coloring are untouched and the batch is discarded.
    pub fn commit(&mut self) -> Result<CommitReport, GraphError> {
        let delta = self.store.commit()?;
        let g = self.store.host();
        let m = g.live_m();

        // 1 + 2. Carry colors across the commit and find the repair region:
        // every uncolored edge, plus the colors a shrunk palette bound no
        // longer admits. Nothing is colored before the first commit, so
        // all of its edges qualify.
        let bound = bound_for(&self.params, g.host_max_degree() as u64);
        let evict_above = match self.commits {
            0 => 0,
            _ if bound < self.prev_bound => bound,
            _ => UNCOLORED,
        };
        let mut colors = std::mem::take(&mut self.colors);
        let carry = self.store.carry(delta, &mut colors, evict_above);
        let dirty = carry.dirty;

        let commit = self.commits;
        self.commits += 1;
        let mut report = CommitReport {
            commit,
            inserted: carry.inserted,
            deleted: carry.deleted,
            n: g.host_n(),
            m,
            max_degree: g.host_max_degree(),
            dirty: dirty.len(),
            region_vertices: 0,
            strategy: RepairStrategy::Clean,
            recolored: 0,
            schedule_classes: 0,
            color_bound: bound,
            retries: 0,
            fallbacks: 0,
            stats: RunStats::zero(),
        };
        // A due compaction overrides everything below: even a clean commit
        // re-runs the pipeline to squeeze the drifted palette back to ϑ.
        // Scheduled cadence and a pending request_compaction both qualify;
        // the request is consumed by this (successful) commit either way.
        let cadence_due =
            self.cfg.compaction_every > 0 && (commit + 1) % self.cfg.compaction_every == 0;
        let compact = (cadence_due || self.force_compaction) && m > 0;
        self.force_compaction = false;
        emit_commit_open(&self.cfg.probe, &report, compact);

        // 3+4. Repair, or fall back when the region is too dense (or a
        // compaction commit is due).
        let (params, mode, cfg) = (self.params, self.mode, &self.cfg);
        if dirty.is_empty() && !compact {
            emit_strategy(&cfg.probe, commit, RepairStrategy::Clean);
        } else if compact || dirty.len() as u64 * 100 >= m as u64 * u64::from(cfg.threshold_pct) {
            emit_strategy(&cfg.probe, commit, RepairStrategy::FromScratch);
            report.stats = g.full_recolor_into(&mut colors, params, mode, cfg);
            report.strategy = RepairStrategy::FromScratch;
            report.recolored = m;
        } else if cfg.transport.is_perfect() {
            let mut is_dirty = vec![false; g.edge_bound()];
            for &e in &dirty {
                is_dirty[e] = true;
            }
            emit_strategy(&cfg.probe, commit, RepairStrategy::Incremental);
            let (stats, classes, region_vertices) =
                repair_region(g, &dirty, &is_dirty, &mut colors, params, mode, cfg);
            report.strategy = RepairStrategy::Incremental;
            report.recolored = dirty.len();
            report.schedule_classes = classes;
            report.region_vertices = region_vertices;
            report.stats = stats;
        } else {
            // Faulty transport: the loss-tolerant self-stabilizing path
            // (module docs). Writes into `colors` (possibly wholesale, on a
            // from-scratch fallback) and accounts into `report`. The probe
            // records the *decision* here; the exit event carries the
            // strategy the attempts actually ended on.
            emit_strategy(&cfg.probe, commit, RepairStrategy::Incremental);
            resilient_repair(g, &dirty, &mut colors, params, mode, cfg, &mut report);
        }
        self.colors = colors;
        debug_assert!(self.coloring().colors().iter().all(|&c| c < bound));
        self.prev_bound = bound;
        // The repair branches overwrite `report.stats` wholesale with the
        // simulator's accounting; fold the commit machinery's byte count
        // in afterwards so every exit reports it.
        report.stats.commit_bytes = carry.commit_bytes;
        emit_commit_close(&self.cfg.probe, &report);
        Ok(report)
    }
}

impl Recolorer {
    /// The current committed snapshot.
    pub fn graph(&self) -> &Graph {
        self.store.graph()
    }
}

impl SegRecolorer {
    /// The committed segmented store.
    pub fn segmented(&self) -> &SegmentedGraph {
        &self.store
    }
}

/// The palette bound for a snapshot of maximum degree `delta`: the
/// from-scratch pipeline's ϑ, never below the greedy repair cap `2Δ - 1`.
fn bound_for(params: &LegalParams, delta: u64) -> u64 {
    edge_color_bound(params, delta).max(2 * delta.max(1) - 1)
}

/// Opens a commit's probe span: `CommitEnter` with the batch and snapshot
/// shape, the extracted `Region`, and a `Compaction` marker when the
/// commit is a scheduled palette compaction. A no-op on a disabled probe.
fn emit_commit_open(probe: &Arc<dyn Probe>, report: &CommitReport, compact: bool) {
    if !probe.enabled() {
        return;
    }
    let commit = report.commit as u64;
    probe.emit(Event::CommitEnter {
        commit,
        inserted: report.inserted as u64,
        deleted: report.deleted as u64,
        n: report.n as u64,
        m: report.m as u64,
        max_degree: report.max_degree as u64,
    });
    probe.emit(Event::Region { commit, dirty: report.dirty as u64 });
    if compact {
        probe.emit(Event::Compaction { commit });
    }
}

/// Records the repair-strategy *decision* for a commit (the exit event
/// carries the strategy the commit actually ended on, which differs only
/// when a fault-era repair degraded to from-scratch).
fn emit_strategy(probe: &Arc<dyn Probe>, commit: usize, strategy: RepairStrategy) {
    if probe.enabled() {
        probe
            .emit(Event::Strategy { commit: commit as u64, strategy: strategy.to_string().into() });
    }
}

/// Records a failed fault-era repair attempt that will be retried.
fn emit_retry(probe: &Arc<dyn Probe>, commit: u64, attempt: u32, round_cap: usize) {
    if probe.enabled() {
        probe.emit(Event::Retry {
            commit,
            attempt: u64::from(attempt),
            round_cap: round_cap as u64,
        });
    }
}

/// Closes a commit's probe span: `CommitExit` mirroring the
/// [`CommitReport`], followed by a snapshot of the process-global message
/// [`spill`](deco_local::spill) arena as `Env` events (cumulative process
/// counters — excluded from determinism digests like every `Env` event,
/// since unrelated threads may also spill).
fn emit_commit_close(probe: &Arc<dyn Probe>, report: &CommitReport) {
    if !probe.enabled() {
        return;
    }
    probe.emit(Event::CommitExit {
        commit: report.commit as u64,
        strategy: report.strategy.to_string().into(),
        recolored: report.recolored as u64,
        schedule_classes: report.schedule_classes,
        color_bound: report.color_bound,
        region_vertices: report.region_vertices as u64,
        retries: u64::from(report.retries),
        fallbacks: u64::from(report.fallbacks),
        stats: report.stats.into(),
    });
    let spill = deco_local::spill::stats();
    probe.emit(Event::env("spill_allocated_chunks", spill.allocated_chunks.to_string()));
    probe.emit(Event::env("spill_allocated_bytes", spill.allocated_bytes.to_string()));
}

/// Runs the incremental **repair phase** — the Theorem 5.5 schedule
/// pipeline on the edge-induced region sub-network followed by the
/// class-per-round finalize protocol (module docs, steps 3 and 4) — for
/// the given `dirty` edges of `g`, in place.
///
/// `colors` must hold one entry per edge of `g` with every *non-dirty*
/// entry carrying its committed color (dirty entries are ignored and
/// overwritten). This is exactly the phase [`RecolorEngine::commit`] executes
/// on an incremental repair; it is public so differential benches can time
/// the repair phase in isolation (`early_halt` selects the
/// [`Network::with_early_halt`] mode — results are bit-identical either
/// way, only round counters move).
///
/// Returns the combined repair stats, the schedule class count and the
/// sub-network's vertex count.
///
/// # Panics
///
/// Panics if `colors.len() != g.m()` or a dirty index is out of range.
pub fn repair_phase(
    g: &Graph,
    dirty: &[EdgeIdx],
    colors: &mut [Color],
    params: LegalParams,
    mode: MessageMode,
    early_halt: bool,
) -> (RunStats, u64, usize) {
    assert_eq!(colors.len(), g.m(), "one color slot per edge");
    let mut is_dirty = vec![false; g.m()];
    for &e in dirty {
        is_dirty[e] = true;
    }
    let cfg = RecolorConfig::default().with_early_halt(early_halt);
    repair_region(g, dirty, &is_dirty, colors, params, mode, &cfg)
}

/// Builds a network over `g` with the instance's settings applied: early
/// halting, the shared probe, and — when pinned in the config — the
/// worker-thread budget and delivery mode. The transport is *not* applied
/// here; the resilient path adds it explicitly, and the from-scratch
/// pipeline deliberately stays on the perfect in-process default.
fn instance_net<'g>(g: &'g Graph, cfg: &RecolorConfig) -> Network<'g> {
    let mut net =
        Network::new(g).with_early_halt(cfg.early_halt).with_probe(Arc::clone(&cfg.probe));
    if let Some(threads) = cfg.threads {
        net = net.with_threads(threads);
    }
    if let Some(delivery) = cfg.delivery {
        net = net.with_delivery(delivery);
    }
    net
}

/// Recolors exactly the `dirty` edges of `g` in place: pipeline schedule on
/// the edge-induced sub-network, then the class-per-round finalize protocol
/// (module docs, steps 3 and 4). Returns the combined repair stats, the
/// schedule class count and the sub-network's vertex count.
///
/// Generic over the [`RegionHost`] seam: `dirty` holds host edge handles,
/// `is_dirty`/`colors` are handle-indexed ([`RegionHost::edge_bound`]
/// sized). Both hosts extract byte-identical region sub-networks, so the
/// repair outcome is independent of the host representation. The config
/// supplies the early-halt flag, the probe and any pinned
/// threads/delivery; its transport and thresholds are the caller's
/// business.
fn repair_region<H: RegionHost>(
    g: &H,
    dirty: &[EdgeIdx],
    is_dirty: &[bool],
    colors: &mut [Color],
    params: LegalParams,
    mode: MessageMode,
    cfg: &RecolorConfig,
) -> (RunStats, u64, usize) {
    let (sub, vmap, emap) = g.region_subgraph(dirty);
    // The pipeline's symmetry breaking is sized for identifiers from
    // {1, ..., n}: Cole–Vishkin's palettes span the identifier domain, so
    // the host identifiers `edge_induced` inherits would lengthen its
    // schedule to the host's size. Rank-renumber them: order-preserving,
    // so the sub-network's symmetry breaking stays a deterministic
    // function of the host's.
    let mut rank: Vec<usize> = (0..sub.n()).collect();
    rank.sort_unstable_by_key(|&v| sub.ident(v));
    let mut dense = vec![0u64; sub.n()];
    for (r, &v) in rank.iter().enumerate() {
        dense[v] = r as u64 + 1;
    }
    // INVARIANT: the identifier list is distinct by construction, so re-labelling cannot fail.
    let sub = sub.with_idents(dense).expect("ranks are distinct");
    let cap = 2 * g.host_max_degree().max(1) as u64 - 1;

    // Schedule: the paper's pipeline on the region alone. The probe rides
    // the sub-network so the repair's phase spans and round samples land in
    // the caller's event stream.
    let subnet = instance_net(&sub, cfg);
    let groups = vec![0u64; sub.m()];
    let run = edge_color_in_groups(&subnet, &groups, 1, params, sub.max_degree() as u64, mode)
        // INVARIANT: RecolorConfig parameters were validated when the engine was constructed.
        .expect("params validated at construction");

    // Rank-compact the schedule so finalize rounds track the region, not ϑ.
    let mut palette: Vec<Color> = run.coloring.colors().to_vec();
    palette.sort_unstable();
    palette.dedup();
    let classes = palette.len() as u64;
    let class_of: Vec<u64> = run
        .coloring
        .colors()
        .iter()
        // INVARIANT: the palette is assembled from all region colors including this edge's own.
        .map(|c| palette.binary_search(c).expect("own color is in the palette") as u64)
        .collect();

    let mut fixed_masks = fixed_masks(g, &vmap, is_dirty, colors, cap);

    let mut pl = Pipeline::new(&subnet);
    pl.absorb("repair/schedule-pipeline", run.stats);
    let outputs = pl.run("repair/finalize", |ctx| {
        let edges = sub
            .incident(ctx.vertex)
            .map(|(nbr, e)| FinalizeEdge { nbr, eid: e, class: class_of[e], color: None })
            .collect();
        let taken = std::mem::replace(&mut fixed_masks[ctx.vertex], Bitset::new(0));
        Finalize { cap, taken, edges }
    });
    let finals = merge_edge_replicas(sub.m(), &outputs, "repair color");
    for (sub_e, &c) in finals.iter().enumerate() {
        debug_assert!(c < cap, "finalize must stay below the greedy cap");
        colors[emap[sub_e]] = c;
    }
    (pl.into_stats(), classes, sub.n())
}

/// Forbidden masks, one per region vertex (`vmap` holds their host
/// indices): the colors below `cap` of the *fixed* incident host edges —
/// the repair region's line-graph boundary.
fn fixed_masks<H: RegionHost>(
    g: &H,
    vmap: &[Vertex],
    is_dirty: &[bool],
    colors: &[Color],
    cap: u64,
) -> Vec<Bitset> {
    vmap.iter()
        .map(|&host_v| {
            let mut mask = Bitset::new(cap as usize);
            g.for_each_incident(host_v, &mut |_, e| {
                if !is_dirty[e] {
                    let c = colors[e];
                    if c != UNCOLORED && c < cap {
                        mask.insert(c);
                    }
                }
            });
            mask
        })
        .collect()
}

/// The from-scratch pipeline on the whole snapshot — the shared reset path
/// of threshold fallbacks, compaction commits and exhausted fault-era
/// retries. Always runs on the default in-process transport (it models a
/// centralized rebuild), but honors the instance's early-halt, probe and
/// pinned threads/delivery.
pub(crate) fn full_recolor(
    g: &Graph,
    params: LegalParams,
    mode: MessageMode,
    cfg: &RecolorConfig,
) -> (Vec<Color>, RunStats) {
    let net = instance_net(g, cfg);
    let groups = vec![0u64; g.m()];
    let run = edge_color_in_groups(&net, &groups, 1, params, g.max_degree() as u64, mode)
        // INVARIANT: RecolorConfig parameters were validated when the engine was constructed.
        .expect("params validated at construction");
    debug_assert!(run.theta <= bound_for(&params, g.max_degree() as u64));
    (run.coloring.into_colors(), run.stats)
}

/// The self-stabilizing repair loop for commits over a faulty
/// [`deco_local::Transport`]
/// (module docs): per attempt, run the loss-tolerant [`RobustFinalize`]
/// protocol on the current region's sub-network under an exponentially
/// growing round cap, merge the per-endpoint replicas tolerantly, verify
/// the region centrally, and make any damage the next attempt's region.
/// After [`RecolorConfig::max_attempts`] failed attempts the commit
/// degrades to the fault-free from-scratch pipeline, so the loop always
/// terminates with a verified-legal coloring and never panics on transport
/// faults. The config supplies the transport, the attempt budget, the
/// early-halt flag, the probe and any pinned threads/delivery.
fn resilient_repair<H: RegionHost>(
    g: &H,
    dirty: &[EdgeIdx],
    colors: &mut Vec<Color>,
    params: LegalParams,
    mode: MessageMode,
    cfg: &RecolorConfig,
    report: &mut CommitReport,
) {
    let (max_attempts, probe) = (cfg.max_attempts, &cfg.probe);
    let cap = 2 * g.host_max_degree().max(1) as u64 - 1;
    let target = dirty.len();
    let commit = report.commit as u64;
    let mut dirty: Vec<EdgeIdx> = dirty.to_vec();
    for attempt in 0..max_attempts {
        let (sub, vmap, emap) = g.region_subgraph(&dirty);
        report.region_vertices = report.region_vertices.max(sub.n());
        let mut is_dirty = vec![false; g.edge_bound()];
        for &e in &dirty {
            is_dirty[e] = true;
        }
        let mut fixed_masks = fixed_masks(g, &vmap, &is_dirty, colors, cap);
        // Exponential backoff: a failed attempt retries with double the
        // round budget, so slow-but-live executions (many delays) get the
        // rounds they need while genuine livelocks stay bounded.
        let round_cap = (16 + 4 * dirty.len()) << attempt;
        let subnet = instance_net(&sub, cfg)
            .with_transport(Arc::clone(&cfg.transport))
            .with_round_cap(round_cap);
        let outcome = subnet.try_run_profiled(|ctx| {
            let edges = sub
                .incident(ctx.vertex)
                .map(|(nbr, e)| RobustEdge {
                    nbr,
                    eid: e,
                    // A pair-ordered total order on the region; identical
                    // comparisons on either host (`RegionHost::robust_prio`).
                    prio: g.robust_prio(emap[e], e),
                    leader: sub.ident(ctx.vertex) < sub.ident(nbr),
                    color: None,
                    peer_mask: None,
                    peer_min: 0,
                    announced: 0,
                })
                .collect();
            let taken = std::mem::replace(&mut fixed_masks[ctx.vertex], Bitset::new(0));
            RobustFinalize { cap, taken, edges }
        });
        let run = match outcome {
            Ok((run, _profile)) => run,
            Err(e) => {
                if let RunError::RoundCapExceeded { stats, .. } = e {
                    report.stats += stats;
                }
                report.retries += 1;
                emit_retry(probe, commit, attempt, round_cap);
                continue;
            }
        };
        report.stats += run.stats;
        // Tolerant replica merge: an edge keeps its color only when both
        // endpoints report the same decided value; anything else —
        // undecided, missing or disagreeing — becomes uncolored damage.
        let mut replicas: Vec<Vec<Option<Color>>> = vec![Vec::new(); sub.m()];
        for outputs in &run.outputs {
            for &(e, c) in outputs {
                replicas[e].push(c);
            }
        }
        for (sub_e, reps) in replicas.iter().enumerate() {
            colors[emap[sub_e]] = match reps.as_slice() {
                [Some(a), Some(b)] if a == b && *a < cap => *a,
                _ => UNCOLORED,
            };
        }
        // Central verification over the region: re-dirty every region edge
        // that is uncolored or conflicts with an incident edge (a conflict
        // against the fixed boundary re-dirties the region side only).
        let mut flagged = vec![false; g.edge_bound()];
        let mut new_dirty: Vec<EdgeIdx> = Vec::new();
        let mut incident: Vec<(Color, EdgeIdx)> = Vec::new();
        for &host_v in &vmap {
            incident.clear();
            g.for_each_incident(host_v, &mut |_, e| {
                if colors[e] != UNCOLORED {
                    incident.push((colors[e], e));
                }
            });
            incident.sort_unstable();
            for w in incident.windows(2) {
                if w[0].0 == w[1].0 {
                    for &(_, e) in &w[..2] {
                        if is_dirty[e] && !flagged[e] {
                            flagged[e] = true;
                            new_dirty.push(e);
                        }
                    }
                }
            }
        }
        for &e in &dirty {
            if colors[e] == UNCOLORED && !flagged[e] {
                flagged[e] = true;
                new_dirty.push(e);
            }
        }
        if new_dirty.is_empty() {
            report.strategy = RepairStrategy::Incremental;
            report.recolored = target;
            return;
        }
        for &e in &new_dirty {
            colors[e] = UNCOLORED;
        }
        new_dirty.sort_unstable();
        dirty = new_dirty;
        report.retries += 1;
        emit_retry(probe, commit, attempt, round_cap);
    }
    // Budget exhausted: degrade to the fault-free pipeline (the compaction
    // reset path). Guaranteed legal; the commit still never panics.
    if probe.enabled() {
        probe.emit(Event::Fallback { commit });
    }
    let stats = g.full_recolor_into(colors, params, mode, cfg);
    report.strategy = RepairStrategy::FromScratch;
    report.recolored = g.live_m();
    report.fallbacks = 1;
    report.stats += stats;
}

/// One region message of [`RobustFinalize`]. The three fields are a
/// snapshot of the sender at send time, so a receiver acting on the latest
/// message always sees a mask consistent with the reported minimum —
/// reordered or dropped messages can delay decisions but never unsound
/// ones.
#[derive(Debug, Clone)]
struct RobustMsg {
    /// Colors taken around the sender (fixed boundary + decided edges).
    mask: Bitset,
    /// Smallest priority among the sender's undecided edges (`u64::MAX`
    /// when all are decided).
    min_undecided: u64,
    /// The decided color of the edge this message rides on, if any: the
    /// follower endpoint adopts it, and it rides every later message so a
    /// dropped announcement is retried implicitly.
    color: Option<Color>,
}

impl Message for RobustMsg {
    fn size_bits(&self) -> usize {
        self.mask.size_bits()
            + bits_for_value(self.min_undecided)
            + 1
            + self.color.map_or(0, bits_for_value)
    }
}

/// Per-edge state of [`RobustFinalize`].
#[derive(Debug)]
struct RobustEdge {
    nbr: Vertex,
    eid: EdgeIdx,
    /// Host edge index: the globally unique decision priority.
    prio: u64,
    /// Whether this endpoint decides the edge (smaller identifier).
    leader: bool,
    color: Option<Color>,
    /// Latest mask heard from the peer (never heard: blocks deciding).
    peer_mask: Option<Bitset>,
    /// `min_undecided` of the latest message heard from the peer.
    peer_min: u64,
    /// Rounds the decided color has been re-announced so far.
    announced: u32,
}

/// Rounds a decided edge keeps announcing its color before going silent:
/// enough redundancy that losing every announcement (and with it the
/// follower's adoption) needs this many consecutive per-slot drops.
const REANNOUNCE: u32 = 4;

/// The loss-tolerant region finalize protocol (module docs, faulty
/// transports). Unlike [`Finalize`] it assumes nothing about message
/// timing: each edge is decided by its leader endpoint once its priority is
/// the minimum undecided priority at *both* endpoints, from the union of
/// both endpoints' taken-masks. Because a message's mask and reported
/// minimum are snapshot-consistent, a decision's mask union provably
/// contains the colors of every lower-priority incident edge — drops,
/// delays and reordering can stall progress (bounded by the caller's round
/// cap) but never produce a conflict. The protocol itself never panics;
/// incomplete executions surface as unmerged replicas for the caller's
/// verifier.
#[derive(Debug)]
struct RobustFinalize {
    cap: u64,
    /// Colors taken around this vertex: fixed boundary edges plus own
    /// region edges decided or adopted so far.
    taken: Bitset,
    edges: Vec<RobustEdge>,
}

impl RobustFinalize {
    fn min_undecided(&self) -> u64 {
        self.edges.iter().filter(|e| e.color.is_none()).map(|e| e.prio).min().unwrap_or(u64::MAX)
    }

    /// Decides every leader edge that is currently the minimum undecided
    /// priority at both endpoints, to a fixpoint (a decision can unlock the
    /// next own-minimum in the same round).
    fn decide(&mut self) {
        loop {
            let own_min = self.min_undecided();
            let Some(i) = self.edges.iter().position(|e| {
                e.leader
                    && e.color.is_none()
                    && e.prio == own_min
                    && e.peer_mask.is_some()
                    && e.prio <= e.peer_min
            }) else {
                return;
            };
            let mut union = self.taken.clone();
            // INVARIANT: peer_mask presence was checked in the guard above.
            union.union_with(self.edges[i].peer_mask.as_ref().expect("checked above"));
            let c = union.first_absent();
            if c >= self.cap {
                // Defensively impossible for a simple graph (≤ 2Δ-2 taken
                // colors below the cap); leave undecided for the verifier.
                return;
            }
            self.edges[i].color = Some(c);
            self.taken.insert(c);
        }
    }

    /// One message per edge still needing attention: undecided edges renew
    /// their (mask, min) snapshot every round; decided edges announce their
    /// color [`REANNOUNCE`] times, then go silent.
    fn sends(&mut self) -> Vec<(Vertex, RobustMsg)> {
        let min = self.min_undecided();
        let mut out = Vec::new();
        for e in &mut self.edges {
            match e.color {
                None => out.push((
                    e.nbr,
                    RobustMsg { mask: self.taken.clone(), min_undecided: min, color: None },
                )),
                Some(c) if e.announced < REANNOUNCE => {
                    e.announced += 1;
                    out.push((
                        e.nbr,
                        RobustMsg { mask: self.taken.clone(), min_undecided: min, color: Some(c) },
                    ));
                }
                Some(_) => {}
            }
        }
        out
    }
}

impl Protocol for RobustFinalize {
    type Msg = RobustMsg;
    type Output = Vec<(EdgeIdx, Option<Color>)>;

    fn start(&mut self, _ctx: &NodeCtx<'_>) -> Vec<(Vertex, RobustMsg)> {
        self.sends()
    }

    fn round(&mut self, _ctx: &NodeCtx<'_>, inbox: &[(Vertex, RobustMsg)]) -> Action<RobustMsg> {
        for (sender, msg) in inbox {
            // A lost sender lookup is tolerated, not a panic: fault-era
            // robustness means no inbox content may crash the node.
            let Some(i) = self.edges.iter().position(|e| e.nbr == *sender) else {
                continue;
            };
            if msg.mask.domain() == self.taken.domain() {
                self.edges[i].peer_mask = Some(msg.mask.clone());
                self.edges[i].peer_min = msg.min_undecided;
            }
            match msg.color {
                // Follower adoption (idempotent: every announcement of an
                // edge carries the same color). Out-of-cap values are
                // ignored rather than inserted (Bitset would panic).
                Some(c) => {
                    if self.edges[i].color.is_none() && c < self.cap {
                        self.edges[i].color = Some(c);
                        self.taken.insert(c);
                    }
                }
                // The peer visibly does not know this edge's color yet
                // (its message predates the decision, or every
                // announcement so far was dropped): refresh the
                // announcement budget so the decision keeps being resent
                // until the peer goes quiet on the edge.
                None => {
                    if self.edges[i].color.is_some() {
                        self.edges[i].announced = 0;
                    }
                }
            }
        }
        self.decide();
        let sends = self.sends();
        if sends.is_empty() {
            return Action::Halt(Vec::new());
        }
        Action::Continue(sends)
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> Vec<(EdgeIdx, Option<Color>)> {
        self.edges.into_iter().map(|e| (e.eid, e.color)).collect()
    }
}

#[derive(Debug)]
struct FinalizeEdge {
    nbr: Vertex,
    eid: EdgeIdx,
    class: u64,
    color: Option<Color>,
}

/// The class-per-round finalize protocol (module docs, step 4).
///
/// Round `r` delivers the masks of class `r - 1` (sent the round before)
/// and decides those edges: both endpoints compute the smallest color
/// absent from the union of the two masks, so they agree without another
/// exchange. A proper schedule puts at most one edge per class at any
/// vertex, so each node sends at most one mask per round and every region
/// edge costs exactly two messages over the whole run.
#[derive(Debug)]
struct Finalize {
    cap: u64,
    /// Colors taken around this vertex: fixed boundary edges plus own
    /// region edges finalized in earlier classes.
    taken: Bitset,
    edges: Vec<FinalizeEdge>,
}

impl Finalize {
    fn sends_for_class(&self, class: u64) -> Vec<(Vertex, Bitset)> {
        self.edges
            .iter()
            .filter(|e| e.class == class && e.color.is_none())
            .map(|e| (e.nbr, self.taken.clone()))
            .collect()
    }
}

impl Protocol for Finalize {
    type Msg = Bitset;
    type Output = Vec<(EdgeIdx, u64)>;

    fn start(&mut self, _ctx: &NodeCtx<'_>) -> Vec<(Vertex, Bitset)> {
        self.sends_for_class(0)
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, Bitset)]) -> Action<Bitset> {
        let deciding = ctx.round as u64 - 1;
        for (sender, mask) in inbox {
            let i = self
                .edges
                .iter()
                .position(|e| e.nbr == *sender)
                // INVARIANT: the transport delivers only along host edges, so the sender is always incident.
                .expect("mask from a non-incident sender");
            debug_assert_eq!(self.edges[i].class, deciding, "mask arrived off schedule");
            // The partner's mask is its `taken` at send time; ours hasn't
            // changed since we sent (one edge per class per vertex), so
            // both endpoints minimize over the same union.
            let mut union = mask.clone();
            union.union_with(&self.taken);
            let c = union.first_absent();
            assert!(c < self.cap, "no free color below 2Δ-1: impossible for a simple graph");
            self.edges[i].color = Some(c);
            self.taken.insert(c);
        }
        let sends = self.sends_for_class(ctx.round as u64);
        if sends.is_empty() && self.edges.iter().all(|e| e.color.is_some()) {
            return Action::Halt(Vec::new());
        }
        Action::Continue(sends)
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> Vec<(EdgeIdx, u64)> {
        self.edges
            .into_iter()
            // INVARIANT: the run loop halts only once every element is decided, so the Option is always Some.
            .map(|e| (e.eid, e.color.expect("every region edge finalized")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_core::edge::legal::edge_log_depth;
    use deco_graph::generators;

    fn engine(n: usize) -> Recolorer {
        Recolorer::new(n, edge_log_depth(1), MessageMode::Long).unwrap()
    }

    fn assert_valid(r: &Recolorer) {
        let c = r.coloring();
        assert!(c.is_proper(r.graph()), "coloring must stay proper");
        let bound = r.color_bound();
        assert!(c.colors().iter().all(|&x| x < bound), "colors must stay below {bound}");
    }

    #[test]
    fn empty_commit_on_empty_graph_is_clean() {
        let mut r = engine(5);
        let rep = r.commit().unwrap();
        assert_eq!(rep.strategy, RepairStrategy::Clean);
        assert_eq!(rep.dirty, 0);
        assert_valid(&r);
    }

    #[test]
    fn small_insertions_repair_incrementally() {
        let g = generators::random_bounded_degree(300, 6, 3);
        let mut r = Recolorer::from_graph(g, edge_log_depth(1), MessageMode::Long).unwrap();
        let first = r.commit().unwrap(); // initial coloring
        assert_eq!(first.strategy, RepairStrategy::FromScratch);
        assert_valid(&r);
        // A tiny batch: must repair locally.
        r.insert_edge(0, 150).unwrap();
        r.insert_edge(1, 200).unwrap();
        r.delete_edge_any(2);
        let rep = r.commit().unwrap();
        assert_eq!(rep.strategy, RepairStrategy::Incremental);
        assert!(rep.dirty <= 3, "only the touched edges are dirty, got {}", rep.dirty);
        assert!(rep.region_vertices <= 2 * rep.dirty);
        assert_valid(&r);
    }

    impl Recolorer {
        /// Test helper: queue deletion of `count` existing edges.
        fn delete_edge_any(&mut self, count: usize) {
            let edges: Vec<_> = self.graph().edges().take(count).collect();
            for (u, v) in edges {
                self.delete_edge(u, v).unwrap();
            }
        }
    }

    #[test]
    fn heavy_churn_falls_back_to_from_scratch() {
        let g = generators::random_bounded_degree(60, 4, 9);
        let mut r = Recolorer::from_graph(g, edge_log_depth(1), MessageMode::Long).unwrap();
        r.commit().unwrap();
        // Deletions alone never dirty a proper coloring (unless Δ shrinks
        // past the palette bound): the commit is clean.
        let m = r.graph().m();
        let removed: Vec<_> = r.graph().edges().take(m / 2).collect();
        for &(u, v) in &removed {
            r.delete_edge(u, v).unwrap();
        }
        let rep = r.commit().unwrap();
        assert_eq!(rep.strategy, RepairStrategy::Clean);
        assert_valid(&r);
        // Re-inserting them uncolors half the graph: over the threshold.
        for &(u, v) in &removed {
            r.insert_edge(u, v).unwrap();
        }
        let rep = r.commit().unwrap();
        assert_eq!(rep.strategy, RepairStrategy::FromScratch);
        assert_eq!(rep.dirty, removed.len());
        assert_valid(&r);
    }

    #[test]
    fn deletions_only_commit_is_clean_or_repairs_bound() {
        let g = generators::random_bounded_degree(200, 5, 11);
        let mut r = Recolorer::from_graph(g, edge_log_depth(1), MessageMode::Long).unwrap();
        r.commit().unwrap();
        r.delete_edge_any(3);
        let rep = r.commit().unwrap();
        // Deletions never create conflicts; only a shrinking Δ (palette
        // bound) can dirty surviving edges.
        assert!(matches!(
            rep.strategy,
            RepairStrategy::Clean | RepairStrategy::Incremental | RepairStrategy::FromScratch
        ));
        assert_valid(&r);
    }

    #[test]
    fn failed_batch_leaves_engine_intact() {
        let mut r = engine(4);
        r.insert_edge(0, 1).unwrap();
        r.commit().unwrap();
        let before = r.coloring();
        r.insert_edge(0, 1).unwrap(); // duplicate
        assert!(r.commit().is_err());
        assert_eq!(r.coloring(), before);
        assert_valid(&r);
        // The engine still works after the failure.
        r.insert_edge(1, 2).unwrap();
        r.commit().unwrap();
        assert_valid(&r);
    }

    #[test]
    fn grown_vertices_participate() {
        let mut r = engine(2);
        r.insert_edge(0, 1).unwrap();
        r.commit().unwrap();
        let v = r.add_vertex();
        r.insert_edge(1, v).unwrap();
        r.insert_edge(0, v).unwrap();
        let rep = r.commit().unwrap();
        assert_eq!(rep.n, 3);
        assert_valid(&r);
    }

    #[test]
    fn shrink_carries_colors_through_renumbering() {
        let mut r = engine(8); // vertices 5..8 stay isolated
        r.insert_edge(0, 1).unwrap();
        r.insert_edge(1, 2).unwrap();
        r.insert_edge(2, 3).unwrap();
        r.insert_edge(3, 4).unwrap();
        r.commit().unwrap();
        let before = r.coloring();
        r.shrink_isolated();
        let rep = r.commit().unwrap();
        // No edge was touched: the commit is clean and colors survive the
        // renumbering slot for slot.
        assert_eq!(rep.strategy, RepairStrategy::Clean);
        assert_eq!(rep.n, 5);
        assert_eq!(r.coloring(), before);
        assert_valid(&r);
        // Mutations mixed into a shrink batch still repair locally.
        r.shrink_isolated();
        r.insert_edge(0, 4).unwrap();
        let rep = r.commit().unwrap();
        assert!(rep.dirty >= 1);
        assert_valid(&r);
    }

    use deco_local::FaultyTransport;

    /// Churn driver shared by the fault tests: flap a sliding window of
    /// edges and insert one fresh edge per step.
    fn churn_step(r: &mut Recolorer, step: usize) -> CommitReport {
        let edges: Vec<_> = r.graph().edges().skip(step * 9).take(3).collect();
        for &(u, v) in &edges {
            r.delete_edge(u, v).unwrap();
        }
        r.commit().unwrap();
        for &(u, v) in &edges {
            r.insert_edge(u, v).unwrap();
        }
        r.commit().unwrap()
    }

    #[test]
    fn zero_rate_faulty_transport_still_repairs_incrementally() {
        // A faulty transport that drops nothing selects the resilient path
        // (it is not perfect), which must converge on the first attempt:
        // no retries, no fallbacks, a verified-legal coloring.
        let g = generators::random_bounded_degree(300, 6, 13);
        let mut r = Recolorer::from_graph_with(
            g,
            edge_log_depth(1),
            MessageMode::Long,
            RecolorConfig::default().with_transport(Arc::new(FaultyTransport::new(7))),
        )
        .unwrap();
        let first = r.commit().unwrap(); // initial build: fault-free pipeline
        assert_eq!(first.strategy, RepairStrategy::FromScratch);
        assert_eq!((first.retries, first.fallbacks), (0, 0));
        for step in 0..3 {
            let rep = churn_step(&mut r, step);
            assert_eq!(rep.strategy, RepairStrategy::Incremental, "step {step}");
            assert_eq!((rep.retries, rep.fallbacks), (0, 0), "step {step}");
            assert_eq!(rep.recolored, rep.dirty, "step {step}");
            assert_valid(&r);
        }
    }

    #[test]
    fn lossy_transport_self_stabilizes_deterministically() {
        // Real fault rates: every commit must still end verified-legal
        // within the bounded retry/fallback budget, and the whole history
        // (colors + reports, including the fault counters) must be a pure
        // function of the transport seed.
        let lossy = || {
            Arc::new(
                FaultyTransport::new(5)
                    .with_drop(120_000)
                    .with_delay(100_000, 2)
                    .with_reorder(80_000),
            )
        };
        let run = |transport: Arc<FaultyTransport>| {
            let g = generators::random_bounded_degree(300, 6, 17);
            let mut r = Recolorer::from_graph_with(
                g,
                edge_log_depth(1),
                MessageMode::Long,
                RecolorConfig::default().with_transport(transport),
            )
            .unwrap();
            r.commit().unwrap();
            let mut reports = Vec::new();
            for step in 0..4 {
                reports.push(churn_step(&mut r, step));
                assert_valid(&r);
            }
            (r.coloring(), reports)
        };
        let (colors_a, reports_a) = run(lossy());
        let (colors_b, reports_b) = run(lossy());
        assert_eq!(colors_a, colors_b, "faulty repairs must be seed-deterministic");
        assert_eq!(reports_a, reports_b, "fault counters must be seed-deterministic");
        for rep in &reports_a {
            assert!(rep.fallbacks <= 1);
            assert!(rep.retries <= 5, "retry budget exceeded: {}", rep.retries);
        }
    }

    #[test]
    fn total_message_loss_degrades_to_from_scratch() {
        // A transport that drops everything can never finish a distributed
        // repair: every attempt must hit its round cap and the commit must
        // degrade to the fault-free pipeline — legal coloring, no panic.
        let g = generators::random_bounded_degree(120, 5, 19);
        let mut r = Recolorer::from_graph_with(
            g,
            edge_log_depth(1),
            MessageMode::Long,
            RecolorConfig::default()
                .with_transport(Arc::new(FaultyTransport::new(3).with_drop(1_000_000)))
                .with_max_repair_attempts(2),
        )
        .unwrap();
        r.commit().unwrap();
        let rep = churn_step(&mut r, 0);
        assert_eq!(rep.strategy, RepairStrategy::FromScratch);
        assert_eq!(rep.retries, 2, "every attempt must fail under total loss");
        assert_eq!(rep.fallbacks, 1);
        assert!(rep.stats.transport_dropped > 0, "drops must reach the commit stats");
        assert_valid(&r);
    }

    #[test]
    fn repeated_small_batches_stay_valid_and_local() {
        let g = generators::random_bounded_degree(400, 6, 21);
        let mut r = Recolorer::from_graph(g, edge_log_depth(1), MessageMode::Long).unwrap();
        r.commit().unwrap();
        for step in 0..6 {
            // Flap a sliding window of edges: delete 4, reinsert 4 others.
            let edges: Vec<_> = r.graph().edges().skip(step * 7).take(4).collect();
            for &(u, v) in &edges {
                r.delete_edge(u, v).unwrap();
            }
            let rep = r.commit().unwrap();
            assert_ne!(rep.strategy, RepairStrategy::FromScratch);
            assert_valid(&r);
            for &(u, v) in &edges {
                r.insert_edge(u, v).unwrap();
            }
            let rep = r.commit().unwrap();
            assert_eq!(rep.strategy, RepairStrategy::Incremental);
            assert_eq!(rep.dirty, 4);
            assert_valid(&r);
        }
    }
}
