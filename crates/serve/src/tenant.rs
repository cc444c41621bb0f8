//! Tenants: registration specs, published snapshots, and the per-tenant
//! runtime state the worker pool drives.

use crate::snapshot::Swap;
use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_core::params::LegalParams;
use deco_graph::coloring::EdgeColoring;
use deco_graph::trace::TraceOp;
use deco_graph::Graph;
use deco_probe::Fnv;
use deco_stream::{CommitReport, RecolorConfig, RegionRecolor, RepairStrategy};
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::{Condvar, Mutex};

/// Which commit representation a tenant's engine uses. Both sides of the
/// [`RegionRecolor`] facade produce identical colorings (the engine-parity
/// contract), so the choice only moves commit traffic and memory shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// [`deco_stream::Recolorer`]: delta-CSR commits, lexicographic edge
    /// indices.
    Legacy,
    /// [`deco_stream::SegRecolorer`]: segmented commits, stable edge ids,
    /// `O(region)` commit traffic.
    Segmented,
}

/// Everything a tenant is registered with: topology seedings, paper
/// parameters, engine choice and the full per-instance
/// [`RecolorConfig`] — tenants in one process are fully heterogeneous.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (CLI listings, error messages).
    pub name: String,
    /// Initial vertex count; the tenant starts edgeless and is grown by
    /// submitted trace operations.
    pub n0: usize,
    /// The paper's contraction parameters.
    pub params: LegalParams,
    /// Message model for the repair networks.
    pub mode: MessageMode,
    /// Commit representation.
    pub engine: EngineKind,
    /// Per-instance engine knobs (threshold, compaction, transport,
    /// probe, threads, delivery, ...).
    pub config: RecolorConfig,
}

impl TenantSpec {
    /// A spec with the workspace defaults: `edge_log_depth(1)` params,
    /// long messages, the legacy engine, a default [`RecolorConfig`].
    pub fn new(name: impl Into<String>, n0: usize) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            n0,
            params: edge_log_depth(1),
            mode: MessageMode::Long,
            engine: EngineKind::Legacy,
            config: RecolorConfig::default(),
        }
    }

    /// Picks the commit representation.
    pub fn with_engine(mut self, engine: EngineKind) -> TenantSpec {
        self.engine = engine;
        self
    }

    /// Replaces the engine configuration.
    pub fn with_config(mut self, config: RecolorConfig) -> TenantSpec {
        self.config = config;
        self
    }

    /// Replaces the contraction parameters.
    pub fn with_params(mut self, params: LegalParams) -> TenantSpec {
        self.params = params;
        self
    }

    /// Picks the message model.
    pub fn with_mode(mut self, mode: MessageMode) -> TenantSpec {
        self.mode = mode;
        self
    }
}

/// An immutable, epoch-stamped snapshot of a tenant's committed state,
/// published lock-free after every successful commit (see
/// [`crate::Serve::snapshot`]). Epoch 0 is the registration snapshot
/// (edgeless, no commits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Publication epoch: the number of successful commits behind this
    /// snapshot.
    pub epoch: u64,
    /// Commits applied (equals `epoch`; kept separate for readability at
    /// call sites).
    pub commits: usize,
    /// Vertices of the committed graph.
    pub n: usize,
    /// Edges of the committed graph.
    pub m: usize,
    /// Maximum degree of the committed graph.
    pub max_degree: usize,
    /// Palette bound the coloring is kept under.
    pub color_bound: u64,
    /// The committed graph, in lexicographic edge order.
    pub graph: Graph,
    /// The committed coloring, aligned with `graph`'s edge order.
    pub coloring: EdgeColoring,
}

impl TenantSnapshot {
    /// FNV-1a fingerprint of the snapshot's deterministic content (epoch,
    /// shape, every edge, every color). Bit-identical runs produce equal
    /// fingerprints whatever the shard count — the serve determinism
    /// tests and the pr9 bench gate hang off this.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fnv::new();
        f.word(self.epoch);
        f.word(self.commits as u64);
        f.word(self.n as u64);
        f.word(self.m as u64);
        f.word(self.max_degree as u64);
        f.word(self.color_bound);
        for (u, v) in self.graph.edges() {
            f.word(u as u64);
            f.word(v as u64);
        }
        for &c in self.coloring.colors() {
            f.word(c);
        }
        f.digest()
    }
}

/// A recorded per-tenant failure: the engine survived (commit errors leave
/// the previous snapshot intact; queue errors quarantine the tenant), the
/// service kept running, the error is reported out of band.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantError {
    /// Commits the tenant had applied when the failure happened.
    pub commits: usize,
    /// Human-readable description.
    pub message: String,
}

/// One queued instruction for a tenant's engine.
#[derive(Debug, Clone)]
pub(crate) enum TenantMsg {
    /// Queue a trace operation into the current batch.
    Op(TraceOp),
    /// Commit the current batch.
    Commit,
    /// Request a demand-driven palette compaction.
    Compact,
}

/// The submission side of a tenant: a bounded FIFO plus the single-drainer
/// claim flag that makes per-tenant processing order total.
#[derive(Debug)]
pub(crate) struct Inbox {
    pub(crate) queue: VecDeque<TenantMsg>,
    /// True while the tenant sits in a shard queue or a worker is
    /// draining it; exactly one worker processes a tenant at a time, so
    /// messages apply in submission order regardless of shard count.
    pub(crate) scheduled: bool,
}

/// The execution side of a tenant: the engine and everything the drainer
/// mutates. Only the claiming worker locks this (plus read-side accessors
/// after a drain), so commits never contend with other tenants.
pub(crate) struct Exec {
    pub(crate) engine: Box<dyn RegionRecolor + Send>,
    /// Every successful commit's report, in commit order — the
    /// deterministic transcript the determinism tests compare.
    pub(crate) reports: Vec<CommitReport>,
    /// `node_rounds` accumulated since the last compaction request; the
    /// deterministic cost clock behind
    /// [`ServeConfig::with_compact_cost_budget`](crate::ServeConfig::with_compact_cost_budget).
    pub(crate) cost_since_compaction: u64,
    /// Wall time of each successful commit, aligned with `reports`.
    /// Excluded from the determinism contract, obviously.
    pub(crate) commit_walls: Vec<std::time::Duration>,
    /// Failures survived so far.
    pub(crate) errors: Vec<TenantError>,
    /// Set once a queue-side failure poisons the batch state; subsequent
    /// messages are discarded and submissions rejected.
    pub(crate) quarantined: bool,
}

/// A registered tenant.
pub(crate) struct Tenant {
    pub(crate) name: String,
    /// Home shard (`id % shards`); stealing may run the drain elsewhere,
    /// the home shard only fixes where the claim is enqueued.
    pub(crate) shard: usize,
    pub(crate) inbox: Mutex<Inbox>,
    /// Signalled per popped message; blocking submitters wait here for
    /// inbox space.
    pub(crate) space: Condvar,
    pub(crate) exec: Mutex<Exec>,
    /// The published snapshot cell (lock-free readers).
    pub(crate) snap: Swap<TenantSnapshot>,
    /// Total committed `node_rounds` — the admission currency, readable
    /// without any lock.
    pub(crate) cost: AtomicU64,
}

/// FNV-1a fingerprint of a commit-report transcript: every deterministic
/// field of every report, in order. Wall time does not appear in
/// [`CommitReport`], so the whole struct participates.
pub fn reports_fingerprint(reports: &[CommitReport]) -> u64 {
    let mut f = Fnv::new();
    for r in reports {
        for w in [
            r.commit as u64,
            r.inserted as u64,
            r.deleted as u64,
            r.n as u64,
            r.m as u64,
            r.max_degree as u64,
            r.dirty as u64,
            r.region_vertices as u64,
            match r.strategy {
                RepairStrategy::Clean => 0,
                RepairStrategy::Incremental => 1,
                RepairStrategy::FromScratch => 2,
            },
            r.recolored as u64,
            r.schedule_classes,
            r.color_bound,
            u64::from(r.retries),
            u64::from(r.fallbacks),
            r.stats.rounds as u64,
            r.stats.node_rounds as u64,
            r.stats.messages as u64,
            r.stats.max_message_bits as u64,
            r.stats.total_message_bits as u64,
            r.stats.transport_dropped as u64,
            r.stats.commit_bytes as u64,
        ] {
            f.word(w);
        }
    }
    f.digest()
}
