//! Tenants: registration specs, published snapshots, and the per-tenant
//! runtime state the worker pool drives.

use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_core::params::LegalParams;
use deco_graph::coloring::EdgeColoring;
use deco_graph::trace::TraceOp;
use deco_graph::Graph;
use deco_probe::Fnv;
use deco_stream::{CommitReport, RecolorConfig, RegionRecolor, RepairStrategy};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Condvar, Mutex};

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
    /// probe, threads, ...).
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
}

/// An immutable, epoch-stamped snapshot of a tenant's committed state,
/// published after every successful commit (see
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
    /// The engine's committed state, stamped with its commit count.
    pub(crate) fn capture(engine: &dyn RegionRecolor) -> TenantSnapshot {
        let commits = engine.commits();
        let (graph, coloring) = engine.publish();
        TenantSnapshot {
            epoch: commits as u64,
            commits,
            n: graph.n(),
            m: graph.m(),
            max_degree: graph.max_degree(),
            color_bound: engine.color_bound(),
            coloring,
            graph,
        }
    }

    /// FNV-1a fingerprint of the snapshot's deterministic content (epoch,
    /// shape, every edge, every color). Bit-identical runs produce equal
    /// fingerprints whatever the shard count — the serve determinism
    /// tests, the gate bench's `serve` scenario and perfbench's
    /// `env.fleet_fingerprint` hang off this.
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

/// A recorded per-tenant failure: commit errors leave the previous
/// snapshot intact and the tenant live; queue errors and engine panics
/// quarantine the tenant. Either way the service kept running and the
/// error is reported out of band.
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
    /// False with a non-empty queue while only unclaimed operations wait:
    /// a commit, a compaction request, a half-full queue or a running
    /// [`Serve::drain`](crate::Serve::drain) claims them.
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
}

/// A registered tenant.
pub(crate) struct Tenant {
    pub(crate) name: String,
    /// Home shard (`id % shards`); stealing may run the drain elsewhere,
    /// the home shard only fixes where the claim is enqueued.
    pub(crate) shard: usize,
    pub(crate) inbox: Mutex<Inbox>,
    /// Signalled when a worker takes a full inbox; blocking submitters
    /// wait here for space, and only a full inbox makes them wait.
    pub(crate) space: Condvar,
    pub(crate) exec: Mutex<Exec>,
    /// The published snapshot, read through [`Tenant::snapshot`] and
    /// replaced through [`Tenant::publish`]. A retired snapshot is freed
    /// when its last reader drops it.
    snap: Mutex<Arc<TenantSnapshot>>,
    /// Total committed `node_rounds` — the admission currency, readable
    /// without any lock.
    pub(crate) cost: AtomicU64,
    /// Set by the worker once a queue-side failure poisons the batch state
    /// or the engine panics; later messages are discarded unapplied and
    /// submissions rejected, without contending for the executor lock.
    pub(crate) quarantined: AtomicBool,
}

impl Tenant {
    /// A tenant with an empty inbox, publishing `engine`'s current state
    /// (epoch 0 for a fresh engine).
    pub(crate) fn new(name: String, shard: usize, engine: Box<dyn RegionRecolor + Send>) -> Tenant {
        let snapshot = TenantSnapshot::capture(&*engine);
        Tenant {
            name,
            shard,
            inbox: Mutex::new(Inbox { queue: VecDeque::new(), scheduled: false }),
            space: Condvar::new(),
            exec: Mutex::new(Exec {
                engine,
                reports: Vec::new(),
                commit_walls: Vec::new(),
                cost_since_compaction: 0,
                errors: Vec::new(),
            }),
            snap: Mutex::new(Arc::new(snapshot)),
            cost: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
        }
    }

    /// The published snapshot.
    pub(crate) fn snapshot(&self) -> Arc<TenantSnapshot> {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        Arc::clone(&self.snap.lock().expect("tenant snapshot poisoned"))
    }

    /// Publishes `snapshot`. The retired one is dropped after the lock is
    /// released, so no reader waits while a large snapshot is freed.
    pub(crate) fn publish(&self, snapshot: TenantSnapshot) {
        let fresh = Arc::new(snapshot);
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let mut cell = self.snap.lock().expect("tenant snapshot poisoned");
        let retired = std::mem::replace(&mut *cell, fresh);
        drop(cell);
        drop(retired);
    }
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
