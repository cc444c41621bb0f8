//! The multi-tenant service: sharded work-stealing workers, deterministic
//! per-tenant serialization, cost-based admission.
//!
//! # Scheduling model
//!
//! The unit of scheduling is a **tenant claim**, not a message. When a
//! submission makes an idle tenant's inbox non-empty, the tenant is marked
//! `scheduled` and its id is pushed onto its home shard's queue
//! (`id % shards`). A worker that claims the id drains the inbox to empty
//! under the tenant's executor lock, then clears the flag (re-enqueueing
//! if more arrived in the meantime). Work stealing moves *claims* between
//! shards — a tenant's messages still apply strictly in submission order,
//! because at most one worker ever holds its claim. That single-drainer
//! invariant, combined with the [`RegionRecolor`] determinism contract, is
//! the service's determinism theorem: per-tenant commit reports, colorings
//! and snapshots are bit-identical at *any* shard count, 1 through N.
//!
//! # Flow control
//!
//! Three pressure valves, all deterministic per tenant:
//!
//! * **bounded inboxes** — [`Serve::submit`] rejects with
//!   [`ServeError::Backpressure`] when the tenant's queue is at
//!   `queue_depth`; [`Serve::submit_blocking`] parks the caller until a
//!   worker pops.
//! * **admission quota** — every commit's `stats.node_rounds` (the
//!   simulator's stepped-node-rounds cost, the workspace's standing cost
//!   currency) accrues to the tenant; past `cost_quota` new submissions
//!   are rejected with [`ServeError::QuotaExhausted`]. Reads are a single
//!   lock-free atomic load.
//! * **compaction budgeting** — the same per-commit cost feeds a
//!   per-tenant accumulator; when it crosses `compact_cost_budget` the
//!   service requests a palette compaction on the engine and resets the
//!   accumulator, so hot tenants compact proportionally to the repair
//!   work they generate (and idle tenants never do).

use crate::snapshot::Swap;
use crate::tenant::{
    reports_fingerprint, EngineKind, Exec, Inbox, Tenant, TenantError, TenantMsg, TenantSnapshot,
    TenantSpec,
};
use deco_core::params::ParamError;
use deco_graph::trace::TraceOp;
use deco_probe::Fnv;
use deco_stream::{CommitReport, Recolorer, RegionRecolor, SegRecolorer};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// Opaque tenant handle returned by [`Serve::register`] (registration
/// order, dense from 0).
pub type TenantId = usize;

/// Service-level failures. Engine-level failures never surface here —
/// they are recorded per tenant ([`Serve::errors`]) and the service keeps
/// running.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// No tenant with that id.
    UnknownTenant(TenantId),
    /// The tenant's parameters cannot contract.
    InvalidParams(ParamError),
    /// The tenant's inbox is full (non-blocking submission only).
    Backpressure(TenantId),
    /// The tenant spent its admission quota of committed `node_rounds`.
    QuotaExhausted(TenantId),
    /// A queue-side failure poisoned the tenant; see [`Serve::errors`].
    Quarantined(TenantId),
    /// The service is shutting down.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServeError::InvalidParams(e) => write!(f, "invalid parameters: {e}"),
            ServeError::Backpressure(t) => write!(f, "tenant {t}: inbox full"),
            ServeError::QuotaExhausted(t) => write!(f, "tenant {t}: cost quota exhausted"),
            ServeError::Quarantined(t) => write!(f, "tenant {t}: quarantined"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl Error for ServeError {}

impl From<ParamError> for ServeError {
    fn from(e: ParamError) -> Self {
        ServeError::InvalidParams(e)
    }
}

/// Service-wide knobs. Per-tenant knobs live in the tenant's
/// [`RecolorConfig`](deco_stream::RecolorConfig) instead.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub(crate) shards: usize,
    pub(crate) queue_depth: usize,
    pub(crate) cost_quota: u64,
    pub(crate) compact_cost_budget: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { shards: 4, queue_depth: 1024, cost_quota: 0, compact_cost_budget: 0 }
    }
}

impl ServeConfig {
    /// Worker threads / shard queues (default 4, clamped to at least 1).
    /// Per-tenant results never depend on this — the serve determinism
    /// tests pin byte-identical transcripts across shard counts.
    pub fn with_shards(mut self, shards: usize) -> ServeConfig {
        self.shards = shards.max(1);
        self
    }

    /// Per-tenant inbox capacity (default 1024, clamped to at least 1);
    /// the backpressure bound.
    pub fn with_queue_depth(mut self, depth: usize) -> ServeConfig {
        self.queue_depth = depth.max(1);
        self
    }

    /// Per-tenant admission budget in committed `node_rounds` (default 0
    /// = unlimited). A tenant at or past its quota has new submissions
    /// rejected; already-queued messages still run.
    pub fn with_cost_quota(mut self, quota: u64) -> ServeConfig {
        self.cost_quota = quota;
        self
    }

    /// Per-tenant compaction budget in committed `node_rounds` (default 0
    /// = never): when a tenant's accumulated cost since its last
    /// compaction crosses the budget, the next commit runs from scratch
    /// (palette reset). Deterministic — the trigger depends only on the
    /// tenant's own commit history.
    pub fn with_compact_cost_budget(mut self, budget: u64) -> ServeConfig {
        self.compact_cost_budget = budget;
        self
    }

    /// Worker threads / shard queues.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Per-tenant inbox capacity.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Per-tenant admission budget (0 = unlimited).
    pub fn cost_quota(&self) -> u64 {
        self.cost_quota
    }

    /// Per-tenant compaction budget (0 = never).
    pub fn compact_cost_budget(&self) -> u64 {
        self.compact_cost_budget
    }
}

/// Everything the workers and the front end share.
struct Shared {
    cfg: ServeConfig,
    /// Registration-ordered tenants; appended under the write lock,
    /// everything else takes cheap read locks.
    tenants: RwLock<Vec<Arc<Tenant>>>,
    /// One claim queue per shard; workers pop their own front and steal
    /// from other shards' backs.
    queues: Vec<Mutex<VecDeque<TenantId>>>,
    /// Wakeup channel: the version bumps on every enqueue so a worker
    /// that saw an empty scan sleeps only if nothing arrived since.
    work: Mutex<u64>,
    work_cv: Condvar,
    /// Messages accepted but not yet fully processed; [`Serve::drain`]
    /// waits for 0.
    inflight: Mutex<u64>,
    quiet: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn new(cfg: ServeConfig) -> Shared {
        Shared {
            queues: (0..cfg.shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            cfg,
            tenants: RwLock::new(Vec::new()),
            work: Mutex::new(0),
            work_cv: Condvar::new(),
            inflight: Mutex::new(0),
            quiet: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn tenant(&self, id: TenantId) -> Result<Arc<Tenant>, ServeError> {
        self.tenants
            .read()
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            .expect("tenant table poisoned")
            .get(id)
            .cloned()
            .ok_or(ServeError::UnknownTenant(id))
    }

    /// Pushes a claim and wakes a worker.
    fn enqueue_claim(&self, shard: usize, id: TenantId) {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        self.queues[shard].lock().expect("shard queue poisoned").push_back(id);
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let mut version = self.work.lock().expect("work version poisoned");
        *version += 1;
        drop(version);
        self.work_cv.notify_one();
    }

    /// Claims work for `home`: own queue front first (cache-warm FIFO),
    /// then steal from the other shards' backs.
    fn next_claim(&self, home: usize) -> Option<TenantId> {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        if let Some(id) = self.queues[home].lock().expect("shard queue poisoned").pop_front() {
            return Some(id);
        }
        let shards = self.queues.len();
        for step in 1..shards {
            let victim = (home + step) % shards;
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            if let Some(id) = self.queues[victim].lock().expect("shard queue poisoned").pop_back() {
                return Some(id);
            }
        }
        None
    }

    fn finish_messages(&self, count: u64) {
        if count == 0 {
            return;
        }
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let mut inflight = self.inflight.lock().expect("inflight poisoned");
        *inflight -= count;
        if *inflight == 0 {
            self.quiet.notify_all();
        }
    }

    /// Drains one claimed tenant to empty. Returns with the tenant either
    /// unscheduled (inbox empty) — the next submission re-enqueues it —
    /// or never unscheduled here because pops and the flag share the
    /// inbox lock.
    fn drain_tenant(&self, id: TenantId) {
        let Ok(tenant) = self.tenant(id) else { return };
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let mut exec = tenant.exec.lock().expect("tenant executor poisoned");
        let mut processed = 0u64;
        loop {
            let msg = {
                // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
                let mut inbox = tenant.inbox.lock().expect("tenant inbox poisoned");
                match inbox.queue.pop_front() {
                    Some(msg) => {
                        tenant.space.notify_one();
                        msg
                    }
                    None => {
                        inbox.scheduled = false;
                        break;
                    }
                }
            };
            self.process(&tenant, &mut exec, msg);
            processed += 1;
            // Publish progress eagerly so `drain` callers waiting on the
            // quiet condvar see long drains advance.
            if processed >= 64 {
                self.finish_messages(processed);
                processed = 0;
            }
        }
        drop(exec);
        self.finish_messages(processed);
    }

    /// Applies one message to the claimed tenant's engine.
    fn process(&self, tenant: &Tenant, exec: &mut Exec, msg: TenantMsg) {
        match msg {
            TenantMsg::Op(op) => {
                if exec.quarantined {
                    return; // poisoned batch state: discard until the end
                }
                if let Err(e) = exec.engine.queue_op(op) {
                    // The engine's queued prefix is now unknowable to the
                    // submitter, so the whole tenant stops: deterministic,
                    // and the error is preserved for the operator.
                    let commits = exec.engine.commits();
                    exec.errors
                        .push(TenantError { commits, message: format!("queue {op:?}: {e}") });
                    exec.quarantined = true;
                }
            }
            TenantMsg::Commit => {
                if exec.quarantined {
                    return;
                }
                // tidy: allow(wall-clock) — engine-side commit latency is
                // informational (p50/p99 report lines); transcripts and
                // fingerprints never read the clock.
                let t0 = std::time::Instant::now();
                match exec.engine.commit() {
                    Ok(report) => {
                        exec.commit_walls.push(t0.elapsed());
                        self.finish_commit(tenant, exec, report);
                    }
                    Err(e) => {
                        // The engine discarded the batch and kept the
                        // previous snapshot; the tenant stays live.
                        let commits = exec.engine.commits();
                        exec.errors.push(TenantError { commits, message: format!("commit: {e}") });
                    }
                }
            }
            TenantMsg::Compact => exec.engine.request_compaction(),
        }
    }

    /// Accounting and publication after a successful commit.
    fn finish_commit(&self, tenant: &Tenant, exec: &mut Exec, report: CommitReport) {
        let cost = report.stats.node_rounds as u64;
        tenant.cost.fetch_add(cost, Ordering::Relaxed);
        if self.cfg.compact_cost_budget > 0 {
            exec.cost_since_compaction += cost;
            if exec.cost_since_compaction >= self.cfg.compact_cost_budget {
                exec.engine.request_compaction();
                exec.cost_since_compaction = 0;
            }
        }
        exec.reports.push(report);
        let commits = exec.engine.commits();
        let graph = exec.engine.snapshot();
        tenant.snap.store(Arc::new(TenantSnapshot {
            epoch: commits as u64,
            commits,
            n: graph.n(),
            m: graph.m(),
            max_degree: graph.max_degree(),
            color_bound: exec.engine.color_bound(),
            coloring: exec.engine.coloring(),
            graph,
        }));
    }

    /// The wake version: bumped by every enqueue.
    fn work_version(&self) -> u64 {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        *self.work.lock().expect("work version poisoned")
    }

    /// Parks until the wake version moves past `seen` (or shutdown
    /// begins); returns whether the wait ran out its timeout instead. An
    /// enqueue bumps the version under the same mutex the wait checks it
    /// under, so a bump since `seen` ends the wait at once. The timeout is
    /// a belt-and-braces liveness floor, not a correctness crutch.
    fn wait_for_work(&self, seen: u64) -> bool {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let version = self.work.lock().expect("work version poisoned");
        self.work_cv
            .wait_timeout_while(version, Duration::from_millis(50), |v| {
                *v == seen && !self.shutdown.load(Ordering::SeqCst)
            })
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            .expect("work version poisoned")
            .1
            .timed_out()
    }

    fn worker(&self, home: usize) {
        loop {
            // Read the version *before* scanning: a claim enqueued after
            // the scan has then bumped it past `seen`, and the wait below
            // returns at once instead of sleeping out its timeout.
            let seen = self.work_version();
            if let Some(id) = self.next_claim(home) {
                self.drain_tenant(id);
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                // Queues were empty this scan; claims enqueued after the
                // flag are drained by whichever worker sees them before
                // its own empty scan, and `shutdown` runs post-drain.
                return;
            }
            self.wait_for_work(seen);
        }
    }
}

/// The multi-tenant recoloring service: thousands of independent
/// [`RegionRecolor`] engines behind one sharded worker pool. See the
/// module docs for the scheduling and flow-control model, and the crate
/// docs for an end-to-end example.
pub struct Serve {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Serve {
    /// Starts the worker pool (one thread per shard).
    pub fn start(cfg: ServeConfig) -> Serve {
        let shared = Arc::new(Shared::new(cfg));
        let workers = (0..shared.cfg.shards)
            .map(|home| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("deco-serve-{home}"))
                    .spawn(move || shared.worker(home))
                    // INVARIANT: failing to spawn a worker leaves the fleet unusable; panicking at startup is the intended behavior.
                    .expect("spawn worker")
            })
            .collect();
        Serve { shared, workers }
    }

    /// Registers a tenant and returns its handle. The engine is built
    /// from the spec immediately; epoch-0 snapshot (edgeless) is
    /// published before this returns.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParams`] if the spec's parameters
    /// cannot contract, [`ServeError::ShuttingDown`] after shutdown
    /// began.
    pub fn register(&self, spec: TenantSpec) -> Result<TenantId, ServeError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let engine: Box<dyn RegionRecolor + Send> = match spec.engine {
            EngineKind::Legacy => {
                Box::new(Recolorer::new_with(spec.n0, spec.params, spec.mode, spec.config)?)
            }
            EngineKind::Segmented => {
                Box::new(SegRecolorer::new_with(spec.n0, spec.params, spec.mode, spec.config)?)
            }
        };
        let graph = engine.snapshot();
        let snapshot = TenantSnapshot {
            epoch: 0,
            commits: 0,
            n: graph.n(),
            m: graph.m(),
            max_degree: graph.max_degree(),
            color_bound: engine.color_bound(),
            coloring: engine.coloring(),
            graph,
        };
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let mut tenants = self.shared.tenants.write().expect("tenant table poisoned");
        let id = tenants.len();
        tenants.push(Arc::new(Tenant {
            name: spec.name,
            shard: id % self.shared.cfg.shards,
            inbox: Mutex::new(Inbox { queue: VecDeque::new(), scheduled: false }),
            space: Condvar::new(),
            exec: Mutex::new(Exec {
                engine,
                reports: Vec::new(),
                commit_walls: Vec::new(),
                cost_since_compaction: 0,
                errors: Vec::new(),
                quarantined: false,
            }),
            snap: Swap::new(Arc::new(snapshot)),
            cost: AtomicU64::new(0),
        }));
        Ok(id)
    }

    /// Admission checks shared by every submission path.
    fn admit(&self, id: TenantId, tenant: &Tenant) -> Result<(), ServeError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let quota = self.shared.cfg.cost_quota;
        if quota > 0 && tenant.cost.load(Ordering::Relaxed) >= quota {
            return Err(ServeError::QuotaExhausted(id));
        }
        Ok(())
    }

    fn push(&self, id: TenantId, msg: TenantMsg, block: bool) -> Result<(), ServeError> {
        let tenant = self.shared.tenant(id)?;
        self.admit(id, &tenant)?;
        let schedule = {
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            let mut inbox = tenant.inbox.lock().expect("tenant inbox poisoned");
            while inbox.queue.len() >= self.shared.cfg.queue_depth {
                if !block {
                    return Err(ServeError::Backpressure(id));
                }
                // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
                inbox = tenant.space.wait(inbox).expect("tenant inbox poisoned");
            }
            // Quarantine is decided on the executor side; check it late so
            // the answer reflects everything drained so far.
            if tenant.exec.try_lock().map(|e| e.quarantined).unwrap_or(false) {
                return Err(ServeError::Quarantined(id));
            }
            // Count the message in-flight *before* a worker can see it, or
            // a fast drain could decrement the counter below zero.
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            *self.shared.inflight.lock().expect("inflight poisoned") += 1;
            inbox.queue.push_back(msg);
            let claim = !inbox.scheduled;
            inbox.scheduled = true;
            claim
        };
        if schedule {
            self.shared.enqueue_claim(tenant.shard, id);
        }
        Ok(())
    }

    /// Queues one trace operation, non-blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] when the inbox is full;
    /// [`ServeError::QuotaExhausted`] / [`ServeError::Quarantined`] /
    /// [`ServeError::ShuttingDown`] / [`ServeError::UnknownTenant`] as
    /// admission dictates.
    pub fn submit(&self, id: TenantId, op: TraceOp) -> Result<(), ServeError> {
        self.push(id, TenantMsg::Op(op), false)
    }

    /// Queues one trace operation, parking the caller while the inbox is
    /// full (the deterministic-throughput path: no submission is ever
    /// dropped, so the accepted stream equals the submitted stream).
    ///
    /// # Errors
    ///
    /// As [`Serve::submit`], minus [`ServeError::Backpressure`].
    pub fn submit_blocking(&self, id: TenantId, op: TraceOp) -> Result<(), ServeError> {
        self.push(id, TenantMsg::Op(op), true)
    }

    /// Queues a commit of everything submitted since the previous one,
    /// non-blocking.
    ///
    /// # Errors
    ///
    /// As [`Serve::submit`].
    pub fn commit(&self, id: TenantId) -> Result<(), ServeError> {
        self.push(id, TenantMsg::Commit, false)
    }

    /// Queues a commit, parking while the inbox is full.
    ///
    /// # Errors
    ///
    /// As [`Serve::submit_blocking`].
    pub fn commit_blocking(&self, id: TenantId) -> Result<(), ServeError> {
        self.push(id, TenantMsg::Commit, true)
    }

    /// Queues a demand-driven palette compaction request (see
    /// [`RegionRecolor::request_compaction`]).
    ///
    /// # Errors
    ///
    /// As [`Serve::submit`].
    pub fn request_compaction(&self, id: TenantId) -> Result<(), ServeError> {
        self.push(id, TenantMsg::Compact, false)
    }

    /// The tenant's current published snapshot — lock-free, safe to call
    /// at any rate from any thread (see [`crate::snapshot::Swap`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn snapshot(&self, id: TenantId) -> Result<Arc<TenantSnapshot>, ServeError> {
        Ok(self.shared.tenant(id)?.snap.load())
    }

    /// The tenant's commit-report transcript so far (clones under the
    /// executor lock; call after [`Serve::drain`] for a settled answer).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn reports(&self, id: TenantId) -> Result<Vec<CommitReport>, ServeError> {
        let tenant = self.shared.tenant(id)?;
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let exec = tenant.exec.lock().expect("tenant executor poisoned");
        Ok(exec.reports.clone())
    }

    /// Wall time of each successful commit, aligned with
    /// [`Serve::reports`]. Excluded from the determinism contract,
    /// obviously; the pr9 bench derives its p99 latency from this.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn commit_walls(&self, id: TenantId) -> Result<Vec<std::time::Duration>, ServeError> {
        let tenant = self.shared.tenant(id)?;
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let exec = tenant.exec.lock().expect("tenant executor poisoned");
        Ok(exec.commit_walls.clone())
    }

    /// Failures the tenant survived so far.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn errors(&self, id: TenantId) -> Result<Vec<TenantError>, ServeError> {
        let tenant = self.shared.tenant(id)?;
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let exec = tenant.exec.lock().expect("tenant executor poisoned");
        Ok(exec.errors.clone())
    }

    /// The tenant's accumulated admission cost (committed `node_rounds`),
    /// read lock-free.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn cost(&self, id: TenantId) -> Result<u64, ServeError> {
        Ok(self.shared.tenant(id)?.cost.load(Ordering::Relaxed))
    }

    /// The tenant's display name.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn tenant_name(&self, id: TenantId) -> Result<String, ServeError> {
        Ok(self.shared.tenant(id)?.name.clone())
    }

    /// Registered tenants.
    pub fn tenant_count(&self) -> usize {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        self.shared.tenants.read().expect("tenant table poisoned").len()
    }

    /// Blocks until every accepted message has been fully processed.
    /// Quiescence is momentary if other threads keep submitting; the
    /// tests and the CLI call this after their last submission.
    pub fn drain(&self) {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let mut inflight = self.shared.inflight.lock().expect("inflight poisoned");
        while *inflight > 0 {
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            inflight = self.shared.quiet.wait(inflight).expect("inflight poisoned");
        }
    }

    /// One fingerprint over the whole fleet: every tenant's report
    /// transcript and published snapshot, in registration order. Two runs
    /// are byte-identical iff their fleet fingerprints match (modulo FNV
    /// collisions) — the pr9 gate counter.
    pub fn fleet_fingerprint(&self) -> u64 {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let tenants = self.shared.tenants.read().expect("tenant table poisoned");
        let mut f = Fnv::new();
        for tenant in tenants.iter() {
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            let exec = tenant.exec.lock().expect("tenant executor poisoned");
            f.word(reports_fingerprint(&exec.reports));
            drop(exec);
            f.word(tenant.snap.load().fingerprint());
        }
        f.digest()
    }

    /// Drains, stops the workers and joins them. Further submissions and
    /// registrations fail with [`ServeError::ShuttingDown`]. Dropping the
    /// service without calling this shuts down the same way.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.drain();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            // INVARIANT: a worker panic is re-raised at shutdown so failures are never silently swallowed.
            worker.join().expect("worker panicked");
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop();
    }
}

impl fmt::Debug for Serve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Serve")
            .field("cfg", &self.shared.cfg)
            .field("tenants", &self.tenant_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_claim_enqueued_after_an_empty_scan_ends_the_wait() {
        // One worker's steps by hand on one shard: version read, empty
        // scan, then a submission lands before the worker parks.
        let shared = Shared::new(ServeConfig::default().with_shards(1));
        let seen = shared.work_version();
        assert_eq!(shared.next_claim(0), None);
        shared.enqueue_claim(0, 0);
        assert!(!shared.wait_for_work(seen), "the wait must end on the version bump");
        assert_eq!(shared.next_claim(0), Some(0));
    }
}
