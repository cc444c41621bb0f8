//! The multi-tenant service: sharded work-stealing workers, deterministic
//! per-tenant serialization, cost-based admission.
//!
//! # Scheduling model
//!
//! The unit of scheduling is a **tenant claim**, not a message. A claim
//! marks the tenant `scheduled` and pushes its id onto its home shard's
//! queue (`id % shards`). A submission claims an idle tenant only when a
//! worker must act: it is a commit or a compaction request, it fills the
//! inbox to half of `queue_depth`, or a [`Serve::drain`] is running. A
//! trace operation otherwise waits in the inbox, unclaimed, so a batch of
//! operations and its commit cost one claim and one worker wakeup, not
//! one per operation. A worker that claims the id takes the whole inbox
//! under one lock, applies it under the tenant's executor lock, and
//! repeats until it finds the inbox empty; then it clears the flag. Work
//! stealing moves *claims* between shards — a tenant's messages still
//! apply strictly in submission order, because at most one worker ever
//! holds its claim. That single-drainer invariant, combined with the
//! [`RegionRecolor`] determinism contract, is the service's determinism
//! theorem: per-tenant commit reports, colorings and snapshots are
//! bit-identical at *any* shard count, 1 through N, and at any queue depth.
//!
//! # Flow control
//!
//! Three pressure valves, all deterministic per tenant:
//!
//! * **bounded inboxes** — [`Serve::submit`] rejects with
//!   [`ServeError::Backpressure`] when the tenant's queue is at
//!   `queue_depth`; [`Serve::submit_blocking`] parks the caller until a
//!   worker takes the inbox. The half-depth claim (at least one message)
//!   means a full inbox always has a worker coming, so a blocking
//!   submitter never waits on an inbox nobody will drain.
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

use crate::tenant::{
    reports_fingerprint, EngineKind, Exec, Tenant, TenantError, TenantMsg, TenantSnapshot,
    TenantSpec,
};
use deco_core::params::ParamError;
use deco_graph::trace::TraceOp;
use deco_probe::Fnv;
use deco_stream::{CommitReport, Recolorer, RegionRecolor, SegRecolorer};
use std::any::Any;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// A queue-side failure or an engine panic quarantined the tenant;
    /// see [`Serve::errors`].
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

/// The message of a caught panic: the `&str` or `String` that `panic!`
/// and `assert!` carry, or a placeholder for any other payload.
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(text) => text,
        None => payload.downcast_ref::<String>().map_or("non-string panic payload", String::as_str),
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
    /// Messages accepted but not yet applied, claimed or not; a worker
    /// subtracts a taken inbox once it is applied. [`Serve::drain`] claims
    /// the unclaimed ones and waits for 0.
    inflight: AtomicU64,
    /// [`Serve::drain`]'s sleep: a worker that brings `inflight` to 0
    /// takes this lock before notifying, so a drain that saw a non-zero
    /// count under it cannot miss the wakeup.
    quiet: Mutex<()>,
    quiet_cv: Condvar,
    /// Running [`Serve::drain`] calls; while non-zero every submission to
    /// an idle tenant claims it.
    draining: AtomicUsize,
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
            inflight: AtomicU64::new(0),
            quiet: Mutex::new(()),
            quiet_cv: Condvar::new(),
            draining: AtomicUsize::new(0),
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

    /// The inbox length at which a submission claims its idle tenant:
    /// half of `queue_depth`, at least one message.
    fn claim_at(&self) -> usize {
        (self.cfg.queue_depth / 2).max(1)
    }

    fn finish_messages(&self, count: u64) {
        if self.inflight.fetch_sub(count, Ordering::SeqCst) == count {
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            drop(self.quiet.lock().expect("quiet lock poisoned"));
            self.quiet_cv.notify_all();
        }
    }

    /// Drains one claimed tenant to empty, taking its whole inbox at a
    /// time by swapping in `batch` (empty on entry and on return, its
    /// capacity reused). Returns with the tenant unscheduled: the flag is
    /// cleared under the same inbox lock that found the queue empty.
    ///
    /// A panic inside the tenant's engine is caught per message, inside
    /// the executor guard (so the mutex is not poisoned): the tenant is
    /// quarantined with the panic message as its error, the message still
    /// counts as processed, and the worker goes on draining.
    fn drain_tenant(&self, id: TenantId, batch: &mut VecDeque<TenantMsg>) {
        let Ok(tenant) = self.tenant(id) else { return };
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let mut exec = tenant.exec.lock().expect("tenant executor poisoned");
        loop {
            {
                // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
                let mut inbox = tenant.inbox.lock().expect("tenant inbox poisoned");
                if inbox.queue.is_empty() {
                    inbox.scheduled = false;
                    break;
                }
                if inbox.queue.len() >= self.cfg.queue_depth {
                    tenant.space.notify_all(); // only a full inbox has waiters
                }
                std::mem::swap(&mut inbox.queue, batch);
            }
            let taken = batch.len() as u64;
            for msg in batch.drain(..) {
                let run = AssertUnwindSafe(|| self.process(&tenant, &mut exec, msg));
                if let Err(payload) = catch_unwind(run) {
                    // The engine's state is unknowable after an unwind, so
                    // the tenant stops, exactly as after a queue-side
                    // failure, and the count comes from the transcript,
                    // not the engine.
                    let commits = exec.reports.len();
                    exec.errors.push(TenantError {
                        commits,
                        message: format!("panic: {}", panic_text(&*payload)),
                    });
                    tenant.quarantined.store(true, Ordering::SeqCst);
                }
            }
            self.finish_messages(taken);
        }
    }

    /// Applies one message to the claimed tenant's engine. A quarantined
    /// tenant's engine is never called again: after a queue error its
    /// batch state is unknowable, and after a caught panic it may be
    /// half-committed.
    fn process(&self, tenant: &Tenant, exec: &mut Exec, msg: TenantMsg) {
        if tenant.quarantined.load(Ordering::SeqCst) {
            return; // discard until the end
        }
        match msg {
            TenantMsg::Op(op) => {
                if let Err(e) = exec.engine.queue_op(op) {
                    // The engine's queued prefix is now unknowable to the
                    // submitter, so the whole tenant stops: deterministic,
                    // and the error is preserved for the operator.
                    let commits = exec.engine.commits();
                    exec.errors
                        .push(TenantError { commits, message: format!("queue {op:?}: {e}") });
                    tenant.quarantined.store(true, Ordering::SeqCst);
                }
            }
            TenantMsg::Commit => {
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
        tenant.publish(TenantSnapshot::capture(&*exec.engine));
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
        let mut batch = VecDeque::new();
        loop {
            // Read the version *before* scanning: a claim enqueued after
            // the scan has then bumped it past `seen`, and the wait below
            // returns at once instead of sleeping out its timeout.
            let seen = self.work_version();
            if let Some(id) = self.next_claim(home) {
                self.drain_tenant(id, &mut batch);
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
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let mut tenants = self.shared.tenants.write().expect("tenant table poisoned");
        let id = tenants.len();
        tenants.push(Arc::new(Tenant::new(spec.name, id % self.shared.cfg.shards, engine)));
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
        let shared = &*self.shared;
        let tenant = shared.tenant(id)?;
        self.admit(id, &tenant)?;
        // A commit or compaction needs a worker now; an operation can wait.
        let urgent = !matches!(msg, TenantMsg::Op(_));
        let schedule = {
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            let mut inbox = tenant.inbox.lock().expect("tenant inbox poisoned");
            while inbox.queue.len() >= shared.cfg.queue_depth {
                if !block {
                    return Err(ServeError::Backpressure(id));
                }
                // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
                inbox = tenant.space.wait(inbox).expect("tenant inbox poisoned");
            }
            // Quarantine is decided on the executor side; check it late so
            // the answer reflects everything applied so far.
            if tenant.quarantined.load(Ordering::SeqCst) {
                return Err(ServeError::Quarantined(id));
            }
            // Count the message in-flight *before* a worker can see it, or
            // a fast drain could decrement the counter below zero.
            shared.inflight.fetch_add(1, Ordering::SeqCst);
            inbox.queue.push_back(msg);
            // Read `draining` under the inbox lock: a drain whose scan
            // takes this lock after us sees the message, and one whose scan
            // took it before us is already counted.
            let claim = !inbox.scheduled
                && (urgent
                    || inbox.queue.len() >= shared.claim_at()
                    || shared.draining.load(Ordering::SeqCst) > 0);
            inbox.scheduled |= claim;
            claim
        };
        if schedule {
            shared.enqueue_claim(tenant.shard, id);
        }
        Ok(())
    }

    /// Queues one trace operation, non-blocking. The operation is applied
    /// when a worker next takes the tenant: at its commit, once the inbox
    /// is half full, or at a [`Serve::drain`]. An operation the engine
    /// refuses (an out-of-range vertex, say) quarantines the tenant only
    /// then, so later submissions may still be accepted until it is
    /// applied.
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
    /// dropped, so the accepted stream equals the submitted stream). The
    /// operation is applied, and a queue error surfaces, as for
    /// [`Serve::submit`]; a full inbox always has a worker coming, so the
    /// wait ends.
    ///
    /// # Errors
    ///
    /// As [`Serve::submit`], minus [`ServeError::Backpressure`].
    pub fn submit_blocking(&self, id: TenantId, op: TraceOp) -> Result<(), ServeError> {
        self.push(id, TenantMsg::Op(op), true)
    }

    /// Queues a commit of everything submitted since the previous one,
    /// non-blocking, and claims the tenant so a worker applies the batch.
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

    /// The tenant's current published snapshot, safe to call at any rate
    /// from any thread: it clones an `Arc` under a lock that a commit
    /// holds only to swap in its successor, never while it runs.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn snapshot(&self, id: TenantId) -> Result<Arc<TenantSnapshot>, ServeError> {
        Ok(self.shared.tenant(id)?.snapshot())
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
    /// obviously; perfbench's traced run splits each visible latency into
    /// engine commit and serve overhead with this.
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

    /// Blocks until every accepted message has been fully processed,
    /// operations without a commit included: it claims every tenant that
    /// holds unclaimed messages, and while it waits every submission
    /// claims its tenant at once. Quiescence is momentary if other threads
    /// keep submitting; the tests and the CLI call this after their last
    /// submission.
    pub fn drain(&self) {
        let shared = &*self.shared;
        // Count this drain before scanning; see the matching read in `push`.
        shared.draining.fetch_add(1, Ordering::SeqCst);
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let tenants = shared.tenants.read().expect("tenant table poisoned").clone();
        for (id, tenant) in tenants.iter().enumerate() {
            let claim = {
                // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
                let mut inbox = tenant.inbox.lock().expect("tenant inbox poisoned");
                let claim = !inbox.scheduled && !inbox.queue.is_empty();
                inbox.scheduled |= claim;
                claim
            };
            if claim {
                shared.enqueue_claim(tenant.shard, id);
            }
        }
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let mut quiet = shared.quiet.lock().expect("quiet lock poisoned");
        while shared.inflight.load(Ordering::SeqCst) > 0 {
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            quiet = shared.quiet_cv.wait(quiet).expect("quiet lock poisoned");
        }
        drop(quiet);
        shared.draining.fetch_sub(1, Ordering::SeqCst);
    }

    /// One fingerprint over the whole fleet: every tenant's report
    /// transcript and published snapshot, in registration order. Two runs
    /// are byte-identical iff their fleet fingerprints match (modulo FNV
    /// collisions). The gate bench's `serve` scenario pins it, and
    /// perfbench reports it as `env.fleet_fingerprint`.
    pub fn fleet_fingerprint(&self) -> u64 {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let tenants = self.shared.tenants.read().expect("tenant table poisoned");
        let mut f = Fnv::new();
        for tenant in tenants.iter() {
            // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
            let exec = tenant.exec.lock().expect("tenant executor poisoned");
            f.word(reports_fingerprint(&exec.reports));
            drop(exec);
            f.word(tenant.snapshot().fingerprint());
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
    use crate::tenant::TenantSpec;
    use deco_core::edge::legal::{edge_log_depth, MessageMode};
    use deco_graph::coloring::EdgeColoring;
    use deco_graph::{Graph, GraphError};
    use deco_local::{Fate, Transport};
    use deco_probe::Probe;
    use deco_stream::RecolorConfig;
    use std::sync::mpsc;

    /// A transport whose every fate panics: the first incremental repair
    /// that posts a message over it unwinds out of the engine.
    #[derive(Debug)]
    struct PanickingTransport;

    impl Transport for PanickingTransport {
        fn fate(&self, _slot: usize, _round: usize) -> Fate {
            panic!("injected transport fault")
        }
    }

    /// An engine whose mutating calls panic, for a tenant that must never
    /// reach them; the reads come from an edgeless engine.
    struct MustNotRun(Recolorer);

    impl RegionRecolor for MustNotRun {
        fn queue_op(&mut self, _op: TraceOp) -> Result<(), GraphError> {
            panic!("queue_op reached the engine")
        }
        fn commit(&mut self) -> Result<CommitReport, GraphError> {
            panic!("commit reached the engine")
        }
        fn commits(&self) -> usize {
            RegionRecolor::commits(&self.0)
        }
        fn snapshot(&self) -> Graph {
            RegionRecolor::snapshot(&self.0)
        }
        fn coloring(&self) -> EdgeColoring {
            RegionRecolor::coloring(&self.0)
        }
        fn color_bound(&self) -> u64 {
            RegionRecolor::color_bound(&self.0)
        }
        fn request_compaction(&mut self) {
            panic!("request_compaction reached the engine")
        }
        fn verify(&self) -> Result<(), String> {
            RegionRecolor::verify(&self.0)
        }
        fn probe(&self) -> &Arc<dyn Probe> {
            RegionRecolor::probe(&self.0)
        }
    }

    /// Runs `f` on a helper thread and fails the test if it has not
    /// returned within a minute, instead of hanging the suite. A hung
    /// helper cannot be joined, so it is left behind.
    fn within_deadline(what: &str, f: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60))
        {
            panic!("{what} did not return within 60 s");
        }
        helper.join().unwrap_or_else(|_| panic!("{what} panicked"));
    }

    /// Queues a 40-vertex path and commits it: the from-scratch build
    /// commit, which always runs in-process.
    fn build_path(serve: &Serve, id: TenantId) {
        for v in 0..39 {
            serve.submit(id, TraceOp::Insert(v, v + 1)).unwrap();
        }
        serve.commit(id).unwrap();
    }

    #[test]
    fn an_engine_panic_quarantines_its_tenant_and_the_service_drains() {
        let serve = Arc::new(Serve::start(ServeConfig::default().with_shards(2)));
        let faulty = RecolorConfig::default().with_transport(Arc::new(PanickingTransport));
        let bad = serve.register(TenantSpec::new("bad", 40).with_config(faulty)).unwrap();
        let good = serve.register(TenantSpec::new("good", 40)).unwrap();
        build_path(&serve, bad);
        build_path(&serve, good);
        // One chord is an incremental repair, which runs over the transport.
        serve.submit(bad, TraceOp::Insert(0, 2)).unwrap();
        serve.commit(bad).unwrap();
        let s = Arc::clone(&serve);
        within_deadline("drain after the panic", move || s.drain());

        let errors = serve.errors(bad).unwrap();
        assert_eq!(errors.len(), 1, "one panic entry: {errors:?}");
        assert_eq!(errors[0].commits, 1, "the build commit published");
        assert!(errors[0].message.contains("injected transport fault"), "{errors:?}");
        assert_eq!(serve.submit(bad, TraceOp::Insert(3, 5)), Err(ServeError::Quarantined(bad)));
        assert_eq!(serve.snapshot(bad).unwrap().commits, 1, "the last good snapshot stays");

        // The healthy tenant keeps committing and publishing.
        serve.submit(good, TraceOp::Insert(0, 2)).unwrap();
        serve.commit(good).unwrap();
        let s = Arc::clone(&serve);
        within_deadline("drain of the healthy tenant", move || s.drain());
        assert!(serve.errors(good).unwrap().is_empty());
        let snap = serve.snapshot(good).unwrap();
        assert_eq!((snap.commits, snap.m), (2, 40));
        within_deadline("shutdown", move || {
            Arc::try_unwrap(serve).expect("the helper threads let go").shutdown();
        });
    }

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

    #[test]
    fn a_quarantined_tenants_engine_is_never_called() {
        let shared = Shared::new(ServeConfig::default());
        let engine = Recolorer::new(4, edge_log_depth(1), MessageMode::Long).unwrap();
        let tenant = Tenant::new("quarantined".into(), 0, Box::new(MustNotRun(engine)));
        tenant.quarantined.store(true, Ordering::SeqCst);
        let mut exec = tenant.exec.lock().unwrap();
        for msg in [TenantMsg::Compact, TenantMsg::Op(TraceOp::Insert(0, 1)), TenantMsg::Commit] {
            shared.process(&tenant, &mut exec, msg);
        }
        assert!(exec.errors.is_empty() && exec.reports.is_empty());
    }

    #[test]
    fn drain_applies_operations_no_commit_claimed() {
        let serve = Arc::new(Serve::start(ServeConfig::default().with_shards(1)));
        let id = serve.register(TenantSpec::new("lone", 4)).unwrap();
        // Out of range: a queue error, but only once a worker applies it.
        serve.submit(id, TraceOp::Insert(0, 99)).unwrap();
        let s = Arc::clone(&serve);
        within_deadline("drain of an unclaimed operation", move || s.drain());
        assert_eq!(serve.errors(id).unwrap().len(), 1, "the drain applied the operation");
        assert_eq!(serve.submit(id, TraceOp::Insert(0, 1)), Err(ServeError::Quarantined(id)));
    }

    #[test]
    fn drain_returns_while_another_thread_keeps_submitting() {
        // A depth far above the submissions keeps the half-depth claim out
        // of play: only the drain can get these operations applied.
        let cfg = ServeConfig::default().with_shards(1).with_queue_depth(1 << 20);
        let serve = Arc::new(Serve::start(cfg));
        let id = serve.register(TenantSpec::new("fed", 8)).unwrap();
        serve.submit(id, TraceOp::Insert(0, 1)).unwrap();
        // A message the drain waits for, finished by hand once the
        // submitter is done, so every submission below lands mid-drain.
        serve.shared.inflight.fetch_add(1, Ordering::SeqCst);
        let seen = serve.shared.work_version();
        let s = Arc::clone(&serve);
        let submitter = std::thread::spawn(move || {
            let tenant = s.shared.tenant(id).unwrap();
            let idle = || {
                let inbox = tenant.inbox.lock().unwrap();
                inbox.queue.is_empty() && !inbox.scheduled
            };
            // Only the drain's scan claims the unclaimed operation.
            while s.shared.work_version() == seen {
                std::thread::yield_now();
            }
            for v in 1..7 {
                while !idle() {
                    std::thread::yield_now();
                }
                s.submit(id, TraceOp::Insert(v, v + 1)).unwrap();
            }
            while !idle() {
                std::thread::yield_now();
            }
            s.shared.finish_messages(1);
        });
        let s = Arc::clone(&serve);
        within_deadline("drain while another thread submits", move || s.drain());
        submitter.join().expect("submitter panicked");
        serve.commit(id).unwrap();
        serve.drain();
        assert_eq!(serve.snapshot(id).unwrap().m, 7, "every submission was applied");
    }

    #[test]
    fn blocking_submissions_without_a_commit_never_hang() {
        let serve =
            Arc::new(Serve::start(ServeConfig::default().with_shards(1).with_queue_depth(4)));
        let id = serve.register(TenantSpec::new("narrow", 101)).unwrap();
        let s = Arc::clone(&serve);
        within_deadline("100 blocking submissions into a 4-deep inbox", move || {
            for v in 0..100 {
                s.submit_blocking(id, TraceOp::Insert(v, v + 1)).unwrap();
            }
        });
        serve.commit(id).unwrap();
        serve.drain();
        assert_eq!(serve.snapshot(id).unwrap().m, 100);
    }

    #[test]
    fn operations_claim_their_tenant_only_at_half_depth() {
        let serve = Arc::new(Serve::start(ServeConfig::default().with_shards(1)));
        let id = serve.register(TenantSpec::new("batched", 2001)).unwrap();
        let (ops, half) = (2000, serve.shared.claim_at());
        let before = serve.shared.work_version();
        for v in 0..half - 1 {
            serve.submit(id, TraceOp::Insert(v, v + 1)).unwrap();
        }
        assert_eq!(serve.shared.work_version(), before, "operations below half depth claimed");
        let s = Arc::clone(&serve);
        within_deadline("a batch and its commit", move || {
            for v in half - 1..ops {
                s.submit_blocking(id, TraceOp::Insert(v, v + 1)).unwrap();
            }
            s.commit_blocking(id).unwrap();
            s.drain();
        });
        // Only `enqueue_claim` bumps the wake version.
        let claims = serve.shared.work_version() - before;
        let bound = ops.div_ceil(half) + 1;
        assert!(claims <= bound as u64, "{claims} claims for {ops} operations and a commit");
        assert_eq!(serve.snapshot(id).unwrap().m, ops);
    }
}
