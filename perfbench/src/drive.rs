//! The load generator: drives a workload through the public `deco-serve`
//! API from one thread and times every commit from its first submit
//! (closed loop) or due time (open loop) until a snapshot load shows the
//! batch's epoch and the colors of its inserted edges have been read.

use crate::gen::{Batch, TenantInput, Workload};
use crate::stats::{latency_from_due, lateness, Schedule};
use deco_graph::trace::TraceOp;
use deco_serve::{Serve, ServeConfig, TenantId, TenantSnapshot, TenantSpec};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Sleep between snapshot polls. The generator sleeps rather than spins
/// so it never takes a core from the workers.
const POLL: Duration = Duration::from_micros(100);

/// A commit not visible after this long counts as lost.
const STUCK: Duration = Duration::from_secs(60);

/// A running service with every tenant built.
pub struct Built {
    /// The service.
    pub serve: Serve,
    /// Tenant handles, aligned with the workload's tenants.
    pub ids: Vec<TenantId>,
    /// From `Serve::start` until every build commit was visible.
    pub setup: Duration,
}

/// Starts a service with `cfg`, registers the workload's tenants with
/// default engine settings and makes every build commit visible.
///
/// # Panics
///
/// Panics if a build is rejected or never becomes visible: the inputs are
/// valid by construction, so that is a broken service.
pub fn build(w: &Workload, cfg: ServeConfig) -> Built {
    let t0 = Instant::now();
    let serve = Serve::start(cfg);
    let ids: Vec<TenantId> = w
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let spec = TenantSpec::new(format!("{}-{i}", w.name), t.n).with_engine(t.engine);
            serve.register(spec).expect("default tenant specs register")
        })
        .collect();
    for (&id, t) in ids.iter().zip(&w.tenants) {
        for &(u, v) in &t.base {
            serve
                .submit_blocking(id, TraceOp::Insert(u as usize, v as usize))
                .expect("build submissions are accepted");
        }
        serve.commit_blocking(id).expect("build commits are accepted");
    }
    for &id in &ids {
        let start = Instant::now();
        while serve.snapshot(id).expect("registered").epoch < 1 {
            assert!(start.elapsed() < STUCK, "tenant {id}: build commit never became visible");
            std::thread::sleep(POLL);
        }
    }
    Built { serve, ids, setup: t0.elapsed() }
}

/// One commit made visible.
#[derive(Debug, Clone, Copy)]
pub struct Visible {
    /// Workload tenant index.
    pub tenant: usize,
    /// The batch's epoch (the build commit is epoch 1).
    pub epoch: u64,
    /// Submit-to-visible latency.
    pub latency: Duration,
    /// The final snapshot load plus the color reads.
    pub read: Duration,
}

/// Everything one measured drive observed.
///
/// Failures are counted in batches, the unit of `attempted`: a batch is
/// its trace operations plus their commit.
#[derive(Debug, Default)]
pub struct Drive {
    /// Commits made visible, in completion order.
    pub visible: Vec<Visible>,
    /// Batches offered.
    pub attempted: u64,
    /// Offered batches that never became visible: one of their submissions
    /// was rejected, their tenant's stream had stopped, or their epoch
    /// never showed.
    pub failed: u64,
    /// Submissions (operations and commits) the service rejected.
    pub rejected_ops: u64,
    /// Generator time inside `Serve::submit*` (timed drives only).
    pub submit: Duration,
    /// Operations submitted.
    pub submitted_ops: u64,
    /// Open loop: how late each send went out.
    pub late: Vec<Duration>,
    /// Visible snapshots that were already past the batch's epoch.
    pub epoch_skips: u64,
    /// The first rejection, if any: a failure, not a correctness
    /// violation.
    pub first_rejection: Option<String>,
    /// Correctness violations seen while driving.
    pub problems: Vec<String>,
}

/// Checks the colors a snapshot gives the batch's inserted edges. When
/// the snapshot is exactly the batch's epoch every inserted edge must be
/// present; a later snapshot may have deleted some again.
fn read_colors(snap: &TenantSnapshot, ins: &[(u32, u32)], exact: bool) -> Result<(), String> {
    for &(u, v) in ins {
        match snap.graph.edge_between(u as usize, v as usize) {
            Some(e) => {
                let c = snap.coloring.color(e);
                if c >= snap.color_bound {
                    return Err(format!(
                        "epoch {}: edge ({u},{v}) has color {c} >= bound {}",
                        snap.epoch, snap.color_bound
                    ));
                }
            }
            None if exact => {
                return Err(format!("epoch {}: inserted edge ({u},{v}) is missing", snap.epoch))
            }
            None => {}
        }
    }
    Ok(())
}

/// Submits one batch, timing each call when `timed`.
fn submit_batch(
    serve: &Serve,
    id: TenantId,
    batch: &Batch,
    timed: bool,
    blocking: bool,
    d: &mut Drive,
) -> Result<(), String> {
    for op in batch.trace_ops() {
        let t = timed.then(Instant::now);
        let r = if blocking { serve.submit_blocking(id, op) } else { serve.submit(id, op) };
        if let Some(t) = t {
            d.submit += t.elapsed();
        }
        d.submitted_ops += 1;
        if let Err(e) = r {
            d.rejected_ops += 1;
            return Err(format!("tenant {id}: {op:?} rejected: {e}"));
        }
    }
    let r = if blocking { serve.commit_blocking(id) } else { serve.commit(id) };
    r.map_err(|e| {
        d.rejected_ops += 1;
        format!("tenant {id}: commit rejected: {e}")
    })
}

/// Closed loop: polls until its single tenant's snapshot reaches `epoch`,
/// then reads the batch's colors and records the commit. Returns false
/// when the epoch never shows.
fn await_epoch(b: &Built, epoch: u64, batch: &Batch, t0: Instant, d: &mut Drive) -> bool {
    let id = b.ids[0];
    // Poll rather than block in `Serve::drain`: a generator parked on a
    // condvar lets its vCPU idle, and on a virtual machine waking it again
    // measured more host steal and higher, noisier latency.
    loop {
        let r0 = Instant::now();
        let snap = b.serve.snapshot(id).expect("registered");
        if snap.epoch >= epoch {
            if snap.epoch != epoch {
                d.problems.push(format!("epoch {} visible while waiting for {epoch}", snap.epoch));
            }
            if let Err(e) = read_colors(&snap, &batch.ins, true) {
                d.problems.push(e);
            }
            let now = Instant::now();
            d.visible.push(Visible { tenant: 0, epoch, latency: now - t0, read: now - r0 });
            return true;
        }
        if t0.elapsed() > STUCK {
            d.problems.push(format!("epoch {epoch} never became visible"));
            return false;
        }
        std::thread::sleep(POLL);
    }
}

/// Closed loop on the workload's single tenant: each batch is sent once
/// the previous one is visible, until `seconds` have passed or the batches
/// run out. A batch that is rejected or never becomes visible stops the
/// stream so later batches stay valid; it and every batch still left for
/// the run count as failed.
pub fn closed_loop(b: &Built, t: &TenantInput, seconds: f64, timed: bool) -> Drive {
    let mut d = Drive::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut epoch = 1u64;
    for (i, batch) in t.batches.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let shown = match submit_batch(&b.serve, b.ids[0], batch, timed, true, &mut d) {
            Ok(()) => {
                epoch += 1;
                await_epoch(b, epoch, batch, t0, &mut d)
            }
            Err(e) => {
                d.first_rejection.get_or_insert(e);
                false
            }
        };
        if !shown {
            let left = (t.batches.len() - i) as u64;
            d.attempted += left;
            d.failed += left;
            break;
        }
        d.attempted += 1;
    }
    d
}

/// A sent batch waiting to become visible.
struct Pending {
    epoch: u64,
    due: Duration,
    batch: usize,
}

/// Open loop over every tenant: send slot `k` goes to tenant
/// `order[k % tenants]` and is due at `k / rate`, sent with non-blocking
/// submissions. A tenant that sees a rejection, or a batch that never
/// becomes visible, stops its stream so its later batches stay valid;
/// they count as failed.
pub fn open_loop(b: &Built, w: &Workload, rate_per_s: f64, seconds: f64, timed: bool) -> Drive {
    let mut d = Drive::default();
    let schedule = Schedule::new(rate_per_s);
    let sends = schedule.sends_within(seconds);
    let tenants = w.tenants.len();
    let mut sent_epoch = vec![1u64; tenants];
    let mut stopped = vec![false; tenants];
    let mut pending: Vec<VecDeque<Pending>> = (0..tenants).map(|_| VecDeque::new()).collect();
    let mut active: Vec<usize> = Vec::new();
    let start = Instant::now();
    let mut k = 0usize;
    loop {
        let now = start.elapsed();
        while k < sends && schedule.due(k) <= now {
            let ti = w.order[k % tenants];
            let bi = k / tenants;
            let batch = &w.tenants[ti].batches[bi];
            d.attempted += 1;
            let due = schedule.due(k);
            k += 1;
            if stopped[ti] {
                d.failed += 1;
                continue;
            }
            d.late.push(lateness(due, start.elapsed()));
            if let Err(e) = submit_batch(&b.serve, b.ids[ti], batch, timed, false, &mut d) {
                d.failed += 1;
                d.first_rejection.get_or_insert(e);
                stopped[ti] = true;
                continue;
            }
            sent_epoch[ti] += 1;
            if pending[ti].is_empty() {
                active.push(ti);
            }
            pending[ti].push_back(Pending { epoch: sent_epoch[ti], due, batch: bi });
        }
        let mut i = 0;
        while i < active.len() {
            let ti = active[i];
            let r0 = Instant::now();
            let snap = b.serve.snapshot(b.ids[ti]).expect("registered");
            while let Some(p) = pending[ti].front() {
                if snap.epoch < p.epoch {
                    break;
                }
                let exact = snap.epoch == p.epoch;
                if let Err(e) = read_colors(&snap, &w.tenants[ti].batches[p.batch].ins, exact) {
                    d.problems.push(e);
                }
                if !exact {
                    d.epoch_skips += 1;
                }
                let at = start.elapsed();
                d.visible.push(Visible {
                    tenant: ti,
                    epoch: p.epoch,
                    latency: latency_from_due(p.due, at),
                    read: r0.elapsed(),
                });
                pending[ti].pop_front();
            }
            if let Some(p) = pending[ti].front() {
                if start.elapsed().saturating_sub(p.due) > STUCK {
                    d.problems.push(format!("tenant {ti}: epoch {} never became visible", p.epoch));
                    d.failed += pending[ti].len() as u64;
                    pending[ti].clear();
                    stopped[ti] = true;
                }
            }
            if pending[ti].is_empty() {
                active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if k >= sends && active.is_empty() {
            break;
        }
        let now = start.elapsed();
        let wake = if k < sends { schedule.due(k).min(now + POLL) } else { now + POLL };
        if let Some(nap) = wake.checked_sub(now).filter(|nap| !nap.is_zero()) {
            std::thread::sleep(nap);
        }
    }
    d
}

/// Runs the workload's traffic on a built service.
pub fn drive(b: &Built, w: &Workload, seconds: f64, timed: bool) -> Drive {
    match w.traffic {
        crate::gen::Traffic::Closed => closed_loop(b, &w.tenants[0], seconds, timed),
        crate::gen::Traffic::Open { rate_per_s } => open_loop(b, w, rate_per_s, seconds, timed),
    }
}

/// End-of-run checks on every tenant: the final coloring covers the
/// graph, is proper and stays under the palette bound. Returns the
/// violations and the number of engine errors the tenants survived.
pub fn final_check(b: &Built) -> (Vec<String>, u64) {
    b.serve.drain();
    let mut problems = Vec::new();
    let mut errors = 0u64;
    for &id in &b.ids {
        let snap = b.serve.snapshot(id).expect("registered");
        if snap.coloring.len() != snap.m {
            problems.push(format!(
                "tenant {id}: {} colors for {} edges",
                snap.coloring.len(),
                snap.m
            ));
        } else if !snap.coloring.is_proper(&snap.graph) {
            problems.push(format!("tenant {id}: final coloring is not proper"));
        }
        if let Some(&worst) = snap.coloring.colors().iter().max() {
            if worst >= snap.color_bound {
                problems.push(format!("tenant {id}: color {worst} >= bound {}", snap.color_bound));
            }
        }
        errors += b.serve.errors(id).expect("registered").len() as u64;
    }
    (problems, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{tenant, Traffic};
    use crate::stats::ok_frac;
    use deco_serve::EngineKind;

    /// Three small tenants, stores alternating, 20 batches each.
    fn tiny(traffic: Traffic) -> Workload {
        let tenants = (0..3)
            .map(|i| {
                let engine = if i % 2 == 0 { EngineKind::Legacy } else { EngineKind::Segmented };
                tenant(200, engine, i + 1, 20, |m| m / 20)
            })
            .collect();
        Workload {
            name: "tiny",
            tenants,
            traffic,
            order: vec![2, 0, 1],
            tail_permille: 900,
            replay_batches: 1,
        }
    }

    fn one_shard() -> ServeConfig {
        ServeConfig::default().with_shards(1)
    }

    #[test]
    fn every_batch_rejected_fails_every_batch() {
        // A cost quota of one node-round is spent by the build commit, so
        // the service rejects every later submission.
        for traffic in [Traffic::Closed, Traffic::Open { rate_per_s: 200.0 }] {
            let w = tiny(traffic);
            let b = build(&w, one_shard().with_cost_quota(1));
            let d = drive(&b, &w, 0.2, false);
            b.serve.shutdown();
            assert!(d.visible.is_empty(), "{traffic:?}");
            assert!(d.attempted > 0 && d.failed == d.attempted, "{traffic:?}: {d:?}");
            assert!(ok_frac(d.attempted, d.failed) < 0.99, "{traffic:?}");
            assert!(d.first_rejection.is_some());
        }
    }

    #[test]
    fn a_clean_run_fails_nothing() {
        let w = tiny(Traffic::Open { rate_per_s: 100.0 });
        let b = build(&w, one_shard());
        let d = open_loop(&b, &w, 100.0, 0.2, false);
        let (problems, errors) = final_check(&b);
        b.serve.shutdown();
        assert_eq!((d.attempted, d.failed, d.visible.len()), (20, 0, 20));
        assert_eq!(d.late.len(), 20);
        assert!(problems.is_empty() && errors == 0 && d.problems.is_empty(), "{problems:?}");
        assert_eq!(ok_frac(d.attempted, d.failed), 1.0);

        let w = tiny(Traffic::Closed);
        let b = build(&w, one_shard());
        let d = drive(&b, &w, 0.2, false);
        b.serve.shutdown();
        assert!(d.attempted > 0 && d.failed == 0);
        assert_eq!(d.visible.len() as u64, d.attempted);
        assert!(d.problems.is_empty(), "{:?}", d.problems);
    }
}
