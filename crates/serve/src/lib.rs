//! `deco-serve` — multi-tenant streaming recoloring as a service.
//!
//! One process, thousands of independent recoloring instances: each
//! **tenant** registers with its own topology, paper parameters, engine
//! representation and [`RecolorConfig`](deco_stream::RecolorConfig), then
//! streams trace operations in; a sharded worker pool applies them as
//! batched commits through the object-safe
//! [`RegionRecolor`](deco_stream::RegionRecolor) facade, and every commit
//! publishes an epoch-stamped immutable snapshot that readers share.
//! This is the serving shape the streaming layer was built toward — the
//! paper's machinery as a long-lived, always-legal coloring service for a
//! fleet of mutating graphs (TDMA cells, job-shop floors), not a
//! one-graph CLI.
//!
//! ```
//! use deco_graph::trace::TraceOp;
//! use deco_serve::{Serve, ServeConfig, TenantSpec};
//!
//! let serve = Serve::start(ServeConfig::default().with_shards(2));
//! let a = serve.register(TenantSpec::new("cell-a", 4)).unwrap();
//! serve.submit(a, TraceOp::Insert(0, 1)).unwrap();
//! serve.submit(a, TraceOp::Insert(1, 2)).unwrap();
//! serve.commit(a).unwrap();
//! serve.drain();
//! let snap = serve.snapshot(a).unwrap(); // epoch-stamped, shared by Arc
//! assert_eq!((snap.epoch, snap.m), (1, 2));
//! assert!(snap.coloring.is_proper(&snap.graph));
//! serve.shutdown();
//! ```
//!
//! # Determinism
//!
//! Per-tenant commit order is total — one worker drains a tenant at a
//! time (the `scheduled` claim flag), the inbox is FIFO, and each commit
//! is deterministic by the [`RegionRecolor`](deco_stream::RegionRecolor)
//! contract — so per-tenant [`CommitReport`](deco_stream::CommitReport)
//! transcripts, colorings and snapshots are **bit-identical at any shard
//! count**. The `serve_determinism` integration test and the `gate`
//! bench's `serve` scenario pin exactly that, fingerprint by fingerprint.
//!
//! # Module map
//!
//! * [`service`](Serve) — the worker pool, admission and flow control;
//! * [`tenant`](TenantSpec) — specs, snapshots (one mutex-guarded `Arc`
//!   per tenant) and fingerprints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod service;
mod tenant;

pub use service::{Serve, ServeConfig, ServeError, TenantId};
pub use tenant::{reports_fingerprint, EngineKind, TenantError, TenantSnapshot, TenantSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::trace::{churn_trace, TraceOp};
    use deco_stream::RecolorConfig;

    fn feed_trace(serve: &Serve, id: TenantId, trace: &deco_graph::trace::Trace) {
        for batch in trace.batches() {
            for &op in batch {
                serve.submit_blocking(id, op).unwrap();
            }
            serve.commit_blocking(id).unwrap();
        }
    }

    #[test]
    fn single_tenant_matches_direct_replay() {
        let trace = churn_trace(80, 4, 3, 5, 0x5e11);
        let serve = Serve::start(ServeConfig::default().with_shards(2));
        let id = serve.register(TenantSpec::new("solo", trace.n0)).unwrap();
        feed_trace(&serve, id, &trace);
        serve.drain();
        let reports = serve.reports(id).unwrap();
        let snap = serve.snapshot(id).unwrap();
        serve.shutdown();

        let direct = deco_stream::replay_trace(
            &trace,
            deco_core::edge::legal::edge_log_depth(1),
            deco_core::edge::legal::MessageMode::Long,
            25,
        )
        .unwrap();
        assert_eq!(reports, direct.reports);
        assert_eq!(snap.coloring, direct.recolorer.coloring());
        assert_eq!(snap.epoch as usize, direct.reports.len());
        assert!(snap.coloring.is_proper(&snap.graph));
    }

    #[test]
    fn backpressure_rejects_then_blocking_succeeds() {
        let serve = Serve::start(ServeConfig::default().with_shards(1).with_queue_depth(1));
        let id = serve.register(TenantSpec::new("tight", 8)).unwrap();
        // Keep pushing non-blocking until the 1-slot inbox rejects; the
        // worker drains concurrently so a rejection may take a few tries,
        // but with a steady stream one must eventually bounce.
        let mut saw_backpressure = false;
        for i in 0..10_000 {
            match serve.submit(id, TraceOp::Insert(i % 8, (i + 1) % 8)) {
                Ok(()) => {}
                Err(ServeError::Backpressure(t)) => {
                    assert_eq!(t, id);
                    saw_backpressure = true;
                    break;
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        assert!(saw_backpressure, "a 1-deep inbox must bounce a tight loop");
        // The blocking path always lands.
        serve.submit_blocking(id, TraceOp::Insert(0, 1)).unwrap();
        serve.drain();
    }

    #[test]
    fn cost_quota_rejects_hot_tenants() {
        let serve = Serve::start(ServeConfig::default().with_shards(1).with_cost_quota(1));
        let id = serve.register(TenantSpec::new("hot", 30)).unwrap();
        for v in 1..10 {
            serve.submit_blocking(id, TraceOp::Insert(0, v)).unwrap();
        }
        serve.commit_blocking(id).unwrap();
        serve.drain();
        assert!(serve.cost(id).unwrap() >= 1, "a real commit must cost node-rounds");
        let err = serve.submit(id, TraceOp::Insert(0, 10)).unwrap_err();
        assert_eq!(err, ServeError::QuotaExhausted(id));
        // The transcript survives; the tenant just stops admitting.
        assert_eq!(serve.reports(id).unwrap().len(), 1);
    }

    #[test]
    fn compact_cost_budget_schedules_from_scratch_commits() {
        use deco_stream::RepairStrategy;
        // A tiny budget forces a compaction request after every commit:
        // each subsequent commit must run from scratch even though the
        // churn batches are small.
        let serve = Serve::start(ServeConfig::default().with_shards(1).with_compact_cost_budget(1));
        let trace = churn_trace(60, 4, 3, 3, 0xb06e7);
        let id = serve.register(TenantSpec::new("budgeted", trace.n0)).unwrap();
        feed_trace(&serve, id, &trace);
        serve.drain();
        let reports = serve.reports(id).unwrap();
        assert!(reports.len() >= 3);
        for rep in &reports[1..] {
            assert_eq!(
                rep.strategy,
                RepairStrategy::FromScratch,
                "commit {}: the budget must force compaction",
                rep.commit
            );
        }
        serve.shutdown();
    }

    #[test]
    fn commit_errors_keep_the_tenant_alive() {
        let serve = Serve::start(ServeConfig::default().with_shards(1));
        let id = serve.register(TenantSpec::new("oops", 8)).unwrap();
        serve.submit_blocking(id, TraceOp::Insert(0, 1)).unwrap();
        serve.commit_blocking(id).unwrap();
        // A duplicate insert makes the *commit* fail; the engine discards
        // the batch and keeps serving.
        serve.submit_blocking(id, TraceOp::Insert(1, 2)).unwrap();
        serve.submit_blocking(id, TraceOp::Insert(1, 2)).unwrap();
        serve.commit_blocking(id).unwrap();
        serve.submit_blocking(id, TraceOp::Insert(2, 3)).unwrap();
        serve.commit_blocking(id).unwrap();
        serve.drain();
        let errors = serve.errors(id).unwrap();
        assert_eq!(errors.len(), 1, "exactly the duplicate-insert commit fails: {errors:?}");
        let reports = serve.reports(id).unwrap();
        assert_eq!(reports.len(), 2, "the surviving commits both land");
        let snap = serve.snapshot(id).unwrap();
        assert_eq!(snap.m, 2);
        assert!(snap.coloring.is_proper(&snap.graph));
    }

    #[test]
    fn queue_errors_quarantine_the_tenant() {
        let serve = Serve::start(ServeConfig::default().with_shards(1));
        let id = serve.register(TenantSpec::new("poisoned", 4)).unwrap();
        serve.submit_blocking(id, TraceOp::Insert(0, 99)).unwrap(); // out of range: queue error
        serve.submit_blocking(id, TraceOp::Insert(0, 1)).unwrap(); // discarded
        serve.commit_blocking(id).unwrap(); // discarded
        serve.drain();
        assert_eq!(serve.errors(id).unwrap().len(), 1);
        assert!(serve.reports(id).unwrap().is_empty(), "no commit ran after the poison");
        let err = serve.submit(id, TraceOp::Insert(0, 1)).unwrap_err();
        assert_eq!(err, ServeError::Quarantined(id));
        // Other tenants are untouched.
        let ok = serve.register(TenantSpec::new("fine", 4)).unwrap();
        serve.submit_blocking(ok, TraceOp::Insert(0, 1)).unwrap();
        serve.commit_blocking(ok).unwrap();
        serve.drain();
        assert_eq!(serve.reports(ok).unwrap().len(), 1);
    }

    #[test]
    fn heterogeneous_tenants_run_side_by_side() {
        let serve = Serve::start(ServeConfig::default().with_shards(3));
        let traces: Vec<_> =
            (0..6u64).map(|i| churn_trace(40 + 10 * i as usize, 4, 2, 4, 0xfeed ^ i)).collect();
        let ids: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let spec = TenantSpec::new(format!("t{i}"), t.n0)
                    .with_engine(if i % 2 == 0 {
                        EngineKind::Legacy
                    } else {
                        EngineKind::Segmented
                    })
                    .with_config(RecolorConfig::default().with_repair_threshold(if i % 3 == 0 {
                        10
                    } else {
                        25
                    }));
                serve.register(spec).unwrap()
            })
            .collect();
        for (&id, trace) in ids.iter().zip(&traces) {
            feed_trace(&serve, id, trace);
        }
        serve.drain();
        for (&id, trace) in ids.iter().zip(&traces) {
            let snap = serve.snapshot(id).unwrap();
            assert_eq!(snap.commits, trace.commit_count());
            assert!(snap.coloring.is_proper(&snap.graph), "tenant {id}");
            assert!(serve.errors(id).unwrap().is_empty(), "tenant {id}");
        }
        let fp = serve.fleet_fingerprint();
        assert_ne!(fp, deco_probe::Fnv::new().digest());
        serve.shutdown();
    }
}
