//! The `deco-serve` determinism theorem, pinned: the same tenant traces
//! produce **byte-identical** per-tenant `CommitReport` transcripts,
//! snapshots and colorings at any shard count and any queue depth,
//! because per-tenant commit order is total (single-drainer claims) and
//! every commit is deterministic (the `RegionRecolor` contract). Work
//! stealing may move tenants between workers freely, and the depth only
//! moves when a tenant's operations are claimed; results must not notice.

use deco_graph::trace::{churn_trace, Trace};
use deco_serve::{EngineKind, Serve, ServeConfig, TenantSpec};
use deco_stream::{CommitReport, RecolorConfig};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Depth 1 claims a tenant on every operation; the larger depths leave
/// operations unclaimed until their commit or a half-full inbox.
const QUEUE_DEPTHS: [usize; 3] = [1, 2, 1024];

/// One tenant's settled outcome: the full report transcript plus the
/// final published snapshot's fingerprint.
type Outcome = (Vec<CommitReport>, u64);

/// Builds a small heterogeneous fleet (engines, thresholds and trace
/// seeds all varying per tenant), streams every trace, drains, and
/// returns per-tenant outcomes in registration order.
fn run_fleet(shards: usize, depth: usize, tenants: usize) -> (Vec<Outcome>, u64) {
    let traces: Vec<Trace> = (0..tenants as u64)
        .map(|i| churn_trace(36 + (i as usize % 5) * 8, 4, 3, 4, 0xf1ee7 ^ i))
        .collect();
    let serve = Serve::start(ServeConfig::default().with_shards(shards).with_queue_depth(depth));
    let ids: Vec<_> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let engine = if i % 2 == 0 { EngineKind::Legacy } else { EngineKind::Segmented };
            let threshold = [10, 25, 60][i % 3];
            let spec = TenantSpec::new(format!("t{i}"), t.n0)
                .with_engine(engine)
                .with_config(RecolorConfig::default().with_repair_threshold(threshold));
            serve.register(spec).unwrap()
        })
        .collect();
    // Interleave tenants batch by batch (rather than tenant by tenant) so
    // many tenants are genuinely in flight together and stealing has
    // something to steal.
    let max_batches = traces.iter().map(|t| t.batches().len()).max().unwrap_or(0);
    for b in 0..max_batches {
        for (&id, trace) in ids.iter().zip(&traces) {
            let batches = trace.batches();
            let Some(batch) = batches.get(b) else { continue };
            for &op in *batch {
                serve.submit_blocking(id, op).unwrap();
            }
            serve.commit_blocking(id).unwrap();
        }
    }
    serve.drain();
    let outcomes = ids
        .iter()
        .map(|&id| {
            assert!(serve.errors(id).unwrap().is_empty(), "tenant {id} errored");
            let snap = serve.snapshot(id).unwrap();
            assert!(snap.coloring.is_proper(&snap.graph), "tenant {id}: improper");
            (serve.reports(id).unwrap(), snap.fingerprint())
        })
        .collect();
    let fleet = serve.fleet_fingerprint();
    serve.shutdown();
    (outcomes, fleet)
}

#[test]
fn per_tenant_transcripts_are_identical_across_shard_counts() {
    let tenants = 24;
    let baseline = run_fleet(SHARD_COUNTS[0], QUEUE_DEPTHS[0], tenants);
    for &shards in &SHARD_COUNTS {
        for &depth in &QUEUE_DEPTHS {
            let run = run_fleet(shards, depth, tenants);
            let cell = format!("{shards} shards, depth {depth}");
            for (t, (base, got)) in baseline.0.iter().zip(&run.0).enumerate() {
                assert_eq!(base.0, got.0, "tenant {t}: CommitReport transcript moved at {cell}");
                assert_eq!(base.1, got.1, "tenant {t}: snapshot fingerprint moved at {cell}");
            }
            assert_eq!(baseline.1, run.1, "fleet fingerprint moved at {cell}");
        }
    }
}

#[test]
fn serve_transcripts_match_direct_replay() {
    // The service is a scheduler, not an engine: each tenant's transcript
    // must equal replaying its trace directly through the facade.
    use deco_core::edge::legal::{edge_log_depth, MessageMode};
    use deco_stream::{replay_trace_on, Recolorer, RegionRecolor, SegRecolorer};

    let tenants = 8;
    let (outcomes, _) = run_fleet(2, 1024, tenants);
    for (i, (reports, snap_fp)) in outcomes.iter().enumerate() {
        let trace = churn_trace(36 + (i % 5) * 8, 4, 3, 4, 0xf1ee7 ^ i as u64);
        let threshold = [10, 25, 60][i % 3];
        let cfg = RecolorConfig::default().with_repair_threshold(threshold);
        let mut engine: Box<dyn RegionRecolor> = if i % 2 == 0 {
            Box::new(
                Recolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg).unwrap(),
            )
        } else {
            Box::new(
                SegRecolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg)
                    .unwrap(),
            )
        };
        let run = replay_trace_on(engine.as_mut(), &trace).unwrap();
        assert_eq!(&run.reports, reports, "tenant {i}: transcript diverged from direct replay");
        // Rebuild the snapshot fingerprint the service would publish.
        let graph = engine.snapshot();
        let direct = deco_serve::TenantSnapshot {
            epoch: engine.commits() as u64,
            commits: engine.commits(),
            n: graph.n(),
            m: graph.m(),
            max_degree: graph.max_degree(),
            color_bound: engine.color_bound(),
            coloring: engine.coloring(),
            graph,
        };
        assert_eq!(direct.fingerprint(), *snap_fp, "tenant {i}: snapshot diverged");
    }
}

#[test]
fn snapshot_reads_race_commits_safely() {
    // Reader threads poll one tenant's snapshot while it makes 300 small
    // commits. Epochs must only grow, and every epoch a reader sees must
    // be internally consistent (a proper coloring of its own graph). Once
    // every reader has dropped its copies, only the current snapshot may
    // be alive: a retired one is freed by its last reader.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Weak};

    let trace = churn_trace(60, 4, 299, 2, 0xace5);
    let serve = Arc::new(Serve::start(ServeConfig::default().with_shards(2)));
    let id = serve.register(TenantSpec::new("watched", trace.n0)).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let serve = Arc::clone(&serve);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // A weak handle on every epoch this reader saw.
                let mut seen = Vec::new();
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = serve.snapshot(id).unwrap();
                    assert!(snap.epoch >= last_epoch, "epoch went backwards");
                    if seen.is_empty() || snap.epoch > last_epoch {
                        assert_eq!(snap.coloring.colors().len(), snap.m, "torn snapshot");
                        assert!(snap.coloring.is_proper(&snap.graph), "torn snapshot");
                        seen.push(Arc::downgrade(&snap));
                    }
                    last_epoch = snap.epoch;
                }
                seen
            })
        })
        .collect();
    for batch in trace.batches() {
        for &op in batch {
            serve.submit_blocking(id, op).unwrap();
        }
        serve.commit_blocking(id).unwrap();
    }
    serve.drain();
    stop.store(true, Ordering::Relaxed);
    let seen: Vec<_> =
        readers.into_iter().flat_map(|r| r.join().expect("reader panicked")).collect();
    let epoch = serve.snapshot(id).unwrap().epoch;
    assert_eq!((epoch, trace.commit_count()), (300, 300));
    let mut alive: Vec<u64> =
        seen.iter().filter_map(Weak::upgrade).map(|s| s.epoch).filter(|&e| e != epoch).collect();
    alive.sort_unstable();
    alive.dedup();
    assert!(alive.is_empty(), "retired epochs outlived their readers: {alive:?}");
}
