//! Workload inputs, generated from the seed before any timing starts.
//!
//! Every tenant starts from [`random_bounded_degree`] and then receives
//! the seeded churn batches of [`churn_trace_from`]: each deletes `k`
//! random existing edges and then inserts `k` random new edges under the
//! degree cap. The trace is converted to compact endpoint pairs and
//! dropped before the service starts; the pairs stay resident through the
//! run, and [`Workload::input_bytes`] gives their size.

use deco_graph::generators::random_bounded_degree;
use deco_graph::trace::{churn_trace_from, Trace, TraceOp};
use deco_serve::EngineKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Degree cap of every workload graph.
pub const DELTA_CAP: usize = 8;

/// One commit's worth of churn: deletions first, then insertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    /// Edges deleted, each present before the batch.
    pub del: Vec<(u32, u32)>,
    /// Edges inserted, each present after the batch.
    pub ins: Vec<(u32, u32)>,
}

impl Batch {
    /// Trace operations submitted for this batch (the commit excluded).
    pub fn ops(&self) -> usize {
        self.del.len() + self.ins.len()
    }

    /// The batch as trace operations, in submission order.
    pub fn trace_ops(&self) -> impl Iterator<Item = TraceOp> + '_ {
        let del = self.del.iter().map(|&(u, v)| TraceOp::Delete(u as usize, v as usize));
        let ins = self.ins.iter().map(|&(u, v)| TraceOp::Insert(u as usize, v as usize));
        del.chain(ins)
    }
}

/// One tenant's inputs: its build batch and its churn batches.
#[derive(Debug, Clone)]
pub struct TenantInput {
    /// Vertex count.
    pub n: usize,
    /// The store the tenant is registered with.
    pub engine: EngineKind,
    /// The edges the build commit inserts.
    pub base: Vec<(u32, u32)>,
    /// Churn batches, in submission order.
    pub batches: Vec<Batch>,
}

/// How the load generator offers batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// The next batch is sent once the previous one is visible.
    Closed,
    /// Batches are due at a fixed rate whatever the service does.
    Open {
        /// Batches (commits) offered per second.
        rate_per_s: f64,
    },
}

/// A named workload with all of its inputs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name, as given on the command line.
    pub name: &'static str,
    /// Tenants, in registration order.
    pub tenants: Vec<TenantInput>,
    /// Closed or open loop.
    pub traffic: Traffic,
    /// Open loop only: the tenant each send slot goes to, cycled.
    pub order: Vec<usize>,
    /// The fixed tail percentile reported as `visible_tail_ms`, in
    /// thousandths.
    pub tail_permille: u32,
    /// Churn batches per tenant the traced replay re-runs directly.
    pub replay_batches: usize,
}

impl Workload {
    /// Bytes the pre-built inputs hold (base edges and batches), all
    /// resident through the measured phase and so inside `peak_rss_mb`.
    pub fn input_bytes(&self) -> usize {
        let pairs: usize = self
            .tenants
            .iter()
            .map(|t| t.base.len() + t.batches.iter().map(Batch::ops).sum::<usize>())
            .sum();
        pairs * std::mem::size_of::<(u32, u32)>()
    }
}

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 2] = ["churn50k", "fleet"];

/// SplitMix64 finalizer: derives independent per-tenant seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Splits the churn batches of a trace (everything after its build
/// commit) into compact batches. When the trace runs out of degree room
/// it deletes one more random edge, which may be one the same batch
/// inserted; the two then cancel, so every batch can be submitted
/// deletions first.
fn batches_of(trace: &Trace) -> Vec<Batch> {
    let mut batches = Vec::new();
    let mut cur = Batch::default();
    let mut built = false;
    for op in &trace.ops {
        match *op {
            TraceOp::Commit if built => batches.push(std::mem::take(&mut cur)),
            TraceOp::Commit => built = true,
            _ if !built => {}
            TraceOp::Insert(u, v) => cur.ins.push((u as u32, v as u32)),
            TraceOp::Delete(u, v) => {
                let e = (u as u32, v as u32);
                match cur.ins.iter().position(|&f| f == e) {
                    Some(at) => {
                        cur.ins.swap_remove(at);
                    }
                    None => cur.del.push(e),
                }
            }
            _ => unreachable!("churn traces hold inserts, deletes and commits only"),
        }
    }
    batches
}

/// A tenant on `random_bounded_degree(n, DELTA_CAP, seed)` with `batches`
/// churn batches of `k(m)` deletions and insertions each.
pub(crate) fn tenant(
    n: usize,
    engine: EngineKind,
    seed: u64,
    batches: usize,
    k: impl Fn(usize) -> usize,
) -> TenantInput {
    let g = random_bounded_degree(n, DELTA_CAP, seed);
    let base: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u as u32, v as u32)).collect();
    let per_batch = k(base.len()).max(1);
    let batches = batches_of(&churn_trace_from(&g, DELTA_CAP, batches, per_batch, seed));
    TenantInput { n, engine, base, batches }
}

/// Closed-loop batches generated per second of run: about 1.5 times
/// churn50k's commit rate (~26/s on a quiet 2-vCPU host), so a faster
/// commit still fills the run while the inputs stay a small share of
/// `peak_rss_mb`. A run that exhausts them ends early.
const CLOSED_BATCHES_PER_S: usize = 40;

/// Builds the named workload's inputs for a run of `seconds`, or `None`
/// for an unknown name. The open loop gets exactly the batches its
/// schedule offers.
pub fn workload(name: &str, seed: u64, seconds: u64) -> Option<Workload> {
    let secs = seconds as usize;
    Some(match name {
        "churn50k" => Workload {
            name: NAMES[0],
            tenants: vec![tenant(
                50_000,
                EngineKind::Legacy,
                seed,
                CLOSED_BATCHES_PER_S * secs,
                |m| m / 100,
            )],
            traffic: Traffic::Closed,
            order: Vec::new(),
            tail_permille: 900,
            replay_batches: 10,
        },
        "fleet" => {
            // Tenants log-uniformly sized from 1000 to 8000 vertices, so
            // engine work is ~3 ms per commit: with ~1 ms commits (a few
            // hundred tenants of a few hundred to a few thousand vertices)
            // p50 moved 8% and p99 44% between seeds on a quiet 2-vCPU
            // host, against 4% and 7% here. The seed picks each graph, its
            // churn and the send order, not the size mix, so every seed
            // offers the same load shape. 220 commits/s is about a third
            // of the rate at which this fleet saturates two cores.
            const TENANTS: usize = 40;
            const RATE: f64 = 220.0;
            let sends = crate::stats::Schedule::new(RATE).sends_within(seconds as f64);
            let per_tenant = sends.div_ceil(TENANTS);
            let tenants = (0..TENANTS)
                .map(|i| {
                    let n = (1000.0 * 8f64.powf(i as f64 / (TENANTS - 1) as f64)).round();
                    let engine =
                        if i % 2 == 0 { EngineKind::Legacy } else { EngineKind::Segmented };
                    tenant(n as usize, engine, mix(seed, i as u64 + 1), per_tenant, |m| m / 100)
                })
                .collect();
            let mut order: Vec<usize> = (0..TENANTS).collect();
            order.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0x5e4d)));
            Workload {
                name: NAMES[1],
                tenants,
                traffic: Traffic::Open { rate_per_s: RATE },
                order,
                tail_permille: 950,
                replay_batches: 2,
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::MutableGraph;

    #[test]
    fn batches_are_valid_and_respect_the_cap() {
        let t = tenant(300, EngineKind::Legacy, 7, 30, |m| m / 10);
        let mut g = MutableGraph::new(t.n);
        for &(u, v) in &t.base {
            g.insert_edge(u as usize, v as usize).unwrap();
        }
        g.commit().unwrap();
        for b in &t.batches {
            assert!(!b.ins.is_empty() && b.del.len() >= b.ins.len());
            for op in b.trace_ops() {
                match op {
                    TraceOp::Insert(u, v) => g.insert_edge(u, v).unwrap(),
                    TraceOp::Delete(u, v) => g.delete_edge(u, v).unwrap(),
                    _ => unreachable!(),
                }
            }
            g.commit().unwrap();
            assert!(g.graph().max_degree() <= DELTA_CAP);
            for &(u, v) in &b.ins {
                assert!(g.graph().has_edge(u as usize, v as usize), "inserted edges stay");
            }
        }
    }

    #[test]
    fn an_insert_undone_in_its_own_batch_cancels() {
        use TraceOp::{Commit, Delete, Insert};
        let ops = vec![
            Insert(0, 1),
            Insert(1, 2),
            Commit,
            Delete(0, 1),
            Insert(0, 2),
            Insert(3, 4),
            Delete(3, 4),
            Delete(1, 2),
            Commit,
            Delete(0, 2),
            Commit,
        ];
        let b = batches_of(&Trace { n0: 5, ops });
        assert_eq!(b.len(), 2, "the build commit is not a batch");
        assert_eq!(b[0], Batch { del: vec![(0, 1), (1, 2)], ins: vec![(0, 2)] });
        assert_eq!(b[1], Batch { del: vec![(0, 2)], ins: vec![] });
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = workload("fleet", 3, 1).unwrap();
        let b = workload("fleet", 3, 1).unwrap();
        let c = workload("fleet", 4, 1).unwrap();
        assert_eq!(a.order, b.order);
        assert_eq!(a.tenants[5].batches, b.tenants[5].batches);
        assert_ne!(a.tenants[5].base, c.tenants[5].base);
        assert_eq!(a.tenants.len(), 40);
        assert_eq!(a.tenants[0].n, 1000);
        assert_eq!(a.tenants[39].n, 8000);
        assert!(workload("nope", 1, 1).is_none());
    }
}
