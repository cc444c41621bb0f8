//! **The gate bench**: every deterministic counter `bench_gate` pins, and
//! every hard assert behind them, from one table of scenarios.
//!
//! Each scenario runs once and returns one JSON block. The counters are
//! the paper's LOCAL-model costs (rounds, messages, node-rounds, repaired
//! edges, commit bytes) plus the hashes and fingerprints that pin colorings
//! bit for bit. Every scenario asserts its determinism contract before
//! anything is recorded:
//!
//! * `sim` — the simulator on five workloads: the slot engine, its threaded
//!   runner and the naive reference agree on FloodMax and Legal-Color-shaped
//!   gossip; adaptive, scan and naive delivery agree on the Legal-Color and
//!   Theorem 5.5 pipelines; an epoch wave records its per-round delivery
//!   choices; FloodMax agrees at thread budgets 1, 2, 4 and 8.
//! * `churn` — the n = 50k, Δ ≤ 8, 1%-churn trace. One legacy replay is
//!   compared per commit against the from-scratch pipeline (incremental
//!   must also win on wall time), the segmented store, a split
//!   deletions-then-insertions replay with its two graph-commit paths, and
//!   a nine-leg threads × delivery probe matrix with one event digest.
//! * `repair` — the repair phase on a second churn trace with early
//!   halting on and off: same colors and messages, ≥ 1.5× fewer stepped
//!   node-rounds.
//! * `faults` — the streaming recolorer over six transport cells, each
//!   driven twice: legal, within budget, counters a pure function of the
//!   seed, and clean on the perfect transport.
//! * `machinery` — a 1% batch on an m = 200k graph (segmented bytes × 10 ≤
//!   full-rewrite bytes), and a power-law churn trace through both stores.
//! * `serve` — a 1000-tenant fleet at shards 1, 2 and 8 with
//!   shard-invariant transcripts and fingerprints.
//!
//! Wall time is printed, never recorded: end-to-end and per-layer wall
//! time is perfbench's job. Machine facts go under `environment`, which the
//! gate never fails on. The result lands in `BENCH_gate.json` at the
//! workspace root (override the path with `DECO_BENCH_OUT`).

use deco_bench::json::{array, run_length, Obj, Value};
use deco_bench::{millis, time_interleaved};
use deco_core::edge::legal::{
    edge_color, edge_color_bound, edge_color_in_groups, edge_log_depth, MessageMode,
};
use deco_core::legal::legal_color;
use deco_core::params::LegalParams;
use deco_graph::line_graph::line_graph;
use deco_graph::trace::{churn_trace, churn_trace_from, power_law_churn_trace, Trace, TraceOp};
use deco_graph::{generators, EdgeIdx, Graph, MutableGraph, SegmentedGraph, Vertex};
use deco_local::{Action, Delivery, DeliveryChoice, Engine, Network, NodeCtx, Protocol, RunStats};
use deco_probe::{Event, Fnv, RecordingProbe};
use deco_serve::{reports_fingerprint, EngineKind, Serve, ServeConfig, TenantSpec};
use deco_stream::{
    repair_phase, replay_trace_on, CommitReport, FaultyTransport, RecolorConfig, Recolorer,
    RegionRecolor, RepairStrategy, SegRecolorer, Transport,
};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;

/// A scenario: runs once, asserts, and returns its JSON block.
type Scenario = fn() -> Value;

/// The scenario table, in run order.
const SCENARIOS: [(&str, Scenario); 6] = [
    ("sim", sim),
    ("churn", churn),
    ("repair", repair),
    ("faults", faults),
    ("machinery", machinery),
    ("serve", serve),
];

fn main() {
    println!("\n=== gate: deterministic counters and hard asserts, one run per scenario ===");
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get()).min(16);
    let mut json = Obj::new()
        .field("bench", "gate")
        .field("environment", Obj::new().field("threads_available", threads).build());
    let t0 = Instant::now();
    for (name, scenario) in SCENARIOS {
        println!("\n-- {name}");
        let started = Instant::now();
        json = json.field(name, scenario());
        println!("   {name}: {:.1} s", started.elapsed().as_secs_f64());
    }
    println!("\nall scenarios: {:.1} s", t0.elapsed().as_secs_f64());
    let out = std::env::var("DECO_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_gate.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, deco_bench::json::to_string(&json.build())).expect("write bench json");
    println!("wrote {out}");
}

// ---------------------------------------------------------------- helpers

/// FNV-1a over a word stream, as 16 hex digits.
fn fnv_hex(words: impl IntoIterator<Item = u64>) -> String {
    let mut h = Fnv::with_prime(0x1000_0000_01b3);
    for w in words {
        h.word(w);
    }
    format!("{:016x}", h.digest())
}

/// The length-prefixed color hash of the churn and machinery rows (the
/// stream_churn pin's hash function).
fn color_hash(colors: &[u64]) -> String {
    fnv_hex(std::iter::once(colors.len() as u64).chain(colors.iter().copied()))
}

/// Queues `batch` on `engine` and commits it.
fn commit_batch<E: RegionRecolor>(engine: &mut E, batch: &[TraceOp]) -> CommitReport {
    for &op in batch {
        engine.queue_op(op).expect("valid trace");
    }
    engine.commit().expect("valid trace")
}

/// Queues an insert/delete batch on a bare graph store.
fn queue_graph(g: &mut MutableGraph, ops: &[TraceOp]) {
    for &op in ops {
        match op {
            TraceOp::Insert(u, v) => g.insert_edge(u, v).expect("valid trace"),
            TraceOp::Delete(u, v) => g.delete_edge(u, v).expect("valid trace"),
            _ => unreachable!("churn batches only insert/delete"),
        }
    }
}

/// `churn_trace_from(random_bounded_degree(n, cap, seed), cap, commits,
/// m/100, seed)`: the 1%-churn trace of the `churn` and `repair` scenarios.
/// Returns the trace and its churn edges per commit.
fn one_percent_churn(n: usize, cap: usize, commits: usize, seed: u64) -> (Trace, usize) {
    let base = generators::random_bounded_degree(n, cap, seed);
    let churn = base.m() / 100;
    (churn_trace_from(&base, cap, commits, churn, seed), churn)
}

/// The scenario parameters every 1%-churn block records.
fn churn_block(n: usize, cap: usize, churn: usize) -> Obj {
    Obj::new().field("n", n).field("delta_cap", cap).field("churn_edges_per_commit", churn)
}

fn initial_build(report: &CommitReport) -> Value {
    Obj::new()
        .field("m", report.m)
        .field("rounds", report.stats.rounds)
        .field("messages", report.stats.messages)
        .build()
}

/// Commits one batch on both stores and asserts their reports (up to
/// `commit_bytes`, the quantity that differs by design) and colorings
/// agree; returns both reports and the shared colors.
fn commit_pair(
    legacy: &mut Recolorer,
    seg: &mut SegRecolorer,
    batch: &[TraceOp],
    what: &str,
) -> (CommitReport, CommitReport, Vec<u64>) {
    let a = commit_batch(legacy, batch);
    let b = commit_batch(seg, batch);
    let (mut a0, mut b0) = (a.clone(), b.clone());
    a0.stats.commit_bytes = 0;
    b0.stats.commit_bytes = 0;
    assert_eq!(a0, b0, "{what}: reports diverge across stores");
    let colors = legacy.coloring().into_colors();
    assert_eq!(colors, seg.coloring().into_colors(), "{what}: colors diverge across stores");
    (a, b, colors)
}

/// One commit of a two-store replay: the legacy report's counters, both
/// stores' commit bytes and the shared color hash.
fn store_row(
    scenario: &str,
    commit: usize,
    legacy: &CommitReport,
    seg: &CommitReport,
    colors: &[u64],
) -> Value {
    Obj::new()
        .field("scenario", scenario)
        .field("commit", commit)
        .field("m", legacy.m)
        .field("repaired_edges", legacy.dirty)
        .field("rounds", legacy.stats.rounds)
        .field("messages", legacy.stats.messages)
        .field("segmented_commit_bytes", seg.stats.commit_bytes)
        .field("full_rewrite_commit_bytes", legacy.stats.commit_bytes)
        .field("color_hash", color_hash(colors))
        .build()
}

// -------------------------------------------------------------------- sim

/// FloodMax: pure delivery throughput, trivial per-node compute.
struct FloodMax {
    radius: usize,
    best: u64,
}

impl Protocol for FloodMax {
    type Msg = u64;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, u64)> {
        self.best = ctx.ident;
        ctx.broadcast(self.best)
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(usize, u64)]) -> Action<u64> {
        for &(_, v) in inbox {
            self.best = self.best.max(v);
        }
        if ctx.round >= self.radius {
            Action::halt()
        } else {
            Action::Broadcast(self.best)
        }
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.best
    }
}

/// Legal-Color-shaped traffic: field messages, palette comparisons and
/// greedy recoloring, without the full recursion bookkeeping.
struct LegalShaped {
    color: u64,
    palette: u64,
    rounds: usize,
}

impl Protocol for LegalShaped {
    type Msg = (u64, u64);
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, (u64, u64))> {
        self.color = ctx.ident % self.palette;
        ctx.broadcast((self.color, ctx.ident))
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(usize, (u64, u64))]) -> Action<(u64, u64)> {
        // Recolor greedily against the received colors, paper-style.
        let mut used = 0u128;
        for &(_, (c, _)) in inbox {
            if c < 128 {
                used |= 1 << c;
            }
        }
        if used & (1 << (self.color % 128)) != 0 {
            self.color = (0..self.palette).find(|c| used & (1 << (c % 128)) == 0).unwrap_or(0);
        }
        if ctx.round >= self.rounds {
            Action::halt()
        } else {
            Action::Broadcast((self.color, ctx.ident))
        }
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.color
    }
}

/// The Algorithm 1 while-loop traffic shape: vertices carry a class in
/// `0..classes`; each round only the matching class broadcasts (everyone
/// else idles), for `epochs` sweeps — a dense start followed by a long
/// sparse tail, the adaptive delivery's target regime.
struct EpochWave {
    classes: u64,
    epochs: usize,
    acc: u64,
}

impl Protocol for EpochWave {
    type Msg = u64;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, u64)> {
        self.acc = ctx.ident;
        ctx.broadcast(ctx.ident)
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(usize, u64)]) -> Action<u64> {
        for &(_, m) in inbox {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(m);
        }
        if ctx.round >= self.epochs * self.classes as usize {
            Action::halt()
        } else if ctx.ident % self.classes == (ctx.round as u64) % self.classes {
            Action::Broadcast(self.acc)
        } else {
            Action::idle()
        }
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.acc
    }
}

fn workload_row(name: &str, g: &Graph, stats: RunStats) -> Value {
    Obj::new()
        .field("workload", name)
        .field("n", g.n())
        .field("m", g.m())
        .field("rounds", stats.rounds)
        .field("messages", stats.messages)
        .build()
}

/// Runs a protocol on the sequential slot engine, the threaded runner and
/// the naive engine, and asserts all three agree bit for bit.
fn protocol_row<P, F>(name: &str, g: &Graph, mk: F) -> Value
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    P::Output: PartialEq + Debug,
    F: Fn(&NodeCtx<'_>) -> P + Copy,
{
    let net = Network::new(g);
    let slot = net.run(mk);
    let naive = Network::new(g).with_engine(Engine::Naive).run(mk);
    assert_eq!(slot.outputs, naive.outputs, "{name}: engines diverged (outputs)");
    assert_eq!(slot.stats, naive.stats, "{name}: engines diverged (stats)");
    let (threaded, _) = net.run_profiled_threaded(mk);
    assert_eq!(threaded.outputs, slot.outputs, "{name}: threaded diverged");
    assert_eq!(threaded.stats, slot.stats, "{name}: threaded stats diverged");
    workload_row(name, g, slot.stats)
}

/// Runs a pipeline driver under adaptive delivery, forced-scan delivery and
/// the naive engine, asserts the three agree bit for bit, and returns the
/// adaptive outcome.
fn across_engines<T, D>(name: &str, g: &Graph, driver: D) -> (T, RunStats)
where
    T: PartialEq + Debug,
    D: Fn(&Network<'_>) -> (T, RunStats),
{
    let adaptive = driver(&Network::new(g).with_delivery(Delivery::Adaptive));
    let scan = driver(&Network::new(g).with_delivery(Delivery::Scan));
    assert_eq!(scan, adaptive, "{name}: scan diverged");
    let naive = driver(&Network::new(g).with_engine(Engine::Naive));
    assert_eq!(naive, adaptive, "{name}: naive diverged");
    adaptive
}

/// The epoch wave under adaptive delivery, traced per round, checked
/// against forced-scan delivery.
fn epoch_wave_row(g: &Graph) -> Value {
    let (classes, epochs) = (16, 3);
    let mk = |_: &NodeCtx<'_>| EpochWave { classes, epochs, acc: 0 };
    // Adaptive delivery is pinned: the per-round delivery trace is gated,
    // so it must not follow a DECO_DELIVERY override.
    let (run, _, trace) = Network::new(g).with_delivery(Delivery::Adaptive).run_traced(mk);
    let scan = Network::new(g).with_delivery(Delivery::Scan).run(mk);
    assert_eq!(run.outputs, scan.outputs, "epoch wave: delivery modes diverged");
    assert_eq!(run.stats, scan.stats, "epoch wave: delivery stats diverged");
    let labels = trace.iter().map(|t| match t.delivery {
        DeliveryChoice::Scan => "scan",
        DeliveryChoice::Push => "push",
    });
    Obj::new()
        .field("workload", "delivery-trace/epoch-wave")
        .field("n", g.n())
        .field("classes", classes)
        .field("rounds", run.stats.rounds)
        .field("push_rounds", trace.iter().filter(|t| t.delivery == DeliveryChoice::Push).count())
        .field("per_round_delivery", run_length(labels))
        // Worker counts follow the host's thread budget.
        .field(
            "environment",
            Obj::new().field("per_round_workers", array(trace.iter().map(|t| t.workers))).build(),
        )
        .build()
}

/// FloodMax at several thread budgets, bit-identical to one thread.
fn thread_budget_row(g: &Graph) -> Value {
    const BUDGETS: [usize; 4] = [1, 2, 4, 8];
    let mk = |_: &NodeCtx<'_>| FloodMax { radius: 4, best: 0 };
    let (reference, _) = Network::new(g).with_threads(BUDGETS[0]).run_profiled_threaded(mk);
    for threads in &BUDGETS[1..] {
        let (run, _) = Network::new(g).with_threads(*threads).run_profiled_threaded(mk);
        assert_eq!(run.outputs, reference.outputs, "threads={threads} diverged");
        assert_eq!(run.stats, reference.stats, "threads={threads} stats diverged");
    }
    let budgets = BUDGETS.iter().map(|&t| Obj::new().field("threads", t).build()).collect();
    Obj::new()
        .field("workload", "thread-scaling/floodmax")
        .field("n", g.n())
        .field("per_thread_budget", Value::Array(budgets))
        .build()
}

fn sim() -> Value {
    let mut rows = Vec::new();

    let g = generators::random_bounded_degree(100_000, 8, 0x9121);
    rows.push(protocol_row("floodmax/random-bounded-degree", &g, |_| FloodMax {
        radius: 4,
        best: 0,
    }));
    drop(g);

    // The Lemma 5.2 workload shape on L(G).
    let l = line_graph(&generators::random_bounded_degree(25_000, 8, 0x9122));
    rows.push(protocol_row("legal-shaped/line-graph", &l, |_| LegalShaped {
        color: 0,
        palette: 32,
        rounds: 6,
    }));
    drop(l);

    // The real Legal-Color on a bounded-NI generator (torus: I(G) <= 4).
    let name = "legal-color/torus-bounded-ni";
    let t = generators::torus(320, 320);
    let params = LegalParams::log_depth(4, 1);
    let (coloring, stats) = across_engines(name, &t, |net| {
        let run = legal_color(net, 4, params).expect("params are valid");
        (run.coloring, run.stats)
    });
    assert!(coloring.is_proper(&t), "{name}: improper coloring");
    rows.push(workload_row(name, &t, stats));
    drop(t);

    // The full edge-coloring pipeline (Theorem 5.5); `edge_color` builds
    // its own network and must match the grouped driver everywhere.
    let name = "edge-color/random-bounded-degree";
    let g = generators::random_bounded_degree(6_000, 40, 0x9124);
    let params = edge_log_depth(1);
    let groups = vec![0u64; g.m()];
    let delta = g.max_degree() as u64;
    let grouped = across_engines(name, &g, |net| {
        let run = edge_color_in_groups(net, &groups, 1, params, delta, MessageMode::Long)
            .expect("params are valid");
        (run.coloring, run.stats)
    });
    let direct = edge_color(&g, params, MessageMode::Long).expect("params are valid");
    assert!(direct.coloring.is_proper(&g), "{name}: improper edge coloring");
    assert_eq!((direct.coloring, direct.stats), grouped, "{name}: edge_color diverged");
    rows.push(workload_row(name, &g, grouped.1));
    drop(g);

    let g = generators::random_bounded_degree(50_000, 8, 0x9125);
    rows.push(epoch_wave_row(&g));
    rows.push(thread_budget_row(&g));
    println!("   {} workloads bit-identical across engines, deliveries and threads", rows.len());
    Obj::new().field("workloads", rows).build()
}

// ------------------------------------------------------------------ churn

/// A churn batch's net deletions and net insertions, each in `(u, v)`
/// order. A pair deleted and reinserted within the batch keeps its color
/// in the unsplit replay, so it must not become a real delete + insert.
fn split_by_net_effect(batch: &[TraceOp]) -> (Vec<TraceOp>, Vec<TraceOp>) {
    let mut net: BTreeMap<(Vertex, Vertex), (bool, bool)> = BTreeMap::new();
    for &op in batch {
        let (u, v, insert) = match op {
            TraceOp::Insert(u, v) => (u, v, true),
            TraceOp::Delete(u, v) => (u, v, false),
            _ => unreachable!("churn batches only insert/delete"),
        };
        net.entry((u.min(v), u.max(v)))
            .and_modify(|(_, last)| *last = insert)
            .or_insert((insert, insert));
    }
    let mut dels = Vec::new();
    let mut inss = Vec::new();
    for (&(u, v), &(first, last)) in &net {
        match (first, last) {
            (false, false) => dels.push(TraceOp::Delete(u, v)),
            (true, true) => inss.push(TraceOp::Insert(u, v)),
            _ => {} // toggled within the batch: net no-op
        }
    }
    (dels, inss)
}

/// The nine-leg threads × delivery matrix: the trace replayed under a
/// recording probe per leg, with threads and delivery pinned through the
/// engine config. Every leg must reproduce `reports` (the null-probe
/// replay's) and one event digest; returns the digest and the t1/scan
/// leg's events.
fn probe_matrix(trace: &Trace, reports: &[CommitReport]) -> (u64, Vec<Event>) {
    let deliveries =
        [("scan", Delivery::Scan), ("push", Delivery::Push), ("adaptive", Delivery::Adaptive)];
    let mut first: Option<(u64, Vec<Event>)> = None;
    for threads in [1, 2, 8] {
        for (label, delivery) in deliveries {
            let leg = format!("t{threads}/{label}");
            let probe = Arc::new(RecordingProbe::new());
            let cfg = RecolorConfig::default()
                .with_threads(threads)
                .with_delivery(delivery)
                .with_probe(probe.clone());
            let mut engine =
                Recolorer::new_with(trace.n0, edge_log_depth(1), MessageMode::Long, cfg)
                    .expect("preset params");
            let run = replay_trace_on(&mut engine, trace).expect("valid trace");
            assert_eq!(
                run.reports, reports,
                "leg {leg}: CommitReports diverged from the null probe"
            );
            let digest = probe.digest();
            match &first {
                Some((d, _)) => assert_eq!(digest, *d, "leg {leg} diverged from t1/scan"),
                None => first = Some((digest, probe.take())),
            }
        }
    }
    first.expect("nine legs ran")
}

fn probe_block(trace: &Trace, reports: &[CommitReport]) -> Value {
    let (digest, events) = probe_matrix(trace, reports);
    let count = |f: fn(&Event) -> bool| events.iter().filter(|e| f(e)).count();
    let totals = reports.iter().fold(RunStats::zero(), |acc, r| acc + r.stats);
    println!("   9 probe legs, one digest {digest:#018x}");
    Obj::new()
        .field("matrix_legs", 9usize)
        .field("event_digest", format!("{digest:016x}"))
        .field("deterministic_events", count(Event::is_deterministic))
        .field("round_samples", count(|e| matches!(e, Event::Round { .. })))
        .field("phase_exit_events", count(|e| matches!(e, Event::PhaseExit { .. })))
        .field("commit_exit_events", count(|e| matches!(e, Event::CommitExit { .. })))
        .field("commit_bytes_events", count(|e| matches!(e, Event::CommitBytes { .. })))
        .field("env_event_count", count(|e| matches!(e, Event::Env { .. })))
        .field("total_rounds", totals.rounds)
        .field("total_messages", totals.messages)
        .field("total_node_rounds", totals.node_rounds)
        .field("total_commit_bytes", totals.commit_bytes)
        .build()
}

fn churn() -> Value {
    const SAMPLES: usize = 3;
    let params = edge_log_depth(1);
    let mode = MessageMode::Long;
    let (n, cap) = (50_000, 8);
    let (trace, churn) = one_percent_churn(n, cap, 3, 0x9126);
    let batches = trace.batches();

    // The one legacy replay, with the segmented store alongside it.
    let mut legacy = Recolorer::new(trace.n0, params, mode).expect("preset params");
    let mut seg = SegRecolorer::new(trace.n0, params, mode).expect("preset params");
    let (build, _, _) = commit_pair(&mut legacy, &mut seg, batches[0], "build commit");
    let mut reports = vec![build.clone()];
    // The split replay starts from the built engine, next to a bare graph
    // store for the two graph-commit paths.
    let mut split = legacy.clone();
    let mut graph = MutableGraph::from_graph(legacy.graph().clone());

    let (mut rows, mut split_rows, mut store_rows) = (Vec::new(), Vec::new(), Vec::new());
    for (c, batch) in batches.iter().enumerate().skip(1) {
        let pre = legacy.clone();
        let (report, seg_report, colors) =
            commit_pair(&mut legacy, &mut seg, batch, &format!("commit {c}"));
        assert_eq!(report.strategy, RepairStrategy::Incremental, "1% churn repairs incrementally");
        store_rows.push(store_row("churn_50k", c, &report, &seg_report, &colors));

        // Incremental repair against the from-scratch pipeline on the same
        // post-commit snapshot: both proper, and incremental faster.
        let snapshot = legacy.graph();
        let bound = edge_color_bound(&params, snapshot.max_degree() as u64);
        let coloring = legacy.coloring();
        assert!(coloring.is_proper(snapshot), "commit {c}: incremental coloring improper");
        assert!(coloring.colors().iter().all(|&x| x < bound), "commit {c}: bound exceeded");
        let mut scratch = None;
        let times = time_interleaved(
            SAMPLES,
            &mut [
                &mut || {
                    commit_batch(&mut pre.clone(), batch);
                },
                &mut || scratch = Some(edge_color(snapshot, params, mode).expect("valid params")),
            ],
        );
        let scratch = scratch.expect("timed at least once");
        assert!(scratch.coloring.is_proper(snapshot), "commit {c}: from-scratch coloring improper");
        println!(
            "   commit {c}: incremental {} ms vs from-scratch {} ms",
            millis(times[0]),
            millis(times[1])
        );
        assert!(times[0] < times[1], "commit {c}: incremental did not beat from-scratch");
        rows.push(
            Obj::new()
                .field("commit", c)
                .field("m", report.m)
                .field("repaired_edges", report.dirty)
                .field("incremental_rounds", report.stats.rounds)
                .field("from_scratch_rounds", scratch.stats.rounds)
                .field("incremental_messages", report.stats.messages)
                .field("from_scratch_messages", scratch.stats.messages)
                .build(),
        );

        // The split replay lands the net deletions, then the net
        // insertions; the patched and rebuilt graph commits must agree with
        // each other and with the engine on both halves.
        let (dels, inss) = split_by_net_effect(batch);
        for (kind, ops, want) in [
            ("deletions (machinery only)", &dels, RepairStrategy::Clean),
            ("insertions (machinery + repair)", &inss, RepairStrategy::Incremental),
        ] {
            let r = commit_batch(&mut split, ops);
            assert_eq!(r.strategy, want, "commit {c} {kind}");
            let mut rebuilt = graph.clone();
            queue_graph(&mut rebuilt, ops);
            rebuilt.commit_rebuild().expect("valid trace");
            queue_graph(&mut graph, ops);
            graph.commit().expect("valid trace");
            assert_eq!(rebuilt.graph(), graph.graph(), "commit {c} {kind}: paths diverge");
            assert_eq!(graph.graph(), split.graph(), "commit {c} {kind}: engine diverges");
            split_rows.push(
                Obj::new()
                    .field("commit", c)
                    .field("kind", kind)
                    .field("m", r.m)
                    .field("repaired_edges", r.dirty)
                    .field("region_vertices", r.region_vertices)
                    .field("rounds", r.stats.rounds)
                    .field("messages", r.stats.messages)
                    .field("color_hash", color_hash(&split.coloring().into_colors()))
                    .build(),
            );
        }
        assert_eq!(split.coloring(), legacy.coloring(), "commit {c}: split replay diverged");
        reports.push(report);
    }

    churn_block(n, cap, churn)
        .field("initial_build", initial_build(&build))
        .field("commits", rows)
        .field("split_commits", split_rows)
        .field("store_commits", store_rows)
        .field("probe", probe_block(&trace, &reports))
        .build()
}

// ----------------------------------------------------------------- repair

/// Carried colors for the post-commit snapshot: the pre-commit color of
/// every surviving endpoint pair, `u64::MAX` for fresh edges. Returns the
/// colors and the dirty (fresh) edge indices — the repair input
/// `Recolorer::commit` derives from the delta (no renumbering and no
/// palette-bound shrink in this scenario).
fn carry(old: &Graph, old_colors: &[u64], new: &Graph) -> (Vec<u64>, Vec<EdgeIdx>) {
    let old_edges: Vec<(Vertex, Vertex)> = old.edges().collect();
    let mut colors = vec![u64::MAX; new.m()];
    let mut dirty = Vec::new();
    let mut i = 0usize;
    for (e, (u, v)) in new.edges().enumerate() {
        while i < old_edges.len() && old_edges[i] < (u, v) {
            i += 1;
        }
        if i < old_edges.len() && old_edges[i] == (u, v) {
            colors[e] = old_colors[i];
            i += 1;
        } else {
            dirty.push(e);
        }
    }
    (colors, dirty)
}

fn repair() -> Value {
    let params = edge_log_depth(1);
    let mode = MessageMode::Long;
    let (n, cap) = (50_000, 8);
    let (trace, churn) = one_percent_churn(n, cap, 3, 0x9127);
    let batches = trace.batches();
    let mut engine = Recolorer::new(trace.n0, params, mode).expect("preset params");
    let build = commit_batch(&mut engine, batches[0]);

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (c, batch) in batches.iter().enumerate().skip(1) {
        let pre_graph = engine.graph().clone();
        let pre_colors = engine.coloring().into_colors();
        let report = commit_batch(&mut engine, batch);
        assert_eq!(report.strategy, RepairStrategy::Incremental, "1% churn repairs incrementally");
        let snapshot = engine.graph();
        let engine_colors = engine.coloring().into_colors();

        // Rebuild the engine's repair input; both halting modes must
        // reproduce its coloring bit for bit.
        let (carried, dirty) = carry(&pre_graph, &pre_colors, snapshot);
        assert_eq!(dirty.len(), report.dirty, "reconstructed region diverged from the engine");
        let run = |early: bool| {
            let mut colors = carried.clone();
            let (stats, _, _) = repair_phase(snapshot, &dirty, &mut colors, params, mode, early);
            assert_eq!(
                colors, engine_colors,
                "early_halt={early}: repair diverged from the engine"
            );
            stats
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.messages, off.messages, "messages must not move");
        // Round counts may tie when some node's last step sits at the
        // schedule's worst case; stepped node-rounds must fall.
        assert!(on.rounds <= off.rounds, "halting must not lengthen the repair");
        assert!(on.node_rounds < off.node_rounds, "halting must cut stepped node-rounds");
        speedups.push(off.node_rounds as f64 / on.node_rounds.max(1) as f64);
        rows.push(
            Obj::new()
                .field("commit", c)
                .field("m", report.m)
                .field("dirty", report.dirty)
                .field("region_vertices", report.region_vertices)
                .field("repair_rounds", on.rounds)
                .field("repair_rounds_nohalt", off.rounds)
                .field("repair_node_rounds", on.node_rounds)
                .field("repair_node_rounds_nohalt", off.node_rounds)
                .field("repair_messages", on.messages)
                .build(),
        );
    }
    speedups.sort_by(f64::total_cmp);
    let median = speedups[speedups.len() / 2];
    println!("   median node-round speedup with early halting: {median:.2}x");
    assert!(median >= 1.5, "median node-round speedup {median:.2}x < 1.5x");

    churn_block(n, cap, churn)
        .field("initial_build", initial_build(&build))
        .field("commits", rows)
        .build()
}

// ----------------------------------------------------------------- faults

/// The counters one drive of a fault cell produces.
#[derive(Debug, PartialEq)]
struct Drive {
    commits: usize,
    incremental: usize,
    retries: u32,
    fallbacks: u32,
    max_retries: u32,
    stats: RunStats,
    color_hash: String,
}

/// One full drive of a cell: the initial build plus `epochs` flap epochs
/// (delete a window, commit, reinsert it, commit), checking legality after
/// every epoch.
fn drive(base: &Graph, transport: Option<Arc<dyn Transport>>, epochs: usize, flap: usize) -> Drive {
    let mut cfg = RecolorConfig::default();
    if let Some(t) = transport {
        cfg = cfg.with_transport(t);
    }
    let mut r = Recolorer::from_graph_with(base.clone(), edge_log_depth(1), MessageMode::Long, cfg)
        .expect("preset params");
    let mut reports = vec![r.commit().expect("valid batch")];
    for step in 0..epochs {
        let edges: Vec<_> = r.graph().edges().skip(step * 29).take(flap).collect();
        for &(u, v) in &edges {
            r.delete_edge(u, v).expect("edge exists");
        }
        reports.push(r.commit().expect("valid batch"));
        for &(u, v) in &edges {
            r.insert_edge(u, v).expect("edge was deleted");
        }
        reports.push(r.commit().expect("valid batch"));
        let coloring = r.coloring();
        assert!(coloring.is_proper(r.graph()), "epoch {step}: improper coloring");
        let bound = r.color_bound();
        assert!(coloring.colors().iter().all(|&c| c < bound), "epoch {step}: bound exceeded");
    }
    Drive {
        commits: reports.len(),
        incremental: reports
            .iter()
            .filter(|rep| rep.strategy == RepairStrategy::Incremental)
            .count(),
        retries: reports.iter().map(|rep| rep.retries).sum(),
        fallbacks: reports.iter().map(|rep| rep.fallbacks).sum(),
        max_retries: reports.iter().map(|rep| rep.retries).max().unwrap_or(0),
        stats: reports.iter().fold(RunStats::zero(), |acc, rep| acc + rep.stats),
        color_hash: fnv_hex(r.coloring().into_colors()),
    }
}

fn faults() -> Value {
    let (n, cap, epochs, flap, seed) = (2_000, 6, 3, 12, 0x6F6u64);
    let base = generators::random_bounded_degree(n, cap, seed);
    let faulty = || FaultyTransport::new(seed);
    let cells: [(&str, Option<Arc<dyn Transport>>); 6] = [
        ("perfect", None),
        ("drop", Some(Arc::new(faulty().with_drop(150_000)))),
        ("delay", Some(Arc::new(faulty().with_delay(120_000, 3)))),
        ("reorder", Some(Arc::new(faulty().with_reorder(100_000)))),
        (
            "mixed",
            Some(Arc::new(faulty().with_drop(80_000).with_delay(80_000, 2).with_reorder(60_000))),
        ),
        // Total loss: every incremental commit burns its full retry budget
        // and degrades to the fault-free from-scratch fallback, pinning the
        // retry and fallback counters at their non-zero worst case.
        ("blackout", Some(Arc::new(faulty().with_drop(1_000_000)))),
    ];

    let mut rows = Vec::new();
    for (name, transport) in cells {
        let d = drive(&base, transport.clone(), epochs, flap);
        assert_eq!(
            d,
            drive(&base, transport, epochs, flap),
            "{name}: counters must be a pure function of the transport seed"
        );
        assert!(
            d.max_retries <= 5 && d.fallbacks as usize <= d.commits,
            "{name}: retry/fallback budget exceeded"
        );
        if name == "perfect" {
            assert!(
                d.retries == 0 && d.fallbacks == 0 && d.stats.transport_dropped == 0,
                "the fault machinery must be invisible on the perfect transport"
            );
        }
        println!(
            "   {name}: {} retries, {} fallbacks, {} dropped",
            d.retries, d.fallbacks, d.stats.transport_dropped
        );
        rows.push(
            Obj::new()
                .field("cell", name)
                .field("commits", d.commits)
                .field("incremental_commits", d.incremental)
                .field("retries", d.retries as usize)
                .field("fallbacks", d.fallbacks as usize)
                .field("max_retries_per_commit", d.max_retries as usize)
                .field("rounds", d.stats.rounds)
                .field("node_rounds", d.stats.node_rounds)
                .field("messages", d.stats.messages)
                .field("transport_dropped", d.stats.transport_dropped)
                .field("color_hash", d.color_hash)
                .build(),
        );
    }
    Obj::new()
        .field("n", n)
        .field("delta_cap", cap)
        .field("epochs", epochs)
        .field("flap_edges", flap)
        .field("transport_seed", seed as usize)
        .field("cells", rows)
        .build()
}

// -------------------------------------------------------------- machinery

fn machinery() -> Value {
    // A 1% batch at m ≈ 200k, topology only, so repair does not dilute
    // the byte ratio.
    let (n, cap) = (50_000, 8);
    let big = generators::random_bounded_degree(n, cap, 0xb16);
    let big_m = big.m();
    let batch = churn_trace_from(&big, cap, 1, big_m / 100, 0xb16).batches()[1].to_vec();
    let mut sg = SegmentedGraph::from_graph(&big);
    let mut mg = MutableGraph::from_graph(big);
    for &op in &batch {
        match op {
            TraceOp::Insert(u, v) => sg.insert_edge(u, v).expect("valid batch"),
            TraceOp::Delete(u, v) => sg.delete_edge(u, v).expect("valid batch"),
            _ => unreachable!("churn batches only insert/delete"),
        }
    }
    queue_graph(&mut mg, &batch);
    let seg_bytes = sg.commit().expect("valid batch").commit_bytes;
    let full_bytes = mg.commit().expect("valid batch").commit_bytes;
    assert_eq!(&sg.to_graph().0, mg.graph(), "large-m snapshots diverge");
    assert!(
        seg_bytes * 10 <= full_bytes,
        "segmented commit must write >=10x fewer bytes on large-m: {seg_bytes} vs {full_bytes}"
    );
    println!("   large-m: segmented {seg_bytes} B vs full rewrite {full_bytes} B");

    // Heavy-tailed churn: hubs at Δ = 64 > λ = 48 keep the long-mode and
    // spill paths hot in both stores.
    let trace = power_law_churn_trace(2_000, 64, 3, 20, 0x9072);
    let params = edge_log_depth(1);
    let mut legacy = Recolorer::new(trace.n0, params, MessageMode::Long).expect("preset params");
    let mut seg = SegRecolorer::new(trace.n0, params, MessageMode::Long).expect("preset params");
    let mut rows = Vec::new();
    for (c, batch) in trace.batches().into_iter().enumerate() {
        let (a, b, colors) =
            commit_pair(&mut legacy, &mut seg, batch, &format!("power_law commit {c}"));
        if c > 0 {
            rows.push(store_row("power_law", c, &a, &b, &colors));
        }
    }
    Obj::new()
        .field(
            "large_m_machinery",
            Obj::new()
                .field("n", n)
                .field("m", big_m)
                .field("churn_edges", big_m / 100)
                .field("segmented_commit_bytes", seg_bytes)
                .field("full_rewrite_commit_bytes", full_bytes)
                .build(),
        )
        .field("store_commits", rows)
        .build()
}

// ------------------------------------------------------------------ serve

const TENANTS: usize = 1000;
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// One fleet run's deterministic outcome.
#[derive(Debug, PartialEq)]
struct Fleet {
    /// Per tenant: transcript and snapshot fingerprints.
    prints: Vec<(u64, u64)>,
    fleet: u64,
    total_commits: usize,
    total_node_rounds: u64,
    total_messages: u64,
}

/// Streams the whole fleet, batch-interleaved, at one shard count.
fn run_fleet(shards: usize, commits: usize) -> Fleet {
    // Seeds, sizes and knobs vary with the tenant index so the fleet is
    // heterogeneous.
    let traces: Vec<Trace> = (0..TENANTS)
        .map(|i| churn_trace(36 + (i % 5) * 8, 4, commits, 4, 0x9e17e ^ i as u64))
        .collect();
    let serve = Serve::start(ServeConfig::default().with_shards(shards));
    let ids: Vec<_> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let engine = if i % 2 == 0 { EngineKind::Legacy } else { EngineKind::Segmented };
            let spec = TenantSpec::new(format!("t{i}"), t.n0)
                .with_engine(engine)
                .with_config(RecolorConfig::default().with_repair_threshold([10, 25, 60][i % 3]));
            serve.register(spec).expect("valid spec")
        })
        .collect();
    // All tenants advance one commit at a time, so the pool always has a
    // fleet's worth of claims in flight and work stealing runs for real.
    let max_batches = traces.iter().map(|t| t.batches().len()).max().unwrap_or(0);
    for b in 0..max_batches {
        for (&id, trace) in ids.iter().zip(&traces) {
            let Some(batch) = trace.batches().get(b).copied() else { continue };
            for &op in batch {
                serve.submit_blocking(id, op).expect("valid trace");
            }
            serve.commit_blocking(id).expect("valid trace");
        }
    }
    serve.drain();

    let mut out = Fleet {
        prints: Vec::with_capacity(TENANTS),
        fleet: serve.fleet_fingerprint(),
        total_commits: 0,
        total_node_rounds: 0,
        total_messages: 0,
    };
    for &id in &ids {
        assert!(serve.errors(id).expect("registered").is_empty(), "tenant {id} errored");
        let reports = serve.reports(id).expect("registered");
        let snap = serve.snapshot(id).expect("registered");
        assert!(snap.coloring.is_proper(&snap.graph), "tenant {id}: improper coloring");
        out.total_commits += reports.len();
        for r in &reports {
            out.total_node_rounds += r.stats.node_rounds as u64;
            out.total_messages += r.stats.messages as u64;
        }
        out.prints.push((reports_fingerprint(&reports), snap.fingerprint()));
    }
    serve.shutdown();
    out
}

fn serve() -> Value {
    let commits = 3;
    let base = run_fleet(SHARD_COUNTS[0], commits);
    for &shards in &SHARD_COUNTS[1..] {
        let run = run_fleet(shards, commits);
        for (t, (a, b)) in base.prints.iter().zip(&run.prints).enumerate() {
            assert!(a.0 == b.0, "tenant {t}: transcript fingerprint moved at {shards} shards");
            assert!(a.1 == b.1, "tenant {t}: snapshot fingerprint moved at {shards} shards");
        }
        assert!(base == run, "fleet fingerprint or totals moved at {shards} shards");
    }
    println!("   fleet fingerprint {:016x} at shards {SHARD_COUNTS:?}", base.fleet);
    Obj::new()
        .field("tenants", TENANTS)
        .field("churn_commits_per_tenant", commits)
        .field("shard_counts", array(SHARD_COUNTS))
        .field("total_commits", base.total_commits)
        .field("total_node_rounds", base.total_node_rounds)
        .field("total_messages", base.total_messages)
        .field("fleet_fingerprint", format!("{:016x}", base.fleet))
        .build()
}
