//! **PR8 — probe overhead and profile determinism**: the observability
//! layer must be free when off and honest when on.
//!
//! Three claims, measured on the pr3/pr4/pr7 acceptance workload
//! (`churn_trace(n = 50k, Δ ≤ 8)`, 1% churn per commit, same seed):
//!
//! * **A. determinism matrix** — the full replay is recorded under every
//!   `DECO_THREADS` {1, 2, 8} × `DECO_DELIVERY` {scan, push, adaptive}
//!   combination; the nine deterministic event-stream digests are
//!   **hard-asserted identical** and the shared digest lands in the json
//!   as an exact-match gate counter.
//! * **B. zero-cost-when-disabled** — a million `enabled()` gates plus
//!   `Arc` clone/drop of the shared null probe are **hard-asserted** to
//!   perform zero heap allocations (counting allocator), and the
//!   null-probe replay's `CommitReport`s are hard-asserted bit-identical
//!   to the recording replay's — an enabled probe observes the run, it
//!   never changes it.
//! * **C. overhead when on** — interleaved medians of a steady-state
//!   churn commit under the null and recording probes (wall is
//!   informational, ±10% container noise; the deterministic counters
//!   above are the gate).
//!
//! Results land in `BENCH_pr8.json` (override with `DECO_BENCH_OUT`;
//! `DECO_BENCH_SCALE=full` deepens the run).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates everything to the system allocator; the counter is a
// relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's layout contract untouched to the
    // system allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's layout contract untouched to the
    // system allocator; the count bump has no safety obligations.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use deco_bench::json::Obj;
use deco_bench::{banner, millis, scale, time_interleaved, Scale};
use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_graph::generators;
use deco_graph::trace::{churn_trace_from, Trace};
use deco_probe::{Event, Probe, RecordingProbe};
use deco_stream::{replay_trace_probed, CommitReport, Recolorer, RegionRecolor, ReplayOutcome};
use std::sync::Arc;

fn allocs(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn replay(trace: &Trace, probe: Arc<dyn Probe>) -> ReplayOutcome {
    replay_trace_probed(trace, edge_log_depth(1), MessageMode::Long, 25, probe)
        .expect("valid trace")
}

fn main() {
    banner("PR8 / probe", "zero-cost-when-disabled tracing, deterministic profiles");
    let full = scale() == Scale::Full;
    let samples = if full { 7 } else { 3 };

    // The pr3/pr4/pr7 acceptance workload: n = 50k, Δ ≤ 8, 1% churn.
    let (n, cap, commits) = (50_000usize, 8usize, if full { 6 } else { 3 });
    println!("workload: churn_trace(n={n}, Δ≤{cap}, {commits} churn commits @ 1%)\n");
    let base = generators::random_bounded_degree(n, cap, 0x9126);
    let churn = base.m() / 100;
    let trace = churn_trace_from(&base, cap, commits, churn, 0x9126);
    drop(base);

    // A. Determinism matrix: nine (threads × delivery) legs, one digest.
    // The simulator spawns scoped worker threads per run and none survive
    // it, so re-pointing the env between legs is race-free here.
    println!("A: event-stream digest across DECO_THREADS x DECO_DELIVERY ...");
    let mut digests: Vec<(String, u64)> = Vec::new();
    let mut reports_by_leg: Vec<Vec<CommitReport>> = Vec::new();
    for threads in ["1", "2", "8"] {
        for delivery in ["scan", "push", "adaptive"] {
            std::env::set_var("DECO_THREADS", threads);
            std::env::set_var("DECO_DELIVERY", delivery);
            let probe = Arc::new(RecordingProbe::new());
            let out = replay(&trace, probe.clone());
            digests.push((format!("t{threads}/{delivery}"), probe.digest()));
            reports_by_leg.push(out.reports);
        }
    }
    let digest = digests[0].1;
    for (leg, d) in &digests {
        assert_eq!(*d, digest, "leg {leg} diverged from {}", digests[0].0);
    }
    for legs in reports_by_leg.windows(2) {
        assert_eq!(legs[0], legs[1], "CommitReports diverged across matrix legs");
    }
    println!("   {} legs, shared digest {digest:#018x}", digests.len());

    // The recorded stream for the event census and gate totals, pinned to
    // t1/scan. The gated deterministic counters are leg-invariant (asserted
    // above), but `Env` events legitimately vary with the execution
    // environment, so the census leg runs under one fixed setting rather
    // than whatever machine default the process inherits. (t1/scan is also
    // what this census measured historically, when the env defaults were
    // frozen at first read — the baseline bytes predate the fix.)
    std::env::set_var("DECO_THREADS", "1");
    std::env::set_var("DECO_DELIVERY", "scan");
    let probe = Arc::new(RecordingProbe::new());
    let out = replay(&trace, probe.clone());
    std::env::remove_var("DECO_THREADS");
    std::env::remove_var("DECO_DELIVERY");
    let events = probe.take();
    let count = |f: &dyn Fn(&Event) -> bool| events.iter().filter(|e| f(e)).count();
    let round_samples = count(&|e| matches!(e, Event::Round { .. }));
    let phase_exits = count(&|e| matches!(e, Event::PhaseExit { .. }));
    let commit_exits = count(&|e| matches!(e, Event::CommitExit { .. }));
    let commit_bytes_events = count(&|e| matches!(e, Event::CommitBytes { .. }));
    let env_events = count(&|e| matches!(e, Event::Env { .. }));
    let mut totals = deco_local::RunStats::zero();
    for rep in &out.reports {
        totals += rep.stats;
    }

    // B. Zero-cost-when-disabled, both halves hard-asserted.
    println!("B: disabled-probe cost ...");
    let null = deco_probe::null(); // initialize the shared Arc up front
    let gate_allocs = allocs(|| {
        for _ in 0..1_000_000 {
            let p = Arc::clone(&null);
            assert!(!p.enabled(), "the null probe must stay disabled");
        }
    });
    assert_eq!(gate_allocs, 0, "the disabled-probe gate must not allocate");
    let plain = replay(&trace, deco_probe::null());
    assert_eq!(
        plain.reports, out.reports,
        "a recording probe must not change any commit's counters"
    );
    println!("   1M enabled() gates + Arc traffic: {gate_allocs} allocations");

    // C. Steady-state commit overhead, null vs recording probe. Clone and
    // queueing ride inside both closures equally; the recording probe is
    // drained per pass so its buffer never compounds.
    println!("C: commit wall overhead (interleaved medians, {samples} samples) ...");
    let built_null = {
        let mut r =
            Recolorer::new(trace.n0, edge_log_depth(1), MessageMode::Long).expect("preset params");
        for &op in trace.batches()[0] {
            r.queue_op(op).expect("valid trace");
        }
        r.commit().expect("valid trace");
        r
    };
    let recording = Arc::new(RecordingProbe::new());
    let built_rec = {
        let mut r = built_null.clone();
        r.set_probe(recording.clone());
        r
    };
    let batch = trace.batches()[1].to_vec();
    let mut alloc_null = 0usize;
    let mut alloc_rec = 0usize;
    let medians = time_interleaved(
        samples,
        &mut [
            &mut || {
                alloc_null = allocs(|| {
                    let mut r = built_null.clone();
                    for &op in &batch {
                        r.queue_op(op).expect("valid trace");
                    }
                    r.commit().expect("valid trace");
                });
            },
            &mut || {
                alloc_rec = allocs(|| {
                    let mut r = built_rec.clone();
                    for &op in &batch {
                        r.queue_op(op).expect("valid trace");
                    }
                    r.commit().expect("valid trace");
                });
                recording.take();
            },
        ],
    );
    let (null_med, rec_med) = (medians[0], medians[1]);
    println!(
        "   null {} vs recording {} per commit ({} extra allocations when recording)",
        millis(null_med),
        millis(rec_med),
        alloc_rec.saturating_sub(alloc_null)
    );

    let json = Obj::new()
        .field("bench", "pr8_probe")
        .field("scale", if full { "full" } else { "quick" })
        .field("samples", samples)
        .field("n", n)
        .field("delta_cap", cap)
        .field("churn_edges_per_commit", churn)
        .field("matrix_legs", digests.len())
        .field("event_digest", format!("{digest:016x}"))
        .field("deterministic_events", events.iter().filter(|e| e.is_deterministic()).count())
        .field("round_samples", round_samples)
        .field("phase_exit_events", phase_exits)
        .field("commit_exit_events", commit_exits)
        .field("commit_bytes_events", commit_bytes_events)
        .field("env_event_count", env_events)
        .field("total_rounds", totals.rounds)
        .field("total_messages", totals.messages)
        .field("total_node_rounds", totals.node_rounds)
        .field("total_commit_bytes", totals.commit_bytes)
        .field(
            "acceptance",
            Obj::new()
                .field(
                    "criterion",
                    "one event-stream digest across all nine DECO_THREADS x \
                     DECO_DELIVERY legs and bit-identical CommitReports between the \
                     null and recording probes (both hard-asserted above); the \
                     disabled-probe gate performs zero heap allocations \
                     (hard-asserted, counting allocator); wall medians are \
                     informational",
                )
                .field("met", true)
                .field("null_gate_allocs", gate_allocs)
                .field("null_commit_ms", null_med.as_secs_f64() * 1e3)
                .field("recording_commit_ms", rec_med.as_secs_f64() * 1e3)
                .field("null_commit_allocs", alloc_null)
                .field("recording_commit_allocs", alloc_rec)
                .build(),
        )
        .build();
    let out_path = std::env::var("DECO_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_pr8.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, deco_bench::json::to_string(&json)).expect("write bench json");
    println!("wrote {out_path}");
}
