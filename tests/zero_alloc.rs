//! Pins the slot engine's zero-allocation steady state: once buffers reach
//! their steady size, additional rounds of a broadcast protocol allocate
//! (essentially) nothing — the delivery path is arena writes only. The
//! naive reference engine, by contrast, allocates per round by design.
//! The disabled probe is pinned free too: gating on it never allocates.
//!
//! Allocation counts are deterministic for a fixed sequential run, so the
//! assertions are exact-science, not flaky heuristics. The counter is
//! process-global and libtest runs tests concurrently, so each test holds
//! [`MEASURING`] for its whole body: neither counts the other's
//! allocations, at any test-thread count. A zero-allocation assert reads
//! the per-thread count instead, which the harness's own work on its other
//! threads (spawning the next test, printing progress) never reaches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations made by the current thread.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Bumps both counters. The thread-local has a const initializer and no
/// destructor, so touching it never allocates.
fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates everything to the system allocator; the counters are a
// relaxed atomic and a thread-local cell with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
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
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the measuring tests.
static MEASURING: Mutex<()> = Mutex::new(());

/// Takes [`MEASURING`]; a test that failed while holding it must not fail
/// the other one too.
fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

use deco_graph::generators;
use deco_local::{Action, Engine, Network, NodeCtx, Protocol};
use std::sync::Arc;

/// Allocations `f` makes on the calling thread.
fn allocs(f: impl FnOnce()) -> usize {
    let before = THREAD_ALLOCS.with(Cell::get);
    f();
    THREAD_ALLOCS.with(Cell::get) - before
}

#[test]
fn null_probe_gate_allocates_nothing() {
    let _serial = measuring();
    let null = deco_probe::null(); // initialize the shared Arc up front
    let gate_allocs = allocs(|| {
        for _ in 0..1_000_000 {
            let p = Arc::clone(&null);
            assert!(!p.enabled(), "the null probe must stay disabled");
        }
    });
    assert_eq!(gate_allocs, 0, "the disabled-probe gate must not allocate");
}

/// Broadcast a counter for a fixed number of rounds — the steady-state
/// delivery workload (`Action::Broadcast` keeps even the protocol layer
/// allocation-free after `start`).
struct Pulse {
    rounds: usize,
    acc: u64,
}

impl Protocol for Pulse {
    type Msg = u64;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, u64)> {
        ctx.broadcast(ctx.ident)
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(usize, u64)]) -> Action<u64> {
        for &(_, m) in inbox {
            self.acc = self.acc.wrapping_add(m);
        }
        if ctx.round >= self.rounds {
            Action::halt()
        } else {
            Action::Broadcast(self.acc)
        }
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.acc
    }
}

fn allocs_for(engine: Engine, rounds: usize) -> usize {
    let g = generators::random_bounded_degree(2000, 8, 0xa110c);
    // One thread: a parallel round spawns scoped threads, which allocate.
    let net = Network::new(&g).with_engine(engine).with_threads(1);
    let before = ALLOCS.load(Ordering::Relaxed);
    let run = net.run(|_| Pulse { rounds, acc: 0 });
    assert_eq!(run.stats.rounds, rounds);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn slot_engine_steady_state_allocates_nothing_per_round() {
    let _serial = measuring();
    // Warm up whatever lazy global state the first run touches.
    let _ = allocs_for(Engine::Slot, 4);
    let short = allocs_for(Engine::Slot, 10);
    let long = allocs_for(Engine::Slot, 110);
    let per_round_extra = long.saturating_sub(short);
    // 100 extra rounds of steady-state delivery: the only growth is the
    // profile vector doubling a handful of times. Anything per-node or
    // per-message would show up as tens of thousands of allocations.
    assert!(
        per_round_extra < 64,
        "slot engine allocated {per_round_extra} times across 100 steady-state rounds"
    );

    let naive_short = allocs_for(Engine::Naive, 10);
    let naive_long = allocs_for(Engine::Naive, 110);
    let naive_extra = naive_long - naive_short;
    // The naive engine allocates per round by design (fresh inbox vectors);
    // the contrast is the point of the refactor.
    assert!(
        naive_extra > 100 * 100,
        "naive engine unexpectedly frugal: {naive_extra} allocations in 100 rounds"
    );
}

/// The long-mode ψ-count traffic shape of the Theorem 5.5 pipeline:
/// every node broadcasts a ready flag plus `p = 16` counts each round —
/// 17 fields, far past `FieldMsg`'s 3-field inline buffer, so every message
/// carries a spill span. Pre-PR 5 each such message (and every delivery
/// clone of it) was one heap allocation; with the pooled spill arena a
/// dense long-mode round allocates nothing once the arena is warm.
struct LongPulse {
    rounds: usize,
    p: usize,
    acc: u64,
    /// Reused field builder — the idiom the real protocols use.
    scratch: Vec<(u64, u64)>,
}

impl LongPulse {
    fn msg(&mut self) -> deco_core::msg::FieldMsg {
        self.scratch.clear();
        self.scratch.push((self.acc & 1, 2));
        for k in 0..self.p as u64 {
            self.scratch.push(((self.acc >> (k % 48)) & 0xff, 256));
        }
        deco_core::msg::FieldMsg::new(&self.scratch)
    }
}

impl Protocol for LongPulse {
    type Msg = deco_core::msg::FieldMsg;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, Self::Msg)> {
        self.acc = ctx.ident;
        let m = self.msg();
        ctx.neighbors.iter().map(|&u| (u, m.clone())).collect()
    }

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(usize, Self::Msg)]) -> Action<Self::Msg> {
        for (_, m) in inbox {
            debug_assert_eq!(m.len(), self.p + 1);
            for &v in &m.fields()[1..] {
                self.acc = self.acc.rotate_left(5).wrapping_add(v);
            }
        }
        if ctx.round >= self.rounds {
            Action::halt()
        } else {
            Action::Broadcast(self.msg())
        }
    }

    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.acc
    }
}

fn long_mode_allocs_for(rounds: usize) -> usize {
    let g = generators::random_bounded_degree(2000, 8, 0xa110c);
    // One thread: a parallel round spawns scoped threads, which allocate.
    let net = Network::new(&g).with_threads(1);
    let before = ALLOCS.load(Ordering::Relaxed);
    let run = net.run(|_| LongPulse { rounds, p: 16, acc: 0, scratch: Vec::new() });
    assert_eq!(run.stats.rounds, rounds);
    assert!(run.stats.max_message_bits >= 16 * 8, "messages must actually be long-mode");
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn dense_long_mode_rounds_allocate_nothing_once_spill_arena_is_warm() {
    let _serial = measuring();
    // Warm the engine buffers and the spill arena's chunk pool.
    let _ = long_mode_allocs_for(4);
    let spill_before = deco_local::spill::stats();
    let short = long_mode_allocs_for(10);
    let long = long_mode_allocs_for(110);
    let per_round_extra = long.saturating_sub(short);
    // 100 extra dense rounds × 2000 nodes × ~8 deliveries of a 17-field
    // message: the pre-arena representation allocated (at least) one Vec
    // per constructed message — ≥ 200k allocations. With the spill arena
    // the only growth is the profile vector doubling a handful of times.
    assert!(
        per_round_extra < 64,
        "dense long-mode rounds allocated {per_round_extra} times across 100 extra rounds"
    );
    // And the arena itself stayed warm: both runs (120 rounds, ~2M long
    // messages constructed and cloned) were served entirely from the pool
    // populated by the warm-up run.
    let spill_after = deco_local::spill::stats();
    assert_eq!(spill_after, spill_before, "spill arena kept allocating after the warm-up run");
}

/// A churn repair's region: `edges` evenly spaced edges of a
/// bounded-degree host, on the touched vertices renumbered by rank — a
/// near-matching.
fn churn_region(host_n: usize, edges: usize, seed: u64) -> deco_graph::Graph {
    let host = generators::random_bounded_degree(host_n, 8, seed);
    let picked: Vec<(usize, usize)> = host.edges().step_by(host.m() / edges).take(edges).collect();
    let mut touched: Vec<usize> = picked.iter().flat_map(|&(u, v)| [u, v]).collect();
    touched.sort_unstable();
    touched.dedup();
    let rank = |v: usize| touched.binary_search(&v).unwrap();
    let edges: Vec<(usize, usize)> = picked.iter().map(|&(u, v)| (rank(u), rank(v))).collect();
    deco_graph::Graph::from_edges(touched.len(), &edges).unwrap()
}

/// The Panconesi–Rizzi forest decomposition: a vertex's `f`-th edge toward
/// a smaller identifier joins forest `f`, oriented toward that neighbor.
fn ident_forest(g: &deco_graph::Graph) -> Vec<(u64, usize)> {
    let mut out = vec![(0, 0); g.m()];
    for v in 0..g.n() {
        let mut parents: Vec<(u64, usize, usize)> = g
            .incident(v)
            .filter(|&(u, _)| g.ident(u) < g.ident(v))
            .map(|(u, e)| (g.ident(u), u, e))
            .collect();
        parents.sort_unstable();
        for (f, &(_, u, e)) in parents.iter().enumerate() {
            out[e] = (f as u64, u);
        }
    }
    out
}

#[test]
fn cole_vishkin_allocates_a_few_times_per_region_vertex() {
    use deco_core::cole_vishkin::cv_three_color;
    let _serial = measuring();
    let g = churn_region(50_000, 2_000, 1);
    assert!(g.m() == 2_000 && g.n() >= 3_800, "region {} vertices, {} edges", g.n(), g.m());
    let spec = ident_forest(&g);
    let net = Network::new(&g).with_threads(1);
    // Warm up whatever lazy global state the first run touches.
    let _ = cv_three_color(&net, &spec);
    let before = ALLOCS.load(Ordering::Relaxed);
    let (colors, _) = cv_three_color(&net, &spec);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(colors.len(), g.n());
    // Per node: its slot state and its output. The structure is built
    // once into flat shared tables, and only non-root parents send.
    assert!(
        allocs <= 3 * g.n(),
        "Cole–Vishkin allocated {allocs} times on a {}-vertex region ({:.1} per vertex)",
        g.n(),
        allocs as f64 / g.n() as f64
    );
}
