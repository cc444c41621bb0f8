//! Plain-text mutation traces: replayable, diffable churn workloads.
//!
//! A trace drives a [`MutableGraph`](crate::MutableGraph) (and the streaming
//! recolorer built on it) through a sequence of mutation batches. The format
//! follows the [`crate::io`] edge-list style — line-oriented, 0-based
//! vertices, `#` comments:
//!
//! ```text
//! # comment
//! t <n0>              header: initial vertex count (graph starts edgeless)
//! + <u> <v>           insert edge
//! - <u> <v>           delete edge
//! v <count>           add <count> vertices
//! i <vertex> <ident>  identifier override
//! shrink              compaction: drop isolated vertices, renumber survivors
//! commit              end of batch: apply everything queued since the last commit
//! ```
//!
//! Operations between two `commit` lines form one atomic batch. Operations
//! after the last `commit` are preserved by the round-trip but ignored by
//! replay drivers (a trace should end with `commit`).
//!
//! [`churn_trace`] generates the canonical benchmark workload: a seeded
//! random bounded-degree graph built in the first commit, followed by
//! commits that each delete and insert a fixed number of random edges
//! (steady-state churn at constant density). Same parameters ⇒ identical
//! trace text ⇒ identical replay, which is what the determinism contract
//! extends over.

use crate::{generators, Graph, Vertex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// One trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Insert the undirected edge `(u, v)`.
    Insert(Vertex, Vertex),
    /// Delete the undirected edge `(u, v)`.
    Delete(Vertex, Vertex),
    /// Add this many vertices.
    AddVertices(usize),
    /// Override the identifier of a vertex.
    SetIdent(Vertex, u64),
    /// Drop all currently-isolated vertices and renumber the survivors
    /// (order preserved, identifiers carried) — the compaction op for
    /// long-running growth workloads, which otherwise accumulate isolated
    /// vertices at `O(n)` cost per commit. Operations after a `shrink` in
    /// the same batch address the compacted numbering.
    Shrink,
    /// Apply everything queued since the previous commit.
    Commit,
}

/// A parsed mutation trace: initial vertex count plus operations in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Initial vertex count (the graph starts with no edges).
    pub n0: usize,
    /// Operations, in file order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Number of `commit` lines.
    pub fn commit_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, TraceOp::Commit)).count()
    }

    /// The *net* edge churn of each commit batch: edges inserted that were
    /// not deleted again within the batch, and vice versa.
    ///
    /// This is the actual per-commit churn a replay will observe, which can
    /// exceed the nominal request of [`churn_trace`]: on a near-saturated
    /// graph its capacity fallback deletes extra edges to make room for the
    /// requested insertions (so `deleted > inserted` churn is the fallback's
    /// signature). A pair that toggles within one batch (deleted and
    /// reinserted, or inserted and deleted) cancels out, matching the net
    /// semantics of `CommitDelta`.
    ///
    /// Accounting is **by written pair label**. In a batch containing a
    /// `shrink`, ops before and after the compaction address different
    /// numberings, so labels no longer identify physical edges: a pair
    /// deleted pre-shrink and reinserted under its post-shrink label counts
    /// as one delete plus one insert here, while the replayed
    /// `CommitDelta` nets it out (and label collisions can cancel churn
    /// that is physically real). For exact cross-shrink accounting, replay
    /// the trace and read the deltas; batches without `shrink` — every
    /// generated churn workload — match the replay exactly.
    pub fn net_churn(&self) -> Vec<BatchChurn> {
        self.batches()
            .into_iter()
            .map(|batch| {
                // first/last op per pair: net insert = (Insert, Insert),
                // net delete = (Delete, Delete); mixed pairs cancel.
                // tidy: allow(hash-iter) — per-pair first/last flags; the
                // values() fold below only sums commutative counts.
                let mut seen: std::collections::HashMap<(Vertex, Vertex), (bool, bool)> =
                    std::collections::HashMap::new();
                for op in batch {
                    let (pair, is_insert) = match *op {
                        TraceOp::Insert(u, v) => ((u.min(v), u.max(v)), true),
                        TraceOp::Delete(u, v) => ((u.min(v), u.max(v)), false),
                        _ => continue,
                    };
                    seen.entry(pair)
                        .and_modify(|(_, last)| *last = is_insert)
                        .or_insert((is_insert, is_insert));
                }
                let mut churn = BatchChurn { inserted: 0, deleted: 0 };
                for &(first, last) in seen.values() {
                    match (first, last) {
                        (true, true) => churn.inserted += 1,
                        (false, false) => churn.deleted += 1,
                        _ => {}
                    }
                }
                churn
            })
            .collect()
    }

    /// The operations of each commit batch, in order (`commit` markers
    /// excluded; trailing uncommitted operations dropped).
    pub fn batches(&self) -> Vec<&[TraceOp]> {
        let mut out = Vec::new();
        let mut start = 0;
        for (i, op) in self.ops.iter().enumerate() {
            if matches!(op, TraceOp::Commit) {
                out.push(&self.ops[start..i]);
                start = i + 1;
            }
        }
        out
    }
}

/// Net edge churn of one commit batch (see [`Trace::net_churn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchChurn {
    /// Edges present after the batch that were absent before it.
    pub inserted: usize,
    /// Edges absent after the batch that were present before it.
    pub deleted: usize,
}

/// Error from [`parse_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseTraceError {
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        what: String,
    },
    /// The `t` header is missing, duplicated, or not first.
    BadHeader,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::BadLine { line, what } => write!(f, "line {line}: {what}"),
            ParseTraceError::BadHeader => write!(f, "missing or duplicate 't' header"),
        }
    }
}

impl Error for ParseTraceError {}

/// Serializes a trace to the plain-text format (inverse of [`parse_trace`]).
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(&format!("t {}\n", trace.n0));
    for op in &trace.ops {
        match *op {
            TraceOp::Insert(u, v) => out.push_str(&format!("+ {u} {v}\n")),
            TraceOp::Delete(u, v) => out.push_str(&format!("- {u} {v}\n")),
            TraceOp::AddVertices(k) => out.push_str(&format!("v {k}\n")),
            TraceOp::SetIdent(v, ident) => out.push_str(&format!("i {v} {ident}\n")),
            TraceOp::Shrink => out.push_str("shrink\n"),
            TraceOp::Commit => out.push_str("commit\n"),
        }
    }
    out
}

/// Parses the trace format described in the module docs.
///
/// Structural validity (tags and integer fields) plus one size bound: the
/// `t` count plus all `v` counts so far may not exceed `u32::MAX`, since
/// both graph stores address vertices as `u32`. Range and existence checks
/// belong to the replaying [`MutableGraph`](crate::MutableGraph), which
/// knows the evolving topology.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on malformed input.
///
/// # Example
///
/// ```
/// use deco_graph::trace;
///
/// let t = trace::parse_trace("t 3\n+ 0 1\n+ 1 2\ncommit\n- 0 1\ncommit\n")?;
/// assert_eq!(t.n0, 3);
/// assert_eq!(t.commit_count(), 2);
/// assert_eq!(trace::parse_trace(&trace::to_text(&t))?, t);
/// # Ok::<(), trace::ParseTraceError>(())
/// ```
pub fn parse_trace(text: &str) -> Result<Trace, ParseTraceError> {
    let mut n0: Option<usize> = None;
    let mut vertices = 0u64;
    let mut ops = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        // INVARIANT: splitting a non-empty trimmed line always yields a first token.
        let tag = parts.next().expect("nonempty line has a first token");
        let mut next_num = |what: &str| -> Result<u64, ParseTraceError> {
            parts.next().and_then(|t| t.parse().ok()).ok_or_else(|| ParseTraceError::BadLine {
                line: line_no,
                what: format!("expected {what}"),
            })
        };
        let mut grow = |k: u64| -> Result<usize, ParseTraceError> {
            vertices = vertices.saturating_add(k);
            if vertices > u64::from(u32::MAX) {
                let what = format!("vertex count exceeds {}", u32::MAX);
                return Err(ParseTraceError::BadLine { line: line_no, what });
            }
            Ok(k as usize)
        };
        match tag {
            "t" => {
                if n0.is_some() {
                    return Err(ParseTraceError::BadHeader);
                }
                n0 = Some(grow(next_num("vertex count")?)?);
                continue;
            }
            "+" => ops.push(TraceOp::Insert(
                next_num("endpoint")? as usize,
                next_num("endpoint")? as usize,
            )),
            "-" => ops.push(TraceOp::Delete(
                next_num("endpoint")? as usize,
                next_num("endpoint")? as usize,
            )),
            "v" => ops.push(TraceOp::AddVertices(grow(next_num("vertex count")?)?)),
            "i" => {
                ops.push(TraceOp::SetIdent(next_num("vertex")? as usize, next_num("identifier")?))
            }
            "shrink" => ops.push(TraceOp::Shrink),
            "commit" => ops.push(TraceOp::Commit),
            other => {
                return Err(ParseTraceError::BadLine {
                    line: line_no,
                    what: format!("unknown tag '{other}'"),
                });
            }
        }
        if n0.is_none() {
            return Err(ParseTraceError::BadHeader);
        }
    }
    Ok(Trace { n0: n0.ok_or(ParseTraceError::BadHeader)?, ops })
}

/// The canonical seeded churn workload (see the module docs).
///
/// Commit 1 builds the same graph as
/// [`generators::random_bounded_degree`]`(n, delta_cap, seed)`; each of the
/// `churn_commits` following commits deletes `churn` random existing edges
/// and inserts `churn` random new edges respecting the degree cap (one
/// batch, deletions first). Deterministic for fixed parameters.
///
/// # Panics
///
/// Panics if `delta_cap >= n`, or if the graph runs out of edges or of
/// degree capacity for the requested churn.
pub fn churn_trace(
    n: usize,
    delta_cap: usize,
    churn_commits: usize,
    churn: usize,
    seed: u64,
) -> Trace {
    let base: Graph = generators::random_bounded_degree(n, delta_cap, seed);
    churn_trace_from(&base, delta_cap, churn_commits, churn, seed)
}

/// The heavy-tailed variant of [`churn_trace`]: commit 1 builds
/// [`generators::random_power_law`]`(n, d_max, seed)` — hubs at Δ = `d_max`,
/// sparse tail — and the churn batches respect `d_max` as the cap. With
/// `d_max` above the palette-depth cutoff λ = 48 this drives the streaming
/// engine's long-mode and spill paths on a realistic workload, which the
/// bounded-degree [`churn_trace`] (typically Δ ≤ 8) never reaches.
///
/// # Panics
///
/// Same conditions as [`churn_trace`].
pub fn power_law_churn_trace(
    n: usize,
    d_max: usize,
    churn_commits: usize,
    churn: usize,
    seed: u64,
) -> Trace {
    let base: Graph = generators::random_power_law(n, d_max, seed);
    churn_trace_from(&base, d_max, churn_commits, churn, seed)
}

/// [`churn_trace`] over an explicit base graph: commit 1 inserts exactly
/// `base`'s edges, then `churn_commits` seeded churn batches follow under
/// the given degree cap. Callers that already built (or inspected) the base
/// graph avoid generating it twice; `churn_trace(n, cap, c, k, s)` is
/// exactly `churn_trace_from(&random_bounded_degree(n, cap, s), cap, c, k, s)`.
///
/// # Panics
///
/// Same conditions as [`churn_trace`]; additionally if `base` exceeds
/// `delta_cap`.
pub fn churn_trace_from(
    base: &Graph,
    delta_cap: usize,
    churn_commits: usize,
    churn: usize,
    seed: u64,
) -> Trace {
    let n = base.n();
    assert!(base.max_degree() <= delta_cap, "base graph exceeds the degree cap");
    let mut ops: Vec<TraceOp> = Vec::new();
    let mut edges: Vec<(Vertex, Vertex)> = base.edges().collect();
    // tidy: allow(hash-iter) — membership tests only; candidate edges are
    // drawn from the seeded RNG stream, never from set order.
    let mut exists: std::collections::HashSet<(Vertex, Vertex)> = edges.iter().copied().collect();
    let mut deg = vec![0usize; n];
    for &(u, v) in &edges {
        ops.push(TraceOp::Insert(u, v));
        deg[u] += 1;
        deg[v] += 1;
    }
    ops.push(TraceOp::Commit);
    // Separate stream from the builder's so trace churn is independent of
    // the generator's internal sampling.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ff_ee00_c0ff_ee00);
    for _ in 0..churn_commits {
        assert!(edges.len() >= churn, "graph too small for the requested churn");
        for _ in 0..churn {
            let at = rng.gen_range(0..edges.len());
            let (u, v) = edges.swap_remove(at);
            exists.remove(&(u, v));
            deg[u] -= 1;
            deg[v] -= 1;
            ops.push(TraceOp::Delete(u, v));
        }
        // Insert replacements, sampling endpoints from the pool of vertices
        // with residual capacity (after the deletions the capacity is
        // concentrated on few vertices, so sampling uniform pairs over all
        // of `n` would stall on a near-saturated graph).
        let mut pool: Vec<Vertex> = (0..n).filter(|&v| deg[v] < delta_cap).collect();
        let mut pool_pos = vec![usize::MAX; n];
        for (i, &v) in pool.iter().enumerate() {
            pool_pos[v] = i;
        }
        let mut inserted = 0usize;
        let mut attempts = 0usize;
        while inserted < churn {
            attempts += 1;
            let key = if attempts <= 100 && pool.len() >= 2 {
                // Fast path: sample a pool pair.
                let u = pool[rng.gen_range(0..pool.len())];
                let v = pool[rng.gen_range(0..pool.len())];
                if u == v {
                    continue;
                }
                let key = if u < v { (u, v) } else { (v, u) };
                if !exists.insert(key) {
                    continue;
                }
                key
            } else {
                // Stalled (tiny, mostly-connected pool): enumerate the
                // remaining candidate pairs and pick one uniformly.
                let mut candidates: Vec<(Vertex, Vertex)> = Vec::new();
                for (i, &u) in pool.iter().enumerate() {
                    for &v in &pool[i + 1..] {
                        let key = if u < v { (u, v) } else { (v, u) };
                        if !exists.contains(&key) {
                            candidates.push(key);
                        }
                    }
                }
                if candidates.is_empty() {
                    // Genuinely out of capacity (every pool pair exists):
                    // free some by deleting one more random edge — its
                    // endpoints join the pool and their pair is now a
                    // candidate. The commit's net churn grows accordingly.
                    assert!(!edges.is_empty(), "graph too sparse for the requested churn");
                    let at = rng.gen_range(0..edges.len());
                    let (u, v) = edges.swap_remove(at);
                    exists.remove(&(u, v));
                    ops.push(TraceOp::Delete(u, v));
                    for w in [u, v] {
                        if deg[w] == delta_cap {
                            pool_pos[w] = pool.len();
                            pool.push(w);
                        }
                        deg[w] -= 1;
                    }
                    continue;
                }
                candidates.sort_unstable();
                let key = candidates[rng.gen_range(0..candidates.len())];
                exists.insert(key);
                key
            };
            attempts = 0;
            edges.push(key);
            for w in [key.0, key.1] {
                deg[w] += 1;
                if deg[w] >= delta_cap {
                    let at = pool_pos[w];
                    pool.swap_remove(at);
                    pool_pos[w] = usize::MAX;
                    if at < pool.len() {
                        pool_pos[pool[at]] = at;
                    }
                }
            }
            ops.push(TraceOp::Insert(key.0, key.1));
            inserted += 1;
        }
        ops.push(TraceOp::Commit);
    }
    Trace { n0: n, ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MutableGraph;

    #[test]
    fn roundtrip_hand_written() {
        let text = "# demo\nt 4\n+ 0 1\nv 2\ni 4 99\n+ 1 4\ncommit\n- 0 1\ncommit\n";
        let t = parse_trace(text).unwrap();
        assert_eq!(t.n0, 4);
        assert_eq!(t.commit_count(), 2);
        assert_eq!(
            t.ops[..5],
            [
                TraceOp::Insert(0, 1),
                TraceOp::AddVertices(2),
                TraceOp::SetIdent(4, 99),
                TraceOp::Insert(1, 4),
                TraceOp::Commit,
            ]
        );
        assert_eq!(parse_trace(&to_text(&t)).unwrap(), t);
    }

    #[test]
    fn batches_split_on_commits_and_drop_tail() {
        let t = parse_trace("t 3\n+ 0 1\ncommit\n- 0 1\n+ 1 2\ncommit\n+ 0 2\n").unwrap();
        let batches = t.batches();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], &[TraceOp::Insert(0, 1)]);
        assert_eq!(batches[1], &[TraceOp::Delete(0, 1), TraceOp::Insert(1, 2)]);
    }

    #[test]
    fn malformed_traces_are_specific() {
        assert_eq!(parse_trace("+ 0 1\n"), Err(ParseTraceError::BadHeader));
        assert_eq!(parse_trace(""), Err(ParseTraceError::BadHeader));
        assert_eq!(parse_trace("t 2\nt 3\n"), Err(ParseTraceError::BadHeader));
        assert!(matches!(parse_trace("t 2\n+ 0\n"), Err(ParseTraceError::BadLine { line: 2, .. })));
        assert!(matches!(
            parse_trace("t 2\n- x 1\n"),
            Err(ParseTraceError::BadLine { line: 2, .. })
        ));
        assert!(matches!(parse_trace("t 2\ni 0\n"), Err(ParseTraceError::BadLine { line: 2, .. })));
        assert!(matches!(parse_trace("t 2\nv\n"), Err(ParseTraceError::BadLine { line: 2, .. })));
        assert!(matches!(
            parse_trace("t 2\ne 0 1\n"),
            Err(ParseTraceError::BadLine { line: 2, .. })
        ));
        // Vertex counts past u32::MAX could never commit.
        for text in ["t 18446744073709551615\n", "t 4294967296\n", "t 4294967295\nv 1\n"] {
            assert!(matches!(parse_trace(text), Err(ParseTraceError::BadLine { .. })), "{text}");
        }
        assert_eq!(parse_trace("t 4294967295\n").map(|t| t.n0), Ok(u32::MAX as usize));
        let e = parse_trace("t 2\n+ 0\n").unwrap_err();
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn ident_override_lines_roundtrip() {
        let t = Trace {
            n0: 2,
            ops: vec![TraceOp::SetIdent(0, 41), TraceOp::Insert(0, 1), TraceOp::Commit],
        };
        let text = to_text(&t);
        assert!(text.contains("i 0 41"));
        assert_eq!(parse_trace(&text).unwrap(), t);
        // And the override actually lands when replayed.
        let mut mg = MutableGraph::new(t.n0);
        for batch in t.batches() {
            for op in batch {
                match *op {
                    TraceOp::Insert(u, v) => mg.insert_edge(u, v).unwrap(),
                    TraceOp::Delete(u, v) => mg.delete_edge(u, v).unwrap(),
                    TraceOp::AddVertices(k) => {
                        for _ in 0..k {
                            mg.add_vertex();
                        }
                    }
                    TraceOp::SetIdent(v, ident) => mg.set_ident(v, ident).unwrap(),
                    TraceOp::Shrink => mg.shrink_isolated(),
                    TraceOp::Commit => unreachable!("batches exclude commit markers"),
                }
            }
            mg.commit().unwrap();
        }
        assert_eq!(mg.graph().ident(0), 41);
    }

    #[test]
    fn shrink_lines_roundtrip_and_replay() {
        let text = "t 4\n+ 0 1\n+ 1 2\ncommit\nshrink\n+ 0 2\ncommit\n";
        let t = parse_trace(text).unwrap();
        assert_eq!(t.ops[3], TraceOp::Shrink);
        assert_eq!(to_text(&t), text);
        assert_eq!(parse_trace(&to_text(&t)).unwrap(), t);
        // Replayed, the shrink drops isolated vertex 3 and renumbers.
        let mut mg = MutableGraph::new(t.n0);
        for batch in t.batches() {
            for op in batch {
                match *op {
                    TraceOp::Insert(u, v) => mg.insert_edge(u, v).unwrap(),
                    TraceOp::Delete(u, v) => mg.delete_edge(u, v).unwrap(),
                    TraceOp::Shrink => mg.shrink_isolated(),
                    _ => unreachable!("this trace has no other ops"),
                }
            }
            mg.commit().unwrap();
        }
        assert_eq!((mg.graph().n(), mg.graph().m()), (3, 3));
    }

    #[test]
    fn power_law_trace_keeps_hubs_above_lambda() {
        let t = power_law_churn_trace(512, 64, 3, 8, 5);
        assert_eq!(t.commit_count(), 4);
        // Deterministic for a fixed seed.
        assert_eq!(to_text(&t), to_text(&power_law_churn_trace(512, 64, 3, 8, 5)));
        let mut mg = MutableGraph::new(t.n0);
        for batch in t.batches() {
            for op in batch {
                match *op {
                    TraceOp::Insert(u, v) => mg.insert_edge(u, v).unwrap(),
                    TraceOp::Delete(u, v) => mg.delete_edge(u, v).unwrap(),
                    _ => unreachable!("churn traces only insert and delete"),
                }
            }
            mg.commit().unwrap();
            // The hubs keep the graph in long-mode territory (Δ > λ = 48)
            // through every churn batch, not just the base commit.
            assert!(mg.graph().max_degree() > 48, "Δ = {}", mg.graph().max_degree());
            assert!(mg.graph().max_degree() <= 64);
        }
    }

    #[test]
    fn net_churn_cancels_toggles_and_counts_extras() {
        let t =
            parse_trace("t 5\n+ 0 1\n+ 1 2\ncommit\n- 0 1\n+ 0 1\n- 1 2\n- 0 1\n+ 2 3\ncommit\n")
                .unwrap();
        let churn = t.net_churn();
        assert_eq!(churn.len(), 2);
        assert_eq!(churn[0], BatchChurn { inserted: 2, deleted: 0 });
        // (0,1): delete→insert→delete nets to one delete; (1,2) deleted;
        // (2,3) inserted.
        assert_eq!(churn[1], BatchChurn { inserted: 1, deleted: 2 });
    }

    #[test]
    fn net_churn_matches_nominal_request_off_saturation() {
        let t = churn_trace(60, 5, 3, 4, 11);
        let churn = t.net_churn();
        assert_eq!(churn[0].deleted, 0);
        for c in &churn[1..] {
            // Off saturation the fallback never fires, so deletions never
            // exceed the nominal request; net churn can fall below it when
            // the generator re-inserts a pair it just deleted.
            assert_eq!(c.inserted, c.deleted, "steady state preserves m");
            assert!(c.deleted <= 4, "no fallback on a roomy graph, got {}", c.deleted);
        }
    }

    #[test]
    fn churn_trace_replays_onto_mutable_graph() {
        let t = churn_trace(40, 4, 3, 5, 7);
        assert_eq!(t.commit_count(), 4);
        let mut mg = MutableGraph::new(t.n0);
        let mut sizes = Vec::new();
        for batch in t.batches() {
            for op in batch {
                match *op {
                    TraceOp::Insert(u, v) => mg.insert_edge(u, v).unwrap(),
                    TraceOp::Delete(u, v) => mg.delete_edge(u, v).unwrap(),
                    _ => unreachable!("churn traces only insert/delete"),
                }
            }
            mg.commit().unwrap();
            assert!(mg.graph().max_degree() <= 4);
            sizes.push(mg.graph().m());
        }
        // Steady state: every churn commit preserves the edge count.
        assert!(sizes.windows(2).all(|w| w[0] == w[1]));
        // First commit matches the seeded generator exactly.
        let base = generators::random_bounded_degree(40, 4, 7);
        assert_eq!(sizes[0], base.m());
        // Determinism: same parameters, same trace.
        assert_eq!(churn_trace(40, 4, 3, 5, 7), t);
        assert_ne!(churn_trace(40, 4, 3, 5, 8), t);
        // The explicit-base variant is the same machine.
        assert_eq!(churn_trace_from(&base, 4, 3, 5, 7), t);
    }
}
