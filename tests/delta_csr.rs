//! Property tests for the delta-CSR and segmented commit paths.
//!
//! The contract under test: after **arbitrary commit sequences** — random
//! insert/delete mixes, vertex growth, identifier overrides, shrink
//! compactions, invalid batches — the patched snapshot of
//! `MutableGraph::commit` is *structurally identical* to a from-scratch
//! `Graph::from_edges` rebuild of the same edge set: same adjacency, same
//! edge indices, same CSR slot and mirror-slot numbering, same identifiers
//! (`Graph` equality covers all of it, and the mirror involution is checked
//! explicitly on top). The rebuild oracle `MutableGraph::commit_rebuild`
//! must agree delta-for-delta and error-for-error, and the **segmented
//! engine** (`SegmentedGraph`, O(region) commits) must track both: same
//! accepted/rejected batches with the same errors, a materialization
//! (`to_graph`) bit-identical to the patched snapshot, internally
//! consistent segments/mirrors, and a per-edge carry (`freed_ids` /
//! `inserted_ids` / `edge_remap`) exactly equivalent to the oracle's
//! `edge_origin` map.
//!
//! Like `proptest_invariants.rs`, the offline build has no proptest crate:
//! cases sweep a deterministic seeded space, so every failure is
//! reproducible from its case index alone.

use deco_graph::line_graph::line_graph;
use deco_graph::{CommitDelta, Graph, MutableGraph, SegCommitDelta, SegmentedGraph, Vertex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 40;
const BATCHES_PER_CASE: usize = 6;

/// Drives one pseudo-random batch on all three engines and returns the
/// commit's deltas if the batch was valid (the engines must agree either
/// way — accepted set, errors, resulting snapshot).
fn random_batch(
    fast: &mut MutableGraph,
    slow: &mut MutableGraph,
    seg: &mut SegmentedGraph,
    rng: &mut StdRng,
) -> Option<(CommitDelta, SegCommitDelta)> {
    let ops = 1 + rng.gen_range(0..8usize);
    let mut had_shrink = false;
    for _ in 0..ops {
        match rng.gen_range(0..100u32) {
            // Insert a random pair (may collide with an existing edge: the
            // batch then fails at commit, which is part of the property).
            0..=44 => {
                let n = fast.next_n();
                if n >= 2 {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    if u != v {
                        let a = fast.insert_edge(u, v);
                        let b = slow.insert_edge(u, v);
                        let c = seg.insert_edge(u, v);
                        assert_eq!(a, b);
                        assert_eq!(a, c);
                    }
                }
            }
            // Delete a committed edge by index (may have been deleted
            // earlier in the batch — again a legal failure mode).
            45..=74 => {
                if fast.graph().m() > 0 {
                    let e = rng.gen_range(0..fast.graph().m());
                    let (u, v) = fast.graph().endpoints(e);
                    fast.delete_edge(u, v).unwrap();
                    slow.delete_edge(u, v).unwrap();
                    seg.delete_edge(u, v).unwrap();
                }
            }
            75..=84 => {
                let a = fast.add_vertex();
                let b = slow.add_vertex();
                let c = seg.add_vertex();
                assert_eq!(a, b);
                assert_eq!(a, c);
            }
            85..=92 => {
                let n = fast.next_n();
                if n > 0 {
                    let v = rng.gen_range(0..n);
                    let ident = rng.gen_range(1..2 * n as u64 + 2);
                    let a = fast.set_ident(v, ident);
                    let b = slow.set_ident(v, ident);
                    let c = seg.set_ident(v, ident);
                    assert_eq!(a, b);
                    assert_eq!(a, c);
                }
            }
            _ => {
                fast.shrink_isolated();
                slow.shrink_isolated();
                seg.shrink_isolated();
                had_shrink = true;
            }
        }
    }
    let a = fast.commit();
    let b = slow.commit_rebuild();
    assert_eq!(a, b, "delta commit and rebuild oracle must agree");
    let c = seg.commit();
    match (&a, &c) {
        (Err(ea), Err(ec)) => assert_eq!(ea, ec, "segmented must reject with the same error"),
        (Ok(da), Ok(dc)) => {
            assert_eq!(da.inserted, dc.inserted);
            assert_eq!(da.deleted, dc.deleted);
            assert_eq!(da.added_vertices, dc.added_vertices);
            assert_eq!(da.removed_vertices, dc.removed_vertices);
            assert_eq!(da.vertex_map, dc.vertex_map);
            assert_eq!(dc.inserted_ids.len(), dc.inserted.len());
            assert_eq!(dc.freed_ids.len(), dc.deleted.len());
            // Shrink batches rebuild (and say so); ordinary commits keep
            // every surviving id in place and report no remap.
            assert_eq!(dc.edge_remap.is_some(), had_shrink);
        }
        _ => panic!("engines disagree on batch validity: oracle {a:?} vs segmented {c:?}"),
    }
    // The segmented store must be internally consistent and materialize to
    // the oracle snapshot bit for bit after *every* commit attempt
    // (including rejected batches, which must leave it untouched).
    seg.check_consistency();
    let (sg_graph, idmap) = seg.to_graph();
    assert_eq!(seg.lex_edge_ids(), idmap, "the two publish walks disagree");
    assert_eq!(&sg_graph, fast.graph(), "segmented materialization diverged");
    for (lex, &id) in idmap.iter().enumerate() {
        assert_eq!(sg_graph.endpoints(lex), seg.endpoints(id as usize));
    }
    a.ok().zip(c.ok())
}

/// The from-scratch oracle: rebuild the committed snapshot from its own
/// edge list and identifiers; the patched snapshot must equal it bit for
/// bit (edge indices included, since both lists are lexicographic).
fn assert_structurally_identical(g: &Graph, ctx: &str) {
    let edges: Vec<(Vertex, Vertex)> = g.edges().collect();
    let rebuilt = Graph::from_edges(g.n(), &edges)
        .expect("snapshot edges are valid")
        .with_idents(g.idents().to_vec())
        .expect("snapshot idents are distinct");
    assert_eq!(g, &rebuilt, "{ctx}: patched snapshot differs from from_edges rebuild");
    // Mirror-slot invariants, explicitly: involution, ownership, edge
    // agreement — the properties the simulator's slot delivery relies on.
    for v in 0..g.n() {
        for s in g.slots_of(v) {
            let u = g.slot_neighbor(s);
            let back = g.mirror_slot(s);
            assert!(g.slots_of(u).contains(&back), "{ctx}: mirror {back} not owned by {u}");
            assert_eq!(g.slot_neighbor(back), v, "{ctx}");
            assert_eq!(g.mirror_slot(back), s, "{ctx}: mirror is an involution");
            assert_eq!(g.slot_edge(back), g.slot_edge(s), "{ctx}");
        }
    }
}

#[test]
fn patched_commits_match_rebuilds_under_arbitrary_churn() {
    for case in 0..CASES {
        let n0 = 2 + (case % 13) as usize;
        let mut rng = StdRng::seed_from_u64(0xDE17_AC58 ^ (case << 8));
        let mut fast = MutableGraph::new(n0);
        let mut slow = MutableGraph::new(n0);
        let mut seg = SegmentedGraph::new(n0);
        for batch in 0..BATCHES_PER_CASE {
            let _ = random_batch(&mut fast, &mut slow, &mut seg, &mut rng);
            assert_eq!(fast.graph(), slow.graph(), "case {case}, batch {batch}");
            assert_structurally_identical(fast.graph(), &format!("case {case}, batch {batch}"));
        }
    }
}

#[test]
fn patched_line_graphs_match_rebuild_line_graphs() {
    // Downstream structures derived from the CSR (the line graph the edge
    // coloring pipeline runs on) agree too — edge indices being identical
    // is what makes this hold, on the segmented materialization included.
    let mut rng = StdRng::seed_from_u64(0x11E);
    let mut mg = MutableGraph::new(9);
    let mut seg = SegmentedGraph::new(9);
    for _ in 0..8 {
        let mut shadow = mg.clone();
        if random_batch(&mut mg, &mut shadow, &mut seg, &mut rng).is_some() {
            let g = mg.graph();
            let edges: Vec<(Vertex, Vertex)> = g.edges().collect();
            let rebuilt =
                Graph::from_edges(g.n(), &edges).unwrap().with_idents(g.idents().to_vec()).unwrap();
            assert_eq!(line_graph(g), line_graph(&rebuilt));
            assert_eq!(line_graph(&seg.to_graph().0), line_graph(g));
        }
    }
}

#[test]
fn edge_origin_tracks_survivors_exactly() {
    // The stable-slot carry map: `origin_of(e)` is exactly the old edge
    // with the same endpoints (mapped back through the shrink renumbering
    // when one happened), and `None` exactly for fresh pairs. Delete-then-
    // reinsert within a batch keeps the old identity (net-noop semantics).
    let mut committed = 0usize;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x000E_1D6E ^ case);
        let n0 = 4 + (case % 9) as usize;
        let mut fast = MutableGraph::new(n0);
        let mut slow = MutableGraph::new(n0);
        let mut seg = SegmentedGraph::new(n0);
        for batch in 0..4 {
            let old = fast.graph().clone();
            let Some((delta, _segd)) = random_batch(&mut fast, &mut slow, &mut seg, &mut rng)
            else {
                continue;
            };
            committed += 1;
            let g = fast.graph();
            let map_back = |v: Vertex| -> Option<Vertex> {
                match &delta.vertex_map {
                    Some(map) => map[v],
                    None => Some(v), // out-of-range (added) handled below
                }
            };
            for e in 0..g.m() {
                let (u, v) = g.endpoints(e);
                let expected = match (map_back(u), map_back(v)) {
                    (Some(a), Some(b)) => old.edge_between(a, b),
                    _ => None,
                };
                assert_eq!(delta.origin_of(e), expected, "case {case}, batch {batch}, edge {e}");
            }
        }
    }
    assert!(committed > CASES as usize, "sweep must exercise plenty of valid commits");
}

#[test]
fn segmented_carry_matches_edge_origin() {
    // The segmented carry vocabulary (`inserted_ids` / `freed_ids` /
    // `edge_remap`) must let a client move per-edge payloads across commits
    // with exactly the outcome of the oracle's `edge_origin` map: survivors
    // keep their payload, fresh pairs get fresh ones, and the two engines
    // agree edge for edge. Payloads here are serial tags, allocated in the
    // shared `inserted` order so both sides mint identical values.
    let mut carried = 0usize;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x05E6_CA44 ^ (case << 4));
        let n0 = 4 + (case % 9) as usize;
        let mut fast = MutableGraph::new(n0);
        let mut slow = MutableGraph::new(n0);
        let mut seg = SegmentedGraph::new(n0);
        let mut lex_store: Vec<u64> = Vec::new();
        let mut id_store: Vec<u64> = Vec::new();
        let mut serial = 0u64;
        for batch in 0..5 {
            let Some((delta, segd)) = random_batch(&mut fast, &mut slow, &mut seg, &mut rng) else {
                continue;
            };
            let g = fast.graph();
            // Oracle carry: lexicographic store rebuilt through `origin_of`.
            let mut next = vec![u64::MAX; g.m()];
            for (e, tag) in next.iter_mut().enumerate() {
                *tag = match delta.origin_of(e) {
                    Some(o) => lex_store[o],
                    None => {
                        let (u, v) = g.endpoints(e);
                        let i = delta
                            .inserted
                            .binary_search(&(u.min(v), u.max(v)))
                            .expect("fresh edge must appear in the inserted list");
                        serial + i as u64
                    }
                };
            }
            lex_store = next;
            // Segmented carry: stable-id store patched in place (or remapped
            // through `edge_remap` when the batch rebuilt).
            if let Some(remap) = &segd.edge_remap {
                let mut next = vec![u64::MAX; seg.edge_bound()];
                for (old_id, &new_id) in remap.iter().enumerate() {
                    if new_id != Graph::NO_EDGE_ORIGIN {
                        next[new_id as usize] = id_store[old_id];
                    }
                }
                id_store = next;
            } else {
                id_store.resize(seg.edge_bound(), u64::MAX);
                for &fid in &segd.freed_ids {
                    id_store[fid as usize] = u64::MAX;
                }
            }
            for (i, &id) in segd.inserted_ids.iter().enumerate() {
                id_store[id as usize] = serial + i as u64;
            }
            serial += delta.inserted.len() as u64;
            // Same payload on every live edge, in both coordinate systems.
            let idmap = seg.lex_edge_ids();
            assert_eq!(idmap.len(), g.m());
            for e in 0..g.m() {
                assert_ne!(lex_store[e], u64::MAX, "case {case}, batch {batch}: untagged edge {e}");
                assert_eq!(
                    lex_store[e], id_store[idmap[e] as usize],
                    "case {case}, batch {batch}, edge {e}: carry diverged"
                );
            }
            carried += 1;
        }
    }
    assert!(carried > CASES as usize, "sweep must exercise plenty of valid commits");
}
