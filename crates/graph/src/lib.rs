//! Graph substrate for the reproduction of *Distributed Deterministic Edge
//! Coloring using Bounded Neighborhood Independence* (Barenboim & Elkin,
//! PODC 2011).
//!
//! This crate provides everything the distributed algorithms need to know
//! about graphs, but none of the distribution itself:
//!
//! * [`Graph`] — an immutable, deterministic CSR representation of a simple
//!   undirected graph with distinct vertex identifiers, plus explicit edge
//!   indices so edge-coloring algorithms can address edges directly.
//! * [`generators`] — deterministic and seeded-random graph families used by
//!   the paper's experiments: cliques, paths, random bounded-degree graphs,
//!   unit-disk graphs (bounded growth), the Figure 1 clique-plus-pendants
//!   graph, and random `r`-uniform hypergraphs.
//! * [`line_graph`] — line graphs of graphs and hypergraphs (Section 5 of the
//!   paper reduces edge coloring to vertex coloring of `L(G)`).
//! * [`properties`] — centralized oracles used by tests and benches:
//!   neighborhood independence `I(G)` (Definition 3.1), degeneracy, growth,
//!   claw-freeness.
//! * [`coloring`] — vertex/edge coloring containers with validity and defect
//!   checkers (an `m`-defective coloring allows up to `m` same-colored
//!   neighbors; Section 1.3).
//! * [`orientation`] — edge orientations with out-degree and acyclicity
//!   queries (Lemma 3.4 and Lemma 3.5 reason about acyclic orientations).
//! * [`MutableGraph`] + [`trace`] — batched topology mutation with atomic
//!   **delta-CSR commits** ([`Graph::patched`]: only touched adjacency is
//!   spliced, and the result is bit-identical to a from-scratch rebuild),
//!   plus the replayable plain-text churn-trace format (including the
//!   `shrink` compaction op) and seeded churn generator that feed the
//!   streaming recoloring engine.
//! * [`SegmentedGraph`] — the segmented-CSR mutable store: per-vertex
//!   extents behind a stable indirection table, stable edge ids, and
//!   epoch-tagged mirror slots, so a commit writes O(region) bytes instead
//!   of rewriting the whole snapshot. [`Graph::patched`] stays the
//!   bit-exact differential oracle.
//!
//! # Example
//!
//! ```
//! use deco_graph::{generators, properties};
//!
//! // The Figure 1 graph: every clique vertex gets a pendant neighbor.
//! let g = generators::clique_with_pendants(8);
//! assert_eq!(g.n(), 16);
//! // Its neighborhood independence is 2 even though it contains a clique.
//! assert_eq!(properties::neighborhood_independence(&g), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod error;
mod graph_impl;
mod mutable;
mod segmented;

pub mod coloring;
pub mod generators;
pub mod hypergraph;
pub mod io;
pub mod line_graph;
pub mod orientation;
pub mod properties;
pub mod trace;

pub use error::GraphError;
pub use graph_impl::{Graph, GraphBuilder};
pub use mutable::{CommitDelta, MutableGraph};
pub use segmented::{SegCommitDelta, SegExtent, SegmentedGraph};

/// Vertex index in `0..n`. The distinct identifier of a vertex is
/// [`Graph::ident`], which is what the distributed algorithms use for
/// symmetry breaking.
pub type Vertex = usize;

/// Edge index in `0..m`, addressing the normalized edge list of a [`Graph`].
pub type EdgeIdx = usize;
