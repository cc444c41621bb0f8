//! Plain-text graph serialization.
//!
//! A minimal DIMACS-like edge-list format so workloads can be exported,
//! diffed, and re-loaded reproducibly:
//!
//! ```text
//! # comment
//! p <n> <m>
//! e <u> <v>
//! i <vertex> <ident>        (optional identifier overrides)
//! ```
//!
//! Vertices are 0-based. Identifier lines are only emitted when identifiers
//! differ from the default `v + 1`.

use crate::{Graph, GraphError, Vertex};
use std::error::Error;
use std::fmt;

/// Error from [`parse_edge_list`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseGraphError {
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        what: String,
    },
    /// The `p` header is missing or duplicated.
    BadHeader,
    /// The edge count in the header does not match the edges listed.
    EdgeCountMismatch {
        /// Count declared in the header.
        declared: usize,
        /// Edges actually listed.
        got: usize,
    },
    /// The underlying graph construction failed.
    Graph(GraphError),
}

impl fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGraphError::BadLine { line, what } => write!(f, "line {line}: {what}"),
            ParseGraphError::BadHeader => write!(f, "missing or duplicate 'p' header"),
            ParseGraphError::EdgeCountMismatch { declared, got } => {
                write!(f, "header declares {declared} edges, found {got}")
            }
            ParseGraphError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl Error for ParseGraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseGraphError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ParseGraphError {
    fn from(e: GraphError) -> Self {
        ParseGraphError::Graph(e)
    }
}

/// Serializes a graph to the edge-list format.
///
/// # Example
///
/// ```
/// use deco_graph::{io, Graph};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// let text = io::to_edge_list(&g);
/// let back = io::parse_edge_list(&text)?;
/// assert_eq!(g, back);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&format!("p {} {}\n", g.n(), g.m()));
    for (u, v) in g.edges() {
        out.push_str(&format!("e {u} {v}\n"));
    }
    for v in 0..g.n() {
        if g.ident(v) != v as u64 + 1 {
            out.push_str(&format!("i {v} {}\n", g.ident(v)));
        }
    }
    out
}

/// Parses the edge-list format produced by [`to_edge_list`].
///
/// # Errors
///
/// Returns [`ParseGraphError`] on malformed input, including a token past
/// a line's fields.
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseGraphError> {
    let mut header: Option<(usize, usize)> = None;
    let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
    let mut ident_overrides: Vec<(Vertex, u64)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        // INVARIANT: splitting a non-empty trimmed line always yields a first token.
        let tag = parts.next().expect("nonempty line has a first token");
        let mut next_num = |what: &str| -> Result<usize, ParseGraphError> {
            parts.next().and_then(|t| t.parse().ok()).ok_or_else(|| ParseGraphError::BadLine {
                line: line_no,
                what: format!("expected {what}"),
            })
        };
        match tag {
            "p" => {
                if header.is_some() {
                    return Err(ParseGraphError::BadHeader);
                }
                header = Some((next_num("vertex count")?, next_num("edge count")?));
            }
            "e" => {
                edges.push((next_num("endpoint")?, next_num("endpoint")?));
            }
            "i" => {
                let v = next_num("vertex")?;
                let ident = next_num("identifier")? as u64;
                ident_overrides.push((v, ident));
            }
            other => {
                return Err(ParseGraphError::BadLine {
                    line: line_no,
                    what: format!("unknown tag '{other}'"),
                });
            }
        }
        if let Some(extra) = parts.next() {
            let what = format!("unexpected trailing token '{extra}'");
            return Err(ParseGraphError::BadLine { line: line_no, what });
        }
    }
    let (n, m) = header.ok_or(ParseGraphError::BadHeader)?;
    if edges.len() != m {
        return Err(ParseGraphError::EdgeCountMismatch { declared: m, got: edges.len() });
    }
    let g = Graph::from_edges(n, &edges)?;
    if ident_overrides.is_empty() {
        return Ok(g);
    }
    let mut idents: Vec<u64> = (1..=n as u64).collect();
    for (v, ident) in ident_overrides {
        if v >= n {
            return Err(ParseGraphError::Graph(GraphError::VertexOutOfRange { vertex: v, n }));
        }
        idents[v] = ident;
    }
    Ok(g.with_idents(idents)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_plain() {
        for g in
            [generators::petersen(), generators::random_bounded_degree(40, 5, 3), Graph::empty(4)]
        {
            let text = to_edge_list(&g);
            assert_eq!(parse_edge_list(&text).unwrap(), g);
        }
    }

    #[test]
    fn roundtrip_with_idents() {
        let g = generators::shuffle_idents(&generators::grid(4, 3), 9);
        let text = to_edge_list(&g);
        assert!(text.contains("\ni "));
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.idents(), g.idents());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = parse_edge_list("# hello\n\np 3 1\n# mid\ne 0 2\n").unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(parse_edge_list("e 0 1\n"), Err(ParseGraphError::BadHeader));
        assert!(matches!(
            parse_edge_list("p 2 2\ne 0 1\n"),
            Err(ParseGraphError::EdgeCountMismatch { declared: 2, got: 1 })
        ));
        assert!(matches!(
            parse_edge_list("p 2 1\ne 0 x\n"),
            Err(ParseGraphError::BadLine { line: 2, .. })
        ));
        assert!(matches!(parse_edge_list("p 2 1\nq 0 1\n"), Err(ParseGraphError::BadLine { .. })));
        // A token past a line's fields is rejected, not dropped.
        for (text, line) in
            [("p 2 1 5\ne 0 1\n", 1), ("p 2 1\ne 0 1 2\n", 2), ("p 2 1\ne 0 1\ni 0 9 9\n", 3)]
        {
            let e = parse_edge_list(text).unwrap_err().to_string();
            assert!(e.starts_with(&format!("line {line}: unexpected trailing token")), "{e}");
        }
        assert!(matches!(
            parse_edge_list("p 2 1\ne 0 2\n"),
            Err(ParseGraphError::Graph(GraphError::VertexOutOfRange { .. }))
        ));
        assert!(matches!(
            parse_edge_list("p 2 1\ne 0 1\ni 5 9\n"),
            Err(ParseGraphError::Graph(GraphError::VertexOutOfRange { .. }))
        ));
    }

    #[test]
    fn ident_override_errors_are_specific() {
        // Truncated `i` lines name the missing field and the line.
        assert!(matches!(
            parse_edge_list("p 2 1\ne 0 1\ni 0\n"),
            Err(ParseGraphError::BadLine { line: 3, .. })
        ));
        assert!(matches!(
            parse_edge_list("p 2 1\ne 0 1\ni\n"),
            Err(ParseGraphError::BadLine { line: 3, .. })
        ));
        assert!(matches!(
            parse_edge_list("p 2 1\ne 0 1\ni 0 x\n"),
            Err(ParseGraphError::BadLine { line: 3, .. })
        ));
        // An override clashing with a default identifier is a graph error.
        assert!(matches!(
            parse_edge_list("p 3 1\ne 0 1\ni 0 2\n"),
            Err(ParseGraphError::Graph(GraphError::DuplicateIdent { ident: 2 }))
        ));
        // Overriding the same vertex twice keeps the last value (documented
        // by behavior: the override list applies in order).
        let g = parse_edge_list("p 2 1\ne 0 1\ni 0 5\ni 0 9\n").unwrap();
        assert_eq!(g.ident(0), 9);
    }

    #[test]
    fn display_messages() {
        let e = parse_edge_list("p 2 2\ne 0 1\n").unwrap_err();
        assert!(e.to_string().contains("declares 2"));
    }
}
