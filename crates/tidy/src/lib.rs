//! `deco-tidy` — workspace static analysis that machine-enforces the
//! contracts the rest of the workspace only *states* in rustdoc: the
//! determinism model (bit-identical colorings across engines × threads ×
//! shards), the probe zero-cost contract, the unsafe audit,
//! and a handful of hygiene rules. Zero external dependencies (the one
//! dependency, the workspace's own dependency-free `deco-probe`, writes the
//! `--json` report); the scanner is a hand-rolled line/token pass in the
//! style of rust-lang/rust's `tidy`, so the offline build stays intact.
//!
//! # Lints
//!
//! | name | rule |
//! |------|------|
//! | `hash-iter` | no `HashMap`/`HashSet` in the deterministic crates' `src/` (graph/core/local/stream); no hash-order iteration anywhere else |
//! | `wall-clock` | no `Instant`/`SystemTime` outside `crates/bench` (the quarantined wall/`environment` reporting crate) |
//! | `seeded-rand` | no nondeterministic entropy (`thread_rng`, `from_entropy`, `OsRng`, `getrandom`); manifests may only depend on the path shim `crates/rand` |
//! | `probe-gated` | every `.emit(…)` call site in `src/` must be gated on `enabled()` within its function (the zero-cost contract `tests/zero_alloc.rs` asserts dynamically, checked statically at every site) |
//! | `unsafe-audit` | `unsafe` only in allowlisted modules, and every site needs an adjacent `// SAFETY:` comment |
//! | `deprecated-expiry` | every `#[deprecated]` note must name `remove-by: PR<N>`, and the item must be gone once PR `N` is current (current PR = `CHANGES.md` lines + 1) |
//! | `invariant-panic` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test `src/` code without an adjacent `// INVARIANT:` comment |
//! | `readme-crates` | every directory under `crates/` appears in the README workspace-layout table |
//!
//! # Inline allowlisting
//!
//! A violation is suppressed by `// tidy: allow(<lint>) — <justification>`:
//! trailing on the flagged line it covers that line; on its own line it
//! covers the *next statement* (through the first following line whose
//! code ends in `;`, `{`, or `}`). The justification is mandatory — a
//! bare allow is itself a violation — and the lint name must be real, so
//! typos can't silently disable anything. Allows are deliberately
//! `--fix`-free: `deco-tidy` reports and exits non-zero, humans edit.
//!
//! # Running
//!
//! ```text
//! cargo run -p deco-tidy -- check            # human-readable report
//! cargo run -p deco-tidy -- check --json     # machine-readable report
//! cargo run -p deco-tidy -- check --root X   # lint another tree (CI self-test)
//! ```
//!
//! The whole-tree pass also runs as a regular `cargo test`
//! (`tests/tidy_self.rs`), so tier-1 catches violations without CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scan;

mod lints;
mod walk;

pub use lints::{lint_manifest, lint_readme, lint_rust_source, LINT_NAMES};
pub use walk::check_workspace;

use deco_probe::json::{array, Obj, Value};
use std::fmt;

/// One reported violation (or allowlist-syntax problem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint that fired (one of [`LINT_NAMES`], or `allow-syntax`).
    pub lint: &'static str,
    /// Workspace-relative path, unix separators.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// What went wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.lint, self.message)
    }
}

/// The result of a whole-workspace check.
#[derive(Debug)]
pub struct Report {
    /// Every violation found, in file order.
    pub violations: Vec<Diagnostic>,
    /// Number of files scanned (Rust sources + manifests + README).
    pub files_scanned: usize,
}

impl Report {
    /// Did the tree pass?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The machine-readable report (`deco-tidy check --json`): one stable
    /// JSON object with the lint registry, scan size, and each violation.
    pub fn json(&self) -> Value {
        let violations = self.violations.iter().map(|d| {
            Obj::new()
                .field("lint", d.lint)
                .field("path", d.path.as_str())
                .field("line", d.line)
                .field("message", d.message.as_str())
                .build()
        });
        Obj::new()
            .field("lints", array(LINT_NAMES.iter().copied()))
            .field("files_scanned", self.files_scanned)
            .field("violation_count", self.violations.len())
            .field("violations", array(violations))
            .build()
    }
}
