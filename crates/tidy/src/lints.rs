//! The lint registry: every rule `deco-tidy` enforces, each individually
//! allowlistable inline (see the crate docs for the allow syntax).
//!
//! Lints work on the blanked [`scan::SourceFile`] model, so tokens inside
//! comments, doc examples, and string-literal fixtures never fire.

use crate::scan::SourceFile;
use crate::Diagnostic;

/// Every lint name, in reporting order. `tidy: allow(name)` must use one
/// of these (a typo is reported as `allow-syntax`).
pub const LINT_NAMES: &[&str] = &[
    "hash-iter",
    "wall-clock",
    "seeded-rand",
    "probe-gated",
    "unsafe-audit",
    "deprecated-expiry",
    "invariant-panic",
    "readme-crates",
];

/// Crates whose `src/` carries the bit-identical determinism contract:
/// hash containers are banned outright there (iteration order would leak
/// into colorings, transcripts, or counters), not just hash *iteration*.
const DETERMINISTIC_CRATES: &[&str] = &["graph", "core", "local", "stream"];

/// Modules allowed to contain `unsafe`, with the audit rationale. Every
/// site inside them still needs an adjacent `// SAFETY:` comment.
const UNSAFE_MODULES: &[(&str, &str)] = &[(
    "tests/zero_alloc.rs",
    "counting global allocator backing the zero-allocation steady-state pin",
)];

/// Path prefixes quarantined for wall-clock reads: the bench harness is
/// *defined* to measure wall time (and the gate treats wall as
/// non-fatal / `environment`-scoped), so `Instant` is its vocabulary.
const WALL_EXEMPT_PREFIXES: &[&str] = &["crates/bench/"];

/// Nondeterministic entropy entry points: any of these in the tree would
/// silently invalidate every regression pin.
const ENTROPY_TOKENS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Hash-order iteration methods (the part of the hash-container API that
/// leaks nondeterministic order), matched on the same statement line as
/// the `HashMap`/`HashSet` token outside the deterministic crates.
const HASH_ITER_TOKENS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".retain(",
    ".into_keys()",
    ".into_values()",
];

/// Panic-shaped tokens requiring an `// INVARIANT:` justification in
/// non-test library code.
const PANIC_TOKENS: &[&str] =
    &[".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Where a file sits in the workspace; decides which lints apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    /// `crates/<name>/src/**` — library (or shipped-bin) code.
    CrateSrc,
    /// `crates/<name>/{tests,benches}/**`, root `tests/**` — test code.
    TestCode,
    /// `examples/**` — demo code (unsafe/hash/entropy rules still apply).
    Example,
}

fn classify(rel: &str) -> FileKind {
    if rel.starts_with("examples/") {
        FileKind::Example
    } else if rel.starts_with("tests/")
        || (rel.starts_with("crates/") && (rel.contains("/tests/") || rel.contains("/benches/")))
    {
        FileKind::TestCode
    } else {
        FileKind::CrateSrc
    }
}

/// The crate name of `crates/<name>/…` paths.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

fn in_deterministic_src(rel: &str) -> bool {
    crate_of(rel).is_some_and(|c| DETERMINISTIC_CRATES.contains(&c)) && rel.contains("/src/")
}

/// Does `code` contain `token` as a whole word (not an identifier slice)?
fn has_token(code: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let before_ok = at == 0
            || !code[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + token.len();
        let after_ok =
            !code[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = after;
    }
    false
}

/// Per-line allow state, precomputed from the comments.
struct Allows {
    /// `granted[i]` = lint names allowed on line `i`.
    granted: Vec<Vec<String>>,
    /// Syntax problems found while parsing allow comments.
    problems: Vec<Diagnostic>,
}

/// Parses every `tidy: allow(<lint>) — <justification>` comment and
/// computes which lines it covers: its own line (trailing form) or the
/// next statement (standalone form) — through the first following line
/// whose code ends with `;`, `{`, or `}`, capped at 10 lines.
fn collect_allows(rel: &str, src: &SourceFile) -> Allows {
    let n = src.lines.len();
    let mut granted: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut problems = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        // Only a comment *leading* with the marker arms a suppression, so
        // prose that merely mentions the syntax (like this crate's docs)
        // doesn't. Doc comments (`///`) keep their extra slash in the
        // comment text and never match.
        let comment = line.comment.trim();
        let Some(rest) = comment.strip_prefix("tidy: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            problems.push(Diagnostic {
                lint: "allow-syntax",
                path: rel.to_string(),
                line: i + 1,
                message: "unclosed tidy: allow(…)".to_string(),
            });
            continue;
        };
        let name = rest[..close].trim().to_string();
        if !LINT_NAMES.contains(&name.as_str()) {
            problems.push(Diagnostic {
                lint: "allow-syntax",
                path: rel.to_string(),
                line: i + 1,
                message: format!("unknown lint `{name}` in tidy: allow(…)"),
            });
            continue;
        }
        let justification =
            rest[close + 1..].trim_matches(|c: char| c.is_whitespace() || "—–-:".contains(c));
        if justification.len() < 8 {
            problems.push(Diagnostic {
                lint: "allow-syntax",
                path: rel.to_string(),
                line: i + 1,
                message: format!(
                    "tidy: allow({name}) needs a written justification after the closing paren"
                ),
            });
            continue;
        }
        if !line.code.trim().is_empty() {
            // Trailing form: covers this line only.
            granted[i].push(name);
        } else {
            // Standalone form: covers through the end of the next
            // statement.
            let mut j = i + 1;
            let mut budget = 10;
            while j < n && budget > 0 {
                granted[j].push(name.clone());
                let t = src.lines[j].code.trim_end();
                if t.ends_with(';') || t.ends_with('{') || t.ends_with('}') {
                    break;
                }
                j += 1;
                budget -= 1;
            }
        }
    }
    Allows { granted, problems }
}

/// Is there a comment containing `marker` adjacent to line `i`: on the
/// line itself, or in the contiguous run of comment-only lines directly
/// above it? The walk also steps over lines whose code contains
/// `cluster` (e.g. a `// SAFETY:` block covering two consecutive
/// `unsafe impl` lines), and over up to two plain code lines so a short
/// annotated statement group reads as one audited unit.
fn nearby_comment(src: &SourceFile, i: usize, marker: &str, cluster: &str) -> bool {
    if src.lines[i].comment.contains(marker) {
        return true;
    }
    let mut code_budget = 2;
    let mut j = i;
    while j > 0 {
        j -= 1;
        let line = &src.lines[j];
        if line.comment.contains(marker) {
            return true;
        }
        let code = line.code.trim();
        if code.is_empty() {
            if line.comment.is_empty() {
                return false; // blank line ends the adjacent block
            }
            continue; // pure comment line
        }
        if has_token(&line.code, cluster) {
            continue; // same annotated cluster (e.g. stacked unsafe impls)
        }
        if code_budget == 0 {
            return false;
        }
        code_budget -= 1;
    }
    false
}

/// Lints one Rust source file. `rel` is the workspace-relative path (it
/// decides which rules apply); `current_pr` feeds `deprecated-expiry`
/// (the workspace pass derives it from `CHANGES.md`).
pub fn lint_rust_source(rel: &str, text: &str, current_pr: u32) -> Vec<Diagnostic> {
    let src = SourceFile::parse(text);
    let kind = classify(rel);
    let allows = collect_allows(rel, &src);
    let mut out = allows.problems;
    let raw_lines: Vec<&str> = text.lines().collect();

    let allowed = |i: usize, lint: &str| allows.granted[i].iter().any(|g| g == lint);
    let push = |out: &mut Vec<Diagnostic>, lint: &'static str, i: usize, msg: String| {
        out.push(Diagnostic { lint, path: rel.to_string(), line: i + 1, message: msg });
    };

    for (i, line) in src.lines.iter().enumerate() {
        let code = line.code.as_str();

        // seeded-rand: applies everywhere, test code included — a test
        // drawing real entropy is a flaky pin factory.
        for tok in ENTROPY_TOKENS {
            if has_token(code, tok) && !allowed(i, "seeded-rand") {
                push(
                    &mut out,
                    "seeded-rand",
                    i,
                    format!(
                        "`{tok}` is nondeterministic entropy; use the seeded shim \
                         (crates/rand StdRng::seed_from_u64)"
                    ),
                );
            }
        }

        // unsafe-audit: applies everywhere (test allocators included).
        if has_token(code, "unsafe")
            && !code.contains("unsafe_code")
            && !code.contains("unsafe_op_in_unsafe_fn")
            && !allowed(i, "unsafe-audit")
        {
            match UNSAFE_MODULES.iter().find(|(m, _)| *m == rel) {
                None => push(
                    &mut out,
                    "unsafe-audit",
                    i,
                    "`unsafe` outside the audited-module allowlist \
                     (see deco_tidy::lints::UNSAFE_MODULES)"
                        .to_string(),
                ),
                Some(_) => {
                    if !nearby_comment(&src, i, "SAFETY", "unsafe") {
                        push(
                            &mut out,
                            "unsafe-audit",
                            i,
                            "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                        );
                    }
                }
            }
        }

        // deprecated-expiry: non-test code.
        if !line.in_test && code.contains("#[deprecated") && !allowed(i, "deprecated-expiry") {
            // The note string is blanked in `code`; read the raw lines.
            let window = raw_lines[i..raw_lines.len().min(i + 6)].join(" ");
            match parse_remove_by(&window) {
                None => push(
                    &mut out,
                    "deprecated-expiry",
                    i,
                    "#[deprecated] note must name its expiry: `remove-by: PR<N>`".to_string(),
                ),
                Some(n) if current_pr >= n => push(
                    &mut out,
                    "deprecated-expiry",
                    i,
                    format!(
                        "deprecated item expired: tagged remove-by: PR{n}, current PR is \
                         {current_pr} — delete it"
                    ),
                ),
                Some(_) => {}
            }
        }

        if line.in_test {
            continue; // the remaining lints target non-test code
        }

        // hash-iter.
        let has_hash = has_token(code, "HashMap") || has_token(code, "HashSet");
        if has_hash && !allowed(i, "hash-iter") {
            if in_deterministic_src(rel) {
                push(
                    &mut out,
                    "hash-iter",
                    i,
                    "hash containers are banned in the deterministic crates' src/: \
                     use BTreeMap/BTreeSet or sorted vecs, or justify with \
                     tidy: allow(hash-iter)"
                        .to_string(),
                );
            } else if HASH_ITER_TOKENS.iter().any(|t| code.contains(t)) {
                push(
                    &mut out,
                    "hash-iter",
                    i,
                    "iteration over a hash container leaks nondeterministic order; \
                     sort first or use a BTree container"
                        .to_string(),
                );
            }
        }

        // wall-clock: library + example code outside the bench crate.
        if kind != FileKind::TestCode
            && !WALL_EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p))
            && (has_token(code, "Instant") || has_token(code, "SystemTime"))
            && !allowed(i, "wall-clock")
        {
            push(
                &mut out,
                "wall-clock",
                i,
                "wall-clock reads live in crates/bench or behind a \
                 tidy: allow(wall-clock) justification (counters must stay \
                 deterministic; wall rides as non-fatal `environment` data)"
                    .to_string(),
            );
        }

        // probe-gated: shipped src/ only.
        if kind == FileKind::CrateSrc
            && code.contains(".emit(")
            && !code.contains("fn emit")
            && !allowed(i, "probe-gated")
            && !emit_is_gated(&src, i)
        {
            push(
                &mut out,
                "probe-gated",
                i,
                "probe emit call site not gated on `enabled()` in this function; \
                 wrap it as `if probe.enabled() { probe.emit(…) }` (the zero-cost \
                 contract)"
                    .to_string(),
            );
        }

        // invariant-panic: shipped src/ only.
        if kind == FileKind::CrateSrc && !allowed(i, "invariant-panic") {
            for tok in PANIC_TOKENS {
                if code.contains(tok) && !nearby_comment(&src, i, "INVARIANT", tok) {
                    push(
                        &mut out,
                        "invariant-panic",
                        i,
                        format!(
                            "`{}` in non-test library code needs an adjacent \
                             `// INVARIANT:` comment stating why it cannot fire \
                             (or return a typed error)",
                            tok.trim_start_matches('.')
                        ),
                    );
                    break; // one diagnostic per line is enough
                }
            }
        }
    }
    out
}

/// Backward scan from an `.emit(` call: gated if `enabled()` appears on
/// the same line or above it within the enclosing function; the scan
/// stops (ungated) at the first `fn ` signature or after 60 lines.
fn emit_is_gated(src: &SourceFile, i: usize) -> bool {
    for back in 0..60 {
        let Some(j) = i.checked_sub(back) else { return false };
        let code = &src.lines[j].code;
        if code.contains("enabled()") {
            return true;
        }
        if back > 0 && code.contains("fn ") && code.contains('(') {
            return false; // left the enclosing function body
        }
    }
    false
}

/// Extracts `N` from a `remove-by: PR<N>` marker.
fn parse_remove_by(text: &str) -> Option<u32> {
    let pos = text.find("remove-by: PR")?;
    let digits: String =
        text[pos + "remove-by: PR".len()..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Lints a `Cargo.toml`: the only `rand` a manifest may name is the
/// workspace path shim (`crates/rand`); a registry `rand` would swap the
/// pinned deterministic streams out from under every regression pin.
pub fn lint_manifest(rel: &str, text: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if !t.starts_with("rand") {
            continue;
        }
        let ok = t.contains("workspace = true")
            || t.contains("path =")
            || t.starts_with("rand.workspace");
        if !ok {
            out.push(Diagnostic {
                lint: "seeded-rand",
                path: rel.to_string(),
                line: i + 1,
                message: "manifests may only use the seeded path shim: \
                          `rand.workspace = true` (crates/rand)"
                    .to_string(),
            });
        }
    }
    out
}

/// Lints the README workspace-layout table: every crate directory must be
/// documented (`crate_dirs` are the `crates/<name>` entries found on disk).
pub fn lint_readme(readme: &str, crate_dirs: &[String]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for dir in crate_dirs {
        if !readme.contains(&format!("crates/{dir}")) {
            out.push(Diagnostic {
                lint: "readme-crates",
                path: "README.md".to_string(),
                line: 0,
                message: format!(
                    "crates/{dir} exists but is missing from the README workspace-layout table"
                ),
            });
        }
    }
    out
}
