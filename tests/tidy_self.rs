//! Fixture self-tests for `deco-tidy`: one failing and one passing
//! fixture per lint, run through the same [`deco_tidy::lint_rust_source`]
//! / [`deco_tidy::lint_manifest`] / [`deco_tidy::lint_readme`] entry
//! points the binary uses — plus the whole-tree gate: `check_workspace`
//! over this repository must come back clean, and a deliberately
//! corrupted tree must not.
//!
//! Every bad snippet lives inside a string literal, and the scanner
//! blanks string-literal contents before linting, so this file does not
//! trip the whole-tree pass it tests.

use deco_probe::json::{self, Value};
use std::path::Path;

/// Lints a fixture as PR 10 and returns the names of the lints that fired.
fn fired(rel: &str, src: &str) -> Vec<&'static str> {
    deco_tidy::lint_rust_source(rel, src, 10).into_iter().map(|d| d.lint).collect()
}

fn assert_clean(rel: &str, src: &str) {
    let diags = deco_tidy::lint_rust_source(rel, src, 10);
    assert!(diags.is_empty(), "expected clean fixture {rel}, got: {diags:?}");
}

// ---------------------------------------------------------------- hash-iter

#[test]
fn hash_iter_bans_hash_containers_in_deterministic_src() {
    let bad = "use std::collections::HashMap;\n";
    assert_eq!(fired("crates/graph/src/fixture.rs", bad), ["hash-iter"]);

    // The same line under an inline allow with a written justification.
    let allowed = "use std::collections::HashMap; // tidy: allow(hash-iter) — membership probes only, never iterated\n";
    assert_clean("crates/graph/src/fixture.rs", allowed);

    // BTree containers are the sanctioned replacement.
    assert_clean("crates/graph/src/fixture.rs", "use std::collections::BTreeMap;\n");
}

#[test]
fn hash_iter_flags_iteration_outside_deterministic_crates() {
    // The lint pairs the container token with an iteration method on the
    // same statement line.
    let bad = "fn f() { let m = std::collections::HashMap::<u32, u32>::new(); for v in m.values() { drop(v); } }\n";
    assert_eq!(fired("crates/serve/src/fixture.rs", bad), ["hash-iter"]);

    // Pure lookups never leak iteration order.
    let good =
        "fn f(m: &std::collections::HashMap<u32, u32>) -> Option<u32> { m.get(&1).copied() }\n";
    assert_clean("crates/serve/src/fixture.rs", good);
}

// ---------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_is_quarantined_to_bench_and_allows() {
    let bad = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert_eq!(fired("crates/serve/src/fixture.rs", bad), ["wall-clock"]);

    // The bench harness is *defined* to measure wall time.
    assert_clean("crates/bench/src/fixture.rs", bad);

    // Elsewhere it needs a written justification.
    let allowed = "fn f() { let _t = std::time::Instant::now(); } // tidy: allow(wall-clock) — informational latency line, never in a fingerprint\n";
    assert_clean("crates/serve/src/fixture.rs", allowed);
}

// --------------------------------------------------------------- seeded-rand

#[test]
fn seeded_rand_rejects_entropy_even_in_tests() {
    let bad = "fn f() { let _rng = rand::thread_rng(); }\n";
    assert_eq!(fired("tests/fixture.rs", bad), ["seeded-rand"]);
    assert_eq!(fired("crates/core/src/fixture.rs", bad), ["seeded-rand"]);

    let good = "fn f() { let _rng = StdRng::seed_from_u64(7); }\n";
    assert_clean("tests/fixture.rs", good);
}

#[test]
fn seeded_rand_manifest_rule() {
    let bad = "[dependencies]\nrand = \"0.8\"\n";
    let diags = deco_tidy::lint_manifest("crates/core/Cargo.toml", bad);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].lint, "seeded-rand");

    let good = "[dependencies]\nrand.workspace = true\n";
    assert!(deco_tidy::lint_manifest("crates/core/Cargo.toml", good).is_empty());
}

// --------------------------------------------------------------- probe-gated

#[test]
fn probe_emits_must_be_gated_on_enabled() {
    let bad = "fn f(p: &Probe) {\n    p.emit(1);\n}\n";
    assert_eq!(fired("crates/local/src/fixture.rs", bad), ["probe-gated"]);

    let good = "fn f(p: &Probe) {\n    if p.enabled() {\n        p.emit(1);\n    }\n}\n";
    assert_clean("crates/local/src/fixture.rs", good);

    // Test code may emit unconditionally (it is asserting on the events).
    assert_clean("tests/fixture.rs", bad);
}

// -------------------------------------------------------------- unsafe-audit

#[test]
fn unsafe_requires_allowlisted_module_and_safety_comment() {
    let body = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    // Outside the audited-module allowlist: flagged no matter the comment.
    assert_eq!(fired("crates/serve/src/fixture.rs", body), ["unsafe-audit"]);

    // Inside an allowlisted module, an adjacent SAFETY comment is enough.
    let audited = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid for reads.\n    unsafe { *p }\n}\n";
    assert_clean("tests/zero_alloc.rs", audited);

    // …and without the comment it still fires, even there.
    assert_eq!(fired("tests/zero_alloc.rs", body), ["unsafe-audit"]);
}

// --------------------------------------------------------- deprecated-expiry

#[test]
fn deprecated_items_must_name_an_expiry_and_respect_it() {
    // No remove-by marker at all.
    let unmarked = "#[deprecated(note = \"use RecolorConfig\")]\nfn old() {}\n";
    assert_eq!(fired("crates/stream/src/fixture.rs", unmarked), ["deprecated-expiry"]);

    // Marker in the past (fixtures lint as PR 10).
    let expired = "#[deprecated(note = \"use RecolorConfig; remove-by: PR9\")]\nfn old() {}\n";
    assert_eq!(fired("crates/stream/src/fixture.rs", expired), ["deprecated-expiry"]);

    // Marker still in the future: fine.
    let fresh = "#[deprecated(note = \"use RecolorConfig; remove-by: PR99\")]\nfn old() {}\n";
    assert_clean("crates/stream/src/fixture.rs", fresh);
}

// ---------------------------------------------------------- invariant-panic

#[test]
fn panics_in_library_code_need_an_invariant_comment() {
    let bad = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
    assert_eq!(fired("crates/core/src/fixture.rs", bad), ["invariant-panic"]);

    let good = "fn f(o: Option<u32>) -> u32 {\n    // INVARIANT: every caller checked is_some() first.\n    o.unwrap()\n}\n";
    assert_clean("crates/core/src/fixture.rs", good);

    // Test code is exempt — asserting via unwrap is the point of a test.
    assert_clean("tests/fixture.rs", bad);

    // …including #[cfg(test)] regions inside library files.
    let inline_tests = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
    assert_clean("crates/core/src/fixture.rs", inline_tests);
}

// ------------------------------------------------------------ readme-crates

#[test]
fn every_crate_dir_must_appear_in_the_readme() {
    let dirs = vec!["graph".to_string(), "tidy".to_string()];
    let partial = "| `crates/graph` | graphs |\n";
    let diags = deco_tidy::lint_readme(partial, &dirs);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].lint, "readme-crates");
    assert!(diags[0].message.contains("crates/tidy"));

    let full = "| `crates/graph` | graphs |\n| `crates/tidy` | lints |\n";
    assert!(deco_tidy::lint_readme(full, &dirs).is_empty());
}

// ------------------------------------------------------------- allow-syntax

#[test]
fn allow_comments_are_themselves_linted() {
    // Unknown lint name.
    let typo =
        "use std::collections::BTreeMap; // tidy: allow(hash-itre) — some justification here\n";
    assert_eq!(fired("crates/graph/src/fixture.rs", typo), ["allow-syntax"]);

    // Missing justification: the allow is rejected AND does not suppress.
    let bare = "use std::collections::HashMap; // tidy: allow(hash-iter)\n";
    let mut lints = fired("crates/graph/src/fixture.rs", bare);
    lints.sort_unstable();
    assert_eq!(lints, ["allow-syntax", "hash-iter"]);

    // The standalone form covers the following statement.
    let standalone = "// tidy: allow(hash-iter) — membership probes only, never iterated\nuse std::collections::HashMap;\n";
    assert_clean("crates/graph/src/fixture.rs", standalone);
}

// ---------------------------------------------------------------- the scanner

#[test]
fn scanner_blanks_strings_and_comments() {
    // Banned tokens inside string literals and comments must not fire —
    // this very file depends on that property.
    let quoted = "fn f() -> &'static str {\n    \"use thread_rng and HashMap.values() and Instant::now\"\n}\n";
    assert_clean("crates/graph/src/fixture.rs", quoted);

    let commented = "// thread_rng, HashMap, Instant::now — prose, not code.\nfn f() {}\n";
    assert_clean("crates/graph/src/fixture.rs", commented);

    let raw = "fn f() -> &'static str {\n    r#\"Instant::now() in a raw string\"#\n}\n";
    assert_clean("crates/serve/src/fixture.rs", raw);
}

// ------------------------------------------------------------ the whole tree

#[test]
fn whole_tree_is_tidy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = deco_tidy::check_workspace(root).expect("workspace scan");
    assert!(report.files_scanned > 100, "suspiciously small scan: {}", report.files_scanned);
    let rendered: Vec<String> = report.violations.iter().map(|d| d.to_string()).collect();
    assert!(report.is_clean(), "tidy violations in the tree:\n{}", rendered.join("\n"));
}

#[test]
fn corrupted_tree_fails_the_scan() {
    // A minimal fake workspace with a seeded determinism violation: the
    // walker must find it end to end (this is the in-process twin of the
    // CI corrupt self-test, which seeds a real tree copy and runs the
    // binary).
    let dir = std::env::temp_dir().join(format!("deco-tidy-corrupt-{}", std::process::id()));
    let src = dir.join("crates/graph/src");
    std::fs::create_dir_all(&src).expect("mk fixture tree");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/graph\"]\n")
        .expect("write manifest");
    std::fs::write(dir.join("README.md"), "| `crates/graph` | graphs |\n").expect("write readme");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f() { let m = std::collections::HashMap::<u32, u32>::new(); drop(m); }\n",
    )
    .expect("write seeded violation");

    let report = deco_tidy::check_workspace(&dir).expect("scan fixture tree");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!report.is_clean(), "seeded HashMap violation went undetected");
    assert!(report.violations.iter().any(|d| d.lint == "hash-iter"), "{:?}", report.violations);
    // And the JSON report carries it for machine consumers.
    assert!(json::to_string(&report.json()).contains("\"hash-iter\""));
}

#[test]
fn json_report_parses_back_with_its_violation_count() {
    let diag = |lint, message: &str| deco_tidy::Diagnostic {
        lint,
        path: "crates/graph/src/a \"b\".rs".to_string(),
        line: 3,
        message: message.to_string(),
    };
    let report = deco_tidy::Report {
        violations: vec![diag("hash-iter", "tab\t\"quote\"\n\\"), diag("wall-clock", "é")],
        files_scanned: 7,
    };
    let text = json::to_string(&report.json());
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    assert_eq!(doc.get("violation_count").and_then(Value::as_u64), Some(2), "{text}");
    let Some(Value::Array(violations)) = doc.get("violations") else { panic!("{text}") };
    let messages: Vec<_> = violations.iter().map(|v| v.get("message")?.as_str()).collect();
    assert_eq!(messages, [Some("tab\t\"quote\"\n\\"), Some("é")]);
}
