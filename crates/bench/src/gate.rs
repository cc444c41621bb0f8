//! The deterministic bench gate.
//!
//! Wall-clock on the shared CI container is ±10% noise (ROADMAP), so the
//! performance trajectory is guarded by the **deterministic counters** the
//! benches emit — rounds, messages, repaired edges, region sizes, color
//! hashes — which the simulator's determinism contract fixes exactly for a
//! given scenario. The gate compares a fresh `BENCH_gate.json` (written by
//! the `gate` bench) and `PROFILE_report.json` against the committed
//! `BENCH_baseline.json`:
//!
//! * **cost counters** (integer keys containing one of [`COST_KEYS`]) may
//!   improve but must not regress (`new <= baseline`);
//! * **everything else deterministic** (scenario parameters, strings,
//!   booleans, color hashes) must match exactly — a mismatch means the
//!   scenario changed and the baseline must be regenerated deliberately;
//! * **wall-clock values** (`*_ms`, `*speedup*`, floats, and everything
//!   under `acceptance` or `environment`) are reported as deltas but never
//!   fail the gate. `environment` blocks hold machine-dependent facts —
//!   available threads, per-round worker counts — that benches must keep
//!   out of the deterministic surface for the gate to cover them.
//!
//! The `bench_gate` binary wraps this: `write` records a baseline from
//! bench outputs, `check` diffs fresh outputs against it.

use crate::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Substrings marking an integer counter as a *cost* (allowed to improve):
/// anything else integral is a scenario parameter and must match exactly.
pub const COST_KEYS: &[&str] = &[
    "round",
    "message",
    "msg",
    "repaired",
    "region",
    "class",
    "dirty",
    "recolored",
    "bit",
    "byte",
];

/// One flattened leaf of a bench json: dotted path plus value.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// Deterministic cost counter (must not regress).
    Cost(i64),
    /// Deterministic scenario datum (must match exactly).
    Exact(String),
    /// Wall-clock datum (reported, never fatal).
    Wall(f64),
}

/// Flattens a bench json into `path -> leaf`, classifying every scalar.
pub fn flatten(v: &Value) -> BTreeMap<String, Leaf> {
    let mut out = BTreeMap::new();
    walk(v, String::new(), false, &mut out);
    out
}

fn walk(v: &Value, path: String, in_acceptance: bool, out: &mut BTreeMap<String, Leaf>) {
    match v {
        Value::Object(fields) => {
            for (k, val) in fields {
                let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                walk(val, sub, in_acceptance || k == "acceptance" || k == "environment", out);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(item, format!("{path}[{i}]"), in_acceptance, out);
            }
        }
        scalar => {
            let key = path.rsplit(['.', '[']).next().unwrap_or("").trim_end_matches(']');
            let leaf = match scalar {
                // Acceptance blocks summarize wall measurements (met /
                // speedups) and environment blocks machine facts; nothing
                // in either may fail the gate.
                _ if in_acceptance => Leaf::Wall(scalar_as_f64(scalar)),
                Value::Float(f) => Leaf::Wall(*f),
                Value::Int(i) if key.ends_with("_ms") => Leaf::Wall(*i as f64),
                Value::Int(i) => {
                    let lower = key.to_ascii_lowercase();
                    if COST_KEYS.iter().any(|c| lower.contains(c)) {
                        Leaf::Cost(*i)
                    } else {
                        Leaf::Exact(i.to_string())
                    }
                }
                Value::Bool(b) => Leaf::Exact(b.to_string()),
                Value::Str(s) => Leaf::Exact(s.clone()),
                Value::Null => Leaf::Exact("null".to_string()),
                // INVARIANT: flatten() recurses into containers before this match, so only scalar leaves reach it.
                Value::Object(_) | Value::Array(_) => unreachable!("containers handled above"),
            };
            out.insert(path, leaf);
        }
    }
}

fn scalar_as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Bool(b) => f64::from(u8::from(*b)),
        _ => f64::NAN,
    }
}

/// Outcome of diffing one bench against its baseline.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Fatal findings: regressed cost counters, changed parameters,
    /// missing keys.
    pub failures: Vec<String>,
    /// Non-fatal notes: wall deltas, improvements, new keys.
    pub notes: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report (the artifact CI uploads).
    pub fn render(&self, bench: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {bench}: {} ({} failure(s), {} note(s))",
            if self.passed() { "PASS" } else { "FAIL" },
            self.failures.len(),
            self.notes.len()
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL  {f}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note  {n}");
        }
        out
    }
}

/// Diffs a fresh bench json against its baseline snapshot.
pub fn check(baseline: &Value, fresh: &Value) -> GateReport {
    let base = flatten(baseline);
    let new = flatten(fresh);
    let mut report = GateReport::default();
    for (path, base_leaf) in &base {
        match (base_leaf, new.get(path)) {
            (_, None) => {
                report.failures.push(format!("{path}: present in baseline, missing from run"));
            }
            (Leaf::Cost(b), Some(Leaf::Cost(n))) => {
                if n > b {
                    report.failures.push(format!("{path}: cost counter regressed {b} -> {n}"));
                } else if n < b {
                    report
                        .notes
                        .push(format!("{path}: improved {b} -> {n} (re-baseline to lock in)"));
                }
            }
            (Leaf::Exact(b), Some(Leaf::Exact(n))) => {
                if n != b {
                    report
                        .failures
                        .push(format!("{path}: deterministic value changed {b:?} -> {n:?}"));
                }
            }
            (Leaf::Wall(b), Some(Leaf::Wall(n))) => {
                if b.is_finite() && *b != 0.0 && n.is_finite() {
                    let pct = (n - b) / b * 100.0;
                    if pct.abs() >= 1.0 {
                        report
                            .notes
                            .push(format!("{path}: {b:.3} -> {n:.3} ({pct:+.1}% wall, non-fatal)"));
                    }
                }
            }
            (b, Some(n)) => {
                report.failures.push(format!("{path}: leaf class changed ({b:?} -> {n:?})"));
            }
        }
    }
    for path in new.keys() {
        if !base.contains_key(path) {
            report.notes.push(format!("{path}: new key, not in baseline (re-baseline to track)"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Obj};

    fn sample(messages: i64, n: i64, ms: f64) -> Value {
        Obj::new()
            .field("bench", "demo")
            .field("n", n)
            .field("acceptance", Obj::new().field("met", true).field("min_speedup", 5.0).build())
            .field(
                "commits",
                crate::json::Value::Array(vec![Obj::new()
                    .field("rounds", 10i64)
                    .field("messages", messages)
                    .field("color_hash", "abc123")
                    .field("delta_ms", ms)
                    .build()]),
            )
            .build()
    }

    #[test]
    fn identical_runs_pass() {
        let r = check(&sample(100, 5, 1.0), &sample(100, 5, 1.1));
        assert!(r.passed(), "{:?}", r.failures);
        // Wall delta is a note, not a failure.
        assert!(r.notes.iter().any(|n| n.contains("delta_ms")));
    }

    #[test]
    fn cost_regression_fails_improvement_notes() {
        let r = check(&sample(100, 5, 1.0), &sample(120, 5, 1.0));
        assert!(!r.passed());
        assert!(r.failures[0].contains("messages"));
        let r = check(&sample(100, 5, 1.0), &sample(80, 5, 1.0));
        assert!(r.passed());
        assert!(r.notes.iter().any(|n| n.contains("improved")));
    }

    #[test]
    fn parameter_change_fails() {
        let r = check(&sample(100, 5, 1.0), &sample(100, 6, 1.0));
        assert!(!r.passed());
        assert!(r.failures[0].contains('n'));
    }

    #[test]
    fn hash_change_fails_but_acceptance_is_wall() {
        let mut fresh = sample(100, 5, 1.0);
        // Flip the color hash: deterministic -> fatal.
        if let Value::Object(fields) = &mut fresh {
            if let Some((_, Value::Array(commits))) =
                fields.iter_mut().find(|(k, _)| k == "commits")
            {
                if let Value::Object(c) = &mut commits[0] {
                    c.iter_mut().find(|(k, _)| k == "color_hash").unwrap().1 =
                        Value::Str("zzz".into());
                }
            }
        }
        let r = check(&sample(100, 5, 1.0), &fresh);
        assert!(!r.passed());
        assert!(r.failures[0].contains("color_hash"));
        // acceptance.met flips are non-fatal (wall-derived).
        let mut fresh = sample(100, 5, 1.0);
        if let Value::Object(fields) = &mut fresh {
            if let Some((_, Value::Object(a))) = fields.iter_mut().find(|(k, _)| k == "acceptance")
            {
                a.iter_mut().find(|(k, _)| k == "met").unwrap().1 = Value::Bool(false);
            }
        }
        assert!(check(&sample(100, 5, 1.0), &fresh).passed());
    }

    #[test]
    fn environment_blocks_are_never_fatal() {
        // Thread counts and per-round worker traces are machine facts: the
        // gate bench keeps them under "environment" so the counters beside
        // them can join the deterministic baseline.
        let with_env = |threads: i64, workers: i64| {
            Obj::new()
                .field("bench", "demo")
                .field("rounds", 10i64)
                .field(
                    "environment",
                    Obj::new()
                        .field("threads_available", threads)
                        .field("per_round_workers", Value::Array(vec![Value::Int(workers)]))
                        .build(),
                )
                .build()
        };
        let r = check(&with_env(1, 1), &with_env(16, 8));
        assert!(r.passed(), "{:?}", r.failures);
        let flat = flatten(&with_env(4, 2));
        assert!(matches!(flat.get("environment.threads_available"), Some(Leaf::Wall(_))));
        assert!(matches!(flat.get("environment.per_round_workers[0]"), Some(Leaf::Wall(_))));
        assert!(matches!(flat.get("rounds"), Some(Leaf::Cost(_))));
    }

    #[test]
    fn missing_key_fails_new_key_notes() {
        let base = sample(100, 5, 1.0);
        let fresh = parse("{\"bench\": \"demo\"}").unwrap();
        assert!(!check(&base, &fresh).passed());
        let r = check(&parse("{\"bench\": \"demo\"}").unwrap(), &base);
        assert!(r.passed());
        assert!(r.notes.iter().any(|n| n.contains("new key")));
    }

    /// Parses a committed json file at the workspace root.
    fn committed(name: &str) -> Value {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn real_bench_files_flatten() {
        // The committed gate bench output parses and classifies sensibly.
        let flat = flatten(&committed("BENCH_gate.json"));
        assert!(matches!(flat.get("churn.initial_build.messages"), Some(Leaf::Cost(_))));
        assert!(matches!(flat.get("repair.commits[0].repair_rounds"), Some(Leaf::Cost(_))));
        assert!(matches!(flat.get("churn.n"), Some(Leaf::Exact(_))));
        assert!(matches!(flat.get("serve.fleet_fingerprint"), Some(Leaf::Exact(_))));
        assert!(matches!(flat.get("environment.threads_available"), Some(Leaf::Wall(_))));
    }

    #[test]
    fn committed_gate_output_passes_committed_baseline() {
        // A re-pin committed without its bench output, or the reverse,
        // fails here rather than in CI's fresh run.
        let baseline = committed("BENCH_baseline.json");
        let entry = baseline.get("benches").and_then(|b| b.get("gate")).expect("a gate entry");
        let report = check(entry, &committed("BENCH_gate.json"));
        assert!(report.passed(), "{}", report.render("gate"));
    }
}
