//! Profile reports: roll a recorded event stream into a per-phase cost
//! breakdown, rendered as text and as bench-gate-compatible JSON.
//!
//! The JSON layout follows the `BENCH_*.json` conventions: deterministic
//! counters at the top level (cost-keyed names so the gate lets them
//! improve but not regress), machine-dependent data — histogram
//! expositions, spill occupancy, wall clock — under an `environment`
//! object the gate never fails on.

use std::fmt::Write as _;

use crate::event::{Counters, Event};
use crate::json::{self, Obj};
use crate::registry::Registry;

/// One aggregated pipeline phase: every [`Event::PhaseExit`] with the same
/// name folded together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Phase name as emitted.
    pub name: String,
    /// How many times the phase ran.
    pub runs: u64,
    /// Summed counters over all runs of the phase.
    pub stats: Counters,
}

/// A profile report built from a recorded (or re-parsed) event stream.
///
/// Phase rows keep **first-seen order** (pipeline order), and aggregate
/// phases absorbed by the algorithm (e.g. `bottom/panconesi-rizzi`)
/// overlap their inner phases — shares are fractions of
/// [`Report::totals`], which comes from [`Event::CommitExit`] sums when
/// the stream has commits and from the phase sum otherwise, so overlapping
/// rows can legitimately sum past 100%.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Commits observed ([`Event::CommitEnter`] count).
    pub commits: u64,
    /// Denominator counters: summed [`Event::CommitExit`] stats, or the
    /// phase-row sum when the stream has no commits.
    pub totals: Counters,
    /// Aggregated phases in first-seen order.
    pub phases: Vec<PhaseRow>,
    /// `(strategy, commits)` counts from [`Event::CommitExit`], name-sorted.
    pub strategies: Vec<(String, u64)>,
    /// Fault-era repair attempts retried.
    pub retries: u64,
    /// Commits degraded to from-scratch after exhausting attempts.
    pub fallbacks: u64,
    /// Palette-drift compactions forced.
    pub compactions: u64,
    /// Bytes the commit machinery wrote ([`Event::CommitBytes`] sum).
    pub commit_bytes: u64,
    /// Per-round samples observed ([`Event::Round`] count).
    pub rounds_sampled: u64,
    /// Largest per-round live-node count observed.
    pub peak_live_nodes: u64,
    /// Deterministic histograms: `region_edges` (repair region size per
    /// commit) and `commit_node_rounds` (repair node-rounds per commit).
    pub registry: Registry,
    /// [`Event::Env`] facts, last value per key, key-sorted. Machine- and
    /// configuration-dependent — excluded from the deterministic surface.
    pub env: Vec<(String, String)>,
}

impl Report {
    /// Builds a report from an event stream (recorded in-process or
    /// re-parsed from a JSONL profile).
    pub fn build(events: &[Event]) -> Report {
        let mut r = Report::default();
        let mut strategies: Vec<(String, u64)> = Vec::new();
        let mut env: Vec<(String, String)> = Vec::new();
        let mut had_commit_exit = false;
        for ev in events {
            match ev {
                Event::PhaseEnter { .. } => {}
                Event::PhaseExit { name, stats } => {
                    let row = match r.phases.iter_mut().find(|p| p.name == name.as_ref()) {
                        Some(row) => row,
                        None => {
                            r.phases.push(PhaseRow {
                                name: name.to_string(),
                                runs: 0,
                                stats: Counters::zero(),
                            });
                            // INVARIANT: a phase was pushed immediately above, so last_mut is Some.
                            r.phases.last_mut().expect("just pushed")
                        }
                    };
                    row.runs += 1;
                    row.stats.absorb(stats);
                }
                Event::Round { live_nodes, .. } => {
                    r.rounds_sampled += 1;
                    r.peak_live_nodes = r.peak_live_nodes.max(*live_nodes);
                }
                Event::CommitEnter { .. } => r.commits += 1,
                Event::Region { dirty, .. } => r.registry.observe("region_edges", *dirty),
                Event::Strategy { .. } => {}
                Event::Retry { .. } => r.retries += 1,
                Event::Fallback { .. } => r.fallbacks += 1,
                Event::Compaction { .. } => r.compactions += 1,
                Event::CommitExit { strategy, stats, .. } => {
                    had_commit_exit = true;
                    r.totals.absorb(stats);
                    r.registry.observe("commit_node_rounds", stats.node_rounds);
                    match strategies.iter_mut().find(|(s, _)| s == strategy.as_ref()) {
                        Some((_, n)) => *n += 1,
                        None => strategies.push((strategy.to_string(), 1)),
                    }
                }
                Event::CommitBytes { bytes } => r.commit_bytes += bytes,
                Event::Env { key, value } => {
                    match env.iter_mut().find(|(k, _)| k == key.as_ref()) {
                        Some((_, v)) => *v = value.clone(),
                        None => env.push((key.to_string(), value.clone())),
                    }
                }
            }
        }
        if !had_commit_exit {
            for p in &r.phases {
                r.totals.absorb(&p.stats);
            }
        }
        strategies.sort();
        env.sort();
        r.strategies = strategies;
        r.env = env;
        r
    }

    /// A phase's share of [`Report::totals`] node-rounds, in percent.
    pub fn share_pct(&self, phase: &PhaseRow) -> f64 {
        if self.totals.node_rounds == 0 {
            0.0
        } else {
            phase.stats.node_rounds as f64 * 100.0 / self.totals.node_rounds as f64
        }
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let t = &self.totals;
        let _ = writeln!(
            out,
            "profile: {} commit(s) · totals: {} rounds ({} node-rounds), {} msgs, {} bits",
            self.commits, t.rounds, t.node_rounds, t.messages, t.total_message_bits
        );
        if !self.phases.is_empty() {
            let name_w =
                self.phases.iter().map(|p| p.name.len()).max().unwrap_or(5).max("phase".len());
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>5}  {:>7}  {:>11}  {:>9}  {:>6}",
                "phase", "runs", "rounds", "node-rounds", "messages", "share"
            );
            for p in &self.phases {
                let _ = writeln!(
                    out,
                    "{:<name_w$}  {:>5}  {:>7}  {:>11}  {:>9}  {:>5.1}%",
                    p.name,
                    p.runs,
                    p.stats.rounds,
                    p.stats.node_rounds,
                    p.stats.messages,
                    self.share_pct(p)
                );
            }
            let _ = writeln!(
                out,
                "(aggregate phases overlap their inner phases; shares are of total node-rounds)"
            );
        }
        if !self.strategies.is_empty() {
            let strat = self
                .strategies
                .iter()
                .map(|(s, n)| format!("{s} ×{n}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "strategies: {strat} · retries {} · fallbacks {} · compactions {}",
                self.retries, self.fallbacks, self.compactions
            );
        }
        if self.commit_bytes > 0 {
            let _ = writeln!(out, "commit machinery: {} bytes", self.commit_bytes);
        }
        if self.rounds_sampled > 0 {
            let _ = writeln!(
                out,
                "rounds sampled: {} (peak live nodes {})",
                self.rounds_sampled, self.peak_live_nodes
            );
        }
        let metrics = self.registry.expose();
        if !metrics.is_empty() {
            let _ = writeln!(out, "metrics:");
            for line in metrics.lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        if !self.env.is_empty() {
            let _ = writeln!(out, "environment (machine-dependent, not pinned):");
            for (k, v) in &self.env {
                let _ = writeln!(out, "  {k} = {v}");
            }
        }
        out
    }

    /// Renders the bench-gate-compatible JSON document, compact.
    /// Deterministic counters sit at the top level (cost-keyed, so the gate
    /// lets them improve but never regress); histogram expositions and env
    /// facts go under `environment`, which the gate never fails on.
    pub fn to_json(&self, bench: &str) -> String {
        let counters = |c: &Counters| {
            Obj::new()
                .field("rounds", c.rounds)
                .field("node_rounds", c.node_rounds)
                .field("messages", c.messages)
                .field("max_message_bits", c.max_message_bits)
                .field("total_message_bits", c.total_message_bits)
                .field("transport_dropped", c.transport_dropped)
                .field("commit_bytes", c.commit_bytes)
                .build()
        };
        let phases = self.phases.iter().fold(Obj::new(), |o, p| {
            let row = Obj::new()
                .field("runs", p.runs)
                .field("rounds", p.stats.rounds)
                .field("node_rounds", p.stats.node_rounds)
                .field("messages", p.stats.messages)
                // Three decimals, as the committed PROFILE_report.json has.
                .field("share_pct", (self.share_pct(p) * 1000.0).round() / 1000.0);
            o.field(&p.name, row.build())
        });
        let strategies = self.strategies.iter().fold(Obj::new(), |o, (s, n)| o.field(s, *n));
        let environment = Obj::new().field("metrics_exposition", self.registry.expose());
        let environment = self.env.iter().fold(environment, |o, (k, v)| o.field(k, v.as_str()));
        let doc = Obj::new()
            .field("bench", bench)
            .field("commits", self.commits)
            .field("totals", counters(&self.totals))
            .field("phases", phases.build())
            .field("strategies", strategies.build())
            .field("retries", self.retries)
            .field("fallbacks", self.fallbacks)
            .field("compactions", self.compactions)
            .field("commit_machinery_bytes", self.commit_bytes)
            .field("rounds_sampled", self.rounds_sampled)
            .field("peak_live_node_count", self.peak_live_nodes)
            .field("environment", environment.build());
        json::to_string_compact(&doc.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn commit_events() -> Vec<Event> {
        vec![
            Event::CommitBytes { bytes: 100 },
            Event::CommitEnter { commit: 0, inserted: 4, deleted: 0, n: 10, m: 12, max_degree: 4 },
            Event::Region { commit: 0, dirty: 4 },
            Event::Strategy { commit: 0, strategy: "incremental".into() },
            Event::PhaseEnter { name: "repair/schedule-pipeline".into() },
            Event::PhaseExit {
                name: "repair/schedule-pipeline".into(),
                stats: Counters { rounds: 4, node_rounds: 40, messages: 80, ..Counters::zero() },
            },
            Event::PhaseEnter { name: "repair/finalize".into() },
            Event::Round {
                round: 1,
                live_nodes: 8,
                messages: 10,
                bits: 30,
                sent_messages: 10,
                sent_bits: 30,
                transport_dropped: 0,
            },
            Event::PhaseExit {
                name: "repair/finalize".into(),
                stats: Counters { rounds: 2, node_rounds: 10, messages: 12, ..Counters::zero() },
            },
            Event::env("wall_us", "120"),
            Event::env("threads", "8"),
            Event::CommitExit {
                commit: 0,
                strategy: "incremental".into(),
                recolored: 4,
                schedule_classes: 3,
                color_bound: 11,
                region_vertices: 8,
                retries: 0,
                fallbacks: 0,
                stats: Counters {
                    rounds: 6,
                    node_rounds: 50,
                    messages: 92,
                    commit_bytes: 100,
                    ..Counters::zero()
                },
            },
            Event::CommitBytes { bytes: 40 },
            Event::CommitEnter { commit: 1, inserted: 0, deleted: 1, n: 10, m: 11, max_degree: 4 },
            Event::Strategy { commit: 1, strategy: "clean".into() },
            Event::CommitExit {
                commit: 1,
                strategy: "clean".into(),
                recolored: 0,
                schedule_classes: 0,
                color_bound: 11,
                region_vertices: 0,
                retries: 0,
                fallbacks: 0,
                stats: Counters { commit_bytes: 40, ..Counters::zero() },
            },
            Event::env("wall_us", "180"),
        ]
    }

    #[test]
    fn report_aggregates_phases_in_first_seen_order() {
        let r = Report::build(&commit_events());
        assert_eq!(r.commits, 2);
        assert_eq!(r.totals.node_rounds, 50);
        assert_eq!(r.totals.commit_bytes, 140);
        assert_eq!(r.commit_bytes, 140);
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["repair/schedule-pipeline", "repair/finalize"]);
        assert_eq!(r.phases[0].stats.node_rounds, 40);
        assert!((self_share(&r, 0) - 80.0).abs() < 1e-9);
        assert_eq!(r.strategies, vec![("clean".into(), 1), ("incremental".into(), 1)]);
        assert_eq!(r.rounds_sampled, 1);
        assert_eq!(r.peak_live_nodes, 8);
        // Env is last-wins and key-sorted.
        assert_eq!(r.env, vec![("threads".into(), "8".into()), ("wall_us".into(), "180".into())]);
        assert_eq!(r.registry.histogram("region_edges").map(|h| h.count()), Some(1));
        assert_eq!(r.registry.histogram("commit_node_rounds").map(|h| h.count()), Some(2));
    }

    fn self_share(r: &Report, i: usize) -> f64 {
        r.share_pct(&r.phases[i])
    }

    #[test]
    fn phase_only_streams_use_phase_sum_as_denominator() {
        let events = vec![
            Event::PhaseExit {
                name: "a".into(),
                stats: Counters { node_rounds: 30, ..Counters::zero() },
            },
            Event::PhaseExit {
                name: "b".into(),
                stats: Counters { node_rounds: 10, ..Counters::zero() },
            },
        ];
        let r = Report::build(&events);
        assert_eq!(r.totals.node_rounds, 40);
        assert!((self_share(&r, 0) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn text_and_json_are_deterministic() {
        let a = Report::build(&commit_events());
        let b = Report::build(&commit_events());
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.to_json("pr8_profile"), b.to_json("pr8_profile"));
        let text = a.render_text();
        assert!(text.contains("repair/schedule-pipeline"), "{text}");
        assert!(text.contains("80.0%"), "{text}");
        let json = a.to_json("pr8_profile");
        assert!(json.contains("\"bench\":\"pr8_profile\""), "{json}");
        assert!(json.contains("\"node_rounds\":50"), "{json}");
        assert!(json.contains("\"environment\":{\"metrics_exposition\":"), "{json}");
        // A whole-number share stays a float for the gate's leaf classes.
        let doc = json::parse(&json).unwrap();
        let share = |phase: &str| doc.get("phases")?.get(phase)?.get("share_pct").cloned();
        assert_eq!(share("repair/schedule-pipeline"), Some(Value::Float(80.0)));
        assert_eq!(share("repair/finalize"), Some(Value::Float(20.0)));
    }

    #[test]
    fn empty_stream_renders() {
        let r = Report::build(&[]);
        assert_eq!(r.totals, Counters::zero());
        assert!(!r.render_text().is_empty());
        assert!(r.to_json("x").starts_with("{\"bench\":\"x\""));
    }
}
