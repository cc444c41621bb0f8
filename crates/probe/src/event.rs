//! The structured event vocabulary and its JSONL wire format.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::json::{self, ParseError, Value};

/// A [`RunStats`](../deco_local/struct.RunStats.html)-shaped counter
/// snapshot, decoupled from `deco-local` so the probe crate stays at the
/// bottom of the dependency graph (`deco-local` provides the
/// `From<RunStats>` conversion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Synchronous communication rounds.
    pub rounds: u64,
    /// Stepped node-rounds (live nodes summed over delivery rounds).
    pub node_rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
    /// Aggregate delivered traffic, in bits.
    pub total_message_bits: u64,
    /// Messages destroyed in flight by the transport.
    pub transport_dropped: u64,
    /// Bytes written into the committed graph representation.
    pub commit_bytes: u64,
}

impl Counters {
    /// All-zero counters.
    pub fn zero() -> Counters {
        Counters::default()
    }

    /// Sequential composition: sums every field, maxing the message-size
    /// maximum — the same semantics as `RunStats + RunStats`.
    pub fn absorb(&mut self, other: &Counters) {
        self.rounds += other.rounds;
        self.node_rounds += other.node_rounds;
        self.messages += other.messages;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.total_message_bits += other.total_message_bits;
        self.transport_dropped += other.transport_dropped;
        self.commit_bytes += other.commit_bytes;
    }
}

/// One structured observability event. See the crate docs for the
/// determinism contract; every variant except [`Event::Env`] is part of
/// the deterministic stream.
///
/// Names are `Cow<'static, str>` so emit sites pass static strings without
/// allocating; parsed events own their strings.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// A named pipeline phase is about to run.
    PhaseEnter {
        /// Phase name (the `Pipeline` phase label).
        name: Cow<'static, str>,
    },
    /// A named pipeline phase finished, with its own stats delta.
    PhaseExit {
        /// Phase name, matching the preceding [`Event::PhaseEnter`].
        name: Cow<'static, str>,
        /// The phase's counters (its `RunStats`, not a running total).
        stats: Counters,
    },
    /// One delivery round of a simulator run (subsumes the engine's
    /// `RoundLoad` profile entries). Rounds are numbered from 1 within
    /// each run; the enclosing phase events give the attribution.
    Round {
        /// 1-based round number within the run.
        round: u64,
        /// Nodes still live at the start of the round.
        live_nodes: u64,
        /// Messages delivered in the round.
        messages: u64,
        /// Bits delivered in the round.
        bits: u64,
        /// Messages sent toward the round in the preceding step phase.
        sent_messages: u64,
        /// Bits sent toward the round.
        sent_bits: u64,
        /// Messages destroyed by the transport on the way to this round.
        transport_dropped: u64,
    },
    /// A streaming commit started (batch applied, colors carried).
    CommitEnter {
        /// 0-based commit index.
        commit: u64,
        /// Edges inserted by the batch.
        inserted: u64,
        /// Edges deleted by the batch.
        deleted: u64,
        /// Vertex count after the commit.
        n: u64,
        /// Edge count after the commit.
        m: u64,
        /// Maximum degree after the commit.
        max_degree: u64,
    },
    /// The repair region was extracted for a commit.
    Region {
        /// 0-based commit index.
        commit: u64,
        /// Region size in edges.
        dirty: u64,
    },
    /// The repair strategy decided for a commit (`clean`, `incremental`,
    /// `from-scratch`); the *outcome* — which can differ after fault-era
    /// fallbacks — is on [`Event::CommitExit`].
    Strategy {
        /// 0-based commit index.
        commit: u64,
        /// The decided strategy.
        strategy: Cow<'static, str>,
    },
    /// A fault-era repair attempt failed verification (or its round cap)
    /// and will be retried.
    Retry {
        /// 0-based commit index.
        commit: u64,
        /// 0-based attempt that failed.
        attempt: u64,
        /// The round cap the attempt ran under.
        round_cap: u64,
    },
    /// Every bounded fault-era attempt failed; the commit degraded to the
    /// fault-free from-scratch pipeline.
    Fallback {
        /// 0-based commit index.
        commit: u64,
    },
    /// A palette-drift compaction was due: the commit recolors from
    /// scratch regardless of its region.
    Compaction {
        /// 0-based commit index.
        commit: u64,
    },
    /// A streaming commit finished, with its full accounting (the
    /// `CommitReport` in event form).
    CommitExit {
        /// 0-based commit index.
        commit: u64,
        /// How the repair actually ran.
        strategy: Cow<'static, str>,
        /// Edges whose color was (re)assigned.
        recolored: u64,
        /// Schedule classes the finalize stepped through.
        schedule_classes: u64,
        /// Palette bound in force for the snapshot.
        color_bound: u64,
        /// Vertices of the repair sub-network.
        region_vertices: u64,
        /// Failed attempts retried under a faulty transport.
        retries: u64,
        /// 1 when the commit degraded to from-scratch, else 0.
        fallbacks: u64,
        /// Simulator statistics of all repair phases of the commit,
        /// commit machinery bytes included.
        stats: Counters,
    },
    /// The commit machinery wrote bytes into the committed representation
    /// (emitted by the graph layer as the write happens, so it precedes
    /// the enclosing [`Event::CommitEnter`]).
    CommitBytes {
        /// Bytes written.
        bytes: u64,
    },
    /// A machine- or configuration-dependent fact: wall clock, worker
    /// counts, per-round delivery choices, spill-arena occupancy. The only
    /// variant excluded from the deterministic stream — the probe's
    /// equivalent of the bench gate's non-fatal `environment` blocks.
    Env {
        /// Fact name.
        key: Cow<'static, str>,
        /// Fact value, stringly typed (never interpreted by the gate).
        value: String,
    },
}

impl Event {
    /// Convenience constructor for [`Event::Env`].
    pub fn env(key: impl Into<Cow<'static, str>>, value: impl Into<String>) -> Event {
        Event::Env { key: key.into(), value: value.into() }
    }

    /// Whether the event belongs to the deterministic stream (everything
    /// but [`Event::Env`]). See the crate-level determinism contract.
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, Event::Env { .. })
    }

    /// Serializes the event as one flat JSON object (no trailing newline),
    /// the JSONL wire format [`Event::parse_jsonl`] reads back.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"type\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            Event::PhaseEnter { name } => push_str_field(&mut s, "name", name),
            Event::PhaseExit { name, stats } => {
                push_str_field(&mut s, "name", name);
                push_counters(&mut s, stats);
            }
            Event::Round {
                round,
                live_nodes,
                messages,
                bits,
                sent_messages,
                sent_bits,
                transport_dropped,
            } => {
                push_int_field(&mut s, "round", *round);
                push_int_field(&mut s, "live_nodes", *live_nodes);
                push_int_field(&mut s, "messages", *messages);
                push_int_field(&mut s, "bits", *bits);
                push_int_field(&mut s, "sent_messages", *sent_messages);
                push_int_field(&mut s, "sent_bits", *sent_bits);
                push_int_field(&mut s, "transport_dropped", *transport_dropped);
            }
            Event::CommitEnter { commit, inserted, deleted, n, m, max_degree } => {
                push_int_field(&mut s, "commit", *commit);
                push_int_field(&mut s, "inserted", *inserted);
                push_int_field(&mut s, "deleted", *deleted);
                push_int_field(&mut s, "n", *n);
                push_int_field(&mut s, "m", *m);
                push_int_field(&mut s, "max_degree", *max_degree);
            }
            Event::Region { commit, dirty } => {
                push_int_field(&mut s, "commit", *commit);
                push_int_field(&mut s, "dirty", *dirty);
            }
            Event::Strategy { commit, strategy } => {
                push_int_field(&mut s, "commit", *commit);
                push_str_field(&mut s, "strategy", strategy);
            }
            Event::Retry { commit, attempt, round_cap } => {
                push_int_field(&mut s, "commit", *commit);
                push_int_field(&mut s, "attempt", *attempt);
                push_int_field(&mut s, "round_cap", *round_cap);
            }
            Event::Fallback { commit } | Event::Compaction { commit } => {
                push_int_field(&mut s, "commit", *commit);
            }
            Event::CommitExit {
                commit,
                strategy,
                recolored,
                schedule_classes,
                color_bound,
                region_vertices,
                retries,
                fallbacks,
                stats,
            } => {
                push_int_field(&mut s, "commit", *commit);
                push_str_field(&mut s, "strategy", strategy);
                push_int_field(&mut s, "recolored", *recolored);
                push_int_field(&mut s, "schedule_classes", *schedule_classes);
                push_int_field(&mut s, "color_bound", *color_bound);
                push_int_field(&mut s, "region_vertices", *region_vertices);
                push_int_field(&mut s, "retries", *retries);
                push_int_field(&mut s, "fallbacks", *fallbacks);
                push_counters(&mut s, stats);
            }
            Event::CommitBytes { bytes } => push_int_field(&mut s, "bytes", *bytes),
            Event::Env { key, value } => {
                push_str_field(&mut s, "key", key);
                push_str_field(&mut s, "value", value);
            }
        }
        s.push('}');
        s
    }

    /// The wire name of the variant (the JSONL `"type"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PhaseEnter { .. } => "phase_enter",
            Event::PhaseExit { .. } => "phase_exit",
            Event::Round { .. } => "round",
            Event::CommitEnter { .. } => "commit_enter",
            Event::Region { .. } => "region",
            Event::Strategy { .. } => "strategy",
            Event::Retry { .. } => "retry",
            Event::Fallback { .. } => "fallback",
            Event::Compaction { .. } => "compaction",
            Event::CommitExit { .. } => "commit_exit",
            Event::CommitBytes { .. } => "commit_bytes",
            Event::Env { .. } => "env",
        }
    }

    /// Parses one JSONL line produced by [`Event::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed JSON, an unknown `type`, or a
    /// field that is missing or of the wrong kind (counters must fit a
    /// `u64`).
    pub fn parse_jsonl(line: &str) -> Result<Event, ParseError> {
        let fields = json::parse(line)?;
        let int = |key: &str| {
            fields.get(key).and_then(Value::as_u64).ok_or_else(|| {
                ParseError::new(format!("field {key:?} missing or not an unsigned 64-bit integer"))
            })
        };
        let text = |key: &str| -> Result<Cow<'static, str>, ParseError> {
            fields
                .get(key)
                .and_then(Value::as_str)
                .map(|s| Cow::Owned(s.to_string()))
                .ok_or_else(|| ParseError::new(format!("field {key:?} missing or not a string")))
        };
        let counters = || -> Result<Counters, ParseError> {
            Ok(Counters {
                rounds: int("rounds")?,
                node_rounds: int("node_rounds")?,
                messages: int("messages")?,
                max_message_bits: int("max_message_bits")?,
                total_message_bits: int("total_message_bits")?,
                transport_dropped: int("transport_dropped")?,
                commit_bytes: int("commit_bytes")?,
            })
        };
        let ev = match text("type")?.as_ref() {
            "phase_enter" => Event::PhaseEnter { name: text("name")? },
            "phase_exit" => Event::PhaseExit { name: text("name")?, stats: counters()? },
            "round" => Event::Round {
                round: int("round")?,
                live_nodes: int("live_nodes")?,
                messages: int("messages")?,
                bits: int("bits")?,
                sent_messages: int("sent_messages")?,
                sent_bits: int("sent_bits")?,
                transport_dropped: int("transport_dropped")?,
            },
            "commit_enter" => Event::CommitEnter {
                commit: int("commit")?,
                inserted: int("inserted")?,
                deleted: int("deleted")?,
                n: int("n")?,
                m: int("m")?,
                max_degree: int("max_degree")?,
            },
            "region" => Event::Region { commit: int("commit")?, dirty: int("dirty")? },
            "strategy" => Event::Strategy { commit: int("commit")?, strategy: text("strategy")? },
            "retry" => Event::Retry {
                commit: int("commit")?,
                attempt: int("attempt")?,
                round_cap: int("round_cap")?,
            },
            "fallback" => Event::Fallback { commit: int("commit")? },
            "compaction" => Event::Compaction { commit: int("commit")? },
            "commit_exit" => Event::CommitExit {
                commit: int("commit")?,
                strategy: text("strategy")?,
                recolored: int("recolored")?,
                schedule_classes: int("schedule_classes")?,
                color_bound: int("color_bound")?,
                region_vertices: int("region_vertices")?,
                retries: int("retries")?,
                fallbacks: int("fallbacks")?,
                stats: counters()?,
            },
            "commit_bytes" => Event::CommitBytes { bytes: int("bytes")? },
            "env" => Event::Env { key: text("key")?, value: text("value")?.into_owned() },
            other => return Err(ParseError::new(format!("unknown event type {other:?}"))),
        };
        Ok(ev)
    }
}

fn push_counters(s: &mut String, c: &Counters) {
    push_int_field(s, "rounds", c.rounds);
    push_int_field(s, "node_rounds", c.node_rounds);
    push_int_field(s, "messages", c.messages);
    push_int_field(s, "max_message_bits", c.max_message_bits);
    push_int_field(s, "total_message_bits", c.total_message_bits);
    push_int_field(s, "transport_dropped", c.transport_dropped);
    push_int_field(s, "commit_bytes", c.commit_bytes);
}

fn push_int_field(s: &mut String, key: &str, v: u64) {
    let _ = write!(s, ",\"{key}\":{v}");
}

fn push_str_field(s: &mut String, key: &str, v: &str) {
    let _ = write!(s, ",\"{key}\":");
    json::write_str(s, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::CommitBytes { bytes: 640 },
            Event::CommitBytes { bytes: u64::MAX },
            Event::CommitEnter {
                commit: 0,
                inserted: 5,
                deleted: 2,
                n: 100,
                m: 300,
                max_degree: 8,
            },
            Event::Region { commit: 0, dirty: 5 },
            Event::Strategy { commit: 0, strategy: "incremental".into() },
            Event::PhaseEnter { name: "repair/finalize".into() },
            Event::Round {
                round: 1,
                live_nodes: 10,
                messages: 20,
                bits: 60,
                sent_messages: 22,
                sent_bits: 66,
                transport_dropped: 0,
            },
            Event::PhaseExit {
                name: "repair/finalize".into(),
                stats: Counters { rounds: 3, node_rounds: 30, messages: 20, ..Counters::zero() },
            },
            Event::Retry { commit: 0, attempt: 0, round_cap: 36 },
            Event::Fallback { commit: 0 },
            Event::Compaction { commit: 3 },
            Event::CommitExit {
                commit: 0,
                strategy: "incremental".into(),
                recolored: 5,
                schedule_classes: 3,
                color_bound: 15,
                region_vertices: 9,
                retries: 0,
                fallbacks: 0,
                stats: Counters { rounds: 7, commit_bytes: 640, ..Counters::zero() },
            },
            Event::env("delivery_trace", "s3,p1x4"),
            Event::env("weird \"value\"", "tab\t\u{430}\u{43c}\n"),
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        for ev in sample_events() {
            let line = ev.to_jsonl();
            let back = Event::parse_jsonl(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn env_is_the_only_nondeterministic_variant() {
        let det: Vec<bool> = sample_events().iter().map(Event::is_deterministic).collect();
        assert_eq!(det.iter().filter(|&&d| !d).count(), 2);
        assert!(sample_events()
            .iter()
            .all(|e| e.is_deterministic() != matches!(e, Event::Env { .. })));
    }

    #[test]
    fn malformed_lines_error() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"type\":\"nope\"}",
            "{\"type\":\"round\"}",
            "{\"type\":\"env\",\"key\":\"k\",\"value\":3}",
            "{\"type\":\"commit_bytes\",\"bytes\":640}x",
            "{\"type\":\"commit_bytes\",\"bytes\":-1}",
            "{\"type\":\"commit_bytes\",\"bytes\":18446744073709551616}",
            "{\"type\":\"\\uéééé\"}",
        ] {
            assert!(Event::parse_jsonl(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn counters_absorb_matches_runstats_addition() {
        let mut a = Counters { rounds: 3, max_message_bits: 16, messages: 2, ..Counters::zero() };
        let b = Counters { rounds: 2, max_message_bits: 12, messages: 1, ..Counters::zero() };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages, 3);
        assert_eq!(a.max_message_bits, 16);
    }
}
