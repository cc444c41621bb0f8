//! The probe determinism contract, pinned end to end.
//!
//! Everything a [`Probe`](deco_probe::Probe) records except `Env` events
//! is part of the workspace determinism contract: bit-identical across
//! `DECO_THREADS` and both engines. These tests pin a concrete
//! event-stream digest for a seeded churn replay, so *any* thread- or
//! delivery-dependent leak into the stream shows up as an explicit diff;
//! CI replays this binary across the `DECO_THREADS` {1, 2, 8} matrix, and
//! every leg must land on the same constant. The satellite contracts ride
//! along: a `NullProbe` changes no observable output, and the
//! `Round`/`Env(round_trace)` events are exactly the
//! [`RoundLoad`]/[`RoundTrace`] profiles the simulator already returns.

use deco_core::edge::legal::{edge_log_depth, MessageMode};
use deco_graph::trace::churn_trace;
use deco_local::{encode_round_trace, Action, Network, NodeCtx, Protocol, RoundLoad, RunStats};
use deco_probe::{digest_events, read_jsonl, Event, JsonlProbe, RecordingProbe};
use deco_stream::{replay_trace, replay_trace_probed};
use std::sync::Arc;

/// The canonical probed workload: a seeded 10k-vertex churn trace —
/// from-scratch build, three incremental commits — replayed through the
/// legacy engine.
fn probed_replay(probe: Arc<dyn deco_probe::Probe>) -> deco_stream::ReplayOutcome {
    let trace = churn_trace(10_000, 8, 3, 100, 0x9B0BE);
    replay_trace_probed(&trace, edge_log_depth(1), MessageMode::Long, 25, probe).unwrap()
}

#[test]
fn event_stream_digest_is_pinned_across_the_matrix() {
    let probe = Arc::new(RecordingProbe::new());
    let out = probed_replay(probe.clone());
    assert_eq!(out.reports.len(), 4);
    // The digest covers every deterministic event — phase spans, round
    // samples, commit decisions — and skips `Env` (wall clock, spill,
    // round_trace mode labels). One constant for every thread budget.
    // Re-pinned for silent Cole–Vishkin roots: the stream's phase and round
    // events carry the round, node-round and message counts, which fell.
    assert_eq!(probe.digest(), 9_216_808_941_701_517_336);
}

#[test]
fn null_probe_leaves_the_run_untouched() {
    let trace = churn_trace(2_000, 6, 3, 40, 0xFACE);
    let plain = replay_trace(&trace, edge_log_depth(1), MessageMode::Long, 25).unwrap();
    let probe = Arc::new(RecordingProbe::new());
    let probed =
        replay_trace_probed(&trace, edge_log_depth(1), MessageMode::Long, 25, probe.clone())
            .unwrap();
    assert_eq!(plain.reports, probed.reports);
    assert_eq!(plain.recolorer.coloring(), probed.recolorer.coloring());
    assert!(!probe.events().is_empty());
}

#[test]
fn jsonl_round_trips_the_exact_stream() {
    let dir = std::env::temp_dir().join(format!("deco-probe-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("churn.profile.jsonl");
    let jsonl = JsonlProbe::create(&path).unwrap();
    probed_replay(Arc::new(jsonl));
    let recording = Arc::new(RecordingProbe::new());
    probed_replay(recording.clone());
    let written = read_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    // Same digest through the file as in memory: the JSONL schema loses
    // nothing the determinism contract covers.
    assert_eq!(digest_events(&written), recording.digest());
    std::fs::remove_dir_all(&dir).ok();
}

/// `k`-round chatter: every node broadcasts its round counter `k` times,
/// so live-node and message curves are nontrivial.
struct Chatter {
    left: u64,
}

impl Protocol for Chatter {
    type Msg = u64;
    type Output = u64;
    fn start(&mut self, ctx: &NodeCtx<'_>) -> Vec<(usize, u64)> {
        ctx.broadcast(self.left)
    }
    fn round(&mut self, ctx: &NodeCtx<'_>, _inbox: &[(usize, u64)]) -> Action<u64> {
        self.left -= 1;
        if self.left == 0 {
            Action::halt()
        } else {
            Action::Continue(ctx.broadcast(self.left))
        }
    }
    fn finish(self, _ctx: &NodeCtx<'_>) -> u64 {
        self.left
    }
}

#[test]
fn round_events_equal_the_returned_profiles() {
    let g = deco_graph::generators::random_bounded_degree(300, 8, 0x0DD);
    let probe = Arc::new(RecordingProbe::new());
    let net = Network::new(&g).with_probe(probe.clone());
    // Stagger halting by vertex so the live-node curve actually decays.
    let run = net.run(|ctx| Chatter { left: 1 + ctx.vertex as u64 % 5 });
    let (profile, trace) = (&run.profile, &run.trace);
    assert_eq!(run.stats.rounds, profile.len());
    let events = probe.events();
    let rounds: Vec<&Event> = events.iter().filter(|e| matches!(e, Event::Round { .. })).collect();
    assert_eq!(rounds.len(), profile.len());
    for (i, (event, load)) in rounds.iter().zip(profile).collect::<Vec<_>>().into_iter().enumerate()
    {
        let &Event::Round {
            round,
            live_nodes,
            messages,
            bits,
            sent_messages,
            sent_bits,
            transport_dropped,
        } = *event
        else {
            unreachable!()
        };
        let want: &RoundLoad = load;
        assert_eq!(round, i as u64 + 1);
        assert_eq!(live_nodes, want.live_nodes as u64);
        assert_eq!(messages, want.messages as u64);
        assert_eq!(bits, want.bits as u64);
        assert_eq!(sent_messages, want.sent_messages as u64);
        assert_eq!(sent_bits, want.sent_bits as u64);
        assert_eq!(transport_dropped, want.transport_dropped as u64);
    }
    // The delivery-mode trace rides as a (non-deterministic) Env event in
    // exactly the run-length encoding the simulator documents.
    let encoded = events
        .iter()
        .find_map(|e| match e {
            Event::Env { key, value } if key == "round_trace" => Some(value.clone()),
            _ => None,
        })
        .expect("round_trace env event");
    assert_eq!(encoded, encode_round_trace(trace));
}

#[test]
fn commit_exit_stats_sum_to_replay_totals() {
    let probe = Arc::new(RecordingProbe::new());
    let out = probed_replay(probe.clone());
    let mut total = RunStats::zero();
    for rep in &out.reports {
        total += rep.stats;
    }
    let mut sum = deco_probe::Counters::zero();
    for e in probe.events() {
        if let Event::CommitExit { stats, .. } = e {
            sum.absorb(&stats);
        }
    }
    let want = deco_probe::Counters::from(total);
    assert_eq!(sum.rounds, want.rounds);
    assert_eq!(sum.node_rounds, want.node_rounds);
    assert_eq!(sum.messages, want.messages);
    assert_eq!(sum.total_message_bits, want.total_message_bits);
    assert_eq!(sum.commit_bytes, want.commit_bytes);
}
