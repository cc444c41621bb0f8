//! The **transport seam**: who decides each message's fate.
//!
//! The paper's model is perfectly synchronous — a message sent over an edge
//! in round `r` arrives in round `r + 1`, always. The ROADMAP's north star
//! is a long-lived service where that is a polite fiction: messages get
//! delayed, dropped and reordered. This module makes the seam explicit:
//! the slot engine asks a [`Transport`] for the *fate* of every message it
//! posts, keyed by the message's directed-edge slot and the posting round.
//!
//! Two implementations ship:
//!
//! * [`InProcess`] — the default: every fate is [`Fate::Deliver`], and
//!   [`Transport::is_perfect`] returns `true`, which lets the engine take
//!   the exact pre-seam code path (adaptive delivery, parallel stepping,
//!   stale-slot skips). The fault-free engine stays the bit-exact oracle.
//! * [`FaultyTransport`] — deterministic seed-driven faults: per-message
//!   drop, delay by `k` rounds, and bounded reorder, each at a configurable
//!   rate in parts per million. The fate of a message is a pure hash of
//!   `(seed, slot, round)` — no mutable state, no ordering dependence — so
//!   a faulty run is exactly reproducible from its seed, at any thread
//!   count and on either engine.
//!
//! # Fault semantics
//!
//! * **Drop** — the message is destroyed after being counted as sent; the
//!   receiver simply never sees it. Dropped traffic is accounted
//!   byte-accurately in [`RoundLoad::transport_dropped`] /
//!   [`RoundLoad::transport_dropped_bits`](crate::RoundLoad) and
//!   [`RunStats::transport_dropped`](crate::RunStats).
//! * **Delay(k)** — the message arrives `k` rounds late (round
//!   `r + 1 + k` instead of `r + 1`). The LOCAL model allows one message
//!   per directed edge per round, so if a fresher message occupies the
//!   edge at the late arrival round, the delayed one is postponed a further
//!   round (repeatedly if necessary) — late messages never displace fresh
//!   ones. A delayed message addressed to a node that has halted by its
//!   arrival round is dropped exactly like any send toward a halted node.
//! * **Reorder** — realized as a one-round deferral: the deferred message
//!   is overtaken by the next round's traffic on neighboring edges (and,
//!   via the postponement rule, possibly by later sends on its own edge),
//!   which yields a bounded reordering window without any unbounded
//!   buffering.
//!
//! Because every non-perfect transport forces the engine onto a sequential,
//! scan-delivery, take-semantics path (see the `network` module), faulty
//! runs remain bit-deterministic: same graph + protocol + transport seed ⇒
//! identical outputs, stats and profiles, regardless of the thread budget
//! (`DECO_THREADS`).

/// What a [`Transport`] does with one posted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Arrive next round, as the synchronous model promises.
    Deliver,
    /// Destroy the message (counted as sent, never delivered).
    Drop,
    /// Arrive `k ≥ 1` rounds late; see the module docs for the collision
    /// (postponement) rule.
    Delay(u32),
}

/// A message transport: decides, per directed-edge slot and round, whether
/// the slot engine delivers a posted message on time, late, or never.
///
/// The engine consults the transport at every post (the round-boundary
/// delivery hook) and executes the returned [`Fate`] itself — transports
/// are pure *policy*, they never touch message payloads or arena storage.
/// Implementations must be deterministic functions of `(slot, round)`:
/// the simulator's reproducibility contract extends to faulty runs, and
/// the self-stabilizing repair layer in `deco-stream` relies on replaying
/// a transport's decisions exactly.
///
/// A transport reporting [`Transport::is_perfect`] `= true` promises every
/// fate is [`Fate::Deliver`]; the engine then skips the fault machinery
/// entirely and runs the original zero-allocation path bit-for-bit
/// (adaptive push/scan delivery, parallel stepping). A non-perfect
/// transport — even one whose fault rates are all zero — routes through
/// the fault-tolerant path: sequential stepping, scan delivery, and
/// take-semantics fetches, which the differential tests pin against the
/// perfect path at zero rates.
pub trait Transport: std::fmt::Debug + Send + Sync {
    /// The fate of the message posted into directed-edge slot `slot`
    /// during round `round` (deliverable in `round + 1`).
    fn fate(&self, slot: usize, round: usize) -> Fate;

    /// Whether this transport never faults (lets the engine take the exact
    /// fault-free fast path). Defaults to `false`.
    fn is_perfect(&self) -> bool {
        false
    }
}

/// The default in-process transport: perfect synchronous delivery through
/// the double-buffered slot arenas. See [`Transport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcess;

impl Transport for InProcess {
    fn fate(&self, _slot: usize, _round: usize) -> Fate {
        Fate::Deliver
    }

    fn is_perfect(&self) -> bool {
        true
    }
}

/// Rates are expressed in parts per million of posted messages.
const PPM: u64 = 1_000_000;

/// Deterministic seed-driven fault injection. See the module docs for the
/// fault semantics and the determinism contract.
///
/// # Example
///
/// ```
/// use deco_local::{Fate, FaultyTransport, Transport};
///
/// let t = FaultyTransport::new(42).with_drop(250_000); // 25% drop rate
/// // Fates are a pure function of (seed, slot, round): always replayable.
/// assert_eq!(t.fate(3, 7), t.fate(3, 7));
/// assert!(!t.is_perfect());
/// let dropped = (0..1000).filter(|&s| t.fate(s, 1) == Fate::Drop).count();
/// assert!(dropped > 150 && dropped < 350, "~25% of 1000, got {dropped}");
/// ```
#[derive(Debug, Clone)]
pub struct FaultyTransport {
    seed: u64,
    drop_ppm: u32,
    delay_ppm: u32,
    max_delay: u32,
    reorder_ppm: u32,
}

impl FaultyTransport {
    /// A faulty transport with the given seed and all fault rates zero.
    ///
    /// Note that a zero-rate faulty transport still reports
    /// [`Transport::is_perfect`] `= false`: it exercises the engine's full
    /// fault-tolerant path, which the tests differentially pin against the
    /// perfect [`InProcess`] path.
    pub fn new(seed: u64) -> FaultyTransport {
        FaultyTransport { seed, drop_ppm: 0, delay_ppm: 0, max_delay: 1, reorder_ppm: 0 }
    }

    /// Sets the drop rate in parts per million (capped at 1 000 000).
    pub fn with_drop(mut self, ppm: u32) -> FaultyTransport {
        self.drop_ppm = ppm.min(PPM as u32);
        self
    }

    /// Sets the delay rate in parts per million and the maximum lateness:
    /// a delayed message arrives `k ∈ [1, max_delay]` rounds late, with
    /// `k` drawn deterministically from the fate hash.
    pub fn with_delay(mut self, ppm: u32, max_delay: u32) -> FaultyTransport {
        self.delay_ppm = ppm.min(PPM as u32);
        self.max_delay = max_delay.max(1);
        self
    }

    /// Sets the reorder rate in parts per million: each selected message is
    /// deferred one round, letting adjacent traffic overtake it (a bounded
    /// reordering window — see the module docs).
    pub fn with_reorder(mut self, ppm: u32) -> FaultyTransport {
        self.reorder_ppm = ppm.min(PPM as u32);
        self
    }

    /// The transport's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// SplitMix64-style finalizer over `(seed, slot, round)` — the whole
    /// source of randomness, so fates are replayable by construction.
    fn mix(&self, slot: usize, round: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .wrapping_add((slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((round as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Transport for FaultyTransport {
    fn fate(&self, slot: usize, round: usize) -> Fate {
        let h = self.mix(slot, round);
        let r = (h % PPM) as u32;
        if r < self.drop_ppm {
            return Fate::Drop;
        }
        if r < self.drop_ppm.saturating_add(self.delay_ppm) {
            let k = 1 + ((h >> 32) % u64::from(self.max_delay)) as u32;
            return Fate::Delay(k);
        }
        let faulted = self.drop_ppm.saturating_add(self.delay_ppm).saturating_add(self.reorder_ppm);
        if r < faulted {
            return Fate::Delay(1);
        }
        Fate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_is_perfect_and_always_delivers() {
        assert!(InProcess.is_perfect());
        for slot in [0usize, 1, 999] {
            for round in [0usize, 5, 1_000] {
                assert_eq!(InProcess.fate(slot, round), Fate::Deliver);
            }
        }
    }

    #[test]
    fn zero_rate_faulty_transport_delivers_but_is_not_perfect() {
        let t = FaultyTransport::new(7);
        assert!(!t.is_perfect());
        assert!((0..500).all(|s| t.fate(s, 3) == Fate::Deliver));
    }

    #[test]
    fn fates_are_deterministic_in_seed_slot_round() {
        let a = FaultyTransport::new(11).with_drop(300_000).with_delay(300_000, 4);
        let b = FaultyTransport::new(11).with_drop(300_000).with_delay(300_000, 4);
        for slot in 0..200 {
            for round in 0..20 {
                assert_eq!(a.fate(slot, round), b.fate(slot, round));
            }
        }
        // A different seed decides differently somewhere.
        let c = FaultyTransport::new(12).with_drop(300_000).with_delay(300_000, 4);
        assert!((0..200usize).any(|s| a.fate(s, 1) != c.fate(s, 1)));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let t = FaultyTransport::new(99).with_drop(100_000).with_delay(100_000, 3);
        let n = 20_000usize;
        let mut drops = 0usize;
        let mut delays = 0usize;
        for s in 0..n {
            match t.fate(s, 2) {
                Fate::Drop => drops += 1,
                Fate::Delay(k) => {
                    assert!((1..=3).contains(&k));
                    delays += 1;
                }
                Fate::Deliver => {}
            }
        }
        let tol = n / 50; // 2% absolute tolerance on a 10% rate
        assert!(drops.abs_diff(n / 10) < tol, "drops {drops} far from {}", n / 10);
        assert!(delays.abs_diff(n / 10) < tol, "delays {delays} far from {}", n / 10);
    }

    #[test]
    fn reorder_defers_exactly_one_round() {
        let t = FaultyTransport::new(5).with_reorder(PPM as u32);
        assert!((0..100).all(|s| t.fate(s, 1) == Fate::Delay(1)));
    }

    #[test]
    fn full_drop_rate_drops_everything() {
        let t = FaultyTransport::new(1).with_drop(u32::MAX); // capped at 100%
        assert!((0..100).all(|s| t.fate(s, 1) == Fate::Drop));
    }
}
