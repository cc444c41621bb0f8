//! Deterministic observability for the deco workspace.
//!
//! Every layer of the system — the slot/naive delivery engines, the
//! [`Pipeline`](../deco_core/pipeline) phase runner, the streaming
//! `Recolorer`s and the commit machinery — emits structured [`Event`]s into
//! a [`Probe`]. The probe is the *only* observability channel: there is no
//! logging, no global state, no sampling. Three sinks cover every use:
//!
//! * [`NullProbe`] — the default everywhere; disabled, zero-cost (emit
//!   sites are gated on [`Probe::enabled`], so no event is even
//!   constructed);
//! * [`RecordingProbe`] — collects events in memory, for tests, benches and
//!   in-process report building;
//! * [`JsonlProbe`] — streams events to a file, one JSON object per line
//!   (the `deco-stream --profile out.jsonl` path), re-parsable with
//!   [`Event::parse_jsonl`].
//!
//! # Determinism contract
//!
//! Everything a probe records is **bit-deterministic**: for a fixed
//! scenario (graph, trace, seed, parameters) the sequence of deterministic
//! events is byte-identical across `DECO_THREADS`, both delivery engines,
//! their per-round delivery choices and both commit paths — the same
//! contract the bench gate enforces on counters, extended to the whole
//! event stream. Machine- and configuration-dependent facts (wall clock,
//! worker counts, per-round delivery choices, spill-arena occupancy) are
//! carried exclusively by [`Event::Env`] entries, which
//! [`Event::is_deterministic`] excludes — the same policy as the bench
//! gate's non-fatal `environment` blocks.
//! [`RecordingProbe::digest`] hashes exactly the deterministic subsequence,
//! so a recorded profile can be pinned as a single value and diffed across
//! thread counts.
//!
//! [`report::Report`] rolls a recorded (or re-parsed) event stream into a
//! per-phase cost breakdown; [`registry::Registry`] is the underlying
//! counters-and-histograms store with a stable text exposition.
//!
//! [`json`] is the workspace's one JSON codec. It lives here, at the bottom
//! of the dependency graph, so the JSONL events, profile reports, bench
//! result files, the counter gate and `deco-tidy --json` share one writer,
//! one escaper, one parser and one [`ParseError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod json;
pub mod registry;
pub mod report;
mod sink;

pub use event::{Counters, Event};
pub use json::ParseError;
pub use sink::{digest_events, null, read_jsonl, JsonlProbe, NullProbe, Probe, RecordingProbe};

/// The 64-bit FNV-1a hash the probe pins deterministic streams with (the
/// workspace's standard fingerprint primitive: no external hash crates in
/// the offline build).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.bytes(bytes);
    f.digest()
}

/// Streaming 64-bit FNV-1a ([`fnv1a64`] fed incrementally): the
/// workspace's one fingerprint primitive for event streams, gate counters,
/// color histories and serve transcripts.
#[derive(Debug, Clone)]
pub struct Fnv {
    hash: u64,
    prime: u64,
}

impl Fnv {
    /// The empty fingerprint.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Fnv {
        Fnv::with_prime(0x0000_0100_0000_01b3)
    }

    /// The empty fingerprint of an FNV-1a variant that multiplies by
    /// `prime` instead of the FNV-64 prime. The color-history pins
    /// (`tests/stream_churn.rs`, `tests/fault_matrix.rs`, the pr4/pr6/pr7
    /// bench color hashes) were taken with `0x1000_0000_01b3`, the FNV
    /// prime with one zero too many, and keep it so no pin moves.
    pub fn with_prime(prime: u64) -> Fnv {
        Fnv { hash: 0xcbf2_9ce4_8422_2325, prime }
    }

    /// Absorbs `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(self.prime);
        }
    }

    /// Absorbs one word as its eight little-endian bytes.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.hash
    }
}
