//! Event sinks: the [`Probe`] trait and its three implementations.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use crate::event::Event;
use crate::Fnv;

/// A structured event sink.
///
/// Emit sites must gate event construction on [`Probe::enabled`]:
///
/// ```ignore
/// if probe.enabled() {
///     probe.emit(Event::Region { commit, dirty });
/// }
/// ```
///
/// so a disabled probe ([`NullProbe`], the default everywhere) costs one
/// predictable branch and never allocates.
///
/// # Determinism contract
///
/// Emitters may only put machine- or configuration-dependent data (wall
/// clock, thread/worker counts, chosen delivery modes, allocator
/// occupancy) into [`Event::Env`] entries. Every other event must be
/// byte-identical for a fixed scenario regardless of `DECO_THREADS`,
/// `DECO_DELIVERY`, the engine, or the commit path — the bench gate's
/// counters-over-wall policy extended to the event stream. Sinks must be
/// `Send + Sync` because parallel runners may emit from worker threads
/// (today all emission happens post-run on the driving thread, which is
/// what keeps the ordering deterministic).
pub trait Probe: std::fmt::Debug + Send + Sync {
    /// Whether events should be constructed and emitted at all.
    fn enabled(&self) -> bool;
    /// Records one event. Implementations must not reorder events.
    fn emit(&self, event: Event);
}

/// The disabled sink: [`Probe::enabled`] is `false` and [`Probe::emit`]
/// drops the event. The default probe of every `Network`, `Recolorer` and
/// graph; `tests/zero_alloc.rs` pins this path at zero extra allocations.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {
    fn enabled(&self) -> bool {
        false
    }
    fn emit(&self, _event: Event) {}
}

/// The shared process-wide [`NullProbe`], so default-constructed networks
/// and graphs attach a probe without a per-instance allocation.
pub fn null() -> Arc<dyn Probe> {
    static NULL: OnceLock<Arc<dyn Probe>> = OnceLock::new();
    Arc::clone(NULL.get_or_init(|| Arc::new(NullProbe)))
}

/// An in-memory sink for tests, benches and in-process report building.
#[derive(Debug, Default)]
pub struct RecordingProbe {
    events: Mutex<Vec<Event>>,
}

impl RecordingProbe {
    /// A fresh, empty recorder.
    pub fn new() -> RecordingProbe {
        RecordingProbe::default()
    }

    /// A clone of everything recorded so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        self.events.lock().expect("probe lock").clone()
    }

    /// Drains the recorder, returning everything recorded so far.
    pub fn take(&self) -> Vec<Event> {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        std::mem::take(&mut *self.events.lock().expect("probe lock"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        self.events.lock().expect("probe lock").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// FNV-1a fingerprint of the deterministic subsequence: each event with
    /// [`Event::is_deterministic`] contributes its JSONL line plus a
    /// newline. [`Event::Env`] entries are skipped entirely, so digests
    /// compare equal across thread counts and delivery modes — this is the
    /// value the determinism matrix and `BENCH_gate.json` pin.
    pub fn digest(&self) -> u64 {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        digest_events(&self.events.lock().expect("probe lock"))
    }
}

impl Probe for RecordingProbe {
    fn enabled(&self) -> bool {
        true
    }
    fn emit(&self, event: Event) {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        self.events.lock().expect("probe lock").push(event);
    }
}

/// FNV-1a fingerprint of a slice of events under the same rules as
/// [`RecordingProbe::digest`] (deterministic events only, JSONL lines
/// separated by `\n`).
pub fn digest_events(events: &[Event]) -> u64 {
    let mut f = Fnv::new();
    for ev in events.iter().filter(|e| e.is_deterministic()) {
        f.bytes(ev.to_jsonl().as_bytes());
        f.bytes(b"\n");
    }
    f.digest()
}

/// A file sink: one JSON object per line, in emission order, including
/// [`Event::Env`] entries (consumers that need the deterministic stream
/// filter with [`Event::is_deterministic`] after re-parsing). Buffered;
/// flushed on drop and on [`JsonlProbe::flush`].
pub struct JsonlProbe {
    out: Mutex<BufWriter<File>>,
}

impl std::fmt::Debug for JsonlProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlProbe").finish_non_exhaustive()
    }
}

impl JsonlProbe {
    /// Creates (truncating) `path` and returns a probe streaming to it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlProbe> {
        let file = File::create(path)?;
        Ok(JsonlProbe { out: Mutex::new(BufWriter::new(file)) })
    }

    /// Flushes buffered lines to the file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn flush(&self) -> io::Result<()> {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        self.out.lock().expect("probe lock").flush()
    }
}

impl Probe for JsonlProbe {
    fn enabled(&self) -> bool {
        true
    }
    fn emit(&self, event: Event) {
        // INVARIANT: a poisoned lock means another thread panicked while holding it; propagating that panic is the intended failure mode.
        let mut out = self.out.lock().expect("probe lock");
        // A full disk mid-profile should not abort the run it observes.
        let _ = writeln!(out, "{}", event.to_jsonl());
    }
}

impl Drop for JsonlProbe {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// Reads a JSONL profile written by [`JsonlProbe`] back into events.
/// Blank lines are skipped.
///
/// # Errors
///
/// Returns the first [`ParseError`](crate::ParseError), annotated with its
/// 1-based line number via the message.
pub fn read_jsonl(text: &str) -> Result<Vec<Event>, crate::ParseError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(_, l)| Event::parse_jsonl(l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counters;

    #[test]
    fn null_probe_is_disabled() {
        assert!(!NullProbe.enabled());
        assert!(!null().enabled());
        null().emit(Event::CommitBytes { bytes: 1 });
    }

    #[test]
    fn null_is_shared() {
        let a = null();
        let b = null();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn recording_probe_preserves_order_and_digests_deterministically() {
        let p = RecordingProbe::new();
        p.emit(Event::PhaseEnter { name: "a".into() });
        p.emit(Event::env("threads", "8"));
        p.emit(Event::PhaseExit { name: "a".into(), stats: Counters::zero() });
        assert_eq!(p.len(), 3);
        let d1 = p.digest();

        let q = RecordingProbe::new();
        q.emit(Event::PhaseEnter { name: "a".into() });
        q.emit(Event::env("threads", "1"));
        q.emit(Event::env("wall_ms", "17"));
        q.emit(Event::PhaseExit { name: "a".into(), stats: Counters::zero() });
        assert_eq!(d1, q.digest(), "Env events must not affect the digest");

        let r = RecordingProbe::new();
        r.emit(Event::PhaseExit { name: "a".into(), stats: Counters::zero() });
        r.emit(Event::PhaseEnter { name: "a".into() });
        assert_ne!(d1, r.digest(), "order must affect the digest");
    }

    #[test]
    fn jsonl_probe_round_trips() {
        let dir = std::env::temp_dir().join("deco-probe-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("sink-{}.jsonl", std::process::id()));
        let events = vec![
            Event::CommitEnter { commit: 0, inserted: 1, deleted: 0, n: 4, m: 3, max_degree: 2 },
            Event::env("wall_us", "12"),
            Event::CommitExit {
                commit: 0,
                strategy: "clean".into(),
                recolored: 0,
                schedule_classes: 0,
                color_bound: 7,
                region_vertices: 0,
                retries: 0,
                fallbacks: 0,
                stats: Counters::zero(),
            },
        ];
        {
            let p = JsonlProbe::create(&path).expect("create");
            assert!(p.enabled());
            for ev in &events {
                p.emit(ev.clone());
            }
        }
        let text = std::fs::read_to_string(&path).expect("read");
        let back = read_jsonl(&text).expect("parse");
        assert_eq!(back, events);
        assert_eq!(digest_events(&back), digest_events(&events));
        std::fs::remove_file(&path).ok();
    }
}
