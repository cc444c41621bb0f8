//! Shared helpers for the deco benchmark harnesses.
//!
//! Every paper bench regenerates one table or figure of the paper (see
//! DESIGN.md's experiment index) by running the actual distributed
//! algorithms on the simulator and printing measured rounds / colors /
//! message sizes. Absolute constants differ from the paper's asymptotic
//! statements; the *shape* (growth in Δ at fixed n, growth in n at fixed Δ,
//! crossovers) is what each harness checks and displays. The one
//! exception is the `gate` bench, which records the deterministic counters
//! that the [`gate`] module pins.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub mod gate;
pub mod json;

/// Benchmark scale, controlled by the `DECO_BENCH_SCALE` environment
/// variable: `quick` (default) finishes in a couple of minutes; `full`
/// extends the sweeps for the EXPERIMENTS.md numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweeps for CI / quick runs.
    Quick,
    /// The full sweeps used to produce EXPERIMENTS.md.
    Full,
}

/// Reads the scale from the environment.
pub fn scale() -> Scale {
    match std::env::var("DECO_BENCH_SCALE").as_deref() {
        Ok("full") => Scale::Full,
        _ => Scale::Quick,
    }
}

/// A fixed-width text table printer.
#[derive(Debug)]
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Starts a table and prints the header row.
    pub fn new(headers: &[&str], widths: &[usize]) -> Table {
        assert_eq!(headers.len(), widths.len());
        let t = Table { widths: widths.to_vec() };
        t.row(headers);
        t.rule();
        t
    }

    /// Prints a horizontal rule.
    pub fn rule(&self) {
        let total: usize = self.widths.iter().sum::<usize>() + 2 * (self.widths.len() - 1);
        println!("{}", "-".repeat(total));
    }

    /// Prints one row (first column left-aligned, the rest right-aligned).
    pub fn row<S: Display>(&self, cells: &[S]) {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let text = cell.to_string();
            if i == 0 {
                line.push_str(&format!("{:<width$}", text, width = self.widths[i]));
            } else {
                line.push_str(&format!("{:>width$}", text, width = self.widths[i]));
            }
        }
        println!("{line}");
    }
}

/// Formats a ratio with two decimals.
pub fn ratio(a: usize, b: usize) -> String {
    format!("{:.2}", a as f64 / b.max(1) as f64)
}

/// Prints the standard bench banner.
pub fn banner(id: &str, what: &str) {
    println!("\n=== {id}: {what} ===");
    println!("(scale: {:?}; set DECO_BENCH_SCALE=full for the EXPERIMENTS.md sweeps)\n", scale());
}

/// One wall-clock measurement: median over `samples` timed executions,
/// after one untimed warm-up execution.
///
/// The build environment is offline, so this replaces criterion: no
/// statistics beyond the median, but the numbers are stable enough for the
/// ≥2× speedup checks the perf PRs make (each sample runs the full
/// deterministic simulation, so variance comes only from the machine).
pub fn time_median<R>(samples: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    assert!(samples >= 1, "need at least one sample");
    let mut result = f(); // warm-up: page in buffers, warm caches
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        result = f();
        times.push(t0.elapsed());
    }
    times.sort_unstable();
    (result, times[times.len() / 2])
}

/// Formats a duration as fractional milliseconds.
pub fn millis(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Interleaved comparison timing: runs one untimed warm-up of every variant,
/// then `samples` passes timing each variant once per pass, and returns the
/// per-variant medians. Two fairness devices, both of which matter on
/// shared containers where the noise exceeds the effects being measured:
/// interleaving cancels machine-load drift that sequential per-variant
/// blocks soak up unevenly, and each pass starts at a different variant so
/// no variant always inherits the same predecessor's allocator and cache
/// state.
pub fn time_interleaved<R>(
    samples: usize,
    variants: &mut [&mut dyn FnMut() -> R],
) -> Vec<Duration> {
    assert!(samples >= 1, "need at least one sample");
    for f in variants.iter_mut() {
        let _ = f();
    }
    let k = variants.len();
    let mut times: Vec<Vec<Duration>> = variants.iter().map(|_| Vec::new()).collect();
    for pass in 0..samples {
        for i in 0..k {
            let v = (pass + i) % k;
            let t0 = Instant::now();
            let _ = variants[v]();
            times[v].push(t0.elapsed());
        }
    }
    times
        .into_iter()
        .map(|mut ts| {
            ts.sort_unstable();
            ts[ts.len() / 2]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_median_runs_and_orders() {
        let mut calls = 0usize;
        let (r, _d) = time_median(3, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 4); // warm-up + 3 samples
        assert_eq!(r, 4);
        // The median of timed real work is bounded by a sleep we control.
        let (_, slept) = time_median(1, || std::thread::sleep(Duration::from_millis(2)));
        assert!(slept >= Duration::from_millis(2));
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(3, 2), "1.50");
        assert_eq!(ratio(1, 0), "1.00");
    }

    #[test]
    fn default_scale_is_quick() {
        // The test environment does not set the variable.
        if std::env::var("DECO_BENCH_SCALE").is_err() {
            assert_eq!(scale(), Scale::Quick);
        }
    }
}
