//! Summary statistics: percentiles with their support, the stall
//! classifier and open-loop schedule accounting.

use std::time::Duration;

/// A tail percentile must keep at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample in place and returns it (total order; NaN-free input).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// 1-based nearest rank of percentile `permille`/1000 among `n` samples.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of a sorted, non-empty sample: the smallest
/// value with at least `permille`/1000 of the samples at or below it.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    sorted[rank(sorted.len(), permille) - 1]
}

/// Median of a sorted sample (0 for an empty one).
pub fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, 500)
    }
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median_of(xs: Vec<f64>) -> f64 {
    median(&sorted(xs))
}

/// A tail percentile together with the sample it stands on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in thousandths.
    pub permille: u32,
    /// Its value.
    pub value: f64,
    /// Samples in the run.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The fixed tail percentile `permille` of a sorted sample, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: such a percentile is
/// one or two unlucky commits, not a tail.
pub fn tail(sorted: &[f64], permille: u32) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let beyond = n - rank(n, permille);
    (beyond >= MIN_BEYOND).then(|| Tail {
        permille,
        value: percentile(sorted, permille),
        samples: n,
        beyond,
    })
}

/// The highest percentile (in thousandths) of `n` samples that still keeps
/// [`MIN_BEYOND`] samples beyond it, or `None` if there is none.
pub fn highest_supported(n: usize) -> Option<u32> {
    (0..1000u32).rev().find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// The workload's fixed tail percentile when the sample supports it, else
/// the highest percentile it does support (`fallback` is then true).
pub fn tail_or_fallback(sorted: &[f64], permille: u32) -> Option<(Tail, bool)> {
    if let Some(t) = tail(sorted, permille) {
        return Some((t, false));
    }
    tail(sorted, highest_supported(sorted.len())?).map(|t| (t, true))
}

/// Commits whose serve-side overhead (visible latency minus engine wall)
/// exceeds the run's own median overhead by more than `margin_ms`: a
/// commit that sat in a queue or behind a missed wakeup, not one that
/// worked longer.
pub fn stalled(overheads_ms: &[f64], margin_ms: f64) -> usize {
    let med = median_of(overheads_ms.to_vec());
    overheads_ms.iter().filter(|&&o| o > med + margin_ms).count()
}

/// Share of the offered batches that did not fail; 1 when nothing was
/// offered.
pub fn ok_frac(attempted: u64, failed: u64) -> f64 {
    1.0 - failed as f64 / attempted.max(1) as f64
}

/// An open-loop send schedule: the `k`-th send is due `k / rate` after
/// the schedule's start, whether or not earlier sends completed.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate_per_s: f64,
}

impl Schedule {
    /// A schedule of `rate_per_s` sends per second.
    pub fn new(rate_per_s: f64) -> Schedule {
        assert!(rate_per_s > 0.0, "an open loop needs a positive rate");
        Schedule { rate_per_s }
    }

    /// Offset of send `k` from the start.
    pub fn due(&self, k: usize) -> Duration {
        Duration::from_secs_f64(k as f64 / self.rate_per_s)
    }

    /// Sends due within the first `seconds`.
    pub fn sends_within(&self, seconds: f64) -> usize {
        (seconds * self.rate_per_s).round() as usize
    }
}

/// How late a send went out: its start offset minus its due offset, or
/// zero when it went out on time.
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

/// An open-loop commit's latency: counted from when it was due, so a
/// generator stall is charged to every send it delayed.
pub fn latency_from_due(due: Duration, visible: Duration) -> Duration {
    visible.saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 500), 50.0);
        assert_eq!(percentile(&xs, 900), 90.0);
        assert_eq!(percentile(&xs, 990), 99.0);
        assert_eq!(percentile(&xs, 1000), 100.0);
        assert_eq!(percentile(&xs, 0), 1.0);
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_of(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_refuses_fewer_than_ten_samples_beyond() {
        let xs = ramp(100);
        let p90 = tail(&xs, 900).unwrap();
        assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
        assert_eq!(tail(&xs, 910), None, "p91 of 100 keeps only 9 beyond");
        assert_eq!(tail(&xs, 990), None);
        assert_eq!(tail(&ramp(1000), 990).unwrap().beyond, 10);
        assert_eq!(tail(&[], 500), None);
        assert_eq!(tail(&ramp(10), 0), None, "ten samples cannot keep ten beyond rank 1");
    }

    #[test]
    fn fallback_picks_the_highest_supported_percentile() {
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(0), None);
        let xs = ramp(200);
        let (t, fell_back) = tail_or_fallback(&xs, 990).unwrap();
        assert!(fell_back);
        assert_eq!((t.permille, t.beyond), (950, 10));
        let (t, fell_back) = tail_or_fallback(&xs, 900).unwrap();
        assert!(!fell_back);
        assert_eq!(t.value, 180.0);
        assert_eq!(tail_or_fallback(&ramp(5), 900), None);
    }

    #[test]
    fn stall_classifier_counts_overheads_far_above_the_median() {
        let mut o = vec![1.0; 50];
        o.extend([20.0, 25.9, 51.0, 60.0]);
        assert_eq!(stalled(&o, 25.0), 2, "only overheads > median + 25 ms stall");
        assert_eq!(stalled(&[], 25.0), 0);
        // A uniformly slow run stalls nothing: the classifier is relative.
        assert_eq!(stalled(&[80.0, 81.0, 82.0], 25.0), 0);
    }

    #[test]
    fn ok_frac_is_the_share_of_batches_that_did_not_fail() {
        assert_eq!(ok_frac(200, 0), 1.0);
        assert_eq!(ok_frac(200, 200), 0.0);
        assert_eq!(ok_frac(200, 3), 0.985);
        assert_eq!(ok_frac(0, 0), 1.0);
    }

    #[test]
    fn open_loop_lateness_is_measured_from_the_due_time() {
        let s = Schedule::new(300.0);
        assert_eq!(s.sends_within(10.0), 3000);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(300), Duration::from_secs(1));
        let due = s.due(3);
        assert_eq!(due, Duration::from_millis(10));
        // On time and early sends are not late.
        assert_eq!(lateness(due, due), Duration::ZERO);
        assert_eq!(lateness(due, Duration::from_millis(9)), Duration::ZERO);
        // A generator that slept 2 ms too long is 2 ms late ...
        let sent = Duration::from_millis(12);
        assert_eq!(lateness(due, sent), Duration::from_millis(2));
        // ... and the commit's latency includes that delay.
        let visible = Duration::from_millis(15);
        assert_eq!(latency_from_due(due, visible), Duration::from_millis(5));
        assert!(latency_from_due(due, visible) > visible - sent);
    }
}
