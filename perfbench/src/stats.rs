//! Order statistics and failure accounting shared by every workload.

use htp_server::Reply;

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The sample at share `q` (0 ≤ q ≤ 1) of the sorted samples, by
/// nearest rank; NaN when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[((n - 1) as f64 * q).round() as usize],
    }
}

/// Order statistics on each side of the tail rank that the reported
/// value averages with it, so one job's jitter moves it less.
pub const TAIL_SMOOTHING: usize = 2;

/// A latency tail at the highest rank that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Share of samples at or below the reported one, in percent.
    pub percentile: f64,
    /// The mean of the samples within [`TAIL_SMOOTHING`] ranks of that
    /// rank (the median when too few samples exist).
    pub value: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest percentile of `xs` with at least [`TAIL_BEYOND`] samples
/// beyond it. With too few samples for any rank at or above the median
/// to qualify, it falls back to the median (percentile 50), so a short
/// run never reports its maximum as a tail.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median_rank = n.saturating_sub(1) / 2;
    match n.checked_sub(TAIL_BEYOND + 1) {
        Some(rank) if rank >= median_rank && n > 0 => Tail {
            percentile: 100.0 * (rank + 1) as f64 / n as f64,
            value: {
                let window = &v[rank.saturating_sub(TAIL_SMOOTHING)..=rank + TAIL_SMOOTHING];
                window.iter().sum::<f64>() / window.len() as f64
            },
            beyond: n - 1 - rank,
            samples: n,
        },
        _ => Tail {
            percentile: 50.0,
            value: median(&v),
            beyond: n / 2,
            samples: n,
        },
    }
}

/// Operations attempted and failed in one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed when `failure` names a reason (the
    /// reason is logged on stderr).
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            eprintln!("FAILED: {why}");
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Why a server reply does not count as a certified, complete result, or
/// `None` when it does. Shed, draining, errored, degraded, cancelled and
/// uncertified replies all fail.
pub fn reply_failure(reply: &Reply) -> Option<String> {
    match reply {
        Reply::Result(r) if !r.certified => Some("reply not certified".into()),
        Reply::Result(r) if r.outcome != "complete" => Some(format!("outcome {}", r.outcome)),
        Reply::Result(_) => None,
        Reply::Overloaded { queue_depth, .. } => Some(format!("shed at queue depth {queue_depth}")),
        Reply::Draining => Some("server draining".into()),
        Reply::Error { message } => Some(format!("error: {message}")),
        Reply::Pong | Reply::Stats(_) => Some("reply of the wrong kind".into()),
    }
}

/// `true` when `got` matches `want` to within 1e-6 relative (absolute
/// below 1).
pub fn cost_matches(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-6 * want.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_server::ResultReply;

    fn samples(n: usize) -> Vec<f64> {
        // Reverse order: the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_takes_the_nearest_rank() {
        let xs = samples(101);
        assert_eq!(quantile(&xs, 0.95), 96.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 101.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let t = tail(&samples(100));
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);

        let t = tail(&samples(200));
        assert_eq!((t.value, t.beyond, t.percentile), (190.0, 10, 95.0));
    }

    #[test]
    fn tail_averages_the_ranks_around_it() {
        // Rank 89 of 100 with ranks 87..=91 holding 88, 89, 90, 91, 91.5.
        let mut xs = samples(100);
        xs[8] = 91.5; // the sample that was 92
        let t = tail(&xs);
        assert!((t.value - (88.0 + 89.0 + 90.0 + 91.0 + 91.5) / 5.0).abs() < 1e-12);
        assert_eq!((t.beyond, t.percentile), (10, 90.0));
    }

    #[test]
    fn tail_on_the_smallest_qualifying_sample() {
        // 21 samples: rank 10 is the median and has 10 above it.
        let t = tail(&samples(21));
        assert_eq!((t.value, t.beyond), (11.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_median_on_short_runs() {
        for n in [1, 3, 10, 11, 19] {
            let t = tail(&samples(n));
            assert_eq!(t.percentile, 50.0, "n = {n}");
            assert_eq!(t.value, median(&samples(n)), "n = {n}");
        }
        assert!(tail(&[]).value.is_nan());
    }

    fn result(outcome: &str, certified: bool) -> Reply {
        Reply::Result(Box::new(ResultReply {
            outcome: outcome.into(),
            cost: 1.0,
            assignment: String::new(),
            cached: false,
            certified,
            retried: false,
            warm: false,
            job_ms: 1,
        }))
    }

    #[test]
    fn every_kind_of_bad_reply_counts_as_failed() {
        let replies = [
            result("complete", true),
            result("degraded", true),
            result("cancelled", true),
            result("complete", false),
            Reply::Overloaded {
                queue_depth: 3,
                estimated_ms: 900,
            },
            Reply::Draining,
            Reply::Error {
                message: "boom".into(),
            },
            result("complete", true),
        ];
        let mut tally = Tally::default();
        for r in &replies {
            tally.record(reply_failure(r));
        }
        assert_eq!(tally.attempted, 8);
        assert_eq!(tally.failed, 6);
        assert_eq!(tally.failed_share(), 0.75);
    }

    #[test]
    fn failed_share_of_nothing_is_zero() {
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn cost_tolerance_is_relative() {
        assert!(cost_matches(40377.0 * (1.0 + 5e-7), 40377.0));
        assert!(!cost_matches(40377.0 * (1.0 + 2e-6), 40377.0));
        assert!(cost_matches(0.5 + 5e-7, 0.5));
    }
}
