//! Minimal timing helpers for the `reproduce` experiments (coarse
//! one-shot or median-of-runs numbers, after the paper's average-of-10-runs
//! methodology) and the `BENCH_*.json` bins.

use std::time::{Duration, Instant};

/// Times one invocation of `f`, returning `(result, elapsed)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Median of an odd number of duration samples.
pub fn median_duration(mut samples: Vec<Duration>) -> Duration {
    assert!(!samples.is_empty(), "no samples");
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs `f` `runs` times and reports the median wall time of the last
/// invocation batch (the paper averages 10 runs; median is sturdier on a
/// shared box).
pub fn time_median(runs: usize, mut f: impl FnMut()) -> Duration {
    assert!(runs > 0, "need at least one run");
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        f();
        samples.push(start.elapsed());
    }
    median_duration(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_value_and_nonzero_duration() {
        let (v, d) = time(|| (0..10_000u64).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn median_picks_middle() {
        let samples = vec![
            Duration::from_millis(9),
            Duration::from_millis(1),
            Duration::from_millis(5),
        ];
        assert_eq!(median_duration(samples), Duration::from_millis(5));
    }

    #[test]
    fn time_median_runs_requested_times() {
        let mut count = 0;
        let _ = time_median(5, || count += 1);
        assert_eq!(count, 5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_median_panics() {
        let _ = median_duration(Vec::new());
    }
}
