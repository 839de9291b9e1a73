//! Shared utilities for the benchmark bins and the `reproduce` binary
//! that regenerates every table and figure of the paper.
//!
//! The experiments print the same rows/series the paper reports and also
//! write CSV files under `results/`, so EXPERIMENTS.md can cite both. The
//! `BENCH_*.json` bins share [`harness`].

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod plot;
pub mod report;
pub mod timing;

pub use report::{csv_path, write_csv, Table};
pub use timing::{median_duration, time, time_median};

/// The thread counts swept by the experiments; the paper uses 1–16 on
/// Machine-I and 1–32 on Machine-II. Override with the
/// `PARAPSP_THREADS` environment variable (comma-separated).
pub fn thread_sweep() -> Vec<usize> {
    if let Ok(val) = std::env::var("PARAPSP_THREADS") {
        let parsed: Vec<usize> = val
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&t| t > 0)
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
        eprintln!("warning: ignoring unparsable PARAPSP_THREADS={val:?}");
    }
    vec![1, 2, 4, 8, 16]
}

/// Formats a `Duration` compactly for table cells (µs/ms/s picked by size).
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.0} µs")
    } else if us < 1_000_000.0 {
        format!("{:.2} ms", us / 1_000.0)
    } else {
        format!("{:.2} s", us / 1_000_000.0)
    }
}

/// Parallel speedup `t1 / tp`.
pub fn speedup(t1: std::time::Duration, tp: std::time::Duration) -> f64 {
    if tp.is_zero() {
        return f64::INFINITY;
    }
    t1.as_secs_f64() / tp.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12 µs");
        assert!(fmt_duration(Duration::from_millis(34)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
    }

    #[test]
    fn speedup_math() {
        assert!((speedup(Duration::from_secs(8), Duration::from_secs(2)) - 4.0).abs() < 1e-12);
        assert!(speedup(Duration::from_secs(1), Duration::ZERO).is_infinite());
    }

    #[test]
    fn default_thread_sweep_is_paperlike() {
        // Don't mutate the env (other tests run in parallel); just check
        // the default path when the variable is absent.
        if std::env::var("PARAPSP_THREADS").is_err() {
            assert_eq!(thread_sweep(), vec![1, 2, 4, 8, 16]);
        }
    }
}
