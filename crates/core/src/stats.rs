//! Phase timings and work counters reported by every APSP run.
//!
//! The paper's evaluation separates *ordering time* (Table 1, Figs. 4 and
//! 6) from *Dijkstra-part time* (Fig. 5) from *overall elapsed time*
//! (Figs. 7, 8, 10a); [`PhaseTimings`] carries exactly that split. The
//! [`Counters`] quantify the dynamic-programming reuse that the paper
//! credits for its hyper-linear speedups (§5.4).

use std::time::Duration;

use crate::dist::DistanceMatrix;

/// Work counters accumulated across all SSSP runs of one APSP execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Successful distance improvements (edge and row relaxations).
    pub relaxations: u64,
    /// Queue pop operations across all modified-Dijkstra runs.
    pub queue_pops: u64,
    /// Times a dequeued vertex's published row was consumed whole
    /// (Alg. 1 lines 6–11) — the dynamic-programming shortcut. Always
    /// `lease_hits + lease_misses`.
    pub row_reuses: u64,
    /// Row leases served without a `pread`: dense lends and hot-cache
    /// hits.
    pub lease_hits: u64,
    /// Row leases that `pread` the row on demand.
    pub lease_misses: u64,
    /// Always 0. It counted lease hits on rows a decode-ahead thread had
    /// loaded into the mmap hot-row cache; that thread is gone (on
    /// hosts with as many cores as kernel threads it cost more CPU than
    /// the misses it saved), and the field stays so reports and benches
    /// that read it keep their schema.
    pub decode_ahead_hits: u64,
    /// High-water mark of hot-cache bytes pinned by live leases
    /// (merged by `max`, not sum; 0 on the dense backend).
    pub pinned_bytes_peak: u64,
    /// Completed SSSP runs (should equal the vertex count).
    pub sources: u64,
}

impl Counters {
    /// Element-wise sum (peak fields merge by `max`), used to merge
    /// per-thread counters.
    pub fn merge(&mut self, other: &Counters) {
        self.relaxations += other.relaxations;
        self.queue_pops += other.queue_pops;
        self.row_reuses += other.row_reuses;
        self.lease_hits += other.lease_hits;
        self.lease_misses += other.lease_misses;
        self.decode_ahead_hits += other.decode_ahead_hits;
        self.pinned_bytes_peak = self.pinned_bytes_peak.max(other.pinned_bytes_peak);
        self.sources += other.sources;
    }
}

/// Wall-clock decomposition of one APSP run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Time spent computing the source visit order.
    pub ordering: Duration,
    /// Time spent in the parallel (or sequential) SSSP sweep.
    pub sssp: Duration,
    /// End-to-end time (≥ ordering + sssp; includes setup).
    pub total: Duration,
}

/// The result of an APSP run: distances plus provenance and measurements.
#[derive(Debug)]
pub struct ApspOutput {
    /// The exact all-pairs distance matrix.
    pub dist: DistanceMatrix,
    /// Wall-clock phase decomposition.
    pub timings: PhaseTimings,
    /// Aggregated work counters.
    pub counters: Counters,
    /// Threads the run used.
    pub threads: usize,
    /// Human-readable algorithm label (e.g. `"ParAPSP"`).
    pub algorithm: String,
    /// Time each thread spent inside SSSP kernels (index = thread id).
    /// The spread quantifies load balance — the property the scheduling
    /// schemes of the paper's Fig. 1 trade on. Empty for algorithms that
    /// don't track it.
    pub thread_busy: Vec<Duration>,
}

impl ApspOutput {
    /// Convenience accessor for the distance matrix.
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// Load-imbalance factor: slowest thread's busy time over the mean
    /// (1.0 = perfectly balanced). `None` when busy times weren't tracked.
    pub fn load_imbalance(&self) -> Option<f64> {
        if self.thread_busy.is_empty() {
            return None;
        }
        let secs: Vec<f64> = self.thread_busy.iter().map(Duration::as_secs_f64).collect();
        let mean = secs.iter().sum::<f64>() / secs.len() as f64;
        if mean <= 0.0 {
            return Some(1.0);
        }
        Some(secs.iter().cloned().fold(0.0, f64::max) / mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_adds_fields_and_maxes_peaks() {
        let mut a = Counters {
            relaxations: 1,
            queue_pops: 2,
            row_reuses: 3,
            lease_hits: 5,
            lease_misses: 6,
            decode_ahead_hits: 7,
            pinned_bytes_peak: 900,
            sources: 4,
        };
        let b = Counters {
            relaxations: 10,
            queue_pops: 20,
            row_reuses: 30,
            lease_hits: 50,
            lease_misses: 60,
            decode_ahead_hits: 70,
            pinned_bytes_peak: 800,
            sources: 40,
        };
        a.merge(&b);
        assert_eq!(
            a,
            Counters {
                relaxations: 11,
                queue_pops: 22,
                row_reuses: 33,
                lease_hits: 55,
                lease_misses: 66,
                decode_ahead_hits: 77,
                // Peaks are concurrent high-water marks: max, not sum.
                pinned_bytes_peak: 900,
                sources: 44,
            }
        );
    }

    #[test]
    fn default_timings_are_zero() {
        let t = PhaseTimings::default();
        assert_eq!(t.ordering, Duration::ZERO);
        assert_eq!(t.sssp, Duration::ZERO);
        assert_eq!(t.total, Duration::ZERO);
    }

    #[test]
    fn load_imbalance_math() {
        let make = |busy: Vec<Duration>| ApspOutput {
            dist: crate::DistanceMatrix::new_infinite(1),
            timings: PhaseTimings::default(),
            counters: Counters::default(),
            threads: busy.len().max(1),
            algorithm: "test".into(),
            thread_busy: busy,
        };
        assert_eq!(make(vec![]).load_imbalance(), None);
        let balanced = make(vec![Duration::from_secs(2); 4]);
        assert!((balanced.load_imbalance().unwrap() - 1.0).abs() < 1e-12);
        let skewed = make(vec![
            Duration::from_secs(3),
            Duration::from_secs(1),
            Duration::from_secs(1),
            Duration::from_secs(1),
        ]);
        assert!((skewed.load_imbalance().unwrap() - 2.0).abs() < 1e-12);
        let idle = make(vec![Duration::ZERO; 2]);
        assert_eq!(idle.load_imbalance(), Some(1.0));
    }
}
