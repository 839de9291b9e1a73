//! ParBuckets — Alg. 5: parallel *approximate* bucketing with a fixed
//! number of degree ranges and one lock per bucket.
//!
//! The paper's first attempt: vertices are scattered in parallel into 101
//! coarse buckets (Eq. 1), then concatenated from the highest range down.
//! Two problems the later procedures fix, both reproduced faithfully here:
//!
//! 1. the order is only approximate *within* a bucket, which slows the
//!    downstream APSP sweep (paper Fig. 5), and
//! 2. scale-free graphs put almost every vertex into the lowest buckets,
//!    so lock contention *grows* with thread count (paper Table 1 shows
//!    the ordering time rising from 10 µs at 1 thread to 166 µs at 16).

use parking_lot::Mutex;

use parapsp_parfor::{Schedule, ThreadPool};

use crate::common::par_degree_bounds;

/// Bucket index of a degree per the paper's Eq. (1):
/// `floor(ranges * (deg - min) / (max - min))`, yielding `0..=ranges`.
///
/// When every vertex has the same degree (`max == min`) everything maps to
/// bucket 0.
#[inline]
pub fn bucket_index(degree: u32, min: u32, max: u32, ranges: usize) -> usize {
    if max == min {
        return 0;
    }
    ((ranges as u64 * (degree - min) as u64) / (max - min) as u64) as usize
}

/// Runs the ParBuckets procedure, returning an approximately descending
/// order (exactly descending *across* buckets; arbitrary within).
///
/// The per-bucket insertion order depends on thread interleaving, so two
/// runs with more than one thread may legally differ — exactly like the
/// OpenMP original.
pub fn par_buckets(degrees: &[u32], ranges: usize, pool: &ThreadPool) -> Vec<u32> {
    assert!(ranges > 0, "ParBuckets needs at least one degree range");
    let n = degrees.len();
    if n == 0 {
        return Vec::new();
    }
    let (min, max) = par_degree_bounds(degrees, pool).expect("non-empty");

    // One lock-protected list per bucket (Alg. 5 line 2).
    let buckets: Vec<Mutex<Vec<u32>>> = (0..=ranges).map(|_| Mutex::new(Vec::new())).collect();

    // Alg. 5 lines 3–9: parallel scatter under per-bucket locks. The paper
    // uses the OpenMP default schedule (block partitioning).
    pool.parallel_for(n, Schedule::Block, |_tid, i| {
        let bin = bucket_index(degrees[i], min, max, ranges);
        buckets[bin].lock().push(i as u32);
    });

    // Alg. 5 lines 10–16: sequential concatenation from high range to low.
    let mut order = Vec::with_capacity(n);
    for bucket in buckets.iter().rev() {
        order.extend_from_slice(&bucket.lock());
    }
    order
}

/// True when `order` never moves to a strictly higher bucket — the
/// correctness guarantee ParBuckets actually offers.
pub fn is_bucket_descending(degrees: &[u32], order: &[u32], ranges: usize) -> bool {
    let Some((min, max)) = crate::common::par_degree_bounds(degrees, &ThreadPool::new(1)) else {
        return true;
    };
    order.windows(2).all(|w| {
        bucket_index(degrees[w[0] as usize], min, max, ranges)
            >= bucket_index(degrees[w[1] as usize], min, max, ranges)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_is_permutation;

    #[test]
    fn formula_matches_paper_examples() {
        // 100 ranges over degrees 0..=1000: degree d lands in bucket d/10.
        assert_eq!(bucket_index(0, 0, 1000, 100), 0);
        assert_eq!(bucket_index(1000, 0, 1000, 100), 100);
        assert_eq!(bucket_index(505, 0, 1000, 100), 50);
        // Uniform degrees: single bucket.
        assert_eq!(bucket_index(7, 7, 7, 100), 0);
    }

    #[test]
    fn formula_never_exceeds_ranges() {
        for deg in 0..=97u32 {
            let b = bucket_index(deg, 0, 97, 100);
            assert!(b <= 100, "degree {deg} -> bucket {b}");
        }
    }

    #[test]
    fn produces_bucket_descending_permutation() {
        let degrees: Vec<u32> = (0..5000u32)
            .map(|i| i.wrapping_mul(2654435761) % 321)
            .collect();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let order = par_buckets(&degrees, 100, &pool);
            assert_is_permutation(&order, degrees.len());
            assert!(is_bucket_descending(&degrees, &order, 100));
        }
    }

    #[test]
    fn single_thread_is_deterministic_and_blockwise_stable() {
        let degrees: Vec<u32> = (0..100u32).map(|i| i % 7).collect();
        let pool = ThreadPool::new(1);
        let a = par_buckets(&degrees, 100, &pool);
        let b = par_buckets(&degrees, 100, &pool);
        assert_eq!(a, b);
    }

    #[test]
    fn more_ranges_refine_the_order() {
        // With ranges >= max degree and min == 0, buckets are exact.
        let degrees: Vec<u32> = (0..800u32).map(|i| (i * 13) % 50).collect();
        let pool = ThreadPool::new(3);
        let order = par_buckets(&degrees, 1000, &pool);
        assert!(crate::common::is_descending_by_degree(&degrees, &order));
    }

    #[test]
    fn uniform_degrees_collapse_to_one_bucket() {
        let degrees = vec![4u32; 64];
        let pool = ThreadPool::new(2);
        let order = par_buckets(&degrees, 100, &pool);
        assert_is_permutation(&order, 64);
    }

    #[test]
    fn empty_input() {
        let pool = ThreadPool::new(2);
        assert!(par_buckets(&[], 100, &pool).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one degree range")]
    fn zero_ranges_rejected() {
        let pool = ThreadPool::new(1);
        let _ = par_buckets(&[1, 2], 0, &pool);
    }
}
