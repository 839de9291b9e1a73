//! MultiLists — Alg. 7: exact, lock-free parallel ordering with one list of
//! buckets **per thread**, the procedure inside ParAPSP.
//!
//! Phase 1 (lines 3–8): each thread scatters its block of vertices into its
//! *own* bucket list — no locks, no contention, no false sharing (the
//! per-thread lists are cache-line padded).
//!
//! Between the phases (line 9) the starting position of every
//! `(thread, degree)` bucket in the global `order` array is computed by a
//! prefix scan over bucket sizes.
//!
//! Phase 2 (lines 10–20): buckets are copied to their slots. The low-degree
//! ranges — which hold ~99 % of the vertices of a scale-free graph — are
//! copied in parallel; the broad high-degree range is copied sequentially
//! to avoid false sharing from many threads writing small scattered slots
//! (paper §4.3).
//!
//! The global order is **deterministic and stable**: degree descending,
//! and within a degree ascending by vertex id (because phase 1 uses block
//! partitioning and the merge visits threads in id order). It therefore
//! equals [`seq_bucket_sort`](crate::seq_bucket::seq_bucket_sort) exactly,
//! for every thread count — a property the tests pin down.

use parapsp_parfor::{ParSlice, PerThread, Schedule, ThreadPool};

use crate::common::par_degree_bounds;

/// Runs the MultiLists procedure, returning the exact descending degree
/// order. `par_ratio` is the fraction of the degree range merged in
/// parallel during phase 2 (0.1 in the paper).
pub fn multi_lists(degrees: &[u32], par_ratio: f64, pool: &ThreadPool) -> Vec<u32> {
    multi_lists_by_key(degrees, par_ratio, pool, SortDirection::Descending)
}

/// Merge direction for the generic engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDirection {
    /// Largest key first (the APSP ordering).
    Descending,
    /// Smallest key first.
    Ascending,
}

/// The MultiLists engine, generic over sort direction: sorts the *indices*
/// of `keys` by key value in O(n + max_key) time and O(threads × max_key)
/// auxiliary space. Stable (index-ascending within equal keys).
///
/// This is the "general sorting purposes" form the paper advertises; see
/// [`crate::sort`] for the item-level API.
pub fn multi_lists_by_key(
    keys: &[u32],
    par_ratio: f64,
    pool: &ThreadPool,
    direction: SortDirection,
) -> Vec<u32> {
    assert!(
        (0.0..=1.0).contains(&par_ratio),
        "MultiLists parRatio {par_ratio} outside [0, 1]"
    );
    let n = keys.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = pool.num_threads();
    let (_min, max) = par_degree_bounds(keys, pool).expect("non-empty");
    let buckets = max as usize + 1;

    // Phase 1 (Alg. 7 lines 3–8): per-thread bucket lists, no locks.
    let locals: PerThread<Vec<Vec<u32>>> =
        PerThread::from_fn(threads, |_| vec![Vec::new(); buckets]);
    pool.parallel_for(n, Schedule::Block, |tid, i| {
        // SAFETY: each pool thread mutates only its own slot.
        let lists = unsafe { locals.get_mut(tid) };
        lists[keys[i] as usize].push(i as u32);
    });
    let lists: Vec<Vec<Vec<u32>>> = locals.into_inner();

    // Line 9: compute the global starting position of every
    // `(thread, degree)` bucket. Iterating degrees in output order and
    // threads in id order is what makes the result stable.
    let mut order_pos = vec![vec![0usize; buckets]; threads];
    let mut pos = 0usize;
    let degree_sequence: Box<dyn Iterator<Item = usize>> = match direction {
        SortDirection::Descending => Box::new((0..buckets).rev()),
        SortDirection::Ascending => Box::new(0..buckets),
    };
    for deg in degree_sequence {
        for tid in 0..threads {
            order_pos[tid][deg] = pos;
            pos += lists[tid][deg].len();
        }
    }
    debug_assert_eq!(pos, n);

    // Phase 2 (lines 10–20): copy buckets into the global array. Low
    // degrees (dense, ~99 % of vertices) in parallel; the broad sparse
    // high-degree range sequentially to avoid false sharing.
    let mut order = vec![0u32; n];
    let cut = (max as f64 * par_ratio).floor() as u32;
    {
        let view = ParSlice::new(&mut order);
        let lists_ref = &lists;
        let pos_ref = &order_pos;
        pool.run(|tid| {
            for deg in 0..=cut.min(max) as usize {
                let base = pos_ref[tid][deg];
                for (offset, &v) in lists_ref[tid][deg].iter().enumerate() {
                    // SAFETY: `order_pos` assigns every (thread, degree)
                    // bucket a disjoint range of the output array, and this
                    // thread is the only writer of its buckets' ranges.
                    unsafe { view.write(base + offset, v) };
                }
            }
        });
        // Line 20: high-degree vertices appended by the caller thread.
        for deg in (cut as usize + 1)..buckets {
            for tid in 0..threads {
                let base = pos_ref[tid][deg];
                for (offset, &v) in lists_ref[tid][deg].iter().enumerate() {
                    // SAFETY: same disjointness argument; the parallel
                    // region above has completed.
                    unsafe { view.write(base + offset, v) };
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_is_permutation, is_descending_by_degree};
    use crate::seq_bucket::seq_bucket_sort;

    fn scale_free_like(n: u32) -> Vec<u32> {
        (0..n)
            .map(|i| {
                if i % 101 == 0 {
                    300 + (i * 7) % 700
                } else {
                    i % 5
                }
            })
            .collect()
    }

    #[test]
    fn equals_stable_reference_for_every_thread_count() {
        let degrees = scale_free_like(5000);
        let reference = seq_bucket_sort(&degrees);
        for threads in [1, 2, 3, 4, 8] {
            let pool = ThreadPool::new(threads);
            let order = multi_lists(&degrees, 0.1, &pool);
            assert_eq!(order, reference, "threads = {threads}");
        }
    }

    #[test]
    fn par_ratio_extremes_do_not_change_the_result() {
        let degrees = scale_free_like(3000);
        let pool = ThreadPool::new(4);
        let reference = seq_bucket_sort(&degrees);
        for ratio in [0.0, 0.01, 0.5, 1.0] {
            assert_eq!(
                multi_lists(&degrees, ratio, &pool),
                reference,
                "ratio {ratio}"
            );
        }
    }

    #[test]
    fn descending_and_permutation_on_random_keys() {
        let degrees: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2654435761) % 1009)
            .collect();
        let pool = ThreadPool::new(4);
        let order = multi_lists(&degrees, 0.1, &pool);
        assert_is_permutation(&order, degrees.len());
        assert!(is_descending_by_degree(&degrees, &order));
    }

    #[test]
    fn ascending_direction() {
        let keys: Vec<u32> = vec![9, 1, 4, 4, 0, 7];
        let pool = ThreadPool::new(3);
        let order = multi_lists_by_key(&keys, 0.1, &pool, SortDirection::Ascending);
        assert_eq!(order, vec![4, 1, 2, 3, 5, 0]);
    }

    #[test]
    fn tiny_inputs() {
        let pool = ThreadPool::new(4);
        assert!(multi_lists(&[], 0.1, &pool).is_empty());
        assert_eq!(multi_lists(&[3], 0.1, &pool), vec![0]);
        assert_eq!(multi_lists(&[0, 0], 0.1, &pool), vec![0, 1]);
    }

    #[test]
    fn all_equal_keys_are_stable_by_id() {
        let keys = vec![5u32; 257];
        let pool = ThreadPool::new(4);
        let order = multi_lists(&keys, 0.1, &pool);
        assert_eq!(order, (0..257u32).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_elements() {
        let keys = vec![2u32, 1, 3];
        let pool = ThreadPool::new(8);
        assert_eq!(multi_lists(&keys, 0.1, &pool), vec![2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_ratio_rejected() {
        let pool = ThreadPool::new(1);
        let _ = multi_lists(&[1], -0.5, &pool);
    }
}
