//! Parallel LSD radix sort for *unbounded* `u32` keys.
//!
//! MultiLists (Alg. 7) is O(n + max_key) and needs keys "in limited
//! ranges" (paper §4.3). This module removes that restriction with the
//! same architectural idea applied per digit: each thread scatters its
//! block into **private** counters (no locks), a positional prefix scan
//! assigns every `(digit, thread)` bucket a disjoint output range, and the
//! scatter writes in parallel — MultiLists' two-phase structure, iterated
//! over four 8-bit digits. Stable, O(n) per pass.

use parapsp_parfor::{ParSlice, PerThread, Schedule, ThreadPool};

pub use crate::multi_lists::SortDirection;

const RADIX: usize = 256;
const PASSES: u32 = 4;

/// Sorts the indices of `keys` (stable) using parallel LSD radix sort.
/// Works for the full `u32` range; auxiliary space O(n + threads·256).
pub fn par_radix_sort_indices(
    keys: &[u32],
    direction: SortDirection,
    pool: &ThreadPool,
) -> Vec<u32> {
    let n = keys.len();
    if n <= 1 {
        return (0..n as u32).collect();
    }
    let threads = pool.num_threads();
    let mut current: Vec<u32> = (0..n as u32).collect();
    let mut next: Vec<u32> = vec![0; n];

    for pass in 0..PASSES {
        let shift = pass * 8;
        let digit_of = |index: u32| ((keys[index as usize] >> shift) as usize) & (RADIX - 1);

        // Phase 1: private per-thread digit histograms over block ranges.
        let histograms: PerThread<Vec<u32>> = PerThread::from_fn(threads, |_| vec![0u32; RADIX]);
        {
            let current_ref = &current;
            pool.parallel_for(n, Schedule::Block, |tid, i| {
                // SAFETY: each pool thread owns its histogram slot.
                let hist = unsafe { histograms.get_mut(tid) };
                hist[digit_of(current_ref[i])] += 1;
            });
        }
        let histograms: Vec<Vec<u32>> = histograms.into_inner();

        // Early exit: a pass where every key shares one digit is a no-op.
        let mut digit_totals = [0u64; RADIX];
        for hist in &histograms {
            for (total, &count) in digit_totals.iter_mut().zip(hist) {
                *total += count as u64;
            }
        }
        if digit_totals.contains(&(n as u64)) {
            continue;
        }

        // Positional scan: offsets per (digit, thread), digit order set by
        // the sort direction. Visiting threads in id order keeps stability
        // (blocks are in index order).
        let mut offsets = vec![vec![0u32; RADIX]; threads];
        let mut position = 0u32;
        let digit_sequence: Box<dyn Iterator<Item = usize>> = match direction {
            SortDirection::Ascending => Box::new(0..RADIX),
            SortDirection::Descending => Box::new((0..RADIX).rev()),
        };
        for digit in digit_sequence {
            for tid in 0..threads {
                offsets[tid][digit] = position;
                position += histograms[tid][digit];
            }
        }
        debug_assert_eq!(position as usize, n);

        // Phase 2: parallel scatter into disjoint ranges.
        {
            let view = ParSlice::new(&mut next[..]);
            let current_ref = &current;
            let offsets_ref = &offsets;
            pool.run(|tid| {
                let mut cursor = offsets_ref[tid].clone();
                for i in parapsp_parfor::block_range(n, threads, tid) {
                    let index = current_ref[i];
                    let digit = digit_of(index);
                    // SAFETY: the scan gives every (digit, thread) bucket a
                    // disjoint range, owned by this thread.
                    unsafe { view.write(cursor[digit] as usize, index) };
                    cursor[digit] += 1;
                }
            });
        }
        std::mem::swap(&mut current, &mut next);
    }

    // Descending LSD with reversed digit order yields descending stable by
    // key but we processed digits low→high with reversed buckets each
    // pass, which composes to a correct descending stable order (mirror of
    // the ascending argument).
    current
}

/// Sorts items by an arbitrary `u32` key using the parallel radix engine.
pub fn par_radix_sorted_by_key<T: Clone, F>(
    items: &[T],
    key: F,
    direction: SortDirection,
    pool: &ThreadPool,
) -> Vec<T>
where
    F: Fn(&T) -> u32,
{
    let keys: Vec<u32> = items.iter().map(&key).collect();
    par_radix_sort_indices(&keys, direction, pool)
        .into_iter()
        .map(|i| items[i as usize].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_ascending(keys: &[u32]) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
        idx.sort_by_key(|&i| keys[i as usize]);
        idx
    }

    fn reference_descending(keys: &[u32]) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(keys[i as usize]));
        idx
    }

    #[test]
    fn matches_std_stable_sort_on_full_range_keys() {
        // Keys spanning the whole u32 range — beyond MultiLists' reach.
        let keys: Vec<u32> = (0..30_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761).rotate_left(11))
            .collect();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            assert_eq!(
                par_radix_sort_indices(&keys, SortDirection::Ascending, &pool),
                reference_ascending(&keys),
                "{threads} threads ascending"
            );
            assert_eq!(
                par_radix_sort_indices(&keys, SortDirection::Descending, &pool),
                reference_descending(&keys),
                "{threads} threads descending"
            );
        }
    }

    #[test]
    fn stability_with_many_duplicates() {
        let keys: Vec<u32> = (0..5_000u32).map(|i| i % 7).collect();
        let pool = ThreadPool::new(4);
        assert_eq!(
            par_radix_sort_indices(&keys, SortDirection::Ascending, &pool),
            reference_ascending(&keys)
        );
        assert_eq!(
            par_radix_sort_indices(&keys, SortDirection::Descending, &pool),
            reference_descending(&keys)
        );
    }

    #[test]
    fn uniform_keys_short_circuit() {
        let keys = vec![42u32; 1_000];
        let pool = ThreadPool::new(3);
        // All passes skip; output is the identity (stable).
        assert_eq!(
            par_radix_sort_indices(&keys, SortDirection::Ascending, &pool),
            (0..1_000u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tiny_inputs() {
        let pool = ThreadPool::new(2);
        assert!(par_radix_sort_indices(&[], SortDirection::Ascending, &pool).is_empty());
        assert_eq!(
            par_radix_sort_indices(&[9], SortDirection::Descending, &pool),
            vec![0]
        );
        assert_eq!(
            par_radix_sort_indices(&[2, 1], SortDirection::Ascending, &pool),
            vec![1, 0]
        );
    }

    #[test]
    fn item_level_api() {
        let pool = ThreadPool::new(2);
        let items = vec![("b", 4_000_000_000u32), ("a", 17), ("c", 90_000)];
        let sorted = par_radix_sorted_by_key(&items, |it| it.1, SortDirection::Ascending, &pool);
        let names: Vec<&str> = sorted.iter().map(|it| it.0).collect();
        assert_eq!(names, vec!["a", "c", "b"]);
    }

    #[test]
    fn agrees_with_multilists_on_bounded_keys() {
        let keys: Vec<u32> = (0..8_000u32).map(|i| i.wrapping_mul(131) % 512).collect();
        let pool = ThreadPool::new(4);
        let radix = par_radix_sort_indices(&keys, SortDirection::Descending, &pool);
        let multilists =
            crate::multi_lists::multi_lists_by_key(&keys, 0.1, &pool, SortDirection::Descending);
        assert_eq!(radix, multilists);
    }
}
