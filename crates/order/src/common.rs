//! Shared helpers: order validation and parallel degree-bounds reduction.

use parapsp_parfor::{PerThread, Schedule, ThreadPool};

/// True when `order` contains each of `0..n` exactly once.
pub fn is_permutation(order: &[u32], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &v in order {
        let Some(slot) = seen.get_mut(v as usize) else {
            return false;
        };
        if *slot {
            return false;
        }
        *slot = true;
    }
    true
}

/// Panics with a diagnostic when `order` is not a permutation of `0..n`.
pub fn assert_is_permutation(order: &[u32], n: usize) {
    assert!(
        is_permutation(order, n),
        "order of length {} is not a permutation of 0..{n}",
        order.len()
    );
}

/// True when visiting `order` never increases the degree.
pub fn is_descending_by_degree(degrees: &[u32], order: &[u32]) -> bool {
    order
        .windows(2)
        .all(|w| degrees[w[0] as usize] >= degrees[w[1] as usize])
}

/// Finds `(min, max)` of `keys` using a per-thread parallel reduction —
/// line 1 of Algorithms 5–7 ("Find max/min degree of the given graph").
///
/// Returns `None` for an empty slice.
pub fn par_degree_bounds(keys: &[u32], pool: &ThreadPool) -> Option<(u32, u32)> {
    if keys.is_empty() {
        return None;
    }
    let locals: PerThread<Option<(u32, u32)>> = PerThread::new(pool.num_threads());
    pool.parallel_for(keys.len(), Schedule::Block, |tid, i| {
        let k = keys[i];
        // SAFETY: each pool thread updates only its own slot.
        let slot = unsafe { locals.get_mut(tid) };
        *slot = match *slot {
            None => Some((k, k)),
            Some((lo, hi)) => Some((lo.min(k), hi.max(k))),
        };
    });
    locals
        .into_inner()
        .into_iter()
        .flatten()
        .reduce(|(alo, ahi), (blo, bhi)| (alo.min(blo), ahi.max(bhi)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_checks() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 1], 3)); // too short
        assert!(!is_permutation(&[0, 0, 1], 3)); // duplicate
        assert!(!is_permutation(&[0, 1, 3], 3)); // out of range
        assert!(is_permutation(&[], 0));
    }

    #[test]
    fn descending_check() {
        let degrees = [5, 1, 3];
        assert!(is_descending_by_degree(&degrees, &[0, 2, 1]));
        assert!(!is_descending_by_degree(&degrees, &[1, 0, 2]));
        assert!(is_descending_by_degree(&degrees, &[0])); // single
        assert!(is_descending_by_degree(&degrees, &[])); // empty
    }

    #[test]
    fn parallel_bounds_match_sequential() {
        let keys: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2654435761) % 977)
            .collect();
        let seq_min = *keys.iter().min().unwrap();
        let seq_max = *keys.iter().max().unwrap();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            assert_eq!(par_degree_bounds(&keys, &pool), Some((seq_min, seq_max)));
        }
    }

    #[test]
    fn bounds_of_empty_and_singleton() {
        let pool = ThreadPool::new(2);
        assert_eq!(par_degree_bounds(&[], &pool), None);
        assert_eq!(par_degree_bounds(&[7], &pool), Some((7, 7)));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn assert_helper_panics() {
        assert_is_permutation(&[0, 0], 2);
    }
}
