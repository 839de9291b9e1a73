//! General-purpose parallel sorting for bounded integer keys.
//!
//! The paper notes that "the proposed parallel MultiLists ordering
//! algorithm can be used in general parallel sorting problem when keys are
//! in limited ranges" (§4.3). This module is that API: a stable, O(n +
//! max_key) parallel sort of arbitrary items by a `u32` key.

use parapsp_parfor::ThreadPool;

use crate::multi_lists::multi_lists_by_key;
pub use crate::multi_lists::SortDirection;

/// Returns the indices of `keys` in sorted order (stable MultiLists sort).
///
/// ```
/// use parapsp_order::sort::{sort_indices, SortDirection};
/// use parapsp_parfor::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let keys = [30u32, 10, 20];
/// assert_eq!(sort_indices(&keys, SortDirection::Ascending, &pool), vec![1, 2, 0]);
/// ```
pub fn sort_indices(keys: &[u32], direction: SortDirection, pool: &ThreadPool) -> Vec<u32> {
    multi_lists_by_key(keys, 0.1, pool, direction)
}

/// Sorts a slice of items by an integer key, returning a new vector.
/// Stable: equal-key items keep their input order.
///
/// The key range should be bounded (auxiliary space is
/// O(threads × max_key)); this is the counting-sort trade-off the paper's
/// procedure inherits.
pub fn sorted_by_bounded_key<T: Clone, F>(
    items: &[T],
    key: F,
    direction: SortDirection,
    pool: &ThreadPool,
) -> Vec<T>
where
    F: Fn(&T) -> u32,
{
    let keys: Vec<u32> = items.iter().map(&key).collect();
    sort_indices(&keys, direction, pool)
        .into_iter()
        .map(|i| items[i as usize].clone())
        .collect()
}

/// Sorts a vector of items in place (by permutation) by an integer key.
pub fn sort_in_place_by_bounded_key<T, F>(
    items: &mut Vec<T>,
    key: F,
    direction: SortDirection,
    pool: &ThreadPool,
) where
    F: Fn(&T) -> u32,
{
    let keys: Vec<u32> = items.iter().map(&key).collect();
    let order = sort_indices(&keys, direction, pool);
    let mut taken: Vec<Option<T>> = items.drain(..).map(Some).collect();
    items.extend(
        order
            .into_iter()
            .map(|i| taken[i as usize].take().expect("permutation visits once")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_structs_by_key_stably() {
        let pool = ThreadPool::new(4);
        let items: Vec<(&str, u32)> = vec![
            ("carol", 35),
            ("alice", 20),
            ("bob", 35),
            ("dave", 20),
            ("eve", 99),
        ];
        let by_age = sorted_by_bounded_key(&items, |p| p.1, SortDirection::Ascending, &pool);
        let names: Vec<&str> = by_age.iter().map(|p| p.0).collect();
        assert_eq!(names, vec!["alice", "dave", "carol", "bob", "eve"]);

        let desc = sorted_by_bounded_key(&items, |p| p.1, SortDirection::Descending, &pool);
        let names: Vec<&str> = desc.iter().map(|p| p.0).collect();
        assert_eq!(names, vec!["eve", "carol", "bob", "alice", "dave"]);
    }

    #[test]
    fn matches_std_stable_sort_on_large_random_input() {
        let pool = ThreadPool::new(4);
        let keys: Vec<u32> = (0..50_000u32)
            .map(|i| i.wrapping_mul(2654435761) % 4093)
            .collect();
        let ours = sort_indices(&keys, SortDirection::Ascending, &pool);
        let mut std_sorted: Vec<u32> = (0..keys.len() as u32).collect();
        std_sorted.sort_by_key(|&i| keys[i as usize]);
        assert_eq!(ours, std_sorted);
    }

    #[test]
    fn in_place_variant_with_non_clone_items() {
        let pool = ThreadPool::new(2);
        let mut items: Vec<Box<u32>> = vec![Box::new(5), Box::new(1), Box::new(3)];
        sort_in_place_by_bounded_key(&mut items, |b| **b, SortDirection::Ascending, &pool);
        assert_eq!(items.iter().map(|b| **b).collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn empty_input() {
        let pool = ThreadPool::new(2);
        let empty: Vec<u32> = Vec::new();
        assert!(sorted_by_bounded_key(&empty, |&x| x, SortDirection::Ascending, &pool).is_empty());
    }
}
