//! Sequential exact bucket (counting) sort, O(n).
//!
//! The observation that unlocks the whole of §4 of the paper: degrees are
//! bounded by `n`, so a counting sort replaces the O(n²) selection sort.
//! This sequential version is the reference the parallel procedures are
//! validated against; it is **stable** (ascending vertex id within equal
//! degree), which MultiLists reproduces exactly.

/// Returns vertex ids sorted by descending degree, stable by id.
pub fn seq_bucket_sort(degrees: &[u32]) -> Vec<u32> {
    let n = degrees.len();
    if n == 0 {
        return Vec::new();
    }
    let max = *degrees.iter().max().expect("non-empty") as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max + 1];
    for (v, &d) in degrees.iter().enumerate() {
        buckets[d as usize].push(v as u32);
    }
    let mut order = Vec::with_capacity(n);
    for bucket in buckets.iter().rev() {
        order.extend_from_slice(bucket);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_is_permutation, is_descending_by_degree};

    #[test]
    fn sorts_descending_and_stable() {
        let degrees = vec![2, 5, 2, 0, 5, 3];
        let order = seq_bucket_sort(&degrees);
        assert_is_permutation(&order, degrees.len());
        assert!(is_descending_by_degree(&degrees, &order));
        // Stability: id 1 before id 4 (both degree 5); id 0 before id 2.
        assert_eq!(order, vec![1, 4, 5, 0, 2, 3]);
    }

    #[test]
    fn empty_and_uniform() {
        assert!(seq_bucket_sort(&[]).is_empty());
        assert_eq!(seq_bucket_sort(&[0, 0, 0]), vec![0, 1, 2]);
    }

    #[test]
    fn agrees_with_stable_std_sort() {
        let degrees: Vec<u32> = (0..2000u32)
            .map(|i| i.wrapping_mul(2654435761) % 97)
            .collect();
        let order = seq_bucket_sort(&degrees);
        let mut want: Vec<u32> = (0..degrees.len() as u32).collect();
        want.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
        assert_eq!(order, want, "stable sort results must match exactly");
    }
}
