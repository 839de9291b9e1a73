//! The paper's original O(n²) ordering step (Alg. 3, lines 6–12).
//!
//! This is the exchange-style selection sort Peng et al. used and that
//! ParAlg2 inherits. Its loop-carried dependency (`order[i]` must be final
//! before iteration `i + 1` starts) is *why* the paper had to design the
//! bucket-based procedures — it cannot be parallelized as written (§3.2).
//! It is kept verbatim so that Table 1 and Figures 8–9 can be reproduced.

/// Sorts vertex ids by descending degree using the paper's partial
/// selection sort: only the first `ceil(ratio * n)` positions are
/// guaranteed to hold the overall top-degree vertices in exact order;
/// with `ratio = 1.0` the whole array is exactly sorted.
///
/// The swap-based inner loop is intentionally identical to Alg. 3: for each
/// position `i`, every later element with a larger degree is swapped in as
/// soon as it is seen.
///
/// # Panics
///
/// Panics when `ratio` is not in `(0.0, 1.0]` (the paper requires
/// `0.0 < r <= 1.0`).
pub fn partial_selection_sort(degrees: &[u32], ratio: f64) -> Vec<u32> {
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "selection-sort ratio {ratio} outside (0, 1]"
    );
    let n = degrees.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let prefix = ((ratio * n as f64).ceil() as usize).min(n);
    for i in 0..prefix {
        for j in (i + 1)..n {
            if degrees[order[j] as usize] > degrees[order[i] as usize] {
                order.swap(i, j);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_is_permutation, is_descending_by_degree};

    #[test]
    fn full_ratio_sorts_exactly() {
        let degrees = vec![4, 9, 1, 9, 0, 3, 7];
        let order = partial_selection_sort(&degrees, 1.0);
        assert_is_permutation(&order, degrees.len());
        assert!(is_descending_by_degree(&degrees, &order));
    }

    #[test]
    fn prefix_holds_global_top_elements() {
        let degrees: Vec<u32> = (0..100u32).map(|i| (i * 37) % 101).collect();
        let order = partial_selection_sort(&degrees, 0.2);
        assert_is_permutation(&order, degrees.len());
        // First 20 positions are the 20 largest degrees, in order.
        let mut sorted = degrees.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for i in 0..20 {
            assert_eq!(degrees[order[i] as usize], sorted[i], "position {i}");
        }
    }

    #[test]
    fn handles_ties_and_tiny_inputs() {
        assert_eq!(partial_selection_sort(&[], 1.0), Vec::<u32>::new());
        assert_eq!(partial_selection_sort(&[5], 1.0), vec![0]);
        let order = partial_selection_sort(&[2, 2, 2], 1.0);
        assert_is_permutation(&order, 3);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_ratio_rejected() {
        let _ = partial_selection_sort(&[1, 2], 0.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn ratio_above_one_rejected() {
        let _ = partial_selection_sort(&[1, 2], 1.5);
    }

    #[test]
    fn matches_std_sort_on_random_input() {
        let degrees: Vec<u32> = (0..500u32)
            .map(|i| i.wrapping_mul(2654435761) % 64)
            .collect();
        let order = partial_selection_sort(&degrees, 1.0);
        let got: Vec<u32> = order.iter().map(|&v| degrees[v as usize]).collect();
        let mut want = degrees.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(got, want);
    }
}
