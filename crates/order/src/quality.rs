//! Order-quality metrics: *how far* from the exact descending degree order
//! is an approximate one?
//!
//! The paper observes (§4.2, Fig. 5) that ParBuckets' approximate order
//! slows the downstream SSSP sweep and that "it is critical to find the
//! precise descending order". These metrics make that statement
//! quantitative, and the ablation benches report them next to SSSP times:
//!
//! * [`inversions`] — the number of vertex pairs visited in the wrong
//!   relative degree order (0 for an exact order, O(n²) worst case),
//!   counted in O(n log n) with a Fenwick tree;
//! * [`normalized_kendall_distance`] — inversions scaled to `[0, 1]`;
//! * [`hub_displacement`] — how far, on average, the top-k hubs sit from
//!   their exact positions (hubs arriving late is precisely what starves
//!   the row-reuse optimization).

/// Fenwick (binary indexed) tree over `n` counters.
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut index: usize) {
        index += 1;
        while index < self.tree.len() {
            self.tree[index] += 1;
            index += index & index.wrapping_neg();
        }
    }

    /// Sum of counters at positions `0..=index`.
    fn prefix(&self, mut index: usize) -> u64 {
        index += 1;
        let mut sum = 0;
        while index > 0 {
            sum += self.tree[index];
            index -= index & index.wrapping_neg();
        }
        sum
    }
}

/// Number of *strict degree inversions* in `order`: pairs `(i, j)` with
/// `i < j` (i.e. `order[i]` visited first) but
/// `degrees[order[i]] < degrees[order[j]]` — the later vertex should have
/// come first. Ties count as in order. O(n log d_max).
pub fn inversions(degrees: &[u32], order: &[u32]) -> u64 {
    let max = degrees.iter().copied().max().unwrap_or(0) as usize;
    let mut seen_smaller = Fenwick::new(max + 1);
    let mut count = 0u64;
    // Walk the order backwards; for each vertex count how many *already
    // seen* (i.e. visited later) vertices have a strictly larger degree.
    for &v in order.iter().rev() {
        let d = degrees[v as usize] as usize;
        // seen with degree > d  ==  seen_total - seen with degree <= d
        let seen_total = seen_smaller.prefix(max);
        count += seen_total - seen_smaller.prefix(d);
        seen_smaller.add(d);
    }
    count
}

/// Inversions normalized by the pair count, in `[0, 1]`; 0 = exact
/// descending order, 1 = exactly ascending (for distinct degrees).
pub fn normalized_kendall_distance(degrees: &[u32], order: &[u32]) -> f64 {
    let n = order.len() as u64;
    if n < 2 {
        return 0.0;
    }
    inversions(degrees, order) as f64 / ((n * (n - 1)) / 2) as f64
}

/// Mean absolute displacement of the `k` highest-degree vertices from the
/// front of the order, in positions. For an exact descending order the
/// top-k hubs occupy (some permutation of) the first positions matching
/// their degree rank, giving ~0; an approximate order that buries hubs
/// scores high. Ties are handled by comparing against the best achievable
/// position for each degree value.
pub fn hub_displacement(degrees: &[u32], order: &[u32], k: usize) -> f64 {
    let n = order.len();
    if n == 0 || k == 0 {
        return 0.0;
    }
    let k = k.min(n);
    // position_of[v] = index of v in the order.
    let mut position_of = vec![0usize; n];
    for (pos, &v) in order.iter().enumerate() {
        position_of[v as usize] = pos;
    }
    // Exact order (stable) gives each degree value a *tie block* of legal
    // positions; any placement inside the block is as good as exact.
    let exact = crate::seq_bucket::seq_bucket_sort(degrees);
    let max_degree = degrees.iter().copied().max().unwrap_or(0) as usize;
    let mut block_start = vec![usize::MAX; max_degree + 1];
    let mut block_end = vec![0usize; max_degree + 1];
    for (pos, &v) in exact.iter().enumerate() {
        let d = degrees[v as usize] as usize;
        block_start[d] = block_start[d].min(pos);
        block_end[d] = block_end[d].max(pos);
    }
    let mut total = 0.0f64;
    for &v in exact.iter().take(k) {
        let d = degrees[v as usize] as usize;
        let actual = position_of[v as usize];
        total += if actual < block_start[d] {
            (block_start[d] - actual) as f64
        } else if actual > block_end[d] {
            (actual - block_end[d]) as f64
        } else {
            0.0
        };
    }
    total / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq_bucket::seq_bucket_sort;

    #[test]
    fn exact_order_has_zero_inversions() {
        let degrees: Vec<u32> = (0..500u32)
            .map(|i| i.wrapping_mul(2654435761) % 97)
            .collect();
        let order = seq_bucket_sort(&degrees);
        assert_eq!(inversions(&degrees, &order), 0);
        assert_eq!(normalized_kendall_distance(&degrees, &order), 0.0);
    }

    #[test]
    fn reversed_order_has_maximal_inversions() {
        // Distinct degrees, ascending order = every pair inverted.
        let degrees: Vec<u32> = (0..100u32).collect();
        let ascending: Vec<u32> = (0..100u32).collect(); // degree asc
        assert_eq!(inversions(&degrees, &ascending), 100 * 99 / 2);
        assert!((normalized_kendall_distance(&degrees, &ascending) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_swap_counts_once() {
        let degrees = vec![5u32, 4, 3, 2, 1];
        let mut order = vec![0u32, 1, 2, 3, 4]; // exact descending
        order.swap(1, 2); // one adjacent inversion
        assert_eq!(inversions(&degrees, &order), 1);
    }

    #[test]
    fn ties_do_not_count_as_inversions() {
        let degrees = vec![3u32, 3, 3];
        for order in [[0u32, 1, 2], [2, 1, 0], [1, 0, 2]] {
            assert_eq!(inversions(&degrees, &order), 0);
        }
    }

    #[test]
    fn matches_quadratic_reference_on_random_orders() {
        let degrees: Vec<u32> = (0..200u32).map(|i| i.wrapping_mul(97) % 23).collect();
        // A deterministic scramble.
        let mut order: Vec<u32> = (0..200u32).collect();
        for i in 0..order.len() {
            let j = (i * 131 + 17) % order.len();
            order.swap(i, j);
        }
        let mut reference = 0u64;
        for i in 0..order.len() {
            for j in i + 1..order.len() {
                if degrees[order[i] as usize] < degrees[order[j] as usize] {
                    reference += 1;
                }
            }
        }
        assert_eq!(inversions(&degrees, &order), reference);
    }

    #[test]
    fn hub_displacement_zero_for_exact_orders() {
        let degrees: Vec<u32> = (0..300u32).map(|i| i.wrapping_mul(31) % 50).collect();
        let order = seq_bucket_sort(&degrees);
        assert!(hub_displacement(&degrees, &order, 10) < 1e-12);
    }

    #[test]
    fn hub_displacement_detects_buried_hubs() {
        // One huge hub placed at the very end of the order.
        let mut degrees = vec![1u32; 100];
        degrees[7] = 99;
        let mut order: Vec<u32> = (0..100u32).filter(|&v| v != 7).collect();
        order.push(7);
        let d = hub_displacement(&degrees, &order, 1);
        assert!((d - 99.0).abs() < 1e-12, "displacement {d}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(inversions(&[], &[]), 0);
        assert_eq!(normalized_kendall_distance(&[5], &[0]), 0.0);
        assert_eq!(hub_displacement(&[], &[], 5), 0.0);
        assert_eq!(hub_displacement(&[1], &[0], 0), 0.0);
    }
}
