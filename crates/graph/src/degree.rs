//! Degree tables and distribution statistics.
//!
//! The paper's ordering procedures consume a degree array (`degree[v]`), and
//! its Figure 3 plots the degree distribution of WordNet to explain the
//! lock-contention pathology of ParBuckets. This module computes both.

use crate::csr::CsrGraph;

/// Out-degrees of every vertex — the key array every ordering procedure
/// sorts by. For undirected graphs this is the ordinary degree.
pub fn out_degrees(graph: &CsrGraph) -> Vec<u32> {
    (0..graph.vertex_count() as u32)
        .map(|v| graph.out_degree(v))
        .collect()
}

/// In-degrees, computed in one pass over the arcs.
pub fn in_degrees(graph: &CsrGraph) -> Vec<u32> {
    let mut degs = vec![0u32; graph.vertex_count()];
    for (_, to, _) in graph.arcs() {
        degs[to as usize] += 1;
    }
    degs
}

/// `(min, max)` out-degree, or `None` for an empty graph. Both bounds are
/// needed by the ParBuckets bucket-index formula (paper Eq. 1).
pub fn degree_bounds(degrees: &[u32]) -> Option<(u32, u32)> {
    let mut iter = degrees.iter().copied();
    let first = iter.next()?;
    let mut min = first;
    let mut max = first;
    for d in iter {
        min = min.min(d);
        max = max.max(d);
    }
    Some((min, max))
}

/// Exact degree histogram: `histogram[d]` = number of vertices with degree
/// `d`, for `d` in `0..=max_degree` (paper Fig. 3).
pub fn degree_histogram(degrees: &[u32]) -> Vec<usize> {
    let max = degrees.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0usize; max + 1];
    for &d in degrees {
        hist[d as usize] += 1;
    }
    hist
}

/// Logarithmically binned degree histogram as `(bin_lower_bound, count)`
/// pairs — the standard way to visualise a power law. Bin `i` covers
/// degrees `[2^i, 2^(i+1))`; degree 0 gets its own bin labelled 0.
pub fn log_binned_histogram(degrees: &[u32]) -> Vec<(u32, usize)> {
    let mut zero = 0usize;
    let mut bins: Vec<usize> = Vec::new();
    for &d in degrees {
        if d == 0 {
            zero += 1;
            continue;
        }
        let bin = (u32::BITS - 1 - d.leading_zeros()) as usize; // floor(log2 d)
        if bins.len() <= bin {
            bins.resize(bin + 1, 0);
        }
        bins[bin] += 1;
    }
    let mut out = Vec::new();
    if zero > 0 {
        out.push((0, zero));
    }
    for (i, &count) in bins.iter().enumerate() {
        if count > 0 {
            out.push((1u32 << i, count));
        }
    }
    out
}

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: u32,
    /// Largest degree.
    pub max: u32,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (lower median for even counts).
    pub median: u32,
    /// Fraction of vertices with degree ≥ 1% of the maximum — the set the
    /// ParMax procedure inserts in parallel (paper §4.2).
    pub above_one_percent_of_max: f64,
}

/// Computes [`DegreeStats`] for a non-empty degree sequence.
pub fn degree_stats(degrees: &[u32]) -> Option<DegreeStats> {
    if degrees.is_empty() {
        return None;
    }
    let (min, max) = degree_bounds(degrees)?;
    let mean = degrees.iter().map(|&d| d as f64).sum::<f64>() / degrees.len() as f64;
    let mut sorted = degrees.to_vec();
    sorted.sort_unstable();
    let median = sorted[(sorted.len() - 1) / 2];
    let threshold = max as f64 * 0.01;
    let above = degrees.iter().filter(|&&d| d as f64 >= threshold).count();
    Some(DegreeStats {
        min,
        max,
        mean,
        median,
        above_one_percent_of_max: above as f64 / degrees.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Direction;
    use crate::generate::{barabasi_albert, star_graph, WeightSpec};
    use crate::CsrGraph;

    #[test]
    fn out_and_in_degrees_directed() {
        let g =
            CsrGraph::from_unit_edges(4, Direction::Directed, &[(0, 1), (0, 2), (3, 0)]).unwrap();
        assert_eq!(out_degrees(&g), vec![2, 0, 0, 1]);
        assert_eq!(in_degrees(&g), vec![1, 1, 1, 0]);
    }

    #[test]
    fn undirected_in_equals_out() {
        let g = star_graph(8);
        assert_eq!(out_degrees(&g), in_degrees(&g));
    }

    #[test]
    fn bounds_and_histogram() {
        let degs = vec![0, 3, 3, 1, 7];
        assert_eq!(degree_bounds(&degs), Some((0, 7)));
        let hist = degree_histogram(&degs);
        assert_eq!(hist.len(), 8);
        assert_eq!(hist[0], 1);
        assert_eq!(hist[3], 2);
        assert_eq!(hist[7], 1);
        assert_eq!(hist.iter().sum::<usize>(), 5);
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(degree_bounds(&[]), None);
        assert!(degree_stats(&[]).is_none());
        assert_eq!(degree_histogram(&[]), vec![0usize; 1]);
    }

    #[test]
    fn log_binning_covers_all_vertices() {
        let degs = vec![0, 1, 1, 2, 3, 4, 9, 17, 64];
        let binned = log_binned_histogram(&degs);
        let total: usize = binned.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, degs.len());
        assert_eq!(binned[0], (0, 1)); // the single degree-0 vertex
        assert!(binned.contains(&(1, 2))); // degrees 1, 1
        assert!(binned.contains(&(2, 2))); // degrees 2, 3
        assert!(binned.contains(&(64, 1)));
    }

    #[test]
    fn stats_on_scale_free_graph_match_paper_shape() {
        // Needs enough vertices that 1% of the max degree clears the
        // minimum degree m — the regime the paper's §4.2 threshold assumes.
        let g = barabasi_albert(30_000, 3, WeightSpec::Unit, 11).unwrap();
        let degs = out_degrees(&g);
        let stats = degree_stats(&degs).unwrap();
        assert!(stats.max as f64 > stats.mean * 10.0, "hubs exist");
        assert!(stats.median <= 2 * 3 + 1, "most vertices are near m");
        // The paper's §4.3 observation: the overwhelming majority of
        // vertices fall below 1% of the max degree.
        assert!(
            stats.above_one_percent_of_max < 0.5,
            "got {}",
            stats.above_one_percent_of_max
        );
    }

    #[test]
    fn median_lower_for_even_counts() {
        let s = degree_stats(&[1, 2, 3, 4]).unwrap();
        assert_eq!(s.median, 2);
    }
}
