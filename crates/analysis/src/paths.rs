//! Path-length statistics derived from a distance matrix.

use parapsp_core::DistanceMatrix;
use parapsp_graph::INF;

/// Per-vertex eccentricity: the greatest finite distance from `v` to any
/// vertex it can reach. Vertices that reach nothing get 0.
pub fn eccentricities(dist: &DistanceMatrix) -> Vec<u32> {
    dist.rows()
        .map(|(u, row)| {
            row.iter()
                .enumerate()
                .filter(|&(v, &d)| v as u32 != u && d != INF)
                .map(|(_, &d)| d)
                .max()
                .unwrap_or(0)
        })
        .collect()
}

/// Aggregate shortest-path statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// Largest eccentricity over vertices that reach at least one other
    /// vertex (∞-pairs are ignored, the convention for disconnected
    /// complex networks).
    pub diameter: u32,
    /// Smallest non-zero eccentricity (0 when no vertex reaches another).
    pub radius: u32,
    /// Mean distance over all finite ordered pairs `(u, v)`, `u != v`.
    pub average_path_length: f64,
    /// Number of finite ordered pairs, `u != v`.
    pub reachable_pairs: usize,
    /// Total ordered pairs `n (n - 1)`.
    pub total_pairs: usize,
}

impl PathStats {
    /// Fraction of ordered pairs that are connected.
    pub fn connectivity(&self) -> f64 {
        if self.total_pairs == 0 {
            return 0.0;
        }
        self.reachable_pairs as f64 / self.total_pairs as f64
    }
}

/// Computes [`PathStats`] from a distance matrix.
pub fn path_stats(dist: &DistanceMatrix) -> PathStats {
    let n = dist.n();
    let mut sum: u128 = 0;
    let mut reachable = 0usize;
    let mut diameter = 0u32;
    let mut radius = u32::MAX;
    for (u, row) in dist.rows() {
        let mut ecc = 0u32;
        let mut reaches_any = false;
        for (v, &d) in row.iter().enumerate() {
            if v as u32 == u || d == INF {
                continue;
            }
            sum += d as u128;
            reachable += 1;
            reaches_any = true;
            ecc = ecc.max(d);
        }
        if reaches_any {
            diameter = diameter.max(ecc);
            radius = radius.min(ecc);
        }
    }
    PathStats {
        diameter,
        radius: if radius == u32::MAX { 0 } else { radius },
        average_path_length: if reachable > 0 {
            sum as f64 / reachable as f64
        } else {
            0.0
        },
        reachable_pairs: reachable,
        total_pairs: n.saturating_sub(1) * n,
    }
}

/// Histogram of finite pairwise distances: `histogram[d]` = number of
/// ordered pairs at distance exactly `d` (`d >= 1`). Index 0 is unused
/// (self-distances are excluded).
pub fn distance_distribution(dist: &DistanceMatrix) -> Vec<usize> {
    let mut hist: Vec<usize> = Vec::new();
    for (u, row) in dist.rows() {
        for (v, &d) in row.iter().enumerate() {
            if v as u32 == u || d == INF {
                continue;
            }
            let d = d as usize;
            if hist.len() <= d {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_core::engine::{ApspEngine, RunConfig, Runner};
    use parapsp_graph::generate::{cycle_graph, path_graph, star_graph};
    use parapsp_graph::{CsrGraph, Direction};

    fn dist_of(g: &CsrGraph) -> DistanceMatrix {
        Runner::new(RunConfig::seq_basic())
            .run(ApspEngine::new(), g)
            .dist
    }

    #[test]
    fn path_graph_stats() {
        let d = dist_of(&path_graph(5, Direction::Undirected));
        let stats = path_stats(&d);
        assert_eq!(stats.diameter, 4);
        assert_eq!(stats.radius, 2); // middle vertex
        assert_eq!(stats.reachable_pairs, 20);
        assert_eq!(stats.total_pairs, 20);
        assert!((stats.connectivity() - 1.0).abs() < 1e-12);
        assert_eq!(eccentricities(&d), vec![4, 3, 2, 3, 4]);
    }

    #[test]
    fn star_graph_stats() {
        let d = dist_of(&star_graph(9));
        let stats = path_stats(&d);
        assert_eq!(stats.diameter, 2);
        assert_eq!(stats.radius, 1); // the hub
                                     // 16 hub-leaf pairs at distance 1, 56 leaf-leaf pairs at distance 2.
        let hist = distance_distribution(&d);
        assert_eq!(hist[1], 16);
        assert_eq!(hist[2], 56);
    }

    #[test]
    fn cycle_has_uniform_eccentricity() {
        let d = dist_of(&cycle_graph(8, Direction::Undirected));
        assert!(eccentricities(&d).iter().all(|&e| e == 4));
        let stats = path_stats(&d);
        assert_eq!(stats.diameter, 4);
        assert_eq!(stats.radius, 4);
    }

    #[test]
    fn disconnected_pairs_are_ignored() {
        let g = CsrGraph::from_unit_edges(4, Direction::Undirected, &[(0, 1), (2, 3)]).unwrap();
        let stats = path_stats(&dist_of(&g));
        assert_eq!(stats.diameter, 1);
        assert_eq!(stats.reachable_pairs, 4);
        assert_eq!(stats.total_pairs, 12);
        assert!(stats.connectivity() < 0.5);
    }

    #[test]
    fn directed_asymmetry() {
        let g = CsrGraph::from_unit_edges(3, Direction::Directed, &[(0, 1), (1, 2)]).unwrap();
        let d = dist_of(&g);
        let stats = path_stats(&d);
        assert_eq!(stats.diameter, 2); // 0 -> 2
        assert_eq!(stats.reachable_pairs, 3); // (0,1), (0,2), (1,2)
        assert_eq!(eccentricities(&d), vec![2, 1, 0]);
    }

    #[test]
    fn empty_matrix() {
        let stats = path_stats(&DistanceMatrix::new_infinite(0));
        assert_eq!(stats.diameter, 0);
        assert_eq!(stats.radius, 0);
        assert_eq!(stats.connectivity(), 0.0);
        assert!(distance_distribution(&DistanceMatrix::new_infinite(0)).is_empty());
    }
}
