//! Distance-based centrality measures.
//!
//! Closeness and harmonic centrality are the classic "who is structurally
//! central" questions that motivate computing APSP on social and
//! information networks (paper §1).

use parapsp_core::DistanceMatrix;
use parapsp_graph::INF;

/// How closeness scores are normalized on (possibly) disconnected graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Normalization {
    /// Classic closeness: `(r_u) / (sum of distances to reached vertices)`
    /// where `r_u` is the number of vertices `u` reaches. Comparable only
    /// within one connected component.
    Classic,
    /// Wasserman–Faust: scales the classic score by `r_u / (n - 1)`, making
    /// scores comparable across components of different sizes.
    WassermanFaust,
}

/// Closeness centrality of every vertex (out-distance based for directed
/// graphs). Vertices that reach nothing score 0.
pub fn closeness_centrality(dist: &DistanceMatrix, normalization: Normalization) -> Vec<f64> {
    let n = dist.n();
    dist.rows()
        .map(|(u, row)| {
            let mut sum: u64 = 0;
            let mut reached: usize = 0;
            for (v, &d) in row.iter().enumerate() {
                if v as u32 == u || d == INF {
                    continue;
                }
                sum += d as u64;
                reached += 1;
            }
            if reached == 0 || sum == 0 {
                return 0.0;
            }
            let classic = reached as f64 / sum as f64;
            match normalization {
                Normalization::Classic => classic,
                Normalization::WassermanFaust => {
                    classic * reached as f64 / (n.saturating_sub(1)) as f64
                }
            }
        })
        .collect()
}

/// Harmonic centrality: `sum over v != u of 1 / d(u, v)` with `1/∞ = 0`,
/// normalized by `n - 1`. Well-defined on disconnected graphs.
pub fn harmonic_centrality(dist: &DistanceMatrix) -> Vec<f64> {
    let n = dist.n();
    let norm = (n.saturating_sub(1)).max(1) as f64;
    dist.rows()
        .map(|(u, row)| {
            let sum: f64 = row
                .iter()
                .enumerate()
                .filter(|&(v, &d)| v as u32 != u && d != INF && d > 0)
                .map(|(_, &d)| 1.0 / d as f64)
                .sum();
            sum / norm
        })
        .collect()
}

/// Indices of the `k` largest scores, in descending score order (ties
/// broken by ascending vertex id).
pub fn top_k(scores: &[f64], k: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_core::engine::{ApspEngine, RunConfig, Runner};
    use parapsp_graph::generate::{path_graph, star_graph};
    use parapsp_graph::{CsrGraph, Direction};

    fn dist_of(g: &CsrGraph) -> DistanceMatrix {
        Runner::new(RunConfig::seq_basic())
            .run(ApspEngine::new(), g)
            .dist
    }

    #[test]
    fn star_hub_dominates_closeness_and_harmonic() {
        let d = dist_of(&star_graph(10));
        for norm in [Normalization::Classic, Normalization::WassermanFaust] {
            let c = closeness_centrality(&d, norm);
            assert!(c[1..].iter().all(|&x| x < c[0]), "{norm:?}: {c:?}");
        }
        let h = harmonic_centrality(&d);
        assert!(h[1..].iter().all(|&x| x < h[0]));
        assert_eq!(top_k(&h, 1), vec![0]);
    }

    #[test]
    fn closeness_exact_values_on_path() {
        // Path 0-1-2: distances from 1 are [1, 0, 1] -> closeness 2/2 = 1.
        let d = dist_of(&path_graph(3, Direction::Undirected));
        let c = closeness_centrality(&d, Normalization::Classic);
        assert!((c[1] - 1.0).abs() < 1e-12);
        assert!((c[0] - 2.0 / 3.0).abs() < 1e-12);
        // Wasserman–Faust on a connected graph multiplies by r/(n-1) = 1.
        let wf = closeness_centrality(&d, Normalization::WassermanFaust);
        assert!((wf[1] - c[1]).abs() < 1e-12);
    }

    #[test]
    fn harmonic_exact_values_on_path() {
        let d = dist_of(&path_graph(3, Direction::Undirected));
        let h = harmonic_centrality(&d);
        // From 0: 1/1 + 1/2 = 1.5, normalized by 2 -> 0.75.
        assert!((h[0] - 0.75).abs() < 1e-12);
        assert!((h[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_vertices_score_zero_closeness() {
        let g = CsrGraph::from_unit_edges(3, Direction::Undirected, &[(0, 1)]).unwrap();
        let d = dist_of(&g);
        let c = closeness_centrality(&d, Normalization::Classic);
        assert_eq!(c[2], 0.0);
        let h = harmonic_centrality(&d);
        assert_eq!(h[2], 0.0);
    }

    #[test]
    fn wasserman_faust_penalizes_small_components() {
        // Two components: an edge {0,1} and a triangle {2,3,4}.
        let g =
            CsrGraph::from_unit_edges(5, Direction::Undirected, &[(0, 1), (2, 3), (3, 4), (2, 4)])
                .unwrap();
        let d = dist_of(&g);
        let classic = closeness_centrality(&d, Normalization::Classic);
        let wf = closeness_centrality(&d, Normalization::WassermanFaust);
        // Classic gives both components perfect scores (distance-1 stars).
        assert!((classic[0] - 1.0).abs() < 1e-12);
        assert!((classic[2] - 1.0).abs() < 1e-12);
        // Wasserman–Faust ranks the larger component higher.
        assert!(wf[2] > wf[0]);
    }

    #[test]
    fn top_k_breaks_ties_by_id_and_clamps() {
        let scores = [0.5, 0.9, 0.5, 0.9];
        assert_eq!(top_k(&scores, 3), vec![1, 3, 0]);
        assert_eq!(top_k(&scores, 100).len(), 4);
        assert!(top_k(&[], 3).is_empty());
    }
}
