//! Betweenness centrality (Brandes' algorithm) and local structure
//! metrics (clustering coefficient, degree assortativity).
//!
//! Betweenness is the canonical "which vertices relay shortest paths"
//! question — precisely the intuition behind the paper's degree-ordering
//! heuristic (§2.2: high-degree vertices "could be intermediate vertices
//! of shortest paths of other vertices in high probability"). Computing it
//! lets the tests *quantify* that claim on scale-free replicas.
//!
//! Brandes' algorithm is used (unit weights, BFS-based), parallelized over
//! sources with per-thread partial score arrays — the same
//! source-decomposition strategy as ParAPSP itself.

use parapsp_graph::CsrGraph;
use parapsp_parfor::{PerThread, Schedule, ThreadPool};

/// Per-source scratch for Brandes' accumulation.
struct BrandesWorkspace {
    /// BFS distance from the current source (-1 = unvisited).
    dist: Vec<i32>,
    /// Number of shortest paths from the source.
    sigma: Vec<f64>,
    /// Dependency accumulator.
    delta: Vec<f64>,
    /// Vertices in non-decreasing BFS distance order.
    order: Vec<u32>,
    /// BFS frontier queue.
    queue: std::collections::VecDeque<u32>,
    /// Partial betweenness scores owned by this thread.
    partial: Vec<f64>,
}

impl BrandesWorkspace {
    fn new(n: usize) -> Self {
        BrandesWorkspace {
            dist: vec![-1; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            order: Vec::with_capacity(n),
            queue: std::collections::VecDeque::new(),
            partial: vec![0.0; n],
        }
    }

    fn accumulate_source(&mut self, graph: &CsrGraph, s: u32) {
        self.dist.fill(-1);
        self.sigma.fill(0.0);
        self.delta.fill(0.0);
        self.order.clear();

        self.dist[s as usize] = 0;
        self.sigma[s as usize] = 1.0;
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            self.order.push(u);
            let du = self.dist[u as usize];
            for &v in graph.neighbors(u) {
                let v = v as usize;
                if self.dist[v] < 0 {
                    self.dist[v] = du + 1;
                    self.queue.push_back(v as u32);
                }
                if self.dist[v] == du + 1 {
                    self.sigma[v] += self.sigma[u as usize];
                }
            }
        }
        // Dependency accumulation in reverse BFS order.
        for &w in self.order.iter().rev() {
            let w = w as usize;
            let coeff = (1.0 + self.delta[w]) / self.sigma[w];
            let dw = self.dist[w];
            for &v in graph.neighbors(w as u32) {
                let v = v as usize;
                // v is a predecessor of w iff dist[v] + 1 == dist[w]; for
                // undirected graphs the neighbor scan covers all
                // predecessors. (Directed graphs need the transpose; see
                // `betweenness_centrality`.)
                if self.dist[v] >= 0 && self.dist[v] + 1 == dw {
                    self.delta[v] += self.sigma[v] * coeff;
                }
            }
            if w != s as usize {
                self.partial[w] += self.delta[w];
            }
        }
    }
}

/// Betweenness centrality of every vertex for **unit-weight undirected**
/// graphs, computed with Brandes' algorithm parallelized over sources.
///
/// Scores follow the standard convention: each undirected pair is counted
/// twice (once per ordered pair), as in Brandes' original formulation; for
/// the usual undirected normalization divide by 2.
///
/// # Panics
///
/// Panics on directed graphs (the predecessor scan would need reverse
/// adjacency; run it on `graph.transpose()`-augmented data instead).
pub fn betweenness_centrality(graph: &CsrGraph, pool: &ThreadPool) -> Vec<f64> {
    assert!(
        !graph.direction().is_directed(),
        "betweenness_centrality expects an undirected graph"
    );
    let n = graph.vertex_count();
    let locals: PerThread<Option<BrandesWorkspace>> = PerThread::new(pool.num_threads());
    pool.parallel_for(n, Schedule::dynamic_cyclic(), |tid, s| {
        // SAFETY: each pool thread touches only its own slot.
        let slot = unsafe { locals.get_mut(tid) };
        let ws = slot.get_or_insert_with(|| BrandesWorkspace::new(n));
        ws.accumulate_source(graph, s as u32);
    });
    let mut scores = vec![0.0f64; n];
    for ws in locals.into_inner().into_iter().flatten() {
        for (total, partial) in scores.iter_mut().zip(&ws.partial) {
            *total += partial;
        }
    }
    scores
}

/// Local clustering coefficient of every vertex: the fraction of a
/// vertex's neighbor pairs that are themselves connected. Degree < 2
/// yields 0.
pub fn clustering_coefficients(graph: &CsrGraph) -> Vec<f64> {
    let n = graph.vertex_count();
    // Sorted adjacency copies make pair membership O(log d).
    let sorted: Vec<Vec<u32>> = (0..n as u32)
        .map(|v| {
            let mut adj: Vec<u32> = graph.neighbors(v).to_vec();
            adj.sort_unstable();
            adj.dedup();
            adj
        })
        .collect();
    (0..n)
        .map(|v| {
            let adj = &sorted[v];
            let d = adj.len();
            if d < 2 {
                return 0.0;
            }
            let mut closed = 0usize;
            for (i, &a) in adj.iter().enumerate() {
                for &b in &adj[i + 1..] {
                    if sorted[a as usize].binary_search(&b).is_ok() {
                        closed += 1;
                    }
                }
            }
            2.0 * closed as f64 / (d * (d - 1)) as f64
        })
        .collect()
}

/// Global (average) clustering coefficient.
pub fn average_clustering(graph: &CsrGraph) -> f64 {
    let coeffs = clustering_coefficients(graph);
    if coeffs.is_empty() {
        return 0.0;
    }
    coeffs.iter().sum::<f64>() / coeffs.len() as f64
}

/// Degree assortativity (Pearson correlation of degrees across edges).
/// Negative for the paper's social-network replicas (hubs connect to
/// leaves), near zero for Erdős–Rényi.
pub fn degree_assortativity(graph: &CsrGraph) -> f64 {
    let degs: Vec<f64> = (0..graph.vertex_count() as u32)
        .map(|v| graph.out_degree(v) as f64)
        .collect();
    let mut sum_xy = 0.0;
    let mut sum_x = 0.0;
    let mut sum_x2 = 0.0;
    let mut count = 0.0f64;
    for (u, v, _) in graph.arcs() {
        let (x, y) = (degs[u as usize], degs[v as usize]);
        sum_xy += x * y;
        sum_x += x + y;
        sum_x2 += x * x + y * y;
        count += 2.0;
    }
    if count == 0.0 {
        return 0.0;
    }
    let mean = sum_x / count;
    let var = sum_x2 / count - mean * mean;
    if var.abs() < f64::EPSILON {
        return 0.0;
    }
    (sum_xy * 2.0 / count - mean * mean) / var
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::generate::{
        barabasi_albert, complete_graph, cycle_graph, path_graph, star_graph, WeightSpec,
    };
    use parapsp_graph::Direction;

    #[test]
    fn star_hub_carries_all_betweenness() {
        let g = star_graph(10);
        let pool = ThreadPool::new(3);
        let b = betweenness_centrality(&g, &pool);
        // Hub relays all 9*8 ordered leaf pairs; leaves relay nothing.
        assert!((b[0] - 72.0).abs() < 1e-9, "hub score {}", b[0]);
        assert!(b[1..].iter().all(|&x| x.abs() < 1e-9));
    }

    #[test]
    fn path_graph_betweenness_is_exact() {
        // Path 0-1-2-3: vertex 1 relays (0,2), (0,3), (2,0), (3,0) → 4;
        // by symmetry vertex 2 too.
        let g = path_graph(4, Direction::Undirected);
        let pool = ThreadPool::new(2);
        let b = betweenness_centrality(&g, &pool);
        assert!((b[0]).abs() < 1e-9);
        assert!((b[1] - 4.0).abs() < 1e-9, "{b:?}");
        assert!((b[2] - 4.0).abs() < 1e-9);
        assert!((b[3]).abs() < 1e-9);
    }

    #[test]
    fn equal_path_splitting_is_fractional() {
        // Cycle of 4: two shortest paths between opposite corners, each
        // midpoint gets half credit per ordered pair → 2 * 0.5 = 1.0.
        let g = cycle_graph(4, Direction::Undirected);
        let pool = ThreadPool::new(2);
        let b = betweenness_centrality(&g, &pool);
        for &score in &b {
            assert!((score - 1.0).abs() < 1e-9, "{b:?}");
        }
    }

    #[test]
    fn thread_count_does_not_change_scores() {
        let g = barabasi_albert(300, 3, WeightSpec::Unit, 4).unwrap();
        let b1 = betweenness_centrality(&g, &ThreadPool::new(1));
        let b4 = betweenness_centrality(&g, &ThreadPool::new(4));
        for (a, b) in b1.iter().zip(&b4) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn hubs_dominate_betweenness_on_scale_free_graphs() {
        // The paper's core heuristic, quantified: the top-betweenness
        // vertex should be among the highest-degree vertices.
        let g = barabasi_albert(500, 3, WeightSpec::Unit, 9).unwrap();
        let pool = ThreadPool::new(4);
        let b = betweenness_centrality(&g, &pool);
        let top_b = (0..500u32)
            .max_by(|&x, &y| b[x as usize].total_cmp(&b[y as usize]))
            .unwrap();
        let mut degrees: Vec<u32> = (0..500u32).map(|v| g.out_degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            g.out_degree(top_b) >= degrees[25],
            "top betweenness vertex has degree {} (top-5% cut {})",
            g.out_degree(top_b),
            degrees[25]
        );
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn directed_graph_rejected() {
        let g = cycle_graph(4, Direction::Directed);
        let _ = betweenness_centrality(&g, &ThreadPool::new(1));
    }

    #[test]
    fn clustering_known_values() {
        assert!(clustering_coefficients(&complete_graph(5))
            .iter()
            .all(|&c| (c - 1.0).abs() < 1e-12));
        assert!(
            clustering_coefficients(&path_graph(5, Direction::Undirected))
                .iter()
                .all(|&c| c == 0.0)
        );
        assert_eq!(average_clustering(&complete_graph(4)), 1.0);
        // Triangle with a pendant: pendant 0, triangle vertices mixed.
        let g = parapsp_graph::CsrGraph::from_unit_edges(
            4,
            Direction::Undirected,
            &[(0, 1), (1, 2), (2, 3), (1, 3)],
        )
        .unwrap();
        let c = clustering_coefficients(&g);
        assert_eq!(c[0], 0.0); // degree 1
        assert!((c[1] - 1.0 / 3.0).abs() < 1e-12); // pairs: (0,2),(0,3),(2,3) → 1 closed
        assert!((c[2] - 1.0).abs() < 1e-12);
        assert!((c[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assortativity_signs() {
        // Star: maximally disassortative.
        let star = star_graph(20);
        assert!(degree_assortativity(&star) < -0.9);
        // Cycle: all degrees equal → defined as 0 here (zero variance).
        let cyc = cycle_graph(10, Direction::Undirected);
        assert_eq!(degree_assortativity(&cyc), 0.0);
        // BA graphs are disassortative-to-neutral.
        let ba = barabasi_albert(800, 3, WeightSpec::Unit, 7).unwrap();
        let r = degree_assortativity(&ba);
        assert!(r < 0.15, "BA assortativity {r}");
        // Empty graph.
        let empty =
            parapsp_graph::CsrGraph::from_unit_edges(3, Direction::Undirected, &[]).unwrap();
        assert_eq!(degree_assortativity(&empty), 0.0);
    }
}
