//! Classic shortest-path baselines (paper §2 Background, §6 Related Work).
//!
//! These serve two purposes: cross-validating the Peng-family algorithms on
//! arbitrary graphs, and reproducing the background comparisons (the paper
//! contrasts its O(n^2.4)-empirical approach with O(n³) Floyd–Warshall and
//! with per-source Dijkstra/Bellman–Ford).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use parapsp_graph::{CsrGraph, INF};
use parapsp_parfor::{ParSlice, Schedule, ThreadPool};

use crate::dist::{matrix_cells, DistanceMatrix};

/// Floyd–Warshall, O(n³) time and O(n²) space. The classic APSP baseline
/// (paper ref.\[10\]); practical only for small `n`.
pub fn floyd_warshall(graph: &CsrGraph) -> DistanceMatrix {
    let n = graph.vertex_count();
    let mut dist = DistanceMatrix::new_infinite(n);
    for v in 0..n as u32 {
        dist.row_mut(v)[v as usize] = 0;
    }
    for (u, v, w) in graph.arcs() {
        let cell = &mut dist.row_mut(u)[v as usize];
        *cell = (*cell).min(w);
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist.get(i as u32, k as u32);
            if dik == INF {
                continue;
            }
            for j in 0..n {
                let dkj = dist.get(k as u32, j as u32);
                let alt = dik.saturating_add(dkj);
                if alt < dist.get(i as u32, j as u32) {
                    dist.row_mut(i as u32)[j] = alt;
                }
            }
        }
    }
    dist
}

/// Binary-heap Dijkstra SSSP into a caller-provided row
/// (`dist_row.len() == n`, will be overwritten).
pub fn dijkstra_sssp(graph: &CsrGraph, source: u32, dist_row: &mut [u32]) {
    dist_row.fill(INF);
    dist_row[source as usize] = 0;
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist_row[u as usize] {
            continue; // stale entry
        }
        for (v, w) in graph.out_edges(u) {
            let alt = d.saturating_add(w);
            if alt < dist_row[v as usize] {
                dist_row[v as usize] = alt;
                heap.push(Reverse((alt, v)));
            }
        }
    }
}

/// APSP by running [`dijkstra_sssp`] from every source — the "naïve
/// approach" of the paper's §2.1, O(n · (n + m) log n).
pub fn apsp_dijkstra(graph: &CsrGraph) -> DistanceMatrix {
    let n = graph.vertex_count();
    let mut dist = DistanceMatrix::new_infinite(n);
    for s in 0..n as u32 {
        dijkstra_sssp(graph, s, dist.row_mut(s));
    }
    dist
}

/// Parallel per-source heap Dijkstra — the obvious "embarrassingly
/// parallel" comparator that does *not* share any information between
/// sources (used by the ablation benches to isolate the value of Peng's
/// row reuse).
pub fn par_apsp_dijkstra(graph: &CsrGraph, pool: &ThreadPool) -> DistanceMatrix {
    let n = graph.vertex_count();
    let mut data = matrix_cells(n, n, INF);
    {
        let view = ParSlice::new(&mut data[..]);
        pool.parallel_for(n, Schedule::dynamic_cyclic(), |_tid, s| {
            let mut row = vec![INF; n];
            dijkstra_sssp(graph, s as u32, &mut row);
            let base = s * n;
            for (j, d) in row.into_iter().enumerate() {
                // SAFETY: row `s` belongs exclusively to this iteration.
                unsafe { view.write(base + j, d) };
            }
        });
    }
    DistanceMatrix::from_raw(n, data)
}

/// Bellman–Ford SSSP (paper ref.\[4\]). With `u32` weights there are no
/// negative cycles, so it always converges; kept for the background
/// comparison and as an extra cross-check.
pub fn bellman_ford_sssp(graph: &CsrGraph, source: u32) -> Vec<u32> {
    let n = graph.vertex_count();
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    // Standard queue-based Bellman–Ford (equivalent to SPFA).
    let mut queue = VecDeque::new();
    let mut in_queue = vec![false; n];
    queue.push_back(source);
    in_queue[source as usize] = true;
    while let Some(u) = queue.pop_front() {
        in_queue[u as usize] = false;
        let du = dist[u as usize];
        for (v, w) in graph.out_edges(u) {
            let alt = du.saturating_add(w);
            if alt < dist[v as usize] {
                dist[v as usize] = alt;
                if !in_queue[v as usize] {
                    queue.push_back(v);
                    in_queue[v as usize] = true;
                }
            }
        }
    }
    dist
}

/// BFS SSSP for unit-weight graphs (hop counts).
pub fn bfs_sssp(graph: &CsrGraph, source: u32) -> Vec<u32> {
    let n = graph.vertex_count();
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for v in graph.neighbors(u) {
            if dist[*v as usize] == INF {
                dist[*v as usize] = du + 1;
                queue.push_back(*v);
            }
        }
    }
    dist
}

/// APSP by BFS from every source. Exact only for unit-weight graphs.
pub fn apsp_bfs(graph: &CsrGraph) -> DistanceMatrix {
    let n = graph.vertex_count();
    let mut dist = DistanceMatrix::new_infinite(n);
    for s in 0..n as u32 {
        let row = bfs_sssp(graph, s);
        dist.row_mut(s).copy_from_slice(&row);
    }
    dist
}

/// Parallel per-source BFS APSP for unit-weight graphs — the strongest
/// no-information-sharing comparator on the paper's (unit-weight) complex
/// networks.
pub fn par_apsp_bfs(graph: &CsrGraph, pool: &ThreadPool) -> DistanceMatrix {
    let n = graph.vertex_count();
    let mut data = matrix_cells(n, n, INF);
    {
        let view = ParSlice::new(&mut data[..]);
        pool.parallel_for(n, Schedule::dynamic_cyclic(), |_tid, s| {
            let row = bfs_sssp(graph, s as u32);
            let base = s * n;
            for (j, d) in row.into_iter().enumerate() {
                // SAFETY: row `s` belongs exclusively to this iteration.
                unsafe { view.write(base + j, d) };
            }
        });
    }
    DistanceMatrix::from_raw(n, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::generate::{barabasi_albert, erdos_renyi_gnm, WeightSpec};
    use parapsp_graph::Direction;

    fn weighted_fixture() -> CsrGraph {
        erdos_renyi_gnm(
            90,
            400,
            Direction::Directed,
            WeightSpec::Uniform { lo: 1, hi: 12 },
            23,
        )
        .unwrap()
    }

    #[test]
    fn floyd_warshall_matches_dijkstra() {
        let g = weighted_fixture();
        let fw = floyd_warshall(&g);
        let dj = apsp_dijkstra(&g);
        assert_eq!(fw.first_difference(&dj), None);
    }

    #[test]
    fn parallel_dijkstra_matches_sequential() {
        let g = weighted_fixture();
        let seq = apsp_dijkstra(&g);
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let par = par_apsp_dijkstra(&g, &pool);
            assert_eq!(seq.first_difference(&par), None, "{threads} threads");
        }
    }

    #[test]
    fn bellman_ford_matches_dijkstra_rows() {
        let g = weighted_fixture();
        let mut row = vec![0u32; g.vertex_count()];
        for s in [0u32, 7, 42] {
            dijkstra_sssp(&g, s, &mut row);
            assert_eq!(bellman_ford_sssp(&g, s), row, "source {s}");
        }
    }

    #[test]
    fn bfs_equals_dijkstra_on_unit_weights() {
        let g = barabasi_albert(150, 3, WeightSpec::Unit, 6).unwrap();
        let bfs = apsp_bfs(&g);
        let dj = apsp_dijkstra(&g);
        assert_eq!(bfs.first_difference(&dj), None);
    }

    #[test]
    fn parallel_bfs_matches_sequential_bfs() {
        let g = barabasi_albert(120, 3, WeightSpec::Unit, 61).unwrap();
        let seq = apsp_bfs(&g);
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let par = par_apsp_bfs(&g, &pool);
            assert_eq!(seq.first_difference(&par), None, "{threads} threads");
        }
    }

    #[test]
    fn known_small_graph() {
        // Triangle with a shortcut: 0-1 (4), 1-2 (1), 0-2 (6) undirected.
        let g = CsrGraph::from_edges(3, Direction::Undirected, &[(0, 1, 4), (1, 2, 1), (0, 2, 6)])
            .unwrap();
        let fw = floyd_warshall(&g);
        assert_eq!(fw.get(0, 2), 5); // via vertex 1
        assert_eq!(fw.get(0, 1), 4);
        assert_eq!(fw.get(2, 0), 5);
        assert!(fw.is_symmetric());
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let g = CsrGraph::from_unit_edges(3, Direction::Directed, &[(0, 1)]).unwrap();
        let fw = floyd_warshall(&g);
        assert_eq!(fw.get(1, 0), INF);
        assert_eq!(fw.get(2, 0), INF);
        assert_eq!(fw.get(0, 2), INF);
        let mut row = vec![0u32; 3];
        dijkstra_sssp(&g, 1, &mut row);
        assert_eq!(row, vec![INF, 0, INF]);
    }

    #[test]
    fn multigraph_takes_cheapest_parallel_edge() {
        let g = CsrGraph::from_edges(2, Direction::Directed, &[(0, 1, 9), (0, 1, 2)]).unwrap();
        let fw = floyd_warshall(&g);
        assert_eq!(fw.get(0, 1), 2);
        let dj = apsp_dijkstra(&g);
        assert_eq!(dj.get(0, 1), 2);
    }
}
