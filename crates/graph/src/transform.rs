//! Graph transformations: induced subgraphs, largest-component extraction
//! and k-core decomposition.
//!
//! Published APSP evaluations (including the datasets in the paper's
//! Table 2) conventionally work on the largest connected component, since
//! cross-component distances are all ∞. These helpers let users prepare
//! real downloaded datasets the same way.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Direction};

/// The subgraph induced by `vertices` (ids into the original graph).
///
/// Returns the new graph and the mapping `new_id -> original_id` (the
/// order of `vertices`, deduplicated, first occurrence wins).
///
/// Edges are kept when **both** endpoints are selected; weights and
/// directedness are preserved.
pub fn induced_subgraph(graph: &CsrGraph, vertices: &[u32]) -> (CsrGraph, Vec<u32>) {
    let n = graph.vertex_count();
    let mut new_id = vec![u32::MAX; n];
    let mut originals: Vec<u32> = Vec::with_capacity(vertices.len());
    for &v in vertices {
        assert!((v as usize) < n, "vertex {v} out of range");
        if new_id[v as usize] == u32::MAX {
            new_id[v as usize] = originals.len() as u32;
            originals.push(v);
        }
    }
    let mut builder = GraphBuilder::new(originals.len(), graph.direction());
    let edges: Vec<(u32, u32, u32)> = match graph.direction() {
        Direction::Directed => graph.arcs().collect(),
        Direction::Undirected => graph.logical_edges(),
    };
    for (u, v, w) in edges {
        let (nu, nv) = (new_id[u as usize], new_id[v as usize]);
        if nu != u32::MAX && nv != u32::MAX {
            builder.add_edge(nu, nv, w).expect("in range");
        }
    }
    (builder.build(), originals)
}

/// Weakly connected component ids (direction ignored), densified in order
/// of first appearance, plus the component count.
pub fn component_ids(graph: &CsrGraph) -> (Vec<u32>, usize) {
    let n = graph.vertex_count();
    // Build undirected adjacency once (directed graphs need in-arcs too).
    let reverse = if graph.direction().is_directed() {
        Some(graph.transpose())
    } else {
        None
    };
    let mut ids = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    let mut next = 0u32;
    for start in 0..n as u32 {
        if ids[start as usize] != u32::MAX {
            continue;
        }
        ids[start as usize] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let mut visit = |v: u32| {
                if ids[v as usize] == u32::MAX {
                    ids[v as usize] = next;
                    queue.push_back(v);
                }
            };
            for &v in graph.neighbors(u) {
                visit(v);
            }
            if let Some(rev) = &reverse {
                for &v in rev.neighbors(u) {
                    visit(v);
                }
            }
        }
        next += 1;
    }
    (ids, next as usize)
}

/// Extracts the largest weakly connected component. Returns the component
/// as a graph plus the mapping `new_id -> original_id`.
pub fn largest_connected_component(graph: &CsrGraph) -> (CsrGraph, Vec<u32>) {
    let n = graph.vertex_count();
    if n == 0 {
        return (graph.clone(), Vec::new());
    }
    let (ids, count) = component_ids(graph);
    let mut sizes = vec![0usize; count];
    for &c in &ids {
        sizes[c as usize] += 1;
    }
    let biggest = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, &s)| s)
        .map(|(i, _)| i as u32)
        .expect("non-empty");
    let members: Vec<u32> = (0..n as u32)
        .filter(|&v| ids[v as usize] == biggest)
        .collect();
    induced_subgraph(graph, &members)
}

/// Core number of every vertex (Batagelj–Zaverśnik bucket peeling — a
/// cousin of the paper's bounded-key bucket sorts). The core number of `v`
/// is the largest `k` such that `v` belongs to a subgraph where every
/// vertex has degree ≥ `k`. Treats the graph as undirected (uses stored
/// arcs as adjacency).
pub fn core_numbers(graph: &CsrGraph) -> Vec<u32> {
    let n = graph.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<u32> = (0..n as u32).map(|v| graph.out_degree(v)).collect();
    let max_deg = *degree.iter().max().unwrap() as usize;

    // Bucket vertices by current degree.
    let mut bins: Vec<usize> = vec![0; max_deg + 2];
    for &d in &degree {
        bins[d as usize] += 1;
    }
    let mut start = 0usize;
    for bin in bins.iter_mut() {
        let count = *bin;
        *bin = start;
        start += count;
    }
    let mut pos = vec![0usize; n]; // vertex -> index in `vert`
    let mut vert = vec![0u32; n]; // degree-sorted vertices
    {
        let mut cursor = bins.clone();
        for v in 0..n {
            pos[v] = cursor[degree[v] as usize];
            vert[pos[v]] = v as u32;
            cursor[degree[v] as usize] += 1;
        }
    }

    let mut core = degree.clone();
    for i in 0..n {
        let v = vert[i];
        core[v as usize] = degree[v as usize];
        for &u in graph.neighbors(v) {
            let u = u as usize;
            if degree[u] > degree[v as usize] {
                // Move u one bucket down: swap it with the first vertex of
                // its current bucket, then shrink the bucket.
                let du = degree[u] as usize;
                let pu = pos[u];
                let pw = bins[du];
                let w = vert[pw];
                if u as u32 != w {
                    vert.swap(pu, pw);
                    pos[u] = pw;
                    pos[w as usize] = pu;
                }
                bins[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    core
}

/// The `k`-core: the maximal subgraph where every vertex has degree ≥ `k`.
/// Returns the subgraph and the `new_id -> original_id` mapping (empty
/// graph when no vertex qualifies).
pub fn k_core(graph: &CsrGraph, k: u32) -> (CsrGraph, Vec<u32>) {
    let cores = core_numbers(graph);
    let members: Vec<u32> = (0..graph.vertex_count() as u32)
        .filter(|&v| cores[v as usize] >= k)
        .collect();
    induced_subgraph(graph, &members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{barabasi_albert, complete_graph, path_graph, star_graph, WeightSpec};

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = path_graph(5, Direction::Undirected); // 0-1-2-3-4
        let (sub, map) = induced_subgraph(&g, &[1, 2, 4]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(map, vec![1, 2, 4]);
        assert_eq!(sub.edge_count(), 1); // only 1-2 survives
        assert_eq!(sub.neighbors(0), &[1]);
        assert!(sub.neighbors(2).is_empty());
    }

    #[test]
    fn induced_subgraph_deduplicates_selection() {
        let g = complete_graph(4);
        let (sub, map) = induced_subgraph(&g, &[2, 2, 0]);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(map, vec![2, 0]);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn directed_subgraph_preserves_orientation_and_weights() {
        let g = CsrGraph::from_edges(4, Direction::Directed, &[(0, 1, 5), (1, 0, 2), (2, 3, 9)])
            .unwrap();
        let (sub, map) = induced_subgraph(&g, &[0, 1]);
        assert_eq!(map, vec![0, 1]);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(sub.weights(0), &[5]);
        assert_eq!(sub.weights(1), &[2]);
    }

    #[test]
    fn lcc_of_two_components() {
        let g = CsrGraph::from_unit_edges(
            7,
            Direction::Undirected,
            &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (5, 6)],
        )
        .unwrap();
        let (lcc, map) = largest_connected_component(&g);
        assert_eq!(lcc.vertex_count(), 4);
        assert_eq!(map, vec![3, 4, 5, 6]);
        assert_eq!(lcc.edge_count(), 4);
    }

    #[test]
    fn lcc_of_directed_graph_uses_weak_connectivity() {
        // 0 -> 1 <- 2 is weakly connected even though unreachable pairwise.
        let g = CsrGraph::from_unit_edges(4, Direction::Directed, &[(0, 1), (2, 1)]).unwrap();
        let (lcc, map) = largest_connected_component(&g);
        assert_eq!(lcc.vertex_count(), 3);
        assert_eq!(map, vec![0, 1, 2]);
    }

    #[test]
    fn lcc_of_connected_graph_is_identity_shaped() {
        let g = barabasi_albert(300, 3, WeightSpec::Unit, 3).unwrap();
        let (lcc, map) = largest_connected_component(&g);
        assert_eq!(lcc.vertex_count(), 300); // BA graphs are connected
        assert_eq!(map.len(), 300);
        assert_eq!(lcc.edge_count(), g.edge_count());
    }

    #[test]
    fn component_ids_counts() {
        let g = CsrGraph::from_unit_edges(5, Direction::Undirected, &[(0, 1), (2, 3)]).unwrap();
        let (ids, count) = component_ids(&g);
        assert_eq!(count, 3);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[2], ids[3]);
        assert_ne!(ids[0], ids[2]);
        assert_ne!(ids[4], ids[0]);
    }

    #[test]
    fn core_numbers_of_known_graphs() {
        // Complete graph: every core number = n - 1.
        assert!(core_numbers(&complete_graph(5)).iter().all(|&c| c == 4));
        // Star: hub and leaves all have core number 1.
        assert!(core_numbers(&star_graph(6)).iter().all(|&c| c == 1));
        // Path: interior 1, endpoints 1.
        assert!(core_numbers(&path_graph(4, Direction::Undirected))
            .iter()
            .all(|&c| c == 1));
        // Triangle with pendant: triangle is 2-core, pendant is 1.
        let g =
            CsrGraph::from_unit_edges(4, Direction::Undirected, &[(0, 1), (1, 2), (2, 0), (0, 3)])
                .unwrap();
        assert_eq!(core_numbers(&g), vec![2, 2, 2, 1]);
    }

    #[test]
    fn k_core_extraction() {
        let g = CsrGraph::from_unit_edges(
            5,
            Direction::Undirected,
            &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)],
        )
        .unwrap();
        let (core2, map) = k_core(&g, 2);
        assert_eq!(map, vec![0, 1, 2]);
        assert_eq!(core2.edge_count(), 3);
        let (core3, map3) = k_core(&g, 3);
        assert!(map3.is_empty());
        assert_eq!(core3.vertex_count(), 0);
    }

    #[test]
    fn ba_core_numbers_bounded_by_m() {
        // Every BA vertex arrives with m edges, so the graph is an m-core
        // but no deeper peeling survives below m.
        let g = barabasi_albert(400, 3, WeightSpec::Unit, 12).unwrap();
        let cores = core_numbers(&g);
        assert!(cores.iter().all(|&c| c >= 3));
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = CsrGraph::from_unit_edges(0, Direction::Undirected, &[]).unwrap();
        assert!(core_numbers(&g).is_empty());
        let (lcc, map) = largest_connected_component(&g);
        assert_eq!(lcc.vertex_count(), 0);
        assert!(map.is_empty());
    }

    use crate::CsrGraph;
}
