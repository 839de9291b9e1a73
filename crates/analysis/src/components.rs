//! Connectivity structure: union-find components on graphs, and
//! reachability summaries on distance matrices.

use parapsp_core::DistanceMatrix;
use parapsp_graph::{CsrGraph, INF};

/// Weighted-union + path-halving union-find.
#[derive(Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `v`'s set.
    pub fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            let grandparent = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = grandparent;
            v = grandparent;
        }
        v
    }

    /// Merges the sets of `a` and `b`; returns true when they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Size of `v`'s set.
    pub fn component_size(&mut self, v: u32) -> u32 {
        let root = self.find(v);
        self.size[root as usize]
    }
}

/// Weakly connected components of a graph (edge direction ignored).
/// Returns `(component_id_per_vertex, component_count)` with ids densified
/// in order of first appearance.
pub fn weakly_connected_components(graph: &CsrGraph) -> (Vec<u32>, usize) {
    let n = graph.vertex_count();
    let mut uf = UnionFind::new(n);
    for (u, v, _) in graph.arcs() {
        uf.union(u, v);
    }
    let mut ids = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        let root = uf.find(v);
        if ids[root as usize] == u32::MAX {
            ids[root as usize] = next;
            next += 1;
        }
        ids[v as usize] = ids[root as usize];
    }
    (ids, next as usize)
}

/// Per-vertex out-reach: how many other vertices each vertex can reach,
/// read directly off a distance matrix.
pub fn reach_counts(dist: &DistanceMatrix) -> Vec<usize> {
    dist.rows()
        .map(|(u, row)| {
            row.iter()
                .enumerate()
                .filter(|&(v, &d)| v as u32 != u && d != INF)
                .count()
        })
        .collect()
}

/// True when every ordered pair of distinct vertices has a finite distance.
pub fn is_strongly_connected(dist: &DistanceMatrix) -> bool {
    let n = dist.n();
    dist.reachable_pairs() == n.saturating_sub(1) * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_core::engine::{ApspEngine, RunConfig, Runner};
    use parapsp_graph::{CsrGraph, Direction};

    fn dist_of(g: &CsrGraph) -> DistanceMatrix {
        Runner::new(RunConfig::seq_basic())
            .run(ApspEngine::new(), g)
            .dist
    }

    #[test]
    fn union_find_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already merged
        assert_eq!(uf.component_count(), 3);
        assert_eq!(uf.component_size(2), 3);
        assert_eq!(uf.component_size(4), 1);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn wcc_ignores_direction() {
        let g =
            CsrGraph::from_unit_edges(5, Direction::Directed, &[(0, 1), (2, 1), (3, 4)]).unwrap();
        let (ids, count) = weakly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[1], ids[2]);
        assert_eq!(ids[3], ids[4]);
        assert_ne!(ids[0], ids[3]);
    }

    #[test]
    fn reachability_from_matrix() {
        let g = CsrGraph::from_unit_edges(3, Direction::Directed, &[(0, 1), (1, 2)]).unwrap();
        let d = dist_of(&g);
        assert_eq!(reach_counts(&d), vec![2, 1, 0]);
        assert!(!is_strongly_connected(&d));

        let cyc =
            CsrGraph::from_unit_edges(3, Direction::Directed, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let d = dist_of(&cyc);
        assert!(is_strongly_connected(&d));
        assert_eq!(reach_counts(&d), vec![2, 2, 2]);
    }
}
