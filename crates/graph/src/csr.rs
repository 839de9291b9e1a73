//! Compressed-sparse-row graph storage.
//!
//! All APSP algorithms in this workspace iterate outgoing adjacency lists in
//! tight inner loops; CSR gives that scan cache-friendly, allocation-free
//! layout. Undirected graphs store each edge in both directions so the same
//! scan works for either [`Direction`].

use crate::error::GraphError;

/// Whether edges are one-way or symmetric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Each edge `(u, v)` is traversable only from `u` to `v`.
    Directed,
    /// Each edge is traversable both ways (stored twice internally).
    Undirected,
}

impl Direction {
    /// True for [`Direction::Directed`].
    #[inline]
    pub fn is_directed(self) -> bool {
        matches!(self, Direction::Directed)
    }
}

/// An immutable weighted graph in compressed-sparse-row form.
///
/// Vertex ids are dense `0..vertex_count() as u32`. Edge weights are `u32`;
/// unit-weight graphs (the paper's complex networks) simply use weight 1
/// everywhere.
///
/// ```
/// use parapsp_graph::{GraphBuilder, Direction};
///
/// let mut b = GraphBuilder::new(4, Direction::Undirected);
/// b.add_edge(0, 1, 1).unwrap();
/// b.add_edge(1, 2, 5).unwrap();
/// let g = b.build();
/// assert_eq!(g.vertex_count(), 4);
/// assert_eq!(g.edge_count(), 2);            // logical edges
/// assert_eq!(g.out_degree(1), 2);           // stored arcs from vertex 1
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    direction: Direction,
    /// `offsets[v]..offsets[v + 1]` indexes `targets`/`weights` for vertex `v`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u32>,
    /// Number of *logical* edges (an undirected edge counts once).
    edge_count: usize,
}

impl CsrGraph {
    /// Assembles a CSR graph from parallel arrays. Intended for use by
    /// [`GraphBuilder`](crate::GraphBuilder) and the generators; validates
    /// structural invariants.
    pub(crate) fn from_parts(
        direction: Direction,
        offsets: Vec<usize>,
        targets: Vec<u32>,
        weights: Vec<u32>,
        edge_count: usize,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        debug_assert_eq!(targets.len(), weights.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        CsrGraph {
            direction,
            offsets,
            targets,
            weights,
            edge_count,
        }
    }

    /// Builds a graph directly from an edge list. Convenience wrapper over
    /// [`GraphBuilder`](crate::GraphBuilder) with duplicates kept as-is.
    pub fn from_edges(
        vertex_count: usize,
        direction: Direction,
        edges: &[(u32, u32, u32)],
    ) -> Result<Self, GraphError> {
        let mut builder = crate::GraphBuilder::new(vertex_count, direction);
        for &(u, v, w) in edges {
            builder.add_edge(u, v, w)?;
        }
        Ok(builder.build())
    }

    /// Builds a unit-weight graph from `(u, v)` pairs.
    pub fn from_unit_edges(
        vertex_count: usize,
        direction: Direction,
        edges: &[(u32, u32)],
    ) -> Result<Self, GraphError> {
        let mut builder = crate::GraphBuilder::new(vertex_count, direction);
        for &(u, v) in edges {
            builder.add_edge(u, v, 1)?;
        }
        Ok(builder.build())
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of logical edges (undirected edges are counted once).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of stored arcs (2× the edge count for undirected graphs).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }

    /// Directedness of the graph.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Out-degree of `v`: the number of stored arcs leaving it. For
    /// undirected graphs this is the ordinary degree — the quantity the
    /// paper's ordering procedures sort by.
    #[inline]
    pub fn out_degree(&self, v: u32) -> u32 {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as u32
    }

    /// Targets of the arcs leaving `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weights of the arcs leaving `v`, parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn weights(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.weights[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterates over `(target, weight)` pairs of the arcs leaving `v`.
    #[inline]
    pub fn out_edges(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.weights(v).iter().copied())
    }

    /// Iterates over every stored arc as `(from, to, weight)`.
    pub fn arcs(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.vertex_count() as u32)
            .flat_map(move |v| self.out_edges(v).map(move |(t, w)| (v, t, w)))
    }

    /// True when every edge weight is exactly 1.
    pub fn is_unit_weight(&self) -> bool {
        self.weights.iter().all(|&w| w == 1)
    }

    /// The graph with every arc reversed. For undirected graphs this is an
    /// identical copy (useful for tests); for directed graphs it enables
    /// in-degree computations and reverse traversals.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.vertex_count();
        let mut in_deg = vec![0usize; n];
        for &t in &self.targets {
            in_deg[t as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &in_deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; self.targets.len()];
        let mut weights = vec![0u32; self.weights.len()];
        for (from, to, w) in self.arcs() {
            let slot = cursor[to as usize];
            cursor[to as usize] += 1;
            targets[slot] = from;
            weights[slot] = w;
        }
        CsrGraph::from_parts(self.direction, offsets, targets, weights, self.edge_count)
    }

    /// Rebuilds the graph with vertex `v` renamed to `new_id[v]`.
    ///
    /// `new_id` must be a permutation of `0..n`. Random relabeling is used
    /// by the dataset replicas to destroy the id–degree correlation that
    /// preferential-attachment generators introduce (in a raw BA graph the
    /// oldest — lowest — ids are the hubs, which would make the *unordered*
    /// APSP baseline accidentally degree-ordered).
    ///
    /// # Panics
    ///
    /// Panics if `new_id` is not a permutation of `0..vertex_count()`.
    pub fn relabel(&self, new_id: &[u32]) -> CsrGraph {
        let n = self.vertex_count();
        assert_eq!(new_id.len(), n, "relabel permutation has wrong length");
        let mut seen = vec![false; n];
        for &id in new_id {
            assert!(
                (id as usize) < n && !std::mem::replace(&mut seen[id as usize], true),
                "relabel argument is not a permutation"
            );
        }
        let mut builder = crate::GraphBuilder::new(n, self.direction);
        match self.direction {
            Direction::Directed => {
                for (u, v, w) in self.arcs() {
                    builder
                        .add_edge(new_id[u as usize], new_id[v as usize], w)
                        .expect("in range");
                }
            }
            Direction::Undirected => {
                for (u, v, w) in self.logical_edges() {
                    builder
                        .add_edge(new_id[u as usize], new_id[v as usize], w)
                        .expect("in range");
                }
            }
        }
        builder.build()
    }

    /// Iterates over *logical* edges as `(u, v, w)`. For directed graphs
    /// this is the same as [`CsrGraph::arcs`]; for undirected graphs each
    /// edge is reported once, with `u <= v`.
    pub fn logical_edges(&self) -> Vec<(u32, u32, u32)> {
        match self.direction {
            Direction::Directed => self.arcs().collect(),
            Direction::Undirected => self.arcs().filter(|&(u, v, _)| u <= v).collect(),
        }
    }

    /// Sums all out-degrees; equal to [`CsrGraph::arc_count`]. Exposed for
    /// sanity checks in tests and benches.
    pub fn total_degree(&self) -> usize {
        (0..self.vertex_count() as u32)
            .map(|v| self.out_degree(v) as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        CsrGraph::from_edges(
            4,
            Direction::Directed,
            &[(0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 5)],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.arc_count(), 4);
        assert!(g.direction().is_directed());
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.weights(0), &[2, 1]);
        assert_eq!(g.out_edges(2).collect::<Vec<_>>(), vec![(3, 5)]);
    }

    #[test]
    fn undirected_stores_both_arcs() {
        let g = CsrGraph::from_unit_edges(3, Direction::Undirected, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.arc_count(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.is_unit_weight());
    }

    #[test]
    fn arcs_iterates_all() {
        let g = diamond();
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 5)]);
    }

    #[test]
    fn transpose_reverses_directed_arcs() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.out_degree(3), 2);
        assert_eq!(t.out_degree(0), 0);
        let mut back: Vec<_> = t.arcs().map(|(a, b, w)| (b, a, w)).collect();
        back.sort_unstable();
        let mut orig: Vec<_> = g.arcs().collect();
        orig.sort_unstable();
        assert_eq!(back, orig);
    }

    #[test]
    fn transpose_of_undirected_graph_has_same_adjacency() {
        let g =
            CsrGraph::from_unit_edges(4, Direction::Undirected, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let t = g.transpose();
        for v in 0..4u32 {
            let mut a = g.neighbors(v).to_vec();
            let mut b = t.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_unit_edges(5, Direction::Directed, &[]).unwrap();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 0);
        for v in 0..5u32 {
            assert_eq!(g.out_degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
        assert_eq!(g.total_degree(), 0);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = CsrGraph::from_unit_edges(2, Direction::Directed, &[(0, 2)]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
    }
}
