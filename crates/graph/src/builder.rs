//! Incremental graph construction.

use std::collections::HashSet;

use crate::csr::{CsrGraph, Direction};
use crate::error::GraphError;

/// What to do when the same edge is added twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Keep every occurrence (multigraph). The SSSP algorithms tolerate
    /// parallel edges, so this is the cheap default.
    #[default]
    Keep,
    /// Silently drop repeated `(u, v)` pairs (first weight wins). Real
    /// datasets such as sx-superuser contain repeated interactions; the
    /// paper treats them as simple graphs.
    Ignore,
    /// Return [`GraphError::DuplicateEdge`].
    Reject,
}

/// Builds a [`CsrGraph`] from individually added edges.
///
/// ```
/// use parapsp_graph::{GraphBuilder, Direction, DuplicatePolicy};
///
/// let mut b = GraphBuilder::new(3, Direction::Directed)
///     .with_duplicate_policy(DuplicatePolicy::Ignore);
/// b.add_edge(0, 1, 1).unwrap();
/// b.add_edge(0, 1, 9).unwrap(); // dropped
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.weights(0), &[1]);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    vertex_count: usize,
    direction: Direction,
    duplicate_policy: DuplicatePolicy,
    allow_self_loops: bool,
    edges: Vec<(u32, u32, u32)>,
    /// Edges accepted so far under a deduplicating policy, one `u64`
    /// key each (`from << 32 | to`, endpoints ordered when undirected).
    seen: HashSet<u64>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with a fixed vertex count.
    pub fn new(vertex_count: usize, direction: Direction) -> Self {
        GraphBuilder {
            vertex_count,
            direction,
            duplicate_policy: DuplicatePolicy::Keep,
            allow_self_loops: false,
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Sets the duplicate-edge policy (default: keep).
    pub fn with_duplicate_policy(mut self, policy: DuplicatePolicy) -> Self {
        self.duplicate_policy = policy;
        self
    }

    /// Allows self-loops (default: they are silently dropped — shortest
    /// paths never use them, and the paper's datasets exclude them).
    pub fn with_self_loops(mut self, allow: bool) -> Self {
        self.allow_self_loops = allow;
        self
    }

    /// Pre-allocates room for `n` edges.
    pub fn reserve(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Number of accepted edges so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds one edge. For undirected graphs `(u, v)` and `(v, u)` are the
    /// same edge for deduplication purposes.
    pub fn add_edge(&mut self, u: u32, v: u32, weight: u32) -> Result<(), GraphError> {
        if u as usize >= self.vertex_count {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                vertex_count: self.vertex_count,
            });
        }
        if v as usize >= self.vertex_count {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                vertex_count: self.vertex_count,
            });
        }
        if u == v {
            if self.allow_self_loops {
                // A self-loop can never shorten a path; store it anyway for
                // faithful degree counts.
                self.edges.push((u, v, weight));
            }
            return Ok(());
        }
        if self.duplicate_policy != DuplicatePolicy::Keep {
            let (a, b) = match self.direction {
                Direction::Directed => (u, v),
                Direction::Undirected => (u.min(v), u.max(v)),
            };
            let key = u64::from(a) << 32 | u64::from(b);
            if !self.seen.insert(key) {
                return match self.duplicate_policy {
                    DuplicatePolicy::Ignore => Ok(()),
                    DuplicatePolicy::Reject => Err(GraphError::DuplicateEdge { from: u, to: v }),
                    DuplicatePolicy::Keep => unreachable!(),
                };
            }
        }
        self.edges.push((u, v, weight));
        Ok(())
    }

    /// Adds a unit-weight edge.
    pub fn add_unit_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError> {
        self.add_edge(u, v, 1)
    }

    /// Finalizes the builder into CSR form.
    ///
    /// Neighbor lists are emitted in edge-insertion order; undirected edges
    /// appear in both endpoint lists.
    pub fn build(self) -> CsrGraph {
        let n = self.vertex_count;
        let logical_edges = self.edges.len();
        let mut degree = vec![0usize; n];
        for &(u, v, _) in &self.edges {
            degree[u as usize] += 1;
            if !self.direction.is_directed() && u != v {
                degree[v as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; acc];
        let mut weights = vec![0u32; acc];
        for &(u, v, w) in &self.edges {
            let slot = cursor[u as usize];
            cursor[u as usize] += 1;
            targets[slot] = v;
            weights[slot] = w;
            if !self.direction.is_directed() && u != v {
                let slot = cursor[v as usize];
                cursor[v as usize] += 1;
                targets[slot] = u;
                weights[slot] = w;
            }
        }
        CsrGraph::from_parts(self.direction, offsets, targets, weights, logical_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_is_preserved() {
        let mut b = GraphBuilder::new(4, Direction::Directed);
        b.add_edge(2, 3, 1).unwrap();
        b.add_edge(2, 0, 7).unwrap();
        b.add_edge(2, 1, 4).unwrap();
        let g = b.build();
        assert_eq!(g.neighbors(2), &[3, 0, 1]);
        assert_eq!(g.weights(2), &[1, 7, 4]);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new(2, Direction::Undirected);
        b.add_edge(0, 0, 1).unwrap();
        b.add_edge(0, 1, 1).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_degree(0), 1);
    }

    #[test]
    fn self_loops_kept_when_allowed() {
        let mut b = GraphBuilder::new(2, Direction::Directed).with_self_loops(true);
        b.add_edge(1, 1, 3).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    fn duplicate_keep_makes_multigraph() {
        let mut b = GraphBuilder::new(2, Direction::Directed);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(0, 1, 2).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.weights(0), &[1, 2]);
    }

    #[test]
    fn duplicate_ignore_keeps_first() {
        let mut b = GraphBuilder::new(2, Direction::Directed)
            .with_duplicate_policy(DuplicatePolicy::Ignore);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(0, 1, 2).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weights(0), &[1]);
    }

    #[test]
    fn duplicate_reject_errors() {
        let mut b = GraphBuilder::new(2, Direction::Directed)
            .with_duplicate_policy(DuplicatePolicy::Reject);
        b.add_edge(0, 1, 1).unwrap();
        assert!(matches!(
            b.add_edge(0, 1, 2),
            Err(GraphError::DuplicateEdge { from: 0, to: 1 })
        ));
    }

    #[test]
    fn undirected_duplicate_detected_across_orientations() {
        let mut b = GraphBuilder::new(3, Direction::Undirected)
            .with_duplicate_policy(DuplicatePolicy::Ignore);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 0, 9).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn directed_reverse_edge_is_distinct() {
        let mut b = GraphBuilder::new(3, Direction::Directed)
            .with_duplicate_policy(DuplicatePolicy::Reject);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn out_of_range_endpoints_rejected() {
        let mut b = GraphBuilder::new(3, Direction::Directed);
        assert!(matches!(
            b.add_edge(3, 0, 1),
            Err(GraphError::VertexOutOfRange { vertex: 3, .. })
        ));
        assert!(matches!(
            b.add_edge(0, 5, 1),
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
    }
}
