//! All-pairs shortest *paths* (not just distances): predecessor tracking
//! and route reconstruction.
//!
//! The paper's algorithms return the distance matrix; applications like the
//! transportation studies cited in its related work (§6) also need the
//! routes. This module runs the shared Alg. 1 kernel with a predecessor
//! sink ([`PredSink`]): when a published row of `t` relaxes `v`, the
//! predecessor of `v` on the composed path `s ⇝ t ⇝ v` is exactly `t`'s
//! recorded predecessor of `v`, so reuse composes for predecessors just as
//! it does for distances.
//!
//! Memory cost: a second n × n `u32` matrix.

use std::time::Instant;

use parapsp_graph::{degree, CsrGraph};
use parapsp_order::OrderingProcedure;
use parapsp_parfor::{ParSlice, PerThread, Schedule, ThreadPool};

use crate::dist::{matrix_cells, DistanceMatrix};
use crate::kernel::{modified_dijkstra, KernelOptions, PredSink, Workspace};
use crate::stats::Counters;
use crate::store::{Store, StoreSpec};

/// Sentinel in the predecessor matrix: no predecessor (self or unreachable).
pub const NO_PRED: u32 = u32::MAX;

/// Row-major n × n predecessor matrix: `pred(s, v)` is the vertex right
/// before `v` on a shortest `s → v` path, or [`NO_PRED`].
#[derive(Clone)]
pub struct PredecessorMatrix {
    n: usize,
    data: Box<[u32]>,
}

impl PredecessorMatrix {
    /// Predecessor of `v` on the shortest `s → v` path.
    #[inline]
    pub fn get(&self, s: u32, v: u32) -> u32 {
        self.data[s as usize * self.n + v as usize]
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reconstructs the shortest `s → v` path as a vertex sequence
    /// (inclusive of both endpoints). Returns `None` when `v` is
    /// unreachable from `s`.
    pub fn path(&self, s: u32, v: u32) -> Option<Vec<u32>> {
        if s == v {
            return Some(vec![s]);
        }
        let mut route = vec![v];
        let mut cursor = v;
        // A shortest path visits each vertex at most once; the bound guards
        // against corrupted input.
        for _ in 0..self.n {
            let prev = self.get(s, cursor);
            if prev == NO_PRED {
                return None;
            }
            route.push(prev);
            if prev == s {
                route.reverse();
                return Some(route);
            }
            cursor = prev;
        }
        None
    }
}

impl std::fmt::Debug for PredecessorMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PredecessorMatrix({} × {})", self.n, self.n)
    }
}

/// Distances and predecessors from every source.
#[derive(Debug)]
pub struct ApspPaths {
    /// The exact distance matrix.
    pub dist: DistanceMatrix,
    /// Predecessor matrix for route reconstruction.
    pub pred: PredecessorMatrix,
    /// End-to-end wall time.
    pub elapsed: std::time::Duration,
}

/// The kernel's predecessor sink for one source `s`. Predecessor rows
/// carry no flags of their own: the owner of `s` writes row `s` before it
/// publishes distance row `s` in the [`Store`], and a reader touches row
/// `t` only while it holds a lease of distance row `t` — so the store's
/// Release/Acquire publication flag orders both matrices.
struct PathSink<'a> {
    preds: &'a ParSlice<'a, u32>,
    n: usize,
    s: u32,
}

impl PredSink for PathSink<'_> {
    #[inline]
    fn edge(&mut self, t: u32, v: u32) {
        // SAFETY: predecessor row `s` belongs to this task until it
        // publishes distance row `s`.
        unsafe { self.preds.write(self.s as usize * self.n + v as usize, t) };
    }

    fn reuse(&mut self, row: &mut [u32], t: u32, t_row: &[u32], dt: u32, cap: u32) -> Option<u64> {
        let (mine, theirs) = (self.s as usize * self.n, t as usize * self.n);
        let mut improved = 0;
        for v in 0..row.len() {
            let alt = dt.saturating_add(t_row[v]);
            if alt < row[v] && alt <= cap {
                row[v] = alt;
                // Composition: the predecessor of v inside t's tree is also
                // its predecessor on the s ⇝ t ⇝ v path; for t's direct
                // successors that is t itself. v == t never improves.
                // SAFETY: the kernel holds a lease of distance row `t`, so
                // its owner has finished predecessor row `t`; row `s` is
                // this task's.
                unsafe {
                    let via = self.preds.read(theirs + v);
                    self.preds
                        .write(mine + v, if via == NO_PRED { t } else { via });
                }
                improved += 1;
            }
        }
        Some(improved)
    }
}

/// ParAPSP with route reconstruction: MultiLists ordering, dynamic-cyclic
/// scheduling, and a predecessor matrix produced alongside the distances.
pub fn par_apsp_with_paths(graph: &CsrGraph, threads: usize) -> ApspPaths {
    let n = graph.vertex_count();
    let pool = ThreadPool::new(threads);
    let start = Instant::now();
    let degrees = degree::out_degrees(graph);
    let order = OrderingProcedure::multi_lists().compute(&degrees, &pool);
    let store = Store::new(n, &StoreSpec::dense());
    let mut pred = matrix_cells(n, n, NO_PRED);
    let preds = ParSlice::new(&mut pred);
    let locals = PerThread::from_fn(pool.num_threads(), |_| {
        (Workspace::new(n), Counters::default())
    });
    pool.parallel_for(n, Schedule::dynamic_cyclic(), |tid, k| {
        let s = order[k];
        // SAFETY: one slot per pool thread.
        let (ws, counters) = unsafe { locals.get_mut(tid) };
        // SAFETY: `order` is a permutation, so this iteration uniquely
        // owns row `s` until it publishes.
        let row = unsafe { store.try_row_mut(s) }.expect("the dense store lends rows");
        let mut sink = PathSink {
            preds: &preds,
            n,
            s,
        };
        let opts = KernelOptions::default();
        modified_dijkstra(graph, s, row, &store, ws, opts, counters, None, &mut sink);
        store.publish(s);
    });
    ApspPaths {
        dist: store.into_matrix(),
        pred: PredecessorMatrix {
            n,
            data: pred,
        },
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::generate::{barabasi_albert, erdos_renyi_gnm, WeightSpec};
    use parapsp_graph::{Direction, INF};

    /// Checks that every reconstructed path is a real edge walk whose
    /// weights sum to the reported distance.
    fn validate_paths(graph: &CsrGraph, result: &ApspPaths) {
        let n = graph.vertex_count();
        for s in 0..n as u32 {
            for v in 0..n as u32 {
                let d = result.dist.get(s, v);
                if d == INF {
                    assert!(result.pred.path(s, v).is_none() || s == v);
                    continue;
                }
                let path = result
                    .pred
                    .path(s, v)
                    .unwrap_or_else(|| panic!("no path {s} -> {v} but dist {d}"));
                assert_eq!(path.first(), Some(&s));
                assert_eq!(path.last(), Some(&v));
                let mut total = 0u32;
                for pair in path.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    let w = graph
                        .out_edges(a)
                        .filter(|&(t, _)| t == b)
                        .map(|(_, w)| w)
                        .min()
                        .unwrap_or_else(|| panic!("path uses nonexistent edge {a} -> {b}"));
                    total += w;
                }
                assert_eq!(total, d, "path weight mismatch {s} -> {v}");
            }
        }
    }

    #[test]
    fn paths_are_valid_on_weighted_directed_graph() {
        let g = erdos_renyi_gnm(
            80,
            400,
            Direction::Directed,
            WeightSpec::Uniform { lo: 1, hi: 9 },
            3,
        )
        .unwrap();
        for threads in [1, 4] {
            let result = par_apsp_with_paths(&g, threads);
            let reference = crate::baselines::apsp_dijkstra(&g);
            assert_eq!(reference.first_difference(&result.dist), None);
            validate_paths(&g, &result);
        }
    }

    #[test]
    fn paths_are_valid_on_scale_free_graph() {
        let g = barabasi_albert(120, 3, WeightSpec::Unit, 8).unwrap();
        let result = par_apsp_with_paths(&g, 4);
        validate_paths(&g, &result);
    }

    #[test]
    fn trivial_paths() {
        let g = CsrGraph::from_unit_edges(3, Direction::Directed, &[(0, 1)]).unwrap();
        let result = par_apsp_with_paths(&g, 2);
        assert_eq!(result.pred.path(0, 0), Some(vec![0]));
        assert_eq!(result.pred.path(0, 1), Some(vec![0, 1]));
        assert_eq!(result.pred.path(1, 0), None);
        assert_eq!(result.pred.path(0, 2), None);
        assert_eq!(result.pred.get(0, 1), 0);
        assert_eq!(result.pred.get(0, 2), NO_PRED);
        assert_eq!(result.pred.n(), 3);
    }

    #[test]
    fn long_chain_path_reconstructs_fully() {
        let g = parapsp_graph::generate::path_graph(50, Direction::Undirected);
        let result = par_apsp_with_paths(&g, 3);
        let path = result.pred.path(0, 49).unwrap();
        assert_eq!(path, (0..50u32).collect::<Vec<_>>());
    }

    use parapsp_graph::CsrGraph;
}
