//! Cache-blocked, parallel Floyd–Warshall — the related-work comparator.
//!
//! The paper's §6 contrasts ParAPSP with Katz & Kider's blocked
//! Floyd–Warshall for GPUs, noting its O(n³) complexity. This is the CPU
//! analogue: the classic three-phase tiled algorithm (pivot tile → pivot
//! row/column tiles → remaining tiles), with phases 2 and 3 parallelized
//! over independent tiles on the workspace thread pool. It lets the
//! benches reproduce the related-work shape — blocked FW wins on tiny
//! dense graphs, the O(n^2.4)-empirical ParAPSP takes over quickly.
//!
//! The algorithm lives in [`BlockedFwEngine`], driven by the unified
//! [`Runner`](crate::engine::Runner) pipeline with *pivot iterations* as its work units; it is
//! not a row-checkpointing engine (see [`Engine::row_checkpoints`]) —
//! until the last pivot finishes every cell may still shrink, so periodic
//! checkpoints are skipped and an interrupted run's checkpoint has zero
//! completed rows.

use std::time::Instant;

use parapsp_graph::{CsrGraph, INF};
use parapsp_parfor::{CancelStatus, ParSlice, Schedule, ThreadPool};

use crate::dist::DistanceMatrix;
use crate::engine::{Engine, Plan, RowsCtx, RowsOutcome, RunConfig, RunSummary};
use crate::persist::Checkpoint;

/// Relaxes tile `(bi, bj)` through pivot block `bk` on the flat matrix.
///
/// # Safety
///
/// The caller must guarantee that no other thread concurrently writes tile
/// `(bi, bj)` or any of the two pivot tiles being read.
#[allow(clippy::too_many_arguments)]
unsafe fn relax_tile(
    view: &ParSlice<'_, u32>,
    n: usize,
    block: usize,
    bi: usize,
    bj: usize,
    bk: usize,
) {
    let i_end = ((bi + 1) * block).min(n);
    let j_end = ((bj + 1) * block).min(n);
    let k_end = ((bk + 1) * block).min(n);
    for k in bk * block..k_end {
        for i in bi * block..i_end {
            // SAFETY: (i, k) is in the pivot column tile, never written in
            // the phase that calls us with this (bi, bj, bk) combination
            // (or it is our own tile, owned by this thread).
            let dik = unsafe { view.read(i * n + k) };
            if dik == INF {
                continue;
            }
            for j in bj * block..j_end {
                // SAFETY: same phase-disjointness argument for (k, j); the
                // written cell (i, j) lies in this thread's own tile.
                let dkj = unsafe { view.read(k * n + j) };
                let alt = dik.saturating_add(dkj);
                if alt < unsafe { view.read(i * n + j) } {
                    unsafe { view.write(i * n + j, alt) };
                }
            }
        }
    }
}

/// The blocked Floyd–Warshall engine: `block × block` tiles, one work unit
/// per pivot iteration, phases 2 and 3 of each pivot parallelized over
/// independent tiles.
///
/// Exact for any non-negative weights; O(n³) work, O(n²) memory. `block`
/// is clamped to `[8, n]`; 64 is a good default for `u32` cells. A
/// [`RunConfig::with_max_distance`] cap is applied as a post-filter (the
/// capped matrix equals the post-filtered exact one, since distances
/// compose). Resume input is accepted but ignored — FW checkpoints carry
/// no partial rows, so a resumed run recomputes from scratch.
#[derive(Debug)]
pub struct BlockedFwEngine {
    block: usize,
    n: usize,
    data: Option<Box<[u32]>>,
    cap: Option<u32>,
}

impl BlockedFwEngine {
    /// An engine with the given tile size (clamped to `[8, n]` at run
    /// time).
    pub fn new(block: usize) -> Self {
        BlockedFwEngine {
            block,
            n: 0,
            data: None,
            cap: None,
        }
    }
}

impl Engine for BlockedFwEngine {
    type Output = DistanceMatrix;

    fn name(&self) -> &str {
        "BlockedFW"
    }

    fn row_checkpoints(&self) -> bool {
        false
    }

    fn prepare(
        &mut self,
        graph: &CsrGraph,
        config: &RunConfig,
        _pool: &ThreadPool,
        _resume: Option<Checkpoint>,
    ) -> Plan {
        let t0 = Instant::now();
        let n = graph.vertex_count();
        let mut data: Box<[u32]> = vec![INF; n * n].into_boxed_slice();
        for v in 0..n {
            data[v * n + v] = 0;
        }
        for (u, v, w) in graph.arcs() {
            let cell = &mut data[u as usize * n + v as usize];
            *cell = (*cell).min(w);
        }
        self.block = self.block.max(8).min(n.max(1));
        self.n = n;
        self.data = Some(data);
        self.cap = config.kernel().max_distance;
        let tiles = if n == 0 { 0 } else { n.div_ceil(self.block) };
        Plan {
            units: (0..tiles as u32).collect(),
            ordering: t0.elapsed(),
        }
    }

    fn run_rows(&mut self, _graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome {
        let n = self.n;
        let block = self.block;
        let tiles = if n == 0 { 0 } else { n.div_ceil(block) };
        let data = self.data.as_mut().expect("prepare() not called");
        let view = ParSlice::new(&mut data[..]);
        for &unit in units {
            let bk = unit as usize;
            // The coarsest safe cancellation boundary — within one pivot
            // step the three phases form a dependency chain.
            if let Some(token) = ctx.token {
                let status = token.poll();
                if status.is_stop() {
                    return status;
                }
            }
            // Phase 1: the pivot tile, sequential (self-dependent).
            // SAFETY: single thread touches the matrix in this phase.
            unsafe { relax_tile(&view, n, block, bk, bk, bk) };

            // Phase 2: pivot row and pivot column tiles — each depends only
            // on itself and the (now final) pivot tile, so they all run in
            // parallel. 2·(tiles − 1) independent tiles.
            let others: Vec<usize> = (0..tiles).filter(|&t| t != bk).collect();
            if !others.is_empty() {
                let others_ref = &others;
                let view_ref = &view;
                ctx.pool.parallel_for(
                    others_ref.len() * 2,
                    Schedule::dynamic_cyclic(),
                    |_tid, idx| {
                        let t = others_ref[idx / 2];
                        // SAFETY: tiles are pairwise disjoint; reads touch only
                        // the pivot tile (finalized in phase 1) and the tile
                        // itself.
                        if idx % 2 == 0 {
                            unsafe { relax_tile(view_ref, n, block, bk, t, bk) };
                        // pivot row
                        } else {
                            unsafe { relax_tile(view_ref, n, block, t, bk, bk) };
                            // pivot column
                        }
                    },
                );

                // Phase 3: every remaining tile reads its pivot-row and
                // pivot-column tiles (finalized in phase 2) and writes only
                // itself — (tiles − 1)² independent tiles.
                ctx.pool.parallel_for(
                    others_ref.len() * others_ref.len(),
                    Schedule::dynamic_cyclic(),
                    |_tid, idx| {
                        let bi = others_ref[idx / others_ref.len()];
                        let bj = others_ref[idx % others_ref.len()];
                        // SAFETY: (bi, bj) is owned by this iteration; the
                        // tiles read — (bi, bk) and (bk, bj) — are not
                        // written during phase 3.
                        unsafe { relax_tile(view_ref, n, block, bi, bj, bk) };
                    },
                );
            }
        }
        CancelStatus::Continue
    }

    fn snapshot(&self) -> Checkpoint {
        // No final rows exist mid-FW; see the module docs. The checkpoint
        // is still a valid v2 file; resuming it recomputes everything.
        Checkpoint::new(DistanceMatrix::new_infinite(self.n), vec![false; self.n])
    }

    fn finish(self, _graph: &CsrGraph, _summary: RunSummary) -> DistanceMatrix {
        let n = self.n;
        let mut data = self.data.expect("prepare() not called");
        if let Some(cap) = self.cap {
            // Capped distances compose, so post-filtering the exact matrix
            // equals running a capped kernel.
            for i in 0..n {
                for j in 0..n {
                    if i != j && data[i * n + j] > cap {
                        data[i * n + j] = INF;
                    }
                }
            }
        }
        DistanceMatrix::from_raw(n, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{apsp_dijkstra, floyd_warshall};
    use crate::engine::Runner;
    use crate::outcome::RunOutcome;
    use parapsp_graph::generate::{barabasi_albert, erdos_renyi_gnm, WeightSpec};
    use parapsp_graph::Direction;
    use parapsp_parfor::CancelToken;

    fn blocked_floyd_warshall(graph: &CsrGraph, block: usize, pool: &ThreadPool) -> DistanceMatrix {
        Runner::new(RunConfig::new(pool.num_threads())).run_with_pool(
            BlockedFwEngine::new(block),
            graph,
            pool,
        )
    }

    fn blocked_floyd_warshall_cancellable(
        graph: &CsrGraph,
        block: usize,
        pool: &ThreadPool,
        token: &CancelToken,
    ) -> RunOutcome<DistanceMatrix> {
        Runner::new(RunConfig::new(pool.num_threads())).run_with_token(
            BlockedFwEngine::new(block),
            graph,
            token,
        )
    }

    #[test]
    fn matches_plain_floyd_warshall() {
        let g = erdos_renyi_gnm(
            150,
            900,
            Direction::Directed,
            WeightSpec::Uniform { lo: 1, hi: 20 },
            44,
        )
        .unwrap();
        let reference = floyd_warshall(&g);
        for block in [8usize, 16, 64, 200] {
            for threads in [1, 4] {
                let pool = ThreadPool::new(threads);
                let blocked = blocked_floyd_warshall(&g, block, &pool);
                assert_eq!(
                    reference.first_difference(&blocked),
                    None,
                    "block {block}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_scale_free_graph() {
        let g = barabasi_albert(200, 3, WeightSpec::Unit, 45).unwrap();
        let pool = ThreadPool::new(4);
        let blocked = blocked_floyd_warshall(&g, 32, &pool);
        let reference = apsp_dijkstra(&g);
        assert_eq!(reference.first_difference(&blocked), None);
    }

    #[test]
    fn non_multiple_sizes_and_tiny_graphs() {
        // n not divisible by the block size exercises the edge tiles.
        let g = erdos_renyi_gnm(37, 200, Direction::Directed, WeightSpec::Unit, 46).unwrap();
        let pool = ThreadPool::new(3);
        let blocked = blocked_floyd_warshall(&g, 10, &pool);
        assert_eq!(floyd_warshall(&g).first_difference(&blocked), None);

        let empty = CsrGraph::from_unit_edges(0, Direction::Directed, &[]).unwrap();
        assert_eq!(blocked_floyd_warshall(&empty, 64, &pool).n(), 0);

        let single = CsrGraph::from_unit_edges(1, Direction::Directed, &[]).unwrap();
        let d = blocked_floyd_warshall(&single, 64, &pool);
        assert_eq!(d.get(0, 0), 0);
    }

    #[test]
    fn capped_run_equals_post_filtered_exact_matrix() {
        let g = erdos_renyi_gnm(
            80,
            500,
            Direction::Directed,
            WeightSpec::Uniform { lo: 1, hi: 9 },
            48,
        )
        .unwrap();
        let cap = 11u32;
        let exact = floyd_warshall(&g);
        let capped =
            Runner::new(RunConfig::new(3).with_max_distance(cap)).run(BlockedFwEngine::new(16), &g);
        for u in 0..80u32 {
            for v in 0..80u32 {
                let d = exact.get(u, v);
                let expected = if u != v && d > cap { INF } else { d };
                assert_eq!(capped.get(u, v), expected, "({u}, {v})");
            }
        }
    }

    #[test]
    fn cancellable_fw_completes_and_cancels() {
        let g = barabasi_albert(100, 3, WeightSpec::Unit, 47).unwrap();
        let pool = ThreadPool::new(4);
        // Untripped token: identical result.
        let token = parapsp_parfor::CancelToken::new();
        let out = blocked_floyd_warshall_cancellable(&g, 32, &pool, &token).unwrap_complete();
        let plain = blocked_floyd_warshall(&g, 32, &pool);
        assert_eq!(plain.first_difference(&out), None);
        // Cancelled mid-run (n=100, block=32 → 4 pivots; budget 2 stops at
        // the third): the checkpoint has zero completed rows by design.
        let token = parapsp_parfor::CancelToken::with_poll_budget(2);
        let outcome = blocked_floyd_warshall_cancellable(&g, 32, &pool, &token);
        let cp = outcome.into_checkpoint().expect("2 polls < 4 pivots");
        assert_eq!(cp.completed_count(), 0);
        let mut buf = Vec::new();
        crate::persist::write_checkpoint(&cp, &mut buf).unwrap();
        assert!(crate::persist::read_checkpoint(buf.as_slice()).is_ok());
    }

    use parapsp_graph::CsrGraph;
}
