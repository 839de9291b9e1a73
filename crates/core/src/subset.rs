//! APSP from a *subset* of sources — the memory-bounded entry point.
//!
//! The paper's hard limit is the O(n²) result matrix (its sx-superuser run
//! needs 160 GB, §5.1). Many analyses don't need all rows: landmark-based
//! distance estimation, closeness sampling, or per-community probes use
//! k ≪ n sources. This module runs the shared Alg. 1 kernel
//! ([`modified_dijkstra`]) from exactly those sources, with row reuse
//! **among the subset** (a completed subset row accelerates the remaining
//! subset runs exactly as in full ParAPSP), in O(k·n) memory.
//!
//! The algorithm-specific parts live in [`SubsetEngine`], driven by the
//! unified [`Runner`](crate::engine::Runner) pipeline — which is how the
//! subset path gained resume, periodic checkpoints, `max_distance` caps,
//! and relax selection for free:
//!
//! ```
//! use parapsp_core::engine::{RunConfig, Runner, SubsetEngine};
//! use parapsp_graph::generate::{barabasi_albert, WeightSpec};
//!
//! let g = barabasi_albert(100, 3, WeightSpec::Unit, 7).unwrap();
//! let rows = Runner::new(RunConfig::subset(2)).run(SubsetEngine::new(vec![0, 42]), &g);
//! assert_eq!(rows.row_of(42).unwrap().len(), 100);
//! ```

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parapsp_graph::{degree, CsrGraph, INF};
use parapsp_order::seq_bucket::seq_bucket_sort;
use parapsp_order::OrderingProcedure;
use parapsp_parfor::{CancelStatus, PerThread, ThreadPool};

use crate::dist::{matrix_cells, DistanceMatrix};
use crate::engine::{Engine, Plan, RowsCtx, RowsOutcome, RunConfig, RunSummary};
use crate::kernel::{modified_dijkstra, CompletedRows, NoPred, Workspace};
use crate::persist::Checkpoint;
use crate::stats::Counters;
use crate::store::LeaseOrigin;

/// Distance rows for a chosen set of sources, in O(k·n) memory.
#[derive(Debug)]
pub struct SubsetRows {
    n: usize,
    sources: Vec<u32>,
    /// Row-major k × n distances, ordered like `sources`.
    data: Box<[u32]>,
    /// Wall time of the sweep.
    pub elapsed: std::time::Duration,
}

impl SubsetRows {
    /// The sources, in the order their rows are stored.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Number of vertices (row length).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The distance row of the i-th source.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// The distance row of source vertex `s`, if `s` was in the subset.
    pub fn row_of(&self, s: u32) -> Option<&[u32]> {
        self.sources
            .iter()
            .position(|&v| v == s)
            .map(|i| self.row(i))
    }
}

/// Shared k × n state: the same Release/Acquire publication protocol as the
/// full matrix, with a vertex → slot indirection. It is the kernel's
/// [`CompletedRows`] lookup for subset runs.
pub(crate) struct SubsetState {
    n: usize,
    /// slot_of[v] = row slot of v when v is a subset source, else u32::MAX.
    slot_of: Vec<u32>,
    cells: Box<[UnsafeCell<u32>]>,
    flags: Box<[AtomicBool]>,
}

// SAFETY: same argument as `SharedDistState` — rows are uniquely owned
// until published, immutable after.
unsafe impl Sync for SubsetState {}

impl SubsetState {
    pub(crate) fn new(n: usize, sources: &[u32]) -> Self {
        let mut slot_of = vec![u32::MAX; n];
        for (slot, &s) in sources.iter().enumerate() {
            assert!(
                (s as usize) < n,
                "subset source {s} out of range for {n} vertices"
            );
            assert!(
                slot_of[s as usize] == u32::MAX,
                "subset source {s} listed twice"
            );
            slot_of[s as usize] = slot as u32;
        }
        let plain = matrix_cells(sources.len(), n, INF);
        // SAFETY: UnsafeCell<u32> is repr(transparent) over u32.
        let cells = unsafe { Box::from_raw(Box::into_raw(plain) as *mut [UnsafeCell<u32>]) };
        SubsetState {
            n,
            slot_of,
            cells,
            flags: (0..sources.len()).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// # Safety
    /// Caller must be the unique task for slot `slot`, pre-publication.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn row_mut(&self, slot: u32) -> &mut [u32] {
        let start = slot as usize * self.n;
        // SAFETY: forwarded to the caller.
        unsafe { std::slice::from_raw_parts_mut(self.cells[start].get(), self.n) }
    }

    pub(crate) fn published_row_of_vertex(&self, v: u32) -> Option<&[u32]> {
        let slot = self.slot_of[v as usize];
        if slot == u32::MAX {
            return None;
        }
        if self.flags[slot as usize].load(Ordering::Acquire) {
            let start = slot as usize * self.n;
            // SAFETY: Acquire pairs with the publishing Release.
            Some(unsafe {
                std::slice::from_raw_parts(self.cells[start].get() as *const u32, self.n)
            })
        } else {
            None
        }
    }

    pub(crate) fn publish(&self, slot: u32) {
        self.flags[slot as usize].store(true, Ordering::Release);
    }
}

impl CompletedRows for SubsetState {
    type Row<'a> = &'a [u32];

    #[inline]
    fn lease(&self, t: u32) -> Option<(&[u32], LeaseOrigin)> {
        self.published_row_of_vertex(t)
            .map(|row| (row, LeaseOrigin::Lent))
    }
}

/// The subset-of-sources engine: the Alg. 1 kernel from `k` chosen
/// sources into a k × n row store, with row reuse among the subset.
///
/// Work units are *slot indices* into the source list. Through the
/// [`Runner`](crate::engine::Runner) it supports everything the
/// full-matrix engines do — resume from a vertex-keyed checkpoint,
/// periodic checkpointing, distance caps, and the [`RunConfig`] kernel
/// options. With [`OrderingProcedure::Identity`] slots run in list order;
/// any other ordering visits subset sources in descending degree order.
pub struct SubsetEngine {
    sources: Vec<u32>,
    state: Option<SubsetState>,
    locals: Option<PerThread<(Workspace, Counters)>>,
}

impl SubsetEngine {
    /// An engine computing the rows of `sources` (duplicates rejected at
    /// [`Engine::prepare`] time).
    pub fn new(sources: Vec<u32>) -> Self {
        SubsetEngine {
            sources,
            state: None,
            locals: None,
        }
    }

    /// The configured sources, in slot order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }
}

impl Engine for SubsetEngine {
    type Output = SubsetRows;

    fn name(&self) -> &str {
        "SubsetRows"
    }

    fn prepare(
        &mut self,
        graph: &CsrGraph,
        config: &RunConfig,
        pool: &ThreadPool,
        resume: Option<Checkpoint>,
    ) -> Plan {
        let n = graph.vertex_count();
        let state = SubsetState::new(n, &self.sources);

        let t_order = Instant::now();
        let order: Vec<u32> = match config.ordering() {
            // Identity keeps the caller's slot order.
            OrderingProcedure::Identity => (0..self.sources.len() as u32).collect(),
            // Anything else: visit subset sources hub-first (same
            // rationale as Alg. 3), via the exact O(k) bucket sort.
            _ => {
                let degrees = degree::out_degrees(graph);
                let subset_degrees: Vec<u32> =
                    self.sources.iter().map(|&s| degrees[s as usize]).collect();
                seq_bucket_sort(&subset_degrees) // indices into `sources`
            }
        };
        let ordering = t_order.elapsed();

        // A resumed run pre-publishes the checkpoint's finished subset
        // rows (the checkpoint is keyed by vertex id) and sweeps the rest.
        let units = match resume {
            Some(checkpoint) => {
                let (dist, completed) = checkpoint.into_parts();
                for (slot, &s) in self.sources.iter().enumerate() {
                    if completed[s as usize] {
                        // SAFETY: pre-sweep, this thread is the unique owner
                        // of every unpublished slot.
                        unsafe { state.row_mut(slot as u32) }.copy_from_slice(dist.row(s));
                        state.publish(slot as u32);
                    }
                }
                order
                    .iter()
                    .copied()
                    .filter(|&slot| !completed[self.sources[slot as usize] as usize])
                    .collect()
            }
            None => order,
        };
        self.state = Some(state);
        self.locals = Some(PerThread::from_fn(pool.num_threads(), |_| {
            (Workspace::new(n), Counters::default())
        }));
        Plan { units, ordering }
    }

    fn run_rows(&mut self, graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome {
        let state = self.state.as_ref().expect("prepare() not called");
        let locals = self.locals.as_ref().expect("prepare() not called");
        let sources = &self.sources;
        let opts = ctx.config.kernel();
        let trace = ctx.trace;
        let body = |tid: usize, k: usize| {
            let slot = units[k];
            let s = sources[slot as usize];
            // SAFETY: one scratch slot per pool thread.
            let (ws, counters) = unsafe { locals.get_mut(tid) };
            let t0 = Instant::now();
            // SAFETY: `units` is drawn from a permutation of slots, so this
            // task is the unique owner of `slot`.
            let row = unsafe { state.row_mut(slot) };
            modified_dijkstra(graph, s, row, state, ws, opts, counters, None, &mut NoPred);
            state.publish(slot);
            if let Some(view) = trace {
                // SAFETY: as above, the trace slot of `s` belongs
                // exclusively to this iteration.
                unsafe { view.write(s as usize, t0.elapsed().as_nanos() as u64) };
            }
        };
        match ctx.token {
            Some(token) => {
                ctx.pool
                    .parallel_for_cancellable(units.len(), ctx.config.schedule(), token, body)
            }
            None => {
                ctx.pool
                    .parallel_for(units.len(), ctx.config.schedule(), body);
                CancelStatus::Continue
            }
        }
    }

    fn snapshot(&self) -> Checkpoint {
        // Published subset rows are final. Place them in an n × n
        // checkpoint keyed by *vertex* id (the persistent format has no
        // notion of subset slots).
        let state = self.state.as_ref().expect("prepare() not called");
        let mut dist = DistanceMatrix::new_infinite(state.n);
        let mut completed = vec![false; state.n];
        for &s in &self.sources {
            if let Some(row) = state.published_row_of_vertex(s) {
                dist.copy_row_from(s, row);
                completed[s as usize] = true;
            }
        }
        Checkpoint::new(dist, completed)
    }

    fn visit_rows(&self, units: &[u32], visit: &mut dyn FnMut(u32, &[u32])) {
        // Units are slot indices: visit each slot's source with its row,
        // O(batch · n), instead of the default's full n × n snapshot.
        let state = self.state.as_ref().expect("prepare() not called");
        for &slot in units {
            let s = self.sources[slot as usize];
            if let Some(row) = state.published_row_of_vertex(s) {
                visit(s, row);
            }
        }
    }

    fn finish(self, _graph: &CsrGraph, summary: RunSummary) -> SubsetRows {
        let state = self.state.expect("prepare() not called");
        // SAFETY: all rows published; single ownership again.
        let data: Box<[u32]> = unsafe { Box::from_raw(Box::into_raw(state.cells) as *mut [u32]) };
        SubsetRows {
            n: state.n,
            sources: self.sources,
            data,
            elapsed: summary.timings.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::dijkstra_sssp;
    use crate::engine::Runner;
    use crate::outcome::RunOutcome;
    use parapsp_graph::generate::{barabasi_albert, erdos_renyi_gnm, WeightSpec};
    use parapsp_graph::Direction;
    use parapsp_parfor::CancelToken;

    fn par_apsp_subset(graph: &CsrGraph, sources: &[u32], threads: usize) -> SubsetRows {
        Runner::new(RunConfig::subset(threads)).run(SubsetEngine::new(sources.to_vec()), graph)
    }

    fn par_apsp_subset_cancellable(
        graph: &CsrGraph,
        sources: &[u32],
        threads: usize,
        token: &CancelToken,
    ) -> RunOutcome<SubsetRows> {
        Runner::new(RunConfig::subset(threads)).run_with_token(
            SubsetEngine::new(sources.to_vec()),
            graph,
            token,
        )
    }

    #[test]
    fn subset_rows_match_per_source_dijkstra() {
        let g = barabasi_albert(300, 3, WeightSpec::Unit, 31).unwrap();
        let sources: Vec<u32> = vec![5, 0, 120, 299, 42];
        for threads in [1, 4] {
            let rows = par_apsp_subset(&g, &sources, threads);
            assert_eq!(rows.sources(), &sources[..]);
            assert_eq!(rows.n(), 300);
            let mut expected = vec![0u32; 300];
            for (i, &s) in sources.iter().enumerate() {
                dijkstra_sssp(&g, s, &mut expected);
                assert_eq!(rows.row(i), &expected[..], "source {s}, {threads} threads");
                assert_eq!(rows.row_of(s), Some(&expected[..]));
            }
        }
    }

    #[test]
    fn subset_on_weighted_directed_graph() {
        let g = erdos_renyi_gnm(
            200,
            1_200,
            Direction::Directed,
            WeightSpec::Uniform { lo: 1, hi: 15 },
            32,
        )
        .unwrap();
        let sources: Vec<u32> = (0..200).step_by(13).collect();
        let rows = par_apsp_subset(&g, &sources, 3);
        let mut expected = vec![0u32; 200];
        for (i, &s) in sources.iter().enumerate() {
            dijkstra_sssp(&g, s, &mut expected);
            assert_eq!(rows.row(i), &expected[..], "source {s}");
        }
    }

    #[test]
    fn full_subset_equals_full_apsp() {
        let g = barabasi_albert(120, 2, WeightSpec::Unit, 33).unwrap();
        let all: Vec<u32> = (0..120).collect();
        let rows = par_apsp_subset(&g, &all, 4);
        let full = Runner::new(RunConfig::par_apsp(4)).run(crate::engine::ApspEngine::new(), &g);
        for s in 0..120u32 {
            assert_eq!(rows.row_of(s).unwrap(), full.dist.row(s));
        }
    }

    #[test]
    fn capped_subset_matches_post_filtered_rows() {
        let g = barabasi_albert(150, 2, WeightSpec::Uniform { lo: 1, hi: 9 }, 71).unwrap();
        let sources: Vec<u32> = vec![0, 9, 80, 149];
        let cap = 12u32;
        let exact = par_apsp_subset(&g, &sources, 2);
        let capped = Runner::new(RunConfig::subset(2).with_max_distance(cap))
            .run(SubsetEngine::new(sources.clone()), &g);
        for (i, &s) in sources.iter().enumerate() {
            let expected: Vec<u32> = exact
                .row(i)
                .iter()
                .enumerate()
                .map(|(v, &d)| if v as u32 != s && d > cap { INF } else { d })
                .collect();
            assert_eq!(capped.row(i), &expected[..], "source {s}");
        }
    }

    #[test]
    fn missing_source_lookup_returns_none() {
        let g = barabasi_albert(50, 2, WeightSpec::Unit, 34).unwrap();
        let rows = par_apsp_subset(&g, &[1, 2], 2);
        assert!(rows.row_of(10).is_none());
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_sources_rejected() {
        let g = barabasi_albert(20, 2, WeightSpec::Unit, 35).unwrap();
        let _ = par_apsp_subset(&g, &[3, 3], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_rejected() {
        let g = barabasi_albert(20, 2, WeightSpec::Unit, 36).unwrap();
        let _ = par_apsp_subset(&g, &[25], 1);
    }

    #[test]
    fn cancellable_subset_completes_when_untripped() {
        let g = barabasi_albert(150, 3, WeightSpec::Unit, 61).unwrap();
        let sources: Vec<u32> = vec![0, 7, 50, 149];
        let token = parapsp_parfor::CancelToken::new();
        let rows = par_apsp_subset_cancellable(&g, &sources, 3, &token).unwrap_complete();
        let plain = par_apsp_subset(&g, &sources, 3);
        for (i, _) in sources.iter().enumerate() {
            assert_eq!(rows.row(i), plain.row(i));
        }
    }

    #[test]
    fn cancelled_subset_checkpoints_finished_rows_exactly() {
        let g = barabasi_albert(200, 3, WeightSpec::Uniform { lo: 1, hi: 7 }, 62).unwrap();
        let sources: Vec<u32> = (0..200).step_by(5).collect(); // 40 sources
        let token = parapsp_parfor::CancelToken::with_poll_budget(12);
        let outcome = par_apsp_subset_cancellable(&g, &sources, 2, &token);
        let cp = outcome.into_checkpoint().expect("12 < 40 sources");
        assert!(cp.completed_count() < sources.len());
        // Completed rows only ever belong to the subset, and each one is
        // the exact per-source Dijkstra row.
        let mut expected = vec![0u32; 200];
        for (s, &done) in cp.completed().iter().enumerate() {
            if done {
                assert!(sources.contains(&(s as u32)), "row {s} not in subset");
                dijkstra_sssp(&g, s as u32, &mut expected);
                assert_eq!(cp.matrix().row(s as u32), &expected[..]);
            }
        }
        // The checkpoint survives the v2 format round trip.
        let mut buf = Vec::new();
        crate::persist::write_checkpoint(&cp, &mut buf).unwrap();
        assert_eq!(crate::persist::read_checkpoint(buf.as_slice()).unwrap(), cp);
    }

    #[test]
    fn subset_resumes_its_own_checkpoint() {
        let g = barabasi_albert(160, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 63).unwrap();
        let sources: Vec<u32> = (0..160).step_by(4).collect(); // 40 sources
        let full = par_apsp_subset(&g, &sources, 2);
        let token = parapsp_parfor::CancelToken::with_poll_budget(15);
        let cp = par_apsp_subset_cancellable(&g, &sources, 2, &token)
            .into_checkpoint()
            .expect("15 < 40 sources");
        let resumed = Runner::new(RunConfig::subset(2)).run_resumed(
            SubsetEngine::new(sources.clone()),
            &g,
            cp,
        );
        for (i, _) in sources.iter().enumerate() {
            assert_eq!(resumed.row(i), full.row(i), "slot {i}");
        }
    }

    /// A ledgered subset run journals each batch's slots through its own
    /// `visit_rows`, so its ledger replays exactly the subset's rows.
    #[test]
    fn ledgered_subset_run_replays_exactly_its_source_rows() {
        let g = barabasi_albert(150, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 64).unwrap();
        let sources: Vec<u32> = (0..150).rev().step_by(7).collect();
        let path = std::env::temp_dir().join("parapsp-subset-ledger.ledger");
        std::fs::remove_file(&path).ok();
        let config = RunConfig::subset(2).with_ledger(&path, 4);
        Runner::new(config).run(SubsetEngine::new(sources.clone()), &g);
        let cp = crate::persist::load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut expected = vec![0u32; 150];
        for s in 0..150u32 {
            let in_subset = sources.contains(&s);
            assert_eq!(cp.completed()[s as usize], in_subset, "row {s}");
            if in_subset {
                dijkstra_sssp(&g, s, &mut expected);
                assert_eq!(cp.matrix().row(s), &expected[..], "row {s}");
            }
        }
    }

    #[test]
    fn empty_subset_is_fine() {
        let g = barabasi_albert(20, 2, WeightSpec::Unit, 37).unwrap();
        let rows = par_apsp_subset(&g, &[], 2);
        assert!(rows.sources().is_empty());
    }
}
