//! The modified Dijkstra kernel (paper Alg. 1, after Peng et al.).
//!
//! Despite the name it is *not* a priority-queue Dijkstra: Peng's procedure
//! is a FIFO label-correcting SSSP (SPFA-style) with one extra move — when
//! the dequeued vertex `t` already has a complete SSSP row (`flag[t]`),
//! the whole row `D[t][*]` is used to relax every vertex at once and `t`'s
//! edges are *not* expanded. Vertices improved by a row reuse are not
//! re-enqueued; Peng et al. prove this preserves exactness (the intuition:
//! any continuation of a path through a flagged vertex is already covered
//! by that vertex's complete row).
//!
//! [`modified_dijkstra`] is the workspace's only Alg. 1 loop. It computes
//! one row into a caller-owned `&mut [u32]` and reads other sources'
//! completed rows through the [`CompletedRows`] seam, which has three
//! implementations:
//!
//! * [`Store`] — row leases on every storage tier (the row engines);
//! * the subset engine's slot map ([`crate::subset`]);
//! * [`HeldRows`] — a `parapsp-dist` node's own and received rows.
//!
//! An optional [`PredSink`] records predecessors for route reconstruction
//! ([`crate::paths`]); every other caller passes [`NoPred`], which
//! compiles to nothing. Both are generic parameters, so each caller gets
//! its own monomorphised loop and the dense-store path pays no dispatch.

use std::collections::VecDeque;
use std::ops::Deref;

use parapsp_graph::{CsrGraph, INF};
use parapsp_parfor::BitSet;

use crate::relax::{relax_row, RelaxImpl};
use crate::stats::Counters;
use crate::store::{LeaseOrigin, RowLease, Store};

/// Tuning/ablation switches for the kernel. The defaults reproduce the
/// paper; the switches exist so the benchmark harness can quantify each
/// ingredient separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOptions {
    /// Reuse published rows (the dynamic-programming step of Alg. 1,
    /// lines 6–11). Disabling degrades the kernel to plain SPFA.
    pub row_reuse: bool,
    /// Skip enqueueing a vertex that is already queued (the standard SPFA
    /// guard; the paper's pseudocode enqueues unconditionally).
    pub dedup_queue: bool,
    /// Distance cap: pairs farther than this stay at [`INF`].
    /// Bounded-horizon APSP ("k-hop neighborhoods") does much less work on
    /// small-world graphs while remaining exact within the cap: any path of
    /// total length ≤ cap decomposes into segments that are themselves
    /// ≤ cap, so capped rows compose correctly under reuse.
    pub max_distance: Option<u32>,
    /// Which [`relax_row`] implementation performs the dense row-reuse
    /// pass. All variants are bit-identical; the switch exists so the
    /// benchmark harness can quantify the vectorization win.
    pub relax: RelaxImpl,
    /// Which per-source SSSP solver computes each row (see
    /// [`crate::solver`]). All solvers produce bit-identical distances;
    /// they differ in how they order relaxations.
    pub solver: crate::solver::SolverKind,
}

impl Default for KernelOptions {
    fn default() -> Self {
        KernelOptions {
            row_reuse: true,
            dedup_queue: true,
            max_distance: None,
            relax: RelaxImpl::Auto,
            solver: crate::solver::SolverKind::default(),
        }
    }
}

/// Reusable per-task scratch space, sized once per thread so the inner loop
/// performs no allocation in the steady state.
///
/// Every [`crate::solver`] variant shares this one structure: the FIFO
/// kernel uses `queue`/`in_queue`, Δ-stepping additionally uses the
/// cyclic `BucketRing` plus the `removed`/`scratch` staging lists.
/// Sharing matters for the no-alloc guarantee — each solver borrows the
/// same warmed capacities instead of allocating per source.
pub struct Workspace {
    pub(crate) queue: VecDeque<u32>,
    /// Packed "is queued" bitmap: `n/8` bytes instead of `n`, so frontier
    /// bookkeeping stays cache-resident while rows stream through.
    pub(crate) in_queue: BitSet,
    /// Cyclic bucket array for the Δ-stepping solver.
    pub(crate) buckets: BucketRing,
    /// Vertices removed from the current bucket, staged for the
    /// heavy-edge phase (Δ-stepping only).
    pub(crate) removed: Vec<u32>,
    /// Membership bitmap for `removed` (cleared by iterating `removed`,
    /// never by an O(n) sweep).
    pub(crate) in_removed: BitSet,
    /// Drain staging: bucket slots are swapped here so a light-phase
    /// relaxation can push back into the slot being drained.
    pub(crate) scratch: Vec<u32>,
    /// Staging row for store backends that cannot lend in-place mutable
    /// rows ([`Store::try_row_mut`] returns `None`): the solver computes
    /// into this buffer and hands it over via [`Store::publish_from`].
    /// Allocated once per thread, like the rest of the workspace.
    pub(crate) row_buf: Vec<u32>,
}

impl Workspace {
    /// Scratch space for solving rows of an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        Workspace {
            queue: VecDeque::with_capacity(64),
            in_queue: BitSet::new(n),
            buckets: BucketRing::new(),
            removed: Vec::new(),
            in_removed: BitSet::new(n),
            scratch: Vec::new(),
            row_buf: vec![INF; n],
        }
    }
}

/// A cyclic array of distance buckets, reused across sources.
///
/// Bucket `b` (absolute index `tent / Δ`) lives in slot `b % ring`. The
/// ring only needs to cover the live window: every queued tentative
/// distance lies within `max_weight` of the bucket being processed, so a
/// ring of `⌈max_weight / Δ⌉ + slack` slots guarantees no two *live*
/// absolute buckets alias one slot. Entries are lazily deleted — a
/// vertex may have stale entries in higher buckets after an improvement;
/// consumers drop an entry whose current `tent / Δ` no longer matches
/// the absolute bucket being drained (distances only decrease, so a
/// stale entry can never masquerade as a ring-aliased future bucket).
///
/// `reset` clears slots but keeps their capacity, which is what makes
/// per-source solves allocation-free once warm.
pub(crate) struct BucketRing {
    slots: Vec<Vec<u32>>,
    ring: usize,
    live: usize,
}

impl BucketRing {
    pub(crate) fn new() -> Self {
        BucketRing {
            slots: Vec::new(),
            ring: 0,
            live: 0,
        }
    }

    /// Prepares the ring for a new source with `ring` slots, retaining
    /// previously grown slot capacities.
    pub(crate) fn reset(&mut self, ring: usize) {
        debug_assert!(ring >= 1);
        if self.slots.len() < ring {
            self.slots.resize_with(ring, Vec::new);
        }
        for slot in &mut self.slots {
            slot.clear();
        }
        self.ring = ring;
        self.live = 0;
    }

    /// Number of entries currently queued (including stale ones).
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    #[inline]
    pub(crate) fn push(&mut self, abs_bucket: u64, v: u32) {
        let idx = (abs_bucket % self.ring as u64) as usize;
        self.slots[idx].push(v);
        self.live += 1;
    }

    /// Whether absolute bucket `abs_bucket`'s slot holds any entries.
    #[inline]
    pub(crate) fn slot_is_empty(&self, abs_bucket: u64) -> bool {
        self.slots[(abs_bucket % self.ring as u64) as usize].is_empty()
    }

    /// Moves every entry of `abs_bucket`'s slot into `into` (appending),
    /// leaving the slot empty but with its capacity intact.
    pub(crate) fn drain_into(&mut self, abs_bucket: u64, into: &mut Vec<u32>) {
        let idx = (abs_bucket % self.ring as u64) as usize;
        self.live -= self.slots[idx].len();
        into.append(&mut self.slots[idx]);
    }
}

/// Read access to the completed rows a source may reuse: Alg. 1's
/// `flag[t]` test plus the row itself. See the module docs for the three
/// implementations.
pub trait CompletedRows {
    /// A borrowed completed row.
    type Row<'a>: Deref<Target = [u32]>
    where
        Self: 'a;

    /// Look-ahead hint for the next reuse candidate; a no-op by default.
    #[inline]
    fn prefetch(&self, _t: u32) {}

    /// `t`'s completed row and how it was served, or `None` while `t` has
    /// none. A lent row must be final: the kernel relaxes through it whole.
    fn lease(&self, t: u32) -> Option<(Self::Row<'_>, LeaseOrigin)>;
}

/// Row reuse fires on *every* backend through [`Store::lease_row`]: dense
/// rows are lent at zero cost, mmap rows are pinned in the hot-row cache
/// for the duration of the relaxation pass (read on a miss). The
/// queue-front [`Store::prefetch_row`] hint is a hardware prefetch on
/// dense and a no-op on mmap.
impl CompletedRows for Store {
    type Row<'a> = RowLease<'a>;

    #[inline]
    fn prefetch(&self, t: u32) {
        self.prefetch_row(t);
    }

    #[inline]
    fn lease(&self, t: u32) -> Option<(RowLease<'_>, LeaseOrigin)> {
        self.lease_row(t).map(|lease| {
            let origin = lease.origin();
            (lease, origin)
        })
    }
}

/// Completed rows held privately by one `parapsp-dist` node: the rows it
/// computed itself and copies received from peers, indexed by source.
/// Own rows lease as [`LeaseOrigin::Lent`] and received ones as
/// [`LeaseOrigin::CacheMiss`] (they had to cross the wire), so the
/// kernel's `lease_hits`/`lease_misses` split is the node's local/remote
/// reuse split.
pub struct HeldRows {
    rows: Vec<Option<(Vec<u32>, LeaseOrigin)>>,
}

impl HeldRows {
    /// Holds no rows yet, for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        HeldRows {
            rows: vec![None; n],
        }
    }

    /// Keeps row `s` that this node computed, replacing any received copy.
    pub fn keep_own(&mut self, s: u32, row: Vec<u32>) -> &[u32] {
        &self.rows[s as usize].insert((row, LeaseOrigin::Lent)).0
    }

    /// Keeps a copy of row `s` received from a peer, unless this node
    /// computed `s` itself.
    pub fn keep_received(&mut self, s: u32, row: Vec<u32>) {
        if self.own(s).is_none() {
            self.rows[s as usize] = Some((row, LeaseOrigin::CacheMiss));
        }
    }

    /// The row this node computed for `s`, if any.
    pub fn own(&self, s: u32) -> Option<&[u32]> {
        match &self.rows[s as usize] {
            Some((row, LeaseOrigin::Lent)) => Some(row),
            _ => None,
        }
    }
}

impl CompletedRows for HeldRows {
    type Row<'a> = &'a [u32];

    #[inline]
    fn lease(&self, t: u32) -> Option<(&[u32], LeaseOrigin)> {
        let (row, origin) = self.rows[t as usize].as_ref()?;
        Some((row, *origin))
    }
}

/// Where the kernel reports predecessors. Only [`crate::paths`] records
/// them; everyone else passes [`NoPred`].
pub trait PredSink {
    /// Edge `t → v` improved `v`.
    fn edge(&mut self, t: u32, v: u32);

    /// Relaxes `row` through `t`'s completed row `t_row` at distance `dt`
    /// (entries beyond `cap` stay put), recording the predecessor of every
    /// vertex it improves, and returns the improvement count. `None`
    /// leaves the pass to the vectorized [`relax_row`].
    fn reuse(&mut self, row: &mut [u32], t: u32, t_row: &[u32], dt: u32, cap: u32) -> Option<u64>;
}

/// The predecessor sink of every distance-only caller: records nothing.
pub struct NoPred;

impl PredSink for NoPred {
    #[inline(always)]
    fn edge(&mut self, _t: u32, _v: u32) {}

    #[inline(always)]
    fn reuse(&mut self, _: &mut [u32], _: u32, _: &[u32], _: u32, _: u32) -> Option<u64> {
        None
    }
}

/// Alg. 1 lines 6–11 for dequeued vertex `t` at distance `dt`: lease `t`'s
/// completed row, count the lease into `tally`, and relax `row` through
/// it. Returns `false` when `t` has no completed row yet. Every solver
/// reuses rows through here; it is the one caller of [`relax_row`].
///
/// `tally` is the solver's per-row local copy of the counters, flushed
/// once per row: a per-element write to the caller's `&mut Counters`
/// inside the reuse loop is a loop-carried memory dependence that blocks
/// vectorization.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn reuse_row<R: CompletedRows, P: PredSink>(
    rows: &R,
    t: u32,
    dt: u32,
    row: &mut [u32],
    relax: RelaxImpl,
    cap: u32,
    pred: &mut P,
    tally: &mut Counters,
) -> bool {
    let Some((t_row, origin)) = rows.lease(t) else {
        return false;
    };
    tally.row_reuses += 1;
    match origin {
        LeaseOrigin::CacheMiss => tally.lease_misses += 1,
        LeaseOrigin::Lent | LeaseOrigin::CacheHit => tally.lease_hits += 1,
    }
    tally.relaxations += match pred.reuse(row, t, &t_row, dt, cap) {
        Some(improved) => improved,
        None => relax_row(relax, row, &t_row, dt, cap),
    };
    true
}

/// Runs the modified Dijkstra from source `s` into `row`, reusing the
/// completed rows `rows` lends.
///
/// `row` must be all-[`INF`] on entry; on return it holds `s`'s exact
/// (capped) SSSP row. Publishing it — Alg. 1 line 21, `flag[s] = 1` — is
/// the caller's job, so `rows` never lends an unfinished `s`.
///
/// Optional `intermediate_credit`: incremented at `t` whenever expanding
/// `t`'s edges improved some other vertex — the signal Peng's *adaptive*
/// ordering feeds back into source selection.
#[allow(clippy::too_many_arguments)]
pub fn modified_dijkstra<R: CompletedRows, P: PredSink>(
    graph: &CsrGraph,
    s: u32,
    row: &mut [u32],
    rows: &R,
    ws: &mut Workspace,
    options: KernelOptions,
    counters: &mut Counters,
    mut intermediate_credit: Option<&mut [u64]>,
    pred: &mut P,
) {
    debug_assert_eq!(graph.vertex_count(), row.len());
    debug_assert!(ws.in_queue.none_set(), "dirty workspace");
    row[s as usize] = 0;

    ws.queue.push_back(s);
    if options.dedup_queue {
        ws.in_queue.set(s as usize);
    }

    let cap = options.max_distance.unwrap_or(u32::MAX);
    // Resolve the dispatch once per source, not once per dequeued row.
    let relax = options.relax.resolve();
    let mut tally = Counters {
        sources: 1,
        ..Counters::default()
    };

    while let Some(t) = ws.queue.pop_front() {
        tally.queue_pops += 1;
        if options.dedup_queue {
            ws.in_queue.clear(t as usize);
        }
        let dt = row[t as usize];

        // Alg. 1 lines 6–11: a flagged vertex contributes its whole row.
        if options.row_reuse {
            // Overlap the latency of the *next* reuse candidate with the
            // work on `t`: on dense its row head starts travelling toward
            // the cache now.
            if let Some(&next) = ws.queue.front() {
                rows.prefetch(next);
            }
            if reuse_row(rows, t, dt, row, relax, cap, pred, &mut tally) {
                continue;
            }
        }

        // Alg. 1 lines 12–18: ordinary edge relaxation with enqueue.
        let mut improved_someone = false;
        for (v, w) in graph.out_edges(t) {
            let alt = dt.saturating_add(w);
            if alt < row[v as usize] && alt <= cap {
                row[v as usize] = alt;
                pred.edge(t, v);
                tally.relaxations += 1;
                improved_someone = true;
                if !options.dedup_queue || !ws.in_queue.get(v as usize) {
                    ws.queue.push_back(v);
                    if options.dedup_queue {
                        ws.in_queue.set(v as usize);
                    }
                }
            }
        }
        if improved_someone && t != s {
            if let Some(credit) = intermediate_credit.as_deref_mut() {
                credit[t as usize] += 1;
            }
        }
    }

    counters.merge(&tally);
    // Without the dedup guard the bitmap was never written.
    debug_assert!(ws.in_queue.none_set());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreSpec;
    use crate::subset::SubsetState;
    use parapsp_graph::{CsrGraph, Direction, INF};

    /// The row engines' sequence around the kernel, minus the in-place
    /// borrow: solve row `s` into scratch, then publish it.
    fn solve(
        graph: &CsrGraph,
        s: u32,
        store: &Store,
        ws: &mut Workspace,
        options: KernelOptions,
        counters: &mut Counters,
        credit: Option<&mut [u64]>,
    ) {
        let mut row = vec![INF; store.n()];
        modified_dijkstra(
            graph,
            s,
            &mut row,
            store,
            ws,
            options,
            counters,
            credit,
            &mut NoPred,
        );
        store.publish_from(s, &row);
    }

    fn run_all_sources_on(
        graph: &CsrGraph,
        options: KernelOptions,
        spec: &StoreSpec,
    ) -> crate::DistanceMatrix {
        let n = graph.vertex_count();
        let store = Store::new(n, spec);
        let mut ws = Workspace::new(n);
        let mut counters = Counters::default();
        for s in 0..n as u32 {
            solve(graph, s, &store, &mut ws, options, &mut counters, None);
        }
        assert_eq!(counters.sources, n as u64);
        store.into_matrix()
    }

    fn run_all_sources(graph: &CsrGraph, options: KernelOptions) -> crate::DistanceMatrix {
        run_all_sources_on(graph, options, &StoreSpec::dense())
    }

    #[test]
    fn every_store_backend_is_bit_identical() {
        let g = parapsp_graph::generate::erdos_renyi_gnm(
            70,
            350,
            Direction::Directed,
            parapsp_graph::generate::WeightSpec::Uniform { lo: 1, hi: 9 },
            17,
        )
        .unwrap();
        let dense = run_all_sources(&g, KernelOptions::default());
        let got = run_all_sources_on(&g, KernelOptions::default(), &StoreSpec::mmap(1 << 20));
        assert_eq!(dense.first_difference(&got), None);
    }

    #[test]
    fn weighted_diamond_exact_distances() {
        // 0 -> 1 (2), 0 -> 2 (1), 1 -> 3 (1), 2 -> 3 (5): best 0->3 is 3.
        let g = CsrGraph::from_edges(
            4,
            Direction::Directed,
            &[(0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 5)],
        )
        .unwrap();
        let d = run_all_sources(&g, KernelOptions::default());
        assert_eq!(d.get(0, 3), 3);
        assert_eq!(d.get(0, 2), 1);
        assert_eq!(d.get(3, 0), INF);
        assert_eq!(d.get(2, 2), 0);
    }

    #[test]
    fn unit_weight_path_graph() {
        let g = parapsp_graph::generate::path_graph(6, Direction::Undirected);
        let d = run_all_sources(&g, KernelOptions::default());
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert_eq!(d.get(u, v), u.abs_diff(v));
            }
        }
    }

    #[test]
    fn distance_cap_truncates_exactly() {
        let g = parapsp_graph::generate::path_graph(10, Direction::Undirected);
        let capped = run_all_sources(
            &g,
            KernelOptions {
                max_distance: Some(3),
                ..KernelOptions::default()
            },
        );
        let full = run_all_sources(&g, KernelOptions::default());
        for u in 0..10u32 {
            for v in 0..10u32 {
                let exact = full.get(u, v);
                let expect = if exact <= 3 { exact } else { INF };
                assert_eq!(capped.get(u, v), expect, "({u}, {v})");
            }
        }
    }

    #[test]
    fn distance_cap_is_exact_within_cap_on_weighted_graph() {
        let g = parapsp_graph::generate::erdos_renyi_gnm(
            100,
            500,
            Direction::Directed,
            parapsp_graph::generate::WeightSpec::Uniform { lo: 1, hi: 9 },
            71,
        )
        .unwrap();
        let full = run_all_sources(&g, KernelOptions::default());
        for cap in [0u32, 5, 17, 50] {
            let capped = run_all_sources(
                &g,
                KernelOptions {
                    max_distance: Some(cap),
                    ..KernelOptions::default()
                },
            );
            for u in 0..100u32 {
                for v in 0..100u32 {
                    let exact = full.get(u, v);
                    let expect = if exact <= cap || u == v { exact } else { INF };
                    assert_eq!(capped.get(u, v), expect, "cap {cap} ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn row_reuse_and_plain_spfa_agree_on_every_backend() {
        let g = parapsp_graph::generate::erdos_renyi_gnm(
            80,
            300,
            Direction::Directed,
            parapsp_graph::generate::WeightSpec::Uniform { lo: 1, hi: 20 },
            13,
        )
        .unwrap();
        let reference = run_all_sources(
            &g,
            KernelOptions {
                row_reuse: false,
                ..KernelOptions::default()
            },
        );
        for spec in [StoreSpec::dense(), StoreSpec::mmap(1 << 20)] {
            let with_reuse = run_all_sources_on(&g, KernelOptions::default(), &spec);
            assert_eq!(
                reference.first_difference(&with_reuse),
                None,
                "{} reuse vs plain SPFA",
                spec.label()
            );
            let without = run_all_sources_on(
                &g,
                KernelOptions {
                    row_reuse: false,
                    ..KernelOptions::default()
                },
                &spec,
            );
            assert_eq!(
                reference.first_difference(&without),
                None,
                "{}",
                spec.label()
            );
        }
    }

    #[test]
    fn dedup_toggle_does_not_change_results() {
        let g = parapsp_graph::generate::barabasi_albert(
            120,
            2,
            parapsp_graph::generate::WeightSpec::Unit,
            5,
        )
        .unwrap();
        let a = run_all_sources(&g, KernelOptions::default());
        let b = run_all_sources(
            &g,
            KernelOptions {
                dedup_queue: false,
                ..KernelOptions::default()
            },
        );
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn row_reuse_actually_fires_on_later_sources() {
        let g = parapsp_graph::generate::complete_graph(10);
        let store = Store::new(10, &StoreSpec::dense());
        let mut ws = Workspace::new(10);
        let mut counters = Counters::default();
        for s in 0..10u32 {
            solve(
                &g,
                s,
                &store,
                &mut ws,
                KernelOptions::default(),
                &mut counters,
                None,
            );
        }
        assert!(
            counters.row_reuses > 0,
            "complete graph must trigger row reuse"
        );
        assert_eq!(store.published_count(), 10);
    }

    #[test]
    fn row_reuse_fires_on_mmap_and_stays_exact() {
        // Mmap once fell back to plain edge expansion (row_reuses == 0).
        // Leases must serve reuse there too, with the lease split
        // accounting for every reuse.
        let g = parapsp_graph::generate::complete_graph(12);
        let expect = run_all_sources(&g, KernelOptions::default());
        let store = Store::new(12, &StoreSpec::mmap(1 << 20));
        let mut ws = Workspace::new(12);
        let mut counters = Counters::default();
        for s in 0..12u32 {
            solve(
                &g,
                s,
                &store,
                &mut ws,
                KernelOptions::default(),
                &mut counters,
                None,
            );
        }
        assert!(
            counters.row_reuses > 0,
            "leases must win reuse back on mmap"
        );
        assert_eq!(
            counters.row_reuses,
            counters.lease_hits + counters.lease_misses,
            "every reuse is a lease hit or miss"
        );
        assert_eq!(counters.decode_ahead_hits, 0);
        let got = store.into_matrix();
        assert_eq!(expect.first_difference(&got), None);
    }

    #[test]
    fn relax_impls_agree_bit_for_bit_including_counters() {
        // Hoisting the counter updates and switching implementations must
        // not change a single counter value: same graph, same visit order,
        // same pops / reuses / relaxations for every RelaxImpl.
        let g = parapsp_graph::generate::erdos_renyi_gnm(
            90,
            500,
            Direction::Directed,
            parapsp_graph::generate::WeightSpec::Uniform { lo: 1, hi: 9 },
            29,
        )
        .unwrap();
        let run = |options: KernelOptions| {
            let store = Store::new(90, &StoreSpec::dense());
            let mut ws = Workspace::new(90);
            let mut counters = Counters::default();
            for s in 0..90u32 {
                solve(&g, s, &store, &mut ws, options, &mut counters, None);
            }
            (store.into_matrix(), counters)
        };
        for max_distance in [None, Some(7)] {
            let mut reference: Option<(crate::DistanceMatrix, Counters)> = None;
            for relax in RelaxImpl::ALL {
                let (dist, counters) = run(KernelOptions {
                    relax,
                    max_distance,
                    ..KernelOptions::default()
                });
                match &reference {
                    None => reference = Some((dist, counters)),
                    Some((ref_dist, ref_counters)) => {
                        assert_eq!(
                            ref_dist.first_difference(&dist),
                            None,
                            "{relax:?} cap={max_distance:?} distances"
                        );
                        assert_eq!(
                            *ref_counters, counters,
                            "{relax:?} cap={max_distance:?} counters"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn disconnected_components_stay_infinite() {
        let g = CsrGraph::from_unit_edges(4, Direction::Undirected, &[(0, 1), (2, 3)]).unwrap();
        let d = run_all_sources(&g, KernelOptions::default());
        assert_eq!(d.get(0, 1), 1);
        assert_eq!(d.get(0, 2), INF);
        assert_eq!(d.get(3, 1), INF);
        assert!(d.is_symmetric());
    }

    #[test]
    fn intermediate_credit_counts_hub() {
        // Star graph: every cross-leaf path passes through the hub 0.
        let g = parapsp_graph::generate::star_graph(8);
        let store = Store::new(8, &StoreSpec::dense());
        let mut ws = Workspace::new(8);
        let mut counters = Counters::default();
        let mut credit = vec![0u64; 8];
        // Disable row reuse so edges are always expanded.
        let opts = KernelOptions {
            row_reuse: false,
            ..KernelOptions::default()
        };
        for s in 0..8u32 {
            solve(
                &g,
                s,
                &store,
                &mut ws,
                opts,
                &mut counters,
                Some(&mut credit),
            );
        }
        assert!(credit[0] > 0, "the hub must collect intermediate credit");
        assert!(credit[1..].iter().all(|&c| c == 0), "leaves never relay");
    }

    #[test]
    fn every_completed_row_lookup_runs_the_same_kernel() {
        // One fixed, non-identity source order through the three lookups:
        // the store, the subset slot map over every vertex, and a dist
        // node holding every row locally. Same rows in, same rows and
        // same work out.
        let g = parapsp_graph::generate::erdos_renyi_gnm(
            80,
            400,
            Direction::Directed,
            parapsp_graph::generate::WeightSpec::Uniform { lo: 1, hi: 9 },
            23,
        )
        .unwrap();
        let n = 80usize;
        let order: Vec<u32> = (0..n as u32).map(|i| i * 37 % n as u32).collect();
        let all: Vec<u32> = (0..n as u32).collect();
        for max_distance in [None, Some(7)] {
            let options = KernelOptions {
                max_distance,
                ..KernelOptions::default()
            };
            let store = Store::new(n, &StoreSpec::dense());
            let subset = SubsetState::new(n, &all);
            let mut held = HeldRows::new(n);
            let mut ws = Workspace::new(n);
            let mut counts = [Counters::default(); 3];
            for &s in &order {
                let mut row = vec![INF; n];
                modified_dijkstra(
                    &g,
                    s,
                    &mut row,
                    &store,
                    &mut ws,
                    options,
                    &mut counts[0],
                    None,
                    &mut NoPred,
                );
                store.publish_from(s, &row);

                // SAFETY: slot `s` is unpublished and owned by this loop.
                let slot_row = unsafe { subset.row_mut(s) };
                modified_dijkstra(
                    &g,
                    s,
                    slot_row,
                    &subset,
                    &mut ws,
                    options,
                    &mut counts[1],
                    None,
                    &mut NoPred,
                );
                subset.publish(s);

                let mut held_row = vec![INF; n];
                modified_dijkstra(
                    &g,
                    s,
                    &mut held_row,
                    &held,
                    &mut ws,
                    options,
                    &mut counts[2],
                    None,
                    &mut NoPred,
                );
                let held_row = held.keep_own(s, held_row);

                assert_eq!(held_row, &row[..], "held row {s}, cap {max_distance:?}");
                assert_eq!(
                    subset.published_row_of_vertex(s),
                    Some(&row[..]),
                    "subset row {s}, cap {max_distance:?}"
                );
            }
            let work = |c: &Counters| (c.queue_pops, c.relaxations, c.row_reuses, c.sources);
            assert!(counts[0].row_reuses > 0, "the order must exercise reuse");
            assert_eq!(
                work(&counts[0]),
                work(&counts[1]),
                "subset, cap {max_distance:?}"
            );
            assert_eq!(
                work(&counts[0]),
                work(&counts[2]),
                "held, cap {max_distance:?}"
            );
        }
    }

    #[test]
    fn held_rows_split_own_from_received() {
        let mut held = HeldRows::new(3);
        held.keep_received(0, vec![0, 1, 2]);
        assert!(held.own(0).is_none());
        assert_eq!(held.lease(0).map(|(_, o)| o), Some(LeaseOrigin::CacheMiss));
        held.keep_own(0, vec![0, 1, 1]);
        held.keep_received(0, vec![0, 5, 5]); // never clobbers an own row
        assert_eq!(held.own(0), Some(&[0u32, 1, 1][..]));
        assert_eq!(held.lease(0).map(|(_, o)| o), Some(LeaseOrigin::Lent));
        assert!(held.lease(1).is_none());
    }
}
