//! Pluggable per-source SSSP row solvers (the `RowSolver` seam).
//!
//! The paper's engines all compute one row at a time, and until this
//! module the *how* was hard-wired to the modified Dijkstra in
//! [`crate::kernel`]. The seam here makes the row solver a run-time
//! choice while everything around it — the kernel's `Workspace` scratch, the
//! vectorized row-reuse pass, the distance cap, the Release/Acquire
//! row publication — stays shared:
//!
//! * [`SolverKind::Dijkstra`] — the paper's FIFO label-correcting kernel
//!   (Peng's modified Dijkstra) with the row-reuse trick.
//! * [`SolverKind::Delta`] — classic Δ-stepping (Meyer–Sanders, evaluated
//!   for complex networks by Kranjčević, Palossi & Pintarelli): vertices
//!   bucketed by `⌊tent/Δ⌋`, light edges (`w ≤ Δ`) relaxed to a fixpoint
//!   per bucket, heavy edges once per removed vertex.
//! * [`SolverKind::MsBfs`] — bit-parallel multi-source BFS (Then et al.,
//!   "The More the Merrier", PVLDB 8(4), 2014) for unit-weight graphs:
//!   up to 64 sources share every edge scan through one `u64` lane mask
//!   per vertex, and a vertex's BFS level is its distance in each lane.
//!   It is the one solver that computes a *batch* of rows per call
//!   (`RowSolver::solve_rows`), so it runs only on the static-order
//!   engine: the adaptive engines rank sources by per-row credit, which a
//!   shared scan cannot attribute to one row.
//! * [`SolverKind::Auto`] (the default) — probe the graph in one
//!   O(n + m) pass ([`probe`]) and let [`autotune`] pick the solver and Δ.
//!   Unit-weight graphs — every SNAP graph in the paper — get MS-BFS
//!   (dijkstra on the adaptive engines); dense, wide-weight, unskewed
//!   graphs (Watts–Strogatz-like) get Δ-stepping; everything else stays
//!   on the paper's kernel. Peng's sequential configurations
//!   ([`RunConfig::seq_basic`] and friends) pin [`SolverKind::Dijkstra`]
//!   instead, so the bit-identity reference never changes kernel.
//!
//! [`RunConfig::seq_basic`]: crate::engine::RunConfig::seq_basic
//!
//! Every solver computes *exact* capped SSSP, so all of them are
//! bit-identical on the final matrix (distances are unique); the engine
//! matrix test enforces this per solver × engine × fixture.
//!
//! # Row reuse per solver
//!
//! Reusing a published row means relaxing `D[t][*]` wholesale and
//! *skipping* `t`'s edge expansion, with reuse-improved vertices never
//! re-enqueued. That is sound in any solver (the candidates only
//! over-approximate), but *complete* only under a discipline where a
//! flagged vertex is guaranteed to be re-examined at its final distance
//! (or its final distance came from another complete row — Peng's
//! dominance argument). The FIFO kernel and the Δ-stepping solver keep
//! that discipline: every edge-relaxation improvement re-enqueues /
//! re-buckets the vertex, so its row fires again at the settled
//! distance. Crucially, reuse improvements must **bypass the buckets**:
//! a reused row improves vertices to arbitrary distances far above the
//! current bucket, and inserting those into the cyclic ring would
//! violate its `max_weight/Δ` live-window invariant (two live absolute
//! buckets aliasing one slot loses entries — that is where bucketed
//! relaxation makes naive reuse illegal).
//!
//! Reuse rows are read through the kernel's shared lease → counters →
//! [`relax_row`](crate::relax::relax_row) helper, so the trick fires
//! identically on every store backend: dense lends the row (with a
//! [`Store::prefetch_row`] hint for the next candidate), mmap pins a
//! hot-cache entry for the relaxation pass.
//!
//! MS-BFS reuses no rows: on a unit-weight graph one scan already serves
//! 64 sources, and a level-synchronous search has no settled-distance
//! point at which a published row could be folded in wholesale.

use parapsp_graph::{CsrGraph, INF};
use parapsp_parfor::spec;

use crate::kernel::{modified_dijkstra, reuse_row, KernelOptions, NoPred, Workspace};
use crate::stats::Counters;
use crate::store::Store;

// ---------------------------------------------------------------------------
// SolverKind — the CLI-facing choice
// ---------------------------------------------------------------------------

/// Which per-source SSSP solver computes each row.
///
/// All variants produce bit-identical distances; they differ in how they
/// order relaxations, which is a (graph-class-dependent) performance
/// choice. CLI spellings: `dijkstra`, `delta`, `delta:auto`, `delta:<Δ>`,
/// `msbfs`, `auto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// The paper's modified Dijkstra (FIFO label-correcting + row reuse).
    Dijkstra,
    /// Classic Δ-stepping with light/heavy edge bucketing.
    Delta {
        /// Bucket width; `None` picks Δ from the mean edge weight.
        delta: Option<u32>,
    },
    /// Bit-parallel multi-source BFS, 64 sources per edge scan. Unit
    /// weights only, and only on the static-order engine
    /// ([`SolverKind::check`]).
    MsBfs,
    /// Probe the graph once and pick a concrete solver ([`autotune`]).
    #[default]
    Auto,
}

impl SolverKind {
    /// Every CLI spelling, for self-describing rejection messages.
    pub const POSSIBLE: &'static [&'static str] =
        &["dijkstra", "delta[:<Δ>|:auto]", "msbfs", "auto"];

    /// Stable label: `dijkstra`, `delta:auto`, `delta:<Δ>`, `msbfs`,
    /// `auto`. Round-trips through [`SolverKind::parse`].
    pub fn label(self) -> String {
        match self {
            SolverKind::Dijkstra => "dijkstra".to_owned(),
            SolverKind::Delta { delta: None } => "delta:auto".to_owned(),
            SolverKind::Delta { delta: Some(d) } => format!("delta:{d}"),
            SolverKind::MsBfs => "msbfs".to_owned(),
            SolverKind::Auto => "auto".to_owned(),
        }
    }

    /// Parses a CLI spelling; shares the spec helper (and error style)
    /// with `--schedule` parsing.
    pub fn parse(raw: &str) -> Result<SolverKind, String> {
        let (name, param) = spec::split_spec(raw);
        match name {
            "dijkstra" | "msbfs" | "auto" if param.is_some() => {
                Err(spec::reject_param("solver", name))
            }
            "dijkstra" => Ok(SolverKind::Dijkstra),
            "msbfs" => Ok(SolverKind::MsBfs),
            "auto" => Ok(SolverKind::Auto),
            "delta" => match param {
                None | Some("auto") => Ok(SolverKind::Delta { delta: None }),
                Some(p) => Ok(SolverKind::Delta {
                    delta: Some(spec::parse_positive_param("solver", "delta", Some(p))?),
                }),
            },
            _ => Err(spec::reject_unknown("solver", raw, Self::POSSIBLE)),
        }
    }

    /// Why this solver cannot run on the probed graph, if it cannot.
    /// `per_row_credit` is set for the adaptive engines, which rank
    /// sources by the credit each row earns on its own. Only MS-BFS has
    /// limits: it needs unit weights, and its shared scans earn no
    /// per-row credit.
    pub fn check(self, probe: &GraphProbe, per_row_credit: bool) -> Result<(), String> {
        if self != SolverKind::MsBfs {
            return Ok(());
        }
        if per_row_credit {
            return Err(
                "solver msbfs shares each edge scan among up to 64 sources, so it \
                 cannot credit rows one at a time as the adaptive engines need; \
                 use dijkstra or delta there"
                    .to_owned(),
            );
        }
        if !probe.unit_weights() {
            return Err(format!(
                "solver msbfs is a breadth-first search and needs every edge weight to \
                 be 1, but this graph's weights span {}..{}",
                probe.weight_min, probe.weight_max
            ));
        }
        Ok(())
    }
}

impl std::str::FromStr for SolverKind {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        SolverKind::parse(raw)
    }
}

// ---------------------------------------------------------------------------
// Graph probe + auto-tuner
// ---------------------------------------------------------------------------

/// Cheap structural measurements driving [`autotune`]: one O(n + m)
/// pass over the adjacency, fully deterministic for a fixed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProbe {
    /// Vertex count.
    pub n: usize,
    /// Directed arc count.
    pub m: usize,
    /// Mean out-degree (`m / n`).
    pub density: f64,
    /// Max out-degree over mean out-degree (≈1 regular, large scale-free).
    pub degree_skew: f64,
    /// Smallest edge weight (0 on edgeless graphs).
    pub weight_min: u32,
    /// Largest edge weight (0 on edgeless graphs).
    pub weight_max: u32,
    /// Mean edge weight (0 on edgeless graphs).
    pub weight_mean: f64,
}

impl GraphProbe {
    /// Whether every edge weighs 1 (vacuously true without edges): the
    /// graphs a BFS level solves exactly.
    pub fn unit_weights(&self) -> bool {
        self.m == 0 || (self.weight_min == 1 && self.weight_max == 1)
    }
}

/// Probes `graph` in one pass over its vertices and edge weights.
pub fn probe(graph: &CsrGraph) -> GraphProbe {
    let n = graph.vertex_count();
    let m = graph.arc_count();
    let mut max_deg = 0u32;
    let (mut min, mut max, mut sum) = (u32::MAX, 0u32, 0u64);
    for v in 0..n as u32 {
        max_deg = max_deg.max(graph.out_degree(v));
        for &w in graph.weights(v) {
            min = min.min(w);
            max = max.max(w);
            sum += w as u64;
        }
    }
    let mean_deg = if n == 0 { 0.0 } else { m as f64 / n as f64 };
    let (weight_min, weight_max, weight_mean) = if m == 0 {
        (0, 0, 0.0)
    } else {
        (min, max, sum as f64 / m as f64)
    };
    GraphProbe {
        n,
        m,
        density: mean_deg,
        degree_skew: if mean_deg > 0.0 {
            max_deg as f64 / mean_deg
        } else {
            1.0
        },
        weight_min,
        weight_max,
        weight_mean,
    }
}

/// What [`autotune`] decided, plus the probe it decided from.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoChoice {
    /// A *concrete* solver (never [`SolverKind::Auto`], and Δ is pinned).
    pub solver: SolverKind,
    /// The measurements the choice was derived from.
    pub probe: GraphProbe,
}

impl AutoChoice {
    /// The choice for an engine that credits every row on its own (the
    /// adaptive engines): MS-BFS, whose scans serve many rows at once,
    /// gives way to the paper's kernel.
    pub fn per_row(self) -> AutoChoice {
        match self.solver {
            SolverKind::MsBfs => AutoChoice {
                solver: SolverKind::Dijkstra,
                ..self
            },
            _ => self,
        }
    }
}

/// Δ from the probe: the mean edge weight (≥ 1). The classic guidance is
/// Δ = Θ(mean weight): buckets then hold one expected "hop" of the
/// frontier, so light-edge fixpoints stay short while buckets stay fat
/// enough to batch.
pub fn auto_delta(weight_mean: f64) -> u32 {
    (weight_mean.round() as u32).max(1)
}

/// Picks solver + Δ from one [`probe`] pass.
///
/// The heuristic was fitted to the `solver_scaling` measurements
/// (BENCH_solver.json, discussed in EXPERIMENTS.md and DESIGN.md §12):
///
/// * unit weights (or no edges) → `msbfs`: a BFS level is the distance,
///   and 64 sources per edge scan beat the row-reuse trick on every
///   unit-weight class measured (BENCH_solver.json; hub-dominated graphs
///   most of all, where the FIFO kernel leans hardest on reuse);
/// * other uniform weights → `dijkstra` (the FIFO kernel is BFS-like and
///   the row-reuse trick dominates — the paper's home turf);
/// * strong degree skew (max/mean ≥ 8) → `dijkstra` (hub rows publish
///   early and get reused constantly);
/// * dense (mean out-degree ≥ 6) *and* wide weight range (max/min ≥ 50)
///   → `delta` with Δ = mean weight / 4: the measured Δ-stepping win —
///   on Watts–Strogatz-style regular dense graphs with wide weights the
///   FIFO kernel re-relaxes ~30% more edges than the bucket discipline,
///   and the light/heavy-partitioned adjacency turns that into a
///   1.1–1.2× end-to-end win that grows with n;
/// * otherwise → `dijkstra` (including sparse wide graphs: the FIFO
///   kernel's relaxation count is near-optimal there and its lower
///   per-edge overhead keeps it ahead — measured, not assumed).
pub fn autotune(graph: &CsrGraph) -> AutoChoice {
    let p = probe(graph);
    let uniform = p.weight_min == p.weight_max;
    let skewed = p.degree_skew >= 8.0;
    let dense = p.density >= 6.0;
    let wide = p.weight_max as f64 / p.weight_min.max(1) as f64 >= 50.0;
    let solver = if p.unit_weights() {
        SolverKind::MsBfs
    } else if !uniform && !skewed && dense && wide {
        // Δ-sweeps put the optimum near a quarter of the mean weight on
        // this class (finer buckets than the classic Δ = mean guidance).
        SolverKind::Delta {
            delta: Some((auto_delta(p.weight_mean) / 4).max(1)),
        }
    } else {
        SolverKind::Dijkstra
    };
    AutoChoice { solver, probe: p }
}

// ---------------------------------------------------------------------------
// RowSolver — the resolved, per-run solver
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolved {
    Dijkstra,
    Delta,
    MsBfs,
}

/// Most sources one MS-BFS batch runs: one bit of a `u64` lane mask each.
pub const MSBFS_LANES: usize = 64;

/// Light/heavy adjacency partition for Δ-stepping, built once per run at
/// resolve time: each vertex's edges are reordered light-first (`w ≤ Δ`),
/// so the light fixpoint and the heavy pass each scan one contiguous
/// slice — no per-edge weight test, no double traversal of the full
/// adjacency list (which is what made the naive formulation lose ~2× in
/// edge throughput to the FIFO kernel).
#[derive(Debug, Clone)]
struct LightHeavy {
    targets: Vec<u32>,
    weights: Vec<u32>,
    /// `n + 1` prefix offsets (CSR shape) into `targets`/`weights`.
    offsets: Vec<u32>,
    /// Per-vertex split: edges before it are light, from it on heavy.
    light_end: Vec<u32>,
}

impl LightHeavy {
    fn build(graph: &CsrGraph, delta: u32) -> LightHeavy {
        let n = graph.vertex_count();
        let m = graph.arc_count();
        let mut targets = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut light_end = Vec::with_capacity(n);
        offsets.push(0);
        for v in 0..n as u32 {
            for (u, w) in graph.out_edges(v) {
                if w <= delta {
                    targets.push(u);
                    weights.push(w);
                }
            }
            light_end.push(targets.len() as u32);
            for (u, w) in graph.out_edges(v) {
                if w > delta {
                    targets.push(u);
                    weights.push(w);
                }
            }
            offsets.push(targets.len() as u32);
        }
        LightHeavy {
            targets,
            weights,
            offsets,
            light_end,
        }
    }

    #[inline]
    fn light(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.light_end[v as usize] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    #[inline]
    fn heavy(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.light_end[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }
}

/// A [`SolverKind`] resolved against one graph: `Auto` collapsed to a
/// concrete solver, Δ pinned, the cyclic-ring width precomputed from the
/// maximum edge weight, and (for Δ-stepping) the adjacency re-laid-out
/// into its light/heavy partition. Resolution happens once per run
/// (engine `prepare`); `solve_row` is then allocation-free per source.
#[derive(Debug, Clone)]
pub(crate) struct RowSolver {
    kind: Resolved,
    delta: u32,
    ring: usize,
    partition: Option<LightHeavy>,
}

impl RowSolver {
    /// Resolves `options.solver` for `graph`. `auto`, `delta` and
    /// `msbfs` read one [`probe`] pass: the tuner decides from it,
    /// Δ-stepping sizes its ring from the same pass's weight range, and
    /// MS-BFS is checked against it. `per_row_credit` is set by the
    /// adaptive engines, for which `auto` never picks MS-BFS.
    ///
    /// # Panics
    ///
    /// Panics with the [`SolverKind::check`] message when `msbfs` is asked
    /// for on a graph that is not unit-weight or with `per_row_credit`.
    pub(crate) fn resolve(
        graph: &CsrGraph,
        options: KernelOptions,
        per_row_credit: bool,
    ) -> RowSolver {
        let probed = match options.solver {
            SolverKind::Dijkstra => None,
            SolverKind::Auto => {
                let choice = autotune(graph);
                let choice = if per_row_credit {
                    choice.per_row()
                } else {
                    choice
                };
                Some((choice.solver, choice.probe))
            }
            kind => Some((kind, probe(graph))),
        };
        match probed {
            Some((SolverKind::Delta { delta }, p)) => {
                let delta = delta.unwrap_or_else(|| auto_delta(p.weight_mean)).max(1);
                RowSolver {
                    kind: Resolved::Delta,
                    delta,
                    ring: (p.weight_max as u64).div_ceil(delta as u64) as usize + 2,
                    partition: Some(LightHeavy::build(graph, delta)),
                }
            }
            Some((SolverKind::MsBfs, p)) => {
                if let Err(err) = SolverKind::MsBfs.check(&p, per_row_credit) {
                    panic!("{err}");
                }
                RowSolver {
                    kind: Resolved::MsBfs,
                    delta: 1,
                    ring: 1,
                    partition: None,
                }
            }
            _ => RowSolver {
                kind: Resolved::Dijkstra,
                delta: 1,
                ring: 1,
                partition: None,
            },
        }
    }

    /// How many sources one [`RowSolver::solve_rows`] call of a
    /// `len`-source sweep on `threads` threads should take: 1 for the
    /// per-row solvers; for MS-BFS up to [`MSBFS_LANES`], but no more
    /// than an even share per thread, so a short sweep (a ledger batch)
    /// still keeps every thread busy.
    pub(crate) fn batch_width(&self, len: usize, threads: usize) -> usize {
        match self.kind {
            Resolved::MsBfs => len.div_ceil(threads.max(1)).clamp(1, MSBFS_LANES),
            Resolved::Dijkstra | Resolved::Delta => 1,
        }
    }

    /// Computes and publishes the rows of `sources` (at most
    /// [`RowSolver::batch_width`] of them): one MS-BFS over all of them,
    /// or one [`RowSolver::solve_row`] each for the per-row solvers.
    ///
    /// The caller must be the unique task running every source in
    /// `sources`, as for [`RowSolver::solve_row`].
    pub(crate) fn solve_rows(
        &self,
        graph: &CsrGraph,
        sources: &[u32],
        store: &Store,
        ws: &mut Workspace,
        options: KernelOptions,
        counters: &mut Counters,
    ) {
        match self.kind {
            Resolved::MsBfs => msbfs_rows(graph, sources, store, ws, options, counters),
            Resolved::Dijkstra | Resolved::Delta => {
                for &s in sources {
                    self.solve_row(graph, s, store, ws, options, counters, None);
                }
            }
        }
    }

    /// Computes row `s` of `store` and publishes it (Alg. 1 line 21).
    ///
    /// The caller must be the unique task running source `s` (see
    /// [`Store::try_row_mut`]); every APSP driver in this crate iterates a
    /// permutation of the sources, which provides that guarantee. On
    /// backends that lend rows the solve happens in place; otherwise it is
    /// staged in `ws.row_buf` and handed over via [`Store::publish_from`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_row(
        &self,
        graph: &CsrGraph,
        s: u32,
        store: &Store,
        ws: &mut Workspace,
        options: KernelOptions,
        counters: &mut Counters,
        credit: Option<&mut [u64]>,
    ) {
        let mut staged = None;
        // SAFETY: the caller guarantees unique ownership of unpublished
        // row `s`; the borrow ends before publication below.
        let row = match unsafe { store.try_row_mut(s) } {
            Some(row) => row,
            None => {
                let buf = staged.insert(std::mem::take(&mut ws.row_buf));
                buf.fill(INF);
                buf.as_mut_slice()
            }
        };
        match self.kind {
            Resolved::Dijkstra => modified_dijkstra(
                graph,
                s,
                row,
                store,
                ws,
                options,
                counters,
                credit,
                &mut NoPred,
            ),
            Resolved::Delta => delta_row(self, graph, s, row, store, ws, options, counters, credit),
            Resolved::MsBfs => unreachable!("MS-BFS rows are solved in batches by solve_rows"),
        }
        // Alg. 1 line 21: flag[s] = 1.
        match staged {
            Some(row) => {
                store.publish_from(s, &row);
                ws.row_buf = row;
            }
            None => store.publish(s),
        }
    }
}

// ---------------------------------------------------------------------------
// Δ-stepping
// ---------------------------------------------------------------------------

/// Classic Δ-stepping from source `s`.
///
/// Buckets partition tentative distances into width-Δ ranges. The
/// current bucket is drained to a fixpoint over *light* edges (`w ≤ Δ`,
/// which can re-insert into the same bucket), then every removed vertex
/// relaxes its *heavy* edges once (`w > Δ`, which always lands in a
/// later bucket). Both passes scan contiguous slices of the
/// [`LightHeavy`] partition built at resolve time — no per-edge weight
/// test. Entries are lazily deleted: an improvement pushes a fresh
/// entry and the stale one is dropped at drain time when `tent/Δ` no
/// longer matches the drained bucket.
///
/// Row reuse (when `options.row_reuse`): a drained, non-stale vertex
/// with a published row relaxes the whole row at its current tentative
/// distance instead of expanding edges, and is excluded from the heavy
/// phase. Reuse improvements bypass the buckets (Peng's no-re-enqueue
/// rule — also what keeps the cyclic ring's live window intact); the
/// discipline stays complete because any *edge* improvement of the
/// reused vertex re-buckets it, firing the row again at the settled
/// distance, and purely-reuse-set distances are dominated by the row
/// that set them.
#[allow(clippy::too_many_arguments)]
fn delta_row(
    solver: &RowSolver,
    graph: &CsrGraph,
    s: u32,
    row: &mut [u32],
    store: &Store,
    ws: &mut Workspace,
    options: KernelOptions,
    counters: &mut Counters,
    mut credit: Option<&mut [u64]>,
) {
    debug_assert_eq!(graph.vertex_count(), row.len());
    let delta = solver.delta as u64;
    let part = solver
        .partition
        .as_ref()
        .expect("delta resolved with a light/heavy partition");
    row[s as usize] = 0;

    let cap = options.max_distance.unwrap_or(u32::MAX);
    let relax = options.relax.resolve();
    let mut tally = Counters {
        sources: 1,
        ..Counters::default()
    };

    ws.buckets.reset(solver.ring);
    ws.buckets.push(0, s);
    let mut cur: u64 = 0;

    while ws.buckets.live() > 0 {
        // All live entries sit within `ring` absolute buckets of `cur`,
        // so the next non-empty slot is found in at most `ring` steps.
        let mut b = cur;
        for k in 0..solver.ring as u64 {
            if !ws.buckets.slot_is_empty(cur + k) {
                b = cur + k;
                break;
            }
        }
        debug_assert!(!ws.buckets.slot_is_empty(b), "live() > 0 but no slot found");

        // Light phase: drain bucket b to a fixpoint.
        debug_assert!(ws.removed.is_empty());
        while !ws.buckets.slot_is_empty(b) {
            ws.scratch.clear();
            ws.buckets.drain_into(b, &mut ws.scratch);
            // `scratch` is disjoint from `ws.buckets`/`ws.removed`, so the
            // pushes below never alias the list being iterated.
            for i in 0..ws.scratch.len() {
                let v = ws.scratch[i];
                let dv = row[v as usize];
                if dv as u64 / delta != b {
                    continue; // stale entry: a fresher one exists or it settled
                }
                tally.queue_pops += 1;
                if options.row_reuse {
                    // Prefetch the next drained entry's row, mirroring
                    // the FIFO kernel's queue-front prefetch.
                    if let Some(&next) = ws.scratch.get(i + 1) {
                        store.prefetch_row(next);
                    }
                    // The row covers light *and* heavy continuations.
                    if reuse_row(store, v, dv, row, relax, cap, &mut NoPred, &mut tally) {
                        continue;
                    }
                }
                if !ws.in_removed.get(v as usize) {
                    ws.in_removed.set(v as usize);
                    ws.removed.push(v);
                }
                let mut improved_someone = false;
                for (u, w) in part.light(v) {
                    let alt = dv.saturating_add(w);
                    if alt < row[u as usize] && alt <= cap {
                        row[u as usize] = alt;
                        tally.relaxations += 1;
                        improved_someone = true;
                        ws.buckets.push(alt as u64 / delta, u);
                    }
                }
                if improved_someone && v != s {
                    if let Some(credit) = credit.as_deref_mut() {
                        credit[v as usize] += 1;
                    }
                }
            }
        }

        // Heavy phase: every vertex settled in bucket b expands its
        // heavy edges once, at its (now final within the bucket) tent.
        for i in 0..ws.removed.len() {
            let v = ws.removed[i];
            let dv = row[v as usize];
            let mut improved_someone = false;
            for (u, w) in part.heavy(v) {
                let alt = dv.saturating_add(w);
                if alt < row[u as usize] && alt <= cap {
                    row[u as usize] = alt;
                    tally.relaxations += 1;
                    improved_someone = true;
                    ws.buckets.push(alt as u64 / delta, u);
                }
            }
            if improved_someone && v != s {
                if let Some(credit) = credit.as_deref_mut() {
                    credit[v as usize] += 1;
                }
            }
        }
        for i in 0..ws.removed.len() {
            ws.in_removed.clear(ws.removed[i] as usize);
        }
        ws.removed.clear();
        cur = b + 1;
    }
    counters.merge(&tally);
}

// ---------------------------------------------------------------------------
// Multi-source BFS
// ---------------------------------------------------------------------------

/// Per-thread scratch of [`msbfs_into`], part of the kernel [`Workspace`].
/// Empty until the first MS-BFS batch, so runs on the other solvers
/// never allocate it.
#[derive(Debug, Default)]
pub(crate) struct MsBfsScratch {
    /// Lanes that have reached each vertex.
    seen: Vec<u64>,
    /// Lanes for which each vertex is on the current level's frontier.
    visit: Vec<u64>,
    /// Lanes that reach each vertex first on the next level.
    next: Vec<u64>,
    /// One bit per vertex with a nonzero `next` mask.
    touched: Vec<u64>,
    /// Vertices with a nonzero `visit` mask, in increasing order.
    frontier: Vec<u32>,
    /// Lanes × n staging rows for stores that lend no rows.
    block: Vec<u32>,
}

/// Bit-parallel multi-source BFS (Then et al., "The More the Merrier"):
/// writes the rows of up to [`MSBFS_LANES`] `sources` on a unit-weight
/// graph into `rows` (`rows[i]` is the row of `sources[i]`), one lane of
/// a `u64` mask per source. Every row must hold [`INF`] on entry; the
/// search writes only the vertices its lane reaches within the cap.
///
/// Level by level, every frontier vertex `v` offers its `visit[v]` lanes
/// to each out-neighbour `u`; the lanes not yet in `seen[u]` reach `u` at
/// this level, which is their distance to `u`. One scan of `v`'s edges
/// thus advances every lane that has `v` on its frontier. The reached
/// vertices are then walked in increasing order through a bitmap, so
/// each lane's row is written front to back and the next frontier comes
/// out sorted. The search stops when no lane advances or the next level
/// would pass the cap.
///
/// This is the one MS-BFS loop: the store engines reach it through
/// `RowSolver::solve_rows`, and a `parapsp-dist` node calls it on rows
/// it keeps itself. `counters` gains one source per lane, one queue pop
/// per frontier vertex per level, and one relaxation per (vertex, lane)
/// reached.
///
/// # Panics
///
/// Panics when `sources` holds more than [`MSBFS_LANES`] sources or
/// `rows` does not hold one `n`-cell row per source.
pub fn msbfs_into(
    graph: &CsrGraph,
    sources: &[u32],
    rows: &mut [&mut [u32]],
    ws: &mut Workspace,
    options: KernelOptions,
    counters: &mut Counters,
) {
    let n = graph.vertex_count();
    let lanes = sources.len();
    assert!(
        lanes <= MSBFS_LANES,
        "an MS-BFS batch holds at most 64 sources"
    );
    assert!(
        rows.len() == lanes && rows.iter().all(|row| row.len() == n),
        "an MS-BFS batch needs one {n}-cell row per source"
    );
    let cap = options.max_distance.unwrap_or(u32::MAX);
    let MsBfsScratch {
        seen,
        visit,
        next,
        touched,
        frontier,
        ..
    } = &mut ws.msbfs;
    // `visit` may hold a capped search's last frontier; `next` and
    // `touched` are always left clear.
    seen.clear();
    seen.resize(n, 0);
    visit.clear();
    visit.resize(n, 0);
    next.resize(n, 0);
    touched.resize(n.div_ceil(64), 0);

    let mut tally = Counters {
        sources: lanes as u64,
        ..Counters::default()
    };
    frontier.clear();
    for (lane, &s) in sources.iter().enumerate() {
        let bit = 1u64 << lane;
        seen[s as usize] |= bit;
        visit[s as usize] |= bit;
        rows[lane][s as usize] = 0;
        frontier.push(s);
    }
    frontier.sort_unstable();

    let mut level = 0u32;
    while !frontier.is_empty() && level < cap {
        level += 1;
        for &v in frontier.iter() {
            let lanes_at_v = std::mem::take(&mut visit[v as usize]);
            tally.queue_pops += 1;
            for &u in graph.neighbors(v) {
                let fresh = lanes_at_v & !seen[u as usize];
                if fresh != 0 {
                    next[u as usize] |= fresh;
                    seen[u as usize] |= fresh;
                    touched[u as usize / 64] |= 1 << (u % 64);
                }
            }
        }
        frontier.clear();
        for (word, bits) in touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let u = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut reached = std::mem::take(&mut next[u]);
                visit[u] = reached;
                frontier.push(u as u32);
                tally.relaxations += reached.count_ones() as u64;
                while reached != 0 {
                    rows[reached.trailing_zeros() as usize][u] = level;
                    reached &= reached - 1;
                }
            }
        }
    }
    counters.merge(&tally);
}

/// [`msbfs_into`] on the rows of `store`: a lending store (dense) takes
/// the search in place, through one [`Store::try_row_mut`] per source;
/// otherwise the rows are staged in the workspace block and handed over
/// with [`Store::publish_from`]. Every row is published once the search
/// ends.
fn msbfs_rows(
    graph: &CsrGraph,
    sources: &[u32],
    store: &Store,
    ws: &mut Workspace,
    options: KernelOptions,
    counters: &mut Counters,
) {
    let n = graph.vertex_count();
    let lanes = sources.len();
    assert!(
        lanes <= MSBFS_LANES,
        "an MS-BFS batch holds at most 64 sources"
    );
    // The block leaves the workspace for the search and comes back after,
    // so a staged batch still reuses its allocation.
    let mut block = std::mem::take(&mut ws.msbfs.block);
    let mut staged = false;
    {
        let mut rows: [&mut [u32]; MSBFS_LANES] = std::array::from_fn(|_| <&mut [u32]>::default());
        for (lane, &s) in sources.iter().enumerate() {
            // SAFETY: the caller owns every row of `sources` until it is
            // published below, after this borrow ends.
            match unsafe { store.try_row_mut(s) } {
                Some(row) => rows[lane] = row,
                None => {
                    staged = true;
                    break;
                }
            }
        }
        if staged {
            block.clear();
            block.resize(lanes * n, INF);
            for (lane, row) in block.chunks_exact_mut(n.max(1)).enumerate() {
                rows[lane] = row;
            }
        }
        msbfs_into(graph, sources, &mut rows[..lanes], ws, options, counters);
    }

    for (lane, &s) in sources.iter().enumerate() {
        if staged {
            store.publish_from(s, &block[lane * n..(lane + 1) * n]);
        } else {
            store.publish(s);
        }
    }
    ws.msbfs.block = block;
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::generate::{
        barabasi_albert, erdos_renyi_gnm, path_graph, star_graph, WeightSpec,
    };
    use parapsp_graph::{CsrGraph, Direction, INF};

    fn fixtures() -> Vec<(&'static str, CsrGraph)> {
        vec![
            (
                "er-wide",
                erdos_renyi_gnm(
                    48,
                    200,
                    Direction::Directed,
                    WeightSpec::Uniform { lo: 1, hi: 100 },
                    7,
                )
                .unwrap(),
            ),
            (
                "ba",
                barabasi_albert(56, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 21).unwrap(),
            ),
            ("path", path_graph(9, Direction::Directed)),
            ("star", star_graph(30)),
        ]
    }

    fn all_solver_kinds() -> Vec<SolverKind> {
        vec![
            SolverKind::Dijkstra,
            SolverKind::Delta { delta: None },
            SolverKind::Delta { delta: Some(3) },
            SolverKind::Auto,
        ]
    }

    /// Full APSP sweep with the resolved solver, outside any engine.
    fn sweep_on(
        graph: &CsrGraph,
        options: KernelOptions,
        spec: &crate::store::StoreSpec,
    ) -> crate::DistanceMatrix {
        let n = graph.vertex_count();
        let solver = RowSolver::resolve(graph, options, false);
        let store = Store::new(n, spec);
        let mut ws = Workspace::new(n);
        let mut counters = Counters::default();
        let sources: Vec<u32> = (0..n as u32).collect();
        for batch in sources.chunks(solver.batch_width(n, 1)) {
            solver.solve_rows(graph, batch, &store, &mut ws, options, &mut counters);
        }
        assert_eq!(counters.sources, n as u64);
        store.into_matrix()
    }

    fn sweep(graph: &CsrGraph, options: KernelOptions) -> crate::DistanceMatrix {
        sweep_on(graph, options, &crate::store::StoreSpec::dense())
    }

    #[test]
    fn every_solver_is_bit_identical_on_every_store_backend() {
        use crate::store::StoreSpec;
        for (name, graph) in fixtures() {
            let reference = sweep(&graph, KernelOptions::default());
            for kind in all_solver_kinds() {
                let options = KernelOptions {
                    solver: kind,
                    ..KernelOptions::default()
                };
                let got = sweep_on(&graph, options, &StoreSpec::mmap(1 << 20));
                assert_eq!(
                    got,
                    reference,
                    "{name}: solver {} on the mmap store diverged",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn parse_accepts_every_cli_spelling() {
        assert_eq!("dijkstra".parse(), Ok(SolverKind::Dijkstra));
        assert_eq!("delta".parse(), Ok(SolverKind::Delta { delta: None }));
        assert_eq!("delta:auto".parse(), Ok(SolverKind::Delta { delta: None }));
        assert_eq!(
            "delta:12".parse(),
            Ok(SolverKind::Delta { delta: Some(12) })
        );
        assert_eq!("msbfs".parse(), Ok(SolverKind::MsBfs));
        assert_eq!("auto".parse(), Ok(SolverKind::Auto));
    }

    #[test]
    fn parse_rejects_malformed_specs_with_possible_values() {
        for bad in [
            "",
            "djkstra",
            "delta:0",
            "delta:wide",
            "stepping",
            "auto:1",
            "msbfs:64",
        ] {
            let err = bad.parse::<SolverKind>().unwrap_err();
            assert!(err.contains("solver"), "{bad}: {err}");
        }
        let err = "warp".parse::<SolverKind>().unwrap_err();
        assert!(
            err.contains("possible values") && err.contains("delta"),
            "{err}"
        );
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for kind in all_solver_kinds().into_iter().chain([SolverKind::MsBfs]) {
            assert_eq!(kind.label().parse(), Ok(kind), "{}", kind.label());
        }
    }

    #[test]
    fn every_solver_is_bit_identical_to_the_kernel() {
        for (name, graph) in fixtures() {
            let reference = sweep(&graph, KernelOptions::default());
            for kind in all_solver_kinds() {
                for row_reuse in [true, false] {
                    let options = KernelOptions {
                        solver: kind,
                        row_reuse,
                        ..KernelOptions::default()
                    };
                    let got = sweep(&graph, options);
                    assert_eq!(
                        got,
                        reference,
                        "{name}: solver {} (reuse={row_reuse}) diverged",
                        kind.label()
                    );
                }
            }
        }
    }

    #[test]
    fn every_solver_is_exact_under_a_distance_cap() {
        for (name, graph) in fixtures() {
            let full = sweep(&graph, KernelOptions::default());
            let n = graph.vertex_count();
            for cap in [0u32, 3, 17] {
                let options = KernelOptions {
                    max_distance: Some(cap),
                    ..KernelOptions::default()
                };
                for kind in all_solver_kinds() {
                    let got = sweep(
                        &graph,
                        KernelOptions {
                            solver: kind,
                            ..options
                        },
                    );
                    for u in 0..n as u32 {
                        for v in 0..n as u32 {
                            let want = match full.get(u, v) {
                                d if d <= cap => d,
                                _ => INF,
                            };
                            assert_eq!(
                                got.get(u, v),
                                want,
                                "{name}: solver {} cap {cap} at ({u},{v})",
                                kind.label()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cap_boundary_is_inclusive_at_exactly_cap_for_every_solver() {
        // 0 →2→ 1 →3→ 2 →4→ 3: d(0,3) = 9 exactly. A cap of 9 must keep
        // it; a cap of 8 must drop it but keep d(0,2) = 5.
        let g = CsrGraph::from_edges(4, Direction::Directed, &[(0, 1, 2), (1, 2, 3), (2, 3, 4)])
            .unwrap();
        for kind in all_solver_kinds() {
            let at = |cap: u32| {
                sweep(
                    &g,
                    KernelOptions {
                        solver: kind,
                        max_distance: Some(cap),
                        ..KernelOptions::default()
                    },
                )
            };
            let inclusive = at(9);
            assert_eq!(inclusive.get(0, 3), 9, "solver {}", kind.label());
            let exclusive = at(8);
            assert_eq!(exclusive.get(0, 3), INF, "solver {}", kind.label());
            assert_eq!(exclusive.get(0, 2), 5, "solver {}", kind.label());
        }
    }

    #[test]
    fn delta_of_zero_is_clamped_not_fatal() {
        let g = path_graph(6, Direction::Undirected);
        let reference = sweep(&g, KernelOptions::default());
        let got = sweep(
            &g,
            KernelOptions {
                solver: SolverKind::Delta { delta: Some(0) },
                ..KernelOptions::default()
            },
        );
        assert_eq!(got, reference);
    }

    #[test]
    fn probe_is_deterministic_and_sane() {
        for (name, graph) in fixtures() {
            let a = probe(&graph);
            let b = probe(&graph);
            assert_eq!(a, b, "{name}: probe must be deterministic");
            assert_eq!(a.n, graph.vertex_count());
            assert_eq!(a.m, graph.arc_count());
            assert!(a.weight_min <= a.weight_max, "{name}");
        }
        // Known values on an undirected path: 2(n - 1) arcs, unit weights,
        // inner vertices of degree 2 over a mean of 16/9.
        let p = probe(&path_graph(9, Direction::Undirected));
        assert_eq!((p.n, p.m), (9, 16));
        assert_eq!((p.weight_min, p.weight_max, p.weight_mean), (1, 1, 1.0));
        assert_eq!(p.degree_skew, 2.0 / (16.0 / 9.0));
    }

    #[test]
    fn autotune_always_picks_a_concrete_solver() {
        for (name, graph) in fixtures() {
            let choice = autotune(&graph);
            assert_ne!(choice.solver, SolverKind::Auto, "{name}");
            if let SolverKind::Delta { delta } = choice.solver {
                assert!(delta.is_some(), "{name}: auto must pin a concrete Δ");
            }
        }
        // Unit weights — and no edges at all — go to the multi-source BFS,
        // hub-dominated or not.
        let unit = autotune(&path_graph(16, Direction::Undirected));
        assert_eq!(unit.solver, SolverKind::MsBfs);
        assert_eq!(autotune(&star_graph(64)).solver, SolverKind::MsBfs);
        let edgeless = CsrGraph::from_edges(5, Direction::Directed, &[]).unwrap();
        assert_eq!(autotune(&edgeless).solver, SolverKind::MsBfs);
        // Uniform weights other than 1 keep the paper's kernel.
        let threes = parapsp_graph::generate::watts_strogatz(
            300,
            8,
            0.2,
            WeightSpec::Uniform { lo: 3, hi: 3 },
            3,
        )
        .unwrap();
        assert_eq!(autotune(&threes).solver, SolverKind::Dijkstra);
        // A weighted hub-and-spoke graph is maximally degree-skewed.
        let hub = CsrGraph::from_edges(
            64,
            Direction::Undirected,
            &(1..64).map(|v| (0, v, 1 + v % 50)).collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(autotune(&hub).solver, SolverKind::Dijkstra);
        // Dense + regular + wide weight range is the measured Δ-stepping
        // win (Watts–Strogatz-style graphs).
        let dense_wide = autotune(
            &parapsp_graph::generate::watts_strogatz(
                300,
                8,
                0.2,
                WeightSpec::Uniform { lo: 1, hi: 1000 },
                3,
            )
            .unwrap(),
        );
        assert!(
            matches!(dense_wide.solver, SolverKind::Delta { delta: Some(d) } if d >= 1),
            "expected delta, got {}",
            dense_wide.solver.label()
        );
        // Sparse wide graphs stay on the kernel: measured, the FIFO
        // relaxation count is near-optimal there.
        let sparse_wide = autotune(
            &erdos_renyi_gnm(
                300,
                450,
                Direction::Directed,
                WeightSpec::Uniform { lo: 1, hi: 1000 },
                3,
            )
            .unwrap(),
        );
        assert_eq!(sparse_wide.solver, SolverKind::Dijkstra);
    }

    #[test]
    fn default_parallel_configs_resolve_to_delta_and_seq_configs_keep_the_kernel() {
        use crate::engine::RunConfig;
        // engine_matrix's `watts-strogatz-wide` fixture: its default-config
        // rows must run the Δ-stepping path that users now get by default.
        let ws_wide = parapsp_graph::generate::watts_strogatz(
            64,
            8,
            0.2,
            WeightSpec::Uniform { lo: 1, hi: 1000 },
            44,
        )
        .unwrap();
        for config in [
            RunConfig::par_apsp(2),
            RunConfig::par_alg1(2),
            RunConfig::par_alg2(2),
        ] {
            assert_eq!(config.kernel().solver, SolverKind::Auto);
            let resolved = RowSolver::resolve(&ws_wide, config.kernel(), false);
            assert_eq!(resolved.kind, Resolved::Delta, "{:?}", config.label());
        }
        for config in [
            RunConfig::seq_basic(),
            RunConfig::seq_optimized(1.0),
            RunConfig::seq_optimized_bucket(),
            RunConfig::seq_adaptive(10),
        ] {
            assert_eq!(config.kernel().solver, SolverKind::Dijkstra);
            let resolved = RowSolver::resolve(&ws_wide, config.kernel(), false);
            assert_eq!(resolved.kind, Resolved::Dijkstra, "{:?}", config.label());
        }
    }

    /// Unit-weight graphs for the MS-BFS tests: directed and undirected,
    /// disconnected, and one with more sources than a batch has lanes.
    fn unit_fixtures() -> Vec<(&'static str, CsrGraph)> {
        vec![
            (
                "er-directed",
                erdos_renyi_gnm(70, 150, Direction::Directed, WeightSpec::Unit, 9).unwrap(),
            ),
            ("ba", barabasi_albert(130, 2, WeightSpec::Unit, 4).unwrap()),
            ("path", path_graph(9, Direction::Directed)),
            ("star", star_graph(30)),
            (
                "disconnected",
                CsrGraph::from_edges(6, Direction::Undirected, &[(0, 1, 1), (3, 4, 1)]).unwrap(),
            ),
            (
                "edgeless",
                CsrGraph::from_edges(3, Direction::Directed, &[]).unwrap(),
            ),
        ]
    }

    /// MS-BFS against the kernel at batch widths that leave the last batch
    /// partial (and one source per batch), on both store tiers, capped
    /// and uncapped.
    #[test]
    fn msbfs_is_bit_identical_at_every_batch_width_and_cap() {
        use crate::store::StoreSpec;
        for (name, graph) in unit_fixtures() {
            let n = graph.vertex_count();
            for cap in [None, Some(0), Some(2)] {
                let reference = sweep(
                    &graph,
                    KernelOptions {
                        max_distance: cap,
                        ..KernelOptions::default()
                    },
                );
                let options = KernelOptions {
                    solver: SolverKind::MsBfs,
                    max_distance: cap,
                    ..KernelOptions::default()
                };
                let solver = RowSolver::resolve(&graph, options, false);
                assert_eq!(solver.kind, Resolved::MsBfs);
                for spec in [StoreSpec::dense(), StoreSpec::mmap(1 << 20)] {
                    for width in [1, 7, 64] {
                        let store = Store::new(n, &spec);
                        let mut ws = Workspace::new(n);
                        let mut counters = Counters::default();
                        let sources: Vec<u32> = (0..n as u32).rev().collect();
                        for batch in sources.chunks(width) {
                            solver.solve_rows(
                                &graph,
                                batch,
                                &store,
                                &mut ws,
                                options,
                                &mut counters,
                            );
                        }
                        assert_eq!(counters.sources, n as u64);
                        assert_eq!(counters.row_reuses, 0);
                        assert_eq!(
                            store.into_matrix(),
                            reference,
                            "{name}: cap {cap:?} width {width} on {}",
                            spec.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn msbfs_batch_width_splits_short_sweeps_across_threads() {
        let graph = path_graph(4, Direction::Directed);
        let msbfs = KernelOptions {
            solver: SolverKind::MsBfs,
            ..KernelOptions::default()
        };
        let solver = RowSolver::resolve(&graph, msbfs, false);
        assert_eq!(solver.batch_width(8000, 2), 64);
        assert_eq!(solver.batch_width(64, 2), 32);
        assert_eq!(solver.batch_width(7, 2), 4);
        assert_eq!(solver.batch_width(1, 4), 1);
        let dijkstra = KernelOptions {
            solver: SolverKind::Dijkstra,
            ..KernelOptions::default()
        };
        let kernel = RowSolver::resolve(&graph, dijkstra, false);
        assert_eq!(kernel.batch_width(8000, 2), 1);
    }

    #[test]
    fn auto_resolves_per_row_engines_to_the_kernel_on_unit_weights() {
        let graph = star_graph(20);
        let auto = KernelOptions::default();
        assert_eq!(
            RowSolver::resolve(&graph, auto, false).kind,
            Resolved::MsBfs
        );
        assert_eq!(
            RowSolver::resolve(&graph, auto, true).kind,
            Resolved::Dijkstra
        );
        assert_eq!(autotune(&graph).per_row().solver, SolverKind::Dijkstra);
    }

    #[test]
    #[should_panic(expected = "needs every edge weight to be 1")]
    fn msbfs_on_a_weighted_graph_is_refused() {
        let graph = path_graph(3, Direction::Directed);
        let weighted = CsrGraph::from_edges(3, Direction::Directed, &[(0, 1, 2)]).unwrap();
        let options = KernelOptions {
            solver: SolverKind::MsBfs,
            ..KernelOptions::default()
        };
        let _ = RowSolver::resolve(&graph, options, false);
        let _ = RowSolver::resolve(&weighted, options, false);
    }

    #[test]
    #[should_panic(expected = "cannot credit rows one at a time")]
    fn msbfs_on_a_per_row_credit_engine_is_refused() {
        let options = KernelOptions {
            solver: SolverKind::MsBfs,
            ..KernelOptions::default()
        };
        let _ = RowSolver::resolve(&star_graph(5), options, true);
    }

    #[test]
    fn bucket_ring_push_drain_and_reset_retain_capacity() {
        let mut ring = crate::kernel::BucketRing::new();
        ring.reset(4);
        ring.push(0, 10);
        ring.push(5, 11); // wraps onto slot 1
        ring.push(1, 12);
        assert_eq!(ring.live(), 3);
        assert!(!ring.slot_is_empty(5));
        let mut out = Vec::new();
        ring.drain_into(5, &mut out);
        // Slot 5 % 4 == slot 1: both entries come out together (lazy
        // deletion sorts out staleness at the consumer).
        assert_eq!(out, vec![11, 12]);
        assert_eq!(ring.live(), 1);
        ring.reset(4);
        assert_eq!(ring.live(), 0);
        assert!(ring.slot_is_empty(0));
    }

    #[test]
    fn steady_state_rows_allocate_nothing() {
        let graph = erdos_renyi_gnm(
            40,
            160,
            Direction::Directed,
            WeightSpec::Uniform { lo: 1, hi: 20 },
            5,
        )
        .unwrap();
        let unit = erdos_renyi_gnm(40, 160, Direction::Directed, WeightSpec::Unit, 5).unwrap();
        let n = graph.vertex_count();
        for (graph, kind) in [
            (&graph, SolverKind::Dijkstra),
            (&graph, SolverKind::Delta { delta: None }),
            (&unit, SolverKind::MsBfs),
        ] {
            let options = KernelOptions {
                solver: kind,
                ..KernelOptions::default()
            };
            let solver = RowSolver::resolve(graph, options, false);
            let mut ws = Workspace::new(n);
            let mut counters = Counters::default();
            let sources: Vec<u32> = (0..n as u32).collect();
            let width = solver.batch_width(n, 2);
            // Warm sweep: scratch vectors and bucket slots grow to their
            // high-water marks here.
            let warm = Store::new(n, &crate::store::StoreSpec::dense());
            for batch in sources.chunks(width) {
                solver.solve_rows(graph, batch, &warm, &mut ws, options, &mut counters);
            }
            // Steady state: a second identical sweep reusing the same
            // Workspace must not touch the heap at all. (Pinned for the
            // dense store only: staged backends encode/write per publish.)
            let store = Store::new(n, &crate::store::StoreSpec::dense());
            let before = crate::alloc_counter::count();
            for batch in sources.chunks(width) {
                solver.solve_rows(graph, batch, &store, &mut ws, options, &mut counters);
            }
            let after = crate::alloc_counter::count();
            assert_eq!(
                after - before,
                0,
                "solver {} allocated in steady state",
                kind.label()
            );
        }
    }
}
