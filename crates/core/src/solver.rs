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
//! *Skipping* a reuse is sound in both solvers as well: the vertex is then
//! expanded by its edges like one without a published row, and every
//! edge improvement still re-enqueues / re-buckets its target. Δ-stepping
//! uses that on graphs without hubs (degree skew below [`HUB_SKEW`]): a
//! source stops reusing rows after its first reuse that lowers no cell.
//! Its pops come in distance order, so once a row at the settled
//! frontier adds nothing, later rows of that source rarely do, and each
//! reuse streams a whole n-cell row; on a high-diameter wide-weight ring
//! most reuses lower nothing. Where hubs publish early their rows keep
//! paying after a leaf's row paid nothing, so skewed graphs keep every
//! reuse. The FIFO kernel keeps every reuse too: its pops are not in
//! distance order, so an idle reuse says nothing about the next one
//! (EXPERIMENTS.md, "Δ-stepping stops reusing rows once a reuse lowers
//! nothing", measures both losses).
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

/// The degree skew (max out-degree over mean, [`GraphProbe::degree_skew`])
/// from which a graph counts as having hubs: [`autotune`] keeps such
/// graphs on the paper's kernel, and Δ-stepping on them never stops
/// reusing rows (see `delta_row`).
pub const HUB_SKEW: f64 = 8.0;

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
/// * strong degree skew (max/mean ≥ [`HUB_SKEW`]) → `dijkstra` (hub rows
///   publish early and get reused constantly);
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
    let skewed = p.degree_skew >= HUB_SKEW;
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
    /// Δ-stepping on a graph without hubs (skew below [`HUB_SKEW`]): a
    /// source stops reusing rows after a reuse that lowers no cell.
    stop_idle_reuse: bool,
}

impl RowSolver {
    /// Resolves `options.solver` for `graph`. `auto`, `delta` and
    /// `msbfs` read one [`probe`] pass: the tuner decides from it,
    /// Δ-stepping sizes its ring from the same pass's weight range, and
    /// MS-BFS is checked against it. The same probe's degree skew decides
    /// whether Δ-stepping stops reusing rows once a reuse lowers nothing.
    /// `per_row_credit` is set by the adaptive engines, for which `auto`
    /// never picks MS-BFS.
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
                    stop_idle_reuse: p.degree_skew < HUB_SKEW,
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
                    stop_idle_reuse: false,
                }
            }
            _ => RowSolver {
                kind: Resolved::Dijkstra,
                delta: 1,
                ring: 1,
                partition: None,
                stop_idle_reuse: false,
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
///
/// On a graph without hubs (`RowSolver::resolve` saw a degree skew below
/// [`HUB_SKEW`]) the source stops reusing after its first reuse that
/// lowers no cell: from then on every drained vertex expands its light
/// and heavy edges, and the per-entry row prefetch stops too. That is
/// sound at any point — the edge expansion is the plain Δ-stepping step,
/// a cell a reuse already set exactly is dominated by that reuse's row,
/// and one it over-set is lowered by an edge improvement that re-buckets
/// it. The gate keeps skewed graphs reusing, where hub rows still pay
/// after a leaf's row did not; the FIFO kernel has no such stop (see the
/// module docs, "Row reuse per solver").
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
    // Cleared for good by the first reuse that lowers no cell, on graphs
    // without hubs.
    let mut reusing = options.row_reuse;

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
                if reusing {
                    // Prefetch the next drained entry's row, mirroring
                    // the FIFO kernel's queue-front prefetch.
                    if let Some(&next) = ws.scratch.get(i + 1) {
                        store.prefetch_row(next);
                    }
                    // The row covers light *and* heavy continuations.
                    if let Some(improved) =
                        reuse_row(store, v, dv, row, relax, cap, &mut NoPred, &mut tally)
                    {
                        if improved == 0 && solver.stop_idle_reuse {
                            reusing = false;
                            #[cfg(test)]
                            {
                                ws.reuse_stops += 1;
                            }
                        }
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
    /// Vertices with arcs that some lane has not reached, in increasing
    /// order: listed on the first bottom-up level, pruned on each one.
    open: Vec<u32>,
    /// The level as bit planes, interleaved per vertex: word
    /// `u * stride + b` holds the lanes whose level at `u` has bit `b`
    /// set, so a level's update of `u` touches one or two cache lines.
    planes: Vec<u64>,
    /// `seen` and each plane, every 64-vertex block transposed (the row
    /// pass's input, see `write_levels`).
    tile: Vec<u64>,
    /// Lanes × n staging rows for stores that lend no rows.
    block: Vec<u32>,
    /// Levels run bottom-up (`[0]`) and top-down (`[1]`).
    #[cfg(test)]
    directions: [u64; 2],
}

/// Bit-parallel multi-source BFS (Then et al., "The More the Merrier"):
/// writes the rows of up to [`MSBFS_LANES`] `sources` on a unit-weight
/// graph into `rows` (`rows[i]` is the row of `sources[i]`), one lane of
/// a `u64` mask per source. Every cell of every row is written, so the
/// rows may hold anything on entry.
///
/// The search runs level by level and picks a direction on each
/// (Beamer et al.'s direction-optimizing BFS, on 64 lanes):
///
/// * top-down, every frontier vertex `v` offers its `visit[v]` lanes to
///   each out-neighbour `u`; the lanes not yet in `seen[u]` reach `u` at
///   this level, which is their distance to `u`. This scans the
///   frontier's arcs, `m_f`.
/// * bottom-up, every vertex `u` that some lane has not reached ORs in
///   its neighbours' `visit` masks and stops as soon as every lane has
///   reached it. This scans at most the arcs of those vertices, `m_u`.
///
/// A level runs bottom-up when `m_f > m_u`, so it never scans more arcs
/// than top-down would; the rule reads nothing but the two arc counts.
/// Only undirected graphs run bottom-up, because only there do
/// `neighbors` list a vertex's in-neighbours; directed graphs run
/// top-down on every level. The search stops when no lane advances or
/// the next level would pass the cap.
///
/// The rows are not touched during the search: the level at which each
/// lane reaches each vertex is kept as bit planes (plane `b` holds bit
/// `b` of the level as one lane mask per vertex; ⌈log₂(levels + 1)⌉
/// planes). After it, every row is written once, front to back, with
/// [`INF`] where the lane never arrived (see `write_levels`). The search
/// and the row pass run compiled for AVX2 and POPCNT where the CPU has
/// them, as [`relax_row`](crate::relax::relax_row) does.
///
/// This is the one MS-BFS loop: the store engines reach it through
/// `RowSolver::solve_rows`, and a `parapsp-dist` node calls it on rows
/// it keeps itself. `counters` gains one source per lane, one queue pop
/// per frontier vertex per level, and one relaxation per (vertex, lane)
/// reached, whichever direction a level runs.
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
    #[cfg(target_arch = "x86_64")]
    if crate::relax::avx2_available() && is_x86_feature_detected!("popcnt") {
        // SAFETY: the CPU reports AVX2 and POPCNT.
        unsafe { msbfs_avx2(graph, sources, rows, ws, options, counters) };
        return;
    }
    msbfs_search(graph, sources, rows, ws, options, counters);
}

/// [`msbfs_search`] compiled for AVX2 and POPCNT: the plane updates and
/// the row pass take 4 words and 8 cells per operation, and each lane
/// count is one instruction.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2 and POPCNT.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn msbfs_avx2(
    graph: &CsrGraph,
    sources: &[u32],
    rows: &mut [&mut [u32]],
    ws: &mut Workspace,
    options: KernelOptions,
    counters: &mut Counters,
) {
    msbfs_search(graph, sources, rows, ws, options, counters);
}

/// The body of [`msbfs_into`], once its arguments are checked.
#[inline(always)]
fn msbfs_search(
    graph: &CsrGraph,
    sources: &[u32],
    rows: &mut [&mut [u32]],
    ws: &mut Workspace,
    options: KernelOptions,
    counters: &mut Counters,
) {
    let n = graph.vertex_count();
    let lanes = sources.len();
    if lanes == 0 {
        return;
    }
    let cap = options.max_distance.unwrap_or(u32::MAX);
    let full = u64::MAX >> (MSBFS_LANES - lanes);
    let undirected = !graph.direction().is_directed();
    let degree = |v: u32| graph.out_degree(v) as u64;
    let MsBfsScratch {
        seen,
        visit,
        next,
        touched,
        frontier,
        open,
        planes,
        tile,
        #[cfg(test)]
        directions,
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
    open.clear();
    // At least 4 words per vertex, so each plane update is whole vectors.
    let mut stride = 4;
    planes.clear();
    planes.resize(stride * n, 0);

    let mut tally = Counters {
        sources: lanes as u64,
        ..Counters::default()
    };
    for (lane, &s) in sources.iter().enumerate() {
        seen[s as usize] |= 1 << lane;
    }
    frontier.clear();
    frontier.extend_from_slice(sources);
    frontier.sort_unstable();
    frontier.dedup();
    // The arcs of the frontier (m_f) and of the vertices some lane has
    // not reached (m_u).
    let mut frontier_arcs = 0;
    let mut open_arcs = graph.arc_count() as u64;
    for &s in frontier.iter() {
        visit[s as usize] = seen[s as usize];
        frontier_arcs += degree(s);
        if seen[s as usize] == full {
            open_arcs -= degree(s);
        }
    }

    let mut listed = false;
    let mut level = 0u32;
    let mut depth = 0;
    while !frontier.is_empty() && level < cap {
        level += 1;
        if u64::from(level) >> depth != 0 {
            depth += 1;
            if depth > stride {
                widen_planes(planes, n, stride);
                stride *= 2;
            }
        }
        tally.queue_pops += frontier.len() as u64;
        if undirected && frontier_arcs > open_arcs {
            #[cfg(test)]
            {
                directions[0] += 1;
            }
            if !listed {
                open.extend((0..n as u32).filter(|&u| seen[u as usize] != full && degree(u) > 0));
                listed = true;
            }
            let mut kept = 0;
            for i in 0..open.len() {
                let u = open[i];
                let have = seen[u as usize];
                if have == full {
                    continue;
                }
                let mut offered = 0;
                for &v in graph.neighbors(u) {
                    offered |= visit[v as usize];
                    if offered | have == full {
                        break;
                    }
                }
                let fresh = offered & !have;
                if fresh != 0 {
                    seen[u as usize] = have | fresh;
                    next[u as usize] = fresh;
                    touched[u as usize / 64] |= 1 << (u % 64);
                }
                if have | fresh != full {
                    open[kept] = u;
                    kept += 1;
                }
            }
            open.truncate(kept);
            for &v in frontier.iter() {
                visit[v as usize] = 0;
            }
        } else {
            #[cfg(test)]
            {
                directions[1] += 1;
            }
            for &v in frontier.iter() {
                let lanes_at_v = std::mem::take(&mut visit[v as usize]);
                for &u in graph.neighbors(v) {
                    let fresh = lanes_at_v & !seen[u as usize];
                    if fresh != 0 {
                        next[u as usize] |= fresh;
                        seen[u as usize] |= fresh;
                        touched[u as usize / 64] |= 1 << (u % 64);
                    }
                }
            }
        }
        // All ones for the planes that take this level's bits.
        let mut level_masks = [0u64; 32];
        for (b, mask) in level_masks.iter_mut().enumerate().take(depth) {
            *mask = 0u64.wrapping_sub(u64::from(level >> b & 1));
        }
        let level_masks = &level_masks[..stride];
        // The reached vertices in increasing order: the next frontier.
        frontier.clear();
        frontier_arcs = 0;
        for (word, bits) in touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let u = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let reached = std::mem::take(&mut next[u]);
                visit[u] = reached;
                frontier.push(u as u32);
                tally.relaxations += reached.count_ones() as u64;
                let arcs = degree(u as u32);
                frontier_arcs += arcs;
                if seen[u] == full {
                    open_arcs -= arcs;
                }
                let cell = &mut planes[u * stride..][..stride];
                for (words, masks) in cell.chunks_exact_mut(4).zip(level_masks.chunks_exact(4)) {
                    for (word, &mask) in words.iter_mut().zip(masks) {
                        *word |= reached & mask;
                    }
                }
            }
        }
    }
    counters.merge(&tally);
    write_levels(seen, planes, stride, depth, tile, rows);
}

/// Doubles the per-vertex stride of interleaved `planes` from `stride`,
/// in place; the new planes read 0.
fn widen_planes(planes: &mut Vec<u64>, n: usize, stride: usize) {
    planes.resize(n * 2 * stride, 0);
    // Back to front, so no vertex's planes are overwritten before they move.
    for u in (0..n).rev() {
        planes.copy_within(u * stride..(u + 1) * stride, 2 * u * stride);
        planes[(2 * u + 1) * stride..(2 * u + 2) * stride].fill(0);
    }
}

/// Writes the rows of an MS-BFS batch from its search state: cell `u` of
/// row `l` is the level that the `depth` bit planes hold for (`u`, lane
/// `l`) when `seen[u]` has lane `l`, and [`INF`] when it has not.
///
/// `seen` and each plane are first transposed into `tile`, one 64 × 64
/// bit block at a time, so that word `q * words + 64k + l` holds lane
/// `l`'s bits of vertices `64k..64k + 64` (`q = 0` for `seen`, `b + 1`
/// for plane `b`). Each row is then written in one sequential pass, 8
/// cells per AVX2 operation where the CPU has it.
fn write_levels(
    seen: &[u64],
    planes: &[u64],
    stride: usize,
    depth: usize,
    tile: &mut Vec<u64>,
    rows: &mut [&mut [u32]],
) {
    let n = seen.len();
    let words = n.div_ceil(64) * 64;
    tile.clear();
    tile.resize(words * (depth + 1), 0);
    let (reached, levels) = tile.split_at_mut(words);
    reached[..n].copy_from_slice(seen);
    for (u, cell) in planes.chunks_exact(stride).enumerate() {
        for (b, &word) in cell[..depth].iter().enumerate() {
            levels[b * words + u] = word;
        }
    }
    for block in tile.chunks_exact_mut(64) {
        transpose64(block);
    }
    #[cfg(target_arch = "x86_64")]
    if crate::relax::avx2_available() {
        // SAFETY: the CPU reports AVX2.
        unsafe { expand_rows_avx2(tile, words, rows) };
        return;
    }
    expand_rows(tile, words, rows);
}

/// The row pass of [`write_levels`]: row `l`'s cell `64k + j` from bit
/// `j` of the transposed words `q * words + 64k + l` of `tile`.
fn expand_rows(tile: &[u64], words: usize, rows: &mut [&mut [u32]]) {
    let depth = tile.len() / words - 1;
    for (lane, row) in rows.iter_mut().enumerate() {
        for (k, cells) in row.chunks_mut(64).enumerate() {
            let at = 64 * k + lane;
            let reached = tile[at];
            for (j, cell) in cells.iter_mut().enumerate() {
                *cell = if reached >> j & 1 == 0 {
                    INF
                } else {
                    (0..depth)
                        .map(|b| ((tile[(b + 1) * words + at] >> j & 1) as u32) << b)
                        .sum()
                };
            }
        }
    }
}

/// [`expand_rows`] on AVX2: each cell's level is rebuilt from its plane
/// bits, highest plane first, 8 cells per operation.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn expand_rows_avx2(tile: &[u64], words: usize, rows: &mut [&mut [u32]]) {
    use std::arch::x86_64::*;

    let depth = tile.len() / words - 1;
    let mut tail = [0u32; 64];
    // SAFETY (for every intrinsic below): AVX2 is enabled by the caller
    // contract, and every store writes 8 cells of a 64-cell block that
    // lies in `row` or in `tail`.
    unsafe {
        let zero = _mm256_setzero_si256();
        // Lane i of select[g] is bit 8g + i of a 32-bit half word.
        let mut select = [zero; 4];
        for (g, sel) in select.iter_mut().enumerate() {
            *sel = _mm256_sllv_epi32(
                _mm256_set1_epi32(1 << (8 * g)),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
        }
        let mut bits = [zero; 32];
        for (lane, row) in rows.iter_mut().enumerate() {
            for (k, cells) in row.chunks_mut(64).enumerate() {
                let at = 64 * k + lane;
                let out = if cells.len() == 64 {
                    cells.as_mut_ptr()
                } else {
                    tail.as_mut_ptr()
                };
                for half in 0..2 {
                    let shift = 32 * half;
                    let reached = _mm256_set1_epi32((tile[at] >> shift) as i32);
                    for (b, plane) in bits[..depth].iter_mut().enumerate() {
                        *plane = _mm256_set1_epi32((tile[(b + 1) * words + at] >> shift) as i32);
                    }
                    for (g, &sel) in select.iter().enumerate() {
                        let mut level = zero;
                        for &plane in bits[..depth].iter().rev() {
                            let hit = _mm256_cmpeq_epi32(_mm256_and_si256(plane, sel), sel);
                            // level = 2 * level + (hit ? 1 : 0)
                            level = _mm256_sub_epi32(_mm256_add_epi32(level, level), hit);
                        }
                        let missed = _mm256_cmpeq_epi32(_mm256_and_si256(reached, sel), zero);
                        _mm256_storeu_si256(
                            out.add(32 * half + 8 * g) as *mut __m256i,
                            _mm256_or_si256(level, missed),
                        );
                    }
                }
                if cells.len() < 64 {
                    cells.copy_from_slice(&tail[..cells.len()]);
                }
            }
        }
    }
}

/// Transposes a 64-word block as a 64 × 64 bit matrix: bit `i` of word
/// `k` trades places with bit `k` of word `i`.
#[inline(always)]
fn transpose64(block: &mut [u64]) {
    swap_quadrants::<32>(block, 0x0000_0000_FFFF_FFFF);
    swap_quadrants::<16>(block, 0x0000_FFFF_0000_FFFF);
    swap_quadrants::<8>(block, 0x00FF_00FF_00FF_00FF);
    swap_quadrants::<4>(block, 0x0F0F_0F0F_0F0F_0F0F);
    swap_quadrants::<2>(block, 0x3333_3333_3333_3333);
    swap_quadrants::<1>(block, 0x5555_5555_5555_5555);
}

/// One step of the recursive transpose: in every group of `2W` words,
/// the first `W` words' bits outside the `low` mask swap with the next
/// `W` words' bits inside it.
#[inline(always)]
fn swap_quadrants<const W: usize>(block: &mut [u64], low: u64) {
    for group in block.chunks_exact_mut(2 * W) {
        let (top, bottom) = group.split_at_mut(W);
        for (a, b) in top.iter_mut().zip(bottom) {
            let t = ((*a >> W) ^ *b) & low;
            *b ^= t;
            *a ^= t << W;
        }
    }
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
            // The search writes every cell: the block needs no reset.
            if block.len() < lanes * n {
                block.resize(lanes * n, 0);
            }
            for (lane, row) in block.chunks_exact_mut(n.max(1)).take(lanes).enumerate() {
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

    /// Runs [`msbfs_into`] from `sources` into rows that start out as
    /// garbage, so a cell the search leaves unwritten shows.
    fn msbfs_rows_of(
        graph: &CsrGraph,
        sources: &[u32],
        cap: Option<u32>,
        ws: &mut Workspace,
    ) -> (Vec<Vec<u32>>, Counters) {
        let n = graph.vertex_count();
        let mut rows = vec![vec![0xDEAD_BEEF; n]; sources.len()];
        let mut lanes: Vec<&mut [u32]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
        let options = KernelOptions {
            max_distance: cap,
            ..KernelOptions::default()
        };
        let mut counters = Counters::default();
        msbfs_into(graph, sources, &mut lanes, ws, options, &mut counters);
        (rows, counters)
    }

    /// Per-source BFS rows under `cap`, and the counters the MS-BFS must
    /// report for them: one pop per vertex that some lane reaches at a
    /// level below the cap (once per level), one relaxation per
    /// (vertex, lane) reached past the source.
    fn bfs_reference(
        graph: &CsrGraph,
        sources: &[u32],
        cap: Option<u32>,
    ) -> (Vec<Vec<u32>>, u64, u64) {
        let cap = cap.unwrap_or(u32::MAX);
        let rows: Vec<Vec<u32>> = sources
            .iter()
            .map(|&s| {
                let mut row = crate::baselines::bfs_sssp(graph, s);
                for d in row.iter_mut().filter(|d| **d > cap) {
                    *d = INF;
                }
                row
            })
            .collect();
        let mut levels = std::collections::BTreeSet::new();
        let mut relaxations = 0;
        for row in &rows {
            for (v, &d) in row.iter().enumerate() {
                if d != INF && d < cap {
                    levels.insert((d, v));
                }
                relaxations += u64::from(d != INF && d > 0);
            }
        }
        (rows, levels.len() as u64, relaxations)
    }

    /// Random unit-weight graphs; with `chain`, a path through every
    /// vertex lies under the random arcs, so searches run up to n levels
    /// and widen the planes past 4 words.
    fn arb_unit_graph() -> impl proptest::strategy::Strategy<Value = CsrGraph> {
        use proptest::prelude::*;
        (1usize..140, any::<bool>(), 0usize..4, any::<bool>()).prop_flat_map(
            |(n, directed, per_vertex, chain)| {
                let edge = (0..n as u32, 0..n as u32);
                proptest::collection::vec(edge, 0..n * per_vertex + 1).prop_map(move |edges| {
                    let direction = if directed {
                        Direction::Directed
                    } else {
                        Direction::Undirected
                    };
                    let path = (1..n as u32).filter(|_| chain).map(|v| (v - 1, v));
                    let edges: Vec<(u32, u32, u32)> = edges
                        .into_iter()
                        .chain(path)
                        .map(|(u, v)| (u, v, 1))
                        .collect();
                    CsrGraph::from_edges(n, direction, &edges).unwrap()
                })
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        // On random unit-weight graphs — directed and undirected, sparse
        // enough to leave vertices isolated and the graph disconnected —
        // every cell of every lane matches a per-source BFS, for 1–64
        // lanes with repeated sources, uncapped and capped at, just
        // below and just above a level boundary. The counters keep
        // their meaning in either direction.
        #[test]
        fn msbfs_matches_per_source_bfs(
            graph in arb_unit_graph(),
            picks in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..=64),
            boundary in 0u32..40,
            offset in 0u32..4,
        ) {
            let n = graph.vertex_count() as u32;
            let sources: Vec<u32> = picks.iter().map(|p| p % n).collect();
            // A level the sweep reaches, then the cap at it, one below,
            // one above, and none.
            let (full, _, _) = bfs_reference(&graph, &sources, None);
            let deepest = full.iter().flatten().filter(|&&d| d != INF).max().copied().unwrap_or(0);
            let level = boundary.min(deepest);
            let cap = [Some(level), level.checked_sub(1), Some(level + 1), None][offset as usize];
            let (expected, pops, relaxations) = bfs_reference(&graph, &sources, cap);
            let mut ws = Workspace::new(n as usize);
            let (rows, counters) = msbfs_rows_of(&graph, &sources, cap, &mut ws);
            for (lane, (got, want)) in rows.iter().zip(&expected).enumerate() {
                proptest::prop_assert_eq!(got, want, "lane {} from {} cap {:?}", lane, sources[lane], cap);
            }
            proptest::prop_assert_eq!(counters.sources, sources.len() as u64);
            proptest::prop_assert_eq!(counters.queue_pops, pops);
            proptest::prop_assert_eq!(counters.relaxations, relaxations);
        }
    }

    /// Random weighted graphs for the Δ-stepping reuse tests: directed or
    /// undirected, weights 1..1000, sparse enough to leave parts
    /// disconnected; with `star`, vertex 0 is joined to most others, which
    /// puts the degree skew above [`HUB_SKEW`] on all but the smallest.
    fn arb_weighted_graph() -> impl proptest::strategy::Strategy<Value = CsrGraph> {
        use proptest::prelude::*;
        (2usize..90, any::<bool>(), 0usize..7, any::<bool>()).prop_flat_map(
            |(n, directed, per_vertex, star)| {
                let edge = (0..n as u32, 0..n as u32, 1u32..=1000);
                proptest::collection::vec(edge, 0..n * per_vertex + 1).prop_map(move |edges| {
                    let direction = if directed {
                        Direction::Directed
                    } else {
                        Direction::Undirected
                    };
                    let spokes = (1..n as u32)
                        .filter(|v| star && v % 5 != 0)
                        .map(|v| (0, v, 1 + v * 37 % 1000));
                    let edges: Vec<(u32, u32, u32)> = edges.into_iter().chain(spokes).collect();
                    CsrGraph::from_edges(n, direction, &edges).unwrap()
                })
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        // Δ-stepping with row reuse on, rows published in a random source
        // order so that reuse fires from the first rows on, equals heap
        // Dijkstra cell for cell on graphs with and without hubs (the
        // reuse stop gated on and off), for any Δ, uncapped and capped at,
        // just below and just above a distance the graph has.
        #[test]
        fn delta_with_row_reuse_matches_heap_dijkstra(
            graph in arb_weighted_graph(),
            shuffle in proptest::prelude::any::<u64>(),
            delta in 0u32..1200,
            pick in 0usize..10_000,
            offset in 0usize..4,
        ) {
            let n = graph.vertex_count();
            // A Fisher–Yates shuffle of the sources, xorshift-driven.
            let mut order: Vec<u32> = (0..n as u32).collect();
            let mut state = shuffle | 1;
            for i in (1..n).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            // Δ 0 stands for the probe's pick.
            let delta = (delta > 0).then_some(delta);
            let exact = crate::baselines::apsp_dijkstra(&graph);
            let finite: Vec<u32> = (0..n as u32)
                .flat_map(|u| (0..n as u32).map(move |v| (u, v)))
                .map(|(u, v)| exact.get(u, v))
                .filter(|&d| d != INF)
                .collect();
            let level = finite[pick % finite.len()];
            let cap = [Some(level), level.checked_sub(1), Some(level + 1), None][offset];
            let options = KernelOptions {
                solver: SolverKind::Delta { delta },
                max_distance: cap,
                ..KernelOptions::default()
            };
            let solver = RowSolver::resolve(&graph, options, false);
            proptest::prop_assert_eq!(solver.kind, Resolved::Delta);
            proptest::prop_assert_eq!(solver.stop_idle_reuse, probe(&graph).degree_skew < HUB_SKEW);
            let store = Store::new(n, &crate::store::StoreSpec::dense());
            let mut ws = Workspace::new(n);
            let mut counters = Counters::default();
            for &s in &order {
                solver.solve_rows(&graph, &[s], &store, &mut ws, options, &mut counters);
            }
            let got = store.into_matrix();
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    let want = match exact.get(u, v) {
                        d if d <= cap.unwrap_or(u32::MAX) => d,
                        _ => INF,
                    };
                    proptest::prop_assert_eq!(got.get(u, v), want, "({}, {}) cap {:?}", u, v, cap);
                }
            }
        }
    }

    /// Weighted fixtures for the reuse stop: a Watts–Strogatz ring with
    /// weights 1..1000 (no hubs), a weighted star and a Barabási–Albert
    /// graph (both skewed past [`HUB_SKEW`]).
    fn reuse_stop_fixtures() -> Vec<(&'static str, CsrGraph, bool)> {
        let wide = WeightSpec::Uniform { lo: 1, hi: 1000 };
        let spokes: Vec<(u32, u32, u32)> = (1..120).map(|v| (0, v, 1 + v * 37 % 1000)).collect();
        vec![
            (
                "ws",
                parapsp_graph::generate::watts_strogatz(400, 8, 0.2, wide, 7).unwrap(),
                true,
            ),
            (
                "star",
                CsrGraph::from_edges(120, Direction::Undirected, &spokes).unwrap(),
                false,
            ),
            ("ba", barabasi_albert(600, 2, wide, 5).unwrap(), false),
        ]
    }

    /// Every source's sweep in id order on `solver`, checked against heap
    /// Dijkstra; returns the counters and how many sources stopped reusing.
    fn delta_sweep(
        graph: &CsrGraph,
        solver: &RowSolver,
        options: KernelOptions,
    ) -> (Counters, u64) {
        let n = graph.vertex_count();
        let store = Store::new(n, &crate::store::StoreSpec::dense());
        let mut ws = Workspace::new(n);
        let mut counters = Counters::default();
        for s in 0..n as u32 {
            solver.solve_rows(graph, &[s], &store, &mut ws, options, &mut counters);
        }
        assert_eq!(store.into_matrix(), crate::baselines::apsp_dijkstra(graph));
        (counters, ws.reuse_stops)
    }

    /// The stop fires on the graph without hubs and never on the skewed
    /// ones, where reuses that lower nothing happen too: forcing the rule
    /// on there makes the BA sweep stop, so it is the gate that holds it
    /// off.
    #[test]
    fn idle_reuse_stops_only_on_graphs_without_hubs() {
        let options = KernelOptions {
            solver: SolverKind::Delta { delta: None },
            ..KernelOptions::default()
        };
        for (name, graph, no_hubs) in reuse_stop_fixtures() {
            let skew = probe(&graph).degree_skew;
            assert_eq!(skew < HUB_SKEW, no_hubs, "{name}: degree skew {skew}");
            let mut solver = RowSolver::resolve(&graph, options, false);
            assert_eq!(solver.stop_idle_reuse, no_hubs, "{name}");
            let (counters, stops) = delta_sweep(&graph, &solver, options);
            assert!(counters.row_reuses > 0, "{name}: no reuse at all");
            if no_hubs {
                assert!(stops > 0, "{name}: the stop never fired");
            } else {
                assert_eq!(stops, 0, "{name}: the stop fired on a skewed graph");
                solver.stop_idle_reuse = true;
                let (_, forced) = delta_sweep(&graph, &solver, options);
                if name == "ba" {
                    assert!(forced > 0, "{name}: no reuse ever lowered nothing");
                }
            }
        }
        // The FIFO kernel never resolves with the rule.
        let (_, ws, _) = &reuse_stop_fixtures()[0];
        let kernel = KernelOptions {
            solver: SolverKind::Dijkstra,
            ..KernelOptions::default()
        };
        assert!(!RowSolver::resolve(ws, kernel, false).stop_idle_reuse);
    }

    /// One-thread counters of the paths the reuse stop leaves alone, as
    /// the build before the rule measured them: the FIFO kernel
    /// (`seq-basic`) on the Watts–Strogatz fixture, and pinned Δ-stepping
    /// on the skewed BA fixture, where the gate keeps every reuse.
    #[test]
    fn fifo_kernel_and_skewed_delta_counters_are_unchanged() {
        use crate::engine::{ApspEngine, RunConfig, Runner};
        let fixtures = reuse_stop_fixtures();
        let (ws, ba) = (&fixtures[0].1, &fixtures[2].1);
        let counters = |relaxations, queue_pops, row_reuses, sources| Counters {
            relaxations,
            queue_pops,
            row_reuses,
            lease_hits: row_reuses,
            sources,
            ..Counters::default()
        };
        let basic = Runner::new(RunConfig::seq_basic()).run(ApspEngine::new(), ws);
        assert_eq!(
            basic.counters,
            counters(449_183, 45_974, 5_353, 400),
            "seq-basic on ws"
        );
        let delta = RunConfig::seq_basic().with_solver(SolverKind::Delta { delta: None });
        let pinned = Runner::new(delta).run(ApspEngine::new(), ba);
        assert_eq!(
            pinned.counters,
            counters(517_157, 12_415, 1_639, 600),
            "delta on ba"
        );
    }

    /// A star searched from every vertex has its centre reached by every
    /// lane at level 1, so level 2's frontier (every vertex) has more
    /// arcs than the leaves still open: levels 2 and 3 run bottom-up. A
    /// directed path never does, and an undirected path from one end only
    /// on its last two levels, once its open arcs fall below the
    /// frontier's.
    #[test]
    fn each_direction_runs_on_the_fixture_that_calls_for_it() {
        let star = star_graph(40);
        let sources: Vec<u32> = (0..40).collect();
        let mut ws = Workspace::new(40);
        let (rows, _) = msbfs_rows_of(&star, &sources, None, &mut ws);
        assert_eq!(rows, bfs_reference(&star, &sources, None).0);
        assert_eq!(
            ws.msbfs.directions,
            [2, 1],
            "star: [bottom-up, top-down] levels"
        );

        let directed = path_graph(50, Direction::Directed);
        let mut ws = Workspace::new(50);
        let (rows, _) = msbfs_rows_of(&directed, &[0, 7, 30], None, &mut ws);
        assert_eq!(rows, bfs_reference(&directed, &[0, 7, 30], None).0);
        assert_eq!(ws.msbfs.directions, [0, 50], "directed path");

        let undirected = path_graph(50, Direction::Undirected);
        let mut ws = Workspace::new(50);
        let (rows, _) = msbfs_rows_of(&undirected, &[0], None, &mut ws);
        assert_eq!(rows, bfs_reference(&undirected, &[0], None).0);
        assert_eq!(ws.msbfs.directions, [2, 48], "undirected path");
    }

    /// 64 lanes on a 200-level path need 8 planes; the planes widen from
    /// 4 words per vertex to 8 mid-search and every level survives it.
    #[test]
    fn levels_past_four_planes_survive_the_widening() {
        let path = path_graph(200, Direction::Undirected);
        let sources: Vec<u32> = (0..64).map(|i| i * 3).collect();
        let mut ws = Workspace::new(200);
        let (rows, _) = msbfs_rows_of(&path, &sources, None, &mut ws);
        assert_eq!(rows, bfs_reference(&path, &sources, None).0);
        assert_eq!(rows[0][199], 199);
    }

    /// The AVX2 row pass writes the same cells as the portable one, for
    /// every plane count and a partial last block.
    #[test]
    fn row_passes_agree_on_random_tiles() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for depth in [0, 1, 3, 7, 12, 32] {
            let n: usize = 150;
            let words = n.div_ceil(64) * 64;
            let tile: Vec<u64> = (0..words * (depth + 1)).map(|_| random()).collect();
            let mut portable = vec![vec![0u32; n]; 64];
            let mut lanes: Vec<&mut [u32]> = portable.iter_mut().map(Vec::as_mut_slice).collect();
            expand_rows(&tile, words, &mut lanes);
            assert!(portable.iter().flatten().any(|&d| d == INF));
            #[cfg(target_arch = "x86_64")]
            if crate::relax::avx2_available() {
                let mut avx2 = vec![vec![0u32; n]; 64];
                let mut lanes: Vec<&mut [u32]> = avx2.iter_mut().map(Vec::as_mut_slice).collect();
                // SAFETY: the CPU reports AVX2.
                unsafe { expand_rows_avx2(&tile, words, &mut lanes) };
                assert_eq!(avx2, portable, "depth {depth}");
            }
        }
    }
}
