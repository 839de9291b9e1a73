//! The unified execution pipeline: one [`Engine`] trait, one [`Runner`].
//!
//! PRs 1–3 threaded checkpointing, vectorized relaxation, and cancellation
//! through five separate engines, so every cross-cutting feature was an
//! O(engines) change. This module factors the shared lifecycle out once:
//!
//! * [`RunConfig`] — every knob (threads, schedule, ordering, kernel
//!   options, relax implementation, distance cap, ledger policy,
//!   label) in a single builder-style value.
//! * [`Engine`] — what is *specific* to an algorithm: how to plan its work
//!   units ([`Engine::prepare`]), how to execute a batch of units
//!   ([`Engine::run_rows`]), how to snapshot partial progress
//!   ([`Engine::snapshot`]), and how to assemble its output
//!   ([`Engine::finish`]).
//! * [`Runner`] — owns everything else, exactly once: thread-pool
//!   acquisition, resume validation, the run ledger's batched appends,
//!   cancellation plumbing, per-row trace collection, phase timing, and
//!   [`RunOutcome`] assembly.
//!
//! Four engine families implement the trait. Two row engines, one per
//! order policy, cover Peng's algorithm and its parallel drivers:
//! [`ApspEngine`] sweeps a static source order (ParAPSP, ParAlg1/2, and
//! Peng's basic and optimized algorithms on one thread) and
//! [`AdaptiveEngine`] picks the order at run time (Peng's adaptive variant
//! and its wave-parallel extension). The other two are [`SubsetEngine`]
//! (memory-bounded subset rows) and `DistEngine` in the `parapsp-dist`
//! crate (the simulated cluster driver). Every algorithm the CLI offers
//! ([`EngineKind`]) is one of them; the O(n³) Floyd–Warshall and
//! heap-Dijkstra comparators live in [`crate::baselines`] as plain
//! functions.
//!
//! Every run is constructed the same way — pick a [`RunConfig`], pick an
//! engine, and drive it through a [`Runner`]:
//!
//! ```
//! use parapsp_core::engine::{ApspEngine, RunConfig, Runner};
//! use parapsp_graph::generate::{barabasi_albert, WeightSpec};
//!
//! let g = barabasi_albert(200, 3, WeightSpec::Unit, 42).unwrap();
//! let out = Runner::new(RunConfig::par_apsp(4)).run(ApspEngine::new(), &g);
//! assert_eq!(out.dist.get(0, 0), 0);
//! assert_eq!(out.algorithm, "ParAPSP");
//! ```

use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use parapsp_graph::{degree, CsrGraph};
use parapsp_order::OrderingProcedure;
use parapsp_parfor::{CancelStatus, CancelToken, ParSlice, PerThread, Schedule, ThreadPool};

use crate::kernel::{KernelOptions, Workspace};
use crate::outcome::RunOutcome;
use crate::persist::{self, Checkpoint, FsyncPolicy, RowLedger};
use crate::relax::RelaxImpl;
use crate::solver::{RowSolver, SolverKind};
use crate::stats::{ApspOutput, Counters, PhaseTimings};
use crate::store::{Store, StoreSpec};

pub use crate::subset::SubsetEngine;

// ---------------------------------------------------------------------------
// Value enums (CLI-facing)
// ---------------------------------------------------------------------------

/// A closed set of named values, parseable from their stable CLI names.
///
/// This is the hand-rolled equivalent of clap's `ValueEnum` derive (this
/// workspace is dependency-free): a type lists its variants once, names
/// each one, and gets parsing **and** self-describing rejection messages
/// for free. Implemented by [`EngineKind`], [`RelaxImpl`], the `dist`
/// crate's `SourcePartition`, and the CLI's interrupt mode.
pub trait ValueEnum: Sized + Copy + 'static {
    /// Every selectable variant, in display order.
    fn value_variants() -> &'static [Self];

    /// The stable lowercase CLI name of this variant.
    fn value_name(&self) -> &'static str;

    /// Parses a [`ValueEnum::value_name`] back into its variant; the error
    /// enumerates every accepted value.
    fn parse_value(raw: &str) -> Result<Self, String> {
        Self::value_variants()
            .iter()
            .copied()
            .find(|v| v.value_name() == raw)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::value_variants()
                    .iter()
                    .map(|v| v.value_name())
                    .collect();
                format!(
                    "invalid value `{raw}` (possible values: {})",
                    names.join(", ")
                )
            })
    }
}

impl ValueEnum for RelaxImpl {
    fn value_variants() -> &'static [Self] {
        &RelaxImpl::ALL
    }

    fn value_name(&self) -> &'static str {
        self.name()
    }
}

impl ValueEnum for FsyncPolicy {
    fn value_variants() -> &'static [Self] {
        &FsyncPolicy::ALL
    }

    fn value_name(&self) -> &'static str {
        self.name()
    }
}

/// Every APSP algorithm selectable from the CLI, by its stable name. Each
/// one runs through the [`Runner`], so each takes a cap, a deadline, a
/// ledger or resume checkpoint, a store and a solver alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// **ParAPSP** (paper Alg. 8): MultiLists ordering + dynamic-cyclic.
    ParApsp,
    /// **ParAlg1** (§3.1): no ordering, block partitioning.
    ParAlg1,
    /// **ParAlg2** (Alg. 4): selection-sort ordering + dynamic-cyclic.
    ParAlg2,
    /// The wave-parallel extension of Peng's adaptive variant.
    ParAdaptive,
    /// Peng's sequential basic algorithm (Alg. 2).
    SeqBasic,
    /// Peng's sequential optimized algorithm (Alg. 3).
    SeqOptimized,
    /// Peng's adaptive sequential variant (intermediate-credit ordering).
    SeqAdaptive,
    /// The simulated distributed-memory cluster driver.
    Dist,
}

impl EngineKind {
    /// Whether the algorithm runs the row kernel in this process, i.e.
    /// honours `--relax`: every one but the dist driver, whose nodes always
    /// run the default (`auto`) relax implementation.
    pub fn uses_kernel(self) -> bool {
        self != EngineKind::Dist
    }

    /// Whether the algorithm sweeps its sources through the configured
    /// loop [`Schedule`], i.e. honours `--schedule`. The sequential
    /// family runs one thread (every schedule degenerates to index
    /// order) and the dist driver deals its sources itself, so overriding
    /// theirs would be silently ignored.
    pub fn honours_schedule(self) -> bool {
        matches!(
            self,
            EngineKind::ParApsp
                | EngineKind::ParAlg1
                | EngineKind::ParAlg2
                | EngineKind::ParAdaptive
        )
    }
}

impl ValueEnum for EngineKind {
    fn value_variants() -> &'static [Self] {
        &[
            EngineKind::ParApsp,
            EngineKind::ParAlg1,
            EngineKind::ParAlg2,
            EngineKind::ParAdaptive,
            EngineKind::SeqBasic,
            EngineKind::SeqOptimized,
            EngineKind::SeqAdaptive,
            EngineKind::Dist,
        ]
    }

    fn value_name(&self) -> &'static str {
        match self {
            EngineKind::ParApsp => "par-apsp",
            EngineKind::ParAlg1 => "par-alg1",
            EngineKind::ParAlg2 => "par-alg2",
            EngineKind::ParAdaptive => "par-adaptive",
            EngineKind::SeqBasic => "seq-basic",
            EngineKind::SeqOptimized => "seq-optimized",
            EngineKind::SeqAdaptive => "seq-adaptive",
            EngineKind::Dist => "dist",
        }
    }
}

// ---------------------------------------------------------------------------
// RunConfig
// ---------------------------------------------------------------------------

/// Where and how often a run journals its completed rows to a
/// [`RowLedger`], and when the appends are fsynced.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// The run ledger: created fresh, or recovered when it exists.
    pub path: PathBuf,
    /// Completed work units between ledger commits (must be ≥ 1).
    pub every: usize,
    /// When ledger appends reach the disk.
    pub fsync: FsyncPolicy,
}

/// Every knob of an APSP run in one builder-style value: thread count,
/// loop schedule, source ordering, kernel ablation switches (row reuse,
/// queue dedup, distance cap, relax implementation), ledger policy,
/// and report label.
///
/// Named constructors pin the paper's algorithm configurations; `with_*`
/// methods override any piece. The config is engine-agnostic — the same
/// value drives any [`Engine`] through a [`Runner`] (engines ignore knobs
/// that don't apply to them, e.g. the dist driver ignores the ordering
/// procedure and schedule).
#[derive(Debug, Clone)]
pub struct RunConfig {
    threads: usize,
    schedule: Schedule,
    ordering: OrderingProcedure,
    kernel: KernelOptions,
    store: StoreSpec,
    checkpoint: Option<CheckpointPolicy>,
    label: Option<String>,
}

impl RunConfig {
    /// A bare config: identity ordering, block schedule, default kernel,
    /// no ledger, engine-chosen label.
    pub fn new(threads: usize) -> Self {
        RunConfig {
            threads,
            schedule: Schedule::Block,
            ordering: OrderingProcedure::Identity,
            kernel: KernelOptions::default(),
            store: StoreSpec::default(),
            checkpoint: None,
            label: None,
        }
    }

    /// **ParAPSP** (Alg. 8): MultiLists ordering + dynamic-cyclic schedule.
    pub fn par_apsp(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::multi_lists())
            .with_label("ParAPSP")
    }

    /// **ParAlg1** (§3.1): no ordering, block partitioning.
    pub fn par_alg1(threads: usize) -> Self {
        RunConfig::new(threads).with_label("ParAlg1")
    }

    /// **ParAlg2** (Alg. 4): selection ordering + dynamic-cyclic schedule.
    pub fn par_alg2(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::selection())
            .with_label("ParAlg2")
    }

    /// The ParBuckets variant (§4.1): approximate parallel bucket ordering.
    pub fn par_buckets(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::par_buckets())
            .with_label("ParBuckets")
    }

    /// The ParMax variant (§4.2): exact max+1-bucket ordering.
    pub fn par_max(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::par_max())
            .with_label("ParMax")
    }

    /// Peng's sequential basic algorithm (Alg. 2): index order, 1 thread,
    /// the paper's kernel. This is the bit-identity reference, so it pins
    /// [`SolverKind::Dijkstra`] rather than following the `auto` default;
    /// every `seq_*` constructor does the same.
    pub fn seq_basic() -> Self {
        RunConfig::new(1)
            .with_solver(SolverKind::Dijkstra)
            .with_label("SeqBasic")
    }

    /// Peng's sequential optimized algorithm (Alg. 3): partial selection
    /// sort with ratio `r`, 1 thread.
    pub fn seq_optimized(ratio: f64) -> Self {
        RunConfig::seq_basic()
            .with_ordering(OrderingProcedure::SelectionSort { ratio })
            .with_label("SeqOptimized")
    }

    /// [`RunConfig::seq_optimized`] with the O(n) exact bucket ordering.
    pub fn seq_optimized_bucket() -> Self {
        RunConfig::seq_basic()
            .with_ordering(OrderingProcedure::SeqBucket)
            .with_label("SeqOptimizedBucket")
    }

    /// Peng's adaptive sequential variant: pair with
    /// `AdaptiveEngine::new(credit_weight, 1)`, which picks the order at
    /// run time.
    pub fn seq_adaptive(credit_weight: u64) -> Self {
        RunConfig::seq_basic().with_label(format!("SeqAdaptive(w={credit_weight})"))
    }

    /// The wave-parallel adaptive extension: pair with
    /// `AdaptiveEngine::new(16, 8)`. Each wave is swept dynamic-cyclic.
    pub fn par_adaptive(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_label("ParAdaptive")
    }

    /// Subset-of-sources runs: degree-ordered, dynamic-cyclic.
    pub fn subset(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::SeqBucket)
    }

    /// Overrides the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the loop schedule (for the Fig. 1 scheduling study).
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides the source ordering procedure.
    pub fn with_ordering(mut self, ordering: OrderingProcedure) -> Self {
        self.ordering = ordering;
        self
    }

    /// Overrides the kernel ablation switches.
    pub fn with_kernel_options(mut self, kernel: KernelOptions) -> Self {
        self.kernel = kernel;
        self
    }

    /// Caps computed distances: pairs farther apart than `cap` are left at
    /// `INF`. Exact within the cap.
    pub fn with_max_distance(mut self, cap: u32) -> Self {
        self.kernel.max_distance = Some(cap);
        self
    }

    /// Selects the row-relaxation implementation (see [`crate::relax`]).
    pub fn with_relax(mut self, relax: RelaxImpl) -> Self {
        self.kernel.relax = relax;
        self
    }

    /// Selects the per-source SSSP solver (see [`crate::solver`]).
    /// [`SolverKind::Auto`] is resolved against the graph when the engine
    /// prepares the run.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.kernel.solver = solver;
        self
    }

    /// Selects the distance-matrix storage backend (see [`crate::store`]).
    /// The default dense store is the bit-identity reference; the mmap
    /// tier trades row-read cost for memory. Every backend yields a
    /// bit-identical final matrix, and row reuse fires on both: mmap
    /// lends rows through pinned hot-row cache leases.
    pub fn with_store(mut self, store: StoreSpec) -> Self {
        self.store = store;
        self
    }

    /// Persists progress through an append-only [`RowLedger`] at `path`:
    /// after every `every` completed work units the [`Runner`] appends the
    /// newly completed rows (O(row) bytes each) and commits them. The
    /// ledger is opened with crash recovery — a torn tail from a previous
    /// incarnation is truncated and its valid rows are folded into the
    /// resume state, so pointing a run at its own ledger after a crash
    /// resumes it. Engines whose rows are not final mid-run
    /// ([`Engine::row_checkpoints`] is `false`) write no ledger, except the
    /// dist driver, which journals its gather itself.
    ///
    /// # Panics
    ///
    /// Panics when `every` is zero, and later — during the run — with
    /// `run ledger <path>: <err>` if the ledger cannot be opened or
    /// appended to (durability was explicitly requested; a silently
    /// unwritable ledger would defeat it).
    pub fn with_ledger(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(
            every > 0,
            "ledger commit interval must be at least 1 source"
        );
        self.checkpoint = Some(CheckpointPolicy {
            path: path.into(),
            every,
            fsync: FsyncPolicy::default(),
        });
        self
    }

    /// Overrides the ledger fsync policy (see [`FsyncPolicy`]).
    ///
    /// # Panics
    ///
    /// Panics when no ledger was configured first.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        let policy = self
            .checkpoint
            .as_mut()
            .expect("configure a ledger before its fsync policy");
        policy.fsync = fsync;
        self
    }

    /// Overrides the report label (defaults to the engine's name).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured loop schedule.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Configured source ordering procedure.
    pub fn ordering(&self) -> OrderingProcedure {
        self.ordering
    }

    /// Configured kernel switches.
    pub fn kernel(&self) -> KernelOptions {
        self.kernel
    }

    /// Configured distance-matrix storage backend.
    pub fn store(&self) -> &StoreSpec {
        &self.store
    }

    /// Configured ledger policy, if any.
    pub fn checkpoint(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }

    /// Configured label override, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }
}

// ---------------------------------------------------------------------------
// The Engine trait
// ---------------------------------------------------------------------------

/// What [`Engine::prepare`] hands back to the [`Runner`]: the ordered work
/// units plus how long the ordering phase took.
#[derive(Debug)]
pub struct Plan {
    /// Work units in execution order. For the row engines these are source
    /// vertices (resume-filtered); for [`SubsetEngine`] they are slot
    /// indices into its source list; the dist driver plans one unit, the
    /// whole cluster run; adaptive engines may treat them as opaque step
    /// counters.
    pub units: Vec<u32>,
    /// Wall time spent computing the source ordering.
    pub ordering: Duration,
}

/// Everything [`Engine::run_rows`] may need, borrowed from the [`Runner`].
pub struct RowsCtx<'a> {
    /// The pool executing this run.
    pub pool: &'a ThreadPool,
    /// The run's configuration.
    pub config: &'a RunConfig,
    /// Cooperative cancellation token; engines poll it at unit boundaries.
    pub token: Option<&'a CancelToken>,
    /// Per-unit timing sink ([`Runner::run_traced`]), indexed by unit id.
    pub trace: Option<&'a ParSlice<'a, u64>>,
}

/// How a batch of work units ended — [`CancelStatus::Continue`] when every
/// unit ran, a stop status when the engine drained early.
pub type RowsOutcome = CancelStatus;

/// Timings and identity the [`Runner`] assembled for [`Engine::finish`].
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Ordering / sweep / total phase wall times.
    pub timings: PhaseTimings,
    /// Worker threads the pool actually ran.
    pub threads: usize,
    /// Report label: the config override or the engine's name.
    pub label: String,
}

/// One APSP algorithm, expressed as the four phase hooks the [`Runner`]
/// drives: plan, execute, snapshot, assemble.
///
/// Implementations own their mutable state (distance matrix, scratch
/// space, counters) across the hook calls; the `Runner` owns the
/// lifecycle — it validates resume checkpoints, batches units for the
/// run ledger, journals completed rows through it, and wraps early stops
/// into [`RunOutcome`]s.
pub trait Engine {
    /// What a completed run yields.
    type Output;

    /// The engine's display name, used as the report label when the
    /// [`RunConfig`] does not override it.
    fn name(&self) -> &str;

    /// Whether the [`Runner`] journals this engine's completed rows,
    /// batch by batch, to the configured ledger. An engine that runs as
    /// one indivisible unit — the dist driver, which journals its gather
    /// itself — returns `false`, and the [`Runner`] opens no ledger for
    /// it.
    fn row_checkpoints(&self) -> bool {
        true
    }

    /// Computes the source ordering, applies a resume checkpoint (already
    /// size-validated by the [`Runner`]), and allocates run state.
    /// Returns the remaining work units.
    fn prepare(
        &mut self,
        graph: &CsrGraph,
        config: &RunConfig,
        pool: &ThreadPool,
        resume: Option<Checkpoint>,
    ) -> Plan;

    /// Executes a batch of work units, polling `ctx.token` at unit
    /// boundaries. Returns [`CancelStatus::Continue`] when the batch
    /// completed, or the stop status after draining (every started unit
    /// finished — partial state must be consistent for
    /// [`Engine::snapshot`]).
    fn run_rows(&mut self, graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome;

    /// A consistent version-2 checkpoint of all completed work: the stop
    /// snapshot of a cancelled run (through [`Engine::into_snapshot`]) and
    /// the source of the default [`Engine::visit_rows`].
    fn snapshot(&self) -> Checkpoint;

    /// Visits completed rows for incremental (ledger) persistence: called
    /// by the [`Runner`] between batches with the unit batch that just
    /// ran. The engine invokes `visit` with each completed `(source, row)`
    /// it can attribute to the batch — visiting extra already-completed
    /// rows is fine (the `Runner` deduplicates), missing a completed one
    /// only delays its append to a later batch.
    ///
    /// The default builds a full [`Engine::snapshot`] and visits every
    /// completed row — correct for any engine, O(n²) per batch. Row
    /// engines override this with an O(batch · row) walk of their
    /// published rows.
    fn visit_rows(&self, _units: &[u32], visit: &mut dyn FnMut(u32, &[u32])) {
        let snapshot = self.snapshot();
        for s in 0..snapshot.n() as u32 {
            if snapshot.completed()[s as usize] {
                visit(s, snapshot.matrix().row(s));
            }
        }
    }

    /// Like [`Engine::snapshot`], but consumes the engine — the final
    /// snapshot of a stopped run, so implementations can move their
    /// distance state into the checkpoint instead of cloning it. The
    /// default delegates to [`Engine::snapshot`] (an O(n²) copy); the row
    /// engines override it with a zero-copy handoff of their store.
    fn into_snapshot(self) -> Checkpoint
    where
        Self: Sized,
    {
        self.snapshot()
    }

    /// Assembles the completed run's output.
    fn finish(self, graph: &CsrGraph, summary: RunSummary) -> Self::Output
    where
        Self: Sized;
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// The execution driver: pairs a [`RunConfig`] with any [`Engine`] and
/// owns the full run lifecycle exactly once.
#[derive(Debug, Clone)]
pub struct Runner {
    config: RunConfig,
}

impl Runner {
    /// A runner for `config`.
    pub fn new(config: RunConfig) -> Self {
        Runner { config }
    }

    /// The runner's configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Runs `engine` to completion on a fresh thread pool.
    pub fn run<E: Engine>(&self, engine: E, graph: &CsrGraph) -> E::Output {
        let pool = ThreadPool::new(self.config.threads);
        // Without a token the sweep cannot stop early.
        self.drive(engine, graph, &pool, None, None, None)
            .unwrap_complete()
    }

    /// Runs `engine` on an existing pool (the pool's thread count wins
    /// over the configured one).
    pub fn run_with_pool<E: Engine>(
        &self,
        engine: E,
        graph: &CsrGraph,
        pool: &ThreadPool,
    ) -> E::Output {
        self.drive(engine, graph, pool, None, None, None)
            .unwrap_complete()
    }

    /// Cancellable [`Runner::run`]: the engine polls `token` at unit
    /// boundaries; on a stop the workers drain and the outcome carries a
    /// consistent checkpoint of every completed row, valid as input to
    /// [`Runner::run_resumed`] (which lands on the bit-identical final
    /// result).
    pub fn run_with_token<E: Engine>(
        &self,
        engine: E,
        graph: &CsrGraph,
        token: &CancelToken,
    ) -> RunOutcome<E::Output> {
        let pool = ThreadPool::new(self.config.threads);
        self.drive(engine, graph, &pool, None, Some(token), None)
    }

    /// Continues an interrupted run from a checkpoint: rows the checkpoint
    /// marks complete are pre-published, and only the missing units are
    /// executed. Because published rows are final, the output is
    /// bit-identical to an uninterrupted run.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint's matrix size does not match `graph`.
    pub fn run_resumed<E: Engine>(
        &self,
        engine: E,
        graph: &CsrGraph,
        checkpoint: Checkpoint,
    ) -> E::Output {
        let pool = ThreadPool::new(self.config.threads);
        self.drive(engine, graph, &pool, Some(checkpoint), None, None)
            .unwrap_complete()
    }

    /// Cancellable [`Runner::run_resumed`]: continues from `checkpoint`
    /// and may itself be interrupted again, yielding a newer checkpoint.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint's matrix size does not match `graph`.
    pub fn run_resumed_with_token<E: Engine>(
        &self,
        engine: E,
        graph: &CsrGraph,
        checkpoint: Checkpoint,
        token: &CancelToken,
    ) -> RunOutcome<E::Output> {
        let pool = ThreadPool::new(self.config.threads);
        self.drive(engine, graph, &pool, Some(checkpoint), Some(token), None)
    }

    /// Like [`Runner::run`], additionally returning the wall time each
    /// work *unit* spent executing (indexed by unit id — source vertex for
    /// the row engines). This is the per-row timing hook that used to be
    /// `ParApsp::run_traced`'s separate code path.
    pub fn run_traced<E: Engine>(&self, engine: E, graph: &CsrGraph) -> (E::Output, Vec<Duration>) {
        let pool = ThreadPool::new(self.config.threads);
        let n = graph.vertex_count();
        let mut nanos: Vec<u64> = vec![0; n];
        let out = {
            let view = ParSlice::new(&mut nanos[..]);
            self.drive(engine, graph, &pool, None, None, Some(&view))
                .unwrap_complete()
        };
        (out, nanos.into_iter().map(Duration::from_nanos).collect())
    }

    /// The single lifecycle implementation every entry point funnels into.
    fn drive<E: Engine>(
        &self,
        mut engine: E,
        graph: &CsrGraph,
        pool: &ThreadPool,
        resume: Option<Checkpoint>,
        token: Option<&CancelToken>,
        trace: Option<&ParSlice<'_, u64>>,
    ) -> RunOutcome<E::Output> {
        if let Some(cp) = &resume {
            assert_eq!(
                cp.n(),
                graph.vertex_count(),
                "checkpoint is for a {}-vertex matrix but the graph has {} vertices",
                cp.n(),
                graph.vertex_count()
            );
        }
        let start = Instant::now();
        // A ledger policy opens (and crash-recovers) its file before
        // `prepare`, so rows replayed from the torn-tail recovery join the
        // resume state, and rows only the `--resume` artifact knows about
        // are backfilled into the ledger. A fresh ledger with nothing to
        // resume yields no checkpoint, so `prepare` allocates no replay
        // matrix.
        let policy = self
            .config
            .checkpoint
            .as_ref()
            .filter(|_| engine.row_checkpoints());
        let (ledger, resume) = match policy {
            Some(policy) => {
                let n = graph.vertex_count();
                let (ledger, merged) =
                    RowLedger::open_merged(&policy.path, n, policy.fsync, resume)
                        .unwrap_or_else(|err| persist::ledger_panic(&policy.path, err));
                let logged = match &merged {
                    Some(merged) => merged.completed().to_vec(),
                    None => vec![false; n],
                };
                (Some((policy, ledger, logged)), merged)
            }
            None => (None, resume),
        };
        let plan = engine.prepare(graph, &self.config, pool, resume);
        let ctx = RowsCtx {
            pool,
            config: &self.config,
            token,
            trace,
        };
        let t_sssp = Instant::now();
        let status = match ledger {
            Some((policy, ledger, logged)) => run_ledgered(
                &mut engine,
                graph,
                &plan.units,
                &ctx,
                policy,
                ledger,
                logged,
            ),
            None => engine.run_rows(graph, &plan.units, &ctx),
        };
        let sssp = t_sssp.elapsed();

        if status.is_stop() {
            // The cancellable loop has drained: no unit is mid-flight, so
            // the published rows form a consistent partial result. The
            // engine is consumed so row engines can move their store into
            // the checkpoint instead of cloning the whole matrix — the
            // ledger writer has already appended and committed the
            // stopping chunk's completed rows, so nothing else reads the
            // engine.
            return RunOutcome::from_stop(status, engine.into_snapshot());
        }

        let label = match &self.config.label {
            Some(label) => label.clone(),
            None => engine.name().to_owned(),
        };
        let summary = RunSummary {
            timings: PhaseTimings {
                ordering: plan.ordering,
                sssp,
                total: start.elapsed(),
            },
            threads: pool.num_threads(),
            label,
        };
        RunOutcome::Complete(engine.finish(graph, summary))
    }
}

/// One ledger batch on its way to the writer thread of [`run_ledgered`]:
/// the completed rows not yet logged, back to back in `rows`, one per
/// entry of `sources`. The writer hands the buffers back for reuse.
#[derive(Default)]
struct LedgerBatch {
    sources: Vec<u32>,
    rows: Vec<u32>,
}

/// Runs `units` in batches of `policy.every` and journals every batch's
/// completed rows to `ledger`, which the replay in `logged` has already
/// recovered.
///
/// Between batches no row owner is active, so every row the engine
/// reports completed is final. The batch's `visit_rows` callback only
/// copies each row not yet logged into one recycled batch buffer; the
/// buffer goes to a writer thread that owns the ledger, which appends the
/// whole batch in one call ([`RowLedger::append_batch`]) and commits it
/// while the pool computes the next batch. At most one batch waits for
/// the writer, so the ledger trails the sweep by at most one batch plus
/// the one being written. The writer is joined before this returns —
/// after the last batch, after a stop, and on unwind, when dropping the
/// sender ends it — so a stopped run's ledger holds exactly its completed
/// rows.
///
/// # Panics
///
/// Re-raises an engine panic, and panics with `run ledger <path>: <err>`
/// when the writer fails to append, commit or close the ledger.
fn run_ledgered<E: Engine>(
    engine: &mut E,
    graph: &CsrGraph,
    units: &[u32],
    ctx: &RowsCtx<'_>,
    policy: &CheckpointPolicy,
    mut ledger: RowLedger,
    mut logged: Vec<bool>,
) -> RowsOutcome {
    let n = graph.vertex_count();
    let (tx, rx) = sync_channel::<LedgerBatch>(1);
    let (spare_tx, spare_rx) = sync_channel::<LedgerBatch>(2);
    let (status, written) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            for batch in rx {
                ledger.append_batch(&batch.sources, &batch.rows)?;
                ledger.commit()?;
                let _ = spare_tx.try_send(batch);
            }
            ledger.finish()
        });
        let mut status = CancelStatus::Continue;
        for chunk in units.chunks(policy.every) {
            status = engine.run_rows(graph, chunk, ctx);
            let mut batch = spare_rx.try_recv().unwrap_or_default();
            batch.sources.clear();
            batch.rows.clear();
            batch.rows.reserve(chunk.len() * n);
            engine.visit_rows(chunk, &mut |s, row| {
                if !logged[s as usize] {
                    batch.sources.push(s);
                    batch.rows.extend_from_slice(row);
                    logged[s as usize] = true;
                }
            });
            // A failed writer has dropped its receiver: stop at the end of
            // the batch and raise its error.
            if tx.send(batch).is_err() || status.is_stop() {
                break;
            }
        }
        drop(tx);
        (status, writer.join())
    });
    match written {
        Ok(Ok(())) => status,
        Ok(Err(err)) => persist::ledger_panic(&policy.path, err),
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

// ---------------------------------------------------------------------------
// ApspEngine — the shared-memory parallel row engine
// ---------------------------------------------------------------------------

/// The shared-memory parallel APSP engine: the resolved row solver from
/// every source, sources as independent tasks over the configured
/// ordering and schedule — one source per task, or one batch of up to 64
/// for the multi-source BFS — rows shared through the Release/Acquire
/// publication protocol.
///
/// Pair with the `RunConfig::par_*` constructors to reproduce the paper's
/// drivers (ParAlg1, ParAlg2, ParBuckets, ParMax, ParAPSP). The type
/// parameter picks the output: [`ApspOutput`] (the default, from
/// [`ApspEngine::new`]) collapses the store into a dense matrix, while
/// `ApspEngine::<StoreRunOutput>::default()` hands back the live
/// [`Store`] — an out-of-core run never materializes the O(n²) matrix.
pub struct ApspEngine<O = ApspOutput> {
    store: Option<Store>,
    locals: Option<PerThread<(Workspace, Counters, Duration)>>,
    solver: Option<RowSolver>,
    output: PhantomData<fn() -> O>,
}

impl<O> Default for ApspEngine<O> {
    fn default() -> Self {
        ApspEngine {
            store: None,
            locals: None,
            solver: None,
            output: PhantomData,
        }
    }
}

impl ApspEngine {
    /// A fresh engine; all behaviour comes from the [`RunConfig`].
    pub fn new() -> Self {
        ApspEngine::default()
    }
}

/// What a row engine's run can hand back: built from the completed
/// store, the merged counters, per-thread busy times and the run summary.
pub trait FromStore {
    /// Assembles the output of a completed run.
    fn from_store(
        store: Store,
        counters: Counters,
        thread_busy: Vec<Duration>,
        summary: RunSummary,
    ) -> Self;
}

impl FromStore for ApspOutput {
    fn from_store(
        store: Store,
        counters: Counters,
        thread_busy: Vec<Duration>,
        summary: RunSummary,
    ) -> Self {
        ApspOutput {
            dist: store.into_matrix(),
            timings: summary.timings,
            counters,
            threads: summary.threads,
            algorithm: summary.label,
            thread_busy,
        }
    }
}

/// A completed run with the store still in its configured backend, plus
/// the usual run report fields. The `store_scaling` bench and the
/// bounded-memory smoke use it to measure per-backend residency.
pub struct StoreRunOutput {
    /// The completed distance matrix, resident in the selected backend.
    pub store: Store,
    /// Ordering / sweep / total phase wall times.
    pub timings: PhaseTimings,
    /// Merged kernel counters.
    pub counters: Counters,
    /// Worker threads the run used.
    pub threads: usize,
    /// Report label.
    pub algorithm: String,
}

impl FromStore for StoreRunOutput {
    fn from_store(
        store: Store,
        counters: Counters,
        _thread_busy: Vec<Duration>,
        summary: RunSummary,
    ) -> Self {
        StoreRunOutput {
            store,
            timings: summary.timings,
            counters,
            threads: summary.threads,
            algorithm: summary.label,
        }
    }
}

/// Allocates a row engine's store. A resumed run pre-publishes the
/// checkpoint's completed rows and sweeps only the rest, in the same order
/// a fresh run would visit them. Returns the store, the units left to
/// run, and the completed flags.
fn open_store(
    n: usize,
    order: Vec<u32>,
    resume: Option<Checkpoint>,
    spec: &StoreSpec,
) -> (Store, Vec<u32>, Vec<bool>) {
    match resume {
        Some(checkpoint) => {
            let (dist, completed) = checkpoint.into_parts();
            let units = order
                .into_iter()
                .filter(|&s| !completed[s as usize])
                .collect();
            (Store::from_parts(dist, &completed, spec), units, completed)
        }
        None => (Store::new(n, spec), order, vec![false; n]),
    }
}

/// Folds the store's pinned-byte high-water mark into `counters`: it
/// lives in the store's cache, not in any per-thread counter.
fn with_pinned_peak(mut counters: Counters, store: &Store) -> Counters {
    counters.pinned_bytes_peak = counters.pinned_bytes_peak.max(store.pinned_bytes_peak());
    counters
}

impl<O: FromStore> Engine for ApspEngine<O> {
    type Output = O;

    fn name(&self) -> &str {
        "ParApsp"
    }

    fn prepare(
        &mut self,
        graph: &CsrGraph,
        config: &RunConfig,
        pool: &ThreadPool,
        resume: Option<Checkpoint>,
    ) -> Plan {
        let n = graph.vertex_count();
        let degrees = degree::out_degrees(graph);
        let t_order = Instant::now();
        let order = config.ordering().compute(&degrees, pool);
        let ordering = t_order.elapsed();
        debug_assert_eq!(order.len(), n);

        let (store, units, _) = open_store(n, order, resume, config.store());
        self.store = Some(store);
        self.locals = Some(PerThread::from_fn(pool.num_threads(), |_| {
            (Workspace::new(n), Counters::default(), Duration::ZERO)
        }));
        self.solver = Some(RowSolver::resolve(graph, config.kernel(), false));
        Plan { units, ordering }
    }

    fn run_rows(&mut self, graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome {
        let store = self.store.as_ref().expect("prepare() not called");
        let locals = self.locals.as_ref().expect("prepare() not called");
        let solver = self.solver.as_ref().expect("prepare() not called");
        let kernel = ctx.config.kernel();
        let trace = ctx.trace;
        // One loop iteration solves one batch of sources: a single source
        // for the per-row solvers, up to 64 for MS-BFS.
        let width = solver.batch_width(units.len(), ctx.pool.num_threads());
        let batches = units.len().div_ceil(width);
        let body = |tid: usize, k: usize| {
            let sources = &units[k * width..units.len().min((k + 1) * width)];
            // SAFETY: each pool thread touches only its own scratch slot.
            let (ws, counters, busy) = unsafe { locals.get_mut(tid) };
            let t0 = Instant::now();
            // `units` is drawn from a permutation, so every source of the
            // batch belongs to exactly this iteration — satisfying the
            // unique-row-owner contract of the solvers (and of
            // `Store::try_row_mut`).
            solver.solve_rows(graph, sources, store, ws, kernel, counters);
            let elapsed = t0.elapsed();
            *busy += elapsed;
            if let Some(view) = trace {
                // A batch's sources share its time; every slot reads at
                // least 1 ns.
                let per_row = (elapsed.as_nanos() as u64 / sources.len() as u64).max(1);
                for &s in sources {
                    // SAFETY: as above, the trace slot of `s` belongs
                    // exclusively to this iteration.
                    unsafe { view.write(s as usize, per_row) };
                }
            }
        };
        match ctx.token {
            Some(token) => {
                ctx.pool
                    .parallel_for_cancellable(batches, ctx.config.schedule(), token, body)
            }
            None => {
                ctx.pool.parallel_for(batches, ctx.config.schedule(), body);
                CancelStatus::Continue
            }
        }
    }

    fn snapshot(&self) -> Checkpoint {
        let (dist, completed) = self
            .store
            .as_ref()
            .expect("prepare() not called")
            .snapshot();
        Checkpoint::new(dist, completed)
    }

    fn into_snapshot(self) -> Checkpoint {
        // Moves the store into the checkpoint — zero-copy for the dense
        // backend — instead of the default's full snapshot clone.
        let (dist, completed) = self.store.expect("prepare() not called").into_parts();
        Checkpoint::new(dist, completed)
    }

    fn visit_rows(&self, units: &[u32], visit: &mut dyn FnMut(u32, &[u32])) {
        // Units are source vertices; a published row is final.
        let store = self.store.as_ref().expect("prepare() not called");
        store.visit_published(units.iter().copied(), visit);
    }

    fn finish(self, _graph: &CsrGraph, summary: RunSummary) -> O {
        let store = self.store.expect("prepare() not called");
        debug_assert_eq!(store.published_count(), store.n());
        let mut counters = Counters::default();
        let mut thread_busy = Vec::with_capacity(summary.threads);
        for (_, c, busy) in self.locals.expect("prepare() not called").into_inner() {
            counters.merge(&c);
            thread_busy.push(busy);
        }
        let counters = with_pinned_peak(counters, &store);
        O::from_store(store, counters, thread_busy, summary)
    }
}

// ---------------------------------------------------------------------------
// AdaptiveEngine — the run-time source order
// ---------------------------------------------------------------------------

/// The adaptive row engine: Peng's adaptive variant and its wave-parallel
/// extension in one implementation.
///
/// The source order is chosen at run time. Vertices that relay shortest
/// paths accumulate *intermediate credit*; each wave sweeps the
/// `wave × threads` unprocessed sources that rank highest by
/// `credit · credit_weight + degree` (ties go to the lower id) on the pool
/// under the config's schedule, then folds the wave's per-thread credit
/// into the ranking. Within a wave the order is fixed, so the wave
/// parallelizes like ParAPSP.
///
/// `AdaptiveEngine::new(w, 1)` on one thread is Peng's sequential adaptive
/// algorithm ([`RunConfig::seq_adaptive`]): every wave is the one argmax
/// source. [`RunConfig::par_adaptive`] runs `AdaptiveEngine::new(16, 8)`.
/// The plan's units are opaque step counters, one per source left to run.
pub struct AdaptiveEngine {
    credit_weight: u64,
    wave: usize,
    store: Option<Store>,
    locals: Option<PerThread<WaveLocals>>,
    solver: Option<RowSolver>,
    degrees: Vec<u32>,
    credit: Vec<u64>,
    /// The sources not yet picked with their last rank score, in no
    /// particular order.
    remaining: Vec<(u64, u32)>,
    /// The sources the last `run_rows` batch picked, in sweep order.
    picked: Vec<u32>,
}

/// One pool thread's scratch: workspace, counters, busy time, and the
/// credit its rows gave relaying vertices in the current wave.
type WaveLocals = (Workspace, Counters, Duration, Vec<u64>);

impl AdaptiveEngine {
    /// An engine ranking by `credit · credit_weight + degree` (a weight of
    /// 0 degenerates to the degree order) in waves of `wave` sources per
    /// pool thread.
    ///
    /// # Panics
    ///
    /// Panics when `wave` is zero.
    pub fn new(credit_weight: u64, wave: usize) -> Self {
        assert!(wave > 0, "wave size must be positive");
        AdaptiveEngine {
            credit_weight,
            wave,
            store: None,
            locals: None,
            solver: None,
            degrees: Vec::new(),
            credit: Vec::new(),
            remaining: Vec::new(),
            picked: Vec::new(),
        }
    }
}

impl Engine for AdaptiveEngine {
    type Output = ApspOutput;

    fn name(&self) -> &str {
        "Adaptive"
    }

    fn prepare(
        &mut self,
        graph: &CsrGraph,
        config: &RunConfig,
        pool: &ThreadPool,
        resume: Option<Checkpoint>,
    ) -> Plan {
        let n = graph.vertex_count();
        // The order is picked at run time; the plan only fixes how many
        // sources remain.
        let (store, units, _) = open_store(n, (0..n as u32).collect(), resume, config.store());
        self.remaining = units.iter().map(|&s| (0, s)).collect();
        self.store = Some(store);
        self.locals = Some(PerThread::from_fn(pool.num_threads(), |_| {
            (
                Workspace::new(n),
                Counters::default(),
                Duration::ZERO,
                vec![0; n],
            )
        }));
        // The order is built from per-row credit, which MS-BFS's shared
        // scans cannot attribute: `auto` resolves per row here.
        self.solver = Some(RowSolver::resolve(graph, config.kernel(), true));
        self.degrees = degree::out_degrees(graph);
        self.credit = vec![0; n];
        Plan {
            units,
            ordering: Duration::ZERO,
        }
    }

    fn run_rows(&mut self, graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome {
        let AdaptiveEngine {
            credit_weight,
            wave,
            store,
            locals,
            solver,
            degrees,
            credit,
            remaining,
            picked,
        } = self;
        let store = store.as_ref().expect("prepare() not called");
        let locals = locals.as_mut().expect("prepare() not called");
        let solver = solver.as_ref().expect("prepare() not called");
        let (credit_weight, width) = (*credit_weight, wave.saturating_mul(ctx.pool.num_threads()));
        let kernel = ctx.config.kernel();
        let trace = ctx.trace;
        picked.clear();
        let mut left = units.len();
        // Ascending rank: the highest score, then the lowest id, sorts last.
        let rank = |&(score, v): &(u64, u32)| (score, std::cmp::Reverse(v));
        while left > 0 {
            // Pick the wave: score every unpicked source, select the top
            // `take` into the tail in O(n), and sweep them best first.
            let take = width.min(left);
            for (score, v) in remaining.iter_mut() {
                *score = credit[*v as usize]
                    .saturating_mul(credit_weight)
                    .saturating_add(degrees[*v as usize] as u64);
            }
            let split = remaining.len() - take;
            if split > 0 {
                remaining.select_nth_unstable_by_key(split, rank);
            }
            remaining[split..].sort_unstable_by_key(rank);
            let start = picked.len();
            picked.extend(remaining.drain(split..).rev().map(|(_, s)| s));
            left -= take;

            let sources = &picked[start..];
            let shared = &*locals;
            let body = |tid: usize, k: usize| {
                let s = sources[k];
                // SAFETY: each pool thread touches only its own scratch slot.
                let (ws, counters, busy, feedback) = unsafe { shared.get_mut(tid) };
                let t0 = Instant::now();
                // Every source is picked exactly once, so `s` belongs to
                // exactly this iteration (the unique-row-owner contract).
                solver.solve_row(graph, s, store, ws, kernel, counters, Some(feedback));
                let elapsed = t0.elapsed();
                *busy += elapsed;
                if let Some(view) = trace {
                    // SAFETY: as above, the trace slot of `s` belongs
                    // exclusively to this iteration.
                    unsafe { view.write(s as usize, elapsed.as_nanos() as u64) };
                }
            };
            if let Some(token) = ctx.token {
                let status =
                    ctx.pool
                        .parallel_for_cancellable(take, ctx.config.schedule(), token, body);
                if status.is_stop() {
                    return status;
                }
            } else {
                ctx.pool.parallel_for(take, ctx.config.schedule(), body);
            }

            // Fold the wave's per-thread credit into the ranking.
            for (_, _, _, local) in locals.iter_mut() {
                for (global, local) in credit.iter_mut().zip(local.iter_mut()) {
                    *global += std::mem::take(local);
                }
            }
        }
        CancelStatus::Continue
    }

    fn snapshot(&self) -> Checkpoint {
        let (dist, completed) = self
            .store
            .as_ref()
            .expect("prepare() not called")
            .snapshot();
        Checkpoint::new(dist, completed)
    }

    fn into_snapshot(self) -> Checkpoint {
        let (dist, completed) = self.store.expect("prepare() not called").into_parts();
        Checkpoint::new(dist, completed)
    }

    fn visit_rows(&self, _units: &[u32], visit: &mut dyn FnMut(u32, &[u32])) {
        // The units are step counters; the batch's rows are the sources it
        // picked.
        let store = self.store.as_ref().expect("prepare() not called");
        store.visit_published(self.picked.iter().copied(), visit);
    }

    fn finish(self, _graph: &CsrGraph, summary: RunSummary) -> ApspOutput {
        let store = self.store.expect("prepare() not called");
        debug_assert_eq!(store.published_count(), store.n());
        let mut counters = Counters::default();
        let mut thread_busy = Vec::with_capacity(summary.threads);
        for (_, c, busy, _) in self.locals.expect("prepare() not called").into_inner() {
            counters.merge(&c);
            thread_busy.push(busy);
        }
        let counters = with_pinned_peak(counters, &store);
        ApspOutput::from_store(store, counters, thread_busy, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::generate::{barabasi_albert, WeightSpec};

    /// Reference solve: Alg. 2 driven through the Runner.
    fn seq_basic(graph: &CsrGraph) -> ApspOutput {
        Runner::new(RunConfig::seq_basic()).run(ApspEngine::new(), graph)
    }

    #[test]
    fn value_enum_parses_and_rejects_with_full_listing() {
        assert_eq!(
            EngineKind::parse_value("par-apsp").unwrap(),
            EngineKind::ParApsp
        );
        assert_eq!(EngineKind::parse_value("dist").unwrap(), EngineKind::Dist);
        let err = EngineKind::parse_value("par-warp").unwrap_err();
        assert!(err.contains("par-warp"));
        assert!(err.contains("par-apsp"));
        assert!(err.contains("dist"));

        assert_eq!(RelaxImpl::parse_value("avx2").unwrap(), RelaxImpl::Avx2);
        let err = RelaxImpl::parse_value("sse9").unwrap_err();
        assert!(err.contains("scalar") && err.contains("auto"));
        // The trait names agree with the pre-existing inherent names.
        for relax in RelaxImpl::ALL {
            assert_eq!(relax.value_name(), relax.name());
            assert_eq!(RelaxImpl::parse_value(relax.name()).unwrap(), relax);
        }
        // Round trip for every engine kind.
        for kind in EngineKind::value_variants() {
            assert_eq!(EngineKind::parse_value(kind.value_name()).unwrap(), *kind);
        }
    }

    #[test]
    fn runner_drives_apsp_and_seq_engines_to_identical_matrices() {
        let g = barabasi_albert(180, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 7).unwrap();
        let reference = seq_basic(&g);
        let par = Runner::new(RunConfig::par_apsp(4)).run(ApspEngine::new(), &g);
        assert_eq!(reference.dist.first_difference(&par.dist), None);
        assert_eq!(par.algorithm, "ParAPSP");
        assert_eq!(par.threads, 4);
        let seq = Runner::new(RunConfig::seq_optimized(1.0)).run(ApspEngine::new(), &g);
        assert_eq!(reference.dist.first_difference(&seq.dist), None);
        assert_eq!(seq.algorithm, "SeqOptimized");
        assert_eq!(seq.threads, 1);
        let adaptive = Runner::new(RunConfig::seq_adaptive(10)).run(AdaptiveEngine::new(10, 1), &g);
        assert_eq!(reference.dist.first_difference(&adaptive.dist), None);
        assert_eq!(adaptive.algorithm, "SeqAdaptive(w=10)");
        assert_eq!(adaptive.threads, 1);
        let par = Runner::new(RunConfig::par_adaptive(3)).run(AdaptiveEngine::new(16, 8), &g);
        assert_eq!(reference.dist.first_difference(&par.dist), None);
        assert_eq!(par.algorithm, "ParAdaptive");
        assert_eq!(par.threads, 3);
    }

    #[test]
    fn adaptive_engine_supports_cancel_and_resume() {
        let g = barabasi_albert(120, 3, WeightSpec::Uniform { lo: 1, hi: 5 }, 13).unwrap();
        for (config, wave) in [
            (RunConfig::seq_adaptive(10), 1),
            (RunConfig::par_adaptive(1), 8),
        ] {
            let runner = Runner::new(config);
            let full = runner.run(AdaptiveEngine::new(10, wave), &g);
            let token = CancelToken::with_poll_budget(35);
            let outcome = runner.run_with_token(AdaptiveEngine::new(10, wave), &g, &token);
            let cp = outcome.into_checkpoint().expect("35 < 120 sources");
            assert_eq!(cp.completed_count(), 35, "wave {wave}");
            let resumed = runner.run_resumed(AdaptiveEngine::new(10, wave), &g, cp);
            assert_eq!(
                full.dist.first_difference(&resumed.dist),
                None,
                "wave {wave}"
            );
        }
    }

    /// `(w, 1)` on one thread is Peng's adaptive order: before each source
    /// the unprocessed vertex with the highest `credit · w + degree`,
    /// the lowest id among ties, where credit counts the vertex's relays
    /// in every earlier source's kernel run.
    #[test]
    fn one_source_waves_follow_pengs_argmax_order() {
        const W: u64 = 3;
        let g = barabasi_albert(80, 2, WeightSpec::Uniform { lo: 1, hi: 6 }, 21).unwrap();
        let n = g.vertex_count();
        let config = RunConfig::seq_adaptive(W);

        // Replays Peng's loop with the kernel alone.
        let degrees = degree::out_degrees(&g);
        let store = Store::new(n, &StoreSpec::dense());
        let mut ws = Workspace::new(n);
        let mut counters = Counters::default();
        let mut credit = vec![0u64; n];
        let mut done = vec![false; n];
        let solver = RowSolver::resolve(&g, config.kernel(), true);
        let mut expected = Vec::with_capacity(n);
        for _ in 0..n {
            let s = (0..n as u32)
                .filter(|&v| !done[v as usize])
                .max_by_key(|&v| {
                    let score = credit[v as usize] * W + degrees[v as usize] as u64;
                    (score, std::cmp::Reverse(v))
                })
                .unwrap();
            done[s as usize] = true;
            expected.push(s);
            let kernel = config.kernel();
            solver.solve_row(
                &g,
                s,
                &store,
                &mut ws,
                kernel,
                &mut counters,
                Some(&mut credit),
            );
        }

        // The engine's order, read back through a ledger-sized batch of
        // one: each batch picks exactly one source.
        let mut engine = AdaptiveEngine::new(W, 1);
        let pool = ThreadPool::new(1);
        let plan = engine.prepare(&g, &config, &pool, None);
        let ctx = RowsCtx {
            pool: &pool,
            config: &config,
            token: None,
            trace: None,
        };
        let mut order = Vec::with_capacity(n);
        for unit in plan.units.chunks(1) {
            assert!(engine.run_rows(&g, unit, &ctx).is_continue());
            order.extend_from_slice(&engine.picked);
        }
        assert_eq!(order, expected);
        // The credit matters: the order is not the plain degree order.
        let mut by_degree: Vec<u32> = (0..n as u32).collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
        assert_ne!(order, by_degree);
        let out = engine.finish(&g, summary_of(1));
        assert_eq!(out.counters.relaxations, counters.relaxations);
        assert_eq!(out.counters.row_reuses, counters.row_reuses);
    }

    fn summary_of(threads: usize) -> RunSummary {
        RunSummary {
            timings: PhaseTimings::default(),
            threads,
            label: "test".to_owned(),
        }
    }

    #[test]
    fn adaptive_waves_are_exact_at_every_thread_count_and_width() {
        let g = barabasi_albert(200, 3, WeightSpec::Unit, 55).unwrap();
        let reference = crate::baselines::apsp_dijkstra(&g);
        for threads in [1, 4] {
            for wave in [1, 4, 64] {
                let out = Runner::new(RunConfig::par_adaptive(threads))
                    .run(AdaptiveEngine::new(16, wave), &g);
                assert_eq!(
                    reference.first_difference(&out.dist),
                    None,
                    "threads={threads} wave={wave}"
                );
                assert_eq!(out.counters.sources, 200);
                assert_eq!(out.thread_busy.len(), threads);
            }
        }
    }

    #[test]
    fn adaptive_waves_are_exact_on_a_weighted_directed_graph() {
        use parapsp_graph::generate::erdos_renyi_gnm;
        use parapsp_graph::Direction;
        let weights = WeightSpec::Uniform { lo: 1, hi: 20 };
        let g = erdos_renyi_gnm(150, 900, Direction::Directed, weights, 56).unwrap();
        let reference = crate::baselines::apsp_dijkstra(&g);
        let out = Runner::new(RunConfig::par_adaptive(3)).run(AdaptiveEngine::new(16, 8), &g);
        assert_eq!(reference.first_difference(&out.dist), None);
    }

    /// On a star every leaf's search relays through the hub, so the hub
    /// collects all the credit, and it leads the order (highest degree)
    /// with the leaves following in id order. Row reuse is off so that
    /// every leaf expands the hub, whichever thread finished the hub row.
    #[test]
    fn star_hub_collects_the_credit_and_leads_the_order() {
        let g = parapsp_graph::generate::star_graph(64);
        let kernel = KernelOptions {
            row_reuse: false,
            ..KernelOptions::default()
        };
        let config = RunConfig::par_adaptive(2).with_kernel_options(kernel);
        let mut engine = AdaptiveEngine::new(16, 8);
        let pool = ThreadPool::new(2);
        let plan = engine.prepare(&g, &config, &pool, None);
        let ctx = RowsCtx {
            pool: &pool,
            config: &config,
            token: None,
            trace: None,
        };
        assert!(engine.run_rows(&g, &plan.units, &ctx).is_continue());
        assert_eq!(engine.picked, (0..64).collect::<Vec<u32>>());
        assert_eq!(engine.credit[0], 63, "the hub relays every leaf's search");
        assert!(
            engine.credit[1..].iter().all(|&c| c == 0),
            "leaves never relay"
        );
        let out = engine.finish(&g, summary_of(2));
        assert_eq!(out.counters.sources, 64);
        assert!(out.dist.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "wave size")]
    fn zero_wave_size_rejected() {
        let _ = AdaptiveEngine::new(1, 0);
    }

    /// `--checkpoint-every` batch boundaries journal the same rows across
    /// engines. With one thread, identity order, and a poll budget of
    /// `BUDGET`, every row engine completes exactly rows `0..BUDGET` — and
    /// since published rows are exact, the stopped ledgers must replay
    /// the same checkpoint across par, seq, and subset. (The files differ
    /// in their bytes: each ledger header carries a fresh run id.)
    #[test]
    fn ledger_batch_boundaries_replay_identically_across_engines() {
        const BUDGET: u64 = 20;
        const EVERY: usize = 8; // not a divisor of BUDGET: exercises a mid-batch stop
        let dir = std::env::temp_dir().join("parapsp-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = barabasi_albert(90, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 5).unwrap();

        let mut replays: Vec<(String, Checkpoint)> = Vec::new();
        let mut record = |name: &str, run: &mut dyn FnMut(&std::path::Path, &CancelToken)| {
            let path = dir.join(format!("stopped-{name}.ledger"));
            std::fs::remove_file(&path).ok();
            let token = CancelToken::with_poll_budget(BUDGET);
            run(&path, &token);
            let replay = persist::load_checkpoint(&path).unwrap();
            std::fs::remove_file(&path).ok();
            replays.push((name.to_owned(), replay));
        };

        record("par", &mut |path, token| {
            let config = RunConfig::par_apsp(1)
                .with_ordering(OrderingProcedure::Identity)
                .with_ledger(path, EVERY);
            let outcome = Runner::new(config).run_with_token(ApspEngine::new(), &g, token);
            assert!(!outcome.is_complete());
        });
        record("seq", &mut |path, token| {
            let config = RunConfig::seq_basic().with_ledger(path, EVERY);
            let outcome = Runner::new(config).run_with_token(ApspEngine::new(), &g, token);
            assert!(!outcome.is_complete());
        });
        record("subset", &mut |path, token| {
            let sources: Vec<u32> = (0..90).collect();
            let config = RunConfig::subset(1)
                .with_ordering(OrderingProcedure::Identity)
                .with_ledger(path, EVERY);
            let outcome = Runner::new(config).run_with_token(SubsetEngine::new(sources), &g, token);
            assert!(!outcome.is_complete());
        });

        let (first_name, first) = &replays[0];
        for (name, replay) in &replays[1..] {
            assert_eq!(replay, first, "{name} vs {first_name}");
        }
        // The shared replay holds exactly the budgeted rows.
        assert_eq!(first.completed_count() as u64, BUDGET);
        assert!(first.completed()[..BUDGET as usize]
            .iter()
            .all(|&done| done));
    }

    /// A cancelled ledger run resumes from its own ledger (no separate
    /// `--resume` artifact needed) and lands on the bit-identical final
    /// matrix, having recomputed only the missing rows, on every store
    /// tier and fsync policy.
    #[test]
    fn ledger_runs_resume_from_their_own_file_bit_identically() {
        const BUDGET: u64 = 20;
        const EVERY: usize = 8;
        const N: usize = 90;
        let dir = std::env::temp_dir().join("parapsp-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = barabasi_albert(N, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 5).unwrap();
        let reference = seq_basic(&g);

        let stores = [StoreSpec::dense(), StoreSpec::mmap(3 * 4 * N as u64)];
        let policies = [
            ("always", FsyncPolicy::Always),
            ("commit", FsyncPolicy::Commit),
            ("never", FsyncPolicy::Never),
        ];
        for (store, (fsync_name, fsync)) in stores.iter().flat_map(|st| policies.map(|p| (st, p))) {
            let name = format!("{}-{fsync_name}", store.label());
            let path = dir.join(format!("run-{name}.ledger"));
            std::fs::remove_file(&path).ok();
            let config = RunConfig::par_apsp(2)
                .with_ordering(OrderingProcedure::Identity)
                .with_threads(1)
                .with_store(store.clone())
                .with_ledger(&path, EVERY)
                .with_fsync(fsync);
            let token = CancelToken::with_poll_budget(BUDGET);
            let outcome = Runner::new(config.clone()).run_with_token(ApspEngine::new(), &g, &token);
            assert!(!outcome.is_complete());
            // The interrupted ledger replays to exactly the budgeted rows.
            let cp = persist::load_checkpoint(&path).unwrap();
            assert_eq!(cp.completed_count() as u64, BUDGET, "{name}");

            // Re-running against the same ledger resumes implicitly.
            let resumed = Runner::new(config).run(ApspEngine::new(), &g);
            assert_eq!(
                reference.dist.first_difference(&resumed.dist),
                None,
                "{name}"
            );
            let cp = persist::load_checkpoint(&path).unwrap();
            assert!(cp.is_complete(), "{name}");
            assert_eq!(
                cp.matrix().first_difference(&reference.dist),
                None,
                "{name}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// An engine that fails in its third batch, in one of two ways.
    struct FailsMidRun {
        inner: ApspEngine,
        batches: usize,
        /// Hand the ledger a short row instead of panicking itself.
        short_row: bool,
    }

    impl Engine for FailsMidRun {
        type Output = ApspOutput;

        fn name(&self) -> &str {
            self.inner.name()
        }

        fn prepare(
            &mut self,
            graph: &CsrGraph,
            config: &RunConfig,
            pool: &ThreadPool,
            resume: Option<Checkpoint>,
        ) -> Plan {
            self.inner.prepare(graph, config, pool, resume)
        }

        fn run_rows(&mut self, graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome {
            self.batches += 1;
            if self.batches == 3 && !self.short_row {
                panic!("engine failed in batch 3");
            }
            self.inner.run_rows(graph, units, ctx)
        }

        fn snapshot(&self) -> Checkpoint {
            self.inner.snapshot()
        }

        fn visit_rows(&self, units: &[u32], visit: &mut dyn FnMut(u32, &[u32])) {
            self.inner.visit_rows(units, &mut |s, row| {
                let cut = if self.batches == 3 && self.short_row {
                    1
                } else {
                    0
                };
                visit(s, &row[cut..]);
            });
        }

        fn finish(self, graph: &CsrGraph, summary: RunSummary) -> ApspOutput {
            self.inner.finish(graph, summary)
        }
    }

    /// A run that fails mid-sweep — in the engine, or in the
    /// ledger writer — re-raises that panic on the Runner's thread instead
    /// of hanging on the writer join, and its ledger replays exactly the
    /// two whole batches that completed, bit-exact.
    #[test]
    fn failing_ledger_runs_propagate_the_panic_and_keep_whole_rows() {
        const EVERY: usize = 8;
        let dir = std::env::temp_dir().join("parapsp-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = barabasi_albert(60, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 4).unwrap();
        let reference = seq_basic(&g);
        for (name, short_row, message) in [
            ("engine", false, "engine failed in batch 3"),
            ("writer", true, "ledger rows are full n-length rows"),
        ] {
            let path = dir.join(format!("fails-in-{name}.ledger"));
            std::fs::remove_file(&path).ok();
            let config = RunConfig::par_apsp(1)
                .with_ordering(OrderingProcedure::Identity)
                .with_ledger(&path, EVERY)
                .with_fsync(FsyncPolicy::Never);
            let engine = FailsMidRun {
                inner: ApspEngine::new(),
                batches: 0,
                short_row,
            };
            let graph = g.clone();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Runner::new(config).run(engine, &graph)
                }));
                let _ = done_tx.send(run.err());
            });
            let payload = done_rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{name}: the failed run hung"))
                .unwrap_or_else(|| panic!("{name}: the failed run completed"));
            let got = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            assert!(got.contains(message), "{name}: {got}");

            let cp = persist::load_checkpoint(&path).unwrap();
            assert_eq!(cp.completed_count(), 2 * EVERY, "{name}");
            for s in 0..g.vertex_count() as u32 {
                if cp.completed()[s as usize] {
                    assert_eq!(cp.matrix().row(s), reference.dist.row(s), "{name} row {s}");
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// A `--resume` checkpoint and a recovered ledger merge: rows known
    /// only to the checkpoint are backfilled into the ledger, rows known
    /// only to the ledger join the resume state.
    #[test]
    fn ledger_merges_with_an_explicit_resume_checkpoint() {
        let dir = std::env::temp_dir().join("parapsp-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = barabasi_albert(70, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 3).unwrap();
        let reference = seq_basic(&g);

        // A checkpoint knowing rows 0..25 ...
        let resume_cp = {
            let mut completed = vec![false; 70];
            for (s, done) in completed.iter_mut().enumerate().take(25) {
                let _ = s;
                *done = true;
            }
            Checkpoint::new(reference.dist.clone(), completed)
        };
        // ... and a ledger knowing rows 20..40.
        let path = dir.join("merge.ledger");
        std::fs::remove_file(&path).ok();
        let mut ledger = RowLedger::create(&path, 70, FsyncPolicy::Never).unwrap();
        for s in 20..40u32 {
            ledger.append(s, reference.dist.row(s)).unwrap();
        }
        ledger.finish().unwrap();

        let config = RunConfig::seq_basic().with_ledger(&path, 16);
        let out = Runner::new(config).run_resumed(ApspEngine::new(), &g, resume_cp);
        assert_eq!(reference.dist.first_difference(&out.dist), None);
        // The finished ledger replays complete — including the backfilled
        // checkpoint-only rows 0..20.
        let cp = persist::load_checkpoint(&path).unwrap();
        assert!(cp.is_complete());
        std::fs::remove_file(&path).ok();
    }

    /// Every row-checkpointing engine — including the adaptive engine,
    /// whose work units are opaque counters, and the subset engine, whose
    /// units are slot indices — produces a complete, exact ledger.
    #[test]
    fn all_row_engines_fill_a_ledger_completely() {
        let dir = std::env::temp_dir().join("parapsp-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = barabasi_albert(60, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 9).unwrap();
        let reference = seq_basic(&g);

        let run = |name: &str, run: &mut dyn FnMut(&std::path::Path)| {
            let path = dir.join(format!("engine-{name}.ledger"));
            std::fs::remove_file(&path).ok();
            run(&path);
            let cp = persist::load_checkpoint(&path).unwrap();
            assert!(cp.is_complete(), "{name}");
            assert_eq!(
                cp.matrix().first_difference(&reference.dist),
                None,
                "{name}"
            );
            std::fs::remove_file(&path).ok();
        };
        run("par", &mut |path| {
            let config = RunConfig::par_apsp(4).with_ledger(path, 8);
            Runner::new(config).run(ApspEngine::new(), &g);
        });
        run("seq-adaptive", &mut |path| {
            let config = RunConfig::seq_adaptive(10).with_ledger(path, 8);
            Runner::new(config).run(AdaptiveEngine::new(10, 1), &g);
        });
        run("par-adaptive", &mut |path| {
            let config = RunConfig::par_adaptive(2).with_ledger(path, 8);
            Runner::new(config).run(AdaptiveEngine::new(16, 8), &g);
        });
        run("subset", &mut |path| {
            let sources: Vec<u32> = (0..60).collect();
            let config = RunConfig::subset(2).with_ledger(path, 8);
            Runner::new(config).run(SubsetEngine::new(sources), &g);
        });
    }

    #[test]
    fn config_accessors_round_trip() {
        let config = RunConfig::par_alg2(3)
            .with_threads(5)
            .with_max_distance(9)
            .with_relax(RelaxImpl::Portable)
            .with_label("custom");
        assert_eq!(config.threads(), 5);
        assert_eq!(config.ordering(), OrderingProcedure::selection());
        assert_eq!(config.kernel().max_distance, Some(9));
        assert_eq!(config.kernel().relax, RelaxImpl::Portable);
        assert_eq!(config.label(), Some("custom"));
        assert!(config.checkpoint().is_none());
    }
}
