//! `Timed<E>`: an [`Engine`] adapter that times the Runner→Engine calls
//! from outside the program.
//!
//! The [`Runner`](parapsp_core::Runner) calls `prepare`, then
//! `run_rows` per batch, and on a ledger run `visit_rows` plus a ledger
//! commit after each batch, then `finish`. The adapter records a span per
//! call. Two gaps between calls belong to the ledger, because the Runner
//! does nothing else there: from `row_checkpoints` (asked right before the
//! ledger is opened) to `prepare` is the ledger open, and from
//! `visit_rows` returning to the next call is the commit (append
//! buffering + fsync). Inside `visit_rows` it separates the time spent in
//! the Runner's callback — where `RowLedger::append` runs — from the
//! engine's own row readback. It also injects a per-row timing sink into
//! the batch context, so traced solves take the same Runner entry point as
//! untraced ones.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use parapsp_core::engine::{Plan, RowsCtx, RowsOutcome, RunSummary};
use parapsp_core::persist::Checkpoint;
use parapsp_core::{Engine, RunConfig};
use parapsp_graph::CsrGraph;
use parapsp_parfor::{ParSlice, ThreadPool};

/// What one traced solve spent in each Engine call.
#[derive(Debug, Default)]
pub struct Spans {
    pub prepare: Duration,
    /// Σ `run_rows`.
    pub sweep: Duration,
    pub finish: Duration,
    /// `visit_rows` minus the time inside the Runner's callback.
    pub readback: Duration,
    /// Time inside the `visit_rows` callback (ledger appends).
    pub append: Duration,
    /// Rows handed to the `visit_rows` callback.
    pub appends: u64,
    /// From `row_checkpoints` to the next Engine call (ledger open).
    pub open: Duration,
    /// One gap per `visit_rows` call: until the next Engine call.
    pub commits: Vec<Duration>,
    /// Pool chunk claims from a worker's own share during the sweep.
    pub claims: u64,
    pub steals: u64,
    /// Nanoseconds each source's row took, indexed by source.
    pub row_nanos: Vec<u64>,
    gap: Option<(Gap, Instant)>,
}

/// A span between two Engine calls, closed by the later one.
#[derive(Debug, Clone, Copy)]
enum Gap {
    Open,
    Commit,
}

impl Spans {
    /// Σ of every recorded span.
    pub fn total(&self) -> Duration {
        self.prepare
            + self.sweep
            + self.finish
            + self.readback
            + self.append
            + self.open
            + self.commits.iter().sum::<Duration>()
    }

    /// Closes a pending gap at the start of the next Engine call.
    fn close_gap(&mut self) {
        match self.gap.take() {
            Some((Gap::Open, since)) => self.open += since.elapsed(),
            Some((Gap::Commit, since)) => self.commits.push(since.elapsed()),
            None => {}
        }
    }
}

/// Wraps an engine; every [`Engine`] method delegates to it.
pub struct Timed<'a, E> {
    inner: E,
    spans: &'a RefCell<Spans>,
    row_nanos: Vec<u64>,
}

impl<'a, E> Timed<'a, E> {
    /// Records into `spans`, which is reset; `n` sizes the per-row sink.
    pub fn new(inner: E, spans: &'a RefCell<Spans>, n: usize) -> Self {
        *spans.borrow_mut() = Spans::default();
        Timed {
            inner,
            spans,
            row_nanos: vec![0; n],
        }
    }
}

impl<E: Engine> Engine for Timed<'_, E> {
    type Output = E::Output;

    fn name(&self) -> &str {
        self.spans.borrow_mut().close_gap();
        self.inner.name()
    }

    fn row_checkpoints(&self) -> bool {
        let mut spans = self.spans.borrow_mut();
        spans.close_gap();
        spans.gap = Some((Gap::Open, Instant::now()));
        self.inner.row_checkpoints()
    }

    fn prepare(
        &mut self,
        graph: &CsrGraph,
        config: &RunConfig,
        pool: &ThreadPool,
        resume: Option<Checkpoint>,
    ) -> Plan {
        self.spans.borrow_mut().close_gap();
        let t0 = Instant::now();
        let plan = self.inner.prepare(graph, config, pool, resume);
        self.spans.borrow_mut().prepare += t0.elapsed();
        plan
    }

    fn run_rows(&mut self, graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome {
        self.spans.borrow_mut().close_gap();
        // Drop claims made before the sweep (the ordering's parallel loops).
        ctx.pool.take_schedule_stats();
        let sink = ParSlice::new(&mut self.row_nanos[..]);
        let traced = RowsCtx {
            pool: ctx.pool,
            config: ctx.config,
            token: ctx.token,
            trace: Some(ctx.trace.unwrap_or(&sink)),
        };
        let t0 = Instant::now();
        let status = self.inner.run_rows(graph, units, &traced);
        let elapsed = t0.elapsed();
        let stats = ctx.pool.take_schedule_stats();
        let mut spans = self.spans.borrow_mut();
        spans.sweep += elapsed;
        spans.claims += stats.pops;
        spans.steals += stats.steals;
        status
    }

    fn snapshot(&self) -> Checkpoint {
        self.inner.snapshot()
    }

    fn visit_rows(&self, units: &[u32], visit: &mut dyn FnMut(u32, &[u32])) {
        self.spans.borrow_mut().close_gap();
        let mut inside = Duration::ZERO;
        let mut rows = 0u64;
        let t0 = Instant::now();
        self.inner.visit_rows(units, &mut |s, row| {
            let t = Instant::now();
            visit(s, row);
            inside += t.elapsed();
            rows += 1;
        });
        let total = t0.elapsed();
        let mut spans = self.spans.borrow_mut();
        spans.readback += total.saturating_sub(inside);
        spans.append += inside;
        spans.appends += rows;
        spans.gap = Some((Gap::Commit, Instant::now()));
    }

    fn into_snapshot(self) -> Checkpoint {
        self.inner.into_snapshot()
    }

    fn finish(self, graph: &CsrGraph, summary: RunSummary) -> E::Output {
        self.spans.borrow_mut().close_gap();
        let t0 = Instant::now();
        let out = self.inner.finish(graph, summary);
        let mut spans = self.spans.borrow_mut();
        spans.finish += t0.elapsed();
        spans.row_nanos = self.row_nanos;
        out
    }
}
