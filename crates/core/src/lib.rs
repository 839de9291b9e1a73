//! ParAPSP core: Peng et al.'s fast all-pairs shortest-path algorithm and
//! the shared-memory parallelizations from Kim, Choi & Bae (ICPP'18).
//!
//! # The algorithm family
//!
//! The foundation is Peng et al.'s *modified Dijkstra* (paper Alg. 1): a
//! queue-based label-correcting SSSP that, whenever it dequeues a vertex
//! `t` whose own SSSP row is already complete (`flag[t] == 1`), relaxes the
//! whole row `D[t][*]` at once instead of expanding `t`'s edges — a dynamic
//! programming reuse of earlier sources' results.
//!
//! Two row engines run the family, one per order policy. An
//! [`ApspEngine`] sweeps a static source order:
//!
//! * [`RunConfig::seq_basic`](engine::RunConfig::seq_basic) — Alg. 2: run
//!   the kernel from every source in index order, on one thread.
//! * [`RunConfig::seq_optimized`](engine::RunConfig::seq_optimized) —
//!   Alg. 3: visit sources in descending degree order so hub rows are
//!   reusable early (2–4× faster on scale-free graphs).
//! * [`RunConfig::par_apsp`](engine::RunConfig::par_apsp) and friends —
//!   the parallel drivers: **ParAlg1**, **ParAlg2**, and the paper's
//!   contribution **ParAPSP** (MultiLists ordering + dynamic-cyclic
//!   scheduling), plus every intermediate variant, all configurable by
//!   ordering procedure and loop schedule.
//!
//! An [`AdaptiveEngine`] picks the order at run time, from the credit
//! earlier sources' searches gave each relaying vertex:
//!
//! * [`RunConfig::seq_adaptive`](engine::RunConfig::seq_adaptive) —
//!   Peng's adaptive variant (reconstructed; the ICPP paper describes but
//!   does not parallelize it), one source per wave on one thread.
//! * [`RunConfig::par_adaptive`](engine::RunConfig::par_adaptive) — its
//!   wave-parallel extension: waves of 8 sources per thread, re-ranked
//!   between waves.
//!
//! [`baselines`] holds Floyd–Warshall, binary-heap Dijkstra APSP
//! (sequential and parallel), Bellman–Ford and BFS, used for
//! cross-validation and the background comparisons in the paper's §2.
//!
//! Every engine stores its distance matrix in a [`store::Store`] — dense
//! by default, with an out-of-core tier selectable per run (see
//! [`store`]).
//!
//! # Concurrency model
//!
//! Parallel runs share one distance matrix. Row `s` is written exclusively
//! by the thread running source `s`; it becomes visible to other threads
//! only after a `Release` store of `flag[s]`, and readers check the flag
//! with `Acquire` before touching the row (see the `shared` module internals).
//! Published rows are final, so every interleaving yields the same — exact
//! — distances, which the test suite asserts against sequential runs and
//! the classic baselines.

#![warn(missing_docs)]

pub mod baselines;
pub mod blocked_fw;
pub mod dist;
pub mod dynamic;
pub mod engine;
pub mod kernel;
pub mod outcome;
pub mod paths;
pub mod persist;
pub mod relax;
mod shared;
pub mod solver;
pub mod stats;
pub mod store;
pub mod subset;

pub use dist::DistanceMatrix;
pub use engine::{
    AdaptiveEngine, ApspEngine, BlockedFwEngine, Engine, EngineKind, FromStore, RunConfig, Runner,
    StoreRunOutput, SubsetEngine, ValueEnum,
};
pub use outcome::RunOutcome;
pub use persist::{FsyncPolicy, RowLedger};
pub use relax::RelaxImpl;
pub use solver::{autotune, probe, AutoChoice, GraphProbe, SolverKind};
pub use stats::{ApspOutput, Counters, PhaseTimings};
pub use store::{LeaseOrigin, RowLease, RowSource, Store, StoreKind, StoreSpec};

/// Infinite distance (no path); re-exported from the graph crate.
pub use parapsp_graph::INF;

/// Unit tests swap in a counting allocator so the solver suite can assert
/// that `Workspace` reuse really means zero heap traffic per source in
/// steady state. The counter is thread-local so the (parallel) test
/// harness's other threads don't pollute a measurement. Only the test
/// binary pays for any of this.
#[cfg(test)]
pub(crate) mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// `alloc`/`realloc` calls made by the *current thread* since start.
    pub(crate) fn count() -> u64 {
        ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
    }

    fn bump() {
        // try_with: allocation during TLS teardown must not panic.
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    }

    struct CountingAllocator;

    // SAFETY: defers entirely to the system allocator; the counter is a
    // const-initialized thread-local Cell, which never allocates itself.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc(layout) }
        }

        /// Forwarded, not left to the trait's default (`alloc` plus a
        /// memset): the system's zeroed allocation maps fresh pages
        /// without touching them, which the huge-page advice of
        /// `dist::matrix_cells` needs. A memset faults the whole buffer
        /// in on 4 KiB pages before the advice is given.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;
}
