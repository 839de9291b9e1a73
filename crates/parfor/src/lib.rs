//! OpenMP-like shared-memory parallelism substrate for the ParAPSP
//! reproduction.
//!
//! The paper (Kim, Choi & Bae, ICPP'18) relies on three OpenMP loop
//! schedules whose semantics are load-bearing for its results:
//!
//! * the default **block** partitioning (`#pragma omp parallel for`),
//! * **static-cyclic** (`schedule(static, 1)`), and
//! * **dynamic-cyclic** (`schedule(dynamic, 1)`), which preserves the
//!   *issue order* of iterations — the property that makes the degree-ordered
//!   APSP optimization effective (paper §3.2, Fig. 1).
//!
//! Rayon's work stealing offers none of these guarantees and does not expose
//! stable thread identifiers (needed by the MultiLists ordering procedure,
//! paper Alg. 7), so this crate implements a small persistent thread pool
//! with exactly those schedules. Dynamic-cyclic is
//! [`Schedule::DynamicChunked`]`(1)`; a larger chunk is the same claim
//! loop taking several iterations per claim.
//!
//! # Quick example
//!
//! ```
//! use parapsp_parfor::{ThreadPool, Schedule};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let sum = AtomicU64::new(0);
//! pool.parallel_for(100, Schedule::dynamic_cyclic(), |_tid, i| {
//!     sum.fetch_add(i as u64, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
//! ```

#![warn(missing_docs)]

mod bitset;
mod cancel;
mod per_thread;
mod pool;
mod schedule;
mod shared_slice;
pub mod spec;

pub use bitset::BitSet;
pub use cancel::{CancelStatus, CancelToken};
pub use crossbeam::utils::CachePadded;
pub use per_thread::PerThread;
pub use pool::{ScheduleStats, ThreadPool};
pub use schedule::{block_range, Schedule};
pub use shared_slice::ParSlice;
