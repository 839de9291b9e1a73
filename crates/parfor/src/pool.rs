//! A persistent thread pool with OpenMP-style *broadcast* parallel regions.
//!
//! Unlike a task queue, every parallel region runs the same closure on all
//! threads of the pool (each with a stable thread id), exactly like an
//! OpenMP `parallel` construct. [`ThreadPool::parallel_for`] layers the
//! paper's three loop schedules from [`Schedule`] on top.
//!
//! The calling thread participates as thread 0, so a pool of `T` threads
//! spawns `T - 1` OS workers. A single-threaded pool executes regions inline
//! with no synchronization at all, which keeps 1-thread baseline timings
//! honest.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::utils::CachePadded;
use parking_lot::{Condvar, Mutex};

use crate::cancel::{CancelStatus, CancelToken};
use crate::schedule::{block_range, Schedule};

/// Store-once slot recording the first stop status any thread observed.
/// Encoding: 0 = continue, 1 = cancelled, 2 = deadline exceeded.
fn record_stop(slot: &AtomicU8, status: CancelStatus) {
    let code = match status {
        CancelStatus::Continue => return,
        CancelStatus::Cancelled => 1,
        CancelStatus::DeadlineExceeded => 2,
    };
    let _ = slot.compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
}

fn decode_stop(slot: &AtomicU8) -> CancelStatus {
    match slot.load(Ordering::Relaxed) {
        0 => CancelStatus::Continue,
        1 => CancelStatus::Cancelled,
        _ => CancelStatus::DeadlineExceeded,
    }
}

/// Early-stop strategy for the unified loop driver. The cancellable and
/// plain entry points share one implementation of every schedule,
/// monomorphized over this trait: with [`NeverCancel`] the poll calls
/// compile to nothing, so the non-cancellable loops carry zero polling
/// overhead, and the loop bodies exist exactly once in the source.
trait Poller: Sync {
    /// Polls for a stop request, consuming deadline/budget as applicable.
    fn poll(&self) -> CancelStatus;
    /// Non-consuming status check, used for empty loops.
    fn initial_status(&self) -> CancelStatus;
}

/// The infallible poller behind [`ThreadPool::parallel_for`].
struct NeverCancel;

impl Poller for NeverCancel {
    #[inline(always)]
    fn poll(&self) -> CancelStatus {
        CancelStatus::Continue
    }

    #[inline(always)]
    fn initial_status(&self) -> CancelStatus {
        CancelStatus::Continue
    }
}

impl Poller for &CancelToken {
    #[inline]
    fn poll(&self) -> CancelStatus {
        CancelToken::poll(self)
    }

    #[inline]
    fn initial_status(&self) -> CancelStatus {
        self.status()
    }
}

/// Chunk-claim counters for the loops a [`ThreadPool`] has run; see
/// [`ThreadPool::schedule_stats`].
///
/// `pops` counts chunks claimed from a `DynamicChunked` loop's shared
/// counter, plus one per loop on a single-thread pool (which runs the
/// whole range inline). `Block` and `StaticCyclic` claim nothing at
/// runtime and leave the counters untouched.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Chunks claimed.
    pub pops: u64,
    /// Always 0: no schedule steals. Kept because the end-to-end
    /// benchmark reads it as `parfor.steals`; it goes with that metric at
    /// the benchmark's next change.
    pub steals: u64,
}

/// Accumulated chunk-claim counter, updated once per worker per region.
#[derive(Default)]
struct PoolStats {
    pops: AtomicU64,
}

impl PoolStats {
    /// Folds one worker's region-local count in. Called at region end,
    /// so contention is bounded by the thread count, not the iteration
    /// count.
    fn flush(&self, pops: u64) {
        if pops != 0 {
            self.pops.fetch_add(pops, Ordering::Relaxed);
        }
    }
}

/// Claims the next `chunk` iterations from the shared dynamic counter.
/// The single `fetch_add` is the entire fast path. The caller clamps
/// `chunk` to `n`: each thread overshoots `n` by at most one chunk, so
/// the counter stays below `(threads + 1) · n` and cannot wrap past
/// `usize::MAX` back into the range.
#[inline]
fn claim_dynamic(next: &AtomicUsize, chunk: usize, n: usize) -> Option<std::ops::Range<usize>> {
    let start = next.fetch_add(chunk, Ordering::Relaxed);
    (start < n).then(|| start..(start + chunk).min(n))
}

/// A broadcast job: invoked once per pool thread with that thread's id.
///
/// The pointer is lifetime-erased; see the safety argument in
/// [`ThreadPool::run`].
#[derive(Clone, Copy)]
struct JobRef {
    ptr: *const (dyn Fn(usize) + Sync),
}

// SAFETY: `JobRef` is only ever dereferenced while the `run` call that
// created it is still blocked waiting for all workers, so the referent is
// live, and the referent is `Sync` so shared calls from many threads are
// allowed.
unsafe impl Send for JobRef {}

struct Slot {
    /// Monotonic counter identifying the current parallel region.
    epoch: u64,
    /// Job of the current epoch, if a region is active.
    job: Option<JobRef>,
    /// Workers that have not yet finished the current region.
    remaining: usize,
    /// Whether any worker's closure panicked during the current region.
    worker_panicked: bool,
    /// Set by `Drop` to terminate the worker loops.
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers park here waiting for a new epoch.
    work_cv: Condvar,
    /// The caller parks here waiting for `remaining == 0`.
    done_cv: Condvar,
}

thread_local! {
    /// Guards against nested parallel regions, which would deadlock: a
    /// worker would wait for an epoch that can only be announced by itself.
    static INSIDE_REGION: Cell<bool> = const { Cell::new(false) };
}

/// A fixed-size pool of worker threads supporting OpenMP-like parallel
/// regions and scheduled parallel loops.
///
/// ```
/// use parapsp_parfor::{ThreadPool, Schedule};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(3);
/// assert_eq!(pool.num_threads(), 3);
///
/// let hits = AtomicUsize::new(0);
/// pool.run(|tid| {
///     assert!(tid < 3);
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 3);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    num_threads: usize,
    stats: PoolStats,
}

impl ThreadPool {
    /// Creates a pool with `num_threads` total threads (the caller counts as
    /// thread 0, so `num_threads - 1` OS threads are spawned).
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0, "a thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                remaining: 0,
                worker_panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..num_threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("parfor-worker-{tid}"))
                    .spawn(move || worker_loop(&shared, tid))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            num_threads,
            stats: PoolStats::default(),
        }
    }

    /// Number of threads participating in each parallel region.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Chunk-claim statistics accumulated over every scheduled loop this
    /// pool has run since creation (or the last
    /// [`take_schedule_stats`](ThreadPool::take_schedule_stats)).
    pub fn schedule_stats(&self) -> ScheduleStats {
        ScheduleStats {
            pops: self.stats.pops.load(Ordering::Relaxed),
            steals: 0,
        }
    }

    /// Returns the accumulated statistics and resets them to zero, so
    /// callers can attribute counters to one region or sweep.
    pub fn take_schedule_stats(&self) -> ScheduleStats {
        ScheduleStats {
            pops: self.stats.pops.swap(0, Ordering::Relaxed),
            steals: 0,
        }
    }

    /// Executes `f(tid)` once on every pool thread (an OpenMP `parallel`
    /// region) and returns when all of them have finished.
    ///
    /// Panics in any thread's closure are propagated to the caller after the
    /// whole region has completed, so the pool stays usable afterwards.
    ///
    /// # Panics
    ///
    /// Panics if called from inside another region of any pool (nested
    /// parallelism is not supported, as in the paper's flat OpenMP usage).
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        INSIDE_REGION.with(|flag| {
            assert!(
                !flag.get(),
                "nested parallel regions are not supported by parapsp-parfor"
            );
            flag.set(true);
        });
        // Make sure the flag is cleared even if `f` panics on thread 0.
        struct ResetGuard;
        impl Drop for ResetGuard {
            fn drop(&mut self) {
                INSIDE_REGION.with(|flag| flag.set(false));
            }
        }
        let _guard = ResetGuard;

        if self.num_threads == 1 {
            f(0);
            return;
        }

        let wide: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: we erase the lifetime of `f` to hand it to the workers.
        // This is sound because this function does not return (and `f` is
        // not dropped) until `remaining == 0`, i.e. every worker has
        // finished calling the closure and will never touch it again.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(wide)
        };
        let job = JobRef {
            ptr: erased as *const _,
        };

        {
            let mut slot = self.shared.slot.lock();
            debug_assert!(slot.job.is_none(), "previous region not cleaned up");
            slot.epoch += 1;
            slot.job = Some(job);
            slot.remaining = self.num_threads - 1;
            slot.worker_panicked = false;
            self.shared.work_cv.notify_all();
        }

        // The caller participates as thread 0. Catch its panic so we can
        // still wait for the workers (they borrow `f`!) before unwinding.
        let own_result = catch_unwind(AssertUnwindSafe(|| f(0)));

        let worker_panicked = {
            let mut slot = self.shared.slot.lock();
            while slot.remaining > 0 {
                self.shared.done_cv.wait(&mut slot);
            }
            slot.job = None;
            slot.worker_panicked
        };

        if let Err(payload) = own_result {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a parapsp-parfor worker thread panicked inside a parallel region");
        }
    }

    /// Runs `f(tid, i)` for every `i` in `0..n`, assigning iterations to
    /// threads according to `schedule`. Returns after all iterations finish.
    ///
    /// With [`Schedule::DynamicChunked(1)`](Schedule::DynamicChunked) the
    /// global order in which iterations are *claimed* equals the iteration
    /// order, which is what makes degree-ordered APSP effective (paper §3.2).
    pub fn parallel_for<F>(&self, n: usize, schedule: Schedule, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let _ = self.parallel_for_impl(n, schedule, NeverCancel, f);
    }

    /// Like [`parallel_for`](ThreadPool::parallel_for), but polls `token` at
    /// every chunk boundary so the loop can stop cooperatively: each thread
    /// finishes the iteration it is on, claims no further work, and the call
    /// returns the first stop status any thread observed
    /// ([`CancelStatus::Continue`] when the loop ran to completion).
    ///
    /// Polling granularity per schedule: `Block` and `StaticCyclic` poll
    /// before every iteration (their chunks are fixed up front, so the chunk
    /// boundary is the iteration); `DynamicChunked` polls before claiming
    /// each chunk. Iterations that already started always run to
    /// completion — cancellation never tears a row in half.
    pub fn parallel_for_cancellable<F>(
        &self,
        n: usize,
        schedule: Schedule,
        token: &CancelToken,
        f: F,
    ) -> CancelStatus
    where
        F: Fn(usize, usize) + Sync,
    {
        self.parallel_for_impl(n, schedule, token, f)
    }

    /// The one loop driver behind both `parallel_for` entry points,
    /// monomorphized over the [`Poller`] so the plain variant compiles
    /// with all polling folded away.
    fn parallel_for_impl<P, F>(&self, n: usize, schedule: Schedule, poller: P, f: F) -> CancelStatus
    where
        P: Poller,
        F: Fn(usize, usize) + Sync,
    {
        if n == 0 {
            return poller.initial_status();
        }
        if self.num_threads == 1 {
            // Inline fast path: identical iteration order for every schedule.
            INSIDE_REGION.with(|flag| {
                assert!(
                    !flag.get(),
                    "nested parallel regions are not supported by parapsp-parfor"
                );
            });
            for i in 0..n {
                let status = poller.poll();
                if status.is_stop() {
                    return status;
                }
                f(0, i);
            }
            self.stats.flush(1);
            return CancelStatus::Continue;
        }
        let stopped = AtomicU8::new(0);
        match schedule {
            Schedule::Block => {
                let threads = self.num_threads;
                self.run(|tid| {
                    for i in block_range(n, threads, tid) {
                        let status = poller.poll();
                        if status.is_stop() {
                            record_stop(&stopped, status);
                            return;
                        }
                        f(tid, i);
                    }
                });
            }
            Schedule::StaticCyclic => {
                let threads = self.num_threads;
                self.run(|tid| {
                    let mut i = tid;
                    while i < n {
                        let status = poller.poll();
                        if status.is_stop() {
                            record_stop(&stopped, status);
                            return;
                        }
                        f(tid, i);
                        i += threads;
                    }
                });
            }
            Schedule::DynamicChunked(chunk) => {
                let chunk = chunk.clamp(1, n);
                // Cache-line padding keeps the hot shared counter from
                // false-sharing with whatever else lives on this frame.
                let next = CachePadded::new(AtomicUsize::new(0));
                self.run(|tid| {
                    let mut pops = 0u64;
                    loop {
                        let status = poller.poll();
                        if status.is_stop() {
                            record_stop(&stopped, status);
                            break;
                        }
                        let Some(range) = claim_dynamic(&next, chunk, n) else {
                            break;
                        };
                        pops += 1;
                        for i in range {
                            f(tid, i);
                        }
                    }
                    self.stats.flush(pops);
                });
            }
        }
        decode_stop(&stopped)
    }

    /// Parallel map-reduce over `0..n`: `map(tid, i)` produces a value per
    /// iteration, values are folded per thread with `reduce`, and the
    /// per-thread partials (plus `identity`) are folded on the caller.
    ///
    /// `reduce` must be associative and commutative up to the caller's
    /// tolerance — iteration grouping depends on the schedule.
    ///
    /// ```
    /// use parapsp_parfor::{Schedule, ThreadPool};
    /// let pool = ThreadPool::new(4);
    /// let max = pool.parallel_map_reduce(
    ///     1_000,
    ///     Schedule::Block,
    ///     u64::MIN,
    ///     |_tid, i| (i as u64 * 2_654_435_761) % 1_009,
    ///     |a, b| a.max(b),
    /// );
    /// assert_eq!(max, 1_008);
    /// ```
    pub fn parallel_map_reduce<T, M, R>(
        &self,
        n: usize,
        schedule: Schedule,
        identity: T,
        map: M,
        reduce: R,
    ) -> T
    where
        T: Send + Clone,
        M: Fn(usize, usize) -> T + Sync,
        R: Fn(T, T) -> T + Sync,
    {
        let locals: crate::PerThread<Option<T>> = crate::PerThread::new(self.num_threads);
        self.parallel_for(n, schedule, |tid, i| {
            let value = map(tid, i);
            // SAFETY: each pool thread folds into its own slot.
            let slot = unsafe { locals.get_mut(tid) };
            *slot = Some(match slot.take() {
                Some(acc) => reduce(acc, value),
                None => value,
            });
        });
        locals
            .into_inner()
            .into_iter()
            .flatten()
            .fold(identity, reduce)
    }

    /// Cancellable [`parallel_map_reduce`](ThreadPool::parallel_map_reduce):
    /// on a stop, the returned value folds exactly the iterations that ran
    /// (a valid partial aggregate), paired with the stop status.
    pub fn parallel_map_reduce_cancellable<T, M, R>(
        &self,
        n: usize,
        schedule: Schedule,
        token: &CancelToken,
        identity: T,
        map: M,
        reduce: R,
    ) -> (T, CancelStatus)
    where
        T: Send + Clone,
        M: Fn(usize, usize) -> T + Sync,
        R: Fn(T, T) -> T + Sync,
    {
        let locals: crate::PerThread<Option<T>> = crate::PerThread::new(self.num_threads);
        let status = self.parallel_for_cancellable(n, schedule, token, |tid, i| {
            let value = map(tid, i);
            // SAFETY: each pool thread folds into its own slot.
            let slot = unsafe { locals.get_mut(tid) };
            *slot = Some(match slot.take() {
                Some(acc) => reduce(acc, value),
                None => value,
            });
        });
        let folded = locals
            .into_inner()
            .into_iter()
            .flatten()
            .fold(identity, reduce);
        (folded, status)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock();
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            // A worker only panics for bugs outside user closures (those are
            // caught); surface such bugs instead of hiding them.
            if handle.join().is_err() {
                eprintln!("parapsp-parfor: worker thread terminated abnormally");
            }
        }
    }
}

fn worker_loop(shared: &Shared, tid: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen_epoch {
                    seen_epoch = slot.epoch;
                    break slot.job.expect("epoch advanced without a job");
                }
                shared.work_cv.wait(&mut slot);
            }
        };

        INSIDE_REGION.with(|flag| flag.set(true));
        // SAFETY: see `JobRef`'s `Send` impl — the caller of `run` keeps the
        // closure alive until we decrement `remaining` below.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.ptr)(tid) }));
        INSIDE_REGION.with(|flag| flag.set(false));

        let mut slot = shared.slot.lock();
        if result.is_err() {
            slot.worker_panicked = true;
        }
        slot.remaining -= 1;
        if slot.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_thread_runs_once_per_region() {
        let pool = ThreadPool::new(4);
        for _ in 0..50 {
            let counts: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.run(|tid| {
                counts[tid].fetch_add(1, Ordering::Relaxed);
            });
            for c in &counts {
                assert_eq!(c.load(Ordering::Relaxed), 1);
            }
        }
    }

    fn check_coverage(threads: usize, n: usize, schedule: Schedule) {
        let pool = ThreadPool::new(threads);
        let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, schedule, |tid, i| {
            assert!(tid < threads);
            visits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, v) in visits.iter().enumerate() {
            assert_eq!(
                v.load(Ordering::Relaxed),
                1,
                "index {i} visited wrong count"
            );
        }
    }

    #[test]
    fn all_schedules_cover_all_indices_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 2, 7, 64, 1000] {
                for schedule in [
                    Schedule::Block,
                    Schedule::StaticCyclic,
                    Schedule::DynamicChunked(1),
                    Schedule::DynamicChunked(7),
                ] {
                    check_coverage(threads, n, schedule);
                }
            }
        }
        // Chunks so large that the threads' claims sum past `usize::MAX`:
        // an unclamped counter wraps back to 0 and runs every index twice.
        check_coverage(2, 100, Schedule::DynamicChunked(1 << 63));
        check_coverage(4, 100, Schedule::DynamicChunked(1 << 62));
    }

    #[test]
    fn static_cyclic_assigns_by_modulo() {
        let threads = 4;
        let pool = ThreadPool::new(threads);
        let owner: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(usize::MAX)).collect();
        pool.parallel_for(40, Schedule::StaticCyclic, |tid, i| {
            owner[i].store(tid, Ordering::Relaxed);
        });
        for (i, o) in owner.iter().enumerate() {
            assert_eq!(o.load(Ordering::Relaxed), i % threads);
        }
    }

    #[test]
    fn block_assigns_contiguously() {
        let threads = 3;
        let pool = ThreadPool::new(threads);
        let owner: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(usize::MAX)).collect();
        pool.parallel_for(10, Schedule::Block, |tid, i| {
            owner[i].store(tid, Ordering::Relaxed);
        });
        let owners: Vec<usize> = owner.iter().map(|o| o.load(Ordering::Relaxed)).collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn dynamic_cyclic_claims_in_issue_order() {
        // The claim sequence observed through a mutex must be exactly 0..n,
        // which is the property the paper relies on for degree ordering.
        let pool = ThreadPool::new(4);
        let log = PlMutex::new(Vec::new());
        pool.parallel_for(200, Schedule::dynamic_cyclic(), |_tid, i| {
            log.lock().push(i);
        });
        let mut seen = log.into_inner();
        // Claims are in order; execution interleaves, but each index appears
        // exactly once and the multiset is complete.
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_many_times() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.parallel_for(17, Schedule::dynamic_cyclic(), |_tid, _i| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 17);
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        check_coverage(8, 3, Schedule::Block);
        check_coverage(8, 3, Schedule::StaticCyclic);
        check_coverage(8, 3, Schedule::dynamic_cyclic());
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(100, Schedule::dynamic_cyclic(), |_tid, i| {
                if i == 57 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still work after a panic.
        let count = AtomicUsize::new(0);
        pool.parallel_for(10, Schedule::Block, |_tid, _i| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn caller_thread_panic_propagates() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|tid| {
                if tid == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(result.is_err());
        // Reusable afterwards.
        pool.run(|_tid| {});
    }

    #[test]
    fn nested_regions_panic_cleanly() {
        let pool = ThreadPool::new(2);
        let inner = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|_tid| {
                inner.run(|_t| {});
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn single_thread_pool_runs_inline_in_order() {
        let pool = ThreadPool::new(1);
        let log = PlMutex::new(Vec::new());
        pool.parallel_for(10, Schedule::dynamic_cyclic(), |tid, i| {
            assert_eq!(tid, 0);
            log.lock().push(i);
        });
        assert_eq!(log.into_inner(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn schedule_stats_count_dynamic_claims_and_reset() {
        let pool = ThreadPool::new(3);
        pool.take_schedule_stats();
        pool.parallel_for(100, Schedule::DynamicChunked(10), |_tid, _i| {});
        let stats = pool.schedule_stats();
        assert_eq!(stats.pops, 10, "{stats:?}");
        assert_eq!(stats.steals, 0, "{stats:?}");
        // `take` drains the accumulator.
        assert_eq!(pool.take_schedule_stats(), stats);
        assert_eq!(pool.schedule_stats(), ScheduleStats::default());
        // Static schedules claim nothing.
        pool.parallel_for(100, Schedule::Block, |_tid, _i| {});
        pool.parallel_for(100, Schedule::StaticCyclic, |_tid, _i| {});
        assert_eq!(pool.take_schedule_stats(), ScheduleStats::default());
    }

    #[test]
    fn map_reduce_sums_and_maxes() {
        let pool = ThreadPool::new(4);
        for schedule in [
            Schedule::Block,
            Schedule::StaticCyclic,
            Schedule::dynamic_cyclic(),
            Schedule::DynamicChunked(16),
        ] {
            let sum =
                pool.parallel_map_reduce(1000, schedule, 0u64, |_t, i| i as u64, |a, b| a + b);
            assert_eq!(sum, 999 * 1000 / 2, "{schedule:?}");
        }
        // Empty range yields the identity.
        let empty =
            pool.parallel_map_reduce(0, Schedule::Block, 42u64, |_t, i| i as u64, |a, b| a + b);
        assert_eq!(empty, 42);
        // Single-threaded pool takes the inline path.
        let single = ThreadPool::new(1);
        let sum =
            single.parallel_map_reduce(10, Schedule::Block, 0u64, |_t, i| i as u64, |a, b| a + b);
        assert_eq!(sum, 45);
    }

    const ALL_SCHEDULES: [Schedule; 4] = [
        Schedule::Block,
        Schedule::StaticCyclic,
        Schedule::DynamicChunked(1),
        Schedule::DynamicChunked(4),
    ];

    #[test]
    fn cancellable_loop_without_cancel_covers_everything() {
        for threads in [1usize, 4] {
            let pool = ThreadPool::new(threads);
            for schedule in ALL_SCHEDULES {
                let token = CancelToken::new();
                let visits: Vec<AtomicUsize> = (0..300).map(|_| AtomicUsize::new(0)).collect();
                let status = pool.parallel_for_cancellable(300, schedule, &token, |_tid, i| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(status, CancelStatus::Continue, "{schedule:?}");
                for v in &visits {
                    assert_eq!(v.load(Ordering::Relaxed), 1, "{schedule:?}");
                }
            }
        }
    }

    #[test]
    fn pre_cancelled_token_runs_zero_iterations() {
        for threads in [1usize, 4] {
            let pool = ThreadPool::new(threads);
            for schedule in ALL_SCHEDULES {
                let token = CancelToken::new();
                token.cancel();
                let ran = AtomicUsize::new(0);
                let status = pool.parallel_for_cancellable(100, schedule, &token, |_tid, _i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(status, CancelStatus::Cancelled, "{schedule:?}");
                assert_eq!(ran.load(Ordering::Relaxed), 0, "{schedule:?}");
            }
        }
    }

    #[test]
    fn poll_budget_stops_partway_without_duplicates() {
        for threads in [1usize, 3] {
            let pool = ThreadPool::new(threads);
            for schedule in ALL_SCHEDULES {
                let token = crate::CancelToken::with_poll_budget(25);
                let visits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
                let status = pool.parallel_for_cancellable(500, schedule, &token, |_tid, i| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(status, CancelStatus::Cancelled, "{schedule:?}");
                let ran: usize = visits.iter().map(|v| v.load(Ordering::Relaxed)).sum();
                assert!(ran < 500, "{schedule:?}: too much work after cancel");
                for (i, v) in visits.iter().enumerate() {
                    assert!(
                        v.load(Ordering::Relaxed) <= 1,
                        "{schedule:?}: {i} ran twice"
                    );
                }
            }
        }
    }

    #[test]
    fn elapsed_deadline_reports_deadline_exceeded() {
        let pool = ThreadPool::new(4);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let ran = AtomicUsize::new(0);
        let status =
            pool.parallel_for_cancellable(64, Schedule::dynamic_cyclic(), &token, |_tid, _i| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        assert_eq!(status, CancelStatus::DeadlineExceeded);
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cancellable_map_reduce_returns_partial_fold() {
        let pool = ThreadPool::new(4);
        // No cancel: matches the plain version.
        let token = CancelToken::new();
        let (sum, status) = pool.parallel_map_reduce_cancellable(
            1000,
            Schedule::Block,
            &token,
            0u64,
            |_t, i| i as u64,
            |a, b| a + b,
        );
        assert_eq!(status, CancelStatus::Continue);
        assert_eq!(sum, 999 * 1000 / 2);
        // Cancelled up front: identity comes back untouched.
        let token = CancelToken::new();
        token.cancel();
        let (sum, status) = pool.parallel_map_reduce_cancellable(
            1000,
            Schedule::Block,
            &token,
            7u64,
            |_t, i| i as u64,
            |a, b| a + b,
        );
        assert_eq!(status, CancelStatus::Cancelled);
        assert_eq!(sum, 7);
    }

    #[test]
    fn borrows_local_data_without_static_lifetime() {
        let data: Vec<u64> = (0..1000).collect();
        let pool = ThreadPool::new(4);
        let sum = AtomicUsize::new(0);
        pool.parallel_for(data.len(), Schedule::Block, |_tid, i| {
            sum.fetch_add(data[i] as usize, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }
}
