//! Tiered distance-matrix storage: the [`Store`] behind every engine.
//!
//! The paper's engines share one `n × n` row matrix through the
//! Release/Acquire publication protocol of the `shared` module. That dense
//! layout is the fastest backend — and the memory wall: exact APSP dies
//! around the point where `4 n²` bytes stop fitting in RAM. This module
//! makes the storage a run-time choice while keeping the publication
//! protocol (and therefore the engines, the Runner, persistence, and the
//! analysis readers) identical across backends:
//!
//! * [`StoreKind::Dense`] — today's layout, the default and the
//!   bit-identity reference. Published rows are lent as plain `&[u32]`
//!   borrows at zero cost.
//! * [`StoreKind::Delta`] — published rows are delta-encoded (zig-zag
//!   varint) against estimates triangulated from a small set of dense
//!   *reference rows*: the first `k` published rows. Under the hub-first
//!   orderings the engines already use, those are exactly the landmark
//!   hubs, so the estimates are tight and most deltas are one byte. Reads
//!   decode through a bounded hot-row cache.
//! * [`StoreKind::Mmap`] — rows live in fixed-size file shards under a
//!   scratch directory, written with `pwrite` and read back with `pread`
//!   through a byte-budgeted LRU of hot decoded rows, so exact APSP
//!   completes on graphs whose dense matrix exceeds RAM. (The CLI spelling
//!   is `mmap` for the classic out-of-core idiom, but the implementation
//!   deliberately uses positioned file I/O rather than `mmap(2)`: a
//!   `MAP_SHARED` mapping of the whole matrix would count against a
//!   virtual-memory rlimit and defeat bounded-memory runs — see
//!   DESIGN.md §14.)
//!
//! # Row leases
//!
//! Every backend hands the kernel a borrowed `&[u32]` view of a published
//! row through [`Store::lease_row`], which returns a [`RowLease`] guard:
//!
//! * Dense lends the row directly (zero cost, no guard state).
//! * Delta reference rows lend from the append-only reference set (the
//!   lease holds the set's `Arc`, so a concurrent growth of the set
//!   cannot free the generation being read).
//! * Everything else pins an entry in the hot-row LRU: pinned entries are
//!   **never evicted**, pinned bytes are non-reclaimable in the budget
//!   accounting, and the lease releases the pin on drop. A budget too
//!   small to hold the pinned working set fails loudly with a
//!   self-describing error instead of thrashing, and
//!   [`StoreSpec::validate_for`] rejects such budgets at construction.
//!
//! This is how the paper's row-reuse optimization fires identically on
//! all three backends (DESIGN.md §14). A cache miss loads the row in the
//! leasing thread, into a row buffer an earlier eviction freed, so a full
//! cache serves misses without touching the allocator.
//! [`Store::prefetch_row`] is a hardware prefetch on dense and a no-op on
//! the cached tiers: a helper thread loading rows ahead would take CPU
//! from the kernel threads on hosts with as many cores as kernel threads
//! (DESIGN.md §14 has the measurement).
//!
//! # Publication memory ordering
//!
//! Every backend keeps the dense protocol's guarantee: the bytes of row
//! `s` — cells, encoded payload, or shard file write — are fully written
//! *before* `flag[s]` is stored with `Release`, and every reader checks
//! the flag with `Acquire` first. A reader that observes the flag
//! therefore observes a complete, final row, regardless of backend.
//! Leases only ever read rows past that handshake, so a lease always
//! views complete, final bytes.
//!
//! All backends are bit-identical on the final matrix: the engines compute
//! rows in ordinary `&mut [u32]` scratch either way, and the backends only
//! decide where the published bytes live.

use std::cell::UnsafeCell;
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::marker::PhantomData;
use std::ops::Deref;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use parapsp_graph::INF;
use parapsp_parfor::spec;

use crate::dist::DistanceMatrix;
use crate::shared::SharedDistState;

// ---------------------------------------------------------------------------
// StoreKind / StoreSpec — the CLI-facing choice
// ---------------------------------------------------------------------------

/// Which storage backend holds published distance rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// One dense in-memory `n × n` matrix (the default and the
    /// bit-identity reference; lends rows at zero cost).
    #[default]
    Dense,
    /// Rows delta-encoded against reference-row estimates, decoded through
    /// a bounded hot-row cache.
    Delta,
    /// Rows in fixed-size file shards with a byte-budgeted LRU of hot
    /// decoded rows (out-of-core).
    Mmap,
}

impl StoreKind {
    /// The stable lowercase CLI name.
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Dense => "dense",
            StoreKind::Delta => "delta",
            StoreKind::Mmap => "mmap",
        }
    }
}

/// Default number of dense reference rows for the delta backend.
const DEFAULT_DELTA_REFS: usize = 16;
/// Hard cap on reference rows (the encoding's count byte reserves 0xFF).
const MAX_DELTA_REFS: usize = 254;
/// Default hot-row cache budget for the delta backend.
const DEFAULT_DELTA_CACHE: u64 = 32 << 20;
/// Default hot-row cache budget for the mmap backend.
const DEFAULT_MMAP_CACHE: u64 = 64 << 20;
/// Target size of one mmap shard file.
const SHARD_BYTES: u64 = 64 << 20;
/// Slot marker for a delta row that *is* a reference row (stored dense in
/// the reference set; the slot holds only this byte).
const REF_MARKER: u8 = 0xFF;
/// Minimum decoded rows a hot-row cache budget must hold: one row pinned
/// by a live lease plus one incoming decode. Budgets below this would
/// make the pin-aware eviction thrash or fail, so construction rejects
/// them ([`StoreSpec::validate_for`]).
const MIN_CACHE_ROWS: u64 = 2;
/// Evicted row buffers a hot-row cache keeps for the next misses to load
/// into — one per concurrently missing kernel thread on small hosts;
/// buffers evicted past this are freed.
const SPARE_ROWS: usize = 4;

/// A parsed `--store` specification: backend plus its tuning parameter.
///
/// CLI spellings: `dense`, `delta`, `delta:<refs>`, `mmap`,
/// `mmap:<budget>` where `<budget>` accepts `k`/`m`/`g` suffixes (the
/// hot-row cache budget in bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSpec {
    kind: StoreKind,
    refs: usize,
    cache_bytes: u64,
}

impl Default for StoreSpec {
    fn default() -> Self {
        StoreSpec::dense()
    }
}

impl StoreSpec {
    /// Every CLI spelling, for self-describing rejection messages.
    pub const POSSIBLE: &'static [&'static str] = &["dense", "delta[:<refs>]", "mmap[:<budget>]"];

    /// The dense in-memory backend (the default).
    pub fn dense() -> StoreSpec {
        StoreSpec {
            kind: StoreKind::Dense,
            refs: 0,
            cache_bytes: 0,
        }
    }

    /// The delta backend with `refs` dense reference rows (clamped to a
    /// minimum of 1 and an encoding-imposed maximum of 254).
    pub fn delta(refs: usize) -> StoreSpec {
        StoreSpec {
            kind: StoreKind::Delta,
            refs: refs.clamp(1, MAX_DELTA_REFS),
            cache_bytes: DEFAULT_DELTA_CACHE,
        }
    }

    /// The out-of-core shard backend with a hot-row cache of
    /// `cache_bytes` (validated against `n` at build time).
    pub fn mmap(cache_bytes: u64) -> StoreSpec {
        StoreSpec {
            kind: StoreKind::Mmap,
            refs: 0,
            cache_bytes: cache_bytes.max(1),
        }
    }

    /// The chosen backend.
    pub fn kind(&self) -> StoreKind {
        self.kind
    }

    /// Stable label round-tripping through [`StoreSpec::parse`]:
    /// `dense`, `delta:<refs>`, `mmap:<bytes>`.
    pub fn label(&self) -> String {
        match self.kind {
            StoreKind::Dense => "dense".to_owned(),
            StoreKind::Delta => format!("delta:{}", self.refs),
            StoreKind::Mmap => format!("mmap:{}", self.cache_bytes),
        }
    }

    /// Checks that the hot-row cache budget can hold the lease working
    /// set at matrix size `n`: at least `MIN_CACHE_ROWS` decoded rows
    /// (one pinned by a live [`RowLease`] plus one incoming decode).
    /// Rejecting this up front turns what would otherwise be mid-run
    /// thrash or a mid-run panic into a self-describing build error that
    /// names the minimum budget.
    pub fn validate_for(&self, n: usize) -> Result<(), String> {
        if self.kind == StoreKind::Dense {
            return Ok(());
        }
        let row_bytes = 4 * n.max(1) as u64;
        let min = MIN_CACHE_ROWS * row_bytes;
        if self.cache_bytes < min {
            return Err(format!(
                "store: `{}` hot-row cache budget of {} bytes cannot hold one decoded \
                 {row_bytes}-byte row plus the pinned lease working set at n={n}; \
                 the minimum is {min} bytes (try `--store mmap:{min}`)",
                self.label(),
                self.cache_bytes,
            ));
        }
        Ok(())
    }

    /// Parses a CLI spelling; shares the spec helper (and error style)
    /// with `--schedule` / `--solver` parsing.
    pub fn parse(raw: &str) -> Result<StoreSpec, String> {
        let (name, param) = spec::split_spec(raw);
        match name {
            "dense" if param.is_some() => Err(spec::reject_param("store", "dense")),
            "dense" => Ok(StoreSpec::dense()),
            "delta" => match param {
                None => Ok(StoreSpec::delta(DEFAULT_DELTA_REFS)),
                Some(p) => {
                    let refs =
                        spec::parse_positive_param::<usize>("store", "delta", Some(p), None)?;
                    Ok(StoreSpec::delta(refs))
                }
            },
            "mmap" => match param {
                None => Ok(StoreSpec::mmap(DEFAULT_MMAP_CACHE)),
                Some(p) => Ok(StoreSpec::mmap(parse_budget(p)?)),
            },
            _ => Err(spec::reject_unknown("store", raw, Self::POSSIBLE)),
        }
    }
}

impl std::str::FromStr for StoreSpec {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        StoreSpec::parse(raw)
    }
}

/// Parses a byte budget with an optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive). Must be positive.
fn parse_budget(raw: &str) -> Result<u64, String> {
    let (digits, shift) = match raw.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&raw[..raw.len() - 1], 10),
        Some(b'm') | Some(b'M') => (&raw[..raw.len() - 1], 20),
        Some(b'g') | Some(b'G') => (&raw[..raw.len() - 1], 30),
        _ => (raw, 0),
    };
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("store: mmap budget `{raw}` is not a byte count (try 256m, 1g)"))?;
    if value == 0 {
        return Err("store: mmap budget must be positive".to_owned());
    }
    value
        .checked_shl(shift)
        .filter(|&v| v >> shift == value)
        .ok_or_else(|| format!("store: mmap budget `{raw}` overflows"))
}

// ---------------------------------------------------------------------------
// RowLease — a borrowed view of one published row, on any backend
// ---------------------------------------------------------------------------

/// How a [`RowLease`] was satisfied — the kernel's reuse counters key off
/// this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseOrigin {
    /// Lent directly from backend-resident bytes at zero cost: a dense
    /// row, or a delta reference row.
    Lent,
    /// Served from an already-decoded entry in the hot-row cache.
    CacheHit,
    /// Decoded on demand (the lease paid the full decode / pread).
    CacheMiss,
}

/// A borrowed `&[u32]` view of one published row (via `Deref`).
///
/// On the dense backend this is a plain borrow. On delta/mmap it holds a
/// pin on the row's hot-cache entry: pinned entries are never evicted and
/// their bytes are non-reclaimable in the budget accounting, so the view
/// stays valid for the lease's whole lifetime even while other threads
/// churn the cache. Dropping the lease releases the pin. Keep leases
/// short-lived (one relaxation pass); a large pinned working set shrinks
/// the cache's evictable region and can fail the budget loudly.
pub struct RowLease<'a> {
    ptr: *const u32,
    len: usize,
    origin: LeaseOrigin,
    backing: LeaseBacking<'a>,
}

enum LeaseBacking<'a> {
    /// Backend-resident bytes borrowed for `'a` (dense rows).
    Borrowed(PhantomData<&'a [u32]>),
    /// A delta reference row: the `Arc` keeps the reference-set
    /// generation alive even if the set grows concurrently.
    Refs(#[allow(dead_code)] Arc<Vec<RefRow>>),
    /// A pinned hot-cache entry; dropping unpins it.
    Pinned {
        cache: &'a Mutex<RowCache>,
        row: u32,
    },
}

impl RowLease<'_> {
    /// How this lease was satisfied.
    #[inline]
    pub fn origin(&self) -> LeaseOrigin {
        self.origin
    }
}

impl std::fmt::Debug for RowLease<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowLease")
            .field("len", &self.len)
            .field("origin", &self.origin)
            .finish_non_exhaustive()
    }
}

impl Deref for RowLease<'_> {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        // SAFETY: `ptr`/`len` name a fully published row whose bytes are
        // immutable after publication; `backing` keeps the allocation
        // alive (borrow lifetime, Arc on the reference set, or a cache
        // pin that blocks eviction) for as long as `self` exists.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for RowLease<'_> {
    fn drop(&mut self) {
        if let LeaseBacking::Pinned { cache, row } = &self.backing {
            // A poisoned lock means a budget panic is already unwinding;
            // skipping the unpin then is fine (the store is going away)
            // and avoids a double panic.
            if let Ok(mut cache) = cache.lock() {
                cache.unpin(*row);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Store — the backend-dispatching facade
// ---------------------------------------------------------------------------

/// The distance-matrix storage of one run: row allocation, publication,
/// and read access behind a single type, with the backend chosen by a
/// [`StoreSpec`].
///
/// Writers compute a row into ordinary `&mut [u32]` scratch — in place
/// when the backend lends mutable rows ([`Store::try_row_mut`]), staged in
/// a caller buffer otherwise — and publish it exactly once. Readers use
/// [`Store::lease_row`] for the kernel's row-reuse hot path (every
/// backend), [`Store::with_row`] / [`Store::read_row_into`] for
/// point/bulk reads. Dispatch is a concrete enum match, not a vtable, so
/// the dense hot path stays identical to the pre-store code.
pub struct Store {
    inner: Inner,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("kind", &self.kind())
            .field("n", &self.n())
            .finish_non_exhaustive()
    }
}

enum Inner {
    Dense(SharedDistState),
    Delta(DeltaStore),
    Mmap(MmapStore),
}

impl Store {
    /// Allocates an empty store for an `n`-vertex matrix, panicking with
    /// the [`StoreSpec::validate_for`] message when the hot-row cache
    /// budget cannot hold the lease working set. Callers that want a
    /// clean error use [`Store::try_new`].
    pub fn new(n: usize, spec: &StoreSpec) -> Store {
        Store::try_new(n, spec).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Allocates an empty store, rejecting budgets below the minimum the
    /// lease layer needs (see [`StoreSpec::validate_for`]).
    pub fn try_new(n: usize, spec: &StoreSpec) -> Result<Store, String> {
        spec.validate_for(n)?;
        let inner = match spec.kind {
            StoreKind::Dense => Inner::Dense(SharedDistState::new(n)),
            StoreKind::Delta => Inner::Delta(DeltaStore::new(n, spec.refs, spec.cache_bytes)),
            StoreKind::Mmap => Inner::Mmap(MmapStore::new(n, spec.cache_bytes)),
        };
        Ok(Store { inner })
    }

    /// Builds the store from a partially computed matrix (resume): rows
    /// flagged in `completed` are pre-published, the rest start
    /// unpublished and infinite.
    pub fn from_parts(dist: DistanceMatrix, completed: &[bool], spec: &StoreSpec) -> Store {
        match spec.kind {
            StoreKind::Dense => Store {
                inner: Inner::Dense(SharedDistState::from_parts(dist, completed)),
            },
            _ => {
                let store = Store::new(dist.n(), spec);
                for (s, &done) in completed.iter().enumerate() {
                    if done {
                        store.publish_from(s as u32, dist.row(s as u32));
                    }
                }
                store
            }
        }
    }

    /// The backend in use.
    pub fn kind(&self) -> StoreKind {
        match &self.inner {
            Inner::Dense(_) => StoreKind::Dense,
            Inner::Delta(_) => StoreKind::Delta,
            Inner::Mmap(_) => StoreKind::Mmap,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        match &self.inner {
            Inner::Dense(state) => state.n(),
            Inner::Delta(store) => store.n,
            Inner::Mmap(store) => store.n,
        }
    }

    /// Exclusive in-place access to unpublished row `s`, on backends that
    /// support it (dense). `None` means the caller must stage the row in
    /// its own scratch and hand it over via [`Store::publish_from`].
    ///
    /// # Safety
    ///
    /// The caller must be the unique owner of row `s` (no other live
    /// `try_row_mut(s)` anywhere, `s` not yet published) — the same
    /// contract as `SharedDistState::row_mut`.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn try_row_mut(&self, s: u32) -> Option<&mut [u32]> {
        match &self.inner {
            // SAFETY: forwarded caller contract.
            Inner::Dense(state) => Some(unsafe { state.row_mut(s) }),
            _ => None,
        }
    }

    /// Publishes row `s` written in place through [`Store::try_row_mut`].
    /// Only meaningful on lending backends.
    #[inline]
    pub fn publish(&self, s: u32) {
        match &self.inner {
            Inner::Dense(state) => state.publish(s),
            _ => unreachable!("publish() without try_row_mut(); use publish_from"),
        }
    }

    /// Publishes row `s` from caller-owned scratch: the backend copies /
    /// encodes / writes the bytes, then stores the publication flag with
    /// `Release`. The caller must own row `s` (never published before).
    pub fn publish_from(&self, s: u32, row: &[u32]) {
        debug_assert_eq!(row.len(), self.n(), "row length mismatch");
        match &self.inner {
            Inner::Dense(state) => {
                // SAFETY: the caller owns unpublished row `s`; the borrow
                // ends before publish.
                unsafe { state.row_mut(s).copy_from_slice(row) };
                state.publish(s);
            }
            Inner::Delta(store) => store.publish_from(s, row),
            Inner::Mmap(store) => store.publish_from(s, row),
        }
    }

    /// Lends published row `t` as a [`RowLease`] on *every* backend:
    /// a zero-cost borrow on dense and delta reference rows, a pinned
    /// hot-cache entry (decoding on miss) on delta/mmap. `None` when `t`
    /// is unpublished. This is the kernel's row-reuse read path.
    #[inline]
    pub fn lease_row(&self, t: u32) -> Option<RowLease<'_>> {
        match &self.inner {
            Inner::Dense(state) => state.published_row(t).map(|row| RowLease {
                ptr: row.as_ptr(),
                len: row.len(),
                origin: LeaseOrigin::Lent,
                backing: LeaseBacking::Borrowed(PhantomData),
            }),
            Inner::Delta(store) => store.lease_row(t),
            Inner::Mmap(store) => store.lease_row(t),
        }
    }

    /// Lends published row `t` as a plain borrow — dense only (`None`
    /// elsewhere even when published). The bulk readers use this
    /// zero-copy path; the kernel goes through [`Store::lease_row`].
    #[inline]
    pub fn published_row(&self, t: u32) -> Option<&[u32]> {
        match &self.inner {
            Inner::Dense(state) => state.published_row(t),
            _ => None,
        }
    }

    /// Look-ahead hint for row `t`: a hardware prefetch of the row's
    /// first cache lines on dense, a no-op on delta/mmap (a miss there
    /// loads the row when it is leased). Safe to call speculatively, on
    /// published and unpublished rows alike.
    #[inline]
    pub fn prefetch_row(&self, t: u32) {
        if let Inner::Dense(state) = &self.inner {
            state.prefetch_row(t);
        }
    }

    /// Whether row `s` has been published (`Acquire`).
    #[inline]
    pub fn is_published(&self, s: u32) -> bool {
        match &self.inner {
            Inner::Dense(state) => state.published_row(s).is_some(),
            Inner::Delta(store) => store.flags[s as usize].load(Ordering::Acquire),
            Inner::Mmap(store) => store.flags[s as usize].load(Ordering::Acquire),
        }
    }

    /// Number of published rows.
    pub fn published_count(&self) -> usize {
        match &self.inner {
            Inner::Dense(state) => state.published_count(),
            Inner::Delta(store) => count_flags(&store.flags),
            Inner::Mmap(store) => count_flags(&store.flags),
        }
    }

    /// Runs `f` over published row `s` (leasing through the hot-row
    /// cache on non-lending backends); `None` when `s` is unpublished.
    pub fn with_row<R>(&self, s: u32, f: impl FnOnce(&[u32]) -> R) -> Option<R> {
        match &self.inner {
            Inner::Dense(state) => state.published_row(s).map(f),
            Inner::Delta(store) => store.lease_row(s).map(|lease| f(&lease)),
            Inner::Mmap(store) => store.lease_row(s).map(|lease| f(&lease)),
        }
    }

    /// Copies published row `s` into `out`, bypassing the hot-row cache
    /// (the bulk-read path: snapshots, ledger streaming, analysis
    /// sweeps). Returns `false` — leaving `out` untouched — when `s` is
    /// unpublished.
    pub fn read_row_into(&self, s: u32, out: &mut [u32]) -> bool {
        debug_assert_eq!(out.len(), self.n());
        match &self.inner {
            Inner::Dense(state) => match state.published_row(s) {
                Some(row) => {
                    out.copy_from_slice(row);
                    true
                }
                None => false,
            },
            Inner::Delta(store) => store.read_row_into(s, out),
            Inner::Mmap(store) => store.read_row_into(s, out),
        }
    }

    /// Visits the published rows among `sources`, `(source, row)` at a
    /// time, skipping unpublished ones: the between-batch readback behind
    /// the row engines' `visit_rows`. Dense lends each row in place; the
    /// cached tiers copy it into one buffer through
    /// [`Store::read_row_into`], never through the hot-row cache — a
    /// readback lease would take the cache lock and evict the hub rows
    /// the kernel's reuse depends on.
    pub fn visit_published(
        &self,
        sources: impl IntoIterator<Item = u32>,
        visit: &mut dyn FnMut(u32, &[u32]),
    ) {
        if let Inner::Dense(state) = &self.inner {
            for s in sources {
                if let Some(row) = state.published_row(s) {
                    visit(s, row);
                }
            }
            return;
        }
        let mut buf = Vec::new();
        for s in sources {
            buf.resize(self.n(), 0);
            if self.read_row_into(s, &mut buf) {
                visit(s, &buf);
            }
        }
    }

    /// Clones the published rows into a fresh matrix plus completion
    /// flags (the stop-snapshot payload). O(n²).
    pub fn snapshot(&self) -> (DistanceMatrix, Vec<bool>) {
        match &self.inner {
            Inner::Dense(state) => state.snapshot(),
            _ => self.read_all_rows(),
        }
    }

    /// Consumes the store, yielding the final dense matrix (zero-copy for
    /// the dense backend; a decode pass otherwise, after the hot-row
    /// cache is freed). Unpublished rows come out infinite.
    pub fn into_matrix(self) -> DistanceMatrix {
        match self.inner {
            Inner::Dense(state) => state.into_matrix(),
            inner => Store { inner }.into_parts().0,
        }
    }

    /// Consumes the store, yielding the matrix plus completion flags —
    /// the zero-copy teardown behind `Engine::into_snapshot` (no O(n²)
    /// clone on the dense backend). The cached tiers free their hot-row
    /// cache before they allocate the matrix, so the two are never
    /// resident together.
    pub fn into_parts(mut self) -> (DistanceMatrix, Vec<bool>) {
        match &mut self.inner {
            Inner::Dense(_) => {}
            Inner::Delta(store) => store.cache.get_mut().expect("cache mutex").clear(),
            Inner::Mmap(store) => store.cache.get_mut().expect("cache mutex").clear(),
        }
        match self.inner {
            Inner::Dense(state) => state.into_parts(),
            _ => self.read_all_rows(),
        }
    }

    /// Reads every row of a cached-tier store into a new matrix. The
    /// matrix is allocated zeroed — the allocator maps fresh pages
    /// without writing them — and each page is written once: by the
    /// published row read into it, or by the `INF` fill of an unpublished
    /// row.
    fn read_all_rows(&self) -> (DistanceMatrix, Vec<bool>) {
        let n = self.n();
        let cells = n.checked_mul(n).expect("matrix size overflow");
        let mut data = vec![0u32; cells].into_boxed_slice();
        let mut completed = vec![false; n];
        for (s, row) in data.chunks_exact_mut(n.max(1)).enumerate() {
            completed[s] = self.read_row_into(s as u32, row);
            if !completed[s] {
                row.fill(INF);
            }
        }
        (DistanceMatrix::from_raw(n, data), completed)
    }

    /// Bytes of published-row payload this store holds: resident matrix
    /// bytes (dense), encoded bytes (delta), or shard-file bytes (mmap —
    /// on disk, not resident). The `store_scaling` bench derives
    /// bytes/row from this.
    pub fn stored_bytes(&self) -> u64 {
        match &self.inner {
            Inner::Dense(state) => 4 * (state.n() as u64) * (state.n() as u64),
            Inner::Delta(store) => store.bytes.load(Ordering::Relaxed),
            Inner::Mmap(store) => store.bytes.load(Ordering::Relaxed),
        }
    }

    /// High-water mark of hot-cache bytes pinned by live leases (0 on
    /// dense, whose leases are plain borrows). Engines fold this into the
    /// run counters at teardown.
    pub fn pinned_bytes_peak(&self) -> u64 {
        match &self.inner {
            Inner::Dense(_) => 0,
            Inner::Delta(store) => pinned_peak(&store.cache),
            Inner::Mmap(store) => pinned_peak(&store.cache),
        }
    }
}

fn count_flags(flags: &[AtomicBool]) -> usize {
    flags.iter().filter(|f| f.load(Ordering::Relaxed)).count()
}

// ---------------------------------------------------------------------------
// RowSource — the uniform read seam for analysis consumers
// ---------------------------------------------------------------------------

/// Read access to a distance matrix, row by row — implemented by both
/// [`DistanceMatrix`] and [`Store`], so analysis passes (eccentricities,
/// centrality, components) run unchanged against either.
pub trait RowSource {
    /// Number of vertices (the matrix is `n × n`).
    fn n(&self) -> usize;

    /// Visits every row in source order, `(source, row)` at a time.
    /// Unpublished rows of a partial [`Store`] are visited as all-[`INF`]
    /// (matching the dense matrix of an incomplete run).
    fn for_each_row(&self, visit: &mut dyn FnMut(u32, &[u32]));
}

impl RowSource for DistanceMatrix {
    fn n(&self) -> usize {
        DistanceMatrix::n(self)
    }

    fn for_each_row(&self, visit: &mut dyn FnMut(u32, &[u32])) {
        for s in 0..DistanceMatrix::n(self) as u32 {
            visit(s, self.row(s));
        }
    }
}

impl RowSource for Store {
    fn n(&self) -> usize {
        Store::n(self)
    }

    fn for_each_row(&self, visit: &mut dyn FnMut(u32, &[u32])) {
        match &self.inner {
            // Dense lends rows directly — no copy.
            Inner::Dense(state) => {
                let mut infinite: Option<Vec<u32>> = None;
                for s in 0..state.n() as u32 {
                    match state.published_row(s) {
                        Some(row) => visit(s, row),
                        None => {
                            let row = infinite.get_or_insert_with(|| vec![INF; state.n()]);
                            visit(s, row);
                        }
                    }
                }
            }
            _ => {
                let n = Store::n(self);
                let mut buf = vec![INF; n];
                for s in 0..n as u32 {
                    if !self.read_row_into(s, &mut buf) {
                        buf.fill(INF);
                    }
                    visit(s, &buf);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hot-row LRU cache (shared by the delta and mmap backends)
// ---------------------------------------------------------------------------

/// One decoded row resident in the cache.
struct CacheEntry {
    data: Box<[u32]>,
    /// Live [`RowLease`]s pointing into `data`. While nonzero the entry
    /// is never evicted and its buffer is never replaced, which is what
    /// keeps the lease's raw pointer valid (`Box` heap data is stable
    /// even when the map rehashes).
    pins: u32,
    /// Recency stamp ([`RowCache::tick`] at the last pin/insert). The
    /// eviction queue stores the stamp each entry was queued with;
    /// `last_used > queued stamp` means the queue position is stale.
    last_used: u64,
}

/// A byte-budgeted LRU of decoded rows with pin-counted entries.
///
/// Pinned entries (rows under a live [`RowLease`]) are never evicted;
/// their bytes are non-reclaimable, so a budget that cannot hold the
/// pinned working set plus one incoming row fails loudly and
/// self-describingly rather than thrashing. [`StoreSpec::validate_for`]
/// keeps well-formed runs away from that failure.
struct RowCache {
    /// Backend name for error messages.
    label: &'static str,
    budget: u64,
    bytes: u64,
    pinned_bytes: u64,
    pinned_bytes_peak: u64,
    map: HashMap<u32, CacheEntry>,
    /// Lazy LRU queue: `(row, recency stamp at enqueue)`. Touching a row
    /// only bumps `CacheEntry::last_used` (O(1)); the eviction sweep
    /// re-queues entries whose stamp is stale instead of the touch path
    /// re-ordering the queue — an exact scan-and-remove per touch cost
    /// O(resident rows) per cache *hit* and dominated the delta
    /// backend's lease path. Invariant: one queue slot per resident row.
    order: VecDeque<(u32, u64)>,
    /// Monotonic recency clock for `CacheEntry::last_used`.
    tick: u64,
    /// Buffers of evicted rows (at most [`SPARE_ROWS`]), handed to the
    /// next misses so a full cache loads rows without allocating.
    spare: Vec<Box<[u32]>>,
}

impl RowCache {
    fn new(label: &'static str, budget: u64) -> RowCache {
        RowCache {
            label,
            budget,
            bytes: 0,
            pinned_bytes: 0,
            pinned_bytes_peak: 0,
            map: HashMap::new(),
            order: VecDeque::new(),
            tick: 0,
            spare: Vec::with_capacity(SPARE_ROWS),
        }
    }

    /// Pins row `s` if cached, returning its data pointer/len. Also bumps
    /// `s` to most-recently-used (O(1): just the recency stamp; the queue
    /// is reconciled lazily at eviction time).
    fn pin(&mut self, s: u32) -> Option<(*const u32, usize)> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(&s)?;
        entry.pins += 1;
        entry.last_used = tick;
        if entry.pins == 1 {
            self.pinned_bytes += 4 * entry.data.len() as u64;
            self.pinned_bytes_peak = self.pinned_bytes_peak.max(self.pinned_bytes);
        }
        Some((entry.data.as_ptr(), entry.data.len()))
    }

    /// Releases one pin on row `s`.
    fn unpin(&mut self, s: u32) {
        if let Some(entry) = self.map.get_mut(&s) {
            debug_assert!(entry.pins > 0, "unpin of unpinned row {s}");
            entry.pins = entry.pins.saturating_sub(1);
            if entry.pins == 0 {
                self.pinned_bytes -= 4 * entry.data.len() as u64;
            }
        }
    }

    /// Frees every cached row and spare buffer. Only valid while no lease
    /// is live (the caller owns the store).
    fn clear(&mut self) {
        debug_assert_eq!(self.pinned_bytes, 0, "clearing a cache with live leases");
        self.map = HashMap::new();
        self.order = VecDeque::new();
        self.spare = Vec::new();
        self.bytes = 0;
    }

    /// Keeps `buf` for a later miss, or frees it when enough are kept.
    fn recycle(&mut self, buf: Box<[u32]>) {
        if self.spare.len() < SPARE_ROWS {
            self.spare.push(buf);
        }
    }

    /// Inserts a decoded row, evicting least-recently-used *unpinned*
    /// entries (other than the new one) until the budget holds; evicted
    /// buffers are recycled. If the pinned working set leaves no room even
    /// after evicting everything evictable, panics with a message naming
    /// the minimum budget — never evicts a pinned row, never thrashes.
    fn insert(&mut self, s: u32, row: Box<[u32]>) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&s) {
            // Never replace a resident entry: its buffer may be lent out
            // through a live lease. Refresh recency and keep the old row
            // (published rows are immutable, the bytes are identical).
            entry.last_used = tick;
            self.recycle(row);
            return;
        }
        let incoming = 4 * row.len() as u64;
        self.bytes += incoming;
        self.map.insert(
            s,
            CacheEntry {
                data: row,
                pins: 0,
                last_used: tick,
            },
        );
        self.order.push_back((s, tick));
        // Evict LRU-first, skipping pinned entries and the new row, and
        // lazily re-queueing entries whose stamp went stale (touched
        // since they were queued). Terminates: `last_used` is frozen
        // while we hold `&mut self`, so a re-queued stale entry pops
        // next time with `last_used == stamp` and is then evicted or
        // counted in `skipped`, which only grows and bounds the loop.
        let mut skipped = 0;
        while self.bytes > self.budget && skipped < self.order.len() {
            let (victim, stamp) = self.order.pop_front().expect("order non-empty");
            let Some(entry) = self.map.get(&victim) else {
                continue; // stale slot for an already-evicted row
            };
            if entry.last_used > stamp {
                self.order.push_back((victim, entry.last_used));
                continue;
            }
            if victim == s || entry.pins > 0 {
                self.order.push_back((victim, stamp));
                skipped += 1;
                continue;
            }
            if let Some(old) = self.map.remove(&victim) {
                self.bytes -= 4 * old.data.len() as u64;
                self.recycle(old.data);
            }
        }
        if self.bytes > self.budget && self.pinned_bytes + incoming > self.budget {
            // Only pinned entries (plus the new row) remain and they
            // exceed the budget: succeeding would mean thrashing every
            // future read, and evicting would dangle a live lease.
            let live: usize = self.map.values().filter(|e| e.pins > 0).count();
            let min = self.pinned_bytes + incoming;
            panic!(
                "{} hot-row cache budget of {} bytes cannot hold the pinned lease \
                 working set: {} bytes pinned by {live} live row lease(s) plus a \
                 {incoming}-byte decoded row; raise the budget to at least {min} \
                 bytes (`--store {}:{min}`)",
                self.label, self.budget, self.pinned_bytes, self.label,
            );
        }
    }
}

/// High-water mark of the bytes `cache` has had pinned.
fn pinned_peak(cache: &Mutex<RowCache>) -> u64 {
    cache
        .lock()
        .map(|cache| cache.pinned_bytes_peak)
        .unwrap_or(0)
}

/// The pinned-lease path shared by delta and mmap: pin a cached entry,
/// or materialize the row with `load`, insert, and pin. The
/// just-inserted/pinned entry cannot be evicted or replaced while the
/// lease lives, so the returned raw pointer stays valid (`Box` heap data
/// does not move when the map rehashes).
///
/// `load` must overwrite every cell of the slice it is given: on a full
/// cache that slice is an evicted row's recycled buffer, still holding
/// the old row's distances.
fn pin_or_decode<'a>(
    cache: &'a Mutex<RowCache>,
    s: u32,
    n: usize,
    load: impl FnOnce(&mut [u32]),
) -> Option<RowLease<'a>> {
    let lease = |(ptr, len), origin| RowLease {
        ptr,
        len,
        origin,
        backing: LeaseBacking::Pinned { cache, row: s },
    };
    let mut guard = cache.lock().expect("cache mutex");
    if let Some(pinned) = guard.pin(s) {
        return Some(lease(pinned, LeaseOrigin::CacheHit));
    }
    let recycled = guard.spare.pop();
    drop(guard);
    // Miss: materialize outside the lock so concurrent leases of other
    // rows keep moving. If someone else inserted `s` meanwhile, `insert`
    // keeps their entry and recycles ours — `pin` then serves whichever
    // buffer is resident.
    let mut row = recycled.unwrap_or_else(|| vec![0; n].into_boxed_slice());
    load(&mut row);
    let mut guard = cache.lock().expect("cache mutex");
    guard.insert(s, row);
    let pinned = guard.pin(s).expect("row just inserted");
    Some(lease(pinned, LeaseOrigin::CacheMiss))
}

// ---------------------------------------------------------------------------
// DeltaStore
// ---------------------------------------------------------------------------

/// One dense reference row of the delta backend.
#[derive(Clone)]
struct RefRow {
    id: u32,
    data: Box<[u32]>,
}

/// One row's encoded payload: written exactly once by the row's owner
/// before publication, immutable afterwards.
type EncodedSlot = UnsafeCell<Option<Box<[u8]>>>;

/// Rows delta-encoded against reference-row estimates.
///
/// Encoding of a non-reference row `s` (little-endian):
///
/// ```text
/// count: u8                       — reference rows used (< 0xFF)
/// count × (id: u32, d_s_ref: u32) — the ref ids and d(s, ref), verbatim
/// n × varint(zigzag(d(s,v) − est(v)))
/// ```
///
/// where `est(v) = min over refs r of d(s,r) ⊕ refrow_r[v]` (saturating;
/// `INF` participates as a plain `u32::MAX`). Recording `d(s, ref)` in
/// the header makes every row self-contained: decode needs only the
/// (append-only, never evicted) reference-row set, in any order. The
/// first `max_refs` published rows become the reference set — under the
/// hub-first source orderings the engines use, those are the highest-
/// degree hubs, the same vertices landmark triangulation would pick.
struct DeltaStore {
    n: usize,
    max_refs: usize,
    /// Append-only reference set; publishers briefly lock to clone the
    /// `Arc` (and to append while below `max_refs`), then encode outside
    /// the lock. Growth swaps in a *new* `Arc`, so readers (and leases)
    /// holding the old generation stay valid.
    refs: Mutex<Arc<Vec<RefRow>>>,
    /// Per-row encoded payload. Single writer per slot, readers only
    /// after the `Acquire` flag handshake.
    slots: Box<[EncodedSlot]>,
    flags: Box<[AtomicBool]>,
    cache: Mutex<RowCache>,
    bytes: AtomicU64,
}

// SAFETY: each slot is written exactly once, by the unique owner of its
// row, strictly before the `Release` store of its flag; readers load the
// flag with `Acquire` first. Reference rows are guarded by the mutex and
// immutable once inserted (behind `Arc`).
unsafe impl Sync for DeltaStore {}

impl DeltaStore {
    fn new(n: usize, max_refs: usize, cache_bytes: u64) -> DeltaStore {
        DeltaStore {
            n,
            max_refs: max_refs.clamp(1, MAX_DELTA_REFS),
            refs: Mutex::new(Arc::new(Vec::new())),
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
            flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
            cache: Mutex::new(RowCache::new("delta", cache_bytes)),
            bytes: AtomicU64::new(0),
        }
    }

    fn publish_from(&self, s: u32, row: &[u32]) {
        debug_assert!(
            !self.flags[s as usize].load(Ordering::Relaxed),
            "row {s} published twice"
        );
        // Join the reference set while it is still growing; either way,
        // come away with the set to encode against.
        let (refs, is_ref) = {
            let mut guard = self.refs.lock().expect("refs mutex");
            if guard.len() < self.max_refs {
                let mut grown: Vec<RefRow> = (**guard).clone();
                grown.push(RefRow {
                    id: s,
                    data: row.into(),
                });
                *guard = Arc::new(grown);
                (Arc::clone(&guard), true)
            } else {
                (Arc::clone(&guard), false)
            }
        };
        let enc: Box<[u8]> = if is_ref {
            Box::new([REF_MARKER])
        } else {
            encode_delta_row(row, &refs)
        };
        self.bytes.fetch_add(enc.len() as u64, Ordering::Relaxed);
        // SAFETY: unique owner of slot `s`, before publication.
        unsafe { *self.slots[s as usize].get() = Some(enc) };
        self.flags[s as usize].store(true, Ordering::Release);
    }

    /// The encoded payload of a published row. Caller must have observed
    /// the `Acquire` flag.
    fn payload(&self, s: u32) -> &[u8] {
        // SAFETY: the Acquire load in the caller synchronized with the
        // owner's Release store; the slot is never written again.
        unsafe { (*self.slots[s as usize].get()).as_deref() }.expect("published row has a payload")
    }

    /// Decodes published row `s` into `out`, overwriting every cell.
    /// Caller must have observed the `Acquire` flag.
    fn decode_into(&self, s: u32, out: &mut [u32]) {
        // The refs guard is released at the end of this statement — it
        // is never held while the cache lock is taken (no lock cycle).
        let refs = Arc::clone(&self.refs.lock().expect("refs mutex"));
        decode_delta_row(self.payload(s), s, &refs, out);
    }

    fn read_row_into(&self, s: u32, out: &mut [u32]) -> bool {
        if !self.flags[s as usize].load(Ordering::Acquire) {
            return false;
        }
        self.decode_into(s, out);
        true
    }

    fn lease_row(&self, s: u32) -> Option<RowLease<'_>> {
        if !self.flags[s as usize].load(Ordering::Acquire) {
            return None;
        }
        // Reference rows lend zero-copy out of the append-only set; the
        // lease's Arc keeps this generation alive across growth.
        if self.payload(s)[0] == REF_MARKER {
            let refs = Arc::clone(&self.refs.lock().expect("refs mutex"));
            let row = refs
                .iter()
                .find(|r| r.id == s)
                .expect("marker row present in the reference set");
            let (ptr, len) = (row.data.as_ptr(), row.data.len());
            return Some(RowLease {
                ptr,
                len,
                origin: LeaseOrigin::Lent,
                backing: LeaseBacking::Refs(refs),
            });
        }
        pin_or_decode(&self.cache, s, self.n, |out| self.decode_into(s, out))
    }
}

/// Zig-zag encoding: small magnitudes (either sign) become small codes.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn write_varint(buf: &mut Vec<u8>, mut z: u64) {
    loop {
        let byte = (z & 0x7F) as u8;
        z >>= 7;
        if z == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut z = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        z |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return z;
        }
        shift += 7;
    }
}

/// How many reference rows one encoded row *names*. Encode and decode
/// both cost O(n × named refs) per row — naming the whole `delta:K` set
/// made the row round trip scale with K (the dominant cost of the delta
/// backend at K = 16). A handful of well-chosen refs captures nearly all
/// of the triangulation win, and the header names refs explicitly, so
/// decode needs no change and old payloads stay readable.
const MAX_REFS_PER_ROW: usize = 4;
/// Cells sampled per candidate ref when scoring which refs to name.
const REF_SCORE_SAMPLES: usize = 64;

/// Picks the refs this row encodes against: the `MAX_REFS_PER_ROW`
/// candidates with the smallest summed |delta| over a strided sample of
/// cells (each scored independently — cheap, and close enough to the
/// combined-min objective in practice).
fn choose_refs<'a>(row: &[u32], refs: &'a [RefRow]) -> Vec<&'a RefRow> {
    if refs.len() <= MAX_REFS_PER_ROW {
        return refs.iter().collect();
    }
    let step = (row.len() / REF_SCORE_SAMPLES).max(1);
    let mut scored: Vec<(u64, usize)> = refs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let d = row[r.id as usize];
            let mut score = 0u64;
            let mut v = 0;
            while v < row.len() {
                let est = d.saturating_add(r.data[v]);
                score += (row[v] as i64 - est as i64).unsigned_abs();
                v += step;
            }
            (score, i)
        })
        .collect();
    scored.sort_unstable();
    scored.truncate(MAX_REFS_PER_ROW);
    // Header order is immaterial to decode; keep the score order.
    scored.iter().map(|&(_, i)| &refs[i]).collect()
}

fn encode_delta_row(row: &[u32], refs: &[RefRow]) -> Box<[u8]> {
    debug_assert!(refs.len() < REF_MARKER as usize);
    let chosen = choose_refs(row, refs);
    let mut buf = Vec::with_capacity(1 + chosen.len() * 8 + row.len());
    buf.push(chosen.len() as u8);
    let mut d_ref: Vec<u32> = Vec::with_capacity(chosen.len());
    for r in &chosen {
        let d = row[r.id as usize];
        buf.extend_from_slice(&r.id.to_le_bytes());
        buf.extend_from_slice(&d.to_le_bytes());
        d_ref.push(d);
    }
    for (v, &d) in row.iter().enumerate() {
        // Triangulated estimate of d(s, v): the best two-hop route
        // `s → ref → v`, saturating, with INF as plain u32::MAX.
        let mut est = INF;
        for (r, &dr) in chosen.iter().zip(&d_ref) {
            est = est.min(dr.saturating_add(r.data[v]));
        }
        write_varint(&mut buf, zigzag(d as i64 - est as i64));
    }
    buf.into_boxed_slice()
}

fn decode_delta_row(enc: &[u8], s: u32, refs: &[RefRow], out: &mut [u32]) {
    if enc[0] == REF_MARKER {
        let r = refs
            .iter()
            .find(|r| r.id == s)
            .expect("marker row present in the reference set");
        out.copy_from_slice(&r.data);
        return;
    }
    let count = enc[0] as usize;
    let mut pos = 1usize;
    // The refs named in the header, with d(s, ref) verbatim — the set
    // only grows, so every named ref is still present.
    let mut used: Vec<(u32, &[u32])> = Vec::with_capacity(count);
    for _ in 0..count {
        let id = u32::from_le_bytes(enc[pos..pos + 4].try_into().expect("header"));
        let d = u32::from_le_bytes(enc[pos + 4..pos + 8].try_into().expect("header"));
        pos += 8;
        let r = refs
            .iter()
            .find(|r| r.id == id)
            .expect("encode-time reference still present");
        used.push((d, &r.data));
    }
    for (v, slot) in out.iter_mut().enumerate() {
        let mut est = INF;
        for &(d, data) in &used {
            est = est.min(d.saturating_add(data[v]));
        }
        let delta = unzigzag(read_varint(enc, &mut pos));
        *slot = (est as i64 + delta) as u32;
    }
    debug_assert_eq!(pos, enc.len(), "trailing bytes in encoded row");
}

// ---------------------------------------------------------------------------
// MmapStore
// ---------------------------------------------------------------------------

/// Process-wide counter for unique scratch-directory names.
static STORE_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Rows in fixed-size file shards under a scratch directory.
///
/// Shard `k` holds rows `k·rows_per_shard ..`, each at byte offset
/// `(s mod rows_per_shard) · 4n`, written with one `pwrite` straight from
/// the row and read back with one `pread` straight into the caller's
/// slice. The cells are stored in the host's byte order: shards are
/// private scratch of one process, never a file another process or host
/// reads (checkpoints and ledgers are the portable, little-endian
/// formats). Row writes land at disjoint offsets, so concurrent
/// publishers need no lock; shard files are created lazily through a
/// `OnceLock`. The directory is removed on drop (best effort).
struct MmapStore {
    n: usize,
    dir: PathBuf,
    rows_per_shard: usize,
    shards: Box<[OnceLock<File>]>,
    flags: Box<[AtomicBool]>,
    cache: Mutex<RowCache>,
    bytes: AtomicU64,
}

/// The bytes of a row of cells, in the host's byte order.
pub(crate) fn cell_bytes(row: &[u32]) -> &[u8] {
    // SAFETY: `u32` has no padding and `u8` no alignment requirement, so
    // the row's memory is exactly `4 · len` initialized bytes; the shared
    // borrow of `row` is carried over to the result.
    unsafe { std::slice::from_raw_parts(row.as_ptr().cast(), std::mem::size_of_val(row)) }
}

/// The bytes of a row of cells, in the host's byte order, for writing:
/// every byte pattern is a valid `u32`, so any bytes stored through the
/// view leave valid cells behind.
pub fn cell_bytes_mut(row: &mut [u32]) -> &mut [u8] {
    // SAFETY: as in `cell_bytes`, and the exclusive borrow of `row` is
    // carried over to the result.
    unsafe { std::slice::from_raw_parts_mut(row.as_mut_ptr().cast(), std::mem::size_of_val(row)) }
}

impl MmapStore {
    fn new(n: usize, cache_bytes: u64) -> MmapStore {
        let row_bytes = (4 * n.max(1)) as u64;
        let rows_per_shard = (SHARD_BYTES / row_bytes).max(1) as usize;
        let shard_count = n.div_ceil(rows_per_shard).max(1);
        let dir = std::env::temp_dir().join(format!(
            "parapsp-store-{}-{}",
            std::process::id(),
            STORE_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|err| panic!("creating store shard dir {}: {err}", dir.display()));
        MmapStore {
            n,
            dir,
            rows_per_shard,
            shards: (0..shard_count).map(|_| OnceLock::new()).collect(),
            flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
            cache: Mutex::new(RowCache::new("mmap", cache_bytes)),
            bytes: AtomicU64::new(0),
        }
    }

    fn shard(&self, index: usize) -> &File {
        self.shards[index].get_or_init(|| {
            let path = self.dir.join(format!("shard-{index}.rows"));
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
                .unwrap_or_else(|err| panic!("opening store shard {}: {err}", path.display()))
        })
    }

    #[inline]
    fn location(&self, s: u32) -> (usize, u64) {
        let shard = s as usize / self.rows_per_shard;
        let offset = (s as usize % self.rows_per_shard) as u64 * 4 * self.n as u64;
        (shard, offset)
    }

    fn publish_from(&self, s: u32, row: &[u32]) {
        debug_assert!(
            !self.flags[s as usize].load(Ordering::Relaxed),
            "row {s} published twice"
        );
        let bytes = cell_bytes(row);
        let (shard, offset) = self.location(s);
        self.shard(shard)
            .write_all_at(bytes, offset)
            .unwrap_or_else(|err| panic!("writing store shard row {s}: {err}"));
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.flags[s as usize].store(true, Ordering::Release);
    }

    /// Reads published row `s` from its shard, overwriting every cell of
    /// `out`. Caller must have observed the `Acquire` flag.
    fn read_into(&self, s: u32, out: &mut [u32]) {
        let (shard, offset) = self.location(s);
        self.shard(shard)
            .read_exact_at(cell_bytes_mut(out), offset)
            .unwrap_or_else(|err| panic!("reading store shard row {s}: {err}"));
    }

    fn read_row_into(&self, s: u32, out: &mut [u32]) -> bool {
        if !self.flags[s as usize].load(Ordering::Acquire) {
            return false;
        }
        self.read_into(s, out);
        true
    }

    fn lease_row(&self, s: u32) -> Option<RowLease<'_>> {
        if !self.flags[s as usize].load(Ordering::Acquire) {
            return None;
        }
        pin_or_decode(&self.cache, s, self.n, |out| self.read_into(s, out))
    }
}

impl Drop for MmapStore {
    fn drop(&mut self) {
        // Best effort: shard files are scratch, never a durability
        // artifact (that's what checkpoints and ledgers are for).
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random distances (splitmix64) with ~1/8
    /// INF cells, so encode/decode sees both signs and saturation.
    fn fixture_rows(n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|s| {
                (0..n)
                    .map(|v| {
                        if s == v {
                            0
                        } else if next() % 8 == 0 {
                            INF
                        } else {
                            (next() % 10_000) as u32
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn all_specs() -> Vec<StoreSpec> {
        vec![
            StoreSpec::dense(),
            StoreSpec::delta(4),
            StoreSpec::mmap(1 << 20),
        ]
    }

    #[test]
    fn parse_accepts_every_cli_spelling() {
        assert_eq!("dense".parse(), Ok(StoreSpec::dense()));
        assert_eq!("delta".parse(), Ok(StoreSpec::delta(DEFAULT_DELTA_REFS)));
        assert_eq!("delta:8".parse(), Ok(StoreSpec::delta(8)));
        assert_eq!("mmap".parse(), Ok(StoreSpec::mmap(DEFAULT_MMAP_CACHE)));
        assert_eq!("mmap:4096".parse(), Ok(StoreSpec::mmap(4096)));
        assert_eq!("mmap:256k".parse(), Ok(StoreSpec::mmap(256 << 10)));
        assert_eq!("mmap:16M".parse(), Ok(StoreSpec::mmap(16 << 20)));
        assert_eq!("mmap:2g".parse(), Ok(StoreSpec::mmap(2 << 30)));
    }

    #[test]
    fn parse_rejects_malformed_specs_with_possible_values() {
        for bad in [
            "",
            "dens",
            "dense:4",
            "delta:0",
            "delta:wide",
            "mmap:0",
            "mmap:huge",
        ] {
            let err = bad.parse::<StoreSpec>().unwrap_err();
            assert!(err.contains("store"), "{bad}: {err}");
        }
        let err = "tiered".parse::<StoreSpec>().unwrap_err();
        assert!(
            err.contains("possible values") && err.contains("mmap"),
            "{err}"
        );
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for spec in all_specs() {
            assert_eq!(spec.label().parse(), Ok(spec.clone()), "{}", spec.label());
        }
    }

    #[test]
    fn every_backend_round_trips_rows_bit_identically() {
        let n = 60;
        let rows = fixture_rows(n, 0xA5A5);
        for spec in all_specs() {
            let store = Store::new(n, &spec);
            assert_eq!(store.published_count(), 0);
            for (s, row) in rows.iter().enumerate() {
                assert!(!store.is_published(s as u32));
                store.publish_from(s as u32, row);
                assert!(store.is_published(s as u32));
            }
            assert_eq!(store.published_count(), n);
            // Point reads through the cache.
            let mut buf = vec![0u32; n];
            for (s, row) in rows.iter().enumerate() {
                let got = store.with_row(s as u32, |r| r.to_vec()).unwrap();
                assert_eq!(&got, row, "{} with_row({s})", spec.label());
                assert!(store.read_row_into(s as u32, &mut buf));
                assert_eq!(&buf, row, "{} read_row_into({s})", spec.label());
            }
            // Bulk teardown.
            let matrix = store.into_matrix();
            for (s, row) in rows.iter().enumerate() {
                assert_eq!(matrix.row(s as u32), &row[..], "{}", spec.label());
            }
        }
    }

    #[test]
    fn staged_kernel_writes_match_in_place_dense_writes() {
        // The dense backend accepts both the in-place protocol
        // (try_row_mut + publish) and the staged one (publish_from);
        // both must yield the same bytes.
        let n = 16;
        let rows = fixture_rows(n, 7);
        let in_place = Store::new(n, &StoreSpec::dense());
        let staged = Store::new(n, &StoreSpec::dense());
        for (s, row) in rows.iter().enumerate() {
            // SAFETY: single-threaded test, unique owner of each row.
            let slot = unsafe { in_place.try_row_mut(s as u32) }.expect("dense lends rows");
            slot.copy_from_slice(row);
            in_place.publish(s as u32);
            staged.publish_from(s as u32, row);
        }
        assert_eq!(
            in_place
                .into_matrix()
                .first_difference(&staged.into_matrix()),
            None
        );
    }

    #[test]
    fn every_backend_leases_published_rows() {
        let n = 8;
        let rows = fixture_rows(n, 11);
        for spec in all_specs() {
            let store = Store::new(n, &spec);
            assert!(
                store.lease_row(0).is_none(),
                "{}: unpublished row must not lease",
                spec.label()
            );
            store.publish_from(0, &rows[0]);
            store.publish_from(5, &rows[5]);
            let lease = store.lease_row(0).expect("published row leases");
            assert_eq!(&lease[..], &rows[0][..], "{}", spec.label());
            // Row 0 is lent zero-copy everywhere: the dense matrix
            // borrow, or the first-published delta reference row — while
            // mmap pins a cache entry.
            match spec.kind() {
                StoreKind::Dense | StoreKind::Delta => {
                    assert_eq!(lease.origin(), LeaseOrigin::Lent, "{}", spec.label())
                }
                StoreKind::Mmap => {
                    assert_eq!(lease.origin(), LeaseOrigin::CacheMiss, "{}", spec.label());
                    let again = store.lease_row(0).expect("still leases");
                    assert_eq!(again.origin(), LeaseOrigin::CacheHit, "{}", spec.label());
                }
            }
            // A lease held across another row's lease stays intact.
            let other = store.lease_row(5).expect("published row leases");
            assert_eq!(&other[..], &rows[5][..], "{}", spec.label());
            assert_eq!(&lease[..], &rows[0][..], "{}", spec.label());
            drop(other);
            drop(lease);
            // Mutable in-place access stays a dense-only capability.
            let dense = spec.kind() == StoreKind::Dense;
            assert_eq!(
                unsafe { store.try_row_mut(1) }.is_some(),
                dense,
                "{}",
                spec.label()
            );
            assert_eq!(store.published_row(0).is_some(), dense, "{}", spec.label());
        }
    }

    #[test]
    fn pinned_rows_survive_eviction_sweeps() {
        let n = 64; // 256 bytes per row
        let rows = fixture_rows(n, 19);
        // Budget of 3 rows: every sweep below evicts hard.
        let store = Store::new(n, &StoreSpec::mmap(3 * 4 * n as u64));
        for (s, row) in rows.iter().enumerate() {
            store.publish_from(s as u32, row);
        }
        let lease = store.lease_row(7).expect("published row leases");
        assert_eq!(&lease[..], &rows[7][..]);
        // Sweep every other row through the tiny cache — without the pin
        // this would evict row 7 many times over.
        for pass in 0..3 {
            for (s, row) in rows.iter().enumerate() {
                let got = store.with_row(s as u32, |r| r.to_vec()).unwrap();
                assert_eq!(&got, row, "pass {pass} row {s}");
            }
        }
        assert_eq!(&lease[..], &rows[7][..], "pinned lease view churned");
        assert!(store.pinned_bytes_peak() >= 4 * n as u64);
        drop(lease);
        // Unpinned now: row 7 is evictable again and the cache still
        // respects its budget.
        for (s, row) in rows.iter().enumerate() {
            let got = store.with_row(s as u32, |r| r.to_vec()).unwrap();
            assert_eq!(&got, row);
        }
        let Inner::Mmap(mmap) = &store.inner else {
            panic!("mmap spec built a non-mmap store")
        };
        let cache = mmap.cache.lock().unwrap();
        assert!(
            cache.bytes <= cache.budget,
            "cache over budget after unpin: {} > {}",
            cache.bytes,
            cache.budget
        );
    }

    #[test]
    fn too_small_budget_fails_construction_with_minimum() {
        let n = 1000; // 4000-byte rows; minimum budget 8000.
        let spec = StoreSpec::mmap(4096);
        let err = Store::try_new(n, &spec).unwrap_err();
        assert!(err.contains("8000"), "must name the minimum budget: {err}");
        assert!(err.contains("mmap:8000"), "must suggest the fix: {err}");
        assert!(err.contains("4096"), "must name the given budget: {err}");
        assert_eq!(spec.validate_for(n), Err(err));
        // At the minimum, construction succeeds.
        assert!(Store::try_new(n, &StoreSpec::mmap(8000)).is_ok());
        // Dense has no cache to validate.
        assert!(StoreSpec::dense().validate_for(usize::MAX >> 8).is_ok());
    }

    #[test]
    fn pinned_working_set_overflow_fails_loudly_not_by_thrash() {
        // Two rows of budget, two live leases pinning both: a third
        // lease cannot be served without evicting a pinned row, so it
        // must panic with the self-describing budget message.
        let n = 64;
        let rows = fixture_rows(n, 29);
        let store = Store::new(n, &StoreSpec::mmap(2 * 4 * n as u64));
        for (s, row) in rows.iter().enumerate().take(3) {
            store.publish_from(s as u32, row);
        }
        let a = store.lease_row(0).expect("lease row 0");
        let b = store.lease_row(1).expect("lease row 1");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.lease_row(2)
        }))
        .expect_err("third lease must overflow the pinned budget");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(
            msg.contains("pinned") && msg.contains("lease") && msg.contains("budget"),
            "panic must be self-describing: {msg}"
        );
        assert_eq!(&a[..], &rows[0][..], "held leases stay valid");
        assert_eq!(&b[..], &rows[1][..], "held leases stay valid");
        // Dropping the leases after the poison must not double-panic.
        drop(a);
        drop(b);
    }

    #[test]
    fn from_parts_prepublishes_only_completed_rows() {
        let n = 12;
        let rows = fixture_rows(n, 23);
        let mut dist = DistanceMatrix::new_infinite(n);
        let mut completed = vec![false; n];
        for s in (0..n).step_by(3) {
            dist.copy_row_from(s as u32, &rows[s]);
            completed[s] = true;
        }
        for spec in all_specs() {
            let store = Store::from_parts(dist.clone(), &completed, &spec);
            for s in 0..n {
                assert_eq!(
                    store.is_published(s as u32),
                    completed[s],
                    "{}",
                    spec.label()
                );
                if completed[s] {
                    let got = store.with_row(s as u32, |r| r.to_vec()).unwrap();
                    assert_eq!(&got, &rows[s], "{}", spec.label());
                }
            }
            let (snap, flags) = store.snapshot();
            assert_eq!(flags, completed, "{}", spec.label());
            assert_eq!(snap.first_difference(&dist), None, "{}", spec.label());
        }
    }

    #[test]
    fn delta_compresses_structured_rows_well_below_dense() {
        // Rows that differ from a common hub row by a handful of cells —
        // the structure the reference-row estimates are built to exploit.
        let n = 256;
        let mut base: Vec<u32> = (0..n).map(|v| 100 + (v as u32 % 50)).collect();
        base[0] = 0;
        let store = Store::new(n, &StoreSpec::delta(4));
        for s in 0..n {
            let mut row = base.clone();
            row[s] = 0;
            row[(s + 7) % n] += 3;
            store.publish_from(s as u32, &row);
        }
        let dense_bytes = 4 * (n as u64) * (n as u64);
        let stored = store.stored_bytes();
        // The varint floor is one byte per cell, so the best possible is
        // just under 4× smaller than dense; near-zero deltas must get
        // close to that floor.
        assert!(
            stored * 3 < dense_bytes,
            "delta encoding should be ≥3× smaller here: {stored} vs {dense_bytes}"
        );
        // And still decode exactly.
        for s in 0..n as u32 {
            store
                .with_row(s, |row| {
                    assert_eq!(row[s as usize], 0);
                    assert_eq!(row[(s as usize + 7) % n], base[(s as usize + 7) % n] + 3);
                })
                .unwrap();
        }
    }

    #[test]
    fn hot_row_cache_respects_its_byte_budget() {
        let n = 64; // 256 bytes per row
        let rows = fixture_rows(n, 31);
        // Budget of 3 rows.
        let store = Store::new(n, &StoreSpec::mmap(3 * 4 * n as u64));
        for (s, row) in rows.iter().enumerate() {
            store.publish_from(s as u32, row);
        }
        // Touch many distinct rows; the cache must stay within budget
        // while every read stays exact.
        for pass in 0..3 {
            for (s, row) in rows.iter().enumerate() {
                let got = store.with_row(s as u32, |r| r.to_vec()).unwrap();
                assert_eq!(&got, row, "pass {pass} row {s}");
            }
        }
        let Inner::Mmap(mmap) = &store.inner else {
            panic!("mmap spec built a non-mmap store")
        };
        let cache = mmap.cache.lock().unwrap();
        assert!(
            cache.bytes <= cache.budget,
            "cache over budget: {} > {}",
            cache.bytes,
            cache.budget
        );
        assert!(cache.map.len() <= 3);
        assert!(cache.spare.len() <= SPARE_ROWS);
    }

    /// Once the mmap cache is full, a lease miss loads into an evicted
    /// row's buffer and `publish_from` writes straight from the caller's
    /// row: neither touches the allocator.
    #[test]
    fn full_mmap_cache_misses_and_publishes_without_allocating() {
        let n = 64;
        let rows = fixture_rows(n, 37);
        let store = Store::new(n, &StoreSpec::mmap(3 * 4 * n as u64));
        let half = n as u32 / 2;
        // Open the shard file and churn the cache until its map, queue
        // and spare list have reached their steady-state sizes.
        for s in 0..half {
            store.publish_from(s, &rows[s as usize]);
        }
        for _ in 0..2 {
            for s in 0..half {
                drop(store.lease_row(s).expect("published row leases"));
            }
        }
        let before = crate::alloc_counter::count();
        for s in half..n as u32 {
            store.publish_from(s, &rows[s as usize]);
        }
        let mut misses = 0;
        for s in half..n as u32 {
            let lease = store.lease_row(s).expect("published row leases");
            misses += u32::from(lease.origin() == LeaseOrigin::CacheMiss);
            assert_eq!(&lease[..], &rows[s as usize][..], "row {s}");
        }
        let allocations = crate::alloc_counter::count() - before;
        assert_eq!(misses, half);
        assert_eq!(allocations, 0, "full-cache misses and publishes allocated");
    }

    #[test]
    fn cross_thread_publication_is_ordered_on_every_backend() {
        for spec in [StoreSpec::delta(2), StoreSpec::mmap(1 << 20)] {
            let n = 512;
            let store = std::sync::Arc::new(Store::new(n, &spec));
            let expect: Vec<u32> = (0..n as u32).map(|v| v * 3 + 1).collect();
            let writer = {
                let store = std::sync::Arc::clone(&store);
                let expect = expect.clone();
                std::thread::spawn(move || {
                    // Publish a reference row first so row 9 encodes
                    // against something.
                    store.publish_from(0, &vec![1u32; n]);
                    store.publish_from(9, &expect);
                })
            };
            loop {
                let done = store.with_row(9, |row| {
                    assert_eq!(row, &expect[..], "{}", spec.label());
                });
                if done.is_some() {
                    break;
                }
                std::hint::spin_loop();
            }
            writer.join().unwrap();
        }
    }

    #[test]
    fn row_source_visits_unpublished_rows_as_infinite() {
        let n = 6;
        let rows = fixture_rows(n, 41);
        for spec in all_specs() {
            let store = Store::new(n, &spec);
            store.publish_from(2, &rows[2]);
            let mut seen = Vec::new();
            RowSource::for_each_row(&store, &mut |s, row| {
                seen.push((s, row.to_vec()));
            });
            assert_eq!(seen.len(), n, "{}", spec.label());
            assert_eq!(seen[2].1, rows[2], "{}", spec.label());
            assert!(
                seen[3].1.iter().all(|&d| d == INF),
                "{}: unpublished row must read as INF",
                spec.label()
            );
        }
        // The DistanceMatrix impl visits its rows verbatim.
        let mut dist = DistanceMatrix::new_infinite(3);
        dist.copy_row_from(1, &[5, 0, 7]);
        let mut count = 0;
        RowSource::for_each_row(&dist, &mut |s, row| {
            if s == 1 {
                assert_eq!(row, &[5, 0, 7]);
            }
            count += 1;
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn into_matrix_keeps_published_rows_and_fills_the_rest_with_inf() {
        let n = 40;
        let rows = fixture_rows(n, 43);
        for spec in all_specs() {
            let published = |s: usize| s % 3 != 2;
            let build = || {
                let store = Store::new(n, &spec);
                for (s, row) in rows.iter().enumerate().filter(|&(s, _)| published(s)) {
                    store.publish_from(s as u32, row);
                }
                // Warm the hot-row cache, so teardown has one to free.
                for s in (0..n as u32).step_by(3) {
                    drop(store.lease_row(s));
                }
                store
            };
            let check = |matrix: &DistanceMatrix| {
                for (s, row) in rows.iter().enumerate() {
                    if published(s) {
                        assert_eq!(matrix.row(s as u32), &row[..], "{} row {s}", spec.label());
                    } else {
                        assert!(
                            matrix.row(s as u32).iter().all(|&d| d == INF),
                            "{}: unpublished row {s} must be INF",
                            spec.label()
                        );
                    }
                }
            };
            check(&build().into_matrix());
            let (matrix, completed) = build().into_parts();
            check(&matrix);
            assert!(completed
                .iter()
                .enumerate()
                .all(|(s, &done)| done == published(s)));
            let (matrix, completed) = build().snapshot();
            check(&matrix);
            assert!(completed
                .iter()
                .enumerate()
                .all(|(s, &done)| done == published(s)));
        }
    }

    #[test]
    fn batch_readback_skips_unpublished_rows_and_the_hot_row_cache() {
        let n = 32;
        let rows = fixture_rows(n, 47);
        for spec in all_specs() {
            let store = Store::new(n, &spec);
            for s in [1u32, 4, 9] {
                store.publish_from(s, &rows[s as usize]);
            }
            let mut seen = Vec::new();
            store.visit_published([0, 1, 4, 7, 9], &mut |s, row| seen.push((s, row.to_vec())));
            let expect: Vec<(u32, Vec<u32>)> =
                [1u32, 4, 9].map(|s| (s, rows[s as usize].clone())).into();
            assert_eq!(seen, expect, "{}", spec.label());
            let cached = match &store.inner {
                Inner::Dense(_) => 0,
                Inner::Delta(store) => store.cache.lock().unwrap().map.len(),
                Inner::Mmap(store) => store.cache.lock().unwrap().map.len(),
            };
            assert_eq!(
                cached,
                0,
                "{}: readback went through the cache",
                spec.label()
            );
        }
    }

    #[test]
    fn mmap_store_cleans_up_its_shard_directory() {
        let dir = {
            let store = Store::new(32, &StoreSpec::mmap(1 << 20));
            store.publish_from(0, &[0u32; 32]);
            let Inner::Mmap(mmap) = &store.inner else {
                panic!("mmap spec built a non-mmap store")
            };
            assert!(mmap.dir.exists());
            mmap.dir.clone()
        };
        assert!(!dir.exists(), "drop must remove {}", dir.display());
    }

    #[test]
    fn varint_zigzag_round_trips_extremes() {
        let mut buf = Vec::new();
        for v in [0i64, 1, -1, 127, -128, u32::MAX as i64, -(u32::MAX as i64)] {
            buf.clear();
            write_varint(&mut buf, zigzag(v));
            let mut pos = 0;
            assert_eq!(unzigzag(read_varint(&buf, &mut pos)), v);
            assert_eq!(pos, buf.len());
        }
    }
}
