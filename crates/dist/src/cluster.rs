//! The cluster driver: source partitioning, hub broadcasting, streaming
//! gather, and crash recovery.
//!
//! # Fault-tolerance protocol
//!
//! Nodes stream each completed row to the driver as soon as it is done
//! (instead of a single bulk gather at the end), so work finished before a
//! crash is never lost. Every row on the wire carries a CRC-32C checksum
//! (`persist::row_checksum`, the run ledger's record seal):
//!
//! * a corrupted **hub row** is discarded by the receiving node (row
//!   reuse is an optimization, so nothing else is needed; the driver
//!   relays hub rows between nodes on both transports, so a
//!   [`ChaosPlan`] may drop them outright for the same reason);
//! * a corrupted **gather row** makes the driver request a re-send from
//!   the node that still holds the clean row.
//!
//! A crash is a node thread returning early: its channels disconnect, and
//! the driver — which never blocks longer than [`ClusterConfig::heartbeat`]
//! on any one mailbox — observes the disconnect after draining whatever
//! the node managed to send. The crashed node's unfinished sources are then
//! re-dealt cyclically over the survivors, preserving their original
//! (degree-order) sequence. Because the kernel is exact regardless of
//! which rows happen to be available for reuse, the recovered matrix is
//! bit-identical to the fault-free one as long as one node survives.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;

use parapsp_core::engine::{
    CheckpointPolicy, Engine, Plan, RowsCtx, RowsOutcome, RunConfig, RunSummary, ValueEnum,
};
use parapsp_core::persist::{self, mint_run_id, row_checksums, Checkpoint, RowLedger};
use parapsp_core::{DistanceMatrix, RunOutcome, Store, StoreKind, StoreSpec};
use parapsp_graph::{degree, CsrGraph};
use parapsp_order::OrderingProcedure;
use parapsp_parfor::{CancelStatus, CancelToken, ThreadPool};

use crate::chaos::{ChaosPlan, ChaosTransport};
use crate::fault::FaultPlan;
use crate::node::{row_checksum, NodeSolver, NodeState, RowMessage, RowRef};
use crate::socket::{SocketStartError, SocketTransport};
use crate::transport::{
    ChannelNodeIo, ChannelTransport, ControlSink, EventSender, NodeControl, NodeEvent, NodeIo,
    Polled, SocketConfig, Transport, TransportSpec,
};
use crate::wire::WorkerSetup;

/// How sources are divided among the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourcePartition {
    /// Deal the global descending degree order cyclically: every node gets
    /// an equal share of hubs and processes them first (the distributed
    /// analogue of `schedule(static, 1)` over the degree order).
    #[default]
    CyclicByDegree,
    /// Contiguous blocks of the degree order: node 0 gets all the hubs.
    /// Deliberately bad — the distributed analogue of the paper's losing
    /// block-partitioning scheme in Fig. 1, kept for comparison.
    BlockByDegree,
    /// Cyclic by raw vertex id, ignoring degrees (no ordering benefit
    /// inside each node's local sweep).
    CyclicById,
}

impl ValueEnum for SourcePartition {
    fn value_variants() -> &'static [Self] {
        &[
            SourcePartition::CyclicByDegree,
            SourcePartition::BlockByDegree,
            SourcePartition::CyclicById,
        ]
    }

    fn value_name(&self) -> &'static str {
        match self {
            SourcePartition::CyclicByDegree => "cyclic-degree",
            SourcePartition::BlockByDegree => "block-degree",
            SourcePartition::CyclicById => "cyclic-id",
        }
    }
}

/// Bounds and pacing for gather-row re-delivery after a checksum failure.
///
/// Each rejected delivery of a source's row triggers a re-send from the
/// node that holds it, but only up to [`max_resends`](Self::max_resends)
/// times; after that the driver stops trusting the path and re-deals the
/// source to a *different* survivor instead. Before each re-send the node
/// backs off exponentially — `min(cap_ms, base_ms << (attempt - 1))` plus
/// a deterministic seeded jitter of up to `base_ms` — so a flaky path is
/// not hammered at full rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-sends allowed per source before the driver reassigns it to
    /// another node (`0` means reassign on the first rejection). When only
    /// one node is alive there is nobody else to deal to, so re-sends
    /// continue past the bound rather than deadlocking.
    pub max_resends: u64,
    /// Backoff before the first re-send, in milliseconds; doubles per
    /// attempt. Also the span of the added jitter.
    pub base_ms: u64,
    /// Upper bound on a single backoff sleep, in milliseconds (jitter
    /// excluded).
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_resends: 6,
            base_ms: 1,
            cap_ms: 8,
        }
    }
}

/// Driver-side stall detection for nodes that go silent without crashing.
///
/// The driver records the gap between consecutive gather rows from each
/// node (under the multi-source BFS, which yields 64 rows per solve and
/// sends them back to back, the time its last 64 rows took). A node that
/// still owes rows but has been silent for more than `stall_factor ×` its
/// rolling median gap (never less than `floor`) is declared stalled: its
/// ungathered sources are re-dealt to the other survivors. The stalled
/// node is *not* killed — if it wakes up its deliveries are deduplicated
/// by the driver, so a false positive costs only duplicate work, never
/// correctness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Multiple of the rolling median gap that counts as stalled.
    pub stall_factor: f64,
    /// Minimum recorded gaps before the median is trusted; below this the
    /// node is never declared stalled.
    pub min_samples: usize,
    /// Absolute lower bound on the stall threshold, so fast nodes with
    /// sub-millisecond medians are not flagged by scheduling noise.
    pub floor: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_factor: 8.0,
            min_samples: 2,
            floor: Duration::from_millis(25),
        }
    }
}

/// Configuration of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated distributed-memory nodes (each is one thread
    /// with private memory).
    pub nodes: usize,
    /// Fraction of sources (taken from the top of the degree order) whose
    /// completed rows are broadcast to all other nodes. `0.0` disables
    /// communication entirely; `1.0` broadcasts everything.
    pub hub_fraction: f64,
    /// Source-to-node assignment strategy.
    pub partition: SourcePartition,
    /// Node crashes and stalls to inject; the default plan injects none.
    pub faults: FaultPlan,
    /// Upper bound on how long the driver blocks on any one node's mailbox
    /// before re-polling the cluster — the detection latency for crashes.
    pub heartbeat: Duration,
    /// Re-delivery bounds and backoff pacing for rejected gather rows.
    pub retry: RetryPolicy,
    /// Stall detection; `None` (the default) disables the watchdog, so a
    /// silent-but-alive node is simply waited on.
    pub watchdog: Option<WatchdogConfig>,
    /// How driver and nodes exchange rows: in-process channels (the
    /// default) or length-prefix-framed sockets to worker processes.
    pub transport: TransportSpec,
    /// Adversarial network conditions injected between the nodes and the
    /// driver — every wire fault, hub drops and bit flips included;
    /// `None` (the default) injects nothing.
    pub chaos: Option<ChaosPlan>,
    /// Storage backend for the driver's gather target (see
    /// [`parapsp_core::store`]): gathered rows are published into this
    /// store instead of a dense matrix, so an out-of-core backend bounds
    /// the driver's resident O(n²) state too. Node-local row shares stay
    /// dense (they are O(n²/P) by construction).
    pub store: StoreSpec,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            hub_fraction: 0.05,
            partition: SourcePartition::CyclicByDegree,
            faults: FaultPlan::default(),
            heartbeat: Duration::from_millis(10),
            retry: RetryPolicy::default(),
            watchdog: None,
            transport: TransportSpec::InProcess,
            chaos: None,
            store: StoreSpec::dense(),
        }
    }
}

/// A self-describing rejection of a [`ClusterConfig`], produced by
/// [`ClusterConfig::validate`] before any thread, socket, or process is
/// created.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterConfigError {
    /// `nodes == 0`.
    ZeroNodes,
    /// `hub_fraction` outside `[0, 1]`.
    HubFractionOutOfRange(f64),
    /// More nodes than sources: the extra nodes would idle for the whole
    /// run (tolerated by the driver, but almost always a misconfiguration
    /// worth rejecting at a CLI boundary).
    MoreNodesThanSources {
        /// Configured cluster size.
        nodes: usize,
        /// Sources (vertices) actually available to partition.
        sources: usize,
    },
    /// A pacing interval or timeout is zero; the named knob would make
    /// the protocol spin or hang instead of pacing it.
    ZeroDuration(&'static str),
    /// The socket heartbeat miss budget is zero intervals.
    ZeroHeartbeatMisses,
    /// The socket gather batch is zero rows per frame.
    ZeroRowBatch,
    /// The worker dial policy allows zero connection attempts.
    ZeroConnectAttempts,
}

impl std::fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterConfigError::ZeroNodes => write!(f, "a cluster needs at least one node"),
            ClusterConfigError::HubFractionOutOfRange(v) => {
                write!(f, "hub fraction {v} outside [0, 1]")
            }
            ClusterConfigError::MoreNodesThanSources { nodes, sources } => write!(
                f,
                "{nodes} nodes but only {sources} sources: every node needs at least one \
                 source to own (reduce the node count)"
            ),
            ClusterConfigError::ZeroDuration(what) => write!(
                f,
                "{what} must be non-zero: a zero interval spins or hangs the protocol \
                 instead of pacing it"
            ),
            ClusterConfigError::ZeroHeartbeatMisses => write!(
                f,
                "heartbeat miss budget must be at least one interval, or every worker is \
                 declared dead immediately"
            ),
            ClusterConfigError::ZeroRowBatch => {
                write!(f, "row batch must be at least one row per gather frame")
            }
            ClusterConfigError::ZeroConnectAttempts => {
                write!(f, "worker connect policy needs at least one attempt")
            }
        }
    }
}

impl std::error::Error for ClusterConfigError {}

impl ClusterConfig {
    /// Full validation against a concrete source count, for explicit
    /// construction sites (the CLI calls this before building an engine).
    /// Everything [`validate_shape`](Self::validate_shape) rejects, plus
    /// `nodes > sources`.
    pub fn validate(&self, sources: usize) -> Result<(), ClusterConfigError> {
        self.validate_shape()?;
        if self.nodes > sources {
            return Err(ClusterConfigError::MoreNodesThanSources {
                nodes: self.nodes,
                sources,
            });
        }
        Ok(())
    }

    /// Graph-independent validation: zero nodes, out-of-range hub
    /// fraction, and zero-interval/zero-timeout socket pacing. The driver
    /// enforces exactly this subset at run time (`nodes > sources` merely
    /// idles the surplus nodes, which randomized fault tests rely on).
    pub fn validate_shape(&self) -> Result<(), ClusterConfigError> {
        if self.nodes == 0 {
            return Err(ClusterConfigError::ZeroNodes);
        }
        if !(0.0..=1.0).contains(&self.hub_fraction) {
            return Err(ClusterConfigError::HubFractionOutOfRange(self.hub_fraction));
        }
        if self.heartbeat.is_zero() {
            return Err(ClusterConfigError::ZeroDuration("driver heartbeat"));
        }
        if let TransportSpec::Socket(socket) = &self.transport {
            if socket.heartbeat_interval.is_zero() {
                return Err(ClusterConfigError::ZeroDuration(
                    "worker heartbeat interval",
                ));
            }
            if socket.read_timeout.is_zero() {
                return Err(ClusterConfigError::ZeroDuration("socket read timeout"));
            }
            if socket.write_timeout.is_zero() {
                return Err(ClusterConfigError::ZeroDuration("socket write timeout"));
            }
            if socket.accept_timeout.is_zero() {
                return Err(ClusterConfigError::ZeroDuration("worker accept timeout"));
            }
            if socket.heartbeat_misses == 0 {
                return Err(ClusterConfigError::ZeroHeartbeatMisses);
            }
            if socket.row_batch == 0 {
                return Err(ClusterConfigError::ZeroRowBatch);
            }
            if socket.connect.attempts == 0 {
                return Err(ClusterConfigError::ZeroConnectAttempts);
            }
        }
        Ok(())
    }
}

/// Per-node measurements of the simulated run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Sources this node computed.
    pub sources: u64,
    /// Row-reuse events against the node's own completed rows.
    pub local_reuses: u64,
    /// Row-reuse events against rows received from other nodes.
    pub remote_reuses: u64,
    /// Bytes sent broadcasting hub rows (dropped messages included — the
    /// sender paid for them).
    pub bytes_sent: u64,
    /// Bytes received from other nodes' broadcasts.
    pub bytes_received: u64,
    /// Received hub rows discarded for failing their checksum.
    pub rows_rejected: u64,
    /// Gather rows re-sent after the driver rejected a corrupted copy.
    pub retries: u64,
    /// Total milliseconds this node slept in retry backoff (exponential
    /// delay plus seeded jitter) before re-sending rejected rows.
    pub retry_backoff_ms: u64,
    /// Sources taken over from crashed or stalled nodes.
    pub reassigned_sources: u64,
    /// Socket transport: connection attempts beyond the first this worker
    /// burned dialing the driver (seeded-exponential-backoff retries,
    /// e.g. when the worker started before the driver was listening).
    /// Always zero on the in-process transport.
    pub reconnects: u64,
    /// Socket transport: heartbeat intervals that elapsed with no traffic
    /// from this worker, as observed by the driver's reader thread.
    /// Always zero on the in-process transport.
    pub heartbeat_misses: u64,
    /// Whether this node crashed (by fault injection, or — on the socket
    /// transport — a real process death) before finishing.
    pub crashed: bool,
}

/// Why a socket run could not start: no worker completed the handshake
/// while sources were left to compute. [`DistEngine`] unwinds with this
/// payload through [`std::panic::resume_unwind`], which runs no panic
/// hook, so a caller that catches it (as the CLI does) reports the reason
/// as an ordinary error.
#[derive(Debug)]
pub struct DistFailure(pub String);

impl std::fmt::Display for DistFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DistFailure {}

/// Result of a distributed run: the exact distance matrix plus per-node
/// communication statistics and the gather-phase volume.
#[derive(Debug)]
pub struct DistApspOutput {
    /// The exact all-pairs distance matrix (gathered on the "driver").
    pub dist: DistanceMatrix,
    /// One entry per simulated node.
    pub node_stats: Vec<NodeStats>,
    /// Bytes moved streaming rows to the driver (rejected deliveries
    /// included — they crossed the wire too).
    pub gather_bytes: u64,
    /// Gather rows the driver rejected for failing their checksum.
    pub gather_rejected: u64,
    /// Sources the watchdog re-dealt away from silent-but-alive nodes.
    pub watchdog_reassigned: u64,
    /// Rows restored from a run ledger or resume checkpoint instead of
    /// being recomputed — the savings a driver restart is worth.
    pub replayed_rows: u64,
    /// End-to-end wall time of the simulated run.
    pub elapsed: std::time::Duration,
}

impl DistApspOutput {
    /// Total broadcast traffic across the cluster (excludes the gather).
    pub fn total_broadcast_bytes(&self) -> u64 {
        self.node_stats.iter().map(|s| s.bytes_sent).sum()
    }

    /// How many nodes crashed during the run.
    pub fn crashed_nodes(&self) -> usize {
        self.node_stats.iter().filter(|s| s.crashed).count()
    }
}

/// The simulated-cluster driver as a
/// [`Runner`](parapsp_core::engine::Runner)-drivable [`Engine`].
///
/// The whole distributed run — source partitioning, hub broadcasting,
/// streaming gather, crash recovery — is one indivisible work unit, so the
/// engine reports a single-unit plan ([`Engine::row_checkpoints`] is
/// `false`, so the [`Runner`](parapsp_core::engine::Runner) journals
/// nothing itself). The [`RunConfig`]'s ledger policy
/// ([`RunConfig::with_ledger`]) is honoured by the driver instead: it
/// appends every accepted gather row and commits once per scheduling
/// round, and a restarted driver pointed at the same file replays it and
/// re-deals only the missing sources. Cancellation works too: the cluster
/// driver polls the token every scheduling round, and a stop yields a
/// checkpoint of all gathered rows, resumable on any shared-memory engine.
///
/// The cluster's own ordering is always MultiLists over the global degree
/// order (the distributed analogue of ParAPSP), so the [`RunConfig`]'s
/// ordering procedure and schedule are ignored; `max_distance` is honoured
/// inside every node's kernel, exactly as in the shared-memory engines.
/// The config's solver is resolved once, in `prepare`, to a
/// [`NodeSolver`] that every node runs: `auto` (the default) gives
/// unit-weight graphs the multi-source BFS, 64 sources per edge scan,
/// and every other graph the paper's kernel. A multi-source BFS reads no
/// rows, so under it no hubs are dealt and nothing is broadcast.
///
/// The graph is replicated on every node (standard practice for
/// source-partitioned APSP: the O(n + m) structure is negligible next to
/// the O(n²/P) row share each node stores). Sources are dealt cyclically
/// along the global descending degree order; completed rows of the top
/// `hub_fraction` sources are broadcast, and every completed row is
/// streamed to the driver immediately so crashes lose no finished work.
///
/// # Panics
///
/// The run panics if the fault plan crashes every node: with no survivor
/// there is nobody left to take over the unfinished sources. `prepare`
/// panics with the [`NodeSolver::resolve`] message when the config asks
/// for a solver no node can run (Δ-stepping, or msbfs on a weighted
/// graph). A socket run that no worker joins (every one refused at the
/// handshake, or none connected in time) unwinds with a [`DistFailure`]
/// payload instead, which runs no panic hook.
///
/// ```
/// use parapsp_core::engine::{RunConfig, Runner};
/// use parapsp_dist::{ClusterConfig, DistEngine};
/// use parapsp_graph::generate::{barabasi_albert, WeightSpec};
///
/// let g = barabasi_albert(120, 3, WeightSpec::Unit, 1).unwrap();
/// let config = ClusterConfig { nodes: 3, hub_fraction: 0.1, ..ClusterConfig::default() };
/// let out = Runner::new(RunConfig::new(1)).run(DistEngine::new(config), &g);
/// assert_eq!(out.dist.get(0, 0), 0);
/// assert_eq!(out.node_stats.len(), 3);
/// ```
#[derive(Debug)]
pub struct DistEngine {
    cluster: ClusterConfig,
    n: usize,
    /// The config's solver, resolved against the graph in `prepare`.
    solver: NodeSolver,
    result: Option<DistApspOutput>,
    stopped: Option<Checkpoint>,
    /// Rows final before the run: the resume checkpoint merged with the
    /// ledger's replay.
    prior: Option<Checkpoint>,
    ledger: Option<RowLedger>,
}

impl DistEngine {
    /// An engine simulating the given cluster.
    pub fn new(cluster: ClusterConfig) -> Self {
        DistEngine {
            cluster,
            n: 0,
            solver: NodeSolver::Dijkstra,
            result: None,
            stopped: None,
            prior: None,
            ledger: None,
        }
    }

    /// The simulated cluster's configuration.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }
}

impl Engine for DistEngine {
    type Output = DistApspOutput;

    fn name(&self) -> &str {
        "DistCluster"
    }

    fn row_checkpoints(&self) -> bool {
        false
    }

    fn prepare(
        &mut self,
        graph: &CsrGraph,
        config: &RunConfig,
        _pool: &ThreadPool,
        resume: Option<Checkpoint>,
    ) -> Plan {
        self.n = graph.vertex_count();
        self.solver = match NodeSolver::resolve(config.kernel().solver, graph) {
            Ok((solver, _)) => solver,
            Err(err) => panic!("{err}"),
        };
        // Resumed rows pre-seed the driver's gather: they are marked got,
        // excluded from every node's share, and merged with whatever the
        // run config's ledger replays.
        (self.ledger, self.prior) = open_prior(config.checkpoint(), self.n, resume);
        // The engine-agnostic `--store` selection reaches the cluster here:
        // the driver's gather target uses the run config's backend.
        self.cluster.store = config.store().clone();
        // The whole cluster run is one unit; its internal ordering cost is
        // part of the simulation and not separable.
        Plan {
            units: vec![0],
            ordering: Duration::ZERO,
        }
    }

    fn run_rows(&mut self, graph: &CsrGraph, _units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome {
        let cap = ctx.config.kernel().max_distance;
        match run_cluster(
            graph,
            self.cluster.clone(),
            ctx.token,
            self.prior.take(),
            self.ledger.take(),
            cap,
            self.solver,
        ) {
            RunOutcome::Complete(output) => {
                self.result = Some(output);
                CancelStatus::Continue
            }
            RunOutcome::Cancelled { checkpoint } => {
                self.stopped = Some(checkpoint);
                CancelStatus::Cancelled
            }
            RunOutcome::DeadlineExceeded { checkpoint } => {
                self.stopped = Some(checkpoint);
                CancelStatus::DeadlineExceeded
            }
        }
    }

    fn snapshot(&self) -> Checkpoint {
        match &self.stopped {
            Some(checkpoint) => checkpoint.clone(),
            None => Checkpoint::new(DistanceMatrix::new_infinite(self.n), vec![false; self.n]),
        }
    }

    fn finish(self, _graph: &CsrGraph, summary: RunSummary) -> DistApspOutput {
        let mut output = self.result.expect("run_rows() did not complete");
        output.elapsed = summary.timings.total;
        output
    }
}

/// Test-only convenience: drives a [`DistEngine`] through a [`Runner`]
/// with the default single-driver config. Shared by this crate's unit
/// tests (cluster, socket, fault); library callers construct the Runner
/// themselves.
#[cfg(test)]
pub(crate) fn dist_apsp(graph: &CsrGraph, config: ClusterConfig) -> DistApspOutput {
    parapsp_core::engine::Runner::new(RunConfig::new(1)).run(DistEngine::new(config), graph)
}

/// Cancellable flavour of the [`dist_apsp`] test helper.
#[cfg(test)]
pub(crate) fn dist_apsp_cancellable(
    graph: &CsrGraph,
    config: ClusterConfig,
    token: &CancelToken,
) -> RunOutcome<DistApspOutput> {
    parapsp_core::engine::Runner::new(RunConfig::new(1)).run_with_token(
        DistEngine::new(config),
        graph,
        token,
    )
}

/// Opens (or creates) the ledger `policy` names and folds its replayed
/// rows into the run's resume checkpoint (see [`RowLedger::open_merged`]).
/// Returns the ledger handle (if configured) and the merged prior rows
/// (if any).
fn open_prior(
    policy: Option<&CheckpointPolicy>,
    n: usize,
    resume: Option<Checkpoint>,
) -> (Option<RowLedger>, Option<Checkpoint>) {
    let Some(policy) = policy else {
        return (None, resume);
    };
    let (ledger, merged) = RowLedger::open_merged(&policy.path, n, policy.fsync, resume)
        .unwrap_or_else(|error| persist::ledger_panic(&policy.path, error));
    let prior = merged.filter(|merged| merged.completed_count() > 0);
    (Some(ledger), prior)
}

/// Runs the whole cluster from the `prior` rows, journaling accepted rows
/// to `ledger`; every node solves its rows with `solver`, capped at `cap`.
fn run_cluster(
    graph: &CsrGraph,
    config: ClusterConfig,
    token: Option<&CancelToken>,
    prior: Option<Checkpoint>,
    ledger: Option<RowLedger>,
    cap: Option<u32>,
    solver: NodeSolver,
) -> RunOutcome<DistApspOutput> {
    if let Err(error) = config.validate_shape() {
        panic!("{error}");
    }
    let n = graph.vertex_count();
    let nodes = config.nodes;
    let start = Instant::now();

    // Global preprocessing (the "driver" step of a real deployment): the
    // descending degree order, shared read-only by all nodes.
    let degrees = degree::out_degrees(graph);
    let order_pool = ThreadPool::new(1);
    let order = OrderingProcedure::multi_lists().compute(&degrees, &order_pool);

    // Hub set: the first `hub_fraction * n` sources of the order. A
    // multi-source BFS reads no rows, so it gets none: broadcasting them
    // would be traffic nobody reads.
    let hub_count = match solver {
        NodeSolver::Dijkstra => ((n as f64) * config.hub_fraction).round() as usize,
        NodeSolver::MsBfs => 0,
    };
    let mut is_hub = vec![false; n];
    for &s in order.iter().take(hub_count) {
        is_hub[s as usize] = true;
    }

    // Assign sources to nodes per the configured partition strategy.
    let mut owned: Vec<Vec<u32>> = match config.partition {
        SourcePartition::CyclicByDegree => (0..nodes)
            .map(|k| order.iter().skip(k).step_by(nodes).copied().collect())
            .collect(),
        SourcePartition::BlockByDegree => {
            let mut owned = vec![Vec::new(); nodes];
            let per_node = n.div_ceil(nodes.max(1)).max(1);
            for (i, &s) in order.iter().enumerate() {
                owned[(i / per_node).min(nodes - 1)].push(s);
            }
            owned
        }
        SourcePartition::CyclicById => (0..nodes)
            .map(|k| (k as u32..n as u32).step_by(nodes).collect())
            .collect(),
    };

    // Prior rows from a resume checkpoint and/or a recovered ledger are
    // already final: pre-seed the gather with them and deal only the
    // missing sources, so a restarted driver recomputes strictly less.
    // The ledger's run id and epoch fence the worker handshake; a run
    // without one still mints an identity to hand its workers.
    let identity = ledger
        .as_ref()
        .map_or_else(|| (mint_run_id(), 0), |l| (l.run_id(), l.epoch()));
    if let Some(prior) = &prior {
        let done = prior.completed();
        for share in &mut owned {
            share.retain(|&s| !done[s as usize]);
        }
    }
    let mut driver = Driver::new(nodes, owned.clone(), n, config.retry);
    driver.burst = solver.rows_per_solve();
    driver.ledger = ledger;
    if config.store.kind() != StoreKind::Dense {
        // `Driver::new` built the default dense gather target; swap in the
        // configured backend before any row lands in it.
        driver.store = Store::new(n, &config.store);
    }
    if let Some(prior) = &prior {
        for s in 0..n as u32 {
            if prior.completed()[s as usize] {
                driver.got[s as usize] = true;
                driver.gathered += 1;
                driver.store.publish_from(s, prior.matrix().row(s));
            }
        }
        driver.replayed = driver.gathered as u64;
    }

    match config.transport.clone() {
        TransportSpec::InProcess => run_cluster_channels(
            graph, &config, token, cap, solver, &is_hub, &owned, driver, start,
        ),
        TransportSpec::Socket(socket) => run_cluster_socket(
            graph, &config, &socket, token, cap, solver, &is_hub, &owned, driver, identity, start,
        ),
    }
}

/// The transport-agnostic driver loop: poll the token, drain events,
/// run the watchdog, and block (boundedly) only when truly idle. Returns
/// `Some(status)` when a cancellation or deadline stopped the run early.
fn drive<T: Transport>(
    driver: &mut Driver,
    transport: &mut T,
    config: &ClusterConfig,
    token: Option<&CancelToken>,
    n: usize,
) -> Option<CancelStatus> {
    while driver.gathered < n {
        // Cooperative stop: the driver is the only poll()-er (nodes use
        // the non-consuming status()), so poll-budget cancellation in
        // tests trips after a deterministic number of driver rounds.
        if let Some(token) = token {
            let status = token.poll();
            if status.is_stop() {
                return Some(status);
            }
        }
        // Drain every alive node's event stream; a closed stream here is
        // the crash signal (both backends report it only after the
        // buffered rows are consumed, so no finished work is lost).
        let mut progressed = false;
        for k in 0..driver.nodes {
            if driver.alive[k] {
                progressed |= driver.drain(k, transport);
            }
        }
        if let Some(watchdog) = &config.watchdog {
            driver.check_watchdog(watchdog, transport);
        }
        // One ledger commit per driver round batches the fsyncs of every
        // row drained above (a no-op round is a no-op commit).
        driver.commit_ledger();
        if driver.gathered >= n || progressed {
            continue;
        }
        // Nothing queued anywhere: block — but never unboundedly — until
        // any node sends or dies, then re-poll the whole cluster. A
        // deadline token bounds the blocking wait too, so a sleeping
        // driver wakes in time to stop (the bridge between cooperative
        // cancellation and blocking socket reads).
        assert!(
            driver.watch_target().is_some(),
            "ungathered sources must have an alive owner"
        );
        let wait = token
            .and_then(|t| t.time_left())
            .map_or(config.heartbeat, |left| left.min(config.heartbeat));
        transport.wait(wait);
    }
    None
}

/// Runs [`drive`] with the configured [`ChaosPlan`] (if any) wrapped
/// around the transport. When the loop ends, anything chaos still holds —
/// duplicates of the final rows, late hub relays — is folded into the
/// driver over the raw transport, so a cancelled run's checkpoint loses
/// nothing that was already on the (chaotic) wire.
fn drive_with_chaos<T: Transport>(
    driver: &mut Driver,
    transport: &mut T,
    config: &ClusterConfig,
    token: Option<&CancelToken>,
    n: usize,
) -> Option<CancelStatus> {
    let Some(plan) = config.chaos.as_ref().filter(|plan| !plan.is_inert()) else {
        return drive(driver, transport, config, token, n);
    };
    let (stop, held) = {
        let mut chaos = ChaosTransport::new(transport, plan.clone(), config.nodes);
        let stop = drive(driver, &mut chaos, config, token, n);
        (stop, chaos.into_pending())
    };
    for (k, event) in held {
        driver.on_events(k, vec![event], transport);
    }
    driver.commit_ledger();
    stop
}

/// The in-process backend: one scoped thread per node, crossbeam
/// channels for the wire, hub rows relayed by the driver.
#[allow(clippy::too_many_arguments)]
fn run_cluster_channels(
    graph: &CsrGraph,
    config: &ClusterConfig,
    token: Option<&CancelToken>,
    cap: Option<u32>,
    solver: NodeSolver,
    is_hub: &[bool],
    owned: &[Vec<u32>],
    mut driver: Driver,
    start: Instant,
) -> RunOutcome<DistApspOutput> {
    let n = graph.vertex_count();
    let nodes = config.nodes;
    let mut control_senders = Vec::with_capacity(nodes);
    let mut control_receivers = Vec::with_capacity(nodes);
    let mut gather_senders = Vec::with_capacity(nodes);
    let mut gather_receivers = Vec::with_capacity(nodes);
    let (ring, bell) = unbounded();
    for _ in 0..nodes {
        let (ctx, crx) = unbounded();
        control_senders.push(ctx);
        control_receivers.push(Some(crx));
        let (gtx, grx) = unbounded();
        gather_senders.push(Some(EventSender::new(gtx, ring.clone())));
        gather_receivers.push(grx);
    }
    drop(ring);
    let mut transport = ChannelTransport {
        control_tx: control_senders,
        gather_rx: gather_receivers,
        bell,
    };

    let plan = &config.faults;
    let retry = &config.retry;
    let mut node_stats = vec![NodeStats::default(); nodes];
    let mut stop = None;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nodes)
            .map(|k| {
                let mut io = ChannelNodeIo {
                    inbox: control_receivers[k].take().expect("receiver taken once"),
                    gather: gather_senders[k].take().expect("sender taken once"),
                };
                let owned_k = &owned[k];
                scope.spawn(move || {
                    (
                        k,
                        run_node_loop(
                            k,
                            graph,
                            owned_k,
                            is_hub,
                            nodes,
                            plan,
                            retry,
                            token,
                            cap,
                            solver,
                            Duration::ZERO,
                            &mut io,
                        ),
                    )
                })
            })
            .collect();

        stop = drive_with_chaos(&mut driver, &mut transport, config, token, n);

        for k in 0..nodes {
            if driver.alive[k] {
                transport.control(k, NodeControl::Shutdown);
            }
        }
        for handle in handles {
            let (k, stats) = handle.join().expect("node thread panicked");
            node_stats[k] = stats;
        }
    });

    if stop.is_some() {
        // Rows already on the wire when the stop hit are still sitting in
        // the (now disconnected) gather buffers; fold them in so the
        // checkpoint loses nothing that was finished. Control replies the
        // driver attempts here land on dead mailboxes and are dropped.
        for k in 0..nodes {
            while let Polled::Event(event) = transport.try_event(k) {
                driver.on_events(k, vec![event], &mut transport);
            }
        }
    }

    finish_output(driver, node_stats, start, stop)
}

/// The socket backend: bind, handshake every worker (spawning threads or
/// processes per [`SocketConfig::workers`]), then run the same driver
/// loop with per-connection reader threads feeding the event streams.
#[allow(clippy::too_many_arguments)]
fn run_cluster_socket(
    graph: &CsrGraph,
    config: &ClusterConfig,
    socket: &SocketConfig,
    token: Option<&CancelToken>,
    cap: Option<u32>,
    solver: NodeSolver,
    is_hub: &[bool],
    owned: &[Vec<u32>],
    mut driver: Driver,
    identity: (u64, u32),
    start: Instant,
) -> RunOutcome<DistApspOutput> {
    let n = graph.vertex_count();
    let nodes = config.nodes;
    let (run_id, epoch) = identity;
    let hubs: Vec<u32> = (0..n as u32).filter(|&v| is_hub[v as usize]).collect();
    let setups: Vec<WorkerSetup> = (0..nodes)
        .map(|k| WorkerSetup {
            node_id: k as u32,
            nodes: nodes as u32,
            run_id,
            epoch,
            heartbeat_ms: u64::try_from(socket.heartbeat_interval.as_millis()).unwrap_or(u64::MAX),
            row_batch: socket.row_batch as u32,
            retry: config.retry,
            max_distance: cap,
            solver,
            hubs: hubs.clone(),
            owned: owned[k].clone(),
            faults: config.faults.clone(),
            graph: graph.clone(),
        })
        .collect();
    let (mut transport, dead_at_start) = match SocketTransport::start(socket, setups, token) {
        Ok(started) => started,
        Err(SocketStartError::Stopped(status)) => {
            // Cancelled while waiting for workers: whatever the ledger or
            // resume checkpoint already held is still the run's state.
            let store = std::mem::replace(&mut driver.store, Store::new(0, &StoreSpec::dense()));
            let checkpoint = Checkpoint::new(store.into_matrix(), driver.got.clone());
            driver.finish_ledger();
            return RunOutcome::from_stop(status, checkpoint);
        }
        Err(SocketStartError::Io(message)) => panic!("socket transport setup failed: {message}"),
    };

    // With no worker at all the run cannot start: say why, rather than
    // treat it as every node crashing.
    let owes_rows = driver
        .outstanding
        .iter()
        .flatten()
        .any(|&s| !driver.got[s as usize]);
    if dead_at_start.nodes.len() == nodes && owes_rows {
        let why = match dead_at_start.refused {
            Some(reason) => format!("the last one was refused at the handshake: {reason}"),
            None => format!(
                "none connected within the {:?} accept timeout",
                socket.accept_timeout
            ),
        };
        transport.finish();
        std::panic::resume_unwind(Box::new(DistFailure(format!(
            "dist: no worker joined the run ({nodes} expected); {why}"
        ))));
    }
    // Workers that never completed the handshake are crashes that
    // happened before the run: re-deal their shares immediately.
    for k in dead_at_start.nodes {
        driver.on_crash(k, &mut transport);
    }
    let stop = drive_with_chaos(&mut driver, &mut transport, config, token, n);
    // Shutdown goes to every node with a live connection — including one
    // the driver wrongly presumed dead (heartbeat false positive), which
    // would otherwise block on its inbox forever. Dead connections
    // swallow the write harmlessly.
    for k in 0..nodes {
        transport.control(k, NodeControl::Shutdown);
    }
    // Teardown: drain late rows and final Stats frames, join readers and
    // worker threads, reap worker processes.
    // During teardown no node is waiting on a reply, so late events fold
    // into the driver with replies discarded.
    struct NullSink;
    impl ControlSink for NullSink {
        fn control(&mut self, _node: usize, _message: NodeControl) {}
    }
    for (k, event) in transport.finish() {
        driver.on_events(k, vec![event], &mut NullSink);
    }

    let mut node_stats = vec![NodeStats::default(); nodes];
    for (k, slot) in node_stats.iter_mut().enumerate() {
        let mut stats = driver.wire_stats[k].unwrap_or(NodeStats {
            // A worker that died without a Stats frame (injected crash,
            // kill -9, lost connection): credit the rows it delivered so
            // "every source computed at least once" stays auditable from
            // the per-node summary.
            sources: driver.delivered[k],
            crashed: true,
            ..NodeStats::default()
        });
        if !driver.alive[k] {
            stats.crashed = true;
        }
        stats.heartbeat_misses = transport.heartbeat_misses(k);
        *slot = stats;
    }
    finish_output(driver, node_stats, start, stop)
}

/// Folds the driver state into the public output / checkpoint.
fn finish_output(
    mut driver: Driver,
    node_stats: Vec<NodeStats>,
    start: Instant,
    stop: Option<CancelStatus>,
) -> RunOutcome<DistApspOutput> {
    // Rows accepted after the last driver round (late drains, chaos
    // releases) are committed here, before the run is declared over.
    driver.finish_ledger();
    let got = driver.got;
    let output = DistApspOutput {
        // Collapses the gather store into the dense output matrix
        // (zero-copy for the default dense backend).
        dist: driver.store.into_matrix(),
        node_stats,
        gather_bytes: driver.gather_bytes,
        gather_rejected: driver.gather_rejected,
        watchdog_reassigned: driver.watchdog_reassigned,
        replayed_rows: driver.replayed,
        elapsed: start.elapsed(),
    };
    match stop {
        None => RunOutcome::Complete(output),
        Some(status) => RunOutcome::from_stop(status, Checkpoint::new(output.dist, got)),
    }
}

/// Driver-side bookkeeping for the streaming gather and crash recovery.
/// All control replies go through a [`ControlSink`], so the recovery
/// logic is testable with a recording mock, independent of any cluster.
struct Driver {
    nodes: usize,
    alive: Vec<bool>,
    /// Sources each node is currently responsible for, in assignment
    /// order; entries are filtered against `got` rather than removed.
    outstanding: Vec<Vec<u32>>,
    got: Vec<bool>,
    gathered: usize,
    gather_bytes: u64,
    gather_rejected: u64,
    /// Round-robin cursor for dealing crashed nodes' work to survivors.
    reassign_cursor: usize,
    retry: RetryPolicy,
    /// Rejected deliveries per source, for bounding re-sends.
    reject_count: Vec<u64>,
    watchdog_reassigned: u64,
    /// When each node last put anything on its gather wire (its liveness
    /// signal for the watchdog).
    last_seen: Vec<Instant>,
    /// When each node's last `burst` rows arrived, oldest first; the
    /// driver's start stands in until the first `burst` have.
    arrivals: Vec<VecDeque<Instant>>,
    /// Rows a node yields per solve (`NodeSolver::rows_per_solve`). A
    /// watchdog gap spans this many rows, so a node that solves 64 rows,
    /// sends them at once and goes quiet for the next solve is measured
    /// by its time per batch, not by the near-zero gaps inside one.
    burst: usize,
    /// Recent watchdog gaps per node, newest last, bounded window.
    gaps: Vec<Vec<Duration>>,
    /// Rows accepted into the matrix per sending node — the basis for
    /// synthesizing stats of a worker that died without reporting any.
    delivered: Vec<u64>,
    /// Final stats received over the wire (socket transport only).
    wire_stats: Vec<Option<NodeStats>>,
    /// The gather target: accepted rows are published here, in the
    /// backend the [`ClusterConfig`] selected.
    store: Store,
    /// Incremental durability: every accepted row is appended here, and
    /// the driver commits once per scheduling round.
    ledger: Option<RowLedger>,
    /// Rows pre-seeded from a ledger replay or resume checkpoint.
    replayed: u64,
}

/// How many gaps the watchdog's rolling median looks back over.
const GAP_WINDOW: usize = 32;

/// Most events the driver drains from one node before verifying their
/// rows together: a few gather frames' worth, so the batch stays small.
const DRAIN_BATCH: usize = 16;

impl Driver {
    /// Fresh bookkeeping for `nodes` nodes owning `outstanding` shares of
    /// an `n`-vertex gather.
    fn new(nodes: usize, outstanding: Vec<Vec<u32>>, n: usize, retry: RetryPolicy) -> Self {
        let start = Instant::now();
        Driver {
            nodes,
            alive: vec![true; nodes],
            outstanding,
            got: vec![false; n],
            gathered: 0,
            gather_bytes: 0,
            gather_rejected: 0,
            reassign_cursor: 0,
            retry,
            reject_count: vec![0; n],
            watchdog_reassigned: 0,
            last_seen: vec![start; nodes],
            arrivals: vec![VecDeque::from([start]); nodes],
            burst: 1,
            gaps: vec![Vec::new(); nodes],
            delivered: vec![0; nodes],
            wire_stats: vec![None; nodes],
            store: Store::new(n, &StoreSpec::dense()),
            ledger: None,
            replayed: 0,
        }
    }

    /// Commits buffered ledger appends (a no-op without a ledger, or when
    /// nothing was appended since the last commit).
    fn commit_ledger(&mut self) {
        if let Some(ledger) = &mut self.ledger {
            if let Err(error) = ledger.commit() {
                persist::ledger_panic(ledger.path(), error);
            }
        }
    }

    /// Final commit-and-close of the ledger; idempotent.
    fn finish_ledger(&mut self) {
        if let Some(ledger) = self.ledger.take() {
            let path = ledger.path().to_path_buf();
            if let Err(error) = ledger.finish() {
                persist::ledger_panic(&path, error);
            }
        }
    }

    /// Drains node `k`'s queued events a batch of at most [`DRAIN_BATCH`]
    /// at a time, each batch through [`Driver::on_events`], and handles the
    /// node's death if its stream ends. Returns whether anything arrived.
    fn drain<T: Transport>(&mut self, k: usize, transport: &mut T) -> bool {
        let mut progressed = false;
        loop {
            let mut batch = Vec::with_capacity(DRAIN_BATCH);
            let end = loop {
                match transport.try_event(k) {
                    Polled::Event(event) => {
                        batch.push(event);
                        if batch.len() == DRAIN_BATCH {
                            break None;
                        }
                    }
                    end => break Some(end),
                }
            };
            progressed |= !batch.is_empty();
            self.on_events(k, batch, transport);
            match end {
                None => {}
                Some(Polled::Down) => {
                    self.on_crash(k, transport);
                    return true;
                }
                Some(_) => return progressed,
            }
        }
    }

    /// Handles a batch of transport events from node `k`, in order. The
    /// rows among them are verified first, in one four-lane
    /// [`row_checksums`] pass — downstream of any chaos layer, so
    /// corruption in flight is caught here.
    fn on_events<S: ControlSink>(&mut self, k: usize, events: Vec<NodeEvent>, sink: &mut S) {
        let rows: Vec<(u32, &[u32])> = events
            .iter()
            .filter_map(|event| match event {
                NodeEvent::Row(message) => Some((message.source, &message.row[..])),
                _ => None,
            })
            .collect();
        let mut checksums = row_checksums(&rows).into_iter();
        for event in events {
            match event {
                NodeEvent::Row(message) => {
                    let intact = checksums.next() == Some(message.checksum);
                    self.on_row(k, message, intact, sink);
                }
                NodeEvent::HubFwd { to, msg } => {
                    // Star-topology hub relay on both transports. The
                    // receiving peer verifies the row, so a corrupted one
                    // is relayed as is and rejected there.
                    if to < self.nodes && to != k && self.alive[to] {
                        sink.control(to, NodeControl::Hub(msg));
                    }
                }
                NodeEvent::Stats(stats) => self.wire_stats[k] = Some(stats),
            }
        }
    }

    /// Handles one gather message from node `k`; `intact` says whether
    /// its payload matched its checksum. A row that names no vertex, has
    /// the wrong length or is not intact is rejected — the socket
    /// transport forwards decoded frames verbatim, so nothing upstream
    /// has vetted it.
    fn on_row<S: ControlSink>(
        &mut self,
        k: usize,
        message: RowMessage,
        intact: bool,
        sink: &mut S,
    ) {
        let now = Instant::now();
        self.last_seen[k] = now;
        let arrivals = &mut self.arrivals[k];
        let gap = now.duration_since(arrivals[0]);
        if arrivals.len() == self.burst {
            arrivals.pop_front();
        }
        arrivals.push_back(now);
        if self.gaps[k].len() == GAP_WINDOW {
            self.gaps[k].remove(0);
        }
        self.gaps[k].push(gap);
        self.gather_bytes += message.wire_bytes();
        let n = self.got.len();
        let s = message.source as usize;
        if s >= n {
            // Names no vertex: nothing to accept, nothing to re-request.
            self.gather_rejected += 1;
            return;
        }
        if message.row.len() != n || !intact {
            self.gather_rejected += 1;
            if !self.got[s] {
                self.reject_count[s] += 1;
                if self.reject_count[s] <= self.retry.max_resends
                    || !self.redeal_away_from(k, message.source, sink)
                {
                    // Within the retry budget — or past it with nobody else
                    // alive to deal to, where re-sending (each attempt draws
                    // fresh fault coordinates) is the only road to progress.
                    sink.control(k, NodeControl::Resend(message.source));
                }
            }
            return;
        }
        if self.got[s] {
            return;
        }
        self.got[s] = true;
        self.gathered += 1;
        self.delivered[k] += 1;
        self.store.publish_from(message.source, &message.row);
        // The row is accepted: journal it, with the checksum it was just
        // verified against, before anything else can observe it as
        // gathered. Fsync timing follows the ledger's policy — `Always`
        // syncs here, `Commit` at the driver round.
        if let Some(ledger) = &mut self.ledger {
            if let Err(error) = ledger.append_sealed(message.source, &message.row, message.checksum)
            {
                persist::ledger_panic(ledger.path(), error);
            }
        }
    }

    /// Re-deals source `s` to an alive node other than `k` (the path that
    /// exhausted its retry budget). Returns `false` when `k` is the only
    /// survivor.
    fn redeal_away_from<S: ControlSink>(&mut self, k: usize, s: u32, sink: &mut S) -> bool {
        let survivors: Vec<usize> = (0..self.nodes)
            .filter(|&j| self.alive[j] && j != k)
            .collect();
        if survivors.is_empty() {
            return false;
        }
        let j = survivors[self.reassign_cursor % survivors.len()];
        self.reassign_cursor += 1;
        self.outstanding[k].retain(|&x| x != s);
        self.outstanding[j].push(s);
        sink.control(j, NodeControl::Assign(s));
        true
    }

    /// Declares nodes stalled when they owe rows but have been silent
    /// longer than `stall_factor ×` their rolling median gap
    /// (never less than `floor`), and re-deals their ungathered sources to
    /// the other survivors. A stalled node is left alive: late deliveries
    /// are deduplicated, so waking up costs nothing but duplicate work.
    fn check_watchdog<S: ControlSink>(&mut self, watchdog: &WatchdogConfig, sink: &mut S) {
        for k in 0..self.nodes {
            if !self.alive[k] || self.gaps[k].len() < watchdog.min_samples {
                continue;
            }
            let owes: Vec<u32> = self.outstanding[k]
                .iter()
                .copied()
                .filter(|&s| !self.got[s as usize])
                .collect();
            if owes.is_empty() {
                continue;
            }
            let mut sorted = self.gaps[k].clone();
            sorted.sort();
            let median = sorted[sorted.len() / 2];
            let threshold = median.mul_f64(watchdog.stall_factor).max(watchdog.floor);
            if self.last_seen[k].elapsed() <= threshold {
                continue;
            }
            let survivors: Vec<usize> = (0..self.nodes)
                .filter(|&j| self.alive[j] && j != k)
                .collect();
            if survivors.is_empty() {
                continue; // nobody to take over; keep waiting
            }
            self.outstanding[k].clear();
            // Give the node a fresh full threshold before a second strike.
            self.last_seen[k] = Instant::now();
            for s in owes {
                let j = survivors[self.reassign_cursor % survivors.len()];
                self.reassign_cursor += 1;
                self.outstanding[j].push(s);
                self.watchdog_reassigned += 1;
                sink.control(j, NodeControl::Assign(s));
            }
        }
    }

    /// Handles node `k`'s disconnect: re-deal its unfinished sources
    /// cyclically over the survivors, preserving their original order.
    fn on_crash<S: ControlSink>(&mut self, k: usize, sink: &mut S) {
        self.alive[k] = false;
        let remaining: Vec<u32> = self.outstanding[k]
            .iter()
            .copied()
            .filter(|&s| !self.got[s as usize])
            .collect();
        self.outstanding[k].clear();
        if remaining.is_empty() {
            return;
        }
        let survivors: Vec<usize> = (0..self.nodes).filter(|&j| self.alive[j]).collect();
        assert!(
            !survivors.is_empty(),
            "all nodes crashed with {} sources unfinished — nothing left to recover on",
            remaining.len()
        );
        for s in remaining {
            let j = survivors[self.reassign_cursor % survivors.len()];
            self.reassign_cursor += 1;
            self.outstanding[j].push(s);
            sink.control(j, NodeControl::Assign(s));
        }
    }

    /// An alive node that still owes rows: the idle driver checks that
    /// one exists, or its wait would be for nothing.
    fn watch_target(&self) -> Option<usize> {
        (0..self.nodes)
            .find(|&k| self.alive[k] && self.outstanding[k].iter().any(|&s| !self.got[s as usize]))
    }
}

/// The body of one node, written once against [`NodeIo`]: an in-process
/// node thread (channel transport) and a remote worker process (socket
/// transport) both run exactly this loop, so protocol behaviour —
/// including where a [`FaultPlan`] crash or stall lands — is identical
/// across transports.
///
/// Each iteration emits one row. Under [`NodeSolver::Dijkstra`] it solves
/// the next pending source first. Under [`NodeSolver::MsBfs`] it solves
/// up to 64 pending sources in one multi-source BFS whenever no solved
/// row is left to emit, and emits them one per iteration. Either way
/// every emitted row passes the same mailbox drain, crash and stall
/// checks, `source_delay` and gather batching, so fault coordinates count
/// emitted rows: a crash mid-batch loses only rows never sent, and a
/// parked node still emits the rows it already solved.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_node_loop<IO: NodeIo>(
    k: usize,
    graph: &CsrGraph,
    initial: &[u32],
    is_hub: &[bool],
    nodes: usize,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    token: Option<&CancelToken>,
    cap: Option<u32>,
    solver: NodeSolver,
    source_delay: Duration,
    io: &mut IO,
) -> NodeStats {
    let n = graph.vertex_count();
    let crash_after = plan.crash_after(k);
    let stall = plan.stall_after(k);
    let mut stalled = false;
    let mut state = NodeState::new(n, cap);
    let mut pending: VecDeque<u32> = initial.iter().copied().collect();
    // Rows a multi-source BFS solved ahead, in source order, not emitted yet.
    let mut solved: VecDeque<u32> = VecDeque::new();
    let mut stats = NodeStats::default();
    let mut gather = Gather::new(n);
    let mut completed = 0u64;

    let shut_down = 'life: loop {
        // Drain the mailbox so freshly arrived hub rows, assignments, and
        // re-send requests are handled before the next SSSP.
        loop {
            match io.try_recv() {
                Ok(Some(message)) => {
                    if handle_control(
                        message,
                        k,
                        plan,
                        retry,
                        &mut state,
                        &mut pending,
                        &mut stats,
                        &mut gather,
                        io,
                    ) {
                        break 'life true;
                    }
                }
                Ok(None) => break,
                Err(_) => break 'life false,
            }
        }
        // Injected crash: stop dead without a word — the thread returns /
        // the worker slams its socket — and the driver finds out from the
        // closed stream, exactly like a real death.
        if crash_after.is_some_and(|after| completed >= after) {
            stats.crashed = true;
            break false;
        }
        // Injected stall: go silent without dying, then resume. (A socket
        // worker's heartbeat thread keeps beating through the stall — a
        // stall is not a crash, and only the watchdog may re-deal it.)
        if let Some((after, millis)) = stall {
            if !stalled && completed >= after {
                stalled = true;
                gather.send(&state, io);
                std::thread::sleep(Duration::from_millis(millis));
            }
        }
        // A tripped token parks the node: it stops starting sources (the
        // in-flight one, if any, already finished) and waits for the
        // driver's Shutdown instead of exiting — a unilateral exit would
        // look like a crash and trigger pointless reassignment.
        let parked = token.is_some_and(|t| t.status().is_stop());
        if solver == NodeSolver::MsBfs && solved.is_empty() && !parked {
            let lanes = solver.rows_per_solve();
            let mut batch = Vec::with_capacity(lanes);
            while batch.len() < lanes {
                let Some(s) = pending.pop_front() else { break };
                // Defensive, as below: assignments are unique.
                if state.row_for(s).is_none() {
                    batch.push(s);
                }
            }
            if !batch.is_empty() {
                state.run_batch(graph, &batch);
                solved.extend(batch);
            }
        }
        let next = match solver {
            NodeSolver::MsBfs => solved.pop_front(),
            NodeSolver::Dijkstra if parked => None,
            NodeSolver::Dijkstra => pending.pop_front(),
        };
        let Some(s) = next else {
            // Idle: send the rows held back, then wait for more work, a
            // hub row, or shutdown.
            gather.send(&state, io);
            match io.recv() {
                Ok(message) => {
                    if handle_control(
                        message,
                        k,
                        plan,
                        retry,
                        &mut state,
                        &mut pending,
                        &mut stats,
                        &mut gather,
                        io,
                    ) {
                        break true;
                    }
                    continue;
                }
                Err(_) => break false,
            }
        };
        if solver == NodeSolver::Dijkstra && state.row_for(s).is_some() {
            continue; // already computed (defensive; assignments are unique)
        }
        if !source_delay.is_zero() {
            // Testing throttle (`node --delay-ms`): pace this worker so
            // integration tests can kill it deterministically mid-run.
            std::thread::sleep(source_delay);
        }
        let row = match solver {
            NodeSolver::Dijkstra => state.run_source(graph, s),
            NodeSolver::MsBfs => state.row_for(s).expect("solved rows are held"),
        };
        completed += 1;
        stats.sources += 1;
        if is_hub[s as usize] {
            // Sealed once, sent once per peer. The sender pays for the
            // bytes whether or not the wire eats the message.
            let sealed = RowRef {
                source: s,
                checksum: row_checksum(s, row),
                row,
            };
            for peer in (0..nodes).filter(|&peer| peer != k) {
                stats.bytes_sent += sealed.wire_bytes();
                io.send_hub(peer, sealed);
            }
        }
        gather.queue(s, false);
        if gather.held() >= io.row_batch() {
            gather.send(&state, io);
        }
    };
    // An orderly shutdown sends what is held back; a crash dies with it,
    // and a lost driver cannot take it.
    if shut_down {
        gather.send(&state, io);
    }

    stats.local_reuses = state.local_reuses;
    stats.remote_reuses = state.remote_reuses;
    stats.rows_rejected = state.rows_rejected;
    stats
}

/// Processes one control message; returns `true` on shutdown.
#[allow(clippy::too_many_arguments)]
fn handle_control<IO: NodeIo>(
    message: NodeControl,
    k: usize,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    state: &mut NodeState,
    pending: &mut VecDeque<u32>,
    stats: &mut NodeStats,
    gather: &mut Gather,
    io: &mut IO,
) -> bool {
    match message {
        NodeControl::Hub(row) => {
            stats.bytes_received += row.wire_bytes();
            state.accept(row);
            false
        }
        NodeControl::Assign(s) => {
            // A re-deal can cycle back to a node that already finished the
            // source (watchdog false positive, or a rejected delivery being
            // routed away and back). Re-deliver the finished row — dropping
            // the assignment instead would leave the driver waiting on a
            // row nobody intends to send.
            if state.row_for(s).is_some() {
                gather.queue(s, true);
                gather.send(state, io);
                return false;
            }
            if pending.contains(&s) {
                return false;
            }
            pending.push_back(s);
            stats.reassigned_sources += 1;
            false
        }
        NodeControl::Resend(s) => {
            assert!(
                state.row_for(s).is_some(),
                "driver requested a re-send of a row this node never sent"
            );
            stats.retries += 1;
            let attempt = gather.queue(s, true);
            // Exponential backoff with deterministic jitter before the
            // re-send, so a flaky path is not hammered at full rate.
            let exponential = retry
                .cap_ms
                .min(retry.base_ms.saturating_mul(1u64 << (attempt - 1).min(62)));
            let sleep_ms =
                exponential + plan.backoff_jitter_ms(k as u64, s, attempt, retry.base_ms);
            if sleep_ms > 0 {
                std::thread::sleep(Duration::from_millis(sleep_ms));
                stats.retry_backoff_ms += sleep_ms;
            }
            // Send at once: the driver is actively waiting on this row,
            // holding it back would add a round of latency for nothing.
            gather.send(state, io);
            false
        }
        NodeControl::Shutdown => true,
    }
}

/// A node's outbound gather: completed rows held back until a frame's
/// worth is ready, and the delivery attempt per source (which paces the
/// backoff before a re-send).
struct Gather {
    attempts: Vec<u64>,
    /// Sources of the rows held back, in completion order.
    held: Vec<u32>,
}

impl Gather {
    fn new(n: usize) -> Self {
        Gather {
            attempts: vec![0; n],
            held: Vec::new(),
        }
    }

    /// Holds back a delivery of `s`'s row — a fresh attempt when `retry`
    /// — and returns its attempt number.
    fn queue(&mut self, s: u32, retry: bool) -> u64 {
        let attempt = &mut self.attempts[s as usize];
        *attempt += u64::from(retry);
        self.held.push(s);
        *attempt
    }

    /// Rows held back.
    fn held(&self) -> usize {
        self.held.len()
    }

    /// Seals the held rows in one four-lane [`row_checksums`] pass and
    /// sends them as one batch.
    fn send<IO: NodeIo>(&mut self, state: &NodeState, io: &mut IO) {
        if self.held.is_empty() {
            return;
        }
        let rows: Vec<(u32, &[u32])> = self
            .held
            .iter()
            .map(|&s| (s, state.row_for(s).expect("only computed rows are held")))
            .collect();
        let sealed: Vec<RowRef<'_>> = rows
            .iter()
            .zip(row_checksums(&rows))
            .map(|(&(source, row), checksum)| RowRef {
                source,
                checksum,
                row,
            })
            .collect();
        io.send_rows(&sealed);
        self.held.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_core::baselines::apsp_dijkstra;
    use parapsp_core::engine::Runner;
    use parapsp_core::SolverKind;
    use parapsp_core::INF;
    use parapsp_graph::generate::{barabasi_albert, erdos_renyi_gnm, WeightSpec};
    use parapsp_graph::Direction;

    /// [`dist_apsp`] with the paper's kernel pinned on every node, for
    /// the tests that measure row reuse or hub traffic: on their
    /// unit-weight fixtures the default `auto` runs the multi-source BFS,
    /// which reuses no row and deals no hubs.
    fn dist_apsp_dijkstra(graph: &CsrGraph, config: ClusterConfig) -> DistApspOutput {
        Runner::new(RunConfig::new(1).with_solver(SolverKind::Dijkstra))
            .run(DistEngine::new(config), graph)
    }

    #[test]
    fn exact_for_every_cluster_shape() {
        let g = barabasi_albert(160, 3, WeightSpec::Unit, 77).unwrap();
        let reference = apsp_dijkstra(&g);
        for nodes in [1usize, 2, 3, 8] {
            for hub_fraction in [0.0, 0.05, 0.5, 1.0] {
                let out = dist_apsp(
                    &g,
                    ClusterConfig {
                        nodes,
                        hub_fraction,
                        ..ClusterConfig::default()
                    },
                );
                assert_eq!(
                    reference.first_difference(&out.dist),
                    None,
                    "nodes={nodes} hub={hub_fraction}"
                );
                assert_eq!(out.node_stats.iter().map(|s| s.sources).sum::<u64>(), 160);
            }
        }
    }

    #[test]
    fn exact_on_weighted_directed_graph() {
        let g = erdos_renyi_gnm(
            120,
            700,
            Direction::Directed,
            WeightSpec::Uniform { lo: 1, hi: 30 },
            78,
        )
        .unwrap();
        let reference = apsp_dijkstra(&g);
        let out = dist_apsp(&g, ClusterConfig::default());
        assert_eq!(reference.first_difference(&out.dist), None);
    }

    #[test]
    fn zero_hub_fraction_means_zero_broadcast_traffic() {
        let g = barabasi_albert(100, 3, WeightSpec::Unit, 79).unwrap();
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 4,
                hub_fraction: 0.0,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(out.total_broadcast_bytes(), 0);
        assert!(out.node_stats.iter().all(|s| s.remote_reuses == 0));
        // The streaming gather still moves the whole matrix: per row a
        // source id, a checksum, and n distances.
        assert_eq!(out.gather_bytes, 100 * (4 + 4 + 400));
        assert_eq!(out.gather_rejected, 0);
    }

    #[test]
    fn hub_broadcast_costs_scale_with_fraction() {
        let g = barabasi_albert(200, 3, WeightSpec::Unit, 80).unwrap();
        let small = dist_apsp_dijkstra(
            &g,
            ClusterConfig {
                nodes: 4,
                hub_fraction: 0.05,
                ..ClusterConfig::default()
            },
        );
        let large = dist_apsp_dijkstra(
            &g,
            ClusterConfig {
                nodes: 4,
                hub_fraction: 0.5,
                ..ClusterConfig::default()
            },
        );
        assert!(small.total_broadcast_bytes() > 0);
        assert!(large.total_broadcast_bytes() > small.total_broadcast_bytes());
    }

    #[test]
    fn single_node_cluster_equals_sequential() {
        let g = barabasi_albert(90, 2, WeightSpec::Unit, 81).unwrap();
        let out = dist_apsp_dijkstra(
            &g,
            ClusterConfig {
                nodes: 1,
                hub_fraction: 0.1,
                ..ClusterConfig::default()
            },
        );
        let reference = apsp_dijkstra(&g);
        assert_eq!(reference.first_difference(&out.dist), None);
        assert_eq!(out.total_broadcast_bytes(), 0); // nobody to talk to
        assert!(out.node_stats[0].local_reuses > 0);
    }

    #[test]
    fn every_partition_strategy_is_exact_and_covers_all_sources() {
        let g = barabasi_albert(140, 3, WeightSpec::Unit, 82).unwrap();
        let reference = apsp_dijkstra(&g);
        for partition in [
            SourcePartition::CyclicByDegree,
            SourcePartition::BlockByDegree,
            SourcePartition::CyclicById,
        ] {
            let out = dist_apsp(
                &g,
                ClusterConfig {
                    nodes: 4,
                    hub_fraction: 0.1,
                    partition,
                    ..ClusterConfig::default()
                },
            );
            assert_eq!(reference.first_difference(&out.dist), None, "{partition:?}");
            assert_eq!(
                out.node_stats.iter().map(|s| s.sources).sum::<u64>(),
                140,
                "{partition:?}"
            );
        }
    }

    #[test]
    fn degree_aware_partitions_reuse_more_than_degree_blind() {
        // Cyclic-by-degree lets every node see hub rows early; cyclic-by-id
        // does not order local sweeps at all, so it should do no better.
        let g = barabasi_albert(300, 4, WeightSpec::Unit, 83).unwrap();
        let run = |partition| {
            let out = dist_apsp_dijkstra(
                &g,
                ClusterConfig {
                    nodes: 4,
                    hub_fraction: 0.1,
                    partition,
                    ..ClusterConfig::default()
                },
            );
            out.node_stats
                .iter()
                .map(|s| s.local_reuses + s.remote_reuses)
                .sum::<u64>()
        };
        let by_degree = run(SourcePartition::CyclicByDegree);
        let by_id = run(SourcePartition::CyclicById);
        // A structural smoke check rather than a strict inequality (timing
        // nondeterminism moves reuse between local and remote): both must
        // reuse substantially.
        assert!(by_degree > 0 && by_id > 0);
    }

    #[test]
    fn crashed_node_work_is_recovered_exactly() {
        let g = barabasi_albert(150, 3, WeightSpec::Unit, 90).unwrap();
        let reference = apsp_dijkstra(&g);
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 4,
                hub_fraction: 0.1,
                faults: FaultPlan::seeded(11).crash_node_after(2, 5),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert_eq!(out.crashed_nodes(), 1);
        assert!(out.node_stats[2].crashed);
        assert_eq!(out.node_stats[2].sources, 5);
        let taken_over: u64 = out.node_stats.iter().map(|s| s.reassigned_sources).sum();
        // Node 2 owned ceil-ish 150/4 sources and finished 5 of them.
        assert_eq!(taken_over, 37 - 5);
        assert_eq!(
            out.node_stats.iter().map(|s| s.sources).sum::<u64>(),
            150,
            "every source must be computed exactly once"
        );
    }

    #[test]
    fn immediate_crash_and_cascading_crashes_are_survivable() {
        let g = barabasi_albert(120, 3, WeightSpec::Unit, 91).unwrap();
        let reference = apsp_dijkstra(&g);
        // Node 0 dies before computing anything; node 1 dies mid-recovery.
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 3,
                hub_fraction: 0.1,
                faults: FaultPlan::seeded(5)
                    .crash_node_after(0, 0)
                    .crash_node_after(1, 10),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert_eq!(out.crashed_nodes(), 2);
        assert_eq!(out.node_stats[0].sources, 0);
    }

    #[test]
    fn dropped_broadcasts_cost_reuse_not_correctness() {
        let g = barabasi_albert(140, 3, WeightSpec::Unit, 92).unwrap();
        let reference = apsp_dijkstra(&g);
        let out = dist_apsp_dijkstra(
            &g,
            ClusterConfig {
                nodes: 4,
                hub_fraction: 0.3,
                chaos: Some(ChaosPlan::seeded(3).with_hub_drop_probability(0.5)),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        // Senders paid for every broadcast; receivers saw only about half.
        let sent = out.total_broadcast_bytes();
        let received: u64 = out.node_stats.iter().map(|s| s.bytes_received).sum();
        assert!(
            received < sent,
            "drops must shrink the received volume ({received} vs {sent})"
        );
    }

    #[test]
    fn certain_hub_drops_leave_no_remote_reuse_on_either_transport() {
        let g = barabasi_albert(160, 3, WeightSpec::Uniform { lo: 1, hi: 50 }, 92).unwrap();
        let reference = apsp_dijkstra(&g);
        for transport in [
            TransportSpec::InProcess,
            TransportSpec::Socket(SocketConfig::default()),
        ] {
            let config = ClusterConfig {
                nodes: 3,
                hub_fraction: 0.3,
                transport,
                ..ClusterConfig::default()
            };
            let clean = dist_apsp_dijkstra(&g, config.clone());
            assert!(clean.node_stats.iter().all(|s| s.bytes_received > 0));
            let dropped = dist_apsp_dijkstra(
                &g,
                ClusterConfig {
                    chaos: Some(ChaosPlan::seeded(4).with_hub_drop_probability(1.0)),
                    ..config
                },
            );
            assert_eq!(reference.first_difference(&dropped.dist), None);
            // Every hub row goes by the driver's relay, where chaos eats
            // all of them; the senders still paid for each one.
            assert_eq!(
                dropped.total_broadcast_bytes(),
                clean.total_broadcast_bytes()
            );
            assert!(dropped
                .node_stats
                .iter()
                .all(|s| s.remote_reuses == 0 && s.bytes_received == 0));
        }
    }

    #[test]
    fn corrupted_rows_are_rejected_and_retried_until_exact() {
        let g = barabasi_albert(140, 3, WeightSpec::Unit, 93).unwrap();
        let reference = apsp_dijkstra(&g);
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 4,
                hub_fraction: 0.3,
                chaos: Some(ChaosPlan::seeded(8).with_corrupt_probability(0.3)),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert!(
            out.gather_rejected > 0,
            "q=0.3 over 140 gather rows must reject some"
        );
        let retries: u64 = out.node_stats.iter().map(|s| s.retries).sum();
        assert_eq!(retries, out.gather_rejected);
    }

    #[test]
    fn combined_fault_storm_still_bit_identical() {
        let g = erdos_renyi_gnm(
            110,
            600,
            Direction::Directed,
            WeightSpec::Uniform { lo: 1, hi: 20 },
            94,
        )
        .unwrap();
        let reference = apsp_dijkstra(&g);
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 4,
                hub_fraction: 0.2,
                faults: FaultPlan::seeded(21)
                    .crash_node_after(1, 3)
                    .crash_node_after(3, 12),
                chaos: Some(
                    ChaosPlan::seeded(21)
                        .with_hub_drop_probability(0.25)
                        .with_corrupt_probability(0.2),
                ),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert_eq!(out.crashed_nodes(), 2);
    }

    #[test]
    fn retry_backoff_is_slept_and_accounted() {
        let g = barabasi_albert(140, 3, WeightSpec::Unit, 93).unwrap();
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 4,
                hub_fraction: 0.3,
                chaos: Some(ChaosPlan::seeded(8).with_corrupt_probability(0.3)),
                ..ClusterConfig::default()
            },
        );
        let retries: u64 = out.node_stats.iter().map(|s| s.retries).sum();
        let backoff: u64 = out.node_stats.iter().map(|s| s.retry_backoff_ms).sum();
        assert!(retries > 0);
        // Every re-send sleeps at least base_ms = 1 (plus jitter), and no
        // single sleep exceeds cap_ms + base_ms.
        assert!(backoff >= retries, "{backoff}ms over {retries} retries");
        let policy = RetryPolicy::default();
        assert!(backoff <= retries * (policy.cap_ms + policy.base_ms));
    }

    #[test]
    fn exhausted_retry_budget_redeals_to_another_node() {
        let g = barabasi_albert(140, 3, WeightSpec::Unit, 93).unwrap();
        let reference = apsp_dijkstra(&g);
        // max_resends = 0: the first rejection of any source immediately
        // re-deals it to a different node instead of asking for a re-send.
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 4,
                hub_fraction: 0.0,
                chaos: Some(ChaosPlan::seeded(8).with_corrupt_probability(0.3)),
                retry: RetryPolicy {
                    max_resends: 0,
                    base_ms: 0,
                    cap_ms: 0,
                },
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert!(out.gather_rejected > 0, "q=0.3 must reject some rows");
        let retries: u64 = out.node_stats.iter().map(|s| s.retries).sum();
        assert_eq!(retries, 0, "no re-sends allowed under max_resends = 0");
        let redealt: u64 = out.node_stats.iter().map(|s| s.reassigned_sources).sum();
        assert!(redealt > 0, "rejected sources must move to other nodes");
    }

    #[test]
    fn watchdog_redeals_a_stalled_nodes_sources() {
        let g = barabasi_albert(150, 3, WeightSpec::Unit, 96).unwrap();
        let reference = apsp_dijkstra(&g);
        // Node 1 goes silent for 2 s after 2 sources — without a watchdog
        // the run would wait the stall out; with one it must finish long
        // before, on rows recomputed by the other nodes.
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 3,
                hub_fraction: 0.1,
                faults: FaultPlan::seeded(4).stall_node_after(1, 2, 2_000),
                watchdog: Some(WatchdogConfig {
                    floor: Duration::from_millis(20),
                    ..WatchdogConfig::default()
                }),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert!(
            out.watchdog_reassigned > 0,
            "the stalled node's sources must be re-dealt"
        );
        assert_eq!(out.crashed_nodes(), 0, "a stall is not a crash");
        // The run must not have waited out the 2 s stall to gather rows
        // (join at shutdown still waits for the sleeping thread, so allow
        // the stall itself plus scheduling slack but not a serial wait).
        assert!(
            out.elapsed < Duration::from_secs(4),
            "took {:?}",
            out.elapsed
        );
        let computed: u64 = out.node_stats.iter().map(|s| s.sources).sum();
        assert!(computed >= 150, "every source is computed at least once");
    }

    #[test]
    fn watchdog_stays_quiet_on_a_healthy_cluster() {
        let g = barabasi_albert(140, 3, WeightSpec::Unit, 97).unwrap();
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 4,
                hub_fraction: 0.1,
                watchdog: Some(WatchdogConfig::default()),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(out.watchdog_reassigned, 0, "no stalls, no re-deals");
        assert_eq!(out.node_stats.iter().map(|s| s.sources).sum::<u64>(), 140);
    }

    #[test]
    fn watchdog_stays_quiet_on_a_healthy_msbfs_cluster_of_many_batches() {
        // 320 sources per node: five multi-source BFS batches each, so
        // every node goes quiet between bursts of rows four times.
        let g = barabasi_albert(640, 3, WeightSpec::Unit, 98).unwrap();
        let reference = apsp_dijkstra(&g);
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 2,
                watchdog: Some(WatchdogConfig::default()),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert_eq!(out.watchdog_reassigned, 0, "no stalls, no re-deals");
        assert_eq!(out.node_stats.iter().map(|s| s.sources).sum::<u64>(), 640);
    }

    #[test]
    fn watchdog_gaps_span_a_whole_batch_under_msbfs() {
        // A node sends two batches of 64 rows back to back, 40 ms apart,
        // then goes quiet for 60 ms while it solves the third. Gaps taken
        // row by row sit near zero inside a burst, so their median puts
        // the threshold at the 25 ms floor and the quiet node is called
        // stalled; gaps over 64 rows measure ~40 ms per batch and put it
        // at 8 × that.
        let n = 200;
        let owned: Vec<u32> = (0..n as u32).collect();
        let lanes = NodeSolver::MsBfs.rows_per_solve() as u32;
        for (burst, stalled) in [(lanes as usize, false), (1, true)] {
            let retry = RetryPolicy::default();
            let mut driver = Driver::new(2, vec![owned.clone(), Vec::new()], n, retry);
            driver.burst = burst;
            let mut sink = RecordingSink(Vec::new());
            for batch in 0..2 {
                if batch > 0 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                for s in batch * lanes..(batch + 1) * lanes {
                    deliver(&mut driver, 0, RowMessage::new(s, vec![1; n]), &mut sink);
                }
            }
            std::thread::sleep(Duration::from_millis(60));
            driver.check_watchdog(&WatchdogConfig::default(), &mut sink);
            assert_eq!(driver.watchdog_reassigned > 0, stalled, "burst {burst}");
        }
    }

    #[test]
    fn untripped_token_completes_and_matches() {
        let g = barabasi_albert(120, 3, WeightSpec::Unit, 98).unwrap();
        let token = parapsp_parfor::CancelToken::new();
        let out = dist_apsp_cancellable(&g, ClusterConfig::default(), &token).unwrap_complete();
        assert_eq!(apsp_dijkstra(&g).first_difference(&out.dist), None);
    }

    #[test]
    fn cancelled_dist_run_checkpoints_and_resumes_bit_identically() {
        let g = barabasi_albert(150, 3, WeightSpec::Unit, 99).unwrap();
        let reference = apsp_dijkstra(&g);
        for budget in [0u64, 3, 25] {
            let token = parapsp_parfor::CancelToken::with_poll_budget(budget);
            let outcome = dist_apsp_cancellable(&g, ClusterConfig::default(), &token);
            // Only the number of *driver rounds* before the trip is
            // deterministic — node threads keep producing rows until they
            // observe the trip, so on a loaded machine every row can be on
            // the wire before the budget runs out and the run legitimately
            // completes (the driver gathers n rows without a failed poll).
            let cp = match outcome {
                RunOutcome::Cancelled { checkpoint } => checkpoint,
                RunOutcome::Complete(out) if budget > 0 => {
                    assert_eq!(
                        reference.first_difference(&out.dist),
                        None,
                        "budget {budget}"
                    );
                    continue;
                }
                other => panic!("budget {budget} should cancel, got {other:?}"),
            };
            // Resume on the shared-memory engine: bit-identical finish.
            let resumed = parapsp_core::engine::Runner::new(RunConfig::par_apsp(2)).run_resumed(
                parapsp_core::ApspEngine::new(),
                &g,
                cp,
            );
            assert_eq!(
                reference.first_difference(&resumed.dist),
                None,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn deadline_stops_a_distributed_run() {
        let g = barabasi_albert(200, 3, WeightSpec::Unit, 100).unwrap();
        let token = parapsp_parfor::CancelToken::with_deadline(Duration::ZERO);
        let outcome = dist_apsp_cancellable(&g, ClusterConfig::default(), &token);
        match outcome {
            RunOutcome::DeadlineExceeded { checkpoint } => {
                assert_eq!(checkpoint.completed_count(), 0, "deadline hit on round 1");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "all nodes crashed")]
    fn crashing_every_node_is_fatal() {
        let g = barabasi_albert(60, 2, WeightSpec::Unit, 95).unwrap();
        let _ = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 2,
                hub_fraction: 0.0,
                faults: FaultPlan::seeded(1)
                    .crash_node_after(0, 2)
                    .crash_node_after(1, 2),
                ..ClusterConfig::default()
            },
        );
    }

    #[test]
    fn dist_engine_runs_through_runner_with_an_in_kernel_cap() {
        let g = barabasi_albert(120, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 44).unwrap();
        let reference = apsp_dijkstra(&g);
        let out = Runner::new(RunConfig::new(1)).run(DistEngine::new(ClusterConfig::default()), &g);
        assert_eq!(reference.first_difference(&out.dist), None);
        // A capped run equals the exact matrix filtered at the cap.
        let cap = 3;
        let capped = Runner::new(RunConfig::new(1).with_max_distance(cap))
            .run(DistEngine::new(ClusterConfig::default()), &g);
        for u in 0..120u32 {
            for v in 0..120u32 {
                let exact = reference.get(u, v);
                let expected = if u != v && exact > cap { INF } else { exact };
                assert_eq!(capped.dist.get(u, v), expected, "({u}, {v})");
            }
        }
    }

    #[test]
    fn dist_engine_resumes_a_checkpoint_and_recomputes_only_the_rest() {
        let g = barabasi_albert(80, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 9).unwrap();
        let reference = apsp_dijkstra(&g);
        // A checkpoint holding the first 30 finished rows...
        let mut dist = DistanceMatrix::new_infinite(80);
        let mut completed = vec![false; 80];
        for s in 0..30u32 {
            dist.copy_row_from(s, reference.row(s));
            completed[s as usize] = true;
        }
        let cp = Checkpoint::new(dist, completed);
        // ...is honoured by the distributed driver: the missing 50 rows
        // are dealt out, the resumed 30 are not recomputed, and the final
        // matrix is bit-identical.
        let out = Runner::new(RunConfig::new(1)).run_resumed(
            DistEngine::new(ClusterConfig {
                nodes: 3,
                ..ClusterConfig::default()
            }),
            &g,
            cp,
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert_eq!(out.replayed_rows, 30);
        assert_eq!(out.node_stats.iter().map(|s| s.sources).sum::<u64>(), 50);
    }

    #[test]
    #[should_panic(expected = "checkpoint is for a 39-vertex matrix")]
    fn dist_engine_rejects_a_checkpoint_for_another_graph() {
        let g = barabasi_albert(40, 2, WeightSpec::Unit, 9).unwrap();
        let cp = Checkpoint::new(DistanceMatrix::new_infinite(39), vec![false; 39]);
        let _ = Runner::new(RunConfig::new(1)).run_resumed(
            DistEngine::new(ClusterConfig::default()),
            &g,
            cp,
        );
    }

    #[test]
    fn source_partition_parses_by_stable_name() {
        for partition in SourcePartition::value_variants() {
            assert_eq!(
                SourcePartition::parse_value(partition.value_name()).unwrap(),
                *partition
            );
        }
        let err = SourcePartition::parse_value("random").unwrap_err();
        assert!(err.contains("cyclic-degree") && err.contains("block-degree"));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let g = barabasi_albert(10, 2, WeightSpec::Unit, 1).unwrap();
        let _ = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 0,
                hub_fraction: 0.0,
                ..ClusterConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "hub fraction")]
    fn bad_hub_fraction_rejected() {
        let g = barabasi_albert(10, 2, WeightSpec::Unit, 1).unwrap();
        let _ = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 2,
                hub_fraction: 1.5,
                ..ClusterConfig::default()
            },
        );
    }

    #[test]
    fn validate_rejects_each_degenerate_config_with_its_own_error() {
        let ok = ClusterConfig {
            nodes: 2,
            ..ClusterConfig::default()
        };
        assert_eq!(ok.validate(100), Ok(()));

        let zero = ClusterConfig {
            nodes: 0,
            ..ClusterConfig::default()
        };
        assert_eq!(zero.validate(100), Err(ClusterConfigError::ZeroNodes));

        let fraction = ClusterConfig {
            nodes: 2,
            hub_fraction: -0.5,
            ..ClusterConfig::default()
        };
        assert_eq!(
            fraction.validate(100),
            Err(ClusterConfigError::HubFractionOutOfRange(-0.5))
        );

        let oversized = ClusterConfig {
            nodes: 8,
            ..ClusterConfig::default()
        };
        assert_eq!(
            oversized.validate(3),
            Err(ClusterConfigError::MoreNodesThanSources {
                nodes: 8,
                sources: 3
            })
        );

        let dead_heartbeat = ClusterConfig {
            nodes: 2,
            heartbeat: Duration::ZERO,
            ..ClusterConfig::default()
        };
        assert_eq!(
            dead_heartbeat.validate(100),
            Err(ClusterConfigError::ZeroDuration("driver heartbeat"))
        );

        let socket = SocketConfig {
            heartbeat_interval: Duration::ZERO,
            ..SocketConfig::default()
        };
        let dead_interval = ClusterConfig {
            nodes: 2,
            transport: TransportSpec::Socket(socket),
            ..ClusterConfig::default()
        };
        assert_eq!(
            dead_interval.validate(100),
            Err(ClusterConfigError::ZeroDuration(
                "worker heartbeat interval"
            ))
        );

        let socket = SocketConfig {
            heartbeat_misses: 0,
            ..SocketConfig::default()
        };
        let no_misses = ClusterConfig {
            nodes: 2,
            transport: TransportSpec::Socket(socket),
            ..ClusterConfig::default()
        };
        assert_eq!(
            no_misses.validate(100),
            Err(ClusterConfigError::ZeroHeartbeatMisses)
        );

        let socket = SocketConfig {
            row_batch: 0,
            ..SocketConfig::default()
        };
        let no_batch = ClusterConfig {
            nodes: 2,
            transport: TransportSpec::Socket(socket),
            ..ClusterConfig::default()
        };
        assert_eq!(
            no_batch.validate(100),
            Err(ClusterConfigError::ZeroRowBatch)
        );

        let mut socket = SocketConfig::default();
        socket.connect.attempts = 0;
        let no_dials = ClusterConfig {
            nodes: 2,
            transport: TransportSpec::Socket(socket),
            ..ClusterConfig::default()
        };
        assert_eq!(
            no_dials.validate(100),
            Err(ClusterConfigError::ZeroConnectAttempts)
        );

        // Every error Displays a human sentence and implements Error.
        for error in [
            ClusterConfigError::ZeroNodes,
            ClusterConfigError::HubFractionOutOfRange(2.0),
            ClusterConfigError::MoreNodesThanSources {
                nodes: 8,
                sources: 3,
            },
            ClusterConfigError::ZeroDuration("read-timeout"),
            ClusterConfigError::ZeroHeartbeatMisses,
            ClusterConfigError::ZeroRowBatch,
            ClusterConfigError::ZeroConnectAttempts,
        ] {
            let text = error.to_string();
            assert!(!text.is_empty());
            let _: &dyn std::error::Error = &error;
        }
    }

    // ---- Driver recovery logic in isolation (no cluster, no threads) ----

    /// A [`ControlSink`] that just records what the driver asked for.
    struct RecordingSink(Vec<(usize, NodeControl)>);

    impl ControlSink for RecordingSink {
        fn control(&mut self, node: usize, message: NodeControl) {
            self.0.push((node, message));
        }
    }

    /// Hands the driver one row from node `k`, as a drained batch of one.
    fn deliver(driver: &mut Driver, k: usize, message: RowMessage, sink: &mut RecordingSink) {
        driver.on_events(k, vec![NodeEvent::Row(message)], sink);
    }

    fn corrupted_row(source: u32, n: usize) -> RowMessage {
        let mut message = RowMessage::new(source, vec![1; n]);
        message.checksum ^= 1;
        assert!(!message.verify());
        message
    }

    #[test]
    fn corrupted_rows_are_resent_until_the_budget_then_redealt() {
        let retry = RetryPolicy {
            max_resends: 2,
            ..RetryPolicy::default()
        };
        let mut driver = Driver::new(2, vec![vec![0, 1], vec![2, 3]], 4, retry);
        let mut sink = RecordingSink(Vec::new());

        // Two rejections: both within budget, both answered with Resend
        // to the original sender.
        for _ in 0..2 {
            deliver(&mut driver, 0, corrupted_row(1, 4), &mut sink);
        }
        assert_eq!(sink.0.len(), 2);
        assert!(sink
            .0
            .iter()
            .all(|(node, m)| *node == 0 && matches!(m, NodeControl::Resend(1))));

        // Third rejection exhausts the budget: the source is re-dealt to
        // the other survivor instead.
        deliver(&mut driver, 0, corrupted_row(1, 4), &mut sink);
        assert_eq!(sink.0.len(), 3);
        assert!(matches!(sink.0[2], (1, NodeControl::Assign(1))));
        assert!(driver.outstanding[1].contains(&1));
        assert!(!driver.outstanding[0].contains(&1));
        assert_eq!(driver.gather_rejected, 3);
        // Nothing was ever accepted.
        assert!(!driver.got[1]);
        assert_eq!(driver.delivered, vec![0, 0]);
    }

    #[test]
    fn sole_survivor_keeps_resending_past_the_budget() {
        let retry = RetryPolicy {
            max_resends: 1,
            ..RetryPolicy::default()
        };
        let mut driver = Driver::new(1, vec![vec![0, 1]], 2, retry);
        let mut sink = RecordingSink(Vec::new());
        for _ in 0..5 {
            deliver(&mut driver, 0, corrupted_row(0, 2), &mut sink);
        }
        // Re-dealing away is impossible; every rejection keeps asking the
        // only node for a fresh attempt (fresh attempts draw fresh fault
        // coordinates, so progress is still possible).
        assert_eq!(sink.0.len(), 5);
        assert!(sink
            .0
            .iter()
            .all(|(node, m)| *node == 0 && matches!(m, NodeControl::Resend(0))));
    }

    #[test]
    fn crash_redeals_unfinished_sources_cyclically_over_survivors() {
        let retry = RetryPolicy::default();
        let mut driver = Driver::new(3, vec![vec![0, 3], vec![1, 4, 5], vec![2]], 6, retry);
        let mut sink = RecordingSink(Vec::new());

        // Node 1 delivered source 4 before dying; only 1 and 5 remain.
        deliver(&mut driver, 1, RowMessage::new(4, vec![7; 6]), &mut sink);
        assert!(driver.got[4]);
        assert_eq!(driver.delivered[1], 1);

        driver.on_crash(1, &mut sink);
        assert!(!driver.alive[1]);
        assert!(driver.outstanding[1].is_empty());
        let assigns: Vec<(usize, u32)> = sink
            .0
            .iter()
            .filter_map(|(node, m)| match m {
                NodeControl::Assign(s) => Some((*node, *s)),
                _ => None,
            })
            .collect();
        // Cyclic deal over survivors {0, 2} in original source order.
        assert_eq!(assigns, vec![(0, 1), (2, 5)]);
        assert!(driver.outstanding[0].contains(&1));
        assert!(driver.outstanding[2].contains(&5));
    }

    #[test]
    fn duplicate_and_late_rows_are_deduplicated() {
        let retry = RetryPolicy::default();
        let mut driver = Driver::new(2, vec![vec![0], vec![1]], 2, retry);
        let mut sink = RecordingSink(Vec::new());
        deliver(&mut driver, 0, RowMessage::new(0, vec![0, 9]), &mut sink);
        // A late duplicate (e.g. a stalled node waking up) changes nothing.
        deliver(&mut driver, 1, RowMessage::new(0, vec![0, 5]), &mut sink);
        assert_eq!(driver.gathered, 1);
        assert_eq!(driver.delivered, vec![1, 0]);
        assert_eq!(driver.store.with_row(0, |row| row[1]), Some(9));
        // A corrupted duplicate of an already-gathered source draws no
        // Resend either — the row is already home.
        deliver(&mut driver, 1, corrupted_row(0, 2), &mut sink);
        assert!(sink.0.is_empty());
    }

    #[test]
    fn rows_naming_no_vertex_or_of_the_wrong_length_are_rejected() {
        let g = barabasi_albert(30, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 12).unwrap();
        let n = 30usize;
        let reference = apsp_dijkstra(&g);
        let owned = vec![(0..15).collect(), (15..30).collect()];
        let mut driver = Driver::new(2, owned, n, RetryPolicy::default());
        let mut node = NodeState::new(n, None);
        let mut sink = RecordingSink(Vec::new());
        // Both frames carry valid checksums: only the shape checks stand
        // between them and an out-of-range index or a short kernel row.
        for bad in [
            RowMessage::new(n as u32, vec![0; n]),
            RowMessage::new(4, vec![0; n - 1]),
        ] {
            node.accept(bad.clone());
            deliver(&mut driver, 0, bad, &mut sink);
        }
        assert_eq!(node.rows_rejected, 2);
        assert_eq!(driver.gather_rejected, 2);
        // A short row of a real source is re-requested like a corrupted
        // one; a row naming no vertex has nothing to re-request.
        assert!(matches!(sink.0.as_slice(), [(0, NodeControl::Resend(4))]));
        assert_eq!(driver.gathered, 0);

        // The run still completes, bit-identical to the reference.
        for s in 0..n as u32 {
            let row = node.run_source(&g, s).to_vec();
            deliver(&mut driver, 0, RowMessage::new(s, row), &mut sink);
        }
        assert_eq!(driver.gathered, n);
        let store = std::mem::replace(&mut driver.store, Store::new(0, &StoreSpec::dense()));
        assert_eq!(reference.first_difference(&store.into_matrix()), None);
    }

    #[test]
    fn hub_forwards_are_relayed_only_to_alive_peers() {
        let retry = RetryPolicy::default();
        let mut driver = Driver::new(3, vec![vec![0], vec![1], vec![2]], 3, retry);
        let mut sink = RecordingSink(Vec::new());
        let row = RowMessage::new(0, vec![0, 1, 2]);
        driver.on_events(
            0,
            vec![NodeEvent::HubFwd {
                to: 1,
                msg: row.clone(),
            }],
            &mut sink,
        );
        assert!(matches!(sink.0[0], (1, NodeControl::Hub(_))));

        driver.on_crash(2, &mut sink);
        sink.0.clear();
        // Relay to a dead peer, to self, and out of range: all dropped.
        for to in [2usize, 0, 7] {
            driver.on_events(
                0,
                vec![NodeEvent::HubFwd {
                    to,
                    msg: row.clone(),
                }],
                &mut sink,
            );
        }
        assert!(sink.0.is_empty());
    }

    // ---- Batched verification: one `row_checksums` pass per drain ----

    /// An `n`-cell row of source `s`, distinct per source and cell.
    fn sample_row(s: u32, n: usize) -> Vec<u32> {
        (0..n as u32)
            .map(|v| if v == s { 0 } else { s * 100 + v })
            .collect()
    }

    /// The recording sink behind a [`Transport`] whose node 0 has a
    /// queue of events and never goes down.
    struct Queued {
        events: VecDeque<NodeEvent>,
        sink: RecordingSink,
    }

    impl ControlSink for Queued {
        fn control(&mut self, node: usize, message: NodeControl) {
            self.sink.control(node, message);
        }
    }

    impl Transport for Queued {
        fn try_event(&mut self, _node: usize) -> Polled {
            self.events.pop_front().map_or(Polled::Empty, Polled::Event)
        }

        fn wait(&mut self, _timeout: Duration) {}
    }

    /// Checks that exactly the sources in `rejected` are missing from
    /// the gather and every other one of `0..rows` arrived intact, once.
    fn assert_gathered(driver: &Driver, rows: u32, rejected: &[u32], n: usize) {
        for s in 0..rows {
            let expect = (!rejected.contains(&s)).then(|| sample_row(s, n));
            assert_eq!(driver.store.with_row(s, <[u32]>::to_vec), expect, "row {s}");
        }
        assert_eq!(driver.gathered, rows as usize - rejected.len());
        assert_eq!(driver.delivered[0], driver.gathered as u64);
    }

    #[test]
    fn one_corrupted_row_in_a_batch_is_resent_alone_at_every_position() {
        let n = 12;
        for len in 1..=9u32 {
            for bad in 0..len {
                let owned = vec![(0..n as u32).collect()];
                let mut driver = Driver::new(1, owned, n, RetryPolicy::default());
                let mut sink = RecordingSink(Vec::new());
                let events = (0..len)
                    .map(|s| {
                        let mut message = RowMessage::new(s, sample_row(s, n));
                        if s == bad {
                            message.row[(s as usize * 5) % n] ^= 1 << 9;
                        }
                        NodeEvent::Row(message)
                    })
                    .collect();
                driver.on_events(0, events, &mut sink);
                let case = format!("batch of {len}, corrupted row at {bad}");
                assert!(
                    matches!(sink.0.as_slice(), [(0, NodeControl::Resend(s))] if *s == bad),
                    "{case}: {:?}",
                    sink.0
                );
                assert_eq!(driver.gather_rejected, 1, "{case}");
                assert_gathered(&driver, len, &[bad], n);
            }
        }
    }

    #[test]
    fn misshapen_rows_in_a_batch_are_rejected_on_their_own() {
        let n = 10;
        let owned = vec![(0..n as u32).collect()];
        let mut driver = Driver::new(1, owned, n, RetryPolicy::default());
        let mut sink = RecordingSink(Vec::new());
        let mut events: Vec<NodeEvent> = (0..7)
            .map(|s| NodeEvent::Row(RowMessage::new(s, sample_row(s, n))))
            .collect();
        // Valid checksums on bad shapes, next to a corrupted full row, all
        // inside one four-lane quad and the batch's tail.
        events[1] = NodeEvent::Row(RowMessage::new(1, sample_row(1, n - 3)));
        events[2] = NodeEvent::Row(RowMessage::new(n as u32 + 4, sample_row(2, n)));
        let mut corrupted = RowMessage::new(5, sample_row(5, n));
        corrupted.row[0] ^= 1;
        events[5] = NodeEvent::Row(corrupted);
        events.push(NodeEvent::Row(RowMessage::new(2, sample_row(2, n))));
        driver.on_events(0, events, &mut sink);
        // The short row of a real source and the corrupted one are both
        // re-requested; the row naming no vertex has nothing to re-request.
        let resent: Vec<u32> = sink
            .0
            .iter()
            .map(|(node, m)| match m {
                NodeControl::Resend(s) if *node == 0 => *s,
                other => panic!("unexpected control {other:?}"),
            })
            .collect();
        assert_eq!(resent, vec![1, 5]);
        assert_eq!(driver.gather_rejected, 3);
        assert_gathered(&driver, 7, &[1, 5], n);
    }

    #[test]
    fn chaos_corruption_is_rejected_by_the_batched_check() {
        let n = 24;
        let owned = vec![(0..n as u32).collect()];
        let mut driver = Driver::new(1, owned, n, RetryPolicy::default());
        let mut queued = Queued {
            events: (0..n as u32)
                .map(|s| NodeEvent::Row(RowMessage::new(s, sample_row(s, n))))
                .collect(),
            sink: RecordingSink(Vec::new()),
        };
        let plan = ChaosPlan::seeded(11).with_corrupt_probability(0.3);
        let mut chaos = ChaosTransport::new(&mut queued, plan, 1);
        assert!(driver.drain(0, &mut chaos));
        drop(chaos);
        // The node sealed every row correctly, so each rejection is a
        // chaos bit flip: it is re-requested, and its row stays out.
        let resent: Vec<u32> = queued
            .sink
            .0
            .iter()
            .map(|(node, m)| match m {
                NodeControl::Resend(s) if *node == 0 => *s,
                other => panic!("unexpected control {other:?}"),
            })
            .collect();
        assert!(!resent.is_empty(), "seed 11 corrupts some of {n} rows");
        assert_eq!(driver.gather_rejected, resent.len() as u64);
        assert_gathered(&driver, n as u32, &resent, n);
    }

    // ---- The node solver: batches of 64, rows emitted one at a time ----

    /// A node's side of the wire with no driver behind it: the inbox is
    /// empty (a blocking read reports the driver gone), every gather frame
    /// is recorded, and the first frame trips `trip`, if given.
    struct ScriptedIo<'a> {
        frames: Vec<Vec<RowMessage>>,
        trip: Option<&'a CancelToken>,
    }

    impl NodeIo for ScriptedIo<'_> {
        fn try_recv(&mut self) -> Result<Option<NodeControl>, crate::transport::Disconnected> {
            Ok(None)
        }

        fn recv(&mut self) -> Result<NodeControl, crate::transport::Disconnected> {
            Err(crate::transport::Disconnected)
        }

        fn send_hub(&mut self, _peer: usize, _row: RowRef<'_>) {
            panic!("no hub is dealt in these runs");
        }

        fn row_batch(&self) -> usize {
            4
        }

        fn send_rows(&mut self, rows: &[RowRef<'_>]) {
            self.frames
                .push(rows.iter().map(|row| row.to_message()).collect());
            if let Some(token) = self.trip.take() {
                token.cancel();
            }
        }
    }

    /// Runs one node over `owned` with no hubs and returns its stats and
    /// the rows it sent, in order.
    fn scripted_node(
        g: &CsrGraph,
        owned: &[u32],
        plan: &FaultPlan,
        solver: NodeSolver,
        token: Option<&CancelToken>,
    ) -> (NodeStats, Vec<RowMessage>) {
        let mut io = ScriptedIo {
            frames: Vec::new(),
            trip: token,
        };
        let is_hub = vec![false; g.vertex_count()];
        let stats = run_node_loop(
            0,
            g,
            owned,
            &is_hub,
            1,
            plan,
            &RetryPolicy::default(),
            token,
            None,
            solver,
            Duration::ZERO,
            &mut io,
        );
        (stats, io.frames.into_iter().flatten().collect())
    }

    #[test]
    fn a_crash_mid_batch_loses_only_rows_never_sent() {
        let g = barabasi_albert(100, 3, WeightSpec::Unit, 95).unwrap();
        let reference = apsp_dijkstra(&g);
        let owned: Vec<u32> = (0..100).rev().collect();
        // The first multi-source BFS solves 64 rows; the crash fires after
        // the 10th is emitted, when two full frames (8 rows) are out and
        // two rows are held back.
        let plan = FaultPlan::seeded(1).crash_node_after(0, 10);
        for solver in [NodeSolver::MsBfs, NodeSolver::Dijkstra] {
            let (stats, sent) = scripted_node(&g, &owned, &plan, solver, None);
            assert!(stats.crashed, "{solver:?}");
            assert_eq!(stats.sources, 10, "{solver:?}: sources count emitted rows");
            let sources: Vec<u32> = sent.iter().map(|row| row.source).collect();
            assert_eq!(sources, owned[..8], "{solver:?}");
            for row in &sent {
                assert!(row.verify());
                assert_eq!(row.row, reference.row(row.source), "{solver:?}");
            }
        }

        // In a cluster the survivor takes over every unsent row, solved
        // or not, and the matrix is the fault-free one.
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 2,
                faults: plan,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert_eq!(out.node_stats[0].sources, 10);
        assert_eq!(out.node_stats[1].reassigned_sources, 50 - 10);
        assert_eq!(out.node_stats.iter().map(|s| s.sources).sum::<u64>(), 100);
    }

    #[test]
    fn a_parked_node_still_emits_the_rows_it_already_solved() {
        let g = barabasi_albert(100, 3, WeightSpec::Unit, 96).unwrap();
        let owned: Vec<u32> = (0..100).collect();
        let plan = FaultPlan::default();
        // The token trips at the first frame. The multi-source BFS has
        // solved a whole batch by then and emits all of it; the kernel
        // stops after the frame's four rows.
        for (solver, emitted) in [(NodeSolver::MsBfs, 64), (NodeSolver::Dijkstra, 4)] {
            let token = CancelToken::new();
            let (stats, sent) = scripted_node(&g, &owned, &plan, solver, Some(&token));
            assert!(!stats.crashed);
            assert_eq!(stats.sources, emitted, "{solver:?}");
            assert_eq!(sent.len(), emitted as usize, "{solver:?}");
        }
    }

    #[test]
    fn msbfs_nodes_deal_no_hubs_and_broadcast_nothing() {
        let g = barabasi_albert(200, 3, WeightSpec::Unit, 97).unwrap();
        let reference = apsp_dijkstra(&g);
        let config = ClusterConfig {
            nodes: 3,
            hub_fraction: 0.5,
            ..ClusterConfig::default()
        };
        let auto = dist_apsp(&g, config.clone());
        assert_eq!(reference.first_difference(&auto.dist), None);
        assert_eq!(auto.total_broadcast_bytes(), 0);
        assert!(auto
            .node_stats
            .iter()
            .all(|s| s.bytes_received == 0 && s.local_reuses + s.remote_reuses == 0));
        // The kernel pinned on the same cluster still broadcasts its hubs.
        let kernel = dist_apsp_dijkstra(&g, config);
        assert_eq!(reference.first_difference(&kernel.dist), None);
        assert!(kernel.total_broadcast_bytes() > 0);
    }

    #[test]
    fn cancelled_msbfs_run_resumes_on_the_cluster_bit_identically() {
        let g = barabasi_albert(400, 3, WeightSpec::Unit, 98).unwrap();
        let reference = apsp_dijkstra(&g);
        let runner = Runner::new(RunConfig::new(1).with_solver(SolverKind::MsBfs));
        let config = ClusterConfig {
            nodes: 3,
            ..ClusterConfig::default()
        };
        let token = CancelToken::with_poll_budget(0);
        let checkpoint = match runner.run_with_token(DistEngine::new(config.clone()), &g, &token) {
            RunOutcome::Cancelled { checkpoint } => checkpoint,
            other => panic!("a zero poll budget stops the first round, got {other:?}"),
        };
        // Nodes park when they see the trip and emit what they already
        // solved, so any number of rows may be in the checkpoint.
        let done = checkpoint.completed_count() as u64;
        let out = runner.run_resumed(DistEngine::new(config), &g, checkpoint);
        assert_eq!(reference.first_difference(&out.dist), None);
        assert_eq!(out.replayed_rows, done);
        assert_eq!(
            out.node_stats.iter().map(|s| s.sources).sum::<u64>(),
            400 - done,
            "only the missing rows are recomputed"
        );
    }

    #[test]
    #[should_panic(expected = "a dist node runs auto, dijkstra, msbfs")]
    fn dist_engine_refuses_delta_stepping() {
        let g = barabasi_albert(40, 2, WeightSpec::Unit, 99).unwrap();
        let config = RunConfig::new(1).with_solver(SolverKind::Delta { delta: None });
        let _ = Runner::new(config).run(DistEngine::new(ClusterConfig::default()), &g);
    }
}
