//! Distributed-memory ParAPSP — a faithful simulation of the paper's
//! stated future work ("extend the ParAPSP algorithm on distributed-memory
//! parallel environments so that we could find APSP solutions for much
//! larger graphs", §7).
//!
//! # Model
//!
//! A cluster of `P` **nodes** is simulated by `P` OS threads with strictly
//! *private* memory: each node owns only the distance rows of its assigned
//! sources (an `n²/P` share — the reason distributed memory unlocks larger
//! graphs than the paper's 256 GB machine). Nodes communicate exclusively
//! by message passing over channels; every transferred row is **cloned**
//! (modelling the network copy) and its bytes are accounted in
//! [`NodeStats`].
//!
//! # Algorithm
//!
//! Sources are assigned to nodes *cyclically along the global descending
//! degree order* (computed once with MultiLists, like ParAPSP), so every
//! node front-loads hub sources. The modified Dijkstra's row reuse then
//! draws on two pools:
//!
//! * rows the node itself has completed (always available), and
//! * **hub rows** broadcast by other nodes — only sources in the top
//!   `hub_fraction` of the degree order are broadcast, because complex
//!   networks concentrate reuse value in the hubs (paper §2.2) while
//!   broadcasting everything would cost Θ(P·n²) traffic.
//!
//! Exactness is unconditional: row reuse is an optimization, not a
//! correctness requirement, and only *final* rows are ever shared (same
//! argument as the shared-memory publication protocol).
//!
//! That is the paper's kernel ([`NodeSolver::Dijkstra`]). On unit-weight
//! graphs a run's default `auto` solver gives every node the multi-source
//! BFS instead ([`NodeSolver::MsBfs`]): one edge scan serves up to 64 of
//! the node's sources, no row is reused, and so no hub row is broadcast.
//!
//! # Fault tolerance
//!
//! Runs can be subjected to a deterministic [`FaultPlan`], which says
//! what a node does wrong (crashes and stalls), and a [`ChaosPlan`],
//! which says what the wire does wrong (dropped hub relays, bit-flipped
//! row payloads, delay, duplication, partitions). Rows are streamed to
//! the driver with checksums as they complete, crashed nodes are detected
//! through bounded-timeout heartbeats on their disconnected channels, and
//! their unfinished sources are re-dealt to survivors — so any plan that
//! leaves at least one node alive yields a distance matrix bit-identical
//! to the fault-free run (see the `cluster` module docs for the
//! protocol).

#![warn(missing_docs)]

//!
//! # Transports
//!
//! The driver/node protocol runs over a pluggable [`TransportSpec`]: the
//! in-process channel backend above, or length-prefix-framed TCP/Unix
//! sockets ([`SocketConfig`]) to worker processes launched by the driver,
//! spawned as `parapsp node` subprocesses, or started by hand on other
//! terminals ([`WorkerMode`]). The socket path carries the same checksums,
//! retries, and re-deals, plus heartbeat keepalives — so a worker that is
//! `kill -9`ed mid-run is detected (EOF or missed heartbeats) and its
//! sources recovered exactly like an injected crash.

//!
//! # Durability and chaos
//!
//! With a ledger on the run config
//! ([`RunConfig::with_ledger`](parapsp_core::engine::RunConfig::with_ledger)),
//! the driver journals every accepted row into a crash-safe append-only
//! ledger and becomes restartable: a new driver incarnation pointed at
//! the same file replays the valid prefix, re-handshakes returning
//! workers under the run's id and a bumped epoch, and re-deals only the
//! missing sources. A [`ChaosPlan`] subjects the node→driver event path
//! to seeded, deterministic delay, duplication, reordering, payload
//! corruption and one-way partitions, and drops hub relays on the way
//! back — on either transport backend, since both route hub rows through
//! the driver.

mod chaos;
mod cluster;
mod fault;
mod node;
mod socket;
mod transport;
mod wire;
mod worker;

pub use chaos::ChaosPlan;
pub use cluster::{
    ClusterConfig, ClusterConfigError, DistApspOutput, DistEngine, NodeStats, RetryPolicy,
    SourcePartition, WatchdogConfig,
};
pub use fault::FaultPlan;
pub use node::NodeSolver;
pub use transport::{BindSpec, ConnectRetry, SocketConfig, TransportSpec, WorkerMode};
pub use worker::{run_worker, WorkerOptions, WorkerOutcome};
