//! The transport seam between the cluster driver and its nodes.
//!
//! The driver logic (streaming gather, checksum retries, crash re-deals,
//! the stall watchdog) is written once against two small traits:
//!
//! * [`ControlSink`] — how the driver talks *to* a node (hub relays,
//!   assignments, re-send requests, shutdown);
//! * [`Transport`] — how the driver hears *from* a node (rows, hub
//!   forwards, final stats), where a closed event stream **is** the crash
//!   signal.
//!
//! Two backends implement the pair: [`ChannelTransport`] (the original
//! in-process crossbeam channels, one thread per node) and the socket
//! transport in [`crate::socket`] (length-prefix frames over TCP or Unix
//! sockets to real worker processes). The node side is likewise written
//! once against [`NodeIo`], so an in-process node thread and a remote
//! worker process run byte-for-byte the same protocol logic — including
//! every deterministic fault decision. On both backends every message
//! goes between a node and the driver: a hub row for a peer goes up as a
//! `HubFwd` event and comes down as a `Hub` relay.

use std::time::Duration;

use crossbeam::channel::{Receiver, SendError, Sender, TryRecvError};

use crate::cluster::NodeStats;
use crate::node::{RowMessage, RowRef};

/// How a distributed run moves rows between the driver and its nodes.
//
// A config value built once per run — the size skew between variants
// never sits on a hot path, so boxing `SocketConfig` would only add noise
// at every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Default)]
pub enum TransportSpec {
    /// One OS thread per node, crossbeam channels for the wire. No
    /// processes are spawned; this is the fastest backend and the default.
    #[default]
    InProcess,
    /// Length-prefix-framed sockets to worker processes (or worker
    /// threads speaking the same wire protocol).
    Socket(SocketConfig),
}

/// Where the driver listens for workers.
#[derive(Debug, Clone, Default)]
pub enum BindSpec {
    /// Loopback TCP on an ephemeral port (the default: always available,
    /// no path cleanup).
    #[default]
    TcpEphemeral,
    /// An explicit TCP listen address, e.g. `127.0.0.1:7171`.
    Tcp(String),
    /// A Unix domain socket at this path; removed when the run ends.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

/// Who runs the workers of a socket-transport cluster.
#[derive(Debug, Clone, Default)]
pub enum WorkerMode {
    /// The driver spawns one in-process thread per node, each connecting
    /// back over the real socket and speaking the full wire protocol.
    /// This exercises every byte of the framing without process overhead,
    /// so property tests can run the socket path at scale.
    #[default]
    Threads,
    /// The driver spawns one OS process per node: `program args...
    /// --connect <addr>`. Used by the CLI to self-spawn `node`
    /// subcommand workers.
    Spawn {
        /// Worker executable (typically `std::env::current_exe()`).
        program: std::path::PathBuf,
        /// Arguments placed before the generated `--connect <addr>`.
        args: Vec<String>,
    },
    /// Workers are launched externally (`parapsp node --connect ...`);
    /// the driver just waits for them on the listen address.
    External,
}

/// Seeded exponential backoff for a worker dialing the driver.
///
/// Attempt `i` (zero-based) sleeps `min(cap, base << i)` plus a
/// deterministic jitter of up to `base`, drawn from `seed` and `i` — so a
/// worker that starts before the driver is listening connects as soon as
/// the listener appears, without thundering in lockstep with its peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectRetry {
    /// Total connection attempts before giving up.
    pub attempts: u32,
    /// First backoff sleep; doubles per attempt. Also the jitter span.
    pub base: Duration,
    /// Upper bound on a single backoff sleep (jitter excluded).
    pub cap: Duration,
    /// Jitter seed, so retry timing is reproducible in tests.
    pub seed: u64,
}

impl Default for ConnectRetry {
    fn default() -> Self {
        ConnectRetry {
            attempts: 20,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 0x5EED,
        }
    }
}

/// Tuning for the socket transport.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Listen address.
    pub bind: BindSpec,
    /// Who launches the workers.
    pub workers: WorkerMode,
    /// Worker keepalive interval: each worker writes a heartbeat frame
    /// this often from a dedicated thread, so an alive-but-computing
    /// worker is never mistaken for a dead one.
    pub heartbeat_interval: Duration,
    /// Consecutive silent intervals before the driver declares a worker
    /// dead and re-deals its sources (EOF and connection resets are
    /// detected immediately regardless).
    pub heartbeat_misses: u32,
    /// Socket-level read poll quantum for the driver's per-connection
    /// reader threads (how often the silence budget is re-checked).
    pub read_timeout: Duration,
    /// Socket-level write timeout on both ends; a blocked write past this
    /// is treated as the connection dying.
    pub write_timeout: Duration,
    /// How long the driver waits for all workers to connect and complete
    /// the handshake; slots still empty when it expires are treated as
    /// crashed-at-start and their sources re-dealt.
    pub accept_timeout: Duration,
    /// Completed rows buffered per worker before a gather frame is
    /// forced out (idle workers always flush).
    pub row_batch: usize,
    /// Worker-side dial retry/backoff.
    pub connect: ConnectRetry,
    /// Print the bound listen address to stderr (useful with
    /// [`WorkerMode::External`], where a human starts the workers).
    pub announce: bool,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            bind: BindSpec::default(),
            workers: WorkerMode::default(),
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_misses: 50,
            read_timeout: Duration::from_millis(10),
            write_timeout: Duration::from_secs(2),
            accept_timeout: Duration::from_secs(10),
            row_batch: 4,
            connect: ConnectRetry::default(),
            announce: false,
        }
    }
}

/// A control message from the driver to one node.
#[derive(Debug, Clone)]
pub(crate) enum NodeControl {
    /// A hub row broadcast by a peer, relayed by the driver.
    Hub(RowMessage),
    /// Take ownership of this source.
    Assign(u32),
    /// Re-send this source's row after a rejected delivery.
    Resend(u32),
    /// All rows gathered; exit.
    Shutdown,
}

/// An event from one node to the driver.
#[derive(Debug, Clone)]
pub(crate) enum NodeEvent {
    /// A completed (possibly corrupted-in-flight) gather row.
    Row(RowMessage),
    /// Relay this hub row to peer `to`.
    HubFwd {
        /// Destination node id.
        to: usize,
        /// The sealed row.
        msg: RowMessage,
    },
    /// Socket transport only: the node's final stats on clean shutdown.
    Stats(NodeStats),
}

/// Result of polling one node's event stream.
#[derive(Debug)]
pub(crate) enum Polled {
    /// An event arrived.
    Event(NodeEvent),
    /// Nothing pending (or the timeout elapsed).
    Empty,
    /// The stream is closed and fully drained: the node is dead.
    Down,
}

/// The driver's outbound half: control messages to a node. Send failures
/// are swallowed — a dead node's death is reported by its event stream,
/// which is the single source of truth for liveness.
pub(crate) trait ControlSink {
    /// Sends `message` to node `node` (best-effort).
    fn control(&mut self, node: usize, message: NodeControl);
}

/// The driver's inbound half: per-node event streams.
pub(crate) trait Transport: ControlSink {
    /// Non-blocking poll of node `node`'s events.
    fn try_event(&mut self, node: usize) -> Polled;
    /// The idle driver's wait: blocks until some node's stream may have
    /// news (an event, or its close) or `timeout` passes. It consumes
    /// nothing, and it may return early; the driver polls every node
    /// after it.
    fn wait(&mut self, timeout: Duration);
}

/// The sending half of one node's event stream. Each event it sends, and
/// its drop (the stream's close), also rings the driver's bell, so an
/// idle driver waits on every node at once ([`Transport::wait`]).
pub(crate) struct EventSender {
    /// `None` only while dropping.
    events: Option<Sender<NodeEvent>>,
    bell: Sender<()>,
}

impl EventSender {
    pub(crate) fn new(events: Sender<NodeEvent>, bell: Sender<()>) -> Self {
        EventSender {
            events: Some(events),
            bell,
        }
    }

    /// Sends `event` and rings; fails once the driver dropped the stream.
    pub(crate) fn send(&self, event: NodeEvent) -> Result<(), SendError<NodeEvent>> {
        let sent = self
            .events
            .as_ref()
            .expect("the stream closes only on drop")
            .send(event);
        let _ = self.bell.send(());
        sent
    }
}

impl Drop for EventSender {
    fn drop(&mut self) {
        // Close first, so the driver the ring wakes reads the close.
        drop(self.events.take());
        let _ = self.bell.send(());
    }
}

/// Blocks on `bell` until a node rings or `timeout` passes, then clears
/// the rings already queued: the driver's next poll of every node reads
/// what they announced.
pub(crate) fn wait_for_bell(bell: &Receiver<()>, timeout: Duration) {
    if bell.recv_timeout(timeout).is_ok() {
        while bell.try_recv().is_ok() {}
    }
}

/// The in-process backend: one crossbeam channel pair per node.
pub(crate) struct ChannelTransport {
    /// Driver → node control mailboxes.
    pub control_tx: Vec<Sender<NodeControl>>,
    /// Node → driver event streams (disconnect = crash).
    pub gather_rx: Vec<Receiver<NodeEvent>>,
    /// Rung by every node's [`EventSender`].
    pub bell: Receiver<()>,
}

impl ControlSink for ChannelTransport {
    fn control(&mut self, node: usize, message: NodeControl) {
        let _ = self.control_tx[node].send(message);
    }
}

impl Transport for ChannelTransport {
    fn try_event(&mut self, node: usize) -> Polled {
        match self.gather_rx[node].try_recv() {
            Ok(event) => Polled::Event(event),
            Err(TryRecvError::Empty) => Polled::Empty,
            Err(TryRecvError::Disconnected) => Polled::Down,
        }
    }

    fn wait(&mut self, timeout: Duration) {
        wait_for_bell(&self.bell, timeout);
    }
}

/// The node's view of the wire: its control inbox plus its outbound rows.
/// Implemented by the channel node ([`ChannelNodeIo`]) and the socket
/// worker (`crate::worker`), so the node loop in `cluster` is the single
/// copy of the protocol logic.
pub(crate) trait NodeIo {
    /// Non-blocking inbox poll; `Ok(None)` when empty.
    fn try_recv(&mut self) -> Result<Option<NodeControl>, Disconnected>;
    /// Blocking inbox read. The node loop sends every row it holds back
    /// first, so the driver is never starved while the node waits for it.
    fn recv(&mut self) -> Result<NodeControl, Disconnected>;
    /// Sends a sealed hub row for peer `peer` to the driver, which
    /// relays it.
    fn send_hub(&mut self, peer: usize, row: RowRef<'_>);
    /// Completed rows the node loop collects before sealing them together
    /// and calling [`NodeIo::send_rows`] (idle nodes send fewer).
    fn row_batch(&self) -> usize;
    /// Streams sealed completed rows to the driver, as one gather frame.
    fn send_rows(&mut self, rows: &[RowRef<'_>]);
}

/// The driver vanished (channel disconnected / socket EOF); the node
/// exits its loop.
pub(crate) struct Disconnected;

/// [`NodeIo`] over crossbeam channels (the in-process backend).
pub(crate) struct ChannelNodeIo {
    /// Control inbox.
    pub inbox: Receiver<NodeControl>,
    /// Event stream to the driver: gather rows and hub rows to relay.
    pub gather: EventSender,
}

impl NodeIo for ChannelNodeIo {
    fn try_recv(&mut self) -> Result<Option<NodeControl>, Disconnected> {
        match self.inbox.try_recv() {
            Ok(message) => Ok(Some(message)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(Disconnected),
        }
    }

    fn recv(&mut self) -> Result<NodeControl, Disconnected> {
        self.inbox.recv().map_err(|_| Disconnected)
    }

    fn send_hub(&mut self, peer: usize, row: RowRef<'_>) {
        let _ = self.gather.send(NodeEvent::HubFwd {
            to: peer,
            msg: row.to_message(),
        });
    }

    fn row_batch(&self) -> usize {
        // Channels are unbounded and in-process: no batching needed.
        1
    }

    fn send_rows(&mut self, rows: &[RowRef<'_>]) {
        for &row in rows {
            let _ = self.gather.send(NodeEvent::Row(row.to_message()));
        }
    }
}
