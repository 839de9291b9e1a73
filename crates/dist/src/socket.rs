//! Driver side of the socket transport: bind, handshake, per-connection
//! reader threads, and real-death detection.
//!
//! # Crash detection state machine
//!
//! Each accepted worker gets a dedicated reader thread that decodes
//! frames into the driver's event stream. The thread tracks the last
//! instant *any* byte arrived; workers write heartbeat frames from a
//! dedicated thread every [`SocketConfig::heartbeat_interval`], so a
//! healthy connection is never silent for long even while its worker
//! grinds through a large SSSP. A connection is declared dead — the
//! reader exits and drops its event sender, which the driver observes as
//! [`Polled::Down`](crate::transport::Polled) and feeds into the ordinary
//! crash re-deal path — on the first of:
//!
//! * **EOF / connection reset** (`kill -9`, a panic, a yanked cable):
//!   detected on the next read, typically immediately;
//! * **protocol corruption** (bad magic, malformed frame): the stream
//!   cannot be resynchronized, so it is treated as lost;
//! * **missed heartbeats**: silence longer than `heartbeat_interval ×
//!   heartbeat_misses` with the socket still open (a wedged process, a
//!   dead NAT entry).
//!
//! Workers that never complete the handshake within
//! [`SocketConfig::accept_timeout`] are crashes that happened before the
//! run: the driver re-deals their shares before gathering the first row.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use parapsp_parfor::{CancelStatus, CancelToken};

use crate::transport::{
    wait_for_bell, BindSpec, ControlSink, EventSender, NodeControl, NodeEvent, Polled,
    SocketConfig, Transport, WorkerMode,
};
use crate::wire::{read_frame, write_frame, Frame, WorkerSetup, PROTOCOL_VERSION};

/// Why [`SocketTransport::start`] did not produce a transport.
#[derive(Debug)]
pub(crate) enum SocketStartError {
    /// The cancel token tripped while waiting for workers.
    Stopped(CancelStatus),
    /// Binding, spawning, or listening failed outright.
    Io(String),
}

/// A connected byte stream of either flavour.
#[derive(Debug)]
pub(crate) enum WireStream {
    /// TCP (loopback or otherwise).
    Tcp(TcpStream),
    /// Unix domain socket.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl WireStream {
    pub(crate) fn try_clone(&self) -> io::Result<WireStream> {
        match self {
            WireStream::Tcp(s) => s.try_clone().map(WireStream::Tcp),
            #[cfg(unix)]
            WireStream::Unix(s) => s.try_clone().map(WireStream::Unix),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            WireStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            WireStream::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// Tears the connection down abruptly (both directions); used by a
    /// worker simulating a crash, so the driver sees a hard EOF rather
    /// than an orderly goodbye.
    pub(crate) fn shutdown_both(&self) {
        match self {
            WireStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            WireStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            WireStream::Unix(s) => s.flush(),
        }
    }
}

enum WireListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl WireListener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            WireListener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            WireListener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn accept_nonblocking(&self) -> io::Result<Option<WireStream>> {
        let accepted = match self {
            WireListener::Tcp(l) => l.accept().map(|(s, _)| WireStream::Tcp(s)),
            #[cfg(unix)]
            WireListener::Unix(l) => l.accept().map(|(s, _)| WireStream::Unix(s)),
        };
        match accepted {
            Ok(stream) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// A `Read` adapter that turns socket read timeouts into a silence
/// budget: short timeouts (the poll quantum) are retried, counting missed
/// heartbeat intervals, until either bytes arrive or the budget —
/// `heartbeat_interval × heartbeat_misses` since the last activity — is
/// exhausted, at which point the peer is presumed dead.
struct PatientReader {
    stream: WireStream,
    last_activity: Instant,
    interval: Duration,
    budget: Duration,
    misses: Arc<AtomicU64>,
    reported: u64,
}

impl Read for PatientReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Ok(0),
                Ok(read) => {
                    self.last_activity = Instant::now();
                    self.reported = 0;
                    return Ok(read);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    let silent = self.last_activity.elapsed();
                    let intervals = (silent.as_nanos() / self.interval.as_nanos().max(1)) as u64;
                    if intervals > self.reported {
                        self.misses
                            .fetch_add(intervals - self.reported, Ordering::Relaxed);
                        self.reported = intervals;
                    }
                    if silent > self.budget {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "heartbeat silence budget exhausted",
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Decodes frames from one worker into the driver's event stream. Exits
/// (dropping `events`, which the driver reads as the node's death) on
/// EOF, connection errors, framing corruption, or heartbeat silence.
fn reader_loop(mut patient: PatientReader, events: EventSender) {
    loop {
        let frame = match read_frame(&mut patient) {
            Ok(frame) => frame,
            Err(_) => return,
        };
        let delivered = match frame {
            // Heartbeats already refreshed the silence clock inside
            // PatientReader; they carry no payload.
            Frame::Heartbeat => true,
            Frame::Rows(rows) => rows
                .into_iter()
                .all(|row| events.send(NodeEvent::Row(row)).is_ok()),
            Frame::HubFwd { to, msg } => events
                .send(NodeEvent::HubFwd {
                    to: to as usize,
                    msg,
                })
                .is_ok(),
            Frame::Stats(stats) => events.send(NodeEvent::Stats(stats)).is_ok(),
            // Anything else out of a worker mid-run is a protocol
            // violation; the stream is not trustworthy anymore.
            _ => return,
        };
        if !delivered {
            return; // transport dropped: the run is over
        }
    }
}

struct Link {
    /// Write half; dropped (set `None`) after the first failed write.
    writer: Option<WireStream>,
    events: Option<Receiver<NodeEvent>>,
    misses: Arc<AtomicU64>,
}

impl Link {
    fn dead() -> Link {
        // A pre-closed event stream: the driver sees Down immediately.
        let (_, rx) = unbounded();
        Link {
            writer: None,
            events: Some(rx),
            misses: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// The socket backend of the [`Transport`] seam.
pub(crate) struct SocketTransport {
    links: Vec<Link>,
    /// Rung by every reader thread's [`EventSender`].
    bell: Receiver<()>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
    children: Vec<Child>,
    /// Unix socket path to unlink at teardown.
    cleanup_path: Option<std::path::PathBuf>,
    /// How long `finish` waits per node for late events.
    drain_budget: Duration,
}

impl SocketTransport {
    /// Binds, launches workers per [`SocketConfig::workers`], and
    /// completes the handshake with each. Returns the transport plus the
    /// node ids whose workers never showed up (dead at start).
    pub(crate) fn start(
        config: &SocketConfig,
        setups: Vec<WorkerSetup>,
        token: Option<&CancelToken>,
    ) -> Result<(SocketTransport, Vec<usize>), SocketStartError> {
        let nodes = setups.len();
        let io_err = |context: &str, e: io::Error| SocketStartError::Io(format!("{context}: {e}"));

        let mut cleanup_path = None;
        let (listener, connect_addr) = match &config.bind {
            BindSpec::TcpEphemeral => {
                let listener = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| io_err("binding 127.0.0.1:0", e))?;
                let addr = listener
                    .local_addr()
                    .map_err(|e| io_err("reading bound address", e))?;
                (WireListener::Tcp(listener), addr.to_string())
            }
            BindSpec::Tcp(addr) => {
                let listener =
                    TcpListener::bind(addr).map_err(|e| io_err(&format!("binding {addr}"), e))?;
                let bound = listener
                    .local_addr()
                    .map_err(|e| io_err("reading bound address", e))?;
                (WireListener::Tcp(listener), bound.to_string())
            }
            #[cfg(unix)]
            BindSpec::Unix(path) => {
                // A stale socket file from a previous run blocks the bind.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| io_err(&format!("binding {}", path.display()), e))?;
                cleanup_path = Some(path.clone());
                (WireListener::Unix(listener), path.display().to_string())
            }
        };
        listener
            .set_nonblocking()
            .map_err(|e| io_err("setting the listener non-blocking", e))?;
        if config.announce || matches!(config.workers, WorkerMode::External) {
            eprintln!("dist: listening on {connect_addr}; waiting for {nodes} worker(s)");
        }

        // Launch the workers (External mode launches nothing: somebody
        // else runs `parapsp node --connect <addr>`).
        let mut worker_threads = Vec::new();
        let mut children = Vec::new();
        match &config.workers {
            WorkerMode::Threads => {
                for _ in 0..nodes {
                    let addr = connect_addr.clone();
                    let options = crate::worker::WorkerOptions {
                        connect: config.connect,
                        write_timeout: config.write_timeout,
                        ..Default::default()
                    };
                    worker_threads.push(std::thread::spawn(move || {
                        // Failures surface on the driver side as a dead
                        // connection; nothing useful to do with them here.
                        let _ = crate::worker::run_worker(&addr, options);
                    }));
                }
            }
            WorkerMode::Spawn { program, args } => {
                for _ in 0..nodes {
                    let child = Command::new(program)
                        .args(args)
                        .arg("--connect")
                        .arg(&connect_addr)
                        .stdin(Stdio::null())
                        .spawn()
                        .map_err(|e| {
                            io_err(&format!("spawning worker {}", program.display()), e)
                        })?;
                    children.push(child);
                }
            }
            WorkerMode::External => {}
        }

        // Accept + handshake until every slot is filled or the clock (or
        // the token) runs out. Readers start immediately per connection,
        // so early workers stream rows while later ones still dial in.
        let deadline = Instant::now() + config.accept_timeout;
        let mut links: Vec<Link> = Vec::with_capacity(nodes);
        let (ring, bell) = unbounded();
        while links.len() < nodes {
            if let Some(token) = token {
                let status = token.poll();
                if status.is_stop() {
                    if let Some(path) = &cleanup_path {
                        let _ = std::fs::remove_file(path);
                    }
                    return Err(SocketStartError::Stopped(status));
                }
            }
            if Instant::now() >= deadline {
                break;
            }
            match listener.accept_nonblocking() {
                Ok(Some(stream)) => {
                    let slot = links.len();
                    // A botched handshake does not consume the slot: the
                    // worker that matters may still be dialing.
                    if let Ok(link) = handshake(stream, &setups[slot], config, &ring) {
                        links.push(link);
                    }
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => {
                    if let Some(path) = &cleanup_path {
                        let _ = std::fs::remove_file(path);
                    }
                    return Err(io_err("accepting a worker connection", e));
                }
            }
        }
        let dead_at_start: Vec<usize> = (links.len()..nodes).collect();
        while links.len() < nodes {
            links.push(Link::dead());
        }

        let drain_budget =
            (config.heartbeat_interval * config.heartbeat_misses).max(Duration::from_secs(5));
        Ok((
            SocketTransport {
                links,
                bell,
                worker_threads,
                children,
                cleanup_path,
                drain_budget,
            },
            dead_at_start,
        ))
    }

    /// Heartbeat intervals that elapsed with no traffic from node `k`.
    pub(crate) fn heartbeat_misses(&self, k: usize) -> u64 {
        self.links[k].misses.load(Ordering::Relaxed)
    }

    /// Teardown: drains late events (bounded per node), joins worker
    /// threads, reaps worker processes, and unlinks the Unix socket.
    /// Returns the drained events for the driver to fold in.
    pub(crate) fn finish(&mut self) -> Vec<(usize, NodeEvent)> {
        let mut late = Vec::new();
        for (k, link) in self.links.iter_mut().enumerate() {
            let Some(events) = link.events.take() else {
                continue;
            };
            let deadline = Instant::now() + self.drain_budget;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break; // a worker still alive past the budget keeps its peace
                }
                match events.recv_timeout(left.min(Duration::from_millis(50))) {
                    Ok(event) => late.push((k, event)),
                    Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => {}
                }
            }
            // Closing our write half unblocks a worker still waiting on
            // its inbox (e.g. one this driver wrongly presumed dead).
            link.writer = None;
        }
        for handle in self.worker_threads.drain(..) {
            let _ = handle.join();
        }
        for mut child in self.children.drain(..) {
            let _ = child.wait();
        }
        if let Some(path) = self.cleanup_path.take() {
            let _ = std::fs::remove_file(&path);
        }
        late
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        if let Some(path) = self.cleanup_path.take() {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Driver side of the per-connection handshake: expect Hello, ship the
/// Setup, wait for Ready, then hand the read half to a reader thread.
fn handshake(
    stream: WireStream,
    setup: &WorkerSetup,
    config: &SocketConfig,
    ring: &Sender<()>,
) -> io::Result<Link> {
    // Handshake reads get a generous fixed timeout; a worker that stalls
    // here is dropped without consuming the slot.
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let mut handshake_half = stream.try_clone()?;
    let hello = read_frame(&mut handshake_half)?;
    let Frame::Hello {
        version,
        run_id,
        epoch,
        ..
    } = hello
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "worker did not open with Hello",
        ));
    };
    if version != PROTOCOL_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("worker speaks protocol v{version}, driver v{PROTOCOL_VERSION}"),
        ));
    }
    // Run-identity checks for driver restarts. A `run_id` of 0 is a fresh
    // worker with no history; anything else is the identity of the last
    // Setup the worker accepted, and it must be *this* run's — a worker
    // from a different ledger/run must not contribute rows here. Within
    // the same run, a worker cannot have seen an epoch newer than ours
    // (epochs only grow by re-opening the ledger we hold); older epochs
    // are the expected case after a driver restart and simply re-setup.
    if run_id != 0 && run_id != setup.run_id {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "worker belongs to run {run_id:#018x}, this driver is run {:#018x}",
                setup.run_id
            ),
        ));
    }
    if run_id == setup.run_id && epoch > setup.epoch {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "worker handshakes from future epoch {epoch} (driver is at epoch {})",
                setup.epoch
            ),
        ));
    }
    write_frame(&mut handshake_half, &Frame::Setup(Box::new(setup.clone())))?;
    let Frame::Ready = read_frame(&mut handshake_half)? else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "worker did not acknowledge Setup with Ready",
        ));
    };

    // From here on, reads are paced by the heartbeat silence budget.
    let reader_half = stream.try_clone()?;
    reader_half.set_read_timeout(Some(config.read_timeout))?;
    let misses = Arc::new(AtomicU64::new(0));
    let patient = PatientReader {
        stream: reader_half,
        last_activity: Instant::now(),
        interval: config.heartbeat_interval,
        budget: config.heartbeat_interval * config.heartbeat_misses,
        misses: Arc::clone(&misses),
        reported: 0,
    };
    let (tx, rx) = unbounded();
    // Reader threads are detached: they self-terminate on EOF, silence,
    // or when the event receiver is dropped.
    let events = EventSender::new(tx, ring.clone());
    std::thread::spawn(move || reader_loop(patient, events));
    Ok(Link {
        writer: Some(stream),
        events: Some(rx),
        misses,
    })
}

impl ControlSink for SocketTransport {
    fn control(&mut self, node: usize, message: NodeControl) {
        let Some(writer) = self.links[node].writer.as_mut() else {
            return;
        };
        let frame = match message {
            NodeControl::Hub(msg) => Frame::Hub(msg),
            NodeControl::Assign(s) => Frame::Assign(s),
            NodeControl::Resend(s) => Frame::Resend(s),
            NodeControl::Shutdown => Frame::Shutdown,
        };
        if write_frame(writer, &frame).is_err() {
            // The reader thread will report the death; just stop writing.
            self.links[node].writer = None;
        }
    }
}

impl Transport for SocketTransport {
    fn try_event(&mut self, node: usize) -> Polled {
        match self.links[node].events.as_ref() {
            None => Polled::Down,
            Some(events) => match events.try_recv() {
                Ok(event) => Polled::Event(event),
                Err(TryRecvError::Empty) => Polled::Empty,
                Err(TryRecvError::Disconnected) => Polled::Down,
            },
        }
    }

    fn wait(&mut self, timeout: Duration) {
        wait_for_bell(&self.bell, timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::cluster::{dist_apsp, dist_apsp_cancellable, ClusterConfig};
    use crate::fault::FaultPlan;
    use crate::transport::{BindSpec, ConnectRetry, SocketConfig, TransportSpec, WorkerMode};
    use crate::worker::{run_worker, WorkerOptions};
    use parapsp_core::baselines::apsp_dijkstra;
    use parapsp_core::RunOutcome;
    use parapsp_graph::generate::{barabasi_albert, WeightSpec};

    fn fast_socket(workers: WorkerMode) -> SocketConfig {
        SocketConfig {
            workers,
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_misses: 100,
            accept_timeout: Duration::from_secs(20),
            ..SocketConfig::default()
        }
    }

    fn temp_sock(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("parapsp-{tag}-{}.sock", std::process::id()))
    }

    #[test]
    fn tcp_socket_cluster_matches_sequential() {
        let g = barabasi_albert(120, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 41).unwrap();
        let reference = apsp_dijkstra(&g);
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 3,
                transport: TransportSpec::Socket(fast_socket(WorkerMode::Threads)),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert_eq!(out.node_stats.len(), 3);
        assert!(out.node_stats.iter().all(|s| !s.crashed));
        assert_eq!(out.node_stats.iter().map(|s| s.sources).sum::<u64>(), 120);
        assert_eq!(out.gather_rejected, 0);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_cluster_matches_sequential() {
        let path = temp_sock("unix-clean");
        let g = barabasi_albert(90, 3, WeightSpec::Unit, 42).unwrap();
        let reference = apsp_dijkstra(&g);
        let mut socket = fast_socket(WorkerMode::Threads);
        socket.bind = BindSpec::Unix(path.clone());
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 2,
                transport: TransportSpec::Socket(socket),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert!(!path.exists(), "socket file must be unlinked at teardown");
    }

    #[test]
    fn socket_fault_storm_is_bit_identical_to_the_clean_run() {
        let g = barabasi_albert(100, 3, WeightSpec::Uniform { lo: 1, hi: 20 }, 43).unwrap();
        let clean = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 3,
                ..ClusterConfig::default()
            },
        );
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 3,
                faults: FaultPlan::seeded(21).crash_node_after(1, 2),
                chaos: Some(
                    ChaosPlan::seeded(21)
                        .with_hub_drop_probability(0.25)
                        .with_corrupt_probability(0.2),
                ),
                transport: TransportSpec::Socket(fast_socket(WorkerMode::Threads)),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(clean.dist.first_difference(&out.dist), None);
        let crashed: Vec<bool> = out.node_stats.iter().map(|s| s.crashed).collect();
        assert_eq!(crashed, vec![false, true, false]);
        assert!(
            out.gather_rejected > 0,
            "a 20% corruption plan should reject at least one delivery"
        );
        assert!(
            out.node_stats.iter().map(|s| s.sources).sum::<u64>() >= 100,
            "every source must be computed at least once"
        );
    }

    #[cfg(unix)]
    #[test]
    fn silent_connection_is_declared_dead_by_missed_heartbeats() {
        let path = temp_sock("silent");
        let addr = path.display().to_string();
        let g = barabasi_albert(60, 3, WeightSpec::Unit, 44).unwrap();
        let reference = apsp_dijkstra(&g);

        // One honest worker...
        let worker_addr = addr.clone();
        let worker = std::thread::spawn(move || {
            let options = WorkerOptions {
                connect: ConnectRetry {
                    attempts: 200,
                    base: Duration::from_millis(5),
                    cap: Duration::from_millis(50),
                    seed: 7,
                },
                ..WorkerOptions::default()
            };
            run_worker(&worker_addr, options)
        });
        // ...and one impostor that completes the handshake, then never
        // sends another byte (a wedged process with a live socket).
        let impostor_addr = addr.clone();
        std::thread::spawn(move || {
            let mut stream = loop {
                match UnixStream::connect(&impostor_addr) {
                    Ok(stream) => break WireStream::Unix(stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            write_frame(
                &mut stream,
                &Frame::Hello {
                    version: PROTOCOL_VERSION,
                    reconnects: 0,
                    run_id: 0,
                    epoch: 0,
                },
            )
            .unwrap();
            let _setup = read_frame(&mut stream).unwrap();
            write_frame(&mut stream, &Frame::Ready).unwrap();
            // Hold the connection open, silently.
            std::thread::sleep(Duration::from_secs(30));
            drop(stream);
        });

        let mut socket = fast_socket(WorkerMode::External);
        socket.bind = BindSpec::Unix(path);
        socket.heartbeat_interval = Duration::from_millis(10);
        socket.heartbeat_misses = 5; // 50ms of silence = dead
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 2,
                transport: TransportSpec::Socket(socket),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        let crashed: Vec<&crate::cluster::NodeStats> =
            out.node_stats.iter().filter(|s| s.crashed).collect();
        assert_eq!(crashed.len(), 1, "exactly the silent peer must be dead");
        assert_eq!(crashed[0].sources, 0);
        assert!(
            crashed[0].heartbeat_misses >= 5,
            "death must be attributed to missed heartbeats, got {}",
            crashed[0].heartbeat_misses
        );
        worker.join().unwrap().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn a_worker_that_never_connects_is_dead_at_start() {
        let path = temp_sock("missing");
        let addr = path.display().to_string();
        let g = barabasi_albert(50, 3, WeightSpec::Unit, 45).unwrap();
        let reference = apsp_dijkstra(&g);

        // Two slots, one worker: the second slot expires with the accept
        // timeout and its sources are re-dealt before the gather starts.
        let worker = std::thread::spawn(move || {
            let options = WorkerOptions {
                connect: ConnectRetry {
                    attempts: 200,
                    base: Duration::from_millis(5),
                    cap: Duration::from_millis(50),
                    seed: 8,
                },
                ..WorkerOptions::default()
            };
            run_worker(&addr, options)
        });
        let mut socket = fast_socket(WorkerMode::External);
        socket.bind = BindSpec::Unix(path);
        socket.accept_timeout = Duration::from_millis(900);
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 2,
                transport: TransportSpec::Socket(socket),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert_eq!(out.node_stats.iter().filter(|s| s.crashed).count(), 1);
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn run_traced_surfaces_the_extended_node_stats() {
        use parapsp_core::engine::{RunConfig, Runner};

        let g = barabasi_albert(80, 3, WeightSpec::Unit, 47).unwrap();
        let engine = crate::cluster::DistEngine::new(ClusterConfig {
            nodes: 2,
            transport: TransportSpec::Socket(fast_socket(WorkerMode::Threads)),
            ..ClusterConfig::default()
        });
        let (out, per_source) = Runner::new(RunConfig::new(1)).run_traced(engine, &g);
        assert_eq!(per_source.len(), 80);
        assert_eq!(apsp_dijkstra(&g).first_difference(&out.dist), None);
        // The socket-only counters travel through the engine output: no
        // reconnects on a first dial, and heartbeat-miss observations are
        // per node, bounded by the configured budget on a healthy run.
        assert_eq!(out.node_stats.len(), 2);
        assert!(out.node_stats.iter().all(|s| !s.crashed));
        assert!(out.node_stats.iter().all(|s| s.reconnects == 0));
        assert!(out.node_stats.iter().all(|s| s.heartbeat_misses < 100));
    }

    #[test]
    fn expired_deadline_stops_a_socket_run_before_the_gather() {
        let g = barabasi_albert(40, 2, WeightSpec::Unit, 46).unwrap();
        let token = CancelToken::with_deadline(Duration::ZERO);
        let outcome = dist_apsp_cancellable(
            &g,
            ClusterConfig {
                nodes: 2,
                transport: TransportSpec::Socket(fast_socket(WorkerMode::Threads)),
                ..ClusterConfig::default()
            },
            &token,
        );
        assert!(matches!(outcome, RunOutcome::DeadlineExceeded { .. }));
    }

    #[cfg(unix)]
    #[test]
    fn a_worker_of_wire_v5_is_refused_at_hello() {
        use crate::cluster::RetryPolicy;
        use crate::node::NodeSolver;
        let (driver_end, worker_end) = UnixStream::pair().unwrap();
        let mut worker = WireStream::Unix(worker_end);
        // A v5 worker seals its rows with FNV-1a, so a v6 driver would
        // reject every row it sends as corrupt; the driver never sends it
        // a Setup.
        write_frame(
            &mut worker,
            &Frame::Hello {
                version: 5,
                reconnects: 0,
                run_id: 0,
                epoch: 0,
            },
        )
        .unwrap();
        let setup = WorkerSetup {
            node_id: 0,
            nodes: 1,
            run_id: 1,
            epoch: 0,
            heartbeat_ms: 10,
            row_batch: 4,
            retry: RetryPolicy::default(),
            max_distance: None,
            solver: NodeSolver::MsBfs,
            hubs: Vec::new(),
            owned: vec![0],
            faults: FaultPlan::default(),
            graph: barabasi_albert(8, 2, WeightSpec::Unit, 1).unwrap(),
        };
        let err = handshake(
            WireStream::Unix(driver_end),
            &setup,
            &fast_socket(WorkerMode::External),
            &unbounded().0,
        )
        .err()
        .expect("a v5 Hello must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("protocol v5, driver v6"), "{err}");
        // The refused worker reads EOF, not a Setup.
        worker
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(read_frame(&mut worker).is_err());
    }

    #[test]
    fn socket_msbfs_fault_storm_matches_the_kernel() {
        // Unit weights: the default solver sends every worker the
        // multi-source BFS over the wire; a crash after 7 emitted rows and
        // a stall after 5 both land inside a first 64-source batch.
        let g = barabasi_albert(150, 3, WeightSpec::Unit, 48).unwrap();
        let reference = apsp_dijkstra(&g);
        let out = dist_apsp(
            &g,
            ClusterConfig {
                nodes: 2,
                hub_fraction: 0.2,
                faults: FaultPlan::seeded(5)
                    .crash_node_after(0, 7)
                    .stall_node_after(1, 5, 50),
                chaos: Some(ChaosPlan::seeded(5).with_corrupt_probability(0.2)),
                transport: TransportSpec::Socket(fast_socket(WorkerMode::Threads)),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(reference.first_difference(&out.dist), None);
        assert!(out.node_stats[0].crashed && !out.node_stats[1].crashed);
        assert_eq!(out.total_broadcast_bytes(), 0, "msbfs deals no hubs");
        assert!(out.gather_rejected > 0);
        assert!(out.node_stats.iter().map(|s| s.sources).sum::<u64>() >= 150);
    }
}
