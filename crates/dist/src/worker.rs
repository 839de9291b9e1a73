//! The socket worker: dials the driver, completes the handshake, and runs
//! the shared node loop over a framed stream.
//!
//! This is the entry point behind the `parapsp node` CLI subcommand, and
//! also what [`WorkerMode::Threads`](crate::transport::WorkerMode) runs
//! in-process — either way, every byte crosses a real socket, and the
//! compute loop is the very same [`run_node_loop`] the channel backend
//! uses, so deterministic fault injection behaves identically across
//! transports.

use std::io;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, TryRecvError};

use crate::cluster::{run_node_loop, NodeStats};
use crate::node::RowRef;
use crate::socket::WireStream;
use crate::transport::{ConnectRetry, Disconnected, NodeControl, NodeIo};
use crate::wire::{
    hub_fwd_frame, read_frame, rows_frame, write_frame, write_frame_bytes, Frame, WorkerSetup,
    PROTOCOL_VERSION,
};

/// Knobs for [`run_worker`]; everything else arrives in the Setup frame.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Dial retry/backoff toward the driver.
    pub connect: ConnectRetry,
    /// Artificial pause before each source computation. Zero in
    /// production; tests use it to make a worker predictably slow enough
    /// to be killed mid-run regardless of build profile.
    pub source_delay: Duration,
    /// Run identity `(run_id, epoch)` of the last Setup this worker
    /// accepted, echoed in Hello so a restarted driver can tell its own
    /// returning workers from strangers. `(0, 0)` means "fresh worker".
    pub session: (u64, u32),
    /// Bound on any single socket write toward the driver.
    pub write_timeout: Duration,
    /// Bound on each handshake read (Setup); post-handshake reads block
    /// indefinitely because liveness flows from the heartbeat writer.
    pub handshake_timeout: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect: ConnectRetry::default(),
            source_delay: Duration::ZERO,
            session: (0, 0),
            write_timeout: Duration::from_secs(2),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// How a worker's run ended.
#[derive(Debug)]
pub enum WorkerOutcome {
    /// Ran to shutdown; the final stats were also shipped to the driver.
    Clean(NodeStats),
    /// A deterministic fault-plan crash fired: the socket was torn down
    /// abruptly, exactly like a process dying. (A real `kill -9` never
    /// returns at all, so this variant only covers *injected* crashes.)
    Crashed,
    /// The driver connection died before any Shutdown arrived — the
    /// driver crashed or was killed. The worker's run identity is
    /// returned so the caller can re-dial and prove, via Hello, that it
    /// belongs to the same run when a restarted driver answers.
    Lost {
        /// `(run_id, epoch)` of the Setup this worker was running under.
        session: (u64, u32),
    },
}

/// Deterministic backoff jitter (splitmix64 over `seed ^ attempt`): dial
/// timing is reproducible in tests but not synchronized across workers.
fn jitter_ms(seed: u64, attempt: u32, span_ms: u64) -> u64 {
    if span_ms == 0 {
        return 0;
    }
    let mut z = seed ^ (u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % span_ms
}

/// `host:port` dials TCP; anything else — a path separator, a leading
/// dot, or a bare filename like `apsp.sock` (no colon, so it cannot be a
/// TCP address) — dials a Unix socket.
fn dial(addr: &str) -> io::Result<WireStream> {
    #[cfg(unix)]
    if addr.contains('/') || addr.starts_with('.') || !addr.contains(':') {
        return UnixStream::connect(addr).map(WireStream::Unix);
    }
    TcpStream::connect(addr).map(WireStream::Tcp)
}

/// Dials with seeded exponential backoff. Returns the stream plus the
/// number of failed attempts that preceded it (the worker's reconnect
/// count).
fn dial_with_retry(addr: &str, retry: &ConnectRetry) -> Result<(WireStream, u32), String> {
    let mut last_error = String::from("no connection attempts were made");
    for attempt in 0..retry.attempts.max(1) {
        match dial(addr) {
            Ok(stream) => return Ok((stream, attempt)),
            Err(e) => last_error = e.to_string(),
        }
        let base_ms = retry.base.as_millis() as u64;
        let cap_ms = retry.cap.as_millis() as u64;
        let shift = attempt.min(16);
        let backoff = (base_ms << shift).min(cap_ms);
        let sleep = backoff + jitter_ms(retry.seed, attempt, base_ms.max(1));
        std::thread::sleep(Duration::from_millis(sleep));
    }
    Err(format!(
        "could not reach driver at {addr} after {} attempts: {last_error}",
        retry.attempts.max(1)
    ))
}

/// [`NodeIo`](crate::transport::NodeIo) over a framed socket: control
/// frames arrive via a reader thread; the node loop's batches of up to
/// `row_batch` gather rows go out as one Rows frame each; hub rows go
/// through the driver relay immediately. Rows are encoded straight from
/// the node's memory into the frame.
struct SocketNodeIo {
    inbox: Receiver<NodeControl>,
    writer: Arc<Mutex<WireStream>>,
    row_batch: usize,
}

impl SocketNodeIo {
    fn write(&self, frame: &[u8]) {
        // A failed write means the driver is gone; the reader thread will
        // drop the inbox and the node loop exits on its next recv.
        let mut writer = self.writer.lock().unwrap();
        let _ = write_frame_bytes(&mut *writer, frame);
    }
}

impl NodeIo for SocketNodeIo {
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
        self.write(&hub_fwd_frame(peer as u32, row));
    }

    fn row_batch(&self) -> usize {
        self.row_batch
    }

    fn send_rows(&mut self, rows: &[RowRef<'_>]) {
        self.write(&rows_frame(rows));
    }
}

/// Decodes driver control frames into the node's inbox until the stream
/// dies or the sender is dropped. `saw_shutdown` distinguishes an orderly
/// end-of-run from a driver that vanished mid-run (worth re-dialing).
fn control_reader(
    mut stream: WireStream,
    inbox: crossbeam::channel::Sender<NodeControl>,
    saw_shutdown: Arc<AtomicBool>,
) {
    loop {
        let control = match read_frame(&mut stream) {
            Ok(Frame::Hub(msg)) => NodeControl::Hub(msg),
            Ok(Frame::Assign(s)) => NodeControl::Assign(s),
            Ok(Frame::Resend(s)) => NodeControl::Resend(s),
            Ok(Frame::Shutdown) => {
                saw_shutdown.store(true, Ordering::Relaxed);
                NodeControl::Shutdown
            }
            Ok(Frame::Heartbeat) => continue,
            // Garbage or driver EOF: drop the inbox so the loop exits.
            Ok(_) | Err(_) => return,
        };
        if inbox.send(control).is_err() {
            return;
        }
    }
}

/// Connects to the driver at `addr`, handshakes, and runs the node loop
/// to completion. Blocks for the whole run.
///
/// Errors are dial/handshake failures; a completed run — even one ended
/// by an injected crash — is an `Ok` with the corresponding
/// [`WorkerOutcome`].
pub fn run_worker(addr: &str, options: WorkerOptions) -> Result<WorkerOutcome, String> {
    let (stream, reconnects) = dial_with_retry(addr, &options.connect)?;
    stream
        .set_write_timeout(Some(options.write_timeout))
        .map_err(|e| format!("setting the socket write timeout: {e}"))?;

    // Handshake: Hello -> Setup -> Ready. Reads are bounded so a wedged
    // driver cannot hang the worker forever.
    stream
        .set_read_timeout(Some(options.handshake_timeout))
        .map_err(|e| format!("setting the handshake read timeout: {e}"))?;
    let mut handshake_half = stream
        .try_clone()
        .map_err(|e| format!("cloning the socket: {e}"))?;
    write_frame(
        &mut handshake_half,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            reconnects,
            run_id: options.session.0,
            epoch: options.session.1,
        },
    )
    .map_err(|e| format!("sending Hello: {e}"))?;
    let setup: WorkerSetup = match read_frame(&mut handshake_half) {
        Ok(Frame::Setup(setup)) => *setup,
        // A driver of another wire version answers with its own Hello.
        Ok(Frame::Hello { version, .. }) => {
            return Err(format!(
                "the driver refused this worker: driver speaks protocol v{version}, \
                 worker v{PROTOCOL_VERSION}"
            ))
        }
        Ok(other) => return Err(format!("expected Setup from the driver, got {other:?}")),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Err(format!(
                "the driver closed the connection instead of sending Setup: it refused this \
                 worker's Hello (worker v{PROTOCOL_VERSION}; a driver of another protocol \
                 version, or of another run, refuses it)"
            ))
        }
        Err(e) => return Err(format!("reading Setup: {e}")),
    };
    let session = (setup.run_id, setup.epoch);
    write_frame(&mut handshake_half, &Frame::Ready).map_err(|e| format!("sending Ready: {e}"))?;

    // Post-handshake, reads block indefinitely: liveness flows from the
    // heartbeat *writer* below, and the reader exits on driver EOF.
    stream
        .set_read_timeout(None)
        .map_err(|e| format!("clearing the read timeout: {e}"))?;

    let reader_half = stream
        .try_clone()
        .map_err(|e| format!("cloning the socket: {e}"))?;
    let (inbox_tx, inbox_rx) = unbounded();
    let saw_shutdown = Arc::new(AtomicBool::new(false));
    let reader = {
        let saw_shutdown = Arc::clone(&saw_shutdown);
        std::thread::spawn(move || control_reader(reader_half, inbox_tx, saw_shutdown))
    };

    let writer = Arc::new(Mutex::new(stream));

    // Keepalive: a dedicated thread writes a heartbeat frame every
    // interval, so the driver's silence budget never trips while this
    // worker grinds through a long SSSP.
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let interval = Duration::from_millis(setup.heartbeat_ms.max(1));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                {
                    let mut writer = writer.lock().unwrap();
                    if write_frame(&mut *writer, &Frame::Heartbeat).is_err() {
                        return; // driver gone; nothing left to keep alive
                    }
                }
                std::thread::sleep(interval);
            }
        })
    };

    let n = setup.graph.vertex_count();
    let mut is_hub = vec![false; n];
    for &h in &setup.hubs {
        if (h as usize) < n {
            is_hub[h as usize] = true;
        }
    }
    let mut io = SocketNodeIo {
        inbox: inbox_rx,
        writer: Arc::clone(&writer),
        row_batch: setup.row_batch as usize,
    };
    let mut stats = run_node_loop(
        setup.node_id as usize,
        &setup.graph,
        &setup.owned,
        &is_hub,
        setup.nodes as usize,
        &setup.faults,
        &setup.retry,
        None,
        setup.max_distance,
        setup.solver,
        options.source_delay,
        &mut io,
    );
    stats.reconnects = u64::from(reconnects);

    stop.store(true, Ordering::Relaxed);
    if stats.crashed {
        // Injected crash: die the way a killed process does — no flush,
        // no Stats, just a torn connection.
        writer.lock().unwrap().shutdown_both();
        let _ = heartbeat.join();
        let _ = reader.join();
        return Ok(WorkerOutcome::Crashed);
    }
    if !saw_shutdown.load(Ordering::Relaxed) {
        // The loop ended on a dead inbox, not a Shutdown: the driver is
        // gone. Tear down and report the session so the caller can
        // re-dial — a restarted driver will accept the Hello (same run,
        // older epoch) and re-deal whatever its ledger says is missing.
        writer.lock().unwrap().shutdown_both();
        let _ = heartbeat.join();
        let _ = reader.join();
        return Ok(WorkerOutcome::Lost { session });
    }

    io.write(&Frame::Stats(stats).encode());
    // An orderly goodbye: close our end so the driver's reader sees EOF
    // right after the Stats frame.
    writer.lock().unwrap().shutdown_both();
    let _ = heartbeat.join();
    let _ = reader.join();
    Ok(WorkerOutcome::Clean(stats))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    /// A bare filename like `apsp.sock` (relative path, no slash, no
    /// colon) must dial as a Unix socket, not parse as a TCP address —
    /// the README's `--listen apsp.sock` example depends on it.
    #[test]
    fn bare_socket_filenames_dial_unix_not_tcp() {
        for addr in ["definitely-missing.sock", "./also-missing.sock", "a/b.sock"] {
            let err = dial(addr).expect_err("nothing is listening");
            // Unix connect to a missing path is NotFound; a TCP parse
            // failure would be InvalidInput ("invalid socket address").
            assert_eq!(err.kind(), io::ErrorKind::NotFound, "addr {addr}: {err}");
        }
        let err = dial("127.0.0.1:1").expect_err("nothing listens on port 1");
        assert_ne!(
            err.kind(),
            io::ErrorKind::NotFound,
            "host:port must dial TCP"
        );
    }
}
