//! Length-prefix-framed wire protocol for the socket transport.
//!
//! Every frame is `[magic u8][kind u8][len u32 LE][payload; len]`. The
//! payload encoding is hand-rolled little-endian (no serialization
//! dependency), mirroring the checkpoint format in `parapsp-core`.
//! A row is its source, its checksum, its cell count and then its cells
//! as one little-endian byte run — the bytes the run ledger writes — so
//! encoding it is one copy of the row and decoding it one bulk copy back.
//! Row payloads keep the FNV-1a checksum computed by the *sender* — the
//! frame carries it verbatim so the receiver's verification sees exactly
//! what the sender sealed, and any in-flight corruption (injected or real)
//! is caught at the application layer on top of TCP's own checking.
//!
//! Framing errors (bad magic, unknown kind, oversized or truncated
//! payloads) surface as [`std::io::ErrorKind::InvalidData`]; a clean EOF
//! between frames surfaces as [`std::io::ErrorKind::UnexpectedEof`]. Both
//! are treated by the driver as the connection dying, which feeds the
//! ordinary crash re-deal path.

use std::io::{self, Read, Write};

use parapsp_core::persist::le_bytes;
use parapsp_core::store::cell_bytes_mut;
use parapsp_graph::{CsrGraph, Direction};

use crate::cluster::{NodeStats, RetryPolicy};
use crate::fault::FaultPlan;
use crate::node::{RowMessage, RowRef};

/// First byte of every frame; anything else means a desynchronized or
/// foreign stream.
pub(crate) const MAGIC: u8 = 0xA5;

/// Bumped on any incompatible change to the frame layout; the driver
/// rejects workers announcing a different version during the handshake.
/// Version 2 added the run-id/epoch fields to `Hello` and `Setup` for
/// driver-restart re-handshakes; version 3 added the distance cap to
/// `Setup`.
pub(crate) const PROTOCOL_VERSION: u16 = 3;

/// Upper bound on a single frame payload (defense against a corrupt or
/// hostile length prefix allocating unbounded memory).
const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// `[magic][kind][len u32]` ahead of every payload.
const HEADER_LEN: usize = 6;

const KIND_HELLO: u8 = 0x01;
const KIND_SETUP: u8 = 0x02;
const KIND_READY: u8 = 0x03;
const KIND_ROWS: u8 = 0x04;
const KIND_HUB_FWD: u8 = 0x05;
const KIND_HUB: u8 = 0x06;
const KIND_ASSIGN: u8 = 0x07;
const KIND_RESEND: u8 = 0x08;
const KIND_HEARTBEAT: u8 = 0x09;
const KIND_SHUTDOWN: u8 = 0x0A;
const KIND_STATS: u8 = 0x0B;

/// Everything the driver ships a worker at handshake time: identity,
/// pacing, the replicated graph, and the worker's share of the sources.
#[derive(Debug, Clone)]
pub(crate) struct WorkerSetup {
    /// This worker's node id (`0..nodes`).
    pub node_id: u32,
    /// Cluster size, for hub forwarding fan-out.
    pub nodes: u32,
    /// The driver's run identity (from the run ledger when one is
    /// configured, else minted fresh): a worker re-dialing after a driver
    /// restart proves it belongs to this run by echoing it in `Hello`.
    pub run_id: u64,
    /// The driver incarnation. A restarted driver bumps this, so frames
    /// from a worker still handshaking against the previous incarnation
    /// are rejected instead of mixing two generations of assignments.
    pub epoch: u32,
    /// Keepalive interval for the worker's heartbeat thread, ms.
    pub heartbeat_ms: u64,
    /// Rows per gather frame before a flush is forced.
    pub row_batch: u32,
    /// Re-send pacing, identical to the driver's.
    pub retry: RetryPolicy,
    /// The run's distance cap, applied inside the worker's kernel.
    pub max_distance: Option<u32>,
    /// Sources whose completed rows are broadcast cluster-wide.
    pub hubs: Vec<u32>,
    /// Sources this worker owns initially, in assignment order.
    pub owned: Vec<u32>,
    /// The deterministic fault plan (so injected faults draw the same
    /// decisions a simulated in-process node would).
    pub faults: FaultPlan,
    /// The replicated graph.
    pub graph: CsrGraph,
}

/// One protocol message.
#[derive(Debug, Clone)]
pub(crate) enum Frame {
    /// Worker → driver greeting: protocol version plus how many connect
    /// attempts were burned before this one succeeded.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u16,
        /// Connection attempts beyond the first (seeded-backoff retries).
        reconnects: u32,
        /// Run id of the last `Setup` this worker accepted, 0 when fresh.
        /// A driver rejects a worker carrying a *different* run's id.
        run_id: u64,
        /// Epoch of that `Setup`, meaningful only when `run_id != 0`. A
        /// driver rejects epochs *newer* than its own (a worker cannot
        /// have seen a future incarnation of this run); older epochs are
        /// simply re-setup.
        epoch: u32,
    },
    /// Driver → worker: the full job description.
    Setup(Box<WorkerSetup>),
    /// Worker → driver: setup accepted, entering the node loop.
    Ready,
    /// Worker → driver: a batch of completed gather rows.
    Rows(Vec<RowMessage>),
    /// Worker → driver: relay this hub row to peer `to` (the socket
    /// topology is a star, so peer traffic bounces off the driver).
    HubFwd {
        /// Destination node id.
        to: u32,
        /// The sealed row (faults already applied at the origin).
        msg: RowMessage,
    },
    /// Driver → worker: a hub row relayed from a peer.
    Hub(RowMessage),
    /// Driver → worker: take ownership of this source (crash/stall
    /// recovery, or a rejected row re-dealt away from its owner).
    Assign(u32),
    /// Driver → worker: the delivered copy of this row failed its
    /// checksum; back off and send a fresh one.
    Resend(u32),
    /// Worker → driver keepalive; carries no payload.
    Heartbeat,
    /// Driver → worker: all rows gathered, send stats and exit.
    Shutdown,
    /// Worker → driver: final [`NodeStats`], sent on clean shutdown only
    /// (a crashing worker dies silently — that is the point).
    Stats(NodeStats),
}

// ---- little-endian slice readers (shared with `fault::FaultPlan`) ----

pub(crate) fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&first, rest) = buf.split_first()?;
    *buf = rest;
    Some(first)
}

pub(crate) fn take_u16(buf: &mut &[u8]) -> Option<u16> {
    let (head, rest) = buf.split_first_chunk::<2>()?;
    *buf = rest;
    Some(u16::from_le_bytes(*head))
}

pub(crate) fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    let (head, rest) = buf.split_first_chunk::<4>()?;
    *buf = rest;
    Some(u32::from_le_bytes(*head))
}

pub(crate) fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    let (head, rest) = buf.split_first_chunk::<8>()?;
    *buf = rest;
    Some(u64::from_le_bytes(*head))
}

/// A count, then that many little-endian words, copied out in one pass.
fn take_u32_vec(buf: &mut &[u8]) -> Option<Vec<u32>> {
    let count = take_u32(buf)? as usize;
    // checked_mul: on 32-bit targets a hostile count can overflow `count * 4`
    // to a small number and slip past the length guard.
    let (bytes, rest) = buf.split_at_checked(count.checked_mul(4)?)?;
    let mut values = vec![0u32; count];
    cell_bytes_mut(&mut values).copy_from_slice(bytes);
    for value in &mut values {
        *value = u32::from_le(*value);
    }
    *buf = rest;
    Some(values)
}

/// A count, then the words' little-endian byte run in one copy.
fn put_u32_vec(out: &mut Vec<u8>, values: &[u32]) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    out.extend_from_slice(&le_bytes(values));
}

fn put_row(out: &mut Vec<u8>, row: RowRef<'_>) {
    out.extend_from_slice(&row.source.to_le_bytes());
    out.extend_from_slice(&row.checksum.to_le_bytes());
    put_u32_vec(out, row.row);
}

/// Encoded size of [`put_row`]'s output.
fn row_len(row: RowRef<'_>) -> usize {
    12 + 4 * row.row.len()
}

fn take_row(buf: &mut &[u8]) -> Option<RowMessage> {
    let source = take_u32(buf)?;
    let checksum = take_u32(buf)?;
    let row = take_u32_vec(buf)?;
    Some(RowMessage {
        source,
        row,
        checksum,
    })
}

fn put_graph(out: &mut Vec<u8>, graph: &CsrGraph) {
    out.extend_from_slice(&(graph.vertex_count() as u64).to_le_bytes());
    out.push(match graph.direction() {
        Direction::Directed => 0,
        Direction::Undirected => 1,
    });
    let edges = graph.logical_edges();
    out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
    for (u, v, w) in edges {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn take_graph(buf: &mut &[u8]) -> Option<CsrGraph> {
    let n = usize::try_from(take_u64(buf)?).ok()?;
    let direction = match take_u8(buf)? {
        0 => Direction::Directed,
        1 => Direction::Undirected,
        _ => return None,
    };
    let m = usize::try_from(take_u64(buf)?).ok()?;
    if buf.len() < m.checked_mul(12)? {
        return None;
    }
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        edges.push((take_u32(buf)?, take_u32(buf)?, take_u32(buf)?));
    }
    CsrGraph::from_edges(n, direction, &edges).ok()
}

fn put_stats(out: &mut Vec<u8>, stats: &NodeStats) {
    for v in [
        stats.sources,
        stats.local_reuses,
        stats.remote_reuses,
        stats.bytes_sent,
        stats.bytes_received,
        stats.rows_rejected,
        stats.retries,
        stats.retry_backoff_ms,
        stats.reassigned_sources,
        stats.reconnects,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.push(u8::from(stats.crashed));
}

fn take_stats(buf: &mut &[u8]) -> Option<NodeStats> {
    Some(NodeStats {
        sources: take_u64(buf)?,
        local_reuses: take_u64(buf)?,
        remote_reuses: take_u64(buf)?,
        bytes_sent: take_u64(buf)?,
        bytes_received: take_u64(buf)?,
        rows_rejected: take_u64(buf)?,
        retries: take_u64(buf)?,
        retry_backoff_ms: take_u64(buf)?,
        reassigned_sources: take_u64(buf)?,
        reconnects: take_u64(buf)?,
        // Observed by the driver's reader thread, never transmitted.
        heartbeat_misses: 0,
        crashed: take_u8(buf)? != 0,
    })
}

/// Appends a Rows payload: the row count, then each row.
fn put_rows<'a>(out: &mut Vec<u8>, rows: impl ExactSizeIterator<Item = RowRef<'a>>) {
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        put_row(out, row);
    }
}

/// One whole frame — header and payload in a single buffer, sized for
/// `payload_len` bytes up front. `payload` appends the payload and
/// returns the frame kind; the length is patched in afterwards.
fn frame_bytes(payload_len: usize, payload: impl FnOnce(&mut Vec<u8>) -> u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(&[MAGIC, 0, 0, 0, 0, 0]);
    out[1] = payload(&mut out);
    let len = (out.len() - HEADER_LEN) as u32;
    out[2..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    out
}

/// The bytes of a `Rows` frame carrying `rows`, encoded straight from
/// wherever the rows live.
pub(crate) fn rows_frame(rows: &[RowRef<'_>]) -> Vec<u8> {
    let payload_len = 4 + rows.iter().map(|&row| row_len(row)).sum::<usize>();
    frame_bytes(payload_len, |out| {
        put_rows(out, rows.iter().copied());
        KIND_ROWS
    })
}

/// The bytes of a `HubFwd` frame relaying `row` to peer `to`.
pub(crate) fn hub_fwd_frame(to: u32, row: RowRef<'_>) -> Vec<u8> {
    frame_bytes(4 + row_len(row), |out| {
        out.extend_from_slice(&to.to_le_bytes());
        put_row(out, row);
        KIND_HUB_FWD
    })
}

impl Frame {
    /// The frame's bytes, header included.
    pub(crate) fn encode(&self) -> Vec<u8> {
        frame_bytes(0, |out| self.encode_payload(out))
    }

    /// Appends the payload to `out` and returns the frame kind.
    fn encode_payload(&self, out: &mut Vec<u8>) -> u8 {
        match self {
            Frame::Hello {
                version,
                reconnects,
                run_id,
                epoch,
            } => {
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&reconnects.to_le_bytes());
                out.extend_from_slice(&run_id.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                KIND_HELLO
            }
            Frame::Setup(setup) => {
                out.extend_from_slice(&setup.node_id.to_le_bytes());
                out.extend_from_slice(&setup.nodes.to_le_bytes());
                out.extend_from_slice(&setup.run_id.to_le_bytes());
                out.extend_from_slice(&setup.epoch.to_le_bytes());
                out.extend_from_slice(&setup.heartbeat_ms.to_le_bytes());
                out.extend_from_slice(&setup.row_batch.to_le_bytes());
                out.extend_from_slice(&setup.retry.max_resends.to_le_bytes());
                out.extend_from_slice(&setup.retry.base_ms.to_le_bytes());
                out.extend_from_slice(&setup.retry.cap_ms.to_le_bytes());
                // u32::MAX stands for "uncapped": the kernel treats a cap
                // of u32::MAX and no cap alike.
                out.extend_from_slice(&setup.max_distance.unwrap_or(u32::MAX).to_le_bytes());
                put_u32_vec(out, &setup.hubs);
                put_u32_vec(out, &setup.owned);
                setup.faults.encode(out);
                put_graph(out, &setup.graph);
                KIND_SETUP
            }
            Frame::Ready => KIND_READY,
            Frame::Rows(rows) => {
                put_rows(out, rows.iter().map(RowMessage::view));
                KIND_ROWS
            }
            Frame::HubFwd { to, msg } => {
                out.extend_from_slice(&to.to_le_bytes());
                put_row(out, msg.view());
                KIND_HUB_FWD
            }
            Frame::Hub(msg) => {
                put_row(out, msg.view());
                KIND_HUB
            }
            Frame::Assign(s) => {
                out.extend_from_slice(&s.to_le_bytes());
                KIND_ASSIGN
            }
            Frame::Resend(s) => {
                out.extend_from_slice(&s.to_le_bytes());
                KIND_RESEND
            }
            Frame::Heartbeat => KIND_HEARTBEAT,
            Frame::Shutdown => KIND_SHUTDOWN,
            Frame::Stats(stats) => {
                put_stats(out, stats);
                KIND_STATS
            }
        }
    }

    fn decode_payload(kind: u8, mut buf: &[u8]) -> Option<Frame> {
        let buf = &mut buf;
        let frame = match kind {
            KIND_HELLO => Frame::Hello {
                version: take_u16(buf)?,
                reconnects: take_u32(buf)?,
                run_id: take_u64(buf)?,
                epoch: take_u32(buf)?,
            },
            KIND_SETUP => Frame::Setup(Box::new(WorkerSetup {
                node_id: take_u32(buf)?,
                nodes: take_u32(buf)?,
                run_id: take_u64(buf)?,
                epoch: take_u32(buf)?,
                heartbeat_ms: take_u64(buf)?,
                row_batch: take_u32(buf)?,
                retry: RetryPolicy {
                    max_resends: take_u64(buf)?,
                    base_ms: take_u64(buf)?,
                    cap_ms: take_u64(buf)?,
                },
                max_distance: Some(take_u32(buf)?).filter(|&cap| cap != u32::MAX),
                hubs: take_u32_vec(buf)?,
                owned: take_u32_vec(buf)?,
                faults: FaultPlan::decode(buf)?,
                graph: take_graph(buf)?,
            })),
            KIND_READY => Frame::Ready,
            KIND_ROWS => {
                let count = take_u32(buf)? as usize;
                let mut rows = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    rows.push(take_row(buf)?);
                }
                Frame::Rows(rows)
            }
            KIND_HUB_FWD => Frame::HubFwd {
                to: take_u32(buf)?,
                msg: take_row(buf)?,
            },
            KIND_HUB => Frame::Hub(take_row(buf)?),
            KIND_ASSIGN => Frame::Assign(take_u32(buf)?),
            KIND_RESEND => Frame::Resend(take_u32(buf)?),
            KIND_HEARTBEAT => Frame::Heartbeat,
            KIND_SHUTDOWN => Frame::Shutdown,
            KIND_STATS => Frame::Stats(take_stats(buf)?),
            _ => return None,
        };
        if !buf.is_empty() {
            return None; // trailing garbage means a framing bug
        }
        Some(frame)
    }
}

/// Writes one frame. A single `write_all` keeps header and payload
/// contiguous, so a concurrent heartbeat thread sharing the writer (behind
/// a mutex) can never interleave inside a frame.
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    write_frame_bytes(w, &frame.encode())
}

/// Writes one frame already encoded by [`rows_frame`] or
/// [`hub_fwd_frame`], in a single `write_all` like [`write_frame`].
pub(crate) fn write_frame_bytes(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. EOF before the first header byte is
/// [`io::ErrorKind::UnexpectedEof`]; bad magic, unknown kinds, oversized
/// lengths, and short payloads are [`io::ErrorKind::InvalidData`].
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[0] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame magic 0x{:02X}", header[0]),
        ));
    }
    let kind = header[1];
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Frame::decode_payload(kind, &payload).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed payload for frame kind 0x{kind:02X}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::generate::{barabasi_albert, WeightSpec};

    fn roundtrip(frame: &Frame) -> Frame {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame).unwrap();
        let mut cursor = &bytes[..];
        let decoded = read_frame(&mut cursor).unwrap();
        assert!(cursor.is_empty(), "decoder must consume the whole frame");
        decoded
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        let row = RowMessage::new(7, vec![0, 3, 9, u32::MAX]);
        let stats = NodeStats {
            sources: 1,
            local_reuses: 2,
            remote_reuses: 3,
            bytes_sent: 4,
            bytes_received: 5,
            rows_rejected: 6,
            retries: 7,
            retry_backoff_ms: 8,
            reassigned_sources: 9,
            reconnects: 10,
            heartbeat_misses: 0,
            crashed: true,
        };
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                reconnects: 3,
                run_id: 0xDEAD_BEEF_CAFE_F00D,
                epoch: 2,
            },
            Frame::Ready,
            Frame::Rows(vec![row.clone(), RowMessage::new(1, vec![5; 4])]),
            Frame::HubFwd {
                to: 2,
                msg: row.clone(),
            },
            Frame::Hub(row.clone()),
            Frame::Assign(42),
            Frame::Resend(17),
            Frame::Heartbeat,
            Frame::Shutdown,
            Frame::Stats(stats),
        ];
        for frame in &frames {
            match (frame, roundtrip(frame)) {
                (
                    Frame::Hello {
                        version,
                        reconnects,
                        run_id,
                        epoch,
                    },
                    Frame::Hello {
                        version: v,
                        reconnects: r,
                        run_id: id,
                        epoch: e,
                    },
                ) => {
                    assert_eq!((*version, *reconnects, *run_id, *epoch), (v, r, id, e));
                }
                (Frame::Ready, Frame::Ready) => {}
                (Frame::Rows(a), Frame::Rows(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(
                            (x.source, x.checksum, &x.row),
                            (y.source, y.checksum, &y.row)
                        );
                    }
                }
                (Frame::HubFwd { to, msg }, Frame::HubFwd { to: t, msg: m }) => {
                    assert_eq!(*to, t);
                    assert_eq!((msg.source, &msg.row), (m.source, &m.row));
                }
                (Frame::Hub(a), Frame::Hub(b)) => assert_eq!(a.row, b.row),
                (Frame::Assign(a), Frame::Assign(b)) => assert_eq!(*a, b),
                (Frame::Resend(a), Frame::Resend(b)) => assert_eq!(*a, b),
                (Frame::Heartbeat, Frame::Heartbeat) => {}
                (Frame::Shutdown, Frame::Shutdown) => {}
                (Frame::Stats(a), Frame::Stats(b)) => {
                    assert_eq!(a.sources, b.sources);
                    assert_eq!(a.reconnects, b.reconnects);
                    assert_eq!(a.crashed, b.crashed);
                }
                (sent, got) => panic!("kind changed in flight: {sent:?} -> {got:?}"),
            }
        }
    }

    #[test]
    fn setup_roundtrips_with_graph_faults_and_shares() {
        let graph = barabasi_albert(60, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 5).unwrap();
        let setup = WorkerSetup {
            node_id: 2,
            nodes: 4,
            run_id: 0x1234_5678_9ABC_DEF0,
            epoch: 3,
            heartbeat_ms: 25,
            row_batch: 8,
            retry: RetryPolicy::default(),
            max_distance: Some(17),
            hubs: vec![3, 1, 4],
            owned: vec![2, 6, 10],
            faults: FaultPlan::seeded(9)
                .crash_node_after(1, 4)
                .stall_node_after(0, 2, 30)
                .with_drop_probability(0.25)
                .with_corrupt_probability(0.125),
            graph: graph.clone(),
        };
        let Frame::Setup(decoded) = roundtrip(&Frame::Setup(Box::new(setup.clone()))) else {
            panic!("setup decoded as a different kind");
        };
        assert_eq!(decoded.node_id, 2);
        assert_eq!(decoded.nodes, 4);
        assert_eq!(decoded.run_id, 0x1234_5678_9ABC_DEF0);
        assert_eq!(decoded.epoch, 3);
        assert_eq!(decoded.heartbeat_ms, 25);
        assert_eq!(decoded.row_batch, 8);
        assert_eq!(decoded.retry, setup.retry);
        assert_eq!(decoded.max_distance, Some(17));
        assert_eq!(decoded.hubs, setup.hubs);
        assert_eq!(decoded.owned, setup.owned);
        assert_eq!(decoded.faults, setup.faults);
        assert_eq!(decoded.graph.vertex_count(), graph.vertex_count());
        assert_eq!(decoded.graph.direction(), graph.direction());
        // The rebuilt CSR must describe the same logical graph (adjacency
        // order may differ; distances cannot).
        let mut a = graph.logical_edges();
        let mut b = decoded.graph.logical_edges();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);

        // An uncapped run stays uncapped across the wire.
        let uncapped = WorkerSetup {
            max_distance: None,
            ..setup
        };
        let Frame::Setup(decoded) = roundtrip(&Frame::Setup(Box::new(uncapped))) else {
            panic!("setup decoded as a different kind");
        };
        assert_eq!(decoded.max_distance, None);
    }

    #[test]
    fn corrupted_row_checksum_survives_the_wire_verbatim() {
        let mut msg = RowMessage::new(3, vec![1, 2, 3]);
        msg.row[1] ^= 1 << 5; // sender-side injected bit flip
        assert!(!msg.verify());
        let Frame::Hub(decoded) = roundtrip(&Frame::Hub(msg)) else {
            panic!("hub decoded as a different kind");
        };
        assert!(!decoded.verify(), "the flip must still be detectable");
    }

    #[test]
    fn bad_magic_is_invalid_data() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Heartbeat).unwrap();
        bytes[0] = 0x00;
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_is_unexpected_eof() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Assign(9)).unwrap();
        for cut in 0..bytes.len() {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn unknown_kind_and_trailing_garbage_are_rejected() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Heartbeat).unwrap();
        bytes[1] = 0x7F;
        assert_eq!(
            read_frame(&mut &bytes[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut padded = Vec::new();
        write_frame(&mut padded, &Frame::Assign(1)).unwrap();
        padded[2] = 8; // lengthen payload: 4 id bytes + 4 garbage
        padded.extend_from_slice(&[0xEE; 4]);
        assert_eq!(
            read_frame(&mut &padded[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = vec![MAGIC, KIND_ROWS];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut &bytes[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    // --- wire v3 row bytes, pinned against a per-cell reference ---

    mod row_bytes {
        use super::*;
        use parapsp_graph::INF;
        use proptest::prelude::*;

        /// A row frame as the per-cell v3 encoder wrote it: `to` (HubFwd
        /// only), the row count (Rows only), then per row its source,
        /// checksum, cell count and cells, one `to_le_bytes` at a time.
        fn reference_frame(kind: u8, to: Option<u32>, rows: &[RowMessage]) -> Vec<u8> {
            let mut payload = Vec::new();
            if let Some(to) = to {
                payload.extend_from_slice(&to.to_le_bytes());
            }
            if kind == KIND_ROWS {
                payload.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            }
            for msg in rows {
                payload.extend_from_slice(&msg.source.to_le_bytes());
                payload.extend_from_slice(&msg.checksum.to_le_bytes());
                payload.extend_from_slice(&(msg.row.len() as u32).to_le_bytes());
                for &cell in &msg.row {
                    payload.extend_from_slice(&cell.to_le_bytes());
                }
            }
            let mut bytes = vec![MAGIC, kind];
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes
        }

        fn fields(msg: &RowMessage) -> (u32, u32, &[u32]) {
            (msg.source, msg.checksum, &msg.row)
        }

        fn decoded_rows(frame: Frame) -> Vec<RowMessage> {
            match frame {
                Frame::Rows(rows) => rows,
                Frame::Hub(msg) | Frame::HubFwd { msg, .. } => vec![msg],
                other => panic!("a row frame decoded as {other:?}"),
            }
        }

        /// `INF`, a small distance or any word, a third of the time each.
        fn cell() -> impl Strategy<Value = u32> {
            (0u32..3, any::<u32>()).prop_map(|(pick, word)| match pick {
                0 => INF,
                1 => word % 64,
                _ => word,
            })
        }

        fn row() -> impl Strategy<Value = RowMessage> {
            (
                any::<u32>(),
                any::<u32>(),
                proptest::collection::vec(cell(), 0..=40),
            )
                .prop_map(|(source, checksum, row)| RowMessage {
                    source,
                    row,
                    checksum,
                })
        }

        proptest! {
            // The bulk encoder writes exactly the per-cell encoder's
            // bytes, through `write_frame` and through the borrowed-row
            // encoders the worker uses; the bytes decode back to the same
            // rows; and no strict prefix of them decodes.
            #[test]
            fn row_frames_keep_their_v3_bytes(
                rows in proptest::collection::vec(row(), 0..=6),
                to in any::<u32>(),
            ) {
                let views: Vec<RowRef<'_>> = rows.iter().map(RowMessage::view).collect();
                let mut cases = vec![(
                    Frame::Rows(rows.clone()),
                    reference_frame(KIND_ROWS, None, &rows),
                    Some(rows_frame(&views)),
                )];
                if let Some(first) = rows.first() {
                    let one = std::slice::from_ref(first);
                    cases.push((
                        Frame::Hub(first.clone()),
                        reference_frame(KIND_HUB, None, one),
                        None,
                    ));
                    cases.push((
                        Frame::HubFwd { to, msg: first.clone() },
                        reference_frame(KIND_HUB_FWD, Some(to), one),
                        Some(hub_fwd_frame(to, first.view())),
                    ));
                }
                for (frame, reference, borrowed) in cases {
                    let mut bytes = Vec::new();
                    write_frame(&mut bytes, &frame).unwrap();
                    prop_assert_eq!(&bytes, &reference);
                    if let Some(borrowed) = borrowed {
                        prop_assert_eq!(&borrowed, &reference);
                    }

                    let mut cursor = &bytes[..];
                    let decoded = decoded_rows(read_frame(&mut cursor).unwrap());
                    prop_assert!(cursor.is_empty());
                    let sent = decoded_rows(frame);
                    prop_assert_eq!(
                        decoded.iter().map(fields).collect::<Vec<_>>(),
                        sent.iter().map(fields).collect::<Vec<_>>()
                    );
                    if let Frame::HubFwd { to: got, .. } =
                        read_frame(&mut &bytes[..]).unwrap()
                    {
                        prop_assert_eq!(got, to);
                    }

                    for cut in 0..bytes.len() {
                        let err = read_frame(&mut &bytes[..cut]).unwrap_err();
                        prop_assert!(matches!(
                            err.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ));
                    }
                    let payload = &bytes[HEADER_LEN..];
                    for cut in 0..payload.len() {
                        prop_assert!(Frame::decode_payload(bytes[1], &payload[..cut]).is_none());
                    }
                }
            }
        }
    }

    // --- decoder fuzzing: arbitrary bytes must never panic ---

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Any byte stream fed to the frame reader either decodes or
            // returns a self-describing io::Error — never a panic, never
            // an unbounded allocation.
            #[test]
            fn arbitrary_bytes_never_panic_the_frame_reader(
                bytes in proptest::collection::vec(any::<u8>(), 0..512)
            ) {
                let mut cursor = &bytes[..];
                while !cursor.is_empty() {
                    match read_frame(&mut cursor) {
                        Ok(_) => {}
                        Err(err) => {
                            prop_assert!(matches!(
                                err.kind(),
                                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                            ));
                            break;
                        }
                    }
                }
            }

            // Well-formed headers over garbage payloads: exercises every
            // payload decoder (the header fuzz above mostly dies on magic).
            #[test]
            fn garbage_payloads_behind_valid_headers_never_panic(
                kind in 0u8..=0x0C,
                payload in proptest::collection::vec(any::<u8>(), 0..256)
            ) {
                let mut bytes = vec![MAGIC, kind];
                bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                bytes.extend_from_slice(&payload);
                let _ = read_frame(&mut &bytes[..]);
            }

            // Flipping any single byte of a real frame either still
            // decodes (the flip hit a don't-care bit) or errors cleanly.
            #[test]
            fn single_byte_corruption_of_real_frames_never_panics(
                flip_at in 0usize..200,
                flip_bit in 0u8..8,
            ) {
                let frames = [
                    Frame::Hello { version: PROTOCOL_VERSION, reconnects: 1, run_id: 7, epoch: 1 },
                    Frame::Rows(vec![RowMessage::new(3, vec![1, 2, 3, 4])]),
                    Frame::Hub(RowMessage::new(0, vec![9; 8])),
                    Frame::Assign(11),
                    Frame::Stats(NodeStats::default()),
                ];
                for frame in &frames {
                    let mut bytes = Vec::new();
                    write_frame(&mut bytes, frame).unwrap();
                    if flip_at < bytes.len() {
                        bytes[flip_at] ^= 1 << flip_bit;
                    }
                    let _ = read_frame(&mut &bytes[..]);
                }
            }
        }
    }
}
