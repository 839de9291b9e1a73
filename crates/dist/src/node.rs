//! The per-node worker state: private rows and the hub-row mailbox, run
//! through the row solvers of `parapsp-core` — the shared Alg. 1 kernel
//! one source at a time, or the multi-source BFS 64 sources per edge scan
//! ([`NodeSolver`]).
//!
//! A node is single-threaded over its own memory, so the distributed
//! setting trades the shared-memory publication protocol for explicit
//! messages. Every row that crosses the simulated wire carries a CRC-32C
//! checksum; receivers verify it and discard rows that fail, so a
//! corrupted payload can never poison the reuse pools or the gathered
//! matrix.

use parapsp_core::kernel::{modified_dijkstra, HeldRows, KernelOptions, NoPred, Workspace};
use parapsp_core::solver::{msbfs_into, MSBFS_LANES};
use parapsp_core::{autotune, probe, Counters, GraphProbe, SolverKind};
use parapsp_graph::{CsrGraph, INF};

/// CRC-32C over the source id and the row payload. This is the very same
/// function the run ledger stamps on its records, so a row journaled by
/// the driver carries the checksum it was verified against on the wire.
pub(crate) use parapsp_core::persist::row_checksum;

/// The row solver every node of a dist run uses, resolved once by the
/// driver from the run's [`SolverKind`] and shipped to each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSolver {
    /// The paper's modified Dijkstra, one source at a time, reusing the
    /// node's own rows and the hub rows it receives.
    Dijkstra,
    /// The bit-parallel multi-source BFS, up to 64 sources per edge scan
    /// (unit weights only). It reuses no rows, so a run on it deals no
    /// hubs and broadcasts nothing.
    MsBfs,
}

impl NodeSolver {
    /// The `--solver` spellings a dist run accepts.
    pub const POSSIBLE: &'static [&'static str] = &["auto", "dijkstra", "msbfs"];

    /// Resolves `requested` against `graph`, returning the node solver
    /// and the probe it was decided or checked from. `auto` follows
    /// [`autotune`]: msbfs where it picks msbfs (unit weights), the
    /// paper's kernel everywhere else. Δ-stepping is refused: it reads
    /// reused rows through the shared-memory store, which a node does
    /// not have. So is msbfs on a graph that is not unit-weight. Both
    /// refusals name the accepted spellings.
    pub fn resolve(
        requested: SolverKind,
        graph: &CsrGraph,
    ) -> Result<(NodeSolver, GraphProbe), String> {
        let accepted = || format!("a dist node runs {}", Self::POSSIBLE.join(", "));
        match requested {
            SolverKind::Auto => {
                let choice = autotune(graph);
                let solver = match choice.solver {
                    SolverKind::MsBfs => NodeSolver::MsBfs,
                    _ => NodeSolver::Dijkstra,
                };
                Ok((solver, choice.probe))
            }
            SolverKind::Dijkstra => Ok((NodeSolver::Dijkstra, probe(graph))),
            SolverKind::MsBfs => {
                let probe = probe(graph);
                SolverKind::MsBfs
                    .check(&probe, false)
                    .map_err(|err| format!("{err}; {}", accepted()))?;
                Ok((NodeSolver::MsBfs, probe))
            }
            SolverKind::Delta { .. } => Err(format!(
                "solver {} reads reused rows through the shared-memory store, which \
                 a dist node does not have; {}",
                requested.label(),
                accepted()
            )),
        }
    }

    /// The solver as a [`SolverKind`] (for labels and run configs).
    pub fn kind(self) -> SolverKind {
        match self {
            NodeSolver::Dijkstra => SolverKind::Dijkstra,
            NodeSolver::MsBfs => SolverKind::MsBfs,
        }
    }

    /// Most rows one solve yields: a node emits them back to back, then
    /// goes quiet for the next solve.
    pub(crate) fn rows_per_solve(self) -> usize {
        match self {
            NodeSolver::Dijkstra => 1,
            NodeSolver::MsBfs => MSBFS_LANES,
        }
    }
}

/// A completed row in transit between nodes (or to the driver).
#[derive(Debug, Clone)]
pub(crate) struct RowMessage {
    /// Global source vertex of the row.
    pub source: u32,
    /// The full, final distance row of that source.
    pub row: Vec<u32>,
    /// CRC-32C checksum of `source` and `row`, computed by the sender
    /// before the payload touches the wire.
    pub checksum: u32,
}

impl RowMessage {
    /// Seals a row for transmission, stamping its checksum (senders seal
    /// whole batches through [`RowRef`]s instead).
    #[cfg(test)]
    pub(crate) fn new(source: u32, row: Vec<u32>) -> Self {
        let checksum = row_checksum(source, &row);
        RowMessage {
            source,
            row,
            checksum,
        }
    }

    /// Whether the payload still matches its checksum.
    pub(crate) fn verify(&self) -> bool {
        row_checksum(self.source, &self.row) == self.checksum
    }

    /// Bytes this message occupies on the simulated wire: source id,
    /// checksum, payload.
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.view().wire_bytes()
    }

    /// The message as a borrowed [`RowRef`].
    pub(crate) fn view(&self) -> RowRef<'_> {
        RowRef {
            source: self.source,
            checksum: self.checksum,
            row: &self.row,
        }
    }
}

/// A sealed row borrowed from the node's own rows on its way out. Senders
/// encode it straight into a frame, so a row crosses the socket wire with
/// one copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowRef<'a> {
    /// Global source vertex of the row.
    pub source: u32,
    /// CRC-32C checksum the sender sealed the row with.
    pub checksum: u32,
    /// The payload.
    pub row: &'a [u32],
}

impl RowRef<'_> {
    /// An owned copy, for transports that hand messages over by value.
    pub(crate) fn to_message(self) -> RowMessage {
        RowMessage {
            source: self.source,
            row: self.row.to_vec(),
            checksum: self.checksum,
        }
    }

    /// Bytes the row occupies on the wire: source id, checksum, payload.
    pub(crate) fn wire_bytes(self) -> u64 {
        8 + self.row.len() as u64 * 4
    }
}

/// Private per-node state: the rows this node computed plus whatever
/// remote hub rows have arrived, and the kernel scratch to compute more.
pub(crate) struct NodeState {
    n: usize,
    rows: HeldRows,
    ws: Workspace,
    options: KernelOptions,
    /// Reuse events against the node's own rows and against received ones
    /// (reported through `NodeStats`).
    pub(crate) local_reuses: u64,
    pub(crate) remote_reuses: u64,
    /// Received rows discarded for failing their checksum, naming no
    /// vertex, or having the wrong length.
    pub(crate) rows_rejected: u64,
}

impl NodeState {
    /// A node of an `n`-vertex graph whose rows are capped at
    /// `max_distance` (the run's `--cap`).
    pub(crate) fn new(n: usize, max_distance: Option<u32>) -> Self {
        NodeState {
            n,
            rows: HeldRows::new(n),
            ws: Workspace::new(n),
            options: KernelOptions {
                max_distance,
                ..KernelOptions::default()
            },
            local_reuses: 0,
            remote_reuses: 0,
            rows_rejected: 0,
        }
    }

    /// Stores a received remote row after checking that it names a
    /// vertex, has one entry per vertex and matches its checksum; any
    /// other row is counted and dropped.
    pub(crate) fn accept(&mut self, message: RowMessage) {
        if message.source as usize >= self.n || message.row.len() != self.n || !message.verify() {
            self.rows_rejected += 1;
            return;
        }
        self.rows.keep_received(message.source, message.row);
    }

    /// The row this node computed for `s`, if any (used to re-send a
    /// gather row the driver rejected).
    pub(crate) fn row_for(&self, s: u32) -> Option<&[u32]> {
        self.rows.own(s)
    }

    /// Runs one multi-source BFS over `sources` (at most
    /// [`MSBFS_LANES`](parapsp_core::solver::MSBFS_LANES), none computed
    /// yet) and keeps their rows locally. It reads no held rows.
    pub(crate) fn run_batch(&mut self, graph: &CsrGraph, sources: &[u32]) {
        // The search writes every cell, so the rows need no INF fill.
        let mut rows: Vec<Vec<u32>> = sources.iter().map(|_| vec![0; self.n]).collect();
        let mut lanes: Vec<&mut [u32]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
        msbfs_into(
            graph,
            sources,
            &mut lanes,
            &mut self.ws,
            self.options,
            &mut Counters::default(),
        );
        for (&s, row) in sources.iter().zip(rows) {
            self.rows.keep_own(s, row);
        }
    }

    /// Runs the kernel for source `s`, reusing every row this node holds,
    /// and keeps the row locally.
    pub(crate) fn run_source(&mut self, graph: &CsrGraph, s: u32) -> &[u32] {
        let mut row = vec![INF; self.n];
        // Own rows lease as hits and received rows as misses.
        let mut counters = Counters::default();
        modified_dijkstra(
            graph,
            s,
            &mut row,
            &self.rows,
            &mut self.ws,
            self.options,
            &mut counters,
            None,
            &mut NoPred,
        );
        self.local_reuses += counters.lease_hits;
        self.remote_reuses += counters.lease_misses;
        self.rows.keep_own(s, row)
    }

    /// Consumes the node, yielding `(global_source, row)` pairs for every
    /// row it computed, by source. The cluster driver streams rows
    /// instead; this stays for direct inspection in tests.
    #[cfg(test)]
    pub(crate) fn into_rows(self) -> Vec<(u32, Vec<u32>)> {
        (0..self.n as u32)
            .filter_map(|s| self.rows.own(s).map(|row| (s, row.to_vec())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::generate::path_graph;
    use parapsp_graph::Direction;

    #[test]
    fn single_node_computes_exact_rows() {
        let g = path_graph(5, Direction::Undirected);
        let mut node = NodeState::new(5, None);
        for s in 0..5u32 {
            node.run_source(&g, s);
        }
        let rows = node.into_rows();
        assert_eq!(rows.len(), 5);
        for (s, row) in rows {
            for v in 0..5u32 {
                assert_eq!(row[v as usize], s.abs_diff(v));
            }
        }
    }

    #[test]
    fn remote_rows_are_reused() {
        let g = parapsp_graph::generate::complete_graph(6);
        // Node runs only source 3; receives row of 0 from "elsewhere".
        let mut node = NodeState::new(6, None);
        let mut remote = vec![1u32; 6];
        remote[0] = 0;
        node.accept(RowMessage::new(0, remote));
        node.run_source(&g, 3);
        assert_eq!(node.remote_reuses, 1);
        let rows = node.into_rows();
        assert_eq!(rows[0].1[0], 1);
        assert_eq!(rows[0].1[3], 0);
    }

    #[test]
    fn corrupted_remote_row_is_rejected_not_reused() {
        let g = parapsp_graph::generate::complete_graph(6);
        let mut node = NodeState::new(6, None);
        let mut remote = vec![1u32; 6];
        remote[0] = 0;
        let mut message = RowMessage::new(0, remote);
        message.row[2] ^= 1 << 7; // in-flight bit flip
        node.accept(message);
        assert_eq!(node.rows_rejected, 1);
        node.run_source(&g, 3);
        assert_eq!(node.remote_reuses, 0, "rejected row must not be reused");
    }

    #[test]
    fn rows_run_in_any_order_and_stay_retrievable() {
        let g = path_graph(4, Direction::Undirected);
        let mut node = NodeState::new(4, None);
        node.run_source(&g, 2);
        node.run_source(&g, 0);
        assert_eq!(node.row_for(2), Some(&[2u32, 1, 0, 1][..]));
        assert_eq!(node.row_for(1), None);
        let rows = node.into_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].0, 2);
    }

    #[test]
    fn rows_are_capped_in_the_kernel() {
        let g = path_graph(6, Direction::Undirected);
        let mut node = NodeState::new(6, Some(2));
        assert_eq!(node.run_source(&g, 0), &[0, 1, 2, INF, INF, INF][..]);
        // Reusing the capped row of 0 keeps row 1 exact within the cap.
        assert_eq!(node.run_source(&g, 1), &[1, 0, 1, 2, INF, INF][..]);
        assert_eq!(node.local_reuses, 1);
    }

    #[test]
    fn rows_naming_no_vertex_or_of_the_wrong_length_are_rejected() {
        let g = parapsp_graph::generate::complete_graph(6);
        let mut node = NodeState::new(6, None);
        // Valid checksums, untrustworthy shapes: neither may panic.
        node.accept(RowMessage::new(6, vec![0; 6]));
        node.accept(RowMessage::new(0, vec![0; 3]));
        assert_eq!(node.rows_rejected, 2);
        assert_eq!(node.run_source(&g, 3), &[1, 1, 1, 0, 1, 1][..]);
        assert_eq!(node.remote_reuses, 0, "rejected rows must not be reused");
    }

    #[test]
    fn batched_rows_equal_one_source_rows_and_reuse_nothing() {
        let g = parapsp_graph::generate::barabasi_albert(
            90,
            2,
            parapsp_graph::generate::WeightSpec::Unit,
            3,
        )
        .unwrap();
        for cap in [None, Some(2)] {
            let mut single = NodeState::new(90, cap);
            let mut batched = NodeState::new(90, cap);
            let sources: Vec<u32> = (0..90u32).rev().collect();
            for chunk in sources.chunks(parapsp_core::solver::MSBFS_LANES) {
                batched.run_batch(&g, chunk);
            }
            for &s in &sources {
                single.run_source(&g, s);
            }
            assert_eq!(batched.into_rows(), single.into_rows(), "cap {cap:?}");
        }
        let mut node = NodeState::new(90, None);
        node.accept(RowMessage::new(0, vec![1; 90]));
        node.run_batch(&g, &[5, 6]);
        assert_eq!((node.local_reuses, node.remote_reuses), (0, 0));
    }

    #[test]
    fn node_solver_resolves_auto_and_refuses_what_a_node_cannot_run() {
        use parapsp_graph::generate::{watts_strogatz, WeightSpec};
        let unit = path_graph(6, Direction::Undirected);
        let wide = watts_strogatz(64, 8, 0.2, WeightSpec::Uniform { lo: 1, hi: 1000 }, 44).unwrap();
        let resolve = |kind, g| NodeSolver::resolve(kind, g).map(|(solver, _)| solver);
        assert_eq!(resolve(SolverKind::Auto, &unit), Ok(NodeSolver::MsBfs));
        // The shared-memory tuner picks Δ-stepping here; a node runs the kernel.
        assert!(matches!(autotune(&wide).solver, SolverKind::Delta { .. }));
        assert_eq!(resolve(SolverKind::Auto, &wide), Ok(NodeSolver::Dijkstra));
        assert_eq!(
            resolve(SolverKind::Dijkstra, &unit),
            Ok(NodeSolver::Dijkstra)
        );
        assert_eq!(resolve(SolverKind::MsBfs, &unit), Ok(NodeSolver::MsBfs));
        for (kind, g) in [
            (SolverKind::MsBfs, &wide),
            (SolverKind::Delta { delta: None }, &unit),
            (SolverKind::Delta { delta: Some(3) }, &wide),
        ] {
            let err = resolve(kind, g).unwrap_err();
            assert!(
                err.contains("auto, dijkstra, msbfs"),
                "{}: {err}",
                kind.label()
            );
        }
        // The probe comes back for the CLI's auto-tune line.
        let (_, probe) = NodeSolver::resolve(SolverKind::Auto, &wide).unwrap();
        assert!(probe.weight_max > 1 && probe.weight_max <= 1000);
    }

    #[test]
    fn wire_bytes_counts_header_checksum_and_payload() {
        let m = RowMessage::new(1, vec![0; 10]);
        assert_eq!(m.wire_bytes(), 4 + 4 + 40);
    }

    #[test]
    fn checksum_detects_any_single_bit_flip_in_a_sample() {
        let row: Vec<u32> = (0..32u32)
            .map(|i| i.wrapping_mul(2654435761) % 1000)
            .collect();
        let clean = RowMessage::new(9, row);
        assert!(clean.verify());
        for word in 0..clean.row.len() {
            for bit in [0u32, 7, 13, 31] {
                let mut tampered = clean.clone();
                tampered.row[word] ^= 1 << bit;
                assert!(
                    !tampered.verify(),
                    "flip at word {word} bit {bit} went undetected"
                );
            }
        }
        let mut wrong_source = clean.clone();
        wrong_source.source = 10;
        assert!(!wrong_source.verify());
    }
}
