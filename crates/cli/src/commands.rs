//! The `parapsp` subcommand implementations.

use parapsp_analysis::components::weakly_connected_components;
use parapsp_analysis::paths::{distance_distribution, path_stats};
use parapsp_analysis::{
    average_clustering, betweenness_centrality, closeness_centrality, degree_assortativity,
    harmonic_centrality, top_k, Normalization,
};
use parapsp_core::engine::{
    AdaptiveEngine, ApspEngine, Engine, EngineKind, RunConfig, Runner, ValueEnum,
};
use parapsp_core::paths::par_apsp_with_paths;
use parapsp_core::{
    autotune, probe, ApspOutput, DistanceMatrix, GraphProbe, RelaxImpl, RunOutcome, SolverKind,
};
use parapsp_dist::{
    run_worker, BindSpec, ChaosPlan, ClusterConfig, DistEngine, DistFailure, FaultPlan, NodeSolver,
    SocketConfig, SourcePartition, TransportSpec, WorkerMode, WorkerOptions, WorkerOutcome,
};
use parapsp_graph::io::{read_edge_list_file, LoadedGraph, ParseOptions};
use parapsp_graph::{degree, transform, CsrGraph, Direction};
use parapsp_parfor::{CancelToken, Schedule, ThreadPool};

use std::time::Duration;

use crate::args::Args;
use crate::interrupt;

/// A command failure, split by exit code: *usage* errors (bad flag values,
/// rejected configurations — exit 2, matching the argument parser) versus
/// *runtime* failures (I/O, worker loss — exit 1).
#[derive(Debug)]
pub enum CliError {
    /// The invocation itself is wrong; fix the command line (exit 2).
    Usage(String),
    /// The invocation was fine but the run failed (exit 1).
    Failure(String),
}

impl CliError {
    /// Wraps a runtime failure (exit 1). The `From<String>` conversion
    /// classifies as usage instead, because `?` in the command bodies
    /// overwhelmingly propagates flag validation.
    pub fn failure(message: impl Into<String>) -> CliError {
        CliError::Failure(message.into())
    }

    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failure(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) | CliError::Failure(message) => f.write_str(message),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

/// `println!` for report lines. A reader that closes stdout early
/// (`parapsp apsp g.txt --out d.bin | head -2`) ends the report, not the
/// command: the run goes on and still writes `--out`. Any other stdout
/// error panics, as `println!` does.
macro_rules! say {
    ($($arg:tt)*) => {
        report_line(format_args!($($arg)*))
    };
}

fn report_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(error) = writeln!(std::io::stdout(), "{line}") {
        if error.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {error}");
        }
    }
}

/// Help text shared with `main`.
pub const USAGE: &str = "\
parapsp — parallel all-pairs shortest paths for complex graph analysis

usage: parapsp <command> [options]

commands:
  stats <file>               degree / component / clustering summary
  apsp <file>                run an APSP algorithm, report timings
                             (alias: run)
  analyze <file>             APSP + centralities + path statistics
  path <file> <src> <dst>    print one shortest route
  estimate <file> <s> <d>    landmark distance bounds (O(k·n) memory)
  generate                   write a synthetic graph to --out
  node                       socket worker for a `dist` driver (see below)
  help                       this text

an option the command does not read is a usage error (exit 2)

graph-file options (stats, apsp, analyze, path, estimate):
  --directed | --undirected  edge interpretation (default: undirected)
  --format <snap|konect>     comment style (default: snap)
  --threads <N>              worker threads, at least 1 (default: 4; not
                             read by stats)

apsp options (every algorithm takes all of them unless noted; an
option noted for `dist` is a usage error on any other algorithm):
  --algorithm <name>         par-apsp | par-alg1 | par-alg2 | par-adaptive |
                             seq-basic | seq-optimized | seq-adaptive | dist
  --nodes <P>                simulated cluster size for `dist`
  --hub-fraction <F>         hub broadcast fraction for `dist` (dijkstra
                             nodes only: msbfs nodes read no rows)
  --partition <name>         dist source partition: cyclic-degree |
                             block-degree | cyclic-id
  --credit-weight <W>        intermediate-credit weight for seq-adaptive
                             only (default: 10; par-adaptive ranks with 16)
  --cap <D>                  bounded horizon: leave pairs beyond distance D
                             at infinity
  --relax <impl>             row-relaxation kernel: auto | avx2 | portable |
                             scalar (par-* and seq-*; default auto — all
                             variants are bit-identical)
  --solver <s>               per-source SSSP solver: auto (default for
                             par-* and dist; one O(n + m) probe sends
                             unit-weight graphs to msbfs — dijkstra on
                             par-adaptive — dense, unskewed graphs with a
                             wide weight range to Δ-stepping, everything
                             else to dijkstra) | dijkstra (the paper's
                             modified Dijkstra; default for seq-*) |
                             delta[:<width>] (Δ-stepping, width from the
                             mean weight when omitted) | msbfs (bit-parallel
                             BFS, 64 sources per edge scan; unit weights
                             only, not on par-adaptive or seq-adaptive);
                             dist nodes run auto | dijkstra | msbfs (auto
                             never picks Δ-stepping there, and msbfs nodes
                             deal no hub rows); distances are bit-identical
                             under every solver
  --schedule <s>             source-sweep loop schedule for par-apsp |
                             par-alg1 | par-alg2 | par-adaptive (each
                             wave): block | static-cyclic |
                             dynamic-cyclic | dynamic:<chunk> (default:
                             each algorithm's paper schedule; the distances
                             are identical under all of them)
  --store <s>                distance-matrix storage backend: dense
                             (default; one flat n² allocation) |
                             mmap[:<budget>] (out-of-core file shards, in-
                             memory cache capped at <budget> bytes; accepts
                             k/m/g suffixes, default 64m); the final
                             matrix is bit-identical under every backend
  --out <file>               save the distance matrix (.tsv/.txt = text,
                             anything else = compact binary)
  --ledger <file>            journal every completed row to a crash-safe
                             append-only ledger (O(row) bytes per row);
                             restartable with --resume <file>
  --checkpoint-every <K>     rows between ledger commits (default: 64;
                             needs --ledger)
  --ledger-fsync <policy>    when ledger appends reach the disk: always |
                             commit (default) | never
  --resume <file>            load a run ledger OR a checkpoint and compute
                             only the missing rows
  --deadline <secs>          stop once the wall-clock budget expires,
                             write a checkpoint, exit 124
  --on-interrupt <mode>      checkpoint (default): SIGINT/SIGTERM stop at
                             a row boundary, write a checkpoint, exit 130;
                             abort: die immediately (OS default); a
                             --ledger run's rows are already in its
                             ledger, any other stop writes
                             <file>.interrupt.ckpt

dist transport (dist only; default: in-process channels):
  --transport <t>            channel | tcp | unix — tcp/unix run the
                             cluster over length-prefix-framed sockets to
                             real worker processes (spawned from this
                             binary unless --external)
  --listen <addr>            listen address: host:port for tcp (default:
                             ephemeral loopback) or a path for unix
                             (default: a temp path)
  --external                 don't spawn workers; print the listen address
                             and wait for `parapsp node --connect <addr>`
                             processes started elsewhere
  --heartbeat <ms>           worker keepalive interval (default: 20)
  --heartbeat-misses <N>     silent intervals before a worker is declared
                             dead and its sources re-dealt (default: 50;
                             EOF/resets are detected immediately)
  --row-batch <K>            rows buffered per gather frame (default: 4)
  --accept-timeout <secs>    how long to wait for workers to connect
                             (default: 10); empty slots are re-dealt
  --read-timeout <ms>        driver-side socket read poll quantum
                             (default: 10)
  --write-timeout <ms>       socket write bound on both ends (default:
                             2000); a blocked write past it is a dead peer
  --delay-ms <ms>            forwarded to spawned workers: sleep this long
                             before each source (testing aid)
  with --external + --ledger the driver is restartable: kill it mid-run,
  re-run the same command with --resume <ledger>, and surviving workers
  re-handshake under the recovered run id (only missing rows recompute)

node options (socket worker; driver supplies everything else):
  --connect <addr>           the driver's listen address (required)
  --connect-attempts <N>     dial attempts with exponential backoff (20)
  --write-timeout <ms>       socket write bound toward the driver (2000)
  --delay-ms <ms>            sleep before each source (testing aid)
                             a worker that loses its driver mid-run
                             re-dials and re-handshakes under its last
                             run id/epoch until the dial budget runs out
                             exit codes: 0 clean, 3 injected crash

dist fault injection (dist only; deterministic, seeded):
  --fault-seed <S>           seed for the node faults and the wire chaos
                             (default: 0)
  --crash <node:k[,..]>      crash node(s) after their k-th source
  --drop-prob <P>            the driver drops each hub relay with
                             probability P (needs hubs: --solver dijkstra
                             and a --hub-fraction above 0)
  --corrupt-prob <Q>         the wire bit-flips each row payload (gather
                             rows and hub relays) with probability Q < 1

analyze options:
  --top <K>                  vertices listed per centrality ranking
                             (default: 5)

estimate options:
  --landmarks <K>            highest-degree landmarks to index (default:
                             16; O(K·n) memory)

generate options:
  --model <ba|er|ws> --n <N> [--m <M>] [--p <P>] [--seed <S>] --out <file>
                             ba reads --m (edges per new vertex), er reads
                             --p (edge probability), ws reads both (ring
                             degree, rewiring probability); a flag the
                             model does not read is a usage error
";

fn parse_options(args: &Args) -> Result<ParseOptions, String> {
    let direction = if args.flag("directed") {
        Direction::Directed
    } else {
        Direction::Undirected
    };
    match args.get("format").unwrap_or("snap") {
        "snap" => Ok(ParseOptions::snap(direction)),
        "konect" => Ok(ParseOptions::konect(direction)),
        other => Err(format!("unknown format `{other}` (snap or konect)")),
    }
}

fn load(args: &Args) -> Result<LoadedGraph, String> {
    let path = args
        .positional(0)
        .ok_or_else(|| "expected a graph file argument".to_string())?;
    read_edge_list_file(path, parse_options(args)?).map_err(|e| format!("loading {path}: {e}"))
}

/// Refuses a run whose `matrices` n×n 4-byte matrices (the distances,
/// plus the predecessors for `path`) would pass 8 GiB.
fn check_matrix_budget(n: usize, matrices: u64) -> Result<(), String> {
    let bytes = (n as u64) * (n as u64) * 4 * matrices;
    if bytes > 8 << 30 {
        return Err(format!(
            "a {n}-vertex run needs {:.1} GiB for {matrices} n² matrices; \
             extract a component first (this is the paper's own memory wall)",
            bytes as f64 / (1u64 << 30) as f64
        ));
    }
    Ok(())
}

/// `--threads` (default 4): a worker pool needs at least one thread.
fn threads(args: &Args) -> Result<usize, String> {
    match args.get_parsed("threads", 4usize)? {
        0 => Err("--threads must be at least 1".to_string()),
        threads => Ok(threads),
    }
}

/// `parapsp stats <file>` — structural summary, no O(n²) allocation.
pub fn stats(args: &Args) -> Result<(), String> {
    let loaded = load(args)?;
    let g = &loaded.graph;
    say!(
        "{}: {} vertices, {} edges ({})",
        args.positional(0).unwrap_or("-"),
        g.vertex_count(),
        g.edge_count(),
        if g.direction().is_directed() {
            "directed"
        } else {
            "undirected"
        }
    );
    let degrees = degree::out_degrees(g);
    if let Some(s) = degree::degree_stats(&degrees) {
        say!(
            "degree: min {} / median {} / mean {:.2} / max {}",
            s.min,
            s.median,
            s.mean,
            s.max
        );
    }
    let (_, components) = weakly_connected_components(g);
    say!("weakly connected components: {components}");
    let (lcc, _) = transform::largest_connected_component(g);
    say!(
        "largest component: {} vertices ({:.1}%)",
        lcc.vertex_count(),
        lcc.vertex_count() as f64 / g.vertex_count().max(1) as f64 * 100.0
    );
    if !g.direction().is_directed() {
        say!("average clustering: {:.4}", average_clustering(g));
    }
    say!("degree assortativity: {:+.4}", degree_assortativity(g));
    say!("\ndegree distribution (log-binned):");
    for (bin, count) in degree::log_binned_histogram(&degrees) {
        say!("  >= {bin:<6} {count}");
    }
    Ok(())
}

/// Builds the `dist` node fault plan from `--fault-seed` and `--crash`,
/// and the wire chaos plan, seeded the same, from `--drop-prob` (hub
/// relays) and `--corrupt-prob` (row payloads). `no_hubs` says why the
/// run deals no hubs, if it deals none: then there is nothing for
/// `--drop-prob` to drop, and asking for it is a usage error.
fn parse_fault_plans(args: &Args, no_hubs: Option<&str>) -> Result<(FaultPlan, ChaosPlan), String> {
    let seed = args.get_parsed("fault-seed", 0u64)?;
    let mut plan = FaultPlan::seeded(seed);
    if let Some(spec) = args.get("crash") {
        for entry in spec.split(',') {
            let (node, after) = entry
                .split_once(':')
                .ok_or_else(|| format!("--crash entry `{entry}` is not <node>:<k>"))?;
            let node: usize = node
                .parse()
                .map_err(|_| format!("--crash node `{node}` is invalid"))?;
            let after: u64 = after
                .parse()
                .map_err(|_| format!("--crash count `{after}` is invalid"))?;
            plan = plan.crash_node_after(node, after);
        }
    }
    let drop_prob = args.get_parsed("drop-prob", 0.0f64)?;
    if !(0.0..=1.0).contains(&drop_prob) {
        return Err(format!("--drop-prob {drop_prob} outside [0, 1]"));
    }
    if let Some(why) = no_hubs.filter(|_| drop_prob > 0.0) {
        return Err(format!(
            "--drop-prob {drop_prob} drops hub relays, but this run deals no hubs ({why}); \
             deal some with --solver dijkstra and a --hub-fraction above 0"
        ));
    }
    let corrupt_prob = args.get_parsed("corrupt-prob", 0.0f64)?;
    if !(0.0..1.0).contains(&corrupt_prob) {
        return Err(format!("--corrupt-prob {corrupt_prob} outside [0, 1)"));
    }
    let chaos = ChaosPlan::seeded(seed)
        .with_hub_drop_probability(drop_prob)
        .with_corrupt_probability(corrupt_prob);
    Ok((plan, chaos))
}

/// Builds the `dist` transport from `--transport`, `--listen`,
/// `--heartbeat`, `--heartbeat-misses`, `--row-batch`,
/// `--accept-timeout`, `--external`, and `--delay-ms`.
fn parse_transport(args: &Args) -> Result<TransportSpec, String> {
    let kind = args.get("transport").unwrap_or("channel");
    if kind == "channel" {
        return Ok(TransportSpec::InProcess);
    }
    let bind = match kind {
        "tcp" => match args.get("listen") {
            None => BindSpec::TcpEphemeral,
            Some(addr) => BindSpec::Tcp(addr.to_string()),
        },
        #[cfg(unix)]
        "unix" => {
            let path = match args.get("listen") {
                Some(path) => std::path::PathBuf::from(path),
                None => std::env::temp_dir().join(format!("parapsp-{}.sock", std::process::id())),
            };
            BindSpec::Unix(path)
        }
        other => {
            return Err(format!(
                "unknown transport `{other}` (channel, tcp, or unix)"
            ))
        }
    };
    let workers = if args.flag("external") {
        WorkerMode::External
    } else {
        // Self-spawn: each worker is this very binary running the `node`
        // subcommand; faults and the graph travel in the Setup frame.
        let program =
            std::env::current_exe().map_err(|e| format!("resolving the worker executable: {e}"))?;
        let mut node_args = vec!["node".to_string()];
        for forwarded in ["delay-ms", "write-timeout"] {
            if let Some(value) = args.get(forwarded) {
                node_args.push(format!("--{forwarded}"));
                node_args.push(value.to_string());
            }
        }
        WorkerMode::Spawn {
            program,
            args: node_args,
        }
    };
    let heartbeat_ms = args.get_parsed("heartbeat", 20u64)?;
    let heartbeat_misses = args.get_parsed("heartbeat-misses", 50u32)?;
    let row_batch = args.get_parsed("row-batch", 4usize)?;
    let accept_secs = args.get_parsed("accept-timeout", 10u64)?;
    let defaults = SocketConfig::default();
    let read_timeout_ms =
        args.get_parsed("read-timeout", defaults.read_timeout.as_millis() as u64)?;
    let write_timeout_ms =
        args.get_parsed("write-timeout", defaults.write_timeout.as_millis() as u64)?;
    // Zero intervals/timeouts are rejected later by
    // `ClusterConfig::validate`, before any socket is opened.
    Ok(TransportSpec::Socket(SocketConfig {
        bind,
        workers,
        heartbeat_interval: Duration::from_millis(heartbeat_ms),
        heartbeat_misses,
        row_batch,
        accept_timeout: Duration::from_secs(accept_secs),
        read_timeout: Duration::from_millis(read_timeout_ms),
        write_timeout: Duration::from_millis(write_timeout_ms),
        announce: args.flag("external"),
        ..defaults
    }))
}

/// `parapsp node --connect <addr>` — a socket worker process: dials the
/// driver, receives its graph and share in the Setup frame, and streams
/// rows back until told to shut down. A worker whose driver vanishes
/// without a shutdown (a driver crash) re-dials the same address and
/// re-handshakes under its last run id/epoch, so a restarted driver can
/// reclaim it; a driver that never returns exhausts the dial budget and
/// surfaces as a connection failure. Returns the process exit code: 0 on
/// a clean run, 3 when a deterministic fault-plan crash fired (the socket
/// is torn down abruptly, as a real crash would).
pub fn node(args: &Args) -> Result<i32, CliError> {
    let addr = args
        .get("connect")
        .ok_or_else(|| "node needs --connect <addr> (the driver's listen address)".to_string())?;
    let connect = parapsp_dist::ConnectRetry {
        attempts: args.get_parsed("connect-attempts", 20u32)?,
        ..parapsp_dist::ConnectRetry::default()
    };
    if connect.attempts == 0 {
        return Err("--connect-attempts must be at least 1".to_string().into());
    }
    let mut options = WorkerOptions {
        connect,
        source_delay: Duration::from_millis(args.get_parsed("delay-ms", 0u64)?),
        write_timeout: Duration::from_millis(args.get_parsed("write-timeout", 2000u64)?),
        ..WorkerOptions::default()
    };
    if options.write_timeout.is_zero() {
        return Err("--write-timeout must be at least 1 ms".to_string().into());
    }
    loop {
        match run_worker(addr, options.clone()).map_err(CliError::failure)? {
            WorkerOutcome::Clean(stats) => {
                eprintln!(
                    "node: {} sources, {} remote reuses, {} retries, {} reconnects, {} KiB sent",
                    stats.sources,
                    stats.remote_reuses,
                    stats.retries,
                    stats.reconnects,
                    stats.bytes_sent / 1024,
                );
                return Ok(0);
            }
            WorkerOutcome::Crashed => return Ok(3),
            WorkerOutcome::Lost { session } => {
                eprintln!(
                    "node: driver connection lost (run {:#018x} epoch {}); re-dialing {addr}",
                    session.0, session.1
                );
                options.session = session;
            }
        }
    }
}

/// What an `apsp` run produced.
enum RunStatus {
    /// Finished: the distance matrix plus a one-line summary.
    Done(DistanceMatrix, String),
    /// Stopped early (interrupt or deadline); the checkpoint is already on
    /// disk and the process should exit with `code`.
    Stopped { code: i32 },
}

/// What a SIGINT/SIGTERM does to a cancellable run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnInterrupt {
    /// Stop at a row boundary, write a checkpoint, exit 130.
    Checkpoint,
    /// Die immediately (the OS default disposition).
    Abort,
}

impl ValueEnum for OnInterrupt {
    fn value_variants() -> &'static [Self] {
        &[OnInterrupt::Checkpoint, OnInterrupt::Abort]
    }

    fn value_name(&self) -> &'static str {
        match self {
            OnInterrupt::Checkpoint => "checkpoint",
            OnInterrupt::Abort => "abort",
        }
    }
}

/// The stable names of every [`EngineKind`] passing `select`, for error
/// messages that enumerate what a flag applies to.
fn kinds_where(select: fn(EngineKind) -> bool) -> String {
    let names: Vec<&str> = EngineKind::value_variants()
        .iter()
        .copied()
        .filter(|&kind| select(kind))
        .map(|kind| kind.value_name())
        .collect();
    names.join(", ")
}

/// Builds the run's cancel token from `--deadline`/`--on-interrupt`,
/// plus whether the SIGINT/SIGTERM bridge should be installed (not under
/// `--on-interrupt abort`, which leaves the OS default in place).
fn cancellation_setup(args: &Args) -> Result<(CancelToken, bool), String> {
    let token = match args.get("deadline") {
        None => CancelToken::new(),
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| format!("--deadline value `{raw}` is invalid"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(format!(
                    "--deadline must be a non-negative number of seconds (got {raw})"
                ));
            }
            CancelToken::with_deadline(Duration::from_secs_f64(secs))
        }
    };
    let checkpoint_on_interrupt =
        args.get_enum("on-interrupt", OnInterrupt::Checkpoint)? == OnInterrupt::Checkpoint;
    Ok((token, checkpoint_on_interrupt))
}

/// Settles a run: a completed one yields its matrix and summary line; a
/// stopped one (interrupt: exit 130, deadline: exit 124) reports how to
/// resume. A `--ledger` run's completed rows are already durable in the
/// ledger, so it writes nothing; any other stop writes its checkpoint to
/// `<graph-file>.interrupt.ckpt`.
fn settle(
    args: &Args,
    outcome: RunOutcome<(DistanceMatrix, String)>,
) -> Result<RunStatus, CliError> {
    let (checkpoint, why, code) = match outcome {
        RunOutcome::Complete((dist, summary)) => return Ok(RunStatus::Done(dist, summary)),
        RunOutcome::Cancelled { checkpoint } => (checkpoint, "interrupted", 130),
        RunOutcome::DeadlineExceeded { checkpoint } => (checkpoint, "deadline exceeded", 124),
    };
    let (done, n) = (checkpoint.completed_count(), checkpoint.n());
    if let Some(path) = args.get("ledger") {
        eprintln!(
            "{why}: {done} of {n} rows already durable in the ledger \
             (resume with --resume {path} --ledger {path})"
        );
        return Ok(RunStatus::Stopped { code });
    }
    let path = format!("{}.interrupt.ckpt", args.positional(0).unwrap_or("apsp"));
    parapsp_core::persist::save_checkpoint(&checkpoint, &path)
        .map_err(|e| CliError::failure(format!("writing stop checkpoint {path}: {e}")))?;
    eprintln!(
        "{why}: {done} of {n} rows complete; checkpoint written to {path} \
         (resume with --resume {path})"
    );
    Ok(RunStatus::Stopped { code })
}

/// Loads `--resume`'s checkpoint or ledger (validated against the graph)
/// and drives `engine` through the [`Runner`] under `token`. Every
/// algorithm funnels through here.
fn drive<E: Engine>(
    runner: &Runner,
    engine: E,
    graph: &CsrGraph,
    args: &Args,
    token: &CancelToken,
) -> Result<RunOutcome<E::Output>, String> {
    let resume = match args.get("resume") {
        None => None,
        Some(path) => {
            let cp = parapsp_core::persist::load_checkpoint(path)
                .map_err(|e| format!("loading checkpoint {path}: {e}"))?;
            if cp.n() != graph.vertex_count() {
                return Err(format!(
                    "checkpoint {path} is for {} vertices but the graph has {}",
                    cp.n(),
                    graph.vertex_count()
                ));
            }
            say!(
                "resuming: {} of {} rows already complete",
                cp.completed_count(),
                cp.n()
            );
            Some(cp)
        }
    };
    Ok(match resume {
        Some(cp) => runner.run_resumed_with_token(engine, graph, cp, token),
        None => runner.run_with_token(engine, graph, token),
    })
}

/// The summary line of a row-engine run.
fn row_summary(out: ApspOutput) -> (DistanceMatrix, String) {
    let summary = format!(
        "{} ({} threads): ordering {:?}, sssp {:?}, total {:?}; {} relaxations, {} row reuses \
         ({} lease hits / {} misses, pinned peak {} B)",
        out.algorithm,
        out.threads,
        out.timings.ordering,
        out.timings.sssp,
        out.timings.total,
        out.counters.relaxations,
        out.counters.row_reuses,
        out.counters.lease_hits,
        out.counters.lease_misses,
        out.counters.pinned_bytes_peak
    );
    (out.dist, summary)
}

/// The summary line of a dist run over `nodes` nodes.
fn dist_summary(out: parapsp_dist::DistApspOutput, nodes: usize) -> (DistanceMatrix, String) {
    let sum =
        |field: fn(&parapsp_dist::NodeStats) -> u64| out.node_stats.iter().map(field).sum::<u64>();
    let summary = format!(
        "distributed ({} nodes, {} crashed): {:?}; computed {} rows, replayed {} rows, \
         broadcast {} KiB, gather {} KiB, \
         remote reuses {}, rows rejected {} (+{} at gather), retries {}, reassigned {}, \
         reconnects {}, heartbeat misses {}",
        nodes,
        out.crashed_nodes(),
        out.elapsed,
        sum(|s| s.sources),
        out.replayed_rows,
        out.total_broadcast_bytes() / 1024,
        out.gather_bytes / 1024,
        sum(|s| s.remote_reuses),
        sum(|s| s.rows_rejected),
        out.gather_rejected,
        sum(|s| s.retries),
        sum(|s| s.reassigned_sources),
        sum(|s| s.reconnects),
        sum(|s| s.heartbeat_misses),
    );
    (out.dist, summary)
}

/// The solver a kernel run uses: `--solver` when given, else the
/// algorithm's own default from its `RunConfig` constructor (`auto` for
/// the parallel engines, the paper's kernel for Peng's sequential family).
/// `auto` is resolved here, against the graph, so the run can report the
/// choice and the probe behind it: the second value is that report line.
/// `per_row_credit` marks the adaptive engines, for which `auto` never
/// picks msbfs.
fn pick_solver(
    flag: Option<SolverKind>,
    config: &RunConfig,
    graph: &CsrGraph,
    per_row_credit: bool,
) -> (SolverKind, Option<String>) {
    let solver = flag.unwrap_or(config.kernel().solver);
    if solver != SolverKind::Auto {
        return (solver, None);
    }
    let choice = autotune(graph);
    let choice = if per_row_credit {
        choice.per_row()
    } else {
        choice
    };
    (
        choice.solver,
        Some(auto_tune_line(choice.solver, &choice.probe)),
    )
}

/// The report line of an `auto` solver choice and the probe behind it.
fn auto_tune_line(solver: SolverKind, probe: &GraphProbe) -> String {
    format!(
        "auto-tune: solver {} (n={} m={} degree-skew={:.1} weights {}..{})",
        solver.label(),
        probe.n,
        probe.m,
        probe.degree_skew,
        probe.weight_min,
        probe.weight_max,
    )
}

fn run_algorithm(
    kind: EngineKind,
    graph: &CsrGraph,
    threads: usize,
    args: &Args,
    token: &CancelToken,
) -> Result<RunStatus, CliError> {
    // Optional bounded horizon (exact within the cap, INF beyond it).
    let cap: Option<u32> = match args.get("cap") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("--cap value `{raw}` is invalid"))?,
        ),
    };
    if args.get("credit-weight").is_some() && kind != EngineKind::SeqAdaptive {
        return Err(format!(
            "--credit-weight works with seq-adaptive (got `{}`)",
            kind.value_name()
        )
        .into());
    }
    // Row-relaxation implementation (the vectorized kernel ablation switch).
    let relax = args.get_enum("relax", RelaxImpl::Auto)?;
    let ledger_fsync = args.get_enum("ledger-fsync", parapsp_core::FsyncPolicy::default())?;
    for option in ["ledger-fsync", "checkpoint-every"] {
        if args.get(option).is_some() && args.get("ledger").is_none() {
            return Err(format!("--{option} needs --ledger").into());
        }
    }
    // An existing ledger of another version or graph size is a wrong
    // `--ledger`, reported before the run starts rather than as a panic
    // inside it.
    if let Some(path) = args.get("ledger") {
        parapsp_core::persist::check_ledger(path, graph.vertex_count())
            .map_err(|e| format!("--ledger {path}: {e}"))?;
    }
    // --relax needs the modified-Dijkstra kernel in this process.
    if args.get("relax").is_some() && !kind.uses_kernel() {
        return Err(format!(
            "--relax works with {} (got `{}`)",
            kinds_where(EngineKind::uses_kernel),
            kind.value_name()
        )
        .into());
    }
    // Source-sweep loop schedule (only the parallel row engines hand
    // their source loop to the parfor pool).
    let schedule: Option<Schedule> = match args.get("schedule") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|e| format!("--schedule value `{raw}` is invalid: {e}"))?,
        ),
    };
    if schedule.is_some() && !kind.honours_schedule() {
        return Err(format!(
            "--schedule works with {} (got `{}`)",
            kinds_where(EngineKind::honours_schedule),
            kind.value_name()
        )
        .into());
    }
    // Distance-matrix storage backend (the row engines' published rows
    // and the dist gather both land in a `Store`).
    let store = args.get_spec("store", parapsp_core::StoreSpec::default())?;
    // Reject a hot-row cache budget that cannot hold the lease working
    // set here, where it is a clean `--store` error with the minimum
    // named, instead of a panic when the engine builds the store.
    store
        .validate_for(graph.vertex_count())
        .map_err(|e| format!("--store value `{}` is invalid: {e}", store.label()))?;
    // Per-source SSSP solver.
    let solver: Option<SolverKind> = match args.get("solver") {
        None => None,
        Some(_) => Some(args.get_spec("solver", SolverKind::default())?),
    };
    // The adaptive engines rank sources by per-row credit.
    let per_row_credit = matches!(kind, EngineKind::SeqAdaptive | EngineKind::ParAdaptive);
    // Dist nodes run a subset of the solvers, resolved once here so that
    // a solver no node can run is a usage error naming the accepted ones.
    let node_solver = if kind == EngineKind::Dist {
        let requested = solver.unwrap_or_default();
        let (node, probe) = NodeSolver::resolve(requested, graph)
            .map_err(|e| format!("--solver {} on `dist`: {e}", requested.label()))?;
        Some((node, (requested == SolverKind::Auto).then_some(probe)))
    } else {
        None
    };
    if solver == Some(SolverKind::MsBfs) && node_solver.is_none() {
        SolverKind::MsBfs
            .check(&probe(graph), per_row_credit)
            .map_err(|e| format!("--solver msbfs on `{}`: {e}", kind.value_name()))?;
    }
    let checkpoint_every = args.get_parsed("checkpoint-every", 64usize)?;
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".to_string().into());
    }
    // Every algorithm shares the same config plumbing: cap, relax
    // implementation, store and ledger policy land in one RunConfig.
    let configure = |mut config: RunConfig| -> RunConfig {
        if let Some(cap) = cap {
            config = config.with_max_distance(cap);
        }
        config = config.with_relax(relax);
        if kind.uses_kernel() {
            let (chosen, report) = pick_solver(solver, &config, graph, per_row_credit);
            if let Some(line) = report {
                say!("{line}");
            }
            config = config.with_solver(chosen);
        }
        config = config.with_store(store.clone());
        if let Some(schedule) = schedule {
            config = config.with_schedule(schedule);
        }
        if let Some(path) = args.get("ledger") {
            config = config
                .with_ledger(path, checkpoint_every)
                .with_fsync(ledger_fsync);
        }
        config
    };
    // The seven row engines: the static-order family on `ApspEngine`, the
    // run-time order on `AdaptiveEngine`.
    let ordered = |config| {
        drive(
            &Runner::new(configure(config)),
            ApspEngine::new(),
            graph,
            args,
            token,
        )
    };
    let adaptive = |config, engine: AdaptiveEngine| {
        drive(&Runner::new(configure(config)), engine, graph, args, token)
    };
    let outcome = match kind {
        EngineKind::ParApsp => ordered(RunConfig::par_apsp(threads))?.map(row_summary),
        EngineKind::ParAlg1 => ordered(RunConfig::par_alg1(threads))?.map(row_summary),
        EngineKind::ParAlg2 => ordered(RunConfig::par_alg2(threads))?.map(row_summary),
        EngineKind::SeqBasic => ordered(RunConfig::seq_basic())?.map(row_summary),
        EngineKind::SeqOptimized => ordered(RunConfig::seq_optimized(1.0))?.map(row_summary),
        EngineKind::SeqAdaptive => {
            let weight = args.get_parsed("credit-weight", 10u64)?;
            adaptive(
                RunConfig::seq_adaptive(weight),
                AdaptiveEngine::new(weight, 1),
            )?
            .map(row_summary)
        }
        EngineKind::ParAdaptive => {
            adaptive(RunConfig::par_adaptive(threads), AdaptiveEngine::new(16, 8))?.map(row_summary)
        }
        EngineKind::Dist => {
            let (node_solver, probe) = node_solver.expect("resolved for dist above");
            let nodes = args.get_parsed("nodes", 4usize)?;
            let hub_fraction = args.get_parsed("hub-fraction", 0.05f64)?;
            let partition = args.get_enum("partition", SourcePartition::default())?;
            // Only the paper's kernel reads hub rows.
            let no_hubs = match node_solver {
                NodeSolver::MsBfs => Some("msbfs reads no rows"),
                NodeSolver::Dijkstra if hub_fraction == 0.0 => Some("hub fraction 0"),
                NodeSolver::Dijkstra => None,
            };
            let (faults, chaos) = parse_fault_plans(args, no_hubs)?;
            let transport = parse_transport(args)?;
            let cluster = ClusterConfig {
                nodes,
                hub_fraction,
                partition,
                faults,
                transport,
                chaos: Some(chaos),
                ..ClusterConfig::default()
            };
            // Degenerate configurations (zero nodes, more nodes than
            // sources, dead timeouts) are rejected here with a
            // self-describing message instead of panicking mid-run.
            cluster
                .validate(graph.vertex_count())
                .map_err(|e| e.to_string())?;
            if let Some(probe) = probe {
                say!("{}", auto_tune_line(node_solver.kind(), &probe));
            }
            let broadcast = match no_hubs {
                Some(why) => format!("off ({why})"),
                None => format!("on (hub fraction {hub_fraction})"),
            };
            say!(
                "dist: node solver {}, hub broadcast {broadcast}",
                node_solver.kind().label()
            );
            // A restarted driver resumes from its own ledger (or any
            // checkpoint): prior rows pre-seed the gather and only the
            // missing sources are dealt to the workers.
            let runner = Runner::new(configure(RunConfig::new(1)).with_solver(node_solver.kind()));
            // A run no worker joined unwinds with its reason: a runtime
            // failure (exit 1), not a panic.
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drive(&runner, DistEngine::new(cluster), graph, args, token)
            }));
            match run {
                Ok(outcome) => outcome?.map(|out| dist_summary(out, nodes)),
                Err(payload) => match payload.downcast::<DistFailure>() {
                    Ok(failure) => return Err(CliError::failure(failure.to_string())),
                    Err(payload) => std::panic::resume_unwind(payload),
                },
            }
        }
    };
    settle(args, outcome)
}

/// The `apsp` options that only `dist` reads: the cluster shape, the
/// socket transport and the fault plans.
const DIST_OPTIONS: &[&str] = &[
    "--nodes",
    "--hub-fraction",
    "--partition",
    "--transport",
    "--listen",
    "--external",
    "--heartbeat",
    "--heartbeat-misses",
    "--row-batch",
    "--accept-timeout",
    "--read-timeout",
    "--write-timeout",
    "--delay-ms",
    "--fault-seed",
    "--crash",
    "--drop-prob",
    "--corrupt-prob",
];

/// A dist-only option on any other algorithm is a usage error naming
/// `dist`, before the graph is read (like `--credit-weight` off
/// seq-adaptive).
fn refuse_dist_options(args: &Args, kind: EngineKind) -> Result<(), CliError> {
    if kind == EngineKind::Dist {
        return Ok(());
    }
    let given = DIST_OPTIONS.iter().find(|option| {
        let name = &option[2..];
        args.get(name).is_some() || args.flag(name)
    });
    match given {
        Some(option) => {
            Err(format!("{option} works with dist (got `{}`)", kind.value_name()).into())
        }
        None => Ok(()),
    }
}

/// `parapsp apsp <file>` (alias `run`) — run one algorithm and report.
/// Returns the process exit code: 0 on success, 130 when interrupted with
/// a checkpoint, 124 when a `--deadline` expired with a checkpoint.
pub fn apsp(args: &Args) -> Result<i32, CliError> {
    let threads = threads(args)?;
    let algorithm = args.get_enum("algorithm", EngineKind::ParApsp)?;
    refuse_dist_options(args, algorithm)?;
    let loaded = load(args).map_err(CliError::failure)?;
    check_matrix_budget(loaded.graph.vertex_count(), 1).map_err(CliError::failure)?;
    // A `--deadline` counts from here, after the graph is loaded.
    let (token, checkpoint_on_interrupt) = cancellation_setup(args)?;
    // The guard keeps a watcher thread that trips the token on
    // SIGINT/SIGTERM; dropping it (any exit path) stops the watcher.
    let _guard = checkpoint_on_interrupt.then(|| interrupt::guard(&token));
    let (dist, summary) = match run_algorithm(algorithm, &loaded.graph, threads, args, &token)? {
        RunStatus::Done(dist, summary) => (dist, summary),
        RunStatus::Stopped { code } => return Ok(code),
    };
    say!("{summary}");
    let stats = path_stats(&dist);
    say!(
        "diameter {} / radius {} / avg path {:.3} / connectivity {:.1}%",
        stats.diameter,
        stats.radius,
        stats.average_path_length,
        stats.connectivity() * 100.0
    );
    if let Some(out_path) = args.get("out") {
        use parapsp_core::persist;
        if out_path.ends_with(".tsv") || out_path.ends_with(".txt") {
            let file = std::fs::File::create(out_path)
                .map_err(|e| CliError::failure(format!("creating {out_path}: {e}")))?;
            persist::write_tsv(&dist, file).map_err(|e| CliError::failure(e.to_string()))?;
        } else {
            persist::save_binary(&dist, out_path).map_err(|e| CliError::failure(e.to_string()))?;
        }
        say!("distance matrix written to {out_path}");
    }
    Ok(0)
}

/// `parapsp analyze <file>` — APSP plus the full analysis report.
pub fn analyze(args: &Args) -> Result<(), CliError> {
    let threads = threads(args)?;
    let top = args.get_parsed("top", 5usize)?;
    let loaded = load(args).map_err(CliError::failure)?;
    let g = &loaded.graph;
    check_matrix_budget(g.vertex_count(), 1).map_err(CliError::failure)?;

    let out = Runner::new(RunConfig::par_apsp(threads)).run(ApspEngine::new(), g);
    say!(
        "ParAPSP: {:?} on {} threads\n",
        out.timings.total,
        out.threads
    );

    let stats = path_stats(&out.dist);
    say!(
        "diameter {} / radius {} / avg path {:.3} / connectivity {:.1}%",
        stats.diameter,
        stats.radius,
        stats.average_path_length,
        stats.connectivity() * 100.0
    );
    say!("\ndistance distribution:");
    for (d, count) in distance_distribution(&out.dist).iter().enumerate().skip(1) {
        if *count > 0 {
            say!("  {d}: {count}");
        }
    }

    let degrees = degree::out_degrees(g);
    let closeness = closeness_centrality(&out.dist, Normalization::WassermanFaust);
    let harmonic = harmonic_centrality(&out.dist);
    let original = |v: u32| loaded.original_ids[v as usize];
    say!("\ntop {top} by closeness:");
    for v in top_k(&closeness, top) {
        say!(
            "  vertex {} (file id {}): {:.4}  degree {}",
            v,
            original(v),
            closeness[v as usize],
            degrees[v as usize]
        );
    }
    say!("top {top} by harmonic centrality:");
    for v in top_k(&harmonic, top) {
        say!(
            "  vertex {} (file id {}): {:.4}  degree {}",
            v,
            original(v),
            harmonic[v as usize],
            degrees[v as usize]
        );
    }
    if !g.direction().is_directed() && g.is_unit_weight() {
        let pool = ThreadPool::new(threads);
        let betweenness = betweenness_centrality(g, &pool);
        say!("top {top} by betweenness:");
        for v in top_k(&betweenness, top) {
            say!(
                "  vertex {} (file id {}): {:.1}  degree {}",
                v,
                original(v),
                betweenness[v as usize],
                degrees[v as usize]
            );
        }
    }
    Ok(())
}

/// `parapsp path <file> <src> <dst>` — one reconstructed route. It holds
/// the predecessor matrix beside the distances: two n² matrices.
pub fn path(args: &Args) -> Result<(), CliError> {
    let threads = threads(args)?;
    let loaded = load(args).map_err(CliError::failure)?;
    check_matrix_budget(loaded.graph.vertex_count(), 2).map_err(CliError::failure)?;
    let parse_vertex = |index: usize, what: &str| -> Result<u32, String> {
        let raw = args
            .positional(index)
            .ok_or_else(|| format!("expected a {what} vertex id"))?;
        let original: u64 = raw
            .parse()
            .map_err(|_| format!("{what} id `{raw}` is not an integer"))?;
        loaded
            .dense_id(original)
            .ok_or_else(|| format!("{what} id {original} not present in the file"))
    };
    let src = parse_vertex(1, "source").map_err(CliError::failure)?;
    let dst = parse_vertex(2, "destination").map_err(CliError::failure)?;

    let result = par_apsp_with_paths(&loaded.graph, threads);
    match result.pred.path(src, dst) {
        Some(route) => {
            say!(
                "distance {} over {} hops:",
                result.dist.get(src, dst),
                route.len() - 1
            );
            let labels: Vec<String> = route
                .iter()
                .map(|&v| loaded.original_ids[v as usize].to_string())
                .collect();
            say!("  {}", labels.join(" -> "));
        }
        None => say!("no path"),
    }
    Ok(())
}

/// `parapsp estimate <file> <src> <dst> [--landmarks 16]` — landmark-based distance
/// bounds without the O(n²) matrix (for graphs where `apsp` won't fit).
pub fn estimate(args: &Args) -> Result<(), CliError> {
    use parapsp_analysis::landmarks::{LandmarkIndex, LandmarkStrategy};
    let threads = threads(args)?;
    let k = args.get_parsed("landmarks", 16usize)?;
    let loaded = load(args).map_err(CliError::failure)?;
    if loaded.graph.direction().is_directed() {
        return Err(CliError::failure(
            "estimate requires an undirected graph (triangulation)",
        ));
    }
    let k = k.min(loaded.graph.vertex_count());
    let parse_vertex = |index: usize, what: &str| -> Result<u32, String> {
        let raw = args
            .positional(index)
            .ok_or_else(|| format!("expected a {what} vertex id"))?;
        let original: u64 = raw
            .parse()
            .map_err(|_| format!("{what} id `{raw}` is not an integer"))?;
        loaded
            .dense_id(original)
            .ok_or_else(|| format!("{what} id {original} not present in the file"))
    };
    let src = parse_vertex(1, "source").map_err(CliError::failure)?;
    let dst = parse_vertex(2, "destination").map_err(CliError::failure)?;
    let index = LandmarkIndex::build(
        &loaded.graph,
        k.max(1),
        LandmarkStrategy::HighestDegree,
        threads,
    );
    let lo = index.lower_bound(src, dst);
    let hi = index.upper_bound(src, dst);
    if hi == parapsp_graph::INF {
        say!("no landmark reaches both endpoints (likely disconnected)");
    } else {
        say!(
            "d({}, {}) ∈ [{lo}, {hi}]  ({} hub landmarks, O(k·n) memory)",
            args.positional(1).unwrap_or("?"),
            args.positional(2).unwrap_or("?"),
            index.landmarks().len()
        );
    }
    Ok(())
}

/// `parapsp generate --model ba --n 1000 --m 4 --out g.txt`. A model
/// reads only its own parameters — `ba` grows by `--m` edges per vertex,
/// `er` draws G(n, p) from `--p`, `ws` rewires a `--m`-regular ring with
/// probability `--p` — so a flag the model does not read is a usage
/// error naming the flag it does read, not silently ignored.
pub fn generate(args: &Args) -> Result<(), CliError> {
    use parapsp_graph::generate as gen;
    let model = args.get("model").unwrap_or("ba");
    let unread = match model {
        "ba" => Some(("p", "--m, the edges each new vertex attaches")),
        "er" => Some(("m", "--p, the probability of each edge")),
        _ => None,
    };
    if let Some((flag, reads)) = unread.filter(|(flag, _)| args.get(flag).is_some()) {
        return Err(
            format!("--{flag} does not apply to --model {model}, which reads {reads}").into(),
        );
    }
    let n = args.get_parsed("n", 1_000usize)?;
    let m = args.get_parsed("m", 4usize)?;
    let p = args.get_parsed("p", 0.1f64)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let out_path = args
        .get("out")
        .ok_or_else(|| "generate needs --out <file>".to_string())?;
    let graph = match model {
        "ba" => gen::barabasi_albert(n, m, gen::WeightSpec::Unit, seed),
        "er" => gen::erdos_renyi_gnp(n, p, Direction::Undirected, gen::WeightSpec::Unit, seed),
        "ws" => gen::watts_strogatz(n, m.max(2) & !1, p, gen::WeightSpec::Unit, seed),
        other => return Err(format!("unknown model `{other}` (ba, er, ws)").into()),
    }
    .map_err(|e| e.to_string())?;
    let file = std::fs::File::create(out_path)
        .map_err(|e| CliError::failure(format!("creating {out_path}: {e}")))?;
    parapsp_graph::io::write_edge_list(&graph, std::io::BufWriter::new(file))
        .map_err(|e| CliError::failure(e.to_string()))?;
    say!(
        "wrote {} vertices / {} edges to {out_path}",
        graph.vertex_count(),
        graph.edge_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn sample_file() -> String {
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.txt");
        // Tests run in parallel and all share this file: write a private
        // copy and rename it into place, so a reader never sees it torn.
        let staged = dir.join(format!("sample.txt.{:?}", std::thread::current().id()));
        std::fs::write(&staged, "# demo\n1 2\n2 3\n3 1\n3 4\n4 5\n").unwrap();
        std::fs::rename(&staged, &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn stats_and_apsp_run_on_sample() {
        let file = sample_file();
        stats(&args(&["stats", &file])).unwrap();
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        let mut reference: Option<DistanceMatrix> = None;
        // Every algorithm writes the same matrix.
        for algorithm in EngineKind::value_variants().iter().map(|k| k.value_name()) {
            let out = dir.join(format!("sample-{algorithm}.bin"));
            let out = out.to_string_lossy().into_owned();
            apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--threads",
                "2",
                "--out",
                &out,
            ]))
            .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            let dist = parapsp_core::persist::load_binary(&out).unwrap();
            std::fs::remove_file(&out).ok();
            match &reference {
                Some(reference) => assert_eq!(reference, &dist, "{algorithm}"),
                None => reference = Some(dist),
            }
        }
    }

    /// `--cap` is honoured by every algorithm: on a 6-vertex path a cap
    /// of 2 leaves a diameter of 2.
    #[test]
    fn cap_is_honoured_on_every_algorithm() {
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("path6.txt");
        std::fs::write(&file, "0 1\n1 2\n2 3\n3 4\n4 5\n").unwrap();
        let file = file.to_string_lossy().into_owned();
        for &kind in EngineKind::value_variants() {
            let algorithm = kind.value_name();
            let out = dir.join(format!("path6-cap-{algorithm}.bin"));
            let out = out.to_string_lossy().into_owned();
            let run = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--cap",
                "2",
                "--threads",
                "2",
                "--out",
                &out,
            ]));
            run.unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            let dist = parapsp_core::persist::load_binary(&out).unwrap();
            std::fs::remove_file(&out).ok();
            assert_eq!(path_stats(&dist).diameter, 2, "{algorithm}");
            assert_eq!(dist.get(0, 2), 2, "{algorithm}");
            assert_eq!(dist.get(0, 3), parapsp_core::INF, "{algorithm}");
        }
    }

    #[test]
    fn analyze_and_path_run_on_sample() {
        let file = sample_file();
        analyze(&args(&["analyze", &file, "--top", "3"])).unwrap();
        path(&args(&["path", &file, "1", "5"])).unwrap();
        // Unknown vertex id.
        assert!(path(&args(&["path", &file, "1", "99"])).is_err());
    }

    #[test]
    fn capped_apsp_runs_and_bad_cap_errors() {
        let file = sample_file();
        apsp(&args(&["apsp", &file, "--cap", "1", "--threads", "2"])).unwrap();
        assert!(apsp(&args(&["apsp", &file, "--cap", "many"])).is_err());
    }

    #[test]
    fn relax_impl_selection_via_cli() {
        let file = sample_file();
        for relax in ["auto", "avx2", "portable", "scalar"] {
            apsp(&args(&["apsp", &file, "--relax", relax, "--threads", "2"]))
                .unwrap_or_else(|e| panic!("--relax {relax}: {e}"));
        }
        assert!(apsp(&args(&["apsp", &file, "--relax", "sse9"])).is_err());
        // The sequential family runs the same row engines and kernel, so
        // --relax applies to it too...
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-basic",
            "--relax",
            "scalar",
        ]))
        .unwrap();
        // ...but not to the dist driver, whose nodes run the default.
        let err = apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "dist",
            "--relax",
            "scalar",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--relax works with"), "{err}");
    }

    #[test]
    fn schedule_selection_via_cli() {
        let file = sample_file();
        // Every spelling the parser accepts, on every engine that hands its
        // source loop to the parfor pool.
        for schedule in ["block", "static-cyclic", "dynamic-cyclic", "dynamic:4"] {
            for algorithm in ["par-apsp", "par-alg1", "par-alg2", "par-adaptive"] {
                apsp(&args(&[
                    "apsp",
                    &file,
                    "--algorithm",
                    algorithm,
                    "--schedule",
                    schedule,
                    "--threads",
                    "2",
                ]))
                .unwrap_or_else(|e| panic!("{algorithm} --schedule {schedule}: {e}"));
            }
        }
        // Malformed specs are rejected with the parser's explanation, and
        // unknown names also list the possible values.
        for (bad, unknown) in [
            ("warp", true),
            ("guided:2", true),
            ("work-stealing", true),
            ("work-stealing:4", true),
            ("dynamic:0", false),
            ("block:4", false),
        ] {
            let err = apsp(&args(&["apsp", &file, "--schedule", bad]))
                .unwrap_err()
                .to_string();
            assert!(err.contains("--schedule"), "{bad}: {err}");
            assert_eq!(err.contains("possible values"), unknown, "{bad}: {err}");
        }
        // Engines that run their own loops reject the flag rather than
        // silently ignoring it.
        for algorithm in ["seq-basic", "seq-adaptive", "dist"] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--schedule",
                "static-cyclic",
            ]))
            .unwrap_err()
            .to_string();
            assert!(
                err.contains("--schedule works with"),
                "{algorithm} must reject --schedule: {err}"
            );
        }
    }

    #[test]
    fn solver_selection_via_cli() {
        let file = sample_file();
        // Every spelling the parser accepts, on both a parallel and a
        // sequential kernel engine.
        for solver in [
            "dijkstra",
            "delta",
            "delta:auto",
            "delta:3",
            "msbfs",
            "auto",
        ] {
            for algorithm in ["par-apsp", "seq-optimized"] {
                apsp(&args(&[
                    "apsp",
                    &file,
                    "--algorithm",
                    algorithm,
                    "--solver",
                    solver,
                    "--threads",
                    "2",
                ]))
                .unwrap_or_else(|e| panic!("{algorithm} --solver {solver}: {e}"));
            }
        }
        // `auto` must not clobber an explicit --schedule/--relax.
        apsp(&args(&[
            "apsp",
            &file,
            "--solver",
            "auto",
            "--schedule",
            "block",
            "--relax",
            "scalar",
        ]))
        .unwrap();
        // Malformed specs are rejected with the parser's explanation.
        for bad in [
            "warp",
            "delta:0",
            "delta:wide",
            "stepping",
            "auto:1",
            "msbfs:8",
        ] {
            let err = apsp(&args(&["apsp", &file, "--solver", bad])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad}: {err}");
            assert!(err.to_string().contains("--solver"), "{bad}: {err}");
        }
        // The removed bucket-fusion solver is an unknown value, and the
        // rejection lists the ones that remain.
        let err = apsp(&args(&["apsp", &file, "--solver", "stepping"]))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("possible values") && err.contains("delta") && err.contains("auto"),
            "{err}"
        );
        // msbfs shares its scans among sources, so the adaptive engines,
        // which credit every row on its own, refuse it, naming why.
        for algorithm in ["par-adaptive", "seq-adaptive"] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--solver",
                "msbfs",
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{algorithm}: {err}");
            assert!(
                err.to_string().contains("one at a time"),
                "{algorithm}: {err}"
            );
        }
        // Without --solver the parallel engines run `auto`: a dense,
        // unskewed graph with weights 1..1000 goes to Δ-stepping, a
        // unit-weight scale-free one to the multi-source BFS, and either
        // way the matrix is the one `--solver dijkstra` writes. On a
        // weighted graph `--solver msbfs` is a usage error. Peng's
        // sequential family keeps the kernel without a report, and
        // par-adaptive's `auto` keeps it on unit weights.
        use parapsp_graph::generate::{barabasi_albert, watts_strogatz, WeightSpec};
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let wide = WeightSpec::Uniform { lo: 1, hi: 1000 };
        for (name, graph, expect) in [
            (
                "ws-wide",
                watts_strogatz(300, 8, 0.2, wide, 3).unwrap(),
                "delta:",
            ),
            (
                "ba-unit",
                barabasi_albert(300, 3, WeightSpec::Unit, 3).unwrap(),
                "msbfs",
            ),
        ] {
            let path = dir.join(format!("default-solver-{name}.txt"));
            let file = std::fs::File::create(&path).unwrap();
            parapsp_graph::io::write_edge_list(&graph, std::io::BufWriter::new(file)).unwrap();
            let input = path.to_string_lossy().into_owned();
            let loaded = load(&args(&["apsp", &input])).unwrap().graph;
            let (_, report) = pick_solver(None, &RunConfig::par_apsp(2), &loaded, false);
            let report = report.expect("the default solver is auto");
            assert!(
                report.starts_with(&format!("auto-tune: solver {expect}")),
                "{name}: {report}"
            );
            let kernel = pick_solver(None, &RunConfig::seq_basic(), &loaded, false);
            assert_eq!(kernel, (SolverKind::Dijkstra, None), "{name}");
            let (adaptive, _) = pick_solver(None, &RunConfig::par_adaptive(2), &loaded, true);
            assert_ne!(adaptive, SolverKind::MsBfs, "{name}");
            if name == "ws-wide" {
                let err = apsp(&args(&["apsp", &input, "--solver", "msbfs"])).unwrap_err();
                assert_eq!(err.exit_code(), 2, "{err}");
                assert!(err.to_string().contains("weights span 1..1000"), "{err}");
            }
            let out = |tag: &str| dir.join(format!("default-solver-{name}-{tag}.bin"));
            let (default_out, dijkstra_out) = (out("default"), out("dijkstra"));
            for (path, extra) in [(&default_out, None), (&dijkstra_out, Some("dijkstra"))] {
                let path = path.to_string_lossy().into_owned();
                let mut tokens = vec!["apsp", &input, "--threads", "2", "--out", &path];
                if let Some(solver) = extra {
                    tokens.extend(["--solver", solver]);
                }
                apsp(&args(&tokens)).unwrap_or_else(|e| panic!("{name} {extra:?}: {e}"));
            }
            assert_eq!(
                std::fs::read(&default_out).unwrap(),
                std::fs::read(&dijkstra_out).unwrap(),
                "{name}: the default solver's matrix differs from dijkstra's"
            );
        }
        // Every algorithm takes a per-source solver.
        for algorithm in EngineKind::value_variants().iter().map(|k| k.value_name()) {
            apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--solver",
                "dijkstra",
            ]))
            .unwrap_or_else(|e| panic!("{algorithm} --solver dijkstra: {e}"));
        }
        // Dist nodes run auto, dijkstra and msbfs, all to the same matrix;
        // Δ-stepping is a usage error listing them.
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        let out = |solver: &str| dir.join(format!("dist-solver-{solver}.bin"));
        for solver in ["auto", "dijkstra", "msbfs"] {
            let path = out(solver).to_string_lossy().into_owned();
            let tokens = ["apsp", &file, "--algorithm", "dist", "--nodes", "2"];
            apsp(&args(
                &[&tokens[..], &["--solver", solver, "--out", &path]].concat(),
            ))
            .unwrap_or_else(|e| panic!("dist --solver {solver}: {e}"));
            assert_eq!(
                std::fs::read(out(solver)).unwrap(),
                std::fs::read(out("auto")).unwrap(),
                "dist --solver {solver}"
            );
        }
        for delta in ["delta", "delta:3"] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                "dist",
                "--solver",
                delta,
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(err.to_string().contains("auto, dijkstra, msbfs"), "{err}");
        }
    }

    #[test]
    fn store_selection_via_cli() {
        let file = sample_file();
        // Every spelling the parser accepts, on every algorithm.
        for store in ["dense", "mmap", "mmap:64k"] {
            for algorithm in EngineKind::value_variants().iter().map(|k| k.value_name()) {
                apsp(&args(&[
                    "apsp",
                    &file,
                    "--algorithm",
                    algorithm,
                    "--store",
                    store,
                    "--threads",
                    "2",
                ]))
                .unwrap_or_else(|e| panic!("{algorithm} --store {store}: {e}"));
            }
        }
        // Malformed specs are rejected with the parser's explanation.
        for bad in ["dense:1", "mmap:lots", "mmap:0"] {
            let err = apsp(&args(&["apsp", &file, "--store", bad]))
                .unwrap_err()
                .to_string();
            assert!(err.contains("--store"), "{bad}: {err}");
        }
        // Unknown backends, the deleted landmark-delta tier among them,
        // list the two that remain.
        for unknown in ["ram", "delta", "delta:4"] {
            let err = apsp(&args(&["apsp", &file, "--store", unknown]))
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!(
                    "--store: unknown store `{unknown}` (possible values: dense, mmap[:<budget>])"
                )),
                "{unknown}: {err}"
            );
        }
    }

    #[test]
    fn apsp_saves_matrix_when_out_is_given() {
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let file = sample_file();

        let bin = dir.join("out.bin").to_string_lossy().into_owned();
        apsp(&args(&["apsp", &file, "--out", &bin])).unwrap();
        let loaded = parapsp_core::persist::load_binary(&bin).unwrap();
        assert_eq!(loaded.n(), 5);

        let tsv = dir.join("out.tsv").to_string_lossy().into_owned();
        apsp(&args(&["apsp", &file, "--out", &tsv])).unwrap();
        let text = std::fs::read_to_string(&tsv).unwrap();
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn ledger_every_and_resume_via_cli() {
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let file = sample_file();
        let ledger = dir.join("every.ledger").to_string_lossy().into_owned();
        std::fs::remove_file(&ledger).ok();
        apsp(&args(&[
            "apsp",
            &file,
            "--ledger",
            &ledger,
            "--checkpoint-every",
            "2",
        ]))
        .unwrap();
        let cp = parapsp_core::persist::load_checkpoint(&ledger).unwrap();
        assert!(cp.is_complete());
        // Resuming from a complete ledger recomputes nothing and succeeds.
        apsp(&args(&["apsp", &file, "--resume", &ledger])).unwrap();
        std::fs::remove_file(&ledger).ok();
        // The sequential engines are row engines too: journal one and
        // resume another on it (ledgers are engine-agnostic).
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-basic",
            "--ledger",
            &ledger,
            "--checkpoint-every",
            "2",
        ]))
        .unwrap();
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-optimized",
            "--resume",
            &ledger,
        ]))
        .unwrap();
        assert!(apsp(&args(&[
            "apsp",
            &file,
            "--ledger",
            &ledger,
            "--checkpoint-every",
            "0"
        ]))
        .is_err());
        assert!(apsp(&args(&["apsp", &file, "--resume", "/no/such/checkpoint"])).is_err());
        std::fs::remove_file(ledger).ok();
    }

    #[test]
    fn ledger_journals_and_resumes_via_cli() {
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let file = sample_file();
        // Every algorithm journals its completed rows (the dist driver its
        // gather), and the ledger loads back as a complete checkpoint that
        // the same algorithm resumes from, replaying instead of
        // recomputing.
        for algorithm in EngineKind::value_variants().iter().map(|k| k.value_name()) {
            let ledger = dir.join(format!("cli-{algorithm}.ledger"));
            let ledger = ledger.to_string_lossy().into_owned();
            std::fs::remove_file(&ledger).ok();
            let run = ["apsp", &file, "--algorithm", algorithm, "--ledger", &ledger];
            apsp(&args(&[&run[..], &["--ledger-fsync", "never"]].concat()))
                .unwrap_or_else(|e| panic!("{algorithm} --ledger: {e}"));
            let cp = parapsp_core::persist::load_checkpoint(&ledger).unwrap();
            assert!(cp.is_complete(), "{algorithm}");
            apsp(&args(&[&run[..], &["--resume", &ledger]].concat()))
                .unwrap_or_else(|e| panic!("{algorithm} --resume: {e}"));
            std::fs::remove_file(&ledger).ok();
        }
    }

    #[test]
    fn ledger_flag_combinations_are_validated() {
        let file = sample_file();
        // --ledger-fsync or --checkpoint-every without --ledger, and an
        // unknown fsync policy, are all usage errors (exit 2).
        for bad in [
            vec!["--ledger-fsync", "never"],
            vec!["--checkpoint-every", "8"],
            vec!["--ledger", "/tmp/x.ledger", "--ledger-fsync", "eventually"],
        ] {
            let mut tokens = vec!["apsp", file.as_str()];
            tokens.extend_from_slice(&bad);
            let err = apsp(&args(&tokens)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
        // Runtime failures stay exit 1.
        assert_eq!(
            apsp(&args(&["apsp", "/no/such/graph"]))
                .unwrap_err()
                .exit_code(),
            1
        );
    }

    #[test]
    fn socket_timeout_flags_parse_and_zero_values_are_usage_errors() {
        let file = sample_file();
        // The flags land on the socket config (the end-to-end run over a
        // real socket is covered by the integration tests, which use the
        // installed binary rather than the test harness as the worker).
        let spec = parse_transport(&args(&[
            "apsp",
            &file,
            "--transport",
            "tcp",
            "--read-timeout",
            "5",
            "--write-timeout",
            "1000",
        ]))
        .unwrap();
        match spec {
            TransportSpec::Socket(socket) => {
                assert_eq!(socket.read_timeout, Duration::from_millis(5));
                assert_eq!(socket.write_timeout, Duration::from_millis(1000));
            }
            other => panic!("expected a socket transport, got {other:?}"),
        }
        // Zero timeouts are rejected at construction, before any socket
        // opens, with exit code 2.
        for bad in [
            ["--read-timeout", "0"],
            ["--write-timeout", "0"],
            ["--heartbeat", "0"],
            ["--accept-timeout", "0"],
        ] {
            let mut tokens = vec![
                "apsp",
                file.as_str(),
                "--algorithm",
                "dist",
                "--transport",
                "tcp",
            ];
            tokens.extend_from_slice(&bad);
            let err = apsp(&args(&tokens)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
            assert!(err.to_string().contains("zero"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn dist_partitions_via_cli() {
        let file = sample_file();
        for partition in ["cyclic-degree", "block-degree", "cyclic-id"] {
            apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                "dist",
                "--nodes",
                "2",
                "--partition",
                partition,
            ]))
            .unwrap_or_else(|e| panic!("{partition}: {e}"));
        }
        assert!(apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "dist",
            "--partition",
            "nope"
        ]))
        .is_err());
    }

    #[test]
    fn new_engine_knobs_parse_and_reject() {
        let file = sample_file();
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-adaptive",
            "--credit-weight",
            "100",
        ]))
        .unwrap();
        assert!(apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-adaptive",
            "--credit-weight",
            "heavy"
        ]))
        .is_err());
        // The credit weight is seq-adaptive's alone: anywhere else it is a
        // usage error, not a silently ignored flag.
        for algorithm in ["par-adaptive", "par-apsp", "seq-basic", "dist"] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--credit-weight",
                "5",
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{algorithm}: {err}");
            assert!(
                err.to_string()
                    .contains("--credit-weight works with seq-adaptive"),
                "{algorithm}: {err}"
            );
        }
        // Blocked Floyd–Warshall and the two direct-call baselines are
        // gone: each name, and blocked-fw's --block, is a usage error
        // listing the algorithms that remain.
        let remaining = "par-apsp, par-alg1, par-alg2, par-adaptive, seq-basic, \
                         seq-optimized, seq-adaptive, dist";
        for algorithm in ["blocked-fw", "floyd-warshall", "dijkstra"] {
            let err = apsp(&args(&["apsp", &file, "--algorithm", algorithm])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{algorithm}: {err}");
            assert!(err.to_string().contains(remaining), "{algorithm}: {err}");
        }
        let err = Args::parse(["apsp", &file, "--block", "64"].map(String::from)).unwrap_err();
        assert!(err.contains("--block") && err.contains(remaining), "{err}");
    }

    #[test]
    fn estimate_runs_on_sample_and_rejects_directed() {
        let file = sample_file();
        estimate(&args(&["estimate", &file, "1", "5", "--landmarks", "2"])).unwrap();
        assert!(estimate(&args(&["estimate", &file, "1", "5", "--directed"])).is_err());
        assert!(estimate(&args(&["estimate", &file, "1"])).is_err());
    }

    #[test]
    fn generate_roundtrip() {
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("generated.txt").to_string_lossy().into_owned();
        generate(&args(&[
            "generate", "--model", "ba", "--n", "200", "--m", "3", "--out", &out,
        ]))
        .unwrap();
        let loaded = read_edge_list_file(&out, ParseOptions::snap(Direction::Undirected)).unwrap();
        assert_eq!(loaded.graph.vertex_count(), 200);
        stats(&args(&["stats", &out])).unwrap();
    }

    #[test]
    fn expired_deadline_exits_124_with_a_loadable_checkpoint() {
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let file = sample_file();
        let ledger = dir.join("deadline.ledger").to_string_lossy().into_owned();
        std::fs::remove_file(&ledger).ok();
        // A zero deadline expires before the first row; the ledger is the
        // stop checkpoint and must load back.
        let code = apsp(&args(&[
            "apsp",
            &file,
            "--deadline",
            "0",
            "--ledger",
            &ledger,
        ]))
        .unwrap();
        assert_eq!(code, 124);
        let cp = parapsp_core::persist::load_checkpoint(&ledger).unwrap();
        assert_eq!(cp.n(), 5);
        // The ledger resumes to a normal, complete run.
        let code = apsp(&args(&[
            "apsp", &file, "--resume", &ledger, "--ledger", &ledger,
        ]))
        .unwrap();
        assert_eq!(code, 0);
        assert!(parapsp_core::persist::load_checkpoint(&ledger)
            .unwrap()
            .is_complete());
        std::fs::remove_file(&ledger).ok();
    }

    #[test]
    fn deadline_works_for_every_algorithm() {
        let file = sample_file();
        let snapshot = format!("{file}.interrupt.ckpt");
        for algorithm in EngineKind::value_variants().iter().map(|k| k.value_name()) {
            // Without --ledger every stop writes the derived
            // <file>.interrupt.ckpt snapshot.
            std::fs::remove_file(&snapshot).ok();
            let code = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--deadline",
                "0",
            ]))
            .unwrap();
            assert_eq!(code, 124, "{algorithm}");
            let cp = parapsp_core::persist::load_checkpoint(&snapshot).unwrap();
            assert_eq!(cp.n(), 5, "{algorithm}");
        }
        // The version-2 snapshot resumes to a normal, complete run.
        let code = apsp(&args(&["apsp", &file, "--resume", &snapshot])).unwrap();
        assert_eq!(code, 0);
        std::fs::remove_file(&snapshot).ok();
        // A generous deadline completes normally.
        let code = apsp(&args(&["apsp", &file, "--deadline", "3600"])).unwrap();
        assert_eq!(code, 0);
    }

    #[test]
    fn cancellation_flags_are_validated() {
        let file = sample_file();
        // Every algorithm takes both interrupt modes.
        for algorithm in EngineKind::value_variants().iter().map(|k| k.value_name()) {
            for mode in ["checkpoint", "abort"] {
                let run = [
                    "apsp",
                    &file,
                    "--algorithm",
                    algorithm,
                    "--on-interrupt",
                    mode,
                ];
                assert_eq!(apsp(&args(&run)).unwrap(), 0, "{algorithm} {mode}");
            }
        }
        assert!(apsp(&args(&["apsp", &file, "--deadline", "-1"])).is_err());
        assert!(apsp(&args(&["apsp", &file, "--deadline", "soon"])).is_err());
        assert!(apsp(&args(&["apsp", &file, "--on-interrupt", "panic"])).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(load(&args(&["stats", "/no/such/file"])).is_err());
        assert!(stats(&args(&["stats"])).is_err());
        let file = sample_file();
        assert!(apsp(&args(&["apsp", &file, "--algorithm", "nope"])).is_err());
        assert!(parse_options(&args(&["stats", "x", "--format", "bad"])).is_err());
        assert!(generate(&args(&["generate"])).is_err());
    }

    #[test]
    fn budget_guard_trips_on_huge_inputs() {
        assert!(check_matrix_budget(100_000, 1).is_err());
        assert!(check_matrix_budget(10_000, 1).is_ok());
        // At n = 40,000 one matrix is 6.0 GiB, which `apsp` may hold, but
        // `path` holds the predecessors beside the distances: 11.9 GiB.
        assert!(check_matrix_budget(40_000, 1).is_ok());
        let dir = std::env::temp_dir().join("parapsp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("path40k.txt");
        let edges: String = (0..39_999).map(|v| format!("{v} {}\n", v + 1)).collect();
        std::fs::write(&file, edges).unwrap();
        let file = file.to_string_lossy().into_owned();
        let err = path(&args(&["path", &file, "0", "1"])).unwrap_err();
        assert!(
            err.to_string().contains("11.9 GiB for 2 n² matrices"),
            "{err}"
        );
    }
}
