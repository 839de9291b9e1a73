//! The measurement loops: inputs, oracle-checked solves, the untraced
//! end-to-end run, the traced per-layer run, and the re-executed
//! peak-RSS child.

use std::cell::RefCell;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use parapsp_core::engine::{ApspEngine, Runner};
use parapsp_core::{baselines, Counters, DistanceMatrix, Engine, RunConfig, RunOutcome, Store};
use parapsp_core::{relax, StoreKind, INF};
use parapsp_dist::{DistEngine, NodeStats};
use parapsp_graph::io::{read_edge_list_file, write_edge_list, ParseOptions};
use parapsp_graph::{degree, CsrGraph, Direction};
use parapsp_order::OrderingProcedure;
use parapsp_parfor::{CancelToken, ThreadPool};

use crate::oracle::{matrix_checksum, Oracle, Tally};
use crate::procfs;
use crate::report::{median, quantile, Metrics};
use crate::timed::{Spans, Timed};
use crate::workload::{EngineChoice, Scratch, Workload, THREADS};

/// `setup_s` samples a run takes.
const SETUP_SAMPLES: usize = 9;
/// Edge-list loads averaged into one `setup_s` sample. A single load
/// (≈ 15 ms at 8,000 vertices) falls within one of the host's fast or
/// slow spells, which last about 0.1–0.3 s, so single-load samples are
/// bimodal and their median flips between the modes from run to run.
const LOADS_PER_SETUP: usize = 16;
/// Upper bound on samples per run, whatever the time budget allows.
const MAX_SAMPLES: usize = 64;
/// Untraced/traced solve pairs a traced run takes at least.
const TRACED_MIN_PAIRS: usize = 2;
/// Oracle rows the layer microbenchmarks run on.
const MICRO_ROWS: usize = 32;
const MIB: f64 = (1u64 << 20) as f64;

/// How one run is sized.
#[derive(Debug, Clone)]
pub struct Plan {
    pub n: usize,
    pub seed: u64,
    /// Measurement budget: samples are added while they fit in it.
    pub seconds: f64,
    pub min_samples: usize,
    /// Take the first solve in a re-executed child that reports its peak
    /// RSS (unit tests cannot re-execute their harness binary).
    pub rss_child: bool,
}

impl Plan {
    /// Whether to take another sample after `taken` of them, `elapsed`
    /// seconds into the budget, when the next one should take about
    /// `next` seconds: always below `min`, then while it fits.
    fn wants_sample(&self, taken: usize, min: usize, elapsed: f64, next: f64) -> bool {
        taken < min || (taken < MAX_SAMPLES && elapsed + next <= self.seconds)
    }
}

/// One workload's generated input, loaded the way `parapsp apsp <file>`
/// loads it, plus everything derived from it before timing starts.
pub struct Input {
    pub workload: Workload,
    pub graph: CsrGraph,
    pub config: RunConfig,
    pub oracle: Oracle,
}

impl Input {
    pub fn prepare(workload: Workload, plan: &Plan, scratch: &Scratch) -> Result<Input, String> {
        let path = scratch.edge_list();
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("creating {}: {e}", path.display()))?;
        let mut writer = std::io::BufWriter::new(file);
        write_edge_list(&workload.generate(plan.n, plan.seed), &mut writer)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        std::io::Write::flush(&mut writer)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        drop(writer);

        let graph = load_edge_list(&path)?;
        let oracle = Oracle::compute(&graph, &ThreadPool::new(THREADS));
        let config = workload.run_config(graph.vertex_count(), scratch);
        Ok(Input {
            workload,
            graph,
            config,
            oracle,
        })
    }
}

/// `read_edge_list_file` with the CLI's defaults (SNAP, undirected).
fn load_edge_list(path: &Path) -> Result<CsrGraph, String> {
    read_edge_list_file(path, ParseOptions::snap(Direction::Undirected))
        .map(|loaded| loaded.graph)
        .map_err(|e| format!("loading {}: {e}", path.display()))
}

/// One `setup_s` sample: the mean wall seconds of [`LOADS_PER_SETUP`]
/// loads of `path`.
fn setup_sample(path: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    for _ in 0..LOADS_PER_SETUP {
        black_box(load_edge_list(path)?);
    }
    Ok(t0.elapsed().as_secs_f64() / LOADS_PER_SETUP as f64)
}

/// What the engine reported besides the matrix.
pub enum Detail {
    Apsp {
        counters: Counters,
        thread_busy: Vec<Duration>,
        imbalance: f64,
    },
    Dist {
        node_stats: Vec<NodeStats>,
        gather_bytes: u64,
        gather_rejected: u64,
        elapsed: Duration,
    },
}

/// One completed solve.
pub struct Solved {
    /// Wall seconds of the Runner call, from pool spawn to output.
    pub wall: f64,
    /// CPU seconds over the same interval, reaped workers included.
    pub cpu: f64,
    pub matrix: DistanceMatrix,
    pub detail: Detail,
    /// Size of the run ledger the solve wrote (0 without one).
    pub ledger_bytes: u64,
}

/// Runs `engine` the way `parapsp apsp` does — `run_with_token` with the
/// token its interrupt handler would trip — wrapped in [`Timed`] when
/// `spans` is given. A panic or an early stop is an error.
fn drive<E: Engine>(
    runner: &Runner,
    engine: E,
    graph: &CsrGraph,
    spans: Option<&RefCell<Spans>>,
) -> Result<(E::Output, f64, f64), String> {
    let token = CancelToken::new();
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| match spans {
        Some(spans) => runner.run_with_token(
            Timed::new(engine, spans, graph.vertex_count()),
            graph,
            &token,
        ),
        None => runner.run_with_token(engine, graph, &token),
    }));
    let wall = t0.elapsed().as_secs_f64();
    let cpu = procfs::cpu_seconds() - cpu0;
    match outcome {
        Ok(RunOutcome::Complete(out)) => Ok((out, wall, cpu)),
        Ok(_) => Err("the run stopped before completing".to_string()),
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "the solve panicked".to_string())),
    }
}

/// One solve of `graph` under `config`; a fresh ledger per solve.
pub fn solve(
    workload: Workload,
    graph: &CsrGraph,
    config: &RunConfig,
    scratch: &Scratch,
    spans: Option<&RefCell<Spans>>,
) -> Result<Solved, String> {
    let ledger = config.checkpoint().map(|policy| policy.path.clone());
    if let Some(path) = &ledger {
        let _ = std::fs::remove_file(path);
    }
    let runner = Runner::new(config.clone());
    let solved = match workload.engine() {
        EngineChoice::Apsp => {
            drive(&runner, ApspEngine::new(), graph, spans).map(|(out, wall, cpu)| {
                let imbalance = out.load_imbalance().unwrap_or(1.0);
                Solved {
                    wall,
                    cpu,
                    matrix: out.dist,
                    detail: Detail::Apsp {
                        counters: out.counters,
                        thread_busy: out.thread_busy,
                        imbalance,
                    },
                    ledger_bytes: 0,
                }
            })
        }
        EngineChoice::Dist => {
            let cluster = workload.cluster(scratch);
            cluster
                .validate(graph.vertex_count())
                .map_err(|e| e.to_string())?;
            drive(&runner, DistEngine::new(cluster), graph, spans).map(|(out, wall, cpu)| Solved {
                wall,
                cpu,
                matrix: out.dist,
                detail: Detail::Dist {
                    node_stats: out.node_stats,
                    gather_bytes: out.gather_bytes,
                    gather_rejected: out.gather_rejected,
                    elapsed: out.elapsed,
                },
                ledger_bytes: 0,
            })
        }
    };
    let ledger_bytes = ledger
        .as_ref()
        .and_then(|path| std::fs::metadata(path).ok())
        .map_or(0, |meta| meta.len());
    if let Some(path) = &ledger {
        let _ = std::fs::remove_file(path);
    }
    solved.map(|s| Solved { ledger_bytes, ..s })
}

/// What a run measured and how many solves it checked.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Wall seconds of the timed solves behind the medians, in order.
    pub walls: Vec<f64>,
    /// Checks other than the oracle that failed.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.problems.is_empty()
    }
}

/// Solves once and checks the matrix against the oracle; the solve is
/// returned only when it is correct.
fn checked_solve(
    input: &Input,
    config: &RunConfig,
    scratch: &Scratch,
    spans: Option<&RefCell<Spans>>,
    tally: &mut Tally,
) -> Option<Solved> {
    match solve(input.workload, &input.graph, config, scratch, spans) {
        Ok(solved) => {
            let ok = input.oracle.matches(&solved.matrix);
            tally.record(ok);
            if !ok {
                eprintln!(
                    "{}: the matrix differs from the oracle",
                    input.workload.name()
                );
            }
            ok.then_some(solved)
        }
        Err(error) => {
            tally.record(false);
            eprintln!("{}: solve failed: {error}", input.workload.name());
            None
        }
    }
}

/// The untraced run: end-to-end metrics.
///
/// The run's first solve is the warm-up and is never timed. With
/// `plan.rss_child` it runs in a re-executed child that reports its peak
/// RSS and a checksum of its matrix; otherwise in-process. Timed solves
/// then follow back to back while the next one fits in `plan.seconds`.
/// The first [`SETUP_SAMPLES`] of them each follow one `setup_s` sample,
/// so the loads are spread over seconds of the run rather than one spell
/// of the host.
pub fn measure_end_to_end(input: &Input, plan: &Plan, scratch: &Scratch) -> Outcome {
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut metrics = Metrics::new();
    let path = scratch.edge_list();
    let warm_up = if plan.rss_child {
        match rss_child(input, scratch) {
            Ok(child) => {
                let ok = child.checksum == input.oracle.checksum();
                tally.record(ok);
                if !ok {
                    eprintln!(
                        "{}: the RSS child's matrix differs from the oracle",
                        input.workload.name()
                    );
                }
                metrics.insert("peak_rss_mb", child.peak_kb as f64 / 1024.0);
                child.solve_s
            }
            Err(error) => {
                tally.record(false);
                eprintln!("{}: RSS child failed: {error}", input.workload.name());
                0.0
            }
        }
    } else {
        checked_solve(input, &input.config, scratch, None, &mut tally).map_or(0.0, |s| s.wall)
    };
    let (mut walls, mut cpus, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let (mut taken, mut next) = (0, warm_up);
    while plan.wants_sample(taken, plan.min_samples, start.elapsed().as_secs_f64(), next) {
        if taken < SETUP_SAMPLES {
            setups.push(setup_sample(&path));
        }
        if let Some(solved) = checked_solve(input, &input.config, scratch, None, &mut tally) {
            walls.push(solved.wall);
            cpus.push(solved.cpu);
        }
        taken += 1;
        // The loads and the oracle check are part of a sample's cost.
        next = start.elapsed().as_secs_f64() / taken as f64;
    }
    setups.resize_with(SETUP_SAMPLES, || setup_sample(&path));
    let mut loads = Vec::with_capacity(SETUP_SAMPLES);
    for setup in setups {
        match setup {
            Ok(seconds) => loads.push(seconds),
            Err(error) => problems.push(error),
        }
    }
    metrics.insert("setup_s", median(&loads));
    metrics.insert("solve_s", median(&walls));
    metrics.insert("cpu_s", median(&cpus));
    Outcome {
        tally,
        metrics,
        walls,
        problems,
    }
}

/// The traced run: per-layer metrics.
///
/// After an in-process warm-up, untraced and [`Timed`] solves alternate,
/// and `trace.overhead` is the median ratio within adjacent pairs, which
/// share the host's slow drift; layer metrics are medians over the traced
/// solves. Microbenchmarks of the layer APIs run on the workload's own
/// graph and exact rows.
pub fn measure_layers(input: &Input, plan: &Plan, scratch: &Scratch) -> Outcome {
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let warm_up =
        checked_solve(input, &input.config, scratch, None, &mut tally).map_or(0.0, |s| s.wall);
    let spans = RefCell::new(Spans::default());
    let (mut untraced, mut traced, mut pair_ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_solve: Vec<Metrics> = Vec::new();
    let start = Instant::now();
    let (mut pairs, mut next) = (0, 2.0 * warm_up);
    while plan.wants_sample(pairs, TRACED_MIN_PAIRS, start.elapsed().as_secs_f64(), next) {
        let plain = checked_solve(input, &input.config, scratch, None, &mut tally).map(|s| s.wall);
        untraced.extend(plain);
        if let Some(solved) = checked_solve(input, &input.config, scratch, Some(&spans), &mut tally)
        {
            traced.push(solved.wall);
            pair_ratios.extend(plain.map(|wall| solved.wall / wall));
            per_solve.push(solve_layers(&solved, &spans.borrow()));
        }
        pairs += 1;
        next = start.elapsed().as_secs_f64() / pairs as f64;
    }

    let mut metrics = Metrics::new();
    let names: Vec<&'static str> = per_solve
        .first()
        .map_or(Vec::new(), |m| m.keys().copied().collect());
    for name in names {
        let values: Vec<f64> = per_solve
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        metrics.insert(name, median(&values));
    }
    metrics.extend(microbenchmarks(input));

    let untraced_s = median(&untraced);
    metrics.insert("trace.samples", traced.len() as f64);
    metrics.insert("trace.untraced_solve_s", untraced_s);
    if !pair_ratios.is_empty() {
        metrics.insert("trace.overhead", median(&pair_ratios) - 1.0);
    }
    if input.workload.measures_speedup() {
        let single = input.config.clone().with_threads(1);
        if let Some(solved) = checked_solve(input, &single, scratch, None, &mut tally) {
            metrics.insert("parfor.speedup", ratio(solved.wall, untraced_s));
        }
    }
    let relax_ns = metrics["kernel.relax_ns_per_row"];
    let reuses = metrics.get("kernel.row_reuses").copied().unwrap_or(0.0);
    let busy = metrics.get("kernel.busy_s").copied().unwrap_or(0.0);
    metrics.insert(
        "kernel.relax_share_est",
        ratio(reuses * relax_ns * 1e-9, busy),
    );
    // Computed, not measured: a row relax reads the published row and
    // reads and writes the caller's row, 4 bytes an entry each.
    metrics.insert(
        "kernel.relax_gb_est",
        reuses * 12.0 * input.graph.vertex_count() as f64 / 1e9,
    );
    let misses = metrics.get("store.lease_misses").copied().unwrap_or(0.0);
    metrics.insert(
        "store.miss_s_est",
        misses * metrics["store.read_row_us"] * 1e-6,
    );

    let coverage = metrics.get("core.coverage").copied().unwrap_or(0.0);
    if coverage < 0.95 {
        problems.push(format!("core.coverage {coverage:.3} is below 0.95"));
    }
    Outcome {
        tally,
        metrics,
        walls: traced,
        problems,
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over an idle layer).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The layer metrics one traced solve yields.
fn solve_layers(solved: &Solved, spans: &Spans) -> Metrics {
    let secs = Duration::as_secs_f64;
    let mut m = Metrics::new();
    let covered = secs(&spans.total());
    m.insert("core.prepare_s", secs(&spans.prepare));
    m.insert("core.sweep_s", secs(&spans.sweep));
    m.insert("core.finish_s", secs(&spans.finish));
    m.insert("core.other_s", solved.wall - covered);
    m.insert("core.coverage", ratio(covered, solved.wall));
    m.insert("parfor.claims", spans.claims as f64);
    m.insert("parfor.steals", spans.steals as f64);
    m.insert("store.readback_s", secs(&spans.readback));

    let commit_ms: Vec<f64> = spans.commits.iter().map(|d| secs(d) * 1e3).collect();
    let commit_s = commit_ms.iter().sum::<f64>() / 1e3;
    let append_s = secs(&spans.append);
    let ledger_mb = solved.ledger_bytes as f64 / MIB;
    m.insert("persist.append_s", append_s);
    m.insert("persist.commit_s", commit_s);
    m.insert("persist.commits", commit_ms.len() as f64);
    m.insert("persist.commit_ms_p50", quantile(&commit_ms, 0.5));
    m.insert("persist.commit_ms_p90", quantile(&commit_ms, 0.9));
    m.insert("persist.ledger_mb", ledger_mb);
    m.insert("persist.open_s", secs(&spans.open));
    m.insert("persist.mb_per_s", ratio(ledger_mb, append_s + commit_s));

    match &solved.detail {
        Detail::Apsp {
            counters: c,
            thread_busy,
            imbalance,
        } => {
            let busy: f64 = thread_busy.iter().map(secs).sum();
            let row_us: Vec<f64> = spans.row_nanos.iter().map(|&ns| ns as f64 / 1e3).collect();
            m.insert("kernel.busy_s", busy);
            m.insert("kernel.queue_pops", c.queue_pops as f64);
            m.insert("kernel.relaxations", c.relaxations as f64);
            m.insert("kernel.row_reuses", c.row_reuses as f64);
            m.insert(
                "kernel.reuse_per_pop",
                ratio(c.row_reuses as f64, c.queue_pops as f64),
            );
            m.insert("kernel.row_us_p50", quantile(&row_us, 0.5));
            m.insert("kernel.row_us_p99", quantile(&row_us, 0.99));
            m.insert(
                "parfor.busy_frac",
                ratio(busy, THREADS as f64 * secs(&spans.sweep)),
            );
            m.insert("parfor.imbalance", *imbalance);
            m.insert("store.lease_hits", c.lease_hits as f64);
            m.insert("store.lease_misses", c.lease_misses as f64);
            m.insert(
                "store.miss_ratio",
                ratio(
                    c.lease_misses as f64,
                    (c.lease_hits + c.lease_misses) as f64,
                ),
            );
            m.insert("store.decode_ahead_hits", c.decode_ahead_hits as f64);
            m.insert("store.pinned_kb_peak", c.pinned_bytes_peak as f64 / 1024.0);
        }
        Detail::Dist {
            node_stats,
            gather_bytes,
            gather_rejected,
            elapsed,
        } => {
            let sum =
                |field: fn(&NodeStats) -> u64| node_stats.iter().map(field).sum::<u64>() as f64;
            let local = sum(|s| s.local_reuses);
            let remote = sum(|s| s.remote_reuses);
            let gather_mb = *gather_bytes as f64 / MIB;
            let max_sources = node_stats.iter().map(|s| s.sources).max().unwrap_or(0) as f64;
            m.insert("kernel.row_reuses", local + remote);
            m.insert("dist.elapsed_s", secs(elapsed));
            m.insert("dist.gather_mb", gather_mb);
            m.insert("dist.broadcast_mb", sum(|s| s.bytes_sent) / MIB);
            m.insert("dist.gather_mb_per_s", ratio(gather_mb, secs(elapsed)));
            m.insert("dist.remote_reuse_frac", ratio(remote, local + remote));
            m.insert("dist.retries", sum(|s| s.retries));
            m.insert(
                "dist.rows_rejected",
                sum(|s| s.rows_rejected) + *gather_rejected as f64,
            );
            m.insert("dist.heartbeat_misses", sum(|s| s.heartbeat_misses));
            m.insert(
                "dist.source_imbalance",
                ratio(max_sources * node_stats.len() as f64, sum(|s| s.sources)),
            );
        }
    }
    m
}

/// Direct calls into the ordering, relax and store APIs at the workload's
/// size, on exact rows from the baseline heap Dijkstra.
fn microbenchmarks(input: &Input) -> Metrics {
    let graph = &input.graph;
    let n = graph.vertex_count();
    let mut m = Metrics::new();

    let degrees = degree::out_degrees(graph);
    let pool = ThreadPool::new(THREADS);
    // The dist driver orders sources itself, always with MultiLists.
    let ordering = match input.workload.engine() {
        EngineChoice::Apsp => input.config.ordering(),
        EngineChoice::Dist => OrderingProcedure::multi_lists(),
    };
    let order_s: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(ordering.compute(&degrees, &pool));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    m.insert("order.s", median(&order_s));

    let count = MICRO_ROWS.min(n);
    let sources: Vec<u32> = (0..count).map(|i| (i * n / count) as u32).collect();
    let rows: Vec<Vec<u32>> = sources
        .iter()
        .map(|&s| {
            let mut row = vec![INF; n];
            baselines::dijkstra_sssp(graph, s, &mut row);
            row
        })
        .collect();

    let relax_impl = input.config.kernel().relax;
    let mut scratch_row = vec![INF; n];
    let mut calls = 0usize;
    let t0 = Instant::now();
    while calls < 256 || t0.elapsed() < Duration::from_millis(50) {
        let t_row = &rows[calls % rows.len()];
        black_box(relax::relax_row(
            relax_impl,
            &mut scratch_row,
            t_row,
            1 + (calls % 3) as u32,
            u32::MAX,
        ));
        calls += 1;
    }
    m.insert(
        "kernel.relax_ns_per_row",
        t0.elapsed().as_secs_f64() * 1e9 / calls as f64,
    );

    let spec = input.config.store();
    let alloc_s: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let store = black_box(Store::new(n, spec));
            let elapsed = t0.elapsed().as_secs_f64();
            drop(store);
            elapsed
        })
        .collect();
    m.insert("store.alloc_s", median(&alloc_s));
    let store = Store::new(n, spec);
    let t0 = Instant::now();
    for (&s, row) in sources.iter().zip(&rows) {
        store.publish_from(s, row);
    }
    m.insert(
        "store.publish_us",
        t0.elapsed().as_secs_f64() * 1e6 / rows.len() as f64,
    );
    let reads = 4 * rows.len();
    let mut buf = vec![0u32; n];
    let t0 = Instant::now();
    for i in 0..reads {
        // A stride coprime to the row count visits rows out of order.
        black_box(store.read_row_into(sources[(i * 7) % sources.len()], &mut buf));
    }
    m.insert(
        "store.read_row_us",
        t0.elapsed().as_secs_f64() * 1e6 / reads as f64,
    );
    let stored = match store.kind() {
        StoreKind::Dense => store.stored_bytes() as f64,
        _ => store.stored_bytes() as f64 / rows.len() as f64 * n as f64,
    };
    m.insert("store.stored_mb", stored / MIB);
    m
}

/// What the peak-RSS child reports.
pub struct ChildReport {
    pub peak_kb: u64,
    pub checksum: u64,
    pub solve_s: f64,
}

impl ChildReport {
    pub fn line(&self) -> String {
        format!(
            "RSS_CHILD peak_kb={} checksum={:016x} solve_s={}",
            self.peak_kb, self.checksum, self.solve_s
        )
    }

    fn parse(stdout: &str) -> Result<ChildReport, String> {
        let line = stdout
            .lines()
            .find(|l| l.starts_with("RSS_CHILD "))
            .ok_or_else(|| format!("no RSS_CHILD line in {stdout:?}"))?;
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("RSS_CHILD line lacks {key}: {line}"))
        };
        Ok(ChildReport {
            peak_kb: field("peak_kb")?.parse().map_err(|_| "bad peak_kb")?,
            checksum: u64::from_str_radix(field("checksum")?, 16).map_err(|_| "bad checksum")?,
            solve_s: field("solve_s")?.parse().map_err(|_| "bad solve_s")?,
        })
    }
}

/// Re-executes this binary to load the input and solve it once in a
/// fresh process, whose `VmHWM` is then the solve's own peak.
fn rss_child(input: &Input, scratch: &Scratch) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = Command::new(exe)
        .arg("--rss-child")
        .args(["--workload", input.workload.name()])
        .arg("--graph")
        .arg(scratch.edge_list())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the RSS child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the RSS child exited with {}", output.status));
    }
    ChildReport::parse(&String::from_utf8_lossy(&output.stdout))
}

/// The child side of [`rss_child`].
pub fn rss_child_main(
    workload: Workload,
    graph_path: &Path,
    scratch: &Scratch,
) -> Result<ChildReport, String> {
    let graph = load_edge_list(graph_path)?;
    let config = workload.run_config(graph.vertex_count(), scratch);
    let solved = solve(workload, &graph, &config, scratch, None)?;
    let peak_kb = procfs::vm_hwm_kb();
    Ok(ChildReport {
        peak_kb,
        checksum: matrix_checksum(&solved.matrix),
        solve_s: solved.wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::LEDGER_EVERY;

    fn test_scratch(tag: &str) -> Scratch {
        Scratch::create(
            std::env::temp_dir().join(format!("apsp-bench-tests-{}-{tag}", std::process::id())),
        )
        .unwrap()
    }

    fn plan() -> Plan {
        Plan {
            n: 300,
            seed: 3,
            seconds: 0.0,
            min_samples: 2,
            rss_child: false,
        }
    }

    /// The Timed adapter sees every row append and every commit of a
    /// ledger run, and its spans never exceed the wall time around them.
    #[test]
    fn timed_adapter_sees_every_append_and_commit() {
        for workload in [Workload::HepphDense, Workload::HepphOutofcore] {
            let scratch = test_scratch(workload.name());
            let input = Input::prepare(workload, &plan(), &scratch).unwrap();
            let n = input.graph.vertex_count();
            let spans = RefCell::new(Spans::default());
            let solved = solve(
                workload,
                &input.graph,
                &input.config,
                &scratch,
                Some(&spans),
            )
            .unwrap();
            assert!(input.oracle.matches(&solved.matrix));
            let spans = spans.into_inner();
            let ledger = input.config.checkpoint().is_some();
            assert_eq!(ledger, workload == Workload::HepphOutofcore);
            if ledger {
                assert_eq!(spans.appends, n as u64);
                assert_eq!(spans.commits.len(), n.div_ceil(LEDGER_EVERY));
                assert!(solved.ledger_bytes > (n * n * 4) as u64);
            } else {
                assert_eq!(spans.appends, 0);
                assert!(spans.commits.is_empty());
            }
            assert!(spans.total().as_secs_f64() <= solved.wall);
            assert!(spans.sweep > Duration::ZERO);
            assert!(spans.row_nanos.iter().all(|&ns| ns > 0));
            assert!(!scratch.ledger().exists());
        }
    }

    /// The harness end to end at n=300, through the same code a full-size
    /// run takes: every solve matches the oracle and every metric is
    /// produced.
    #[test]
    fn harness_runs_the_shared_memory_workloads() {
        for workload in [
            Workload::HepphDense,
            Workload::WsWide,
            Workload::HepphOutofcore,
        ] {
            let scratch = test_scratch(&format!("e2e-{}", workload.name()));
            let input = Input::prepare(workload, &plan(), &scratch).unwrap();
            let e2e = measure_end_to_end(&input, &plan(), &scratch);
            assert!(e2e.correct(), "{}", workload.name());
            assert_eq!(e2e.tally.attempted, 3);
            assert_eq!(e2e.walls.len(), 2);
            assert!(e2e.metrics["solve_s"] > 0.0 && e2e.metrics["setup_s"] > 0.0);

            let layers = measure_layers(&input, &plan(), &scratch);
            assert_eq!(layers.tally.failed, 0, "{}", workload.name());
            for (name, _) in crate::report::PER_LAYER {
                let applies = !name.starts_with("dist.")
                    && (name != "parfor.speedup" || workload.measures_speedup());
                if applies {
                    assert!(
                        layers.metrics.contains_key(name),
                        "{}: {name}",
                        workload.name()
                    );
                }
            }
            assert!(layers.metrics["kernel.row_reuses"] > 0.0);
            let ledger = workload == Workload::HepphOutofcore;
            assert_eq!(layers.metrics["persist.commits"] > 0.0, ledger);
            assert_eq!(layers.metrics["store.lease_misses"] > 0.0, ledger);
            drop(input);
            let leftovers = std::fs::read_dir(scratch.dir()).unwrap().count();
            assert_eq!(leftovers, 1, "only the edge list remains");
        }
    }
}
