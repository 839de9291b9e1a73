//! `apsp_bench` — the oracle-checked end-to-end benchmark of the ParAPSP
//! user path, with an outside-in layer trace.
//!
//! Each run drives exactly what `parapsp apsp <file> --threads 2` drives:
//! the generated graph is written as a SNAP edge list, loaded with
//! `read_edge_list_file`, and solved by `Runner::run_with_token` (the
//! CLI's default, interruptible entry point) with `ApspEngine` or
//! `DistEngine` under a `RunConfig` built the way the CLI's `configure`
//! builds it. Every solve is checked against an independent oracle —
//! per-source BFS (`baselines::par_apsp_bfs`) on unit weights, per-source
//! heap Dijkstra (`baselines::par_apsp_dijkstra`) otherwise — which is
//! computed once per run, never timed, and kept as one FNV-1a digest per
//! row, so the whole matrix is compared while only one O(n²) matrix is
//! resident. A wrong matrix, an error or a panic counts as a failed solve
//! and the run goes on.
//!
//! # Workloads
//!
//! All are closed loops: one caller runs solves back to back on 2 threads
//! (the host's core count), and the first solve of a run is a discarded
//! warm-up. Every input has 8,000 vertices: the ca-HepPh replica is
//! scaled down from the paper's 12,008 so that the out-of-core and dist
//! workloads (≈ 3 s a solve) still fit several timed solves into a run,
//! and the three hepph workloads share one input. Inputs come from
//! `--seed`; vertex ids are relabelled by a seeded permutation, so no
//! workload profits from an id–degree locality that real inputs lack.
//!
//! | workload | input and config | why |
//! |---|---|---|
//! | `hepph-dense` | ca-HepPh replica (BA m=10, unit weights), dense store, ParAPSP defaults | The paper's graph. Hub-driven row reuse (`relax_row`) and the 256 MB dense allocation do most of the work; the store codec, ledger and dist do none. |
//! | `ws-wide` | Watts–Strogatz k=8, β=0.2, weights 1..1000, dense store | High diameter and wide weights: many more queue pops per source and little reuse per pop, so the kernel's queue and edge-scan path dominates. |
//! | `hepph-outofcore` | same replica, `--store mmap:<n²·4/8>`, `--ledger` with the CLI defaults (fsync on commit, every 64 rows) | Writes beside reads: shard `pwrite` and ledger append/fsync alongside lease misses, `pread` and decode-ahead. |
//! | `hepph-dist` | same replica, `DistEngine` with 2 worker processes over Unix sockets, hub fraction 0.05, cyclic-degree partition | The only workload where wire, transport and gather do work (≈ 256 MB gathered per solve); the shared-memory store and ledger are idle. Workers are this binary re-executed with `--node`. |
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Medians over the timed samples; the human-readable lines state the
//! sample count. A run takes timed solves while the next one fits in
//! `--seconds`, and at least 5.
//!
//! * `solve_s` — wall time of one Runner call, from pool spawn to output.
//! * `setup_s` — `read_edge_list_file` on the workload's edge list (the
//!   harness writes it once): the median of 9 samples, each the mean of
//!   16 loads, taken before the first 9 timed solves (the rest after the
//!   last one, in runs with fewer).
//! * `cpu_s` — user + system time per solve from `/proc/self/stat`, plus
//!   the reaped worker processes' for dist.
//! * `peak_rss_mb` — `VmHWM` of a re-executed child that loads the graph
//!   and solves once (the driver process for dist). This solve is the
//!   run's warm-up; the child sends back a checksum of its matrix, which
//!   must equal the oracle's.
//!
//! Failed solves over attempted solves are the result line's `failed` and
//! `attempted`, not a metric, since a metric must never read 0.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! Times the calls into each layer's public functions from this
//! benchmark's own files: a [`timed::Timed`] adapter around the
//! Runner→Engine calls, plus microbenchmarks of the layer APIs on the
//! workload's own graph and exact rows. Untraced and traced solves
//! alternate; layer values are medians over the traced ones. A metric of
//! a layer the workload leaves idle reads 0. The run fails when the spans
//! cover less than 95 % of the traced wall time.
//!
//! | layer (module) | metrics | should move |
//! |---|---|---|
//! | order (`parapsp_order`) | `order.s`: `OrderingProcedure::compute` over `degree::out_degrees` | `solve_s` on every workload, by < 0.1 % |
//! | engine phases (`core::engine`) | `core.prepare_s`, `core.sweep_s` (Σ `run_rows`), `core.finish_s`, `core.other_s`; `core.coverage` = Σ spans / traced wall | `prepare`: `solve_s` and `peak_rss_mb` on hepph-dense. `finish`: `solve_s` and `peak_rss_mb` on hepph-outofcore (the matrix materialisation). |
//! | kernel (`core::kernel`, `relax`, `solver`) | `kernel.busy_s`, `queue_pops`, `relaxations`, `row_reuses`, `reuse_per_pop` (from `Counters` and `thread_busy`); `kernel.row_us_p50`, `row_us_p99` (per-source times); `kernel.relax_ns_per_row` (`relax::relax_row` on exact rows at the workload's n); `relax_share_est` = reuses × ns / busy; `relax_gb_est` (computed bytes moved) | `relax_*`: `solve_s` on hepph-dense. `queue_pops`, `row_us`: `solve_s` on ws-wide. |
//! | parfor (`parapsp_parfor`) | `parfor.busy_frac` = Σ busy / (threads × sweep); `parfor.imbalance`; `parfor.claims`, `parfor.steals` (`take_schedule_stats` on the sweep's pool); `parfor.speedup` = t=1 / t=2 `solve_s`, on hepph-dense and ws-wide | `solve_s` on hepph-dense and ws-wide; `busy_frac` also on hepph-outofcore, whose pool idles at every ledger batch barrier |
//! | store (`core::store`) | `store.lease_hits`, `lease_misses`, `miss_ratio`, `decode_ahead_hits`, `pinned_kb_peak` (from `Counters`); `store.alloc_s` (`Store::new`), `publish_us` (`publish_from`), `read_row_us` (`read_row_into`), `stored_mb`; `store.miss_s_est` = misses × read_row_us; `store.readback_s` = `visit_rows` minus its callback | `solve_s` and `peak_rss_mb` on hepph-outofcore; `alloc_s` on hepph-dense; ≈ 0 on ws-wide |
//! | persist (`core::persist`) | `persist.append_s` (inside the `visit_rows` callback, where `RowLedger::append` runs); `persist.commit_s` (from `visit_rows` returning to the next Engine call: commit + fsync); `persist.commits`, `commit_ms_p50`, `commit_ms_p90`, `ledger_mb`, `mb_per_s` | `solve_s` on hepph-outofcore only |
//! | dist (`parapsp_dist`) | `dist.elapsed_s`, `gather_mb`, `broadcast_mb`, `gather_mb_per_s`, `remote_reuse_frac`, `retries`, `rows_rejected`, `heartbeat_misses`, `source_imbalance` | `solve_s` and `cpu_s` on hepph-dist only |
//! | trace | `trace.overhead` = median over `trace.samples` adjacent pairs of traced / untraced `solve_s`, − 1; `trace.untraced_solve_s` is the untraced median | none |
//!
//! Predictions the first trace should confirm (2 threads, 8,000
//! vertices), and what it measured at seed 5 on a 2-vCPU x86-64 VM:
//! `core.prepare_s` is ≈ 15 % of `solve_s` on hepph-dense (0.15 s of
//! 0.95 s, 16 %); persist (`append_s` + `commit_s`) is ≈ 40 % of `solve_s`
//! on hepph-outofcore (0.86 s of 3.7 s, 23 %, or 28 % with
//! `persist.open_s`: not confirmed); `peak_rss_mb` on the mmap path
//! exceeds dense, because `ApspEngine::finish` materialises the matrix
//! (292 MiB against 249 MiB).
//!
//! # Commands
//!
//! ```text
//! B="cargo run --release --manifest-path crates/bench/src/bin/apsp_bench/Cargo.toml --"
//! $B --workload hepph-dense --seed 1 --seconds 20 --trace 0   # end-to-end
//! $B --workload hepph-dense --seed 1 --seconds 20 --trace 1   # per-layer
//! $B --workload all --seed 1 --repeat 5 --save A.json         # spreads of 5 runs
//! $B compare A.json B.json                                    # verdict per metric
//! $B --smoke                                                  # all four at n=600
//! ```
//!
//! The last line of a run is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (name → value and unit).
//!
//! `--repeat K` runs each workload K times as a child process and prints,
//! per end-to-end metric, the median of the run medians and two spreads:
//! max / min − 1, and the distance between the quartiles over the median.
//! `compare` reads two `--save` files and prints, per workload and
//! end-to-end metric, both medians, the delta, the bound, the quartile
//! spread (the wider of the two sides) and a verdict: `worse` past the
//! bound, `better` past the spread, `same` in between, `unresolved` when
//! the spread exceeds the bound (unless every run of B beats every run of
//! A); it exits 1 on any `worse` or `unresolved`.

mod oracle;
mod procfs;
mod report;
mod run;
mod timed;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use parapsp_dist::{run_worker, WorkerOptions, WorkerOutcome};

use report::{median, quartile_spread, result_line, spread, Json, END_TO_END, PER_LAYER};
use run::{Input, Outcome, Plan};
use workload::{Scratch, Workload, THREADS, VERTICES};

const USAGE: &str = "usage:
  apsp_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  apsp_bench --workload <name|all> --seed <n> --repeat <k> [--seconds <s>] [--save <file>]
  apsp_bench compare <A.json> <B.json>
  apsp_bench --smoke
workloads: hepph-dense, ws-wide, hepph-outofcore, hepph-dist";

/// Seconds a run measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Timed solves a run takes at least, whatever its time budget.
const MIN_SAMPLES: usize = 5;
/// Vertex count of the smoke run.
const SMOKE_VERTICES: usize = 600;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(error) => {
            eprintln!("apsp_bench: {error}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` lookups over the raw arguments.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("{flag}: invalid value `{raw}`"))
            })
            .transpose()
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two files".to_string()),
        };
    }
    if flags.has("--node") {
        let addr = flags
            .value("--connect")
            .ok_or("--node needs --connect <addr>")?;
        return Ok(node(addr));
    }
    let workload = flags.value("--workload");
    let seed = flags.parsed::<u64>("--seed")?.unwrap_or(1);
    let seconds = flags.parsed::<f64>("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    if let Some(k) = flags.parsed::<usize>("--repeat")? {
        let workloads = match workload {
            None | Some("all") => Workload::ALL.to_vec(),
            Some(name) => vec![Workload::parse(name)?],
        };
        return repeat(&workloads, seed, seconds, k.max(1), flags.value("--save"));
    }

    // Every mode from here on writes files: keep them, mmap shards
    // included (the store puts those under TMPDIR), in a private
    // directory under the current one.
    let scratch =
        Scratch::for_this_process().map_err(|e| format!("creating the scratch directory: {e}"))?;
    let tmp = std::env::current_dir()
        .map_err(|e| format!("reading the current directory: {e}"))?
        .join(scratch.dir());
    // Single-threaded here: nothing else reads the environment yet.
    std::env::set_var("TMPDIR", &tmp);

    if flags.has("--smoke") {
        return smoke(&scratch);
    }
    let workload = Workload::parse(workload.ok_or("--workload is required")?)?;
    if flags.has("--rss-child") {
        let graph = flags
            .value("--graph")
            .ok_or("--rss-child needs --graph <file>")?;
        let report = run::rss_child_main(workload, Path::new(graph), &scratch)?;
        println!("{}", report.line());
        return Ok(ExitCode::SUCCESS);
    }
    let trace = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1 (got `{other}`)")),
    };
    let plan = Plan {
        n: VERTICES,
        seed,
        seconds,
        min_samples: MIN_SAMPLES,
        rss_child: true,
    };
    let outcome = measure(workload, &plan, trace, &scratch)?;
    let names: Vec<&'static str> = if trace {
        PER_LAYER.iter().map(|(name, _)| *name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.tally.attempted,
            outcome.tally.failed,
            &names,
            &outcome.metrics,
        )
    );
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One run of one workload, reported in readable lines.
fn measure(
    workload: Workload,
    plan: &Plan,
    trace: bool,
    scratch: &Scratch,
) -> Result<Outcome, String> {
    let input = Input::prepare(workload, plan, scratch)?;
    println!(
        "{}: n={} arcs={} seed={} threads={} store={} trace={}",
        workload.name(),
        input.graph.vertex_count(),
        input.graph.arc_count(),
        plan.seed,
        THREADS,
        input.config.store().label(),
        u8::from(trace),
    );
    let outcome = if trace {
        run::measure_layers(&input, plan, scratch)
    } else {
        run::measure_end_to_end(&input, plan, scratch)
    };
    for (name, value) in &outcome.metrics {
        println!("  {name:<26} {value:>16.6} {}", report::unit_of(name));
    }
    let walls: Vec<String> = outcome.walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("  timed solves (s): {}", walls.join(" "));
    println!(
        "  medians of {} samples; failed_frac {} ({} of {} solves)",
        outcome.walls.len(),
        outcome.tally.failed_frac(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    for problem in &outcome.problems {
        println!("  problem: {problem}");
    }
    Ok(outcome)
}

/// A dist worker: serves one driver connection, then exits.
fn node(addr: &str) -> ExitCode {
    match run_worker(addr, WorkerOptions::default()) {
        Ok(WorkerOutcome::Clean(_)) => ExitCode::SUCCESS,
        Ok(other) => {
            eprintln!("apsp_bench node: {other:?}");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("apsp_bench node: {error}");
            ExitCode::FAILURE
        }
    }
}

/// All four workloads at n=600 with 2 samples each, traced and untraced,
/// spawned socket workers and the RSS child included.
fn smoke(scratch: &Scratch) -> Result<ExitCode, String> {
    let start = Instant::now();
    let mut ok = true;
    for workload in Workload::ALL {
        let plan = Plan {
            n: SMOKE_VERTICES,
            seed: 1,
            seconds: 0.0,
            min_samples: 2,
            rss_child: true,
        };
        for trace in [false, true] {
            let outcome = measure(workload, &plan, trace, scratch)?;
            // Coverage is a full-size property: at n=600 pool start-up is
            // a visible share of a millisecond solve.
            ok &= outcome.tally.failed == 0;
        }
    }
    println!(
        "smoke: {} in {:.1} s",
        if ok { "ok" } else { "FAILED" },
        start.elapsed().as_secs_f64()
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs each workload `k` times, each run a child process of its own,
/// prints each end-to-end metric's spreads across the runs, and saves the
/// run medians for `compare`.
fn repeat(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    k: usize,
    save: Option<&str>,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut saved: Vec<(Workload, BTreeMap<&'static str, Vec<f64>>)> = Vec::new();
    for &workload in workloads {
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for _ in 0..k {
            let output = Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", "0"])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning a {} run: {e}", workload.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = Json::parse(stdout.lines().last().unwrap_or(""))
                .map_err(|e| format!("{} run printed no result: {e}", workload.name()))?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("a {} run failed its checks", workload.name()));
            }
            for metric in &END_TO_END {
                let value = result
                    .get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{} run lacks {}", workload.name(), metric.name))?;
                values.entry(metric.name).or_default().push(value);
            }
        }
        for metric in &END_TO_END {
            let v = &values[metric.name];
            println!(
                "{:<16} {:<12} median {:>12.6} {:<4} max/min-1 {:>6.2} %  quartiles {:>6.2} %  \
                 (bound {:.0} %, {} runs)",
                workload.name(),
                metric.name,
                median(v),
                metric.unit,
                spread(v) * 100.0,
                quartile_spread(v) * 100.0,
                metric.bound * 100.0,
                v.len()
            );
        }
        saved.push((workload, values));
    }
    if let Some(path) = save {
        let workloads: Vec<String> = saved
            .iter()
            .map(|(w, values)| {
                let metrics: Vec<String> = values
                    .iter()
                    .map(|(name, v)| {
                        let list: Vec<String> = v.iter().map(f64::to_string).collect();
                        format!("\"{name}\": [{}]", list.join(", "))
                    })
                    .collect();
                format!("    \"{}\": {{{}}}", w.name(), metrics.join(", "))
            })
            .collect();
        let body = format!(
            "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            workloads.join(",\n")
        );
        std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
        println!("saved {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The verdict on one metric from A's and B's run medians (every
/// end-to-end metric is lower-is-better).
fn verdict(a: &[f64], b: &[f64], bound: f64) -> &'static str {
    let delta = median(b) / median(a) - 1.0;
    let noise = quartile_spread(a).max(quartile_spread(b));
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| x < y));
    if noise > bound {
        if b_always_better {
            "better"
        } else {
            "unresolved"
        }
    } else if delta > bound {
        "worse"
    } else if -delta > noise {
        "better"
    } else {
        "same"
    }
}

fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let empty = Json::Obj(Vec::new());
    let runs = |doc: &Json, workload: &str, metric: &str| -> Vec<f64> {
        doc.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get(metric))
            .map_or(&[][..], Json::items)
            .iter()
            .filter_map(Json::as_f64)
            .collect()
    };
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound", "spread"
    );
    let mut gate_ok = true;
    for (workload, _) in a.get("workloads").unwrap_or(&empty).fields() {
        for metric in &END_TO_END {
            let (va, vb) = (
                runs(&a, workload, metric.name),
                runs(&b, workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = verdict(&va, &vb, metric.bound);
            gate_ok &= !matches!(verdict, "worse" | "unresolved");
            println!(
                "{:<16} {:<12} {:>12.6} {:>12.6} {:>7.2}% {:>6.1}% {:>6.2}%  {verdict}",
                workload,
                metric.name,
                median(&va),
                median(&vb),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                metric.bound * 100.0,
                quartile_spread(&va).max(quartile_spread(&vb)) * 100.0,
            );
        }
    }
    Ok(if gate_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [1.00, 1.01, 1.02];
        assert_eq!(verdict(&a, &[1.00, 1.02, 1.01], 0.05), "same");
        assert_eq!(verdict(&a, &[1.10, 1.11, 1.12], 0.05), "worse");
        assert_eq!(verdict(&a, &[0.90, 0.91, 0.92], 0.05), "better");
        assert_eq!(verdict(&[1.0, 1.2], &[1.0, 1.1], 0.05), "unresolved");
        assert_eq!(verdict(&[1.0, 1.2], &[0.5, 0.6], 0.05), "better");
    }
}
