//! `solver_scaling` — the per-source SSSP solver comparison benchmark.
//!
//! Sweeps the [`SolverKind`] axis {dijkstra, delta:auto, auto}
//! through `ParAPSP` (via [`Runner`]/[`ApspEngine`], 4 threads) over
//! graph classes chosen to separate the solvers: the paper's
//! narrow-weight Barabási–Albert / Erdős–Rényi / Watts–Strogatz trio,
//! the same ER and WS topologies with a 1..=1000 weight range (wide
//! weights on the dense regular WS class are where Δ-stepping wins), a
//! sparse wide ER control, and a unit-weight BA control (the
//! modified-Dijkstra home turf). Wall time plus the kernel counters
//! (relaxations, queue pops, row reuses) are recorded per cell.
//!
//! Emits `BENCH_solver.json` at the workspace root (override with
//! `--out <path>`). Flags: `--iters <N>` measurement repetitions per
//! cell (default 3, best-of), `--quick` shrinks the graphs for CI smoke
//! runs, `--n <V>` overrides the vertex count.
//!
//! Every cell's distance matrix is asserted bit-identical to the
//! sequential baseline, so every published number doubles as a
//! differential check of solver invariance.

use std::time::Instant;

use parapsp_core::{ApspEngine, DistanceMatrix, RunConfig, Runner, SeqEngine, SolverKind};
use parapsp_graph::generate::{barabasi_albert, erdos_renyi_gnm, watts_strogatz, WeightSpec};
use parapsp_graph::{CsrGraph, Direction};

const NARROW: WeightSpec = WeightSpec::Uniform { lo: 1, hi: 9 };
const WIDE: WeightSpec = WeightSpec::Uniform { lo: 1, hi: 1000 };

/// Threads for the end-to-end sweep (fixed: the solver axis, not the
/// scaling axis, is under test here).
const THREADS: usize = 4;

fn solvers() -> [(&'static str, SolverKind); 3] {
    [
        ("dijkstra", SolverKind::Dijkstra),
        ("delta:auto", SolverKind::Delta { delta: None }),
        ("auto", SolverKind::Auto),
    ]
}

fn graphs(n: usize) -> Vec<(String, CsrGraph)> {
    let m = n * 4;
    vec![
        (
            format!("ba_n{n}_w1-9"),
            barabasi_albert(n, 4, NARROW, 42).expect("BA generation"),
        ),
        (
            format!("ba_n{n}_unit"),
            barabasi_albert(n, 4, WeightSpec::Unit, 45).expect("BA generation"),
        ),
        (
            format!("er_n{n}_w1-9"),
            erdos_renyi_gnm(n, m, Direction::Directed, NARROW, 43).expect("ER generation"),
        ),
        (
            format!("er_n{n}_w1-1000"),
            erdos_renyi_gnm(n, m, Direction::Directed, WIDE, 43).expect("ER generation"),
        ),
        (
            // Sparse + wide control: despite long weighted paths the FIFO
            // kernel's relaxation count stays near-optimal here and it
            // keeps winning — kept to stop the tuner over-claiming.
            format!("er-sparse_n{n}_w1-1000"),
            erdos_renyi_gnm(n, n * 3 / 2, Direction::Directed, WIDE, 46).expect("ER generation"),
        ),
        (
            format!("ws_n{n}_w1-9"),
            watts_strogatz(n, 8, 0.2, NARROW, 44).expect("WS generation"),
        ),
        (
            format!("ws_n{n}_w1-1000"),
            watts_strogatz(n, 8, 0.2, WIDE, 44).expect("WS generation"),
        ),
    ]
}

struct Measurement {
    graph: String,
    solver: &'static str,
    kind: SolverKind,
    ms: f64,
    relaxations: u64,
    queue_pops: u64,
    row_reuses: u64,
}

/// One timed run of a (graph, solver) cell with a bit-identity check
/// against the sequential reference; folds into the best-of accumulator.
///
/// Cells are interleaved across iterations by the caller (round-robin
/// with a rotating offset) so environmental drift spreads evenly instead
/// of penalizing whichever solver runs last.
fn run_cell_once(graph: &CsrGraph, reference: &DistanceMatrix, cell: &mut Measurement) {
    let runner = Runner::new(RunConfig::par_apsp(THREADS).with_solver(cell.kind));
    let start = Instant::now();
    let out = runner.run(ApspEngine::new(), graph);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        out.dist.as_slice(),
        reference.as_slice(),
        "{} {}: distances differ from seq-basic",
        cell.graph,
        cell.solver
    );
    if ms < cell.ms {
        cell.ms = ms;
        cell.relaxations = out.counters.relaxations;
        cell.queue_pops = out.counters.queue_pops;
        cell.row_reuses = out.counters.row_reuses;
    }
}

fn json_escape_free(name: &str) -> &str {
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_-.:".contains(c)),
        "label {name:?} needs JSON escaping"
    );
    name
}

fn write_json(
    path: &std::path::Path,
    n: usize,
    iters: usize,
    results: &[Measurement],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"solver_scaling\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str(&format!("  \"threads\": {THREADS},\n"));
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"graph\": \"{}\", \"solver\": \"{}\", \"ms\": {:.3}, \
             \"relaxations\": {}, \"queue_pops\": {}, \"row_reuses\": {}}}{}\n",
            json_escape_free(&r.graph),
            json_escape_free(r.solver),
            r.ms,
            r.relaxations,
            r.queue_pops,
            r.row_reuses,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

/// Default output location: `BENCH_solver.json` at the workspace root.
fn default_out_path() -> std::path::PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| {
            std::path::PathBuf::from(d)
                .parent()
                .and_then(|p| p.parent())
                .map(|p| p.to_path_buf())
                .unwrap_or_else(|| std::path::PathBuf::from("."))
        })
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    base.join("BENCH_solver.json")
}

fn main() {
    let mut iters = 3usize;
    let mut n: Option<usize> = None;
    let mut quick = false;
    let mut out_path = default_out_path();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--iters needs a positive integer");
            }
            "--n" => {
                n = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--n needs a positive integer"),
                );
            }
            "--quick" => quick = true,
            "--out" => {
                out_path = args.next().expect("--out needs a path").into();
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: solver_scaling [--iters N] [--n V] [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let n = n.unwrap_or(if quick { 400 } else { 2000 });
    if quick {
        iters = 1;
    }
    assert!(iters > 0 && n > 0);

    println!("solver_scaling: n={n}, threads={THREADS}, iters={iters} (best-of)");

    let inputs: Vec<(String, CsrGraph, DistanceMatrix)> = graphs(n)
        .into_iter()
        .map(|(label, graph)| {
            let reference = Runner::new(RunConfig::seq_basic())
                .run(SeqEngine::ordered(), &graph)
                .dist;
            (label, graph, reference)
        })
        .collect();
    let mut results: Vec<Measurement> = Vec::new();
    for (label, _, _) in &inputs {
        for (solver_label, kind) in solvers() {
            results.push(Measurement {
                graph: label.clone(),
                solver: solver_label,
                kind,
                ms: f64::INFINITY,
                relaxations: 0,
                queue_pops: 0,
                row_reuses: 0,
            });
        }
    }
    let cells_per_graph = results.len() / inputs.len();
    for it in 0..iters {
        let offset = (it * 11) % results.len();
        for j in 0..results.len() {
            let i = (j + offset) % results.len();
            let (_, graph, reference) = &inputs[i / cells_per_graph];
            run_cell_once(graph, reference, &mut results[i]);
        }
    }
    for m in &results {
        println!(
            "  {:<18}  {:<10}  {:>9.3} ms  (relax {}, pops {}, reuses {})",
            m.graph, m.solver, m.ms, m.relaxations, m.queue_pops, m.row_reuses
        );
    }

    write_json(&out_path, n, iters, &results).expect("writing benchmark JSON");
    println!("wrote {}", out_path.display());
}
