//! `solver_scaling` — the per-source SSSP solver comparison benchmark.
//!
//! Sweeps the [`SolverKind`] axis {dijkstra, delta:auto, msbfs, auto}
//! through `ParAPSP` (via [`Runner`]/[`ApspEngine`], 4 threads) over graph
//! classes chosen to separate the solvers: the paper's narrow-weight
//! BA / ER / WS trio, ER and WS with weights 1..=1000 (wide weights on
//! the dense regular WS class are where Δ-stepping wins), a sparse wide
//! ER control, and the same BA / ER / WS trio with unit weights, where
//! msbfs runs (it runs nowhere else: it needs unit weights), plus a
//! square grid with unit weights: the high-diameter guard, where the
//! MS-BFS runs ~2√n levels of thin frontiers instead of the small
//! worlds' handful of wide ones. Each cell
//! records wall time and the kernel's relaxations, queue pops and row
//! reuses.
//!
//! Emits `BENCH_solver.json` at the workspace root (override with
//! `--out <path>`). Flags: `--iters <N>` interleaved passes (default 3;
//! each cell reports the median), `--quick` shrinks the graphs and takes
//! one pass for CI smoke runs, `--n <V>` overrides the vertex count.
//! Every run's matrix must equal seq-basic's, so every published number
//! doubles as a differential check of solver invariance.

use parapsp_bench::harness::{self, Arg, Bench, Sample};
use parapsp_bench::time;
use parapsp_core::{ApspEngine, RunConfig, Runner, SolverKind};
use parapsp_graph::generate::{
    barabasi_albert, erdos_renyi_gnm, grid_graph, watts_strogatz, WeightSpec,
};
use parapsp_graph::{CsrGraph, Direction};

const BENCH: Bench = Bench {
    name: "solver_scaling",
    file: "BENCH_solver.json",
    flags: &[
        ("--iters", "N", Arg::Count),
        ("--n", "V", Arg::Count),
        ("--quick", "", Arg::Switch),
        ("--out", "PATH", Arg::Text),
    ],
};

const NARROW: WeightSpec = WeightSpec::Uniform { lo: 1, hi: 9 };
const WIDE: WeightSpec = WeightSpec::Uniform { lo: 1, hi: 1000 };

/// Threads for the end-to-end sweep (fixed: the solver axis, not the
/// scaling axis, is under test here).
const THREADS: usize = 4;

fn solvers() -> [(&'static str, SolverKind); 4] {
    [
        ("dijkstra", SolverKind::Dijkstra),
        ("delta:auto", SolverKind::Delta { delta: None }),
        ("msbfs", SolverKind::MsBfs),
        ("auto", SolverKind::Auto),
    ]
}

fn graphs(n: usize) -> Vec<(String, CsrGraph)> {
    let m = n * 4;
    let side = (n as f64).sqrt().round() as usize;
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
            format!("er_n{n}_unit"),
            erdos_renyi_gnm(n, m, Direction::Directed, WeightSpec::Unit, 43)
                .expect("ER generation"),
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
            format!("ws_n{n}_unit"),
            watts_strogatz(n, 8, 0.2, WeightSpec::Unit, 44).expect("WS generation"),
        ),
        (
            format!("ws_n{n}_w1-1000"),
            watts_strogatz(n, 8, 0.2, WIDE, 44).expect("WS generation"),
        ),
        (format!("grid_{side}x{side}_unit"), grid_graph(side, side)),
    ]
}

fn main() {
    let args = BENCH.parse_env();
    let quick = args.switch("--quick");
    let n = args.get("--n").unwrap_or(if quick { 400 } else { 2000 });
    let iters = if quick {
        1
    } else {
        args.get("--iters").unwrap_or(3)
    };
    println!("solver_scaling: n={n}, threads={THREADS}, iters={iters} (median)");

    let configs = solvers().map(|(label, kind)| (vec![("solver", label.into())], kind));
    // msbfs cells run on the unit-weight graphs only.
    let unit_or_any =
        |graph: &CsrGraph, kind: &SolverKind| *kind != SolverKind::MsBfs || graph.is_unit_weight();
    let cells = harness::sweep_where(&graphs(n), &configs, iters, unit_or_any, |graph, &kind| {
        let runner = Runner::new(RunConfig::par_apsp(THREADS).with_solver(kind));
        let (out, elapsed) = time(|| runner.run(ApspEngine::new(), graph));
        let counters = vec![
            ("relaxations", out.counters.relaxations.into()),
            ("queue_pops", out.counters.queue_pops.into()),
            ("row_reuses", out.counters.row_reuses.into()),
        ];
        (out.dist, Sample::new(elapsed, counters))
    });
    let params = vec![
        ("n", n.into()),
        ("threads", THREADS.into()),
        ("iters", iters.into()),
    ];
    BENCH.finish(&BENCH.out_path(&args), &params, &cells);
}
