//! `schedule_scaling` — the loop-schedule scaling benchmark for the
//! parallel APSP source sweep.
//!
//! Sweeps `ParAPSP` (via [`Runner`]/[`ApspEngine`]) over
//! {dynamic-cyclic, dynamic(k)} × thread counts on the three generator
//! families the paper evaluates (Barabási–Albert, Erdős–Rényi,
//! Watts–Strogatz), recording wall time plus the pool's claim count
//! (`pops`) for each configuration.
//!
//! Emits `BENCH_schedule.json` at the workspace root (override with
//! `--out <path>`). Flags: `--iters <N>` interleaved passes (default 3;
//! each cell reports the median), `--quick` shrinks the graphs and takes
//! one pass for CI smoke runs, `--n <V>` overrides the vertex count.
//! Every run's matrix must equal seq-basic's, so every published number
//! doubles as a differential check of schedule invariance.

use parapsp_bench::harness::{self, Arg, Bench, Sample};
use parapsp_bench::time;
use parapsp_core::{ApspEngine, RunConfig, Runner};
use parapsp_graph::generate::{barabasi_albert, erdos_renyi_gnm, watts_strogatz, WeightSpec};
use parapsp_graph::{CsrGraph, Direction};
use parapsp_parfor::{Schedule, ThreadPool};

const BENCH: Bench = Bench {
    name: "schedule_scaling",
    file: "BENCH_schedule.json",
    flags: &[
        ("--iters", "N", Arg::Count),
        ("--n", "V", Arg::Count),
        ("--quick", "", Arg::Switch),
        ("--out", "PATH", Arg::Text),
    ],
};

const WEIGHTS: WeightSpec = WeightSpec::Uniform { lo: 1, hi: 9 };

/// Thread counts swept per schedule (1 is the no-contention baseline).
const THREADS: [usize; 3] = [1, 2, 4];

/// The schedules under comparison: the paper's dynamic-cyclic default
/// and the same claim loop taking 16 sources per claim.
fn schedules() -> [(&'static str, Schedule); 2] {
    [
        ("dynamic-cyclic", Schedule::dynamic_cyclic()),
        ("dynamic:16", Schedule::DynamicChunked(16)),
    ]
}

fn graphs(n: usize) -> Vec<(String, CsrGraph)> {
    let m = n * 4; // ER edge budget, matches BA's m=4 attachment density
    vec![
        (
            format!("ba_n{n}_m4"),
            barabasi_albert(n, 4, WEIGHTS, 42).expect("BA generation"),
        ),
        (
            format!("er_n{n}_m{m}"),
            erdos_renyi_gnm(n, m, Direction::Directed, WEIGHTS, 43).expect("ER generation"),
        ),
        (
            format!("ws_n{n}_k8"),
            watts_strogatz(n, 8, 0.2, WEIGHTS, 44).expect("WS generation"),
        ),
    ]
}

fn main() {
    let args = BENCH.parse_env();
    let quick = args.switch("--quick");
    let n = args.get("--n").unwrap_or(if quick { 400 } else { 3000 });
    let iters = if quick {
        1
    } else {
        args.get("--iters").unwrap_or(3)
    };
    println!("schedule_scaling: n={n}, iters={iters} (median)");

    let mut configs = Vec::new();
    for (label, schedule) in schedules() {
        for threads in THREADS {
            let config = vec![("schedule", label.into()), ("threads", threads.into())];
            configs.push((config, (schedule, threads)));
        }
    }
    let cells = harness::sweep(
        &graphs(n),
        &configs,
        iters,
        |graph, &(schedule, threads)| {
            let runner = Runner::new(RunConfig::par_apsp(threads).with_schedule(schedule));
            let pool = ThreadPool::new(threads);
            let (out, elapsed) = time(|| runner.run_with_pool(ApspEngine::new(), graph, &pool));
            let counters = vec![("pops", pool.take_schedule_stats().pops.into())];
            (out.dist, Sample::new(elapsed, counters))
        },
    );
    let params = vec![("n", n.into()), ("iters", iters.into())];
    BENCH.finish(&BENCH.out_path(&args), &params, &cells);
}
