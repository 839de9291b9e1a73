//! `kernel_relax` — the row-relaxation microbenchmark. For every
//! [`RelaxImpl`] it measures **ns/row** (`"kind": "row"` cells: one dense
//! min-plus pass `row = min(row, dt ⊕ t_row)` over rows of
//! n ∈ {1024, 4096, 16384} entries, amortized over a batch of published
//! rows the way the APSP kernel consumes them) and **end-to-end** wall
//! time (`"kind": "end_to_end"` cells: the whole `ParAPSP` [`Runner`]
//! call on a Barabási–Albert graph, where row reuse dominates; pinned to
//! the paper's kernel, since `auto` would run these unit weights through
//! MS-BFS, which relaxes no rows).
//!
//! Emits `BENCH_kernel.json` at the workspace root (override with
//! `--out <path>`). Flags: `--iters <N>` interleaved passes over the row
//! cells (default 200; each cell reports the median), `--quick` shrinks
//! the end-to-end graph and takes one end-to-end pass (three otherwise),
//! `--threads <N>` for the end-to-end cells (default 4). Every row sample
//! must equal the scalar implementation's and every end-to-end matrix
//! seq-basic's, so every published number doubles as a differential check.

use parapsp_bench::harness::{self, Arg, Bench, Cell, Sample, Value};
use parapsp_bench::time;
use parapsp_core::engine::{ApspEngine, RunConfig, Runner};
use parapsp_core::relax::{avx2_available, relax_row, RelaxImpl};
use parapsp_core::SolverKind;
use parapsp_graph::generate::{barabasi_albert, WeightSpec};
use parapsp_graph::INF;

const BENCH: Bench = Bench {
    name: "kernel_relax",
    file: "BENCH_kernel.json",
    flags: &[
        ("--iters", "N", Arg::Count),
        ("--threads", "N", Arg::Count),
        ("--quick", "", Arg::Switch),
        ("--out", "PATH", Arg::Text),
    ],
};

/// Row sizes swept by the microbenchmark (entries, i.e. vertices).
const ROW_SIZES: [usize; 3] = [1024, 4096, 16384];
/// Published rows consumed per pass; amortizes the per-iteration reset.
const BATCH: usize = 32;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A synthetic "published row": mostly finite distances with ~12% INF
/// lanes, the texture row reuse sees on sparse disconnected-ish graphs.
fn synth_row(n: usize, seed: u64) -> Vec<u32> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let r = splitmix(&mut s);
            if r % 100 < 12 {
                INF
            } else {
                (r % 5_000_000) as u32
            }
        })
        .collect()
}

/// The implementations to measure: the concrete ones that exist on this
/// machine (Auto is reported via the `auto_resolves_to` param instead of
/// a row cell).
fn measured_impls() -> Vec<RelaxImpl> {
    let all = [RelaxImpl::Scalar, RelaxImpl::Portable, RelaxImpl::Avx2];
    let exists = |imp: &RelaxImpl| *imp != RelaxImpl::Avx2 || avx2_available();
    all.into_iter().filter(exists).collect()
}

/// One row size's input: the pristine row, the batch of published rows
/// it consumes, and the oracle — the scalar implementation's final row
/// and improved-lane count.
struct RowInput {
    pristine: Vec<u32>,
    published: Vec<Vec<u32>>,
    expected: (Vec<u32>, u64),
}

/// Consumes the whole batch of published rows into `row`, returning the
/// number of improved lanes.
fn relax_batch(imp: RelaxImpl, row: &mut [u32], published: &[Vec<u32>]) -> u64 {
    published
        .iter()
        .enumerate()
        .map(|(i, t_row)| relax_row(imp, row, t_row, (i as u32) * 3 + 1, u32::MAX))
        .sum()
}

fn row_input(n: usize) -> RowInput {
    let pristine = synth_row(n, 0xA11CE ^ n as u64);
    let published: Vec<Vec<u32>> = (0..BATCH)
        .map(|i| synth_row(n, 0xB0B ^ (i as u64) << 32 ^ n as u64))
        .collect();
    let mut row = pristine.clone();
    let improved = relax_batch(RelaxImpl::Scalar, &mut row, &published);
    RowInput {
        pristine,
        published,
        expected: (row, improved),
    }
}

fn main() {
    let args = BENCH.parse_env();
    let iters = args.get("--iters").unwrap_or(200);
    let threads = args.get("--threads").unwrap_or(4);
    let quick = args.switch("--quick");
    println!(
        "kernel_relax: avx2_available={}, auto={}, iters={iters}",
        avx2_available(),
        RelaxImpl::Auto.resolve().name()
    );

    // Microbenchmark: one sample resets the row and consumes the whole
    // batch, the same row state evolution for every implementation, so
    // each sample is checked bit-for-bit against the scalar result.
    let inputs: Vec<RowInput> = ROW_SIZES.iter().map(|&n| row_input(n)).collect();
    let mut specs = Vec::new();
    let mut cells = Vec::new();
    for (k, &n) in ROW_SIZES.iter().enumerate() {
        for imp in measured_impls() {
            specs.push((k, imp));
            cells.push(Cell::new(vec![
                ("kind", "row".into()),
                ("impl", imp.name().into()),
                ("n", n.into()),
            ]));
        }
    }
    let mut row = Vec::new();
    harness::sample_interleaved(&mut cells, iters, |i, cell| {
        let (k, imp) = specs[i];
        let input = &inputs[k];
        row.clone_from(&input.pristine);
        let (improved, elapsed) = time(|| relax_batch(imp, &mut row, &input.published));
        assert!(
            (&row, improved) == (&input.expected.0, input.expected.1),
            "{}: relaxed row differs from the scalar implementation's",
            cell.label()
        );
        let ns_per_row = elapsed.as_nanos() as f64 / BATCH as f64;
        let counters = vec![
            ("ns_per_row", ns_per_row.into()),
            ("improved", improved.into()),
        ];
        Sample::new(elapsed, counters)
    });

    // End-to-end: ParAPSP on a scale-free graph, where row reuse
    // dominates; every run's matrix is checked against seq-basic.
    let (ba_n, passes) = if quick { (600, 1) } else { (3000, 3) };
    let graph = barabasi_albert(ba_n, 4, WeightSpec::Unit, 42).expect("BA generation");
    let graphs = [(format!("ba_n{ba_n}_m4"), graph)];
    let mut e2e_impls = measured_impls();
    e2e_impls.push(RelaxImpl::Auto);
    let configs: Vec<_> = e2e_impls
        .into_iter()
        .map(|imp| {
            let config = vec![("kind", "end_to_end".into()), ("impl", imp.name().into())];
            (config, imp)
        })
        .collect();
    cells.extend(harness::sweep(&graphs, &configs, passes, |graph, &imp| {
        let config = RunConfig::par_apsp(threads)
            .with_relax(imp)
            .with_solver(SolverKind::Dijkstra);
        let runner = Runner::new(config);
        let (out, elapsed) = time(|| runner.run(ApspEngine::new(), graph));
        let counters = vec![
            ("row_reuses", out.counters.row_reuses.into()),
            ("relaxations", out.counters.relaxations.into()),
        ];
        (out.dist, Sample::new(elapsed, counters))
    }));

    let params = vec![
        ("iters", iters.into()),
        ("threads", threads.into()),
        ("avx2_available", Value::Bool(avx2_available())),
        ("auto_resolves_to", RelaxImpl::Auto.resolve().name().into()),
    ];
    BENCH.finish(&BENCH.out_path(&args), &params, &cells);
}
