//! `store_scaling` — the tiered distance-matrix storage benchmark.
//!
//! Runs `ParAPSP` on a Barabási–Albert replica per [`StoreSpec`] {dense,
//! mmap at 1/8 of the dense bytes}, in [`PASSES`] interleaved passes
//! ([`QUICK_PASSES`] under `--quick`), each run in its own re-executed
//! child so one backend's peak RSS (`VmHWM`) cannot mask another's. A
//! cell reports its median run: wall time, bytes/row ([`Store::stored_bytes`]
//! over n), peak RSS, the lease telemetry that shows *why* a tier is fast
//! or slow, and an FNV-1a checksum of the final matrix, streamed row by
//! row so the child never materializes it; it must equal seq-basic's.
//!
//! Emits `BENCH_store.json` at the workspace root (override with
//! `--out <path>`). Flags: `--n <V>` (default 3000), `--threads <N>`
//! (default 4), `--quick` shrinks the graph for CI smoke runs,
//! `--measure <spec>` runs one backend in-process and prints its
//! `MEASURE` line (the child mode, also run by the CI bounded-memory
//! smoke under `ulimit -v`), `--max-ratio <f>` fails the sweep if any
//! backend's median is slower than `f ×` dense's (the CI gate for the
//! lease layer).

use std::collections::HashMap;

use parapsp_bench::harness::{self, Arg, Bench, Cell, Sample, Value};
use parapsp_bench::time;
use parapsp_core::engine::{ApspEngine, RunConfig, Runner, StoreRunOutput};
use parapsp_core::{Store, StoreSpec};
use parapsp_graph::generate::{barabasi_albert, WeightSpec};

const BENCH: Bench = Bench {
    name: "store_scaling",
    file: "BENCH_store.json",
    flags: &[
        ("--n", "V", Arg::Count),
        ("--threads", "N", Arg::Count),
        ("--quick", "", Arg::Switch),
        ("--out", "PATH", Arg::Text),
        ("--max-ratio", "F", Arg::Ratio),
        ("--measure", "SPEC", Arg::Text),
    ],
};

/// Interleaved samples per cell: the cells and the `--max-ratio` gate
/// rest on their medians, not on one run.
const PASSES: usize = 5;
/// Samples per cell under `--quick`.
const QUICK_PASSES: usize = 3;

/// The integer counters of a `MEASURE` line, in output order.
const COUNTERS: [&str; 6] = [
    "stored_bytes",
    "peak_rss_kb",
    "row_reuses",
    "lease_hits",
    "lease_misses",
    "pinned_bytes_peak",
];

/// One fixed replica (seed 42), so every backend and child sees the
/// identical input.
fn build_graph(n: usize) -> parapsp_graph::CsrGraph {
    barabasi_albert(n, 4, WeightSpec::Uniform { lo: 1, hi: 9 }, 42).expect("BA generation")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `row`'s little-endian bytes into the FNV-1a `hash`.
fn fnv1a(mut hash: u64, row: &[u32]) -> u64 {
    for byte in row.iter().flat_map(|d| d.to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a over every row of the completed store, streamed in row order.
/// Never materializes the dense matrix: the backend reads one row at a
/// time, so the checksum is valid under a memory budget.
fn checksum(store: &Store) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut row_buf = vec![0u32; store.n()];
    for s in 0..store.n() as u32 {
        assert!(store.read_row_into(s, &mut row_buf), "row {s} unpublished");
        hash = fnv1a(hash, &row_buf);
    }
    hash
}

/// Peak resident set (`VmHWM`) in KiB, from `/proc/self/status`; 0 when
/// the proc filesystem is unavailable.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|line| line.strip_prefix("VmHWM:"));
    let kb = hwm.map(|rest| rest.trim().trim_end_matches("kB").trim().parse());
    kb.and_then(Result::ok).unwrap_or(0)
}

/// Child mode: one backend's run in this process, printed as one
/// `MEASURE key=value ...` line for the parent (or the CI smoke) to parse.
fn measure(spec_raw: &str, n: usize, threads: usize) -> ! {
    let spec: StoreSpec = spec_raw.parse().unwrap_or_else(|e| {
        eprintln!("--measure: {e}");
        std::process::exit(2);
    });
    let runner = Runner::new(RunConfig::par_apsp(threads).with_store(spec.clone()));
    let engine = ApspEngine::<StoreRunOutput>::default();
    let (out, elapsed) = time(|| runner.run(engine, &build_graph(n)));
    let c = &out.counters;
    let counts = [
        out.store.stored_bytes(),
        peak_rss_kb(),
        c.row_reuses,
        c.lease_hits,
        c.lease_misses,
        c.pinned_bytes_peak,
    ];
    let ms = elapsed.as_secs_f64() * 1e3;
    let mut line = format!(
        "MEASURE store={} n={n} threads={threads} ms={ms:.3}",
        spec.label()
    );
    for (key, count) in COUNTERS.iter().zip(counts) {
        line.push_str(&format!(" {key}={count}"));
    }
    println!("{line} checksum={:016x}", checksum(&out.store));
    // `exit` runs no destructors: drop the store first, or an mmap
    // store's scratch shard directory outlives the process.
    drop(out);
    std::process::exit(0);
}

/// Re-executes this binary in `--measure` mode and parses the child's
/// `MEASURE` line into a sample (its checksum is the last counter).
/// Child stderr passes through for diagnosability.
fn run_child(spec: &str, n: usize, threads: usize) -> Sample {
    let output = std::process::Command::new(std::env::current_exe().expect("current_exe"))
        .args(["--measure", spec, "--n", &n.to_string()])
        .args(["--threads", &threads.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawning measure child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "`{spec}` child exited with {}",
        output.status
    );
    let line = stdout.lines().find(|l| l.starts_with("MEASURE "));
    let line = line.unwrap_or_else(|| panic!("no MEASURE line from `{spec}` child:\n{stdout}"));
    let fields: HashMap<&str, &str> = line.split(' ').filter_map(|t| t.split_once('=')).collect();
    let mut counters: Vec<(&'static str, Value)> = COUNTERS
        .iter()
        .map(|&key| (key, Value::Int(fields[key].parse().expect(key))))
        .collect();
    let bytes_per_row = fields["stored_bytes"].parse::<f64>().unwrap() / n as f64;
    counters.insert(1, ("bytes_per_row", bytes_per_row.into()));
    counters.push(("checksum", fields["checksum"].into()));
    let ms = fields["ms"].parse().expect("ms");
    Sample { ms, counters }
}

fn main() {
    let args = BENCH.parse_env();
    let quick = args.switch("--quick");
    let n = args.get("--n").unwrap_or(if quick { 600 } else { 3000 });
    let threads = args.get("--threads").unwrap_or(4);
    if let Some(spec) = args.get::<String>("--measure") {
        measure(&spec, n, threads); // never returns
    }

    let dense_bytes = (n as u64) * (n as u64) * 4;
    // An out-of-core budget the dense matrix overflows 8×: the mmap cell
    // demonstrates completion (and bit-identity) under real pressure.
    let mmap_budget = (dense_bytes / 8).max(1 << 20);
    let specs = ["dense".to_string(), format!("mmap:{mmap_budget}")];
    println!(
        "store_scaling: n={n}, threads={threads}, dense matrix {:.1} MiB, mmap budget {:.1} MiB",
        dense_bytes as f64 / (1 << 20) as f64,
        mmap_budget as f64 / (1 << 20) as f64,
    );

    let reference = harness::seq_basic(&build_graph(n))
        .rows()
        .fold(FNV_OFFSET, |hash, (_, row)| fnv1a(hash, row));
    let reference = Value::Str(format!("{reference:016x}"));
    let mut cells: Vec<Cell> = specs
        .iter()
        .map(|spec| Cell::new(vec![("store", spec.as_str().into())]))
        .collect();
    let passes = if quick { QUICK_PASSES } else { PASSES };
    harness::sample_interleaved(&mut cells, passes, |i, cell| {
        let sample = run_child(&specs[i], n, threads);
        let checksum = &sample.counters.last().expect("checksum").1;
        assert_eq!(
            checksum,
            &reference,
            "{}: checksum differs from seq-basic's",
            cell.label()
        );
        sample
    });
    let dense_ms = cells[0].ms();
    if let Some(ratio) = args.get::<f64>("--max-ratio") {
        for cell in &cells {
            assert!(
                cell.ms() <= dense_ms * ratio,
                "{}: {:.3} ms exceeds --max-ratio {ratio} × dense ({dense_ms:.3} ms); \
                 the lease layer should keep tiered backends within this bound",
                cell.label(),
                cell.ms(),
            );
        }
    }

    let params = vec![
        ("n", n.into()),
        ("threads", threads.into()),
        ("graph", Value::Str(format!("ba_n{n}_m4_w1-9"))),
        ("dense_matrix_bytes", dense_bytes.into()),
    ];
    BENCH.finish(&BENCH.out_path(&args), &params, &cells);
}
