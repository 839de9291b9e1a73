//! `store_scaling` — the tiered distance-matrix storage benchmark.
//!
//! Sweeps the [`StoreSpec`] axis {dense, delta, mmap} through `ParAPSP`
//! (via [`Runner`]/[`ApspEngine`] with a [`StoreRunOutput`], which keeps
//! the live store) on a Barabási–Albert replica and
//! records, per backend:
//!
//! * **bytes/row**: payload bytes of the completed store divided by the
//!   vertex count ([`Store::stored_bytes`] — resident matrix bytes for
//!   dense, encoded bytes for delta, shard-file bytes for mmap);
//! * **peak RSS**: the process high-water mark (`VmHWM` from
//!   `/proc/self/status`). Each backend runs in its own re-executed child
//!   process so one backend's peak cannot mask another's;
//! * **end-to-end wall time** of the full APSP run;
//! * a **bit-identity oracle**: every backend's final matrix is streamed
//!   row-by-row through an FNV-1a checksum and all checksums must match
//!   the dense reference — a differential check that never materializes
//!   the O(n²) matrix, so it holds even for out-of-core runs.
//!
//! Each cell also records the lease-layer telemetry (`row_reuses`,
//! `lease_hits` / `lease_misses`, `pinned_bytes_peak`, and the schema's
//! `decode_ahead_hits`, which reads 0 since the stores have no
//! decode-ahead thread) so the JSON shows *why* a tier is fast or slow,
//! not just that it is.
//!
//! Emits `BENCH_store.json` at the workspace root (override with
//! `--out <path>`). Flags: `--n <V>` vertex count (default 3000),
//! `--threads <N>` (default 4), `--quick` shrinks the graph for CI smoke
//! runs, `--measure <spec>` runs one backend in-process and prints a
//! single machine-readable `MEASURE` line (the child mode; also what the
//! CI bounded-memory smoke runs under `ulimit -v`), `--max-ratio <f>`
//! fails the sweep if any non-dense backend is slower than `f ×` the
//! dense wall time (the CI perf gate for the lease layer).
//!
//! The mmap cell's cache budget is set to 1/8 of the dense matrix bytes,
//! so the sweep itself demonstrates out-of-core completion: the backend
//! finishes bit-identical while holding a fraction of the matrix.

use std::time::Instant;

use parapsp_core::engine::{ApspEngine, RunConfig, Runner, StoreRunOutput};
use parapsp_core::{Store, StoreSpec};
use parapsp_graph::generate::{barabasi_albert, WeightSpec};

/// Graph seed: one fixed replica so every backend (and every child
/// process) sees the identical input.
const SEED: u64 = 42;

fn build_graph(n: usize) -> parapsp_graph::CsrGraph {
    barabasi_albert(n, 4, WeightSpec::Uniform { lo: 1, hi: 9 }, SEED).expect("BA generation")
}

/// FNV-1a over every row of the completed store, streamed in row order.
/// Never materializes the dense matrix: the backend decodes one row at a
/// time, so the checksum is valid under a memory budget.
fn checksum(store: &Store) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut row_buf = vec![0u32; store.n()];
    for s in 0..store.n() as u32 {
        assert!(store.read_row_into(s, &mut row_buf), "row {s} unpublished");
        for &d in &row_buf {
            for byte in d.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    hash
}

/// Peak resident set (`VmHWM`) in KiB, from `/proc/self/status`; 0 when
/// the proc filesystem is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Child mode: one (backend, graph) run in this process. Prints exactly
/// one `MEASURE` line the parent (or the CI smoke harness) parses.
fn measure(spec_raw: &str, n: usize, threads: usize) -> ! {
    let spec: StoreSpec = spec_raw.parse().unwrap_or_else(|e| {
        eprintln!("--measure: {e}");
        std::process::exit(2);
    });
    let graph = build_graph(n);
    let runner = Runner::new(RunConfig::par_apsp(threads).with_store(spec.clone()));
    let start = Instant::now();
    let out = runner.run(ApspEngine::<StoreRunOutput>::default(), &graph);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let sum = checksum(&out.store);
    let c = &out.counters;
    println!(
        "MEASURE store={} n={} threads={} ms={:.3} stored_bytes={} peak_rss_kb={} \
         row_reuses={} lease_hits={} lease_misses={} decode_ahead_hits={} \
         pinned_bytes_peak={} checksum={:016x}",
        spec.label(),
        n,
        threads,
        ms,
        out.store.stored_bytes(),
        peak_rss_kb(),
        c.row_reuses,
        c.lease_hits,
        c.lease_misses,
        c.decode_ahead_hits,
        c.pinned_bytes_peak,
        sum,
    );
    std::process::exit(0);
}

struct Measurement {
    store: String,
    ms: f64,
    stored_bytes: u64,
    bytes_per_row: f64,
    peak_rss_kb: u64,
    row_reuses: u64,
    lease_hits: u64,
    lease_misses: u64,
    decode_ahead_hits: u64,
    pinned_bytes_peak: u64,
    checksum: u64,
}

/// Re-executes this binary in `--measure` mode and parses the child's
/// `MEASURE` line. Child stderr passes through for diagnosability.
fn run_child(spec: &str, n: usize, threads: usize) -> Measurement {
    let exe = std::env::current_exe().expect("current_exe");
    let output = std::process::Command::new(exe)
        .args([
            "--measure",
            spec,
            "--n",
            &n.to_string(),
            "--threads",
            &threads.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawning measure child");
    assert!(
        output.status.success(),
        "measure child for `{spec}` exited with {}",
        output.status
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("MEASURE "))
        .unwrap_or_else(|| panic!("no MEASURE line from `{spec}` child:\n{stdout}"));
    let field = |key: &str| -> &str {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
            .unwrap_or_else(|| panic!("MEASURE line missing {key}: {line}"))
    };
    let stored_bytes: u64 = field("stored_bytes").parse().unwrap();
    Measurement {
        store: field("store").to_string(),
        ms: field("ms").parse().unwrap(),
        stored_bytes,
        bytes_per_row: stored_bytes as f64 / n as f64,
        peak_rss_kb: field("peak_rss_kb").parse().unwrap(),
        row_reuses: field("row_reuses").parse().unwrap(),
        lease_hits: field("lease_hits").parse().unwrap(),
        lease_misses: field("lease_misses").parse().unwrap(),
        decode_ahead_hits: field("decode_ahead_hits").parse().unwrap(),
        pinned_bytes_peak: field("pinned_bytes_peak").parse().unwrap(),
        checksum: u64::from_str_radix(field("checksum"), 16).unwrap(),
    }
}

fn write_json(
    path: &std::path::Path,
    n: usize,
    threads: usize,
    results: &[Measurement],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"store_scaling\",\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"graph\": \"ba_n{n}_m4_w1-9\",\n"));
    out.push_str(&format!(
        "  \"dense_matrix_bytes\": {},\n",
        (n as u64) * (n as u64) * 4
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        assert!(
            r.store
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_-.:".contains(c)),
            "label {:?} needs JSON escaping",
            r.store
        );
        out.push_str(&format!(
            "    {{\"store\": \"{}\", \"ms\": {:.3}, \"stored_bytes\": {}, \
             \"bytes_per_row\": {:.1}, \"peak_rss_kb\": {}, \"row_reuses\": {}, \
             \"lease_hits\": {}, \"lease_misses\": {}, \"decode_ahead_hits\": {}, \
             \"pinned_bytes_peak\": {}, \"checksum\": \"{:016x}\"}}{}\n",
            r.store,
            r.ms,
            r.stored_bytes,
            r.bytes_per_row,
            r.peak_rss_kb,
            r.row_reuses,
            r.lease_hits,
            r.lease_misses,
            r.decode_ahead_hits,
            r.pinned_bytes_peak,
            r.checksum,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

/// Default output location: `BENCH_store.json` at the workspace root.
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
    base.join("BENCH_store.json")
}

fn main() {
    let mut n: Option<usize> = None;
    let mut threads = 4usize;
    let mut quick = false;
    let mut measure_spec: Option<String> = None;
    let mut max_ratio: Option<f64> = None;
    let mut out_path = default_out_path();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => {
                n = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--n needs a positive integer"),
                );
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--quick" => quick = true,
            "--measure" => {
                measure_spec = Some(args.next().expect("--measure needs a store spec"));
            }
            "--out" => {
                out_path = args.next().expect("--out needs a path").into();
            }
            "--max-ratio" => {
                let ratio: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-ratio needs a positive number");
                assert!(ratio > 0.0, "--max-ratio needs a positive number");
                max_ratio = Some(ratio);
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!(
                    "usage: store_scaling [--n V] [--threads N] [--quick] [--out PATH] \
                     [--max-ratio F] [--measure SPEC]"
                );
                std::process::exit(2);
            }
        }
    }
    let n = n.unwrap_or(if quick { 600 } else { 3000 });
    assert!(n > 0 && threads > 0);
    if let Some(spec) = measure_spec {
        measure(&spec, n, threads); // never returns
    }

    let dense_bytes = (n as u64) * (n as u64) * 4;
    // An out-of-core budget the dense matrix overflows 8×: the mmap cell
    // demonstrates completion (and bit-identity) under real pressure.
    let mmap_budget = (dense_bytes / 8).max(1 << 20);
    let specs = [
        "dense".to_string(),
        "delta:16".to_string(),
        format!("mmap:{mmap_budget}"),
    ];
    println!(
        "store_scaling: n={n}, threads={threads}, dense matrix {:.1} MiB, mmap budget {:.1} MiB",
        dense_bytes as f64 / (1 << 20) as f64,
        mmap_budget as f64 / (1 << 20) as f64,
    );

    let results: Vec<Measurement> = specs
        .iter()
        .map(|spec| run_child(spec, n, threads))
        .collect();
    let reference = results[0].checksum;
    let dense_ms = results[0].ms;
    for r in &results {
        println!(
            "  {:<16}  {:>9.3} ms  {:>12} stored bytes  {:>8.1} B/row  peak RSS {:>7} KiB  \
             {} reuses ({} hits / {} misses, pinned peak {} B)",
            r.store,
            r.ms,
            r.stored_bytes,
            r.bytes_per_row,
            r.peak_rss_kb,
            r.row_reuses,
            r.lease_hits,
            r.lease_misses,
            r.pinned_bytes_peak,
        );
        assert_eq!(
            r.checksum, reference,
            "{}: matrix differs from the dense reference",
            r.store
        );
        if let Some(ratio) = max_ratio {
            assert!(
                r.ms <= dense_ms * ratio,
                "{}: {:.3} ms exceeds --max-ratio {ratio} × dense ({:.3} ms); \
                 the lease layer should keep tiered backends within this bound",
                r.store,
                r.ms,
                dense_ms
            );
        }
    }

    write_json(&out_path, n, threads, &results).expect("writing benchmark JSON");
    println!("wrote {}", out_path.display());
}
