//! A `--ledger` or `--resume` file this build cannot use: a version-3
//! ledger (rows sealed with FNV-1a) or a ledger of another graph size. The
//! real `parapsp` binary must refuse it before the run starts, as a usage
//! error (exit 2) that names the file and the reason, never as a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

use parapsp_core::persist::{FsyncPolicy, RowLedger};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_parapsp")
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "parapsp-ledger-header-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn parapsp(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn parapsp")
}

/// A 60-vertex BA graph at `dir/g.txt`.
fn graph(dir: &std::path::Path) -> String {
    let graph = dir.join("g.txt").to_string_lossy().into_owned();
    let out = parapsp(&[
        "generate", "--model", "ba", "--n", "60", "--m", "2", "--seed", "3", "--out", &graph,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    graph
}

/// An `n`-vertex ledger holding one row, its header's version byte set to
/// `version`.
fn ledger(path: &str, n: usize, version: u8) {
    let mut ledger = RowLedger::create(path, n, FsyncPolicy::Never).unwrap();
    ledger.append(0, &vec![1; n]).unwrap();
    ledger.finish().unwrap();
    let mut bytes = std::fs::read(path).unwrap();
    bytes[4] = version;
    std::fs::write(path, bytes).unwrap();
}

/// Exit 2, every `needles` entry in stderr, and no panic or backtrace.
fn assert_usage_error(out: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "missing `{needle}` in: {stderr}");
    }
    assert!(
        !stderr.contains("panicked") && !stderr.contains("backtrace"),
        "a refused ledger must not panic: {stderr}"
    );
}

const ALGORITHMS: [&[&str]; 2] = [
    &["--algorithm", "par-apsp", "--threads", "2"],
    &["--algorithm", "dist", "--nodes", "2"],
];

#[test]
fn a_version_3_ledger_is_a_usage_error_on_par_apsp_and_dist() {
    let dir = workdir("v3");
    let graph = graph(&dir);
    let path = dir.join("v3.ledger").to_string_lossy().into_owned();
    ledger(&path, 60, 3);
    let before = std::fs::read(&path).unwrap();
    for algorithm in ALGORITHMS {
        let out = parapsp(&[&["apsp", graph.as_str()], algorithm, &["--ledger", &path]].concat());
        assert_usage_error(
            &out,
            &[&path, "ledger version 3", "this build writes version 4"],
        );
        assert_eq!(std::fs::read(&path).unwrap(), before, "{algorithm:?}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn resuming_a_version_3_ledger_names_both_ledger_versions() {
    let dir = workdir("resume");
    let graph = graph(&dir);
    let path = dir.join("v3.ledger").to_string_lossy().into_owned();
    ledger(&path, 60, 3);
    for algorithm in ALGORITHMS {
        let out = parapsp(&[&["apsp", graph.as_str()], algorithm, &["--resume", &path]].concat());
        assert_usage_error(
            &out,
            &[&path, "ledger version 3", "this build writes version 4"],
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_ledger_of_another_graph_size_is_a_usage_error_on_par_apsp_and_dist() {
    let dir = workdir("size");
    let graph = graph(&dir);
    let path = dir.join("n61.ledger").to_string_lossy().into_owned();
    ledger(&path, 61, 4);
    let before = std::fs::read(&path).unwrap();
    for algorithm in ALGORITHMS {
        let out = parapsp(&[&["apsp", graph.as_str()], algorithm, &["--ledger", &path]].concat());
        assert_usage_error(
            &out,
            &[&path, "ledger is for 61 vertices but this run has 60"],
        );
        assert_eq!(std::fs::read(&path).unwrap(), before, "{algorithm:?}");
    }
    std::fs::remove_dir_all(dir).ok();
}
