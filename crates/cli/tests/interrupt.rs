//! End-to-end interruption tests: drive the real `parapsp` binary as a
//! child process, stop it with a deadline or a SIGINT, and verify the
//! promised exit codes (124 / 130) and a loadable, resumable file — the
//! run ledger of a `--ledger` run, the `<graph>.interrupt.ckpt` snapshot
//! of any other.
#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use parapsp_core::persist;

/// Bytes of a run ledger before its first row record.
const LEDGER_HEADER_BYTES: u64 = 4 + 1 + 8 + 8 + 4;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_parapsp")
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join("parapsp-interrupt-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates (once) a BA graph big enough that a full APSP takes tens of
/// milliseconds on one thread — room for a deadline or a signal to land
/// mid-run. The file is staged and renamed into place, so a test running
/// in parallel never reads it half-written.
fn big_graph(n: usize) -> String {
    let path = workdir().join(format!("ba-{n}.txt"));
    if !path.exists() {
        let staged = workdir().join(format!("ba-{n}.txt.{:?}", std::thread::current().id()));
        let status = Command::new(bin())
            .args([
                "generate",
                "--model",
                "ba",
                "--n",
                &n.to_string(),
                "--m",
                "3",
                "--seed",
                "7",
                "--out",
                staged.to_str().unwrap(),
            ])
            .status()
            .expect("spawn parapsp generate");
        assert!(status.success());
        std::fs::rename(&staged, &path).unwrap();
    }
    path.to_string_lossy().into_owned()
}

#[test]
fn deadline_exits_124_with_resumable_checkpoint() {
    let graph = big_graph(4000);
    let ledger = workdir().join("deadline.ledger");
    std::fs::remove_file(&ledger).ok();
    // The `run` alias is part of the contract.
    let output = Command::new(bin())
        .args([
            "run",
            &graph,
            "--deadline",
            "0.02",
            "--threads",
            "1",
            "--ledger",
            ledger.to_str().unwrap(),
        ])
        .output()
        .expect("spawn parapsp run");
    assert_eq!(
        output.status.code(),
        Some(124),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("deadline exceeded"),
        "stderr must say why: {stderr}"
    );
    let cp = persist::load_checkpoint(&ledger).expect("the ledger must load");
    assert_eq!(cp.n(), 4000);
    assert!(!cp.is_complete(), "a 20 ms deadline cannot finish n=4000");
    std::fs::remove_file(&ledger).ok();
}

#[test]
fn sigint_exits_130_with_loadable_checkpoint() {
    let graph = big_graph(4000);
    let ledger = workdir().join("sigint.ledger");
    std::fs::remove_file(&ledger).ok();
    let mut child = Command::new(bin())
        .args([
            "run",
            &graph,
            "--threads",
            "2",
            "--ledger",
            ledger.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parapsp run");
    // Interrupt it once the sweep has committed its first batch to the
    // ledger: the signal bridge is in place by then, and most rows are
    // still to come.
    let deadline = Instant::now() + Duration::from_secs(60);
    while std::fs::metadata(&ledger).map_or(0, |meta| meta.len()) <= LEDGER_HEADER_BYTES {
        assert!(Instant::now() < deadline, "the run never committed a row");
        std::thread::sleep(Duration::from_millis(2));
    }
    let status = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(status.success());
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on child") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "child must exit promptly after SIGINT"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(130), "graceful interrupt exit code");
    let cp = persist::load_checkpoint(&ledger).expect("the ledger must load");
    assert_eq!(cp.n(), 4000);
    std::fs::remove_file(&ledger).ok();
}

#[test]
fn interrupt_checkpoint_resumes_to_completion() {
    let graph = big_graph(4000);
    // Without --ledger the stop snapshot goes next to the graph.
    let ckpt = PathBuf::from(format!("{graph}.interrupt.ckpt"));
    std::fs::remove_file(&ckpt).ok();
    let output = Command::new(bin())
        .args(["run", &graph, "--deadline", "0.02", "--threads", "1"])
        .output()
        .expect("spawn parapsp run");
    assert_eq!(output.status.code(), Some(124));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(ckpt.to_str().unwrap()),
        "stderr must name the snapshot: {stderr}"
    );
    let resumed = Command::new(bin())
        .args([
            "run",
            &graph,
            "--threads",
            "2",
            "--resume",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("spawn parapsp resume");
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("resuming:"), "stdout: {stdout}");
    std::fs::remove_file(&ckpt).ok();
}
