//! A run whose ledger writes start failing mid-sweep: the real `parapsp`
//! binary runs under a file-size rlimit, so the ledger writer thread's
//! appends hit `EFBIG` partway through the run.
#![cfg(unix)]

use std::path::PathBuf;
use std::process::Command;

use parapsp_core::persist;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_parapsp")
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parapsp-ledger-failure-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn parapsp(args: &[&str]) {
    let output = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn parapsp");
    assert!(
        output.status.success(),
        "parapsp {args:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// The writer's I/O error is raised on the Runner's (main) thread as the
/// `run ledger <path>: <err>` panic, and the torn ledger still replays
/// only whole rows, each bit-identical to seq-basic.
#[test]
fn failing_ledger_append_panics_on_the_runner_thread_and_keeps_whole_rows() {
    let dir = workdir();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (graph, reference, ledger) = (path("g.txt"), path("ref.bin"), path("efbig.ledger"));
    parapsp(&[
        "generate", "--model", "ba", "--n", "400", "--m", "3", "--seed", "7", "--out", &graph,
    ]);
    parapsp(&[
        "apsp",
        &graph,
        "--algorithm",
        "seq-basic",
        "--out",
        &reference,
    ]);

    // 128 blocks of 512 bytes (or 1 KiB, depending on the shell) hold
    // 40-80 of the 400 rows' 1,612-byte records. SIGXFSZ is ignored, so
    // the write fails with EFBIG instead of killing the process.
    let output = Command::new("sh")
        .arg("-c")
        .arg("trap '' XFSZ; ulimit -f 128; exec \"$0\" \"$@\"")
        .arg(bin())
        .args(["apsp", &graph, "--algorithm", "par-apsp", "--threads", "2"])
        .args(["--ledger", &ledger, "--checkpoint-every", "8"])
        .args(["--ledger-fsync", "never"])
        .output()
        .expect("spawn sh");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(101), "stderr: {stderr}");
    assert!(
        stderr.contains("thread 'main'") && stderr.contains(&format!("run ledger {ledger}: ")),
        "the writer's error must panic the Runner thread: {stderr}"
    );

    let reference = persist::load_binary(&reference).unwrap();
    let cp = persist::load_checkpoint(&ledger).expect("a torn ledger still loads");
    let rows = cp.completed_count();
    assert!(rows > 0 && rows < 400, "{rows} rows replayed");
    for s in 0..400u32 {
        if cp.completed()[s as usize] {
            assert_eq!(cp.matrix().row(s), reference.row(s), "row {s}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
