//! The command line's report and flag contract, end to end: a reader that
//! closes stdout early does not cost the run its `--out` file, and a
//! `generate` flag the chosen model does not read is a usage error.

use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_parapsp")
}

fn workdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("parapsp-report-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn parapsp")
}

/// `parapsp apsp g.txt --out d.bin | head -1` used to panic (exit 101)
/// at the first report line past the reader's last and never write
/// `d.bin`. Here stdout is closed before the run prints anything.
#[test]
fn a_closed_stdout_still_writes_the_out_file() {
    let dir = workdir("stdout");
    let graph = dir.join("ba.txt");
    let graph = graph.to_str().unwrap();
    let generated = run(&[
        "generate", "--model", "ba", "--n", "300", "--m", "3", "--seed", "5", "--out", graph,
    ]);
    assert!(generated.status.success());
    for algorithm in ["par-apsp", "dist"] {
        let reference = dir.join(format!("{algorithm}-ref.bin"));
        let piped = dir.join(format!("{algorithm}-piped.bin"));
        let base = ["apsp", graph, "--algorithm", algorithm, "--threads", "2"];
        let clean = run(&[&base[..], &["--out", reference.to_str().unwrap()]].concat());
        assert!(clean.status.success(), "{algorithm}");

        let mut child = Command::new(bin())
            .args(base)
            .args(["--out", piped.to_str().unwrap()])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn parapsp apsp");
        // Close the read end at once: every report line meets EPIPE.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("wait for parapsp apsp");
        assert_eq!(
            output.status.code(),
            Some(0),
            "{algorithm}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert_eq!(
            std::fs::read(&piped).expect("the --out file must be written"),
            std::fs::read(&reference).unwrap(),
            "{algorithm}: the --out file differs from the clean run's"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_refuses_a_flag_its_model_does_not_read() {
    let dir = workdir("generate");
    let out = dir.join("never.txt");
    let out = out.to_str().unwrap();
    for (args, needle) in [
        (
            ["--model", "er", "--m", "80000"],
            "--m does not apply to --model er, which reads --p",
        ),
        (
            ["--model", "ba", "--p", "0.3"],
            "--p does not apply to --model ba, which reads --m",
        ),
    ] {
        let output = run(&[&["generate"][..], &args, &["--n", "50", "--out", out]].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(
            !std::path::Path::new(out).exists(),
            "{args:?} wrote a graph"
        );
    }
    // Watts–Strogatz reads both.
    let ws = run(&[
        "generate", "--model", "ws", "--n", "50", "--m", "4", "--p", "0.2", "--out", out,
    ]);
    assert!(ws.status.success());
    std::fs::remove_dir_all(&dir).ok();
}
