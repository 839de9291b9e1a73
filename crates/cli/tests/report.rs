//! The command line's report and flag contract, end to end: a reader that
//! closes stdout early does not cost the run its `--out` file, and an
//! option the command (or `generate`'s model) does not read, or a zero
//! `--threads`, is a usage error.

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

/// `--threads 0` used to panic in a pool thread (exit 101 and a
/// backtrace). Every command that reads the option refuses it instead.
#[test]
fn zero_threads_is_a_usage_error_in_every_command_that_reads_it() {
    let dir = workdir("threads");
    let graph = dir.join("ba.txt");
    let graph = graph.to_str().unwrap();
    let generated = run(&[
        "generate", "--model", "ba", "--n", "50", "--m", "3", "--out", graph,
    ]);
    assert!(generated.status.success());
    for command in [
        &["apsp", graph][..],
        &["analyze", graph],
        &["path", graph, "0", "1"],
        &["estimate", graph, "0", "1"],
    ] {
        let output = run(&[command, &["--threads", "0"]].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{command:?}: {stderr}");
        assert!(
            stderr.contains("--threads must be at least 1"),
            "{command:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `args` and asserts a usage error (exit 2) whose message holds
/// `needle`. The refusal comes from the parser, before any file is read.
fn refused(args: &[&str], needle: &str) {
    let output = run(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn stats_refuses_an_option_it_does_not_read() {
    refused(
        &["stats", "g.txt", "--threads", "2"],
        "`stats` does not read --threads; it is an option of apsp, analyze, path, estimate",
    );
}

#[test]
fn apsp_refuses_an_option_it_does_not_read() {
    refused(
        &["apsp", "g.txt", "--top", "3"],
        "`apsp` does not read --top; it is an option of analyze",
    );
    refused(
        &["run", "g.txt", "--model", "ba"],
        "`run` does not read --model; it is an option of generate",
    );
}

/// `analyze` runs ParAPSP; an `--algorithm` used to be ignored.
#[test]
fn analyze_refuses_an_option_it_does_not_read() {
    refused(
        &["analyze", "g.txt", "--algorithm", "dist"],
        "`analyze` does not read --algorithm; it is an option of apsp",
    );
}

/// `path` used to print an uncapped distance under `--cap`.
#[test]
fn path_refuses_an_option_it_does_not_read() {
    refused(
        &["path", "g.txt", "0", "5", "--cap", "1"],
        "`path` does not read --cap; it is an option of apsp",
    );
}

#[test]
fn estimate_refuses_an_option_it_does_not_read() {
    refused(
        &["estimate", "g.txt", "0", "5", "--store", "mmap"],
        "`estimate` does not read --store; it is an option of apsp",
    );
    // The landmark count used to be read from `--top`.
    refused(
        &["estimate", "g.txt", "0", "5", "--top", "4"],
        "`estimate` does not read --top; it is an option of analyze",
    );
}

/// `estimate --landmarks K` indexes K landmarks and says so.
#[test]
fn estimate_reads_its_landmark_count_from_landmarks() {
    let dir = workdir("landmarks");
    let graph = dir.join("ba.txt");
    let graph = graph.to_str().unwrap();
    let generated = run(&[
        "generate", "--model", "ba", "--n", "200", "--m", "3", "--seed", "4", "--out", graph,
    ]);
    assert!(generated.status.success());
    for (extra, landmarks) in [(&[][..], 16), (&["--landmarks", "5"][..], 5)] {
        let output = run(&[&["estimate", graph, "0", "150"][..], extra].concat());
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "{extra:?}: {stdout}");
        assert!(
            stdout.contains(&format!("({landmarks} hub landmarks")),
            "{extra:?}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--drop-prob` drops hub relays; a dist run that deals no hubs used to
/// ignore it silently. Either way of dealing none is a usage error naming
/// the flags that deal some, and a run that deals hubs takes the flag.
#[test]
fn drop_prob_on_a_dist_run_that_deals_no_hubs_is_a_usage_error() {
    let dir = workdir("drop-prob");
    let graph = dir.join("ba.txt");
    let graph = graph.to_str().unwrap();
    let generated = run(&[
        "generate", "--model", "ba", "--n", "200", "--m", "3", "--seed", "6", "--out", graph,
    ]);
    assert!(generated.status.success());
    let dist = ["apsp", graph, "--algorithm", "dist", "--nodes", "2"];
    let drop = ["--fault-seed", "3", "--drop-prob", "0.2"];
    for (extra, why) in [
        (&[][..], "msbfs reads no rows"),
        (
            &["--solver", "dijkstra", "--hub-fraction", "0"][..],
            "hub fraction 0",
        ),
    ] {
        let output = run(&[&dist[..], &drop, extra].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{extra:?}: {stderr}");
        for needle in [why, "--solver dijkstra", "--hub-fraction"] {
            assert!(stderr.contains(needle), "{extra:?}: {stderr}");
        }
    }
    let output = run(&[&dist[..], &drop, &["--solver", "dijkstra"]].concat());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("hub broadcast on"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every model writes unit weights: `--weights` used to be accepted and
/// ignored, and no command reads it now.
#[test]
fn generate_refuses_an_option_it_does_not_read() {
    refused(
        &[
            "generate",
            "--n",
            "50",
            "--out",
            "g.txt",
            "--weights",
            "1:1000",
        ],
        "unknown option --weights",
    );
    refused(
        &["generate", "--n", "50", "--out", "g.txt", "--directed"],
        "`generate` does not read --directed; it is an option of stats, apsp",
    );
}

#[test]
fn node_refuses_an_option_it_does_not_read() {
    refused(
        &["node", "--connect", "d.sock", "--threads", "2"],
        "`node` does not read --threads; it is an option of apsp",
    );
}
