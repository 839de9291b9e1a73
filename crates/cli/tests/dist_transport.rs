//! End-to-end multi-process dist tests: a real driver process, real
//! `parapsp node` worker processes, a real `kill -9` — and a distance
//! matrix that must still come out bit-identical to the sequential
//! baseline.
#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_parapsp")
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join("parapsp-dist-transport-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates (once) a deterministic BA graph to run the cluster over.
fn graph_file(n: usize) -> String {
    let path = workdir().join(format!("ba-{n}.txt"));
    if !path.exists() {
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
                "11",
                "--out",
                path.to_str().unwrap(),
            ])
            .status()
            .expect("spawn parapsp generate");
        assert!(status.success());
    }
    path.to_string_lossy().into_owned()
}

/// The sequential reference matrix for `graph`, computed once per size.
fn reference_matrix(graph: &str, tag: &str) -> Vec<u8> {
    let path = workdir().join(format!("seq-{tag}.bin"));
    if !path.exists() {
        let output = Command::new(bin())
            .args([
                "apsp",
                graph,
                "--algorithm",
                "seq-basic",
                "--out",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("spawn parapsp seq-basic");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    std::fs::read(path).expect("read reference matrix")
}

fn wait_for(child: &mut Child, what: &str, limit: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("wait on child") {
            return status;
        }
        assert!(Instant::now() < deadline, "{what} must exit promptly");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The tentpole invariant, end to end: three real worker processes over a
/// Unix socket, one `kill -9`ed mid-run, and the driver still finishes
/// with a matrix bit-identical to the sequential baseline.
#[test]
fn kill_nine_on_a_real_worker_recovers_bit_identically() {
    let graph = graph_file(600);
    let reference = reference_matrix(&graph, "600");
    let sock = workdir().join("kill9.sock");
    let out = workdir().join("kill9.bin");
    std::fs::remove_file(&sock).ok();
    std::fs::remove_file(&out).ok();

    let mut driver = Command::new(bin())
        .args([
            "apsp",
            &graph,
            "--algorithm",
            "dist",
            "--nodes",
            "3",
            "--transport",
            "unix",
            "--listen",
            sock.to_str().unwrap(),
            "--external",
            "--out",
            out.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dist driver");

    // The socket file appearing means the driver is listening.
    let bound = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < bound, "driver must bind its socket");
        std::thread::sleep(Duration::from_millis(10));
    }

    let spawn_worker = |extra: &[&str]| -> Child {
        let mut args = vec!["node", "--connect", sock.to_str().unwrap()];
        args.extend_from_slice(extra);
        Command::new(bin())
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker")
    };
    let mut healthy_a = spawn_worker(&[]);
    let mut healthy_b = spawn_worker(&[]);
    // The victim crawls (40 ms per source), so it is guaranteed to still
    // be mid-run when the signal lands, debug build or release.
    let mut victim = spawn_worker(&["--delay-ms", "40"]);

    std::thread::sleep(Duration::from_millis(1500));
    assert!(
        victim.try_wait().expect("poll victim").is_none(),
        "the victim must still be computing when killed"
    );
    victim.kill().expect("kill -9 the victim"); // SIGKILL on unix
    victim.wait().expect("reap the victim");

    let status = wait_for(&mut driver, "driver", Duration::from_secs(120));
    let mut stdout = String::new();
    use std::io::Read as _;
    driver
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    assert_eq!(status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.contains("3 nodes, 1 crashed"),
        "the summary must report the killed worker: {stdout}"
    );

    let healthy_a = wait_for(&mut healthy_a, "healthy worker", Duration::from_secs(30));
    let healthy_b = wait_for(&mut healthy_b, "healthy worker", Duration::from_secs(30));
    assert_eq!(healthy_a.code(), Some(0));
    assert_eq!(healthy_b.code(), Some(0));

    let recovered = std::fs::read(&out).expect("read recovered matrix");
    assert_eq!(
        recovered, reference,
        "the recovered matrix must be bit-identical to seq-basic"
    );
    assert!(!sock.exists(), "the socket file must be unlinked");
    std::fs::remove_file(&out).ok();
}

/// Self-spawned workers over TCP under a fault storm: an injected crash
/// (the worker process really exits, code 3) plus payload corruption, and
/// the result still matches the sequential baseline.
#[test]
fn spawned_tcp_cluster_survives_a_fault_storm() {
    let graph = graph_file(400);
    let reference = reference_matrix(&graph, "400");
    let out = workdir().join("storm.bin");
    std::fs::remove_file(&out).ok();

    let output = Command::new(bin())
        .args([
            "apsp",
            &graph,
            "--algorithm",
            "dist",
            "--nodes",
            "3",
            "--transport",
            "tcp",
            "--crash",
            "1:3",
            "--corrupt-prob",
            "0.2",
            "--fault-seed",
            "5",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dist driver");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("3 nodes, 1 crashed"), "stdout: {stdout}");

    let recovered = std::fs::read(&out).expect("read recovered matrix");
    assert_eq!(recovered, reference, "fault storm must not change a bit");
    std::fs::remove_file(&out).ok();
}

/// Degenerate configs are rejected up front with a self-describing error
/// and the usage exit code (2), not a panic or a hang. Exit 1 is reserved
/// for runtime failures — a rejected flag combination is user error.
#[test]
fn degenerate_dist_configs_exit_two_with_a_reason() {
    let graph = graph_file(400);
    for (args, needle) in [
        (vec!["--nodes", "0"], "at least one node"),
        (vec!["--nodes", "4000"], "needs at least one source"),
        (vec!["--transport", "tcp", "--heartbeat", "0"], "zero"),
        (vec!["--transport", "tcp", "--read-timeout", "0"], "zero"),
        (vec!["--transport", "tcp", "--write-timeout", "0"], "zero"),
        (vec!["--transport", "teleport"], "unknown transport"),
    ] {
        let mut full = vec!["apsp", graph.as_str(), "--algorithm", "dist"];
        full.extend_from_slice(&args);
        let output = Command::new(bin())
            .args(&full)
            .output()
            .expect("spawn parapsp");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "args {args:?}: {stderr}");
        assert!(
            stderr.to_lowercase().contains(needle),
            "args {args:?} must explain itself, got: {stderr}"
        );
    }
}

/// `node` without a driver address is an immediate, explained usage error.
#[test]
fn node_without_connect_explains_itself() {
    let output = Command::new(bin())
        .args(["node"])
        .output()
        .expect("spawn parapsp node");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--connect"), "stderr: {stderr}");
}

/// The driver-restart invariant, end to end: a dist run journaling to a
/// ledger is `kill -9`ed mid-run, a second driver process resumes from
/// the ledger over the same socket, the surviving workers re-dial and
/// re-handshake on their own, and the final matrix is bit-identical to
/// the sequential baseline — with strictly fewer rows recomputed than a
/// from-scratch run.
#[test]
fn sigkill_on_the_driver_restarts_from_the_ledger_bit_identically() {
    let graph = graph_file(600);
    let reference = reference_matrix(&graph, "600");
    let sock = workdir().join("restart.sock");
    let ledger = workdir().join("restart.ledger");
    let out = workdir().join("restart.bin");
    for stale in [&sock, &ledger, &out] {
        std::fs::remove_file(stale).ok();
    }

    let spawn_driver = |resume: bool| -> Child {
        let mut args = vec![
            "apsp",
            graph.as_str(),
            "--algorithm",
            "dist",
            "--nodes",
            "3",
            "--transport",
            "unix",
            "--listen",
            sock.to_str().unwrap(),
            "--external",
            "--ledger",
            ledger.to_str().unwrap(),
            "--ledger-fsync",
            "always",
            "--out",
            out.to_str().unwrap(),
        ];
        if resume {
            args.extend_from_slice(&["--resume", ledger.to_str().unwrap()]);
        }
        Command::new(bin())
            .args(&args)
            .stdout(if resume {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn dist driver")
    };

    let mut first = spawn_driver(false);
    let bound = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < bound, "driver must bind its socket");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Slow workers with a generous re-dial budget: they must outlive the
    // driver gap and reconnect to the restarted incarnation by themselves.
    let mut workers: Vec<Child> = (0..3)
        .map(|_| {
            Command::new(bin())
                .args([
                    "node",
                    "--connect",
                    sock.to_str().unwrap(),
                    "--delay-ms",
                    "30",
                    "--connect-attempts",
                    "60",
                ])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn worker")
        })
        .collect();

    // Wait until the ledger holds at least ten durable records (header is
    // 25 bytes; each 600-vertex record is 12 + 4·600 bytes) so the restart
    // provably replays work instead of starting over.
    let ten_records = 25 + 10 * (12 + 4 * 600) as u64;
    let journaled = Instant::now() + Duration::from_secs(30);
    loop {
        let len = std::fs::metadata(&ledger).map(|m| m.len()).unwrap_or(0);
        if len >= ten_records {
            break;
        }
        assert!(
            Instant::now() < journaled,
            "the ledger must accumulate rows while the run is live (have {len} bytes)"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        first.try_wait().expect("poll driver").is_none(),
        "the driver must still be mid-run when killed"
    );
    first.kill().expect("kill -9 the driver"); // SIGKILL on unix
    first.wait().expect("reap the driver");

    let mut second = spawn_driver(true);
    let status = wait_for(&mut second, "restarted driver", Duration::from_secs(120));
    let mut stdout = String::new();
    use std::io::Read as _;
    second
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    assert_eq!(status.code(), Some(0), "stdout: {stdout}");

    // The summary proves the restart resumed instead of recomputing:
    // replayed ≥ the ten journaled rows, computed strictly fewer than all
    // 600, and together they cover the whole matrix exactly once.
    let grab = |prefix: &str, suffix: &str| -> u64 {
        let start = stdout
            .find(prefix)
            .unwrap_or_else(|| panic!("`{prefix}` missing from: {stdout}"))
            + prefix.len();
        let rest = &stdout[start..];
        let end = rest
            .find(suffix)
            .unwrap_or_else(|| panic!("`{suffix}` missing after `{prefix}`: {stdout}"));
        rest[..end].trim().parse().expect("row count")
    };
    let computed = grab("computed ", " rows");
    let replayed = grab("replayed ", " rows");
    assert!(replayed >= 10, "stdout: {stdout}");
    assert!(computed < 600, "stdout: {stdout}");
    assert_eq!(computed + replayed, 600, "stdout: {stdout}");

    for (i, worker) in workers.iter_mut().enumerate() {
        let status = wait_for(worker, "worker", Duration::from_secs(30));
        assert_eq!(status.code(), Some(0), "worker {i} must re-dial and finish");
    }

    let recovered = std::fs::read(&out).expect("read restarted matrix");
    assert_eq!(
        recovered, reference,
        "the restarted run must be bit-identical to seq-basic"
    );
    std::fs::remove_file(&ledger).ok();
    std::fs::remove_file(&out).ok();
}

/// A driver whose only worker speaks another wire version exits 1 and
/// names both versions, without a panic: the worker here is a
/// hand-written protocol v5 `Hello`, and the driver answers it with its
/// own v6 `Hello` before closing.
#[test]
fn a_worker_of_another_wire_version_fails_the_run_with_exit_one() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let graph = graph_file(300);
    let sock = workdir().join(format!("skew-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let driver = Command::new(bin())
        .args([
            "apsp",
            &graph,
            "--algorithm",
            "dist",
            "--nodes",
            "1",
            "--transport",
            "unix",
            "--listen",
            sock.to_str().unwrap(),
            "--external",
            "--accept-timeout",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn parapsp dist driver");
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut stream = loop {
        if let Ok(stream) = UnixStream::connect(&sock) {
            break stream;
        }
        assert!(Instant::now() < deadline, "the driver never listened");
        std::thread::sleep(Duration::from_millis(10));
    };
    // Frame header (magic 0xA5, kind Hello, payload length), then
    // version 5, no reconnects, run id 0, epoch 0.
    let mut hello = vec![0xA5, 0x01, 18, 0, 0, 0];
    hello.extend_from_slice(&5u16.to_le_bytes());
    hello.extend_from_slice(&[0; 16]);
    stream.write_all(&hello).unwrap();
    let mut reply = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.read_to_end(&mut reply).unwrap();
    assert_eq!(
        &reply[..2],
        &[0xA5, 0x01],
        "the driver answers with a Hello"
    );
    assert_eq!(
        u16::from_le_bytes([reply[6], reply[7]]),
        6,
        "of its version"
    );

    let output = driver.wait_with_output().expect("wait on the driver");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("protocol v5, driver v6"),
        "both versions named: {stderr}"
    );
    assert!(stderr.contains("no worker joined the run"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_file(&sock);
}
