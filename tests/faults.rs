//! Fault-injection and checkpoint/resume property tests.
//!
//! The two robustness invariants:
//!
//! * Under any seeded fault plan that leaves at least one cluster node
//!   alive — crashes, dropped hub broadcasts, corrupted row payloads,
//!   in any combination — the distributed run recovers and produces a
//!   matrix *bit-identical* to the fault-free run. Recovery can only
//!   reassign work and retry messages; it can never change a distance,
//!   because every row is exact regardless of which node computes it.
//! * A run killed midway leaves a version-2 checkpoint from which a
//!   resumed run reaches the exact same matrix, computing only the
//!   missing rows.
//! * A run cancelled cooperatively — at *any* poll boundary — hands back
//!   a checkpoint that resumes to a bit-identical matrix. Cancellation
//!   may cost recomputation of in-flight rows, never correctness.

use proptest::prelude::*;

use parapsp::core::engine::{ApspEngine, RunConfig, Runner, SeqEngine};
use parapsp::core::persist::{self, Checkpoint};
use parapsp::core::{ApspOutput, RunOutcome};
use parapsp::dist::{
    ChaosPlan, ClusterConfig, DistApspOutput, DistEngine, FaultPlan, SocketConfig, TransportSpec,
    WorkerMode,
};
use parapsp::graph::{CsrGraph, Direction, GraphBuilder};
use parapsp::parfor::CancelToken;

fn run_par(threads: usize, graph: &CsrGraph) -> ApspOutput {
    Runner::new(RunConfig::par_apsp(threads)).run(ApspEngine::new(), graph)
}

fn run_par_resumed(threads: usize, graph: &CsrGraph, checkpoint: Checkpoint) -> ApspOutput {
    Runner::new(RunConfig::par_apsp(threads)).run_resumed(ApspEngine::new(), graph, checkpoint)
}

fn dist_apsp(graph: &CsrGraph, config: ClusterConfig) -> DistApspOutput {
    Runner::new(RunConfig::new(1)).run(DistEngine::new(config), graph)
}

/// An arbitrary graph with up to `max_n` vertices and `max_m` edges,
/// random directedness, weights in 1..=20.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n, any::<bool>()).prop_flat_map(move |(n, directed)| {
        let edge = (0..n as u32, 0..n as u32, 1u32..=20);
        proptest::collection::vec(edge, 0..max_m).prop_map(move |edges| {
            let direction = if directed {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            let mut b = GraphBuilder::new(n, direction);
            for (u, v, w) in edges {
                b.add_edge(u, v, w).expect("endpoints in range");
            }
            b.build()
        })
    })
}

/// A cluster size together with a fault plan that never crashes *all*
/// nodes: random seed, crash schedule, drop and corruption rates.
fn arb_cluster_faults() -> impl Strategy<Value = (usize, FaultPlan)> {
    (2usize..5).prop_flat_map(|nodes| {
        (
            Just(nodes),
            any::<u64>(),
            proptest::collection::vec((0..nodes, 0u64..6), 0..nodes * 2),
            0.0f64..0.5,
            0.0f64..0.4,
        )
            .prop_map(|(nodes, seed, crashes, drop_p, corrupt_p)| {
                let mut plan = FaultPlan::seeded(seed)
                    .with_drop_probability(drop_p)
                    .with_corrupt_probability(corrupt_p);
                // Admit crashes only while at least one node stays alive.
                let mut crashed = vec![false; nodes];
                for (node, after) in crashes {
                    let would_crash =
                        crashed.iter().filter(|&&c| c).count() + usize::from(!crashed[node]);
                    if would_crash < nodes {
                        crashed[node] = true;
                        plan = plan.crash_node_after(node, after);
                    }
                }
                (nodes, plan)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The invariant holds over BOTH transports with the same fault plan:
    // the node loop is shared code, so every deterministic fault decision
    // fires at identical coordinates whether rows cross a crossbeam
    // channel or a length-prefix-framed TCP socket to worker threads.
    #[test]
    fn recovered_matrix_is_bit_identical_to_fault_free_run(
        graph in arb_graph(40, 180),
        cluster in arb_cluster_faults(),
        hub_fraction in 0.0f64..=0.3,
    ) {
        let (nodes, faults) = cluster;
        let clean = dist_apsp(&graph, ClusterConfig {
            nodes,
            hub_fraction,
            ..ClusterConfig::default()
        });
        for transport in [
            TransportSpec::InProcess,
            TransportSpec::Socket(SocketConfig {
                workers: WorkerMode::Threads,
                ..SocketConfig::default()
            }),
        ] {
            let label = match &transport {
                TransportSpec::InProcess => "channel",
                TransportSpec::Socket(_) => "socket",
            };
            let faulty = dist_apsp(&graph, ClusterConfig {
                nodes,
                hub_fraction,
                faults: faults.clone(),
                transport,
                ..ClusterConfig::default()
            });
            prop_assert_eq!(
                clean.dist.first_difference(&faulty.dist), None,
                "transport {}", label
            );
            // Every source was computed somewhere, crashes or not. (A
            // source can be computed twice: when a node's gather row is
            // rejected as corrupt and the node crashes before re-sending,
            // a survivor recomputes it — exactness makes the duplicate
            // harmless.)
            let sources: u64 = faulty.node_stats.iter().map(|s| s.sources).sum();
            prop_assert!(
                sources >= graph.vertex_count() as u64,
                "transport {}: sources {}", label, sources
            );
        }
    }

    // The same invariant under an adversarial *network*: seeded delay,
    // duplication, reordering, payload corruption, and one-way partitions
    // on the node→driver path — combined with the crash/drop/corrupt
    // fault plan — still yield the exact matrix on both transports.
    #[test]
    fn chaotic_network_still_recovers_bit_identically(
        graph in arb_graph(32, 140),
        cluster in arb_cluster_faults(),
        chaos_seed in any::<u64>(),
        delay_p in 0.0f64..0.6,
        max_delay in 1u64..8,
        dup_p in 0.0f64..0.4,
        corrupt_p in 0.0f64..0.3,
        partition in (0usize..4, 0u64..30, 1u64..40),
    ) {
        let (nodes, faults) = cluster;
        let (victim, from_poll, polls) = partition;
        let chaos = ChaosPlan::seeded(chaos_seed)
            .with_delay(delay_p, max_delay)
            .with_duplicate_probability(dup_p)
            .with_corrupt_probability(corrupt_p)
            .with_control_duplicate_probability(dup_p)
            .partition_node(victim % nodes, from_poll, polls);
        let clean = dist_apsp(&graph, ClusterConfig {
            nodes,
            ..ClusterConfig::default()
        });
        for transport in [
            TransportSpec::InProcess,
            TransportSpec::Socket(SocketConfig {
                workers: WorkerMode::Threads,
                ..SocketConfig::default()
            }),
        ] {
            let label = match &transport {
                TransportSpec::InProcess => "channel",
                TransportSpec::Socket(_) => "socket",
            };
            let stormy = dist_apsp(&graph, ClusterConfig {
                nodes,
                faults: faults.clone(),
                chaos: Some(chaos.clone()),
                transport,
                ..ClusterConfig::default()
            });
            prop_assert_eq!(
                clean.dist.first_difference(&stormy.dist), None,
                "transport {} chaos {:?}", label, &chaos
            );
        }
    }

    #[test]
    fn killed_midway_checkpoint_resumes_to_the_exact_matrix(
        graph in arb_graph(45, 200),
        keep in proptest::collection::vec(any::<bool>(), 45),
        threads in 1usize..5,
    ) {
        let n = graph.vertex_count();
        let full = run_par(threads, &graph);
        // The on-disk artifact of a run killed midway: some rows final,
        // the rest absent.
        let completed: Vec<bool> = (0..n).map(|s| keep[s]).collect();
        let cp = Checkpoint::new(full.dist.clone(), completed.clone());
        let mut bytes = Vec::new();
        persist::write_checkpoint(&cp, &mut bytes).expect("in-memory write");
        let loaded = persist::read_checkpoint(bytes.as_slice()).expect("round trip");
        prop_assert_eq!(&loaded, &cp);
        let missing = completed.iter().filter(|&&done| !done).count() as u64;
        let resumed = run_par_resumed(threads, &graph, loaded);
        prop_assert_eq!(full.dist.first_difference(&resumed.dist), None);
        prop_assert_eq!(resumed.counters.sources, missing);
    }

    // Cancel at an arbitrary poll boundary (a poll budget makes the stop
    // point deterministic per input), round-trip the checkpoint through
    // the v2 wire format, resume, and demand the exact matrix.
    #[test]
    fn cancelled_run_resumes_bit_identically(
        graph in arb_graph(40, 180),
        budget in 0u64..300,
        threads in 1usize..5,
    ) {
        let full = run_par(threads, &graph);
        let token = CancelToken::with_poll_budget(budget);
        match Runner::new(RunConfig::par_apsp(threads)).run_with_token(ApspEngine::new(), &graph, &token) {
            RunOutcome::Complete(out) => {
                // Budget never ran out; the cancellable path must agree
                // with the plain one.
                prop_assert_eq!(full.dist.first_difference(&out.dist), None);
            }
            RunOutcome::Cancelled { checkpoint } => {
                prop_assert!(!checkpoint.is_complete());
                let mut bytes = Vec::new();
                persist::write_checkpoint(&checkpoint, &mut bytes).expect("in-memory write");
                let loaded = persist::read_checkpoint(bytes.as_slice()).expect("round trip");
                prop_assert_eq!(&loaded, &checkpoint);
                let resumed = run_par_resumed(threads, &graph, loaded);
                prop_assert_eq!(full.dist.first_difference(&resumed.dist), None);
            }
            RunOutcome::DeadlineExceeded { .. } => {
                prop_assert!(false, "budget exhaustion must report Cancelled");
            }
        }
    }

    #[test]
    fn checkpoint_corruptions_never_load(
        graph in arb_graph(30, 100),
        keep in proptest::collection::vec(any::<bool>(), 30),
        tweak in any::<u64>(),
    ) {
        let n = graph.vertex_count();
        let full = run_par(2, &graph);
        let completed: Vec<bool> = (0..n).map(|s| keep[s]).collect();
        let cp = Checkpoint::new(full.dist, completed);
        let mut bytes = Vec::new();
        persist::write_checkpoint(&cp, &mut bytes).expect("in-memory write");

        // Truncation anywhere inside the payload is rejected.
        let cut = 14 + (tweak as usize % bytes.len().saturating_sub(14).max(1));
        prop_assert!(persist::read_checkpoint(&bytes[..cut]).is_err());
        // A flipped bitmap bit breaks the count/bitmap agreement.
        if cp.completed_count() > 0 && cp.completed_count() < n {
            let bitmap_start = 4 + 1 + 8 + 8;
            let mut bad = bytes.clone();
            let bit = tweak as usize % n;
            bad[bitmap_start + bit / 8] ^= 1 << (bit % 8);
            prop_assert!(persist::read_checkpoint(bad.as_slice()).is_err());
        }
        // Trailing garbage is rejected.
        let mut bad = bytes.clone();
        bad.push(tweak as u8);
        prop_assert!(persist::read_checkpoint(bad.as_slice()).is_err());
    }
}

/// Version skew is one-directional: a v1 full matrix is a valid (complete)
/// checkpoint, while the plain v1 reader refuses a v2 checkpoint.
#[test]
fn version_skew_between_matrix_and_checkpoint_formats() {
    let mut b = GraphBuilder::new(6, Direction::Undirected);
    for v in 1..6 {
        b.add_edge(0, v, v).unwrap();
    }
    let graph = b.build();
    let full = run_par(2, &graph);

    let mut v1 = Vec::new();
    persist::write_binary(&full.dist, &mut v1).unwrap();
    let upgraded = persist::read_checkpoint(v1.as_slice()).unwrap();
    assert!(upgraded.is_complete());
    assert_eq!(upgraded.matrix().first_difference(&full.dist), None);

    let mut v2 = Vec::new();
    persist::write_checkpoint(&Checkpoint::complete(full.dist), &mut v2).unwrap();
    assert!(persist::read_binary(v2.as_slice()).is_err());
}

/// End-to-end: a ledger run journals every batch of 16 rows, and the
/// final file alone reproduces the matrix.
#[test]
fn checkpoint_file_written_during_a_run_is_loadable_and_exact() {
    let dir = std::env::temp_dir().join("parapsp-faults-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ledger");
    std::fs::remove_file(&path).ok();

    let mut b = GraphBuilder::new(80, Direction::Undirected);
    for v in 1..80u32 {
        b.add_edge(v - 1, v, 1 + v % 7).unwrap();
        b.add_edge(0, v, 3 + v % 5).unwrap();
    }
    let graph = b.build();

    let reference = run_par(4, &graph);
    let out =
        Runner::new(RunConfig::par_apsp(4).with_ledger(&path, 16)).run(ApspEngine::new(), &graph);
    assert_eq!(reference.dist.first_difference(&out.dist), None);

    let cp = persist::load_checkpoint(&path).unwrap();
    assert!(cp.is_complete());
    assert_eq!(cp.matrix().first_difference(&reference.dist), None);
    std::fs::remove_file(path).ok();
}

/// An already-expired deadline stops the run before any row completes,
/// and the (empty) checkpoint still resumes to the exact matrix.
#[test]
fn expired_deadline_stops_immediately_with_a_resumable_checkpoint() {
    let mut b = GraphBuilder::new(60, Direction::Undirected);
    for v in 1..60u32 {
        b.add_edge(v - 1, v, 1 + v % 9).unwrap();
    }
    let graph = b.build();
    let reference = run_par(2, &graph);

    let token = CancelToken::with_deadline(std::time::Duration::ZERO);
    let RunOutcome::DeadlineExceeded { checkpoint } =
        Runner::new(RunConfig::par_apsp(2)).run_with_token(ApspEngine::new(), &graph, &token)
    else {
        panic!("an expired deadline must stop the run");
    };
    assert_eq!(checkpoint.n(), 60);
    assert!(!checkpoint.is_complete());
    let resumed = run_par_resumed(2, &graph, checkpoint);
    assert_eq!(reference.dist.first_difference(&resumed.dist), None);
}

/// The acceptance gate, deterministically: fifty distinct seeded chaos
/// plans — sweeping delay, duplication, corruption, control duplication,
/// and a rotating one-way partition — each run over both transports, and
/// every single matrix bit-identical to the chaos-free reference.
#[test]
fn fifty_seeded_chaos_plans_recover_exactly_on_both_transports() {
    let mut b = GraphBuilder::new(36, Direction::Undirected);
    for v in 1..36u32 {
        b.add_edge(v - 1, v, 1 + v % 6).unwrap();
        b.add_edge(v / 2, v, 2 + v % 4).unwrap();
    }
    let graph = b.build();
    let reference = dist_apsp(
        &graph,
        ClusterConfig {
            nodes: 3,
            ..ClusterConfig::default()
        },
    );

    for seed in 0..50u64 {
        let chaos = ChaosPlan::seeded(seed)
            .with_delay(0.2 + (seed % 5) as f64 * 0.1, 1 + seed % 6)
            .with_duplicate_probability((seed % 4) as f64 * 0.1)
            .with_corrupt_probability((seed % 3) as f64 * 0.1)
            .with_control_duplicate_probability((seed % 5) as f64 * 0.05)
            .partition_node((seed % 3) as usize, seed % 13, 3 + seed % 25);
        for transport in [
            TransportSpec::InProcess,
            TransportSpec::Socket(SocketConfig {
                workers: WorkerMode::Threads,
                ..SocketConfig::default()
            }),
        ] {
            let label = match &transport {
                TransportSpec::InProcess => "channel",
                TransportSpec::Socket(_) => "socket",
            };
            let stormy = dist_apsp(
                &graph,
                ClusterConfig {
                    nodes: 3,
                    chaos: Some(chaos.clone()),
                    transport,
                    ..ClusterConfig::default()
                },
            );
            assert_eq!(
                reference.dist.first_difference(&stormy.dist),
                None,
                "seed {seed} transport {label}"
            );
        }
    }
}

/// The distributed engine honors cancellation too: a cancelled cluster
/// run yields a checkpoint the shared-memory engine can finish exactly.
#[test]
fn cancelled_dist_run_resumes_on_the_shared_memory_engine() {
    let mut b = GraphBuilder::new(50, Direction::Undirected);
    for v in 1..50u32 {
        b.add_edge(v - 1, v, 2 + v % 5).unwrap();
        b.add_edge(0, v, 7).unwrap();
    }
    let graph = b.build();
    let reference = run_par(2, &graph);

    let token = CancelToken::with_poll_budget(3);
    let outcome = Runner::new(RunConfig::new(1)).run_with_token(
        DistEngine::new(ClusterConfig {
            nodes: 3,
            ..ClusterConfig::default()
        }),
        &graph,
        &token,
    );
    match outcome {
        RunOutcome::Complete(out) => {
            assert_eq!(reference.dist.first_difference(&out.dist), None);
        }
        RunOutcome::Cancelled { checkpoint } => {
            let resumed = run_par_resumed(2, &graph, checkpoint);
            assert_eq!(reference.dist.first_difference(&resumed.dist), None);
        }
        RunOutcome::DeadlineExceeded { .. } => {
            panic!("budget exhaustion must report Cancelled");
        }
    }
}

/// The dist driver journals to the ledger on its [`RunConfig`]: a
/// cancelled cluster run leaves its gathered rows in the ledger, and
/// rerunning the same config replays them instead of recomputing them,
/// landing on the matrix seq-basic computes.
#[test]
fn cancelled_dist_ledger_run_resumes_from_its_ledger() {
    let mut b = GraphBuilder::new(120, Direction::Undirected);
    for v in 1..120u32 {
        b.add_edge(v - 1, v, 2 + v % 5).unwrap();
        b.add_edge(v / 3, v, 1 + v % 7).unwrap();
    }
    let graph = b.build();
    let reference = Runner::new(RunConfig::seq_basic()).run(SeqEngine::ordered(), &graph);
    let dir = std::env::temp_dir().join("parapsp-faults-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dist-cancel.ledger");
    std::fs::remove_file(&path).ok();
    let config = RunConfig::new(1).with_ledger(&path, 1);

    // Every node goes quiet for 300 ms after its fifth source, so the
    // driver's poll budget runs out with some rows gathered and most not.
    let mut faults = FaultPlan::seeded(0);
    for node in 0..3 {
        faults = faults.stall_node_after(node, 5, 300);
    }
    let stalling = ClusterConfig {
        nodes: 3,
        faults,
        ..ClusterConfig::default()
    };
    let token = CancelToken::with_poll_budget(10);
    let outcome =
        Runner::new(config.clone()).run_with_token(DistEngine::new(stalling), &graph, &token);
    let RunOutcome::Cancelled { checkpoint } = outcome else {
        panic!("the poll budget must cancel the stalled run");
    };
    let gathered = checkpoint.completed_count();
    assert!(gathered > 0 && gathered < 120, "gathered {gathered}");
    assert_eq!(persist::load_checkpoint(&path).unwrap(), checkpoint);

    let out = Runner::new(config).run(
        DistEngine::new(ClusterConfig {
            nodes: 3,
            ..ClusterConfig::default()
        }),
        &graph,
    );
    assert_eq!(out.replayed_rows, gathered as u64);
    assert_eq!(reference.dist.first_difference(&out.dist), None);
    assert!(persist::load_checkpoint(&path).unwrap().is_complete());
    std::fs::remove_file(&path).ok();
}

/// A dist ledger failure panics naming the file, in the Runner's form.
#[test]
fn dist_ledger_errors_name_the_file() {
    let mut b = GraphBuilder::new(20, Direction::Undirected);
    for v in 1..20u32 {
        b.add_edge(v - 1, v, 1).unwrap();
    }
    let graph = b.build();
    // A directory cannot be opened as a ledger.
    let path = std::env::temp_dir()
        .join("parapsp-faults-tests")
        .join("ledger-is-a-directory");
    std::fs::create_dir_all(&path).unwrap();
    let config = RunConfig::new(1).with_ledger(&path, 1);
    let run = std::panic::catch_unwind(|| {
        Runner::new(config).run(DistEngine::new(ClusterConfig::default()), &graph)
    });
    let payload = run.expect_err("an unopenable ledger must stop the run");
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    let expected = format!("run ledger {}: ", path.display());
    assert!(message.starts_with(&expected), "{message}");
}
