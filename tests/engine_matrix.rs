//! Cross-engine equivalence matrix: every [`parapsp::core::Engine`] must
//! reproduce the sequential basic algorithm's distances bit-for-bit on
//! every generator fixture, with and without a `max_distance` cap.
//!
//! Capped runs are compared against the *post-filtered* exact matrix:
//! because every capped entry is either the exact distance (≤ cap) or
//! unreachable, applying the cap inside the kernel (the row engines and
//! every Dist node), as a finish-time post-filter (BlockedFW), or to the
//! finished exact matrix all produce identical bits.

use parapsp::core::{
    ApspEngine, BlockedFwEngine, DistanceMatrix, RunConfig, Runner, SeqEngine, SolverKind,
    StoreSpec, SubsetEngine, INF,
};
use parapsp::dist::{BindSpec, ClusterConfig, DistEngine, SocketConfig, TransportSpec, WorkerMode};
use parapsp::graph::generate::{
    barabasi_albert, erdos_renyi_gnm, grid_graph, path_graph, star_graph, watts_strogatz,
    WeightSpec,
};
use parapsp::graph::{CsrGraph, Direction};
use parapsp::parfor::Schedule;

const WEIGHTS: WeightSpec = WeightSpec::Uniform { lo: 1, hi: 9 };

fn fixtures() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "erdos-renyi",
            erdos_renyi_gnm(60, 240, Direction::Directed, WEIGHTS, 11).unwrap(),
        ),
        (
            "barabasi-albert",
            barabasi_albert(70, 3, WEIGHTS, 22).unwrap(),
        ),
        (
            "watts-strogatz",
            watts_strogatz(64, 4, 0.2, WEIGHTS, 33).unwrap(),
        ),
        // Dense, unskewed, weights 1..1000: the class the default `auto`
        // solver sends to Δ-stepping, so the default-config rows below
        // cover that path and not only the paper's kernel.
        (
            "watts-strogatz-wide",
            watts_strogatz(64, 8, 0.2, WeightSpec::Uniform { lo: 1, hi: 1000 }, 44).unwrap(),
        ),
        ("star", star_graph(50)),
        ("path", path_graph(55, Direction::Directed)),
        ("grid", grid_graph(7, 8)),
    ]
}

/// The expected value of cell `(u, v)` under `cap`: the exact distance,
/// or unreachable when an off-diagonal entry exceeds the cap.
fn expected(full: &DistanceMatrix, u: u32, v: u32, cap: Option<u32>) -> u32 {
    let exact = full.get(u, v);
    match cap {
        Some(c) if u != v && exact > c => INF,
        _ => exact,
    }
}

fn assert_matrix(
    engine: &str,
    fixture: &str,
    cap: Option<u32>,
    full: &DistanceMatrix,
    got: &DistanceMatrix,
) {
    assert_eq!(full.n(), got.n(), "{engine} on {fixture}: size mismatch");
    for u in 0..full.n() as u32 {
        for v in 0..full.n() as u32 {
            assert_eq!(
                got.get(u, v),
                expected(full, u, v, cap),
                "{engine} on {fixture} (cap {cap:?}) differs at ({u}, {v})"
            );
        }
    }
}

#[test]
fn every_engine_matches_seq_basic_on_every_fixture() {
    for (fixture, graph) in fixtures() {
        let full = Runner::new(RunConfig::seq_basic())
            .run(SeqEngine::ordered(), &graph)
            .dist;
        for cap in [None, Some(6u32)] {
            let with_cap = |config: RunConfig| match cap {
                Some(c) => config.with_max_distance(c),
                None => config,
            };

            // Shared-memory parallel family: one engine, three configs.
            for (label, config) in [
                ("par-apsp", RunConfig::par_apsp(4)),
                ("par-alg1", RunConfig::par_alg1(2)),
                ("par-alg2", RunConfig::par_alg2(3)),
            ] {
                let out = Runner::new(with_cap(config)).run(ApspEngine::new(), &graph);
                assert_matrix(label, fixture, cap, &full, &out.dist);
            }

            // Sequential family (the order differs per config; the
            // distances must not).
            for (label, config, engine) in [
                (
                    "seq-optimized",
                    RunConfig::seq_optimized(1.0),
                    SeqEngine::ordered(),
                ),
                (
                    "seq-optimized-bucket",
                    RunConfig::seq_optimized_bucket(),
                    SeqEngine::ordered(),
                ),
                (
                    "seq-adaptive",
                    RunConfig::seq_adaptive(10),
                    SeqEngine::adaptive(10),
                ),
            ] {
                let out = Runner::new(with_cap(config)).run(engine, &graph);
                assert_matrix(label, fixture, cap, &full, &out.dist);
            }

            // Blocked Floyd–Warshall (returns the matrix directly).
            let fw = Runner::new(with_cap(RunConfig::new(3))).run(BlockedFwEngine::new(16), &graph);
            assert_matrix("blocked-fw", fixture, cap, &full, &fw);

            // Distributed cluster simulation, 2 nodes.
            let cluster = DistEngine::new(ClusterConfig {
                nodes: 2,
                ..Default::default()
            });
            let out = Runner::new(with_cap(RunConfig::new(1))).run(cluster, &graph);
            assert_matrix("dist", fixture, cap, &full, &out.dist);

            // The same cluster over Unix sockets: the cap crosses the wire
            // in the worker setup and is applied inside every node's kernel.
            #[cfg(unix)]
            if cap.is_some() {
                let socket = SocketConfig {
                    bind: BindSpec::Unix(std::env::temp_dir().join(format!(
                        "parapsp-matrix-{fixture}-{}.sock",
                        std::process::id()
                    ))),
                    workers: WorkerMode::Threads,
                    ..SocketConfig::default()
                };
                let cluster = DistEngine::new(ClusterConfig {
                    nodes: 2,
                    transport: TransportSpec::Socket(socket),
                    ..Default::default()
                });
                let out = Runner::new(with_cap(RunConfig::new(1))).run(cluster, &graph);
                assert_matrix("dist[unix]", fixture, cap, &full, &out.dist);
            }

            // Subset engine over every source: each row must equal the
            // corresponding full-matrix row.
            let sources: Vec<u32> = (0..graph.vertex_count() as u32).collect();
            let rows =
                Runner::new(with_cap(RunConfig::subset(3))).run(SubsetEngine::new(sources), &graph);
            for u in 0..graph.vertex_count() as u32 {
                let row = rows.row_of(u).expect("every source requested");
                for v in 0..graph.vertex_count() as u32 {
                    assert_eq!(
                        row[v as usize],
                        expected(&full, u, v, cap),
                        "subset on {fixture} (cap {cap:?}) differs at ({u}, {v})"
                    );
                }
            }
        }
    }
}

/// Schedule axis: the loop schedule decides *who* computes each row and
/// *when*, never *what* the row contains — every parallel engine must be
/// bit-identical to seq-basic under every schedule. The `1 << 63` chunk
/// sums the threads' claims past `usize::MAX`: unclamped, the claim
/// counter wraps and sources run twice.
#[test]
fn every_schedule_matches_seq_basic_on_every_fixture() {
    let schedules = [
        ("dynamic-cyclic", Schedule::dynamic_cyclic()),
        ("dynamic(4)", Schedule::DynamicChunked(4)),
        ("dynamic(2^63)", Schedule::DynamicChunked(1 << 63)),
    ];
    for (fixture, graph) in fixtures() {
        let full = Runner::new(RunConfig::seq_basic())
            .run(SeqEngine::ordered(), &graph)
            .dist;
        for (sched_label, schedule) in schedules {
            for (label, config) in [
                ("par-apsp", RunConfig::par_apsp(4)),
                ("par-alg1", RunConfig::par_alg1(2)),
                ("par-alg2", RunConfig::par_alg2(3)),
            ] {
                let out =
                    Runner::new(config.with_schedule(schedule)).run(ApspEngine::new(), &graph);
                assert_matrix(
                    &format!("{label}[{sched_label}]"),
                    fixture,
                    None,
                    &full,
                    &out.dist,
                );
            }
        }
    }
}

/// Solver axis: the per-source SSSP solver decides the *order* of
/// relaxations inside one row, never the distances — every solver must be
/// bit-identical to seq-basic on every fixture, through the parallel and
/// sequential engines, uncapped and capped. `auto` resolves against each
/// graph at engine prepare time, so this also proves that whatever the
/// tuner picks passes the oracle.
#[test]
fn every_solver_matches_seq_basic_on_every_fixture() {
    let solvers = [
        SolverKind::Dijkstra,
        SolverKind::Delta { delta: None },
        SolverKind::Delta { delta: Some(4) },
        SolverKind::Auto,
    ];
    for (fixture, graph) in fixtures() {
        let full = Runner::new(RunConfig::seq_basic())
            .run(SeqEngine::ordered(), &graph)
            .dist;
        for cap in [None, Some(6u32)] {
            let with_cap = |config: RunConfig| match cap {
                Some(c) => config.with_max_distance(c),
                None => config,
            };
            for solver in solvers {
                for (label, config) in [
                    ("par-apsp", RunConfig::par_apsp(4)),
                    ("par-alg1", RunConfig::par_alg1(2)),
                ] {
                    let out = Runner::new(with_cap(config).with_solver(solver))
                        .run(ApspEngine::new(), &graph);
                    assert_matrix(
                        &format!("{label}[{}]", solver.label()),
                        fixture,
                        cap,
                        &full,
                        &out.dist,
                    );
                }
                for (label, config, engine) in [
                    ("seq-basic", RunConfig::seq_basic(), SeqEngine::ordered()),
                    (
                        "seq-optimized",
                        RunConfig::seq_optimized(1.0),
                        SeqEngine::ordered(),
                    ),
                    (
                        "seq-adaptive",
                        RunConfig::seq_adaptive(10),
                        SeqEngine::adaptive(10),
                    ),
                ] {
                    let out = Runner::new(with_cap(config).with_solver(solver)).run(engine, &graph);
                    assert_matrix(
                        &format!("{label}[{}]", solver.label()),
                        fixture,
                        cap,
                        &full,
                        &out.dist,
                    );
                }
            }
        }
    }
}

/// Store axis: the matrix storage backend decides *where* finished rows
/// live — dense heap memory, landmark-delta compressed blocks, or
/// out-of-core mmap shards — never what they contain. Every store must be
/// bit-identical to seq-basic through the parallel, sequential, and
/// distributed engines, uncapped and capped. The delta store runs with a
/// deliberately tiny hot-row cache and the mmap stores with tiny decoded
/// budgets so eviction/decode round trips are actually exercised; the
/// `mmap-tiny` cell holds only ~15 decoded rows at these fixture sizes,
/// so leases pin and evict constantly while 4 kernel threads race.
///
/// Row reuse must actually *fire* through the lease layer on every
/// backend — a backend that silently degrades to plain SPFA would still
/// pass the bit-identity oracle, so the test also asserts each store
/// accumulated nonzero `row_reuses` across the sweep.
#[test]
fn every_store_matches_seq_basic_on_every_fixture() {
    let stores = [
        ("dense", StoreSpec::dense()),
        ("delta", StoreSpec::delta(4)),
        ("mmap", StoreSpec::mmap(64 * 1024)),
        ("mmap-tiny", StoreSpec::mmap(4096)),
    ];
    let mut reuses: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for (fixture, graph) in fixtures() {
        let full = Runner::new(RunConfig::seq_basic())
            .run(SeqEngine::ordered(), &graph)
            .dist;
        for cap in [None, Some(6u32)] {
            let with_cap = |config: RunConfig| match cap {
                Some(c) => config.with_max_distance(c),
                None => config,
            };
            for (store_label, store) in &stores {
                for (label, config) in [
                    ("par-apsp", RunConfig::par_apsp(4)),
                    ("seq-basic", RunConfig::seq_basic()),
                    ("seq-optimized", RunConfig::seq_optimized(1.0)),
                ] {
                    let config = with_cap(config).with_store(store.clone());
                    let out = if label.starts_with("seq") {
                        Runner::new(config).run(SeqEngine::ordered(), &graph)
                    } else {
                        Runner::new(config).run(ApspEngine::new(), &graph)
                    };
                    assert_matrix(
                        &format!("{label}[{store_label}]"),
                        fixture,
                        cap,
                        &full,
                        &out.dist,
                    );
                    assert_eq!(
                        out.counters.row_reuses,
                        out.counters.lease_hits + out.counters.lease_misses,
                        "{label}[{store_label}] on {fixture}: every reuse goes through a lease"
                    );
                    *reuses.entry(store_label).or_insert(0) += out.counters.row_reuses;
                }

                // Distributed: the store backs the driver's gather target.
                let cluster = DistEngine::new(ClusterConfig {
                    nodes: 2,
                    ..Default::default()
                });
                let out = Runner::new(with_cap(RunConfig::new(1)).with_store(store.clone()))
                    .run(cluster, &graph);
                assert_matrix(
                    &format!("dist[{store_label}]"),
                    fixture,
                    cap,
                    &full,
                    &out.dist,
                );
            }
        }
    }
    for (store_label, _) in &stores {
        assert!(
            reuses.get(store_label).copied().unwrap_or(0) > 0,
            "{store_label}: row reuse never fired across the whole sweep — \
             the lease layer is being bypassed on this backend"
        );
    }
}
