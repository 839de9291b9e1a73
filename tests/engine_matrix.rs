//! Cross-engine equivalence matrix: every [`parapsp::core::Engine`] must
//! reproduce the sequential basic algorithm's distances bit-for-bit on
//! every generator fixture, with and without a `max_distance` cap.
//! seq-basic itself runs on the static-order row engine under test, so
//! [`oracle`] first checks it against binary-heap Dijkstra.
//!
//! Capped runs are compared against the *post-filtered* exact matrix:
//! because every capped entry is either the exact distance (≤ cap) or
//! unreachable, applying the cap inside the kernel (the row engines and
//! every Dist node) or to the finished exact matrix produces identical
//! bits.

use parapsp::core::baselines::apsp_dijkstra;
use parapsp::core::{
    AdaptiveEngine, ApspEngine, DistanceMatrix, RunConfig, Runner, SolverKind, StoreSpec,
    SubsetEngine, INF,
};
use parapsp::dist::{BindSpec, ClusterConfig, DistEngine, SocketConfig, TransportSpec, WorkerMode};
use parapsp::graph::generate::{
    barabasi_albert, erdos_renyi_gnm, grid_graph, path_graph, star_graph, watts_strogatz,
    WeightSpec,
};
use parapsp::graph::{CsrGraph, Direction};
use parapsp::parfor::{CancelToken, Schedule};

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
        // Unit weights and more sources than one MS-BFS batch has lanes:
        // `auto` sends it to msbfs in full 64-source batches.
        (
            "barabasi-albert-unit",
            barabasi_albert(150, 3, WeightSpec::Unit, 66).unwrap(),
        ),
    ]
}

/// seq-basic's matrix, checked against binary-heap Dijkstra: the oracle
/// every other engine is compared to.
fn oracle(fixture: &str, graph: &CsrGraph) -> DistanceMatrix {
    let full = Runner::new(RunConfig::seq_basic())
        .run(ApspEngine::new(), graph)
        .dist;
    assert_eq!(
        apsp_dijkstra(graph).first_difference(&full),
        None,
        "seq-basic on {fixture} differs from heap Dijkstra"
    );
    full
}

/// par-adaptive's engine: credit weight 16, 8 sources per thread a wave.
fn par_adaptive() -> AdaptiveEngine {
    AdaptiveEngine::new(16, 8)
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
        let full = oracle(fixture, &graph);
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

            // Sequential family on the same engine (the order differs per
            // config; the distances must not).
            for (label, config) in [
                ("seq-optimized", RunConfig::seq_optimized(1.0)),
                ("seq-optimized-bucket", RunConfig::seq_optimized_bucket()),
            ] {
                let out = Runner::new(with_cap(config)).run(ApspEngine::new(), &graph);
                assert_matrix(label, fixture, cap, &full, &out.dist);
            }

            // The run-time order: Peng's adaptive variant and its
            // wave-parallel extension.
            let out = Runner::new(with_cap(RunConfig::seq_adaptive(10)))
                .run(AdaptiveEngine::new(10, 1), &graph);
            assert_matrix("seq-adaptive", fixture, cap, &full, &out.dist);
            let out = Runner::new(with_cap(RunConfig::par_adaptive(4))).run(par_adaptive(), &graph);
            assert_matrix("par-adaptive", fixture, cap, &full, &out.dist);

            // Distributed cluster simulation, 2 nodes, on each node
            // solver: the paper's kernel everywhere, the multi-source BFS
            // on unit weights (`auto` resolves to one of the two).
            let mut node_solvers = vec![SolverKind::Dijkstra];
            if graph.is_unit_weight() {
                node_solvers.push(SolverKind::MsBfs);
            }
            for solver in node_solvers {
                let config = || with_cap(RunConfig::new(1)).with_solver(solver);
                let cluster = DistEngine::new(ClusterConfig {
                    nodes: 2,
                    ..Default::default()
                });
                let out = Runner::new(config()).run(cluster, &graph);
                let label = format!("dist[{}]", solver.label());
                assert_matrix(&label, fixture, cap, &full, &out.dist);

                // The same cluster over Unix sockets: the cap and the node
                // solver cross the wire in the worker setup.
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
                    let out = Runner::new(config()).run(cluster, &graph);
                    let label = format!("dist[unix, {}]", solver.label());
                    assert_matrix(&label, fixture, cap, &full, &out.dist);
                }
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
        let full = oracle(fixture, &graph);
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
            let config = RunConfig::par_adaptive(3).with_schedule(schedule);
            let out = Runner::new(config).run(par_adaptive(), &graph);
            assert_matrix(
                &format!("par-adaptive[{sched_label}]"),
                fixture,
                None,
                &full,
                &out.dist,
            );
        }
    }
}

/// Solver axis: the per-source SSSP solver decides the *order* of
/// relaxations inside one row, never the distances — every solver must be
/// bit-identical to seq-basic on every fixture, through the parallel and
/// sequential engines, uncapped and capped. `auto` resolves against each
/// graph at engine prepare time, so this also proves that whatever the
/// tuner picks passes the oracle.
///
/// msbfs runs on the unit-weight fixtures only, and only on the
/// static-order engine, where it solves a batch of sources per loop
/// iteration: every store tier × schedule, capped and uncapped, plus a
/// par-apsp run stopped after its first batch and resumed, and a ledger
/// run whose 7-source batches split into partial MS-BFS batches.
#[test]
fn every_solver_matches_seq_basic_on_every_fixture() {
    let solvers = [
        SolverKind::Dijkstra,
        SolverKind::Delta { delta: None },
        SolverKind::Delta { delta: Some(4) },
        SolverKind::Auto,
    ];
    for (fixture, graph) in fixtures() {
        let full = oracle(fixture, &graph);
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
                for (label, config) in [
                    ("seq-basic", RunConfig::seq_basic()),
                    ("seq-optimized", RunConfig::seq_optimized(1.0)),
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
                    (
                        "seq-adaptive",
                        RunConfig::seq_adaptive(10),
                        AdaptiveEngine::new(10, 1),
                    ),
                    ("par-adaptive", RunConfig::par_adaptive(3), par_adaptive()),
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

    let stores = [
        ("dense", StoreSpec::dense()),
        ("mmap", StoreSpec::mmap(64 * 1024)),
        ("mmap-tiny", StoreSpec::mmap(4096)),
    ];
    let schedules = [
        ("dynamic-cyclic", Schedule::dynamic_cyclic()),
        ("block", Schedule::Block),
        ("dynamic(4)", Schedule::DynamicChunked(4)),
        ("dynamic(2^63)", Schedule::DynamicChunked(1 << 63)),
    ];
    let ledger_dir = std::env::temp_dir().join("parapsp-engine-matrix");
    std::fs::create_dir_all(&ledger_dir).unwrap();
    let unit_weight = fixtures().into_iter().filter(|(_, g)| g.is_unit_weight());
    for (fixture, graph) in unit_weight {
        let full = oracle(fixture, &graph);
        for cap in [None, Some(6u32)] {
            let msbfs = |config: RunConfig, store: &StoreSpec| {
                let config = config
                    .with_solver(SolverKind::MsBfs)
                    .with_store(store.clone());
                match cap {
                    Some(c) => config.with_max_distance(c),
                    None => config,
                }
            };
            for (store_label, store) in &stores {
                for (sched_label, schedule) in schedules {
                    for (label, config) in [
                        ("par-apsp", RunConfig::par_apsp(4)),
                        ("par-alg1", RunConfig::par_alg1(2)),
                        ("seq-basic", RunConfig::seq_basic()),
                    ] {
                        let config = msbfs(config, store).with_schedule(schedule);
                        let out = Runner::new(config).run(ApspEngine::new(), &graph);
                        assert_matrix(
                            &format!("{label}[msbfs, {store_label}, {sched_label}]"),
                            fixture,
                            cap,
                            &full,
                            &out.dist,
                        );
                        assert_eq!(out.counters.sources, graph.vertex_count() as u64);
                    }
                }

                // Stopped after the first batch's poll, then resumed.
                let runner = Runner::new(msbfs(RunConfig::par_apsp(2), store));
                let checkpoint = runner
                    .run_with_token(ApspEngine::new(), &graph, &CancelToken::with_poll_budget(1))
                    .into_checkpoint()
                    .expect("one poll covers one batch of several");
                assert!(
                    checkpoint.completed_count() > 0 && !checkpoint.is_complete(),
                    "par-apsp[msbfs, {store_label}] on {fixture}"
                );
                let out = runner.run_resumed(ApspEngine::new(), &graph, checkpoint);
                assert_matrix(
                    &format!("par-apsp[msbfs, {store_label}, resumed]"),
                    fixture,
                    cap,
                    &full,
                    &out.dist,
                );

                // Ledger batches of 7 sources: 4 + 3 lanes on two threads.
                let path = ledger_dir.join(format!(
                    "msbfs-{fixture}-{store_label}-{}.ledger",
                    std::process::id()
                ));
                std::fs::remove_file(&path).ok();
                let config = msbfs(RunConfig::par_apsp(2), store).with_ledger(&path, 7);
                let out = Runner::new(config).run(ApspEngine::new(), &graph);
                assert_matrix(
                    &format!("par-apsp[msbfs, {store_label}, ledger]"),
                    fixture,
                    cap,
                    &full,
                    &out.dist,
                );
                let replay = parapsp::core::persist::load_checkpoint(&path).unwrap();
                assert!(replay.is_complete(), "{fixture}: {store_label} ledger");
                assert_eq!(replay.matrix().first_difference(&out.dist), None);
                std::fs::remove_file(&path).ok();
            }
        }
    }
}

/// Store axis: the matrix storage backend decides *where* finished rows
/// live — dense heap memory or out-of-core mmap shards — never what they
/// contain. Every store must be bit-identical to seq-basic through the
/// parallel, sequential, adaptive and distributed engines, uncapped and
/// capped, and through a par-adaptive run cancelled mid-sweep and resumed
/// from its stop checkpoint.
/// The mmap stores run with tiny hot-row budgets so eviction and `pread`
/// round trips are actually exercised; the `mmap-tiny` cell holds only
/// ~15 rows at these fixture sizes, so leases pin and evict constantly
/// while 4 kernel threads race.
///
/// Row reuse must actually *fire* through the lease layer on every
/// backend — a backend that silently degrades to plain SPFA would still
/// pass the bit-identity oracle, so the test also asserts each store
/// accumulated nonzero `row_reuses` across the sweep.
#[test]
fn every_store_matches_seq_basic_on_every_fixture() {
    let stores = [
        ("dense", StoreSpec::dense()),
        ("mmap", StoreSpec::mmap(64 * 1024)),
        ("mmap-tiny", StoreSpec::mmap(4096)),
    ];
    let mut reuses: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for (fixture, graph) in fixtures() {
        let full = oracle(fixture, &graph);
        for cap in [None, Some(6u32)] {
            let with_cap = |config: RunConfig| match cap {
                Some(c) => config.with_max_distance(c),
                None => config,
            };
            for (store_label, store) in &stores {
                for (label, config) in [
                    ("par-apsp", RunConfig::par_apsp(4)),
                    ("par-adaptive", RunConfig::par_adaptive(4)),
                    ("seq-basic", RunConfig::seq_basic()),
                    ("seq-optimized", RunConfig::seq_optimized(1.0)),
                ] {
                    let runner = Runner::new(with_cap(config).with_store(store.clone()));
                    let out = if label == "par-adaptive" {
                        runner.run(par_adaptive(), &graph)
                    } else {
                        runner.run(ApspEngine::new(), &graph)
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

                // par-adaptive stopped after a third of its sources, then
                // resumed into the same store tier.
                let runner =
                    Runner::new(with_cap(RunConfig::par_adaptive(4)).with_store(store.clone()));
                let token = CancelToken::with_poll_budget(graph.vertex_count() as u64 / 3);
                let checkpoint = runner
                    .run_with_token(par_adaptive(), &graph, &token)
                    .into_checkpoint()
                    .expect("the poll budget stops the run");
                assert!(
                    !checkpoint.is_complete(),
                    "par-adaptive[{store_label}] on {fixture}"
                );
                let out = runner.run_resumed(par_adaptive(), &graph, checkpoint);
                assert_matrix(
                    &format!("par-adaptive[{store_label}, resumed]"),
                    fixture,
                    cap,
                    &full,
                    &out.dist,
                );

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
