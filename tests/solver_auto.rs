//! Property tests for the solver seam: the probe is a pure function of
//! the graph, `auto` always resolves to a concrete solver, and every
//! solver choice — including whatever the tuner picks — passes the
//! bit-identity oracle against the sequential baseline, capped and
//! uncapped. The multi-source BFS is checked on unit-weight graphs
//! sized around its 64-lane batch, through thread counts and ledger
//! batches that leave partial batches.

use proptest::prelude::*;

use parapsp::core::baselines::apsp_dijkstra;
use parapsp::core::{
    autotune, probe, AdaptiveEngine, ApspEngine, Counters, FsyncPolicy, RunConfig, Runner,
    SolverKind, INF,
};
use parapsp::graph::generate::{barabasi_albert, erdos_renyi_gnm, watts_strogatz, WeightSpec};
use parapsp::graph::{CsrGraph, Direction, GraphBuilder};

/// Strategy: an arbitrary graph with up to `max_n` vertices and `max_m`
/// edges, random directedness and weights in 1..=50 (wide enough that the
/// probe sees non-unit weight ranges and the tuner exercises every arm).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n, any::<bool>()).prop_flat_map(move |(n, directed)| {
        let edge = (0..n as u32, 0..n as u32, 1u32..=50);
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

/// Strategy: a unit-weight graph with 1, 63, 64, 65 or 130 vertices (one
/// lane, one short of a batch, a full batch, one over, two batches and
/// a partial one), random directedness, and from no edges up to three
/// per vertex — sparse draws leave the graph disconnected.
fn arb_unit_graph() -> impl Strategy<Value = CsrGraph> {
    (0usize..5, any::<bool>(), 0usize..4).prop_flat_map(|(size, directed, per_vertex)| {
        let n = [1, 63, 64, 65, 130][size];
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..n * per_vertex + 1).prop_map(move |edges| {
            let direction = if directed {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            let mut b = GraphBuilder::new(n, direction);
            for (u, v) in edges {
                b.add_edge(u, v, 1).expect("endpoints in range");
            }
            b.build()
        })
    })
}

/// Strategy: an arbitrary solver, including a randomly parameterized Δ.
fn arb_solver() -> impl Strategy<Value = SolverKind> {
    (0u32..4, 1u32..=30).prop_map(|(pick, d)| match pick {
        0 => SolverKind::Dijkstra,
        1 => SolverKind::Delta { delta: None },
        2 => SolverKind::Delta { delta: Some(d) },
        _ => SolverKind::Auto,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The probe reads only the graph: probing twice — or probing a
    // freshly rebuilt graph with the same seed — yields identical
    // measurements, so `--solver auto` is reproducible run to run.
    #[test]
    fn probe_is_deterministic_for_a_fixed_seed(
        n in 4usize..40,
        m_factor in 1usize..6,
        seed in any::<u64>(),
    ) {
        let m = (n * m_factor).min(n * (n - 1) / 2);
        let build = || {
            erdos_renyi_gnm(
                n,
                m,
                Direction::Directed,
                WeightSpec::Uniform { lo: 1, hi: 40 },
                seed,
            )
            .unwrap()
        };
        let a = build();
        let b = build();
        prop_assert_eq!(probe(&a), probe(&b));
        prop_assert_eq!(autotune(&a).solver, autotune(&b).solver);
    }

    // `auto` always collapses to a concrete, fully-parameterized solver.
    #[test]
    fn autotune_resolves_to_a_concrete_solver(graph in arb_graph(40, 200)) {
        let choice = autotune(&graph);
        prop_assert!(choice.solver != SolverKind::Auto);
        if let SolverKind::Delta { delta } = choice.solver {
            prop_assert!(delta.is_some(), "auto must pin Δ");
            prop_assert!(delta.unwrap() >= 1);
        }
    }

    // Every solver — concrete or tuner-chosen — is bit-identical to the
    // heap-Dijkstra baseline through both a parallel and a sequential
    // engine.
    #[test]
    fn every_solver_choice_passes_the_bit_identity_oracle(
        graph in arb_graph(36, 150),
        solver in arb_solver(),
    ) {
        let reference = apsp_dijkstra(&graph);
        let par = Runner::new(RunConfig::par_apsp(3).with_solver(solver))
            .run(ApspEngine::new(), &graph);
        prop_assert_eq!(
            reference.first_difference(&par.dist),
            None,
            "par-apsp with solver {}",
            solver.label()
        );
        let seq = Runner::new(RunConfig::seq_optimized(1.0).with_solver(solver))
            .run(ApspEngine::new(), &graph);
        prop_assert_eq!(
            reference.first_difference(&seq.dist),
            None,
            "seq-optimized with solver {}",
            solver.label()
        );
    }

    // msbfs on unit-weight graphs matches seq-basic bit for bit on 1–4
    // threads, uncapped or capped, without a ledger or journaling every
    // 1, 7 or 64 sources — each batch size splits into MS-BFS batches of
    // its own width.
    #[test]
    fn msbfs_matches_seq_basic_on_unit_weight_graphs(
        graph in arb_unit_graph(),
        threads in 1usize..5,
        every in 0usize..4,
        cap in 0u32..8,
    ) {
        let cap = (cap < 6).then_some(cap);
        let with_cap = |config: RunConfig| match cap {
            Some(c) => config.with_max_distance(c),
            None => config,
        };
        let reference = Runner::new(with_cap(RunConfig::seq_basic())).run(ApspEngine::new(), &graph);
        let mut config = with_cap(RunConfig::par_apsp(threads)).with_solver(SolverKind::MsBfs);
        let ledger = [None, Some(1), Some(7), Some(64)][every].map(|every| {
            let path = std::env::temp_dir().join(format!(
                "parapsp-solver-auto-msbfs-{}.ledger",
                std::process::id()
            ));
            std::fs::remove_file(&path).ok();
            config = config.clone().with_ledger(&path, every).with_fsync(FsyncPolicy::Never);
            path
        });
        let out = Runner::new(config).run(ApspEngine::new(), &graph);
        if let Some(path) = ledger {
            std::fs::remove_file(&path).ok();
        }
        prop_assert_eq!(
            reference.dist.first_difference(&out.dist),
            None,
            "n {} threads {} every {} cap {:?}",
            graph.vertex_count(),
            threads,
            every,
            cap
        );
        prop_assert_eq!(out.counters.sources, graph.vertex_count() as u64);
    }

    // Cap semantics are solver-independent: exactly-at-cap entries stay,
    // everything beyond drops to INF, for every solver.
    #[test]
    fn caps_agree_across_solvers(
        graph in arb_graph(30, 120),
        solver in arb_solver(),
        cap in 0u32..60,
    ) {
        let full = apsp_dijkstra(&graph);
        let out = Runner::new(
            RunConfig::par_apsp(2).with_solver(solver).with_max_distance(cap),
        )
        .run(ApspEngine::new(), &graph);
        let n = full.n();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let exact = full.get(u, v);
                let want = if u != v && exact > cap { INF } else { exact };
                prop_assert_eq!(
                    out.dist.get(u, v),
                    want,
                    "solver {} cap {} at ({}, {})",
                    solver.label(),
                    cap,
                    u,
                    v
                );
            }
        }
    }
}

/// The tuner's arms on one graph each: unit weights and no edges at all
/// go to msbfs, uniform weights other than 1 stay on the paper's kernel,
/// and a dense, unskewed graph with weights 1..1000 goes to Δ-stepping.
#[test]
fn autotune_picks_msbfs_exactly_on_unit_weights() {
    let unit = barabasi_albert(300, 3, WeightSpec::Unit, 3).unwrap();
    assert_eq!(autotune(&unit).solver, SolverKind::MsBfs);
    let edgeless = GraphBuilder::new(10, Direction::Directed).build();
    assert_eq!(autotune(&edgeless).solver, SolverKind::MsBfs);
    let threes = erdos_renyi_gnm(
        300,
        1200,
        Direction::Directed,
        WeightSpec::Uniform { lo: 3, hi: 3 },
        3,
    )
    .unwrap();
    assert_eq!(autotune(&threes).solver, SolverKind::Dijkstra);
    let ws_wide = watts_strogatz(300, 8, 0.2, WeightSpec::Uniform { lo: 1, hi: 1000 }, 3).unwrap();
    assert!(
        matches!(
            autotune(&ws_wide).solver,
            SolverKind::Delta { delta: Some(_) }
        ),
        "{}",
        autotune(&ws_wide).solver.label()
    );
}

/// Where `auto` picks msbfs, Peng's sequential configurations (which pin
/// the kernel) and the adaptive engines (which resolve `auto` per row)
/// still run the paper's kernel: on a unit-weight BA graph their counters
/// are the ones the kernel has always produced there.
#[test]
fn seq_and_adaptive_runs_keep_the_kernel_counters_on_unit_weights() {
    let g = barabasi_albert(300, 3, WeightSpec::Unit, 3).unwrap();
    let kernel = |relaxations, queue_pops, row_reuses| Counters {
        relaxations,
        queue_pops,
        row_reuses,
        lease_hits: row_reuses,
        sources: 300,
        ..Counters::default()
    };
    let basic = Runner::new(RunConfig::seq_basic()).run(ApspEngine::new(), &g);
    assert_eq!(basic.counters, kernel(132_932, 5_589, 1_320));
    let adaptive = Runner::new(RunConfig::seq_adaptive(10)).run(AdaptiveEngine::new(10, 1), &g);
    assert_eq!(adaptive.counters, kernel(129_768, 5_847, 1_479));
    let par = Runner::new(RunConfig::par_adaptive(1)).run(AdaptiveEngine::new(16, 8), &g);
    assert_eq!(par.counters, kernel(130_263, 5_796, 1_489));
    // The default parallel config runs msbfs there: no row reuse at all.
    let msbfs = Runner::new(RunConfig::par_apsp(2)).run(ApspEngine::new(), &g);
    assert_eq!(msbfs.counters.row_reuses, 0);
    assert_eq!(basic.dist.first_difference(&msbfs.dist), None);
}
