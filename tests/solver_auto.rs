//! Property tests for the solver seam: the probe is a pure function of
//! the graph, `auto` always resolves to a concrete solver, and every
//! solver choice — including whatever the tuner picks — passes the
//! bit-identity oracle against the sequential baseline, capped and
//! uncapped.

use proptest::prelude::*;

use parapsp::core::baselines::apsp_dijkstra;
use parapsp::core::{autotune, probe, ApspEngine, RunConfig, Runner, SolverKind, INF};
use parapsp::graph::generate::{erdos_renyi_gnm, WeightSpec};
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
