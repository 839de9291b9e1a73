//! Stress and robustness tests: heavy reuse of the runtime substrate,
//! oversubscription, panic recovery, and adversarial graph shapes —
//! behaviours unit tests at module scope don't exercise together.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use parapsp::core::baselines::apsp_dijkstra;
use parapsp::core::engine::{ApspEngine, RunConfig, Runner};
use parapsp::core::ApspOutput;
use parapsp::graph::generate::{barabasi_albert, complete_graph, star_graph, WeightSpec};
use parapsp::graph::{CsrGraph, Direction};
use parapsp::order::OrderingProcedure;
use parapsp::parfor::{Schedule, ThreadPool};

fn run_par(threads: usize, graph: &CsrGraph) -> ApspOutput {
    Runner::new(RunConfig::par_apsp(threads)).run(ApspEngine::new(), graph)
}

#[test]
fn one_pool_survives_hundreds_of_heterogeneous_regions() {
    let pool = ThreadPool::new(8);
    let counter = AtomicUsize::new(0);
    for round in 0..300 {
        let n = 1 + (round * 7) % 50;
        let schedule = match round % 4 {
            0 => Schedule::Block,
            1 => Schedule::StaticCyclic,
            2 => Schedule::dynamic_cyclic(),
            _ => Schedule::DynamicChunked(3),
        };
        pool.parallel_for(n, schedule, |_tid, _i| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
    }
    let expected: usize = (0..300).map(|round| 1 + (round * 7) % 50).sum();
    assert_eq!(counter.load(Ordering::Relaxed), expected);
}

#[test]
fn pool_remains_correct_after_repeated_panics() {
    let pool = ThreadPool::new(4);
    for round in 0..20 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(64, Schedule::dynamic_cyclic(), |_tid, i| {
                if i == round * 3 {
                    panic!("injected failure {round}");
                }
            });
        }));
        assert!(result.is_err(), "round {round} should have panicked");
        // Immediately afterwards the pool must do correct work again.
        let hits = AtomicUsize::new(0);
        pool.parallel_for(100, Schedule::Block, |_tid, _i| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }
}

#[test]
fn many_pools_in_parallel_threads() {
    // Several OS threads each drive their own pool concurrently.
    let handles: Vec<_> = (0..4)
        .map(|seed| {
            std::thread::spawn(move || {
                let g = barabasi_albert(80, 2, WeightSpec::Unit, seed).unwrap();
                let reference = apsp_dijkstra(&g);
                let out = run_par(3, &g);
                assert_eq!(reference.first_difference(&out.dist), None);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
}

#[test]
fn heavy_oversubscription_stays_exact() {
    // 32 pool threads on a 1-core box: maximal interleaving pressure on
    // the publication protocol.
    let g = barabasi_albert(150, 3, WeightSpec::Unit, 99).unwrap();
    let reference = apsp_dijkstra(&g);
    let out = run_par(32, &g);
    assert_eq!(reference.first_difference(&out.dist), None);
    assert_eq!(out.thread_busy.len(), 32);
}

#[test]
fn adversarial_shapes() {
    // Star: every SSSP touches the hub; maximal row-reuse contention.
    let star = star_graph(400);
    let reference = apsp_dijkstra(&star);
    let out = run_par(8, &star);
    assert_eq!(reference.first_difference(&out.dist), None);

    // Complete graph: every row reuse scans everything.
    let complete = complete_graph(120);
    let reference = apsp_dijkstra(&complete);
    let out = run_par(8, &complete);
    assert_eq!(reference.first_difference(&out.dist), None);

    // Long path: worst-case SPFA queue depth.
    let path = parapsp::graph::generate::path_graph(2_000, Direction::Undirected);
    let out = run_par(4, &path);
    assert_eq!(out.dist.get(0, 1_999), 1_999);

    // All-isolated vertices: nothing to relax anywhere.
    let isolated = CsrGraph::from_unit_edges(300, Direction::Directed, &[]).unwrap();
    let out = run_par(4, &isolated);
    assert_eq!(out.dist.reachable_pairs(), 0);
}

#[test]
fn saturating_distances_near_u32_max() {
    // Chained near-MAX weights must saturate, not wrap.
    let g = CsrGraph::from_edges(
        3,
        Direction::Directed,
        &[(0, 1, u32::MAX - 1), (1, 2, u32::MAX - 1)],
    )
    .unwrap();
    let out = run_par(2, &g);
    assert_eq!(out.dist.get(0, 1), u32::MAX - 1);
    // 0 -> 2 saturates to INF == u32::MAX, which reads as "unreachable";
    // the reference Dijkstra must agree so results stay consistent.
    let reference = apsp_dijkstra(&g);
    assert_eq!(reference.first_difference(&out.dist), None);
}

#[test]
fn ordering_procedures_under_stress_inputs() {
    let pool = ThreadPool::new(8);
    // Degenerate degree arrays stress the bucket procedures.
    let cases: Vec<Vec<u32>> = vec![
        vec![0; 10_000],                         // all zero
        vec![65_000; 5_000],                     // all equal & large
        (0..20_000u32).map(|i| i % 2).collect(), // two buckets
        (0..10_000u32).collect(),                // all distinct
        (0..10_000u32).rev().collect(),          // reverse sorted
    ];
    for degrees in &cases {
        for procedure in [
            OrderingProcedure::par_buckets(),
            OrderingProcedure::par_max(),
            OrderingProcedure::multi_lists(),
        ] {
            let order = procedure.compute(degrees, &pool);
            assert!(
                parapsp::order::common::is_permutation(&order, degrees.len()),
                "{} on case of len {}",
                procedure.label(),
                degrees.len()
            );
            if procedure.is_exact() {
                assert!(parapsp::order::common::is_descending_by_degree(
                    degrees, &order
                ));
            }
        }
    }
}
