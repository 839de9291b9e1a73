//! Cross-crate exactness: every algorithm in the workspace must produce
//! identical distance matrices on the same graph — the paper's central
//! correctness claim ("the exact same outputs of the Peng et al.'s
//! algorithm, which are the precise APSP solutions").

use parapsp::core::baselines::{apsp_bfs, apsp_dijkstra, floyd_warshall, par_apsp_dijkstra};
use parapsp::core::engine::{AdaptiveEngine, ApspEngine, RunConfig, Runner};
use parapsp::core::kernel::KernelOptions;
use parapsp::core::ApspOutput;
use parapsp::graph::generate::{
    barabasi_albert, erdos_renyi_gnm, grid_graph, scale_free_directed, watts_strogatz, WeightSpec,
};
use parapsp::graph::{CsrGraph, Direction};
use parapsp::order::OrderingProcedure;
use parapsp::parfor::{Schedule, ThreadPool};

fn run_par(config: RunConfig, graph: &CsrGraph) -> ApspOutput {
    Runner::new(config).run(ApspEngine::new(), graph)
}

fn parallel_variants(threads: usize) -> Vec<RunConfig> {
    vec![
        RunConfig::par_alg1(threads),
        RunConfig::par_alg2(threads),
        RunConfig::par_apsp(threads).with_ordering(OrderingProcedure::par_buckets()),
        RunConfig::par_apsp(threads).with_ordering(OrderingProcedure::par_max()),
        RunConfig::par_apsp(threads),
    ]
}

fn assert_all_agree(graph: &CsrGraph, context: &str) {
    let reference = apsp_dijkstra(graph);

    // Classic baselines.
    assert_eq!(
        reference.first_difference(&floyd_warshall(graph)),
        None,
        "{context}: floyd-warshall"
    );
    if graph.is_unit_weight() {
        assert_eq!(
            reference.first_difference(&apsp_bfs(graph)),
            None,
            "{context}: bfs"
        );
    }

    // Sequential Peng family.
    assert_eq!(
        reference.first_difference(
            &Runner::new(RunConfig::seq_basic())
                .run(ApspEngine::new(), graph)
                .dist
        ),
        None,
        "{context}: seq-basic"
    );
    assert_eq!(
        reference.first_difference(
            &Runner::new(RunConfig::seq_optimized(1.0))
                .run(ApspEngine::new(), graph)
                .dist
        ),
        None,
        "{context}: seq-optimized"
    );
    assert_eq!(
        reference.first_difference(
            &Runner::new(RunConfig::seq_adaptive(4))
                .run(AdaptiveEngine::new(4, 1), graph)
                .dist
        ),
        None,
        "{context}: seq-adaptive"
    );

    // Parallel family, multiple thread counts.
    for threads in [1usize, 3, 7] {
        for config in parallel_variants(threads) {
            let out = run_par(config, graph);
            assert_eq!(
                reference.first_difference(&out.dist),
                None,
                "{context}: {} x{threads}",
                out.algorithm
            );
        }
        let pool = ThreadPool::new(threads);
        assert_eq!(
            reference.first_difference(&par_apsp_dijkstra(graph, &pool)),
            None,
            "{context}: par-dijkstra x{threads}"
        );
    }
}

#[test]
fn scale_free_unit_weights() {
    let g = barabasi_albert(180, 3, WeightSpec::Unit, 101).unwrap();
    assert_all_agree(&g, "BA(180, 3)");
}

#[test]
fn scale_free_weighted() {
    let g = barabasi_albert(150, 2, WeightSpec::Uniform { lo: 1, hi: 50 }, 102).unwrap();
    assert_all_agree(&g, "BA weighted");
}

#[test]
fn directed_scale_free() {
    let g = scale_free_directed(160, 3, 0.3, WeightSpec::Uniform { lo: 1, hi: 9 }, 103).unwrap();
    assert_all_agree(&g, "directed scale-free");
}

#[test]
fn erdos_renyi_directed_weighted() {
    let g = erdos_renyi_gnm(
        140,
        900,
        Direction::Directed,
        WeightSpec::Uniform { lo: 1, hi: 100 },
        104,
    )
    .unwrap();
    assert_all_agree(&g, "ER directed");
}

#[test]
fn sparse_disconnected_graph() {
    // Far fewer edges than vertices: many components, lots of INF pairs.
    let g = erdos_renyi_gnm(120, 40, Direction::Undirected, WeightSpec::Unit, 105).unwrap();
    assert_all_agree(&g, "sparse disconnected");
}

#[test]
fn small_world_graph() {
    let g = watts_strogatz(130, 6, 0.2, WeightSpec::Unit, 106).unwrap();
    assert_all_agree(&g, "watts-strogatz");
}

#[test]
fn grid_graph_agrees() {
    let g = grid_graph(9, 13);
    assert_all_agree(&g, "grid 9x13");
}

#[test]
fn undirected_results_are_symmetric() {
    let g = barabasi_albert(200, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 107).unwrap();
    let out = run_par(RunConfig::par_apsp(4), &g);
    assert!(out.dist.is_symmetric());
}

#[test]
fn every_schedule_and_kernel_combination_is_exact() {
    let g = barabasi_albert(100, 3, WeightSpec::Unit, 108).unwrap();
    let reference = apsp_dijkstra(&g);
    for schedule in [
        Schedule::Block,
        Schedule::StaticCyclic,
        Schedule::DynamicChunked(1),
        Schedule::DynamicChunked(16),
    ] {
        for row_reuse in [false, true] {
            for dedup_queue in [false, true] {
                let out = run_par(
                    RunConfig::par_apsp(4)
                        .with_schedule(schedule)
                        .with_kernel_options(KernelOptions {
                            row_reuse,
                            dedup_queue,
                            ..KernelOptions::default()
                        }),
                    &g,
                );
                assert_eq!(
                    reference.first_difference(&out.dist),
                    None,
                    "{schedule:?} reuse={row_reuse} dedup={dedup_queue}"
                );
            }
        }
    }
}

#[test]
fn every_relax_impl_is_exact_on_generator_fixtures() {
    use parapsp::core::relax::RelaxImpl;
    let fixtures: Vec<(&str, CsrGraph)> = vec![
        (
            "ER directed weighted",
            erdos_renyi_gnm(
                110,
                700,
                Direction::Directed,
                WeightSpec::Uniform { lo: 1, hi: 60 },
                201,
            )
            .unwrap(),
        ),
        (
            "ER undirected sparse",
            erdos_renyi_gnm(100, 35, Direction::Undirected, WeightSpec::Unit, 202).unwrap(),
        ),
        (
            "BA undirected weighted",
            barabasi_albert(120, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 203).unwrap(),
        ),
        (
            "watts-strogatz",
            watts_strogatz(110, 6, 0.25, WeightSpec::Uniform { lo: 1, hi: 5 }, 204).unwrap(),
        ),
        (
            "directed scale-free",
            scale_free_directed(105, 3, 0.3, WeightSpec::Uniform { lo: 1, hi: 20 }, 205).unwrap(),
        ),
    ];
    for (label, graph) in &fixtures {
        let reference = apsp_dijkstra(graph);
        for relax in RelaxImpl::ALL {
            let out = run_par(RunConfig::par_apsp(4).with_relax(relax), graph);
            assert_eq!(
                reference.first_difference(&out.dist),
                None,
                "{label}: relax={}",
                relax.name()
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    // Distances must be identical run to run (they are exact), even though
    // thread interleavings differ.
    let g = barabasi_albert(150, 3, WeightSpec::Unit, 109).unwrap();
    let first = run_par(RunConfig::par_apsp(8), &g);
    for _ in 0..5 {
        let again = run_par(RunConfig::par_apsp(8), &g);
        assert_eq!(first.dist.first_difference(&again.dist), None);
    }
}
