//! Integration tests for the extension features: path reconstruction,
//! the adaptive parallel variant, the distributed-memory simulation, and
//! the betweenness-based justification of the paper's degree heuristic.

use parapsp::analysis::betweenness_centrality;
use parapsp::core::baselines::apsp_dijkstra;
use parapsp::core::engine::{AdaptiveEngine, ApspEngine, RunConfig, Runner};
use parapsp::core::paths::par_apsp_with_paths;
use parapsp::core::SolverKind;
use parapsp::datasets::{find, Scale};
use parapsp::dist::{ClusterConfig, DistApspOutput, DistEngine};
use parapsp::graph::degree;
use parapsp::graph::generate::{scale_free_directed, WeightSpec};
use parapsp::graph::CsrGraph;
use parapsp::parfor::ThreadPool;

fn dist_apsp(graph: &CsrGraph, config: ClusterConfig) -> DistApspOutput {
    Runner::new(RunConfig::new(1)).run(DistEngine::new(config), graph)
}

#[test]
fn all_extension_algorithms_agree_with_the_core_on_a_replica() {
    let graph = find("ego-Twitter")
        .unwrap()
        .generate(Scale::Vertices(250))
        .unwrap();
    let reference = apsp_dijkstra(&graph);

    let parapsp = Runner::new(RunConfig::par_apsp(4)).run(ApspEngine::new(), &graph);
    assert_eq!(reference.first_difference(&parapsp.dist), None, "ParAPSP");

    let adaptive = Runner::new(RunConfig::par_adaptive(4)).run(AdaptiveEngine::new(16, 8), &graph);
    assert_eq!(reference.first_difference(&adaptive.dist), None, "adaptive");

    let with_paths = par_apsp_with_paths(&graph, 4);
    assert_eq!(reference.first_difference(&with_paths.dist), None, "paths");

    let distributed = dist_apsp(
        &graph,
        ClusterConfig {
            nodes: 3,
            hub_fraction: 0.05,
            ..Default::default()
        },
    );
    assert_eq!(
        reference.first_difference(&distributed.dist),
        None,
        "distributed"
    );
}

#[test]
fn reconstructed_routes_have_matching_lengths_on_directed_weighted_graph() {
    let graph = scale_free_directed(150, 3, 0.4, WeightSpec::Uniform { lo: 1, hi: 9 }, 42).unwrap();
    let result = par_apsp_with_paths(&graph, 3);
    let n = graph.vertex_count() as u32;
    let mut checked = 0;
    for s in (0..n).step_by(17) {
        for v in (0..n).step_by(13) {
            let d = result.dist.get(s, v);
            if d == parapsp::graph::INF || s == v {
                continue;
            }
            let route = result.pred.path(s, v).expect("finite distance has a route");
            // Route length in edges must be <= distance (unit minimum
            // weight) and its weighted length must equal the distance.
            let mut total = 0u32;
            for pair in route.windows(2) {
                let w = graph
                    .out_edges(pair[0])
                    .filter(|&(t, _)| t == pair[1])
                    .map(|(_, w)| w)
                    .min()
                    .expect("route uses real edges");
                total += w;
            }
            assert_eq!(total, d);
            checked += 1;
        }
    }
    assert!(checked > 20, "too few pairs exercised ({checked})");
}

#[test]
fn distributed_hub_sharing_increases_reuse() {
    let graph = find("Livemocha")
        .unwrap()
        .generate(Scale::Vertices(400))
        .unwrap();
    // Hub rows are read by the paper's kernel only: on this unit-weight
    // replica the default `auto` runs the multi-source BFS, which reuses
    // nothing and deals no hubs, so the kernel is pinned.
    let kernel = |config| {
        Runner::new(RunConfig::new(1).with_solver(SolverKind::Dijkstra))
            .run(DistEngine::new(config), &graph)
    };
    let isolated = kernel(ClusterConfig {
        nodes: 4,
        hub_fraction: 0.0,
        ..Default::default()
    });
    let sharing = kernel(ClusterConfig {
        nodes: 4,
        hub_fraction: 0.1,
        ..Default::default()
    });
    let remote_isolated: u64 = isolated.node_stats.iter().map(|s| s.remote_reuses).sum();
    let remote_sharing: u64 = sharing.node_stats.iter().map(|s| s.remote_reuses).sum();
    assert_eq!(remote_isolated, 0);
    assert!(remote_sharing > 0, "hub rows must be reused remotely");
    assert_eq!(isolated.dist.first_difference(&sharing.dist), None);
}

#[test]
fn degree_order_is_a_good_proxy_for_betweenness() {
    // The paper's §2.2 heuristic, quantified: on a scale-free replica the
    // top-degree vertices should capture a large share of the total
    // betweenness (that is *why* computing hub rows early pays off).
    let graph = find("Flickr")
        .unwrap()
        .generate(Scale::Vertices(600))
        .unwrap();
    let pool = ThreadPool::new(4);
    let betweenness = betweenness_centrality(&graph, &pool);
    let degrees = degree::out_degrees(&graph);

    let mut by_degree: Vec<u32> = (0..600u32).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
    let total: f64 = betweenness.iter().sum();
    let top_decile: f64 = by_degree[..60]
        .iter()
        .map(|&v| betweenness[v as usize])
        .sum();
    assert!(
        top_decile > total * 0.5,
        "top-degree decile carries only {:.0}% of betweenness",
        top_decile / total * 100.0
    );
}
