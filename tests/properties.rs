//! Property-based tests (proptest) over random graphs and degree arrays:
//! the structural invariants every component must uphold regardless of
//! input shape.

use proptest::prelude::*;

use parapsp::core::baselines::apsp_dijkstra;
use parapsp::core::engine::{ApspEngine, RunConfig, Runner};
use parapsp::core::ApspOutput;
use parapsp::graph::{CsrGraph, Direction, GraphBuilder, INF};
use parapsp::order::common::{is_descending_by_degree, is_permutation};
use parapsp::order::OrderingProcedure;
use parapsp::parfor::ThreadPool;

/// Strategy: an arbitrary graph with up to `max_n` vertices and `max_m`
/// edges, random directedness and weights in 1..=20.
fn run_par(threads: usize, graph: &CsrGraph) -> ApspOutput {
    Runner::new(RunConfig::par_apsp(threads)).run(ApspEngine::new(), graph)
}

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

/// Strategy: `n × n` row contents for a store of `3..max_n` vertices.
fn arb_rows(max_n: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0u32..100_000, n), n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parapsp_matches_heap_dijkstra(graph in arb_graph(60, 300)) {
        let reference = apsp_dijkstra(&graph);
        let out = run_par(4, &graph);
        prop_assert_eq!(reference.first_difference(&out.dist), None);
    }

    #[test]
    fn distances_satisfy_triangle_inequality(graph in arb_graph(40, 150)) {
        let d = run_par(3, &graph).dist;
        let n = d.n();
        for u in 0..n as u32 {
            prop_assert_eq!(d.get(u, u), 0);
            for v in 0..n as u32 {
                for w in 0..n as u32 {
                    let uv = d.get(u, v);
                    let vw = d.get(v, w);
                    let uw = d.get(u, w);
                    if uv != INF && vw != INF {
                        prop_assert!(
                            uw <= uv.saturating_add(vw),
                            "d({u},{w}) = {uw} > {uv} + {vw}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn undirected_matrices_are_symmetric(graph in arb_graph(50, 200)) {
        if !graph.direction().is_directed() {
            let d = run_par(2, &graph).dist;
            prop_assert!(d.is_symmetric());
        }
    }

    #[test]
    fn every_finite_distance_is_witnessed_by_an_edge_path(graph in arb_graph(30, 120)) {
        // Any finite d(u, v) with u != v must decompose through some
        // in-neighbor of v: d(u, v) = d(u, t) + w(t, v) for some arc (t, v).
        let d = run_par(2, &graph).dist;
        let n = d.n();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let duv = d.get(u, v);
                if u == v || duv == INF {
                    continue;
                }
                let mut witnessed = false;
                'outer: for t in 0..n as u32 {
                    let dut = d.get(u, t);
                    if dut == INF {
                        continue;
                    }
                    for (target, w) in graph.out_edges(t) {
                        if target == v && dut.saturating_add(w) == duv {
                            witnessed = true;
                            break 'outer;
                        }
                    }
                }
                prop_assert!(witnessed, "d({u},{v}) = {duv} has no witness");
            }
        }
    }

    #[test]
    fn ordering_procedures_always_yield_valid_orders(
        degrees in proptest::collection::vec(0u32..5_000, 0..400),
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        for procedure in [
            OrderingProcedure::selection(),
            OrderingProcedure::SeqBucket,
            OrderingProcedure::par_buckets(),
            OrderingProcedure::par_max(),
            OrderingProcedure::multi_lists(),
        ] {
            let order = procedure.compute(&degrees, &pool);
            prop_assert!(is_permutation(&order, degrees.len()), "{}", procedure.label());
            if procedure.is_exact() {
                prop_assert!(
                    is_descending_by_degree(&degrees, &order),
                    "{} not descending",
                    procedure.label()
                );
            }
        }
    }

    #[test]
    fn multilists_is_identical_to_stable_counting_sort(
        degrees in proptest::collection::vec(0u32..1_000, 0..500),
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let ml = OrderingProcedure::multi_lists().compute(&degrees, &pool);
        let reference = OrderingProcedure::SeqBucket.compute(&degrees, &pool);
        prop_assert_eq!(ml, reference);
    }

    #[test]
    fn exact_orders_have_zero_inversions_and_displacement(
        degrees in proptest::collection::vec(0u32..2_000, 0..300),
        threads in 1usize..5,
    ) {
        use parapsp::order::quality::{hub_displacement, inversions};
        let pool = ThreadPool::new(threads);
        for procedure in [
            OrderingProcedure::selection(),
            OrderingProcedure::SeqBucket,
            OrderingProcedure::par_max(),
            OrderingProcedure::multi_lists(),
        ] {
            let order = procedure.compute(&degrees, &pool);
            prop_assert_eq!(inversions(&degrees, &order), 0, "{}", procedure.label());
            let k = (degrees.len() / 10).max(1);
            prop_assert!(
                hub_displacement(&degrees, &order, k) < 1e-12,
                "{}",
                procedure.label()
            );
        }
    }

    #[test]
    fn radix_sort_matches_std_sort(
        keys in proptest::collection::vec(any::<u32>(), 0..500),
        threads in 1usize..5,
        ascending in any::<bool>(),
    ) {
        use parapsp::order::radix::{par_radix_sort_indices, SortDirection};
        let pool = ThreadPool::new(threads);
        let direction = if ascending {
            SortDirection::Ascending
        } else {
            SortDirection::Descending
        };
        let ours = par_radix_sort_indices(&keys, direction, &pool);
        let mut expected: Vec<u32> = (0..keys.len() as u32).collect();
        if ascending {
            expected.sort_by_key(|&i| keys[i as usize]);
        } else {
            expected.sort_by_key(|&i| std::cmp::Reverse(keys[i as usize]));
        }
        prop_assert_eq!(ours, expected);
    }

    #[test]
    fn capped_apsp_truncates_exactly(
        graph in arb_graph(40, 160),
        cap in 0u32..60,
    ) {
        use parapsp::core::kernel::KernelOptions;
        let full = apsp_dijkstra(&graph);
        let capped = Runner::new(RunConfig::par_apsp(3).with_kernel_options(KernelOptions {
                max_distance: Some(cap),
                ..KernelOptions::default()
            }))
            .run(ApspEngine::new(), &graph)
            .dist;
        for u in 0..graph.vertex_count() as u32 {
            for v in 0..graph.vertex_count() as u32 {
                let exact = full.get(u, v);
                let expect = if exact <= cap || u == v { exact } else { INF };
                prop_assert_eq!(capped.get(u, v), expect, "({}, {}) cap {}", u, v, cap);
            }
        }
    }

    #[test]
    fn subset_rows_equal_full_matrix_rows(
        graph in arb_graph(50, 250),
        selector in proptest::collection::vec(any::<bool>(), 50),
        threads in 1usize..5,
    ) {
        use parapsp::core::engine::SubsetEngine;
        let n = graph.vertex_count();
        let sources: Vec<u32> = (0..n as u32)
            .filter(|&v| selector.get(v as usize).copied().unwrap_or(false))
            .collect();
        let rows = Runner::new(RunConfig::subset(threads))
            .run(SubsetEngine::new(sources.clone()), &graph);
        let full = apsp_dijkstra(&graph);
        for (i, &s) in sources.iter().enumerate() {
            prop_assert_eq!(rows.row(i), full.row(s), "source {}", s);
        }
    }

    #[test]
    fn distributed_simulation_is_exact(
        graph in arb_graph(45, 220),
        nodes in 1usize..6,
        hub_fraction in 0.0f64..=1.0,
    ) {
        use parapsp::dist::{ClusterConfig, DistEngine};
        let reference = apsp_dijkstra(&graph);
        let out = Runner::new(RunConfig::new(1)).run(
            DistEngine::new(ClusterConfig { nodes, hub_fraction, ..Default::default() }),
            &graph,
        );
        prop_assert_eq!(reference.first_difference(&out.dist), None);
    }

    #[test]
    fn path_runs_are_exact_and_reconstruct_edge_walks_of_that_weight(
        graph in arb_graph(30, 150),
    ) {
        use parapsp::core::engine::SeqEngine;
        use parapsp::core::paths::par_apsp_with_paths;
        let reference = Runner::new(RunConfig::seq_basic())
            .run(SeqEngine::ordered(), &graph)
            .dist;
        let n = graph.vertex_count() as u32;
        for threads in [1, 2] {
            let out = par_apsp_with_paths(&graph, threads);
            prop_assert_eq!(reference.first_difference(&out.dist), None, "{} threads", threads);
            for s in 0..n {
                for v in 0..n {
                    let d = out.dist.get(s, v);
                    let Some(path) = out.pred.path(s, v) else {
                        prop_assert_eq!(d, INF, "no route {} -> {} at distance {}", s, v, d);
                        continue;
                    };
                    prop_assert_eq!((path.first(), path.last()), (Some(&s), Some(&v)));
                    let mut total = 0u32;
                    for pair in path.windows(2) {
                        let w = graph
                            .out_edges(pair[0])
                            .filter(|&(t, _)| t == pair[1])
                            .map(|(_, w)| w)
                            .min();
                        prop_assert!(w.is_some(), "{} -> {} is not an edge", pair[0], pair[1]);
                        total += w.unwrap_or(0);
                    }
                    prop_assert_eq!(total, d, "route weight {} -> {}", s, v);
                }
            }
        }
    }

    #[test]
    fn landmark_bounds_bracket_exact_distances(
        n in 5usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
        k in 1usize..8,
    ) {
        use parapsp::analysis::landmarks::{LandmarkIndex, LandmarkStrategy};
        let mut b = GraphBuilder::new(n, Direction::Undirected);
        for (u, v) in edges {
            if (u as usize) < n && (v as usize) < n {
                b.add_edge(u, v, 1).unwrap();
            }
        }
        let graph = b.build();
        let index = LandmarkIndex::build(&graph, k.min(n), LandmarkStrategy::HighestDegree, 2);
        let exact = apsp_dijkstra(&graph);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let d = exact.get(u, v);
                prop_assert!(index.lower_bound(u, v) <= d);
                if d != INF {
                    prop_assert!(index.upper_bound(u, v) >= d);
                } else {
                    prop_assert_eq!(index.upper_bound(u, v), INF);
                }
            }
        }
        // A pair touching a landmark routes through it exactly, so the
        // estimate (the upper bound) must equal the true distance there.
        for &l in index.landmarks() {
            for v in 0..n as u32 {
                prop_assert_eq!(index.estimate(l, v), exact.get(l, v), "landmark {}", l);
                prop_assert_eq!(index.estimate(v, l), exact.get(v, l), "landmark {}", l);
            }
        }
    }

    #[test]
    fn leases_are_bit_identical_to_row_copies_on_every_backend(
        rows in arb_rows(20),
        order in proptest::collection::vec(any::<u32>(), 1..40),
        pin_at in any::<u32>(),
    ) {
        use parapsp::core::{Store, StoreSpec};
        let n = rows.len();
        // A lease is a *view* of a published row — whatever the backend
        // does underneath (lend, decode, evict, decode again), the bytes a
        // held lease shows must stay bit-identical to a `with_row` copy,
        // under an arbitrary publish order and read churn. The mmap budget
        // is three decoded rows so churn genuinely evicts.
        for spec in [
            StoreSpec::dense(),
            StoreSpec::delta(2),
            StoreSpec::mmap(3 * 4 * n as u64),
        ] {
            let store = Store::new(n, &spec);
            // Deterministic shuffle of the publish order from `order`.
            let mut perm: Vec<u32> = (0..n as u32).collect();
            for (i, &x) in order.iter().enumerate() {
                perm.swap(i % n, (x as usize) % n);
            }
            let p = perm[(pin_at as usize) % n];
            let mut held = None;
            for &s in &perm {
                store.publish_from(s, &rows[s as usize]);
                if s == p {
                    // Pin mid-publication: later publishes and reads churn
                    // the cache around the held lease.
                    held = store.lease_row(p);
                }
            }
            let lease = held.expect("published row must lease");
            for &x in &order {
                let t = x % n as u32;
                let matches = store
                    .with_row(t, |r| r == rows[t as usize].as_slice())
                    .expect("published row must be readable");
                prop_assert!(matches, "{}: with_row({t}) diverged", spec.label());
                prop_assert_eq!(
                    &lease[..],
                    rows[p as usize].as_slice(),
                    "{}: held lease of row {} corrupted by churn",
                    spec.label(),
                    p
                );
            }
            drop(lease);
            for s in 0..n as u32 {
                let lease = store.lease_row(s).expect("all rows published");
                prop_assert_eq!(&lease[..], rows[s as usize].as_slice());
            }
        }
    }

    #[test]
    fn pinned_rows_survive_churn_at_the_minimal_budget(
        rows in arb_rows(16),
        churn in proptest::collection::vec(any::<u32>(), 1..60),
        pin_at in any::<u32>(),
    ) {
        use parapsp::core::{Store, StoreSpec};
        let n = rows.len();
        // Exactly the smallest budget `validate_for` admits: two decoded
        // rows. One is pinned by the held lease; every other row must
        // stream through the single remaining slot without ever evicting
        // the pinned one.
        let store = Store::new(n, &StoreSpec::mmap(2 * 4 * n as u64));
        for (s, row) in rows.iter().enumerate() {
            store.publish_from(s as u32, row);
        }
        let p = pin_at % n as u32;
        let lease = store.lease_row(p).expect("published row must lease");
        for &x in &churn {
            let t = x % n as u32;
            let matches = store
                .with_row(t, |r| r == rows[t as usize].as_slice())
                .expect("published row must be readable");
            prop_assert!(matches, "with_row({t}) diverged under minimal budget");
            prop_assert_eq!(
                &lease[..],
                rows[p as usize].as_slice(),
                "pinned row {} evicted or corrupted by churn on {}",
                p,
                t
            );
        }
        prop_assert!(
            store.pinned_bytes_peak() >= 4 * n as u64,
            "peak pinned accounting missed the held lease"
        );
    }

    #[test]
    fn general_sort_matches_std_sort(
        keys in proptest::collection::vec(0u32..10_000, 0..600),
        threads in 1usize..5,
    ) {
        use parapsp::order::sort::{sort_indices, SortDirection};
        let pool = ThreadPool::new(threads);
        let ours = sort_indices(&keys, SortDirection::Ascending, &pool);
        let mut expected: Vec<u32> = (0..keys.len() as u32).collect();
        expected.sort_by_key(|&i| keys[i as usize]);
        prop_assert_eq!(ours, expected);
    }
}
