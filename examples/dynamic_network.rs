//! Domain example: keeping the APSP solution fresh as a network **grows**
//! — exact incremental updates instead of O(n^2.4) recomputes.
//!
//! Simulates a growing collaboration network: start from a scale-free
//! core, then stream in new collaborations one at a time and maintain the
//! exact distance matrix with O(n²) parallel updates (see
//! `parapsp::core::dynamic`; the incremental direction of the dynamic-APSP
//! literature the paper cites as ref. 16).
//!
//! ```text
//! cargo run --release --example dynamic_network
//! ```

use std::time::Instant;

use parapsp::core::baselines::apsp_dijkstra;
use parapsp::core::dynamic::IncrementalApsp;
use parapsp::graph::generate::{barabasi_albert, WeightSpec};
use parapsp::graph::GraphBuilder;
use parapsp::parfor::ThreadPool;

fn main() {
    let n = 1_500;
    let base = barabasi_albert(n, 3, WeightSpec::Unit, 99).expect("generation");
    println!(
        "base network: {} members, {} collaborations",
        base.vertex_count(),
        base.edge_count()
    );

    let pool = ThreadPool::new(4);
    let t0 = Instant::now();
    let mut apsp = IncrementalApsp::new(&base, 4);
    println!("initial ParAPSP solve: {:?}\n", t0.elapsed());

    // Stream in 20 new collaborations (deterministic pseudo-random pairs).
    let new_edges: Vec<(u32, u32)> = (0..20u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h % n as u64) as u32, ((h >> 21) % n as u64) as u32)
        })
        .filter(|&(u, v)| u != v)
        .collect();

    let mut update_total = std::time::Duration::ZERO;
    for &(u, v) in &new_edges {
        let t = Instant::now();
        let improved = apsp.insert_edge(u, v, 1, &pool);
        let dt = t.elapsed();
        update_total += dt;
        println!("new collaboration {u:>4} — {v:<4}  improved {improved:>6} pairs in {dt:?}");
    }

    // Verify against a from-scratch solve of the final graph.
    let mut builder = GraphBuilder::new(n, base.direction());
    for (u, v, w) in base.logical_edges() {
        builder.add_edge(u, v, w).unwrap();
    }
    for &(u, v) in &new_edges {
        builder.add_edge(u, v, 1).unwrap();
    }
    let t = Instant::now();
    let from_scratch = apsp_dijkstra(&builder.build());
    let recompute_time = t.elapsed();
    assert_eq!(from_scratch.first_difference(apsp.distances()), None);

    println!(
        "\n{} incremental updates: {:?} total ({:?} mean)",
        new_edges.len(),
        update_total,
        update_total / new_edges.len() as u32
    );
    println!("one from-scratch recompute: {recompute_time:?}");
    println!(
        "incremental maintenance is {:.0}x cheaper per edge — and the matrices match exactly",
        recompute_time.as_secs_f64() / (update_total.as_secs_f64() / new_edges.len() as f64)
    );
}
