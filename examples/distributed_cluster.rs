//! Domain example: the paper's **future work**, simulated — ParAPSP on a
//! distributed-memory cluster (§7: "we would like to extend the ParAPSP
//! algorithm on distributed-memory parallel environments so that we could
//! find APSP solutions for much larger graphs").
//!
//! Each simulated node owns 1/P of the distance rows (the memory win that
//! motivates going distributed) and shares only *hub* rows, trading
//! communication for the dynamic-programming reuse that makes Peng's
//! kernel fast. The sweep below shows that trade-off.
//!
//! ```text
//! cargo run --release --example distributed_cluster
//! ```

use parapsp::core::{RunConfig, Runner, SolverKind};
use parapsp::datasets::{find, Scale};
use parapsp::dist::{ClusterConfig, DistEngine};

fn main() {
    let graph = find("WordNet")
        .expect("registry")
        .generate(Scale::Vertices(1_200))
        .expect("generation");
    let n = graph.vertex_count();
    println!(
        "WordNet replica: {} vertices, {} edges",
        n,
        graph.edge_count()
    );
    println!(
        "full matrix: {:.1} MiB; per-node share at P=4: {:.1} MiB\n",
        (n * n * 4) as f64 / (1 << 20) as f64,
        (n * n * 4) as f64 / 4.0 / (1 << 20) as f64
    );

    println!(
        "{:>6} {:>14} {:>12} {:>14} {:>14} {:>10}",
        "nodes", "hub fraction", "elapsed", "broadcast KiB", "remote reuses", "exact?"
    );
    let mut reference = None;
    for nodes in [1usize, 2, 4] {
        for hub_fraction in [0.0, 0.02, 0.10] {
            let engine = DistEngine::new(ClusterConfig {
                nodes,
                hub_fraction,
                ..Default::default()
            });
            // The paper's kernel, the one node solver that reads hub rows.
            let config = RunConfig::new(1).with_solver(SolverKind::Dijkstra);
            let out = Runner::new(config).run(engine, &graph);
            let remote: u64 = out.node_stats.iter().map(|s| s.remote_reuses).sum();
            let exact = match &reference {
                None => {
                    reference = Some(out.dist.clone());
                    true
                }
                Some(r) => r.first_difference(&out.dist).is_none(),
            };
            println!(
                "{nodes:>6} {hub_fraction:>14} {:>12.2?} {:>14} {:>14} {:>10}",
                out.elapsed,
                out.total_broadcast_bytes() / 1024,
                remote,
                exact
            );
            assert!(exact, "distributed output diverged!");
        }
    }
    println!("\nevery configuration produced the identical exact matrix");
}
