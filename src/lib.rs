//! **ParAPSP** — efficient parallel all-pairs shortest paths for complex
//! graph analysis (reproduction of Kim, Choi & Bae, ICPP'18 Companion).
//!
//! This facade re-exports every workspace crate under one roof. Start with
//! [`prelude`] for the common path:
//!
//! ```
//! use parapsp::prelude::*;
//!
//! let graph = barabasi_albert(500, 3, WeightSpec::Unit, 42).unwrap();
//! let out = Runner::new(RunConfig::par_apsp(4)).run(ApspEngine::new(), &graph);
//! assert_eq!(out.dist.get(0, 0), 0);
//! ```
//!
//! Crate map: [`graph`] (CSR + generators + I/O), [`parfor`] (OpenMP-like
//! pool), [`order`] (the paper's ordering procedures + general sorts),
//! [`core`] (the APSP algorithms), [`analysis`] (centralities & path
//! statistics), [`datasets`] (Table 2 replicas), [`dist`]
//! (distributed-memory simulation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use parapsp_analysis as analysis;
pub use parapsp_core as core;
pub use parapsp_datasets as datasets;
pub use parapsp_dist as dist;
pub use parapsp_graph as graph;
pub use parapsp_order as order;
pub use parapsp_parfor as parfor;

/// The items most programs need, importable in one line.
pub mod prelude {
    pub use parapsp_core::baselines;
    pub use parapsp_core::{
        AdaptiveEngine, ApspEngine, ApspOutput, DistanceMatrix, Engine, EngineKind, RunConfig,
        Runner, Store, StoreKind, StoreSpec, SubsetEngine, INF,
    };
    pub use parapsp_datasets::{find as find_dataset, paper_datasets, Scale};
    pub use parapsp_graph::generate::{
        barabasi_albert, erdos_renyi_gnm, erdos_renyi_gnp, scale_free_directed, watts_strogatz,
        WeightSpec,
    };
    pub use parapsp_graph::{CsrGraph, Direction, GraphBuilder};
    pub use parapsp_order::OrderingProcedure;
    pub use parapsp_parfor::{Schedule, ThreadPool};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_quickstart_path() {
        let graph = barabasi_albert(120, 2, WeightSpec::Unit, 7).unwrap();
        let config = RunConfig::par_apsp(2)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::multi_lists());
        let out = Runner::new(config).run(ApspEngine::new(), &graph);
        let reference = baselines::apsp_dijkstra(&graph);
        assert_eq!(reference.first_difference(&out.dist), None);
        // The store tiers are part of the prelude surface.
        let mmap = Runner::new(RunConfig::par_apsp(2).with_store(StoreSpec::mmap(1 << 20)))
            .run(ApspEngine::new(), &graph);
        assert_eq!(reference.first_difference(&mmap.dist), None);
        let pool = ThreadPool::new(2);
        let _ = pool; // re-exported and constructible
        assert!(find_dataset("WordNet").is_some());
        assert_eq!(paper_datasets().len(), 5);
    }
}
