//! The dataset registry: one spec per graph the paper evaluates on.

use parapsp_graph::generate::{barabasi_albert, scale_free_directed, WeightSpec};
use parapsp_graph::{CsrGraph, GraphError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-graph model used to replicate a dataset's structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphModel {
    /// Undirected Barabási–Albert with `m` edges per new vertex.
    BarabasiAlbert {
        /// Edges attached per new vertex (sets the average degree ≈ 2m).
        m: usize,
    },
    /// Directed scale-free: BA skeleton with randomized edge orientation
    /// and a fraction of reciprocal links.
    ScaleFreeDirected {
        /// Edges attached per new vertex in the BA skeleton.
        m: usize,
        /// Fraction of edges kept in both directions.
        reciprocity: f64,
    },
}

/// At what size to instantiate a replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// The paper's original vertex count — only safe for ordering-style
    /// experiments that never allocate the O(n²) matrix.
    OrderingFull,
    /// A fraction of the original vertex count (e.g. `0.1` for the default
    /// APSP scale; `0.1` of WordNet is ~14.6 k vertices → a 852 MB matrix).
    Fraction(f64),
    /// An explicit vertex count.
    Vertices(usize),
}

impl Scale {
    /// Resolves the scale against a spec's original size (min 64 vertices
    /// so every replica stays a meaningful graph).
    pub fn resolve(&self, paper_vertices: usize) -> usize {
        match *self {
            Scale::OrderingFull => paper_vertices,
            Scale::Fraction(f) => {
                assert!(f > 0.0 && f <= 1.0, "scale fraction {f} outside (0, 1]");
                ((paper_vertices as f64 * f) as usize).max(64)
            }
            Scale::Vertices(n) => n.max(64),
        }
    }
}

/// A replica specification: the paper's dataset identity plus the synthetic
/// model that stands in for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper's Table 2.
    pub name: &'static str,
    /// Directedness in the original dataset.
    pub directed: bool,
    /// Vertex count reported in Table 2.
    pub paper_vertices: usize,
    /// Edge count reported in Table 2.
    pub paper_edges: usize,
    /// The generative stand-in.
    pub model: GraphModel,
    /// Generator seed (fixed so every run sees the same replica).
    pub seed: u64,
}

impl DatasetSpec {
    /// Generates the replica at the requested scale.
    ///
    /// Vertex ids are randomly relabeled after generation: preferential
    /// attachment makes the oldest (lowest) ids the hubs, and without the
    /// shuffle the *unordered* APSP baseline would accidentally visit
    /// sources in near-descending degree order — erasing the very effect
    /// the paper measures. Real SNAP/KONECT ids carry no such correlation.
    pub fn generate(&self, scale: Scale) -> Result<CsrGraph, GraphError> {
        let n = scale.resolve(self.paper_vertices);
        let raw = match self.model {
            GraphModel::BarabasiAlbert { m } => barabasi_albert(n, m, WeightSpec::Unit, self.seed)?,
            GraphModel::ScaleFreeDirected { m, reciprocity } => {
                scale_free_directed(n, m, reciprocity, WeightSpec::Unit, self.seed)?
            }
        };
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Fisher–Yates; `rand::seq::SliceRandom::shuffle` would do the same.
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            perm.swap(i, j);
        }
        Ok(raw.relabel(&perm))
    }

    /// Average degree implied by Table 2 (arcs per vertex).
    pub fn paper_avg_degree(&self) -> f64 {
        let arcs = if self.directed {
            self.paper_edges as f64
        } else {
            2.0 * self.paper_edges as f64
        };
        arcs / self.paper_vertices as f64
    }
}

/// The five evaluation datasets of Table 2, in the paper's order.
///
/// The `m` parameters are chosen so the replica's average degree matches
/// Table 2: undirected `m ≈ E/V`; directed `m ≈ (E/V) / (1 + reciprocity)`
/// because reciprocal links contribute two arcs.
pub fn paper_datasets() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "ego-Twitter",
            directed: true,
            paper_vertices: 81_306,
            paper_edges: 1_768_149,
            // E/V ≈ 21.7 arcs; with 50 % reciprocity, m ≈ 14.
            model: GraphModel::ScaleFreeDirected {
                m: 14,
                reciprocity: 0.5,
            },
            seed: 0xE607,
        },
        DatasetSpec {
            name: "Livemocha",
            directed: false,
            paper_vertices: 104_103,
            paper_edges: 2_193_083,
            model: GraphModel::BarabasiAlbert { m: 21 },
            seed: 0x11FE,
        },
        DatasetSpec {
            name: "Flickr",
            directed: false,
            paper_vertices: 105_938,
            paper_edges: 2_316_948,
            model: GraphModel::BarabasiAlbert { m: 22 },
            seed: 0xF11C,
        },
        DatasetSpec {
            name: "WordNet",
            directed: false,
            paper_vertices: 146_005,
            paper_edges: 656_999,
            model: GraphModel::BarabasiAlbert { m: 4 },
            seed: 0x0D0D,
        },
        DatasetSpec {
            name: "sx-superuser",
            directed: true,
            paper_vertices: 194_085,
            paper_edges: 1_443_339,
            // E/V ≈ 7.4 arcs; with 20 % reciprocity, m ≈ 6.
            model: GraphModel::ScaleFreeDirected {
                m: 6,
                reciprocity: 0.2,
            },
            seed: 0x5005,
        },
    ]
}

/// ca-HepPh, the small graph used for the scheduling-scheme study (Fig. 1):
/// 12,008 vertices, 118,521 edges, undirected.
pub fn ca_hepph() -> DatasetSpec {
    DatasetSpec {
        name: "ca-HepPh",
        directed: false,
        paper_vertices: 12_008,
        paper_edges: 118_521,
        model: GraphModel::BarabasiAlbert { m: 10 },
        seed: 0xCA9E,
    }
}

/// The large graphs used only for the ordering-procedure scaling test in
/// §4.3 (soc-Pokec, soc-LiveJournal1). Only their degree arrays are ever
/// materialized at full scale.
pub fn ordering_datasets() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "soc-Pokec",
            directed: true,
            paper_vertices: 1_632_803,
            paper_edges: 30_622_564,
            model: GraphModel::ScaleFreeDirected {
                m: 12,
                reciprocity: 0.5,
            },
            seed: 0x90CE,
        },
        DatasetSpec {
            name: "soc-LiveJournal1",
            directed: true,
            paper_vertices: 4_847_571,
            paper_edges: 68_993_773,
            model: GraphModel::ScaleFreeDirected {
                m: 9,
                reciprocity: 0.5,
            },
            seed: 0x11E1,
        },
    ]
}

/// Finds a spec by (case-insensitive) name across all registries.
pub fn find(name: &str) -> Option<DatasetSpec> {
    paper_datasets()
        .into_iter()
        .chain(std::iter::once(ca_hepph()))
        .chain(ordering_datasets())
        .find(|spec| spec.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::degree;

    #[test]
    fn registry_matches_table2() {
        let specs = paper_datasets();
        assert_eq!(specs.len(), 5);
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "ego-Twitter",
                "Livemocha",
                "Flickr",
                "WordNet",
                "sx-superuser"
            ]
        );
        let wordnet = &specs[3];
        assert_eq!(wordnet.paper_vertices, 146_005);
        assert_eq!(wordnet.paper_edges, 656_999);
        assert!(!wordnet.directed);
    }

    #[test]
    fn scale_resolution() {
        assert_eq!(Scale::OrderingFull.resolve(1000), 1000);
        assert_eq!(Scale::Fraction(0.1).resolve(10_000), 1000);
        assert_eq!(Scale::Fraction(0.001).resolve(1000), 64); // floor
        assert_eq!(Scale::Vertices(500).resolve(1_000_000), 500);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn bad_fraction_panics() {
        let _ = Scale::Fraction(0.0).resolve(100);
    }

    #[test]
    fn replicas_have_matching_directedness_and_plausible_degree() {
        for spec in paper_datasets() {
            let g = spec.generate(Scale::Vertices(3000)).unwrap();
            assert_eq!(g.direction().is_directed(), spec.directed, "{}", spec.name);
            let avg = g.arc_count() as f64 / g.vertex_count() as f64;
            let target = spec.paper_avg_degree();
            assert!(
                (avg - target).abs() / target < 0.35,
                "{}: avg degree {avg:.1} vs paper {target:.1}",
                spec.name
            );
        }
    }

    #[test]
    fn replicas_are_scale_free() {
        let g = find("WordNet")
            .unwrap()
            .generate(Scale::Vertices(5000))
            .unwrap();
        let degs = degree::out_degrees(&g);
        let stats = degree::degree_stats(&degs).unwrap();
        assert!(stats.max as f64 > stats.mean * 8.0, "hub-dominated");
        assert!(stats.median as f64 <= stats.mean, "long tail");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = ca_hepph();
        let a = spec.generate(Scale::Vertices(800)).unwrap();
        let b = spec.generate(Scale::Vertices(800)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn find_is_case_insensitive_and_total() {
        assert!(find("wordnet").is_some());
        assert!(find("SOC-POKEC").is_some());
        assert!(find("ca-hepph").is_some());
        assert!(find("no-such-dataset").is_none());
    }

    #[test]
    fn avg_degree_accounts_for_direction() {
        let spec = find("ego-Twitter").unwrap();
        assert!((spec.paper_avg_degree() - 21.7).abs() < 0.2);
        let wordnet = find("WordNet").unwrap();
        assert!((wordnet.paper_avg_degree() - 9.0).abs() < 0.1);
    }
}
