//! Seeded random-graph generators and deterministic fixtures.
//!
//! The paper evaluates on real-world scale-free networks from SNAP/KONECT.
//! Those datasets are not redistributable, so the reproduction generates
//! *synthetic replicas* whose degree distribution has the property every
//! measured effect depends on: a power law with few hubs and many leaves
//! (Barabási–Albert). Erdős–Rényi and Watts–Strogatz are provided because
//! Peng et al. evaluated on them and they make useful contrast workloads.
//!
//! All generators are deterministic in `(parameters, seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Direction};
use crate::error::GraphError;

/// Edge weights attached by a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightSpec {
    /// Every edge has weight 1 (the paper's setting).
    Unit,
    /// Weights drawn uniformly from `lo..=hi`.
    Uniform {
        /// Smallest possible weight (must be ≥ 1).
        lo: u32,
        /// Largest possible weight.
        hi: u32,
    },
}

impl WeightSpec {
    fn sample(&self, rng: &mut StdRng) -> Result<u32, GraphError> {
        match *self {
            WeightSpec::Unit => Ok(1),
            WeightSpec::Uniform { lo, hi } => {
                if lo == 0 || lo > hi {
                    return Err(GraphError::InvalidParameter(format!(
                        "uniform weight range {lo}..={hi} must satisfy 1 <= lo <= hi"
                    )));
                }
                Ok(rng.random_range(lo..=hi))
            }
        }
    }
}

/// Erdős–Rényi G(n, m): exactly `m` distinct edges sampled uniformly among
/// all vertex pairs (no self-loops, no duplicates).
pub fn erdos_renyi_gnm(
    n: usize,
    m: usize,
    direction: Direction,
    weights: WeightSpec,
    seed: u64,
) -> Result<CsrGraph, GraphError> {
    if n < 2 && m > 0 {
        return Err(GraphError::InvalidParameter(
            "G(n, m) needs at least two vertices to place an edge".into(),
        ));
    }
    let max_edges = match direction {
        Direction::Directed => n.saturating_mul(n.saturating_sub(1)),
        Direction::Undirected => n.saturating_mul(n.saturating_sub(1)) / 2,
    };
    if m > max_edges {
        return Err(GraphError::InvalidParameter(format!(
            "cannot place {m} distinct edges in a graph with at most {max_edges}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n, direction);
    builder.reserve(m);
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(m * 2);
    while builder.edge_count() < m {
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = match direction {
            Direction::Directed => (u, v),
            Direction::Undirected => (u.min(v), u.max(v)),
        };
        if seen.insert(key) {
            builder.add_edge(u, v, weights.sample(&mut rng)?)?;
        }
    }
    Ok(builder.build())
}

/// Erdős–Rényi G(n, p): each possible edge present independently with
/// probability `p`, using geometric skipping so the cost is proportional to
/// the number of edges produced.
pub fn erdos_renyi_gnp(
    n: usize,
    p: f64,
    direction: Direction,
    weights: WeightSpec,
    seed: u64,
) -> Result<CsrGraph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter(format!(
            "edge probability {p} outside [0, 1]"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n, direction);
    if p == 0.0 || n < 2 {
        return Ok(builder.build());
    }
    // Enumerate candidate pairs lexicographically and skip ahead by
    // geometrically distributed gaps.
    let total: u64 = match direction {
        Direction::Directed => (n as u64) * (n as u64 - 1),
        Direction::Undirected => (n as u64) * (n as u64 - 1) / 2,
    };
    let log_1p = (1.0 - p).ln();
    let mut idx: u64 = 0;
    loop {
        let gap = if p >= 1.0 {
            0
        } else {
            let u: f64 = rng.random::<f64>();
            ((1.0 - u).ln() / log_1p).floor() as u64
        };
        idx = idx.saturating_add(gap);
        if idx >= total {
            break;
        }
        let (u, v) = match direction {
            Direction::Directed => {
                // idx over ordered pairs (u, v), u != v.
                let u = idx / (n as u64 - 1);
                let mut v = idx % (n as u64 - 1);
                if v >= u {
                    v += 1;
                }
                (u as u32, v as u32)
            }
            Direction::Undirected => {
                // idx over pairs u < v via triangular numbers.
                let mut u = 0u64;
                let mut rem = idx;
                let mut row = n as u64 - 1;
                while rem >= row {
                    rem -= row;
                    u += 1;
                    row -= 1;
                }
                (u as u32, (u + 1 + rem) as u32)
            }
        };
        builder.add_edge(u, v, weights.sample(&mut rng)?)?;
        idx += 1;
    }
    Ok(builder.build())
}

/// Barabási–Albert preferential attachment: starts from a small clique and
/// attaches each new vertex with `m` edges to existing vertices chosen
/// proportionally to their degree. Produces the scale-free (power-law)
/// degree distribution the paper's optimization exploits.
pub fn barabasi_albert(
    n: usize,
    m: usize,
    weights: WeightSpec,
    seed: u64,
) -> Result<CsrGraph, GraphError> {
    if m == 0 {
        return Err(GraphError::InvalidParameter(
            "Barabási–Albert needs m >= 1 edges per new vertex".into(),
        ));
    }
    if n <= m {
        return Err(GraphError::InvalidParameter(format!(
            "Barabási–Albert needs n > m (got n = {n}, m = {m})"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n, Direction::Undirected);
    builder.reserve(m * n);
    // `endpoints` holds one entry per half-edge, so sampling uniformly from
    // it implements degree-proportional selection.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * m * n);

    // Seed graph: clique on the first m + 1 vertices.
    let seed_size = m + 1;
    for u in 0..seed_size as u32 {
        for v in (u + 1)..seed_size as u32 {
            builder.add_edge(u, v, weights.sample(&mut rng)?)?;
            endpoints.push(u);
            endpoints.push(v);
        }
    }

    // `m` is small, so a Vec with linear membership check is both faster
    // than a HashSet and — unlike HashSet iteration — deterministic.
    let mut chosen: Vec<u32> = Vec::with_capacity(m);
    for new in seed_size as u32..n as u32 {
        chosen.clear();
        while chosen.len() < m {
            let pick = endpoints[rng.random_range(0..endpoints.len())];
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        for &t in &chosen {
            builder.add_edge(new, t, weights.sample(&mut rng)?)?;
            endpoints.push(new);
            endpoints.push(t);
        }
    }
    Ok(builder.build())
}

/// Directed scale-free graph: generates an undirected Barabási–Albert graph
/// and orients each edge, keeping both directions with probability
/// `reciprocity` and a single uniformly random direction otherwise.
///
/// This matches the character of the paper's directed datasets
/// (ego-Twitter, sx-superuser): heavy-tailed in- *and* out-degrees with a
/// tunable fraction of mutual links.
pub fn scale_free_directed(
    n: usize,
    m: usize,
    reciprocity: f64,
    weights: WeightSpec,
    seed: u64,
) -> Result<CsrGraph, GraphError> {
    if !(0.0..=1.0).contains(&reciprocity) {
        return Err(GraphError::InvalidParameter(format!(
            "reciprocity {reciprocity} outside [0, 1]"
        )));
    }
    let base = barabasi_albert(n, m, WeightSpec::Unit, seed)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut builder = GraphBuilder::new(n, Direction::Directed);
    for (u, v, _) in base.logical_edges() {
        if rng.random_bool(reciprocity) {
            let w = weights.sample(&mut rng)?;
            builder.add_edge(u, v, w)?;
            builder.add_edge(v, u, w)?;
        } else if rng.random_bool(0.5) {
            builder.add_edge(u, v, weights.sample(&mut rng)?)?;
        } else {
            builder.add_edge(v, u, weights.sample(&mut rng)?)?;
        }
    }
    Ok(builder.build())
}

/// Configuration model: a random simple graph with (approximately) a
/// prescribed degree sequence, built by pairing half-edge "stubs" and
/// erasing self-loops and duplicate pairings (the standard *erased*
/// configuration model — the realized degrees can fall slightly short of
/// the request, which is reported via the returned graph's own degrees).
///
/// Useful for building replicas that match a measured degree sequence
/// exactly in distribution rather than via a growth model.
///
/// # Errors
///
/// Rejects sequences whose sum is odd (no pairing exists) and vertices
/// demanding degree ≥ n.
pub fn configuration_model(degrees: &[u32], seed: u64) -> Result<CsrGraph, GraphError> {
    let n = degrees.len();
    let total: u64 = degrees.iter().map(|&d| d as u64).sum();
    if !total.is_multiple_of(2) {
        return Err(GraphError::InvalidParameter(
            "configuration model needs an even degree sum".into(),
        ));
    }
    if let Some((v, &d)) = degrees.iter().enumerate().find(|&(_, &d)| d as usize >= n) {
        return Err(GraphError::InvalidParameter(format!(
            "vertex {v} demands degree {d} >= n = {n}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stubs: Vec<u32> = Vec::with_capacity(total as usize);
    for (v, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v as u32, d as usize));
    }
    // Fisher–Yates shuffle, then pair consecutive stubs.
    for i in (1..stubs.len()).rev() {
        let j = rng.random_range(0..=i);
        stubs.swap(i, j);
    }
    let mut builder = GraphBuilder::new(n, Direction::Undirected)
        .with_duplicate_policy(crate::DuplicatePolicy::Ignore);
    for pair in stubs.chunks_exact(2) {
        // Self-loops and duplicates are erased (dropped by the builder).
        builder.add_edge(pair[0], pair[1], 1)?;
    }
    Ok(builder.build())
}

/// Watts–Strogatz small-world graph: ring lattice where each vertex links to
/// its `k / 2` nearest neighbors on each side, then each edge is rewired to
/// a random target with probability `beta`.
pub fn watts_strogatz(
    n: usize,
    k: usize,
    beta: f64,
    weights: WeightSpec,
    seed: u64,
) -> Result<CsrGraph, GraphError> {
    if !k.is_multiple_of(2) || k == 0 {
        return Err(GraphError::InvalidParameter(format!(
            "Watts–Strogatz needs even k >= 2 (got {k})"
        )));
    }
    if k >= n {
        return Err(GraphError::InvalidParameter(format!(
            "Watts–Strogatz needs k < n (got k = {k}, n = {n})"
        )));
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(GraphError::InvalidParameter(format!(
            "rewiring probability {beta} outside [0, 1]"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: HashSet<(u32, u32)> = HashSet::with_capacity(n * k / 2);
    let norm = |u: u32, v: u32| (u.min(v), u.max(v));
    for u in 0..n as u32 {
        for j in 1..=(k / 2) as u32 {
            let v = (u + j) % n as u32;
            edges.insert(norm(u, v));
        }
    }
    // Rewire: iterate the original lattice edges deterministically.
    let mut lattice: Vec<(u32, u32)> = Vec::with_capacity(n * k / 2);
    for u in 0..n as u32 {
        for j in 1..=(k / 2) as u32 {
            lattice.push(norm(u, (u + j) % n as u32));
        }
    }
    for (u, v) in lattice {
        if rng.random_bool(beta) && edges.contains(&(u, v)) {
            // Try a handful of times to find a fresh target.
            for _ in 0..32 {
                let w = rng.random_range(0..n as u32);
                if w != u && !edges.contains(&norm(u, w)) {
                    edges.remove(&(u, v));
                    edges.insert(norm(u, w));
                    break;
                }
            }
        }
    }
    let mut builder = GraphBuilder::new(n, Direction::Undirected);
    let mut sorted: Vec<(u32, u32)> = edges.into_iter().collect();
    sorted.sort_unstable(); // determinism independent of HashSet iteration
    for (u, v) in sorted {
        builder.add_edge(u, v, weights.sample(&mut rng)?)?;
    }
    Ok(builder.build())
}

/// R-MAT (recursive matrix) generator, the Graph500 workhorse: each edge
/// picks its endpoints by recursively descending into one of four adjacency
/// matrix quadrants with probabilities `(a, b, c, d)`. Skewed probabilities
/// (the classic `a = 0.57, b = c = 0.19, d = 0.05`) yield power-law-ish
/// degree distributions; uniform probabilities approach Erdős–Rényi.
///
/// Produces a directed graph with `2^scale` vertices and about
/// `edge_factor · 2^scale` edges (self-loops and duplicates are dropped, as
/// in Graph500's kernel-1 preprocessing).
pub fn rmat(
    scale: u32,
    edge_factor: usize,
    probs: (f64, f64, f64, f64),
    weights: WeightSpec,
    seed: u64,
) -> Result<CsrGraph, GraphError> {
    let (a, b, c, d) = probs;
    let sum = a + b + c + d;
    if !(0.999..=1.001).contains(&sum) || [a, b, c, d].iter().any(|&p| p < 0.0) {
        return Err(GraphError::InvalidParameter(format!(
            "R-MAT probabilities ({a}, {b}, {c}, {d}) must be non-negative and sum to 1"
        )));
    }
    if scale == 0 || scale > 30 {
        return Err(GraphError::InvalidParameter(format!(
            "R-MAT scale {scale} outside 1..=30"
        )));
    }
    let n = 1usize << scale;
    let m = edge_factor.saturating_mul(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n, Direction::Directed)
        .with_duplicate_policy(crate::DuplicatePolicy::Ignore);
    builder.reserve(m);
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.random();
            if r < a {
                // top-left quadrant: no bits set
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        builder.add_edge(u, v, weights.sample(&mut rng)?)?;
    }
    Ok(builder.build())
}

/// A path `0 — 1 — … — (n-1)` with unit weights.
pub fn path_graph(n: usize, direction: Direction) -> CsrGraph {
    let mut builder = GraphBuilder::new(n, direction);
    for u in 1..n as u32 {
        builder.add_edge(u - 1, u, 1).expect("in range");
    }
    builder.build()
}

/// A cycle over `n >= 3` vertices with unit weights.
pub fn cycle_graph(n: usize, direction: Direction) -> CsrGraph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut builder = GraphBuilder::new(n, direction);
    for u in 0..n as u32 {
        builder
            .add_edge(u, (u + 1) % n as u32, 1)
            .expect("in range");
    }
    builder.build()
}

/// A star: vertex 0 connected to all others (the most extreme hub).
pub fn star_graph(n: usize) -> CsrGraph {
    let mut builder = GraphBuilder::new(n, Direction::Undirected);
    for v in 1..n as u32 {
        builder.add_edge(0, v, 1).expect("in range");
    }
    builder.build()
}

/// The complete graph on `n` vertices with unit weights.
pub fn complete_graph(n: usize) -> CsrGraph {
    let mut builder = GraphBuilder::new(n, Direction::Undirected);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            builder.add_edge(u, v, 1).expect("in range");
        }
    }
    builder.build()
}

/// A `rows × cols` 4-neighbor grid with unit weights.
pub fn grid_graph(rows: usize, cols: usize) -> CsrGraph {
    let n = rows * cols;
    let mut builder = GraphBuilder::new(n, Direction::Undirected);
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                builder
                    .add_edge(id(r, c), id(r, c + 1), 1)
                    .expect("in range");
            }
            if r + 1 < rows {
                builder
                    .add_edge(id(r, c), id(r + 1, c), 1)
                    .expect("in range");
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree;

    #[test]
    fn gnm_has_exact_edge_count_and_is_deterministic() {
        let a = erdos_renyi_gnm(100, 350, Direction::Undirected, WeightSpec::Unit, 7).unwrap();
        let b = erdos_renyi_gnm(100, 350, Direction::Undirected, WeightSpec::Unit, 7).unwrap();
        assert_eq!(a.edge_count(), 350);
        assert_eq!(a, b);
        let c = erdos_renyi_gnm(100, 350, Direction::Undirected, WeightSpec::Unit, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn gnm_directed_allows_both_orientations() {
        let g = erdos_renyi_gnm(10, 90, Direction::Directed, WeightSpec::Unit, 1).unwrap();
        assert_eq!(g.edge_count(), 90); // the complete directed graph
    }

    #[test]
    fn gnm_rejects_impossible_request() {
        assert!(erdos_renyi_gnm(4, 7, Direction::Undirected, WeightSpec::Unit, 0).is_err());
        assert!(erdos_renyi_gnm(1, 1, Direction::Directed, WeightSpec::Unit, 0).is_err());
    }

    #[test]
    fn gnp_density_is_plausible() {
        let n = 400;
        let p = 0.05;
        let g = erdos_renyi_gnp(n, p, Direction::Undirected, WeightSpec::Unit, 42).unwrap();
        let expected = (n * (n - 1) / 2) as f64 * p;
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < expected * 0.25,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    fn gnp_extremes() {
        let empty = erdos_renyi_gnp(50, 0.0, Direction::Directed, WeightSpec::Unit, 0).unwrap();
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi_gnp(20, 1.0, Direction::Undirected, WeightSpec::Unit, 0).unwrap();
        assert_eq!(full.edge_count(), 20 * 19 / 2);
        let full_d = erdos_renyi_gnp(12, 1.0, Direction::Directed, WeightSpec::Unit, 0).unwrap();
        assert_eq!(full_d.edge_count(), 12 * 11);
    }

    #[test]
    fn ba_degree_distribution_is_heavy_tailed() {
        let g = barabasi_albert(3000, 3, WeightSpec::Unit, 99).unwrap();
        assert_eq!(g.edge_count(), 6 + (3000 - 4) * 3); // C(4,2) clique + m per newcomer
        let degs = degree::out_degrees(&g);
        let max = *degs.iter().max().unwrap();
        let min = *degs.iter().min().unwrap();
        assert!(min >= 3);
        assert!(max > 60, "expected a hub, max degree was {max}");
        // Most vertices sit near the minimum degree — the scale-free shape.
        let near_min = degs.iter().filter(|&&d| d <= 6).count();
        assert!(near_min > 3000 / 2);
    }

    #[test]
    fn ba_rejects_bad_parameters() {
        assert!(barabasi_albert(5, 0, WeightSpec::Unit, 0).is_err());
        assert!(barabasi_albert(3, 3, WeightSpec::Unit, 0).is_err());
    }

    #[test]
    fn directed_scale_free_has_heavy_out_degrees() {
        let g = scale_free_directed(2000, 3, 0.3, WeightSpec::Unit, 5).unwrap();
        assert!(g.direction().is_directed());
        let degs = degree::out_degrees(&g);
        let max = *degs.iter().max().unwrap();
        assert!(max > 30, "expected an out-hub, max out-degree was {max}");
    }

    #[test]
    fn rmat_is_skewed_and_deterministic() {
        let g = rmat(12, 8, (0.57, 0.19, 0.19, 0.05), WeightSpec::Unit, 3).unwrap();
        assert_eq!(g.vertex_count(), 4096);
        assert!(g.direction().is_directed());
        // Duplicates dropped, so fewer than the nominal edge count.
        assert!(g.edge_count() <= 8 * 4096);
        assert!(g.edge_count() > 4 * 4096, "too many collisions");
        // Skewed quadrants make low-id vertices hubs.
        let degs = degree::out_degrees(&g);
        let max = *degs.iter().max().unwrap();
        let mean = degs.iter().map(|&d| d as f64).sum::<f64>() / degs.len() as f64;
        assert!(max as f64 > mean * 10.0, "max {max}, mean {mean:.1}");
        assert_eq!(
            g,
            rmat(12, 8, (0.57, 0.19, 0.19, 0.05), WeightSpec::Unit, 3).unwrap()
        );
    }

    #[test]
    fn rmat_rejects_bad_parameters() {
        assert!(rmat(0, 8, (0.25, 0.25, 0.25, 0.25), WeightSpec::Unit, 0).is_err());
        assert!(rmat(40, 8, (0.25, 0.25, 0.25, 0.25), WeightSpec::Unit, 0).is_err());
        assert!(rmat(5, 8, (0.5, 0.5, 0.5, 0.5), WeightSpec::Unit, 0).is_err()); // sum 2
        assert!(rmat(5, 8, (1.2, -0.2, 0.0, 0.0), WeightSpec::Unit, 0).is_err());
    }

    #[test]
    fn configuration_model_tracks_degree_sequence() {
        // Power-law-ish sequence with an even sum.
        let mut degrees: Vec<u32> = (0..600u32).map(|i| 2 + (i % 7)).collect();
        let sum: u64 = degrees.iter().map(|&d| d as u64).sum();
        if sum % 2 == 1 {
            degrees[0] += 1;
        }
        let g = configuration_model(&degrees, 5).unwrap();
        assert_eq!(g.vertex_count(), 600);
        // The erased model loses a few stubs; realized degrees never exceed
        // the request and stay close in aggregate.
        let realized = degree::out_degrees(&g);
        for (v, (&want, &got)) in degrees.iter().zip(&realized).enumerate() {
            assert!(got <= want, "vertex {v}: {got} > requested {want}");
        }
        let realized_sum: u64 = realized.iter().map(|&d| d as u64).sum();
        let requested: u64 = degrees.iter().map(|&d| d as u64).sum();
        assert!(realized_sum as f64 > requested as f64 * 0.95);
        // Deterministic in the seed.
        assert_eq!(g, configuration_model(&degrees, 5).unwrap());
        assert_ne!(g, configuration_model(&degrees, 6).unwrap());
    }

    #[test]
    fn configuration_model_rejects_bad_sequences() {
        assert!(configuration_model(&[1, 1, 1], 0).is_err()); // odd sum
        assert!(configuration_model(&[4, 1, 1, 2], 0).is_err()); // degree >= n
        let empty = configuration_model(&[], 0).unwrap();
        assert_eq!(empty.vertex_count(), 0);
    }

    #[test]
    fn watts_strogatz_zero_beta_is_lattice() {
        let g = watts_strogatz(20, 4, 0.0, WeightSpec::Unit, 0).unwrap();
        assert_eq!(g.edge_count(), 20 * 2);
        for v in 0..20u32 {
            assert_eq!(g.out_degree(v), 4);
        }
    }

    #[test]
    fn watts_strogatz_rewiring_keeps_edge_count() {
        let g = watts_strogatz(200, 6, 0.3, WeightSpec::Unit, 3).unwrap();
        assert_eq!(g.edge_count(), 200 * 3);
    }

    #[test]
    fn watts_strogatz_rejects_bad_parameters() {
        assert!(watts_strogatz(10, 3, 0.1, WeightSpec::Unit, 0).is_err()); // odd k
        assert!(watts_strogatz(4, 4, 0.1, WeightSpec::Unit, 0).is_err()); // k >= n
        assert!(watts_strogatz(10, 4, 1.5, WeightSpec::Unit, 0).is_err()); // bad beta
    }

    #[test]
    fn uniform_weights_respect_range() {
        let g = erdos_renyi_gnm(
            60,
            200,
            Direction::Undirected,
            WeightSpec::Uniform { lo: 2, hi: 9 },
            1,
        )
        .unwrap();
        for (_, _, w) in g.arcs() {
            assert!((2..=9).contains(&w));
        }
    }

    #[test]
    fn uniform_weight_validation() {
        assert!(erdos_renyi_gnm(
            10,
            5,
            Direction::Directed,
            WeightSpec::Uniform { lo: 0, hi: 3 },
            0
        )
        .is_err());
        assert!(erdos_renyi_gnm(
            10,
            5,
            Direction::Directed,
            WeightSpec::Uniform { lo: 5, hi: 3 },
            0
        )
        .is_err());
    }

    #[test]
    fn fixtures_have_expected_shapes() {
        let p = path_graph(5, Direction::Undirected);
        assert_eq!(p.edge_count(), 4);
        assert_eq!(p.out_degree(0), 1);
        assert_eq!(p.out_degree(2), 2);

        let c = cycle_graph(6, Direction::Directed);
        assert_eq!(c.edge_count(), 6);
        for v in 0..6u32 {
            assert_eq!(c.out_degree(v), 1);
        }

        let s = star_graph(10);
        assert_eq!(s.out_degree(0), 9);
        assert_eq!(s.out_degree(5), 1);

        let k = complete_graph(6);
        assert_eq!(k.edge_count(), 15);
        for v in 0..6u32 {
            assert_eq!(k.out_degree(v), 5);
        }

        let g = grid_graph(3, 4);
        assert_eq!(g.vertex_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(g.out_degree(0), 2); // corner
    }
}
