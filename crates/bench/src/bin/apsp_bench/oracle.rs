//! The correctness side of the benchmark: an independent oracle, row
//! digests to compare solves against it, and failure accounting.

use parapsp_core::{baselines, DistanceMatrix};
use parapsp_graph::CsrGraph;
use parapsp_parfor::ThreadPool;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Word-wise FNV-1a over one distance row.
fn row_digest(row: &[u32]) -> u64 {
    row.iter().fold(FNV_OFFSET, |h, &d| {
        (h ^ u64::from(d)).wrapping_mul(FNV_PRIME)
    })
}

/// Row digests of a whole matrix, computed on two threads (the digest
/// pass is never timed, but it runs once per sample).
fn matrix_digests(matrix: &DistanceMatrix) -> Vec<u64> {
    let n = matrix.n();
    let mut digests = vec![0u64; n];
    let half = n / 2;
    let (lo, hi) = digests.split_at_mut(half);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (s, d) in lo.iter_mut().enumerate() {
                *d = row_digest(matrix.row(s as u32));
            }
        });
        for (i, d) in hi.iter_mut().enumerate() {
            *d = row_digest(matrix.row((half + i) as u32));
        }
    });
    digests
}

/// FNV-1a folded over the row digests: the one-word checksum a child
/// process sends back instead of its O(n²) matrix.
fn fold_digests(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_OFFSET, |h, &d| (h ^ d).wrapping_mul(FNV_PRIME))
}

/// The whole-matrix checksum [`Oracle::checksum`] is compared against.
pub fn matrix_checksum(matrix: &DistanceMatrix) -> u64 {
    fold_digests(&matrix_digests(matrix))
}

/// The reference answer for one graph, kept as one digest per row so a
/// solve's matrix is checked whole while only one O(n²) matrix is ever
/// resident.
pub struct Oracle {
    rows: Vec<u64>,
}

impl Oracle {
    /// Solves `graph` with a baseline that shares no code with the
    /// modified-Dijkstra kernel: per-source BFS on unit weights, per-source
    /// binary-heap Dijkstra otherwise.
    pub fn compute(graph: &CsrGraph, pool: &ThreadPool) -> Oracle {
        let reference = if graph.is_unit_weight() {
            baselines::par_apsp_bfs(graph, pool)
        } else {
            baselines::par_apsp_dijkstra(graph, pool)
        };
        Oracle::from_matrix(&reference)
    }

    /// An oracle whose answer is `matrix`.
    pub fn from_matrix(matrix: &DistanceMatrix) -> Oracle {
        Oracle {
            rows: matrix_digests(matrix),
        }
    }

    /// Whether `matrix` equals the oracle's answer in every row.
    pub fn matches(&self, matrix: &DistanceMatrix) -> bool {
        matrix.n() == self.rows.len() && matrix_digests(matrix) == self.rows
    }

    /// The whole-matrix checksum of the oracle's answer.
    pub fn checksum(&self) -> u64 {
        fold_digests(&self.rows)
    }
}

/// Solves attempted and solves that failed: a wrong matrix, an error or
/// a panic all count once, and the run keeps going.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one attempted solve.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted (0 before anything was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::generate::{barabasi_albert, WeightSpec};

    #[test]
    fn one_flipped_distance_is_one_failure_over_the_attempts() {
        let g = barabasi_albert(120, 3, WeightSpec::Unit, 5).unwrap();
        let pool = ThreadPool::new(2);
        let oracle = Oracle::compute(&g, &pool);
        let good = baselines::apsp_dijkstra(&g);
        let mut raw = good.clone().into_raw();
        raw[7 * 120 + 99] ^= 1;
        let bad = DistanceMatrix::from_raw(120, raw);

        let mut tally = Tally::default();
        for matrix in [&good, &bad, &good] {
            tally.record(oracle.matches(matrix));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert!((tally.failed_frac() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(oracle.checksum(), matrix_checksum(&good));
        assert_ne!(oracle.checksum(), matrix_checksum(&bad));
    }
}
