//! The four workloads: how each input is generated from the seed, and the
//! run configuration `parapsp apsp` would build for it.

use std::path::{Path, PathBuf};

use parapsp_core::{FsyncPolicy, RelaxImpl, RunConfig, SolverKind, StoreSpec};
use parapsp_datasets::{ca_hepph, DatasetSpec, Scale};
use parapsp_dist::{BindSpec, ClusterConfig, SocketConfig, TransportSpec, WorkerMode};
use parapsp_graph::generate::{watts_strogatz, WeightSpec};
use parapsp_graph::CsrGraph;

/// The thread count of every workload (the benchmark host's core count).
pub const THREADS: usize = 2;
/// The vertex count of every workload. The ca-HepPh replica is scaled
/// from the paper's 12,008 vertices to this, so that even the slowest
/// workload (out-of-core, ≈ 3 s a solve on 2 threads) fits several timed
/// solves into one run and all four share one input size.
pub const VERTICES: usize = 8000;
/// Rows per ledger commit: the CLI's `--checkpoint-every` default.
pub const LEDGER_EVERY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HepphDense,
    WsWide,
    HepphOutofcore,
    HepphDist,
}

/// How the solve is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    Apsp,
    Dist,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HepphDense,
        Workload::WsWide,
        Workload::HepphOutofcore,
        Workload::HepphDist,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HepphDense => "hepph-dense",
            Workload::WsWide => "ws-wide",
            Workload::HepphOutofcore => "hepph-outofcore",
            Workload::HepphDist => "hepph-dist",
        }
    }

    pub fn parse(raw: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == raw)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{raw}` (one of {})", names.join(", "))
            })
    }

    pub fn engine(self) -> EngineChoice {
        match self {
            Workload::HepphDist => EngineChoice::Dist,
            _ => EngineChoice::Apsp,
        }
    }

    /// Whether the thread-count speed-up is measured (the shared-memory
    /// in-core workloads, where the pool is the only parallelism).
    pub fn measures_speedup(self) -> bool {
        matches!(self, Workload::HepphDense | Workload::WsWide)
    }

    /// The generated input. Vertex ids are relabelled by a seeded
    /// permutation, so no workload benefits from an id–degree locality
    /// that real inputs lack.
    pub fn generate(self, n: usize, seed: u64) -> CsrGraph {
        let seed = splitmix64(seed ^ 0xA9_5BE7);
        match self {
            Workload::WsWide => {
                let raw = watts_strogatz(n, 8, 0.2, WeightSpec::Uniform { lo: 1, hi: 1000 }, seed)
                    .expect("Watts–Strogatz parameters are valid");
                raw.relabel(&permutation(n, seed))
            }
            _ => DatasetSpec { seed, ..ca_hepph() }
                .generate(Scale::Vertices(n))
                .expect("the ca-HepPh replica parameters are valid"),
        }
    }

    /// The `--store` value: dense, or an mmap hot-row budget of 1/8 of the
    /// dense matrix bytes for the out-of-core workload.
    pub fn store(self, n: usize) -> StoreSpec {
        match self {
            Workload::HepphOutofcore => StoreSpec::mmap((n as u64 * n as u64 * 4 / 8).max(1)),
            _ => StoreSpec::dense(),
        }
    }

    /// The run config `parapsp apsp <file> --threads 2 [--store ..]
    /// [--ledger ..]` builds: the algorithm's constructor, then the CLI's
    /// `configure` (relax, solver, store and ledger defaults).
    pub fn run_config(self, n: usize, scratch: &Scratch) -> RunConfig {
        let base = match self.engine() {
            EngineChoice::Apsp => RunConfig::par_apsp(THREADS),
            EngineChoice::Dist => RunConfig::new(1),
        };
        let config = base
            .with_relax(RelaxImpl::Auto)
            .with_solver(SolverKind::default())
            .with_store(self.store(n));
        match self {
            Workload::HepphOutofcore => config
                .with_ledger(scratch.ledger(), LEDGER_EVERY)
                .with_fsync(FsyncPolicy::default()),
            _ => config,
        }
    }

    /// The cluster `parapsp apsp --algorithm dist --nodes 2 --transport
    /// unix` builds, with this binary as the spawned worker. The CLI's
    /// heartbeat, batch and timeout flag defaults are `SocketConfig`'s.
    pub fn cluster(self, scratch: &Scratch) -> ClusterConfig {
        let program = std::env::current_exe().expect("the benchmark's own executable path");
        ClusterConfig {
            nodes: 2,
            transport: TransportSpec::Socket(SocketConfig {
                bind: BindSpec::Unix(scratch.socket()),
                workers: WorkerMode::Spawn {
                    program,
                    args: vec!["--node".to_string()],
                },
                ..SocketConfig::default()
            }),
            ..ClusterConfig::default()
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        perm.swap(i, (state % (i as u64 + 1)) as usize);
    }
    perm
}

/// A private directory for the run's files — edge list, mmap shards,
/// ledger, Unix socket — removed with everything in it when dropped, on
/// every exit path that unwinds.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `dir`, whose parent must exist. A directory that already
    /// exists is refused, so a drop only ever removes what this created.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Scratch> {
        let dir = dir.into();
        std::fs::create_dir(&dir)?;
        Ok(Scratch { dir })
    }

    /// `.apsp_bench_tmp-<pid>` in the current directory.
    pub fn for_this_process() -> std::io::Result<Scratch> {
        Scratch::create(format!(".apsp_bench_tmp-{}", std::process::id()))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn edge_list(&self) -> PathBuf {
        self.dir.join("graph.txt")
    }

    pub fn ledger(&self) -> PathBuf {
        self.dir.join("run.ledger")
    }

    /// Kept relative when the directory is, so the path stays under the
    /// 108-byte `sun_path` limit however deep the checkout is.
    pub fn socket(&self) -> PathBuf {
        self.dir.join("d.sock")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in [Workload::HepphDense, Workload::WsWide] {
            let a = w.generate(300, 7);
            assert_eq!(a, w.generate(300, 7), "{}", w.name());
            assert_ne!(a, w.generate(300, 8), "{}", w.name());
            assert_eq!(a.vertex_count(), 300);
        }
        assert!(Workload::HepphDense.generate(300, 1).is_unit_weight());
        assert!(!Workload::WsWide.generate(300, 1).is_unit_weight());
        let mut perm = permutation(1000, 3);
        perm.sort_unstable();
        assert!(perm.iter().enumerate().all(|(i, &v)| v as usize == i));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("nope").unwrap_err().contains("hepph-dist"));
    }

    #[test]
    fn scratch_refuses_an_existing_directory_and_leaves_it_alone() {
        let base = std::env::temp_dir().join(format!("apsp-bench-scratch-{}", std::process::id()));
        std::fs::create_dir(&base).unwrap();
        let keep = base.join("keep.txt");
        std::fs::write(&keep, "data").unwrap();
        assert!(Scratch::create(&base).is_err());
        assert!(keep.exists());

        let owned = Scratch::create(base.join("run")).unwrap();
        std::fs::write(owned.edge_list(), "0 1\n").unwrap();
        drop(owned);
        assert!(!base.join("run").exists());
        assert!(keep.exists(), "the parent keeps its files");
        std::fs::remove_dir_all(&base).unwrap();
    }
}
