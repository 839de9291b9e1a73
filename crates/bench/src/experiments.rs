//! One function per table/figure of the paper's evaluation (§5), each
//! returning the tables it regenerates. The `reproduce` binary is a thin
//! CLI over this module.
//!
//! Scale note: the paper's machines had 16/32 physical cores and up to
//! 256 GB of RAM. Experiments that allocate the O(n²) matrix default to a
//! scaled-down replica (`Config::apsp_scale`); ordering-only experiments
//! can run at the paper's full vertex counts (`Config::ordering_scale`).

use std::time::Duration;

use parapsp_core::baselines;
use parapsp_core::kernel::KernelOptions;
use parapsp_core::{ApspEngine, ApspOutput, RunConfig, Runner, SolverKind};
use parapsp_datasets::{ca_hepph, find, ordering_datasets, paper_datasets, DatasetSpec, Scale};
use parapsp_graph::{degree, CsrGraph};
use parapsp_order::OrderingProcedure;
use parapsp_parfor::{Schedule, ThreadPool};

use crate::report::Table;
use crate::timing::time_median;
use crate::{fmt_duration, speedup};

/// Experiment configuration shared by all reproductions.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fraction of the paper's vertex count for experiments that allocate
    /// the O(n²) distance matrix.
    pub apsp_scale: f64,
    /// Fraction of the paper's vertex count for ordering-only experiments.
    pub ordering_scale: f64,
    /// Repetitions per measurement (median is reported; the paper averages
    /// 10 runs).
    pub runs: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            apsp_scale: 0.03,
            ordering_scale: 0.5,
            runs: 3,
            threads: crate::thread_sweep(),
        }
    }
}

impl Config {
    fn apsp_graph(&self, spec: &DatasetSpec) -> CsrGraph {
        spec.generate(Scale::Fraction(self.apsp_scale))
            .expect("replica generation")
    }

    fn ordering_degrees(&self, spec: &DatasetSpec) -> Vec<u32> {
        let g = spec
            .generate(Scale::Fraction(self.ordering_scale))
            .expect("replica generation");
        degree::out_degrees(&g)
    }
}

fn dataset(name: &str) -> DatasetSpec {
    find(name).unwrap_or_else(|| panic!("dataset {name} missing from registry"))
}

/// A display label paired with a thread-count → run-configuration
/// constructor; every sweep feeds the configuration to the same
/// [`Runner`]/[`ApspEngine`] pair.
type LabeledDriver = (&'static str, fn(usize) -> RunConfig);

/// Runs the static-order row engine once under `config` (the `seq_*`
/// configs run it on one thread), on the paper's kernel: these tables
/// measure Alg. 1, so the `auto` default must not swap in another solver.
fn run_apsp(config: RunConfig, graph: &CsrGraph) -> ApspOutput {
    Runner::new(config.with_solver(SolverKind::Dijkstra)).run(ApspEngine::new(), graph)
}

/// Times one ordering procedure at one thread count.
fn time_ordering(
    degrees: &[u32],
    procedure: OrderingProcedure,
    threads: usize,
    runs: usize,
) -> Duration {
    let pool = ThreadPool::new(threads);
    time_median(runs, || {
        std::hint::black_box(procedure.compute(degrees, &pool));
    })
}

/// **Table 1** — ordering time of ParAlg2's selection sort vs ParBuckets
/// on WordNet, per thread count. Expected shape: selection is flat (it is
/// sequential) and orders of magnitude slower; ParBuckets is microseconds
/// but *degrades* as threads increase (lock contention in low buckets).
pub fn table1(config: &Config) -> Vec<Table> {
    let degrees = config.ordering_degrees(&dataset("WordNet"));
    let mut table = Table::new(
        format!(
            "Table 1: ordering time, WordNet replica (n = {})",
            degrees.len()
        ),
        &["procedure", "1", "2", "4", "8", "16"],
    );
    for procedure in [
        OrderingProcedure::selection(),
        OrderingProcedure::par_buckets(),
    ] {
        let mut cells = vec![procedure.label()];
        for &threads in &[1usize, 2, 4, 8, 16] {
            let d = time_ordering(&degrees, procedure, threads, config.runs);
            cells.push(fmt_duration(d));
        }
        table.push_row(cells);
    }
    vec![table]
}

/// **Table 2** — salient statistics of the replica datasets next to the
/// paper's originals.
pub fn table2(config: &Config) -> Vec<Table> {
    let mut table = Table::new(
        "Table 2: datasets (paper original vs generated replica)",
        &[
            "name",
            "type",
            "paper V",
            "paper E",
            "replica V",
            "replica E",
            "replica max deg",
        ],
    );
    for spec in paper_datasets() {
        let g = config.apsp_graph(&spec);
        let degs = degree::out_degrees(&g);
        let max_deg = degs.iter().copied().max().unwrap_or(0);
        table.push_row(vec![
            spec.name.to_string(),
            if spec.directed {
                "Directed"
            } else {
                "Undirected"
            }
            .to_string(),
            spec.paper_vertices.to_string(),
            spec.paper_edges.to_string(),
            g.vertex_count().to_string(),
            g.edge_count().to_string(),
            max_deg.to_string(),
        ]);
    }
    vec![table]
}

/// **Figure 1** — effect of the loop schedule on ParAlg2 (ca-HepPh):
/// block partitioning vs static-cyclic vs dynamic-cyclic. Expected shape:
/// both cyclic schemes beat block; dynamic-cyclic is best.
pub fn fig1(config: &Config) -> Vec<Table> {
    // ca-HepPh is already an order of magnitude smaller than the Table 2
    // datasets, so it gets a proportionally larger fraction.
    let g = ca_hepph()
        .generate(Scale::Fraction((config.apsp_scale * 8.0).min(1.0)))
        .expect("replica generation");
    let mut table = Table::new(
        format!(
            "Figure 1: ParAlg2 elapsed time by schedule, ca-HepPh replica (n = {})",
            g.vertex_count()
        ),
        &["schedule", "threads", "elapsed", "sssp-phase"],
    );
    for schedule in [
        Schedule::Block,
        Schedule::StaticCyclic,
        Schedule::dynamic_cyclic(),
    ] {
        for &threads in &config.threads {
            let out = run_apsp(RunConfig::par_alg2(threads).with_schedule(schedule), &g);
            table.push_row(vec![
                schedule.label(),
                threads.to_string(),
                fmt_duration(out.timings.total),
                fmt_duration(out.timings.sssp),
            ]);
        }
    }
    vec![table]
}

/// **Figure 3** — degree distribution of the WordNet replica
/// (log-binned), demonstrating the power law that causes ParBuckets' lock
/// contention.
pub fn fig3(config: &Config) -> Vec<Table> {
    let degrees = config.ordering_degrees(&dataset("WordNet"));
    let binned = degree::log_binned_histogram(&degrees);
    let mut table = Table::new(
        format!(
            "Figure 3: WordNet replica degree distribution (n = {})",
            degrees.len()
        ),
        &["degree bin (>=)", "vertex count", "fraction"],
    );
    let n = degrees.len() as f64;
    for (bin, count) in binned {
        table.push_row(vec![
            bin.to_string(),
            count.to_string(),
            format!("{:.5}", count as f64 / n),
        ]);
    }
    vec![table]
}

/// Helper shared by Figs. 4 and 6: ordering time per procedure per thread
/// count on one degree array.
fn ordering_comparison(
    title: String,
    degrees: &[u32],
    procedures: &[OrderingProcedure],
    config: &Config,
) -> Table {
    let mut header: Vec<String> = vec!["procedure".into()];
    header.extend(config.threads.iter().map(|t| t.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    for &procedure in procedures {
        let mut cells = vec![procedure.label()];
        for &threads in &config.threads {
            cells.push(fmt_duration(time_ordering(
                degrees,
                procedure,
                threads,
                config.runs,
            )));
        }
        table.push_row(cells);
    }
    table
}

/// **Figure 4** — ordering time: ParBuckets vs ParMax (WordNet).
pub fn fig4(config: &Config) -> Vec<Table> {
    let degrees = config.ordering_degrees(&dataset("WordNet"));
    vec![ordering_comparison(
        format!(
            "Figure 4: ordering time, ParBuckets vs ParMax, WordNet replica (n = {})",
            degrees.len()
        ),
        &degrees,
        &[
            OrderingProcedure::par_buckets(),
            OrderingProcedure::par_max(),
        ],
        config,
    )]
}

/// **Figure 5** — the *Dijkstra-part* elapsed time under the orders
/// produced by ParAlg2 (exact selection), ParBuckets (approximate) and
/// ParMax (exact). Expected shape: ParBuckets' approximate order costs
/// SSSP time; ParMax matches ParAlg2.
pub fn fig5(config: &Config) -> Vec<Table> {
    let g = config.apsp_graph(&dataset("WordNet"));
    let mut table = Table::new(
        format!(
            "Figure 5: SSSP-phase time by ordering procedure, WordNet replica (n = {})",
            g.vertex_count()
        ),
        &["ordering", "threads", "sssp-phase", "row reuses"],
    );
    for (label, ordering) in [
        ("ParAlg2 (selection)", OrderingProcedure::selection()),
        ("ParBuckets", OrderingProcedure::par_buckets()),
        ("ParMax", OrderingProcedure::par_max()),
    ] {
        for &threads in &config.threads {
            let out = run_apsp(
                RunConfig::par_apsp(threads)
                    .with_ordering(ordering)
                    .with_label(label),
                &g,
            );
            table.push_row(vec![
                label.to_string(),
                threads.to_string(),
                fmt_duration(out.timings.sssp),
                out.counters.row_reuses.to_string(),
            ]);
        }
    }
    vec![table]
}

/// **Figure 6** — ordering time: ParMax vs MultiLists on WordNet, plus the
/// §4.3 scaling check on the (much larger) soc-Pokec and soc-LiveJournal1
/// replicas where MultiLists keeps improving with threads.
pub fn fig6(config: &Config) -> Vec<Table> {
    let mut tables = Vec::new();
    let wordnet = config.ordering_degrees(&dataset("WordNet"));
    tables.push(ordering_comparison(
        format!(
            "Figure 6: ordering time, ParMax vs MultiLists, WordNet replica (n = {})",
            wordnet.len()
        ),
        &wordnet,
        &[
            OrderingProcedure::par_max(),
            OrderingProcedure::multi_lists(),
        ],
        config,
    ));
    for spec in ordering_datasets() {
        let degrees = config.ordering_degrees(&spec);
        tables.push(ordering_comparison(
            format!(
                "Figure 6 (cont.): MultiLists scaling, {} replica (n = {})",
                spec.name,
                degrees.len()
            ),
            &degrees,
            &[
                OrderingProcedure::par_max(),
                OrderingProcedure::multi_lists(),
            ],
            config,
        ));
    }
    tables
}

/// Sweeps a set of drivers over the thread counts, producing an elapsed
/// table and a speedup table (speedup of each driver relative to its own
/// 1-thread run, as in the paper's Fig. 9).
fn driver_sweep(
    title: &str,
    graph: &CsrGraph,
    drivers: &[LabeledDriver],
    config: &Config,
) -> (Table, Table) {
    let mut header: Vec<String> = vec!["algorithm".into()];
    header.extend(config.threads.iter().map(|t| t.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut elapsed_table = Table::new(format!("{title} — elapsed"), &header_refs);
    let mut speedup_table = Table::new(format!("{title} — speedup vs 1 thread"), &header_refs);
    for &(label, make) in drivers {
        let mut elapsed_cells = vec![label.to_string()];
        let mut speedup_cells = vec![label.to_string()];
        let mut t1: Option<Duration> = None;
        for &threads in &config.threads {
            let out = run_apsp(make(threads), graph);
            let total = out.timings.total;
            if threads == 1 || t1.is_none() {
                t1 = Some(total);
            }
            elapsed_cells.push(fmt_duration(total));
            speedup_cells.push(format!("{:.2}", speedup(t1.unwrap(), total)));
        }
        elapsed_table.push_row(elapsed_cells);
        speedup_table.push_row(speedup_cells);
    }
    (elapsed_table, speedup_table)
}

/// **Figure 7** — ParAlg1 vs ParAlg2 elapsed time on the Flickr replica.
/// Expected shape: ParAlg2 ≈ 2× faster at every thread count.
pub fn fig7(config: &Config) -> Vec<Table> {
    let g = config.apsp_graph(&dataset("Flickr"));
    let (elapsed, _) = driver_sweep(
        &format!(
            "Figure 7: ParAlg1 vs ParAlg2, Flickr replica (n = {})",
            g.vertex_count()
        ),
        &g,
        &[
            ("ParAlg1", RunConfig::par_alg1 as fn(usize) -> RunConfig),
            ("ParAlg2", RunConfig::par_alg2),
        ],
        config,
    );
    vec![elapsed]
}

/// **Figures 8 & 9** — overall elapsed time and speedup of ParAlg1,
/// ParAlg2 and ParAPSP on the WordNet replica. Expected shape: ParAPSP ≤
/// ParAlg2 < ParAlg1 in elapsed time; ParAlg2's speedup sags (sequential
/// O(n²) ordering), ParAPSP's does not.
pub fn fig8_fig9(config: &Config) -> Vec<Table> {
    let g = config.apsp_graph(&dataset("WordNet"));
    let (elapsed, speedups) = driver_sweep(
        &format!(
            "Figures 8/9: ParAlg1 vs ParAlg2 vs ParAPSP, WordNet replica (n = {})",
            g.vertex_count()
        ),
        &g,
        &[
            ("ParAlg1", RunConfig::par_alg1 as fn(usize) -> RunConfig),
            ("ParAlg2", RunConfig::par_alg2),
            ("ParAPSP", RunConfig::par_apsp),
        ],
        config,
    );
    vec![elapsed, speedups]
}

/// **Figure 10** — ParAPSP elapsed time (a) and speedup (b) on all five
/// Table 2 replicas.
pub fn fig10(config: &Config) -> Vec<Table> {
    let mut header: Vec<String> = vec!["dataset".into()];
    header.extend(config.threads.iter().map(|t| t.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut elapsed_table = Table::new("Figure 10a: ParAPSP elapsed time", &header_refs);
    let mut speedup_table = Table::new("Figure 10b: ParAPSP speedup", &header_refs);
    for spec in paper_datasets() {
        let g = config.apsp_graph(&spec);
        let mut elapsed_cells = vec![format!("{} (n = {})", spec.name, g.vertex_count())];
        let mut speedup_cells = vec![spec.name.to_string()];
        let mut t1: Option<Duration> = None;
        for &threads in &config.threads {
            let out = run_apsp(RunConfig::par_apsp(threads), &g);
            if t1.is_none() {
                t1 = Some(out.timings.total);
            }
            elapsed_cells.push(fmt_duration(out.timings.total));
            speedup_cells.push(format!("{:.2}", speedup(t1.unwrap(), out.timings.total)));
        }
        elapsed_table.push_row(elapsed_cells);
        speedup_table.push_row(speedup_cells);
    }
    vec![elapsed_table, speedup_table]
}

/// Ablations beyond the paper: quantify each design ingredient.
pub fn ablation(config: &Config) -> Vec<Table> {
    let spec = dataset("WordNet");
    let g = config.apsp_graph(&spec);
    let threads = *config.threads.iter().max().unwrap_or(&4);
    let mut tables = Vec::new();

    // (a) Kernel ingredients: row reuse (the dynamic-programming step) and
    // the SPFA dedup guard.
    let mut kernel_table = Table::new(
        format!("Ablation A: kernel switches, WordNet replica, {threads} threads"),
        &["row reuse", "dedup", "elapsed", "queue pops", "row reuses"],
    );
    for (row_reuse, dedup_queue) in [(true, true), (true, false), (false, true), (false, false)] {
        let out = run_apsp(
            RunConfig::par_apsp(threads).with_kernel_options(KernelOptions {
                row_reuse,
                dedup_queue,
                ..KernelOptions::default()
            }),
            &g,
        );
        kernel_table.push_row(vec![
            row_reuse.to_string(),
            dedup_queue.to_string(),
            fmt_duration(out.timings.total),
            out.counters.queue_pops.to_string(),
            out.counters.row_reuses.to_string(),
        ]);
    }
    tables.push(kernel_table);

    // (b) Against the naive comparator: per-source binary-heap Dijkstra
    // with no information sharing.
    let mut baseline_table = Table::new(
        format!("Ablation B: ParAPSP vs parallel heap-Dijkstra, {threads} threads"),
        &["algorithm", "elapsed"],
    );
    let out = run_apsp(RunConfig::par_apsp(threads), &g);
    baseline_table.push_row(vec!["ParAPSP".into(), fmt_duration(out.timings.total)]);
    let pool = ThreadPool::new(threads);
    let d = time_median(config.runs, || {
        std::hint::black_box(baselines::par_apsp_dijkstra(&g, &pool));
    });
    baseline_table.push_row(vec!["par heap-Dijkstra".into(), fmt_duration(d)]);
    tables.push(baseline_table);

    // (c) Selection-sort ratio r (Alg. 3's parameter).
    let mut ratio_table = Table::new(
        "Ablation C: selection-sort ratio r (ordering + SSSP time, 1 thread)",
        &["r", "ordering", "sssp"],
    );
    for r in [0.01, 0.1, 0.5, 1.0] {
        let out = run_apsp(
            RunConfig::par_alg2(1).with_ordering(OrderingProcedure::SelectionSort { ratio: r }),
            &g,
        );
        ratio_table.push_row(vec![
            format!("{r}"),
            fmt_duration(out.timings.ordering),
            fmt_duration(out.timings.sssp),
        ]);
    }
    tables.push(ratio_table);

    // (d) ParBuckets bucket-count sweep (the paper tried 100 and 1000).
    let degrees = degree::out_degrees(&g);
    let max_deg = degrees.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets_table = Table::new(
        format!("Ablation D: ParBuckets range count ({threads} threads)"),
        &["ranges", "ordering", "sssp"],
    );
    for ranges in [10usize, 100, 1000, max_deg.max(1)] {
        let out = run_apsp(
            RunConfig::par_apsp(threads).with_ordering(OrderingProcedure::ParBuckets { ranges }),
            &g,
        );
        buckets_table.push_row(vec![
            ranges.to_string(),
            fmt_duration(out.timings.ordering),
            fmt_duration(out.timings.sssp),
        ]);
    }
    tables.push(buckets_table);

    // (e) MultiLists parRatio sweep (Alg. 7's merge split point).
    let mut ratio2_table = Table::new(
        format!("Ablation E: MultiLists parRatio ({threads} threads, ordering time)"),
        &["parRatio", "ordering"],
    );
    for pr in [0.0, 0.01, 0.1, 0.5, 1.0] {
        let d = time_ordering(
            &degrees,
            OrderingProcedure::MultiLists { par_ratio: pr },
            threads,
            config.runs,
        );
        ratio2_table.push_row(vec![format!("{pr}"), fmt_duration(d)]);
    }
    tables.push(ratio2_table);

    // (f) Order quality: how approximate is each procedure's order, and
    // does that correlate with the SSSP cost (the Fig. 5 mechanism)?
    let pool = ThreadPool::new(threads);
    let mut quality_table = Table::new(
        "Ablation F: order quality vs SSSP cost",
        &[
            "ordering",
            "kendall distance",
            "hub displacement (top 1%)",
            "sssp",
        ],
    );
    let top = (g.vertex_count() / 100).max(1);
    for (label, ordering) in [
        ("exact (seq-bucket)", OrderingProcedure::SeqBucket),
        (
            "par-buckets(10)",
            OrderingProcedure::ParBuckets { ranges: 10 },
        ),
        ("par-buckets(100)", OrderingProcedure::par_buckets()),
        ("identity", OrderingProcedure::Identity),
    ] {
        let order = ordering.compute(&degrees, &pool);
        let kendall = parapsp_order::quality::normalized_kendall_distance(&degrees, &order);
        let displacement = parapsp_order::quality::hub_displacement(&degrees, &order, top);
        let out = run_apsp(RunConfig::par_apsp(threads).with_ordering(ordering), &g);
        quality_table.push_row(vec![
            label.to_string(),
            format!("{kendall:.4}"),
            format!("{displacement:.1}"),
            fmt_duration(out.timings.sssp),
        ]);
    }
    tables.push(quality_table);

    // (g) Load balance under each schedule (per-thread busy-time spread) —
    // the mechanism behind the Fig. 1 scheduling ranking.
    let mut balance_table = Table::new(
        format!("Ablation G: schedule load imbalance ({threads} threads)"),
        &["schedule", "elapsed", "max/mean thread busy"],
    );
    for schedule in [
        Schedule::Block,
        Schedule::StaticCyclic,
        Schedule::dynamic_cyclic(),
    ] {
        let out = run_apsp(RunConfig::par_apsp(threads).with_schedule(schedule), &g);
        balance_table.push_row(vec![
            schedule.label(),
            fmt_duration(out.timings.total),
            format!("{:.2}", out.load_imbalance().unwrap_or(f64::NAN)),
        ]);
    }
    tables.push(balance_table);

    // (h) Per-source cost by degree decile: why hub sources dominate the
    // work and why putting them first (and scheduling them cyclically)
    // matters.
    let (_, per_source) =
        Runner::new(RunConfig::par_apsp(threads).with_solver(SolverKind::Dijkstra))
            .run_traced(ApspEngine::new(), &g);
    let mut by_degree: Vec<u32> = (0..g.vertex_count() as u32).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
    let mut decile_table = Table::new(
        "Ablation H: mean per-source SSSP cost by degree decile",
        &["decile (1 = hubs)", "mean degree", "mean source cost"],
    );
    let decile_size = (g.vertex_count() / 10).max(1);
    for decile in 0..10 {
        let chunk: Vec<u32> = by_degree
            .iter()
            .skip(decile * decile_size)
            .take(decile_size)
            .copied()
            .collect();
        if chunk.is_empty() {
            break;
        }
        let mean_degree = chunk
            .iter()
            .map(|&v| degrees[v as usize] as f64)
            .sum::<f64>()
            / chunk.len() as f64;
        let mean_cost = chunk
            .iter()
            .map(|&v| per_source[v as usize].as_secs_f64())
            .sum::<f64>()
            / chunk.len() as f64;
        decile_table.push_row(vec![
            (decile + 1).to_string(),
            format!("{mean_degree:.1}"),
            fmt_duration(std::time::Duration::from_secs_f64(mean_cost)),
        ]);
    }
    tables.push(decile_table);

    tables
}

/// Least-squares slope of `ln(y)` against `ln(x)` — the exponent `b` in a
/// power-law fit `y = a · x^b`.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    assert!(points.len() >= 2, "need at least two points to fit");
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Empirical time-complexity check (§2: Peng et al. report O(n^2.4) on
/// scale-free graphs): run the sequential basic and optimized algorithms
/// on growing Barabási–Albert graphs and fit the runtime exponent.
pub fn complexity(config: &Config) -> Vec<Table> {
    let sizes = [400usize, 800, 1600, 3200];
    let mut table = Table::new(
        "Empirical complexity: elapsed time vs n on BA(m = 4) graphs",
        &["n", "basic", "optimized", "FW (n^3 reference)"],
    );
    let mut basic_points = Vec::new();
    let mut optimized_points = Vec::new();
    for &n in &sizes {
        let g = parapsp_graph::generate::barabasi_albert(
            n,
            4,
            parapsp_graph::generate::WeightSpec::Unit,
            9_000 + n as u64,
        )
        .expect("generation");
        let t_basic = time_median(config.runs, || {
            std::hint::black_box(run_apsp(RunConfig::seq_basic(), &g));
        });
        let t_optimized = time_median(config.runs, || {
            std::hint::black_box(run_apsp(RunConfig::seq_optimized_bucket(), &g));
        });
        // Floyd–Warshall only at the smallest sizes (O(n³) gets painful).
        let fw_cell = if n <= 800 {
            let t = time_median(1, || {
                std::hint::black_box(baselines::floyd_warshall(&g));
            });
            fmt_duration(t)
        } else {
            "-".to_string()
        };
        basic_points.push((n as f64, t_basic.as_secs_f64()));
        optimized_points.push((n as f64, t_optimized.as_secs_f64()));
        table.push_row(vec![
            n.to_string(),
            fmt_duration(t_basic),
            fmt_duration(t_optimized),
            fw_cell,
        ]);
    }
    table.push_row(vec![
        "fitted exponent".into(),
        format!("n^{:.2}", log_log_slope(&basic_points)),
        format!("n^{:.2}", log_log_slope(&optimized_points)),
        "n^3 (by definition)".into(),
    ]);
    vec![table]
}

/// Tests the paper's core premise (§2.2): the degree-ordering optimization
/// works **because** complex networks are scale-free. On an Erdős–Rényi
/// graph of identical size the degree distribution is flat, so the
/// optimized algorithm's advantage should largely vanish.
pub fn hypothesis(config: &Config) -> Vec<Table> {
    use parapsp_graph::generate::{erdos_renyi_gnm, WeightSpec};
    use parapsp_graph::Direction;

    let n = Scale::Fraction(config.apsp_scale).resolve(146_005); // WordNet-sized
    let mut table = Table::new(
        format!("Hypothesis check: degree ordering on scale-free vs random graphs (n = {n})"),
        &[
            "graph model",
            "basic",
            "optimized",
            "optimized gain",
            "row reuses (basic -> optimized)",
        ],
    );
    // The scale-free graph is the WordNet replica (randomly relabeled BA —
    // raw BA puts hubs at low ids, which would hand the *unordered*
    // baseline a free degree order); the ER graph matches its size.
    let ba = dataset("WordNet")
        .generate(Scale::Vertices(n))
        .expect("replica generation");
    let edge_count = ba.edge_count();
    let er = erdos_renyi_gnm(n, edge_count, Direction::Undirected, WeightSpec::Unit, 0xE6)
        .expect("ER generation");
    for (label, graph) in [
        ("Barabási–Albert (scale-free)", &ba),
        ("Erdős–Rényi (flat)", &er),
    ] {
        let basic = run_apsp(RunConfig::seq_basic(), graph);
        let optimized = run_apsp(RunConfig::seq_optimized_bucket(), graph);
        table.push_row(vec![
            label.to_string(),
            fmt_duration(basic.timings.total),
            fmt_duration(optimized.timings.total),
            format!(
                "{:.2}x",
                basic.timings.total.as_secs_f64() / optimized.timings.total.as_secs_f64().max(1e-9)
            ),
            format!(
                "{} -> {}",
                basic.counters.row_reuses, optimized.counters.row_reuses
            ),
        ]);
    }
    vec![table]
}

/// Beyond the paper (its §7 future work): the distributed-memory
/// simulation — elapsed time, communication volume and remote reuse as the
/// simulated cluster grows and the hub-broadcast fraction varies.
pub fn dist(config: &Config) -> Vec<Table> {
    let g = config.apsp_graph(&dataset("WordNet"));
    let mut table = Table::new(
        format!(
            "Distributed ParAPSP simulation, WordNet replica (n = {})",
            g.vertex_count()
        ),
        &[
            "nodes",
            "hub fraction",
            "elapsed",
            "broadcast KiB",
            "remote reuses",
        ],
    );
    for &nodes in &config.threads {
        for hub_fraction in [0.0, 0.02, 0.1] {
            let engine = parapsp_dist::DistEngine::new(parapsp_dist::ClusterConfig {
                nodes,
                hub_fraction,
                ..Default::default()
            });
            let out = Runner::new(RunConfig::new(1)).run(engine, &g);
            let remote: u64 = out.node_stats.iter().map(|s| s.remote_reuses).sum();
            table.push_row(vec![
                nodes.to_string(),
                format!("{hub_fraction}"),
                fmt_duration(out.elapsed),
                (out.total_broadcast_bytes() / 1024).to_string(),
                remote.to_string(),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Config {
        Config {
            apsp_scale: 0.004,
            ordering_scale: 0.02,
            runs: 1,
            threads: vec![1, 2],
        }
    }

    #[test]
    fn table2_lists_all_five_datasets() {
        let tables = table2(&tiny_config());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 5);
    }

    #[test]
    fn fig3_bins_cover_all_vertices() {
        let tables = fig3(&tiny_config());
        assert!(!tables[0].is_empty());
    }

    #[test]
    fn ordering_experiments_produce_rows() {
        let cfg = tiny_config();
        assert_eq!(table1(&cfg)[0].len(), 2);
        assert_eq!(fig4(&cfg)[0].len(), 2);
        let f6 = fig6(&cfg);
        assert_eq!(f6.len(), 3); // WordNet + Pokec + LiveJournal
    }

    #[test]
    fn log_log_slope_recovers_known_exponents() {
        let quadratic: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((log_log_slope(&quadratic) - 2.0).abs() < 1e-9);
        let linear: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((log_log_slope(&linear) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dist_experiment_produces_rows() {
        let cfg = tiny_config();
        let tables = dist(&cfg);
        assert_eq!(tables[0].len(), cfg.threads.len() * 3);
    }

    #[test]
    fn apsp_experiments_produce_rows() {
        let cfg = tiny_config();
        assert_eq!(fig1(&cfg)[0].len(), 3 * cfg.threads.len());
        assert_eq!(fig7(&cfg)[0].len(), 2);
        let f89 = fig8_fig9(&cfg);
        assert_eq!(f89.len(), 2);
        assert_eq!(f89[0].len(), 3);
        let f10 = fig10(&cfg);
        assert_eq!(f10[0].len(), 5);
        assert_eq!(f10[1].len(), 5);
    }
}
