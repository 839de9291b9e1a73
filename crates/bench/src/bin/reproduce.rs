//! Regenerates the tables and figures of the ParAPSP paper.
//!
//! ```text
//! reproduce [OPTIONS] <EXPERIMENT>...
//!
//! Experiments:
//!   table1 table2 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 ablation all
//!
//! Options:
//!   --apsp-scale <F>      replica size for matrix-allocating runs,
//!                         as a fraction of the paper's vertex count
//!                         (default 0.03)
//!   --ordering-scale <F>  replica size for ordering-only runs
//!                         (default 0.5; use 1.0 for the paper's full n)
//!   --runs <N>            repetitions per measurement (default 3)
//!   --threads <a,b,c>     thread sweep (default 1,2,4,8,16)
//! ```
//!
//! Results are printed as aligned tables and written to `results/*.csv`.

use parapsp_bench::experiments::{self, Config};
use parapsp_bench::report::{write_csv, Table};

const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablation",
    "dist",
    "complexity",
    "hypothesis",
];

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--apsp-scale F] [--ordering-scale F] [--runs N] \
         [--threads a,b,c] <experiment>...\nexperiments: {} all",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn run_experiment(name: &str, config: &Config) -> Vec<Table> {
    match name {
        "table1" => experiments::table1(config),
        "table2" => experiments::table2(config),
        "fig1" => experiments::fig1(config),
        "fig3" => experiments::fig3(config),
        "fig4" => experiments::fig4(config),
        "fig5" => experiments::fig5(config),
        "fig6" => experiments::fig6(config),
        "fig7" => experiments::fig7(config),
        // Figs. 8 and 9 come from the same sweep (elapsed + speedup).
        "fig8" | "fig9" => experiments::fig8_fig9(config),
        "fig10" => experiments::fig10(config),
        "ablation" => experiments::ablation(config),
        "dist" => experiments::dist(config),
        "complexity" => experiments::complexity(config),
        "hypothesis" => experiments::hypothesis(config),
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    }
}

fn main() {
    let mut config = Config::default();
    let mut requested: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--apsp-scale" => {
                config.apsp_scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--ordering-scale" => {
                config.ordering_scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--runs" => {
                config.runs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                let spec = args.next().unwrap_or_else(|| usage());
                config.threads = spec
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .collect();
                if config.threads.is_empty() {
                    usage();
                }
            }
            "--help" | "-h" => usage(),
            name if name.starts_with('-') => {
                eprintln!("unknown option: {name}");
                usage();
            }
            name => requested.push(name.to_string()),
        }
    }
    if requested.is_empty() {
        usage();
    }
    if requested.iter().any(|r| r == "all") {
        requested = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
        // fig9 shares fig8's sweep; don't run it twice.
        requested.retain(|r| r != "fig9");
    }

    println!(
        "# ParAPSP reproduction — apsp-scale {}, ordering-scale {}, runs {}, threads {:?}",
        config.apsp_scale, config.ordering_scale, config.runs, config.threads
    );
    println!(
        "# note: this machine has {} available core(s); thread sweeps beyond that are oversubscribed\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );

    for name in requested {
        let start = std::time::Instant::now();
        let tables = run_experiment(&name, &config);
        for (i, table) in tables.iter().enumerate() {
            table.print();
            let csv_name = if tables.len() == 1 {
                name.clone()
            } else {
                format!("{name}-{i}")
            };
            match write_csv(&csv_name, table) {
                Ok(path) => println!("(csv: {})", path.display()),
                Err(err) => eprintln!("(csv write failed: {err})"),
            }
            // Thread-sweep tables additionally become SVG figures
            // (durations on a log axis; speedups on a linear one).
            let plot = parapsp_bench::plot::thread_sweep_plot(table, table.title())
                .or_else(|| parapsp_bench::plot::speedup_plot(table, table.title()));
            if let Some(plot) = plot {
                match parapsp_bench::plot::write_svg(&csv_name, &plot) {
                    Ok(path) => println!("(svg: {})", path.display()),
                    Err(err) => eprintln!("(svg write failed: {err})"),
                }
            }
            println!();
        }
        println!(
            "# {name} finished in {}\n",
            parapsp_bench::fmt_duration(start.elapsed())
        );
    }
}
