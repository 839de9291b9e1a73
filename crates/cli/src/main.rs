//! `parapsp` — run the paper's APSP algorithms and graph analyses from the
//! command line.
//!
//! ```text
//! parapsp <COMMAND> [ARGS]
//!
//! Commands:
//!   stats <file>                  degree / component / clustering summary
//!   apsp <file> (alias: run)      run an APSP algorithm, report timings
//!       --algorithm <name>        par-apsp (default) | par-alg1 | par-alg2 |
//!                                 par-adaptive | seq-basic | seq-optimized |
//!                                 seq-adaptive | blocked-fw |
//!                                 floyd-warshall | dijkstra | dist
//!       --threads <N>             threads (default 4)
//!       --ledger <file>           journal completed rows to a crash-safe
//!                                 run ledger (row engines and dist)
//!       --checkpoint-every <K>    rows per ledger commit (default 64)
//!       --resume <file>           compute only the rows a ledger or
//!                                 checkpoint is missing
//!       --deadline <secs>         stop with a checkpoint when the wall-clock
//!                                 budget expires (exit code 124)
//!       --on-interrupt <mode>     checkpoint (default) | abort: SIGINT and
//!                                 SIGTERM write a resumable checkpoint and
//!                                 exit 130, or kill the process immediately
//!       --nodes <P>               simulated nodes for --algorithm dist
//!       --hub-fraction <F>        hub broadcast fraction for dist (0.05)
//!       --transport <t>           dist wire: channel | tcp | unix
//!   node --connect <addr>         socket worker for a `dist` driver
//!   analyze <file>                APSP + full analysis report
//!       --top <K>                 how many central vertices to list (5)
//!   path <file> <src> <dst>       print one shortest route
//!   generate                      write a synthetic graph
//!       --model <ba|er|ws>        generator (default ba)
//!       --n <N> --m <M> [--p <P>] parameters
//!       --seed <S> --out <file>   determinism and destination
//!
//! Common options:
//!   --directed | --undirected     edge interpretation (default undirected)
//!   --format <snap|konect>        comment style (default snap)
//! ```
//!
//! An option outside the ones `parapsp help` lists is a usage error
//! (exit 2).

mod args;
mod commands;
mod interrupt;

use args::Args;

fn main() {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    // `apsp`/`run` report an exit code so interruption (130) and deadline
    // expiry (124) are distinguishable from success, runtime failures (1),
    // and usage errors (2 — same code as the argument parser above).
    use commands::CliError;
    let simple = |result: Result<(), String>| result.map(|()| 0).map_err(CliError::failure);
    let result = match parsed.command.as_str() {
        "stats" => simple(commands::stats(&parsed)),
        "apsp" | "run" => commands::apsp(&parsed),
        "analyze" => simple(commands::analyze(&parsed)),
        "path" => simple(commands::path(&parsed)),
        "estimate" => simple(commands::estimate(&parsed)),
        "generate" => simple(commands::generate(&parsed)),
        // A socket worker for a `dist` driver: exit 0 clean, 3 when an
        // injected fault-plan crash fired.
        "node" => commands::node(&parsed),
        "" | "help" | "--help" | "-h" => {
            print!("{}", commands::USAGE);
            Ok(0)
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}` (try `parapsp help`)"
        ))),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(error.exit_code());
        }
    }
}
