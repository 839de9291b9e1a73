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
//!                                 seq-adaptive | dist
//!       --threads <N>             threads, at least 1 (default 4)
//!       --ledger <file>           journal completed rows to a crash-safe
//!                                 run ledger
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
//! Graph-file options (every command but generate and node):
//!   --directed | --undirected     edge interpretation (default undirected)
//!   --format <snap|konect>        comment style (default snap)
//! ```
//!
//! Every algorithm runs through the `Runner`, so every one takes the cap,
//! deadline, ledger, store and solver options alike. An option the
//! command does not read is a usage error (exit 2) naming the commands
//! that do read it; `--help` prints the help text with any command.

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
    // `--help` goes with any command and prints the help text.
    let command = if parsed.flag("help") {
        "help"
    } else {
        parsed.command.as_str()
    };
    let result = match command {
        "stats" => simple(commands::stats(&parsed)),
        "apsp" | "run" => commands::apsp(&parsed),
        "analyze" => commands::analyze(&parsed).map(|()| 0),
        "path" => commands::path(&parsed).map(|()| 0),
        "estimate" => commands::estimate(&parsed).map(|()| 0),
        "generate" => commands::generate(&parsed).map(|()| 0),
        // A socket worker for a `dist` driver: exit 0 clean, 3 when an
        // injected fault-plan crash fired.
        "node" => commands::node(&parsed),
        "" | "help" | "-h" => {
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
