//! Tiny dependency-free argument parser for the `parapsp` binary.

use std::collections::HashMap;

/// Parsed invocation: a subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The first positional token (`apsp`, `stats`, …).
    pub command: String,
    /// Remaining positional tokens.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Options that take a value.
const VALUED: &[&str] = &[
    "--threads",
    "--algorithm",
    "--format",
    "--top",
    "--model",
    "--n",
    "--m",
    "--p",
    "--seed",
    "--out",
    "--nodes",
    "--hub-fraction",
    "--weights",
    "--cap",
    "--relax",
    "--solver",
    "--store",
    "--schedule",
    "--partition",
    "--checkpoint-every",
    "--resume",
    "--fault-seed",
    "--crash",
    "--drop-prob",
    "--corrupt-prob",
    "--deadline",
    "--on-interrupt",
    "--credit-weight",
    "--block",
    "--transport",
    "--listen",
    "--connect",
    "--connect-attempts",
    "--heartbeat",
    "--heartbeat-misses",
    "--row-batch",
    "--accept-timeout",
    "--read-timeout",
    "--write-timeout",
    "--delay-ms",
    "--ledger",
    "--ledger-fsync",
];

/// Options that take no value. A `--name` in neither list is rejected,
/// so a typo or a removed option fails loudly instead of being ignored.
const FLAGS: &[&str] = &["--directed", "--undirected", "--external", "--help"];

impl Args {
    /// Parses raw arguments (excluding the program name).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                if VALUED.contains(&token.as_str()) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("option {token} needs a value"))?;
                    args.options.insert(name.to_string(), value);
                } else if FLAGS.contains(&token.as_str()) {
                    args.flags.push(name.to_string());
                } else {
                    return Err(format!("unknown option {token} (try `parapsp help`)"));
                }
            } else if args.command.is_empty() {
                args.command = token;
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// The value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A parsed `--name` value or a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name} value `{raw}` is invalid")),
        }
    }

    /// A closed-set `--name` value parsed through
    /// [`ValueEnum`](parapsp_core::ValueEnum), or a default. The error
    /// names the option and enumerates every accepted value.
    pub fn get_enum<T: parapsp_core::ValueEnum>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => T::parse_value(raw).map_err(|e| format!("--{name} {e}")),
        }
    }

    /// A `--name` value with a `name[:param]` spec grammar (`--schedule`,
    /// `--solver`), parsed through the type's `FromStr`, or a default. The
    /// spec parsers already produce self-describing errors; this only
    /// prefixes the option name.
    pub fn get_spec<T: std::str::FromStr<Err = String>>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }

    /// Whether `--name` was passed as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The n-th positional argument after the command.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn command_positionals_options_and_flags() {
        let args = parse(&[
            "apsp",
            "graph.txt",
            "--threads",
            "8",
            "--directed",
            "--algorithm",
            "par-alg2",
        ]);
        assert_eq!(args.command, "apsp");
        assert_eq!(args.positional(0), Some("graph.txt"));
        assert_eq!(args.get("threads"), Some("8"));
        assert_eq!(args.get("algorithm"), Some("par-alg2"));
        assert!(args.flag("directed"));
        assert!(!args.flag("undirected"));
    }

    #[test]
    fn parsed_values_and_defaults() {
        let args = parse(&["stats", "--threads", "4"]);
        assert_eq!(args.get_parsed("threads", 1usize).unwrap(), 4);
        assert_eq!(args.get_parsed("top", 10usize).unwrap(), 10);
        assert!(args.get_parsed::<usize>("threads", 1).is_ok());
    }

    #[test]
    fn invalid_value_reports_option_name() {
        let args = parse(&["stats", "--threads", "lots"]);
        let err = args.get_parsed::<usize>("threads", 1).unwrap_err();
        assert!(err.contains("threads"));
        assert!(err.contains("lots"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Args::parse(["x".to_string(), "--threads".to_string()]).unwrap_err();
        assert!(err.contains("--threads"));
    }

    #[test]
    fn unknown_options_are_rejected() {
        for tokens in [
            ["apsp", "g.txt", "--ledgr", "run.ledger"],
            // `--ledger` is the one durability option: a run asking for
            // any other must fail, not run silently without durability.
            ["apsp", "g.txt", "--checkpoint", "x"],
        ] {
            let err = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap_err();
            assert!(err.contains(tokens[2]), "{err}");
        }
        assert!(parse(&["--help"]).flag("help"));
    }

    #[test]
    fn enum_values_parse_with_defaults_and_self_describing_rejection() {
        use parapsp_core::{EngineKind, RelaxImpl};
        let args = parse(&["apsp", "--algorithm", "seq-adaptive", "--relax", "avx2"]);
        assert_eq!(
            args.get_enum("algorithm", EngineKind::ParApsp).unwrap(),
            EngineKind::SeqAdaptive
        );
        assert_eq!(
            args.get_enum("relax", RelaxImpl::Auto).unwrap(),
            RelaxImpl::Avx2
        );
        // Absent option: the default wins.
        assert_eq!(
            args.get_enum("partition", parapsp_dist::SourcePartition::default())
                .unwrap(),
            parapsp_dist::SourcePartition::CyclicByDegree
        );
        // Rejection names the option and lists every accepted value.
        let args = parse(&["apsp", "--algorithm", "par-warp"]);
        let err = args.get_enum("algorithm", EngineKind::ParApsp).unwrap_err();
        assert!(err.starts_with("--algorithm"), "{err}");
        assert!(
            err.contains("par-warp") && err.contains("possible values"),
            "{err}"
        );
        assert!(
            err.contains("par-apsp") && err.contains("blocked-fw"),
            "{err}"
        );
    }
}
