//! The one harness behind the `BENCH_*.json` bins (`kernel_relax`,
//! `schedule_scaling`, `solver_scaling`, `store_scaling`).
//!
//! A bin declares itself as a [`Bench`] and measures one cell (one graph ×
//! one configuration) at a time. The harness owns the rest: the flag
//! parser ([`Bench::parse_env`]; a bad flag exits 2 with the usage line),
//! the cell list ([`sweep`]), the interleaved sampling loop
//! ([`sample_interleaved`]), the seq-basic bit-identity oracle
//! ([`check_matrix`]) and the one JSON writer ([`Bench::finish`]):
//!
//! ```text
//! {"benchmark": "<bin>", "schema_version": 3, "params": {...}, "cells": [
//!   {<config "key": value pairs>, "ms": <median sample>,
//!    "counters": {<of the median sample>}, "samples_ms": [<every sample>]}, ...]}
//! ```

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

use parapsp_core::{ApspEngine, DistanceMatrix, RunConfig, Runner};
use parapsp_graph::CsrGraph;

/// The version of the layout [`Bench::finish`] writes.
pub const SCHEMA_VERSION: u32 = 3;

/// How a flag takes its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arg {
    /// None: a switch such as `--quick`.
    Switch,
    /// A positive integer.
    Count,
    /// A positive, finite number.
    Ratio,
    /// Any string: a path or a spec.
    Text,
}

/// A benchmark bin: its name (the JSON `benchmark` field), its default
/// output file at the workspace root, and its flags as (name, usage
/// placeholder — empty for a switch, kind), in usage-line order.
pub struct Bench {
    /// Bin name.
    pub name: &'static str,
    /// Default output file name.
    pub file: &'static str,
    /// Accepted flags.
    pub flags: &'static [(&'static str, &'static str, Arg)],
}

/// Parsed flags; every value was validated against its [`Arg`] kind.
#[derive(Debug)]
pub struct Args(HashMap<&'static str, String>);

impl Args {
    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The value given to `name`, if any (and if it parses as `T`).
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.0.get(name)?.parse().ok()
    }
}

impl Bench {
    /// `usage: <bin> [--flag VALUE] [--switch] ...`.
    pub fn usage(&self) -> String {
        let mut usage = format!("usage: {}", self.name);
        for (name, value, _) in self.flags {
            let space = if value.is_empty() { "" } else { " " };
            write!(usage, " [{name}{space}{value}]").expect("writing to a String");
        }
        usage
    }

    /// Parses `args` (without the program name); a repeated flag keeps
    /// its last value.
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(&(name, _, kind)) = self.flags.iter().find(|flag| flag.0 == arg) else {
                return Err(format!("unknown argument {arg}"));
            };
            let value = match kind {
                Arg::Switch => String::new(),
                _ => args.next().ok_or(format!("{name} needs a value"))?,
            };
            let wanted = match kind {
                Arg::Count if !value.parse::<usize>().is_ok_and(|v| v > 0) => "integer",
                Arg::Ratio if !value.parse::<f64>().is_ok_and(|v| v.is_finite() && v > 0.0) => {
                    "number"
                }
                _ => "",
            };
            if !wanted.is_empty() {
                return Err(format!("{name} needs a positive {wanted}, got {value:?}"));
            }
            values.insert(name, value);
        }
        Ok(Args(values))
    }

    /// Parses the process arguments, or prints the error and the usage
    /// line and exits 2.
    pub fn parse_env(&self) -> Args {
        self.parse(std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("{err}\n{}", self.usage());
            std::process::exit(2);
        })
    }

    /// `--out`, or the bin's file at the workspace root (the current
    /// directory when not run through cargo).
    pub fn out_path(&self, args: &Args) -> PathBuf {
        args.get("--out").unwrap_or_else(|| {
            let dir = std::env::var_os("CARGO_MANIFEST_DIR").unwrap_or_default();
            let root = Path::new(&dir).ancestors().nth(2).unwrap_or(Path::new("."));
            root.join(self.file)
        })
    }

    /// The JSON document for `params` and `cells`.
    pub fn render(&self, params: &[(&str, Value)], cells: &[Cell]) -> String {
        let rows: Vec<String> = cells
            .iter()
            .map(|cell| {
                let samples: Vec<String> = cell.samples_ms.iter().map(|&ms| num(ms)).collect();
                let mut fields: Vec<String> = cell.config.iter().map(field).collect();
                fields.push(field(&("ms", cell.ms().into())));
                fields.push(format!("\"counters\": {}", object(&cell.counters)));
                fields.push(format!("\"samples_ms\": [{}]", samples.join(", ")));
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        format!(
            "{{\n  \"benchmark\": {},\n  \"schema_version\": {SCHEMA_VERSION},\n  \
             \"params\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
            Value::from(self.name),
            object(params),
            rows.join(",\n")
        )
    }

    /// Prints every cell, then writes the JSON document to `path`.
    pub fn finish(&self, path: &Path, params: &[(&str, Value)], cells: &[Cell]) {
        for cell in cells {
            let (label, ms, counters) = (cell.label(), cell.ms(), plain(&cell.counters));
            println!("  {label:<40}  {ms:>10.3} ms  ({counters})");
        }
        if let Err(err) = std::fs::write(path, self.render(params, cells)) {
            eprintln!("writing {}: {err}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
}

/// `"key": value` pairs: a cell's config or counters, or the params.
pub type Pairs = Vec<(&'static str, Value)>;

/// A JSON scalar: a config value, a parameter or a counter.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string, escaped on output.
    Str(String),
    /// An unsigned integer.
    Int(u64),
    /// A number, written with at most 6 decimals; `null` when not finite.
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' | '\\' => write!(f, "\\{c}")?,
                        c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Value::Int(v) => write!(f, "{v}"),
            Value::Num(v) => f.write_str(&num(*v)),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

fn num(v: f64) -> String {
    match v.is_finite() {
        true => ((v * 1e6).round() / 1e6).to_string(),
        false => "null".to_string(),
    }
}

fn field((key, value): &(&str, Value)) -> String {
    format!("{}: {value}", Value::from(*key))
}

/// `key=value ...`, strings unquoted.
fn plain(fields: &[(&str, Value)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(key, value)| match value {
            Value::Str(s) => format!("{key}={s}"),
            value => format!("{key}={value}"),
        })
        .collect();
    fields.join(" ")
}

fn object(fields: &[(&str, Value)]) -> String {
    let fields: Vec<String> = fields.iter().map(field).collect();
    format!("{{{}}}", fields.join(", "))
}

/// One measured configuration: the `"key": value` pairs that name it,
/// every wall-time sample in the order taken, and the counters of its
/// median sample.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The cell's configuration, in output order.
    pub config: Pairs,
    /// Every sample, in milliseconds.
    pub samples_ms: Vec<f64>,
    /// The median sample's counters.
    pub counters: Pairs,
}

/// One timed run of a cell: its wall time and what it counted.
pub struct Sample {
    /// Wall time in milliseconds.
    pub ms: f64,
    /// Counters, in output order.
    pub counters: Pairs,
}

impl Sample {
    /// A sample that took `elapsed`.
    pub fn new(elapsed: std::time::Duration, counters: Pairs) -> Self {
        let ms = elapsed.as_secs_f64() * 1e3;
        Sample { ms, counters }
    }
}

impl Cell {
    /// An unmeasured cell named by `config`.
    pub fn new(config: Pairs) -> Self {
        Cell {
            config,
            samples_ms: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// `key=value ...` over the config, for log lines and oracle panics.
    pub fn label(&self) -> String {
        plain(&self.config)
    }

    /// The median sample (the upper middle one for an even count).
    pub fn ms(&self) -> f64 {
        let mut sorted = self.samples_ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.get(sorted.len() / 2).copied().unwrap_or(f64::NAN)
    }
}

/// Cell order of pass `pass`: every cell once, starting 11 cells on
/// from the previous pass's start (1 when `cells` is a multiple of 11),
/// so a periodic host slowdown cannot always hit the same cells.
pub fn pass_order(cells: usize, pass: usize) -> impl Iterator<Item = usize> {
    let stride = if cells.is_multiple_of(11) { 1 } else { 11 };
    let start = pass * stride % cells.max(1);
    (0..cells).map(move |j| (j + start) % cells)
}

/// Takes `passes` samples of every cell in [`pass_order`];
/// `measure(i, cell)` runs cell `i` once.
pub fn sample_interleaved(
    cells: &mut [Cell],
    passes: usize,
    mut measure: impl FnMut(usize, &Cell) -> Sample,
) {
    let mut samples: Vec<Vec<Sample>> = cells.iter().map(|_| Vec::new()).collect();
    for pass in 0..passes {
        for i in pass_order(cells.len(), pass) {
            samples[i].push(measure(i, &cells[i]));
        }
    }
    for (cell, mut samples) in cells.iter_mut().zip(samples) {
        cell.samples_ms = samples.iter().map(|s| s.ms).collect();
        samples.sort_by(|a, b| a.ms.total_cmp(&b.ms));
        if let Some(median) = samples.into_iter().nth(cell.samples_ms.len() / 2) {
            cell.counters = median.counters;
        }
    }
}

/// The graph × config cell list, sampled `passes` times: one cell per
/// pair, graph-major, named `graph=<label>` plus the config's pairs.
/// `run(graph, config)` runs a cell once and returns its matrix, which
/// must equal seq-basic's, and its sample.
pub fn sweep<C>(
    graphs: &[(String, CsrGraph)],
    configs: &[(Pairs, C)],
    passes: usize,
    mut run: impl FnMut(&CsrGraph, &C) -> (DistanceMatrix, Sample),
) -> Vec<Cell> {
    let references: Vec<_> = graphs.iter().map(|(_, graph)| seq_basic(graph)).collect();
    let mut cells = Vec::new();
    for (label, _) in graphs {
        for (config, _) in configs {
            let graph = [("graph", label.as_str().into())];
            cells.push(Cell::new(graph.into_iter().chain(config.clone()).collect()));
        }
    }
    sample_interleaved(&mut cells, passes, |i, cell| {
        let (g, c) = (i / configs.len(), i % configs.len());
        let (dist, sample) = run(&graphs[g].1, &configs[c].1);
        check_matrix(cell, &dist, &references[g]);
        sample
    });
    cells
}

/// The oracle's reference: the sequential basic algorithm's matrix.
pub fn seq_basic(graph: &CsrGraph) -> DistanceMatrix {
    let runner = Runner::new(RunConfig::seq_basic());
    runner.run(ApspEngine::new(), graph).dist
}

/// The bit-identity oracle: panics naming `cell` and the first differing
/// entry unless `got` equals seq-basic's `reference`.
pub fn check_matrix(cell: &Cell, got: &DistanceMatrix, reference: &DistanceMatrix) {
    let (n, label) = (reference.n(), cell.label());
    assert_eq!(got.n(), n, "{label}: matrix size differs from seq-basic's");
    let (got, want) = (got.as_slice(), reference.as_slice());
    if got != want {
        let i = (0..n * n)
            .find(|&i| got[i] != want[i])
            .expect("a differing entry");
        let (u, v, got, want) = (i / n, i % n, got[i], want[i]);
        panic!("{label}: d({u}, {v}) = {got} differs from seq-basic's {want}");
    }
}
