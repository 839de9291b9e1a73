//! Edge-list I/O in the formats used by the paper's data sources.
//!
//! * **SNAP** (`snap.stanford.edu`): whitespace-separated `from to` pairs,
//!   `#`-prefixed comment lines, arbitrary (sparse) vertex ids.
//! * **KONECT** (`konect.cc`): like SNAP but with `%`-prefixed headers and
//!   an optional third weight column.
//!
//! Vertex ids found in a file are densified to `0..n` in first-appearance
//! order; [`LoadedGraph::original_ids`] keeps the mapping so analysis output
//! can be reported in the dataset's own id space.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::builder::{DuplicatePolicy, GraphBuilder};
use crate::csr::{CsrGraph, Direction};
use crate::error::GraphError;

/// A parsed edge-list file: the graph plus the id mapping back to the file.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The densified graph.
    pub graph: CsrGraph,
    /// `original_ids[v]` is the id vertex `v` had in the input file.
    pub original_ids: Vec<u64>,
}

impl LoadedGraph {
    /// Looks up the dense id of an original file id, if present.
    pub fn dense_id(&self, original: u64) -> Option<u32> {
        // O(n) lookup is fine for the occasional query; bulk users should
        // build their own map from `original_ids`.
        self.original_ids
            .iter()
            .position(|&id| id == original)
            .map(|i| i as u32)
    }
}

/// Options controlling edge-list parsing.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Directedness to give the resulting graph.
    pub direction: Direction,
    /// Characters that start a comment line.
    pub comment_prefixes: &'static [char],
    /// How to treat repeated edges (datasets like sx-superuser repeat
    /// interactions; the paper treats graphs as simple).
    pub duplicate_policy: DuplicatePolicy,
    /// Weight assigned when a line has no weight column.
    pub default_weight: u32,
}

impl ParseOptions {
    /// SNAP conventions: `#` comments.
    pub fn snap(direction: Direction) -> Self {
        ParseOptions {
            direction,
            comment_prefixes: &['#'],
            duplicate_policy: DuplicatePolicy::Ignore,
            default_weight: 1,
        }
    }

    /// KONECT conventions: `%` comments.
    pub fn konect(direction: Direction) -> Self {
        ParseOptions {
            direction,
            comment_prefixes: &['%'],
            duplicate_policy: DuplicatePolicy::Ignore,
            default_weight: 1,
        }
    }
}

/// Parses an edge list from any reader.
///
/// Lines are read into one reused buffer, and a weight column of ASCII
/// digits only is parsed as an integer; any other spelling (`2.5`, `+5`,
/// `1e3`) goes through `f64`, is clamped to ≥ 1 and truncated. Both paths
/// give the same weight for the same digits.
pub fn read_edge_list<R: Read>(
    reader: R,
    options: ParseOptions,
) -> Result<LoadedGraph, GraphError> {
    let mut reader = BufReader::new(reader);
    let mut ids: HashMap<u64, u32> = HashMap::new();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();

    let intern = |raw: u64,
                  line: usize,
                  ids: &mut HashMap<u64, u32>,
                  originals: &mut Vec<u64>|
     -> Result<u32, GraphError> {
        if let Some(&dense) = ids.get(&raw) {
            return Ok(dense);
        }
        // Dense ids are u32; a file introducing a 2^32-th distinct vertex
        // must fail instead of silently wrapping the id space.
        let dense = u32::try_from(originals.len()).map_err(|_| GraphError::Parse {
            line,
            message: format!(
                "vertex id `{raw}` is the {}th distinct id; only 2^32 vertices are supported",
                originals.len() + 1
            ),
        })?;
        ids.insert(raw, dense);
        originals.push(raw);
        Ok(dense)
    };

    let mut buf = Vec::new();
    let mut line = 0usize;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        line += 1;
        // The error `BufRead::lines` gives for the same bytes.
        let text = std::str::from_utf8(&buf).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let Some((from, to, weight)) = parse_line(text, line, options)? else {
            continue;
        };
        let u = intern(from, line, &mut ids, &mut original_ids)?;
        let v = intern(to, line, &mut ids, &mut original_ids)?;
        edges.push((u, v, weight));
    }

    let mut builder = GraphBuilder::new(original_ids.len(), options.direction)
        .with_duplicate_policy(options.duplicate_policy);
    builder.reserve(edges.len());
    for (u, v, w) in edges {
        builder.add_edge(u, v, w)?;
    }
    Ok(LoadedGraph {
        graph: builder.build(),
        original_ids,
    })
}

/// Line number `line` (1-based) of an edge list: `None` for a blank or
/// comment line, else the two raw ids and the weight.
fn parse_line(
    text: &str,
    line: usize,
    options: ParseOptions,
) -> Result<Option<(u64, u64, u32)>, GraphError> {
    let trimmed = text.trim();
    if trimmed.is_empty()
        || options
            .comment_prefixes
            .iter()
            .any(|&c| trimmed.starts_with(c))
    {
        return Ok(None);
    }
    let error = |message: String| GraphError::Parse { line, message };
    let mut fields = trimmed.split_whitespace();
    let parse_field = |s: Option<&str>, what: &str| -> Result<u64, GraphError> {
        let s = s.ok_or_else(|| error(format!("missing {what} column")))?;
        s.parse::<u64>()
            .map_err(|_| error(format!("{what} column `{s}` is not a non-negative integer")))
    };
    let from = parse_field(fields.next(), "source")?;
    let to = parse_field(fields.next(), "target")?;
    let weight = match fields.next() {
        // Third column may be a weight or (in KONECT temporal files) a
        // timestamp; treat any number as a weight, clamped to >= 1.
        // Values a u32 cannot hold (or non-finite ones) are errors —
        // silently saturating would corrupt shortest-path results.
        Some(s) => {
            let overflow = || {
                error(format!(
                    "weight column `{s}` overflows u32 (max {})",
                    u32::MAX
                ))
            };
            if s.bytes().all(|b| b.is_ascii_digit()) {
                let mut w = 0u32;
                for b in s.bytes() {
                    w = w
                        .checked_mul(10)
                        .and_then(|w| w.checked_add(u32::from(b - b'0')))
                        .ok_or_else(overflow)?;
                }
                w.max(1)
            } else {
                let w = s
                    .parse::<f64>()
                    .map_err(|_| error(format!("weight column `{s}` is not numeric")))?;
                if !w.is_finite() {
                    return Err(error(format!("weight column `{s}` is not a finite number")));
                }
                if w > u32::MAX as f64 {
                    return Err(overflow());
                }
                w.max(1.0) as u32
            }
        }
        None => options.default_weight,
    };
    Ok(Some((from, to, weight)))
}

/// Parses an edge-list file from disk.
pub fn read_edge_list_file(
    path: impl AsRef<Path>,
    options: ParseOptions,
) -> Result<LoadedGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file, options)
}

/// Writes a graph as a SNAP-style edge list (one logical edge per line,
/// with the weight as a third column when not 1).
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# {} graph: {} vertices, {} edges",
        if graph.direction().is_directed() {
            "directed"
        } else {
            "undirected"
        },
        graph.vertex_count(),
        graph.edge_count()
    )?;
    for (u, v, w) in graph.logical_edges() {
        if w == 1 {
            writeln!(writer, "{u}\t{v}")?;
        } else {
            writeln!(writer, "{u}\t{v}\t{w}")?;
        }
    }
    Ok(())
}

/// Writes a graph in Graphviz DOT format (for `dot -Tsvg` rendering of
/// small graphs). Weights become edge labels when not 1.
pub fn write_dot<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    let (keyword, arrow) = if graph.direction().is_directed() {
        ("digraph", "->")
    } else {
        ("graph", "--")
    };
    writeln!(writer, "{keyword} g {{")?;
    writeln!(writer, "  node [shape=circle];")?;
    for v in 0..graph.vertex_count() {
        writeln!(writer, "  {v};")?;
    }
    for (u, v, w) in graph.logical_edges() {
        if w == 1 {
            writeln!(writer, "  {u} {arrow} {v};")?;
        } else {
            writeln!(writer, "  {u} {arrow} {v} [label={w}];")?;
        }
    }
    writeln!(writer, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAP_SAMPLE: &str = "\
# Directed graph (each unordered pair of nodes is saved once)
# FromNodeId\tToNodeId
10 20
20 30
10 30
30 10
";

    #[test]
    fn snap_sample_parses_and_densifies() {
        let loaded = read_edge_list(
            SNAP_SAMPLE.as_bytes(),
            ParseOptions::snap(Direction::Directed),
        )
        .unwrap();
        assert_eq!(loaded.graph.vertex_count(), 3);
        assert_eq!(loaded.graph.edge_count(), 4);
        assert_eq!(loaded.original_ids, vec![10, 20, 30]);
        assert_eq!(loaded.dense_id(20), Some(1));
        assert_eq!(loaded.dense_id(99), None);
        // 10 -> 20 and 10 -> 30
        assert_eq!(loaded.graph.out_degree(0), 2);
    }

    #[test]
    fn konect_comments_and_weights() {
        let text = "% sym weighted\n1 2 5\n2 3 2\n";
        let loaded =
            read_edge_list(text.as_bytes(), ParseOptions::konect(Direction::Undirected)).unwrap();
        assert_eq!(loaded.graph.edge_count(), 2);
        assert_eq!(loaded.graph.weights(0), &[5]);
    }

    #[test]
    fn duplicate_edges_ignored_by_default() {
        let text = "1 2\n1 2\n2 1\n";
        let loaded =
            read_edge_list(text.as_bytes(), ParseOptions::snap(Direction::Undirected)).unwrap();
        assert_eq!(loaded.graph.edge_count(), 1);
    }

    #[test]
    fn malformed_lines_report_position() {
        let text = "1 2\nfoo bar\n";
        let err =
            read_edge_list(text.as_bytes(), ParseOptions::snap(Direction::Directed)).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("foo"));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn missing_column_reports_position() {
        let text = "1\n";
        let err =
            read_edge_list(text.as_bytes(), ParseOptions::snap(Direction::Directed)).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn truncated_line_is_an_error_with_its_line_number() {
        // A line with a source but no target (e.g. a download cut short).
        let text = "1 2\n2 3\n4\n";
        let err =
            read_edge_list(text.as_bytes(), ParseOptions::snap(Direction::Directed)).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 3, "line numbers are 1-based");
                assert!(message.contains("target"), "got: {message}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn negative_id_is_rejected() {
        let text = "1 2\n-5 3\n";
        let err =
            read_edge_list(text.as_bytes(), ParseOptions::snap(Direction::Directed)).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("-5"), "got: {message}");
                assert!(message.contains("non-negative"), "got: {message}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn oversized_and_non_finite_weights_are_rejected() {
        // 2^32 does not fit in u32: must be an error, not a saturation.
        let text = "1 2 4294967296\n";
        let err =
            read_edge_list(text.as_bytes(), ParseOptions::snap(Direction::Directed)).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("overflows"), "got: {message}");
            }
            other => panic!("unexpected error: {other}"),
        }
        for bad in ["1 2 inf", "1 2 nan", "1 2 -inf"] {
            let err = read_edge_list(bad.as_bytes(), ParseOptions::snap(Direction::Directed))
                .unwrap_err();
            assert!(
                matches!(err, GraphError::Parse { line: 1, .. }),
                "{bad}: {err}"
            );
        }
        // The largest representable weight still parses.
        let text = format!("1 2 {}\n", u32::MAX);
        let loaded =
            read_edge_list(text.as_bytes(), ParseOptions::snap(Direction::Directed)).unwrap();
        assert_eq!(loaded.graph.weights(0), &[u32::MAX]);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "\n1 2\n\n   \n2 3\n";
        let loaded =
            read_edge_list(text.as_bytes(), ParseOptions::snap(Direction::Directed)).unwrap();
        assert_eq!(loaded.graph.edge_count(), 2);
    }

    #[test]
    fn round_trip_write_then_read() {
        let g = crate::generate::erdos_renyi_gnm(
            30,
            60,
            Direction::Directed,
            crate::generate::WeightSpec::Uniform { lo: 1, hi: 9 },
            3,
        )
        .unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded =
            read_edge_list(buf.as_slice(), ParseOptions::snap(Direction::Directed)).unwrap();
        // Ids were already dense, so the round trip is exact up to edge order.
        assert_eq!(loaded.graph.vertex_count(), g.vertex_count());
        assert_eq!(loaded.graph.edge_count(), g.edge_count());
        let mut a: Vec<_> = g.arcs().collect();
        let mut b: Vec<_> = loaded
            .graph
            .arcs()
            .map(|(u, v, w)| {
                (
                    loaded.original_ids[u as usize] as u32,
                    loaded.original_ids[v as usize] as u32,
                    w,
                )
            })
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    /// Every weight spelling the loader accepts or refuses, on line 3
    /// behind a comment and a blank line: digits-only and `f64` spellings
    /// agree, `0` and negatives clamp to 1, fractions truncate, and what
    /// a `u32` cannot hold is an error naming the line.
    #[test]
    fn weight_spellings_parse_to_the_same_weights_and_errors() {
        let ok: &[(&str, u32)] = &[
            ("1", 1),
            ("7", 7),
            ("007", 7),
            ("0", 1),
            ("2.5", 2),
            ("0.5", 1),
            ("+5", 5),
            ("1e3", 1000),
            ("-3", 1),
            ("999", 999),
            ("4294967295", u32::MAX),
            ("4294967295.0", u32::MAX),
        ];
        for &(spelling, want) in ok {
            let text = format!("# c\n\n0 1 {spelling}\n");
            let loaded = read_edge_list(text.as_bytes(), ParseOptions::snap(Direction::Directed))
                .unwrap_or_else(|err| panic!("{spelling}: {err}"));
            assert_eq!(loaded.graph.weights(0), &[want], "{spelling}");
        }
        let bad: &[(&str, &str)] = &[
            ("4294967296", "overflows"),
            ("10000000000", "overflows"),
            ("99999999999999999999999", "overflows"),
            ("4294967296.0", "overflows"),
            ("nan", "not a finite number"),
            ("inf", "not a finite number"),
            ("-inf", "not a finite number"),
            ("abc", "not numeric"),
            ("5x", "not numeric"),
        ];
        for &(spelling, why) in bad {
            let text = format!("# c\n\n0 1 {spelling}\n");
            match read_edge_list(text.as_bytes(), ParseOptions::snap(Direction::Directed)) {
                Err(GraphError::Parse { line, message }) => {
                    assert_eq!(line, 3, "{spelling}");
                    assert!(message.contains(why), "{spelling}: {message}");
                    assert!(message.contains(spelling), "{spelling}: {message}");
                }
                other => panic!("{spelling}: expected a parse error, got {other:?}"),
            }
        }
        // Bytes that are not UTF-8 are an I/O error, as `BufRead::lines`
        // reports them.
        let err = read_edge_list(
            &b"0 1 5\n1 \xff 2\n"[..],
            ParseOptions::snap(Direction::Directed),
        )
        .unwrap_err();
        match err {
            GraphError::Io(io) => {
                assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
                assert_eq!(io.to_string(), "stream did not contain valid UTF-8");
            }
            other => panic!("expected an I/O error, got {other}"),
        }
        // CRLF line ends and a last line without one parse like the rest.
        let loaded = read_edge_list(
            &b"0 1 4\r\n1 2 6"[..],
            ParseOptions::snap(Direction::Directed),
        )
        .unwrap();
        assert_eq!(loaded.graph.weights(0), &[4]);
        assert_eq!(loaded.graph.weights(1), &[6]);
    }

    /// Random multigraphs with weights 1..1000 and repeated edges
    /// (either orientation when undirected).
    fn arb_multigraph() -> impl proptest::strategy::Strategy<Value = CsrGraph> {
        use proptest::prelude::*;
        (1usize..40, any::<bool>()).prop_flat_map(|(n, directed)| {
            let edge = (0..n as u32, 0..n as u32, 1u32..1000);
            proptest::collection::vec(edge, 0..n * 4).prop_map(move |mut edges| {
                // Repeat a prefix, reversed and with other weights.
                let again: Vec<_> = edges
                    .iter()
                    .take(edges.len() / 3)
                    .map(|&(u, v, w)| (v, u, w % 7 + 1))
                    .collect();
                edges.extend(again);
                let direction = if directed {
                    Direction::Directed
                } else {
                    Direction::Undirected
                };
                CsrGraph::from_edges(n, direction, &edges).unwrap()
            })
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        // Writing a multigraph and reading it back gives what the builder
        // makes of the written edges under the loader's policy: the first
        // weight of a repeated edge wins and every neighbour list keeps
        // insertion order, in the file's id space.
        #[test]
        fn written_edge_lists_read_back_deduplicated_in_order(graph in arb_multigraph()) {
            let direction = graph.direction();
            let mut buf = Vec::new();
            write_edge_list(&graph, &mut buf).unwrap();
            let loaded = read_edge_list(buf.as_slice(), ParseOptions::snap(direction)).unwrap();

            let mut builder = GraphBuilder::new(graph.vertex_count(), direction)
                .with_duplicate_policy(DuplicatePolicy::Ignore);
            for (u, v, w) in graph.logical_edges() {
                builder.add_edge(u, v, w).unwrap();
            }
            let want = builder.build();
            proptest::prop_assert_eq!(loaded.graph.edge_count(), want.edge_count());
            let original = |d: u32| loaded.original_ids[d as usize] as u32;
            for d in 0..loaded.graph.vertex_count() as u32 {
                let got: Vec<u32> = loaded.graph.neighbors(d).iter().map(|&t| original(t)).collect();
                proptest::prop_assert_eq!(&got[..], want.neighbors(original(d)));
                proptest::prop_assert_eq!(loaded.graph.weights(d), want.weights(original(d)));
            }
        }
    }

    #[test]
    fn dot_output_shapes() {
        let directed =
            CsrGraph::from_edges(3, Direction::Directed, &[(0, 1, 1), (1, 2, 5)]).unwrap();
        let mut buf = Vec::new();
        write_dot(&directed, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("digraph g {"));
        assert!(text.contains("0 -> 1;"));
        assert!(text.contains("1 -> 2 [label=5];"));

        let undirected = CsrGraph::from_unit_edges(2, Direction::Undirected, &[(0, 1)]).unwrap();
        let mut buf = Vec::new();
        write_dot(&undirected, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("graph g {"));
        assert!(text.contains("0 -- 1;"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("parapsp-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.txt");
        std::fs::write(&path, "# c\n0 1\n1 2\n").unwrap();
        let loaded = read_edge_list_file(&path, ParseOptions::snap(Direction::Undirected)).unwrap();
        assert_eq!(loaded.graph.edge_count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
