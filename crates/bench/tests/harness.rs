//! The bench harness through its public API: flag parsing, the pass
//! rotation, the JSON writer and the seq-basic oracle.

use std::path::PathBuf;

use parapsp_bench::harness::{
    check_matrix, pass_order, sample_interleaved, seq_basic, Arg, Args, Bench, Cell, Sample, Value,
};
use parapsp_graph::generate::{barabasi_albert, WeightSpec};

const TEST: Bench = Bench {
    name: "test_bench",
    file: "BENCH_test.json",
    flags: &[
        ("--iters", "N", Arg::Count),
        ("--quick", "", Arg::Switch),
        ("--max-ratio", "F", Arg::Ratio),
        ("--out", "PATH", Arg::Text),
    ],
};

fn parse(args: &[&str]) -> Result<Args, String> {
    TEST.parse(args.iter().map(|s| s.to_string()))
}

#[test]
fn flags_parse_and_bad_values_or_unknown_flags_are_errors() {
    let usage = "usage: test_bench [--iters N] [--quick] [--max-ratio F] [--out PATH]";
    assert_eq!(TEST.usage(), usage);
    let args = parse(&["--iters", "5", "--quick", "--out", "x.json", "--iters", "7"]).unwrap();
    assert_eq!(args.get("--iters"), Some(7usize));
    assert!(args.switch("--quick") && args.get::<f64>("--max-ratio").is_none());
    assert_eq!(TEST.out_path(&args), PathBuf::from("x.json"));
    assert!(TEST
        .out_path(&parse(&[]).unwrap())
        .ends_with("BENCH_test.json"));
    for bad in [
        &["--iters", "x"][..],
        &["--iters", "0"],
        &["--iters", "-3"],
        &["--iters"],
        &["--out"],
        &["--max-ratio", "0"],
        &["--quick", "--max-ratio", "nan"],
    ] {
        let err = parse(bad).expect_err("a bad value must not parse");
        assert!(err.contains(" needs a "), "{bad:?}: {err}");
    }
    let err = parse(&["--iters", "0"]).unwrap_err();
    assert_eq!(err, "--iters needs a positive integer, got \"0\"");
    assert_eq!(parse(&["--n", "4"]).unwrap_err(), "unknown argument --n");
}

#[test]
fn every_pass_visits_every_cell_once_from_a_new_start() {
    for cells in [1, 3, 4, 9, 21, 22, 27] {
        let mut starts = Vec::new();
        for pass in 0..cells {
            let mut order: Vec<usize> = pass_order(cells, pass).collect();
            starts.push(order[0]);
            order.sort_unstable();
            assert_eq!(order, (0..cells).collect::<Vec<_>>(), "{cells} cells");
        }
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), cells, "{cells} cells: a start repeats");
    }
}

#[test]
fn cells_keep_every_sample_and_the_median_samples_counters() {
    let mut cells = vec![Cell::new(vec![("c", 0usize.into())]); 3];
    let mut calls = 0;
    sample_interleaved(&mut cells, 3, |i, _| {
        calls += 1;
        let ms = [(i * 10 + calls) as f64, 5.0, 1.0][calls % 3];
        let counters = vec![("ms_seen", ms.into())];
        Sample { ms, counters }
    });
    assert_eq!(calls, 9);
    for cell in &cells {
        assert_eq!(cell.samples_ms.len(), 3);
        assert_eq!(cell.counters, vec![("ms_seen", Value::Num(cell.ms()))]);
    }
}

#[test]
fn writer_escapes_quotes_and_backslashes_in_labels() {
    let mut cell = Cell::new(vec![
        ("graph", r#"a"b\c"#.into()),
        ("threads", 2usize.into()),
    ]);
    sample_interleaved(std::slice::from_mut(&mut cell), 1, |_, _| Sample {
        ms: 1.5,
        counters: vec![("pops", 7u64.into())],
    });
    let json = TEST.render(&[("n", 10usize.into())], &[cell]);
    let expected = r#"{
  "benchmark": "test_bench",
  "schema_version": 3,
  "params": {"n": 10},
  "cells": [
    {"graph": "a\"b\\c", "threads": 2, "ms": 1.5, "counters": {"pops": 7}, "samples_ms": [1.5]}
  ]
}
"#;
    assert_eq!(json, expected);
    assert_eq!(Value::from("x\ny\u{1}").to_string(), r#""x\u000ay\u0001""#);
    assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
}

#[test]
#[should_panic(expected = "graph=g schedule=s: d(2, 3) = 99 differs from seq-basic's")]
fn oracle_names_the_cell_and_the_differing_entry() {
    let graph = barabasi_albert(20, 2, WeightSpec::Unit, 1).unwrap();
    let reference = seq_basic(&graph);
    let cell = Cell::new(vec![("graph", "g".into()), ("schedule", "s".into())]);
    check_matrix(&cell, &reference.clone(), &reference);
    let mut wrong = reference.clone();
    let mut row = wrong.row(2).to_vec();
    row[3] = 99;
    wrong.copy_row_from(2, &row);
    check_matrix(&cell, &wrong, &reference);
}
