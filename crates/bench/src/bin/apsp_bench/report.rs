//! Metric tables, statistics and the machine-readable result line.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of `parapsp apsp` sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// The share of the baseline median by which it may worsen before a
    /// change counts as a regression (the same numbers as BENCHMARK.json).
    pub bound: f64,
}

/// Every end-to-end metric, in output order; all are lower-is-better.
///
/// The timing bounds are 0.25, the largest a bound may be. On a 2-vCPU
/// x86-64 VM whose host runs memory-bound code up to 1.6× slower for
/// minutes at a time, the distance between the quartiles of ten runs'
/// medians reached 23 % of the median for `solve_s` and `cpu_s` and 50 %
/// for `setup_s`; runs with six times more samples spread as widely.
/// `peak_rss_mb` spread by at most 2 %.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "solve_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.05,
    },
];

/// Every per-layer metric of a traced run, in output order, with its unit.
/// A metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("order.s", "s"),
    ("core.prepare_s", "s"),
    ("core.sweep_s", "s"),
    ("core.finish_s", "s"),
    ("core.other_s", "s"),
    ("core.coverage", "ratio"),
    ("kernel.busy_s", "s"),
    ("kernel.queue_pops", "count"),
    ("kernel.relaxations", "count"),
    ("kernel.row_reuses", "count"),
    ("kernel.reuse_per_pop", "ratio"),
    ("kernel.row_us_p50", "us"),
    ("kernel.row_us_p99", "us"),
    ("kernel.relax_ns_per_row", "ns"),
    ("kernel.relax_share_est", "ratio"),
    ("kernel.relax_gb_est", "GB"),
    ("parfor.busy_frac", "ratio"),
    ("parfor.imbalance", "ratio"),
    ("parfor.claims", "count"),
    ("parfor.steals", "count"),
    ("parfor.speedup", "ratio"),
    ("store.lease_hits", "count"),
    ("store.lease_misses", "count"),
    ("store.miss_ratio", "ratio"),
    ("store.decode_ahead_hits", "count"),
    ("store.pinned_kb_peak", "KiB"),
    ("store.alloc_s", "s"),
    ("store.publish_us", "us"),
    ("store.read_row_us", "us"),
    ("store.stored_mb", "MiB"),
    ("store.miss_s_est", "s"),
    ("store.readback_s", "s"),
    ("persist.open_s", "s"),
    ("persist.append_s", "s"),
    ("persist.commit_s", "s"),
    ("persist.commits", "count"),
    ("persist.commit_ms_p50", "ms"),
    ("persist.commit_ms_p90", "ms"),
    ("persist.ledger_mb", "MiB"),
    ("persist.mb_per_s", "MiB/s"),
    ("dist.elapsed_s", "s"),
    ("dist.gather_mb", "MiB"),
    ("dist.broadcast_mb", "MiB"),
    ("dist.gather_mb_per_s", "MiB/s"),
    ("dist.remote_reuse_frac", "ratio"),
    ("dist.retries", "count"),
    ("dist.rows_rejected", "count"),
    ("dist.heartbeat_misses", "count"),
    ("dist.source_imbalance", "ratio"),
    ("trace.samples", "count"),
    ("trace.overhead", "ratio"),
    ("trace.untraced_solve_s", "s"),
];

/// Named measurements of one run.
pub type Metrics = BTreeMap<&'static str, f64>;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric `{name}` is in no table"))
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Spread of repeated medians: max / min − 1 (0 for fewer than two).
pub fn spread(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.len() < 2 || min <= 0.0 {
        0.0
    } else {
        max / min - 1.0
    }
}

/// Run-to-run spread as the bounds are set against it: the distance
/// between the quartiles over the median, with the quartiles placed as
/// Python's `statistics.quantiles(values, n=4)` places them (0 for fewer
/// than two values).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    let mid = median(values);
    if n < 2 || mid <= 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The exclusive method: quartile i sits at 1-based rank i·(n+1)/4.
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid
}

/// The result line the benchmark prints last: every metric of `names` in
/// order, with its unit. Non-finite values (a ratio over an idle layer)
/// print as 0 so the line stays valid JSON.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[&'static str],
    metrics: &Metrics,
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|name| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                value,
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A parsed JSON value: just enough JSON for result lines and saved
/// calibration files (no escapes beyond `\"` and `\\`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing characters at byte {}", parser.pos));
        }
        Ok(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
                {
                    self.pos += 1;
                }
                let word =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                match word {
                    "null" => Ok(Json::Null),
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    _ => word
                        .parse()
                        .map(Json::Num)
                        .map_err(|_| format!("bad token `{word}` at byte {start}")),
                }
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    out.push(*self.bytes.get(self.pos + 1).ok_or("unterminated escape")?);
                    self.pos += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut metrics = Metrics::new();
        metrics.insert("solve_s", 1.2034);
        metrics.insert("setup_s", 0.0412);
        metrics.insert("cpu_s", f64::NAN);
        metrics.insert("peak_rss_mb", 568.0);
        let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let line = result_line(true, 10, 0, &names, &metrics);
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_f64), Some(10.0));
        let m = json.get("metrics").unwrap();
        assert_eq!(m.fields().len(), 4);
        let solve = m.get("solve_s").unwrap();
        assert_eq!(solve.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(solve.get("unit"), Some(&Json::Str("s".into())));
        assert_eq!(m.get("cpu_s").unwrap().get("value"), Some(&Json::Num(0.0)));
        assert!(Json::parse("{\"a\": [1, 2,]}").is_err());
    }

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&[1.0, 1.1, 1.05]) - 0.1).abs() < 1e-12);
        assert_eq!(spread(&[2.0]), 0.0);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert!((quartile_spread(&[4.0, 1.0, 3.0, 2.0, 5.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.5 / 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0]), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    /// The tables here and the BENCHMARK.json above this package name the
    /// same metrics, units and bounds (skipped where the file is absent).
    #[test]
    fn tables_match_benchmark_json() {
        let Some(path) = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|path| path.is_file())
        else {
            return;
        };
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let text = |m: &Json, key: &str| match m.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("`{key}` is {other:?}"),
        };
        let e2e: Vec<(String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (text(m, "name"), text(m, "unit"), bound)
            })
            .collect();
        let ours: Vec<(String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.bound))
            .collect();
        assert_eq!(e2e, ours);
        let layers: Vec<(String, String)> = doc
            .get("per_layer")
            .unwrap()
            .items()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(layers, ours);
    }
}
