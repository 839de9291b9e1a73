//! Static SVG line charts for the reproduced figures.
//!
//! The `reproduce` binary emits each thread-sweep table as an SVG next to
//! its CSV, so the paper's figures exist as *figures*, not just rows.
//! Design follows the project's charting conventions: categorical series
//! colors assigned in a fixed validated order, 2 px lines with 8 px
//! markers, a legend plus direct end-of-line labels for identity, a
//! recessive grid, one y-axis (log-scale for runtime spans), and text in
//! ink tokens rather than series colors.

use std::path::PathBuf;

use crate::report::Table;

/// Categorical series colors (light mode), fixed assignment order —
/// validated palette from the charting reference (worst adjacent CVD
/// ΔE 24.2, well above the ≥12 target).
const SERIES_COLORS: [&str; 8] = [
    "#2a78d6", "#1baf7a", "#eda100", "#008300", "#4a3aa7", "#e34948", "#e87ba4", "#eb6834",
];
const SURFACE: &str = "#fcfcfb";
const INK_PRIMARY: &str = "#0b0b0b";
const INK_SECONDARY: &str = "#52514e";
const GRID: &str = "#e4e3df";

/// One line of a plot.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend / direct label.
    pub label: String,
    /// `(x, y)` points in data space, x ascending.
    pub points: Vec<(f64, f64)>,
}

/// A static line chart with an optional log-scale y-axis.
#[derive(Debug, Clone)]
pub struct LinePlot {
    /// Title above the plot.
    pub title: String,
    /// X-axis caption.
    pub x_label: String,
    /// Y-axis caption.
    pub y_label: String,
    /// Log₁₀ y-axis (decade ticks) — right for runtimes spanning decades.
    pub log_y: bool,
    /// Format y ticks as durations (`"12 µs"`); plain numbers otherwise.
    pub y_is_duration: bool,
    /// The lines, in palette-assignment order.
    pub series: Vec<Series>,
}

const WIDTH: f64 = 760.0;
const HEIGHT: f64 = 440.0;
const MARGIN_LEFT: f64 = 86.0;
const MARGIN_RIGHT: f64 = 150.0; // room for direct end labels
const MARGIN_TOP: f64 = 54.0;
const MARGIN_BOTTOM: f64 = 62.0;

fn fmt_secs(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.0} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.0} ms", seconds * 1e3)
    } else {
        format!("{seconds:.1} s")
    }
}

impl LinePlot {
    /// Renders the chart as a standalone SVG document.
    pub fn render_svg(&self) -> String {
        let plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT;
        let plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM;

        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(_, y)| y))
            .collect();
        if xs.is_empty() {
            return format!(
                "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{HEIGHT}\"/>"
            );
        }
        let (x_min, x_max) = bounds(&xs, false);
        let (y_min, y_max) = bounds(&ys, self.log_y);
        // Snap a log axis to whole decades so the decade gridlines/ticks
        // land inside the plot area.
        let (y_min, y_max) = if self.log_y {
            (
                10f64.powi(y_min.log10().floor() as i32),
                10f64.powi(y_max.log10().ceil() as i32),
            )
        } else {
            (y_min, y_max)
        };

        let to_px = |x: f64, y: f64| -> (f64, f64) {
            let fx = if x_max > x_min {
                (x - x_min) / (x_max - x_min)
            } else {
                0.5
            };
            let fy = if self.log_y {
                (y.max(f64::MIN_POSITIVE).log10() - y_min.log10()) / (y_max.log10() - y_min.log10())
            } else if y_max > y_min {
                (y - y_min) / (y_max - y_min)
            } else {
                0.5
            };
            (MARGIN_LEFT + fx * plot_w, MARGIN_TOP + (1.0 - fy) * plot_h)
        };

        let mut svg = String::new();
        svg.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{HEIGHT}\" \
             viewBox=\"0 0 {WIDTH} {HEIGHT}\" font-family=\"system-ui, sans-serif\">\n"
        ));
        svg.push_str(&format!(
            "<rect width=\"{WIDTH}\" height=\"{HEIGHT}\" fill=\"{SURFACE}\"/>\n"
        ));
        svg.push_str(&format!(
            "<text x=\"{MARGIN_LEFT}\" y=\"28\" font-size=\"16\" font-weight=\"600\" fill=\"{INK_PRIMARY}\">{}</text>\n",
            escape(&self.title)
        ));

        // Gridlines + y ticks.
        for (value, label) in self.y_ticks(y_min, y_max) {
            let (_, py) = to_px(x_min, value);
            svg.push_str(&format!(
                "<line x1=\"{MARGIN_LEFT}\" y1=\"{py:.1}\" x2=\"{:.1}\" y2=\"{py:.1}\" stroke=\"{GRID}\" stroke-width=\"1\"/>\n",
                MARGIN_LEFT + plot_w
            ));
            svg.push_str(&format!(
                "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\" fill=\"{INK_SECONDARY}\">{}</text>\n",
                MARGIN_LEFT - 8.0,
                py + 4.0,
                escape(&label)
            ));
        }
        // X ticks at the data points of the first series.
        let mut tick_xs: Vec<f64> = xs.clone();
        tick_xs.sort_by(f64::total_cmp);
        tick_xs.dedup();
        for &x in &tick_xs {
            let (px, _) = to_px(x, y_min);
            let base = MARGIN_TOP + plot_h;
            svg.push_str(&format!(
                "<line x1=\"{px:.1}\" y1=\"{base:.1}\" x2=\"{px:.1}\" y2=\"{:.1}\" stroke=\"{GRID}\" stroke-width=\"1\"/>\n",
                base + 5.0
            ));
            svg.push_str(&format!(
                "<text x=\"{px:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"middle\" fill=\"{INK_SECONDARY}\">{}</text>\n",
                base + 20.0,
                x
            ));
        }
        // Axes (recessive).
        svg.push_str(&format!(
            "<line x1=\"{MARGIN_LEFT}\" y1=\"{MARGIN_TOP}\" x2=\"{MARGIN_LEFT}\" y2=\"{:.1}\" stroke=\"{INK_SECONDARY}\" stroke-width=\"1\"/>\n",
            MARGIN_TOP + plot_h
        ));
        svg.push_str(&format!(
            "<line x1=\"{MARGIN_LEFT}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"{INK_SECONDARY}\" stroke-width=\"1\"/>\n",
            MARGIN_TOP + plot_h,
            MARGIN_LEFT + plot_w,
            MARGIN_TOP + plot_h
        ));
        // Axis captions.
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"12\" text-anchor=\"middle\" fill=\"{INK_SECONDARY}\">{}</text>\n",
            MARGIN_LEFT + plot_w / 2.0,
            HEIGHT - 16.0,
            escape(&self.x_label)
        ));
        svg.push_str(&format!(
            "<text x=\"20\" y=\"{:.1}\" font-size=\"12\" text-anchor=\"middle\" fill=\"{INK_SECONDARY}\" transform=\"rotate(-90 20 {:.1})\">{}</text>\n",
            MARGIN_TOP + plot_h / 2.0,
            MARGIN_TOP + plot_h / 2.0,
            escape(&self.y_label)
        ));

        // Series: 2 px lines, 8 px (r=4) markers, direct end labels.
        for (i, series) in self.series.iter().enumerate() {
            let color = SERIES_COLORS[i % SERIES_COLORS.len()];
            let path: Vec<String> = series
                .points
                .iter()
                .enumerate()
                .map(|(j, &(x, y))| {
                    let (px, py) = to_px(x, y);
                    format!("{}{px:.1},{py:.1}", if j == 0 { "M" } else { "L" })
                })
                .collect();
            svg.push_str(&format!(
                "<path d=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"/>\n",
                path.join(" ")
            ));
            for &(x, y) in &series.points {
                let (px, py) = to_px(x, y);
                svg.push_str(&format!(
                    "<circle cx=\"{px:.1}\" cy=\"{py:.1}\" r=\"4\" fill=\"{color}\" stroke=\"{SURFACE}\" stroke-width=\"2\"/>\n"
                ));
            }
            if let Some(&(x, y)) = series.points.last() {
                let (px, py) = to_px(x, y);
                svg.push_str(&format!(
                    "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"12\" fill=\"{INK_PRIMARY}\">{}</text>\n",
                    px + 10.0,
                    py + 4.0,
                    escape(&series.label)
                ));
            }
        }

        // Legend (top-right, one row per series) — identity never
        // color-alone: swatch + ink-colored text.
        for (i, series) in self.series.iter().enumerate() {
            let color = SERIES_COLORS[i % SERIES_COLORS.len()];
            let ly = MARGIN_TOP + 6.0 + i as f64 * 18.0;
            let lx = WIDTH - MARGIN_RIGHT + 14.0;
            svg.push_str(&format!(
                "<rect x=\"{lx:.1}\" y=\"{:.1}\" width=\"12\" height=\"12\" rx=\"2\" fill=\"{color}\"/>\n",
                ly - 10.0
            ));
            svg.push_str(&format!(
                "<text x=\"{:.1}\" y=\"{ly:.1}\" font-size=\"12\" fill=\"{INK_PRIMARY}\">{}</text>\n",
                lx + 18.0,
                escape(&series.label)
            ));
        }
        svg.push_str("</svg>\n");
        svg
    }

    fn y_ticks(&self, y_min: f64, y_max: f64) -> Vec<(f64, String)> {
        let label = |v: f64| {
            if self.y_is_duration {
                fmt_secs(v)
            } else if v.abs() >= 10.0 || v == 0.0 {
                format!("{v:.0}")
            } else {
                format!("{v:.2}")
            }
        };
        if self.log_y {
            let lo = y_min.log10().floor() as i32;
            let hi = y_max.log10().ceil() as i32;
            (lo..=hi)
                .map(|exp| {
                    let v = 10f64.powi(exp);
                    (v, label(v))
                })
                .collect()
        } else {
            let span = (y_max - y_min).max(f64::MIN_POSITIVE);
            (0..=4)
                .map(|i| {
                    let v = y_min + span * i as f64 / 4.0;
                    (v, label(v))
                })
                .collect()
        }
    }
}

fn bounds(values: &[f64], log: bool) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        if log && v <= 0.0 {
            continue;
        }
        min = min.min(v);
        max = max.max(v);
    }
    if !min.is_finite() {
        return (0.0, 1.0);
    }
    if min == max {
        // Degenerate span: widen symmetrically.
        return if log {
            (min / 2.0, max * 2.0)
        } else {
            (min - 0.5, max + 0.5)
        };
    }
    (min, max)
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Parses a duration cell written by [`crate::fmt_duration`]
/// (`"12 µs"` / `"1.29 ms"` / `"2.10 s"`) back into seconds.
pub fn parse_duration_cell(cell: &str) -> Option<f64> {
    let cell = cell.trim();
    let (number, factor) = if let Some(v) = cell.strip_suffix("µs") {
        (v, 1e-6)
    } else if let Some(v) = cell.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = cell.strip_suffix('s') {
        (v, 1.0)
    } else {
        return None;
    };
    number.trim().parse::<f64>().ok().map(|v| v * factor)
}

/// Interprets a thread-sweep table (first column = series label, remaining
/// column headers = thread counts, duration cells) as a log-y line plot.
/// Returns `None` when the table doesn't have that shape.
pub fn thread_sweep_plot(table: &Table, title: &str) -> Option<LinePlot> {
    let header = table.header();
    if header.len() < 2 {
        return None;
    }
    let thread_counts: Vec<f64> = header[1..]
        .iter()
        .map(|h| h.parse::<f64>().ok())
        .collect::<Option<Vec<f64>>>()?;
    let mut series = Vec::new();
    for row in table.rows() {
        let points: Vec<(f64, f64)> = thread_counts
            .iter()
            .zip(&row[1..])
            .filter_map(|(&x, cell)| parse_duration_cell(cell).map(|y| (x, y)))
            .collect();
        if points.is_empty() {
            return None; // not a duration table after all
        }
        series.push(Series {
            label: row[0].clone(),
            points,
        });
    }
    if series.is_empty() {
        return None;
    }
    Some(LinePlot {
        title: title.to_string(),
        x_label: "threads".into(),
        y_label: "elapsed (log scale)".into(),
        log_y: true,
        y_is_duration: true,
        series,
    })
}

/// Interprets a speedup table (first column = series, numeric column
/// headers = thread counts, plain float cells) as a linear-y line plot.
pub fn speedup_plot(table: &Table, title: &str) -> Option<LinePlot> {
    let header = table.header();
    if header.len() < 2 {
        return None;
    }
    let thread_counts: Vec<f64> = header[1..]
        .iter()
        .map(|h| h.parse::<f64>().ok())
        .collect::<Option<Vec<f64>>>()?;
    let mut series = Vec::new();
    for row in table.rows() {
        let points: Vec<(f64, f64)> = thread_counts
            .iter()
            .zip(&row[1..])
            .filter_map(|(&x, cell)| cell.trim().parse::<f64>().ok().map(|y| (x, y)))
            .collect();
        if points.len() != thread_counts.len() {
            return None;
        }
        series.push(Series {
            label: row[0].clone(),
            points,
        });
    }
    if series.is_empty() {
        return None;
    }
    Some(LinePlot {
        title: title.to_string(),
        x_label: "threads".into(),
        y_label: "speedup (×)".into(),
        log_y: false,
        y_is_duration: false,
        series,
    })
}

/// Writes a plot to `results/<name>.svg`, returning the path.
pub fn write_svg(name: &str, plot: &LinePlot) -> std::io::Result<PathBuf> {
    let path = crate::report::csv_path(name).with_extension("svg");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, plot.render_svg())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plot() -> LinePlot {
        LinePlot {
            title: "demo".into(),
            x_label: "threads".into(),
            y_label: "elapsed".into(),
            log_y: true,
            y_is_duration: true,
            series: vec![
                Series {
                    label: "ParAlg1".into(),
                    points: vec![(1.0, 2.0), (2.0, 1.1), (4.0, 0.6)],
                },
                Series {
                    label: "ParAPSP".into(),
                    points: vec![(1.0, 0.9), (2.0, 0.5), (4.0, 0.3)],
                },
            ],
        }
    }

    #[test]
    fn svg_contains_structure_and_labels() {
        let svg = sample_plot().render_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("ParAlg1"));
        assert!(svg.contains("ParAPSP"));
        assert!(svg.contains(SERIES_COLORS[0]));
        assert!(svg.contains(SERIES_COLORS[1]));
        assert!(svg.matches("<circle").count() == 6);
        assert!(svg.contains("demo"));
    }

    #[test]
    fn duration_cells_round_trip() {
        assert_eq!(parse_duration_cell("12 µs"), Some(12e-6));
        assert_eq!(parse_duration_cell("1.50 ms"), Some(1.5e-3));
        assert_eq!(parse_duration_cell("2.10 s"), Some(2.1));
        assert_eq!(parse_duration_cell("-"), None);
        assert_eq!(parse_duration_cell("fast"), None);
        for d in [
            std::time::Duration::from_micros(37),
            std::time::Duration::from_millis(256),
            std::time::Duration::from_secs(3),
        ] {
            let cell = crate::fmt_duration(d);
            let parsed = parse_duration_cell(&cell).unwrap();
            let expected = d.as_secs_f64();
            assert!(
                (parsed - expected).abs() / expected < 0.01,
                "{cell} -> {parsed}"
            );
        }
    }

    #[test]
    fn thread_sweep_table_converts() {
        let mut table = Table::new("x", &["procedure", "1", "2", "4"]);
        table.push_row(vec![
            "selection".into(),
            "2.23 s".into(),
            "2.14 s".into(),
            "2.13 s".into(),
        ]);
        table.push_row(vec![
            "par-buckets".into(),
            "1.33 ms".into(),
            "1.30 ms".into(),
            "1.35 ms".into(),
        ]);
        let plot = thread_sweep_plot(&table, "Table 1").unwrap();
        assert_eq!(plot.series.len(), 2);
        assert_eq!(plot.series[0].points.len(), 3);
        assert!(plot.log_y);
        let svg = plot.render_svg();
        assert!(svg.contains("selection"));
    }

    #[test]
    fn non_sweep_tables_are_rejected() {
        let mut named_cols = Table::new("x", &["a", "b"]);
        named_cols.push_row(vec!["r".into(), "1.0 s".into()]);
        assert!(thread_sweep_plot(&named_cols, "t").is_none()); // header not numeric

        let mut not_durations = Table::new("x", &["a", "1"]);
        not_durations.push_row(vec!["r".into(), "hello".into()]);
        assert!(thread_sweep_plot(&not_durations, "t").is_none());
    }

    #[test]
    fn degenerate_plots_render_without_panicking() {
        let empty = LinePlot {
            title: "empty".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            log_y: false,
            y_is_duration: true,
            series: vec![],
        };
        assert!(empty.render_svg().starts_with("<svg"));

        let flat = LinePlot {
            title: "flat".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            log_y: true,
            y_is_duration: true,
            series: vec![Series {
                label: "one".into(),
                points: vec![(1.0, 5.0), (2.0, 5.0)],
            }],
        };
        assert!(flat.render_svg().contains("one"));
    }

    #[test]
    fn speedup_table_converts_with_plain_ticks() {
        let mut table = Table::new("x", &["algorithm", "1", "2", "4"]);
        table.push_row(vec![
            "ParAPSP".into(),
            "1.00".into(),
            "1.90".into(),
            "3.70".into(),
        ]);
        let plot = speedup_plot(&table, "Figure 9").unwrap();
        assert!(!plot.log_y);
        assert!(!plot.y_is_duration);
        let svg = plot.render_svg();
        assert!(svg.contains("ParAPSP"));
        assert!(!svg.contains("µs"), "speedup ticks must not be durations");

        // A duration table must not convert as a speedup plot.
        let mut durations = Table::new("x", &["algorithm", "1"]);
        durations.push_row(vec!["a".into(), "1.29 ms".into()]);
        assert!(speedup_plot(&durations, "t").is_none());
    }

    #[test]
    fn write_svg_creates_file() {
        let path = write_svg("plot-selftest", &sample_plot()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("</svg>"));
        std::fs::remove_file(path).ok();
    }
}
