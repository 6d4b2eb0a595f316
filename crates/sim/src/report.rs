//! Plain-text report rendering: the tables and series the paper's figures
//! plot, printed as aligned text so benches and examples can emit them
//! directly — plus the structured telemetry/audit section of a live
//! Pretium run.

use pretium_core::{Auditor, PoolTelemetry, Telemetry};
use pretium_lp::SessionStats;
use std::fmt::Write as _;

/// A named series of `(x, y)` points (one line in a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub name: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(name: &str, points: Vec<(f64, f64)>) -> Self {
        Series { name: name.to_string(), points }
    }
}

/// Render a figure as a table: first column is x, one column per series.
pub fn render_figure(title: &str, x_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:>12}", x_label);
    for s in series {
        let _ = write!(out, " {:>14}", truncate(&s.name, 14));
    }
    let _ = writeln!(out);
    let xs: Vec<f64> =
        series.first().map(|s| s.points.iter().map(|p| p.0).collect()).unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        let _ = write!(out, "{x:>12.3}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => {
                    let _ = write!(out, " {y:>14.4}");
                }
                None => {
                    let _ = write!(out, " {:>14}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Render a simple two-column table.
pub fn render_table(title: &str, rows: &[(String, String)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in rows {
        let _ = writeln!(out, "  {k:<width$}  {v}");
    }
    out
}

/// Render the structured telemetry section of a run: per-module call
/// counts and timings, admission counters, and — when auditing was on —
/// the invariant-sweep summary followed by the first recorded violations.
pub fn render_telemetry(title: &str, telemetry: &Telemetry, audit: Option<&Auditor>) -> String {
    let mut rows = telemetry.rows();
    if let Some(aud) = audit {
        rows.extend(aud.summary_rows());
    }
    let mut out = render_table(title, &rows);
    if let Some(aud) = audit {
        let shown = aud.violations().len().min(20);
        for v in aud.violations().iter().take(shown) {
            let _ = writeln!(out, "  ! {v}");
        }
        let total = aud.total_violations() as usize;
        if total > shown {
            let _ = writeln!(out, "  ! ... and {} more", total - shown);
        }
    }
    out
}

/// Render the parallel engine's pool counters: worker count, per-cell
/// wall-clock distribution, slowest cell, and occupancy.
pub fn render_pool(title: &str, pool: &PoolTelemetry) -> String {
    render_table(title, &pool.rows())
}

/// Render a run's LP solver counters: solves by restart class, simplex
/// iterations, pricing-scan work, and Bland's-rule fallback pivots.
pub fn render_lp(title: &str, stats: &SessionStats) -> String {
    render_table(title, &stats.rows())
}

/// Render an ASCII sparkline-style CDF/series plot (terminal friendly).
pub fn render_ascii_plot(
    title: &str,
    points: &[(f64, f64)],
    width: usize,
    height: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if points.is_empty() || width == 0 || height == 0 {
        return out;
    }
    let (xmin, xmax) =
        points.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(x, _)| (lo.min(x), hi.max(x)));
    let (ymin, ymax) =
        points.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(_, y)| (lo.min(y), hi.max(y)));
    let xspan = (xmax - xmin).max(1e-12);
    let yspan = (ymax - ymin).max(1e-12);
    let mut grid = vec![vec![b' '; width]; height];
    for &(x, y) in points {
        let col = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
        let row = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
        grid[height - 1 - row][col] = b'*';
    }
    for row in grid {
        let _ = writeln!(out, "  |{}", String::from_utf8_lossy(&row));
    }
    let _ = writeln!(out, "   x: [{xmin:.3}, {xmax:.3}]  y: [{ymin:.3}, {ymax:.3}]");
    out
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_renders_aligned_columns() {
        let series = vec![
            Series::new("Pretium", vec![(0.5, 0.8), (1.0, 0.75)]),
            Series::new("RegionOracle", vec![(0.5, 0.2), (1.0, 0.15)]),
        ];
        let s = render_figure("Fig 6", "load", &series);
        assert!(s.contains("Pretium"));
        assert!(s.contains("0.500"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn missing_points_render_dash() {
        let series = vec![
            Series::new("a", vec![(1.0, 2.0), (2.0, 3.0)]),
            Series::new("b", vec![(1.0, 2.0)]),
        ];
        let s = render_figure("f", "x", &series);
        assert!(s.contains('-'));
    }

    #[test]
    fn table_renders() {
        let s = render_table("T", &[("key".into(), "value".into())]);
        assert!(s.contains("key"));
        assert!(s.contains("value"));
    }

    #[test]
    fn ascii_plot_bounds() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, (i * i) as f64)).collect();
        let s = render_ascii_plot("p", &pts, 40, 10);
        assert!(s.contains('*'));
        assert!(s.contains("x: [0.000, 19.000]"));
    }

    #[test]
    fn ascii_plot_empty_safe() {
        let s = render_ascii_plot("p", &[], 10, 5);
        assert_eq!(s, "p\n");
    }
}
