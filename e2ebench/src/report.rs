//! What a run prints: the header every output carries, one line per metric,
//! and the result object on the last line.

use crate::json::quote;
use crate::metrics::Metric;
use crate::run::{system_config, Options, Outcome};
use std::process::Command;

/// Scale, core count and commit of a recorded number (ROADMAP: "every
/// recorded number carries scale, core count and commit").
#[derive(Debug, Clone)]
pub struct Header {
    pub workload: String,
    pub seed: u64,
    pub reps: usize,
    pub setups: usize,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
    pub config: String,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Header {
    pub fn new(opts: &Options, reps: usize, setups: usize) -> Self {
        Header {
            workload: opts.spec.name.to_string(),
            seed: opts.seed,
            reps,
            setups,
            seconds: opts.seconds,
            traced: opts.trace,
            smoke: opts.smoke,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // The driver's checkout is not a git repository: "unknown" there.
            commit: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            rustc: first_line_of("rustc", &["--version"]),
            config: format!("{:?}", system_config()),
        }
    }

    pub fn lines(&self) -> Vec<String> {
        vec![
            format!(
                "# e2e workload={} seed={} R={} S={} seconds={} traced={} smoke={} threads=1",
                self.workload,
                self.seed,
                self.reps,
                self.setups,
                self.seconds,
                self.traced,
                self.smoke
            ),
            format!("# nproc={} commit={} rustc={}", self.nproc, self.commit, self.rustc),
            format!("# config={}", self.config),
        ]
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"workload\":{},\"seed\":{},\"R\":{},\"S\":{},\"seconds\":{},\"traced\":{},\"smoke\":{},\"threads\":1,\"nproc\":{},\"commit\":{},\"rustc\":{},\"config\":{}}}",
            quote(&self.workload),
            self.seed,
            self.reps,
            self.setups,
            self.seconds,
            self.traced,
            self.smoke,
            self.nproc,
            quote(&self.commit),
            quote(&self.rustc),
            quote(&self.config)
        )
    }
}

/// A number with all its digits, as JSON.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn metric_line(m: &Metric) -> String {
    let mut line = format!("{:<32} {:>18} {}", m.name, number(m.value), m.unit);
    if let Some(n) = m.samples {
        line.push_str(&format!("  n={n}"));
        if m.thin_tail {
            line.push_str(
                " (fewer than 10 samples beyond: an order statistic of a fixed call set)",
            );
        }
    }
    line
}

/// The result object the driver reads from the last line of stdout.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Everything a run prints, the result object last.
pub fn render(o: &Outcome) -> String {
    let mut out = o.header.lines();
    out.extend(o.metrics.iter().map(metric_line));
    out.push(format!("{:<32} {:>18} count", "ops_attempted", o.attempted));
    out.push(format!("{:<32} {:>18} count", "ops_failed", o.failed));
    for (k, v) in &o.notes {
        out.push(format!("# {k}={v}"));
    }
    for f in &o.failures {
        out.push(format!("CHECK FAILED: {f}"));
    }
    out.push(result_json(o));
    out.join("\n")
}
