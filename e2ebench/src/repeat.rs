//! `e2e repeat`: does the benchmark repeat? Runs several sets of runs of the
//! same code alternately (A1 B1 A2 B2 …), each run a fresh process with its
//! own seed, and applies the driver's acceptance rule to them: every set's
//! spread (inter-quartile distance over median) stays within the metric's
//! bound — `setup_s` excepted — and no later set's median is worse than the
//! first set's by more than the bound.

use crate::floors::quartiles;
use crate::json;
use crate::metrics::{Better, Def, END_TO_END};
use crate::workloads::Spec;
use std::process::Command;

pub struct RepeatOptions {
    pub specs: Vec<&'static Spec>,
    pub sets: usize,
    pub runs: usize,
    pub seconds: f64,
    /// Run `i` of every set uses seed `first_seed + i`.
    pub first_seed: u64,
}

/// One child run's end-to-end metric values, in registry order.
fn child_run(spec: &Spec, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{} seed {seed} exited with {}: {last}", spec.name, out.status));
    }
    let v = json::parse(last)?;
    END_TO_END
        .iter()
        .map(|d| {
            v.get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{} seed {seed}: no value for {}", spec.name, d.name))
        })
        .collect()
}

/// How much worse `later` is than `first`, as a share of `first`; negative
/// when it is better.
fn worse_by(def: &Def, first: f64, later: f64) -> f64 {
    match def.better {
        Better::Lower => (later - first) / first,
        Better::Higher => (first - later) / first,
    }
}

/// Runs everything, prints the table, and says whether the benchmark
/// repeated within its own bounds.
pub fn repeat(opts: &RepeatOptions) -> Result<bool, String> {
    assert!(opts.sets >= 2 && opts.runs >= 2, "need two sets of two runs");
    let mut ok = true;
    println!(
        "# e2e repeat: {} sets x {} runs, alternating, seeds {}..{}, {} s per run",
        opts.sets,
        opts.runs,
        opts.first_seed,
        opts.first_seed + opts.runs as u64 - 1,
        opts.seconds
    );
    for spec in &opts.specs {
        // values[set][metric][run]
        let mut values = vec![vec![Vec::with_capacity(opts.runs); END_TO_END.len()]; opts.sets];
        for run in 0..opts.runs {
            for set_values in values.iter_mut() {
                let got = child_run(spec, opts.first_seed + run as u64, opts.seconds)?;
                for (slot, v) in set_values.iter_mut().zip(got) {
                    slot.push(v);
                }
            }
        }
        println!("\n## {}", spec.name);
        println!(
            "{:<20} {:>5} {:>14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
            "metric", "set", "q1", "median", "q3", "spread", "gap", "bound"
        );
        for (mi, def) in END_TO_END.iter().enumerate() {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let first_median = quartiles(&values[0][mi]).1;
            for (si, set_values) in values.iter().enumerate() {
                let (q1, median, q3) = quartiles(&set_values[mi]);
                let spread = (q3 - q1) / median;
                let gap = worse_by(def, first_median, median);
                let spread_ok = def.name == "setup_s" || spread <= bound;
                let gap_ok = gap <= bound;
                ok &= spread_ok && gap_ok;
                println!(
                    "{:<20} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>+7.2}% {:>6.0}%  {}",
                    def.name,
                    (b'A' + si as u8) as char,
                    q1,
                    median,
                    q3,
                    100.0 * spread,
                    100.0 * gap,
                    100.0 * bound,
                    match (spread_ok, gap_ok) {
                        (true, true) => "ok",
                        (false, _) => "SPREAD > BOUND",
                        (_, false) => "GAP > BOUND",
                    }
                );
            }
        }
    }
    println!(
        "\n# {}",
        if ok { "repeats within its bounds" } else { "DOES NOT REPEAT within its bounds" }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let lower = &END_TO_END[1];
        let higher = END_TO_END.iter().find(|d| d.better == Better::Higher).unwrap();
        assert_eq!(worse_by(lower, 2.0, 2.5), 0.25);
        assert_eq!(worse_by(lower, 2.0, 1.5), -0.25);
        assert_eq!(worse_by(higher, 2.0, 1.5), 0.25);
        assert_eq!(worse_by(higher, 2.0, 2.5), -0.25);
    }
}
