//! `e2e` — the benchmark's command line.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-file PATH]
//! e2e repeat <workload|all> [--sets 2] [--runs 5] [--seconds S] [--seed FIRST]
//! e2e manifest            # prints BENCHMARK.json
//! e2e list                # workloads and why
//! ```
//!
//! A run prints every metric by name with unit and sample count, then one
//! JSON object on the last line; it exits non-zero when a check fails.

use pretium_e2e::manifest::{benchmark_json, RUN_SECONDS};
use pretium_e2e::repeat::{repeat, RepeatOptions};
use pretium_e2e::report::render;
use pretium_e2e::run::{run, Options};
use pretium_e2e::workloads::{spec, SPECS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--trace-file PATH]
       e2e repeat <workload|all> [--sets 2] [--runs 5] [--seconds S] [--seed FIRST]
       e2e manifest | list";

/// `--key value` pairs and bare flags, checked against what the command knows.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], keys: &[&str], flags: &[&str]) -> Result<Args, String> {
        let mut out = Args { pairs: Vec::new(), flags: Vec::new(), positional: Vec::new() };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if keys.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                out.pairs.push((a.clone(), v.clone()));
            } else if flags.contains(&a.as_str()) {
                out.flags.push(a.clone());
            } else if a.starts_with('-') {
                return Err(format!("unknown option {a}"));
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("bad value `{v}` for {key}")),
        }
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

fn seconds_arg(args: &Args) -> Result<f64, String> {
    let s: f64 = args.get("--seconds", RUN_SECONDS as f64)?;
    if s.is_finite() && s > 0.0 && s <= 600.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be in (0, 600], got {s}"))
    }
}

fn spec_arg(name: &str) -> Result<&'static pretium_e2e::workloads::Spec, String> {
    spec(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })
}

fn run_command(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(
        raw,
        &["--workload", "--seed", "--seconds", "--trace", "--trace-file"],
        &["--smoke"],
    )?;
    if !args.positional.is_empty() {
        return Err(format!("unexpected argument `{}`", args.positional[0]));
    }
    let spec = spec_arg(args.text("--workload").ok_or("--workload is required")?)?;
    let trace = match args.text("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let seed: u64 = args.get("--seed", rand::DEFAULT_SEED)?;
    // A traced run always writes its spans; by default next to the sources,
    // inside the checkout, under a directory `.gitignore` names.
    let trace_file = trace.then(|| {
        args.text("--trace-file").map(PathBuf::from).unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-seed{seed}.jsonl", spec.name))
        })
    });
    let opts = Options {
        spec,
        seed,
        seconds: seconds_arg(&args)?,
        trace,
        smoke: args.flags.iter().any(|f| f == "--smoke"),
        trace_file,
    };
    let outcome = run(&opts).map_err(|e| format!("a solve failed: {e:?}"))?;
    println!("{}", render(&outcome));
    Ok(outcome.correct())
}

fn repeat_command(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &["--sets", "--runs", "--seconds", "--seed"], &[])?;
    let specs = match args.positional.as_slice() {
        [all] if all == "all" => SPECS.iter().collect(),
        [name] => vec![spec_arg(name)?],
        _ => return Err("repeat takes one workload name or `all`".to_string()),
    };
    let opts = RepeatOptions {
        specs,
        sets: args.get("--sets", 2usize)?.max(2),
        runs: args.get("--runs", 5usize)?.max(2),
        seconds: seconds_arg(&args)?,
        first_seed: args.get("--seed", 1u64)?,
    };
    repeat(&opts)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("repeat") => repeat_command(&raw[1..]),
        Some("manifest") => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        Some("list") => {
            for s in &SPECS {
                println!("{:<14} {}", s.name, s.why);
            }
            Ok(true)
        }
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            Ok(!raw.is_empty())
        }
        Some(_) => run_command(&raw),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
