//! Regenerate every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! cargo run --release -p pretium-sim --bin reproduce              # everything
//! cargo run --release -p pretium-sim --bin reproduce -- fig6 fig8    # a subset
//! cargo run --release -p pretium-sim --bin reproduce -- --seed 11
//! cargo run --release -p pretium-sim --bin reproduce -- --jobs 4     # 4 workers
//! cargo run --release -p pretium-sim --bin reproduce -- --tiny      # CI smoke scale
//! cargo run --release -p pretium-sim --bin reproduce -- --list      # registry names
//! ```
//!
//! The figure list is the experiment registry (`pretium_sim::registry`):
//! every selected experiment's cells are flattened into one batch for the
//! worker pool (`--jobs N` workers sharing one atomic cursor, default =
//! available parallelism) and merged back in registry order, so output is
//! bit-identical across job counts.
//! Output is plain text: one block per figure with the same rows/series
//! the paper plots. EXPERIMENTS.md records a captured run next to the
//! paper's reported numbers.

use pretium_sim::registry::{registry_at, run_experiments, Scale};

const USAGE: &str =
    "usage: reproduce [--seed N] [--jobs N] [--tiny] [--list] [--pool] [experiment ...]";

/// The command line, parsed.
#[derive(Debug, PartialEq)]
struct Cli {
    seed: u64,
    jobs: usize,
    scale: Scale,
    list: bool,
    show_pool: bool,
    wanted: Vec<String>,
}

/// Parse the arguments after the program name. A flag whose value is
/// missing or does not parse is an error, not a panic.
fn parse_args(args: &[String], default_jobs: usize) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: rand::DEFAULT_SEED,
        jobs: default_jobs,
        scale: Scale::Evaluation,
        list: false,
        show_pool: false,
        wanted: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                cli.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer value")?;
            }
            "--jobs" => {
                cli.jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--jobs needs a positive integer value")?;
            }
            "--tiny" => cli.scale = Scale::Tiny,
            "--list" => cli.list = true,
            "--pool" => cli.show_pool = true,
            other => cli.wanted.push(other.to_string()),
        }
    }
    Ok(cli)
}

/// Does the experiment called `name` (or any of `aliases`) answer to `w`?
fn answers(name: &str, aliases: &[&str], w: &str) -> bool {
    name == w || aliases.contains(&w)
}

/// The requested names that no experiment answers to, given each
/// experiment's `(name, aliases)`.
fn unmatched<'a>(wanted: &'a [String], known: &[(&str, &[&str])]) -> Vec<&'a str> {
    let known_name = |w: &str| known.iter().any(|(name, aliases)| answers(name, aliases, w));
    wanted.iter().map(String::as_str).filter(|w| !known_name(w)).collect()
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli { seed, jobs, scale, list, show_pool, wanted } =
        parse_args(&args, pretium_sim::default_jobs()).unwrap_or_else(|e| usage_error(&e));

    let experiments = registry_at(scale);
    if list {
        for exp in &experiments {
            let aliases = exp.aliases();
            if aliases.is_empty() {
                println!("{}", exp.name());
            } else {
                println!("{} (aliases: {})", exp.name(), aliases.join(", "));
            }
        }
        return;
    }

    // Every requested name must select something: a typo silently dropped
    // would look like a run that produced nothing.
    let known: Vec<_> = experiments.iter().map(|e| (e.name(), e.aliases())).collect();
    let unknown = unmatched(&wanted, &known);
    if !unknown.is_empty() {
        usage_error(&format!("no experiment is called {unknown:?}; try --list"));
    }
    let all = wanted.is_empty();
    let selected: Vec<_> = experiments
        .into_iter()
        .filter(|exp| all || wanted.iter().any(|w| answers(exp.name(), exp.aliases(), w)))
        .collect();

    // The pool re-raises a cell's panic with the cell's label after the
    // join, and the panic hook never prints a re-raised payload: print it
    // here.
    let run = std::panic::catch_unwind(|| run_experiments(&selected, seed, jobs));
    let (results, pool) = match run {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            eprintln!("experiment failed: {e:?}");
            std::process::exit(1);
        }
        Err(panic) => {
            eprintln!("{}", panic.downcast_ref::<String>().map_or("a cell panicked", |s| s));
            std::process::exit(101);
        }
    };
    for (_, result) in &results {
        println!("{}", result.render());
    }
    if show_pool || jobs > 1 {
        println!("{}", pretium_sim::report::render_pool("Parallel engine", &pool));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_names_parse() {
        let cli =
            parse_args(&args(&["--seed", "11", "table4", "--jobs", "3", "--tiny"]), 1).unwrap();
        assert_eq!((cli.seed, cli.jobs, cli.scale), (11, 3, Scale::Tiny));
        assert_eq!(cli.wanted, ["table4"]);
        let none = parse_args(&[], 5).unwrap();
        assert_eq!((none.seed, none.jobs), (rand::DEFAULT_SEED, 5));
        assert!(none.wanted.is_empty() && !none.list && !none.show_pool);
    }

    #[test]
    fn missing_or_bad_flag_values_are_errors() {
        for bad in [
            &["--seed"][..],
            &["--seed", "eleven"],
            &["table4", "--jobs"],
            &["--jobs", "0"],
            &["--jobs", "-2"],
            &["--jobs", "many"],
        ] {
            assert!(parse_args(&args(bad), 1).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn every_unmatched_name_is_reported() {
        let known: [(&str, &[&str]); 2] = [("table4", &["runtimes"]), ("fig6", &[])];
        let wanted = args(&["table4", "nosuchfigure", "runtimes", "--frobnicate"]);
        assert_eq!(unmatched(&wanted, &known), ["nosuchfigure", "--frobnicate"]);
        assert!(unmatched(&args(&["fig6"]), &known).is_empty());
    }
}
