//! `BENCHMARK.json`, generated from the registry and the workload specs so
//! that the file at the root of the repository cannot drift from the code
//! (`e2e manifest > BENCHMARK.json`; a test compares the two).

use crate::json::quote;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::workloads::SPECS;

/// How long one run measures: its set-ups and replays fill a window of this
/// many seconds (the window closes when another replay would not fit); the
/// check replay comes on top. With 4 + 22 x 4 runs of about 30 s and two
/// builds, the driver's 3420 s leave a sixth to spare.
pub const RUN_SECONDS: u64 = 28;

/// The directory that holds the benchmark and nothing else.
pub const PATH: &str = "e2ebench";

/// `--` ends cargo's own arguments; the driver appends the benchmark's.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "e2ebench/Cargo.toml",
    "--bin",
    "e2e",
    "--",
];

fn metric(d: &Def) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        quote(d.name),
        quote(d.unit),
        quote(d.better.as_str())
    );
    if let Some(b) = d.bound {
        s.push_str(&format!(", \"bound\": {b:?}"));
    }
    s.push('}');
    s
}

fn list(items: Vec<String>) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    let workloads =
        SPECS.iter().map(|s| format!("{{\"name\": {}, \"why\": {}}}", quote(s.name), quote(s.why)));
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        quote(PATH),
        RUN_SECONDS,
        list(workloads.collect()),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn manifest_is_within_the_contract_limits() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let v = parse(&text).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let command = v.get("command").unwrap().as_array().unwrap();
        assert!(command.len() <= 32);
        assert!(command
            .iter()
            .all(|c| c.as_str().is_some_and(|s| s.len() <= 200 && !s.starts_with('/'))));
        let workloads = v.get("workloads").unwrap().as_array().unwrap();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!((1..=16).contains(&v.get("end_to_end").unwrap().as_array().unwrap().len()));
        assert!((1..=128).contains(&v.get("per_layer").unwrap().as_array().unwrap().len()));
        let secs = v.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
