//! One benchmark run: `S` set-ups and `R` replays of one world inside the
//! measuring window, then the check replay, and — in a traced run — the
//! probes and the span file.

use crate::checks::check;
use crate::clock::KERNEL_REF_NS;
use crate::floors::Floors;
use crate::layers::{self, LayerInputs};
use crate::metrics::{end_to_end, ns_to_s, replay_wall_ns, setup_ns, Metric};
use crate::probes;
use crate::replay::{learned_pattern, replay, Digest, Rep};
use crate::report::Header;
use crate::spans::{Kind, Level, Recorder, Span, NONE};
use crate::workloads::{Spec, World};
use pretium_core::PretiumConfig;
use pretium_lp::SolveError;
use pretium_sim::{FaultPlan, ScenarioConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Options {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Length of the measuring window: set-ups and replays fill it.
    pub seconds: f64,
    pub trace: bool,
    /// Shrink the world to a six-node toy and the run to two repetitions.
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub trace_file: Option<PathBuf>,
}

/// Fewest replays of a run, whatever `--seconds` says: a floor over fewer
/// is no floor.
const MIN_REPS: usize = 3;
/// A traced run alternates untraced and traced replays; it keeps the spans
/// of every traced one, so it stops at this many pairs.
const TRACED_PAIRS: usize = 3;

pub struct Outcome {
    pub header: Header,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Plain counts for the human-readable summary.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The configuration every recorded experiment runs.
pub fn system_config() -> PretiumConfig {
    PretiumConfig::default()
}

struct SetUp {
    world: World,
    pattern: Vec<Vec<f64>>,
}

/// One set-up: generate the world, plan its faults, and learn the seed
/// price pattern from a healthy cold pass (the `run_pretium` contract).
fn set_up(opts: &Options, scfg: &ScenarioConfig, rec: &mut Recorder) -> Result<SetUp, SolveError> {
    let open = rec.enter(Kind::Setup, NONE, NONE);
    rec.calibrate(NONE);
    let (scenario, plan) = rec.span(Kind::ScenarioBuild, NONE, NONE, || {
        let scenario = scfg.build();
        let plan =
            opts.spec.fault_config(opts.smoke).map(|fc| FaultPlan::for_scenario(&scenario, &fc));
        (scenario, plan)
    });
    let world = World::build(opts.spec, scenario, plan, opts.seed);
    // Nobody reads the warm-up pass call by call: steps are enough.
    let inner = rec.set_level(Level::Steps);
    let warm = replay(&world, &system_config(), None, false, false, rec);
    rec.set_level(inner);
    let pattern = learned_pattern(&world, &warm?);
    rec.exit(open);
    Ok(SetUp { world, pattern })
}

/// Replay once and fold the repetition into `floors`, checking that it did
/// exactly what the first repetition did.
fn measured_rep(
    set: &SetUp,
    rec: &mut Recorder,
    floors: &mut Floors,
    reference: &mut Option<Digest>,
    keep_spans: bool,
) -> Result<Result<Rep, String>, SolveError> {
    let mark = rec.len();
    let rep = replay(&set.world, &system_config(), Some(&set.pattern), true, false, rec)?;
    let digest = rep.digest();
    let aligned = match reference {
        Some(first) if *first != digest => {
            Err(format!("a repetition diverged: {digest:?} against the first {first:?}"))
        }
        _ => floors.fold(&rec.spans()[mark..]).map_err(|e| e.to_string()),
    };
    reference.get_or_insert(digest);
    if !keep_spans {
        rec.truncate(mark);
    }
    Ok(aligned.map(|()| rep))
}

/// What the measuring window leaves behind.
struct Window {
    set: SetUp,
    /// Floors of the set-ups, of the untraced replays, and — in a traced
    /// run — of the traced replays.
    setups: Floors,
    plain: Floors,
    traced: Floors,
    /// Any measured repetition: its counters are every repetition's.
    last: Rep,
    /// Smallest pricing time any repetition's LP sessions reported.
    pricing_ns: u64,
    seconds: f64,
    failures: Vec<String>,
}

/// The measuring window: `--seconds` of set-ups and replays. Set-ups are
/// spread evenly over the window rather than done back to back at its
/// start: the machine's speed drifts for tens of seconds at a time, and a
/// floor over set-ups that all ran in one slow stretch is no floor.
fn measure(
    opts: &Options,
    scfg: &ScenarioConfig,
    rec: &mut Recorder,
) -> Result<Window, SolveError> {
    let setups = if opts.smoke || opts.trace { 2 } else { opts.spec.setups };
    let budget = Duration::from_secs_f64(if opts.smoke { 0.0 } else { opts.seconds });
    let started = Instant::now();
    let mut setup_floors = Floors::new();
    let mut plain = Floors::new();
    let mut traced = Floors::new();
    let mut set: Option<SetUp> = None;
    let mut reference = None;
    let mut failures: Vec<String> = Vec::new();
    let mut last: Option<Rep> = None;
    let mut pricing_ns = u64::MAX;
    // The longest pass (replay or replay pair) so far: the window closes
    // when another one would not fit, so a run lasts `--seconds`, not
    // `--seconds` plus whatever was in flight.
    let mut longest_pass = Duration::ZERO;
    loop {
        let reps = plain.reps();
        let out_of_time = started.elapsed() + longest_pass >= budget;
        let enough = !failures.is_empty()
            || if opts.smoke {
                reps >= 2
            } else if opts.trace {
                reps >= TRACED_PAIRS || (reps >= 2 && out_of_time)
            } else {
                reps >= MIN_REPS && out_of_time
            };
        let done = setup_floors.reps();
        let due = started.elapsed() >= budget.mul_f64(done as f64 / setups as f64);
        if done < setups && (due || enough) {
            let mark = rec.len();
            let next = set_up(opts, scfg, rec)?;
            if let Err(e) = setup_floors.fold(&rec.spans()[mark..]) {
                failures.push(format!("set-up {done}: {e}"));
            }
            if set.as_ref().is_some_and(|first| first.pattern != next.pattern) {
                failures.push(format!("set-up {done} learned another price pattern"));
            }
            // A traced run keeps the spans of its first set-up only.
            if !(opts.trace && done == 0) {
                rec.truncate(mark);
            }
            set = Some(next);
            continue;
        }
        if enough {
            break;
        }
        let set = set.as_ref().expect("the first set-up is due at once");
        let pass_started = Instant::now();
        rec.set_level(Level::Calls);
        match measured_rep(set, rec, &mut plain, &mut reference, false)? {
            Ok(rep) => last = Some(rep),
            Err(why) => failures.push(why),
        }
        if opts.trace {
            rec.set_level(Level::Detail);
            match measured_rep(set, rec, &mut traced, &mut reference, true)? {
                Ok(rep) => last = Some(rep),
                Err(why) => failures.push(why),
            }
        }
        if let Some(rep) = &last {
            let s = rep.system.lp_stats();
            pricing_ns = pricing_ns.min(s.pricing_serial_nanos + s.pricing_par_nanos);
        }
        longest_pass = longest_pass.max(pass_started.elapsed());
    }
    Ok(Window {
        set: set.expect("set up above"),
        setups: setup_floors,
        plain,
        traced,
        last: last.expect("the first repetition always folds"),
        pricing_ns,
        seconds: started.elapsed().as_secs_f64(),
        failures,
    })
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Requests, SAM calls and PC calls of one replay.
fn ops_attempted(f: &Floors) -> u64 {
    [Kind::Quote, Kind::Sam, Kind::SamFault, Kind::Pc, Kind::PcSkip]
        .iter()
        .map(|&k| f.count(k) as u64)
        .sum()
}

pub fn run(opts: &Options) -> Result<Outcome, SolveError> {
    let spec = opts.spec;
    let scfg = spec.scenario_config(opts.smoke);
    let mut rec = Recorder::new(Level::Calls);
    let run_open = rec.enter(Kind::Run, NONE, NONE);
    let Window { set, setups, plain, traced, last, pricing_ns, seconds, mut failures } =
        measure(opts, &scfg, &mut rec)?;

    // The check replay: auditor on, timed only step by step (for
    // `audit.pass_wall_s`).
    let audited_cfg = PretiumConfig { audit: true, ..system_config() };
    let mut audit_rec = Recorder::new(Level::Steps);
    let audited =
        replay(&set.world, &audited_cfg, Some(&set.pattern), true, opts.trace, &mut audit_rec)?;
    let mut audit_floors = Floors::new();
    audit_floors.fold(audit_rec.spans()).expect("a first fold cannot be misaligned");
    let checks = check(spec, &set.world, &audited, opts.smoke);
    failures.extend(checks.failures.iter().cloned());
    let digest = last.digest();
    if audited.digest() != digest {
        failures.push("the audited replay diverged from the measured ones".into());
    }

    let attempted = ops_attempted(&plain).max(1);
    let mut notes: Vec<(String, String)> = [
        ("requests", plain.count(Kind::Quote).to_string()),
        ("sam_calls", (plain.count(Kind::Sam) + plain.count(Kind::SamFault)).to_string()),
        ("pc_calls", (plain.count(Kind::Pc) + plain.count(Kind::PcSkip)).to_string()),
        ("pc_solved", plain.count(Kind::Pc).to_string()),
        ("admitted", digest.admitted.to_string()),
        ("lp_iterations", digest.lp_iterations.to_string()),
        ("check.welfare", format!("{:.6}", checks.welfare)),
        ("check.delivered_units", format!("{:.6}", checks.delivered_units)),
        ("window_s", format!("{seconds:.3}")),
        ("clock.kernel_ref_ns", format!("{KERNEL_REF_NS}")),
        ("clock.kernel_min_ns", plain.of(Kind::Clock).iter().min().map_or(0, |&k| k).to_string()),
        ("clock.unsteady_calls", format!("{} of {}", plain.unsteady_calls(), plain.calls().len())),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    let metrics = if opts.trace {
        rec.set_level(Level::Detail);
        let gen = probes::generators(&scfg, &set.world, &mut rec);
        let ksp = probes::ksp(&set.world, &system_config(), &mut rec);
        let input = audited.captured.as_ref().expect("some step has a live contract");
        let schedule = probes::schedule(&set.world, &system_config(), input, &mut rec)?;
        rec.exit(run_open);
        let metrics = layers::per_layer(&LayerInputs {
            world: &set.world,
            setups: &setups,
            plain: &plain,
            traced: &traced,
            rep: &last,
            checks: &checks,
            gen,
            ksp,
            schedule,
            pricing_ns,
            audit_pass_s: ns_to_s(replay_wall_ns(&audit_floors)),
        });
        let traced_wall_s = ns_to_s(replay_wall_ns(&traced));
        failures.extend(layers::guards(spec, &metrics, traced_wall_s, opts.smoke));
        notes.push(("trace.spans_total".to_string(), rec.len().to_string()));
        metrics
    } else {
        rec.exit(run_open);
        end_to_end(&plain, ns_to_s(setup_ns(&setups)), peak_rss_mb())
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        failures.push("a metric is not a finite number".into());
    }

    let header = Header::new(opts, plain.reps(), setups.reps());
    if let Some(path) = opts.trace_file.as_ref().filter(|_| opts.trace) {
        if let Err(e) = write_trace(path, &header, rec.spans()) {
            failures.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    // A failed check marks every operation failed.
    let failed = if failures.is_empty() { 0 } else { attempted };
    Ok(Outcome { header, metrics, attempted, failed, failures, notes })
}

fn write_trace(path: &Path, header: &Header, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    crate::spans::write_jsonl(&mut out, &header.json(), spans)
}
