//! The span recorder. It lives in the benchmark, around the calls into each
//! layer; nothing inside the library is instrumented.
//!
//! A span is `{id, parent, name, step, request, start_ns, end_ns}`. Spans
//! stay in memory and are written as JSON lines when the run ends. The same
//! recorder serves the untraced run — which keeps only the spans the
//! end-to-end metrics need — and the traced run, which keeps all of them.

use std::io::{self, Write};
use std::time::Instant;

/// Marker for "no parent", "no step" and "no request".
pub const NONE: u64 = u64::MAX;

/// What a span wraps. The name is the layer boundary the call crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Run,
    Setup,
    /// `ScenarioConfig::build` + `FaultPlan::for_scenario`.
    ScenarioBuild,
    Replay,
    /// `Pretium::new` + `seed_prices`.
    Init,
    Step,
    FaultApply,
    /// The capacity-event `run_sam` that follows a fault.
    SamFault,
    /// A PC call that solved.
    Pc,
    /// A PC call that returned without solving (frozen window or no jobs).
    PcSkip,
    Snapshot,
    Quote,
    Absorb,
    Admit,
    /// `Sequencer::finish`.
    Sam,
    Execute,
    /// One calibration of the reference clock (see [`crate::clock`]); its
    /// duration is the kernel time, not the time the calibration took.
    Clock,
    ProbeTopology,
    ProbeTrace,
    ProbeRequests,
    ProbeKsp,
    ProbeScheduleBuild,
    ProbeScheduleCold,
    ProbeScheduleWarm,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Setup => "setup",
            Kind::ScenarioBuild => "scenario_build",
            Kind::Replay => "replay",
            Kind::Init => "init",
            Kind::Step => "step",
            Kind::FaultApply => "fault_apply",
            Kind::SamFault => "sam_fault",
            Kind::Pc => "pc",
            Kind::PcSkip => "pc_skip",
            Kind::Snapshot => "snapshot",
            Kind::Quote => "quote",
            Kind::Absorb => "absorb",
            Kind::Admit => "admit",
            Kind::Sam => "sam",
            Kind::Execute => "execute",
            Kind::Clock => "clock",
            Kind::ProbeTopology => "probe:topology_gen",
            Kind::ProbeTrace => "probe:trace_gen",
            Kind::ProbeRequests => "probe:request_gen",
            Kind::ProbeKsp => "probe:ksp",
            Kind::ProbeScheduleBuild => "probe:schedule_build",
            Kind::ProbeScheduleCold => "probe:schedule_cold",
            Kind::ProbeScheduleWarm => "probe:schedule_warm",
        }
    }

    /// The coarsest recording level that still keeps this span.
    fn level(self) -> Level {
        match self {
            Kind::Quote | Kind::Admit | Kind::Sam | Kind::SamFault | Kind::Pc | Kind::PcSkip => {
                Level::Calls
            }
            Kind::FaultApply | Kind::Snapshot | Kind::Absorb | Kind::Execute => Level::Detail,
            _ => Level::Steps,
        }
    }
}

/// How much a recorder keeps. Each level adds spans to the one before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing: replays nobody times from the inside (the check replay).
    Off,
    /// Down to whole steps: the warm-up pass of a set-up.
    Steps,
    /// Plus the calls the end-to-end metrics are made of: the untraced run.
    Calls,
    /// Plus every other call into a layer: the traced run.
    Detail,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub kind: Kind,
    pub step: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`]; `None` when the span is skipped.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    level: Level,
}

impl Recorder {
    pub fn new(level: Level) -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), level }
    }

    /// Change the level; returns the one it replaces.
    pub fn set_level(&mut self, level: Level) -> Level {
        std::mem::replace(&mut self.level, level)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, kind: Kind, step: u64, request: u64) -> Open {
        if kind.level() > self.level {
            return Open(None);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().map_or(NONE, |&p| p as u64);
        self.stack.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: idx as u64,
            parent,
            kind,
            step,
            request,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(idx))
    }

    /// Close the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end_ns = self.now_ns();
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = end_ns;
        }
    }

    /// [`Recorder::exit`], renaming the span: what a PC call did is known
    /// only once it has returned.
    pub fn exit_as(&mut self, open: Open, kind: Kind) {
        self.exit(open);
        if let Some(idx) = open.0 {
            self.spans[idx].kind = kind;
        }
    }

    /// Time `f` under a span.
    pub fn span<T>(&mut self, kind: Kind, step: u64, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(kind, step, request);
        let out = f();
        self.exit(open);
        out
    }

    /// Calibrate the reference clock here and record the kernel time as a
    /// [`Kind::Clock`] span.
    pub fn calibrate(&mut self, step: u64) {
        if self.level == Level::Off {
            return;
        }
        let open = self.enter(Kind::Clock, step, NONE);
        let kernel_ns = crate::clock::calibrate();
        self.exit(open);
        let span = self.spans.last_mut().expect("just entered");
        span.start_ns = span.end_ns - kernel_ns.min(span.end_ns - span.start_ns);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drop every span from `mark` on. The untraced run folds a replay into
    /// the floors and forgets it, so memory does not grow with the number
    /// of repetitions.
    pub fn truncate(&mut self, mark: usize) {
        assert!(self.stack.iter().all(|&i| i < mark), "cannot drop an open span");
        self.spans.truncate(mark);
    }
}

fn opt(v: u64) -> String {
    if v == NONE {
        "null".to_string()
    } else {
        v.to_string()
    }
}

/// One JSON object per line, preceded by the header object.
pub fn write_jsonl(out: &mut impl Write, header_json: &str, spans: &[Span]) -> io::Result<()> {
    writeln!(out, "{header_json}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"step\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.kind.name(),
            opt(s.step),
            opt(s.request),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn span(id: u64, parent: u64, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, kind, step: NONE, request: NONE, start_ns, end_ns }
    }

    #[test]
    fn recorder_nests_and_keeps_only_its_level() {
        let mut rec = Recorder::new(Level::Calls);
        let step = rec.enter(Kind::Step, 3, NONE);
        rec.span(Kind::Snapshot, 3, NONE, || ()); // detail: skipped
        rec.span(Kind::Quote, 3, 42, || ());
        let pc = rec.enter(Kind::Pc, 3, NONE);
        rec.exit_as(pc, Kind::PcSkip);
        rec.exit(step);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.kind.name()).collect();
        assert_eq!(names, ["step", "quote", "pc_skip"]);
        assert_eq!(rec.spans()[1].parent, 0);
        assert_eq!(rec.spans()[1].request, 42);
        assert!(rec.spans()[0].end_ns >= rec.spans()[2].end_ns);

        assert_eq!(rec.set_level(Level::Detail), Level::Calls);
        rec.span(Kind::Snapshot, 4, NONE, || ());
        assert_eq!(rec.len(), 4);
        rec.truncate(3);
        assert_eq!(rec.len(), 3);

        rec.set_level(Level::Steps);
        rec.span(Kind::Quote, 5, 1, || ());
        rec.span(Kind::Step, 5, NONE, || ());
        assert_eq!(rec.len(), 4);
        let mut off = Recorder::new(Level::Off);
        off.span(Kind::Run, NONE, NONE, || ());
        assert!(off.is_empty());
    }

    #[test]
    fn jsonl_writer_emits_one_parsable_object_per_line() {
        let spans = [
            span(0, NONE, Kind::Run, 0, 9),
            Span {
                id: 1,
                parent: 0,
                kind: Kind::Quote,
                step: 2,
                request: 7,
                start_ns: 3,
                end_ns: 5,
            },
        ];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "{\"workload\":\"w\"}", &spans).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(json::parse(lines[0]).unwrap().get("workload").unwrap().as_str(), Some("w"));
        let run = json::parse(lines[1]).unwrap();
        assert!(run.get("parent").unwrap().is_null());
        assert_eq!(run.get("name").unwrap().as_str(), Some("run"));
        let quote = json::parse(lines[2]).unwrap();
        assert_eq!(quote.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(quote.get("step").unwrap().as_f64(), Some(2.0));
        assert_eq!(quote.get("request").unwrap().as_f64(), Some(7.0));
        assert_eq!(quote.get("end_ns").unwrap().as_f64(), Some(5.0));
    }
}
