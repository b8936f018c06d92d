//! Spans around the calls the benchmark makes into each layer's public
//! entry points. The program itself carries no instrumentation: a span
//! covers exactly one call made from this crate.
//!
//! A disabled [`Tracer`] calls straight through without reading the
//! clock, so the end-to-end pass and the traced pass can share one body.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub pass: u32,
    pub op: u32,
    /// The timed slot (`<layer>.<entry>`) the duration counts to.
    pub slot: &'static str,
    /// The entry point called.
    pub entry: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Part of the span already counted by an earlier span of the same op
    /// (the profiled run repeats the unprofiled simulation); deducted from
    /// `slot` and from the layer shares.
    pub repeat: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Per-pass timing accounts, in seconds, keyed by slot.
#[derive(Clone, Debug, Default)]
pub struct PassTimes {
    pub per_slot: BTreeMap<&'static str, f64>,
    /// Wall time of the pass, less the time spent checking its outputs.
    pub wall: f64,
    /// Time inside spans that repeats work already counted elsewhere.
    pub repeat: f64,
    /// Wall time outside every span.
    pub unattributed: f64,
}

/// In-memory span recorder; written out once, when the benchmark ends.
pub struct Tracer {
    origin: Option<Instant>,
    pass: u32,
    pass_start: Duration,
    /// Time of the current pass spent in [`Self::untimed`].
    excluded: Duration,
    ops: Vec<String>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            origin: None,
            pass: 0,
            pass_start: Duration::ZERO,
            excluded: Duration::ZERO,
            ops: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer; times are relative to now.
    pub fn on() -> Tracer {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    fn now(&self) -> Option<Duration> {
        self.origin.map(|o| o.elapsed())
    }

    /// Start a traced pass.
    pub fn begin_pass(&mut self) {
        if let Some(now) = self.now() {
            self.pass_start = now;
            self.excluded = Duration::ZERO;
        }
    }

    /// Run the benchmark's own checking work, which the pass's wall time
    /// leaves out.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let Some(start) = self.now() else {
            return f();
        };
        let out = f();
        self.excluded += self.now().expect("tracer is on") - start;
        out
    }

    /// Name the operation the following spans belong to.
    pub fn op(&mut self, name: impl FnOnce() -> String) {
        if self.origin.is_some() {
            self.ops.push(name());
        }
    }

    /// Time `f` as one call to `entry`, counted to `slot`.
    pub fn span<T>(&mut self, slot: &'static str, entry: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_repeating(slot, entry, Duration::ZERO, f)
    }

    /// [`Self::span`] for a call whose first `repeat` of duration redoes
    /// work an earlier span of the same op already counted.
    pub fn span_repeating<T>(
        &mut self,
        slot: &'static str,
        entry: &'static str,
        repeat: Duration,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(start) = self.now() else {
            return f();
        };
        let out = f();
        let end = self.now().expect("tracer is on");
        self.spans.push(Span {
            pass: self.pass,
            op: self.ops.len().saturating_sub(1) as u32,
            slot,
            entry,
            start,
            end,
            repeat,
        });
        out
    }

    /// Duration of the most recent span (zero when off).
    pub fn last(&self) -> Duration {
        match (self.origin, self.spans.last()) {
            (Some(_), Some(s)) => s.duration(),
            _ => Duration::ZERO,
        }
    }

    /// Close the current pass and account for its time.
    pub fn end_pass(&mut self) -> PassTimes {
        let end = self.now().expect("end_pass on a disabled tracer");
        let mut t = PassTimes {
            wall: (end - self.pass_start)
                .saturating_sub(self.excluded)
                .as_secs_f64(),
            ..PassTimes::default()
        };
        let mut covered = 0.0;
        for s in self.spans.iter().filter(|s| s.pass == self.pass) {
            let d = s.duration().as_secs_f64();
            let repeat = s.repeat.as_secs_f64().min(d);
            covered += d;
            t.repeat += repeat;
            *t.per_slot.entry(s.slot).or_default() += d - repeat;
        }
        t.unattributed = (t.wall - covered).max(0.0);
        self.pass += 1;
        t
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let layer = s.slot.split('.').next().unwrap_or(s.slot);
            let line = Json::obj([
                ("pass", Json::Num(s.pass.into())),
                ("op", Json::Num(s.op.into())),
                (
                    "op_name",
                    Json::Str(self.ops.get(s.op as usize).cloned().unwrap_or_default()),
                ),
                ("layer", Json::Str(layer.into())),
                ("entry", Json::Str(s.entry.into())),
                ("slot", Json::Str(s.slot.into())),
                ("start_ns", Json::Num(s.start.as_nanos() as f64)),
                ("end_ns", Json::Num(s.end.as_nanos() as f64)),
                ("repeat_ns", Json::Num(s.repeat.as_nanos() as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.op(|| unreachable!("names are not built when off"));
        assert_eq!(t.span("fpga_sim.exec", "f", || 7), 7);
        assert_eq!(t.last(), Duration::ZERO);
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn pass_accounting_deducts_repeats_and_keeps_the_rest() {
        let mut t = Tracer::on();
        t.begin_pass();
        t.op(|| "a".into());
        t.span("fpga_sim.exec", "run", || {
            std::thread::sleep(Duration::from_millis(4))
        });
        let exec = t.last();
        t.span_repeating("hls_profiling.record", "run+unit", exec, || {
            std::thread::sleep(Duration::from_millis(6))
        });
        t.untimed(|| std::thread::sleep(Duration::from_millis(20)));
        let p = t.end_pass();
        let rec = p.per_slot["hls_profiling.record"];
        let ex = p.per_slot["fpga_sim.exec"];
        assert!((p.repeat - exec.as_secs_f64()).abs() < 1e-9);
        let sum = rec + ex + p.repeat + p.unattributed;
        assert!((sum - p.wall).abs() < 1e-6, "{p:?}");
        assert!(
            p.unattributed < 0.015,
            "untimed work is left out of the wall: {p:?}"
        );
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"layer\": \"hls_profiling\""));
    }
}
