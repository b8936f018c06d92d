//! Structured lint diagnostics: stable codes, severities, listing spans,
//! and the two output formats (human-readable text and machine JSON).
//!
//! Codes are stable identifiers — tests, CI gates and golden files key on
//! them — so they are an enum, not free-form strings. Every diagnostic
//! carries one or more [`Span`]s that point into the pseudo-C listing
//! produced by `nymble_ir::pretty::listing`, so the human rendering can show
//! the offending source line the way a compiler would.

use std::fmt;

/// Stable diagnostic codes. The numeric part never changes meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Cross-thread write/write or write/read overlap on a shared buffer
    /// outside a `critical` section (data race).
    NL001,
    /// `barrier` under thread-dependent control flow (divergence: some
    /// threads arrive, others never do — guaranteed hardware deadlock).
    NL002,
    /// Unsynchronized read-modify-write to a `map(tofrom)` accumulator
    /// (lost update: the classic unguarded reduction).
    NL003,
    /// Provably out-of-bounds access to a local memory.
    NL004,
    /// Dead `map(to)` clause: the buffer is never read by the kernel.
    NL005,
    /// Dead `map(from)` clause: the buffer is never written by the kernel.
    NL006,
    /// Loop-carried recurrence on a pipelined loop inflates the initiation
    /// interval: iterations cannot overlap past the dependence chain.
    NP001,
    /// Strided external access touches a fresh DRAM line per (few)
    /// elements: line traffic is a multiple of the useful bytes.
    NP002,
    /// Dead DMA: a `Preload`d local memory is never read, or a
    /// `WriteBack` source is never written — pure bus waste.
    NP003,
    /// Critical section inside the parallel loop serializes the threads
    /// (Amdahl bound from per-thread trip counts).
    NP004,
    /// Asymmetric per-thread loop bounds imbalance the threads at a
    /// barrier: the fast threads idle until the slowest arrives.
    NP005,
}

impl Code {
    /// All codes, in numeric order.
    pub const ALL: [Code; 11] = [
        Code::NL001,
        Code::NL002,
        Code::NL003,
        Code::NL004,
        Code::NL005,
        Code::NL006,
        Code::NP001,
        Code::NP002,
        Code::NP003,
        Code::NP004,
        Code::NP005,
    ];

    /// The stable string form (`"NL001"`…).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::NL001 => "NL001",
            Code::NL002 => "NL002",
            Code::NL003 => "NL003",
            Code::NL004 => "NL004",
            Code::NL005 => "NL005",
            Code::NL006 => "NL006",
            Code::NP001 => "NP001",
            Code::NP002 => "NP002",
            Code::NP003 => "NP003",
            Code::NP004 => "NP004",
            Code::NP005 => "NP005",
        }
    }

    /// Parse a stable string form back into a code.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// Is this a performance diagnostic (`NP0xx`) rather than a
    /// correctness diagnostic (`NL0xx`)?
    pub fn is_perf(self) -> bool {
        matches!(
            self,
            Code::NP001 | Code::NP002 | Code::NP003 | Code::NP004 | Code::NP005
        )
    }

    /// Default severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::NL001 | Code::NL002 | Code::NL003 | Code::NL004 => Severity::Error,
            // Performance findings never make the kernel *wrong*.
            _ => Severity::Warning,
        }
    }

    /// One-line description of the pathology the code detects.
    pub fn title(self) -> &'static str {
        match self {
            Code::NL001 => "cross-thread data race on shared buffer",
            Code::NL002 => "barrier under thread-dependent control flow",
            Code::NL003 => "unsynchronized read-modify-write (lost update)",
            Code::NL004 => "provable out-of-bounds access",
            Code::NL005 => "dead map(to) clause: buffer never read",
            Code::NL006 => "dead map(from) clause: buffer never written",
            Code::NP001 => "loop-carried recurrence inflates pipeline initiation interval",
            Code::NP002 => "strided external access multiplies DRAM line traffic",
            Code::NP003 => "dead DMA transfer: preloaded/written-back data unused",
            Code::NP004 => "critical section serializes the parallel loop (Amdahl bound)",
            Code::NP005 => "asymmetric loop bounds imbalance threads at a barrier",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Diagnostic severity. `Deny` gating fails on *any* diagnostic; the
/// severity only controls presentation and the error/warning split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A location in the pseudo-C listing of the kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based line in `nymble_ir::pretty::listing(kernel).text`, when the
    /// statement could be located.
    pub line: Option<u32>,
    /// The listing line, trimmed (empty when `line` is `None`).
    pub snippet: String,
    /// What this span marks ("conflicting write", "barrier", …).
    pub label: String,
}

/// The quantity a performance prediction is denominated in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredMetric {
    /// Predicted total kernel cycles (cross-checkable against
    /// `fpga_sim::analytic::AnalyticReport::total_cycles`).
    TotalCycles,
    /// Predicted total DRAM line traffic in bytes.
    DramBytes,
    /// Bytes moved by a DMA transfer whose data is provably unused.
    WastedDmaBytes,
    /// Cycles spent strictly serialized inside critical sections
    /// (summed over threads — the Amdahl serial term).
    SerialCycles,
    /// Ratio of the busiest thread's work to the least busy thread's.
    ImbalanceRatio,
}

impl PredMetric {
    pub fn as_str(self) -> &'static str {
        match self {
            PredMetric::TotalCycles => "total_cycles",
            PredMetric::DramBytes => "dram_bytes",
            PredMetric::WastedDmaBytes => "wasted_dma_bytes",
            PredMetric::SerialCycles => "serial_cycles",
            PredMetric::ImbalanceRatio => "imbalance_ratio",
        }
    }
}

impl fmt::Display for PredMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A quantitative prediction attached to a performance diagnostic,
/// priced through the same latency/bandwidth model the analytical
/// simulator uses — so it can be confronted with a measured trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    pub metric: PredMetric,
    pub value: f64,
}

impl Prediction {
    pub fn new(metric: PredMetric, value: f64) -> Self {
        Prediction { metric, value }
    }

    /// Deterministic numeric rendering: integers without a fractional
    /// part, everything else with two decimals.
    pub fn value_str(&self) -> String {
        if self.value.fract() == 0.0 && self.value.abs() < 1e15 {
            format!("{}", self.value as i64)
        } else {
            format!("{:.2}", self.value)
        }
    }
}

/// One finding of the analyzer.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// Deterministic, human-readable explanation (thread ids, buffer names,
    /// index ranges — never addresses or hashes).
    pub message: String,
    /// Listing locations, primary first.
    pub spans: Vec<Span>,
    /// Quantitative prediction (performance diagnostics only; `None` keeps
    /// the JSON output of correctness diagnostics byte-identical).
    pub prediction: Option<Prediction>,
}

impl Diagnostic {
    pub fn new(code: Code, message: impl Into<String>, spans: Vec<Span>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            spans,
            prediction: None,
        }
    }

    /// Attach a quantitative prediction.
    pub fn with_prediction(mut self, metric: PredMetric, value: f64) -> Self {
        self.prediction = Some(Prediction::new(metric, value));
        self
    }

    /// Human rendering of a single diagnostic (multi-line, `rustc` style).
    pub fn render_human(&self, kernel: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{}[{}]: {} — {}\n  --> kernel `{kernel}`\n",
            self.severity,
            self.code,
            self.code.title(),
            self.message
        ));
        for s in &self.spans {
            match s.line {
                Some(line) => {
                    out.push_str(&format!("  {line:>4} | {}  // {}\n", s.snippet, s.label))
                }
                None => out.push_str(&format!("       | <{}>\n", s.label)),
            }
        }
        if let Some(p) = &self.prediction {
            out.push_str(&format!(
                "       = predicted {}: {}\n",
                p.metric,
                p.value_str()
            ));
        }
        out
    }
}

/// Minimal JSON string escaping (control chars, quotes, backslash).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Diagnostic {
    /// JSON object for this diagnostic with a stable field order.
    pub fn to_json(&self, kernel: &str, indent: usize) -> String {
        let pad = "  ".repeat(indent);
        let inner = "  ".repeat(indent + 1);
        let span_pad = "  ".repeat(indent + 2);
        let mut spans = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                spans.push(',');
            }
            spans.push('\n');
            let line = match s.line {
                Some(l) => l.to_string(),
                None => "null".to_string(),
            };
            spans.push_str(&format!(
                "{span_pad}{{\"line\": {line}, \"snippet\": \"{}\", \"label\": \"{}\"}}",
                json_escape(&s.snippet),
                json_escape(&s.label)
            ));
        }
        if !self.spans.is_empty() {
            spans.push('\n');
            spans.push_str(&inner);
        }
        // The prediction object is emitted only when present, so the JSON
        // of correctness diagnostics is byte-identical to the pre-NP era.
        let prediction = match &self.prediction {
            Some(p) => format!(
                "{inner}\"prediction\": {{\"metric\": \"{}\", \"value\": {}}},\n",
                p.metric,
                p.value_str()
            ),
            None => String::new(),
        };
        format!(
            "{pad}{{\n{inner}\"kernel\": \"{}\",\n{inner}\"code\": \"{}\",\n{inner}\"severity\": \"{}\",\n{inner}\"message\": \"{}\",\n{prediction}{inner}\"spans\": [{spans}]\n{pad}}}",
            json_escape(kernel),
            self.code,
            self.severity,
            json_escape(&self.message)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip_and_severity() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
        }
        assert_eq!(Code::NL001.severity(), Severity::Error);
        assert_eq!(Code::NL005.severity(), Severity::Warning);
        assert_eq!(Code::parse("NL999"), None);
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_has_stable_field_order() {
        let d = Diagnostic::new(
            Code::NL002,
            "barrier depends on thread id",
            vec![Span {
                line: Some(7),
                snippet: "#pragma omp barrier".into(),
                label: "divergent barrier".into(),
            }],
        );
        let j = d.to_json("k", 0);
        let ik = j.find("\"kernel\"").unwrap();
        let ic = j.find("\"code\"").unwrap();
        let is_ = j.find("\"severity\"").unwrap();
        let im = j.find("\"message\"").unwrap();
        let isp = j.find("\"spans\"").unwrap();
        assert!(ik < ic && ic < is_ && is_ < im && im < isp, "{j}");
        // No prediction → no prediction key (byte-stable NL output).
        assert!(!j.contains("\"prediction\""), "{j}");
    }

    #[test]
    fn np_codes_are_perf_warnings_with_predictions() {
        for c in [
            Code::NP001,
            Code::NP002,
            Code::NP003,
            Code::NP004,
            Code::NP005,
        ] {
            assert!(c.is_perf());
            assert_eq!(c.severity(), Severity::Warning);
        }
        assert!(!Code::NL001.is_perf());
        let d = Diagnostic::new(Code::NP001, "II >= 8 due to recurrence on `acc`", vec![])
            .with_prediction(PredMetric::TotalCycles, 5318.0);
        let j = d.to_json("k", 0);
        let im = j.find("\"message\"").unwrap();
        let ip = j.find("\"prediction\"").unwrap();
        let isp = j.find("\"spans\"").unwrap();
        assert!(im < ip && ip < isp, "{j}");
        assert!(j.contains("\"metric\": \"total_cycles\""), "{j}");
        assert!(j.contains("\"value\": 5318"), "{j}");
        let h = d.render_human("k");
        assert!(h.contains("predicted total_cycles: 5318"), "{h}");
    }
}
