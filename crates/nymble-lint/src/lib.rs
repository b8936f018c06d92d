//! # nymble-lint — concurrency & memory static analyzer for kernel IR
//!
//! The paper's profiling unit explains *where* hardware threads spin, stall
//! or serialize — but only after a simulated run. A whole class of those
//! pathologies is statically decidable from the same structured IR Nymble
//! compiles, and this crate decides them before any cycle is simulated:
//!
//! | code  | severity | pathology |
//! |-------|----------|-----------|
//! | NL001 | error    | cross-thread write/write or write/read overlap on a shared buffer outside `critical` (data race) |
//! | NL002 | error    | `barrier` under thread-dependent control flow (divergence → hardware deadlock) |
//! | NL003 | error    | unsynchronized read-modify-write to a `map(tofrom)` accumulator (lost update) |
//! | NL004 | error    | provable out-of-bounds access to a local memory |
//! | NL005 | warning  | dead `map(to)` clause — the buffer is never read |
//! | NL006 | warning  | dead `map(from)` clause — the buffer is never written |
//!
//! A second family of *performance* diagnostics ([`perf`], `NP0xx` codes)
//! statically predicts the bottlenecks the profiling unit would measure,
//! each carrying a quantitative prediction priced by the static cost walker
//! of [`nymble_hls::perf`] (the model behind `fpga_sim::analytic` too):
//!
//! | code  | severity | pathology |
//! |-------|----------|-----------|
//! | NP001 | warning  | loop-carried recurrence inflates the pipelined initiation interval |
//! | NP002 | warning  | strided external access multiplies DRAM line traffic |
//! | NP003 | warning  | dead DMA: `preload` never read / `write_back` never written |
//! | NP004 | warning  | critical section inside a parallel loop serializes threads (Amdahl) |
//! | NP005 | warning  | asymmetric per-thread loop bounds imbalance threads at a barrier |
//!
//! The analyzer instantiates `thread_id` per hardware thread and computes
//! per-thread affine index sets from loop bounds, unroll/vector clauses and
//! burst lengths ([`affine`]), then proves access-set disjointness with
//! interval, congruence and factor-decomposition criteria. Anything it
//! cannot prove disjoint *and* cannot prove racy is treated conservatively
//! in the sound direction for each check: NL001 reports may-races, NL004
//! only proven faults. NL004 checks local memories, the only buffers whose
//! length the IR declares (external buffer lengths arrive at launch time).
//!
//! Callers gate: [`strict_check`] plugs into `nymble_ir::builder`'s strict
//! mode, [`enforce`]/[`enforce_perf`] gate a kernel before it is compiled,
//! and the `nymble-lint` CLI plus the `bench` repro binaries accept
//! `--lint[=deny|warn|off]` and `--perf-lint[=deny|warn|off]`.

pub mod affine;
mod analysis;
mod checks;
pub mod diag;
pub mod perf;

pub use diag::{Code, Diagnostic, PredMetric, Prediction, Severity, Span};

use nymble_hls::perf::Timing;
use nymble_ir::Kernel;

/// How lint findings gate a compile or a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LintLevel {
    /// Do not run the analyzer.
    #[default]
    Off,
    /// Run and report, never fail.
    Warn,
    /// Run and fail on any diagnostic (warnings included).
    Deny,
}

impl LintLevel {
    /// Parse `"off" | "warn" | "deny"` (case-insensitive).
    pub fn parse(s: &str) -> Option<LintLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(LintLevel::Off),
            "warn" => Some(LintLevel::Warn),
            "deny" => Some(LintLevel::Deny),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            LintLevel::Off => "off",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        }
    }
}

impl std::fmt::Display for LintLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The result of linting one kernel.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Kernel name the diagnostics belong to.
    pub kernel: String,
    /// Findings, sorted by (listing position, code).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// No findings at all (warnings included).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Distinct codes present, in numeric order.
    pub fn codes(&self) -> Vec<Code> {
        let mut codes: Vec<Code> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort();
        codes.dedup();
        codes
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Human-readable rendering of the whole report.
    pub fn render_human(&self) -> String {
        if self.is_clean() {
            return format!("kernel `{}`: clean\n", self.kernel);
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_human(&self.kernel));
        }
        let errors = self.error_count();
        let warnings = self.diagnostics.len() - errors;
        out.push_str(&format!(
            "kernel `{}`: {errors} error(s), {warnings} warning(s)\n",
            self.kernel
        ));
        out
    }

    /// Machine-readable JSON array with a stable field order, suitable for
    /// golden-file snapshots.
    pub fn to_json(&self) -> String {
        if self.diagnostics.is_empty() {
            return "[]".to_string();
        }
        let mut out = String::from("[\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&d.to_json(&self.kernel, 1));
        }
        out.push_str("\n]");
        out
    }
}

/// Lint a kernel.
pub fn lint_kernel(kernel: &Kernel) -> LintReport {
    LintReport {
        kernel: kernel.name.clone(),
        diagnostics: checks::run_checks(kernel),
    }
}

/// Gate a kernel at `level`: `Err` carries the human-rendered report when
/// the level demands failure.
pub fn enforce(kernel: &Kernel, level: LintLevel) -> Result<LintReport, String> {
    if level == LintLevel::Off {
        return Ok(LintReport {
            kernel: kernel.name.clone(),
            diagnostics: Vec::new(),
        });
    }
    let report = lint_kernel(kernel);
    if level == LintLevel::Deny && !report.is_clean() {
        return Err(report.render_human());
    }
    Ok(report)
}

/// Run the performance diagnostics (`NP0xx`) priced against the default
/// platform timing (the defaults of `fpga_sim::SimConfig`).
pub fn perf_lint_kernel(kernel: &Kernel) -> LintReport {
    perf_lint_kernel_with(kernel, &Timing::default())
}

/// Run the performance diagnostics priced against explicit [`Timing`]
/// (e.g. the `SimConfig::timing` of the run they will be confronted with).
pub fn perf_lint_kernel_with(kernel: &Kernel, params: &Timing) -> LintReport {
    LintReport {
        kernel: kernel.name.clone(),
        diagnostics: perf::run_perf_checks(kernel, params),
    }
}

/// Gate a kernel on the performance diagnostics at `level`. Like
/// [`enforce`], `Err` carries the rendered report only when the level
/// demands failure — note NP findings are warnings, so only
/// [`LintLevel::Deny`] ever fails.
pub fn enforce_perf(kernel: &Kernel, level: LintLevel) -> Result<LintReport, String> {
    if level == LintLevel::Off {
        return Ok(LintReport {
            kernel: kernel.name.clone(),
            diagnostics: Vec::new(),
        });
    }
    let report = perf_lint_kernel(kernel);
    if level == LintLevel::Deny && !report.is_clean() {
        return Err(report.render_human());
    }
    Ok(report)
}

/// A finish-time check for `nymble_ir::builder::KernelBuilder::set_strict_check`:
/// the builder's opt-in strict mode runs the analyzer as part of
/// `finish()`/`try_finish()`. At [`LintLevel::Warn`] findings go to stderr;
/// at [`LintLevel::Deny`] they fail the build.
pub fn strict_check(level: LintLevel) -> nymble_ir::FinishCheck {
    Box::new(move |k: &Kernel| match enforce(k, level) {
        Ok(report) => {
            if !report.is_clean() {
                eprint!("{}", report.render_human());
            }
            Ok(())
        }
        Err(rendered) => Err(format!("lint failed at level `deny`:\n{rendered}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType};

    #[test]
    fn lint_level_parses() {
        assert_eq!(LintLevel::parse("deny"), Some(LintLevel::Deny));
        assert_eq!(LintLevel::parse("WARN"), Some(LintLevel::Warn));
        assert_eq!(LintLevel::parse("off"), Some(LintLevel::Off));
        assert_eq!(LintLevel::parse("loud"), None);
        assert_eq!(LintLevel::default(), LintLevel::Off);
    }

    /// Two threads, disjoint strided writes: clean.
    fn disjoint_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("disjoint", 2);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let tid = kb.thread_id();
        let nt = kb.num_threads_expr();
        let end = kb.c_i64(16);
        kb.for_each("i", tid, end, nt, |kb, i| {
            let v = kb.c_f32(1.0);
            kb.store(out, i, v);
        });
        kb.finish()
    }

    /// Two threads, both write the full range: racy.
    fn racy_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("racy", 2);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let end = kb.c_i64(16);
        kb.for_range("i", end, |kb, i| {
            let v = kb.c_f32(1.0);
            kb.store(out, i, v);
        });
        kb.finish()
    }

    #[test]
    fn clean_kernel_reports_clean() {
        let r = lint_kernel(&disjoint_kernel());
        assert!(r.is_clean(), "{}", r.render_human());
        assert_eq!(r.to_json(), "[]");
    }

    #[test]
    fn race_is_detected_and_gated() {
        let r = lint_kernel(&racy_kernel());
        assert_eq!(r.codes(), vec![Code::NL001], "{}", r.render_human());
        assert!(enforce(&racy_kernel(), LintLevel::Deny).is_err());
        assert!(enforce(&racy_kernel(), LintLevel::Warn).is_ok());
        assert!(enforce(&racy_kernel(), LintLevel::Off).unwrap().is_clean());
    }

    #[test]
    fn report_renders_spans_with_lines() {
        let r = lint_kernel(&racy_kernel());
        let d = &r.diagnostics[0];
        let line = d.spans[0].line.expect("span has a line");
        assert!(d.spans[0].snippet.contains("OUT["), "{:?}", d.spans[0]);
        let human = r.render_human();
        assert!(human.contains(&format!("{line} |")), "{human}");
        assert!(human.contains("NL001"), "{human}");
    }

    #[test]
    fn strict_check_closure_gates() {
        let deny = strict_check(LintLevel::Deny);
        assert!(deny(&racy_kernel()).is_err());
        assert!(deny(&disjoint_kernel()).is_ok());
        let warn = strict_check(LintLevel::Warn);
        assert!(warn(&racy_kernel()).is_ok());
    }

    #[test]
    fn vector_lanes_widen_footprints() {
        // Thread strides of 4 with 4-lane vector stores tile exactly: clean.
        let mut kb = KernelBuilder::new("vec_tile", 2);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let tid = kb.thread_id();
        let four = kb.c_i64(4);
        let base = kb.mul(tid, four);
        let end = kb.c_i64(16);
        let eight = kb.c_i64(8);
        kb.for_each("i", base, end, eight, |kb, i| {
            let v = kb.c_f32(0.0);
            let vv = kb.splat(v, 4);
            kb.store(out, i, vv);
        });
        let k = kb.finish();
        let r = lint_kernel(&k);
        assert!(r.is_clean(), "{}", r.render_human());

        // Widen the store to 8 lanes: tiles now overlap the next thread's.
        let mut kb = KernelBuilder::new("vec_overlap", 2);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let tid = kb.thread_id();
        let four = kb.c_i64(4);
        let base = kb.mul(tid, four);
        let end = kb.c_i64(16);
        let eight = kb.c_i64(8);
        kb.for_each("i", base, end, eight, |kb, i| {
            let v = kb.c_f32(0.0);
            let vv = kb.splat(v, 8);
            kb.store(out, i, vv);
        });
        let k = kb.finish();
        let r = lint_kernel(&k);
        assert_eq!(r.codes(), vec![Code::NL001], "{}", r.render_human());
    }
}
