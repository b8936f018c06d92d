//! Tiny command-line flag parser shared by the `repro_*` binaries
//! (stand-in for clap, which this build environment cannot fetch).
//!
//! Flags are `--name value` or `--name=value` pairs. An unknown flag and a
//! present but malformed value are both errors, never a silent default.
//! The binaries read these through [`crate::session::Session`], which turns
//! every error into a usage message and exit status 2. `--profile` parses
//! straight into the compiler's [`ProbeMode`].

use nymble_hls::ProbeMode;
use nymble_lint::LintLevel;
use std::path::PathBuf;
use std::str::FromStr;

/// Parsed process arguments.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Capture `std::env::args()`.
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().collect(),
        }
    }

    /// For tests: parse an explicit argument list.
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// The value of `flag`, accepting both `--flag value` and
    /// `--flag=value` spellings.
    pub fn value_of(&self, flag: &str) -> Option<&str> {
        for (i, a) in self.raw.iter().enumerate() {
            if a == flag {
                return self.raw.get(i + 1).map(|s| s.as_str());
            }
            if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
                return Some(v);
            }
        }
        None
    }

    /// The `--lint` gate level: absent means [`LintLevel::Off`], bare
    /// `--lint` means [`LintLevel::Deny`], and `--lint=LEVEL` /
    /// `--lint LEVEL` select one of `deny`, `warn`, `off`. An unknown
    /// level is an error (so a typo'd gate never silently disables it).
    pub fn lint_level(&self) -> Result<LintLevel, String> {
        self.gate_level("--lint", LintLevel::Deny)
    }

    /// The `--perf-lint` gate level for the `NP0xx` performance
    /// diagnostics: absent means [`LintLevel::Off`], bare `--perf-lint`
    /// means [`LintLevel::Warn`] (performance findings are advisory, so
    /// the bare flag reports rather than refuses — unlike `--lint`, whose
    /// correctness findings default to `deny`), and `--perf-lint=LEVEL` /
    /// `--perf-lint LEVEL` select one of `deny`, `warn`, `off`.
    pub fn perf_lint_level(&self) -> Result<LintLevel, String> {
        self.gate_level("--perf-lint", LintLevel::Warn)
    }

    /// A lint gate `flag`: absent is [`LintLevel::Off`], `flag=LEVEL` and
    /// `flag LEVEL` select a level, and a bare `flag` (next token is
    /// another flag or nothing) means `bare`.
    fn gate_level(&self, flag: &str, bare: LintLevel) -> Result<LintLevel, String> {
        for (i, a) in self.raw.iter().enumerate() {
            if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
                return LintLevel::parse(v)
                    .ok_or_else(|| format!("{flag}: unknown level `{v}` (deny, warn or off)"));
            }
            if a == flag {
                return Ok(self
                    .raw
                    .get(i + 1)
                    .and_then(|n| LintLevel::parse(n))
                    .unwrap_or(bare));
            }
        }
        Ok(LintLevel::Off)
    }

    /// The first `--flag` whose name is not in `known`, as an error
    /// (`--dims: unknown flag`), so a typo never silently runs the
    /// defaults.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        let unknown = self.raw.iter().skip(1).find_map(|a| {
            let name = a.split_once('=').map_or(a.as_str(), |(n, _)| n);
            (name.starts_with("--") && !known.contains(&name)).then_some(name)
        });
        match unknown {
            Some(name) => Err(format!("{name}: unknown flag")),
            None => Ok(()),
        }
    }

    /// `--flag N` parsed as `T`: `Ok(None)` when absent, an error naming
    /// the flag when the value does not parse (an empty `--flag=` too).
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value_of(flag)
            .map(|v| parse_number(flag, v))
            .transpose()
    }

    /// `--flag A,B,C` parsed as a list of `T`, with the same error rule as
    /// [`Args::parsed`] applied to every entry.
    pub fn list<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, String> {
        self.value_of(flag)
            .map(|v| v.split(',').map(|t| parse_number(flag, t.trim())).collect())
            .transpose()
    }

    /// `--flag PATH`.
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value_of(flag).map(PathBuf::from)
    }

    /// The `--jobs N` worker count, defaulting to the machine's available
    /// parallelism. `--jobs 0` and unparsable values are typed errors —
    /// never a silent clamp — mirroring `SimConfig::validate()`.
    pub fn jobs(&self) -> Result<usize, String> {
        match self.value_of("--jobs") {
            None => Ok(default_jobs()),
            Some(v) => match v.parse::<usize>() {
                Ok(0) => Err("--jobs: worker count must be at least 1 (got 0)".to_string()),
                Ok(n) => Ok(n),
                Err(_) => Err(format!("--jobs: invalid worker count `{v}`")),
            },
        }
    }

    /// The `--mode` selector: `cycle` (default, the event-driven
    /// cycle-level simulator) or `analytical` (the roofline fast mode).
    /// An unknown mode is an error, never a silent fallback.
    pub fn mode(&self) -> Result<Mode, String> {
        match self.value_of("--mode") {
            None | Some("cycle") => Ok(Mode::Cycle),
            Some("analytical") => Ok(Mode::Analytical),
            Some(m) => Err(format!("--mode: unknown mode `{m}` (cycle or analytical)")),
        }
    }

    /// The `--profile` selector: absent or `--profile=fixed` means
    /// [`ProbeMode::Off`] (the paper's hand-chosen counter set), bare
    /// `--profile` or `--profile=auto` enables the auto-probe plan at the
    /// default budget, and `--profile=auto,budget=N` sets an explicit ALM
    /// budget for the knapsack pass. A zero budget or an unknown mode is a
    /// typed error, never a silent fallback (so `budget=0` exits cleanly
    /// instead of panicking inside the profiling unit).
    pub fn profile(&self) -> Result<ProbeMode, String> {
        fn parse(v: &str) -> Result<ProbeMode, String> {
            match v {
                "fixed" => Ok(ProbeMode::Off),
                "auto" => Ok(ProbeMode::auto()),
                _ => match v.strip_prefix("auto,budget=") {
                    Some(b) => match b.parse::<u32>() {
                        Ok(0) => Err("--profile: a 0-ALM budget selects nothing (one \
                                      counter costs ~30 ALMs plus ~4 per thread)"
                            .to_string()),
                        Ok(n) => Ok(ProbeMode::Auto { budget_alms: n }),
                        Err(_) => Err(format!("--profile: invalid budget `{b}`")),
                    },
                    None => Err(format!(
                        "--profile: unknown mode `{v}` (fixed or auto[,budget=N])"
                    )),
                },
            }
        }
        for (i, a) in self.raw.iter().enumerate() {
            if let Some(v) = a.strip_prefix("--profile=") {
                return parse(v);
            }
            if a == "--profile" {
                // `--profile auto,budget=N` selects a mode; a bare
                // `--profile` (next token is another flag or nothing)
                // means auto at the default budget.
                return match self.raw.get(i + 1).map(|s| s.as_str()) {
                    Some(n) if !n.starts_with("--") => parse(n),
                    _ => Ok(ProbeMode::auto()),
                };
            }
        }
        Ok(ProbeMode::Off)
    }
}

/// How a repro binary obtains its performance numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Event-driven cycle-level simulation (exact, slow).
    Cycle,
    /// Static roofline estimation (`fpga_sim::analytic`, microseconds).
    Analytical,
}

fn parse_number<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid number `{v}`"))
}

/// Default worker count: one worker per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_vec(s.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_parse_and_missing_flags_default() {
        let a = args(&["prog", "--dim", "64", "--out", "/tmp/x", "--jobs", "3"]);
        assert_eq!(a.parsed::<u32>("--dim"), Ok(Some(64)));
        assert_eq!(a.parsed::<i64>("--dim"), Ok(Some(64)));
        assert_eq!(a.path("--out"), Some(PathBuf::from("/tmp/x")));
        assert_eq!(a.jobs(), Ok(3));
        assert_eq!(a.parsed::<u32>("--threads"), Ok(None));
        assert_eq!(a.list::<u32>("--threads"), Ok(None));
    }

    #[test]
    fn equals_style_flags_parse() {
        let a = args(&["prog", "--dim=64", "--out=/tmp/x", "--threads=64,128"]);
        assert_eq!(a.parsed::<u32>("--dim"), Ok(Some(64)));
        assert_eq!(a.path("--out"), Some(PathBuf::from("/tmp/x")));
        assert_eq!(a.list::<u32>("--threads"), Ok(Some(vec![64, 128])));
    }

    #[test]
    fn unparsable_numbers_are_usage_errors_not_defaults() {
        assert_eq!(
            args(&["prog", "--dim", "abc"]).parsed::<u32>("--dim"),
            Err("--dim: invalid number `abc`".to_string())
        );
        assert_eq!(
            args(&["prog", "--dim="]).parsed::<i64>("--dim"),
            Err("--dim: invalid number ``".to_string())
        );
        assert_eq!(
            args(&["prog", "--threads", "64,x"]).list::<u32>("--threads"),
            Err("--threads: invalid number `x`".to_string())
        );
        assert_eq!(
            args(&["prog", "--threshold", "2.5"]).parsed::<f64>("--threshold"),
            Ok(Some(2.5))
        );
        assert!(args(&["prog", "--threshold", "twice"])
            .parsed::<f64>("--threshold")
            .is_err());
    }

    #[test]
    fn lint_flag_spellings() {
        assert_eq!(args(&["prog"]).lint_level(), Ok(LintLevel::Off));
        assert_eq!(args(&["prog", "--lint"]).lint_level(), Ok(LintLevel::Deny));
        assert_eq!(
            args(&["prog", "--lint", "--out", "x"]).lint_level(),
            Ok(LintLevel::Deny)
        );
        assert_eq!(
            args(&["prog", "--lint", "warn"]).lint_level(),
            Ok(LintLevel::Warn)
        );
        assert_eq!(
            args(&["prog", "--lint=off"]).lint_level(),
            Ok(LintLevel::Off)
        );
        assert!(args(&["prog", "--lint=nope"]).lint_level().is_err());
    }

    #[test]
    fn perf_lint_flag_spellings() {
        // Absent → off; bare → warn (perf findings are advisory).
        assert_eq!(args(&["prog"]).perf_lint_level(), Ok(LintLevel::Off));
        assert_eq!(
            args(&["prog", "--perf-lint"]).perf_lint_level(),
            Ok(LintLevel::Warn)
        );
        assert_eq!(
            args(&["prog", "--perf-lint", "--out", "x"]).perf_lint_level(),
            Ok(LintLevel::Warn)
        );
        assert_eq!(
            args(&["prog", "--perf-lint", "deny"]).perf_lint_level(),
            Ok(LintLevel::Deny)
        );
        assert_eq!(
            args(&["prog", "--perf-lint=off"]).perf_lint_level(),
            Ok(LintLevel::Off)
        );
        assert!(args(&["prog", "--perf-lint=nope"])
            .perf_lint_level()
            .is_err());
        // The two gates parse independently.
        let a = args(&["prog", "--lint=deny", "--perf-lint=warn"]);
        assert_eq!(a.lint_level(), Ok(LintLevel::Deny));
        assert_eq!(a.perf_lint_level(), Ok(LintLevel::Warn));
    }

    #[test]
    fn jobs_rejects_zero_and_garbage_and_defaults_to_parallelism() {
        let zero = args(&["prog", "--jobs", "0"]).jobs();
        assert!(zero.is_err(), "--jobs 0 must be a typed error, not a clamp");
        assert!(zero.unwrap_err().contains("at least 1"));
        assert!(args(&["prog", "--jobs", "many"]).jobs().is_err());
        assert!(args(&["prog", "--jobs", "-2"]).jobs().is_err());
        assert_eq!(args(&["prog", "--jobs=8"]).jobs(), Ok(8));
        assert_eq!(args(&["prog"]).jobs(), Ok(default_jobs()));
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn profile_flag_spellings() {
        assert_eq!(args(&["prog"]).profile(), Ok(ProbeMode::Off));
        assert_eq!(
            args(&["prog", "--profile=fixed"]).profile(),
            Ok(ProbeMode::Off)
        );
        let auto_default = ProbeMode::Auto {
            budget_alms: nymble_hls::DEFAULT_PROBE_BUDGET_ALMS,
        };
        assert_eq!(args(&["prog", "--profile"]).profile(), Ok(auto_default));
        assert_eq!(
            args(&["prog", "--profile", "--out", "x"]).profile(),
            Ok(auto_default)
        );
        assert_eq!(
            args(&["prog", "--profile=auto"]).profile(),
            Ok(auto_default)
        );
        assert_eq!(
            args(&["prog", "--profile=auto,budget=512"]).profile(),
            Ok(ProbeMode::Auto { budget_alms: 512 })
        );
        assert_eq!(
            args(&["prog", "--profile", "auto,budget=512"]).profile(),
            Ok(ProbeMode::Auto { budget_alms: 512 })
        );
    }

    #[test]
    fn profile_rejects_zero_budget_and_garbage() {
        // The acceptance case: `budget=0` is a clean CLI error, never a
        // panic inside the profiling unit.
        let zero = args(&["prog", "--profile=auto,budget=0"]).profile();
        assert!(zero.is_err());
        assert!(zero.unwrap_err().contains("selects nothing"));
        assert!(args(&["prog", "--profile=auto,budget=lots"])
            .profile()
            .is_err());
        assert!(args(&["prog", "--profile=sometimes"]).profile().is_err());
        assert!(args(&["prog", "--profile", "auto,budget=0"])
            .profile()
            .is_err());
    }

    #[test]
    fn mode_flag_spellings() {
        assert_eq!(args(&["prog"]).mode(), Ok(Mode::Cycle));
        assert_eq!(args(&["prog", "--mode", "cycle"]).mode(), Ok(Mode::Cycle));
        assert_eq!(
            args(&["prog", "--mode=analytical"]).mode(),
            Ok(Mode::Analytical)
        );
        assert!(args(&["prog", "--mode", "fast"]).mode().is_err());
    }
}
