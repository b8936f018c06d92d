//! # session — the command-line session shared by the `repro_*` binaries
//!
//! Every repro binary takes the same cross-cutting flags: `--jobs N`,
//! `--mode cycle|analytical`, `--lint[=LEVEL]`, `--perf-lint[=LEVEL]`,
//! `--profile[=fixed|auto[,budget=N]]`, `--out DIR` and `--bench-json PATH`.
//! [`Session::start`] parses them once. From there the session owns the
//! invocation's plumbing:
//!
//! * a malformed flag value prints its message and exits with status 2
//!   (usage error); the binaries' own flags go through the same path
//!   ([`Session::flag`], [`Session::list`]);
//! * [`Session::gate`] runs both static-analysis gates and exits with
//!   status 1 when one refuses a kernel;
//! * [`Session::out_dir`] and [`Session::write_snapshot`] turn an I/O
//!   failure into one line naming the path and exit status 1, never a
//!   panic;
//! * [`Session::snapshot`] and [`Session::sweep_snapshot`] start the
//!   `--bench-json` record with the fields every binary shares.
//!
//! Each binary keeps only its own flags (`--dim`, `--threads`, ...) and its
//! tables.

use crate::args::{Args, Mode, ProfileMode};
use crate::engine::SchedStats;
use crate::harness::SnapshotTimer;
use crate::snapshot::PerfSnapshot;
use crate::{lint_gate, perf_lint_gate};
use nymble_hls::{HlsConfig, ProbePlan};
use nymble_ir::Kernel;
use nymble_lint::LintLevel;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// One invocation of a repro binary: its shared flags, its wall-clock
/// timer and its output paths.
pub struct Session {
    binary: &'static str,
    args: Args,
    timer: SnapshotTimer,
    bench_json: Option<PathBuf>,
    /// `--jobs N`: worker count of the batch engine.
    pub jobs: usize,
    /// `--mode`: cycle-level simulation or the analytical fast mode.
    pub mode: Mode,
    /// `--lint`: gate level of the correctness diagnostics.
    pub lint: LintLevel,
    /// `--perf-lint`: gate level of the performance diagnostics.
    pub perf_lint: LintLevel,
    /// `--profile`: fixed counter set or the auto-probe plan.
    pub profile: ProfileMode,
}

impl Session {
    /// Start timing and parse the process arguments of `binary`; a
    /// malformed shared flag exits with status 2.
    pub fn start(binary: &'static str) -> Session {
        let timer = SnapshotTimer::start();
        Session::from_args(binary, Args::parse(), timer).unwrap_or_else(|e| exit_usage(&e))
    }

    fn from_args(
        binary: &'static str,
        args: Args,
        timer: SnapshotTimer,
    ) -> Result<Session, String> {
        Ok(Session {
            binary,
            jobs: args.jobs()?,
            lint: args.lint_level()?,
            perf_lint: args.perf_lint_level()?,
            mode: args.mode()?,
            profile: args.profile()?,
            bench_json: args.path("--bench-json"),
            args,
            timer,
        })
    }

    /// The binary's own `--flag N`, or `default` when absent; an
    /// unparsable value exits with status 2.
    pub fn flag<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.args
            .parsed(flag)
            .unwrap_or_else(|e| exit_usage(&e))
            .unwrap_or(default)
    }

    /// The binary's own `--flag A,B,C`, or `default` when absent; an
    /// unparsable entry exits with status 2.
    pub fn list<T: FromStr>(&self, flag: &str, default: Vec<T>) -> Vec<T> {
        self.args
            .list(flag)
            .unwrap_or_else(|e| exit_usage(&e))
            .unwrap_or(default)
    }

    /// The HLS configuration `--profile` selects.
    pub fn hls(&self) -> HlsConfig {
        HlsConfig {
            probe: self.profile.probe(),
            ..HlsConfig::default()
        }
    }

    /// Run the `--lint` and then the `--perf-lint` gate over `kernels`
    /// before any simulation time is spent; a refusal prints the report
    /// and exits with status 1.
    pub fn gate(&self, kernels: &[&Kernel]) {
        let refused = lint_gate(kernels, self.lint)
            .and_then(|()| perf_lint_gate(kernels, self.perf_lint))
            .err();
        if let Some(report) = refused {
            eprintln!("{report}");
            std::process::exit(1);
        }
    }

    /// The trace-bundle directory (`--out`, default `target/traces`),
    /// created if missing; exits with status 1 when it cannot be.
    pub fn out_dir(&self) -> PathBuf {
        let out = self
            .args
            .path("--out")
            .unwrap_or_else(|| "target/traces".into());
        if let Err(e) = std::fs::create_dir_all(&out) {
            exit_failure(&format!(
                "{}: cannot create --out directory {}: {e}",
                self.binary,
                out.display()
            ));
        }
        out
    }

    /// `--bench-json PATH`, when given (snapshot-only work is skipped
    /// otherwise).
    pub fn bench_json(&self) -> Option<&Path> {
        self.bench_json.as_deref()
    }

    /// Seconds since the session started.
    pub fn elapsed_seconds(&self) -> f64 {
        self.timer.elapsed_seconds()
    }

    /// The snapshot of this invocation so far: binary, `--mode`, wall time
    /// and `sim_cycles`.
    pub fn snapshot(&self, sim_cycles: u64) -> PerfSnapshot {
        self.timer.finish(self.binary, self.mode, sim_cycles)
    }

    /// [`Session::snapshot`] plus what every sweep records: the `jobs` and
    /// `profile` params, the modeled ALM cost of the auto-probe `plan` (0
    /// under the fixed counter set) as `probe_overhead`, and the
    /// scheduler's `worker_utilization` and `sched_*` counters.
    pub fn sweep_snapshot(
        &self,
        sim_cycles: u64,
        sched: &SchedStats,
        plan: Option<&ProbePlan>,
    ) -> PerfSnapshot {
        self.snapshot(sim_cycles)
            .param("jobs", self.jobs)
            .param("profile", self.profile.name())
            .with_extra("probe_overhead", plan.map_or(0.0, |pl| pl.cost_alms as f64))
            .with_extra("worker_utilization", sched.utilization())
            .with_extra("sched_steals", sched.steals as f64)
            .with_extra("sched_parks", sched.parks as f64)
            .with_extra("sched_makespan_seconds", sched.makespan.as_secs_f64())
    }

    /// Write `snap` to `--bench-json PATH` (a no-op without the flag) and
    /// say so on stdout; exits with status 1 when the file cannot be
    /// written.
    pub fn write_snapshot(&self, snap: &PerfSnapshot) {
        let Some(path) = self.bench_json() else {
            return;
        };
        if let Err(e) = snap.write(path) {
            exit_failure(&format!(
                "{}: cannot write --bench-json {}: {e}",
                self.binary,
                path.display()
            ));
        }
        println!("\nperf snapshot written to {}", path.display());
    }
}

/// Print a usage error and exit with status 2.
fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Print a one-line I/O failure and exit with status 1.
fn exit_failure(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_flags_parse_once_with_their_defaults() {
        let argv = ["prog", "--jobs=3", "--lint", "--profile=auto,budget=512"];
        let args = Args::from_vec(argv.iter().map(|s| s.to_string()).collect());
        let s = Session::from_args("repro_test", args, SnapshotTimer::start()).unwrap();
        assert_eq!(s.jobs, 3);
        assert_eq!(s.lint, LintLevel::Deny);
        assert_eq!(s.perf_lint, LintLevel::Off);
        assert_eq!(s.mode, Mode::Cycle);
        assert_eq!(s.profile, ProfileMode::Auto { budget_alms: 512 });
        assert_eq!(s.hls().probe, s.profile.probe());
        assert_eq!(s.bench_json(), None);
        assert_eq!(s.flag("--dim", 128u32), 128);
    }
}
