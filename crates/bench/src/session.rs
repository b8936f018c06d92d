//! # session — the command-line session shared by the `repro_*` binaries
//!
//! Every repro binary takes the same cross-cutting flags: `--jobs N`,
//! `--mode cycle|analytical`, `--lint[=LEVEL]`, `--perf-lint[=LEVEL]`,
//! `--profile[=fixed|auto[,budget=N]]` and `--out DIR`.
//! [`Session::start`] parses them once. From there the session owns the
//! invocation's plumbing:
//!
//! * an unknown flag or a malformed flag value prints its message and
//!   exits with status 2 (usage error); the binaries' own flags go through
//!   the same path ([`Session::flag`], [`Session::list`]), and so does a
//!   problem shape the kernels reject ([`Session::check_shape`]);
//! * [`Session::gate`] runs both static-analysis gates and exits with
//!   status 1 when one refuses a kernel;
//! * [`Session::out_dir`] turns an I/O failure into one line naming the
//!   path and exit status 1, never a panic;
//! * [`Session::write_stdout`] runs the binary's output through a locked
//!   stdout: a reader that closes it early ends the run with status 0, and
//!   any other write error is one line and status 1 (the examples share
//!   the same [`write_stdout`]).
//!
//! Each binary keeps only its own flags (`--dim`, `--threads`, ...) and its
//! tables. Performance is measured from outside, by hlsbench.

use crate::args::{Args, Mode, ProfileMode};
use crate::{lint_gate, perf_lint_gate};
use nymble_hls::HlsConfig;
use nymble_ir::Kernel;
use nymble_lint::LintLevel;
use std::io::{self, StdoutLock, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// The flags every repro binary accepts.
const SHARED_FLAGS: [&str; 6] = [
    "--jobs",
    "--mode",
    "--lint",
    "--perf-lint",
    "--profile",
    "--out",
];

/// One invocation of a repro binary: its shared flags and its output
/// paths.
pub struct Session {
    binary: &'static str,
    args: Args,
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
    /// Parse the process arguments of `binary`, whose own flags are
    /// `own_flags`; an unknown flag or a malformed shared flag exits with
    /// status 2.
    pub fn start(binary: &'static str, own_flags: &[&str]) -> Session {
        Session::from_args(binary, own_flags, Args::parse()).unwrap_or_else(|e| exit_usage(&e))
    }

    fn from_args(binary: &'static str, own_flags: &[&str], args: Args) -> Result<Session, String> {
        let known: Vec<&str> = SHARED_FLAGS.iter().chain(own_flags).copied().collect();
        args.reject_unknown(&known)?;
        Ok(Session {
            binary,
            jobs: args.jobs()?,
            lint: args.lint_level()?,
            perf_lint: args.perf_lint_level()?,
            mode: args.mode()?,
            profile: args.profile()?,
            args,
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

    /// Exit with status 2 and one line naming the binary when a problem
    /// shape is invalid (`GemmParams::validate`, `PiParams::validate`), so
    /// an out-of-range flag never reaches a kernel builder's panic.
    pub fn check_shape(&self, shape: Result<(), &str>) {
        if let Err(e) = shape {
            exit_usage(&format!("{}: {e}", self.binary));
        }
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

    /// [`write_stdout`] under this binary's name.
    pub fn write_stdout(
        &self,
        body: impl FnOnce(&mut StdoutLock<'static>) -> io::Result<()>,
    ) -> ExitCode {
        write_stdout(self.binary, body)
    }
}

/// Run `program`'s `body` against a locked stdout and return the exit
/// status: 0 when it succeeds or its reader closed stdout early (`| head`),
/// 1 with one line naming `program` on any other write error. The repro
/// binaries reach it through [`Session::write_stdout`], the examples
/// directly.
pub fn write_stdout(
    program: &str,
    body: impl FnOnce(&mut StdoutLock<'static>) -> io::Result<()>,
) -> ExitCode {
    let mut out = io::stdout().lock();
    match body(&mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{program}: cannot write output: {e}");
            ExitCode::FAILURE
        }
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

    fn session(argv: &[&str], own_flags: &[&str]) -> Result<Session, String> {
        let args = Args::from_vec(argv.iter().map(|s| s.to_string()).collect());
        Session::from_args("repro_test", own_flags, args)
    }

    #[test]
    fn shared_flags_parse_once_with_their_defaults() {
        let argv = ["prog", "--jobs=3", "--lint", "--profile=auto,budget=512"];
        let s = session(&argv, &["--dim"]).unwrap();
        assert_eq!(s.jobs, 3);
        assert_eq!(s.lint, LintLevel::Deny);
        assert_eq!(s.perf_lint, LintLevel::Off);
        assert_eq!(s.mode, Mode::Cycle);
        assert_eq!(s.profile, ProfileMode::Auto { budget_alms: 512 });
        assert_eq!(s.hls().probe, s.profile.probe());
        assert_eq!(s.flag("--dim", 128u32), 128);
    }

    #[test]
    fn flags_outside_the_shared_and_own_sets_are_usage_errors() {
        assert!(session(&["prog", "--dim", "64", "--perf-lint"], &["--dim"]).is_ok());
        let err = |argv: &[&str]| session(argv, &["--dim"]).err();
        assert_eq!(
            err(&["prog", "--dims", "64"]).unwrap(),
            "--dims: unknown flag"
        );
        assert_eq!(err(&["prog", "--dims=64"]).unwrap(), "--dims: unknown flag");
        assert_eq!(
            err(&["prog", "--threads", "8"]).unwrap(),
            "--threads: unknown flag"
        );
    }
}
