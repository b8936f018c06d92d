//! `nymble-lint` — command-line front end of the static analyzer.
//!
//! ```text
//! nymble-lint [--lint=deny|warn|off] [--perf-lint=deny|warn|off] [--json]
//!             [--set clean|buggy|all] [--kernel NAME] [--list]
//! ```
//!
//! The built-in registry covers every shipped kernel (GEMM v1–v5, π, tree
//! reduction, vector add, dot, Jacobi, histogram, SpMV) plus the lint
//! fixtures. The *clean* set (shipped kernels + near-miss fixtures) must
//! produce no diagnostics; the *buggy* set runs in expectation mode — each
//! fixture must produce exactly its declared codes. CI runs both, so the
//! process exit code is the gate:
//!
//! * `0` — everything matched expectations (or `--lint=warn/off`),
//! * `1` — a clean kernel produced diagnostics under `--lint=deny`, or a
//!   buggy fixture did not reproduce its expected codes,
//! * `2` — a usage error, or a failed write to stdout. A stdout closed by
//!   its reader (`nymble-lint | head -3`) ends the run with exit 0.

use kernels::fixtures;
use kernels::gemm::{GemmParams, GemmVersion};
use kernels::pi::PiParams;
use nymble_ir::Kernel;
use nymble_lint::{lint_kernel, perf_lint_kernel, Code, LintLevel};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

struct Entry {
    name: String,
    kernel: Kernel,
    /// Expected codes; empty means "must be clean".
    expect: Vec<Code>,
    /// Whether this entry belongs to the buggy (expectation) set.
    buggy: bool,
    /// Performance-family fixture: additionally run the `NP0xx` analyzer
    /// and merge its findings. Shipped kernels stay correctness-only here
    /// — their perf profile is the business of the repro binaries, where
    /// `--perf-lint=warn` reports it without gating.
    perf: bool,
}

fn registry() -> Vec<Entry> {
    let mut entries = Vec::new();
    // Shipped kernels, at the dimensions of the repo's fast test tier.
    let gp = GemmParams {
        dim: 32,
        threads: 4,
        vec: 4,
        block: 8,
    };
    for v in GemmVersion::ALL {
        entries.push(Entry {
            name: format!("gemm_{}", v.name()),
            kernel: kernels::gemm::build(v, &gp),
            expect: Vec::new(),
            buggy: false,
            perf: false,
        });
    }
    entries.push(Entry {
        name: "pi".into(),
        kernel: kernels::pi::build(&PiParams {
            steps: 1024,
            threads: 4,
            bs: 8,
        }),
        expect: Vec::new(),
        buggy: false,
        perf: false,
    });
    entries.push(Entry {
        name: "tree_reduce".into(),
        kernel: kernels::reduction::build(64, 4),
        expect: Vec::new(),
        buggy: false,
        perf: false,
    });
    entries.push(Entry {
        name: "vecadd".into(),
        kernel: kernels::extra::vecadd(64, 4),
        expect: Vec::new(),
        buggy: false,
        perf: false,
    });
    entries.push(Entry {
        name: "dot".into(),
        kernel: kernels::extra::dot(64, 4),
        expect: Vec::new(),
        buggy: false,
        perf: false,
    });
    entries.push(Entry {
        name: "jacobi".into(),
        kernel: kernels::extra::jacobi(16, 4),
        expect: Vec::new(),
        buggy: false,
        perf: false,
    });
    entries.push(Entry {
        name: "histogram".into(),
        kernel: kernels::extra::histogram(64, 8, 4),
        expect: Vec::new(),
        buggy: false,
        perf: false,
    });
    entries.push(Entry {
        name: "spmv".into(),
        kernel: kernels::spmv::build(16, 4),
        expect: Vec::new(),
        buggy: false,
        perf: false,
    });
    // Lint fixtures: near-misses join the clean set, triggering fixtures
    // form the buggy set.
    for f in fixtures::all() {
        let expect: Vec<Code> = f
            .expect
            .iter()
            .map(|s| Code::parse(s).expect("fixture declares a valid code"))
            .collect();
        entries.push(Entry {
            name: f.name.to_string(),
            buggy: !expect.is_empty(),
            perf: f.perf,
            kernel: f.kernel,
            expect,
        });
    }
    entries
}

fn usage() -> ! {
    eprintln!(
        "usage: nymble-lint [--lint[=deny|warn|off]] [--perf-lint[=deny|warn|off]] \
         [--json] [--set clean|buggy|all] [--kernel NAME] [--list]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut level = LintLevel::Deny;
    let mut perf_level = LintLevel::Deny;
    let mut json = false;
    let mut set = "all".to_string();
    let mut only: Option<String> = None;
    let mut list = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--lint" => level = LintLevel::Deny,
            "--perf-lint" => perf_level = LintLevel::Deny,
            "--json" => json = true,
            "--list" => list = true,
            "--set" => set = take(&mut i),
            "--kernel" => only = Some(take(&mut i)),
            "--help" | "-h" => usage(),
            _ => {
                if let Some(v) = a.strip_prefix("--lint=") {
                    level = LintLevel::parse(v).unwrap_or_else(|| usage());
                } else if let Some(v) = a.strip_prefix("--perf-lint=") {
                    perf_level = LintLevel::parse(v).unwrap_or_else(|| usage());
                } else if let Some(v) = a.strip_prefix("--set=") {
                    set = v.to_string();
                } else if let Some(v) = a.strip_prefix("--kernel=") {
                    only = Some(v.to_string());
                } else {
                    eprintln!("unknown flag: {a}");
                    usage();
                }
            }
        }
        i += 1;
    }
    if !matches!(set.as_str(), "clean" | "buggy" | "all") {
        eprintln!("--set must be clean, buggy or all (got {set})");
        usage();
    }

    let entries: Vec<Entry> = registry()
        .into_iter()
        .filter(|e| match set.as_str() {
            "clean" => !e.buggy,
            "buggy" => e.buggy,
            _ => true,
        })
        .filter(|e| only.as_deref().is_none_or(|n| e.name == n))
        // With the perf family off, its fixtures have no expectation to
        // check — drop them so `--perf-lint=off` output is byte-identical
        // to the pre-NP registry.
        .filter(|e| perf_level != LintLevel::Off || !e.perf)
        .collect();
    if entries.is_empty() {
        eprintln!("no kernel matches the selection");
        return ExitCode::from(2);
    }
    let mut out = std::io::stdout().lock();
    match run(&entries, list, level, json, &mut out).and_then(|f| out.flush().map(|()| f)) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("nymble-lint: {failed} kernel(s) failed the gate");
            ExitCode::FAILURE
        }
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nymble-lint: cannot write output: {e}");
            ExitCode::from(2)
        }
    }
}

/// List, skip or lint `entries`, writing the report to `out`; returns how
/// many kernels failed the gate.
fn run(
    entries: &[Entry],
    list: bool,
    level: LintLevel,
    json: bool,
    out: &mut impl Write,
) -> std::io::Result<usize> {
    if list {
        for e in entries {
            let tag = if e.buggy { "buggy" } else { "clean" };
            writeln!(out, "{:<24} {tag}", e.name)?;
        }
        return Ok(0);
    }
    if level == LintLevel::Off {
        writeln!(out, "lint off: {} kernel(s) skipped", entries.len())?;
        return Ok(0);
    }

    let mut failed = 0usize;
    let mut json_reports: Vec<String> = Vec::new();
    for e in entries {
        let mut report = lint_kernel(&e.kernel);
        if e.perf {
            report
                .diagnostics
                .extend(perf_lint_kernel(&e.kernel).diagnostics);
        }
        if json {
            // One JSON array per kernel would not concatenate, so collect
            // all diagnostics into a single top-level array.
            let body = report.to_json();
            if body != "[]" {
                json_reports.push(body[1..body.len() - 1].trim_matches('\n').to_string());
            }
        } else {
            write!(out, "{}", report.render_human())?;
        }
        if e.buggy {
            // Expectation mode: the fixture must produce exactly its codes.
            if report.codes() != e.expect {
                failed += 1;
                eprintln!(
                    "FAIL {}: expected {:?}, got {:?}",
                    e.name,
                    e.expect.iter().map(|c| c.as_str()).collect::<Vec<_>>(),
                    report
                        .codes()
                        .iter()
                        .map(|c| c.as_str())
                        .collect::<Vec<_>>()
                );
            }
        } else if !report.is_clean() && level == LintLevel::Deny {
            failed += 1;
            eprintln!("FAIL {}: expected clean, found diagnostics", e.name);
        }
    }
    if json {
        if json_reports.is_empty() {
            writeln!(out, "[]")?;
        } else {
            writeln!(out, "[\n{}\n]", json_reports.join(",\n"))?;
        }
    }
    Ok(failed)
}
