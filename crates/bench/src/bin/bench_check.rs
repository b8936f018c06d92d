//! Warn-only perf-trajectory gate for CI (`bench-smoke` job).
//!
//! Compares a freshly emitted `--bench-json` snapshot against the
//! committed baseline (`BENCH_pi.json` / `BENCH_gemm.json` /
//! `BENCH_scale.json` at the repo root) and prints a GitHub Actions
//! `::warning::` annotation when wall time regressed more than the
//! threshold (default 2×). It NEVER fails the build: CI runners have
//! noisy, heterogeneous hardware, so a wall regression is a prompt for a
//! human look, not a red X. A missing baseline (first run on a new
//! binary) is likewise only a note.
//!
//! `--extras` widens the gate to named `extra` entries of the snapshot —
//! the scaling study uses it to watch per-thread-count wall times and the
//! wheel-vs-heap speedup, so a dispatch-core regression that only shows
//! at T=256 still gets an annotation. Each entry drifts symmetrically: a
//! value is flagged when it moves beyond `threshold`× in either
//! direction, which catches both a wall time doubling and a speedup
//! halving with one rule.
//!
//! Usage: `bench_check --current PATH --committed PATH [--threshold X]
//!                     [--extras KEY[=X][,KEY[=X]...]]`

use bench::args::Args;
use bench::snapshot::PerfSnapshot;
use std::path::Path;

fn main() {
    let args = Args::parse();
    let Some(current) = args.path("--current") else {
        eprintln!("bench_check: --current PATH is required");
        std::process::exit(2);
    };
    let Some(committed) = args.path("--committed") else {
        eprintln!("bench_check: --committed PATH is required");
        std::process::exit(2);
    };
    let threshold = args
        .parsed("--threshold")
        .unwrap_or_else(|e| {
            eprintln!("bench_check: {e}");
            std::process::exit(2);
        })
        .unwrap_or(2.0);
    let extras = match args.value_of("--extras") {
        Some(list) => match parse_extras(list, threshold) {
            Ok(specs) => specs,
            Err(e) => {
                eprintln!("bench_check: {e}");
                std::process::exit(2);
            }
        },
        None => Vec::new(),
    };
    for verdict in check(&current, &committed, threshold, &extras) {
        match verdict {
            Verdict::Ok(msg) | Verdict::Note(msg) => println!("{msg}"),
            Verdict::Warning(msg) => println!("::warning::{msg}"),
        }
    }
    // Always exit 0: this gate informs, it does not block.
}

enum Verdict {
    Ok(String),
    Note(String),
    Warning(String),
}

/// One `--extras` entry: a snapshot `extra` key plus its drift threshold.
struct ExtraSpec {
    key: String,
    threshold: f64,
}

/// Parse `KEY[=THRESHOLD],...`; entries without `=X` use the global
/// threshold.
fn parse_extras(list: &str, default_threshold: f64) -> Result<Vec<ExtraSpec>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|entry| match entry.split_once('=') {
            Some((key, t)) => {
                let threshold = t
                    .parse::<f64>()
                    .map_err(|_| format!("bad --extras threshold in {entry:?}"))?;
                if threshold <= 1.0 {
                    return Err(format!("--extras threshold must be > 1.0 in {entry:?}"));
                }
                Ok(ExtraSpec {
                    key: key.to_string(),
                    threshold,
                })
            }
            None => Ok(ExtraSpec {
                key: entry.to_string(),
                threshold: default_threshold,
            }),
        })
        .collect()
}

fn check(current: &Path, committed: &Path, threshold: f64, extras: &[ExtraSpec]) -> Vec<Verdict> {
    let cur = match PerfSnapshot::read(current) {
        Ok(s) => s,
        Err(e) => {
            return vec![Verdict::Note(format!(
                "bench_check: no current snapshot ({e})"
            ))]
        }
    };
    let base = match PerfSnapshot::read(committed) {
        Ok(s) => s,
        Err(e) => {
            return vec![Verdict::Note(format!(
                "bench_check: no committed baseline ({e}); commit the current snapshot to start the trajectory"
            ))]
        }
    };
    let mut verdicts = vec![compare(&cur, &base, threshold)];
    verdicts.extend(extras.iter().map(|spec| compare_extra(&cur, &base, spec)));
    verdicts
}

/// The wall-clock comparison, separated from I/O for testing.
fn compare(cur: &PerfSnapshot, base: &PerfSnapshot, threshold: f64) -> Verdict {
    if base.wall_seconds <= 0.0 {
        return Verdict::Note(format!(
            "bench_check: committed baseline has non-positive wall_seconds ({}); skipping",
            base.wall_seconds
        ));
    }
    let ratio = cur.wall_seconds / base.wall_seconds;
    let detail = format!(
        "{}: wall {:.3}s vs committed {:.3}s ({ratio:.2}x), {} vs {} simulated cycles",
        cur.binary, cur.wall_seconds, base.wall_seconds, cur.sim_cycles, base.sim_cycles
    );
    if ratio > threshold {
        Verdict::Warning(format!(
            "{detail} — exceeds the {threshold:.1}x wall-time regression threshold; \
             worth a look (CI hardware is noisy, so this does not fail the build)"
        ))
    } else {
        Verdict::Ok(format!("bench_check: within threshold — {detail}"))
    }
}

/// One named-extra comparison: symmetric drift check, so it flags a
/// speedup that halved as readily as a wall time that doubled.
fn compare_extra(cur: &PerfSnapshot, base: &PerfSnapshot, spec: &ExtraSpec) -> Verdict {
    let key = &spec.key;
    let (Some(c), Some(b)) = (cur.extra_value(key), base.extra_value(key)) else {
        return Verdict::Note(format!(
            "bench_check: extra {key:?} missing from current or committed snapshot; skipping"
        ));
    };
    if b <= 0.0 {
        return Verdict::Note(format!(
            "bench_check: committed extra {key:?} is non-positive ({b}); skipping"
        ));
    }
    let ratio = c / b;
    let detail = format!(
        "{} extra {key}: {c:.3} vs committed {b:.3} ({ratio:.2}x)",
        cur.binary
    );
    if ratio > spec.threshold || ratio < 1.0 / spec.threshold {
        Verdict::Warning(format!(
            "{detail} — drifted beyond the {:.1}x threshold; worth a look \
             (CI hardware is noisy, so this does not fail the build)",
            spec.threshold
        ))
    } else {
        Verdict::Ok(format!("bench_check: within threshold — {detail}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(wall: f64) -> PerfSnapshot {
        PerfSnapshot::new("repro_pi", "cycle", wall, 1_000)
    }

    fn snap_extra(key: &str, value: f64) -> PerfSnapshot {
        snap(1.0).with_extra(key, value)
    }

    fn spec(key: &str, threshold: f64) -> ExtraSpec {
        ExtraSpec {
            key: key.to_string(),
            threshold,
        }
    }

    #[test]
    fn within_threshold_is_ok() {
        assert!(matches!(
            compare(&snap(1.9), &snap(1.0), 2.0),
            Verdict::Ok(_)
        ));
    }

    #[test]
    fn beyond_threshold_warns() {
        let v = compare(&snap(2.1), &snap(1.0), 2.0);
        let Verdict::Warning(msg) = v else {
            panic!("expected a warning");
        };
        assert!(msg.contains("2.10x"));
    }

    #[test]
    fn zero_baseline_is_a_note_not_a_division() {
        assert!(matches!(
            compare(&snap(1.0), &snap(0.0), 2.0),
            Verdict::Note(_)
        ));
    }

    #[test]
    fn missing_files_are_notes() {
        let missing = Path::new("/nonexistent/snapshot.json");
        let verdicts = check(missing, missing, 2.0, &[]);
        assert_eq!(verdicts.len(), 1);
        assert!(matches!(verdicts[0], Verdict::Note(_)));
    }

    #[test]
    fn extra_within_threshold_is_ok() {
        let v = compare_extra(
            &snap_extra("wheel_speedup", 1.6),
            &snap_extra("wheel_speedup", 1.7),
            &spec("wheel_speedup", 1.3),
        );
        assert!(matches!(v, Verdict::Ok(_)));
    }

    #[test]
    fn extra_regression_warns_in_both_directions() {
        // A speedup that halved (ratio 0.5 < 1/1.3)...
        let v = compare_extra(
            &snap_extra("wheel_speedup", 0.85),
            &snap_extra("wheel_speedup", 1.7),
            &spec("wheel_speedup", 1.3),
        );
        assert!(matches!(v, Verdict::Warning(_)));
        // ...and a wall time that tripled (ratio 3.0 > 2.0).
        let v = compare_extra(
            &snap_extra("gemm_wall_s_t256", 30.0),
            &snap_extra("gemm_wall_s_t256", 10.0),
            &spec("gemm_wall_s_t256", 2.0),
        );
        assert!(matches!(v, Verdict::Warning(_)));
    }

    #[test]
    fn missing_extra_is_a_note() {
        let v = compare_extra(
            &snap(1.0),
            &snap_extra("wheel_speedup", 1.7),
            &spec("wheel_speedup", 1.3),
        );
        assert!(matches!(v, Verdict::Note(_)));
    }

    #[test]
    fn extras_list_parses_per_key_thresholds() {
        let specs = parse_extras("wheel_speedup=1.3, gemm_wall_s_t256", 2.0).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].key, "wheel_speedup");
        assert!((specs[0].threshold - 1.3).abs() < 1e-12);
        assert_eq!(specs[1].key, "gemm_wall_s_t256");
        assert!((specs[1].threshold - 2.0).abs() < 1e-12);
        assert!(parse_extras("k=abc", 2.0).is_err());
        assert!(parse_extras("k=0.9", 2.0).is_err());
    }
}
