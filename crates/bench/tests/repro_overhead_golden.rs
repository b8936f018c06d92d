//! `repro_overhead`'s tables, pinned byte for byte. The study is static
//! (cost-model fits, no simulation), so its stdout is deterministic at a
//! fixed `--jobs` (the last line names the worker count). Pinned: the
//! binary's default paper configuration (8 threads), and at 4 threads the
//! fixed counter set, the auto-probe plan at its default budget, and a plan
//! truncated by a tight budget (the knapsack stops after the root counter
//! and one event counter on π).
//!
//! After an intended change of the cost model, regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p bench --test repro_overhead_golden
//! ```

use std::path::PathBuf;
use std::process::Command;

fn check(golden: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_overhead"))
        .args(args)
        .output()
        .expect("spawn repro_overhead");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(w, g, "line {} drifted from {}", i + 1, path.display());
    }
    assert_eq!(want, got, "{} differs in length", path.display());
}

#[test]
fn paper_configuration_tables_match_golden() {
    check(
        "repro_overhead_paper.txt",
        &["--threads", "8", "--jobs", "2"],
    );
}

#[test]
fn fixed_counter_set_tables_match_golden() {
    check(
        "repro_overhead_fixed.txt",
        &["--threads", "4", "--jobs", "2"],
    );
}

#[test]
fn auto_probe_tables_match_golden() {
    check(
        "repro_overhead_auto.txt",
        &["--threads", "4", "--jobs", "2", "--profile=auto"],
    );
}

#[test]
fn truncated_auto_probe_plan_tables_match_golden() {
    check(
        "repro_overhead_budget96.txt",
        &["--threads", "4", "--jobs", "2", "--profile=auto,budget=96"],
    );
}
