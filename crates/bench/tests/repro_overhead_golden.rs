//! `repro_overhead`'s tables, pinned byte for byte. The study is static
//! (cost-model fits, no simulation), so its stdout is deterministic at a
//! fixed `--jobs` (the last line names the worker count). Both profile
//! modes are pinned: the fixed counter set and the auto-probe plan.
//!
//! After an intended change of the cost model, regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p bench --test repro_overhead_golden
//! ```

use std::path::PathBuf;
use std::process::Command;

fn check(golden: &str, extra: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_overhead"))
        .args(["--threads", "4", "--jobs", "2"])
        .args(extra)
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
fn fixed_counter_set_tables_match_golden() {
    check("repro_overhead_fixed.txt", &[]);
}

#[test]
fn auto_probe_tables_match_golden() {
    check("repro_overhead_auto.txt", &["--profile=auto"]);
}
