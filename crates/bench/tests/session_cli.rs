//! The repro binaries' shared command-line session, driven end to end:
//! unknown flags and malformed numeric flags are usage errors (exit 2)
//! instead of silent defaults, and unwritable output paths are one-line
//! failures (exit 1) instead of panics.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn repro binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("session-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unparsable_numeric_flags_exit_2_worded_like_jobs() {
    let gemm = env!("CARGO_BIN_EXE_repro_gemm");
    let out = run(gemm, &["--dim", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stderr(&out), "--dim: invalid number `abc`\n");

    let out = run(env!("CARGO_BIN_EXE_repro_scale"), &["--threads", "64,x"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stderr(&out), "--threads: invalid number `x`\n");

    // The shared flags keep their messages and exit codes.
    let out = run(gemm, &["--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "--jobs: worker count must be at least 1 (got 0)\n"
    );
}

#[test]
fn unknown_flags_exit_2_instead_of_running_the_defaults() {
    let out = run(
        env!("CARGO_BIN_EXE_repro_ablations"),
        &["--bench-json", "x"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stderr(&out), "--bench-json: unknown flag\n");
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn an_uncreatable_trace_directory_fails_without_panicking() {
    let dir = scratch("out");
    let blocker = dir.join("file");
    std::fs::write(&blocker, b"x").unwrap();
    let out_dir = blocker.join("traces");
    let out = run(
        env!("CARGO_BIN_EXE_repro_pi"),
        &["--mode", "analytical", "--out", out_dir.to_str().unwrap()],
    );
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(
        err.starts_with("repro_pi: cannot create --out directory "),
        "{err}"
    );
    assert!(err.contains(out_dir.to_str().unwrap()), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
