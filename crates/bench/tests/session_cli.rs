//! The repro binaries' shared command-line session, driven end to end:
//! unknown flags, malformed numeric flags and problem shapes the kernels
//! reject are usage errors (exit 2) instead of silent defaults or panics,
//! and unwritable output paths are one-line failures (exit 1) instead of
//! panics. A stdout closed by its reader ends the run with exit 0.

use std::path::{Path, PathBuf};
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

#[test]
fn out_of_range_problem_shapes_exit_2_before_building_a_kernel() {
    const POSITIVE: &str = "DIM and the thread count must be positive";
    const VECTOR: &str = "DIM must be a multiple of the vector width";
    const SPLIT: &str = "threads must evenly divide the iteration space";
    const PI_POSITIVE: &str = "the thread count and BS_compute must be positive";
    const PI_SPLIT: &str = "steps must divide evenly over threads × BS_compute";
    const COLS: &str = "the SpMV column count must be positive";
    let gemm = env!("CARGO_BIN_EXE_repro_gemm");
    let pi = env!("CARGO_BIN_EXE_repro_pi");
    let scale = env!("CARGO_BIN_EXE_repro_scale");
    let ablations = env!("CARGO_BIN_EXE_repro_ablations");
    let overhead = env!("CARGO_BIN_EXE_repro_overhead");
    let cases: [(&str, &[&str], &str); 11] = [
        (gemm, &["--dim", "5"], VECTOR),
        (gemm, &["--threads", "0"], POSITIVE),
        (gemm, &["--dim", "64", "--threads", "3"], SPLIT),
        (pi, &["--threads", "3"], PI_SPLIT),
        (pi, &["--threads", "0"], PI_POSITIVE),
        (scale, &["--threads", "0"], POSITIVE),
        (scale, &["--dim", "5"], VECTOR),
        (scale, &["--cols", "0"], COLS),
        (ablations, &["--dim", "5"], VECTOR),
        (overhead, &["--threads", "0"], POSITIVE),
        (overhead, &["--threads", "3"], SPLIT),
    ];
    for (bin, args, reason) in cases {
        let out = run(bin, args);
        let err = stderr(&out);
        let name = Path::new(bin).file_name().unwrap().to_string_lossy();
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {err}");
        assert!(!err.contains("panicked"), "{name} {args:?}: {err}");
        assert_eq!(err, format!("{name}: {reason}\n"), "{name} {args:?}");
        assert!(out.stdout.is_empty(), "{name} {args:?}: nothing ran");
    }
}

/// The reader is gone before the first line: the first write gets `EPIPE`,
/// which ends the run quietly instead of panicking with exit 101.
#[test]
fn closed_stdout_exits_0_without_a_panic() {
    let dir = scratch("closed");
    let out_dir = dir.to_str().unwrap();
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_repro_scale"),
            &[
                "--dim",
                "16",
                "--rows",
                "256",
                "--threads",
                "16",
                "--jobs",
                "2",
                "--out",
                out_dir,
            ][..],
        ),
        (env!("CARGO_BIN_EXE_repro_overhead"), &["--jobs", "2"]),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn repro binary");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{bin}: {err}");
        assert_eq!(out.status.code(), Some(0), "{bin}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
