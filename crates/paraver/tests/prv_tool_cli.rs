//! `prv_tool`'s exit codes, driven end to end: a malformed `timeline` width,
//! an unknown subcommand or a `diff` of traces with different thread counts
//! is a usage error (exit 2), kept apart from the exit 1 that `validate`
//! reserves for an invalid trace.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A one-thread trace that runs for the whole 100-cycle duration.
const TRACE: &str = "#Paraver (d):100:1(1):1:1(1:1)\n1:1:1:1:1:0:100:1\n";

fn trace_file(tag: &str) -> PathBuf {
    write_trace(tag, TRACE)
}

fn write_trace(tag: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("prv-tool-cli-{tag}-{}.prv", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn prv_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prv_tool"))
        .args(args)
        .output()
        .expect("spawn prv_tool")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn non_numeric_width_exits_2_with_one_line() {
    let path = trace_file("abc");
    let out = prv_tool(&["timeline", path.to_str().unwrap(), "abc"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stderr(&out), "prv_tool: width must be a positive number\n");
    assert!(out.stdout.is_empty(), "nothing rendered");
}

#[test]
fn zero_width_exits_2() {
    let path = trace_file("zero");
    let out = prv_tool(&["timeline", path.to_str().unwrap(), "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stderr(&out), "prv_tool: width must be a positive number\n");
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = prv_tool(&["frobnicate", "t.prv"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("usage: prv_tool "));
}

#[test]
fn valid_timeline_exits_0() {
    let path = trace_file("ok");
    let out = prv_tool(&["timeline", path.to_str().unwrap(), "20"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(!out.stdout.is_empty(), "a timeline is rendered");
    assert!(out.stderr.is_empty());
}

#[test]
fn diff_of_different_thread_counts_exits_2_with_one_line() {
    let two = write_trace(
        "diff-two",
        "#Paraver (d):100:1(2):1:1(2:1)\n1:1:1:1:1:0:100:1\n1:2:1:1:2:0:100:1\n",
    );
    let one = trace_file("diff-one");
    let out = prv_tool(&["diff", two.to_str().unwrap(), one.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "prv_tool: cannot diff a 2-thread trace against a 1-thread trace\n"
    );
    assert!(out.stdout.is_empty(), "nothing rendered");
}
