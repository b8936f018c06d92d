//! The `nymble-lint` binary with its stdout closed by the reader: the first
//! write gets `EPIPE`, which ends the run with exit 0 instead of a panic.

use std::process::Command;

#[test]
fn closed_stdout_exits_0_without_a_panic() {
    for args in [&[][..], &["--list"], &["--lint=off"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_nymble-lint"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn nymble-lint");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
    }
}
