//! Pinned `.prv` reader behaviour: for each input, the exact records that
//! `parse_prv` returns or the exact `(line, reason)` of its `ParseError`.
//! Every input is parsed both as `&str` and as `&[u8]`.

use paraver::model::{Comm, Records};
use paraver::parse::{parse_prv, ParseError};

/// A two-thread, 100-cycle header.
const H: &str = "#Paraver (d):100:1(2):1:1(2:1)\n";

enum Want {
    Records(Records),
    Error(usize, &'static str),
}

/// The records that `push` appends to an empty stream.
fn records(push: impl FnOnce(&mut Records)) -> Want {
    let mut rs = Records::new();
    push(&mut rs);
    Want::Records(rs)
}

fn cases() -> Vec<(&'static str, String, Want)> {
    use Want::Error;
    let body = |s: &str| format!("{H}{s}");
    vec![
        ("empty text", String::new(), Error(0, "empty trace")),
        (
            "bad header",
            "not a header\n".into(),
            Error(1, "header must start with `#Paraver (`"),
        ),
        (
            "bad ftime",
            "#Paraver (d):x:1(2):1:1(2:1)\n".into(),
            Error(1, "bad ftime `x`"),
        ),
        (
            "unknown kind",
            body("9:1:1:1:1:0\n"),
            Error(2, "unknown record kind 9"),
        ),
        (
            "kind 256",
            body("256:1:1:1:1:0:10:1\n"),
            Error(2, "bad record kind `256`"),
        ),
        (
            "state with 7 fields",
            body("1:1:1:1:1:0:10\n"),
            Error(2, "state record has 7 fields, want 8"),
        ),
        (
            "state with 9 fields",
            body("1:1:1:1:1:0:10:1:5\n"),
            Error(2, "state record has 9 fields, want 8"),
        ),
        (
            "event without a pair",
            body("2:1:1:1:1:5\n"),
            Error(2, "event record has 6 fields, want 6 + 2k (k>=1)"),
        ),
        (
            "event with half a pair",
            body("2:1:1:1:1:5:42000001:3:42000002\n"),
            Error(2, "event record has 9 fields, want 6 + 2k (k>=1)"),
        ),
        (
            "comm with 14 fields",
            body("3:1:1:1:1:10:11:1:1:1:2:20:21:512\n"),
            Error(2, "comm record has 14 fields, want 15"),
        ),
        (
            "non-numeric field",
            body("1:1:1:1:1:x:10:1\n"),
            Error(2, "bad number `x` in field 5"),
        ),
        (
            "empty field",
            body("1:1:1:1:1::10:1\n"),
            Error(2, "bad number `` in field 5"),
        ),
        (
            "negative field",
            body("2:1:1:1:1:5:42000001:-3\n"),
            Error(2, "bad number `-3` in field 7"),
        ),
        (
            "u64 overflow",
            body("1:1:1:1:1:0:18446744073709551616:1\n"),
            Error(2, "bad number `18446744073709551616` in field 6"),
        ),
        (
            "u64 max",
            body("1:1:1:1:1:0:18446744073709551615:1\n"),
            records(|rs| rs.push_state(0, 0, u64::MAX, 1)),
        ),
        (
            "plus-signed fields",
            body("1:1:1:1:+2:+0:+10:+1\n+2:1:1:1:1:5:+42000001:+3\n"),
            records(|rs| {
                rs.push_state(1, 0, 10, 1);
                rs.push_event(0, 5, [(42_000_001, 3)]);
            }),
        ),
        (
            "lone plus",
            body("1:1:1:1:1:+:10:1\n"),
            Error(2, "bad number `+` in field 5"),
        ),
        (
            "CRLF endings",
            "#Paraver (d):100:1(2):1:1(2:1)\r\n1:1:1:1:1:0:10:1\r\n2:1:1:1:2:5:42000001:7\r\n"
                .into(),
            records(|rs| {
                rs.push_state(0, 0, 10, 1);
                rs.push_event(1, 5, [(42_000_001, 7)]);
            }),
        ),
        (
            "comments and blank lines between records",
            body("\n# a comment\n1:1:1:1:1:0:10:1\n  \t\n#2:x\n2:1:1:1:2:5:42000001:7\n"),
            records(|rs| {
                rs.push_state(0, 0, 10, 1);
                rs.push_event(1, 5, [(42_000_001, 7)]);
            }),
        ),
        (
            "line numbers count skipped lines",
            body("\n# a comment\n1:1:1:1:1:0:10:1\n\nbad\n"),
            Error(6, "bad record kind `bad`"),
        ),
        (
            "ASCII whitespace around a record",
            body("\x0b 1:1:1:1:1:0:10:1\x0c\t\n"),
            records(|rs| rs.push_state(0, 0, 10, 1)),
        ),
        (
            "space inside a field",
            body("1:1:1:1:1: 0:10:1\n"),
            Error(2, "bad number ` 0` in field 5"),
        ),
        (
            "comm ignores cpu/appl/task fields",
            body("3:a:b:c:1:10:11:d:e:f:2:20:21:512:7\n"),
            records(|rs| {
                rs.push_comm(Comm {
                    send_thread: 0,
                    recv_thread: 1,
                    logical_send: 10,
                    physical_send: 11,
                    logical_recv: 20,
                    physical_recv: 21,
                    size: 512,
                    tag: 7,
                })
            }),
        ),
        // Thread ids are 1-based and bounded by the header; state values
        // and event types must fit a u32 instead of being truncated.
        (
            "thread id 0",
            body("1:1:1:1:0:0:10:1\n"),
            Error(2, "thread id 0 in field 4 is out of range 1..=2"),
        ),
        (
            "thread id above the header's count",
            body("1:1:1:1:1:0:10:1\n2:1:1:1:3:5:42000001:7\n"),
            Error(3, "thread id 3 in field 4 is out of range 1..=2"),
        ),
        (
            "comm receiver thread id 0",
            body("3:1:1:1:1:10:11:1:1:1:0:20:21:512:7\n"),
            Error(2, "thread id 0 in field 10 is out of range 1..=2"),
        ),
        (
            "state above u32::MAX",
            body("1:1:1:1:1:0:10:4294967296\n"),
            Error(
                2,
                "state 4294967296 in field 7 is out of range 0..=4294967295",
            ),
        ),
        (
            "event type above u32::MAX",
            body("2:1:1:1:1:5:42000001:3:4294967298:4\n"),
            Error(
                2,
                "event type 4294967298 in field 8 is out of range 0..=4294967295",
            ),
        ),
        (
            "a malformed number outranks a bad thread id",
            body("1:1:1:1:0:x:10:1\n"),
            Error(2, "bad number `x` in field 5"),
        ),
    ]
}

fn check(name: &str, got: Result<Records, ParseError>, want: &Want) {
    match (got, want) {
        (Ok(rs), Want::Records(w)) => assert_eq!(&rs, w, "{name}"),
        (Err(e), Want::Error(line, reason)) => {
            assert_eq!((e.line, e.reason.as_str()), (*line, *reason), "{name}")
        }
        (Ok(rs), Want::Error(line, reason)) => {
            panic!("{name}: parsed {rs:?}, want error at line {line}: {reason}")
        }
        (Err(e), Want::Records(_)) => panic!("{name}: {e}"),
    }
}

#[test]
fn malformed_inputs_give_pinned_records_or_errors() {
    for (name, text, want) in cases() {
        check(name, parse_prv(text.as_str()).map(|(_, rs)| rs), &want);
        check(name, parse_prv(text.as_bytes()).map(|(_, rs)| rs), &want);
    }
}
