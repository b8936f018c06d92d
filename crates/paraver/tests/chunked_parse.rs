//! A trace large enough for `parse_prv` to cut its body into chunks (one
//! per core, at least 1 MiB each) parses to the stream it was written
//! from, which is also what a one-chunk parse returns, and an error in
//! its last line is reported with that line's number in the file. On a
//! one-core machine the same input runs as one chunk; the parser's unit
//! tests cover two to four chunks on any machine.

use paraver::model::{Comm, Records, TraceMeta};
use paraver::parse::parse_prv;
use paraver::prv::TraceWriter;

const THREADS: u32 = 16;

/// States, multi-pair events and a comm every 1000 records, in time order.
fn big_trace() -> Records {
    let mut rs = Records::new();
    for i in 0..150_000u64 {
        let thread = (i % THREADS as u64) as u32;
        match i % 3 {
            0 => rs.push_state(thread, i, i + 40, (i % 5) as u32),
            1 => rs.push_event(
                thread,
                i,
                (0..1 + i % 4).map(|k| (42_000_000 + k as u32, i * 1000 + k)),
            ),
            _ if i % 1000 == 2 => rs.push_comm(Comm {
                send_thread: thread,
                recv_thread: (thread + 1) % THREADS,
                logical_send: i,
                physical_send: i + 1,
                logical_recv: i + 2,
                physical_recv: i + 3,
                size: 64,
                tag: i,
            }),
            _ => rs.push_event(thread, i, [(42_000_009, i)]),
        }
    }
    rs
}

#[test]
fn a_multi_chunk_trace_parses_to_what_was_written() {
    let records = big_trace();
    let mut w = TraceWriter::new(Vec::new(), TraceMeta::new("big", 200_000, THREADS)).unwrap();
    w.write_all(&records).unwrap();
    let mut text = w.finish().unwrap();
    assert!(text.len() >= 4 << 20, "{} bytes", text.len());

    let (meta, parsed) = parse_prv(&text).unwrap();
    assert_eq!(meta.num_threads, THREADS);
    assert_eq!(parsed.len(), records.len());
    assert_eq!(parsed, records);

    let lines = text.iter().filter(|&&b| b == b'\n').count();
    text.extend_from_slice(b"2:1:1:1:1:5:42000000\n");
    let e = parse_prv(&text).unwrap_err();
    assert_eq!(e.line, lines + 1);
    assert_eq!(e.reason, "event record has 7 fields, want 6 + 2k (k>=1)");
}
