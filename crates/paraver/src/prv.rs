//! `.prv` trace-body writer.
//!
//! Line format (all ids 1-based):
//!
//! ```text
//! #Paraver (<date>):<ftime>:<nNodes>(<cpus>):<nAppl>:<nTasks>(<threads>:<node>)
//! 1:<cpu>:<appl>:<task>:<thread>:<begin>:<end>:<state>
//! 2:<cpu>:<appl>:<task>:<thread>:<time>:<type>:<value>[:<type>:<value>]...
//! 3:<cpu>:<a>:<t>:<th>:<lsend>:<psend>:<cpu>:<a>:<t>:<th>:<lrecv>:<precv>:<size>:<tag>
//! ```
//!
//! The writer streams through any [`std::io::Write`]; callers hand it records
//! in non-decreasing time order. Order and thread-range violations surface as
//! typed [`TraceError`]s, never as a panic.

use crate::error::TraceError;
use crate::model::{Record, TraceMeta};
use std::io::{self, Write};

/// Streaming `.prv` writer.
pub struct TraceWriter<W: Write> {
    out: W,
    meta: TraceMeta,
    records_written: u64,
    last_time: u64,
    /// Reusable line buffer: records are rendered with a bare decimal
    /// formatter instead of `fmt` machinery — the writer sits on the hot
    /// side of million-record traces and the formatting cost dominates
    /// otherwise. Output bytes are identical to the `write!` rendering.
    line: Vec<u8>,
}

/// Append `v` in decimal (same bytes `Display` produces).
#[inline]
fn push_u64(line: &mut Vec<u8>, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    line.extend_from_slice(&tmp[i..]);
}

impl<W: Write> TraceWriter<W> {
    /// Create a writer and emit the header line.
    pub fn new(mut out: W, meta: TraceMeta) -> io::Result<Self> {
        // One node holding `num_threads` cpus; one application with one task
        // of `num_threads` threads, all on node 1.
        writeln!(
            out,
            "#Paraver ({}):{}:1({}):1:1({}:1)",
            meta.date, meta.duration, meta.num_threads, meta.num_threads
        )?;
        Ok(TraceWriter {
            out,
            meta,
            records_written: 0,
            last_time: 0,
            line: Vec::with_capacity(128),
        })
    }

    fn check_thread(&self, thread: u32) -> Result<(), TraceError> {
        if thread >= self.meta.num_threads {
            return Err(TraceError::ThreadOutOfRange {
                thread,
                num_threads: self.meta.num_threads,
            });
        }
        Ok(())
    }

    /// Write one record.
    ///
    /// Returns [`TraceError::OutOfOrder`] if `r.sort_time()` is earlier than
    /// the previous record's, and [`TraceError::ThreadOutOfRange`] for a
    /// thread id beyond the trace's thread count; the record is not written
    /// in either case, and the writer stays usable.
    pub fn write(&mut self, r: Record<'_>) -> Result<(), TraceError> {
        if r.sort_time() < self.last_time {
            return Err(TraceError::OutOfOrder {
                prev: self.last_time,
                next: r.sort_time(),
            });
        }
        match r {
            Record::State { thread, .. } | Record::Event { thread, .. } => {
                self.check_thread(thread)?
            }
            Record::Comm(c) => {
                self.check_thread(c.send_thread)?;
                self.check_thread(c.recv_thread)?;
            }
        }
        let line = &mut self.line;
        line.clear();
        match r {
            Record::State {
                thread,
                begin,
                end,
                state,
            } => {
                debug_assert!(begin <= end, "state interval reversed");
                // 1:{tid}:1:1:{tid}:{begin}:{end}:{state}
                line.extend_from_slice(b"1:");
                push_u64(line, (thread + 1) as u64);
                line.extend_from_slice(b":1:1:");
                push_u64(line, (thread + 1) as u64);
                line.push(b':');
                push_u64(line, begin);
                line.push(b':');
                push_u64(line, end);
                line.push(b':');
                push_u64(line, state as u64);
            }
            Record::Event {
                thread,
                time,
                events,
            } => {
                debug_assert!(!events.is_empty(), "event record with no events");
                // 2:{tid}:1:1:{tid}:{time}[:{type}:{value}]...
                line.extend_from_slice(b"2:");
                push_u64(line, (thread + 1) as u64);
                line.extend_from_slice(b":1:1:");
                push_u64(line, (thread + 1) as u64);
                line.push(b':');
                push_u64(line, time);
                for (ty, v) in events {
                    line.push(b':');
                    push_u64(line, ty as u64);
                    line.push(b':');
                    push_u64(line, v);
                }
            }
            Record::Comm(c) => {
                // 3:{s}:1:1:{s}:{ls}:{ps}:{r}:1:1:{r}:{lr}:{pr}:{size}:{tag}
                line.extend_from_slice(b"3:");
                push_u64(line, (c.send_thread + 1) as u64);
                line.extend_from_slice(b":1:1:");
                push_u64(line, (c.send_thread + 1) as u64);
                line.push(b':');
                push_u64(line, c.logical_send);
                line.push(b':');
                push_u64(line, c.physical_send);
                line.push(b':');
                push_u64(line, (c.recv_thread + 1) as u64);
                line.extend_from_slice(b":1:1:");
                push_u64(line, (c.recv_thread + 1) as u64);
                line.push(b':');
                push_u64(line, c.logical_recv);
                line.push(b':');
                push_u64(line, c.physical_recv);
                line.push(b':');
                push_u64(line, c.size);
                line.push(b':');
                push_u64(line, c.tag);
            }
        }
        line.push(b'\n');
        self.out.write_all(line)?;
        self.last_time = r.sort_time();
        self.records_written += 1;
        Ok(())
    }

    /// Write many records.
    pub fn write_all<'a>(
        &mut self,
        rs: impl IntoIterator<Item = Record<'a>>,
    ) -> Result<(), TraceError> {
        for r in rs {
            self.write(r)?;
        }
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writer for a full trace bundle (`.prv` + `.pcf` + `.row`).
///
/// The `.prv` body goes record by record through a [`TraceWriter`]; the
/// `.pcf` and `.row` sidecars are derived from metadata alone and are
/// emitted by [`BundleWriter::finish`].
pub struct BundleWriter {
    writer: TraceWriter<io::BufWriter<std::fs::File>>,
    path_stem: std::path::PathBuf,
    meta: TraceMeta,
    states: Vec<crate::model::StateDef>,
    event_types: Vec<crate::model::EventTypeDef>,
    /// Instrumented source regions as (depth, label) for the `.row`'s
    /// `LEVEL REGION` section; empty without an auto-probe plan.
    regions: Vec<(u32, String)>,
}

impl BundleWriter {
    /// Create `<path_stem>.prv` (header written immediately); `.pcf`/`.row`
    /// follow at [`Self::finish`].
    pub fn create(
        path_stem: &std::path::Path,
        meta: &TraceMeta,
        states: &[crate::model::StateDef],
        event_types: &[crate::model::EventTypeDef],
    ) -> io::Result<Self> {
        let prv = std::fs::File::create(path_stem.with_extension("prv"))?;
        let writer = TraceWriter::new(io::BufWriter::new(prv), meta.clone())?;
        Ok(BundleWriter {
            writer,
            path_stem: path_stem.to_path_buf(),
            meta: meta.clone(),
            states: states.to_vec(),
            event_types: event_types.to_vec(),
            regions: Vec::new(),
        })
    }

    /// Declare the instrumented source-region hierarchy (pre-order
    /// (depth, label) pairs); rendered into the `.row` at finish time.
    pub fn with_regions(mut self, regions: Vec<(u32, String)>) -> Self {
        self.regions = regions;
        self
    }

    /// Write one `.prv` record (see [`TraceWriter::write`] for the typed
    /// ordering and thread-range errors).
    #[inline]
    pub fn write(&mut self, r: Record<'_>) -> Result<(), TraceError> {
        self.writer.write(r)
    }

    /// Flush the `.prv` body and write the `.pcf` and `.row` sidecars.
    pub fn finish(self) -> Result<(), TraceError> {
        self.writer.finish()?;
        std::fs::write(
            self.path_stem.with_extension("pcf"),
            crate::pcf::render(&self.states, &self.event_types),
        )?;
        std::fs::write(
            self.path_stem.with_extension("row"),
            crate::row::render_with_regions(&self.meta, &self.regions),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Comm, Records};

    /// A one-record stream holding the event `(thread, time, pairs)`.
    fn event(thread: u32, time: u64, pairs: &[(u32, u64)]) -> Records {
        let mut rs = Records::new();
        rs.push_event(thread, time, pairs.iter().copied());
        rs
    }

    fn first(rs: &Records) -> Record<'_> {
        rs.get(0).unwrap()
    }

    fn meta() -> TraceMeta {
        TraceMeta::new("test", 100, 2)
    }

    #[test]
    fn header_format() {
        let w = TraceWriter::new(Vec::new(), meta()).unwrap();
        let buf = w.finish().unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s, "#Paraver (01/01/2026 at 00:00):100:1(2):1:1(2:1)\n");
    }

    #[test]
    fn state_and_event_lines() {
        let mut w = TraceWriter::new(Vec::new(), meta()).unwrap();
        let mut rs = Records::new();
        rs.push_state(0, 0, 10, 1);
        rs.push_event(1, 5, [(42_000_001, 7), (42_000_003, 9)]);
        w.write_all(&rs).unwrap();
        let s = String::from_utf8(w.finish().unwrap()).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1], "1:1:1:1:1:0:10:1");
        assert_eq!(lines[2], "2:2:1:1:2:5:42000001:7:42000003:9");
    }

    #[test]
    fn out_of_order_is_a_typed_recoverable_error() {
        let mut w = TraceWriter::new(Vec::new(), meta()).unwrap();
        w.write(first(&event(0, 10, &[(1, 1)]))).unwrap();
        let err = w.write(first(&event(0, 5, &[(1, 1)]))).unwrap_err();
        assert!(matches!(err, TraceError::OutOfOrder { prev: 10, next: 5 }));
        // The writer stays usable: the bad record was not written and a
        // later in-order record still succeeds.
        w.write(first(&event(0, 12, &[(1, 1)]))).unwrap();
        assert_eq!(w.records_written(), 2);
        let s = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(s.lines().count(), 3, "header + two good records");
    }

    #[test]
    fn thread_out_of_range_is_a_typed_error() {
        let mut w = TraceWriter::new(Vec::new(), meta()).unwrap();
        let err = w.write(first(&event(7, 1, &[(1, 1)]))).unwrap_err();
        assert!(matches!(
            err,
            TraceError::ThreadOutOfRange {
                thread: 7,
                num_threads: 2
            }
        ));
    }

    #[test]
    fn comm_line_roundtrip_shape() {
        let mut w = TraceWriter::new(Vec::new(), meta()).unwrap();
        w.write(Record::Comm(&Comm {
            send_thread: 0,
            recv_thread: 1,
            logical_send: 1,
            physical_send: 2,
            logical_recv: 3,
            physical_recv: 4,
            size: 64,
            tag: 9,
        }))
        .unwrap();
        let s = String::from_utf8(w.finish().unwrap()).unwrap();
        assert!(s.lines().nth(1).unwrap().starts_with("3:1:1:1:1:1:2:2:"));
    }

    #[test]
    fn bundle_writer_emits_all_three_files() {
        let dir = std::env::temp_dir().join(format!("prv-bundle-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("t");
        let mut b = BundleWriter::create(
            &stem,
            &meta(),
            &crate::states::defs(),
            &crate::events::defs(),
        )
        .unwrap();
        b.write(first(&event(0, 3, &[(42_000_001, 1)]))).unwrap();
        b.finish().unwrap();
        for ext in ["prv", "pcf", "row"] {
            assert!(stem.with_extension(ext).exists(), ".{ext} missing");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
