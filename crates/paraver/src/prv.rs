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
//!
//! One line function renders every record: it builds the line in a stack
//! buffer, two decimal digits per step, and appends it to a byte buffer.
//! [`TraceWriter::write`] hands each line to the output on its own.
//! [`TraceWriter::write_all`] drains a whole stream (a [`crate::Records`]
//! body, say) in one pass: it checks order and thread range, collects
//! consecutive lines in one reused buffer that grows only as far as the
//! stream needs (to about 256 KiB), and hands each full buffer to the
//! output in one `write_all`. Both stay on the calling thread.

use crate::error::TraceError;
use crate::model::{Record, TraceMeta};
use std::io::{self, Write};

/// Size at which [`TraceWriter::write_all`] hands its buffered lines to
/// the output.
#[cfg(not(test))]
const CHUNK_BYTES: usize = 256 << 10;
/// Small enough that a hand-over follows every line or every few lines.
#[cfg(test)]
const CHUNK_BYTES: usize = LINE_BYTES + 128;

/// Capacity of the stack line buffer. Every state and comm line fits; an
/// event line longer than this is appended in pieces.
const LINE_BYTES: usize = 256;

/// Room one `:<u32>:<u64>` event pair needs.
const PAIR_BYTES: usize = 1 + 10 + 1 + 20;

/// `"00" "01" ... "99"`: the two-digit table of [`Line::num`].
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// One `.prv` line under construction on the stack.
struct Line {
    buf: [u8; LINE_BYTES],
    len: usize,
}

impl Line {
    fn new() -> Self {
        Line {
            buf: [0; LINE_BYTES],
            len: 0,
        }
    }

    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.buf[self.len..self.len + b.len()].copy_from_slice(b);
        self.len += b.len();
    }

    /// Append `v` in decimal (the bytes `Display` produces), two digits
    /// per step from the right.
    #[inline]
    fn num(&mut self, mut v: u64) {
        if v < 10 {
            self.buf[self.len] = b'0' + v as u8;
            self.len += 1;
            return;
        }
        let digits = v.ilog10() as usize + 1;
        let out = &mut self.buf[self.len..self.len + digits];
        let mut i = digits;
        while v >= 100 {
            let d = (v % 100) as usize * 2;
            v /= 100;
            i -= 2;
            out[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
        }
        if v >= 10 {
            let d = v as usize * 2;
            out[..2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
        } else {
            out[0] = b'0' + v as u8;
        }
        self.len += digits;
    }

    /// `:<v>`.
    #[inline]
    fn field(&mut self, v: u64) {
        self.bytes(b":");
        self.num(v);
    }

    /// `<kind>:<thread>:1:1:<thread>` with Paraver's 1-based thread id.
    #[inline]
    fn actor(&mut self, prefix: &[u8], thread: u32) {
        self.bytes(prefix);
        self.num(thread as u64 + 1);
        self.bytes(b":1:1:");
        self.num(thread as u64 + 1);
    }

    /// Move the line's bytes to the end of `out`.
    #[inline]
    fn spill(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.buf[..self.len]);
        self.len = 0;
    }
}

/// Append `r`'s `.prv` line, newline included, to `out`, building it in
/// `line`.
#[inline]
fn render(r: Record<'_>, line: &mut Line, out: &mut Vec<u8>) {
    match r {
        Record::State {
            thread,
            begin,
            end,
            state,
        } => {
            debug_assert!(begin <= end, "state interval reversed");
            // 1:{tid}:1:1:{tid}:{begin}:{end}:{state}
            line.actor(b"1:", thread);
            line.field(begin);
            line.field(end);
            line.field(state as u64);
        }
        Record::Event {
            thread,
            time,
            events,
        } => {
            debug_assert!(!events.is_empty(), "event record with no events");
            // 2:{tid}:1:1:{tid}:{time}[:{type}:{value}]...
            line.actor(b"2:", thread);
            line.field(time);
            for (ty, v) in events {
                if line.len + PAIR_BYTES + 1 > LINE_BYTES {
                    line.spill(out);
                }
                line.field(ty as u64);
                line.field(v);
            }
        }
        Record::Comm(c) => {
            // 3:{s}:1:1:{s}:{ls}:{ps}:{r}:1:1:{r}:{lr}:{pr}:{size}:{tag}
            line.actor(b"3:", c.send_thread);
            line.field(c.logical_send);
            line.field(c.physical_send);
            line.actor(b":", c.recv_thread);
            line.field(c.logical_recv);
            line.field(c.physical_recv);
            line.field(c.size);
            line.field(c.tag);
        }
    }
    line.bytes(b"\n");
    line.spill(out);
}

/// Streaming `.prv` writer.
pub struct TraceWriter<W: Write> {
    out: W,
    meta: TraceMeta,
    records_written: u64,
    last_time: u64,
    /// Reusable buffer of [`Self::write`]'s line.
    line: Vec<u8>,
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

    /// Check that `r` may follow the records written so far.
    #[inline]
    fn check(&self, r: Record<'_>) -> Result<(), TraceError> {
        if r.sort_time() < self.last_time {
            return Err(TraceError::OutOfOrder {
                prev: self.last_time,
                next: r.sort_time(),
            });
        }
        match r {
            Record::State { thread, .. } | Record::Event { thread, .. } => {
                self.check_thread(thread)
            }
            Record::Comm(c) => {
                self.check_thread(c.send_thread)?;
                self.check_thread(c.recv_thread)
            }
        }
    }

    /// Write one record.
    ///
    /// Returns [`TraceError::OutOfOrder`] if `r.sort_time()` is earlier than
    /// the previous record's, and [`TraceError::ThreadOutOfRange`] for a
    /// thread id beyond the trace's thread count; the record is not written
    /// in either case, and the writer stays usable.
    pub fn write(&mut self, r: Record<'_>) -> Result<(), TraceError> {
        self.check(r)?;
        self.line.clear();
        render(r, &mut Line::new(), &mut self.line);
        self.out.write_all(&self.line)?;
        self.last_time = r.sort_time();
        self.records_written += 1;
        Ok(())
    }

    /// Write many records: the same bytes and errors as calling
    /// [`Self::write`] on each, handed to the output a buffer at a time.
    ///
    /// At the first record [`Self::write`] would refuse, the lines before
    /// it reach the output and its error is returned.
    pub fn write_all<'a>(
        &mut self,
        rs: impl IntoIterator<Item = Record<'a>>,
    ) -> Result<(), TraceError> {
        let (mut line, mut buf) = (Line::new(), Vec::new());
        let mut result = Ok(());
        for r in rs {
            if let Err(e) = self.check(r) {
                result = Err(e);
                break;
            }
            render(r, &mut line, &mut buf);
            self.last_time = r.sort_time();
            self.records_written += 1;
            // Hand the buffer over before the next line could grow it
            // past the chunk.
            if buf.len() + LINE_BYTES > CHUNK_BYTES {
                self.out.write_all(&buf)?;
                buf.clear();
            }
        }
        self.out.write_all(&buf)?;
        result
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
/// The `.prv` body goes through a [`TraceWriter`]; the `.pcf` and `.row`
/// sidecars are derived from metadata alone and are emitted by
/// [`BundleWriter::finish`].
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
    pub fn write(&mut self, r: Record<'_>) -> Result<(), TraceError> {
        self.writer.write(r)
    }

    /// Write many `.prv` records in one pass (see
    /// [`TraceWriter::write_all`]).
    pub fn write_all<'a>(
        &mut self,
        rs: impl IntoIterator<Item = Record<'a>>,
    ) -> Result<(), TraceError> {
        self.writer.write_all(rs)
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

    /// A value drawn to hit every digit count and both type limits.
    fn value(g: &mut miniprop::Rng) -> u64 {
        match g.range_u32(0, 6) {
            0 => *g.pick(&[0, 9, 10, 99, 100, 101]),
            1 => u32::MAX as u64,
            2 => u64::MAX,
            3 => g.range_u64(0, 1 << 20),
            _ => g.u64() >> g.range_u32(0, 64),
        }
    }

    /// A random time-ordered stream of states, events (some with more
    /// pairs than one line buffer holds) and comms on `threads` threads.
    fn random_stream(g: &mut miniprop::Rng, threads: u32) -> Records {
        let mut rs = Records::new();
        let mut t = 0u64;
        let thread = |g: &mut miniprop::Rng| match g.range_u32(0, 3) {
            0 => threads - 1,
            _ => g.range_u32(0, threads.min(64)),
        };
        for _ in 0..g.range_usize(0, 60) {
            t = match g.range_u32(0, 8) {
                0 => u64::MAX,
                1..=3 => t,
                _ => t.saturating_add(value(g) >> g.range_u32(0, 64)),
            };
            match g.range_u32(0, 10) {
                0..=3 => {
                    let end = t.saturating_add(value(g));
                    rs.push_state(thread(g), t, end, value(g) as u32)
                }
                4..=8 => {
                    let pairs: Vec<_> = (0..g.range_usize(1, 20))
                        .map(|_| (value(g) as u32, value(g)))
                        .collect();
                    rs.push_event(thread(g), t, pairs)
                }
                _ => rs.push_comm(Comm {
                    send_thread: thread(g),
                    recv_thread: thread(g),
                    logical_send: t,
                    physical_send: value(g),
                    logical_recv: value(g),
                    physical_recv: value(g),
                    size: value(g),
                    tag: value(g),
                }),
            }
        }
        rs
    }

    /// `r`'s line as `write!` renders it, for checking the digit path.
    fn display_line(r: Record<'_>) -> String {
        match r {
            Record::State {
                thread,
                begin,
                end,
                state,
            } => {
                let th = thread as u64 + 1;
                format!("1:{th}:1:1:{th}:{begin}:{end}:{state}")
            }
            Record::Event {
                thread,
                time,
                events,
            } => {
                let th = thread as u64 + 1;
                let mut line = format!("2:{th}:1:1:{th}:{time}");
                for (ty, v) in events {
                    line += &format!(":{ty}:{v}");
                }
                line
            }
            Record::Comm(c) => {
                let (s, r) = (c.send_thread as u64 + 1, c.recv_thread as u64 + 1);
                format!(
                    "3:{s}:1:1:{s}:{}:{}:{r}:1:1:{r}:{}:{}:{}:{}",
                    c.logical_send, c.physical_send, c.logical_recv, c.physical_recv, c.size, c.tag
                )
            }
        }
    }

    /// An output that notes the length it had reached after each write,
    /// so a test sees where the writer handed its buffer over.
    #[derive(Default)]
    struct Marks {
        bytes: Vec<u8>,
        ends: Vec<usize>,
    }

    impl Write for Marks {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(b);
            self.ends.push(self.bytes.len());
            Ok(b.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Test builds hand the buffer over at `CHUNK_BYTES` = `LINE_BYTES` +
    /// 128, so streams of a few lines already cross several hand-overs.
    #[test]
    fn bulk_write_matches_per_record_write() {
        let writes = std::cell::Cell::new(0);
        miniprop::forall(300, |g| {
            let threads = *g.pick(&[1, 3, 64, u32::MAX]);
            let rs = random_stream(g, threads);
            let meta = TraceMeta::new("bulk", value(g), threads);
            let mut one = TraceWriter::new(Vec::new(), meta.clone()).unwrap();
            for r in &rs {
                one.write(r).unwrap();
            }
            let mut bulk = TraceWriter::new(Marks::default(), meta).unwrap();
            let header_writes = bulk.out.ends.len();
            bulk.write_all(&rs).unwrap();
            assert_eq!(bulk.records_written(), rs.len() as u64);
            let (one, bulk) = (one.finish().unwrap(), bulk.finish().unwrap());
            writes.set(writes.get() + bulk.ends.len() - header_writes);
            assert_eq!(
                String::from_utf8(bulk.bytes).unwrap(),
                String::from_utf8(one).unwrap()
            );
        });
        assert!(writes.get() > 2000, "{} bulk writes", writes.get());
    }

    #[test]
    fn line_digits_match_display() {
        miniprop::forall(300, |g| {
            let rs = random_stream(g, u32::MAX);
            let mut w = TraceWriter::new(Vec::new(), TraceMeta::new("d", 1, u32::MAX)).unwrap();
            w.write_all(&rs).unwrap();
            let text = String::from_utf8(w.finish().unwrap()).unwrap();
            let want: Vec<String> = rs.iter().map(display_line).collect();
            assert_eq!(text.lines().skip(1).collect::<Vec<_>>(), want);
        });
    }

    /// A bad record stops the bundle with the per-record writer's error,
    /// and the `.prv` holds exactly the header and the lines before it. In
    /// about half the cases the bad record is the first after a buffer
    /// hand-over.
    #[test]
    fn bulk_write_stops_at_the_first_bad_record() {
        let dir = std::env::temp_dir().join(format!("prv-bulk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("t");
        let meta = TraceMeta::new("bad", 100, 4);
        let after_handover = std::cell::Cell::new(0);
        miniprop::forall(100, |g| {
            let good = random_stream(g, 4);
            // The cuts that follow a hand-over: a write of the bulk writer
            // ends exactly where the line of the record before them ends.
            let mut marks = TraceWriter::new(Marks::default(), meta.clone()).unwrap();
            let mut line_end = marks.out.bytes.len();
            marks.write_all(&good).unwrap();
            let mut handover_cuts = Vec::new();
            for (i, r) in good.iter().enumerate() {
                let mut one = Vec::new();
                render(r, &mut Line::new(), &mut one);
                line_end += one.len();
                if marks.out.ends.contains(&line_end) {
                    handover_cuts.push(i + 1);
                }
            }
            let cut = if !handover_cuts.is_empty() && g.bool() {
                after_handover.set(after_handover.get() + 1);
                *g.pick(&handover_cuts)
            } else {
                g.range_usize(0, good.len() + 1)
            };
            let last = good.iter().take(cut).map(|r| r.sort_time()).max();
            let mut rs = Records::new();
            for r in good.iter().take(cut) {
                rs.push(r);
            }
            match last {
                Some(t) if t > 0 && g.bool() => rs.push_state(0, t - 1, t, 1),
                _ => rs.push_event(4, last.unwrap_or(0), [(1, 1)]),
            }
            for r in good.iter().skip(cut) {
                rs.push(r);
            }

            let mut one = TraceWriter::new(Vec::new(), meta.clone()).unwrap();
            let want_err = rs.iter().try_for_each(|r| one.write(r)).unwrap_err();
            let want = one.finish().unwrap();

            let mut b = BundleWriter::create(&stem, &meta, &[], &[]).unwrap();
            let err = b.write_all(&rs).unwrap_err();
            drop(b);
            assert_eq!(format!("{err:?}"), format!("{want_err:?}"));
            let want = String::from_utf8(want).unwrap();
            assert_eq!(want.lines().count(), 1 + cut);
            let prv = std::fs::read(stem.with_extension("prv")).unwrap();
            assert_eq!(String::from_utf8(prv).unwrap(), want);
        });
        assert!(after_handover.get() > 20, "{}", after_handover.get());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
