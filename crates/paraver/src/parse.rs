//! `.prv` parser — reads a trace body back into a [`Records`] stream.
//!
//! Used by round-trip tests, the analysis pipeline, and anyone who wants to
//! post-process traces produced by the profiling unit (or by real Paraver
//! tooling) without the GUI.
//!
//! The parser walks the bytes line by line, with no UTF-8 check and no
//! per-line allocation. It cuts the body after the header at line ends
//! into at most one chunk per core (`std::thread::available_parallelism`)
//! and per MiB of text (`MIN_CHUNK`), so a text under 2 MiB starts no
//! thread. Two passes run over the chunks, the first chunk on the calling
//! thread and each other chunk on a scoped thread of its own:
//!
//! 1. The count pass finds each chunk's exact numbers of lines, records,
//!    event pairs and comms.
//! 2. The fill pass allocates one [`Records`] of exactly the totals and
//!    hands each chunk a disjoint part of its slots, pair arena and comms,
//!    which the chunk fills in place; pair and comm indices are offset by
//!    the records of the chunks before it.
//!
//! So nothing is allocated per record, and no record is copied. Each
//! chunk stops at its first error; the parse reports the first error in
//! file order, with its line number in the whole file, whatever the
//! chunk count. The accepted grammar:
//!
//! * Lines end at `\n`; a `\r` right before it is dropped, as
//!   `str::lines` does. Line numbers in [`ParseError`] are 1-based (0 for
//!   an empty text).
//! * Line 1 is the header
//!   `#Paraver (<date>):<ftime>:<nodes>:<nappl>:<ntasks>(<threads>:<node>)...`;
//!   the date, the `ftime` and the thread count of the first task are
//!   read, from the header's lossy UTF-8 form.
//! * Every later line is trimmed of ASCII whitespace (space, `\t`, `\n`,
//!   `\x0B`, `\x0C`, `\r`); blank lines and lines starting with `#` are
//!   skipped. Other whitespace, such as U+00A0, is part of the record.
//! * A record is a `:`-separated field list whose field 0 is the kind,
//!   with the field counts of the [`crate::prv`] line format: 8 for a state
//!   (1), 6 + 2k with k >= 1 for an event (2), 15 for a communication (3).
//!   The cpu, application and task fields are not read.
//! * Numbers are unsigned decimal `u64`s with an optional leading `+`, as
//!   `str::parse` accepts them. State values and event types must fit a
//!   `u32`.
//! * Thread ids are 1-based and at most the header's thread count, so the
//!   analyses can index per-thread tables by them.

use crate::model::{Comm, Extent, Part, Records, TraceMeta};
use std::fmt;

/// The least body length worth a chunk of its own: below it, starting a
/// thread costs more than its share of the parse saves.
const MIN_CHUNK: usize = 1 << 20;

/// Parse failure with line number and reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".prv parse error at line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, reason: impl Into<String>) -> ParseError {
    ParseError {
        line,
        reason: reason.into(),
    }
}

/// Parse a complete `.prv` document (a `str`, `String`, `[u8]` or
/// `Vec<u8>`) into its header metadata and records.
pub fn parse_prv<B: AsRef<[u8]> + ?Sized>(text: &B) -> Result<(TraceMeta, Records), ParseError> {
    let text = text.as_ref();
    let chunks = text.len() / MIN_CHUNK;
    let chunks = if chunks > 1 {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        chunks.min(cores)
    } else {
        1
    };
    parse_in_chunks(text, chunks)
}

/// [`parse_prv`] with the body cut into at most `chunks` chunks.
fn parse_in_chunks(text: &[u8], chunks: usize) -> Result<(TraceMeta, Records), ParseError> {
    if text.is_empty() {
        return Err(err(0, "empty trace"));
    }
    let (header, body) = match find_newline(text) {
        Some(p) => (
            text[..p].strip_suffix(b"\r").unwrap_or(&text[..p]),
            &text[p + 1..],
        ),
        None => (text, &[][..]),
    };
    let meta = parse_header(&String::from_utf8_lossy(header)).map_err(|r| err(1, r))?;
    let chunks = cut(body, chunks);
    let counts = on_threads(chunks.iter().copied(), count_chunk);
    let extents: Vec<Extent> = counts.iter().map(|c| c.extent).collect();
    let mut records = Records::placeholders(&extents);
    let parts = records.parts(&extents);
    let filled = on_threads(chunks.into_iter().zip(parts), |(chunk, mut part)| {
        fill_chunk(chunk, meta.num_threads, &mut part)?;
        Ok(part.filled())
    });
    // The body's first line is line 2 of the file, after the header.
    let mut first_line = 2;
    for ((result, count), extent) in filled.into_iter().zip(&counts).zip(&extents) {
        match result {
            Ok(filled) => debug_assert_eq!(filled, *extent),
            Err((line, reason)) => return Err(err(first_line + line, reason)),
        }
        first_line += count.lines;
    }
    Ok((meta, records))
}

/// `body` cut after a `\n` into at most `n` chunks of about equal length.
fn cut(body: &[u8], n: usize) -> Vec<&[u8]> {
    let mut chunks = Vec::with_capacity(n);
    let mut start = 0;
    for i in 1..n {
        let aim = (body.len() / n * i).max(start);
        let end = find_newline(&body[aim..]).map_or(body.len(), |p| aim + p + 1);
        chunks.push(&body[start..end]);
        start = end;
    }
    chunks.push(&body[start..]);
    chunks
}

/// `f` of every item, the first on the calling thread and each other on a
/// scoped thread of its own, in item order. One item starts no thread.
fn on_threads<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    f: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let others: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let mut out = vec![f(first)];
        for h in others {
            out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// What the count pass finds in one chunk.
struct Count {
    lines: usize,
    /// The records, event pairs and comms the chunk's record lines hold
    /// if they parse.
    extent: Extent,
}

/// The lines of `chunk` and the extent of its records, sized by the same
/// field count and kind as [`parse_record`] reads. A malformed line may
/// count more than its parse fills before it fails, never less.
fn count_chunk(chunk: &[u8]) -> Count {
    let mut extent = Extent::default();
    let mut lines = RecordLines::new(chunk);
    for (_, line, fields) in &mut lines {
        extent.records += 1;
        match kind(line) {
            Some(2) => extent.pairs += event_pairs(fields).unwrap_or(0),
            Some(3) => extent.comms += 1,
            _ => {}
        }
    }
    Count {
        lines: lines.lines,
        extent,
    }
}

/// Parse the record lines of `chunk` into `part`; an error carries the
/// 0-based index of its line in the chunk.
fn fill_chunk(chunk: &[u8], num_threads: u32, part: &mut Part) -> Result<(), (usize, String)> {
    for (i, line, fields) in RecordLines::new(chunk) {
        parse_record(line, fields, num_threads, part).map_err(|r| (i, r))?;
    }
    Ok(())
}

/// The record lines of a chunk: each trimmed, with its 0-based line index
/// and its field count, read in one pass over its bytes. Lines end at
/// `\n`, as `str::lines` splits them; blank and `#` lines are skipped.
struct RecordLines<'a> {
    rest: &'a [u8],
    /// The lines walked so far, records or not.
    lines: usize,
}

impl<'a> RecordLines<'a> {
    fn new(chunk: &'a [u8]) -> Self {
        RecordLines {
            rest: chunk,
            lines: 0,
        }
    }
}

impl<'a> Iterator for RecordLines<'a> {
    type Item = (usize, &'a [u8], usize);

    fn next(&mut self) -> Option<Self::Item> {
        while !self.rest.is_empty() {
            let (len, colons) = line_and_colons(self.rest);
            let line = trim(&self.rest[..len]);
            self.rest = self.rest.get(len + 1..).unwrap_or_default();
            self.lines += 1;
            if !line.is_empty() && line[0] != b'#' {
                return Some((self.lines - 1, line, 1 + colons));
            }
        }
        None
    }
}

const ONES: u64 = 0x0101_0101_0101_0101;

/// The high bit of each byte of `chunk` that equals `byte`, and no other
/// bit: no carry crosses a byte, so every flag is exact.
fn flag_bytes(chunk: &[u8], byte: u8) -> u64 {
    let x = u64::from_le_bytes(chunk.try_into().unwrap()) ^ (ONES * byte as u64);
    let low7 = ONES * 0x7F;
    !(((x & low7) + low7) | x | low7)
}

/// Index of the first `\n` in `bytes`, tested eight bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let m = flag_bytes(chunk, b'\n');
        if m != 0 {
            return Some(at + m.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = chunks.remainder().iter().position(|&b| b == b'\n');
    tail.map(|p| at + p)
}

/// The length of the line at the front of `bytes` (up to its `\n` or
/// the end) and the number of `:` in it, found eight bytes at a time in
/// one pass.
fn line_and_colons(bytes: &[u8]) -> (usize, usize) {
    let mut chunks = bytes.chunks_exact(8);
    let (mut at, mut colons) = (0, 0);
    for chunk in &mut chunks {
        let newlines = flag_bytes(chunk, b'\n');
        let flags = flag_bytes(chunk, b':');
        if newlines != 0 {
            // Every flag bit below the first newline's.
            let before = (newlines & newlines.wrapping_neg()) - 1;
            let len = at + newlines.trailing_zeros() as usize / 8;
            return (len, colons + (flags & before).count_ones() as usize);
        }
        colons += flags.count_ones() as usize;
        at += 8;
    }
    for &b in chunks.remainder() {
        if b == b'\n' {
            break;
        }
        colons += (b == b':') as usize;
        at += 1;
    }
    (at, colons)
}

/// `line` without leading and trailing ASCII whitespace (the ASCII part
/// of what `str::trim` strips: it includes `\x0B`, unlike
/// `u8::is_ascii_whitespace`).
fn trim(line: &[u8]) -> &[u8] {
    let is_space = |b: &u8| matches!(b, b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' | b' ');
    let start = line.iter().position(|b| !is_space(b)).unwrap_or(line.len());
    let end = line
        .iter()
        .rposition(|b| !is_space(b))
        .map_or(start, |e| e + 1);
    &line[start..end]
}

fn parse_header(h: &str) -> Result<TraceMeta, String> {
    // #Paraver (<date>):<ftime>:<nodes>(<cpus>):<nappl>:<ntasks>(<threads>:<node>)
    let rest = h
        .strip_prefix("#Paraver (")
        .ok_or("header must start with `#Paraver (`")?;
    let (date, rest) = rest
        .split_once("):")
        .ok_or("missing `):` after header date")?;
    let fields: Vec<&str> = rest.split(':').collect();
    if fields.len() < 4 {
        return Err(format!("header has {} fields, expected >= 4", fields.len()));
    }
    let duration: u64 = fields[0]
        .parse()
        .map_err(|_| format!("bad ftime `{}`", fields[0]))?;
    // The task list is like "1(8:1)" and itself contains colons, so rejoin
    // everything after the third field.
    let tasks = fields[3..].join(":");
    let threads = tasks
        .split_once('(')
        .and_then(|(_, r)| r.split_once(':'))
        .map(|(t, _)| t)
        .ok_or_else(|| format!("bad task list `{tasks}`"))?;
    let num_threads: u32 = threads
        .parse()
        .map_err(|_| format!("bad thread count `{threads}`"))?;
    Ok(TraceMeta {
        app_name: String::new(),
        duration,
        num_threads,
        date: date.to_string(),
    })
}

/// `str::parse::<u64>` on bytes: decimal digits after an optional `+`.
fn number(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |v, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v.checked_mul(10)?.checked_add(d as u64)
    })
}

/// The fast path of [`number`] for the field at the front of `bytes`: 1 to
/// 19 plain digits, which cannot overflow, ending at a `:` or the end.
/// Returns the value and the field's length.
fn short_number(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut len = 0;
    while let Some(&b) = bytes.get(len) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        v = v.wrapping_mul(10).wrapping_add(d as u64);
        len += 1;
    }
    let ends = matches!(bytes.get(len), None | Some(b':'));
    (ends && (1..20).contains(&len)).then_some((v, len))
}

/// The `:`-separated fields of one record line, numbered from 0.
struct Fields<'a> {
    rest: &'a [u8],
    index: usize,
}

impl<'a> Fields<'a> {
    fn next(&mut self) -> &'a [u8] {
        let len = self.rest.iter().position(|&b| b == b':');
        let field = &self.rest[..len.unwrap_or(self.rest.len())];
        self.advance(field.len());
        field
    }

    /// Moves past a field of `len` bytes and its `:`.
    fn advance(&mut self, len: usize) {
        self.rest = self.rest.get(len + 1..).unwrap_or_default();
        self.index += 1;
    }

    fn skip(&mut self, n: usize) {
        for _ in 0..n {
            self.next();
        }
    }

    fn num(&mut self) -> Result<u64, String> {
        if let Some((v, len)) = short_number(self.rest) {
            self.advance(len);
            return Ok(v);
        }
        let i = self.index;
        let field = self.next();
        number(field).ok_or_else(|| {
            format!(
                "bad number `{}` in field {i}",
                String::from_utf8_lossy(field)
            )
        })
    }

    fn nums<const N: usize>(&mut self) -> Result<[u64; N], String> {
        let mut out = [0; N];
        for v in &mut out {
            *v = self.num()?;
        }
        Ok(out)
    }
}

/// A 1-based thread id from `field` as the 0-based id of a record.
fn thread_id(v: u64, field: usize, num_threads: u32) -> Result<u32, String> {
    if (1..=num_threads as u64).contains(&v) {
        Ok(v as u32 - 1)
    } else {
        Err(format!(
            "thread id {v} in field {field} is out of range 1..={num_threads}"
        ))
    }
}

fn narrow(v: u64, field: usize, what: &str) -> Result<u32, String> {
    u32::try_from(v).map_err(|_| {
        format!(
            "{what} {v} in field {field} is out of range 0..={}",
            u32::MAX
        )
    })
}

/// The kind in field 0 of a record line, if it is a `u8`.
fn kind(line: &[u8]) -> Option<u8> {
    match line {
        [k @ b'1'..=b'3', b':', ..] => Some(k - b'0'),
        _ => {
            let field = line.split(|&b| b == b':').next().unwrap_or_default();
            number(field).and_then(|k| u8::try_from(k).ok())
        }
    }
}

/// The pair count of an event line of `fields` fields, if it is valid.
fn event_pairs(fields: usize) -> Option<usize> {
    (fields >= 8 && fields.is_multiple_of(2)).then(|| (fields - 6) / 2)
}

/// One record line of `fields` fields, appended to `out`. Every number of the line is
/// parsed before any range is checked, so a malformed number is reported
/// ahead of a bad thread id.
fn parse_record(
    line: &[u8],
    fields: usize,
    num_threads: u32,
    out: &mut Part,
) -> Result<(), String> {
    let mut f = Fields {
        rest: line,
        index: 0,
    };
    let kind_field = f.next();
    let kind = kind(line)
        .ok_or_else(|| format!("bad record kind `{}`", String::from_utf8_lossy(kind_field)))?;
    match kind {
        1 => {
            if fields != 8 {
                return Err(format!("state record has {fields} fields, want 8"));
            }
            f.skip(3);
            let [thread, begin, end, state] = f.nums()?;
            let thread = thread_id(thread, 4, num_threads)?;
            out.push_state(thread, begin, end, narrow(state, 7, "state")?);
        }
        2 => {
            let pairs = event_pairs(fields)
                .ok_or_else(|| format!("event record has {fields} fields, want 6 + 2k (k>=1)"))?;
            f.skip(3);
            let [thread, time] = f.nums()?;
            let (types, values) = out.next_pairs(pairs);
            let mut wide_type = None;
            for (ty_out, value_out) in types.iter_mut().zip(values) {
                let i = f.index;
                let [ty, value] = f.nums()?;
                if ty > u32::MAX as u64 && wide_type.is_none() {
                    wide_type = Some((ty, i));
                }
                *ty_out = ty as u32;
                *value_out = value;
            }
            let thread = thread_id(thread, 4, num_threads)?;
            if let Some((ty, i)) = wide_type {
                narrow(ty, i, "event type")?;
            }
            out.push_event(thread, time, pairs);
        }
        3 => {
            if fields != 15 {
                return Err(format!("comm record has {fields} fields, want 15"));
            }
            f.skip(3);
            let [send, logical_send, physical_send] = f.nums()?;
            f.skip(3);
            let [recv, logical_recv, physical_recv, size, tag] = f.nums()?;
            out.push_comm(Comm {
                send_thread: thread_id(send, 4, num_threads)?,
                logical_send,
                physical_send,
                recv_thread: thread_id(recv, 10, num_threads)?,
                logical_recv,
                physical_recv,
                size,
                tag,
            });
        }
        k => return Err(format!("unknown record kind {k}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceMeta;
    use crate::prv::TraceWriter;

    fn roundtrip(records: &Records) -> (TraceMeta, Records) {
        let meta = TraceMeta::new("rt", 1000, 4);
        let mut w = TraceWriter::new(Vec::new(), meta).unwrap();
        w.write_all(records).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        parse_prv(&text).unwrap()
    }

    #[test]
    fn state_event_roundtrip() {
        let mut records = Records::new();
        records.push_state(2, 0, 50, 1);
        records.push_event(0, 25, [(42_000_001, 3), (42_000_004, 4096)]);
        records.push_state(2, 50, 80, 3);
        let (meta, parsed) = roundtrip(&records);
        assert_eq!(meta.duration, 1000);
        assert_eq!(meta.num_threads, 4);
        assert_eq!(parsed, records);
    }

    #[test]
    fn comm_roundtrip() {
        let mut records = Records::new();
        records.push_comm(Comm {
            send_thread: 1,
            recv_thread: 3,
            logical_send: 10,
            physical_send: 11,
            logical_recv: 20,
            physical_recv: 21,
            size: 512,
            tag: 7,
        });
        let (_, parsed) = roundtrip(&records);
        assert_eq!(parsed, records);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_prv("not a header\n").is_err());
        let bad = "#Paraver (d):100:1(2):1:1(2:1)\n9:1:1:1:1:0\n";
        let e = parse_prv(bad).unwrap_err();
        assert!(e.reason.contains("unknown record kind"), "{e}");
    }

    const HEADER: &str = "#Paraver (d):100:1(4):1:1(4:1)\n";

    fn comm(send_thread: u32, logical_send: u64) -> Comm {
        Comm {
            send_thread,
            recv_thread: 3,
            logical_send,
            physical_send: logical_send + 1,
            logical_recv: logical_send + 2,
            physical_recv: logical_send + 3,
            size: 64,
            tag: logical_send,
        }
    }

    /// The index of the chunk holding 0-based body line `line` when
    /// `body` is cut into `n`.
    fn chunk_of(body: &str, n: usize, line: usize) -> usize {
        let mut lines = 0;
        for (i, chunk) in cut(body.as_bytes(), n).into_iter().enumerate() {
            lines += chunk.split(|&b| b == b'\n').count() - chunk.ends_with(b"\n") as usize;
            if line < lines {
                return i;
            }
        }
        panic!("no line {line}")
    }

    /// Blank and `#` lines, `\r\n` endings, comms and a last line without
    /// `\n`, parsed whole and cut into 2 to 4 chunks.
    #[test]
    fn every_chunk_count_gives_the_same_records() {
        let mut body = String::new();
        let mut want = Records::new();
        for i in 0..12u64 {
            body += &format!(
                "1:1:1:1:{}:{}:{}:{}\n",
                i % 4 + 1,
                10 * i,
                10 * i + 5,
                i % 3
            );
            want.push_state(i as u32 % 4, 10 * i, 10 * i + 5, i as u32 % 3);
            body += &format!("2:1:1:1:2:{}:7:{i}:8:{}\r\n", 10 * i + 1, i * i);
            want.push_event(1, 10 * i + 1, [(7, i), (8, i * i)]);
            match i % 4 {
                0 => body += "\n",
                1 => body += "# a comment\n",
                2 => {
                    body += &format!(
                        "3:1:1:1:2:{0}:{1}:1:1:1:4:{2}:{3}:64:{0}\n",
                        10 * i + 2,
                        10 * i + 3,
                        10 * i + 4,
                        10 * i + 5
                    );
                    want.push_comm(comm(1, 10 * i + 2));
                }
                _ => body += "  \t\n",
            }
        }
        body += "2:1:1:1:4:999:9:9";
        want.push_event(3, 999, [(9, 9)]);
        let text = format!("{HEADER}{body}");
        for n in 1..=4 {
            let (meta, got) = parse_in_chunks(text.as_bytes(), n).unwrap();
            assert_eq!(meta.num_threads, 4);
            assert_eq!(got, want, "{n} chunks");
        }
        // Some cut starts a chunk at an event, whose pairs then begin the
        // chunk's share of the arena.
        let starts_with_event = (2..=4).any(|n| {
            cut(body.as_bytes(), n)[1..]
                .iter()
                .any(|c| c.starts_with(b"2:"))
        });
        assert!(starts_with_event);
    }

    #[test]
    fn more_chunks_than_lines_leaves_some_empty() {
        let text = format!("{HEADER}1:1:1:1:1:0:5:1\n");
        let want = parse_in_chunks(text.as_bytes(), 1).unwrap();
        assert_eq!(want.1.len(), 1);
        for n in 2..=4 {
            assert_eq!(parse_in_chunks(text.as_bytes(), n).unwrap(), want);
        }
        assert_eq!(parse_in_chunks(HEADER.as_bytes(), 3).unwrap().1.len(), 0);
        let err = parse_in_chunks(b"", 3).unwrap_err();
        assert_eq!((err.line, err.reason.as_str()), (0, "empty trace"));
    }

    /// 40 state lines with `bad` put in place of the lines at `at`.
    fn body_with(bad: &[(usize, &str)]) -> String {
        (0..40)
            .map(|i| match bad.iter().find(|(at, _)| *at == i) {
                Some((_, line)) => format!("{line}\n"),
                None => format!("1:1:1:1:1:{i}:{}:1\n", i + 1),
            })
            .collect()
    }

    #[test]
    fn an_error_in_chunk_three_names_its_file_line() {
        let body = body_with(&[(25, "1:1:1:1:9:0:5:1")]);
        assert_eq!(chunk_of(&body, 4, 25), 2);
        let text = format!("{HEADER}{body}");
        for n in 1..=4 {
            let e = parse_in_chunks(text.as_bytes(), n).unwrap_err();
            // Header is line 1, body line 25 (0-based) is line 27.
            assert_eq!(e.line, 27, "{n} chunks");
            assert_eq!(e.reason, "thread id 9 in field 4 is out of range 1..=4");
        }
    }

    #[test]
    fn the_first_of_two_errors_in_file_order_wins() {
        let body = body_with(&[(12, "7:1"), (35, "1:x")]);
        assert_eq!(chunk_of(&body, 4, 12), 1);
        assert_eq!(chunk_of(&body, 4, 35), 3);
        let text = format!("{HEADER}{body}");
        let one = parse_in_chunks(text.as_bytes(), 1).unwrap_err();
        assert_eq!(
            (one.line, one.reason.as_str()),
            (14, "unknown record kind 7")
        );
        for n in 2..=4 {
            assert_eq!(parse_in_chunks(text.as_bytes(), n).unwrap_err(), one);
        }
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "#Paraver (d):100:1(2):1:1(2:1)\n\n# a comment\n1:1:1:1:1:0:10:1\n";
        let (_, rs) = parse_prv(text).unwrap();
        assert_eq!(rs.len(), 1);
    }
}
