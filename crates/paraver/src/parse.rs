//! `.prv` parser — reads a trace body back into a [`Records`] stream.
//!
//! Used by round-trip tests, the analysis pipeline, and anyone who wants to
//! post-process traces produced by the profiling unit (or by real Paraver
//! tooling) without the GUI.
//!
//! The parser walks the bytes line by line, with no UTF-8 check and no
//! per-line allocation. The stream's slots and pair arena are sized from
//! the text's line and `:` counts up front, so nothing is allocated per
//! record. The accepted grammar:
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

use crate::model::{Comm, Records, TraceMeta};
use std::fmt;

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
    let mut lines = lines(text);
    let header = lines.next().ok_or_else(|| err(0, "empty trace"))?;
    let meta = parse_header(&String::from_utf8_lossy(header)).map_err(|r| err(1, r))?;
    // Room for one record per line, allocated once instead of doubling;
    // no more than one per 16 bytes, the shortest record line. An event
    // line has 5 + 2k colons for its k pairs and every record line at
    // least 5, so when every line is a record, the colons beyond 5 a line
    // are room for every pair.
    let (newlines, colons) = newlines_and_colons(text);
    let pairs = colons.saturating_sub(5 * newlines) / 2;
    let mut records = Records::with_capacity(newlines.min(text.len() / 16), pairs);
    let mut scratch = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = trim(line);
        if line.is_empty() || line[0] == b'#' {
            continue;
        }
        parse_record(line, meta.num_threads, &mut scratch, &mut records)
            .map_err(|r| err(i + 2, r))?;
    }
    Ok((meta, records))
}

/// The lines of `text` as `str::lines` splits them.
fn lines(text: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = text;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (line, tail) = match find_newline(rest) {
            Some(p) => (
                rest[..p].strip_suffix(b"\r").unwrap_or(&rest[..p]),
                &rest[p + 1..],
            ),
            None => (rest, &[][..]),
        };
        rest = tail;
        Some(line)
    })
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

/// Number of `byte`s in `bytes`, counted eight at a time.
fn count(bytes: &[u8], byte: u8) -> usize {
    let mut chunks = bytes.chunks_exact(8);
    let n: usize = (&mut chunks)
        .map(|c| flag_bytes(c, byte).count_ones() as usize)
        .sum();
    n + chunks.remainder().iter().filter(|&&b| b == byte).count()
}

/// Numbers of `\n` and of `:` in `bytes`, counted eight at a time in one
/// pass.
fn newlines_and_colons(bytes: &[u8]) -> (usize, usize) {
    let mut chunks = bytes.chunks_exact(8);
    let (mut newlines, mut colons) = (0, 0);
    for chunk in &mut chunks {
        newlines += flag_bytes(chunk, b'\n').count_ones() as usize;
        colons += flag_bytes(chunk, b':').count_ones() as usize;
    }
    for &b in chunks.remainder() {
        newlines += (b == b'\n') as usize;
        colons += (b == b':') as usize;
    }
    (newlines, colons)
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

/// One record line, appended to `out`; `pairs` is scratch for an event's
/// pairs. Every number of the line is parsed before any range is checked,
/// so a malformed number is reported ahead of a bad thread id.
fn parse_record(
    line: &[u8],
    num_threads: u32,
    pairs: &mut Vec<(u32, u64)>,
    out: &mut Records,
) -> Result<(), String> {
    let mut f = Fields {
        rest: line,
        index: 0,
    };
    let kind_field = f.next();
    let kind = number(kind_field)
        .and_then(|k| u8::try_from(k).ok())
        .ok_or_else(|| format!("bad record kind `{}`", String::from_utf8_lossy(kind_field)))?;
    let fields = 1 + count(line, b':');
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
            if fields < 8 || !(fields - 6).is_multiple_of(2) {
                return Err(format!(
                    "event record has {fields} fields, want 6 + 2k (k>=1)"
                ));
            }
            f.skip(3);
            let [thread, time] = f.nums()?;
            pairs.clear();
            let mut wide_type = None;
            for _ in 0..(fields - 6) / 2 {
                let i = f.index;
                let [ty, value] = f.nums()?;
                if ty > u32::MAX as u64 && wide_type.is_none() {
                    wide_type = Some((ty, i));
                }
                pairs.push((ty as u32, value));
            }
            let thread = thread_id(thread, 4, num_threads)?;
            if let Some((ty, i)) = wide_type {
                narrow(ty, i, "event type")?;
            }
            out.push_event(thread, time, pairs.iter().copied());
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

    #[test]
    fn skips_comments_and_blanks() {
        let text = "#Paraver (d):100:1(2):1:1(2:1)\n\n# a comment\n1:1:1:1:1:0:10:1\n";
        let (_, rs) = parse_prv(text).unwrap();
        assert_eq!(rs.len(), 1);
    }
}
