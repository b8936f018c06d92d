//! The trace buffer.
//!
//! "Each record is saved into a buffer; when the buffer is nearly full, the
//! buffer is flushed to the external memory, and resumes operations.
//! Currently, the width of the buffer is equal to the data-width of the
//! external memory controller (512-bit), but can be tuned" (§IV-B.1).
//!
//! The buffer stores the packed byte stream of records; a flush drains it as
//! one burst whose size and timestamp are reported so the simulator level
//! can account for the DRAM bandwidth the tracing consumes.
//!
//! Every flush appends to an in-memory copy of the full stream — the
//! external memory the host reads back and decodes after the run.
//!
//! Records are never split across a flush: a record that would cross the
//! high-water mark triggers a flush *before* it is staged, and a record
//! larger than the high-water mark itself is flushed immediately after
//! staging. `flush_count()`/`flushed_bytes()` stay consistent with the
//! per-flush log.

/// One flush of the trace buffer to external memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flush {
    /// Cycle at which the flush was triggered.
    pub at_cycle: u64,
    /// Bytes written to external memory.
    pub bytes: u64,
}

/// Byte-accurate trace buffer with 512-bit (64 B) line organisation.
#[derive(Debug)]
pub struct TraceBuffer {
    line_bytes: usize,
    capacity_bytes: usize,
    /// Fill level (in bytes) at which a flush triggers ("nearly full").
    high_water: usize,
    staged: Vec<u8>,
    /// The complete flushed stream, in flush order (what the host reads
    /// back from external memory after the run).
    flushed: Vec<u8>,
    /// Per-flush log for bandwidth accounting.
    flush_log: Vec<Flush>,
    flush_count: usize,
    flushed_bytes: u64,
    peak_staged: usize,
}

impl TraceBuffer {
    /// A buffer of `lines` 512-bit lines.
    pub fn new(lines: usize) -> Self {
        let line_bytes = 64;
        let capacity = lines.max(2) * line_bytes;
        TraceBuffer {
            line_bytes,
            capacity_bytes: capacity,
            high_water: capacity - capacity / 8, // flush at 7/8 full
            staged: Vec::with_capacity(capacity),
            flushed: Vec::new(),
            flush_log: Vec::new(),
            flush_count: 0,
            flushed_bytes: 0,
            peak_staged: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Capacity in kilobits (for the BRAM cost model).
    pub fn capacity_kbits(&self) -> u64 {
        (self.capacity_bytes as u64 * 8) / 1024
    }

    /// Append a packed record at cycle `t`; flushes first if it would cross
    /// the high-water mark.
    pub fn push(&mut self, t: u64, record: &[u8]) {
        // Flush *before* a record that doesn't fit: records are atomic and
        // never straddle a flush boundary.
        if self.staged.len() + record.len() > self.high_water {
            self.flush(t);
        }
        self.staged.extend_from_slice(record);
        self.peak_staged = self.peak_staged.max(self.staged.len());
        // A record larger than the whole staging area can't wait for the
        // next push to displace it.
        if record.len() > self.high_water {
            self.flush(t);
        }
    }

    /// Force a flush (used at end of run so no records are lost).
    pub fn flush(&mut self, t: u64) {
        if self.staged.is_empty() {
            return;
        }
        // The DMA writes whole 512-bit lines: pad the tail.
        let padded = self.staged.len().div_ceil(self.line_bytes) * self.line_bytes;
        self.flush_count += 1;
        self.flushed_bytes += padded as u64;
        self.flush_log.push(Flush {
            at_cycle: t,
            bytes: padded as u64,
        });
        self.flushed.append(&mut self.staged);
    }

    /// The full flushed stream (call after the final [`Self::flush`]).
    pub fn stream(&self) -> &[u8] {
        &self.flushed
    }

    /// Per-flush log.
    pub fn flush_log(&self) -> &[Flush] {
        &self.flush_log
    }

    /// Number of flushes so far.
    pub fn flush_count(&self) -> usize {
        self.flush_count
    }

    /// Total bytes written to external memory by flushes, with line padding.
    pub fn flushed_bytes(&self) -> u64 {
        self.flushed_bytes
    }

    /// Largest staged fill level ever reached — the buffer's actual
    /// in-fabric memory bound.
    pub fn peak_staged_bytes(&self) -> usize {
        self.peak_staged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_at_high_water() {
        let mut b = TraceBuffer::new(2); // 128 B capacity, flush at 112
        for i in 0..13 {
            b.push(i, &[i as u8; 10]);
        }
        assert!(
            b.flush_count() > 0,
            "130 bytes through a 128 B buffer must flush"
        );
        b.flush(99);
        assert_eq!(b.stream().len(), 130);
        // Stream preserves order.
        assert_eq!(b.stream()[0], 0);
        assert_eq!(b.stream()[129], 12);
    }

    #[test]
    fn flush_pads_to_lines() {
        let mut b = TraceBuffer::new(8);
        b.push(5, &[1, 2, 3]);
        b.flush(10);
        assert_eq!(b.flush_count(), 1);
        assert_eq!(b.flush_log().len(), 1);
        assert_eq!(
            b.flush_log()[0].bytes,
            64,
            "3 bytes pad to one 512-bit line"
        );
        assert_eq!(b.flush_log()[0].at_cycle, 10);
        assert_eq!(b.stream(), &[1, 2, 3]);
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut b = TraceBuffer::new(4);
        b.flush(0);
        assert_eq!(b.flush_count(), 0);
        assert_eq!(b.flushed_bytes(), 0);
    }

    #[test]
    fn capacity_kbits() {
        let b = TraceBuffer::new(512);
        assert_eq!(b.capacity_kbits(), 512 * 64 * 8 / 1024);
    }

    #[test]
    fn exact_high_water_boundary_never_splits_records() {
        // 128 B capacity → high water 112. Records of 16 B: exactly 7 fill
        // the buffer to the mark without flushing; the 8th flushes first.
        let mut b = TraceBuffer::new(2);
        let rec = |v: u8| [v; 16];
        for v in 0..7 {
            b.push(v as u64, &rec(v));
            assert_eq!(b.flush_count(), 0, "record {v} still fits");
        }
        b.push(7, &rec(7));
        assert_eq!(b.flush_count(), 1, "8th record must flush the first 7");
        assert_eq!(
            b.flush_log()[0].bytes,
            128,
            "7×16 B staged pads to two 512-bit lines"
        );
        b.flush(99);
        // All 8 records intact and in order — no record split by the flush.
        let s = b.stream();
        assert_eq!(s.len(), 128);
        for v in 0..8u8 {
            assert_eq!(&s[v as usize * 16..(v as usize + 1) * 16], &rec(v));
        }
        assert_eq!(
            b.flushed_bytes(),
            b.flush_log().iter().map(|f| f.bytes).sum::<u64>(),
            "counter and log must agree"
        );
        assert_eq!(b.flush_count(), b.flush_log().len());
    }

    #[test]
    fn oversized_record_flushes_around_itself() {
        let mut b = TraceBuffer::new(2); // high water 112
        b.push(1, &[7; 10]);
        let big = [9u8; 200]; // larger than the whole staging area
        b.push(2, &big);
        // Flush 1: the 10 staged bytes (before). Flush 2: the big record
        // itself (after) — it never merges with neighbours.
        assert_eq!(b.flush_count(), 2);
        assert_eq!(b.flush_log()[0].bytes, 64);
        assert_eq!(b.flush_log()[1].bytes, 256, "200 B pads to 4 lines");
        b.push(3, &[1; 4]);
        b.flush(4);
        assert_eq!(b.stream().len(), 10 + 200 + 4);
        assert_eq!(b.peak_staged_bytes(), 200);
    }
}
