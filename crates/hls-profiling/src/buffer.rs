//! The trace buffer.
//!
//! "Each record is saved into a buffer; when the buffer is nearly full, the
//! buffer is flushed to the external memory, and resumes operations.
//! Currently, the width of the buffer is equal to the data-width of the
//! external memory controller (512-bit), but can be tuned" (§IV-B.1).
//!
//! The buffer stores the packed byte stream of records; a flush drains it as
//! one burst of whole 512-bit lines, counted in [`TraceBuffer::flush_count`]
//! and [`TraceBuffer::flushed_bytes`] (with line padding). The simulator
//! never sees a flush: tracing is observational, so an instrumented run
//! simulates the same cycles as an uninstrumented one.
//!
//! Every flush appends to an in-memory copy of the full stream — the
//! external memory the host reads back and decodes after the run.
//!
//! Records are never split across a flush: a record that would cross the
//! high-water mark triggers a flush *before* it is staged, and a record
//! larger than the high-water mark itself is flushed immediately after
//! staging.

/// Width of one buffer line: the external memory's 512-bit data width.
const LINE_BYTES: usize = 64;

/// Byte-accurate trace buffer with 512-bit (64 B) line organisation.
#[derive(Debug)]
pub struct TraceBuffer {
    /// Fill level (in bytes) at which a flush triggers ("nearly full").
    high_water: usize,
    staged: Vec<u8>,
    /// The complete flushed stream, in flush order (what the host reads
    /// back from external memory after the run).
    flushed: Vec<u8>,
    flush_count: usize,
    flushed_bytes: u64,
}

impl TraceBuffer {
    /// A buffer of `lines` 512-bit lines (at least one; a zero-line
    /// configuration is rejected by `ProfilingConfig::validate`).
    pub fn new(lines: usize) -> Self {
        let capacity = Self::capacity_bytes_of(lines);
        TraceBuffer {
            high_water: capacity - capacity / 8, // flush at 7/8 full
            staged: Vec::with_capacity(capacity),
            flushed: Vec::new(),
            flush_count: 0,
            flushed_bytes: 0,
        }
    }

    /// Capacity in bytes of a buffer of `lines` lines: what [`Self::new`]
    /// builds and what the BRAM cost model prices
    /// (`overhead::profiling_fit`).
    pub fn capacity_bytes_of(lines: usize) -> usize {
        lines * LINE_BYTES
    }

    /// Append a packed record; flushes first if it would cross the
    /// high-water mark.
    pub fn push(&mut self, record: &[u8]) {
        // Flush *before* a record that doesn't fit: records are atomic and
        // never straddle a flush boundary.
        if self.staged.len() + record.len() > self.high_water {
            self.flush();
        }
        self.staged.extend_from_slice(record);
        // A record larger than the whole staging area can't wait for the
        // next push to displace it.
        if record.len() > self.high_water {
            self.flush();
        }
    }

    /// Force a flush (used at end of run so no records are lost).
    pub fn flush(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        // The DMA writes whole 512-bit lines: pad the tail.
        let padded = self.staged.len().div_ceil(LINE_BYTES) * LINE_BYTES;
        self.flush_count += 1;
        self.flushed_bytes += padded as u64;
        self.flushed.append(&mut self.staged);
    }

    /// The full flushed stream (call after the final [`Self::flush`]).
    pub fn stream(&self) -> &[u8] {
        &self.flushed
    }

    /// Number of flushes so far.
    pub fn flush_count(&self) -> usize {
        self.flush_count
    }

    /// Total bytes written to external memory by flushes, with line padding.
    pub fn flushed_bytes(&self) -> u64 {
        self.flushed_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_at_high_water() {
        let mut b = TraceBuffer::new(2); // 128 B capacity, flush at 112
        for i in 0..13 {
            b.push(&[i as u8; 10]);
        }
        assert!(
            b.flush_count() > 0,
            "130 bytes through a 128 B buffer must flush"
        );
        b.flush();
        assert_eq!(b.stream().len(), 130);
        // Stream preserves order.
        assert_eq!(b.stream()[0], 0);
        assert_eq!(b.stream()[129], 12);
    }

    #[test]
    fn flush_pads_to_lines() {
        let mut b = TraceBuffer::new(8);
        b.push(&[1, 2, 3]);
        b.flush();
        assert_eq!(b.flush_count(), 1);
        assert_eq!(b.flushed_bytes(), 64, "3 bytes pad to one 512-bit line");
        assert_eq!(b.stream(), &[1, 2, 3]);
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut b = TraceBuffer::new(4);
        b.flush();
        assert_eq!(b.flush_count(), 0);
        assert_eq!(b.flushed_bytes(), 0);
    }

    #[test]
    fn capacity_kbits() {
        // The fit prices the BRAM of the buffer `new` builds: 512 lines of
        // 512 bits are 256 kbit.
        let cfg = crate::ProfilingConfig::default();
        let fit = crate::overhead::profiling_fit(8, &cfg, &Default::default());
        assert_eq!(TraceBuffer::capacity_bytes_of(cfg.buffer_lines), 512 * 64);
        assert_eq!(fit.bram_kbits, 256);
    }

    #[test]
    fn one_line_buffer_flushes_at_seven_eighths_of_one_line() {
        // A validated 1-line configuration builds one line, not two: 64 B
        // capacity → high water 56, so seven 8 B records fit and the
        // eighth flushes the first seven as one padded line.
        let mut b = TraceBuffer::new(1);
        assert_eq!(TraceBuffer::capacity_bytes_of(1), 64);
        for v in 0..7 {
            b.push(&[v; 8]);
        }
        assert_eq!(b.flush_count(), 0);
        b.push(&[7; 8]);
        assert_eq!((b.flush_count(), b.flushed_bytes()), (1, 64));
        b.flush();
        assert_eq!((b.flush_count(), b.flushed_bytes()), (2, 128));
        assert_eq!(b.stream().len(), 64);
    }

    #[test]
    fn exact_high_water_boundary_never_splits_records() {
        // 128 B capacity → high water 112. Records of 16 B: exactly 7 fill
        // the buffer to the mark without flushing; the 8th flushes first.
        let mut b = TraceBuffer::new(2);
        let rec = |v: u8| [v; 16];
        for v in 0..7 {
            b.push(&rec(v));
            assert_eq!(b.flush_count(), 0, "record {v} still fits");
        }
        b.push(&rec(7));
        assert_eq!(b.flush_count(), 1, "8th record must flush the first 7");
        assert_eq!(
            b.flushed_bytes(),
            128,
            "7×16 B staged pads to two 512-bit lines"
        );
        b.flush();
        assert_eq!((b.flush_count(), b.flushed_bytes()), (2, 192));
        // All 8 records intact and in order — no record split by the flush.
        let s = b.stream();
        assert_eq!(s.len(), 128);
        for v in 0..8u8 {
            assert_eq!(&s[v as usize * 16..(v as usize + 1) * 16], &rec(v));
        }
    }

    #[test]
    fn oversized_record_flushes_around_itself() {
        let mut b = TraceBuffer::new(2); // high water 112
        b.push(&[7; 10]);
        let big = [9u8; 200]; // larger than the whole staging area
        b.push(&big);
        // Flush 1: the 10 staged bytes (before), one line. Flush 2: the big
        // record itself (after), four lines — it never merges with
        // neighbours.
        assert_eq!(b.flush_count(), 2);
        assert_eq!(b.flushed_bytes(), 64 + 256, "200 B pads to 4 lines");
        b.push(&[1; 4]);
        assert_eq!(b.flush_count(), 2, "the big record left nothing staged");
        b.flush();
        assert_eq!((b.flush_count(), b.flushed_bytes()), (3, 64 + 256 + 64));
        assert_eq!(b.stream().len(), 10 + 200 + 4);
    }
}
