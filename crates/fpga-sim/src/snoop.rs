//! The pipeline snoop interface.
//!
//! The paper's profiling unit "is integrated into the generated datapath and
//! directly hooks-into and snoops all compute pipelines" (§IV-B). In this
//! reproduction the executor plays the datapath and the [`Snoop`] trait is
//! the set of wires the profiling unit taps:
//!
//! * per-thread state transitions (Idle/Running/Spinning/Critical, Fig. 2),
//! * stall cycles (control-signal snooping, §IV-B.2a),
//! * retired integer/floating-point operations per stage activation
//!   (§IV-B.2b),
//! * read/write request bytes at the central Avalon interface (§IV-B.2c).

use crate::stats::ThreadStats;

/// Hardware-thread execution state, mirroring the Paraver state ids of
/// `paraver::states`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ThreadState {
    /// No context loaded / context finished.
    Idle,
    /// Executing.
    Running,
    /// Spinning on the hardware semaphore.
    Spinning,
    /// Inside a critical section.
    Critical,
}

impl ThreadState {
    /// 2-bit hardware encoding (§IV-B.1: "00 for idle, 01 for running, 10
    /// for critical, and 11 for spinning").
    pub const fn encode(self) -> u8 {
        match self {
            ThreadState::Idle => 0b00,
            ThreadState::Running => 0b01,
            ThreadState::Critical => 0b10,
            ThreadState::Spinning => 0b11,
        }
    }

    /// Decode the 2-bit hardware encoding.
    pub const fn decode(bits: u8) -> ThreadState {
        match bits & 0b11 {
            0b00 => ThreadState::Idle,
            0b01 => ThreadState::Running,
            0b10 => ThreadState::Critical,
            _ => ThreadState::Spinning,
        }
    }

    /// Paraver state id (matches `paraver::states`).
    pub const fn paraver_state(self) -> u32 {
        match self {
            ThreadState::Idle => 0,
            ThreadState::Running => 1,
            ThreadState::Critical => 2,
            ThreadState::Spinning => 3,
        }
    }
}

/// Observer interface the profiling unit implements.
///
/// Every method defaults to a no-op, so observers only implement the wires
/// they actually tap. The executor's own ground-truth statistics are
/// themselves just an observer ([`StatsSnoop`]), paired with the caller's
/// through [`SnoopPair`].
pub trait Snoop {
    /// Thread `tid` transitions to `state` at cycle `t`.
    fn state_change(&mut self, _t: u64, _tid: u32, _state: ThreadState) {}
    /// Thread `tid` stalled for `cycles` ending at cycle `t`.
    fn stall(&mut self, _t: u64, _tid: u32, _cycles: u64) {}
    /// Thread `tid` retired operations at cycle `t`.
    fn ops(&mut self, _t: u64, _tid: u32, _int_ops: u64, _flops: u64, _local_ops: u64) {}
    /// Thread `tid` issued a read request of `bytes` at cycle `t`
    /// (request bytes at the Avalon interface, not DRAM line traffic).
    fn mem_read(&mut self, _t: u64, _tid: u32, _bytes: u64) {}
    /// Thread `tid` issued a write request of `bytes` at cycle `t`.
    fn mem_write(&mut self, _t: u64, _tid: u32, _bytes: u64) {}
    /// Thread `tid` completed one loop iteration at cycle `t` (the loop
    /// controller's continue signal).
    fn iteration(&mut self, _t: u64, _tid: u32) {}
    /// The run completed at cycle `t` (flush point for trace buffers).
    fn run_end(&mut self, _t: u64) {}
    /// True when this observer taps no wire at all, so a driver may skip
    /// delivering signals to it. Only [`NullSnoop`] says so.
    fn is_null(&self) -> bool {
        false
    }
}

/// A snoop that observes nothing — simulating an accelerator built without
/// the profiling infrastructure (the baseline of the §V-B overhead study).
///
/// It reports [`Snoop::is_null`], so [`Executor::run`](crate::Executor::run)
/// steps the run with its own statistics observer alone: no signal is
/// buffered or replayed for it, as the baseline accelerator has no wires
/// to tap.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSnoop;

impl Snoop for NullSnoop {
    fn is_null(&self) -> bool {
        true
    }
}

/// One buffered signal record (everything except `run_end`, which is a
/// flush point and always delivered immediately).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Buffered {
    State(u64, u32, ThreadState),
    Stall(u64, u32, u64),
    Ops(u64, u32, u64, u64, u64),
    Read(u64, u32, u64),
    Write(u64, u32, u64),
    Iter(u64, u32),
}

impl Buffered {
    /// Deliver this record to `tap`.
    fn replay(self, tap: &mut dyn Snoop) {
        match self {
            Buffered::State(t, tid, s) => tap.state_change(t, tid, s),
            Buffered::Stall(t, tid, c) => tap.stall(t, tid, c),
            Buffered::Ops(t, tid, i, f, l) => tap.ops(t, tid, i, f, l),
            Buffered::Read(t, tid, b) => tap.mem_read(t, tid, b),
            Buffered::Write(t, tid, b) => tap.mem_write(t, tid, b),
            Buffered::Iter(t, tid) => tap.iteration(t, tid),
        }
    }
}

/// Default ring capacity: large enough to amortize a flush over thousands
/// of signals, small enough (~40 KiB) to stay cache- and latency-friendly
/// for streaming trace consumers.
const RING_CAPACITY: usize = 4096;

/// Single-tap ring buffer: batches the executor's signals in front of one
/// virtually-dispatched observer.
///
/// The executor's hot path pairs its statically-dispatched [`StatsSnoop`]
/// with the caller's `&mut dyn Snoop`; this adapter moves the virtual call
/// off the per-signal path — each signal is one enum store into the ring,
/// and the dyn tap consumes batches of `RING_CAPACITY` (4096) on flush. Signal
/// order is preserved exactly, so the tap's output is byte-identical to
/// unbuffered delivery. Flushes when full, at `run_end`, on
/// [`SnoopRing::flush`], and on drop (so an aborted run still delivers
/// everything observed before the error).
pub struct SnoopRing<'a> {
    tap: &'a mut dyn Snoop,
    ring: Vec<Buffered>,
    capacity: usize,
}

impl<'a> SnoopRing<'a> {
    /// Ring of the default capacity in front of `tap`.
    pub fn new(tap: &'a mut dyn Snoop) -> Self {
        Self::with_capacity(tap, RING_CAPACITY)
    }

    /// Ring of `capacity` records (min 1) in front of `tap`.
    pub fn with_capacity(tap: &'a mut dyn Snoop, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SnoopRing {
            tap,
            ring: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Drain the ring into the tap.
    pub fn flush(&mut self) {
        for sig in self.ring.drain(..) {
            sig.replay(self.tap);
        }
    }

    #[inline]
    fn emit(&mut self, sig: Buffered) {
        self.ring.push(sig);
        if self.ring.len() >= self.capacity {
            self.flush();
        }
    }
}

impl Drop for SnoopRing<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Snoop for SnoopRing<'_> {
    #[inline]
    fn state_change(&mut self, t: u64, tid: u32, state: ThreadState) {
        self.emit(Buffered::State(t, tid, state));
    }
    #[inline]
    fn stall(&mut self, t: u64, tid: u32, cycles: u64) {
        self.emit(Buffered::Stall(t, tid, cycles));
    }
    #[inline]
    fn ops(&mut self, t: u64, tid: u32, int_ops: u64, flops: u64, local_ops: u64) {
        self.emit(Buffered::Ops(t, tid, int_ops, flops, local_ops));
    }
    #[inline]
    fn mem_read(&mut self, t: u64, tid: u32, bytes: u64) {
        self.emit(Buffered::Read(t, tid, bytes));
    }
    #[inline]
    fn mem_write(&mut self, t: u64, tid: u32, bytes: u64) {
        self.emit(Buffered::Write(t, tid, bytes));
    }
    #[inline]
    fn iteration(&mut self, t: u64, tid: u32) {
        self.emit(Buffered::Iter(t, tid));
    }
    fn run_end(&mut self, t: u64) {
        self.flush();
        self.tap.run_end(t);
    }
}

/// Statically-dispatched two-way fan-out.
///
/// A virtual call per signal is measurable on the executor's hot path (one
/// `ops`/`iteration`/`mem_*` call per simulated event). `SnoopPair`
/// monomorphizes the first tap — the executor pairs its own [`StatsSnoop`]
/// with the caller's observer (behind a [`SnoopRing`]), so the statistics
/// derivation inlines into the dispatch loop.
pub struct SnoopPair<'a, A: Snoop, B: Snoop + ?Sized> {
    first: &'a mut A,
    second: &'a mut B,
}

impl<'a, A: Snoop, B: Snoop + ?Sized> SnoopPair<'a, A, B> {
    /// Fan out to `first` then `second`, in that order.
    pub fn new(first: &'a mut A, second: &'a mut B) -> Self {
        SnoopPair { first, second }
    }
}

impl<A: Snoop, B: Snoop + ?Sized> Snoop for SnoopPair<'_, A, B> {
    #[inline]
    fn state_change(&mut self, t: u64, tid: u32, state: ThreadState) {
        self.first.state_change(t, tid, state);
        self.second.state_change(t, tid, state);
    }
    #[inline]
    fn stall(&mut self, t: u64, tid: u32, cycles: u64) {
        self.first.stall(t, tid, cycles);
        self.second.stall(t, tid, cycles);
    }
    #[inline]
    fn ops(&mut self, t: u64, tid: u32, int_ops: u64, flops: u64, local_ops: u64) {
        self.first.ops(t, tid, int_ops, flops, local_ops);
        self.second.ops(t, tid, int_ops, flops, local_ops);
    }
    #[inline]
    fn mem_read(&mut self, t: u64, tid: u32, bytes: u64) {
        self.first.mem_read(t, tid, bytes);
        self.second.mem_read(t, tid, bytes);
    }
    #[inline]
    fn mem_write(&mut self, t: u64, tid: u32, bytes: u64) {
        self.first.mem_write(t, tid, bytes);
        self.second.mem_write(t, tid, bytes);
    }
    #[inline]
    fn iteration(&mut self, t: u64, tid: u32) {
        self.first.iteration(t, tid);
        self.second.iteration(t, tid);
    }
    #[inline]
    fn run_end(&mut self, t: u64) {
        self.first.run_end(t);
        self.second.run_end(t);
    }
}

/// Derives the executor's ground-truth [`ThreadStats`] purely from the
/// snooped signal stream — the same signals the profiling unit sees.
///
/// Timing fields come from the state timeline: a thread starts at its first
/// `Running` transition, ends at its `Idle` transition, spends
/// `Spinning → Critical` deltas spinning and `Critical → Running` deltas in
/// critical sections, and enters a critical region each time it begins
/// spinning (the semaphore request is issued from the spin state even when
/// granted immediately).
#[derive(Clone, Debug)]
pub struct StatsSnoop {
    per_thread: Vec<ThreadStats>,
    /// Current (state, entered-at) per thread.
    cur: Vec<(ThreadState, u64)>,
    started: Vec<bool>,
}

impl StatsSnoop {
    /// Observer for `num_threads` hardware threads (all initially Idle at 0).
    pub fn new(num_threads: u32) -> Self {
        let n = num_threads as usize;
        StatsSnoop {
            per_thread: vec![ThreadStats::default(); n],
            cur: vec![(ThreadState::Idle, 0); n],
            started: vec![false; n],
        }
    }

    /// Largest observed end cycle — the run's total duration.
    pub fn max_end_cycle(&self) -> u64 {
        self.per_thread
            .iter()
            .map(|t| t.end_cycle)
            .max()
            .unwrap_or(0)
    }

    /// The derived per-thread statistics, indexed by thread id.
    pub fn per_thread(&self) -> &[ThreadStats] {
        &self.per_thread
    }

    /// Consume the observer, yielding the per-thread statistics.
    pub fn into_stats(self) -> Vec<ThreadStats> {
        self.per_thread
    }
}

impl Snoop for StatsSnoop {
    fn state_change(&mut self, t: u64, tid: u32, state: ThreadState) {
        let i = tid as usize;
        let (prev, since) = self.cur[i];
        if prev == state {
            return; // redundant transition (e.g. the initial Idle)
        }
        // Charge the state being left.
        match prev {
            ThreadState::Spinning => {
                self.per_thread[i].spin_cycles += t.saturating_sub(since);
            }
            ThreadState::Critical => {
                self.per_thread[i].critical_cycles += t.saturating_sub(since);
            }
            _ => {}
        }
        // Account the state being entered.
        match state {
            ThreadState::Running if !self.started[i] => {
                self.started[i] = true;
                self.per_thread[i].start_cycle = t;
            }
            ThreadState::Spinning => {
                self.per_thread[i].critical_entries += 1;
            }
            ThreadState::Idle if self.started[i] => {
                self.per_thread[i].end_cycle = t;
            }
            _ => {}
        }
        self.cur[i] = (state, t);
    }

    fn stall(&mut self, _t: u64, tid: u32, cycles: u64) {
        self.per_thread[tid as usize].stall_cycles += cycles;
    }

    fn ops(&mut self, _t: u64, tid: u32, int_ops: u64, flops: u64, local_ops: u64) {
        let s = &mut self.per_thread[tid as usize];
        s.int_ops += int_ops;
        s.flops += flops;
        s.local_ops += local_ops;
    }

    fn mem_read(&mut self, _t: u64, tid: u32, bytes: u64) {
        self.per_thread[tid as usize].bytes_read += bytes;
    }

    fn mem_write(&mut self, _t: u64, tid: u32, bytes: u64) {
        self.per_thread[tid as usize].bytes_written += bytes;
    }

    fn iteration(&mut self, _t: u64, tid: u32) {
        self.per_thread[tid as usize].iterations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn encoding_matches_paper() {
        assert_eq!(ThreadState::Idle.encode(), 0b00);
        assert_eq!(ThreadState::Running.encode(), 0b01);
        assert_eq!(ThreadState::Critical.encode(), 0b10);
        assert_eq!(ThreadState::Spinning.encode(), 0b11);
        for s in [
            ThreadState::Idle,
            ThreadState::Running,
            ThreadState::Critical,
            ThreadState::Spinning,
        ] {
            assert_eq!(ThreadState::decode(s.encode()), s);
        }
    }

    #[test]
    fn paraver_ids_align() {
        assert_eq!(ThreadState::Idle.paraver_state(), 0);
        assert_eq!(ThreadState::Running.paraver_state(), 1);
        assert_eq!(ThreadState::Critical.paraver_state(), 2);
        assert_eq!(ThreadState::Spinning.paraver_state(), 3);
    }

    /// Logs every delivered signal (`None` for `run_end`) where the test
    /// can read it while a ring still borrows the tap.
    struct Recorder(Rc<RefCell<Vec<Option<Buffered>>>>);

    impl Recorder {
        fn log(&mut self, seen: Option<Buffered>) {
            self.0.borrow_mut().push(seen);
        }
    }

    impl Snoop for Recorder {
        fn state_change(&mut self, t: u64, tid: u32, state: ThreadState) {
            self.log(Some(Buffered::State(t, tid, state)));
        }
        fn stall(&mut self, t: u64, tid: u32, cycles: u64) {
            self.log(Some(Buffered::Stall(t, tid, cycles)));
        }
        fn ops(&mut self, t: u64, tid: u32, int_ops: u64, flops: u64, local_ops: u64) {
            self.log(Some(Buffered::Ops(t, tid, int_ops, flops, local_ops)));
        }
        fn mem_read(&mut self, t: u64, tid: u32, bytes: u64) {
            self.log(Some(Buffered::Read(t, tid, bytes)));
        }
        fn mem_write(&mut self, t: u64, tid: u32, bytes: u64) {
            self.log(Some(Buffered::Write(t, tid, bytes)));
        }
        fn iteration(&mut self, t: u64, tid: u32) {
            self.log(Some(Buffered::Iter(t, tid)));
        }
        fn run_end(&mut self, _t: u64) {
            self.log(None);
        }
    }

    #[test]
    fn ring_preserves_order_and_flushes_at_run_end_and_on_drop() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut tap = Recorder(Rc::clone(&log));
        {
            let mut ring = SnoopRing::with_capacity(&mut tap, 2);
            ring.state_change(0, 0, ThreadState::Running);
            assert!(log.borrow().is_empty(), "one signal stays in the ring");
            ring.ops(1, 0, 1, 2, 3);
            assert_eq!(log.borrow().len(), 2, "a full ring flushes");
            ring.mem_read(2, 1, 64);
            ring.stall(3, 1, 4);
            ring.iteration(4, 0);
            assert_eq!(log.borrow().len(), 4);
            ring.run_end(9);
            // Emission order across the flush boundary, and `run_end`
            // forwarded only after the held signal.
            let want = [
                Some(Buffered::State(0, 0, ThreadState::Running)),
                Some(Buffered::Ops(1, 0, 1, 2, 3)),
                Some(Buffered::Read(2, 1, 64)),
                Some(Buffered::Stall(3, 1, 4)),
                Some(Buffered::Iter(4, 0)),
                None,
            ];
            assert_eq!(*log.borrow(), want);
            ring.mem_write(10, 0, 32);
            assert_eq!(log.borrow().len(), 6);
        }
        // Dropping a ring that still holds a signal delivers it, so an
        // aborted run loses nothing it observed.
        assert_eq!(log.borrow()[6..], [Some(Buffered::Write(10, 0, 32))]);
    }

    #[test]
    fn stats_snoop_derives_timeline_fields() {
        let mut s = StatsSnoop::new(2);
        // Thread 0: idle(0) → running(5) → spin(20) → critical(26) →
        // running(40) → idle(100).
        s.state_change(0, 0, ThreadState::Idle); // redundant: ignored
        s.state_change(5, 0, ThreadState::Running);
        s.state_change(20, 0, ThreadState::Spinning);
        s.state_change(26, 0, ThreadState::Critical);
        s.state_change(40, 0, ThreadState::Running);
        s.stall(50, 0, 7);
        s.ops(60, 0, 1, 2, 3);
        s.mem_read(61, 0, 64);
        s.mem_write(62, 0, 32);
        s.iteration(63, 0);
        s.iteration(64, 0);
        s.state_change(100, 0, ThreadState::Idle);
        // Thread 1 never starts.
        let st = &s.per_thread()[0];
        assert_eq!(st.start_cycle, 5);
        assert_eq!(st.end_cycle, 100);
        assert_eq!(st.spin_cycles, 6);
        assert_eq!(st.critical_cycles, 14);
        assert_eq!(st.critical_entries, 1);
        assert_eq!(st.stall_cycles, 7);
        assert_eq!((st.int_ops, st.flops, st.local_ops), (1, 2, 3));
        assert_eq!((st.bytes_read, st.bytes_written), (64, 32));
        assert_eq!(st.iterations, 2);
        assert_eq!(s.per_thread()[1], ThreadStats::default());
        assert_eq!(s.max_end_cycle(), 100);
    }
}
