//! Decoding the flushed trace-buffer stream into Paraver records.
//!
//! "[The performance counters are] periodically stored to external memory to
//! avoid overflow of the counters. There they can later be accessed from the
//! host for analysis" (§IV-B). This module is that host-side analysis step:
//! it walks the byte stream the buffer flushed to (simulated) DRAM and
//! reconstructs
//!
//! * per-thread **state intervals** from the packed all-thread state
//!   snapshots (pairing consecutive snapshots per thread),
//! * **event records** from the sampled counter aggregates,
//! * full 64-bit times from the hardware's 32-bit cycle counter, by
//!   unwrapping at each backwards jump (records are buffer-ordered, i.e.
//!   nearly time-ordered).
//!
//! [`decode_stream`] walks the whole flushed stream after the run, once to
//! size the [`Records`] stream and once to fill it, and time-sorts the
//! result: the fixed slots move, the event pairs stay where they were
//! decoded.
//!
//! A state interval is known only when it closes, but it sorts by its
//! begin, so pushing it on close would scatter the stream. The fill pass
//! holds closed intervals in a bounded FIFO side buffer instead and pushes
//! them after the events decoded alongside them. An event (or region
//! record) whose time is at most the largest begin held flushes the buffer
//! first, so equal times keep the order in which they were decoded. The
//! stable sort then sees long sorted runs of events and shorter, nearly
//! sorted runs of intervals, and returns the same order as sorting the
//! intervals pushed on close.

use crate::counters::{unpack_event_record, EVENT_RECORD_BYTES};
use crate::recorder::{
    state_record_bytes, state_record_cycle, state_record_field, unpack_region_record,
    REGION_RECORD_BYTES, TAG_EVENT, TAG_REGION, TAG_STATE,
};
use fpga_sim::ThreadState;
use paraver::model::Records;

/// Reconstructs 64-bit cycle counts from truncated 32-bit stamps.
struct Unwrapper {
    epoch: u64,
    last: u32,
}

impl Unwrapper {
    fn new() -> Self {
        Unwrapper { epoch: 0, last: 0 }
    }

    fn full(&mut self, lo: u32) -> u64 {
        // A large backwards jump means the 32-bit counter wrapped.
        if lo < self.last && self.last - lo > u32::MAX / 2 {
            self.epoch += 1;
        }
        self.last = lo;
        (self.epoch << 32) | lo as u64
    }
}

/// The `(tag, payload)` frames of a flushed stream, past the zero bytes
/// that pad the tail of a flushed line.
///
/// # Panics
/// On an unknown record tag or a record truncated by the end of the
/// stream: the stream is corrupt.
fn frames(stream: &[u8], num_threads: u32) -> impl Iterator<Item = (u8, &[u8])> {
    let srec_len = state_record_bytes(num_threads);
    let mut pos = 0;
    std::iter::from_fn(move || {
        while stream.get(pos) == Some(&0) {
            pos += 1;
        }
        let tag = *stream.get(pos)?;
        let (len, kind) = match tag {
            TAG_STATE => (srec_len, "state"),
            TAG_EVENT => (EVENT_RECORD_BYTES, "event"),
            TAG_REGION => (REGION_RECORD_BYTES, "region"),
            tag => panic!("corrupt trace stream: unknown tag {tag:#x} at {pos}"),
        };
        let Some(payload) = stream.get(pos + 1..pos + len) else {
            panic!("truncated {kind} record");
        };
        pos += len;
        Some((tag, payload))
    })
}

/// Pairs of one counter-sample event record.
const SAMPLE_PAIRS: usize = 6;

/// Intervals the side buffer holds at most (384 KiB). A flush is correct
/// at any point; a full buffer flushes so its memory stays bounded.
const DEFERRED_CAP: usize = 16 << 10;

/// Closed state intervals not yet pushed, in the order they closed.
struct Deferred {
    /// `(thread, begin, end, state)` of each interval.
    intervals: Vec<(u32, u64, u64, u32)>,
    /// The largest begin held; meaningless while `intervals` is empty.
    max_begin: u64,
}

impl Deferred {
    /// Hold one closed interval, flushing first when the buffer is full.
    fn push(&mut self, thread: u32, begin: u64, end: u64, state: u32, records: &mut Records) {
        if self.intervals.len() == DEFERRED_CAP {
            self.flush(records);
        }
        if self.intervals.is_empty() || begin > self.max_begin {
            self.max_begin = begin;
        }
        self.intervals.push((thread, begin, end, state));
    }

    /// Push the held intervals ahead of a record at `time` when one of
    /// them may begin at `time`: the stable sort would otherwise put the
    /// later-decoded record first.
    #[inline]
    fn flush_before(&mut self, time: u64, records: &mut Records) {
        if !self.intervals.is_empty() && time <= self.max_begin {
            self.flush(records);
        }
    }

    fn flush(&mut self, records: &mut Records) {
        for (thread, begin, end, state) in self.intervals.drain(..) {
            records.push_state(thread, begin, end, state);
        }
    }
}

/// Decode a complete flushed stream into time-sorted records (stable, so
/// equal-time records keep their stream order; an interval's place in the
/// stream is where it closes).
///
/// `total_cycles` closes the final state interval of each thread.
///
/// # Panics
/// On an unknown record tag or a record truncated by the end of the
/// stream: the stream is corrupt.
pub fn decode_stream(stream: &[u8], num_threads: u32, total_cycles: u64) -> Records {
    // One pass over the frames sizes the stream: a state snapshot follows
    // one thread's transition and closes one interval, and every thread's
    // last interval closes at the end of the run.
    let (mut slots, mut pairs, mut snapshots) = (num_threads as usize, 0, 0);
    for (tag, _) in frames(stream, num_threads) {
        slots += 1;
        match tag {
            TAG_EVENT => pairs += SAMPLE_PAIRS,
            TAG_REGION => pairs += 1,
            _ => snapshots += 1,
        }
    }
    let mut records = Records::with_capacity(slots, pairs);
    // A snapshot follows one thread's transition and closes at most one
    // interval.
    let mut deferred = Deferred {
        intervals: Vec::with_capacity(snapshots.min(DEFERRED_CAP)),
        max_begin: 0,
    };
    let mut unwrap = Unwrapper::new();
    // Per-thread open interval: (state, since).
    let mut open = vec![(ThreadState::Idle, 0u64); num_threads as usize];
    for (tag, payload) in frames(stream, num_threads) {
        match tag {
            TAG_STATE => {
                let t = unwrap.full(state_record_cycle(payload));
                for (tid, (old, since)) in open.iter_mut().enumerate() {
                    let s = state_record_field(payload, tid);
                    if s != *old {
                        if t > *since {
                            let state = old.paraver_state();
                            deferred.push(tid as u32, *since, t, state, &mut records);
                        }
                        (*old, *since) = (s, t);
                    }
                }
            }
            TAG_EVENT => {
                let (tid, lo, a) = unpack_event_record(payload);
                let t = unwrap.full(lo);
                let sample: [(u32, u64); SAMPLE_PAIRS] = [
                    (paraver::events::STALLS, a.stalls),
                    (paraver::events::INT_OPS, a.int_ops),
                    (paraver::events::FLOPS, a.flops),
                    (paraver::events::BYTES_READ, a.bytes_read),
                    (paraver::events::BYTES_WRITTEN, a.bytes_written),
                    (paraver::events::LOCAL_OPS, a.local_ops),
                ];
                deferred.flush_before(t, &mut records);
                records.push_event(tid, t, sample);
            }
            _ => {
                let (tid, lo, region, enter) = unpack_region_record(payload);
                let t = unwrap.full(lo);
                deferred.flush_before(t, &mut records);
                records.push_event(
                    tid,
                    t,
                    [(paraver::events::region_type(region), enter as u64)],
                );
            }
        }
    }
    deferred.flush(&mut records);
    for (tid, (state, since)) in open.into_iter().enumerate() {
        if total_cycles > since {
            records.push_state(tid as u32, since, total_cycles, state.paraver_state());
        }
    }
    records.sort_by_time();
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterBank;
    use crate::recorder::{pack_region_record, unpack_state_record, StateRecorder};
    use nymble_hls::probe::CounterSet;
    use paraver::model::{Record, TraceMeta};

    #[test]
    fn decodes_interleaved_records() {
        let mut stream = Vec::new();
        let mut rec = StateRecorder::new(2);
        stream.extend_from_slice(rec.transition(10, 0, ThreadState::Running).unwrap());
        let mut bank = CounterBank::new(2, CounterSet::default());
        bank.add_ops(0, 1, 2, 3);
        stream.extend_from_slice(&bank.sample(100, 0).unwrap());
        stream.extend_from_slice(rec.transition(200, 0, ThreadState::Idle).unwrap());
        // Simulate line padding.
        stream.extend_from_slice(&[0u8; 13]);
        let records = decode_stream(&stream, 2, 300);
        // Thread 0: Idle [0,10), Running [10,200), Idle [200,300).
        let states: Vec<_> = records
            .iter()
            .filter(|r| matches!(r, Record::State { thread: 0, .. }))
            .collect();
        assert_eq!(states.len(), 3, "{records:?}");
        // Thread 1: single Idle interval [0,300).
        let t1: Vec<_> = records
            .iter()
            .filter(|r| matches!(r, Record::State { thread: 1, .. }))
            .collect();
        assert_eq!(t1.len(), 1);
        let ev = records
            .iter()
            .find(|r| matches!(r, Record::Event { .. }))
            .unwrap();
        if let Record::Event { time, events, .. } = ev {
            assert_eq!(time, 100);
            assert_eq!(events.get(2), Some((paraver::events::FLOPS, 2)));
        }
    }

    #[test]
    fn decodes_region_records_as_region_events() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&pack_region_record(10, 0, 0, true));
        stream.extend_from_slice(&pack_region_record(25, 0, 3, true));
        stream.extend_from_slice(&pack_region_record(40, 0, 3, false));
        let records = decode_stream(&stream, 1, 100);
        let region_events: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                Record::Event { time, events, .. } => Some((time, events.get(0).unwrap())),
                _ => None,
            })
            .collect();
        assert_eq!(
            region_events,
            vec![
                (10, (paraver::events::region_type(0), 1)),
                (25, (paraver::events::region_type(3), 1)),
                (40, (paraver::events::region_type(3), 0)),
            ]
        );
    }

    /// State intervals reach the decoder when they close, so they arrive
    /// out of time order, and here a region record arrives after a later
    /// sample. The sorted stream equals the same trace written and parsed
    /// back, whose pairs sit in file order.
    #[test]
    fn sorted_decode_equals_its_parsed_bundle() {
        let mut stream = Vec::new();
        let mut rec = StateRecorder::new(2);
        stream.extend_from_slice(rec.transition(10, 0, ThreadState::Running).unwrap());
        let mut bank = CounterBank::new(2, CounterSet::default());
        bank.add_ops(1, 1, 2, 3);
        stream.extend_from_slice(&bank.sample(100, 1).unwrap());
        stream.extend_from_slice(&pack_region_record(60, 0, 3, true));
        stream.extend_from_slice(rec.transition(200, 0, ThreadState::Idle).unwrap());
        let records = decode_stream(&stream, 2, 300);
        let order: Vec<(u8, u64)> = records.iter().map(|r| (r.kind(), r.sort_time())).collect();
        assert_eq!(
            order,
            [(1, 0), (1, 0), (1, 10), (2, 60), (2, 100), (1, 200)],
            "{records:?}"
        );

        let mut w = paraver::TraceWriter::new(Vec::new(), TraceMeta::new("t", 300, 2)).unwrap();
        w.write_all(&records).unwrap();
        let (_, parsed) = paraver::parse::parse_prv(&w.finish().unwrap()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn unwraps_32bit_counter() {
        let mut u = Unwrapper::new();
        assert_eq!(u.full(10), 10);
        assert_eq!(u.full(u32::MAX - 1), (u32::MAX - 1) as u64);
        // Wraparound: small value after a large one.
        assert_eq!(u.full(5), (1u64 << 32) | 5);
    }

    #[test]
    #[should_panic(expected = "unknown tag")]
    fn corrupt_stream_detected() {
        let _ = decode_stream(&[0xFF], 1, 10);
    }

    #[test]
    fn empty_stream_gives_idle_timeline() {
        let records = decode_stream(&[], 3, 1000);
        assert_eq!(records.len(), 3);
        for r in &records {
            match r {
                Record::State {
                    begin, end, state, ..
                } => {
                    assert_eq!((begin, end), (0, 1000));
                    assert_eq!(state, paraver::states::IDLE);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "truncated event record")]
    fn truncation_detected_at_finish() {
        let mut bank = CounterBank::new(1, CounterSet::default());
        bank.add_ops(0, 1, 1, 1);
        let full = bank.sample(10, 0).unwrap();
        let _ = decode_stream(&full[..EVENT_RECORD_BYTES - 3], 1, 100);
    }

    /// Reference decoder: each interval is pushed when it closes, then the
    /// whole stream is sorted.
    fn reference_decode(stream: &[u8], num_threads: u32, total_cycles: u64) -> Records {
        let mut records = Records::new();
        let mut unwrap = Unwrapper::new();
        let mut open = vec![(ThreadState::Idle, 0u64); num_threads as usize];
        for (tag, payload) in frames(stream, num_threads) {
            match tag {
                TAG_STATE => {
                    let (lo, states) = unpack_state_record(payload, num_threads);
                    let t = unwrap.full(lo);
                    for (tid, s) in states.into_iter().enumerate() {
                        let (old, since) = open[tid];
                        if s != old {
                            if t > since {
                                records.push_state(tid as u32, since, t, old.paraver_state());
                            }
                            open[tid] = (s, t);
                        }
                    }
                }
                TAG_EVENT => {
                    let (tid, lo, a) = unpack_event_record(payload);
                    let t = unwrap.full(lo);
                    let pairs = [a.stalls, a.int_ops, a.flops, a.bytes_read];
                    let pairs = pairs.into_iter().chain([a.bytes_written, a.local_ops]);
                    let types = [
                        paraver::events::STALLS,
                        paraver::events::INT_OPS,
                        paraver::events::FLOPS,
                        paraver::events::BYTES_READ,
                        paraver::events::BYTES_WRITTEN,
                        paraver::events::LOCAL_OPS,
                    ];
                    records.push_event(tid, t, types.into_iter().zip(pairs));
                }
                _ => {
                    let (tid, lo, region, enter) = unpack_region_record(payload);
                    let t = unwrap.full(lo);
                    let ty = paraver::events::region_type(region);
                    records.push_event(tid, t, [(ty, enter as u64)]);
                }
            }
        }
        for (tid, (state, since)) in open.into_iter().enumerate() {
            if total_cycles > since {
                records.push_state(tid as u32, since, total_cycles, state.paraver_state());
            }
        }
        records.sort_by_time();
        records
    }

    const STATES: [ThreadState; 4] = [
        ThreadState::Idle,
        ThreadState::Running,
        ThreadState::Critical,
        ThreadState::Spinning,
    ];

    /// A random stream of up to `frames` state snapshots, counter samples
    /// and region records on 1–8 threads, whose times step forward, stand
    /// still and, if `backward`, step back, with line padding between some
    /// frames. Returns the stream, its thread count and the run's end.
    fn random_stream(g: &mut miniprop::Rng, frames: usize, backward: bool) -> (Vec<u8>, u32, u64) {
        let n = g.range_u32(1, 9);
        let mut rec = StateRecorder::new(n);
        let mut bank = CounterBank::new(n, CounterSet::default());
        let mut stream = Vec::new();
        let mut t = g.range_u64(0, 50);
        for _ in 0..frames {
            t = match g.range_u32(0, 6) {
                0 | 1 => t,
                2 if backward => t.saturating_sub(g.range_u64(1, 30)),
                _ => t + g.range_u64(1, 30),
            };
            let tid = g.range_u32(0, n);
            match g.range_u32(0, 4) {
                0 | 1 => {
                    if let Some(r) = rec.transition(t, tid, *g.pick(&STATES)) {
                        stream.extend_from_slice(r);
                    }
                }
                2 => {
                    bank.add_ops(tid, g.range_u64(1, 9), g.range_u64(0, 9), 0);
                    stream.extend_from_slice(&bank.sample(t, tid).unwrap());
                }
                _ => {
                    let region = g.range_u32(0, 4) as u16;
                    stream.extend_from_slice(&pack_region_record(t, tid, region, g.bool()));
                }
            }
            if g.chance(1, 8) {
                stream.resize(stream.len() + g.range_usize(1, 8), 0);
            }
        }
        (stream, n, t + g.range_u64(0, 20))
    }

    #[test]
    fn decode_matches_push_on_close_then_sort() {
        miniprop::forall(300, |g| {
            let frames = g.range_usize(0, 80);
            let (stream, n, total) = random_stream(g, frames, true);
            assert_eq!(
                decode_stream(&stream, n, total),
                reference_decode(&stream, n, total)
            );
        });
    }

    /// Without backward steps no event flushes the side buffer, so more
    /// intervals than it holds make it flush when full.
    #[test]
    fn a_full_side_buffer_keeps_the_order() {
        miniprop::forall(2, |g| {
            let (stream, n, total) = random_stream(g, 5 * DEFERRED_CAP, false);
            assert_eq!(
                decode_stream(&stream, n, total),
                reference_decode(&stream, n, total)
            );
        });
    }

    /// A region record at the begin of an interval that closed before it
    /// was decoded: the side buffer must flush so the interval stays first.
    #[test]
    fn event_at_a_deferred_begin_keeps_the_interval_first() {
        let mut stream = Vec::new();
        let mut rec = StateRecorder::new(2);
        stream.extend_from_slice(rec.transition(10, 0, ThreadState::Running).unwrap());
        stream.extend_from_slice(rec.transition(20, 0, ThreadState::Idle).unwrap());
        stream.extend_from_slice(&pack_region_record(10, 1, 0, true));
        let records = decode_stream(&stream, 2, 30);
        assert_eq!(records, reference_decode(&stream, 2, 30));
        let order: Vec<(u8, u64)> = records.iter().map(|r| (r.kind(), r.sort_time())).collect();
        assert_eq!(order, [(1, 0), (1, 0), (1, 10), (2, 10), (1, 20)]);
    }
}
