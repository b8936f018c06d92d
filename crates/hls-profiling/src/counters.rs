//! Event performance counters (§IV-B.2).
//!
//! "For each of the supported events, we added a performance counter module
//! to the accelerator. As we need to aggregate values from multiple sources
//! ... this module has two inputs for each source: the event to be recorded
//! from that source, and a condition if the value is valid. In each clock
//! cycle, all valid values are added to the running aggregate. All
//! aggregated events are periodically flushed to external memory. This
//! period is user-adjustable."
//!
//! Which modules exist is a [`CounterSet`] (`nymble_hls::probe`, shared with
//! the auto-probe planner); a class outside the set never accumulates, which
//! is the per-counter ablation of §V-B ("each of the counters contributes
//! similarly to the hardware overhead").

use crate::recorder::TAG_EVENT;
use nymble_hls::probe::{CounterClass, CounterSet};

/// Aggregation registers of one thread for one sampling period.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub stalls: u64,
    pub int_ops: u64,
    pub flops: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub local_ops: u64,
}

impl Aggregate {
    /// True when every register is zero (record suppressed).
    pub fn is_zero(&self) -> bool {
        *self == Aggregate::default()
    }
}

/// Size of a packed event record in bytes:
/// tag + tid + 32-bit cycle + six 32-bit aggregates.
pub const EVENT_RECORD_BYTES: usize = 1 + 1 + 4 + 6 * 4;

/// The bank of counter modules for all threads.
#[derive(Clone, Debug)]
pub struct CounterBank {
    set: CounterSet,
    agg: Vec<Aggregate>,
}

impl CounterBank {
    pub fn new(num_threads: u32, set: CounterSet) -> Self {
        CounterBank {
            set,
            agg: vec![Aggregate::default(); num_threads as usize],
        }
    }

    pub fn add_stalls(&mut self, tid: u32, v: u64) {
        if self.set.contains(CounterClass::Stalls) {
            self.agg[tid as usize].stalls += v;
        }
    }

    pub fn add_ops(&mut self, tid: u32, int_ops: u64, flops: u64, local_ops: u64) {
        let a = &mut self.agg[tid as usize];
        if self.set.contains(CounterClass::IntOps) {
            a.int_ops += int_ops;
        }
        if self.set.contains(CounterClass::Flops) {
            a.flops += flops;
        }
        if self.set.contains(CounterClass::LocalOps) {
            a.local_ops += local_ops;
        }
    }

    pub fn add_read(&mut self, tid: u32, bytes: u64) {
        if self.set.contains(CounterClass::MemRead) {
            self.agg[tid as usize].bytes_read += bytes;
        }
    }

    pub fn add_write(&mut self, tid: u32, bytes: u64) {
        if self.set.contains(CounterClass::MemWrite) {
            self.agg[tid as usize].bytes_written += bytes;
        }
    }

    /// Sample one thread: pack its aggregate into a record and reset the
    /// registers. Returns `None` when the aggregate is all-zero (the
    /// hardware suppresses the write to save buffer bandwidth).
    pub fn sample(&mut self, t: u64, tid: u32) -> Option<[u8; EVENT_RECORD_BYTES]> {
        let a = std::mem::take(&mut self.agg[tid as usize]);
        if a.is_zero() {
            return None;
        }
        let mut rec = [0u8; EVENT_RECORD_BYTES];
        rec[0] = TAG_EVENT;
        rec[1] = tid as u8;
        rec[2..6].copy_from_slice(&((t & 0xFFFF_FFFF) as u32).to_le_bytes());
        let sat = |v: u64| (v.min(u32::MAX as u64) as u32).to_le_bytes();
        rec[6..10].copy_from_slice(&sat(a.stalls));
        rec[10..14].copy_from_slice(&sat(a.int_ops));
        rec[14..18].copy_from_slice(&sat(a.flops));
        rec[18..22].copy_from_slice(&sat(a.bytes_read));
        rec[22..26].copy_from_slice(&sat(a.bytes_written));
        rec[26..30].copy_from_slice(&sat(a.local_ops));
        Some(rec)
    }
}

/// Unpack an event record payload (after the tag byte):
/// `(tid, cycle_lo32, aggregate)`.
pub fn unpack_event_record(payload: &[u8]) -> (u32, u32, Aggregate) {
    let tid = payload[0] as u32;
    let rd = |i: usize| u32::from_le_bytes(payload[i..i + 4].try_into().unwrap()) as u64;
    let cycle = rd(1) as u32;
    (
        tid,
        cycle,
        Aggregate {
            stalls: rd(5),
            int_ops: rd(9),
            flops: rd(13),
            bytes_read: rd(17),
            bytes_written: rd(21),
            local_ops: rd(25),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_and_reset() {
        let mut b = CounterBank::new(2, CounterSet::default());
        b.add_ops(0, 3, 5, 1);
        b.add_ops(0, 2, 0, 0);
        b.add_read(0, 64);
        b.add_stalls(1, 7);
        let rec = b.sample(1000, 0).expect("nonzero");
        let (tid, cycle, a) = unpack_event_record(&rec[1..]);
        assert_eq!(tid, 0);
        assert_eq!(cycle, 1000);
        assert_eq!(a.int_ops, 5);
        assert_eq!(a.flops, 5);
        assert_eq!(a.bytes_read, 64);
        // Registers reset after sampling.
        assert!(b.sample(2000, 0).is_none());
        // Thread 1 still pending.
        let rec1 = b.sample(2000, 1).unwrap();
        let (_, _, a1) = unpack_event_record(&rec1[1..]);
        assert_eq!(a1.stalls, 7);
    }

    #[test]
    fn disabled_counters_record_nothing() {
        let mut b = CounterBank::new(1, CounterSet::NONE);
        b.add_ops(0, 5, 5, 5);
        b.add_read(0, 100);
        b.add_stalls(0, 9);
        assert!(b.sample(10, 0).is_none());
    }

    #[test]
    fn saturating_pack() {
        let mut b = CounterBank::new(1, CounterSet::default());
        b.add_read(0, u64::MAX / 2);
        let rec = b.sample(1, 0).unwrap();
        let (_, _, a) = unpack_event_record(&rec[1..]);
        assert_eq!(a.bytes_read, u32::MAX as u64, "32-bit hardware saturates");
    }

    #[test]
    fn partial_counter_sets() {
        let mut b = CounterBank::new(1, CounterSet::NONE.with(CounterClass::Stalls));
        b.add_ops(0, 100, 100, 100);
        assert!(b.sample(1, 0).is_none(), "only stalls instantiated");
        b.add_stalls(0, 1);
        assert!(b.sample(2, 0).is_some());
    }
}
