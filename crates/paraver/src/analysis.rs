//! Trace analyses reproducing the computations behind the paper's figures.
//!
//! * [`StateProfile`] — time-in-state per thread and in aggregate, the
//!   numbers quoted for Fig. 6 ("1.54% of time in critical sections,
//!   spinning on locks 1.57%").
//! * [`event_series`] — time-binned counter series, the data behind the
//!   bandwidth comparison of Fig. 7 and the load/compute phase plots of
//!   Figs. 8–9.
//! * [`throughput_gbps`] / [`gflops`] — unit conversions from cycle-denominated
//!   counters to the GB/s / GFLOP/s the paper reports (§V-D).
//!
//! Sums of cycles and counter values saturate at `u64::MAX`, so any trace
//! the parser accepts is analysed without an overflow.

use crate::model::{Record, Records};
use std::collections::BTreeMap;

/// `*sum += v`, saturating at `u64::MAX`.
fn add(sum: &mut u64, v: u64) {
    *sum = sum.saturating_add(v);
}

/// Aggregated time-in-state statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct StateProfile {
    /// `per_thread[t][state] = cycles`, for the threads that have state
    /// records (a header may claim far more threads than a trace uses).
    pub per_thread: BTreeMap<u32, BTreeMap<u32, u64>>,
    /// Total cycles per state over all threads.
    pub total: BTreeMap<u32, u64>,
    /// Sum of all recorded state time over all threads.
    pub total_time: u64,
    /// The header's thread count.
    pub num_threads: u32,
}

impl StateProfile {
    /// Compute the profile from a record stream.
    pub fn compute(records: &Records, num_threads: u32) -> Self {
        let mut per_thread: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
        let mut total: BTreeMap<u32, u64> = BTreeMap::new();
        let mut total_time = 0u64;
        for r in records {
            if let Record::State {
                thread,
                begin,
                end,
                state,
            } = r
            {
                let dur = end.saturating_sub(begin);
                let m = per_thread.entry(thread).or_default();
                add(m.entry(state).or_default(), dur);
                add(total.entry(state).or_default(), dur);
                add(&mut total_time, dur);
            }
        }
        StateProfile {
            per_thread,
            total,
            total_time,
            num_threads,
        }
    }

    /// Fraction (0..=1) of total recorded time spent in `state`.
    pub fn fraction(&self, state: u32) -> f64 {
        if self.total_time == 0 {
            return 0.0;
        }
        *self.total.get(&state).unwrap_or(&0) as f64 / self.total_time as f64
    }

    /// Fraction of thread `t`'s recorded time spent in `state` (0 for a
    /// thread without records).
    pub fn thread_fraction(&self, t: u32, state: u32) -> f64 {
        let Some(m) = self.per_thread.get(&t) else {
            return 0.0;
        };
        let tt = m.values().fold(0u64, |sum, &v| sum.saturating_add(v));
        if tt == 0 {
            return 0.0;
        }
        *m.get(&state).unwrap_or(&0) as f64 / tt as f64
    }

    /// Load-balance metric: ratio of max to min per-thread time in `state`
    /// (1.0 = perfectly balanced). `None` when some thread of the header
    /// has zero time.
    pub fn imbalance(&self, state: u32) -> Option<f64> {
        let times: Vec<u64> = self
            .per_thread
            .values()
            .filter_map(|m| m.get(&state).copied())
            .filter(|&t| t > 0)
            .collect();
        if times.len() < self.num_threads as usize {
            return None;
        }
        let min = *times.iter().min()?;
        let max = *times.iter().max()?;
        Some(max as f64 / min as f64)
    }
}

/// A binned counter series: `bins[i]` is the sum of event values with
/// timestamps in `[i*bin_width, (i+1)*bin_width)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    pub bin_width: u64,
    pub bins: Vec<u64>,
}

impl Series {
    /// Value of the largest bin.
    pub fn peak(&self) -> u64 {
        self.bins.iter().copied().max().unwrap_or(0)
    }

    /// Mean bin value over the series' span.
    pub fn mean(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        self.total() as f64 / self.bins.len() as f64
    }

    /// Sum of all bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().fold(0, |sum, &b| sum.saturating_add(b))
    }

    /// Normalise each bin by the series peak, giving the "relative
    /// bandwidth" scale of Fig. 7.
    pub fn relative(&self) -> Vec<f64> {
        let p = self.peak();
        if p == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|&b| b as f64 / p as f64).collect()
    }
}

/// Bin the values of `event_type` (over all threads) into windows of
/// `bin_width` cycles across `[0, duration)`.
pub fn event_series(records: &Records, event_type: u32, bin_width: u64, duration: u64) -> Series {
    assert!(bin_width > 0, "bin width must be positive");
    let nbins = duration.div_ceil(bin_width).max(1) as usize;
    let mut bins = vec![0u64; nbins];
    for r in records {
        if let Record::Event { time, events, .. } = r {
            for (ty, v) in events {
                if ty == event_type {
                    let b = ((time / bin_width) as usize).min(nbins - 1);
                    add(&mut bins[b], v);
                }
            }
        }
    }
    Series { bin_width, bins }
}

/// Per-thread variant of [`event_series`].
pub fn event_series_per_thread(
    records: &Records,
    event_type: u32,
    bin_width: u64,
    duration: u64,
    num_threads: u32,
) -> Vec<Series> {
    let nbins = duration.div_ceil(bin_width).max(1) as usize;
    let mut per: Vec<Series> = (0..num_threads)
        .map(|_| Series {
            bin_width,
            bins: vec![0; nbins],
        })
        .collect();
    for r in records {
        if let Record::Event {
            thread,
            time,
            events,
        } = r
        {
            for (ty, v) in events {
                if ty == event_type {
                    let b = ((time / bin_width) as usize).min(nbins - 1);
                    add(&mut per[thread as usize].bins[b], v);
                }
            }
        }
    }
    per
}

/// Total of `event_type` over the whole trace.
pub fn event_total(records: &Records, event_type: u32) -> u64 {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Event { events, .. } => Some(
                events
                    .iter()
                    .filter(|&(ty, _)| ty == event_type)
                    .fold(0u64, |sum, (_, v)| sum.saturating_add(v)),
            ),
            _ => None,
        })
        .fold(0, u64::saturating_add)
}

/// Convert a byte count over a cycle interval to GB/s at `clock_hz`.
pub fn throughput_gbps(bytes: u64, cycles: u64, clock_hz: f64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    let seconds = cycles as f64 / clock_hz;
    bytes as f64 / seconds / 1e9
}

/// Convert a FLOP count over a cycle interval to GFLOP/s at `clock_hz`
/// (how §V-D derives its 0.146 / 0.556 / 1.507 GFLOP/s figures).
pub fn gflops(flops: u64, cycles: u64, clock_hz: f64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    let seconds = cycles as f64 / clock_hz;
    flops as f64 / seconds / 1e9
}

/// Restrict records to a time window (the "zoom" of Fig. 6 bottom). State
/// intervals are clipped to the window; events/comms are kept when inside.
pub fn zoom(records: &Records, t0: u64, t1: u64) -> Records {
    let mut out = Records::new();
    for r in records {
        match r {
            Record::State {
                thread,
                begin,
                end,
                state,
            } => {
                let b = begin.max(t0);
                let e = end.min(t1);
                if b < e {
                    out.push_state(thread, b, e, state);
                }
            }
            _ if (t0..t1).contains(&r.sort_time()) => out.push(r),
            _ => {}
        }
    }
    out
}

/// Check the mutual-exclusion invariant behind Fig. 6's zoom: at no instant
/// are two threads simultaneously in state `critical_state`. Returns the
/// first violating time if any.
pub fn find_critical_overlap(records: &Records, critical_state: u32) -> Option<u64> {
    let mut intervals: Vec<(u64, u64)> = records
        .iter()
        .filter_map(|r| match r {
            Record::State {
                begin, end, state, ..
            } if state == critical_state && begin < end => Some((begin, end)),
            _ => None,
        })
        .collect();
    intervals.sort_unstable();
    for w in intervals.windows(2) {
        if w[1].0 < w[0].1 {
            return Some(w[1].0);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::states;

    /// A stream of `(thread, begin, end, state)` state records.
    fn state_records(list: &[(u32, u64, u64, u32)]) -> Records {
        let mut rs = Records::new();
        for &(thread, begin, end, state) in list {
            rs.push_state(thread, begin, end, state);
        }
        rs
    }

    #[test]
    fn profile_fractions() {
        let rs = state_records(&[
            (0, 0, 80, states::RUNNING),
            (0, 80, 90, states::CRITICAL),
            (0, 90, 100, states::SPINNING),
            (1, 0, 100, states::RUNNING),
        ]);
        let p = StateProfile::compute(&rs, 2);
        assert_eq!(p.total_time, 200);
        assert!((p.fraction(states::CRITICAL) - 0.05).abs() < 1e-12);
        assert!((p.thread_fraction(0, states::SPINNING) - 0.10).abs() < 1e-12);
        assert_eq!(p.thread_fraction(1, states::CRITICAL), 0.0);
    }

    #[test]
    fn imbalance_detects_skew() {
        let rs = state_records(&[(0, 0, 100, states::RUNNING), (1, 0, 50, states::RUNNING)]);
        let p = StateProfile::compute(&rs, 2);
        assert_eq!(p.imbalance(states::RUNNING), Some(2.0));
        assert_eq!(p.imbalance(states::CRITICAL), None);
    }

    /// A header may claim any thread count; the profile holds only the
    /// threads that have records, and answers for the rest.
    #[test]
    fn huge_header_thread_count_is_not_allocated() {
        let rs = state_records(&[
            (0, 0, 60, states::RUNNING),
            (3_999_999_999, 0, 100, states::CRITICAL),
        ]);
        let p = StateProfile::compute(&rs, 4_000_000_000);
        assert_eq!(p.per_thread.len(), 2);
        assert_eq!(p.total_time, 160);
        assert_eq!(p.thread_fraction(0, states::RUNNING), 1.0);
        assert_eq!(p.thread_fraction(7, states::RUNNING), 0.0, "absent thread");
        assert_eq!(p.imbalance(states::RUNNING), None, "most threads idle");
        assert_eq!(p.imbalance(states::CRITICAL), None);
    }

    #[test]
    fn series_binning_and_relative() {
        let mut rs = Records::new();
        rs.push_event(0, 5, [(crate::events::BYTES_READ, 100)]);
        rs.push_event(1, 15, [(crate::events::BYTES_READ, 300)]);
        rs.push_event(0, 15, [(crate::events::BYTES_READ, 100)]);
        let s = event_series(&rs, crate::events::BYTES_READ, 10, 30);
        assert_eq!(s.bins, vec![100, 400, 0]);
        assert_eq!(s.peak(), 400);
        assert_eq!(s.total(), 500);
        let rel = s.relative();
        assert_eq!(rel, vec![0.25, 1.0, 0.0]);
        let per = event_series_per_thread(&rs, crate::events::BYTES_READ, 10, 30, 2);
        assert_eq!(per[0].bins, vec![100, 100, 0]);
        assert_eq!(per[1].bins, vec![0, 300, 0]);
    }

    #[test]
    fn unit_conversions() {
        // 1 GB in 1 second worth of cycles at 100 MHz.
        let g = throughput_gbps(1_000_000_000, 100_000_000, 100e6);
        assert!((g - 1.0).abs() < 1e-12);
        let f = gflops(1_507_000, 1_000_000, 1e9);
        assert!((f - 1.507).abs() < 1e-9);
    }

    #[test]
    fn zoom_clips_states() {
        let rs = state_records(&[(0, 0, 100, states::RUNNING)]);
        let z = zoom(&rs, 40, 60);
        assert_eq!(z, state_records(&[(0, 40, 60, states::RUNNING)]));
    }

    #[test]
    fn critical_overlap_detection() {
        let ok = state_records(&[(0, 0, 10, states::CRITICAL), (1, 10, 20, states::CRITICAL)]);
        assert_eq!(find_critical_overlap(&ok, states::CRITICAL), None);
        let bad = state_records(&[(0, 0, 10, states::CRITICAL), (1, 5, 15, states::CRITICAL)]);
        assert_eq!(find_critical_overlap(&bad, states::CRITICAL), Some(5));
    }

    #[test]
    fn event_total_sums() {
        let mut rs = Records::new();
        rs.push_event(
            0,
            0,
            [(crate::events::FLOPS, 10), (crate::events::STALLS, 5)],
        );
        rs.push_event(1, 1, [(crate::events::FLOPS, 32)]);
        assert_eq!(event_total(&rs, crate::events::FLOPS), 42);
        assert_eq!(event_total(&rs, crate::events::STALLS), 5);
    }
}
