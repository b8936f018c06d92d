//! 2D histograms — Paraver's signature analysis view.
//!
//! Paraver's power comes from turning a timeline into a `threads ×
//! value-buckets` matrix: burst-duration histograms expose load imbalance,
//! event-value histograms expose bimodal behaviour (e.g. the distinct
//! transfer/compute regimes of the paper's blocked GEMM). This module
//! provides those matrices over the record model plus an ASCII renderer in
//! the style of the GUI's gradient view.

use crate::model::{Record, Records};
use std::fmt::Write as _;

/// A `threads × buckets` counting matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram2D {
    /// Inclusive lower edge of each bucket.
    pub bucket_edges: Vec<u64>,
    /// `counts[thread][bucket]`.
    pub counts: Vec<Vec<u64>>,
    /// What is being counted (for rendering).
    pub label: String,
}

impl Histogram2D {
    fn new(num_threads: u32, edges: Vec<u64>, label: String) -> Self {
        Histogram2D {
            counts: vec![vec![0; edges.len()]; num_threads as usize],
            bucket_edges: edges,
            label,
        }
    }

    fn bucket(&self, v: u64) -> usize {
        match self.bucket_edges.binary_search(&v) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    fn add(&mut self, thread: u32, v: u64) {
        let b = self.bucket(v);
        self.counts[thread as usize][b] += 1;
    }

    /// Total samples for one thread.
    pub fn thread_total(&self, t: u32) -> u64 {
        self.counts[t as usize].iter().sum()
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Render as an ASCII gradient table (rows = threads).
    pub fn render(&self) -> String {
        const LEVELS: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '@'];
        let peak = self
            .counts
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0)
            .max(1);
        let mut s = String::new();
        let _ = writeln!(s, "{} — rows: threads, cols: buckets", self.label);
        let _ = write!(s, "        ");
        for e in &self.bucket_edges {
            let _ = write!(s, "{:>8}", e);
        }
        s.push('\n');
        for (t, row) in self.counts.iter().enumerate() {
            let _ = write!(s, "T{t:<3} |");
            for &c in row {
                let idx = ((c as f64 / peak as f64) * (LEVELS.len() - 1) as f64).round() as usize;
                let ch = LEVELS[idx.min(LEVELS.len() - 1)];
                let _ = write!(s, " {ch}{ch}{ch}{ch}{ch}{ch} ");
            }
            s.push_str("|\n");
        }
        s
    }
}

/// Logarithmic bucket edges covering `[1, max]`.
pub fn log2_edges(max: u64) -> Vec<u64> {
    let mut edges = vec![0u64, 1];
    let mut e = 2u64;
    while e <= max.max(2) {
        edges.push(e);
        e = e.saturating_mul(2);
    }
    edges
}

/// Histogram of state-interval *durations* for one state (Paraver's
/// "useful duration" view — the paper reads load balance off it).
pub fn state_duration_histogram(records: &Records, num_threads: u32, state: u32) -> Histogram2D {
    let max = records
        .iter()
        .filter_map(|r| match r {
            Record::State {
                begin,
                end,
                state: s,
                ..
            } if s == state => Some(end - begin),
            _ => None,
        })
        .max()
        .unwrap_or(1);
    let mut h = Histogram2D::new(
        num_threads,
        log2_edges(max),
        format!("duration histogram of state {state} (cycles, log2 buckets)"),
    );
    for r in records {
        if let Record::State {
            thread,
            begin,
            end,
            state: s,
        } = r
        {
            if s == state && end > begin {
                h.add(thread, end - begin);
            }
        }
    }
    h
}

/// Histogram of sampled event *values* for one event type (e.g. bytes per
/// sampling period — bimodal for phased transfer/compute behaviour).
pub fn event_value_histogram(records: &Records, num_threads: u32, event_type: u32) -> Histogram2D {
    let max = records
        .iter()
        .filter_map(|r| match r {
            Record::Event { events, .. } => events
                .iter()
                .filter(|&(ty, _)| ty == event_type)
                .map(|(_, v)| v)
                .max(),
            _ => None,
        })
        .max()
        .unwrap_or(1);
    let mut h = Histogram2D::new(
        num_threads,
        log2_edges(max),
        format!("value histogram of event {event_type} (log2 buckets)"),
    );
    for r in records {
        if let Record::Event { thread, events, .. } = r {
            for (ty, v) in events {
                if ty == event_type {
                    h.add(thread, v);
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::states;

    #[test]
    fn log2_edges_cover_range() {
        let e = log2_edges(100);
        assert_eq!(e, vec![0, 1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn duration_histogram_buckets_by_length() {
        let mut records = Records::new();
        records.push_state(0, 0, 3, states::RUNNING); // dur 3 → bucket edge 2
        records.push_state(0, 10, 74, states::RUNNING); // dur 64 → bucket edge 64
        records.push_state(1, 0, 1, states::RUNNING); // dur 1
        records.push_state(1, 5, 9, states::SPINNING); // other state: excluded
        let h = state_duration_histogram(&records, 2, states::RUNNING);
        assert_eq!(h.total(), 3);
        assert_eq!(h.thread_total(0), 2);
        let b3 = h.bucket(3);
        assert_eq!(h.counts[0][b3], 1);
        let b64 = h.bucket(64);
        assert_eq!(h.counts[0][b64], 1);
        let b1 = h.bucket(1);
        assert_eq!(h.counts[1][b1], 1);
    }

    #[test]
    fn event_histogram_counts_values() {
        let mut records = Records::new();
        records.push_event(0, 0, [(42, 7), (43, 100)]);
        records.push_event(1, 5, [(42, 9)]);
        let h = event_value_histogram(&records, 2, 42);
        assert_eq!(h.total(), 2);
        // Values 7 and 9 land in the 4..8 and 8..16 buckets.
        assert_eq!(h.counts[0][h.bucket(7)], 1);
        assert_eq!(h.counts[1][h.bucket(9)], 1);
    }

    #[test]
    fn render_is_wellformed() {
        let mut records = Records::new();
        records.push_state(0, 0, 10, states::RUNNING);
        let h = state_duration_histogram(&records, 2, states::RUNNING);
        let s = h.render();
        assert!(s.contains("T0"));
        assert!(s.contains("T1"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn bucket_lookup_is_stable_at_edges() {
        let h = Histogram2D::new(1, vec![0, 1, 2, 4, 8], "t".into());
        assert_eq!(h.bucket(0), 0);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(3), 2);
        assert_eq!(h.bucket(4), 3);
        assert_eq!(h.bucket(1000), 4);
    }
}
