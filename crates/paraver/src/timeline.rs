//! ASCII timeline rendering — the headless stand-in for the Paraver GUI.
//!
//! Renders the state view of a trace as one character row per hardware
//! thread, with each column covering a fixed time window and showing the
//! *dominant* state of that window. This is how the repository's examples
//! and `repro_*` binaries display the paper's Figs. 6, 11, 12 and 13.
//!
//! Legend (matching the paper's colour legend textually):
//! `.` Idle (black), `R` Running (green), `C` Critical (blue),
//! `S` Spinning (red).

use crate::model::{Record, Records};
use crate::states;
use std::fmt::Write as _;

/// Character used for a state id.
pub fn state_char(state: u32) -> char {
    match state {
        states::IDLE => '.',
        states::RUNNING => 'R',
        states::CRITICAL => 'C',
        states::SPINNING => 'S',
        other => char::from_digit(other % 36, 36).unwrap_or('?'),
    }
}

/// Options for rendering.
#[derive(Clone, Debug)]
pub struct TimelineOptions {
    /// Number of character columns.
    pub width: usize,
    /// Time range; `None` = full trace `[0, duration)`.
    pub window: Option<(u64, u64)>,
    /// Show a cycle-count axis below the chart.
    pub axis: bool,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            width: 100,
            window: None,
            axis: true,
        }
    }
}

/// Render the per-thread state timeline of a trace.
pub fn render_states(
    records: &Records,
    num_threads: u32,
    duration: u64,
    opts: &TimelineOptions,
) -> String {
    let (t0, t1) = opts.window.unwrap_or((0, duration.max(1)));
    assert!(t1 > t0, "empty window");
    let width = opts.width.max(1);
    let span = t1 - t0;
    // dominance[thread][col][state] = covered time.
    let mut cover = vec![vec![[0u64; 64]; width]; num_threads as usize];
    for r in records {
        let Record::State {
            thread,
            begin,
            end,
            state,
        } = r
        else {
            continue;
        };
        let (b, e) = (begin.max(t0), end.min(t1));
        if b >= e {
            continue;
        }
        let sidx = (state as usize).min(63);
        // Columns the interval touches.
        let c0 = ((b - t0) as u128 * width as u128 / span as u128) as usize;
        let c1 = (((e - t0) as u128 * width as u128).div_ceil(span as u128) as usize).min(width);
        for (c, slot) in cover[thread as usize]
            .iter_mut()
            .enumerate()
            .take(c1)
            .skip(c0)
        {
            let col_t0 = t0 + (c as u64 * span) / width as u64;
            let col_t1 = t0 + ((c as u64 + 1) * span) / width as u64;
            let ov = e.min(col_t1).saturating_sub(b.max(col_t0));
            slot[sidx] += ov;
        }
    }
    let mut out = String::new();
    for (t, row) in cover.iter().enumerate() {
        let _ = write!(out, "T{t:<2} |");
        for col in row {
            let (best, cov) = col
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .map(|(s, c)| (s as u32, *c))
                .unwrap_or((0, 0));
            out.push(if cov == 0 { ' ' } else { state_char(best) });
        }
        out.push_str("|\n");
    }
    if opts.axis {
        let left = format!("{t0} cy");
        let right = format!("{t1} cy");
        let pad = width.saturating_sub(right.len());
        let _ = writeln!(out, "    +{}+\n     {left:<pad$}{right}", "-".repeat(width));
    }
    out
}

/// Render a single numeric series (e.g. the Fig. 7 bandwidth curves) as a
/// bar sparkline using eighth-block style ASCII levels.
pub fn render_series(bins: &[f64], height_label: &str) -> String {
    const LEVELS: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '@'];
    let peak = bins.iter().cloned().fold(0.0f64, f64::max);
    let mut out = String::new();
    let _ = write!(out, "{height_label:>12} |");
    for &b in bins {
        let idx = if peak <= 0.0 {
            0
        } else {
            ((b / peak) * (LEVELS.len() - 1) as f64).round() as usize
        };
        out.push(LEVELS[idx.min(LEVELS.len() - 1)]);
    }
    out.push('|');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream of `(thread, begin, end, state)` state records.
    fn state_records(list: &[(u32, u64, u64, u32)]) -> Records {
        let mut rs = Records::new();
        for &(thread, begin, end, state) in list {
            rs.push_state(thread, begin, end, state);
        }
        rs
    }

    #[test]
    fn renders_dominant_state_per_column() {
        let rs = state_records(&[
            (0, 0, 50, states::RUNNING),
            (0, 50, 100, states::SPINNING),
            (1, 0, 100, states::CRITICAL),
        ]);
        let opts = TimelineOptions {
            width: 10,
            window: None,
            axis: false,
        };
        let s = render_states(&rs, 2, 100, &opts);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("RRRRRSSSSS"), "line 0: {}", lines[0]);
        assert!(lines[1].contains("CCCCCCCCCC"), "line 1: {}", lines[1]);
    }

    #[test]
    fn empty_window_is_blank_not_panic() {
        let rs = state_records(&[(0, 0, 10, states::RUNNING)]);
        let opts = TimelineOptions {
            width: 5,
            window: Some((50, 100)),
            axis: false,
        };
        let s = render_states(&rs, 1, 100, &opts);
        assert!(s.contains("|     |"), "{s}");
    }

    #[test]
    fn sparkline_scales_to_peak() {
        let s = render_series(&[0.0, 0.5, 1.0], "GB/s");
        assert!(s.ends_with("|"));
        assert!(s.contains('@'), "{s}");
    }

    #[test]
    fn state_chars() {
        assert_eq!(state_char(states::IDLE), '.');
        assert_eq!(state_char(states::RUNNING), 'R');
        assert_eq!(state_char(states::CRITICAL), 'C');
        assert_eq!(state_char(states::SPINNING), 'S');
    }
}
