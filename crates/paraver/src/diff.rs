//! A/B trace comparison — the quantitative core of the paper's optimization
//! workflow: after each code change (§V-C's five GEMM steps), compare the new
//! trace against the previous one and report what moved.

use crate::analysis::{event_total, StateProfile};
use crate::model::{Record, Records, TraceMeta};
use std::fmt::Write as _;

/// Comparison of two traces ("a" = before, "b" = after).
#[derive(Clone, Debug)]
pub struct TraceDiff {
    pub duration_a: u64,
    pub duration_b: u64,
    /// `duration_a / duration_b` — >1 means "b" is faster.
    pub speedup: f64,
    /// Per-state fraction deltas `(state, frac_a, frac_b)`.
    pub state_fracs: Vec<(u32, f64, f64)>,
    /// Per-event-type total deltas `(type, total_a, total_b)`.
    pub event_totals: Vec<(u32, u64, u64)>,
}

/// Compare two traces. Both must describe the same thread count (the same
/// accelerator with different code or inputs).
pub fn diff(a: (&TraceMeta, &Records), b: (&TraceMeta, &Records)) -> TraceDiff {
    assert_eq!(
        a.0.num_threads, b.0.num_threads,
        "traces come from different accelerators"
    );
    let threads = a.0.num_threads;
    let pa = StateProfile::compute(a.1, threads);
    let pb = StateProfile::compute(b.1, threads);
    let mut states: Vec<u32> = pa.total.keys().chain(pb.total.keys()).copied().collect();
    states.sort_unstable();
    states.dedup();
    let state_fracs = states
        .into_iter()
        .map(|s| (s, pa.fraction(s), pb.fraction(s)))
        .collect();

    let mut types: Vec<u32> = Vec::new();
    for r in a.1.iter().chain(b.1) {
        if let Record::Event { events, .. } = r {
            types.extend(events.iter().map(|(t, _)| t));
        }
    }
    types.sort_unstable();
    types.dedup();
    let event_totals = types
        .into_iter()
        .map(|t| (t, event_total(a.1, t), event_total(b.1, t)))
        .collect();

    TraceDiff {
        duration_a: a.0.duration,
        duration_b: b.0.duration,
        speedup: a.0.duration as f64 / b.0.duration.max(1) as f64,
        state_fracs,
        event_totals,
    }
}

impl TraceDiff {
    /// Render as a report table.
    pub fn render(&self, name_a: &str, name_b: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "trace diff: {name_a} ({} cy) → {name_b} ({} cy): {:.2}x",
            self.duration_a, self.duration_b, self.speedup
        );
        let _ = writeln!(
            s,
            "  {:<10} {:>9} {:>9} {:>9}",
            "state", name_a, name_b, "Δ pp"
        );
        for (st, fa, fb) in &self.state_fracs {
            let name = match *st {
                crate::states::IDLE => "Idle",
                crate::states::RUNNING => "Running",
                crate::states::CRITICAL => "Critical",
                crate::states::SPINNING => "Spinning",
                _ => "other",
            };
            let _ = writeln!(
                s,
                "  {:<10} {:>8.2}% {:>8.2}% {:>+8.2}",
                name,
                fa * 100.0,
                fb * 100.0,
                (fb - fa) * 100.0
            );
        }
        let _ = writeln!(
            s,
            "  {:<10} {:>12} {:>12} {:>8}",
            "event", name_a, name_b, "ratio"
        );
        for (ty, ta, tb) in &self.event_totals {
            let name = match *ty {
                crate::events::STALLS => "stalls",
                crate::events::INT_OPS => "int_ops",
                crate::events::FLOPS => "flops",
                crate::events::BYTES_READ => "bytes_rd",
                crate::events::BYTES_WRITTEN => "bytes_wr",
                crate::events::LOCAL_OPS => "local_ops",
                _ => "other",
            };
            let ratio = if *ta == 0 {
                f64::NAN
            } else {
                *tb as f64 / *ta as f64
            };
            let _ = writeln!(s, "  {:<10} {:>12} {:>12} {:>7.2}x", name, ta, tb, ratio);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{events, states};

    fn mk(duration: u64, crit: u64, flops: u64) -> (TraceMeta, Records) {
        let meta = TraceMeta::new("t", duration, 2);
        let mut records = Records::new();
        records.push_state(0, 0, duration - crit, states::RUNNING);
        records.push_state(0, duration - crit, duration, states::CRITICAL);
        records.push_event(0, duration / 2, [(events::FLOPS, flops)]);
        (meta, records)
    }

    #[test]
    fn reports_speedup_and_deltas() {
        let (ma, ra) = mk(1000, 200, 500);
        let (mb, rb) = mk(500, 0, 500);
        let d = diff((&ma, &ra), (&mb, &rb));
        assert!((d.speedup - 2.0).abs() < 1e-12);
        let crit = d
            .state_fracs
            .iter()
            .find(|(s, _, _)| *s == states::CRITICAL)
            .unwrap();
        assert!(crit.1 > 0.19 && crit.2 == 0.0, "critical removed: {crit:?}");
        let fl = d
            .event_totals
            .iter()
            .find(|(t, _, _)| *t == events::FLOPS)
            .unwrap();
        assert_eq!((fl.1, fl.2), (500, 500), "same work either way");
        let rendered = d.render("before", "after");
        assert!(rendered.contains("2.00x"));
        assert!(rendered.contains("Critical"));
    }

    #[test]
    #[should_panic(expected = "different accelerators")]
    fn thread_count_mismatch_panics() {
        let (ma, ra) = mk(10, 0, 0);
        let mut mb = ma.clone();
        mb.num_threads = 4;
        let _ = diff((&ma, &ra), (&mb, &ra));
    }
}
