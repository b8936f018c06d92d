//! Property tests: the `.prv` writer and parser are inverses for arbitrary
//! record streams, and the analysis primitives conserve what they bin.

use miniprop::{forall, Rng};
use paraver::analysis::{event_series, event_total, zoom, StateProfile};
use paraver::model::{Record, Records, TraceMeta};
use paraver::parse::parse_prv;
use paraver::prv::TraceWriter;

const THREADS: u32 = 8;

fn push_arb_record(g: &mut Rng, max_t: u64, rs: &mut Records) {
    if g.bool() {
        let begin = g.range_u64(0, max_t);
        let thread = g.range_u32(0, THREADS);
        let end = begin + g.range_u64(0, 1000);
        rs.push_state(thread, begin, end, g.range_u32(0, 4));
    } else {
        let thread = g.range_u32(0, THREADS);
        let time = g.range_u64(0, max_t);
        let pairs = g.vec(1, 4, |g| {
            (42_000_000 + g.range_u32(1, 5), g.range_u64(0, 1_000_000))
        });
        rs.push_event(thread, time, pairs);
    }
}

/// An arbitrary record set, sorted into valid write order.
fn arb_trace(g: &mut Rng) -> Records {
    let mut rs = Records::new();
    for _ in 0..g.range_usize(0, 200) {
        push_arb_record(g, 100_000, &mut rs);
    }
    rs.sort_by_time();
    rs
}

#[test]
fn prv_write_parse_roundtrip() {
    forall(64, |g| {
        let records = arb_trace(g);
        let meta = TraceMeta::new("prop", 200_000, THREADS);
        let mut w = TraceWriter::new(Vec::new(), meta).unwrap();
        w.write_all(&records).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let (meta2, parsed) = parse_prv(&text).unwrap();
        assert_eq!(meta2.num_threads, THREADS);
        assert_eq!(parsed, records);
    });
}

#[test]
fn event_series_conserves_totals() {
    forall(64, |g| {
        let records = arb_trace(g);
        let bin = g.range_u64(1, 10_000);
        for ty in 42_000_001..42_000_005u32 {
            let total = event_total(&records, ty);
            let series = event_series(&records, ty, bin, 200_000);
            assert_eq!(series.total(), total, "binning must conserve type {ty}");
        }
    });
}

#[test]
fn state_profile_total_equals_interval_sum() {
    forall(64, |g| {
        let records = arb_trace(g);
        let profile = StateProfile::compute(&records, THREADS);
        let expect: u64 = records
            .iter()
            .filter_map(|r| match r {
                Record::State { begin, end, .. } => Some(end - begin),
                _ => None,
            })
            .sum();
        assert_eq!(profile.total_time, expect);
        // Per-thread sums add up to the total.
        let per: u64 = profile.per_thread.values().flat_map(|m| m.values()).sum();
        assert_eq!(per, expect);
    });
}

#[test]
fn zoom_never_grows_time() {
    forall(64, |g| {
        let records = arb_trace(g);
        let t0 = g.range_u64(0, 50_000);
        let len = g.range_u64(1, 50_000);
        let z = zoom(&records, t0, t0 + len);
        for r in &z {
            match r {
                Record::State { begin, end, .. } => {
                    assert!(begin >= t0 && end <= t0 + len);
                }
                Record::Event { time, .. } => {
                    assert!(time >= t0 && time < t0 + len);
                }
                Record::Comm(c) => {
                    assert!(c.logical_send >= t0 && c.logical_send < t0 + len);
                }
            }
        }
        // Zoomed state time never exceeds the original.
        let orig = StateProfile::compute(&records, THREADS).total_time;
        let zoomed = StateProfile::compute(&z, THREADS).total_time;
        assert!(zoomed <= orig);
    });
}

#[test]
fn relative_series_is_normalised() {
    forall(64, |g| {
        let records = arb_trace(g);
        let bin = g.range_u64(1, 10_000);
        let series = event_series(&records, 42_000_001, bin, 200_000);
        let rel = series.relative();
        for v in &rel {
            assert!((0.0..=1.0).contains(v));
        }
        if series.peak() > 0 {
            assert!(rel.iter().any(|&v| (v - 1.0).abs() < 1e-12));
        }
    });
}
