//! Property tests of the profiling unit's record path: arbitrary state
//! transition sequences and counter feeds survive packing → buffering →
//! flushing → decoding with nothing lost or invented, and the decoded
//! trace survives its `.prv` bundle.

use fpga_sim::{Snoop, ThreadState};
use hls_profiling::counters::{unpack_event_record, CounterBank, EVENT_RECORD_BYTES};
use hls_profiling::recorder::{unpack_state_record, StateRecorder};
use hls_profiling::{ProfilingConfig, ProfilingUnit};
use miniprop::{forall, Rng};
use nymble_hls::probe::CounterSet;
use paraver::analysis::{event_total, StateProfile};
use paraver::model::Record;
use paraver::parse::parse_prv;

const THREADS: u32 = 4;

#[derive(Clone, Debug)]
enum Feed {
    State(u32, ThreadState),
    Ops(u32, u64, u64, u64),
    Read(u32, u64),
    Write(u32, u64),
    Stall(u32, u64),
}

const STATES: [ThreadState; 4] = [
    ThreadState::Idle,
    ThreadState::Running,
    ThreadState::Critical,
    ThreadState::Spinning,
];

fn arb_feed(g: &mut Rng) -> Feed {
    let tid = g.range_u32(0, THREADS);
    match g.range_u32(0, 5) {
        0 => Feed::State(tid, *g.pick(&STATES)),
        1 => Feed::Ops(
            tid,
            g.range_u64(0, 100),
            g.range_u64(0, 100),
            g.range_u64(0, 100),
        ),
        2 => Feed::Read(tid, g.range_u64(0, 4096)),
        3 => Feed::Write(tid, g.range_u64(0, 4096)),
        _ => Feed::Stall(tid, g.range_u64(0, 64)),
    }
}

fn apply_feeds(unit: &mut ProfilingUnit, feeds: &[(Feed, u64)]) -> (u64, u64, u64, u64, u64, u64) {
    let mut t = 0u64;
    let (mut flops, mut int_ops, mut reads, mut writes, mut stalls) = (0u64, 0, 0, 0, 0);
    for (f, dt) in feeds {
        t += dt;
        match f {
            Feed::State(tid, s) => unit.state_change(t, *tid, *s),
            Feed::Ops(tid, i, fl, l) => {
                int_ops += i;
                flops += fl;
                unit.ops(t, *tid, *i, *fl, *l);
            }
            Feed::Read(tid, b) => {
                reads += b;
                unit.mem_read(t, *tid, *b);
            }
            Feed::Write(tid, b) => {
                writes += b;
                unit.mem_write(t, *tid, *b);
            }
            Feed::Stall(tid, c) => {
                stalls += c;
                unit.stall(t, *tid, *c);
            }
        }
    }
    (t, flops, int_ops, reads, writes, stalls)
}

/// Everything fed into the counters appears in the decoded trace, and
/// the reconstructed per-thread state timeline tiles the whole run.
#[test]
fn feed_is_conserved_through_buffer_and_decode() {
    forall(64, |g| {
        let feeds = g.vec(1, 300, |g| (arb_feed(g), g.range_u64(1, 50)));
        let period = g.range_u64(1, 5_000);
        let buffer_lines = g.range_usize(2, 64);
        let mut unit = ProfilingUnit::new(
            "prop",
            THREADS,
            ProfilingConfig {
                sampling_period: period,
                buffer_lines,
                ..Default::default()
            },
        );
        let (t, flops, int_ops, reads, writes, stalls) = apply_feeds(&mut unit, &feeds);
        let end = t + 10;
        unit.run_end(end);
        let trace = unit.finish();

        assert_eq!(event_total(&trace.records, paraver::events::FLOPS), flops);
        assert_eq!(
            event_total(&trace.records, paraver::events::INT_OPS),
            int_ops
        );
        assert_eq!(
            event_total(&trace.records, paraver::events::BYTES_READ),
            reads
        );
        assert_eq!(
            event_total(&trace.records, paraver::events::BYTES_WRITTEN),
            writes
        );
        assert_eq!(event_total(&trace.records, paraver::events::STALLS), stalls);

        // State intervals tile [0, end) per thread.
        let profile = StateProfile::compute(&trace.records, THREADS);
        for tid in 0..THREADS {
            let total: u64 = profile.per_thread.get(&tid).map_or(0, |m| m.values().sum());
            assert_eq!(total, end, "thread {tid} timeline must tile the run");
        }

        // Intervals are disjoint and sorted per thread.
        for tid in 0..THREADS {
            let mut iv: Vec<(u64, u64)> = trace
                .records
                .iter()
                .filter_map(|r| match r {
                    Record::State {
                        thread, begin, end, ..
                    } if thread == tid => Some((begin, end)),
                    _ => None,
                })
                .collect();
            iv.sort_unstable();
            for w in iv.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    });
}

/// End to end: whatever a random feed leaves in the decoded trace comes
/// back exactly from its bundle's `.prv` (the header has no app name).
#[test]
fn feeds_round_trip_through_bundle_and_parse() {
    let dir = std::env::temp_dir().join(format!("feed-bundle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("prop");
    forall(32, |g| {
        let feeds = g.vec(1, 300, |g| (arb_feed(g), g.range_u64(1, 50)));
        let mut unit = ProfilingUnit::new(
            "prop",
            THREADS,
            ProfilingConfig {
                sampling_period: g.range_u64(1, 5_000),
                buffer_lines: g.range_usize(2, 64),
                ..Default::default()
            },
        );
        let (t, ..) = apply_feeds(&mut unit, &feeds);
        unit.run_end(t + g.range_u64(0, 10));
        let trace = unit.finish();
        trace.write_bundle(&stem).unwrap();

        let bytes = std::fs::read(stem.with_extension("prv")).unwrap();
        let (mut meta, records) = parse_prv(&bytes).unwrap();
        meta.app_name = trace.meta.app_name.clone();
        assert_eq!(meta, trace.meta);
        assert_eq!(records, trace.records);
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The trace stream stays decodable across any number of forced
/// flushes — flushing is transparent to the decoder.
#[test]
fn tiny_buffers_flush_transparently() {
    forall(64, |g| {
        let n_events = g.range_usize(1, 200);
        let run = |lines: usize| {
            let mut unit = ProfilingUnit::new(
                "prop",
                2,
                ProfilingConfig {
                    sampling_period: 10,
                    buffer_lines: lines,
                    ..Default::default()
                },
            );
            unit.state_change(0, 0, ThreadState::Running);
            for i in 0..n_events as u64 {
                unit.ops(i * 7, (i % 2) as u32, 1, 2, 0);
            }
            unit.run_end(n_events as u64 * 7 + 1);
            unit.finish()
        };
        let small = run(2);
        let big = run(4096);
        assert!(small.flush_count >= big.flush_count);
        assert_eq!(
            event_total(&small.records, paraver::events::FLOPS),
            event_total(&big.records, paraver::events::FLOPS)
        );
        assert_eq!(small.records.len(), big.records.len());
    });
}

/// `unpack(pack(x)) == x` for the hardware record codecs, for arbitrary
/// inputs within hardware ranges.
#[test]
fn packed_records_roundtrip() {
    forall(128, |g| {
        // State records: arbitrary transition sequences.
        let n = g.range_u32(1, 16);
        let mut rec = StateRecorder::new(n);
        for _ in 0..g.range_usize(1, 20) {
            let t = g.range_u64(0, u32::MAX as u64);
            let tid = g.range_u32(0, n);
            let s = *g.pick(&STATES);
            let before = rec.state(tid);
            if let Some(packed) = rec.transition(t, tid, s) {
                let packed = packed.to_vec();
                let (cycle, states) = unpack_state_record(&packed[1..], n);
                assert_eq!(cycle as u64, t & 0xFFFF_FFFF);
                assert_eq!(states[tid as usize], s);
                assert_ne!(before, s, "emitted record implies a real change");
                for (i, got) in states.iter().enumerate() {
                    assert_eq!(*got, rec.state(i as u32), "thread {i} snapshot");
                }
            } else {
                assert_eq!(before, s, "suppressed record implies no change");
            }
        }

        // Event records: aggregates below u32::MAX round-trip exactly.
        let mut bank = CounterBank::new(n, CounterSet::default());
        let tid = g.range_u32(0, n);
        let (i, f, l) = (
            g.range_u64(1, 1 << 20),
            g.range_u64(0, 1 << 20),
            g.range_u64(0, 1 << 20),
        );
        let (rd, wr, st) = (
            g.range_u64(0, 1 << 20),
            g.range_u64(0, 1 << 20),
            g.range_u64(0, 1 << 20),
        );
        bank.add_ops(tid, i, f, l);
        bank.add_read(tid, rd);
        bank.add_write(tid, wr);
        bank.add_stalls(tid, st);
        let t = g.range_u64(0, u32::MAX as u64);
        let packed = bank.sample(t, tid).expect("nonzero aggregate");
        assert_eq!(packed.len(), EVENT_RECORD_BYTES);
        let (tid2, cycle, a) = unpack_event_record(&packed[1..]);
        assert_eq!(tid2, tid);
        assert_eq!(cycle as u64, t);
        assert_eq!(
            (
                a.int_ops,
                a.flops,
                a.local_ops,
                a.bytes_read,
                a.bytes_written,
                a.stalls
            ),
            (i, f, l, rd, wr, st)
        );
    });
}
