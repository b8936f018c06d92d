//! Mutation fuzzing of the bundle readers. Each case renders an arbitrary
//! trace through `TraceWriter` (or a `.pcf`/`.row` through their
//! renderers) and applies one random mutation: a byte flip, a deletion, an
//! insertion or a truncation. The readers return a value or a typed error
//! and never panic, and whatever `parse_prv` accepts the analyses digest.

use miniprop::{forall, Rng};
use paraver::analysis::{event_series, event_total, StateProfile};
use paraver::model::{Comm, Records, TraceMeta};
use paraver::parse::parse_prv;
use paraver::prv::TraceWriter;
use paraver::{events, pcf, row, states};

const TYPES: [u32; 4] = [events::STALLS, events::FLOPS, events::BYTES_READ, u32::MAX];

/// Small values mostly, with the edges of `u64` mixed in.
fn arb_value(g: &mut Rng) -> u64 {
    if g.chance(1, 4) {
        u64::MAX - g.range_u64(0, 100)
    } else {
        g.range_u64(0, 100_000)
    }
}

/// An arbitrary trace in valid write order.
fn arb_trace(g: &mut Rng) -> (TraceMeta, Records) {
    let threads = g.range_u32(1, 9);
    let mut time = 0;
    let mut records = Records::new();
    for _ in 0..g.range_usize(0, 40) {
        time += g.range_u64(0, 1_000);
        let thread = g.range_u32(0, threads);
        match g.range_u32(0, 5) {
            0 | 1 => {
                let end = time.saturating_add(arb_value(g));
                let state = *g.pick(&[states::RUNNING, states::SPINNING, u32::MAX]);
                records.push_state(thread, time, end, state);
            }
            2 | 3 => {
                let pairs = g.vec(1, 4, |g| (*g.pick(&TYPES), arb_value(g)));
                records.push_event(thread, time, pairs);
            }
            _ => records.push_comm(Comm {
                send_thread: thread,
                recv_thread: g.range_u32(0, threads),
                logical_send: time,
                physical_send: time + 1,
                logical_recv: time + 2,
                physical_recv: time + 3,
                size: arb_value(g),
                tag: g.range_u64(0, 10),
            }),
        }
    }
    (TraceMeta::new("fuzz", time + 1, threads), records)
}

/// Applies one mutation to `bytes`.
fn mutate(g: &mut Rng, bytes: &mut Vec<u8>) {
    let at = g.range_usize(0, bytes.len() + 1);
    match g.range_u32(0, 4) {
        0 if at < bytes.len() => bytes[at] ^= g.range_u32(1, 256) as u8,
        1 if at < bytes.len() => {
            bytes.remove(at);
        }
        2 => {
            let digit = [b'0' + g.range_u32(0, 10) as u8];
            let inserts: [&[u8]; 7] = [
                b":",
                &digit,
                b"\n",
                b"\r",
                "\u{a0}".as_bytes(),
                "é".as_bytes(),
                &[0xff],
            ];
            let insert = *g.pick(&inserts);
            bytes.splice(at..at, insert.iter().copied());
        }
        _ => bytes.truncate(at),
    }
}

#[test]
fn mutated_prv_parses_or_errs_and_what_it_accepts_analyses_digest() {
    forall(2_000, |g| {
        let (meta, records) = arb_trace(g);
        let mut w = TraceWriter::new(Vec::new(), meta).unwrap();
        w.write_all(&records).unwrap();
        let mut bytes = w.finish().unwrap();
        mutate(g, &mut bytes);

        let parsed = parse_prv(&bytes);
        if let Ok(text) = std::str::from_utf8(&bytes) {
            assert_eq!(parse_prv(text), parsed, "&str and &[u8] disagree");
        }
        if let Ok((meta, records)) = parsed {
            StateProfile::compute(&records, meta.num_threads);
            let duration = meta.duration.max(1);
            for ty in TYPES {
                event_series(&records, ty, duration.div_ceil(100), duration);
                event_total(&records, ty);
            }
        }
    });
}

#[test]
fn mutated_pcf_and_row_parse_without_panicking() {
    forall(2_000, |g| {
        let regions = vec![(0, "gemm".to_string()), (1, "gemm/i".to_string())];
        let meta = TraceMeta::new("fuzz", 100, g.range_u32(1, 9));
        let mut pcf_bytes = pcf::render(&states::defs(), &events::defs()).into_bytes();
        let mut row_bytes = row::render_with_regions(&meta, &regions).into_bytes();
        mutate(g, &mut pcf_bytes);
        mutate(g, &mut row_bytes);

        pcf::parse(&String::from_utf8_lossy(&pcf_bytes));
        let row_text = String::from_utf8_lossy(&row_bytes);
        row::parse_thread_count(&row_text);
        row::parse_regions(&row_text);
    });
}
