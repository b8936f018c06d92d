//! A fixed calibration load that measures how fast the host runs right
//! now, and the scaling of measured times to the reference host. It is
//! the benchmark's own code, so no change to the program under test can
//! move it.
//!
//! The reference box (a two-vCPU guest on a shared host) runs 1.3–1.6×
//! slower for minutes at a time; every process on it slows together,
//! across the repetitions of a run and across back-to-back runs.
//! Repetition medians cannot absorb such phases. Each end-to-end interval
//! is therefore timed between two probes and scaled by
//! [`REFERENCE_PROBE_S`] over their mean.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// [`host_probe`] time on the reference host: the median over 80 runs of
/// all four workloads of each run's median probe.
pub const REFERENCE_PROBE_S: f64 = 0.0151;

/// Intervals timed between calibration probes.
#[derive(Debug)]
pub struct Calibrated {
    /// The intervals as measured.
    pub raw: Vec<f64>,
    /// The intervals in reference-host seconds.
    pub scaled: Vec<f64>,
    /// Every probe, one more than there are intervals.
    pub probes: Vec<f64>,
}

impl Calibrated {
    /// Probe once, ready for the first interval.
    pub fn start() -> Calibrated {
        Calibrated {
            raw: Vec::new(),
            scaled: Vec::new(),
            probes: vec![host_probe()],
        }
    }

    /// Record an interval measured since the last probe, then probe again.
    pub fn push(&mut self, raw: f64) {
        let before = *self.probes.last().expect("start() probes once");
        let after = host_probe();
        self.probes.push(after);
        self.raw.push(raw);
        self.scaled
            .push(raw * REFERENCE_PROBE_S * 2.0 / (before + after));
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Words in the probe's table: 4 MiB, larger than one core's share of
/// the last-level cache.
const WORDS: usize = 1 << 19;

/// The table lives as long as the process: allocating and freeing it on
/// every probe would move the allocator's mmap threshold and with it the
/// cost of the program's own large allocations.
static TABLE: OnceLock<Mutex<Vec<u64>>> = OnceLock::new();

/// Seconds one round of the calibration load takes: ordered-map churn
/// (small allocations, pointer chasing and branches on a cache-resident
/// set, as in the compiler and the simulator's event queues), dependent
/// reads over the table, and plain integer arithmetic.
pub fn host_probe() -> f64 {
    let mut table = TABLE
        .get_or_init(|| Mutex::new((0..WORDS as u64).collect()))
        .lock()
        .expect("probe table lock poisoned");
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;

    let mut map = BTreeMap::new();
    for i in 0..30_000u64 {
        map.insert(xorshift(&mut x) % 4096, i);
        if map.len() > 1024 {
            map.pop_first();
        }
    }
    black_box(&map);

    let mut acc = 0u64;
    for _ in 0..100_000 {
        let i = ((xorshift(&mut x) ^ acc) as usize) & (WORDS - 1);
        acc = acc.wrapping_mul(31).wrapping_add(table[i]);
        table[i] = acc;
    }
    black_box(acc);

    let mut h = 0u64;
    for i in 0..2_000_000u64 {
        h = h.rotate_left(5).wrapping_add(i) ^ xorshift(&mut x);
    }
    black_box(h);
    t0.elapsed().as_secs_f64()
}
