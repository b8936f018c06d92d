//! Minimal wall-clock bench harness (stand-in for Criterion, which needs a
//! crates.io fetch this build environment does not have).
//!
//! Each benchmark runs a warm-up iteration and then `samples` timed
//! iterations, printing min/median/max to stderr in a grep-friendly
//! format:
//!
//! ```text
//! [bench] group/name            median 12.345 ms  (min 11.9, max 14.0, n=10)
//! ```
//!
//! Use [`std::hint::black_box`] on inputs/outputs as with Criterion.

use std::time::{Duration, Instant};

/// A named group of benchmarks (mirrors Criterion's `benchmark_group`).
pub struct Group {
    name: String,
    samples: usize,
}

impl Group {
    /// A group whose benchmarks each take `samples` timed iterations.
    pub fn new(name: &str, samples: usize) -> Self {
        Group {
            name: name.to_string(),
            samples: samples.max(1),
        }
    }

    /// Time `f`, discarding its result, and print the statistics. Returns
    /// the median for callers that assert on it.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Duration {
        let _warmup = std::hint::black_box(f());
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed()
            })
            .collect();
        times.sort_unstable();
        let median = times[times.len() / 2];
        eprintln!(
            "[bench] {:<40} median {:>10}  (min {}, max {}, n={})",
            format!("{}/{}", self.name, name),
            fmt_duration(median),
            fmt_duration(times[0]),
            fmt_duration(*times.last().unwrap()),
            self.samples,
        );
        median
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_a_positive_median() {
        let g = Group::new("harness", 3);
        let mut n = 0u64;
        let med = g.bench("spin", || {
            n += 1;
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        assert!(n >= 4, "warm-up plus 3 samples");
        assert!(med > Duration::ZERO);
    }
}
