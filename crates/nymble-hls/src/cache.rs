//! Compile-once accelerator cache.
//!
//! A batch sweep (e.g. the GEMM table of §V-B or the π scaling study of
//! §V-D) runs the *same* compiled accelerator many times under different
//! simulator configurations and launch arguments. HLS compilation —
//! DFG lowering, list scheduling, cost modelling — is the expensive,
//! run-invariant half of that work, so [`AccelCache`] memoises it: each
//! distinct (kernel, [`HlsConfig`]) pair is compiled exactly once per sweep,
//! even when many worker threads request it concurrently, and the resulting
//! [`Accelerator`] is shared as an [`Arc`].
//!
//! Keys are structural fingerprints (the `Debug` rendering of the kernel
//! body and of the compile options), not kernel names: two GEMM builds with
//! different tile sizes produce different IR and therefore different cache
//! entries, while the π kernel — whose step count arrives as a launch
//! scalar, not as IR — hits the same entry for every problem size.

use crate::accel::{compile, Accelerator, HlsConfig};
use nymble_ir::Kernel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

impl HlsConfig {
    /// Structural fingerprint of the compile options, used as half of the
    /// cache key. Two configs with equal fingerprints compile identically.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// Structural fingerprint of a kernel: name, thread count, arguments and
/// the full IR body. Kernels that fingerprint equal compile identically.
pub fn kernel_fingerprint(kernel: &Kernel) -> String {
    format!("{kernel:?}")
}

/// Cache occupancy and effectiveness counters (see [`AccelCache::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from an already-compiled entry (including requests
    /// that waited on a concurrent first compile).
    pub hits: u64,
    /// Requests that performed the compile themselves.
    pub misses: u64,
    /// Distinct (kernel, config) pairs seen.
    pub entries: usize,
}

/// One cache slot: compiled at most once, shared by every requester.
type CacheCell = Arc<OnceLock<Arc<Accelerator>>>;

/// Thread-safe, compile-once accelerator cache.
///
/// Concurrency model: one [`Mutex`] guards the key → cell map and is held
/// only for a map lookup, never across a compile (the fingerprints are
/// formatted before the lock is taken). Each entry's [`OnceLock`]
/// serialises the first compile so racing workers block on the winner
/// instead of compiling redundantly. The cached [`Accelerator`] is handed
/// out as an [`Arc`] — workers on different threads share one compiled
/// artifact.
#[derive(Default)]
pub struct AccelCache {
    map: Mutex<HashMap<(String, String), CacheCell>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

// Shared across the batch engine's worker pool.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AccelCache>();
    assert_send_sync::<Accelerator>();
};

impl AccelCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the compiled accelerator for `(kernel, config)`, compiling it
    /// on first request. Concurrent requests for the same key block until
    /// the single compile finishes and then share its result.
    pub fn get_or_compile(&self, kernel: &Kernel, config: &HlsConfig) -> Arc<Accelerator> {
        let key = (kernel_fingerprint(kernel), config.fingerprint());
        let cell = {
            let mut map = self.map.lock().expect("accel cache poisoned");
            map.entry(key).or_default().clone()
        };
        let mut compiled_here = false;
        let accel = cell
            .get_or_init(|| {
                compiled_here = true;
                Arc::new(compile(kernel, config))
            })
            .clone();
        if compiled_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        accel
    }

    /// Hit/miss/occupancy counters. `misses` equals the number of compiles
    /// actually performed, so a sweep over one kernel must report exactly
    /// one miss however many workers ran it.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("accel cache poisoned").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    fn toy_kernel(name: &str, n: i64) -> Kernel {
        let mut kb = KernelBuilder::new(name, 2);
        let a = kb.buffer("A", ScalarType::F32, MapDir::ToFrom);
        let end = kb.c_i64(n);
        kb.for_range("i", end, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let w = kb.add(v, v);
            kb.store(a, i, w);
        });
        kb.finish()
    }

    #[test]
    fn same_kernel_and_config_compiles_once() {
        let cache = AccelCache::new();
        let k = toy_kernel("toy", 8);
        let cfg = HlsConfig::default();
        let a1 = cache.get_or_compile(&k, &cfg);
        let a2 = cache.get_or_compile(&k, &cfg);
        assert!(Arc::ptr_eq(&a1, &a2), "second request shares the artifact");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_ir_or_options_get_distinct_entries() {
        let cache = AccelCache::new();
        let k8 = toy_kernel("toy", 8);
        let k9 = toy_kernel("toy", 9); // same name, different IR
        let cfg = HlsConfig::default();
        let wide = HlsConfig {
            seq_issue_width: 8,
            ..HlsConfig::default()
        };
        let a = cache.get_or_compile(&k8, &cfg);
        let b = cache.get_or_compile(&k9, &cfg);
        let c = cache.get_or_compile(&k8, &wide);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn concurrent_requests_share_one_compile() {
        let cache = AccelCache::new();
        let k = toy_kernel("toy", 64);
        let cfg = HlsConfig::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let a = cache.get_or_compile(&k, &cfg);
                    assert_eq!(a.name, "toy");
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, 1, "exactly one thread compiled");
        assert_eq!(s.hits, 7, "everyone else shared it");
        assert_eq!(s.entries, 1);
    }

    /// Each thread writes only OUT[tid].
    fn clean_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("clean", 2);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let tid = kb.thread_id();
        let one = kb.c_f32(1.0);
        kb.store(out, tid, one);
        kb.finish()
    }

    #[test]
    fn stats_stay_exact_across_lock_shards_under_concurrency() {
        // 24 distinct kernels requested by 4 threads each: the counters
        // must come out exact however the requests interleave.
        let cache = AccelCache::new();
        let kernels: Vec<Kernel> = (0..24).map(|n| toy_kernel("toy", 8 + n)).collect();
        let cfg = HlsConfig::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in &kernels {
                        let a = cache.get_or_compile(k, &cfg);
                        assert_eq!(a.name, "toy");
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.entries, 24, "one entry per distinct kernel");
        assert_eq!(s.misses, 24, "each kernel compiled exactly once");
        assert_eq!(s.hits, 24 * 3, "all other requests shared an artifact");
    }

    #[test]
    fn probe_modes_are_distinct_cache_keys() {
        use crate::probe::ProbeMode;
        let cache = AccelCache::new();
        let k = clean_kernel();
        let off = HlsConfig::default();
        let auto = HlsConfig {
            probe: ProbeMode::auto(),
            ..HlsConfig::default()
        };
        let tight = HlsConfig {
            probe: ProbeMode::Auto { budget_alms: 128 },
            ..HlsConfig::default()
        };
        let a = cache.get_or_compile(&k, &off);
        let b = cache.get_or_compile(&k, &auto);
        let c = cache.get_or_compile(&k, &tight);
        assert!(!Arc::ptr_eq(&a, &b), "off vs auto must not share");
        assert!(!Arc::ptr_eq(&b, &c), "different budgets must not share");
        assert_eq!(cache.stats().entries, 3);
        assert!(a.probe_plan.is_none());
        assert!(b.probe_plan.is_some());
        assert!(
            b.probe_plan.as_ref().unwrap().cost_alms >= c.probe_plan.as_ref().unwrap().cost_alms
        );
    }
}
