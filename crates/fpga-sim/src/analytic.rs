//! Analytical fast mode: a memory-bound roofline-style performance model.
//!
//! Estimates a kernel's total cycles without simulating it, by pricing the
//! compiled design with the static cost walker of [`nymble_hls::perf`] —
//! the walker `nymble-lint`'s performance findings and the auto-probe
//! region profits use too, here with II and depth from the compiled
//! schedules ([`LoopSource::Scheduled`]) and the restart contention of
//! re-entered loops priced. This module adds the simulator's side: the
//! timing projection of a [`SimConfig`], the launch-time memory image
//! (so memory-dependent loop bounds such as CSR row pointers price
//! statically) and the classification of the dominant limiter.
//!
//! The model is cross-validated against the cycle-level simulator on the
//! GEMM/π/SpMV reproduction suite (see
//! `crates/bench/tests/analytic_validation.rs`) and is intended for sweep
//! pre-screening: configurations worth a real simulation are found in
//! microseconds instead of minutes.

use crate::config::SimConfig;
use crate::memimg::MemImage;
use nymble_hls::accel::Accelerator;
use nymble_hls::perf::{self, LoopSource};
use nymble_ir::kernel::Kernel;
use nymble_ir::Value;

/// What the model predicts limits the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// The datapath issue rate (pipeline II / sequential issue width).
    Compute,
    /// The shared DRAM channel bandwidth.
    Memory,
    /// Critical-section serialization on the hardware semaphore.
    Serialization,
    /// The host's software thread-launch interval.
    LaunchRamp,
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Compute => write!(f, "compute"),
            Bound::Memory => write!(f, "memory"),
            Bound::Serialization => write!(f, "serialization"),
            Bound::LaunchRamp => write!(f, "launch-ramp"),
        }
    }
}

/// The analytical model's prediction for one run.
#[derive(Clone, Debug)]
pub struct AnalyticReport {
    /// Predicted total cycles from host start to last thread completion.
    pub total_cycles: u64,
    /// Predicted busy cycles per thread (excluding launch offset).
    pub per_thread: Vec<u64>,
    /// The dominant limiter.
    pub bound: Bound,
    /// Predicted DRAM bytes moved (line traffic, both directions).
    pub dram_bytes: u64,
    /// Total critical-section cycles across threads (serialized resource).
    pub critical_cycles: u64,
}

/// Scalar launch values, indexed like kernel arguments (buffer slots hold a
/// placeholder). The same shape [`nymble_ir::walker::Walker::new`] takes.
pub type ScalarArgs = [Value];

/// Estimate the run analytically. Returns `None` when `cfg` fails
/// [`SimConfig::validate`] or the kernel's loop bounds cannot be resolved
/// statically (bounds must be constants, scalar launch arguments, or affine
/// in thread id / num_threads / enclosing induction variables).
pub fn estimate(
    kernel: &Kernel,
    accel: &Accelerator,
    cfg: &SimConfig,
    scalars: &ScalarArgs,
) -> Option<AnalyticReport> {
    report(kernel, accel, cfg, scalars, None)
}

/// [`estimate`] with a launch-time memory image: loads from device-read-only
/// (`map(to)`) buffers resolve against the pristine image, so kernels whose
/// loop bounds come from memory — CSR SpMV's `row_ptr[r]..row_ptr[r+1]`
/// inner loop — price statically too. Loops with memory-dependent inner
/// bounds are walked iteration by iteration (each row priced with its true
/// non-zero count) instead of body-at-iteration-0 × trip.
pub fn estimate_with_image(
    kernel: &Kernel,
    accel: &Accelerator,
    cfg: &SimConfig,
    scalars: &ScalarArgs,
    mem: &MemImage,
) -> Option<AnalyticReport> {
    report(kernel, accel, cfg, scalars, Some(mem.buffers()))
}

fn report(
    kernel: &Kernel,
    accel: &Accelerator,
    cfg: &SimConfig,
    scalars: &ScalarArgs,
    image: Option<&[Vec<Value>]>,
) -> Option<AnalyticReport> {
    cfg.validate().ok()?;
    let m = perf::estimate(
        kernel,
        LoopSource::Scheduled(accel),
        &cfg.timing(),
        scalars,
        image,
    )?;
    let total = m.total_cycles;
    let memory_floor = m.dram_bytes / cfg.dram_bytes_per_cycle as u64;
    let max_busy = m.per_thread.iter().copied().max().unwrap_or(0);
    let bound = if total == m.ramp_span {
        if (kernel.num_threads as u64 - 1) * cfg.launch_interval > max_busy {
            Bound::LaunchRamp
        } else if memory_floor * 10 >= total * 7 {
            Bound::Memory
        } else {
            Bound::Compute
        }
    } else if total == m.critical_cycles {
        Bound::Serialization
    } else {
        Bound::Memory
    };
    Some(AnalyticReport {
        total_cycles: total,
        per_thread: m.per_thread,
        bound,
        dram_bytes: m.dram_bytes,
        critical_cycles: m.critical_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memimg::LaunchArg;
    use nymble_hls::accel::{compile, HlsConfig};
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    #[test]
    fn simple_pipelined_loop_is_depth_plus_ii() {
        let mut kb = KernelBuilder::new("axpy", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let acc_v = kb.var("acc", Type::F32);
        let n = kb.c_i64(100);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc_v);
            let s = kb.add(cur, v);
            kb.set(acc_v, s);
        });
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default().with_fast_launch();
        let r = estimate(&k, &acc, &cfg, &[Value::I32(0)]).expect("static bounds");
        assert!(r.total_cycles > 0);
        assert_eq!(r.per_thread.len(), 1);
        // 100 sequential f32 loads: well under one line per iteration.
        assert!(r.dram_bytes >= 400, "dram bytes {}", r.dram_bytes);
    }

    #[test]
    fn unresolvable_bounds_return_none() {
        // Loop bound loaded from memory: not statically resolvable.
        let mut kb = KernelBuilder::new("dyn", 1);
        let a = kb.buffer("A", ScalarType::I64, MapDir::To);
        let z = kb.c_i64(0);
        let bound = kb.load(a, z, Type::I64);
        kb.for_range("i", bound, |_, _| {});
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default();
        assert!(estimate(&k, &acc, &cfg, &[Value::I32(0)]).is_none());
    }

    #[test]
    fn launch_ramp_dominates_tiny_kernels() {
        let mut kb = KernelBuilder::new("tiny", 8);
        let x = kb.var("x", Type::I32);
        let c = kb.c_i32(1);
        kb.set(x, c);
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default(); // full 880k launch interval
        let r = estimate(&k, &acc, &cfg, &[]).expect("static");
        assert_eq!(r.bound, Bound::LaunchRamp);
        assert!(r.total_cycles >= 7 * cfg.launch_interval);
    }

    #[test]
    fn invalid_config_returns_none_instead_of_panicking() {
        // Sequential code and a burst: prices both the issue-width division
        // and the DMA channel occupancy.
        let mut kb = KernelBuilder::new("seq", 2);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let l = kb.local_mem("L", Type::F32, 16);
        let x = kb.var("x", Type::I32);
        let one = kb.c_i32(1);
        kb.set(x, one);
        let n = kb.c_i64(4);
        kb.for_range("i", n, |kb, _| {
            let z = kb.c_i64(0);
            let len = kb.c_i64(16);
            kb.preload(l, a, z, z, len);
        });
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let launch = [LaunchArg::Buffer(vec![Value::F32(0.0); 16])];
        let (mem, scalars) = MemImage::new(&k, &launch);
        assert!(estimate(&k, &acc, &SimConfig::default(), &scalars).is_some());
        for cfg in [
            SimConfig {
                seq_issue_width: 0,
                ..SimConfig::default()
            },
            SimConfig {
                dram_bytes_per_cycle: 0,
                ..SimConfig::default()
            },
        ] {
            assert!(estimate(&k, &acc, &cfg, &scalars).is_none());
            assert!(estimate_with_image(&k, &acc, &cfg, &scalars, &mem).is_none());
        }
    }

    #[test]
    fn critical_only_kernel_is_serialization_bound() {
        let mut kb = KernelBuilder::new("crit", 4);
        let out = kb.buffer("OUT", ScalarType::I32, MapDir::ToFrom);
        let n = kb.c_i64(200);
        kb.for_range("i", n, |kb, _| {
            kb.critical(|kb| {
                let z = kb.c_i64(0);
                let cur = kb.load(out, z, Type::I32);
                let one = kb.c_i32(1);
                let inc = kb.add(cur, one);
                let z2 = kb.c_i64(0);
                kb.store(out, z2, inc);
            });
        });
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default().with_fast_launch();
        let r = estimate(&k, &acc, &cfg, &[Value::I32(0)]).expect("static");
        assert_eq!(r.bound, Bound::Serialization);
        assert!(r.critical_cycles > 0);
    }
}
