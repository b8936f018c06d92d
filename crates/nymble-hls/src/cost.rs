//! Analytical area and frequency model ("virtual Quartus fit").
//!
//! The paper evaluates its profiling infrastructure by post-P&R deltas on a
//! Stratix 10 SX-280 (§V-B): registers, ALMs and fmax with and without the
//! tracing hardware. Without real P&R, this module prices each datapath
//! component from per-operator costs and simple structural rules:
//!
//! * operator cores: per-class `(ALM, register, DSP)` costs scaled by SIMD
//!   width ([`crate::op::OpClass::area`]),
//! * pipeline registers: each stage latches its live values,
//! * Nymble-MT reordering stages: per-thread context copies of the live
//!   values plus the hardware thread scheduler,
//! * controller: per-stage enable/stall logic,
//! * fixed infrastructure: Avalon slave/master interfaces, preloader,
//!   hardware semaphore (Fig. 1),
//! * fmax: a routing-pressure model — a logarithmic degradation in total
//!   logic, calibrated so designs of the paper's size close timing in the
//!   140–150 MHz range it reports.
//!
//! The structural prices are private constants of this module: they
//! describe the hardware, not a setting. The profiling unit's prices live
//! in `hls_profiling::overhead` (counters in [`crate::probe::counter_alms`]
//! and [`crate::probe::counter_regs`]), and `overhead::instrumented_fit` is
//! the one place a fit is added to a design's and [`fmax_model`] re-run.

use crate::dfg::Dfg;
use crate::schedule::LoopSchedule;
use nymble_ir::Kernel;

/// Registers latched per live value per stage (value width + valid).
const REGS_PER_LIVE_VALUE: u64 = 33;
/// ALMs of control logic per stage.
const CTRL_ALMS_PER_STAGE: u64 = 40;
/// Registers of control logic per stage.
const CTRL_REGS_PER_STAGE: u64 = 48;
/// Extra ALMs per reordering stage (hardware thread scheduler slice).
const HTS_ALMS_PER_STAGE: u64 = 110;
/// Fixed infrastructure ALMs (Avalon interfaces, preloader, semaphore).
const INFRA_ALMS: u64 = 13_000;
/// Fixed infrastructure registers.
const INFRA_REGS: u64 = 22_000;
/// Unconstrained-logic fmax ceiling in MHz.
const FMAX_CEILING_MHZ: f64 = 190.0;
/// Routing-pressure coefficient: MHz lost per doubling of logic beyond
/// [`FMAX_KNEE_ALMS`].
const FMAX_MHZ_PER_DOUBLING: f64 = 17.0;
/// Logic size at which routing pressure starts to bite.
const FMAX_KNEE_ALMS: f64 = 6_000.0;

/// Post-"fit" resource/frequency summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FitReport {
    /// Adaptive logic modules.
    pub alms: u64,
    /// Flip-flops.
    pub registers: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// Block-RAM capacity in kilobits.
    pub bram_kbits: u64,
    /// Achieved clock frequency in MHz.
    pub fmax_mhz: f64,
}

impl FitReport {
    /// Relative overhead of `self` versus a smaller `base` design, as the
    /// paper's Table-style percentages.
    pub fn overhead_vs(&self, base: &FitReport) -> Overhead {
        let pct = |a: u64, b: u64| {
            if b == 0 {
                0.0
            } else {
                (a as f64 - b as f64) / b as f64 * 100.0
            }
        };
        Overhead {
            registers_pct: pct(self.registers, base.registers),
            alms_pct: pct(self.alms, base.alms),
            fmax_delta_mhz: base.fmax_mhz - self.fmax_mhz,
        }
    }
}

/// Relative overhead report (the numbers of §V-B).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Overhead {
    pub registers_pct: f64,
    pub alms_pct: f64,
    /// Positive = the larger design closes timing at a lower frequency.
    pub fmax_delta_mhz: f64,
}

/// Routing-pressure frequency model.
pub fn fmax_model(alms: u64, registers: u64) -> f64 {
    // Registers ease routing slightly (pipelining), ALMs dominate pressure.
    let effective = alms as f64 + registers as f64 * 0.15;
    if effective <= FMAX_KNEE_ALMS {
        return FMAX_CEILING_MHZ;
    }
    let doublings = (effective / FMAX_KNEE_ALMS).log2();
    (FMAX_CEILING_MHZ - FMAX_MHZ_PER_DOUBLING * doublings).max(40.0)
}

fn dfg_area(dfg: &Dfg) -> (u64, u64, u64) {
    let (mut alms, mut regs, mut dsps) = (0u64, 0u64, 0u64);
    for n in &dfg.nodes {
        let (a, r, d) = n.op.area();
        let w = n.width.max(1) as u64;
        alms += a as u64 * w;
        regs += r as u64 * w;
        dsps += d as u64 * w;
    }
    (alms, regs, dsps)
}

fn schedule_area(s: &LoopSchedule, num_threads: u32) -> (u64, u64) {
    let mut alms = 0u64;
    let mut regs = 0u64;
    for st in &s.stages {
        alms += CTRL_ALMS_PER_STAGE;
        regs += CTRL_REGS_PER_STAGE;
        // Pipeline latch of the live set.
        regs += st.live_values as u64 * REGS_PER_LIVE_VALUE;
        if st.reordering {
            // Per-thread context copies + HTS slice (§III-B: "the stage must
            // be able to hold the context ... of all hardware threads").
            regs +=
                st.live_values as u64 * REGS_PER_LIVE_VALUE * num_threads.saturating_sub(1) as u64;
            alms += HTS_ALMS_PER_STAGE + 6 * num_threads as u64;
        }
    }
    (alms, regs)
}

/// Estimate the fit of a compiled (un-instrumented) accelerator.
pub fn estimate_fit(
    kernel: &Kernel,
    loop_dfgs: &[Option<Dfg>],
    loop_schedules: &[Option<LoopSchedule>],
    top_dfg: &Dfg,
    top: &LoopSchedule,
) -> FitReport {
    let mut alms = INFRA_ALMS;
    let mut regs = INFRA_REGS;
    let mut dsps = 0u64;

    for dfg in loop_dfgs.iter().flatten().chain([top_dfg]) {
        let (a, r, d) = dfg_area(dfg);
        alms += a;
        regs += r;
        dsps += d;
    }
    for s in loop_schedules.iter().flatten().chain([top]) {
        let (a, r) = schedule_area(s, kernel.num_threads);
        alms += a;
        regs += r;
    }

    // Datapath is replicated per thread only in its context storage (handled
    // above); operator cores are shared across threads in Nymble-MT.
    // Local memories: per-thread private copies.
    let mut bram_bits = 0u64;
    for m in &kernel.local_mems {
        let copies = if m.per_thread {
            kernel.num_threads as u64
        } else {
            1
        };
        bram_bits += m.len * m.elem.size_bytes() as u64 * 8 * copies;
    }

    FitReport {
        alms,
        registers: regs,
        dsps,
        bram_kbits: bram_bits / 1024,
        fmax_mhz: fmax_model(alms, regs),
    }
}

/// Geometric mean helper for the paper's Table-style summaries.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmax_decreases_with_logic() {
        let small = fmax_model(5_000, 8_000);
        let big = fmax_model(80_000, 120_000);
        assert!(small > big, "{small} <= {big}");
        assert!(big >= 40.0);
        assert!(small <= FMAX_CEILING_MHZ);
    }

    #[test]
    fn paper_scale_designs_land_in_140_150_band() {
        // A mid-size accelerator (tens of kALMs) should close timing near
        // the paper's 140–148 MHz reports.
        let f = fmax_model(35_000, 55_000);
        assert!((130.0..160.0).contains(&f), "fmax {f}");
    }

    #[test]
    fn overhead_math() {
        let base = FitReport {
            alms: 10_000,
            registers: 20_000,
            dsps: 8,
            bram_kbits: 100,
            fmax_mhz: 150.0,
        };
        let instrumented = FitReport {
            alms: 10_400,
            registers: 20_482,
            dsps: 8,
            bram_kbits: 110,
            fmax_mhz: 148.0,
        };
        let o = instrumented.overhead_vs(&base);
        assert!((o.alms_pct - 4.0).abs() < 1e-9);
        assert!((o.registers_pct - 2.41).abs() < 0.01);
        assert!((o.fmax_delta_mhz - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geo_mean_matches_hand_calc() {
        let g = geo_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 0.0);
    }
}
