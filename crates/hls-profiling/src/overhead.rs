//! Hardware cost of the profiling infrastructure and the §V-B overhead
//! study.
//!
//! The paper reports, over its first case study (the GEMM variants), a
//! register overhead of at most 5.4% (geo-mean 2.41%), an ALM overhead of at
//! most 4% (geo-mean 3.42%), and an fmax degradation of at most 8 MHz at
//! 140 MHz; its (larger) second design pays only 1.3% / 1.5% / 1 MHz. The
//! absolute cost of the unit is nearly constant — counters scale with thread
//! count, not with datapath size — so the *percentages* shrink as designs
//! grow, which is exactly how this model reproduces both studies.
//!
//! Counters are priced by `nymble_hls::probe::counter_alms`/`counter_regs`,
//! the price the auto-probe knapsack budgets with; the state tracker, the
//! flush engine and the trace Avalon master are private constants here.
//! [`instrumented_fit`] is the one place a fit is added to a design's.

use crate::buffer::TraceBuffer;
use crate::unit::ProfilingConfig;
use nymble_hls::cost::{fmax_model, FitReport};
use nymble_hls::probe::{counter_alms, counter_regs};

/// State machine and packer ALMs.
const STATE_ALMS_BASE: u64 = 40;
/// State-tracker ALMs per thread.
const STATE_ALMS_PER_THREAD: u64 = 6;
/// State registers per thread.
const STATE_REGS_PER_THREAD: u64 = 12;
/// Flush FSM and buffer write port.
const FLUSH_ALMS: u64 = 80;
const FLUSH_REGS: u64 = 150;
/// Extra Avalon master for trace write-back.
const AVALON_ALMS: u64 = 60;
const AVALON_REGS: u64 = 120;

/// Fit of the profiling unit alone. The counter population is one module
/// per instantiated event class plus, under an auto-probe plan, one cycle
/// counter per instrumented region, each priced by
/// [`counter_alms`]/[`counter_regs`] exactly as `nymble_hls::probe::select`
/// budgeted it.
pub fn profiling_fit(num_threads: u32, cfg: &ProfilingConfig) -> FitReport {
    let n = num_threads as u64;
    let mut alms = 0u64;
    let mut regs = 0u64;
    let regions = cfg
        .plan
        .as_ref()
        .map_or(0, |plan| plan.regions.len() as u64);
    let counters = u64::from(cfg.counters.count()) + regions;
    alms += counters * counter_alms(num_threads);
    regs += counters * counter_regs(num_threads);
    if cfg.record_states {
        alms += STATE_ALMS_BASE + STATE_ALMS_PER_THREAD * n;
        regs += STATE_REGS_PER_THREAD * n + 32; // states + clock reg
    }
    if counters > 0 || cfg.record_states {
        alms += FLUSH_ALMS + AVALON_ALMS;
        regs += FLUSH_REGS + AVALON_REGS;
    }
    let bram_kbits = (TraceBuffer::capacity_bytes_of(cfg.buffer_lines) as u64 * 8) / 1024;
    FitReport {
        alms,
        registers: regs,
        dsps: 0,
        bram_kbits,
        fmax_mhz: 0.0, // meaningless standalone; derived on combination
    }
}

/// Fit of a design *with* the profiling unit: base + unit, fmax re-derived
/// from the combined logic (the routing-pressure effect behind the paper's
/// 8 MHz / 1 MHz degradations). The one place a fit is added to a design's.
pub fn instrumented_fit(base: &FitReport, num_threads: u32, cfg: &ProfilingConfig) -> FitReport {
    let unit = profiling_fit(num_threads, cfg);
    let alms = base.alms + unit.alms;
    let regs = base.registers + unit.registers;
    FitReport {
        alms,
        registers: regs,
        dsps: base.dsps,
        bram_kbits: base.bram_kbits + unit.bram_kbits,
        fmax_mhz: fmax_model(alms, regs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_hls::probe::{CounterSet, ALL_COUNTER_CLASSES};

    fn cfg() -> ProfilingConfig {
        ProfilingConfig::default()
    }

    #[test]
    fn unit_cost_scales_with_threads_not_design() {
        let f1 = profiling_fit(1, &cfg());
        let f8 = profiling_fit(8, &cfg());
        assert!(f8.registers > f1.registers);
        assert!(f8.alms > f1.alms);
        // Absolute size stays in the ~few-kALM class (the reason overhead
        // percentages shrink for larger designs).
        assert!(f8.alms < 3_000, "{}", f8.alms);
        assert!(f8.registers < 5_000, "{}", f8.registers);
    }

    #[test]
    fn counters_contribute_similarly() {
        // §V-B: "each of the counters contributes similarly to the hardware
        // overhead, none ... remarkably expensive".
        let base = profiling_fit(
            8,
            &ProfilingConfig {
                counters: CounterSet::NONE,
                ..cfg()
            },
        );
        let mut costs = Vec::new();
        for c in ALL_COUNTER_CLASSES {
            let f = profiling_fit(
                8,
                &ProfilingConfig {
                    counters: CounterSet::NONE.with(c),
                    ..cfg()
                },
            );
            costs.push(f.alms - base.alms);
        }
        let min = *costs.iter().min().unwrap();
        let max = *costs.iter().max().unwrap();
        assert_eq!(min, max, "uniform per-counter cost: {costs:?}");
    }

    #[test]
    fn overhead_shrinks_for_bigger_designs() {
        let small = FitReport {
            alms: 28_000,
            registers: 48_000,
            dsps: 16,
            bram_kbits: 512,
            fmax_mhz: fmax_model(28_000, 48_000),
        };
        let big = FitReport {
            alms: 110_000,
            registers: 200_000,
            dsps: 64,
            bram_kbits: 2048,
            fmax_mhz: fmax_model(110_000, 200_000),
        };
        let small_i = instrumented_fit(&small, 8, &cfg());
        let big_i = instrumented_fit(&big, 8, &cfg());
        let so = small_i.overhead_vs(&small);
        let bo = big_i.overhead_vs(&big);
        assert!(so.alms_pct > bo.alms_pct);
        assert!(so.registers_pct > bo.registers_pct);
        // Percent bands of the paper: small designs a few %, big ~1%.
        assert!(so.alms_pct < 10.0 && so.alms_pct > 0.5, "{so:?}");
        assert!(bo.alms_pct < 2.5, "{bo:?}");
        // fmax degradation exists but is small.
        assert!(
            so.fmax_delta_mhz >= 0.0 && so.fmax_delta_mhz < 10.0,
            "{so:?}"
        );
    }

    /// A plan's budgeted cost equals the counter component of the real fit:
    /// fit(planned cfg) − fit(empty cfg) = the ALMs/regs the knapsack
    /// charged. This is the "selected-plan overhead fits the budget per the
    /// cost model" validation of the auto-probe feature.
    #[test]
    fn planned_fit_matches_the_knapsack_price_and_budget() {
        use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};
        let mut kb = KernelBuilder::new("k", 8);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let x = kb.var("x", Type::F32);
        let n = kb.c_i64(64);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let s = kb.add(v, v);
            kb.set(x, s);
        });
        let k = kb.finish();
        for budget in [256u32, nymble_hls::DEFAULT_PROBE_BUDGET_ALMS] {
            let hls = nymble_hls::HlsConfig {
                probe: nymble_hls::ProbeMode::Auto {
                    budget_alms: budget,
                },
                ..Default::default()
            };
            let plan = nymble_hls::compile(&k, &hls).probe_plan.unwrap();
            assert!(plan.cost_alms <= budget as u64, "plan overshoots budget");
            let planned = ProfilingConfig::default().with_plan(plan.clone());
            let baseline = ProfilingConfig {
                counters: CounterSet::NONE,
                ..cfg()
            };
            let planned_fit = profiling_fit(8, &planned);
            let base_fit = profiling_fit(8, &baseline);
            assert_eq!(planned_fit.alms - base_fit.alms, plan.cost_alms);
            assert_eq!(planned_fit.registers - base_fit.registers, plan.cost_regs);
        }
    }

    /// Monotonicity of the cost model, pinned by property: adding counters
    /// (or widening any dimension the unit scales with) never lowers the
    /// modeled overhead.
    #[test]
    fn more_counters_never_lower_overhead() {
        miniprop::forall(200, |rng| {
            let n = rng.range_u32(1, 300);
            // A random counter subset and a random superset of it.
            let mut small = CounterSet::NONE;
            let mut big = CounterSet::NONE;
            for c in ALL_COUNTER_CLASSES {
                if rng.bool() {
                    small = small.with(c);
                    big = big.with(c);
                } else if rng.bool() {
                    big = big.with(c);
                }
            }
            let states = rng.bool();
            let mk = |set| ProfilingConfig {
                counters: set,
                record_states: states,
                ..ProfilingConfig::default()
            };
            let fs = profiling_fit(n, &mk(small));
            let fb = profiling_fit(n, &mk(big));
            assert!(fb.alms >= fs.alms, "{fb:?} < {fs:?}");
            assert!(fb.registers >= fs.registers);
            // The percentage overhead over a fixed base is monotone too.
            let base = FitReport {
                alms: rng.range_u64(5_000, 200_000),
                registers: rng.range_u64(10_000, 400_000),
                dsps: 0,
                bram_kbits: 0,
                fmax_mhz: 0.0,
            };
            let base = FitReport {
                fmax_mhz: fmax_model(base.alms, base.registers),
                ..base
            };
            let os = instrumented_fit(&base, n, &mk(small)).overhead_vs(&base);
            let ob = instrumented_fit(&base, n, &mk(big)).overhead_vs(&base);
            assert!(ob.alms_pct >= os.alms_pct);
            assert!(ob.registers_pct >= os.registers_pct);
            assert!(ob.fmax_delta_mhz >= os.fmax_delta_mhz - 1e-9);
        });
    }

    #[test]
    fn disabled_unit_costs_nothing_but_bram() {
        let f = profiling_fit(
            8,
            &ProfilingConfig {
                counters: CounterSet::NONE,
                record_states: false,
                ..cfg()
            },
        );
        assert_eq!(f.alms, 0);
        assert_eq!(f.registers, 0);
    }
}
