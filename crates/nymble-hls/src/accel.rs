//! Top-level compilation: kernel → accelerator description.

use crate::cost::{estimate_fit, CostParams, FitReport};
use crate::dfg::{lower_block, Dfg};
use crate::op::OpClass;
use crate::perf::Timing;
use crate::probe::{self, ProbeCostParams, ProbeMode, ProbePlan};
use crate::region::RegionTree;
use crate::schedule::{schedule, LoopSchedule, ResourceLimits};
use nymble_ir::loops::{LoopId, LoopMap};
use nymble_ir::stmt::{Block, Stmt};
use nymble_ir::validate::infer_types;
use nymble_ir::Kernel;
use std::convert::Infallible;
use std::sync::Arc;

/// HLS compiler configuration.
#[derive(Clone, Debug)]
pub struct HlsConfig {
    /// Per-thread resource limits for scheduling.
    pub limits: ResourceLimits,
    /// Analytical area/frequency model parameters.
    pub cost: CostParams,
    /// Issue width for straight-line (non-pipelined) region statements:
    /// how many scheduled ops retire per cycle when a thread executes
    /// top-level or critical-section code sequentially.
    pub seq_issue_width: u32,
    /// Auto-probe mode: at [`ProbeMode::Auto`] the compiler solves a
    /// budgeted instrumentation plan over the region tree and attaches it
    /// to the accelerator for the profiling unit to follow. Part of the
    /// config fingerprint — plans solved under different budgets are
    /// different artifacts.
    pub probe: ProbeMode,
}

impl Default for HlsConfig {
    fn default() -> Self {
        HlsConfig {
            limits: ResourceLimits::default(),
            cost: CostParams::default(),
            seq_issue_width: 4,
            probe: ProbeMode::Off,
        }
    }
}

/// A compiled accelerator: everything the simulator, the profiling unit and
/// the fit reporter need to know about the generated hardware.
#[derive(Clone, Debug)]
pub struct Accelerator {
    /// Kernel name.
    pub name: String,
    /// Hardware thread count.
    pub num_threads: u32,
    /// Schedule per loop (indexed by [`LoopId`]); `None` for fully-unrolled
    /// loops, which are inlined into their parent's schedule.
    pub loop_schedules: Vec<Option<LoopSchedule>>,
    /// DFG per loop (kept for the cost model and reports).
    pub loop_dfgs: Vec<Option<Dfg>>,
    /// Schedule of the kernel's top-level straight-line body.
    pub top: LoopSchedule,
    /// Top-level DFG.
    pub top_dfg: Dfg,
    /// Compiler configuration used.
    pub config: HlsConfig,
    /// Fit (area/frequency) of the accelerator *without* the profiling unit;
    /// the profiling crate derives the instrumented fit from this.
    pub fit: FitReport,
    /// Hierarchical source-region tree of the kernel (kernel → loop nest →
    /// pipelined body / sequential section / critical section / DMA
    /// region), annotated with statically derived profit. Always built —
    /// it is cheap and `diagnose` uses it even without a probe plan.
    pub regions: RegionTree,
    /// The solved instrumentation plan when compiled under
    /// [`ProbeMode::Auto`]; `None` under [`ProbeMode::Off`].
    pub probe_plan: Option<Arc<ProbePlan>>,
}

impl Accelerator {
    /// Schedule for a loop; panics if the loop was unrolled away.
    pub fn loop_schedule(&self, id: LoopId) -> &LoopSchedule {
        self.loop_schedules[id.0 as usize]
            .as_ref()
            .expect("unrolled loops have no standalone schedule")
    }

    /// Pipelined `(ii, depth)` of a loop, or `None` when it executes
    /// sequentially: unrolled away, or containing an inner region (loop,
    /// critical section or DMA burst) the executor must step through.
    pub fn pipelined(&self, id: LoopId) -> Option<(u64, u64)> {
        let sched = self.loop_schedules[id.0 as usize].as_ref()?;
        let dfg = self.loop_dfgs[id.0 as usize].as_ref()?;
        let has_region = dfg.count(OpClass::InnerLoop) > 0
            || dfg.count(OpClass::CriticalRegion) > 0
            || dfg.count(OpClass::Burst) > 0;
        (!has_region).then_some((sched.ii as u64, sched.depth as u64))
    }
}

/// Collect `(LoopId, &Block)` for every loop (unrolled ones included; the
/// caller skips them when scheduling).
fn collect_loop_bodies<'k>(lm: &LoopMap, block: &'k Block, out: &mut Vec<(LoopId, &'k Block)>) {
    for s in block {
        match s {
            Stmt::For { body, .. } => {
                out.push((lm.id_of(s), body));
                collect_loop_bodies(lm, body, out);
            }
            Stmt::Critical { body } => collect_loop_bodies(lm, body, out),
            Stmt::If { then_b, else_b, .. } => {
                collect_loop_bodies(lm, then_b, out);
                collect_loop_bodies(lm, else_b, out);
            }
            _ => {}
        }
    }
}

/// Compile a kernel into an accelerator description. Static analysis
/// (`nymble-lint`) is the caller's gate: run it before compiling.
pub fn compile(kernel: &Kernel, config: &HlsConfig) -> Accelerator {
    let types = infer_types(kernel).expect("compiling a kernel that fails validation");
    let lm = LoopMap::build(kernel);
    let mut bodies = Vec::new();
    collect_loop_bodies(&lm, &kernel.body, &mut bodies);

    let mut loop_schedules: Vec<Option<LoopSchedule>> = vec![None; lm.len()];
    let mut loop_dfgs: Vec<Option<Dfg>> = vec![None; lm.len()];
    for (id, body) in bodies {
        if lm.info(id).unrolled {
            continue;
        }
        let dfg = lower_block(kernel, &types, body);
        let sched = schedule(&dfg, &config.limits);
        loop_schedules[id.0 as usize] = Some(sched);
        loop_dfgs[id.0 as usize] = Some(dfg);
    }

    let top_dfg = lower_block(kernel, &types, &kernel.body);
    let top = schedule(&top_dfg, &config.limits);

    let fit = estimate_fit(
        kernel,
        &loop_dfgs,
        &loop_schedules,
        &top_dfg,
        &top,
        &config.cost,
    );

    // Region analysis: always build the tree (diagnosis uses it even when
    // no probes are planned); solve the knapsack only under Auto.
    let regions = RegionTree::build(kernel, &Timing::default());
    let probe_plan = match config.probe {
        ProbeMode::Off => None,
        ProbeMode::Auto { budget_alms } => Some(Arc::new(probe::select(
            &regions,
            kernel.num_threads,
            budget_alms,
            &ProbeCostParams::default(),
        ))),
    };

    Accelerator {
        name: kernel.name.clone(),
        num_threads: kernel.num_threads,
        loop_schedules,
        loop_dfgs,
        top,
        top_dfg,
        config: config.clone(),
        fit,
        regions,
        probe_plan,
    }
}

/// [`compile`] as a `Result`, for callers written against a fallible
/// compile; compiling never fails.
pub fn try_compile(kernel: &Kernel, config: &HlsConfig) -> Result<Accelerator, Infallible> {
    Ok(compile(kernel, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    fn simple_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("simple", 4);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let o = kb.buffer("O", ScalarType::F32, MapDir::From);
        let sum = kb.var("sum", Type::F32);
        let z = kb.c_f32(0.0);
        kb.set(sum, z);
        let n = kb.c_i64(16);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(sum);
            let s = kb.add(cur, v);
            kb.set(sum, s);
        });
        let sv = kb.get(sum);
        let z2 = kb.c_i64(0);
        kb.store(o, z2, sv);
        kb.finish()
    }

    #[test]
    fn compiles_and_schedules_loops() {
        let k = simple_kernel();
        let acc = compile(&k, &HlsConfig::default());
        assert_eq!(acc.loop_schedules.len(), 1);
        let ls = acc.loop_schedule(nymble_ir::loops::LoopId(0));
        assert!(ls.ii >= 1);
        assert!(ls.depth > 0);
        assert_eq!(ls.ext_reads_per_iter, 1);
        assert!(acc.fit.alms > 0);
        assert!(acc.fit.registers > 0);
        assert!(acc.fit.fmax_mhz > 50.0 && acc.fit.fmax_mhz < 500.0);
    }

    #[test]
    fn unrolled_loops_have_no_schedule() {
        let mut kb = KernelBuilder::new("u", 1);
        let x = kb.var("x", Type::I32);
        let zero = kb.c_i64(0);
        let four = kb.c_i64(4);
        let one = kb.c_i64(1);
        kb.for_unrolled("v", zero, four, one, |kb, v| {
            let c = kb.cast(ScalarType::I32, v);
            let cur = kb.get(x);
            let s = kb.add(cur, c);
            kb.set(x, s);
        });
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        assert_eq!(acc.loop_schedules.len(), 1);
        assert!(acc.loop_schedules[0].is_none());
        // ...but its ops appear in the top-level schedule.
        assert!(acc.top_dfg.len() >= 4);
    }

    #[test]
    fn more_threads_cost_more_area() {
        let k1 = {
            let mut kb = KernelBuilder::new("t1", 1);
            mk_body(&mut kb);
            kb.finish()
        };
        let k8 = {
            let mut kb = KernelBuilder::new("t8", 8);
            mk_body(&mut kb);
            kb.finish()
        };
        let a1 = compile(&k1, &HlsConfig::default());
        let a8 = compile(&k8, &HlsConfig::default());
        assert!(
            a8.fit.registers > a1.fit.registers,
            "8-thread contexts must cost more registers ({} vs {})",
            a8.fit.registers,
            a1.fit.registers
        );

        fn mk_body(kb: &mut KernelBuilder) {
            let a = kb.buffer("A", ScalarType::F32, MapDir::To);
            let x = kb.var("x", Type::F32);
            let n = kb.c_i64(8);
            kb.for_range("i", n, |kb, i| {
                let v = kb.load(a, i, Type::F32);
                let cur = kb.get(x);
                let s = kb.add(cur, v);
                kb.set(x, s);
            });
        }
    }
}
