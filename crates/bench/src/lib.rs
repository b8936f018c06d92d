//! # bench — experiment harness regenerating every table and figure of §V
//!
//! Shared plumbing for the `repro_*` binaries and their sweep engine
//! ([`engine`], [`graph`], [`sweep`]): compile a case-study kernel, run it
//! through the cycle-level simulator with the profiling unit attached
//! ([`run_profiled_with`], or [`run_unprofiled_with`] for the baseline),
//! decode the Paraver trace, and derive the paper's metrics. See
//! `EXPERIMENTS.md` for the experiment↔binary map; performance is measured
//! by `hlsbench`, not here.

pub mod args;
pub mod engine;
pub mod graph;
pub mod session;
pub mod snapshot;
pub mod sweep;

use fpga_sim::memimg::LaunchArg;
use fpga_sim::{Executor, NullSnoop, RunResult, SimConfig, SimError};
use hls_profiling::{ProfilingConfig, ProfilingConfigError, ProfilingUnit, TraceData};
use kernels::gemm::GemmParams;
use kernels::pi::{self, PiParams};
use kernels::reference;
use kernels::spmv::Csr;
use nymble_hls::accel::{Accelerator, HlsConfig};
use nymble_hls::AccelCache;
use nymble_ir::{Kernel, Value};
use nymble_lint::LintLevel;
use std::sync::Arc;

/// Anything that can fail inside one graph node: the simulator (typed
/// deadlock / config errors), the trace bundle write, the profiling
/// configuration, or the node body itself panicking (recorded so the rest
/// of the graph still drains).
#[derive(Debug)]
pub enum BenchError {
    /// The cycle-level simulator rejected the run.
    Sim(SimError),
    /// Writing the trace bundle failed (I/O, or a record out of order).
    Trace(paraver::TraceError),
    /// The profiling configuration (after aligning it with the compiled
    /// design's auto-probe plan) was rejected — e.g. a budget so tight the
    /// knapsack pass selected nothing.
    Profiling(ProfilingConfigError),
    /// A graph node's body panicked; the scheduler records this outcome,
    /// finishes the graph, and then re-raises the original panic.
    NodePanic {
        /// Label of the node that panicked.
        label: String,
        /// Rendered panic payload.
        message: String,
    },
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Sim(e) => write!(f, "{e}"),
            BenchError::Trace(e) => write!(f, "{e}"),
            BenchError::Profiling(e) => write!(f, "{e}"),
            BenchError::NodePanic { label, message } => {
                write!(f, "node `{label}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Sim(e) => Some(e),
            BenchError::Trace(e) => Some(e),
            BenchError::Profiling(e) => Some(e),
            BenchError::NodePanic { .. } => None,
        }
    }
}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> Self {
        BenchError::Sim(e)
    }
}

impl From<ProfilingConfigError> for BenchError {
    fn from(e: ProfilingConfigError) -> Self {
        BenchError::Profiling(e)
    }
}

impl From<paraver::TraceError> for BenchError {
    fn from(e: paraver::TraceError) -> Self {
        BenchError::Trace(e)
    }
}

/// Convert an `f32` slice into a buffer launch argument.
pub fn f32_buffer(data: &[f32]) -> LaunchArg {
    LaunchArg::Buffer(data.iter().map(|&x| Value::F32(x)).collect())
}

/// Read an `f32` buffer back out of a run result.
pub fn f32_result(r: &RunResult, arg: usize) -> Vec<f32> {
    r.buffers[arg].to_f32()
}

/// Outcome of one profiled experiment run. The compiled accelerator is
/// [`Arc`]-shared so a batch sweep's runs of the same kernel hold one
/// artifact (see [`nymble_hls::AccelCache`]).
pub struct ProfiledRun {
    pub result: RunResult,
    pub trace: TraceData,
    pub accel: Arc<Accelerator>,
}

/// Compile (through the shared cache, so a kernel is compiled at most once
/// however many runs or worker threads request it) and run a kernel with the
/// profiling unit attached, under an explicit [`HlsConfig`] (e.g. an
/// auto-probe budget, whose empty plan surfaces as
/// [`BenchError::Profiling`]).
pub fn run_profiled_with(
    cache: &AccelCache,
    kernel: &Kernel,
    hls: &HlsConfig,
    sim: &SimConfig,
    prof: &ProfilingConfig,
    launch: &[LaunchArg],
) -> Result<ProfiledRun, BenchError> {
    let accel = cache.get_or_compile(kernel, hls);
    // Validated here so a budget that selects nothing is a typed error,
    // not a panic inside the profiling unit.
    let prof = prof.for_design(&accel);
    prof.validate()?;
    let mut unit = ProfilingUnit::new(&kernel.name, kernel.num_threads, prof);
    let result = Executor::run(kernel, &accel, sim, launch, &mut unit)?;
    Ok(ProfiledRun {
        result,
        trace: unit.finish(),
        accel,
    })
}

/// Compile through the shared cache and run a kernel without profiling (the
/// overhead-study baseline), under an explicit [`HlsConfig`].
pub fn run_unprofiled_with(
    cache: &AccelCache,
    kernel: &Kernel,
    hls: &HlsConfig,
    sim: &SimConfig,
    launch: &[LaunchArg],
) -> Result<RunResult, BenchError> {
    let accel = cache.get_or_compile(kernel, hls);
    Executor::run(kernel, &accel, sim, launch, &mut NullSnoop).map_err(Into::into)
}

/// Pre-sweep lint gate shared by the `repro_*` binaries: lint every kernel
/// at `level`, printing findings (human-rendered) to stderr. At
/// [`LintLevel::Deny`] a dirty kernel turns the whole gate into `Err` with
/// the rendered reports, so the binary can exit nonzero *before* spending
/// any simulation time.
pub fn lint_gate(kernels: &[&Kernel], level: LintLevel) -> Result<(), String> {
    let mut failures = Vec::new();
    for kernel in kernels {
        match nymble_lint::enforce(kernel, level) {
            Ok(report) => {
                if !report.is_clean() {
                    eprint!("{}", report.render_human());
                }
            }
            Err(rendered) => failures.push(rendered),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Performance twin of [`lint_gate`]: run the `NP0xx` diagnostics on every
/// kernel at `level`. Findings are warnings with quantitative predictions
/// (predicted cycles, bytes, serialization) — at [`LintLevel::Warn`] they
/// print to stderr and the sweep proceeds; [`LintLevel::Deny`] refuses a
/// flagged design up front, before any simulation time is spent.
pub fn perf_lint_gate(kernels: &[&Kernel], level: LintLevel) -> Result<(), String> {
    let mut failures = Vec::new();
    for kernel in kernels {
        match nymble_lint::enforce_perf(kernel, level) {
            Ok(report) => {
                if !report.is_clean() {
                    eprint!("{}", report.render_human());
                }
            }
            Err(rendered) => failures.push(rendered),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// GEMM launch arguments (A, B, C) with deterministic contents.
pub fn gemm_launch(p: &GemmParams) -> Vec<LaunchArg> {
    let d = p.dim as usize;
    let a = reference::gen_matrix(d, 1);
    let b = reference::gen_matrix(d, 2);
    vec![
        f32_buffer(&a),
        f32_buffer(&b),
        f32_buffer(&vec![0.0; d * d]),
    ]
}

/// The π kernel's launch arguments for `p`.
pub fn pi_launch(p: &PiParams) -> Vec<LaunchArg> {
    let (step, spt) = pi::launch_scalars(p);
    vec![
        LaunchArg::Scalar(Value::F32(step)),
        LaunchArg::Scalar(Value::I64(spt)),
        f32_buffer(&[0.0]),
    ]
}

/// The simulator configuration used for GEMM experiments: identical hardware
/// timing to the default, but with the host launch cost scaled to the
/// scaled-down default problem (the paper's fixed ~6 ms software cost is
/// invisible at 512² / 853 M cycles but would dominate a 128² run).
pub fn gemm_sim_config() -> SimConfig {
    SimConfig::default().with_fast_launch()
}

/// Run the analytical fast mode (`fpga_sim::analytic`) for one kernel:
/// compile (through the shared cache), derive the launch scalars and memory
/// image the same way the simulator does, and evaluate the roofline model.
/// The image lets memory-dependent loop bounds (CSR SpMV row pointers)
/// resolve; `None` when the kernel's bounds are still not statically
/// resolvable.
pub fn analytic_report(
    cache: &AccelCache,
    kernel: &Kernel,
    sim: &SimConfig,
    launch: &[LaunchArg],
) -> Option<fpga_sim::AnalyticReport> {
    let accel = cache.get_or_compile(kernel, &HlsConfig::default());
    let (mem, scalars) = fpga_sim::memimg::MemImage::new(kernel, launch);
    fpga_sim::analytic::estimate_with_image(kernel, &accel, sim, &scalars, &mem)
}

/// The simulator configuration of the π study: full host launch overhead,
/// calibrated so the 1 M / 4 M / 10 M-iteration GFLOP/s land in the band
/// Figs. 11–13 report.
pub fn pi_sim_config() -> SimConfig {
    SimConfig::default()
}

/// The dense input vector for an SpMV run: deterministic, zero-free.
pub fn spmv_x(cols: usize) -> Vec<f32> {
    (0..cols).map(|i| (i as f32 * 0.37).sin() + 1.5).collect()
}

/// SpMV launch arguments (`ROW_PTR`, `COL_IDX`, `VALS`, `X`, `Y`) for `m`.
pub fn spmv_launch(m: &Csr) -> Vec<LaunchArg> {
    let i64_buf = |v: &[i64]| LaunchArg::Buffer(v.iter().map(|&x| Value::I64(x)).collect());
    vec![
        i64_buf(&m.row_ptr),
        i64_buf(&m.col_idx),
        f32_buffer(&m.values),
        f32_buffer(&spmv_x(m.cols)),
        LaunchArg::Buffer(vec![Value::F32(0.0); m.rows]),
    ]
}

/// The simulator configuration for SpMV experiments: like GEMM, the
/// scaled-down problem sizes need the scaled launch cost.
pub fn spmv_sim_config() -> SimConfig {
    SimConfig::default().with_fast_launch()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::gemm::{self, GemmVersion};
    use kernels::spmv;

    /// Compile and run `kernel` with profiling under the default configs.
    fn profiled(kernel: &Kernel, launch: &[LaunchArg]) -> ProfiledRun {
        run_profiled_with(
            &AccelCache::new(),
            kernel,
            &HlsConfig::default(),
            &gemm_sim_config(),
            &ProfilingConfig::default(),
            launch,
        )
        .unwrap()
    }

    #[test]
    fn profiled_gemm_smoke() {
        let p = GemmParams {
            dim: 16,
            threads: 2,
            vec: 4,
            block: 8,
        };
        let run = profiled(&gemm::build(GemmVersion::NoCritical, &p), &gemm_launch(&p));
        assert!(run.result.total_cycles > 0);
        assert!(!run.trace.records.is_empty());
        let d = p.dim as usize;
        let a = reference::gen_matrix(d, 1);
        let b = reference::gen_matrix(d, 2);
        let gold = reference::gemm(&a, &b, d);
        let got = f32_result(&run.result, 2);
        for (g, e) in got.iter().zip(&gold) {
            assert!((g - e).abs() < 1e-3 * e.abs().max(1.0));
        }
    }

    #[test]
    fn profiled_pi_smoke() {
        let p = PiParams {
            steps: 64_000,
            threads: 4,
            bs: 8,
        };
        let run = profiled(&pi::build(&p), &pi_launch(&p));
        let est = f32_result(&run.result, 2)[0] * pi::launch_scalars(&p).0;
        assert!((est - std::f32::consts::PI).abs() < 1e-2);
        assert!(run.trace.flushed_bytes > 0);
    }

    #[test]
    fn run_result_carries_the_stepped_device_stats() {
        // `Executor::run` is the only run loop; the device wake mix it reports
        // must be exactly what stepping the same run by hand accumulates.
        let m = Csr::random(256, 256, 8, 7);
        let kernel = spmv::build(m.rows as i64, 8);
        let accel = AccelCache::new().get_or_compile(&kernel, &HlsConfig::default());
        let sim = spmv_sim_config();
        let launch = spmv_launch(&m);
        let result = Executor::run(&kernel, &accel, &sim, &launch, &mut NullSnoop).unwrap();
        let mut stepped = fpga_sim::SimRun::new(&kernel, &accel, &sim, &launch).unwrap();
        while stepped.step(&mut NullSnoop).unwrap() == fpga_sim::StepStatus::Running {}
        assert_eq!(result.devices, stepped.device_stats());
        assert_eq!(result.total_cycles, stepped.total_cycles());
        assert!(
            result.devices.channel_grant_wakes > 0,
            "SpMV gathers must exercise the device wakeups: {:?}",
            result.devices
        );
    }
}
