//! # bench — experiment harness regenerating every table and figure of §V
//!
//! Shared plumbing for the `repro_*` binaries and the wall-clock benches
//! (see [`harness`]): compile a case-study kernel, run it through the
//! cycle-level simulator with the profiling unit attached, decode the
//! Paraver trace, and derive the paper's metrics. See `EXPERIMENTS.md` for
//! the experiment↔binary map.

pub mod args;
pub mod engine;
pub mod graph;
pub mod harness;
pub mod snapshot;
pub mod sweep;

use fpga_sim::memimg::LaunchArg;
use fpga_sim::{Executor, NullSnoop, RunResult, SimConfig, SimError};
use hls_profiling::{
    PipelineConfig, PipelineError, ProfilingConfig, ProfilingConfigError, ProfilingUnit,
    SinkFactory, StreamReport, TraceData,
};
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use kernels::reference;
use kernels::spmv::{self, Csr};
use nymble_hls::accel::{Accelerator, HlsConfig};
use nymble_hls::{AccelCache, ProbePlan};
use nymble_ir::{Kernel, Value};
use nymble_lint::LintLevel;
use paraver::TraceSink;
use std::path::PathBuf;
use std::sync::Arc;

/// Anything that can fail inside one graph node: the simulator (typed
/// deadlock / config errors), the streaming trace pipeline, the profiling
/// configuration, or the node body itself panicking (recorded so the rest
/// of the graph still drains).
#[derive(Debug)]
pub enum BenchError {
    /// The cycle-level simulator rejected the run.
    Sim(SimError),
    /// The background trace pipeline failed.
    Pipeline(PipelineError),
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
            BenchError::Pipeline(e) => write!(f, "{e}"),
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
            BenchError::Pipeline(e) => Some(e),
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

impl From<PipelineError> for BenchError {
    fn from(e: PipelineError) -> Self {
        BenchError::Pipeline(e)
    }
}

impl From<ProfilingConfigError> for BenchError {
    fn from(e: ProfilingConfigError) -> Self {
        BenchError::Profiling(e)
    }
}

impl From<paraver::TraceError> for BenchError {
    fn from(e: paraver::TraceError) -> Self {
        BenchError::Pipeline(PipelineError::Trace(e))
    }
}

/// Convert an `f32` slice into a buffer launch argument.
pub fn f32_buffer(data: &[f32]) -> LaunchArg {
    LaunchArg::Buffer(data.iter().map(|&x| Value::F32(x)).collect())
}

/// Read an `f32` buffer back out of a run result.
pub fn f32_result(r: &RunResult, arg: usize) -> Vec<f32> {
    r.buffers[arg]
        .iter()
        .map(|v| match v {
            Value::F32(x) => *x,
            other => other.as_f64() as f32,
        })
        .collect()
}

/// Outcome of one profiled experiment run. The compiled accelerator is
/// [`Arc`]-shared so a batch sweep's runs of the same kernel hold one
/// artifact (see [`nymble_hls::AccelCache`]).
pub struct ProfiledRun {
    pub result: RunResult,
    pub trace: TraceData,
    pub accel: Arc<Accelerator>,
}

/// [`run_profiled_in`] under an explicit [`HlsConfig`] (e.g. an auto-probe
/// budget, whose empty plan surfaces as [`BenchError::Profiling`]).
pub fn run_profiled_with(
    cache: &AccelCache,
    kernel: &Kernel,
    hls: &HlsConfig,
    sim: &SimConfig,
    prof: &ProfilingConfig,
    launch: &[LaunchArg],
) -> Result<ProfiledRun, BenchError> {
    let accel = cache.get_or_compile(kernel, hls);
    let prof = planned_prof(prof, &accel)?;
    let mut unit = ProfilingUnit::new(&kernel.name, kernel.num_threads, prof);
    let result = Executor::run(kernel, &accel, sim, launch, &mut unit)?;
    Ok(ProfiledRun {
        result,
        trace: unit.finish(),
        accel,
    })
}

/// [`run_profiled`] against a shared compile cache: the kernel is compiled
/// at most once per cache however many runs (or worker threads) request it.
pub fn run_profiled_in(
    cache: &AccelCache,
    kernel: &Kernel,
    sim: &SimConfig,
    prof: &ProfilingConfig,
    launch: &[LaunchArg],
) -> Result<ProfiledRun, SimError> {
    match run_profiled_with(cache, kernel, &HlsConfig::default(), sim, prof, launch) {
        Ok(run) => Ok(run),
        Err(BenchError::Sim(e)) => Err(e),
        // The default config plans no probes and runs no pipeline.
        Err(e) => unreachable!("impossible failure under HlsConfig::default(): {e}"),
    }
}

/// Compile and run a kernel with the profiling unit attached.
///
/// # Panics
/// Panics on simulator errors; batch sweeps that must survive a failing
/// run use [`run_profiled_in`] and report the typed [`SimError`] instead.
pub fn run_profiled(
    kernel: &Kernel,
    sim: &SimConfig,
    prof: &ProfilingConfig,
    launch: &[LaunchArg],
) -> ProfiledRun {
    run_profiled_in(&AccelCache::new(), kernel, sim, prof, launch).expect("simulation failed")
}

/// [`run_profiled_streaming_in`] under an explicit [`HlsConfig`].
#[allow(clippy::too_many_arguments)] // the fully-explicit variant: every knob of the stack
pub fn run_profiled_streaming_with(
    cache: &AccelCache,
    kernel: &Kernel,
    hls: &HlsConfig,
    sim: &SimConfig,
    prof: &ProfilingConfig,
    pipeline: PipelineConfig,
    sink_factory: SinkFactory,
    launch: &[LaunchArg],
) -> Result<(RunResult, StreamReport), BenchError> {
    let accel = cache.get_or_compile(kernel, hls);
    let prof = planned_prof(prof, &accel)?;
    let mut unit = ProfilingUnit::new_streaming(
        &kernel.name,
        kernel.num_threads,
        prof,
        pipeline,
        sink_factory,
    );
    let result = Executor::run(kernel, &accel, sim, launch, &mut unit);
    // Drain the pipeline even when the simulator failed mid-run, so the
    // worker thread is always joined; the simulator error takes precedence.
    let report = unit.finish_streaming();
    let result = result?;
    Ok((result, report?))
}

/// [`run_profiled_streaming`] against a shared compile cache, with
/// simulator failures surfaced as typed [`BenchError::Sim`] values.
pub fn run_profiled_streaming_in(
    cache: &AccelCache,
    kernel: &Kernel,
    sim: &SimConfig,
    prof: &ProfilingConfig,
    pipeline: PipelineConfig,
    sink_factory: SinkFactory,
    launch: &[LaunchArg],
) -> Result<(RunResult, StreamReport), BenchError> {
    run_profiled_streaming_with(
        cache,
        kernel,
        &HlsConfig::default(),
        sim,
        prof,
        pipeline,
        sink_factory,
        launch,
    )
}

/// Compile and run a kernel with the profiling unit in streaming mode:
/// every trace-buffer flush feeds the background decode → bounded-sort →
/// sink pipeline instead of accumulating in memory.
///
/// # Panics
/// Panics on simulator errors (see [`run_profiled_streaming_in`]).
pub fn run_profiled_streaming(
    kernel: &Kernel,
    sim: &SimConfig,
    prof: &ProfilingConfig,
    pipeline: PipelineConfig,
    sink_factory: SinkFactory,
    launch: &[LaunchArg],
) -> Result<(RunResult, StreamReport), PipelineError> {
    match run_profiled_streaming_in(
        &AccelCache::new(),
        kernel,
        sim,
        prof,
        pipeline,
        sink_factory,
        launch,
    ) {
        Ok(ok) => Ok(ok),
        Err(BenchError::Pipeline(e)) => Err(e),
        Err(BenchError::Sim(e)) => panic!("simulation failed: {e}"),
        // The default config plans no probes, and this path never goes
        // through the graph scheduler.
        Err(e) => unreachable!("{e}"),
    }
}

/// Align the shared profiling configuration with the compiled design's
/// auto-probe plan (when the compile selected one) and validate the
/// result, so a budget that selects nothing surfaces as a typed
/// [`BenchError::Profiling`] instead of a panic inside the profiling unit.
fn planned_prof(
    prof: &ProfilingConfig,
    accel: &Accelerator,
) -> Result<ProfilingConfig, BenchError> {
    let cfg = match &accel.probe_plan {
        Some(plan) => prof.clone().with_plan(plan.clone()),
        None => prof.clone(),
    };
    cfg.validate()?;
    Ok(cfg)
}

/// Sink factory that streams the trace into a `.prv`/`.pcf`/`.row` bundle
/// under `path_stem` (for [`run_profiled_streaming`]).
pub fn bundle_sink(path_stem: PathBuf) -> SinkFactory {
    bundle_sink_with_plan(path_stem, None)
}

/// [`bundle_sink`] for a design compiled under `--profile=auto`: the
/// plan's region probes land in the `.pcf` event table and the `.row`
/// region hierarchy, so Paraver (and `diagnose`) can name the source
/// region behind every record.
pub fn bundle_sink_with_plan(path_stem: PathBuf, plan: Option<Arc<ProbePlan>>) -> SinkFactory {
    Box::new(move |meta| {
        let (event_defs, regions) = match &plan {
            Some(p) => (
                paraver::events::defs_with_regions(&p.pcf_regions()),
                p.row_regions(),
            ),
            None => (paraver::events::defs(), Vec::new()),
        };
        let w =
            paraver::BundleWriter::create(&path_stem, meta, &paraver::states::defs(), &event_defs)?
                .with_regions(regions);
        Ok(Box::new(w) as Box<dyn TraceSink + Send>)
    })
}

/// [`run_unprofiled_in`] under an explicit [`HlsConfig`].
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

/// [`run_unprofiled`] against a shared compile cache.
pub fn run_unprofiled_in(
    cache: &AccelCache,
    kernel: &Kernel,
    sim: &SimConfig,
    launch: &[LaunchArg],
) -> Result<RunResult, SimError> {
    let accel = cache.get_or_compile(kernel, &HlsConfig::default());
    Executor::run(kernel, &accel, sim, launch, &mut NullSnoop)
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

/// Compile and run a kernel without profiling (the overhead-study baseline).
///
/// # Panics
/// Panics on simulator errors (see [`run_unprofiled_in`]).
pub fn run_unprofiled(kernel: &Kernel, sim: &SimConfig, launch: &[LaunchArg]) -> RunResult {
    run_unprofiled_in(&AccelCache::new(), kernel, sim, launch).expect("simulation failed")
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

/// [`run_gemm`] against a shared compile cache.
pub fn run_gemm_in(
    cache: &AccelCache,
    version: GemmVersion,
    p: &GemmParams,
    sim: &SimConfig,
) -> Result<ProfiledRun, SimError> {
    let kernel = gemm::build(version, p);
    run_profiled_in(
        cache,
        &kernel,
        sim,
        &ProfilingConfig::default(),
        &gemm_launch(p),
    )
}

/// Run one GEMM version end to end with profiling.
pub fn run_gemm(version: GemmVersion, p: &GemmParams, sim: &SimConfig) -> ProfiledRun {
    run_gemm_in(&AccelCache::new(), version, p, sim).expect("simulation failed")
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

/// [`run_pi`] against a shared compile cache. The π kernel's IR does not
/// depend on the step count (it arrives as launch scalars), so every
/// problem size of the §V-D study shares one compile.
pub fn run_pi_in(
    cache: &AccelCache,
    p: &PiParams,
    sim: &SimConfig,
    prof: &ProfilingConfig,
) -> Result<(ProfiledRun, f32), SimError> {
    let kernel = pi::build(p);
    let (step, _) = pi::launch_scalars(p);
    let run = run_profiled_in(cache, &kernel, sim, prof, &pi_launch(p))?;
    let est = f32_result(&run.result, 2)[0] * step;
    Ok((run, est))
}

/// Run the π kernel with profiling; returns the run plus the achieved π
/// estimate.
pub fn run_pi(p: &PiParams, sim: &SimConfig, prof: &ProfilingConfig) -> (ProfiledRun, f32) {
    run_pi_in(&AccelCache::new(), p, sim, prof).expect("simulation failed")
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

/// Build the SpMV kernel and run it with profiling through a shared cache.
pub fn run_spmv_in(
    cache: &AccelCache,
    m: &Csr,
    threads: u32,
    sim: &SimConfig,
) -> Result<ProfiledRun, SimError> {
    let kernel = spmv::build(m.rows as i64, threads);
    run_profiled_in(
        cache,
        &kernel,
        sim,
        &ProfilingConfig::default(),
        &spmv_launch(m),
    )
}

/// The simulator configuration for SpMV experiments: like GEMM, the
/// scaled-down problem sizes need the scaled launch cost.
pub fn spmv_sim_config() -> SimConfig {
    SimConfig::default().with_fast_launch()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_gemm_smoke() {
        let p = GemmParams {
            dim: 16,
            threads: 2,
            vec: 4,
            block: 8,
        };
        let run = run_gemm(GemmVersion::NoCritical, &p, &gemm_sim_config());
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
        let (run, est) = run_pi(&p, &gemm_sim_config(), &ProfilingConfig::default());
        assert!((est - std::f32::consts::PI).abs() < 1e-2);
        assert!(run.trace.flushed_bytes > 0);
    }
}
