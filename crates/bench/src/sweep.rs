//! # sweep — experiments as task graphs on the work-stealing engine
//!
//! The deterministic middle layer between the [`crate::engine`] scheduler
//! and the `repro_*` binaries: it turns an experiment description (which
//! GEMM versions, which π problem sizes, where the trace bundles go) into
//! a [`TaskGraph`] and renders the result tables inside the graph itself.
//! Each sweep has the same shape:
//!
//! * one `Compile` node per distinct kernel populates the shared
//!   [`AccelCache`] entry (the π sweep has exactly one — its IR is
//!   step-independent), so a slow compile blocks only its own runs;
//! * one `Run` node per experiment streams the simulator's trace through
//!   the background pipeline of `hls_profiling::pipeline` with a
//!   node-private spill directory, collecting the sorted records in
//!   memory;
//! * one `Analyze` node per run writes the `.prv`/`.pcf`/`.row` bundle and
//!   computes the table-row metrics — overlapping with still-running
//!   simulations instead of waiting for the whole batch;
//! * one `Reduce` node renders the table from the rows **in submission
//!   order**, so the table text and the trace bundles are byte-identical
//!   at `--jobs 1` and `--jobs 8`.
//!
//! Simulator failures (e.g. a typed [`fpga_sim::SimError::Deadlock`]) are
//! carried in the node outcomes and rendered as table diagnostics — one bad
//! configuration never aborts the rest of a sweep. Static analysis gates
//! the kernels before a sweep is built (`crate::lint_gate`).

use crate::engine::{BatchEngine, RunReport, SchedStats};
use crate::graph::{NodeCtx, NodeKind, TaskGraph};
use crate::{
    analytic_report, gemm_launch, pi_launch, run_profiled_streaming_with, spmv_launch, BenchError,
    ProfiledRun,
};
use fpga_sim::memimg::LaunchArg;
use fpga_sim::SimConfig;
use hls_profiling::{PipelineConfig, ProfilingConfig, SinkFactory, TraceData};
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use kernels::spmv::{self, Csr};
use nymble_hls::accel::HlsConfig;
use nymble_hls::{AccelCache, CacheStats, ProbePlan};
use nymble_ir::Kernel;
use paraver::analysis::StateProfile;
use paraver::{states, Record, TraceError, TraceSink};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A [`TraceSink`] that forwards every record to an optional on-disk
/// bundle writer while collecting a copy in memory for figure rendering.
struct TeeSink {
    bundle: Option<paraver::prv::BundleWriter>,
    store: Arc<Mutex<Vec<Record>>>,
}

impl TraceSink for TeeSink {
    fn push(&mut self, r: Record) -> Result<(), TraceError> {
        self.store
            .lock()
            .expect("record store poisoned")
            .push(r.clone());
        match &mut self.bundle {
            Some(w) => w.push(r),
            None => Ok(()),
        }
    }

    fn close(&mut self) -> Result<(), TraceError> {
        match &mut self.bundle {
            Some(w) => w.close(),
            None => Ok(()),
        }
    }
}

/// The `.pcf` event table and `.row` region hierarchy for a trace: the
/// plain defs, extended by the auto-probe plan's regions when one was
/// compiled in.
fn bundle_defs(plan: Option<&ProbePlan>) -> (Vec<paraver::EventTypeDef>, Vec<(u32, String)>) {
    match plan {
        Some(p) => (
            paraver::events::defs_with_regions(&p.pcf_regions()),
            p.row_regions(),
        ),
        None => (paraver::events::defs(), Vec::new()),
    }
}

/// Sink factory streaming into `<stem>.prv/.pcf/.row` (when `stem` is
/// given) while teeing every record into `store`. `plan` extends the
/// bundle's event table and `.row` hierarchy with the auto-probe regions.
pub fn collecting_bundle_sink(
    stem: Option<PathBuf>,
    plan: Option<Arc<ProbePlan>>,
    store: Arc<Mutex<Vec<Record>>>,
) -> SinkFactory {
    Box::new(move |meta| {
        let bundle = match stem {
            Some(stem) => {
                let (event_defs, regions) = bundle_defs(plan.as_deref());
                Some(
                    paraver::prv::BundleWriter::create(
                        &stem,
                        meta,
                        &paraver::states::defs(),
                        &event_defs,
                    )?
                    .with_regions(regions),
                )
            }
            None => None,
        };
        Ok(Box::new(TeeSink { bundle, store }) as Box<dyn TraceSink + Send>)
    })
}

/// Replay an in-memory trace (already in sink order) through a fresh
/// bundle writer. Done by `Analyze` nodes so the disk I/O overlaps with
/// still-running simulations; the resulting bundle is byte-identical to
/// one streamed directly.
fn write_bundle(stem: &Path, trace: &TraceData) -> Result<(), BenchError> {
    let (event_defs, regions) = bundle_defs(trace.plan.as_deref());
    let mut w = paraver::prv::BundleWriter::create(
        stem,
        &trace.meta,
        &paraver::states::defs(),
        &event_defs,
    )
    .map_err(TraceError::from)?
    .with_regions(regions);
    for r in &trace.records {
        w.push(r.clone())?;
    }
    w.close()?;
    Ok(())
}

/// Sweep-wide shared state each node executes against: the compile cache
/// and the simulator/profiler/pipeline configuration.
#[derive(Clone, Copy)]
struct SweepEnv<'a> {
    cache: &'a AccelCache,
    hls: &'a HlsConfig,
    sim: &'a SimConfig,
    prof: &'a ProfilingConfig,
    pipeline: &'a PipelineConfig,
}

impl<'a> SweepEnv<'a> {
    fn of(
        cache: &'a AccelCache,
        cfg_hls: &'a HlsConfig,
        sim: &'a SimConfig,
        prof: &'a ProfilingConfig,
        pipeline: &'a PipelineConfig,
    ) -> Self {
        SweepEnv {
            cache,
            hls: cfg_hls,
            sim,
            prof,
            pipeline,
        }
    }
}

/// Run one kernel through the streaming pipeline with a node-private spill
/// dir, producing a [`ProfiledRun`] whose records were collected by the
/// tee sink. Bundle writing is left to the dependent `Analyze` node.
fn profiled_streaming_run(
    env: &SweepEnv<'_>,
    kernel: &Kernel,
    launch: &[LaunchArg],
    scratch_dir: &Path,
) -> Result<ProfiledRun, BenchError> {
    let store = Arc::new(Mutex::new(Vec::new()));
    let pipe = PipelineConfig {
        spill_dir: Some(scratch_dir.to_path_buf()),
        ..env.pipeline.clone()
    };
    let accel = env.cache.get_or_compile(kernel, env.hls);
    let (result, report) = run_profiled_streaming_with(
        env.cache,
        kernel,
        env.hls,
        env.sim,
        env.prof,
        pipe,
        collecting_bundle_sink(None, accel.probe_plan.clone(), store.clone()),
        launch,
    )?;
    let records = std::mem::take(&mut *store.lock().expect("record store poisoned"));
    let trace = TraceData {
        records,
        meta: report.meta.clone(),
        flushed_bytes: report.flushed_bytes,
        flush_count: report.flush_count,
        plan: accel.probe_plan.clone(),
    };
    Ok(ProfiledRun {
        result,
        trace,
        accel,
    })
}

/// Configuration of the GEMM version sweep (§V-C).
pub struct GemmSweepConfig {
    pub params: GemmParams,
    /// HLS compile options; part of the compile-cache key.
    pub hls: HlsConfig,
    pub sim: SimConfig,
    pub prof: ProfilingConfig,
    pub pipeline: PipelineConfig,
    /// Where trace bundles go (`gemm_<dim>_<kernel>` stems); `None` skips
    /// bundle output.
    pub out: Option<PathBuf>,
    /// Worker count for the batch engine.
    pub jobs: usize,
}

/// Result of a GEMM sweep: one report per [`GemmVersion::ALL`] entry, in
/// that order, plus the table its `Reduce` node rendered and the
/// compile-cache / scheduler counters.
pub struct GemmSweep {
    pub runs: Vec<(GemmVersion, RunReport<ProfiledRun>)>,
    /// The §V-C speedup table, rendered by the sweep's `Reduce` node in
    /// submission order (byte-identical at any worker count).
    pub table: String,
    pub cache: CacheStats,
    /// Work-stealing statistics of the sweep's graph execution.
    pub sched: SchedStats,
}

/// One rendered-row's metrics, computed by a GEMM `Analyze` node.
struct GemmRow {
    cycles: u64,
    gbps: f64,
    spin_pct: f64,
    crit_pct: f64,
}

/// Node payload of the GEMM sweep graph.
enum GemmNode {
    Compiled,
    Ran(ProfiledRun),
    Row(Result<GemmRow, String>),
    Table(String),
}

/// Run all five GEMM versions as one task graph: compile → run → analyze
/// per version, one table reduce at the end.
pub fn gemm_sweep(cfg: &GemmSweepConfig) -> GemmSweep {
    let cache = AccelCache::new();
    let launch = gemm_launch(&cfg.params);
    let threads = cfg.params.threads;
    let kernels: Vec<(GemmVersion, Kernel)> = GemmVersion::ALL
        .iter()
        .map(|&v| (v, gemm::build(v, &cfg.params)))
        .collect();
    let engine = BatchEngine::new(cfg.jobs);

    let mut graph: TaskGraph<'_, GemmNode> = TaskGraph::new();
    let mut run_ids = Vec::new();
    let mut analyze_ids = Vec::new();
    for (v, kernel) in &kernels {
        let env = SweepEnv::of(&cache, &cfg.hls, &cfg.sim, &cfg.prof, &cfg.pipeline);
        let stem = cfg
            .out
            .as_ref()
            .map(|o| o.join(format!("gemm_{}_{}", cfg.params.dim, kernel.name)));
        let launch = &launch;
        let sim = &cfg.sim;
        let compile = graph.add(
            NodeKind::Compile,
            format!("compile:{}", v.name()),
            &[],
            move |_: &NodeCtx<'_, GemmNode>| {
                env.cache.get_or_compile(kernel, env.hls);
                Ok(GemmNode::Compiled)
            },
        );
        let run = graph.add(
            NodeKind::Run,
            v.name(),
            &[compile],
            move |ctx: &NodeCtx<'_, GemmNode>| {
                profiled_streaming_run(&env, kernel, launch, &ctx.scratch_dir).map(GemmNode::Ran)
            },
        );
        let analyze = graph.add(
            NodeKind::Analyze,
            format!("analyze:{}", v.name()),
            &[run],
            move |ctx: &NodeCtx<'_, GemmNode>| {
                let row = match &ctx.dep(0).outcome {
                    Ok(GemmNode::Ran(pr)) => {
                        if let Some(stem) = &stem {
                            write_bundle(stem, &pr.trace)?;
                        }
                        let prof = StateProfile::compute(&pr.trace.records, threads);
                        Ok(GemmRow {
                            cycles: pr.result.total_cycles,
                            gbps: pr.result.throughput_gbps(sim),
                            spin_pct: prof.fraction(states::SPINNING) * 100.0,
                            crit_pct: prof.fraction(states::CRITICAL) * 100.0,
                        })
                    }
                    Ok(_) => unreachable!("run node produced a non-run payload"),
                    Err(e) => Err(e.to_string()),
                };
                Ok(GemmNode::Row(row))
            },
        );
        run_ids.push(run);
        analyze_ids.push(analyze);
    }
    let reduce = graph.add(
        NodeKind::Reduce,
        "gemm_table",
        &analyze_ids,
        move |ctx: &NodeCtx<'_, GemmNode>| Ok(GemmNode::Table(render_gemm_table(ctx))),
    );

    let out = engine.run_graph(graph);
    let sched = out.stats;
    let mut reports: Vec<Option<_>> = out.reports.into_iter().map(Some).collect();
    let table = match reports[reduce.index()]
        .take()
        .expect("reduce report")
        .outcome
    {
        Ok(GemmNode::Table(t)) => t,
        Ok(_) => unreachable!("reduce node produced a non-table payload"),
        Err(e) => unreachable!("table reduction cannot fail: {e}"),
    };
    let mut runs = Vec::with_capacity(run_ids.len());
    for (i, ((v, _), id)) in kernels.iter().zip(&run_ids).enumerate() {
        let r = reports[id.index()].take().expect("run report");
        runs.push((
            *v,
            RunReport {
                label: r.label,
                index: i,
                worker: r.worker,
                wall: r.wall,
                outcome: r.outcome.map(|n| match n {
                    GemmNode::Ran(pr) => pr,
                    _ => unreachable!("run node produced a non-run payload"),
                }),
            },
        ));
    }
    GemmSweep {
        runs,
        table,
        cache: cache.stats(),
        sched,
    }
}

/// Render the §V-C speedup table from the analyze rows, in submission
/// order. Failed runs become diagnostic rows and are excluded from the
/// speedup baselines.
fn render_gemm_table(ctx: &NodeCtx<'_, GemmNode>) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<24} {:>14} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "version", "cycles", "vs naive", "vs prev", "GB/s", "spin%", "crit%"
    )
    .unwrap();
    let (mut naive_c, mut prev_c) = (None::<u64>, None::<u64>);
    for (v, dep) in GemmVersion::ALL.iter().zip(ctx.deps()) {
        let row = match &dep.outcome {
            Ok(GemmNode::Row(row)) => row.as_ref().map_err(Clone::clone),
            Ok(_) => unreachable!("analyze node produced a non-row payload"),
            Err(e) => {
                writeln!(out, "{:<24} failed: {e}", v.name()).unwrap();
                continue;
            }
        };
        match row {
            Ok(r) => {
                let naive = *naive_c.get_or_insert(r.cycles);
                let prev = prev_c.unwrap_or(r.cycles);
                writeln!(
                    out,
                    "{:<24} {:>14} {:>8.2}x {:>8.2}x {:>8.3} {:>7.2}% {:>7.2}%",
                    v.name(),
                    r.cycles,
                    naive as f64 / r.cycles as f64,
                    prev as f64 / r.cycles as f64,
                    r.gbps,
                    r.spin_pct,
                    r.crit_pct
                )
                .unwrap();
                prev_c = Some(r.cycles);
            }
            Err(e) => writeln!(out, "{:<24} failed: {e}", v.name()).unwrap(),
        }
    }
    out
}

/// The table a GEMM sweep's `Reduce` node rendered (kept as a free
/// function so call sites read the same as before the graph refactor).
pub fn gemm_table(sweep: &GemmSweep) -> String {
    sweep.table.clone()
}

/// Configuration of the π scaling sweep (§V-D).
pub struct PiSweepConfig {
    /// Problem sizes to run (the paper's 1 M / 4 M / 10 M).
    pub steps: Vec<u64>,
    pub threads: u32,
    pub bs: u32,
    /// HLS compile options; part of the compile-cache key.
    pub hls: HlsConfig,
    pub sim: SimConfig,
    pub prof: ProfilingConfig,
    pub pipeline: PipelineConfig,
    /// Where trace bundles go (`pi_<steps>` stems); `None` skips bundles.
    pub out: Option<PathBuf>,
    pub jobs: usize,
}

/// One π run's payload: the profiled run plus the achieved π estimate.
pub struct PiRun {
    pub run: ProfiledRun,
    pub estimate: f32,
}

/// Result of a π sweep: one report per requested step count, in order,
/// plus the table its `Reduce` node rendered.
pub struct PiSweep {
    pub runs: Vec<(u64, RunReport<PiRun>)>,
    /// The §V-D summary table, rendered by the sweep's `Reduce` node.
    pub table: String,
    pub cache: CacheStats,
    /// Work-stealing statistics of the sweep's graph execution.
    pub sched: SchedStats,
}

/// One rendered-row's metrics, computed by a π `Analyze` node.
struct PiRow {
    cycles: u64,
    estimate: f32,
    gflops: f64,
}

/// Node payload of the π sweep graph.
enum PiNode {
    Compiled,
    Ran(PiRun),
    Row(Result<PiRow, String>),
    Table(String),
}

/// Run the π kernel at every requested problem size as one task graph.
/// The kernel's IR is independent of the step count (it arrives as launch
/// scalars), so the whole sweep shares a single `Compile` node.
pub fn pi_sweep(cfg: &PiSweepConfig) -> PiSweep {
    let cache = AccelCache::new();
    let engine = BatchEngine::new(cfg.jobs);
    if cfg.steps.is_empty() {
        let out = engine.run_graph(TaskGraph::<'_, PiNode>::new());
        return PiSweep {
            runs: Vec::new(),
            table: pi_table_header(),
            cache: cache.stats(),
            sched: out.stats,
        };
    }

    let mut graph: TaskGraph<'_, PiNode> = TaskGraph::new();
    let shared_kernel = pi::build(&PiParams {
        steps: cfg.steps[0],
        threads: cfg.threads,
        bs: cfg.bs,
    });
    let env = SweepEnv::of(&cache, &cfg.hls, &cfg.sim, &cfg.prof, &cfg.pipeline);
    let compile = graph.add(
        NodeKind::Compile,
        "compile:pi",
        &[],
        move |_: &NodeCtx<'_, PiNode>| {
            env.cache.get_or_compile(&shared_kernel, env.hls);
            Ok(PiNode::Compiled)
        },
    );
    let mut run_ids = Vec::new();
    let mut analyze_ids = Vec::new();
    for &steps in &cfg.steps {
        let p = PiParams {
            steps,
            threads: cfg.threads,
            bs: cfg.bs,
        };
        let stem = cfg.out.as_ref().map(|o| o.join(format!("pi_{steps}")));
        let sim = &cfg.sim;
        let run = graph.add(
            NodeKind::Run,
            format!("pi_{steps}"),
            &[compile],
            move |ctx: &NodeCtx<'_, PiNode>| {
                let kernel = pi::build(&p);
                let (step, _) = pi::launch_scalars(&p);
                let launch = pi_launch(&p);
                let run = profiled_streaming_run(&env, &kernel, &launch, &ctx.scratch_dir)?;
                let estimate = crate::f32_result(&run.result, 2)[0] * step;
                Ok(PiNode::Ran(PiRun { run, estimate }))
            },
        );
        let analyze = graph.add(
            NodeKind::Analyze,
            format!("analyze:pi_{steps}"),
            &[run],
            move |ctx: &NodeCtx<'_, PiNode>| {
                let row = match &ctx.dep(0).outcome {
                    Ok(PiNode::Ran(pr)) => {
                        if let Some(stem) = &stem {
                            write_bundle(stem, &pr.run.trace)?;
                        }
                        Ok(PiRow {
                            cycles: pr.run.result.total_cycles,
                            estimate: pr.estimate,
                            gflops: pr.run.result.gflops(sim),
                        })
                    }
                    Ok(_) => unreachable!("run node produced a non-run payload"),
                    Err(e) => Err(e.to_string()),
                };
                Ok(PiNode::Row(row))
            },
        );
        run_ids.push(run);
        analyze_ids.push(analyze);
    }
    let steps_list = cfg.steps.clone();
    let reduce = graph.add(
        NodeKind::Reduce,
        "pi_table",
        &analyze_ids,
        move |ctx: &NodeCtx<'_, PiNode>| Ok(PiNode::Table(render_pi_table(ctx, &steps_list))),
    );

    let out = engine.run_graph(graph);
    let sched = out.stats;
    let mut reports: Vec<Option<_>> = out.reports.into_iter().map(Some).collect();
    let table = match reports[reduce.index()]
        .take()
        .expect("reduce report")
        .outcome
    {
        Ok(PiNode::Table(t)) => t,
        Ok(_) => unreachable!("reduce node produced a non-table payload"),
        Err(e) => unreachable!("table reduction cannot fail: {e}"),
    };
    let mut runs = Vec::with_capacity(run_ids.len());
    for (i, (&steps, id)) in cfg.steps.iter().zip(&run_ids).enumerate() {
        let r = reports[id.index()].take().expect("run report");
        runs.push((
            steps,
            RunReport {
                label: r.label,
                index: i,
                worker: r.worker,
                wall: r.wall,
                outcome: r.outcome.map(|n| match n {
                    PiNode::Ran(pr) => pr,
                    _ => unreachable!("run node produced a non-run payload"),
                }),
            },
        ));
    }
    PiSweep {
        runs,
        table,
        cache: cache.stats(),
        sched,
    }
}

fn pi_table_header() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:>12} {:>14} {:>10} {:>10}",
        "steps", "cycles", "pi", "GFLOP/s"
    )
    .unwrap();
    out
}

/// Render the π sweep summary table (steps, cycles, estimate, GFLOP/s)
/// from the analyze rows, in submission order.
fn render_pi_table(ctx: &NodeCtx<'_, PiNode>, steps: &[u64]) -> String {
    let mut out = pi_table_header();
    for (steps, dep) in steps.iter().zip(ctx.deps()) {
        let row = match &dep.outcome {
            Ok(PiNode::Row(row)) => row.as_ref().map_err(Clone::clone),
            Ok(_) => unreachable!("analyze node produced a non-row payload"),
            Err(e) => {
                writeln!(out, "{steps:>12} failed: {e}").unwrap();
                continue;
            }
        };
        match row {
            Ok(r) => writeln!(
                out,
                "{:>12} {:>14} {:>10.6} {:>10.3}",
                steps, r.cycles, r.estimate, r.gflops
            )
            .unwrap(),
            Err(e) => writeln!(out, "{steps:>12} failed: {e}").unwrap(),
        }
    }
    out
}

/// The table a π sweep's `Reduce` node rendered.
pub fn pi_table(sweep: &PiSweep) -> String {
    sweep.table.clone()
}

/// Configuration of the SpMV thread-scaling sweep: one CSR matrix run at
/// every requested thread count (the high-T study of the scaling repro).
pub struct SpmvSweepConfig {
    /// The matrix, shared by every run; rows are striped over threads.
    pub matrix: Csr,
    /// Thread counts to sweep (each is a distinct kernel and compile).
    pub threads: Vec<u32>,
    /// HLS compile options; part of the compile-cache key.
    pub hls: HlsConfig,
    pub sim: SimConfig,
    pub prof: ProfilingConfig,
    pub pipeline: PipelineConfig,
    /// Where trace bundles go (`spmv_<rows>x<cols>_t<threads>` stems);
    /// `None` skips bundles.
    pub out: Option<PathBuf>,
    pub jobs: usize,
}

/// One SpMV run's payload: the profiled run plus the analytical fast-mode
/// prediction for the same configuration (when statically resolvable).
pub struct SpmvRun {
    pub run: ProfiledRun,
    pub analytic_cycles: Option<u64>,
}

/// Result of an SpMV sweep: one report per requested thread count, in
/// order, plus the table its `Reduce` node rendered.
pub struct SpmvSweep {
    pub runs: Vec<(u32, RunReport<SpmvRun>)>,
    /// The thread-scaling summary table, rendered by the sweep's `Reduce`
    /// node in submission order.
    pub table: String,
    pub cache: CacheStats,
    /// Work-stealing statistics of the sweep's graph execution.
    pub sched: SchedStats,
}

/// One rendered-row's metrics, computed by an SpMV `Analyze` node.
struct SpmvRow {
    cycles: u64,
    analytic: Option<u64>,
    gbps: f64,
    spin_pct: f64,
}

/// Node payload of the SpMV sweep graph.
enum SpmvNode {
    Compiled,
    Ran(SpmvRun),
    Row(Result<SpmvRow, String>),
    Table(String),
}

/// Run the SpMV kernel at every requested thread count as one task graph.
/// The row count is baked into the IR but the thread count is part of the
/// kernel too, so each count gets its own `Compile` node. Each run also
/// prices itself through the analytical fast mode so the table shows the
/// prediction error alongside the simulated cycles.
pub fn spmv_sweep(cfg: &SpmvSweepConfig) -> SpmvSweep {
    let cache = AccelCache::new();
    let engine = BatchEngine::new(cfg.jobs);
    let launch = spmv_launch(&cfg.matrix);
    let kernels: Vec<(u32, Kernel)> = cfg
        .threads
        .iter()
        .map(|&t| (t, spmv::build(cfg.matrix.rows as i64, t)))
        .collect();

    let mut graph: TaskGraph<'_, SpmvNode> = TaskGraph::new();
    let mut run_ids = Vec::new();
    let mut analyze_ids = Vec::new();
    for (t, kernel) in &kernels {
        let env = SweepEnv::of(&cache, &cfg.hls, &cfg.sim, &cfg.prof, &cfg.pipeline);
        let stem = cfg
            .out
            .as_ref()
            .map(|o| o.join(format!("spmv_{}x{}_t{t}", cfg.matrix.rows, cfg.matrix.cols)));
        let launch = &launch;
        let sim = &cfg.sim;
        let threads = *t;
        let compile = graph.add(
            NodeKind::Compile,
            format!("compile:spmv_t{t}"),
            &[],
            move |_: &NodeCtx<'_, SpmvNode>| {
                env.cache.get_or_compile(kernel, env.hls);
                Ok(SpmvNode::Compiled)
            },
        );
        let run = graph.add(
            NodeKind::Run,
            format!("spmv_t{t}"),
            &[compile],
            move |ctx: &NodeCtx<'_, SpmvNode>| {
                let run = profiled_streaming_run(&env, kernel, launch, &ctx.scratch_dir)?;
                let analytic_cycles =
                    analytic_report(env.cache, kernel, env.sim, launch).map(|r| r.total_cycles);
                Ok(SpmvNode::Ran(SpmvRun {
                    run,
                    analytic_cycles,
                }))
            },
        );
        let analyze = graph.add(
            NodeKind::Analyze,
            format!("analyze:spmv_t{t}"),
            &[run],
            move |ctx: &NodeCtx<'_, SpmvNode>| {
                let row = match &ctx.dep(0).outcome {
                    Ok(SpmvNode::Ran(pr)) => {
                        if let Some(stem) = &stem {
                            write_bundle(stem, &pr.run.trace)?;
                        }
                        let prof = StateProfile::compute(&pr.run.trace.records, threads);
                        Ok(SpmvRow {
                            cycles: pr.run.result.total_cycles,
                            analytic: pr.analytic_cycles,
                            gbps: pr.run.result.throughput_gbps(sim),
                            spin_pct: prof.fraction(states::SPINNING) * 100.0,
                        })
                    }
                    Ok(_) => unreachable!("run node produced a non-run payload"),
                    Err(e) => Err(e.to_string()),
                };
                Ok(SpmvNode::Row(row))
            },
        );
        run_ids.push(run);
        analyze_ids.push(analyze);
    }
    let threads_list = cfg.threads.clone();
    let reduce = graph.add(
        NodeKind::Reduce,
        "spmv_table",
        &analyze_ids,
        move |ctx: &NodeCtx<'_, SpmvNode>| {
            Ok(SpmvNode::Table(render_spmv_table(ctx, &threads_list)))
        },
    );

    let out = engine.run_graph(graph);
    let sched = out.stats;
    let mut reports: Vec<Option<_>> = out.reports.into_iter().map(Some).collect();
    let table = match reports[reduce.index()]
        .take()
        .expect("reduce report")
        .outcome
    {
        Ok(SpmvNode::Table(t)) => t,
        Ok(_) => unreachable!("reduce node produced a non-table payload"),
        Err(e) => unreachable!("table reduction cannot fail: {e}"),
    };
    let mut runs = Vec::with_capacity(run_ids.len());
    for (i, ((t, _), id)) in kernels.iter().zip(&run_ids).enumerate() {
        let r = reports[id.index()].take().expect("run report");
        runs.push((
            *t,
            RunReport {
                label: r.label,
                index: i,
                worker: r.worker,
                wall: r.wall,
                outcome: r.outcome.map(|n| match n {
                    SpmvNode::Ran(pr) => pr,
                    _ => unreachable!("run node produced a non-run payload"),
                }),
            },
        ));
    }
    SpmvSweep {
        runs,
        table,
        cache: cache.stats(),
        sched,
    }
}

/// Render the SpMV thread-scaling table (threads, cycles, analytical
/// prediction and error, GB/s, spin%) from the analyze rows.
fn render_spmv_table(ctx: &NodeCtx<'_, SpmvNode>, threads: &[u32]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:>8} {:>14} {:>14} {:>8} {:>8} {:>8}",
        "threads", "cycles", "analytic", "err%", "GB/s", "spin%"
    )
    .unwrap();
    for (t, dep) in threads.iter().zip(ctx.deps()) {
        let row = match &dep.outcome {
            Ok(SpmvNode::Row(row)) => row.as_ref().map_err(Clone::clone),
            Ok(_) => unreachable!("analyze node produced a non-row payload"),
            Err(e) => {
                writeln!(out, "{t:>8} failed: {e}").unwrap();
                continue;
            }
        };
        match row {
            Ok(r) => {
                let (analytic, err) = match r.analytic {
                    Some(a) => (
                        a.to_string(),
                        format!(
                            "{:+.1}",
                            (a as f64 - r.cycles as f64) / r.cycles as f64 * 100.0
                        ),
                    ),
                    None => ("-".to_string(), "-".to_string()),
                };
                writeln!(
                    out,
                    "{:>8} {:>14} {:>14} {:>8} {:>8.3} {:>7.2}%",
                    t, r.cycles, analytic, err, r.gbps, r.spin_pct
                )
                .unwrap();
            }
            Err(e) => writeln!(out, "{t:>8} failed: {e}").unwrap(),
        }
    }
    out
}

/// The table an SpMV sweep's `Reduce` node rendered.
pub fn spmv_table(sweep: &SpmvSweep) -> String {
    sweep.table.clone()
}

/// Write the `(out, sweep stems)` bundles-written footer used by the repro
/// binaries (shared so their output stays consistent).
pub fn bundles_footer(out: &Path) -> String {
    format!("trace bundles written to {}", out.display())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_gemm_cfg(jobs: usize) -> GemmSweepConfig {
        GemmSweepConfig {
            params: GemmParams {
                dim: 16,
                threads: 2,
                vec: 4,
                block: 8,
            },
            hls: HlsConfig::default(),
            sim: crate::gemm_sim_config(),
            prof: ProfilingConfig::default(),
            pipeline: PipelineConfig::default(),
            out: None,
            jobs,
        }
    }

    #[test]
    fn gemm_sweep_compiles_each_version_once() {
        let sweep = gemm_sweep(&tiny_gemm_cfg(4));
        assert_eq!(sweep.runs.len(), GemmVersion::ALL.len());
        for (v, r) in &sweep.runs {
            assert!(r.outcome.is_ok(), "{} failed", v.name());
        }
        assert_eq!(sweep.cache.entries, GemmVersion::ALL.len());
        assert_eq!(sweep.cache.misses as usize, GemmVersion::ALL.len());
        let table = gemm_table(&sweep);
        assert!(table.contains("vs naive"));
        assert_eq!(table.lines().count(), 1 + GemmVersion::ALL.len());
        // compile + run + analyze per version, plus one reduce.
        assert_eq!(
            sweep.sched.total_executed() as usize,
            3 * GemmVersion::ALL.len() + 1
        );
    }

    #[test]
    fn spmv_sweep_scales_thread_counts_with_analytic_column() {
        let cfg = SpmvSweepConfig {
            matrix: Csr::random(64, 64, 4, 5),
            threads: vec![2, 4],
            hls: HlsConfig::default(),
            sim: crate::spmv_sim_config(),
            prof: ProfilingConfig::default(),
            pipeline: PipelineConfig::default(),
            out: None,
            jobs: 2,
        };
        let sweep = spmv_sweep(&cfg);
        assert_eq!(sweep.runs.len(), 2);
        // One compile per thread count: the count is baked into the IR.
        assert_eq!(sweep.cache.misses, 2);
        for (t, r) in &sweep.runs {
            let pr = r.outcome.as_ref().unwrap_or_else(|e| panic!("t{t}: {e}"));
            assert!(pr.run.result.total_cycles > 0);
            assert!(
                pr.analytic_cycles.is_some(),
                "t{t}: SpMV must be analytically resolvable via the memory image"
            );
        }
        let table = spmv_table(&sweep);
        assert!(table.contains("analytic"));
        assert_eq!(table.lines().count(), 1 + 2);
        assert_eq!(sweep.sched.total_executed(), 3 * 2 + 1);
    }

    #[test]
    fn pi_sweep_shares_one_compile_across_problem_sizes() {
        let cfg = PiSweepConfig {
            steps: vec![20_000, 50_000],
            threads: 2,
            bs: 8,
            hls: HlsConfig::default(),
            sim: crate::gemm_sim_config(),
            prof: ProfilingConfig::default(),
            pipeline: PipelineConfig::default(),
            out: None,
            jobs: 2,
        };
        let sweep = pi_sweep(&cfg);
        assert_eq!(sweep.cache.misses, 1, "one compile for every step count");
        for (steps, r) in &sweep.runs {
            let pr = r
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("{steps}: {e}"));
            assert!((pr.estimate - std::f32::consts::PI).abs() < 1e-2);
        }
        let table = pi_table(&sweep);
        assert!(table.contains("GFLOP/s"));
        // one shared compile, then run + analyze per size, one reduce.
        assert_eq!(sweep.sched.total_executed(), 1 + 2 * 2 + 1);
    }
}
