//! The four workloads: what each sets up, how it runs the way users run
//! it (the end-to-end pass), and how it replays the same operations one
//! at a time under the [`Tracer`] (the traced pass). Every pass checks its
//! functional outputs after the timed region ends.

use crate::metrics::{
    ANALYSIS, ANALYTIC, COMPILE, DECODE, DIAGNOSE, EXEC, LINT, PARSE, PERF_LINT, RECORD, WRITE,
};
use crate::trace::Tracer;
use bench::engine::SchedStats;
use bench::sweep::{gemm_sweep, pi_sweep, GemmSweepConfig, PiSweepConfig};
use bench::{f32_buffer, f32_result, gemm_launch, gemm_sim_config, pi_launch, pi_sim_config};
use bench::{spmv_launch, spmv_sim_config, spmv_x};
use fpga_sim::memimg::{LaunchArg, MemImage};
use fpga_sim::{AnalyticReport, Executor, NullSnoop, RunResult, SimConfig};
use hls_profiling::diagnose::{diagnose, DiagnoseConfig};
use hls_profiling::{PipelineConfig, ProfilingConfig, ProfilingUnit, TraceData};
use kernels::fixtures::{self, Fixture};
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use kernels::reference;
use kernels::spmv::{self, Csr};
use nymble_hls::{try_compile, Accelerator, CacheStats, HlsConfig, ProbeMode};
use nymble_ir::{Kernel, Value};
use nymble_lint::{lint_kernel, perf_lint_kernel, LintReport};
use paraver::analysis::{event_series, StateProfile};
use paraver::events;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Worker threads of the sweep engine: the two cores of the reference box.
pub const JOBS: usize = 2;

/// The π study's sampling period (as `repro_pi` runs it).
const PI_PERIOD: u64 = 50_000;

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CaseStudy,
    TraceDense,
    HighThreads,
    StaticDse,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::CaseStudy,
        Kind::TraceDense,
        Kind::HighThreads,
        Kind::StaticDse,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CaseStudy => "case_study",
            Kind::TraceDense => "trace_dense",
            Kind::HighThreads => "high_threads",
            Kind::StaticDse => "static_dse",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Problem sizes: the benchmark's own, or toy sizes for the in-process
/// test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Count one checked operation; report it on stderr when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hlsbench: FAIL {}", what());
        }
        ok
    }
}

/// What one operation produced; equal across every pass of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpOutcome {
    pub name: String,
    /// Simulated cycles, or the analytic prediction where nothing is
    /// simulated.
    pub cycles: u64,
    /// FNV-1a-64 of the `.prv`, `.pcf` and `.row` files, when a bundle was
    /// written.
    pub digests: Vec<(&'static str, u64)>,
    /// Further deterministic output (diagnosis, lint codes).
    pub detail: String,
}

/// Counters one pass accumulates.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub lint_calls: u64,
    pub findings: u64,
    pub compiles: u64,
    pub probe_alms: u64,
    pub sim_cycles: u64,
    pub stall_cycles: u64,
    pub line_hits: u64,
    pub read_requests: u64,
    pub dram_contended: u64,
    pub flushed_bytes: u64,
    pub records: u64,
    pub bundle_bytes: u64,
    /// `.prv` bytes read back and parsed.
    pub parsed_bytes: u64,
    pub analytic_err_pct: f64,
    /// Compile-cache and scheduler statistics of the sweeps (end-to-end
    /// pass only).
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub sched_busy_s: f64,
    pub sched_capacity_s: f64,
    pub makespan_s: f64,
    pub steals: u64,
    pub parks: u64,
}

impl Counters {
    fn add_run(&mut self, r: &RunResult) {
        self.sim_cycles += r.total_cycles;
        self.stall_cycles += r.stats.total_stalls();
        self.line_hits += r.stats.line_hits;
        self.read_requests += r.stats.read_requests;
        self.dram_contended += r.stats.dram_contended;
    }

    fn add_analytic(&mut self, est: &AnalyticReport, cycles: u64) {
        let err = (est.total_cycles as f64 - cycles as f64).abs() / cycles.max(1) as f64 * 100.0;
        self.analytic_err_pct = self.analytic_err_pct.max(err);
    }

    fn add_sweep(&mut self, cache: CacheStats, sched: &SchedStats) {
        self.cache_hits += cache.hits;
        self.cache_misses += cache.misses;
        self.compiles += cache.misses;
        self.sched_busy_s += sched.busy.iter().map(Duration::as_secs_f64).sum::<f64>();
        self.sched_capacity_s += sched.workers as f64 * sched.makespan.as_secs_f64();
        self.makespan_s += sched.makespan.as_secs_f64();
        self.steals += sched.steals;
        self.parks += sched.parks;
    }

    fn add_lint(&mut self, r: &LintReport, calls: u64) {
        self.lint_calls += calls;
        self.findings += r.diagnostics.len() as u64;
    }
}

/// The result of one pass.
pub struct Pass {
    /// Wall time of the program's work (checks excluded).
    pub wall: Duration,
    pub ops: Vec<OpOutcome>,
    pub counters: Counters,
}

impl Pass {
    fn new(wall: Duration) -> Pass {
        Pass {
            wall,
            ops: Vec::new(),
            counters: Counters::default(),
        }
    }
}

/// A prepared workload.
pub trait Workload {
    /// Run once the way users run it, on [`JOBS`] sweep workers.
    fn run(&self, check: &mut Checker) -> Pass;
    /// Replay the same operations one at a time on this thread, timing
    /// each call into a layer.
    fn traced(&self, tracer: &mut Tracer, check: &mut Checker) -> Pass;
}

/// Build the inputs of `kind` from `seed`: input generation and kernel IR
/// builds. This is the part `setup_s` times; bundles go to the
/// [`Dirs`] under `out`, which the caller prepares.
pub fn setup(kind: Kind, scale: Scale, seed: u64, out: &Path) -> Box<dyn Workload> {
    let tiny = scale == Scale::Tiny;
    match kind {
        Kind::CaseStudy => Box::new(CaseStudy::new(tiny, out)),
        Kind::TraceDense => Box::new(TraceDense::new(tiny, out)),
        Kind::HighThreads => Box::new(HighThreads::new(tiny, seed)),
        Kind::StaticDse => Box::new(StaticDse::new(tiny, seed)),
    }
}

// ---- shared helpers ---------------------------------------------------

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digests and total size of the bundle under `stem`.
fn bundle_digests(stem: &Path) -> std::io::Result<(Vec<(&'static str, u64)>, u64)> {
    let mut digests = Vec::new();
    let mut bytes = 0;
    for ext in ["prv", "pcf", "row"] {
        let data = std::fs::read(stem.with_extension(ext))?;
        bytes += data.len() as u64;
        digests.push((ext, fnv1a64(&data)));
    }
    Ok((digests, bytes))
}

/// Bundle directories of the end-to-end and the traced passes, under the
/// run's output directory.
pub struct Dirs {
    e2e: PathBuf,
    traced: PathBuf,
}

impl Dirs {
    pub fn under(out: &Path) -> Dirs {
        Dirs {
            e2e: out.join("bundles"),
            traced: out.join("bundles-traced"),
        }
    }

    /// Empty and create both directories.
    pub fn prepare(&self) -> std::io::Result<()> {
        for dir in [&self.e2e, &self.traced] {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir)?;
        }
        Ok(())
    }
}

/// The analytic fast mode for one kernel against its compiled design.
fn estimate(
    kernel: &Kernel,
    accel: &Accelerator,
    sim: &SimConfig,
    launch: &[LaunchArg],
) -> Option<AnalyticReport> {
    let (mem, scalars) = MemImage::new(kernel, launch);
    fpga_sim::analytic::estimate_with_image(kernel, accel, sim, &scalars, &mem)
}

fn compile_traced(
    tracer: &mut Tracer,
    pass: &mut Pass,
    check: &mut Checker,
    kernel: &Kernel,
    hls: &HlsConfig,
) -> Option<Accelerator> {
    pass.counters.compiles += 1;
    let accel = tracer.span(COMPILE, "nymble_hls::try_compile", || {
        try_compile(kernel, hls)
    });
    match accel {
        Ok(a) => Some(a),
        Err(e) => {
            check.check(false, || format!("{}: compile refused: {e}", kernel.name));
            None
        }
    }
}

/// Replay one profiled run: the simulation alone, the simulation with the
/// profiling unit attached (whose excess over the first is the recording
/// cost), the decode, and the bundle write.
#[allow(clippy::too_many_arguments)] // every input of the run being replayed
fn profiled_replay(
    tracer: &mut Tracer,
    check: &mut Checker,
    kernel: &Kernel,
    accel: &Accelerator,
    sim: &SimConfig,
    prof: &ProfilingConfig,
    launch: &[LaunchArg],
    stem: &Path,
) -> Option<(RunResult, TraceData)> {
    let plain = tracer.span(EXEC, "fpga_sim::Executor::run(NullSnoop)", || {
        Executor::run(kernel, accel, sim, launch, &mut NullSnoop)
    });
    let exec = tracer.last();
    let (result, unit) = tracer.span_repeating(
        RECORD,
        "fpga_sim::Executor::run(ProfilingUnit::new)",
        exec,
        || {
            let mut unit = ProfilingUnit::new(&kernel.name, kernel.num_threads, prof.clone());
            let r = Executor::run(kernel, accel, sim, launch, &mut unit);
            (r, unit)
        },
    );
    let (plain, result) = match (plain, result) {
        (Ok(p), Ok(r)) => (p, r),
        (Err(e), _) | (_, Err(e)) => {
            check.check(false, || format!("{}: simulation failed: {e}", kernel.name));
            return None;
        }
    };
    check.check(plain.total_cycles == result.total_cycles, || {
        format!(
            "{}: profiling changed the cycle count ({} vs {})",
            kernel.name, plain.total_cycles, result.total_cycles
        )
    });
    let trace = tracer.span(DECODE, "hls_profiling::ProfilingUnit::finish", || {
        unit.finish()
    });
    let written = tracer.span(WRITE, "hls_profiling::TraceData::write_bundle", || {
        trace.write_bundle(stem)
    });
    if !check.check(written.is_ok(), || {
        format!("{}: bundle write failed: {written:?}", kernel.name)
    }) {
        return None;
    }
    Some((result, trace))
}

/// Count a profiled run into `pass` and add its [`OpOutcome`].
fn record_profiled(
    pass: &mut Pass,
    check: &mut Checker,
    name: &str,
    result: &RunResult,
    trace: &TraceData,
    stem: &Path,
    detail: String,
) {
    pass.counters.add_run(result);
    pass.counters.flushed_bytes += trace.flushed_bytes;
    pass.counters.records += trace.records.len() as u64;
    let digests = match bundle_digests(stem) {
        Ok((d, bytes)) => {
            pass.counters.bundle_bytes += bytes;
            d
        }
        Err(e) => {
            check.check(false, || format!("{name}: bundle unreadable: {e}"));
            Vec::new()
        }
    };
    pass.ops.push(OpOutcome {
        name: name.to_string(),
        cycles: result.total_cycles,
        digests,
        detail,
    });
}

fn matches_f32(got: &[f32], want: &[f32], rel: f32) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, e)| (g - e).abs() <= rel * e.abs().max(1.0))
}

/// Check the `C` operand (argument 2) of a GEMM run against `gold`.
fn check_gemm(check: &mut Checker, name: &str, r: &RunResult, gold: &[f32]) {
    let got = f32_result(r, 2);
    check.check(matches_f32(&got, gold, 1e-3), || {
        format!("{name}: C differs from kernels::reference::gemm")
    });
}

fn check_analytic(
    check: &mut Checker,
    pass: &mut Pass,
    name: &str,
    est: Option<&AnalyticReport>,
    cycles: u64,
) {
    match est {
        Some(e) if e.total_cycles > 0 => pass.counters.add_analytic(e, cycles),
        _ => {
            check.check(false, || format!("{name}: analytic estimate unresolved"));
        }
    }
}

/// The reference product of the operands `gemm_launch` uses.
fn gemm_gold(dim: i64, seeds: (u64, u64)) -> Vec<f32> {
    let d = dim as usize;
    reference::gemm(
        &reference::gen_matrix(d, seeds.0),
        &reference::gen_matrix(d, seeds.1),
        d,
    )
}

fn gemm_kernels(p: &GemmParams) -> Vec<Kernel> {
    GemmVersion::ALL
        .iter()
        .map(|&v| gemm::build(v, p))
        .collect()
}

fn gemm_stem(dir: &Path, p: &GemmParams, kernel: &Kernel) -> PathBuf {
    dir.join(format!("gemm_{}_{}", p.dim, kernel.name))
}

// ---- case_study -------------------------------------------------------

/// §V-C and §V-D as `repro_gemm` and `repro_pi` run them.
struct CaseStudy {
    gemm: GemmParams,
    kernels: Vec<Kernel>,
    launch: Vec<LaunchArg>,
    /// One kernel serves every π size: the step count arrives as launch
    /// scalars.
    pi_kernel: Kernel,
    pi: Vec<(PiParams, Vec<LaunchArg>)>,
    dirs: Dirs,
    gold: OnceLock<Vec<f32>>,
}

impl CaseStudy {
    fn new(tiny: bool, out: &Path) -> CaseStudy {
        let (dim, steps): (i64, &[u64]) = if tiny {
            (16, &[64_000])
        } else {
            (64, &[200_000, 800_000, 2_000_000])
        };
        let gemm = GemmParams {
            dim,
            threads: 8,
            ..GemmParams::default()
        };
        let pi: Vec<(PiParams, Vec<LaunchArg>)> = steps
            .iter()
            .map(|&steps| {
                let p = PiParams {
                    steps,
                    threads: 8,
                    bs: 8,
                };
                (p, pi_launch(&p))
            })
            .collect();
        CaseStudy {
            kernels: gemm_kernels(&gemm),
            launch: gemm_launch(&gemm),
            pi_kernel: pi::build(&pi[0].0),
            gemm,
            pi,
            dirs: Dirs::under(out),
            gold: OnceLock::new(),
        }
    }

    fn gold(&self) -> &[f32] {
        self.gold.get_or_init(|| gemm_gold(self.gemm.dim, (1, 2)))
    }

    fn pi_prof() -> ProfilingConfig {
        ProfilingConfig {
            sampling_period: PI_PERIOD,
            ..ProfilingConfig::default()
        }
    }

    fn check_pi(check: &mut Checker, p: &PiParams, r: &RunResult) {
        let est = f32_result(r, 2)[0] * pi::launch_scalars(p).0;
        check.check((est - std::f32::consts::PI).abs() < 1e-2, || {
            format!("pi_{}: estimate {est} is not within 1e-2 of pi", p.steps)
        });
    }
}

impl Workload for CaseStudy {
    fn run(&self, check: &mut Checker) -> Pass {
        let t0 = Instant::now();
        let gemm = gemm_sweep(&GemmSweepConfig {
            params: self.gemm,
            hls: HlsConfig::default(),
            sim: gemm_sim_config(),
            prof: ProfilingConfig::default(),
            pipeline: PipelineConfig::default(),
            out: Some(self.dirs.e2e.clone()),
            jobs: JOBS,
        });
        let pis = pi_sweep(&PiSweepConfig {
            steps: self.pi.iter().map(|(p, _)| p.steps).collect(),
            threads: self.pi[0].0.threads,
            bs: self.pi[0].0.bs,
            hls: HlsConfig::default(),
            sim: pi_sim_config(),
            prof: Self::pi_prof(),
            pipeline: PipelineConfig::default(),
            out: Some(self.dirs.e2e.clone()),
            jobs: JOBS,
        });
        let gemm_est: Vec<_> = self
            .kernels
            .iter()
            .zip(&gemm.runs)
            .map(|(k, (_, rep))| {
                let pr = rep.outcome.as_ref().ok()?;
                estimate(k, &pr.accel, &gemm_sim_config(), &self.launch)
            })
            .collect();
        let pi_est: Vec<_> = self
            .pi
            .iter()
            .zip(&pis.runs)
            .map(|((_, launch), (_, rep))| {
                let pr = rep.outcome.as_ref().ok()?;
                estimate(&self.pi_kernel, &pr.run.accel, &pi_sim_config(), launch)
            })
            .collect();
        let mut pass = Pass::new(t0.elapsed());

        pass.counters.add_sweep(gemm.cache, &gemm.sched);
        pass.counters.add_sweep(pis.cache, &pis.sched);
        for ((k, (_, rep)), est) in self.kernels.iter().zip(&gemm.runs).zip(&gemm_est) {
            let pr = match &rep.outcome {
                Ok(pr) => pr,
                Err(e) => {
                    check.check(false, || format!("{}: {e}", k.name));
                    continue;
                }
            };
            check_gemm(check, &k.name, &pr.result, self.gold());
            check_analytic(
                check,
                &mut pass,
                &k.name,
                est.as_ref(),
                pr.result.total_cycles,
            );
            let stem = gemm_stem(&self.dirs.e2e, &self.gemm, k);
            record_profiled(
                &mut pass,
                check,
                &k.name,
                &pr.result,
                &pr.trace,
                &stem,
                String::new(),
            );
        }
        for (((p, _), (_, rep)), est) in self.pi.iter().zip(&pis.runs).zip(&pi_est) {
            let name = format!("pi_{}", p.steps);
            let pr = match &rep.outcome {
                Ok(pr) => pr,
                Err(e) => {
                    check.check(false, || format!("{name}: {e}"));
                    continue;
                }
            };
            Self::check_pi(check, p, &pr.run.result);
            check_analytic(
                check,
                &mut pass,
                &name,
                est.as_ref(),
                pr.run.result.total_cycles,
            );
            let stem = self.dirs.e2e.join(&name);
            record_profiled(
                &mut pass,
                check,
                &name,
                &pr.run.result,
                &pr.run.trace,
                &stem,
                String::new(),
            );
        }
        pass
    }

    fn traced(&self, tracer: &mut Tracer, check: &mut Checker) -> Pass {
        let mut pass = Pass::new(Duration::ZERO);
        let sim = gemm_sim_config();
        let prof = ProfilingConfig::default();
        for k in &self.kernels {
            tracer.op(|| k.name.clone());
            let Some(accel) = compile_traced(tracer, &mut pass, check, k, &HlsConfig::default())
            else {
                continue;
            };
            let stem = gemm_stem(&self.dirs.traced, &self.gemm, k);
            let Some((result, trace)) =
                profiled_replay(tracer, check, k, &accel, &sim, &prof, &self.launch, &stem)
            else {
                continue;
            };
            // The sweep's analyze node derives the table row from the
            // state profile.
            tracer.span(ANALYSIS, "paraver::analysis::StateProfile::compute", || {
                black_box(StateProfile::compute(&trace.records, k.num_threads))
            });
            let est = tracer.span(ANALYTIC, "fpga_sim::analytic::estimate_with_image", || {
                estimate(k, &accel, &sim, &self.launch)
            });
            tracer.untimed(|| {
                check_gemm(check, &k.name, &result, self.gold());
                check_analytic(check, &mut pass, &k.name, est.as_ref(), result.total_cycles);
                record_profiled(
                    &mut pass,
                    check,
                    &k.name,
                    &result,
                    &trace,
                    &stem,
                    String::new(),
                );
                drop(trace);
            });
        }

        let sim = pi_sim_config();
        let prof = Self::pi_prof();
        tracer.op(|| "compile:pi".into());
        let Some(accel) = compile_traced(
            tracer,
            &mut pass,
            check,
            &self.pi_kernel,
            &HlsConfig::default(),
        ) else {
            return pass;
        };
        for (p, launch) in &self.pi {
            let name = format!("pi_{}", p.steps);
            tracer.op(|| name.clone());
            let stem = self.dirs.traced.join(&name);
            let Some((result, trace)) = profiled_replay(
                tracer,
                check,
                &self.pi_kernel,
                &accel,
                &sim,
                &prof,
                launch,
                &stem,
            ) else {
                continue;
            };
            let est = tracer.span(ANALYTIC, "fpga_sim::analytic::estimate_with_image", || {
                estimate(&self.pi_kernel, &accel, &sim, launch)
            });
            tracer.untimed(|| {
                Self::check_pi(check, p, &result);
                check_analytic(check, &mut pass, &name, est.as_ref(), result.total_cycles);
                record_profiled(
                    &mut pass,
                    check,
                    &name,
                    &result,
                    &trace,
                    &stem,
                    String::new(),
                );
                drop(trace);
            });
        }
        pass
    }
}

// ---- trace_dense ------------------------------------------------------

/// The GEMM sweep at a dense sampling period, with every bundle read back.
struct TraceDense {
    gemm: GemmParams,
    kernels: Vec<Kernel>,
    launch: Vec<LaunchArg>,
    prof: ProfilingConfig,
    dirs: Dirs,
    gold: OnceLock<Vec<f32>>,
}

/// What reading one bundle back yields, compared across passes.
fn readback_detail(trace: &TraceData, stats: &fpga_sim::stats::RunStats) -> String {
    let sim = gemm_sim_config();
    let d = diagnose(trace, stats, &sim, &DiagnoseConfig::default());
    format!(
        "records={} bottleneck={:?}",
        trace.records.len(),
        d.bottleneck
    )
}

/// The analysis a user runs on a read-back trace besides the diagnosis:
/// the state profile and the bandwidth/compute series of Figs. 7–9.
fn analyze_readback(trace: &TraceData) {
    let threads = trace.meta.num_threads;
    let dur = trace.meta.duration.max(1);
    let bin = dur.div_ceil(100);
    black_box(StateProfile::compute(&trace.records, threads));
    black_box(event_series(&trace.records, events::BYTES_READ, bin, dur));
    black_box(event_series(&trace.records, events::FLOPS, bin, dur));
}

/// Read the `.prv` under `stem` back; also returns its size in bytes.
fn read_bundle(stem: &Path, like: &TraceData) -> Result<(TraceData, u64), String> {
    let text = std::fs::read_to_string(stem.with_extension("prv")).map_err(|e| e.to_string())?;
    let (mut meta, records) = paraver::parse::parse_prv(&text).map_err(|e| e.to_string())?;
    // The `.prv` header does not carry the application name.
    meta.app_name = like.meta.app_name.clone();
    let trace = TraceData {
        records,
        meta,
        flushed_bytes: like.flushed_bytes,
        flush_count: like.flush_count,
        plan: None,
    };
    Ok((trace, text.len() as u64))
}

impl TraceDense {
    fn new(tiny: bool, out: &Path) -> TraceDense {
        let gemm = GemmParams {
            dim: if tiny { 16 } else { 48 },
            threads: 16,
            ..GemmParams::default()
        };
        TraceDense {
            kernels: gemm_kernels(&gemm),
            launch: gemm_launch(&gemm),
            prof: ProfilingConfig {
                sampling_period: 50,
                ..ProfilingConfig::default()
            },
            gemm,
            dirs: Dirs::under(out),
            gold: OnceLock::new(),
        }
    }

    fn gold(&self) -> &[f32] {
        self.gold.get_or_init(|| gemm_gold(self.gemm.dim, (1, 2)))
    }
}

impl Workload for TraceDense {
    fn run(&self, check: &mut Checker) -> Pass {
        let t0 = Instant::now();
        let sweep = gemm_sweep(&GemmSweepConfig {
            params: self.gemm,
            hls: HlsConfig::default(),
            sim: gemm_sim_config(),
            prof: self.prof.clone(),
            pipeline: PipelineConfig::default(),
            out: Some(self.dirs.e2e.clone()),
            jobs: JOBS,
        });
        // Read every bundle back; keep only what the checks need, so the
        // parsed traces do not pile up in memory.
        let readback: Vec<_> = self
            .kernels
            .iter()
            .zip(&sweep.runs)
            .map(|(k, (_, rep))| {
                let pr = rep.outcome.as_ref().ok()?;
                let stem = gemm_stem(&self.dirs.e2e, &self.gemm, k);
                Some(read_bundle(&stem, &pr.trace).map(|(back, _)| {
                    analyze_readback(&back);
                    let detail = readback_detail(&back, &pr.result.stats);
                    (back.meta, back.records.len(), detail)
                }))
            })
            .collect();
        let mut pass = Pass::new(t0.elapsed());

        pass.counters.add_sweep(sweep.cache, &sweep.sched);
        for ((k, (_, rep)), back) in self.kernels.iter().zip(&sweep.runs).zip(readback) {
            let pr = match &rep.outcome {
                Ok(pr) => pr,
                Err(e) => {
                    check.check(false, || format!("{}: {e}", k.name));
                    continue;
                }
            };
            let detail = match back {
                Some(Ok((meta, n, detail))) => {
                    check.check(meta == pr.trace.meta && n == pr.trace.records.len(), || {
                        format!(
                            "{}: bundle read back as {n} records, {} were written",
                            k.name,
                            pr.trace.records.len()
                        )
                    });
                    detail
                }
                other => {
                    check.check(false, || format!("{}: read-back failed: {other:?}", k.name));
                    continue;
                }
            };
            check_gemm(check, &k.name, &pr.result, self.gold());
            let stem = gemm_stem(&self.dirs.e2e, &self.gemm, k);
            record_profiled(
                &mut pass, check, &k.name, &pr.result, &pr.trace, &stem, detail,
            );
        }
        pass
    }

    fn traced(&self, tracer: &mut Tracer, check: &mut Checker) -> Pass {
        let mut pass = Pass::new(Duration::ZERO);
        let sim = gemm_sim_config();
        for k in &self.kernels {
            tracer.op(|| k.name.clone());
            let Some(accel) = compile_traced(tracer, &mut pass, check, k, &HlsConfig::default())
            else {
                continue;
            };
            let stem = gemm_stem(&self.dirs.traced, &self.gemm, k);
            let Some((result, trace)) = profiled_replay(
                tracer,
                check,
                k,
                &accel,
                &sim,
                &self.prof,
                &self.launch,
                &stem,
            ) else {
                continue;
            };
            drop(accel);
            tracer.span(ANALYSIS, "paraver::analysis::StateProfile::compute", || {
                black_box(StateProfile::compute(&trace.records, k.num_threads))
            });
            let back = tracer.span(PARSE, "paraver::parse::parse_prv", || {
                read_bundle(&stem, &trace)
            });
            let (back, parsed) = match back {
                Ok(b) => b,
                Err(e) => {
                    check.check(false, || format!("{}: read-back failed: {e}", k.name));
                    continue;
                }
            };
            tracer.span(
                ANALYSIS,
                "paraver::analysis::{StateProfile, event_series}",
                || analyze_readback(&back),
            );
            let detail = tracer.span(DIAGNOSE, "hls_profiling::diagnose::diagnose", || {
                readback_detail(&back, &result.stats)
            });
            tracer.untimed(|| {
                pass.counters.parsed_bytes += parsed;
                check.check(
                    back.meta == trace.meta && back.records == trace.records,
                    || {
                        format!(
                            "{}: bundle read back differs from the decoded trace",
                            k.name
                        )
                    },
                );
                drop(back);
                check_gemm(check, &k.name, &result, self.gold());
                record_profiled(&mut pass, check, &k.name, &result, &trace, &stem, detail);
                drop(trace);
            });
        }
        pass
    }
}

// ---- high_threads -----------------------------------------------------

/// What a simulated operation's output is checked against.
enum Gold {
    Gemm { dim: i64, seeds: (u64, u64) },
    Spmv(Csr),
}

struct SimOp {
    kernel: Kernel,
    launch: Vec<LaunchArg>,
    sim: SimConfig,
    gold: Gold,
    reference: OnceLock<Vec<f32>>,
}

impl SimOp {
    fn reference(&self) -> &[f32] {
        self.reference.get_or_init(|| match &self.gold {
            Gold::Gemm { dim, seeds } => gemm_gold(*dim, *seeds),
            Gold::Spmv(m) => m.spmv_ref(&spmv_x(m.cols)),
        })
    }

    fn output(&self, r: &RunResult) -> Vec<f32> {
        match self.gold {
            Gold::Gemm { .. } => f32_result(r, 2),
            Gold::Spmv(_) => f32_result(r, 4),
        }
    }

    fn name(&self) -> String {
        format!("{}_t{}", self.kernel.name, self.kernel.num_threads)
    }
}

/// Untraced simulations at 128–256 hardware threads.
struct HighThreads {
    ops: Vec<SimOp>,
}

impl HighThreads {
    fn new(tiny: bool, seed: u64) -> HighThreads {
        let (dim, gemm_t, rows, spmv_t) = if tiny {
            (16, 16, 256, 16)
        } else {
            (128, 128, 32_768, 256)
        };
        // Seed 1 draws the operands `gemm_launch` uses.
        let seeds = (seed.wrapping_mul(2).wrapping_sub(1), seed.wrapping_mul(2));
        let p = GemmParams {
            dim,
            threads: gemm_t,
            ..GemmParams::default()
        };
        let d = dim as usize;
        let gemm_launch = vec![
            f32_buffer(&reference::gen_matrix(d, seeds.0)),
            f32_buffer(&reference::gen_matrix(d, seeds.1)),
            f32_buffer(&vec![0.0; d * d]),
        ];
        let mut ops: Vec<SimOp> = [GemmVersion::NoCritical, GemmVersion::Naive]
            .into_iter()
            .map(|v| SimOp {
                kernel: gemm::build(v, &p),
                launch: gemm_launch.clone(),
                sim: gemm_sim_config(),
                gold: Gold::Gemm { dim, seeds },
                reference: OnceLock::new(),
            })
            .collect();
        let m = Csr::random(rows, rows, 16, seed);
        ops.push(SimOp {
            kernel: spmv::build(rows as i64, spmv_t),
            launch: spmv_launch(&m),
            sim: spmv_sim_config(),
            gold: Gold::Spmv(m),
            reference: OnceLock::new(),
        });
        HighThreads { ops }
    }

    fn pass(&self, tracer: &mut Tracer, check: &mut Checker) -> Pass {
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            tracer.op(|| op.name());
            let accel = tracer.span(COMPILE, "nymble_hls::try_compile", || {
                try_compile(&op.kernel, &HlsConfig::default())
            });
            let accel = match accel {
                Ok(a) => a,
                Err(e) => {
                    results.push(Err(e.to_string()));
                    continue;
                }
            };
            let run = tracer.span(EXEC, "fpga_sim::Executor::run(NullSnoop)", || {
                Executor::run(&op.kernel, &accel, &op.sim, &op.launch, &mut NullSnoop)
            });
            let est = tracer.span(ANALYTIC, "fpga_sim::analytic::estimate_with_image", || {
                estimate(&op.kernel, &accel, &op.sim, &op.launch)
            });
            results.push(run.map(|r| (r, est)).map_err(|e| e.to_string()));
        }
        let mut pass = Pass::new(t0.elapsed());

        tracer.untimed(|| {
            for (op, result) in self.ops.iter().zip(results) {
                let name = op.name();
                pass.counters.compiles += 1;
                let (r, est) = match result {
                    Ok(ok) => ok,
                    Err(e) => {
                        check.check(false, || format!("{name}: {e}"));
                        continue;
                    }
                };
                check.check(matches_f32(&op.output(&r), op.reference(), 1e-3), || {
                    format!("{name}: output differs from the CPU reference")
                });
                check_analytic(check, &mut pass, &name, est.as_ref(), r.total_cycles);
                pass.counters.add_run(&r);
                pass.ops.push(OpOutcome {
                    name,
                    cycles: r.total_cycles,
                    digests: Vec::new(),
                    detail: format!("analytic={:?}", est.map(|e| e.total_cycles)),
                });
            }
        });
        pass
    }
}

impl Workload for HighThreads {
    fn run(&self, check: &mut Checker) -> Pass {
        self.pass(&mut Tracer::off(), check)
    }

    fn traced(&self, tracer: &mut Tracer, check: &mut Checker) -> Pass {
        self.pass(tracer, check)
    }
}

// ---- static_dse -------------------------------------------------------

struct DseOp {
    name: String,
    kernel: Kernel,
    launch: Vec<LaunchArg>,
    sim: SimConfig,
}

/// Design-space exploration without cycle simulation: lint, perf-lint,
/// compile under auto-probe and the analytic estimate for every design
/// point, plus the lint fixtures.
struct StaticDse {
    ops: Vec<DseOp>,
    fixtures: Vec<Fixture>,
    hls: HlsConfig,
}

impl StaticDse {
    fn new(tiny: bool, seed: u64) -> StaticDse {
        let (dims, threads, rows, spmv_t, n): (&[i64], &[u32], usize, &[u32], i64) = if tiny {
            (&[16], &[4], 256, &[8], 256)
        } else {
            (&[64, 256], &[4, 8], 4096, &[8, 64], 4096)
        };
        let mut ops = Vec::new();
        for &dim in dims {
            for &t in threads {
                let p = GemmParams {
                    dim,
                    threads: t,
                    ..GemmParams::default()
                };
                let launch = gemm_launch(&p);
                for v in GemmVersion::ALL {
                    let kernel = gemm::build(v, &p);
                    ops.push(DseOp {
                        name: format!("{}_d{dim}_t{t}", kernel.name),
                        kernel,
                        launch: launch.clone(),
                        sim: gemm_sim_config(),
                    });
                }
            }
        }
        let m = Csr::random(rows, rows, 16, seed);
        let launch = spmv_launch(&m);
        for &t in spmv_t {
            ops.push(DseOp {
                name: format!("spmv_{rows}_t{t}"),
                kernel: spmv::build(rows as i64, t),
                launch: launch.clone(),
                sim: spmv_sim_config(),
            });
        }
        // One seeded 64×64 grid feeds the stencil and, flattened, the
        // vector kernels (`n` is at most 4096).
        let side = 64;
        let grid = reference::gen_matrix(side as usize, seed);
        let nu = n as usize;
        let vec_a = f32_buffer(&grid[..nu]);
        let unit: Vec<f32> = grid[..nu].iter().map(|x| (x + 1.0) / 2.0).collect();
        let zeros = |len: usize| f32_buffer(&vec![0.0; len]);
        let pi_p = PiParams {
            steps: if tiny { 64_000 } else { 1_000_000 },
            threads: 8,
            bs: 8,
        };
        let extras: Vec<(Kernel, Vec<LaunchArg>, SimConfig)> = vec![
            (pi::build(&pi_p), pi_launch(&pi_p), pi_sim_config()),
            (
                kernels::extra::vecadd(n, 8),
                vec![vec_a.clone(), vec_a.clone(), zeros(nu)],
                gemm_sim_config(),
            ),
            (
                kernels::extra::dot(n, 8),
                vec![vec_a.clone(), vec_a.clone(), zeros(1)],
                gemm_sim_config(),
            ),
            (
                kernels::extra::jacobi(side, 8),
                vec![f32_buffer(&grid), zeros(grid.len())],
                gemm_sim_config(),
            ),
            (
                kernels::extra::histogram(n, 16, 8),
                vec![
                    f32_buffer(&unit),
                    LaunchArg::Buffer(vec![Value::I32(0); 16]),
                ],
                gemm_sim_config(),
            ),
            (
                kernels::reduction::build(n, 8),
                vec![vec_a],
                gemm_sim_config(),
            ),
        ];
        for (kernel, launch, sim) in extras {
            ops.push(DseOp {
                name: kernel.name.clone(),
                kernel,
                launch,
                sim,
            });
        }
        StaticDse {
            ops,
            fixtures: fixtures::all(),
            hls: HlsConfig {
                probe: ProbeMode::auto(),
                ..HlsConfig::default()
            },
        }
    }

    fn pass(&self, tracer: &mut Tracer, check: &mut Checker) -> Pass {
        let t0 = Instant::now();
        let mut designs = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            tracer.op(|| op.name.clone());
            let lint = tracer.span(LINT, "nymble_lint::lint_kernel", || lint_kernel(&op.kernel));
            let perf = tracer.span(PERF_LINT, "nymble_lint::perf_lint_kernel", || {
                perf_lint_kernel(&op.kernel)
            });
            let accel = tracer.span(COMPILE, "nymble_hls::try_compile", || {
                try_compile(&op.kernel, &self.hls)
            });
            let design = accel.map(|a| {
                let est = tracer.span(ANALYTIC, "fpga_sim::analytic::estimate_with_image", || {
                    estimate(&op.kernel, &a, &op.sim, &op.launch)
                });
                (
                    a.probe_plan.as_ref().map(|p| (p.cost_alms, p.budget_alms)),
                    est,
                )
            });
            designs.push((lint, perf, design));
        }
        let mut fixture_reports = Vec::with_capacity(self.fixtures.len());
        for f in &self.fixtures {
            tracer.op(|| f.name.to_string());
            let mut report =
                tracer.span(LINT, "nymble_lint::lint_kernel", || lint_kernel(&f.kernel));
            if f.perf {
                let perf = tracer.span(PERF_LINT, "nymble_lint::perf_lint_kernel", || {
                    perf_lint_kernel(&f.kernel)
                });
                report.diagnostics.extend(perf.diagnostics);
            }
            fixture_reports.push(report);
        }
        let mut pass = Pass::new(t0.elapsed());

        tracer.untimed(|| {
            for (op, (lint, perf, design)) in self.ops.iter().zip(designs) {
                let name = &op.name;
                pass.counters.compiles += 1;
                pass.counters.add_lint(&lint, 1);
                pass.counters.add_lint(&perf, 1);
                check.check(lint.is_clean(), || {
                    format!("{name}: shipped kernel has findings {:?}", lint.codes())
                });
                let (plan, est) = match design {
                    Ok(d) => d,
                    Err(e) => {
                        check.check(false, || format!("{name}: compile refused: {e}"));
                        continue;
                    }
                };
                let Some(alms) = plan
                    .filter(|&(cost, budget)| cost > 0 && cost <= u64::from(budget))
                    .map(|(cost, _)| cost)
                else {
                    check.check(false, || {
                        format!("{name}: no auto-probe plan within budget")
                    });
                    continue;
                };
                pass.counters.probe_alms += alms;
                let Some(est) = est.filter(|e| e.total_cycles > 0) else {
                    check.check(false, || format!("{name}: analytic estimate unresolved"));
                    continue;
                };
                pass.ops.push(OpOutcome {
                    name: name.clone(),
                    cycles: est.total_cycles,
                    digests: Vec::new(),
                    detail: format!("np={:?} alms={alms} bound={}", perf.codes(), est.bound),
                });
            }
            for (f, report) in self.fixtures.iter().zip(fixture_reports) {
                pass.counters.add_lint(&report, 1 + u64::from(f.perf));
                let codes: Vec<&str> = report.codes().iter().map(|c| c.as_str()).collect();
                check.check(codes == f.expect, || {
                    format!("fixture {}: expected {:?}, got {codes:?}", f.name, f.expect)
                });
                pass.ops.push(OpOutcome {
                    name: f.name.to_string(),
                    cycles: 0,
                    digests: Vec::new(),
                    detail: format!("codes={codes:?}"),
                });
            }
        });
        pass
    }
}

impl Workload for StaticDse {
    fn run(&self, check: &mut Checker) -> Pass {
        self.pass(&mut Tracer::off(), check)
    }

    fn traced(&self, tracer: &mut Tracer, check: &mut Checker) -> Pass {
        self.pass(tracer, check)
    }
}
