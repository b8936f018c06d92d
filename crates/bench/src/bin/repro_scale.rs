//! High-thread-count scaling study of the simulator itself: the
//! timing-wheel dispatch core and the event-driven device models at
//! T = 64 / 128 / 256.
//!
//! Usage: `repro_scale [--dim N] [--rows N] [--cols N] [--nnz N]
//!                     [--threads LIST] [--out DIR] [--jobs N]
//!                     [--lint[=deny|warn|off]] [--perf-lint[=deny|warn|off]]
//!                     [--profile[=fixed|auto[,budget=N]]]`
//!
//! Two sections:
//!
//! 1. **Thread-count scaling** — GEMM (No Critical Sections) and SpMV run
//!    untraced at every thread count in `--threads`, reporting simulated
//!    cycles, wall time, simulation throughput and the device-event wake
//!    mix (line fetches, channel grants, DMA).
//! 2. **SpMV trace sweep** — the thread counts again with the profiling
//!    unit attached (batch engine + bundles), with the
//!    analytical fast-mode prediction column. `--profile=auto[,budget=N]`
//!    runs this section under the auto-probe plan (the untraced scaling
//!    sections stay uninstrumented by design).
//!
//! A stdout closed by its reader (`repro_scale | head -n 1`) ends the run
//! with exit 0.

use bench::session::Session;
use bench::sweep::{bundles_footer, spmv_sweep, SpmvSweepConfig};
use bench::{analytic_report, spmv_launch, spmv_sim_config};
use fpga_sim::memimg::LaunchArg;
use fpga_sim::{Executor, NullSnoop, RunResult, SimConfig};
use hls_profiling::ProfilingConfig;
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::spmv::{self, Csr};
use nymble_hls::{AccelCache, HlsConfig};
use nymble_ir::Kernel;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

/// One untraced measurement.
struct ScaleRun {
    result: RunResult,
    wall: f64,
}

/// Run `kernel` untraced, timing the simulation only (compile time is
/// excluded — the cache is pre-warmed by the caller).
fn timed_run(
    cache: &AccelCache,
    kernel: &Kernel,
    sim: &SimConfig,
    launch: &[LaunchArg],
) -> ScaleRun {
    let accel = cache.get_or_compile(kernel, &HlsConfig::default());
    let t0 = Instant::now();
    let result = Executor::run(kernel, &accel, sim, launch, &mut NullSnoop)
        .unwrap_or_else(|e| panic!("{}: sim failed: {e}", kernel.name));
    ScaleRun {
        result,
        wall: t0.elapsed().as_secs_f64(),
    }
}

fn main() -> ExitCode {
    let session = Session::start(
        "repro_scale",
        &["--dim", "--rows", "--cols", "--nnz", "--threads"],
    );
    session.write_stdout(|out| run(&session, out))
}

fn run(session: &Session, w: &mut impl Write) -> std::io::Result<()> {
    let dim = session.flag("--dim", 256i64);
    let rows = session.flag("--rows", 1024usize);
    let cols = session.flag("--cols", 1024usize);
    let nnz = session.flag("--nnz", 8usize);
    let threads = session.list("--threads", vec![64u32, 128, 256]);
    let jobs = session.jobs;
    let gemm_p = |t: u32| GemmParams {
        dim,
        threads: t,
        vec: 4,
        block: 8,
    };
    for &t in &threads {
        session.check_shape(gemm_p(t).validate());
    }
    session.check_shape(Csr::validate_shape(cols));
    let out = session.out_dir();
    let sim = spmv_sim_config();

    let matrix = Csr::random(rows, cols, nnz, 7);
    let gate_t = *threads.first().expect("--threads must be non-empty");
    let gate_gemm = gemm::build(GemmVersion::NoCritical, &gemm_p(gate_t));
    let gate_spmv = spmv::build(matrix.rows as i64, gate_t);
    session.gate(&[&gate_gemm, &gate_spmv]);

    // §1: thread-count scaling, untraced.
    writeln!(w, "== thread-count scaling, wheel dispatch core (GEMM dim {dim}, SpMV {rows}x{cols} nnz/row {nnz}) ==\n")?;
    writeln!(
        w,
        "{:<8} {:>8} {:>14} {:>9} {:>10} {:>12} {:>12} {:>10}",
        "workload",
        "threads",
        "cycles",
        "wall s",
        "Mcyc/s",
        "line wakes",
        "grant wakes",
        "dma wakes"
    )?;
    let cache = AccelCache::new();
    let spmv_launch_args = spmv_launch(&matrix);
    let mut worst_spmv_err = 0.0f64;
    for &t in &threads {
        let gk = gemm::build(GemmVersion::NoCritical, &gemm_p(t));
        let gl = bench::gemm_launch(&gemm_p(t));
        let g = timed_run(&cache, &gk, &sim, &gl);
        print_scale_row(w, "gemm", t, &g)?;

        let sk = spmv::build(matrix.rows as i64, t);
        let s = timed_run(&cache, &sk, &sim, &spmv_launch_args);
        print_scale_row(w, "spmv", t, &s)?;
        if let Some(r) = analytic_report(&cache, &sk, &sim, &spmv_launch_args) {
            let err = (r.total_cycles as f64 - s.result.total_cycles as f64)
                / s.result.total_cycles as f64
                * 100.0;
            if err.abs() > worst_spmv_err.abs() {
                worst_spmv_err = err;
            }
        }
    }
    writeln!(
        w,
        "\nSpMV analytical fast mode: worst error {worst_spmv_err:+.1}% across the sweep \
         (±15% bound enforced in crates/bench/tests/analytic_validation.rs)"
    )?;

    // §2: SpMV with the profiling unit attached, bundles written.
    let sweep = spmv_sweep(&SpmvSweepConfig {
        matrix: matrix.clone(),
        threads: threads.clone(),
        hls: session.hls(),
        sim: sim.clone(),
        prof: ProfilingConfig::default(),
        out: Some(out.clone()),
        jobs,
    });
    for (t, r) in &sweep.runs {
        if let Err(e) = &r.outcome {
            eprintln!("spmv_t{t} trace run failed: {e}");
        }
    }
    writeln!(
        w,
        "\n== SpMV trace sweep ({jobs} workers, {} compiles for {} runs) ==\n",
        sweep.cache.misses,
        sweep.runs.len()
    )?;
    write!(w, "{}", sweep.table)?;
    let plan = sweep
        .runs
        .iter()
        .filter_map(|(_, r)| r.outcome.as_ref().ok())
        .find_map(|pr| pr.run.accel.probe_plan.as_deref());
    if let Some(plan) = plan {
        writeln!(w, "\n{}", plan.summary())?;
    }
    writeln!(w, "\n{}", bundles_footer(&out))
}

fn print_scale_row(
    w: &mut impl Write,
    workload: &str,
    threads: u32,
    r: &ScaleRun,
) -> std::io::Result<()> {
    writeln!(
        w,
        "{:<8} {:>8} {:>14} {:>9.3} {:>10.2} {:>12} {:>12} {:>10}",
        workload,
        threads,
        r.result.total_cycles,
        r.wall,
        r.result.total_cycles as f64 / r.wall.max(1e-9) / 1e6,
        r.result.devices.line_fetch_wakes,
        r.result.devices.channel_grant_wakes,
        r.result.devices.dma_wakes
    )
}
