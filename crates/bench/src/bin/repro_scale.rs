//! High-thread-count scaling study of the simulator itself: the
//! timing-wheel dispatch core and the event-driven device models at
//! T = 64 / 128 / 256, the range where the binary-heap core's
//! pop-per-event dispatch used to dominate the wall clock.
//!
//! Usage: `repro_scale [--dim N] [--rows N] [--cols N] [--nnz N]
//!                     [--threads LIST] [--ab-threads N]
//!                     [--out DIR] [--jobs N] [--bench-json PATH]
//!                     [--lint[=deny|warn|off]] [--perf-lint[=deny|warn|off]]
//!                     [--profile[=fixed|auto[,budget=N]]]`
//!
//! Three sections:
//!
//! 1. **Thread-count scaling** — GEMM (No Critical Sections) and SpMV run
//!    untraced on the wheel core at every thread count in `--threads`,
//!    reporting simulated cycles, wall time, simulation throughput and
//!    the device-event wake mix (line fetches, channel grants, DMA).
//! 2. **Dispatch core A/B** — the same GEMM workload at `--ab-threads` on
//!    the wheel core vs. the retained binary-heap baseline. Both produce
//!    bit-identical results (see `fpga-sim/src/difftest.rs`); only the
//!    wall clock differs. The speedup lands in the perf snapshot.
//! 3. **SpMV trace sweep** — the thread counts again through the full
//!    streaming trace pipeline (batch engine + bundles), with the
//!    analytical fast-mode prediction column. `--profile=auto[,budget=N]`
//!    runs this section under the auto-probe plan (the untraced scaling
//!    sections stay uninstrumented by design).
//!
//! `--bench-json PATH` writes the machine-readable snapshot the committed
//! `BENCH_scale.json` trajectory is built from.

use bench::args::{Args, Mode};
use bench::harness::SnapshotTimer;
use bench::sweep::{bundles_footer, spmv_sweep, spmv_table, SpmvSweepConfig};
use bench::{analytic_report, lint_gate, perf_lint_gate, spmv_launch, spmv_sim_config};
use fpga_sim::memimg::LaunchArg;
use fpga_sim::{DeviceStats, Executor, NullSnoop, RunResult, SimConfig};
use hls_profiling::{PipelineConfig, ProfilingConfig};
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::spmv::{self, Csr};
use nymble_hls::{AccelCache, HlsConfig};
use nymble_ir::Kernel;
use std::path::PathBuf;
use std::time::Instant;

/// One untraced wheel-core measurement.
struct ScaleRun {
    result: RunResult,
    devices: DeviceStats,
    wall: f64,
}

/// Run `kernel` untraced on the wheel core, timing the simulation only
/// (compile time is excluded — the cache is pre-warmed by the caller).
fn timed_run(
    cache: &AccelCache,
    kernel: &Kernel,
    sim: &SimConfig,
    launch: &[LaunchArg],
) -> ScaleRun {
    let accel = cache.get_or_compile(kernel, &HlsConfig::default());
    let t0 = Instant::now();
    let (result, devices) =
        Executor::run_with_device_stats(kernel, &accel, sim, launch, &mut NullSnoop)
            .unwrap_or_else(|e| panic!("{}: sim failed: {e}", kernel.name));
    ScaleRun {
        result,
        devices,
        wall: t0.elapsed().as_secs_f64(),
    }
}

fn main() {
    let timer = SnapshotTimer::start();
    let args = Args::parse();
    let dim = args.i64("--dim").unwrap_or(256);
    let rows = args.u64("--rows").unwrap_or(1024) as usize;
    let cols = args.u64("--cols").unwrap_or(1024) as usize;
    let nnz = args.u64("--nnz").unwrap_or(8) as usize;
    let threads: Vec<u32> = match args.value_of("--threads") {
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim().parse().unwrap_or_else(|_| {
                    eprintln!("repro_scale: bad --threads entry {t:?}");
                    std::process::exit(2);
                })
            })
            .collect(),
        None => vec![64, 128, 256],
    };
    let ab_threads = args
        .u32("--ab-threads")
        .unwrap_or_else(|| threads.iter().copied().max().unwrap_or(128).min(128));
    let jobs = args.jobs().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let lint = args.lint_level().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let perf_lint = args.perf_lint_level().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let profile = args.profile().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let bench_json = args.path("--bench-json");
    let out: PathBuf = args.path("--out").unwrap_or_else(|| "target/traces".into());
    std::fs::create_dir_all(&out).expect("create trace output dir");
    let sim = spmv_sim_config();

    let matrix = Csr::random(rows, cols, nnz, 7);
    let gemm_p = |t: u32| GemmParams {
        dim,
        threads: t,
        vec: 4,
        block: 8,
    };
    let gate_t = *threads.first().expect("--threads must be non-empty");
    let gate_gemm = gemm::build(GemmVersion::NoCritical, &gemm_p(gate_t));
    let gate_spmv = spmv::build(matrix.rows as i64, gate_t);
    if let Err(report) = lint_gate(&[&gate_gemm, &gate_spmv], lint) {
        eprintln!("{report}");
        std::process::exit(1);
    }
    if let Err(report) = perf_lint_gate(&[&gate_gemm, &gate_spmv], perf_lint) {
        eprintln!("{report}");
        std::process::exit(1);
    }

    // §1: thread-count scaling on the wheel core, untraced.
    println!("== thread-count scaling, wheel dispatch core (GEMM dim {dim}, SpMV {rows}x{cols} nnz/row {nnz}) ==\n");
    println!(
        "{:<8} {:>8} {:>14} {:>9} {:>10} {:>12} {:>12} {:>10}",
        "workload",
        "threads",
        "cycles",
        "wall s",
        "Mcyc/s",
        "line wakes",
        "grant wakes",
        "dma wakes"
    );
    let cache = AccelCache::new();
    let spmv_launch_args = spmv_launch(&matrix);
    let mut total_sim = 0u64;
    let mut scale_extras: Vec<(String, f64)> = Vec::new();
    let mut worst_spmv_err = 0.0f64;
    for &t in &threads {
        let gk = gemm::build(GemmVersion::NoCritical, &gemm_p(t));
        let gl = bench::gemm_launch(&gemm_p(t));
        let g = timed_run(&cache, &gk, &sim, &gl);
        total_sim += g.result.total_cycles;
        print_scale_row("gemm", t, &g);
        scale_extras.push((format!("gemm_wall_s_t{t}"), g.wall));

        let sk = spmv::build(matrix.rows as i64, t);
        let s = timed_run(&cache, &sk, &sim, &spmv_launch_args);
        total_sim += s.result.total_cycles;
        print_scale_row("spmv", t, &s);
        scale_extras.push((format!("spmv_wall_s_t{t}"), s.wall));
        if let Some(r) = analytic_report(&cache, &sk, &sim, &spmv_launch_args) {
            let err = (r.total_cycles as f64 - s.result.total_cycles as f64)
                / s.result.total_cycles as f64
                * 100.0;
            if err.abs() > worst_spmv_err.abs() {
                worst_spmv_err = err;
            }
        }
        if t == *threads.last().unwrap() {
            let d = g.devices;
            scale_extras.push(("gemm_line_fetch_wakes".into(), d.line_fetch_wakes as f64));
            scale_extras.push((
                "gemm_channel_grant_wakes".into(),
                d.channel_grant_wakes as f64,
            ));
            scale_extras.push(("gemm_dma_wakes".into(), d.dma_wakes as f64));
            let d = s.devices;
            scale_extras.push(("spmv_line_fetch_wakes".into(), d.line_fetch_wakes as f64));
            scale_extras.push((
                "spmv_channel_grant_wakes".into(),
                d.channel_grant_wakes as f64,
            ));
            scale_extras.push(("spmv_dma_wakes".into(), d.dma_wakes as f64));
        }
    }
    println!(
        "\nSpMV analytical fast mode: worst error {worst_spmv_err:+.1}% across the sweep \
         (±15% bound enforced in crates/bench/tests/analytic_validation.rs)"
    );

    // §2: dispatch core A/B at the reference thread count.
    let abk = gemm::build(GemmVersion::NoCritical, &gemm_p(ab_threads));
    let abl = bench::gemm_launch(&gemm_p(ab_threads));
    let accel = cache.get_or_compile(&abk, &HlsConfig::default());
    let t0 = Instant::now();
    let wheel = Executor::run(&abk, &accel, &sim, &abl, &mut NullSnoop).expect("wheel run");
    let wheel_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let heap =
        Executor::run_heap_baseline(&abk, &accel, &sim, &abl, &mut NullSnoop).expect("heap run");
    let heap_wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        wheel.total_cycles, heap.total_cycles,
        "the two dispatch cores must agree cycle-for-cycle"
    );
    total_sim += wheel.total_cycles + heap.total_cycles;
    let speedup = heap_wall / wheel_wall.max(1e-9);
    println!("\n== dispatch core A/B: GEMM dim {dim} at {ab_threads} threads ==\n");
    println!(
        "  wheel + run-ahead + batched snoop  {wheel_wall:>8.3} s\n  \
           binary heap, pop-per-event         {heap_wall:>8.3} s\n  \
           speedup                            {speedup:>8.2}x  (identical {} simulated cycles)",
        wheel.total_cycles
    );

    // §3: SpMV through the full streaming trace pipeline.
    let sweep = spmv_sweep(&SpmvSweepConfig {
        matrix: matrix.clone(),
        threads: threads.clone(),
        hls: HlsConfig {
            probe: profile.probe(),
            ..HlsConfig::default()
        },
        sim: sim.clone(),
        prof: ProfilingConfig::default(),
        pipeline: PipelineConfig::default(),
        out: Some(out.clone()),
        jobs,
    });
    for (t, r) in &sweep.runs {
        if let Ok(pr) = &r.outcome {
            total_sim += pr.run.result.total_cycles;
        } else if let Err(e) = &r.outcome {
            eprintln!("spmv_t{t} trace run failed: {e}");
        }
    }
    println!(
        "\n== SpMV trace sweep ({jobs} workers, {} compiles for {} runs) ==\n",
        sweep.cache.misses,
        sweep.runs.len()
    );
    print!("{}", spmv_table(&sweep));
    if let Some(plan) = sweep
        .runs
        .iter()
        .filter_map(|(_, r)| r.outcome.as_ref().ok())
        .find_map(|pr| pr.run.accel.probe_plan.clone())
    {
        println!("\n{}", plan.summary());
    }
    println!("\n{}", bundles_footer(&out));

    if let Some(path) = &bench_json {
        let threads_str = threads
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let probe_alms = sweep
            .runs
            .iter()
            .filter_map(|(_, r)| r.outcome.as_ref().ok())
            .find_map(|pr| {
                pr.run
                    .accel
                    .probe_plan
                    .as_ref()
                    .map(|pl| pl.cost_alms as f64)
            })
            .unwrap_or(0.0);
        let mut snap = timer
            .finish("repro_scale", Mode::Cycle, total_sim)
            .param("dim", dim)
            .param("rows", rows)
            .param("cols", cols)
            .param("nnz", nnz)
            .param("threads", threads_str)
            .param("ab_threads", ab_threads)
            .param("jobs", jobs)
            .param("profile", profile.name())
            .with_extra("probe_overhead", probe_alms)
            .with_extra("wheel_wall_s", wheel_wall)
            .with_extra("heap_wall_s", heap_wall)
            .with_extra("wheel_speedup", speedup)
            .with_extra("spmv_analytic_err_pct", worst_spmv_err)
            .with_extra("worker_utilization", sweep.sched.utilization());
        for (k, v) in scale_extras {
            snap = snap.with_extra(&k, v);
        }
        snap.write(path).expect("write --bench-json");
        println!("\nperf snapshot written to {}", path.display());
    }
}

fn print_scale_row(workload: &str, threads: u32, r: &ScaleRun) {
    println!(
        "{:<8} {:>8} {:>14} {:>9.3} {:>10.2} {:>12} {:>12} {:>10}",
        workload,
        threads,
        r.result.total_cycles,
        r.wall,
        r.result.total_cycles as f64 / r.wall.max(1e-9) / 1e6,
        r.devices.line_fetch_wakes,
        r.devices.channel_grant_wakes,
        r.devices.dma_wakes
    );
}
