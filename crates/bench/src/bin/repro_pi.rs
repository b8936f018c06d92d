//! Reproduces the π scaling case study of §V-D (Figs. 11–13): the state
//! views showing the host's sequential thread-start ramp, the achieved
//! GFLOP/s at 1 M / 4 M / 10 M iterations, and the paper's 15·10⁹-iteration
//! extrapolation.
//!
//! Usage: `repro_pi [--threads N] [--out DIR] [--jobs N]
//!                  [--mode cycle|analytical] [--bench-json PATH]
//!                  [--lint[=deny|warn|off]] [--perf-lint[=deny|warn|off]]
//!                  [--profile[=fixed|auto[,budget=N]]]`
//!
//! The three problem sizes run in parallel on the batch engine; the π
//! kernel's IR is step-count-independent, so the whole sweep shares one
//! HLS compile. Output is byte-identical for any `--jobs` value.
//! `--mode analytical` swaps the simulator for the roofline fast mode
//! (predicted cycles and GFLOP/s, no traces); `--bench-json PATH` writes
//! a machine-readable perf snapshot of the invocation.

use bench::args::{Args, Mode, ProfileMode};
use bench::harness::SnapshotTimer;
use bench::sweep::{bundles_footer, pi_sweep, pi_table, PiSweep, PiSweepConfig};
use bench::{analytic_report, lint_gate, perf_lint_gate, pi_launch, pi_sim_config};
use hls_profiling::diagnose::{confront, diagnose, render_confrontation, DiagnoseConfig};
use hls_profiling::{PipelineConfig, ProfilingConfig};
use kernels::pi::{self, PiParams};
use nymble_hls::{AccelCache, HlsConfig};
use paraver::analysis::StateProfile;
use paraver::states;
use paraver::timeline::{render_states, TimelineOptions};
use std::path::PathBuf;

fn main() {
    let timer = SnapshotTimer::start();
    let args = Args::parse();
    let threads = args.u32("--threads").unwrap_or(8);
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
    let mode = args.mode().unwrap_or_else(|e| {
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
    let sim = pi_sim_config();
    let prof = ProfilingConfig {
        sampling_period: 50_000,
        ..Default::default()
    };

    let paper = [
        (1_000_000u64, 0.146, 11),
        (4_000_000, 0.556, 12),
        (10_000_000, 1.507, 13),
    ];
    // Pre-sweep lint gate (the π IR is the same for every step count).
    let gate_kernel = pi::build(&PiParams {
        steps: paper[0].0,
        threads,
        bs: 8,
    });
    if let Err(report) = lint_gate(&[&gate_kernel], lint) {
        eprintln!("{report}");
        std::process::exit(1);
    }
    if let Err(report) = perf_lint_gate(&[&gate_kernel], perf_lint) {
        eprintln!("{report}");
        std::process::exit(1);
    }

    if mode == Mode::Analytical {
        let cache = AccelCache::new();
        let mut total = 0u64;
        println!("== π scaling (analytical fast mode): predicted cycles, {threads} threads ==\n");
        println!(
            "{:<14} {:>14} {:>15} {:>10}",
            "iterations", "cycles", "bound", "GFLOP/s"
        );
        for &(steps, paper_gflops, _) in &paper {
            let p = PiParams {
                steps,
                threads,
                bs: 8,
            };
            let k = pi::build(&p);
            let launch = pi_launch(&p);
            match analytic_report(&cache, &k, &sim, &launch) {
                Some(r) => {
                    total += r.total_cycles;
                    let flops = steps as f64 * kernels::reference::PI_FLOPS_PER_ITER as f64;
                    let gflops = flops / (r.total_cycles as f64 / sim.clock_hz()) / 1e9;
                    println!(
                        "{:<14} {:>14} {:>15} {:>10.3}  (paper: {paper_gflops})",
                        steps,
                        r.total_cycles,
                        r.bound.to_string(),
                        gflops
                    );
                }
                None => println!("{:<14} {:>14}", steps, "unresolvable"),
            }
        }
        println!(
            "\n(analytical mode: no simulation, no trace bundles — run --mode=cycle for figures;\n cross-validated within 15% of the cycle-level simulator, see crates/bench/tests/analytic_validation.rs)"
        );
        if let Some(path) = &bench_json {
            let snap = timer
                .finish("repro_pi", mode, total)
                .param("steps", "1000000,4000000,10000000")
                .param("threads", threads);
            snap.write(path).expect("write --bench-json");
            println!("\nperf snapshot written to {}", path.display());
        }
        return;
    }

    let sweep = pi_sweep(&PiSweepConfig {
        steps: paper.iter().map(|&(s, _, _)| s).collect(),
        threads,
        bs: 8,
        hls: HlsConfig {
            probe: profile.probe(),
            ..HlsConfig::default()
        },
        sim: sim.clone(),
        prof,
        pipeline: PipelineConfig::default(),
        out: Some(out.clone()),
        jobs,
    });
    if let Some(plan) = sweep
        .runs
        .iter()
        .filter_map(|(_, r)| r.outcome.as_ref().ok())
        .find_map(|pr| pr.run.accel.probe_plan.clone())
    {
        println!("{}\n", plan.summary());
    }

    let mut per_iter_cycles = 0.0f64;
    for ((steps, paper_gflops, fig), (_, report)) in paper.iter().zip(&sweep.runs) {
        let pr = match &report.outcome {
            Ok(pr) => pr,
            Err(e) => {
                println!("== Fig. {fig}: π with {steps} iterations — run failed: {e} ==\n");
                continue;
            }
        };
        let (run, est) = (&pr.run, pr.estimate);
        let gflops = run.result.gflops(&sim);
        println!("== Fig. {fig}: π with {steps} iterations on {threads} threads ==\n");
        let opts = TimelineOptions {
            width: 100,
            window: None,
            axis: true,
        };
        println!(
            "{}",
            render_states(&run.trace.records, threads, run.trace.meta.duration, &opts)
        );
        let profst = StateProfile::compute(&run.trace.records, threads);
        println!(
            "cycles {:>10}  π ≈ {est:.6}  {gflops:.3} GFLOP/s (paper: {paper_gflops})  running {:.1}% of thread time",
            run.result.total_cycles,
            profst.fraction(states::RUNNING) * 100.0,
        );
        // Does the earliest thread finish before the last starts (Fig. 11)?
        let first_end = run.result.stats.per_thread[0].end_cycle;
        let last_start = run.result.stats.per_thread[threads as usize - 1].start_cycle;
        if first_end < last_start {
            println!(
                "thread 0 finished at {first_end} before thread {} started at {last_start} — the §V-D launch-overhead effect"
            , threads - 1);
        }
        // Predicted vs observed: the π kernel is NP-clean, so this section
        // mainly guards against an unpredicted hotspot (a measured
        // bottleneck the static pass has no finding for).
        if perf_lint != nymble_lint::LintLevel::Off {
            let d = diagnose(
                &run.trace,
                &run.result.stats,
                &sim,
                &DiagnoseConfig::default(),
            );
            let report = nymble_lint::perf_lint_kernel_with(&gate_kernel, &sim.timing());
            let outcomes = confront(&report, &run.trace, &run.result.stats, &d);
            println!("predicted vs observed:");
            print!("{}", render_confrontation(&outcomes));
        }
        println!();

        // Steady-state compute rate for the extrapolation below.
        let t7 = &run.result.stats.per_thread[threads as usize - 1];
        per_iter_cycles = (t7.end_cycle - t7.start_cycle) as f64 / (*steps as f64 / threads as f64);
    }

    println!(
        "== summary ({jobs} workers; {} compile for {} runs) ==\n",
        sweep.cache.misses,
        sweep.runs.len()
    );
    print!("{}", pi_table(&sweep));

    // §V-D extrapolation: "increasing the number of iterations to 15·10^9
    // would give us 36.84 GFLOP/s" (ignoring f32 instability).
    let big = 15e9f64;
    let launch_span = (threads as u64 - 1) as f64 * sim.launch_interval as f64;
    let total_cycles = launch_span + big / threads as f64 * per_iter_cycles;
    let flops = big * kernels::reference::PI_FLOPS_PER_ITER as f64;
    let gflops = flops / (total_cycles / sim.clock_hz()) / 1e9;
    println!("\n== extrapolation to 15·10⁹ iterations (paper: 36.84 GFLOP/s, ignoring f32 instability) ==\n");
    println!(
        "  predicted {total_cycles:.3e} cycles → {gflops:.2} GFLOP/s at {} MHz",
        sim.clock_mhz
    );
    println!("\n{}", bundles_footer(&out));
    if let Some(path) = &bench_json {
        write_cycle_snapshot(&timer, path, &sweep, &paper, threads, jobs, &sim, profile);
    }
}

/// Emit the `--bench-json` snapshot of a cycle-mode run, including a
/// timed analytical cross-check of the same three step counts so the
/// snapshot records the fast-mode speedup alongside the exact numbers.
#[allow(clippy::too_many_arguments)] // the snapshot records every knob of the invocation
fn write_cycle_snapshot(
    timer: &SnapshotTimer,
    path: &std::path::Path,
    sweep: &PiSweep,
    paper: &[(u64, f64, u32)],
    threads: u32,
    jobs: usize,
    sim: &fpga_sim::SimConfig,
    profile: ProfileMode,
) {
    let total_sim: u64 = sweep
        .runs
        .iter()
        .filter_map(|(_, r)| r.outcome.as_ref().ok())
        .map(|pr| pr.run.result.total_cycles)
        .sum();
    let at = SnapshotTimer::start();
    let cache = AccelCache::new();
    let analytic_total: u64 = paper
        .iter()
        .filter_map(|&(steps, _, _)| {
            let p = PiParams {
                steps,
                threads,
                bs: 8,
            };
            let k = pi::build(&p);
            analytic_report(&cache, &k, sim, &pi_launch(&p)).map(|r| r.total_cycles)
        })
        .sum();
    let analytic_wall = at.elapsed_seconds();
    let wall = timer.elapsed_seconds();
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
    let snap = timer
        .finish("repro_pi", Mode::Cycle, total_sim)
        .param("steps", "1000000,4000000,10000000")
        .param("threads", threads)
        .param("jobs", jobs)
        .param("profile", profile.name())
        .with_extra("probe_overhead", probe_alms)
        .with_extra("analytical_wall_seconds", analytic_wall)
        .with_extra("analytical_total_cycles", analytic_total as f64)
        .with_extra("analytical_speedup", wall / analytic_wall.max(1e-9))
        .with_extra("worker_utilization", sweep.sched.utilization())
        .with_extra("sched_steals", sweep.sched.steals as f64)
        .with_extra("sched_parks", sweep.sched.parks as f64)
        .with_extra("sched_makespan_seconds", sweep.sched.makespan.as_secs_f64());
    snap.write(path).expect("write --bench-json");
    println!("\nperf snapshot written to {}", path.display());
}
