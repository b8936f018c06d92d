//! Reproduces the π scaling case study of §V-D (Figs. 11–13): the state
//! views showing the host's sequential thread-start ramp, the achieved
//! GFLOP/s at 1 M / 4 M / 10 M iterations, and the paper's 15·10⁹-iteration
//! extrapolation.
//!
//! Usage: `repro_pi [--threads N] [--out DIR] [--jobs N]
//!                  [--mode cycle|analytical]
//!                  [--lint[=deny|warn|off]] [--perf-lint[=deny|warn|off]]
//!                  [--profile[=fixed|auto[,budget=N]]]`
//!
//! The three problem sizes run in parallel on the batch engine; the π
//! kernel's IR is step-count-independent, so the whole sweep shares one
//! HLS compile. Output is byte-identical for any `--jobs` value.
//! `--mode analytical` swaps the simulator for the roofline fast mode
//! (predicted cycles and GFLOP/s, no traces).
//!
//! A stdout closed by its reader (`repro_pi | head -n 1`) ends the run
//! with exit 0; any other write error is one stderr line and exit 1.

use bench::args::Mode;
use bench::session::Session;
use bench::sweep::{bundles_footer, pi_sweep, PiSweepConfig};
use bench::{analytic_report, pi_launch, pi_sim_config};
use hls_profiling::diagnose::{confront, diagnose, render_confrontation, DiagnoseConfig};
use hls_profiling::{PipelineConfig, ProfilingConfig};
use kernels::pi::{self, PiParams};
use nymble_hls::AccelCache;
use paraver::analysis::StateProfile;
use paraver::states;
use paraver::timeline::{render_states, TimelineOptions};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = Session::start("repro_pi", &["--threads"]);
    let mut out = std::io::stdout().lock();
    match run(&session, &mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_pi: cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(session: &Session, w: &mut impl Write) -> std::io::Result<()> {
    let threads = session.flag("--threads", 8u32);
    let jobs = session.jobs;
    let paper = [
        (1_000_000u64, 0.146, 11),
        (4_000_000, 0.556, 12),
        (10_000_000, 1.507, 13),
    ];
    for &(steps, _, _) in &paper {
        session.check_shape(
            PiParams {
                steps,
                threads,
                bs: 8,
            }
            .validate(),
        );
    }
    let out = session.out_dir();
    let sim = pi_sim_config();
    let prof = ProfilingConfig {
        sampling_period: 50_000,
        ..Default::default()
    };
    // Pre-sweep lint gate (the π IR is the same for every step count).
    let gate_kernel = pi::build(&PiParams {
        steps: paper[0].0,
        threads,
        bs: 8,
    });
    session.gate(&[&gate_kernel]);

    if session.mode == Mode::Analytical {
        let cache = AccelCache::new();
        writeln!(
            w,
            "== π scaling (analytical fast mode): predicted cycles, {threads} threads ==\n"
        )?;
        writeln!(
            w,
            "{:<14} {:>14} {:>15} {:>10}",
            "iterations", "cycles", "bound", "GFLOP/s"
        )?;
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
                    let flops = steps as f64 * kernels::reference::PI_FLOPS_PER_ITER as f64;
                    let gflops = flops / (r.total_cycles as f64 / sim.clock_hz()) / 1e9;
                    writeln!(
                        w,
                        "{:<14} {:>14} {:>15} {:>10.3}  (paper: {paper_gflops})",
                        steps,
                        r.total_cycles,
                        r.bound.to_string(),
                        gflops
                    )?;
                }
                None => writeln!(w, "{:<14} {:>14}", steps, "unresolvable")?,
            }
        }
        writeln!(w,
            "\n(analytical mode: no simulation, no trace bundles — run --mode=cycle for figures;\n cross-validated within 15% of the cycle-level simulator, see crates/bench/tests/analytic_validation.rs)"
        )?;
        return Ok(());
    }

    let sweep = pi_sweep(&PiSweepConfig {
        steps: paper.iter().map(|&(s, _, _)| s).collect(),
        threads,
        bs: 8,
        hls: session.hls(),
        sim: sim.clone(),
        prof,
        pipeline: PipelineConfig::default(),
        out: Some(out.clone()),
        jobs,
    });
    let plan = sweep
        .runs
        .iter()
        .filter_map(|(_, r)| r.outcome.as_ref().ok())
        .find_map(|pr| pr.run.accel.probe_plan.as_deref());
    if let Some(plan) = plan {
        writeln!(w, "{}\n", plan.summary())?;
    }

    let mut per_iter_cycles = 0.0f64;
    for ((steps, paper_gflops, fig), (_, report)) in paper.iter().zip(&sweep.runs) {
        let pr = match &report.outcome {
            Ok(pr) => pr,
            Err(e) => {
                writeln!(
                    w,
                    "== Fig. {fig}: π with {steps} iterations — run failed: {e} ==\n"
                )?;
                continue;
            }
        };
        let (run, est) = (&pr.run, pr.estimate);
        let gflops = run.result.gflops(&sim);
        writeln!(
            w,
            "== Fig. {fig}: π with {steps} iterations on {threads} threads ==\n"
        )?;
        let opts = TimelineOptions {
            width: 100,
            window: None,
            axis: true,
        };
        writeln!(
            w,
            "{}",
            render_states(&run.trace.records, threads, run.trace.meta.duration, &opts)
        )?;
        let profst = StateProfile::compute(&run.trace.records, threads);
        writeln!(w,
            "cycles {:>10}  π ≈ {est:.6}  {gflops:.3} GFLOP/s (paper: {paper_gflops})  running {:.1}% of thread time",
            run.result.total_cycles,
            profst.fraction(states::RUNNING) * 100.0,
        )?;
        // Does the earliest thread finish before the last starts (Fig. 11)?
        let first_end = run.result.stats.per_thread[0].end_cycle;
        let last_start = run.result.stats.per_thread[threads as usize - 1].start_cycle;
        if first_end < last_start {
            writeln!(w,
                "thread 0 finished at {first_end} before thread {} started at {last_start} — the §V-D launch-overhead effect"
            , threads - 1)?;
        }
        // Predicted vs observed: the π kernel is NP-clean, so this section
        // mainly guards against an unpredicted hotspot (a measured
        // bottleneck the static pass has no finding for).
        if session.perf_lint != nymble_lint::LintLevel::Off {
            let d = diagnose(
                &run.trace,
                &run.result.stats,
                &sim,
                &DiagnoseConfig::default(),
            );
            let report = nymble_lint::perf_lint_kernel_with(&gate_kernel, &sim.timing);
            let outcomes = confront(&report, &run.trace, &run.result.stats, &d);
            writeln!(w, "predicted vs observed:")?;
            write!(w, "{}", render_confrontation(&outcomes))?;
        }
        writeln!(w)?;

        // Steady-state compute rate for the extrapolation below.
        let t7 = &run.result.stats.per_thread[threads as usize - 1];
        per_iter_cycles = (t7.end_cycle - t7.start_cycle) as f64 / (*steps as f64 / threads as f64);
    }

    writeln!(
        w,
        "== summary ({jobs} workers; {} compile for {} runs) ==\n",
        sweep.cache.misses,
        sweep.runs.len()
    )?;
    write!(w, "{}", sweep.table)?;

    // §V-D extrapolation: "increasing the number of iterations to 15·10^9
    // would give us 36.84 GFLOP/s" (ignoring f32 instability).
    let big = 15e9f64;
    let launch_span = (threads as u64 - 1) as f64 * sim.timing.launch_interval as f64;
    let total_cycles = launch_span + big / threads as f64 * per_iter_cycles;
    let flops = big * kernels::reference::PI_FLOPS_PER_ITER as f64;
    let gflops = flops / (total_cycles / sim.clock_hz()) / 1e9;
    writeln!(w, "\n== extrapolation to 15·10⁹ iterations (paper: 36.84 GFLOP/s, ignoring f32 instability) ==\n")?;
    writeln!(
        w,
        "  predicted {total_cycles:.3e} cycles → {gflops:.2} GFLOP/s at {} MHz",
        sim.clock_mhz
    )?;
    writeln!(w, "\n{}", bundles_footer(&out))
}
