//! Reproduces the GEMM case study of §V-C: the speedup progression quoted in
//! the text, the Paraver state view of Fig. 6 (with its zoom), the relative
//! bandwidth comparison of Fig. 7, and the phase plots of Figs. 8 and 9.
//!
//! Usage: `repro_gemm [--dim N] [--threads N] [--out DIR] [--jobs N]
//!                    [--mode cycle|analytical] [--bench-json PATH]
//!                    [--lint[=deny|warn|off]] [--perf-lint[=deny|warn|off]]
//!                    [--profile[=fixed|auto[,budget=N]]]`
//!
//! `--dim 512` runs at the paper's scale (slow); the default 128 preserves
//! every ratio (see EXPERIMENTS.md). Trace bundles (`.prv`/`.pcf`/`.row`)
//! are written under `--out` (default `target/traces`). The five versions
//! run in parallel on the batch engine (`--jobs`, default: all hardware
//! threads); tables and bundles are byte-identical for any worker count —
//! including across `--lint` levels, since the analyzer never touches the
//! compiled artifact.
//!
//! `--mode analytical` replaces the simulation with the roofline fast
//! mode (`fpga_sim::analytic`): the speedup table in microseconds, no
//! traces or figures. `--bench-json PATH` writes a machine-readable perf
//! snapshot of the invocation (wall time, simulated cycles, throughput,
//! peak RSS — plus the analytical cross-check in cycle mode).
//!
//! `--profile=auto[,budget=N]` replaces the fixed counter set with the
//! auto-probe plan: the compiler's static region analysis plus the
//! budgeted knapsack pass pick the counters and region probes, the trace
//! bundles gain the region hierarchy, and the diagnosis section
//! attributes cycles to source regions.

use bench::args::{Args, Mode, ProfileMode};
use bench::harness::SnapshotTimer;
use bench::sweep::{bundles_footer, gemm_sweep, gemm_table, GemmSweep, GemmSweepConfig};
use bench::{analytic_report, gemm_launch, gemm_sim_config, lint_gate, perf_lint_gate};
use hls_profiling::diagnose::{confront, diagnose, render_confrontation, DiagnoseConfig};
use hls_profiling::{PipelineConfig, ProfilingConfig};
use kernels::gemm::{self, GemmParams, GemmVersion};
use nymble_hls::{AccelCache, HlsConfig};
use paraver::analysis::{event_series, StateProfile};
use paraver::timeline::{render_series, render_states, TimelineOptions};
use paraver::{events, states};
use std::path::PathBuf;

fn main() {
    let timer = SnapshotTimer::start();
    let args = Args::parse();
    let dim = args.u32("--dim").unwrap_or(128) as i64;
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

    let p = GemmParams {
        dim,
        threads,
        ..Default::default()
    };
    let sim = gemm_sim_config();

    // Pre-sweep lint gate: analyze all five versions before any
    // simulation time is spent.
    let kernels: Vec<_> = GemmVersion::ALL
        .iter()
        .map(|&v| gemm::build(v, &p))
        .collect();
    if let Err(report) = lint_gate(&kernels.iter().collect::<Vec<_>>(), lint) {
        eprintln!("{report}");
        std::process::exit(1);
    }
    if let Err(report) = perf_lint_gate(&kernels.iter().collect::<Vec<_>>(), perf_lint) {
        eprintln!("{report}");
        std::process::exit(1);
    }

    if mode == Mode::Analytical {
        let cache = AccelCache::new();
        let launch = gemm_launch(&p);
        let mut total = 0u64;
        let mut naive = None;
        let mut prev = None;
        println!(
            "== T-GEMM (analytical fast mode): predicted cycles, dim {dim}, {threads} threads ==\n"
        );
        println!(
            "{:<24} {:>14} {:>15} {:>8} {:>9}",
            "version", "cycles", "bound", "vs prev", "vs naive"
        );
        for (v, k) in GemmVersion::ALL.iter().zip(&kernels) {
            match analytic_report(&cache, k, &sim, &launch) {
                Some(r) => {
                    total += r.total_cycles;
                    let naive_c = *naive.get_or_insert(r.total_cycles);
                    let vs_prev = prev
                        .map(|pc: u64| format!("{:.2}x", pc as f64 / r.total_cycles as f64))
                        .unwrap_or_else(|| "-".into());
                    println!(
                        "{:<24} {:>14} {:>15} {:>8} {:>8.2}x",
                        v.name(),
                        r.total_cycles,
                        r.bound.to_string(),
                        vs_prev,
                        naive_c as f64 / r.total_cycles as f64
                    );
                    prev = Some(r.total_cycles);
                }
                None => println!("{:<24} {:>14}", v.name(), "unresolvable"),
            }
        }
        println!(
            "\n(analytical mode: no simulation, no trace bundles — run --mode=cycle for figures;\n cross-validated within 15% of the cycle-level simulator, see crates/bench/tests/analytic_validation.rs)"
        );
        if let Some(path) = &bench_json {
            let snap = timer
                .finish("repro_gemm", mode, total)
                .param("dim", dim)
                .param("threads", threads);
            snap.write(path).expect("write --bench-json");
            println!("\nperf snapshot written to {}", path.display());
        }
        return;
    }

    let sweep: GemmSweep = gemm_sweep(&GemmSweepConfig {
        params: p,
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
    println!("== T-GEMM: execution time and speedups (§V-C text) ==\n");
    print!("{}", gemm_table(&sweep));
    if let Some(plan) = sweep
        .runs
        .iter()
        .filter_map(|(_, r)| r.outcome.as_ref().ok())
        .find_map(|run| run.accel.probe_plan.clone())
    {
        println!("\n{}", plan.summary());
    }
    println!(
        "\n({} workers; compile cache: {} kernels compiled once, {} shared reuses)",
        jobs, sweep.cache.misses, sweep.cache.hits
    );

    println!("\n-- automated trace diagnosis (hls_profiling::diagnose) --\n");
    for (v, report) in &sweep.runs {
        match &report.outcome {
            Ok(run) => {
                let d = diagnose(
                    &run.trace,
                    &run.result.stats,
                    &sim,
                    &DiagnoseConfig::default(),
                );
                println!("{:<24} {:?}: {}", v.name(), d.bottleneck, d.advice);
                // Under --profile=auto: attribute the run's cycles to the
                // source regions the plan instrumented, and name the
                // hottest one next to the state-level verdict.
                if let Some(plan) = &run.accel.probe_plan {
                    let att =
                        hls_profiling::attribute_regions(&run.accel.regions, plan, &run.trace);
                    if let Some(hot) = hls_profiling::hottest_region(&att) {
                        println!(
                            "{:<24} hottest region: {} [{}] — {} cycles, {:.0}% of the kernel attributed",
                            "",
                            hot.label,
                            hot.kind.name(),
                            hot.cycles,
                            hls_profiling::diagnose::attribution_coverage(&att) * 100.0
                        );
                    }
                }
                // Predicted vs observed: confront each static NP finding
                // with the measured trace (and flag measured hotspots the
                // static pass missed).
                if perf_lint != nymble_lint::LintLevel::Off {
                    let idx = GemmVersion::ALL.iter().position(|x| x == v).unwrap();
                    let report = nymble_lint::perf_lint_kernel_with(&kernels[idx], &sim.timing());
                    let outcomes = confront(&report, &run.trace, &run.result.stats, &d);
                    print!("{}", render_confrontation(&outcomes));
                }
            }
            Err(e) => {
                println!("{:<24} run failed, no trace to diagnose: {e}", v.name());
                if let bench::BenchError::Sim(se) = e {
                    if let Some(hint) = hls_profiling::diagnose::sim_error_hint(se) {
                        println!("{:<24} hint: {hint}", "");
                    }
                }
            }
        }
    }
    println!(
        "\n(paper @512: naive 853,522,308 cycles; 1.14x, 1.93x over previous, 5.28x and 19x over naive)"
    );

    // ---- Fig. 6: state view of the naive version -------------------------
    let naive = match &sweep.runs[0].1.outcome {
        Ok(run) => run,
        Err(e) => {
            println!("\nnaive run failed ({e}); skipping the figure renders");
            println!("\n{}", bundles_footer(&out));
            if let Some(path) = &bench_json {
                write_cycle_snapshot(&timer, path, &sweep, &kernels, &sim, &p, jobs, profile);
            }
            return;
        }
    };
    println!(
        "\n== Fig. 6: Paraver state view, naive GEMM (R=Running S=Spinning C=Critical .=Idle) ==\n"
    );
    let opts = TimelineOptions {
        width: 100,
        window: None,
        axis: true,
    };
    println!(
        "{}",
        render_states(
            &naive.trace.records,
            threads,
            naive.trace.meta.duration,
            &opts
        )
    );
    let prof = StateProfile::compute(&naive.trace.records, threads);
    println!(
        "time in critical sections: {:.2}%   spinning on locks: {:.2}%   (paper: 1.54% / 1.57%)",
        prof.fraction(states::CRITICAL) * 100.0,
        prof.fraction(states::SPINNING) * 100.0
    );

    // Zoom (Fig. 6 bottom): around the first long spin interval.
    if let Some((t0, t1)) = find_spin_window(&naive.trace.records) {
        println!("\n-- zoom [{t0}, {t1}): one thread spins while another is in its critical section --\n");
        let zopts = TimelineOptions {
            width: 100,
            window: Some((t0, t1)),
            axis: true,
        };
        println!(
            "{}",
            render_states(
                &naive.trace.records,
                threads,
                naive.trace.meta.duration,
                &zopts
            )
        );
    }

    // ---- Fig. 7: relative bandwidth over relative execution time --------
    println!("\n== Fig. 7: relative external-memory bandwidth over each version's execution ==\n");
    for (v, report) in &sweep.runs {
        let Ok(run) = &report.outcome else { continue };
        let dur = run.trace.meta.duration.max(1);
        let bins = 100u64;
        let series_r = event_series(
            &run.trace.records,
            events::BYTES_READ,
            dur.div_ceil(bins),
            dur,
        );
        let series_w = event_series(
            &run.trace.records,
            events::BYTES_WRITTEN,
            dur.div_ceil(bins),
            dur,
        );
        let total: Vec<f64> = series_r
            .bins
            .iter()
            .zip(&series_w.bins)
            .map(|(r, w)| (r + w) as f64)
            .collect();
        println!("{}", render_series(&total, v.name()));
    }
    println!("\n(each row spans that version's own runtime, as in the paper's per-version panels)");

    // ---- Figs. 8 & 9: load/compute phases, blocked vs double-buffered ----
    for (v, fig) in [(GemmVersion::Blocked, 8), (GemmVersion::DoubleBuffered, 9)] {
        let report = &sweep.runs.iter().find(|(rv, _)| *rv == v).unwrap().1;
        let Ok(run) = &report.outcome else { continue };
        let dur = run.trace.meta.duration.max(1);
        let bins = 100u64;
        let bw = event_series(
            &run.trace.records,
            events::BYTES_READ,
            dur.div_ceil(bins),
            dur,
        );
        let fl = event_series(&run.trace.records, events::FLOPS, dur.div_ceil(bins), dur);
        let st = event_series(&run.trace.records, events::STALLS, dur.div_ceil(bins), dur);
        println!(
            "\n== Fig. {fig}: {} — throughput (top) vs compute (middle) vs stalls (bottom) ==\n",
            v.name()
        );
        println!(
            "{}",
            render_series(
                &bw.bins.iter().map(|&b| b as f64).collect::<Vec<_>>(),
                "DRAM bytes"
            )
        );
        println!(
            "{}",
            render_series(
                &fl.bins.iter().map(|&b| b as f64).collect::<Vec<_>>(),
                "FLOPs"
            )
        );
        println!(
            "{}",
            render_series(
                &st.bins.iter().map(|&b| b as f64).collect::<Vec<_>>(),
                "stalls"
            )
        );
    }
    println!(
        "\n(Fig. 8: alternating load/compute phases; Fig. 9: reads overlap compute — flatter both)"
    );
    println!("\n{}", bundles_footer(&out));
    if let Some(path) = &bench_json {
        write_cycle_snapshot(&timer, path, &sweep, &kernels, &sim, &p, jobs, profile);
    }
}

/// Emit the `--bench-json` snapshot of a cycle-mode run: wall time and
/// simulated cycles across the whole sweep, plus a timed analytical
/// cross-check of the same five kernels so the snapshot records the
/// fast-mode speedup alongside the exact numbers.
#[allow(clippy::too_many_arguments)] // the snapshot records every knob of the invocation
fn write_cycle_snapshot(
    timer: &SnapshotTimer,
    path: &std::path::Path,
    sweep: &GemmSweep,
    kernels: &[nymble_ir::Kernel],
    sim: &fpga_sim::SimConfig,
    p: &GemmParams,
    jobs: usize,
    profile: ProfileMode,
) {
    let total_sim: u64 = sweep
        .runs
        .iter()
        .filter_map(|(_, r)| r.outcome.as_ref().ok())
        .map(|run| run.result.total_cycles)
        .sum();
    let at = SnapshotTimer::start();
    let cache = AccelCache::new();
    let launch = gemm_launch(p);
    let analytic_total: u64 = kernels
        .iter()
        .filter_map(|k| analytic_report(&cache, k, sim, &launch))
        .map(|r| r.total_cycles)
        .sum();
    let analytic_wall = at.elapsed_seconds();
    let wall = timer.elapsed_seconds();
    // Modeled ALM cost of the auto-probe plan (0 under the fixed set) —
    // the `probe_overhead` extra the `bench_check` gate watches.
    let probe_alms = sweep
        .runs
        .iter()
        .filter_map(|(_, r)| r.outcome.as_ref().ok())
        .find_map(|run| run.accel.probe_plan.as_ref().map(|pl| pl.cost_alms as f64))
        .unwrap_or(0.0);
    let snap = timer
        .finish("repro_gemm", Mode::Cycle, total_sim)
        .param("dim", p.dim)
        .param("threads", p.threads)
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

/// Find a window around the first sizeable spinning interval.
fn find_spin_window(records: &[paraver::Record]) -> Option<(u64, u64)> {
    let mut best: Option<(u64, u64)> = None;
    for r in records {
        if let paraver::Record::State {
            begin, end, state, ..
        } = r
        {
            if *state == states::SPINNING && end > begin {
                let len = end - begin;
                if best.is_none_or(|(b, e)| e - b < len) {
                    best = Some((*begin, *end));
                }
            }
        }
    }
    best.map(|(b, e)| {
        let pad = (e - b).max(50);
        (b.saturating_sub(pad), e + pad)
    })
}
