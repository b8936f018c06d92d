//! Reproduces the GEMM case study of §V-C: the speedup progression quoted in
//! the text, the Paraver state view of Fig. 6 (with its zoom), the relative
//! bandwidth comparison of Fig. 7, and the phase plots of Figs. 8 and 9.
//!
//! Usage: `repro_gemm [--dim N] [--threads N] [--out DIR] [--jobs N]
//!                    [--mode cycle|analytical]
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
//! traces or figures.
//!
//! `--profile=auto[,budget=N]` replaces the fixed counter set with the
//! auto-probe plan: the compiler's static region analysis plus the
//! budgeted knapsack pass pick the counters and region probes, the trace
//! bundles gain the region hierarchy, and the diagnosis section
//! attributes cycles to source regions.
//!
//! A stdout closed by its reader (`repro_gemm | head -n 1`) ends the run
//! with exit 0; any other write error is one stderr line and exit 1.

use bench::args::Mode;
use bench::session::Session;
use bench::sweep::{bundles_footer, gemm_sweep, GemmSweepConfig};
use bench::{analytic_report, gemm_launch, gemm_sim_config};
use hls_profiling::diagnose::{confront, diagnose, render_confrontation, DiagnoseConfig};
use hls_profiling::{PipelineConfig, ProfilingConfig};
use kernels::gemm::{self, GemmParams, GemmVersion};
use nymble_hls::AccelCache;
use paraver::analysis::{event_series, StateProfile};
use paraver::timeline::{render_series, render_states, TimelineOptions};
use paraver::{events, states};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = Session::start("repro_gemm", &["--dim", "--threads"]);
    session.write_stdout(|out| run(&session, out))
}

fn run(session: &Session, w: &mut impl Write) -> std::io::Result<()> {
    let dim = session.flag("--dim", 128u32) as i64;
    let threads = session.flag("--threads", 8u32);
    let jobs = session.jobs;
    let p = GemmParams {
        dim,
        threads,
        ..Default::default()
    };
    session.check_shape(p.validate());
    let out = session.out_dir();
    let sim = gemm_sim_config();

    // Pre-sweep lint gate: analyze all five versions before any
    // simulation time is spent.
    let kernels: Vec<_> = GemmVersion::ALL
        .iter()
        .map(|&v| gemm::build(v, &p))
        .collect();
    session.gate(&kernels.iter().collect::<Vec<_>>());

    if session.mode == Mode::Analytical {
        let cache = AccelCache::new();
        let launch = gemm_launch(&p);
        let mut naive = None;
        let mut prev = None;
        writeln!(
            w,
            "== T-GEMM (analytical fast mode): predicted cycles, dim {dim}, {threads} threads ==\n"
        )?;
        writeln!(
            w,
            "{:<24} {:>14} {:>15} {:>8} {:>9}",
            "version", "cycles", "bound", "vs prev", "vs naive"
        )?;
        for (v, k) in GemmVersion::ALL.iter().zip(&kernels) {
            match analytic_report(&cache, k, &sim, &launch) {
                Some(r) => {
                    let naive_c = *naive.get_or_insert(r.total_cycles);
                    let vs_prev = prev
                        .map(|pc: u64| format!("{:.2}x", pc as f64 / r.total_cycles as f64))
                        .unwrap_or_else(|| "-".into());
                    writeln!(
                        w,
                        "{:<24} {:>14} {:>15} {:>8} {:>8.2}x",
                        v.name(),
                        r.total_cycles,
                        r.bound.to_string(),
                        vs_prev,
                        naive_c as f64 / r.total_cycles as f64
                    )?;
                    prev = Some(r.total_cycles);
                }
                None => writeln!(w, "{:<24} {:>14}", v.name(), "unresolvable")?,
            }
        }
        writeln!(w,
            "\n(analytical mode: no simulation, no trace bundles — run --mode=cycle for figures;\n cross-validated within 15% of the cycle-level simulator, see crates/bench/tests/analytic_validation.rs)"
        )?;
        return Ok(());
    }

    let sweep = gemm_sweep(&GemmSweepConfig {
        params: p,
        hls: session.hls(),
        sim: sim.clone(),
        prof: ProfilingConfig::default(),
        pipeline: PipelineConfig::default(),
        out: Some(out.clone()),
        jobs,
    });
    writeln!(w, "== T-GEMM: execution time and speedups (§V-C text) ==\n")?;
    write!(w, "{}", sweep.table)?;
    let plan = sweep
        .runs
        .iter()
        .filter_map(|(_, r)| r.outcome.as_ref().ok())
        .find_map(|run| run.accel.probe_plan.as_deref());
    if let Some(plan) = plan {
        writeln!(w, "\n{}", plan.summary())?;
    }
    writeln!(
        w,
        "\n({} workers; compile cache: {} kernels compiled once, {} shared reuses)",
        jobs, sweep.cache.misses, sweep.cache.hits
    )?;

    writeln!(
        w,
        "\n-- automated trace diagnosis (hls_profiling::diagnose) --\n"
    )?;
    for (v, report) in &sweep.runs {
        match &report.outcome {
            Ok(run) => {
                let d = diagnose(
                    &run.trace,
                    &run.result.stats,
                    &sim,
                    &DiagnoseConfig::default(),
                );
                writeln!(w, "{:<24} {:?}: {}", v.name(), d.bottleneck, d.advice)?;
                // Under --profile=auto: attribute the run's cycles to the
                // source regions the plan instrumented, and name the
                // hottest one next to the state-level verdict.
                if let Some(plan) = &run.accel.probe_plan {
                    let att =
                        hls_profiling::attribute_regions(&run.accel.regions, plan, &run.trace);
                    if let Some(hot) = hls_profiling::hottest_region(&att) {
                        writeln!(w,
                            "{:<24} hottest region: {} [{}] — {} cycles, {:.0}% of the kernel attributed",
                            "",
                            hot.label,
                            hot.kind.name(),
                            hot.cycles,
                            hls_profiling::diagnose::attribution_coverage(&att) * 100.0
                        )?;
                    }
                }
                // Predicted vs observed: confront each static NP finding
                // with the measured trace (and flag measured hotspots the
                // static pass missed).
                if session.perf_lint != nymble_lint::LintLevel::Off {
                    let idx = GemmVersion::ALL.iter().position(|x| x == v).unwrap();
                    let report = nymble_lint::perf_lint_kernel_with(&kernels[idx], &sim.timing);
                    let outcomes = confront(&report, &run.trace, &run.result.stats, &d);
                    write!(w, "{}", render_confrontation(&outcomes))?;
                }
            }
            Err(e) => {
                writeln!(w, "{:<24} run failed, no trace to diagnose: {e}", v.name())?;
                if let bench::BenchError::Sim(se) = e {
                    if let Some(hint) = hls_profiling::diagnose::sim_error_hint(se) {
                        writeln!(w, "{:<24} hint: {hint}", "")?;
                    }
                }
            }
        }
    }
    writeln!(w,
        "\n(paper @512: naive 853,522,308 cycles; 1.14x, 1.93x over previous, 5.28x and 19x over naive)"
    )?;

    // ---- Fig. 6: state view of the naive version -------------------------
    let naive = match &sweep.runs[0].1.outcome {
        Ok(run) => run,
        Err(e) => {
            writeln!(w, "\nnaive run failed ({e}); skipping the figure renders")?;
            writeln!(w, "\n{}", bundles_footer(&out))?;
            return Ok(());
        }
    };
    writeln!(
        w,
        "\n== Fig. 6: Paraver state view, naive GEMM (R=Running S=Spinning C=Critical .=Idle) ==\n"
    )?;
    let opts = TimelineOptions {
        width: 100,
        window: None,
        axis: true,
    };
    writeln!(
        w,
        "{}",
        render_states(
            &naive.trace.records,
            threads,
            naive.trace.meta.duration,
            &opts
        )
    )?;
    let prof = StateProfile::compute(&naive.trace.records, threads);
    writeln!(
        w,
        "time in critical sections: {:.2}%   spinning on locks: {:.2}%   (paper: 1.54% / 1.57%)",
        prof.fraction(states::CRITICAL) * 100.0,
        prof.fraction(states::SPINNING) * 100.0
    )?;

    // Zoom (Fig. 6 bottom): around the first long spin interval.
    if let Some((t0, t1)) = find_spin_window(&naive.trace.records) {
        writeln!(w, "\n-- zoom [{t0}, {t1}): one thread spins while another is in its critical section --\n")?;
        let zopts = TimelineOptions {
            width: 100,
            window: Some((t0, t1)),
            axis: true,
        };
        writeln!(
            w,
            "{}",
            render_states(
                &naive.trace.records,
                threads,
                naive.trace.meta.duration,
                &zopts
            )
        )?;
    }

    // ---- Fig. 7: relative bandwidth over relative execution time --------
    writeln!(
        w,
        "\n== Fig. 7: relative external-memory bandwidth over each version's execution ==\n"
    )?;
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
        writeln!(w, "{}", render_series(&total, v.name()))?;
    }
    writeln!(
        w,
        "\n(each row spans that version's own runtime, as in the paper's per-version panels)"
    )?;

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
        writeln!(
            w,
            "\n== Fig. {fig}: {} — throughput (top) vs compute (middle) vs stalls (bottom) ==\n",
            v.name()
        )?;
        writeln!(
            w,
            "{}",
            render_series(
                &bw.bins.iter().map(|&b| b as f64).collect::<Vec<_>>(),
                "DRAM bytes"
            )
        )?;
        writeln!(
            w,
            "{}",
            render_series(
                &fl.bins.iter().map(|&b| b as f64).collect::<Vec<_>>(),
                "FLOPs"
            )
        )?;
        writeln!(
            w,
            "{}",
            render_series(
                &st.bins.iter().map(|&b| b as f64).collect::<Vec<_>>(),
                "stalls"
            )
        )?;
    }
    writeln!(
        w,
        "\n(Fig. 8: alternating load/compute phases; Fig. 9: reads overlap compute — flatter both)"
    )?;
    writeln!(w, "\n{}", bundles_footer(&out))
}

/// Find a window around the first sizeable spinning interval.
fn find_spin_window(records: &paraver::Records) -> Option<(u64, u64)> {
    let mut best: Option<(u64, u64)> = None;
    for r in records {
        if let paraver::Record::State {
            begin, end, state, ..
        } = r
        {
            if state == states::SPINNING && end > begin {
                let len = end - begin;
                if best.is_none_or(|(b, e)| e - b < len) {
                    best = Some((begin, end));
                }
            }
        }
    }
    best.map(|(b, e)| {
        let pad = (e - b).max(50);
        (b.saturating_sub(pad), e + pad)
    })
}
