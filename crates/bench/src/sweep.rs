//! # sweep — experiments as task graphs on the work-stealing engine
//!
//! The deterministic middle layer between the [`crate::engine`] scheduler
//! and the `repro_*` binaries: it turns an experiment description (which
//! GEMM versions, which π problem sizes, which SpMV thread counts, where
//! the trace bundles go) into a [`TaskGraph`] and renders the result table
//! inside the graph itself. One private builder makes every sweep graph;
//! a sweep supplies only its kernels and points, how a point runs and
//! becomes row metrics, its table header and its row formatter. Each graph
//! has the same shape:
//!
//! * one `Compile` node per distinct kernel populates the shared
//!   [`AccelCache`] entry (the π sweep has exactly one — its IR is
//!   step-independent), so a slow compile blocks only its own runs;
//! * one `Run` node per point simulates with the profiling unit attached
//!   and decodes its trace after the run ([`crate::run_profiled_with`]);
//! * one `Analyze` node per point writes the `.prv`/`.pcf`/`.row` bundle
//!   ([`hls_profiling::TraceData::write_bundle`]) and computes the
//!   table-row metrics — overlapping with still-running simulations
//!   instead of waiting for the whole batch;
//! * one `Reduce` node renders the table from the rows **in submission
//!   order**, so the table text and the trace bundles are byte-identical
//!   at `--jobs 1` and `--jobs 8`.
//!
//! Simulator failures (e.g. a typed [`fpga_sim::SimError::Deadlock`]) and
//! bundle-write failures are carried in the node outcomes and rendered as
//! `failed:` table rows — one bad configuration never aborts the rest of a
//! sweep. Static analysis gates the kernels before a sweep is built
//! (`crate::lint_gate`).

use crate::engine::{BatchEngine, SchedStats};
use crate::graph::{NodeKind, NodeReport, TaskGraph};
use crate::{
    analytic_report, f32_result, gemm_launch, pi_launch, run_profiled_with, spmv_launch,
    BenchError, ProfiledRun,
};
use fpga_sim::SimConfig;
use hls_profiling::{PipelineConfig, ProfilingConfig, TraceData};
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use kernels::spmv::{self, Csr};
use nymble_hls::accel::HlsConfig;
use nymble_hls::{AccelCache, CacheStats};
use nymble_ir::Kernel;
use paraver::analysis::StateProfile;
use paraver::states;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Configuration of the GEMM version sweep (§V-C).
pub struct GemmSweepConfig {
    pub params: GemmParams,
    /// HLS compile options; part of the compile-cache key.
    pub hls: HlsConfig,
    pub sim: SimConfig,
    pub prof: ProfilingConfig,
    /// Ignored: the sweep has one trace drain path, which has no settings.
    pub pipeline: PipelineConfig,
    /// Where trace bundles go (`gemm_<dim>_<kernel>` stems); `None` skips
    /// bundle output.
    pub out: Option<PathBuf>,
    /// Worker count for the batch engine.
    pub jobs: usize,
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
    /// Ignored: the sweep has one trace drain path, which has no settings.
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

/// Result of a sweep: one `Run` report per point, keyed and in submission
/// order, plus the table its `Reduce` node rendered (byte-identical at any
/// worker count) and the compile-cache / scheduler counters.
pub struct Sweep<K, R> {
    pub runs: Vec<(K, NodeReport<R>)>,
    /// The sweep's table: a header line, then one row per point.
    pub table: String,
    pub cache: CacheStats,
    /// Work-stealing statistics of the sweep's graph execution.
    pub sched: SchedStats,
}

/// Run all five GEMM versions as one task graph: compile → run → analyze
/// per version, one table reduce at the end. The table is the §V-C
/// speed-up table; failed runs become diagnostic rows and are excluded
/// from the speed-up baselines.
pub fn gemm_sweep(cfg: &GemmSweepConfig) -> Sweep<GemmVersion, ProfiledRun> {
    let launch = gemm_launch(&cfg.params);
    let (threads, sim) = (cfg.params.threads, &cfg.sim);
    let groups = GemmVersion::ALL
        .iter()
        .map(|&v| {
            let kernel = gemm::build(v, &cfg.params);
            let point = Point {
                key: v,
                label: v.name().to_string(),
                row_label: format!("{:<24}", v.name()),
                stem: format!("gemm_{}_{}", cfg.params.dim, kernel.name),
            };
            (kernel, vec![point])
        })
        .collect();
    let header = format!(
        "{:<24} {:>14} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "version", "cycles", "vs naive", "vs prev", "GB/s", "spin%", "crit%"
    );
    let (mut naive_c, mut prev_c) = (None::<u64>, None::<u64>);
    build_sweep(
        Plan {
            hls: &cfg.hls,
            out: cfg.out.as_deref(),
            jobs: cfg.jobs,
            groups,
        },
        header,
        |_, kernel, cache| run_profiled_with(cache, kernel, &cfg.hls, sim, &cfg.prof, &launch),
        |_, pr: &ProfiledRun| {
            let prof = StateProfile::compute(&pr.trace.records, threads);
            (
                pr.result.total_cycles,
                pr.result.throughput_gbps(sim),
                prof.fraction(states::SPINNING) * 100.0,
                prof.fraction(states::CRITICAL) * 100.0,
            )
        },
        |pr| &pr.trace,
        move |&(cycles, gbps, spin, crit): &(u64, f64, f64, f64)| {
            let naive = *naive_c.get_or_insert(cycles);
            let prev = prev_c.replace(cycles).unwrap_or(cycles);
            format!(
                "{cycles:>14} {:>8.2}x {:>8.2}x {gbps:>8.3} {spin:>7.2}% {crit:>7.2}%",
                naive as f64 / cycles as f64,
                prev as f64 / cycles as f64,
            )
        },
    )
}

/// Run the π kernel at every requested problem size as one task graph.
/// The kernel's IR is independent of the step count (it arrives as launch
/// scalars), so every run shares one kernel and one `Compile` node. The
/// table has steps, cycles, the π estimate and GFLOP/s per size.
///
/// # Panics
/// Panics when a step count does not divide evenly over
/// `threads × bs` ([`PiParams::validate`]).
pub fn pi_sweep(cfg: &PiSweepConfig) -> Sweep<u64, PiRun> {
    let params = |steps| PiParams {
        steps,
        threads: cfg.threads,
        bs: cfg.bs,
    };
    for &steps in &cfg.steps {
        if let Err(e) = params(steps).validate() {
            panic!("pi_{steps}: {e}");
        }
    }
    let points = cfg
        .steps
        .iter()
        .map(|&steps| Point {
            key: steps,
            label: format!("pi_{steps}"),
            row_label: format!("{steps:>12}"),
            stem: format!("pi_{steps}"),
        })
        .collect();
    let groups = cfg
        .steps
        .first()
        .map(|&steps| (pi::build(&params(steps)), points))
        .into_iter()
        .collect();
    let header = format!(
        "{:>12} {:>14} {:>10} {:>10}",
        "steps", "cycles", "pi", "GFLOP/s"
    );
    let sim = &cfg.sim;
    build_sweep(
        Plan {
            hls: &cfg.hls,
            out: cfg.out.as_deref(),
            jobs: cfg.jobs,
            groups,
        },
        header,
        |&steps, kernel, cache| {
            let p = params(steps);
            let run = run_profiled_with(cache, kernel, &cfg.hls, sim, &cfg.prof, &pi_launch(&p))?;
            let estimate = f32_result(&run.result, 2)[0] * pi::launch_scalars(&p).0;
            Ok(PiRun { run, estimate })
        },
        |_, pr: &PiRun| {
            let result = &pr.run.result;
            (result.total_cycles, pr.estimate, result.gflops(sim))
        },
        |pr| &pr.run.trace,
        |&(cycles, estimate, gflops): &(u64, f32, f64)| {
            format!("{cycles:>14} {estimate:>10.6} {gflops:>10.3}")
        },
    )
}

/// Run the SpMV kernel at every requested thread count as one task graph.
/// The thread count is part of the kernel, so each count gets its own
/// `Compile` node. Each run also prices itself through the analytical
/// fast mode, so the table (threads, cycles, analytical prediction and
/// its error, GB/s, spin%) shows the prediction error alongside the
/// simulated cycles.
pub fn spmv_sweep(cfg: &SpmvSweepConfig) -> Sweep<u32, SpmvRun> {
    let (rows, cols) = (cfg.matrix.rows, cfg.matrix.cols);
    let launch = spmv_launch(&cfg.matrix);
    let groups = cfg
        .threads
        .iter()
        .map(|&t| {
            let point = Point {
                key: t,
                label: format!("spmv_t{t}"),
                row_label: format!("{t:>8}"),
                stem: format!("spmv_{rows}x{cols}_t{t}"),
            };
            (spmv::build(rows as i64, t), vec![point])
        })
        .collect();
    let header = format!(
        "{:>8} {:>14} {:>14} {:>8} {:>8} {:>8}",
        "threads", "cycles", "analytic", "err%", "GB/s", "spin%"
    );
    let sim = &cfg.sim;
    build_sweep(
        Plan {
            hls: &cfg.hls,
            out: cfg.out.as_deref(),
            jobs: cfg.jobs,
            groups,
        },
        header,
        |_, kernel, cache| {
            let run = run_profiled_with(cache, kernel, &cfg.hls, sim, &cfg.prof, &launch)?;
            let analytic_cycles =
                analytic_report(cache, kernel, sim, &launch).map(|r| r.total_cycles);
            Ok(SpmvRun {
                run,
                analytic_cycles,
            })
        },
        |&t, pr: &SpmvRun| {
            let prof = StateProfile::compute(&pr.run.trace.records, t);
            (
                pr.run.result.total_cycles,
                pr.analytic_cycles,
                pr.run.result.throughput_gbps(sim),
                prof.fraction(states::SPINNING) * 100.0,
            )
        },
        |pr| &pr.run.trace,
        |&(cycles, analytic, gbps, spin): &(u64, Option<u64>, f64, f64)| {
            let (analytic, err) = match analytic {
                Some(a) => (
                    a.to_string(),
                    format!("{:+.1}", (a as f64 - cycles as f64) / cycles as f64 * 100.0),
                ),
                None => ("-".to_string(), "-".to_string()),
            };
            format!("{cycles:>14} {analytic:>14} {err:>8} {gbps:>8.3} {spin:>7.2}%")
        },
    )
}

/// Write the `(out, sweep stems)` bundles-written footer used by the repro
/// binaries (shared so their output stays consistent).
pub fn bundles_footer(out: &Path) -> String {
    format!("trace bundles written to {}", out.display())
}

/// One sweep point: a `Run` node on its group's kernel, then an `Analyze`
/// node that writes the point's bundle and computes its row.
struct Point<K> {
    key: K,
    /// Label of the `Run` node (`analyze:<label>` for the `Analyze` node).
    label: String,
    /// The padded first column of the point's table row.
    row_label: String,
    /// File stem of the point's bundle under [`Plan::out`].
    stem: String,
}

/// What a sweep runs: its points grouped by kernel (one `Compile` node per
/// group, placed before the group's runs), and where the graph's output
/// goes.
struct Plan<'a, K> {
    /// HLS options of the `Compile` nodes; the run closures pass the same.
    hls: &'a HlsConfig,
    out: Option<&'a Path>,
    jobs: usize,
    groups: Vec<(Kernel, Vec<Point<K>>)>,
}

/// Node payload of a sweep graph: `R` is a point's run, `W` its row.
enum Node<R, W> {
    Compiled,
    Ran(R),
    Row(Result<W, String>),
    Table(String),
}

/// Build and execute one sweep graph. `run` simulates a point on its
/// kernel through the sweep's compile cache; the point's `Analyze` node
/// writes `trace` as its bundle and turns the run into row metrics with
/// `row`. The table is `header`, then per point in submission order
/// `"<row label> <line(metrics)>"`, or `"<row label> failed: <error>"` for
/// a failed run or bundle write (`line` never sees those).
fn build_sweep<K: Sync, R: Send + Sync, W: Send + Sync>(
    plan: Plan<'_, K>,
    header: String,
    run: impl Fn(&K, &Kernel, &AccelCache) -> Result<R, BenchError> + Sync,
    row: impl Fn(&K, &R) -> W + Sync,
    trace: fn(&R) -> &TraceData,
    mut line: impl FnMut(&W) -> String + Send,
) -> Sweep<K, R> {
    let (cache, hls) = (&AccelCache::new(), plan.hls);
    let (run, row) = (&run, &row);
    let mut graph = TaskGraph::new();
    let mut analyze_ids = Vec::new();
    for (kernel, points) in &plan.groups {
        let compile = graph.add(
            NodeKind::Compile,
            format!("compile:{}", kernel.name),
            &[],
            move |_| {
                cache.get_or_compile(kernel, hls);
                Ok(Node::Compiled)
            },
        );
        for p in points {
            let ran = graph.add(NodeKind::Run, p.label.clone(), &[compile], move |_| {
                run(&p.key, kernel, cache).map(Node::Ran)
            });
            let stem = plan.out.map(|o| o.join(&p.stem));
            analyze_ids.push(graph.add(
                NodeKind::Analyze,
                format!("analyze:{}", p.label),
                &[ran],
                move |ctx| {
                    Ok(Node::Row(match &ctx.dep(0).outcome {
                        Ok(Node::Ran(r)) => {
                            if let Some(stem) = &stem {
                                trace(r).write_bundle(stem)?;
                            }
                            Ok(row(&p.key, r))
                        }
                        Ok(_) => unreachable!("run node produced a non-run payload"),
                        Err(e) => Err(e.to_string()),
                    }))
                },
            ));
        }
    }
    let points = plan.groups.iter().flat_map(|(_, points)| points);
    graph.add(NodeKind::Reduce, "table", &analyze_ids, move |ctx| {
        let mut table = format!("{header}\n");
        for (p, dep) in points.zip(ctx.deps()) {
            let label = &p.row_label;
            match &dep.outcome {
                Ok(Node::Row(Ok(w))) => writeln!(table, "{label} {}", line(w)),
                Ok(Node::Row(Err(e))) => writeln!(table, "{label} failed: {e}"),
                Err(e) => writeln!(table, "{label} failed: {e}"),
                Ok(_) => unreachable!("analyze node produced a non-row payload"),
            }
            .unwrap();
        }
        Ok(Node::Table(table))
    });

    let done = BatchEngine::new(plan.jobs).run_graph(graph);
    let mut keys = plan
        .groups
        .into_iter()
        .flat_map(|(_, points)| points)
        .map(|p| p.key);
    let (mut runs, mut table) = (Vec::new(), String::new());
    for report in done.reports {
        match report.kind {
            NodeKind::Run => runs.push((
                keys.next().expect("one run node per point"),
                report.map(|n| match n {
                    Node::Ran(r) => r,
                    _ => unreachable!("run node produced a non-run payload"),
                }),
            )),
            NodeKind::Reduce => match report.outcome {
                Ok(Node::Table(t)) => table = t,
                _ => unreachable!("the table reduction cannot fail"),
            },
            NodeKind::Compile | NodeKind::Analyze => {}
        }
    }
    Sweep {
        runs,
        table,
        cache: cache.stats(),
        sched: done.stats,
    }
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
        let table = &sweep.table;
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
        let table = &sweep.table;
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
        let table = &sweep.table;
        assert!(table.contains("GFLOP/s"));
        // one shared compile, then run + analyze per size, one reduce.
        assert_eq!(sweep.sched.total_executed(), 1 + 2 * 2 + 1);
    }
}
