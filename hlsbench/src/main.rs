//! # hlsbench — the benchmark of record for the HLS → simulator → Paraver toolchain
//!
//! `hlsbench` times the paper's workflow from outside, through the public
//! entry points of each crate: lint, compile (`nymble-hls`), simulate with
//! the profiling unit attached (`fpga-sim`, `hls-profiling`), decode, write
//! the Paraver bundle and analyse it (`paraver`, `hls_profiling::diagnose`),
//! or estimate analytically (`fpga_sim::analytic`). Every later
//! performance claim is measured with it; the `BENCH_*.json` snapshots and
//! `bench_check` are no longer the measure of record (retiring them is a
//! separate change that does not touch the benchmark).
//!
//! ## Running
//!
//! From the repository root (the package is a workspace of its own, so the
//! repository's manifest does not list it):
//!
//! ```text
//! cargo run --release --manifest-path hlsbench/Cargo.toml -- \
//!     --workload case_study --seed 1 --seconds 25 --trace 0
//! ```
//!
//! * `--workload` is one of `case_study`, `trace_dense`, `high_threads`,
//!   `static_dse`; each invocation runs one, in its own process, so the
//!   peak RSS is per workload.
//! * `--seed` (default 1) draws every randomized input: the SpMV matrices
//!   and the `high_threads` GEMM operands. Seed 1 is the development seed;
//!   seed 2 is held out to confirm a claimed gain on inputs it was not
//!   tuned on.
//! * `--seconds` (default 25) is the measuring window. Repetitions of the
//!   workload run back to back until the next one would overrun it, with
//!   at least three.
//! * `--trace 1` runs one end-to-end pass and then traced passes that
//!   replay the same operations one at a time on one thread, timing each
//!   call into an entry point below; it prints per-layer metrics instead
//!   of end-to-end ones, the per-layer table sorted by share, and writes
//!   the spans to `<out>/spans.jsonl`.
//! * `--out DIR` (default `.hlsbench/<workload>`) holds the trace bundles
//!   and scratch files while the run lasts; only `spans.jsonl` remains.
//! * `--compare PARENT CHANGE` reads two files of result lines (one run
//!   per line) and applies each metric's bound: a change may be worse
//!   than the parent's median by `max(bound × median, floor)`; where the
//!   parent's quartile spread is wider than that, the metric is
//!   *unresolved* unless every change run beats every parent run.
//!
//! The last line of standard output is
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`
//! where each value is the median over the run's repetitions (or traced
//! passes). The line before it carries median, quartiles and sample count
//! of every metric. Above those, one `op` line per operation gives its
//! simulated cycles (the analytic prediction on `static_dse`) and the
//! FNV-1a-64 digests of its `.prv`/`.pcf`/`.row` bundle. The process exits
//! 1 if any output check failed.
//!
//! ## Workloads
//!
//! The load is closed-loop: a sweep waits for its whole task graph. Sweeps
//! run on [`workloads::JOBS`] = 2 engine workers (the reference box has two
//! cores); everything else runs on one thread. Each repetition compiles
//! afresh (a fresh `AccelCache`), as users pay it. `setup_s` covers input
//! generation and kernel IR builds only, and is the median of eleven
//! set-ups; the output directories are prepared once, untimed, since
//! their file-system cost is the benchmark's, not the program's.
//!
//! | workload | what runs | why |
//! |---|---|---|
//! | `case_study` | `bench::sweep::gemm_sweep`, GEMM v1–v5 at dim 64, T=8, 10,000-cycle sampling, bundles written; `pi_sweep` at 200 k / 800 k / 2 M steps, T=8, 50,000-cycle sampling; the analytic estimate of every kernel | what users run (§V-C, §V-D); the only workload where the sweep engine overlaps runs; `fpga_sim` does most of the work, `nymble_hls` a real share |
//! | `trace_dense` | the GEMM sweep at dim 48, T=16, 50-cycle sampling; every bundle read back through `parse_prv`, `StateProfile::compute`, `event_series` and `diagnose` | the dense end of §IV-B.2's sampling trade-off: exercises the trace format's write and read sides, where `hls_profiling` and `paraver` carry the load |
//! | `high_threads` | untraced `Executor::run` with `NullSnoop`, serially, each with an analytic estimate: GEMM No-Critical and Naive (128-way semaphore contention) at dim 128, T=128; SpMV on a seeded 32,768² matrix with 16 non-zeros per row at T=256 | dispatch, device wake-ups and the semaphore dominate; the trace and engine layers do nothing — the control for trace-side changes and the showcase for simulator-core changes |
//! | `static_dse` | `lint_kernel`, `perf_lint_kernel`, `try_compile` under `ProbeMode::auto()` and `estimate_with_image` for GEMM v1–v5 × dim {64, 256} × T {4, 8}, SpMV on a seeded 4,096² matrix × T {8, 64}, π, vecadd, dot, Jacobi, histogram and the tree reduction; `lint_kernel` (plus `perf_lint_kernel` on the perf family) on `kernels::fixtures::all()` | the edit-compile loop and `--mode analytical`: `nymble_hls` and `nymble_lint` do nearly all the work, the simulator none |
//!
//! Sizes are chosen so one repetition takes 0.7–3.5 s on the two-core
//! reference box and a run holds eight or more. At these sizes the
//! blocked GEMM designs at dim 64 still compile an order of magnitude
//! slower than at dim 256 (compile time grows with the unrolled block loop
//! up to dim 128 and collapses beyond it), the anomaly compile-time work
//! should target.
//!
//! ## Metrics
//!
//! End to end (`--trace 0`), declared with their bounds in `BENCHMARK.json`:
//!
//! | name | unit | better | meaning |
//! |---|---|---|---|
//! | `wall_s` | s | lower | median wall time of one repetition, checks excluded, in reference-host seconds |
//! | `setup_s` | s | lower | median of eleven set-ups, in reference-host seconds |
//! | `peak_rss_mb` | MiB | lower | `VmHWM` of the process at the end of the run |
//!
//! The reference box runs 1.3–1.6× slower for minutes at a time, which no
//! median over one run's repetitions can absorb: raw repetition medians
//! moved by up to 20% between two back-to-back sets of ten runs. So each
//! repetition and each set-up is timed between two runs of a fixed
//! calibration load ([`probe`]), and its time is multiplied by the
//! reference host's probe time over the mean of the two. The summary line
//! keeps the raw medians (`raw_wall_s`, `raw_setup_s`) and the probe's
//! (`probe_s`) beside the scaled ones.
//!
//! Failures are reported as `failed` out of `attempted` checked operations
//! on the result line rather than as a metric, since a metric there must
//! never be zero.
//!
//! Per layer (`--trace 1`), medians over the traced passes, named
//! `<layer>.<metric>`. Time inside a layer is given as its share of the
//! traced wall (`_pct`, the repeated simulations left out; with
//! `bench.unattributed_pct` the shares add up to 100%) and as the layer's
//! throughput, not as bare seconds: a layer a workload never calls would
//! read exactly zero seconds on every run. Absolute seconds per layer are
//! printed in the `layer` table, in the `layer_seconds` object of the
//! summary line, and in `spans.jsonl`. Counts are per pass. The arrow
//! names the end-to-end metric each layer should move:
//!
//! * `nymble_lint`: `lint_pct`, `perf_lint_pct` (`lint_kernel`,
//!   `perf_lint_kernel`), `kernels_per_s`, `findings` → `wall_s` on
//!   `static_dse`.
//! * `nymble_hls`: `compile_pct` (`try_compile`), `compiles_per_s`,
//!   `compiles`, `probe_alms`, `cache_hit_ratio` (of the end-to-end pass's
//!   sweeps) → `wall_s` on `static_dse` and `case_study`.
//! * `fpga_sim`: `exec_pct` (`Executor::run` with `NullSnoop`), `sim_mcps`
//!   (simulated Mcycles per second inside it), `sim_cycles`,
//!   `stall_cycles`, `line_hit_ratio`, `dram_contended` → `wall_s` on
//!   `high_threads` and `case_study`; `analytic_pct`
//!   (`estimate_with_image`) → `wall_s` on `static_dse`;
//!   `analytic_err_pct`, the largest |analytic − cycle| / cycle over the
//!   workload's kernels. Cycle counts must not move in a change that only
//!   makes the simulator faster.
//! * `hls_profiling`: `record_pct` (the profiled `Executor::run` less the
//!   unprofiled one), `record_overhead_pct` (that excess over the
//!   unprofiled simulation, the profiler's host-side overhead),
//!   `decode_pct` (`ProfilingUnit::finish`), `decode_mrec_s`,
//!   `diagnose_pct`, `flushed_bytes`, `records` → `wall_s` and
//!   `peak_rss_mb` on `trace_dense`.
//! * `paraver`: `write_pct` (`TraceData::write_bundle`), `write_mb_s`,
//!   `parse_pct` (reading the `.prv` and `parse_prv`), `parse_mb_s`,
//!   `analysis_pct` (`StateProfile`, `event_series`), `bundle_bytes` → the
//!   same on `trace_dense`.
//! * `bench`: `utilization`, `steals`, `parks` (the end-to-end pass's
//!   `SchedStats`) and `makespan_pct` (the sweeps' makespan as a share of
//!   that pass) → `wall_s` on `case_study`; `traced_wall_s`, the traced
//!   pass's wall; `unattributed_pct`, the part of it outside every timed
//!   call.
//!
//! Predicted no-move: the trace layers do no work on `high_threads` and
//! `static_dse`, and `fpga_sim.exec_pct` is zero on `static_dse`.
//!
//! `BASELINE.md` beside this crate records the baseline: medians,
//! quartiles and spreads per workload, the pinned cycles and bundle
//! digests, and the traced layer tables.
//!
//! ## Dependency surface
//!
//! These entry points are all the benchmark calls; a change that must
//! alter one of them needs a benchmark change first:
//! `bench::sweep::{gemm_sweep, pi_sweep}`, `bench::{gemm_launch,
//! pi_launch, spmv_launch, spmv_x, f32_buffer, f32_result,
//! gemm_sim_config, pi_sim_config, spmv_sim_config}`,
//! `bench::snapshot::peak_rss_kb`, `nymble_hls::try_compile`,
//! `nymble_lint::{lint_kernel, perf_lint_kernel}`,
//! `fpga_sim::Executor::run`, `fpga_sim::memimg::MemImage::new`,
//! `fpga_sim::analytic::estimate_with_image`,
//! `hls_profiling::ProfilingUnit::{new, finish}`,
//! `hls_profiling::TraceData::write_bundle`,
//! `hls_profiling::diagnose::diagnose`, `paraver::parse::parse_prv`,
//! `paraver::analysis::{StateProfile::compute, event_series}`, and the
//! kernel builders and references of the `kernels` crate.

mod json;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{MetricDef, END_TO_END, PEAK_RSS_MB, PER_LAYER, SETUP_S, SHARES, WALL_S};
use probe::Calibrated;
use stats::{judge, Summary, Verdict};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{PassTimes, Tracer};
use workloads::{Checker, Counters, Kind, OpOutcome, Scale, Workload};

const USAGE: &str = "usage: hlsbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       hlsbench --compare PARENT CHANGE";

/// Set-ups timed per run.
const SETUP_REPS: usize = 11;
/// Fewest end-to-end repetitions per run, however long they take.
const MIN_REPS: usize = 3;

/// One invocation's settings.
#[derive(Clone, Debug)]
struct Options {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 0..=3600"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Options {
        kind,
        seed,
        seconds,
        trace,
        out: out.unwrap_or_else(|| Path::new(".hlsbench").join(kind.name())),
    })
}

/// Everything one run measured.
struct Report {
    metrics: Vec<(&'static MetricDef, Summary)>,
    attempted: u64,
    failed: u64,
    /// Operations of the first end-to-end pass.
    ops: Vec<OpOutcome>,
    /// Operations of the first traced pass (trace mode only).
    traced_ops: Vec<OpOutcome>,
    /// Median seconds per layer over the traced passes, largest first.
    layers: Vec<(&'static str, f64)>,
    passes: usize,
    /// The repetitions' and set-ups' times as measured, with their probes
    /// (end-to-end mode only).
    raw: Option<(Calibrated, Calibrated)>,
}

/// Report a pass whose operations differ from the first pass's.
fn check_same_ops(check: &mut Checker, first: &[OpOutcome], ops: &[OpOutcome], what: &str) {
    check.check(first == ops, || {
        let diff = first
            .iter()
            .zip(ops)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("{a:?} vs {b:?}"))
            .unwrap_or_else(|| format!("{} vs {} operations", first.len(), ops.len()));
        format!("{what} produced different outputs than the first pass: {diff}")
    });
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metric values of one traced pass. Cache and scheduler
/// statistics come from the end-to-end pass, where the sweeps run.
fn layer_values(
    t: &PassTimes,
    c: &Counters,
    e2e: &Counters,
    e2e_wall: f64,
) -> BTreeMap<&'static str, f64> {
    use metrics::{COMPILE, DECODE, EXEC, LINT, PARSE, PERF_LINT, RECORD, WRITE};
    let secs = |slot: &str| t.per_slot.get(slot).copied().unwrap_or(0.0);
    // The shares' base: the traced wall less the repeated simulations.
    let base = t.wall - t.repeat;
    let mut v: BTreeMap<&'static str, f64> = SHARES
        .iter()
        .map(|&(slot, metric)| (metric, 100.0 * ratio(secs(slot), base)))
        .collect();
    let lint_s = secs(LINT) + secs(PERF_LINT);
    v.extend([
        (
            "nymble_lint.kernels_per_s",
            ratio(c.lint_calls as f64, lint_s),
        ),
        ("nymble_lint.findings", c.findings as f64),
        (
            "nymble_hls.compiles_per_s",
            ratio(c.compiles as f64, secs(COMPILE)),
        ),
        ("nymble_hls.compiles", c.compiles as f64),
        ("nymble_hls.probe_alms", c.probe_alms as f64),
        (
            "nymble_hls.cache_hit_ratio",
            ratio(
                e2e.cache_hits as f64,
                (e2e.cache_hits + e2e.cache_misses) as f64,
            ),
        ),
        (
            "fpga_sim.sim_mcps",
            ratio(c.sim_cycles as f64 / 1e6, secs(EXEC)),
        ),
        ("fpga_sim.sim_cycles", c.sim_cycles as f64),
        ("fpga_sim.stall_cycles", c.stall_cycles as f64),
        (
            "fpga_sim.line_hit_ratio",
            ratio(c.line_hits as f64, c.read_requests as f64),
        ),
        ("fpga_sim.dram_contended", c.dram_contended as f64),
        ("fpga_sim.analytic_err_pct", c.analytic_err_pct),
        (
            "hls_profiling.record_overhead_pct",
            100.0 * ratio(secs(RECORD), secs(EXEC)),
        ),
        (
            "hls_profiling.decode_mrec_s",
            ratio(c.records as f64 / 1e6, secs(DECODE)),
        ),
        ("hls_profiling.flushed_bytes", c.flushed_bytes as f64),
        ("hls_profiling.records", c.records as f64),
        (
            "paraver.write_mb_s",
            ratio(c.bundle_bytes as f64 / 1e6, secs(WRITE)),
        ),
        (
            "paraver.parse_mb_s",
            ratio(c.parsed_bytes as f64 / 1e6, secs(PARSE)),
        ),
        ("paraver.bundle_bytes", c.bundle_bytes as f64),
        (
            "bench.utilization",
            ratio(e2e.sched_busy_s, e2e.sched_capacity_s),
        ),
        ("bench.steals", e2e.steals as f64),
        ("bench.parks", e2e.parks as f64),
        (
            "bench.makespan_pct",
            100.0 * ratio(e2e.makespan_s, e2e_wall),
        ),
        ("bench.traced_wall_s", t.wall),
        (
            "bench.unattributed_pct",
            100.0 * ratio(t.unattributed, base),
        ),
    ]);
    v
}

/// Seconds per layer of one traced pass, with the unattributed rest.
fn layer_seconds(t: &PassTimes) -> BTreeMap<&'static str, f64> {
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (slot, s) in &t.per_slot {
        let layer = slot.split('.').next().unwrap_or(slot);
        *by_layer.entry(layer).or_default() += s;
    }
    by_layer.insert("unattributed", t.unattributed);
    by_layer
}

/// Whether another pass fits the measuring window.
fn another(started: Instant, seconds: f64, samples: &[f64], min: usize) -> bool {
    let typical = Summary::of(samples).map_or(0.0, |s| s.median);
    samples.len() < min || started.elapsed().as_secs_f64() + typical <= seconds
}

fn summarize(
    defs: &'static [MetricDef],
    values: &BTreeMap<&str, Vec<f64>>,
) -> Vec<(&'static MetricDef, Summary)> {
    defs.iter()
        .filter_map(|d| Some((d, Summary::of(values.get(d.name)?)?)))
        .collect()
}

/// Set up, measure and check one workload.
fn run(opts: &Options, scale: Scale) -> Report {
    let mut check = Checker::default();
    if let Err(e) = workloads::Dirs::under(&opts.out).prepare() {
        check.check(false, || format!("prepare {}: {e}", opts.out.display()));
    }
    let mut prepared: Option<Box<dyn Workload>> = None;
    let mut setups = Calibrated::start();
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(workloads::setup(opts.kind, scale, opts.seed, &opts.out));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let w = prepared.expect("SETUP_REPS is positive");

    let started = Instant::now();
    let mut walls = Calibrated::start();
    let first = w.run(&mut check);
    walls.push(first.wall.as_secs_f64());
    let mut report = Report {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        ops: first.ops.clone(),
        traced_ops: Vec::new(),
        layers: Vec::new(),
        passes: 1,
        raw: None,
    };
    if !opts.trace {
        while another(started, opts.seconds, &walls.raw, MIN_REPS) {
            let p = w.run(&mut check);
            walls.push(p.wall.as_secs_f64());
            check_same_ops(&mut check, &first.ops, &p.ops, "a repetition");
        }
        report.passes = walls.raw.len();
        let values = BTreeMap::from([
            (WALL_S, walls.scaled.clone()),
            (SETUP_S, setups.scaled.clone()),
            (
                PEAK_RSS_MB,
                vec![bench::snapshot::peak_rss_kb() as f64 / 1024.0],
            ),
        ]);
        report.metrics = summarize(END_TO_END, &values);
        report.raw = Some((walls, setups));
    } else {
        let mut tracer = Tracer::on();
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut traced_walls = Vec::new();
        loop {
            tracer.begin_pass();
            let p = w.traced(&mut tracer, &mut check);
            let times = tracer.end_pass();
            check_same_ops(&mut check, &first.ops, &p.ops, "the traced pass");
            if report.traced_ops.is_empty() {
                report.traced_ops = p.ops;
            }
            let e2e_wall = first.wall.as_secs_f64();
            for (m, x) in layer_values(&times, &p.counters, &first.counters, e2e_wall) {
                values.entry(m).or_default().push(x);
            }
            for (l, s) in layer_seconds(&times) {
                layers.entry(l).or_default().push(s);
            }
            traced_walls.push(times.wall);
            if !another(started, opts.seconds, &traced_walls, 1) {
                break;
            }
        }
        report.passes = traced_walls.len();
        report.metrics = summarize(PER_LAYER, &values);
        report.layers = layers
            .into_iter()
            .map(|(l, s)| (l, Summary::of(&s).map_or(0.0, |s| s.median)))
            .collect();
        report.layers.sort_by(|a, b| b.1.total_cmp(&a.1));
        let spans = opts.out.join("spans.jsonl");
        let written = std::fs::create_dir_all(&opts.out)
            .and_then(|()| std::fs::write(&spans, tracer.to_jsonl()));
        if let Err(e) = written {
            check.check(false, || format!("write {}: {e}", spans.display()));
        }
    }
    report.attempted = check.attempted;
    report.failed = check.failed;
    report
}

fn print_report(opts: &Options, r: &Report) {
    for op in &r.ops {
        let mut line = format!("op {} cycles={}", op.name, op.cycles);
        for (ext, d) in &op.digests {
            line.push_str(&format!(" {ext}={d:016x}"));
        }
        if !op.detail.is_empty() {
            line.push_str(&format!(" {}", op.detail));
        }
        println!("{line}");
    }
    let total: f64 = r.layers.iter().map(|(_, s)| s).sum();
    for (layer, s) in &r.layers {
        println!(
            "layer {layer:<14} {s:>10.4} s {:>6.1}%",
            ratio(*s, total) * 100.0
        );
    }
    let summary = Json::obj(r.metrics.iter().map(|(d, s)| {
        (
            d.name,
            Json::obj([
                ("unit", Json::Str(d.unit.into())),
                ("median", Json::Num(s.median)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
            ]),
        )
    }));
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut head = vec![
        ("workload", Json::Str(opts.kind.name().into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Bool(opts.trace)),
        ("passes", Json::Num(r.passes as f64)),
        ("jobs", Json::Num(workloads::JOBS as f64)),
        ("available_parallelism", Json::Num(threads as f64)),
        (
            "layer_seconds",
            Json::obj(r.layers.iter().map(|&(l, s)| (l, Json::Num(s)))),
        ),
    ];
    if let Some((walls, setups)) = &r.raw {
        let med = |v: &[f64]| Json::Num(Summary::of(v).map_or(0.0, |s| s.median));
        head.extend([
            ("raw_wall_s", med(&walls.raw)),
            ("raw_setup_s", med(&setups.raw)),
            ("probe_s", med(&walls.probes)),
            ("reference_probe_s", Json::Num(probe::REFERENCE_PROBE_S)),
        ]);
    }
    head.push(("summary", summary));
    let head = Json::obj(head);
    println!("{}", head.render());
    println!("{}", result_line(r).render());
}

/// The last line of standard output.
fn result_line(r: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "metrics",
            Json::obj(r.metrics.iter().map(|(d, s)| {
                (
                    d.name,
                    Json::obj([
                        ("value", Json::Num(s.median)),
                        ("unit", Json::Str(d.unit.into())),
                    ]),
                )
            })),
        ),
    ])
}

/// Metric values of every result line in `path`.
fn read_results(path: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let doc = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let Some(metrics) = doc.get("metrics").and_then(Json::as_object) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                values.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(values)
}

/// `--compare PARENT CHANGE`: the regression rule, metric by metric.
fn compare(parent: &str, change: &str) -> Result<bool, String> {
    let (p, c) = (read_results(parent)?, read_results(change)?);
    let mut regressed = false;
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let (Some(pv), Some(cv)) = (p.get(d.name), c.get(d.name)) else {
            continue;
        };
        let (ps, cs) = (Summary::of(pv), Summary::of(cv));
        let (Some(ps), Some(cs)) = (ps, cs) else {
            continue;
        };
        let verdict = match d.bound {
            Some(bound) => judge(pv, cv, d.better, bound, d.floor).as_str(),
            None => "-",
        };
        regressed |= verdict == Verdict::Regressed.as_str();
        println!(
            "{:<28} {:>8} parent {:>12.6} [{:.6}, {:.6}] n={:<3} change {:>12.6} [{:.6}, {:.6}] n={:<3} {:>+7.2}% {verdict}",
            d.name,
            d.unit,
            ps.median,
            ps.q1,
            ps.q3,
            ps.n,
            cs.median,
            cs.q1,
            cs.q3,
            cs.n,
            ratio(cs.median - ps.median, ps.median.abs()) * 100.0,
        );
    }
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, parent, change] => match compare(parent, change) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("hlsbench: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hlsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Keep every file the run writes inside the output directory: the
    // sweep engine and the spill sorter put their scratch under TMPDIR.
    let tmp = opts.out.join("tmp");
    let tmp = match std::fs::create_dir_all(&tmp).and_then(|()| std::path::absolute(&tmp)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hlsbench: cannot prepare {}: {e}", tmp.display());
            return ExitCode::FAILURE;
        }
    };
    std::env::set_var("TMPDIR", &tmp);

    let report = run(&opts, Scale::Full);
    for dir in ["bundles", "bundles-traced", "tmp"] {
        let _ = std::fs::remove_dir_all(opts.out.join(dir));
    }
    print_report(&opts, &report);
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let r = Report {
            metrics: vec![
                (
                    metrics::find(WALL_S).unwrap(),
                    Summary::of(&[1.25, 1.5, 1.0]).unwrap(),
                ),
                (
                    metrics::find(SETUP_S).unwrap(),
                    Summary::of(&[0.000123456789]).unwrap(),
                ),
            ],
            attempted: 12,
            failed: 0,
            ops: Vec::new(),
            traced_ops: Vec::new(),
            layers: Vec::new(),
            passes: 3,
            raw: None,
        };
        let line = result_line(&r).render();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, result_line(&r));
        let keys: Vec<&str> = back
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = back.get("metrics").and_then(|m| m.get(SETUP_S)).unwrap();
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(0.000123456789)
        );
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

        let nested =
            Json::parse(r#" {"a": [1, -2.5e3, true, null, "q\"\\\né"], "b": {}} "#).unwrap();
        assert_eq!(Json::parse(&nested.render()).unwrap(), nested);
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1] x").is_err());
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let o = parse("--workload trace_dense --seed 2 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (o.kind, o.seed, o.seconds, o.trace),
            (Kind::TraceDense, 2, 10.0, true)
        );
        assert_eq!(o.out, Path::new(".hlsbench/trace_dense"));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload case_study --trace 2").is_err());
        assert!(parse("--workload case_study --seconds -1").is_err());
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload case_study --seed").is_err());
    }

    /// Every workload at toy sizes, in both modes: every declared metric
    /// is emitted, every check passes, and the traced pass reproduces the
    /// end-to-end pass's cycles and bundle digests.
    #[test]
    fn every_workload_at_tiny_scale_emits_every_metric() {
        for kind in Kind::ALL {
            let out = std::env::temp_dir().join(format!(
                "hlsbench-test-{}-{}",
                kind.name(),
                std::process::id()
            ));
            for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
                let opts = Options {
                    kind,
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    out: out.clone(),
                };
                let r = run(&opts, Scale::Tiny);
                assert_eq!(r.failed, 0, "{} trace={trace}", kind.name());
                assert!(r.attempted > 0);
                let names: Vec<&str> = r.metrics.iter().map(|(d, _)| d.name).collect();
                let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
                assert_eq!(names, declared, "{}", kind.name());
                for (d, s) in &r.metrics {
                    assert!(s.median.is_finite() && s.median >= 0.0, "{}: {s:?}", d.name);
                }
                assert!(!r.ops.is_empty());
                if trace {
                    assert_eq!(r.traced_ops, r.ops, "{}", kind.name());
                    assert!(out.join("spans.jsonl").is_file());
                } else {
                    assert_eq!(r.passes, MIN_REPS);
                }
            }
            std::fs::remove_dir_all(&out).unwrap();
        }
    }
}
