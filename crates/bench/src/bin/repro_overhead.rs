//! Reproduces §V-B — *Profiling Overhead and Hardware Footprint* (E1/E2).
//!
//! Study 1 (the five GEMM accelerators): register overhead ≤ 5.4%
//! (geo-mean 2.41%), ALM overhead ≤ 4% (geo-mean 3.42%), fmax degradation
//! ≤ 8 MHz at ~140 MHz. Study 2 (the larger π accelerator): 1.3% registers,
//! 1.5% ALMs, 1 MHz at ~148 MHz. Also verifies the per-counter claim:
//! "each of the counters contributes similarly to the hardware overhead".
//!
//! Usage: `repro_overhead [--threads N] [--jobs N] [--bench-json PATH]
//!                        [--lint[=deny|warn|off]] [--perf-lint[=deny|warn|off]]
//!                        [--profile[=fixed|auto[,budget=N]]]`
//!
//! `--profile=auto[,budget=N]` prices the auto-probe plan instead of the
//! fixed counter set: each design's profiling-unit fit then includes the
//! selected counters *and* region probes, so the overhead tables show
//! what the knapsack pass actually spends against its budget.
//!
//! The study runs as one task graph on the work-stealing engine: six
//! `Compile` nodes (five GEMM versions plus π) populate the shared
//! compile cache, one `Analyze` node per GEMM design computes its
//! cost-model fit row as soon as that design is compiled, and a `Reduce`
//! node renders the table in submission order — identical for any
//! `--jobs` value. The study is purely static (cost-model fits, no
//! simulation), so `--mode` is accepted for uniformity but does not
//! change the tables; a `--bench-json` snapshot records zero simulated
//! cycles.

use bench::args::Args;
use bench::engine::BatchEngine;
use bench::graph::{NodeCtx, NodeKind, TaskGraph};
use bench::harness::SnapshotTimer;
use bench::{lint_gate, perf_lint_gate};
use hls_profiling::counters::CounterSet;
use hls_profiling::overhead::{instrumented_fit, profiling_fit, OverheadParams};
use hls_profiling::ProfilingConfig;
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use nymble_hls::accel::{Accelerator, HlsConfig};
use nymble_hls::cost::geo_mean;
use nymble_hls::AccelCache;
use std::fmt::Write as _;
use std::sync::Arc;

/// Node payload of the overhead-study graph.
enum OvhNode {
    Accel(Arc<Accelerator>),
    Row {
        line: String,
        alm_pct: f64,
        reg_pct: f64,
    },
    Block(String),
}

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
    let hls = HlsConfig {
        probe: profile.probe(),
        ..HlsConfig::default()
    };
    let prof = ProfilingConfig::default();
    let op = OverheadParams::default();
    let cache = AccelCache::new();
    let engine = BatchEngine::new(jobs);

    println!("== E1: hardware footprint of the profiling unit — study 1 (GEMM accelerators) ==\n");
    println!(
        "{:<24} {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8} | {:>7} {:>7} {:>9}",
        "design",
        "ALMs",
        "regs",
        "fmax",
        "ALMs+PU",
        "regs+PU",
        "fmax+PU",
        "ΔALM%",
        "Δreg%",
        "Δfmax MHz"
    );
    let gp = GemmParams {
        threads,
        ..GemmParams::paper_scale()
    };
    let pp = PiParams {
        threads,
        ..Default::default()
    };
    // Lint all six study designs (five GEMM versions plus π) up front, so
    // at `--lint=deny` the binary exits before compiling anything.
    let gate_kernels: Vec<_> = GemmVersion::ALL
        .iter()
        .map(|&v| gemm::build(v, &gp))
        .chain(std::iter::once(pi::build(&pp)))
        .collect();
    if let Err(report) = lint_gate(&gate_kernels.iter().collect::<Vec<_>>(), lint) {
        eprintln!("{report}");
        std::process::exit(1);
    }
    if let Err(report) = perf_lint_gate(&gate_kernels.iter().collect::<Vec<_>>(), perf_lint) {
        eprintln!("{report}");
        std::process::exit(1);
    }
    drop(gate_kernels);

    // One task graph for the whole study: a Compile node per design, an
    // Analyze fit-row per GEMM design, a Reduce rendering the table in
    // submission order (so it never depends on `--jobs`).
    let mut graph: TaskGraph<'_, OvhNode> = TaskGraph::new();
    let mut analyze_ids = Vec::new();
    for &v in GemmVersion::ALL.iter() {
        let (cache, hls, gp, prof, op) = (&cache, &hls, &gp, &prof, &op);
        let compile = graph.add(
            NodeKind::Compile,
            format!("compile:{}", v.name()),
            &[],
            move |_: &NodeCtx<'_, OvhNode>| {
                Ok(OvhNode::Accel(
                    cache.get_or_compile(&gemm::build(v, gp), hls),
                ))
            },
        );
        let analyze = graph.add(
            NodeKind::Analyze,
            format!("fit:{}", v.name()),
            &[compile],
            move |ctx: &NodeCtx<'_, OvhNode>| {
                let OvhNode::Accel(acc) = ctx.dep(0).outcome.as_ref().expect("compile node") else {
                    unreachable!("compile node produced a non-accel payload")
                };
                // Under --profile=auto the fit prices the design's own
                // plan (counters + region probes) instead of the fixed set.
                let prof_v = match &acc.probe_plan {
                    Some(plan) => prof.clone().with_plan(plan.clone()),
                    None => prof.clone(),
                };
                let with = instrumented_fit(&acc.fit, threads, &prof_v, op, &hls.cost);
                let o = with.overhead_vs(&acc.fit);
                let line = format!(
                    "{:<24} {:>9} {:>9} {:>8.1} | {:>9} {:>9} {:>8.1} | {:>6.2}% {:>6.2}% {:>9.1}",
                    v.name(),
                    acc.fit.alms,
                    acc.fit.registers,
                    acc.fit.fmax_mhz,
                    with.alms,
                    with.registers,
                    with.fmax_mhz,
                    o.alms_pct,
                    o.registers_pct,
                    o.fmax_delta_mhz
                );
                Ok(OvhNode::Row {
                    line,
                    alm_pct: o.alms_pct,
                    reg_pct: o.registers_pct,
                })
            },
        );
        analyze_ids.push(analyze);
    }
    let pi_compile = graph.add(NodeKind::Compile, "compile:pi", &[], {
        let (cache, hls, pp) = (&cache, &hls, &pp);
        move |_: &NodeCtx<'_, OvhNode>| {
            Ok(OvhNode::Accel(cache.get_or_compile(&pi::build(pp), hls)))
        }
    });
    let reduce = graph.add(
        NodeKind::Reduce,
        "study1_table",
        &analyze_ids,
        move |ctx: &NodeCtx<'_, OvhNode>| {
            let mut block = String::new();
            let mut alm_pcts = Vec::new();
            let mut reg_pcts = Vec::new();
            for dep in ctx.deps() {
                let OvhNode::Row {
                    line,
                    alm_pct,
                    reg_pct,
                } = dep.outcome.as_ref().expect("fit node")
                else {
                    unreachable!("fit node produced a non-row payload")
                };
                writeln!(block, "{line}").unwrap();
                alm_pcts.push(*alm_pct);
                reg_pcts.push(*reg_pct);
            }
            let max_or = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
            writeln!(
                block,
                "\n  registers: max {:.2}% geo-mean {:.2}%   (paper: max 5.4%, geo-mean 2.41%)",
                max_or(&reg_pcts),
                geo_mean(&reg_pcts)
            )
            .unwrap();
            writeln!(
                block,
                "  ALMs:      max {:.2}% geo-mean {:.2}%   (paper: max 4%,   geo-mean 3.42%)",
                max_or(&alm_pcts),
                geo_mean(&alm_pcts)
            )
            .unwrap();
            Ok(OvhNode::Block(block))
        },
    );
    let out = engine.run_graph(graph);
    let OvhNode::Block(block) = out.reports[reduce.index()]
        .outcome
        .as_ref()
        .expect("study-1 reduce")
    else {
        unreachable!("reduce node produced a non-block payload")
    };
    print!("{block}");

    println!("\n== E2: study 2 (π accelerator) ==\n");
    let OvhNode::Accel(acc) = out.reports[pi_compile.index()]
        .outcome
        .as_ref()
        .expect("pi compile node")
    else {
        unreachable!("compile node produced a non-accel payload")
    };
    let pi_prof = match &acc.probe_plan {
        Some(plan) => prof.clone().with_plan(plan.clone()),
        None => prof.clone(),
    };
    if let Some(plan) = &acc.probe_plan {
        println!("  {}", plan.summary());
    }
    let with = instrumented_fit(&acc.fit, threads, &pi_prof, &op, &hls.cost);
    let o = with.overhead_vs(&acc.fit);
    println!(
        "  pi: ALMs {} → {} (+{:.2}%), registers {} → {} (+{:.2}%), fmax {:.1} → {:.1} MHz (−{:.1})",
        acc.fit.alms,
        with.alms,
        o.alms_pct,
        acc.fit.registers,
        with.registers,
        o.registers_pct,
        acc.fit.fmax_mhz,
        with.fmax_mhz,
        o.fmax_delta_mhz
    );
    println!("  (paper: registers +1.3%, ALMs +1.5%, fmax −1 MHz at 148 MHz)");

    println!(
        "\n== per-counter contribution (§V-B: \"each of the counters contributes similarly\") ==\n"
    );
    let none = profiling_fit(
        threads,
        &ProfilingConfig {
            counters: CounterSet::NONE,
            ..prof.clone()
        },
        &op,
    );
    let names = [
        "stalls",
        "int_ops",
        "flops",
        "mem_read",
        "mem_write",
        "local_ops",
    ];
    for (i, name) in names.iter().enumerate() {
        let mut set = CounterSet::NONE;
        match i {
            0 => set.stalls = true,
            1 => set.int_ops = true,
            2 => set.flops = true,
            3 => set.mem_read = true,
            4 => set.mem_write = true,
            _ => set.local_ops = true,
        }
        let f = profiling_fit(
            threads,
            &ProfilingConfig {
                counters: set,
                ..prof.clone()
            },
            &op,
        );
        println!(
            "  {:<10} +{:>4} ALMs, +{:>4} registers",
            name,
            f.alms - none.alms,
            f.registers - none.registers
        );
    }
    let stats = cache.stats();
    println!(
        "\n({jobs} workers; {} designs compiled once each)",
        stats.entries
    );
    if let Some(path) = &bench_json {
        let probe_alms = acc
            .probe_plan
            .as_ref()
            .map(|pl| pl.cost_alms as f64)
            .unwrap_or(0.0);
        let snap = timer
            .finish("repro_overhead", mode, 0)
            .param("threads", threads)
            .param("jobs", jobs)
            .param("profile", profile.name())
            .with_extra("probe_overhead", probe_alms)
            .with_extra("worker_utilization", out.stats.utilization())
            .with_extra("sched_steals", out.stats.steals as f64)
            .with_extra("sched_parks", out.stats.parks as f64);
        snap.write(path).expect("write --bench-json");
        println!("\nperf snapshot written to {}", path.display());
    }
}
