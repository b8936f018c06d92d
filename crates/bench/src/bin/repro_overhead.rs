//! Reproduces §V-B — *Profiling Overhead and Hardware Footprint* (E1/E2).
//!
//! Study 1 (the five GEMM accelerators): register overhead ≤ 5.4%
//! (geo-mean 2.41%), ALM overhead ≤ 4% (geo-mean 3.42%), fmax degradation
//! ≤ 8 MHz at ~140 MHz. Study 2 (the larger π accelerator): 1.3% registers,
//! 1.5% ALMs, 1 MHz at ~148 MHz. Also verifies the per-counter claim:
//! "each of the counters contributes similarly to the hardware overhead".
//!
//! Usage: `repro_overhead [--threads N] [--jobs N]
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
//! change the tables.
//!
//! A stdout closed by its reader (`repro_overhead | head -n 1`) ends the
//! run with exit 0.

use bench::engine::BatchEngine;
use bench::graph::{NodeCtx, NodeKind, TaskGraph};
use bench::session::Session;
use hls_profiling::overhead::{instrumented_fit, profiling_fit, OverheadParams};
use hls_profiling::ProfilingConfig;
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use nymble_hls::accel::Accelerator;
use nymble_hls::cost::geo_mean;
use nymble_hls::{AccelCache, CounterSet, ALL_COUNTER_CLASSES};
use std::fmt::Write as _;
use std::process::ExitCode;
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

fn main() -> ExitCode {
    let session = Session::start("repro_overhead", &["--threads"]);
    session.write_stdout(|out| run(&session, out))
}

fn run(session: &Session, w: &mut impl std::io::Write) -> std::io::Result<()> {
    let threads = session.flag("--threads", 8u32);
    let gp = GemmParams {
        threads,
        ..GemmParams::paper_scale()
    };
    let pp = PiParams {
        threads,
        ..Default::default()
    };
    session.check_shape(gp.validate().and(pp.validate()));
    let jobs = session.jobs;
    let hls = session.hls();
    let prof = ProfilingConfig::default();
    let op = OverheadParams::default();
    let cache = AccelCache::new();
    let engine = BatchEngine::new(jobs);

    writeln!(
        w,
        "== E1: hardware footprint of the profiling unit — study 1 (GEMM accelerators) ==\n"
    )?;
    writeln!(
        w,
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
    )?;
    // Lint all six study designs (five GEMM versions plus π) up front, so
    // at `--lint=deny` the binary exits before compiling anything.
    let gate_kernels: Vec<_> = GemmVersion::ALL
        .iter()
        .map(|&v| gemm::build(v, &gp))
        .chain(std::iter::once(pi::build(&pp)))
        .collect();
    session.gate(&gate_kernels.iter().collect::<Vec<_>>());
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
                let with =
                    instrumented_fit(&acc.fit, threads, &prof.for_design(acc), op, &hls.cost);
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
    write!(w, "{block}")?;

    writeln!(w, "\n== E2: study 2 (π accelerator) ==\n")?;
    let OvhNode::Accel(acc) = out.reports[pi_compile.index()]
        .outcome
        .as_ref()
        .expect("pi compile node")
    else {
        unreachable!("compile node produced a non-accel payload")
    };
    if let Some(plan) = &acc.probe_plan {
        writeln!(w, "  {}", plan.summary())?;
    }
    let with = instrumented_fit(&acc.fit, threads, &prof.for_design(acc), &op, &hls.cost);
    let o = with.overhead_vs(&acc.fit);
    writeln!(
        w,
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
    )?;
    writeln!(
        w,
        "  (paper: registers +1.3%, ALMs +1.5%, fmax −1 MHz at 148 MHz)"
    )?;

    writeln!(
        w,
        "\n== per-counter contribution (§V-B: \"each of the counters contributes similarly\") ==\n"
    )?;
    let none = profiling_fit(
        threads,
        &ProfilingConfig {
            counters: CounterSet::NONE,
            ..prof.clone()
        },
        &op,
    );
    for c in ALL_COUNTER_CLASSES {
        let f = profiling_fit(
            threads,
            &ProfilingConfig {
                counters: CounterSet::NONE.with(c),
                ..prof.clone()
            },
            &op,
        );
        writeln!(
            w,
            "  {:<10} +{:>4} ALMs, +{:>4} registers",
            c.name(),
            f.alms - none.alms,
            f.registers - none.registers
        )?;
    }
    let stats = cache.stats();
    writeln!(
        w,
        "\n({jobs} workers; {} designs compiled once each)",
        stats.entries
    )
}
