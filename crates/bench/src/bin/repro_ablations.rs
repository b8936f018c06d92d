//! Ablation study of the simulator design decisions DESIGN.md calls out —
//! not a paper table, but the evidence that each mechanism is load-bearing
//! for the reproduced results:
//!
//! * **MSHR depth** — bounded per-port memory-level parallelism is what
//!   gives the *Partial Vectorization* step its ~2× (not 4×) gain;
//! * **XOR bank hashing** — without it, the GEMM's power-of-2 strides
//!   collapse onto one DRAM bank and every version flatlines;
//! * **line buffers** — per-(thread, buffer) single-line caches are what
//!   make sequential A-row reads cheap in the scalar versions;
//! * **sampling period** — the §IV-B.2 trade-off: "the higher the period,
//!   the more data is produced" (rate vs. volume).
//!
//! Usage: `repro_ablations [--dim N] [--jobs N] [--mode cycle|analytical]
//!                         [--lint[=deny|warn|off]] [--perf-lint[=deny|warn|off]]
//!                         [--profile[=fixed|auto[,budget=N]]]`
//!
//! `--profile=auto[,budget=N]` runs the profiled sampling-period grid
//! under the auto-probe plan (counters and region probes selected by the
//! knapsack pass) instead of the fixed counter set.
//!
//! The whole study is one task graph on the work-stealing engine: two
//! `Compile` nodes (v2 and v3) gate sixteen `Run` nodes across the four
//! grids, and one `Reduce` node per section renders its rows in submission
//! order — so a run of any section can overlap any other, and the tables
//! are byte-identical for every `--jobs` value. A run that fails with a
//! typed simulator error becomes a diagnostic row, not an abort.
//!
//! `--mode analytical` prints the roofline predictions for the two study
//! kernels and explains which of the ablated mechanisms the fast mode
//! abstracts away (the grids themselves need the cycle-level simulator).
//!
//! A stdout closed by its reader (`repro_ablations | head -n 1`) ends the run
//! with exit 0; any other write error is one stderr line and exit 1.

use bench::args::Mode;
use bench::engine::BatchEngine;
use bench::graph::{NodeCtx, NodeId, NodeKind, TaskGraph};
use bench::session::Session;
use bench::{
    analytic_report, gemm_launch, gemm_sim_config, run_profiled_with, run_unprofiled_with,
};
use fpga_sim::{RunResult, SimConfig};
use hls_profiling::ProfilingConfig;
use kernels::gemm::{self, GemmParams, GemmVersion};
use nymble_hls::AccelCache;
use std::fmt::Write as _;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Node payload of the ablation graph.
enum AblNode {
    Compiled,
    Sim(Box<RunResult>),
    Trace {
        bytes: u64,
        records: usize,
        flushes: usize,
    },
    Section(String),
}

fn main() -> ExitCode {
    let session = Session::start("repro_ablations", &["--dim"]);
    let mut out = std::io::stdout().lock();
    match run(&session, &mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_ablations: cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(session: &Session, w: &mut impl Write) -> std::io::Result<()> {
    let dim = session.flag("--dim", 64i64);
    let jobs = session.jobs;
    let p = GemmParams {
        dim,
        ..Default::default()
    };
    session.check_shape(p.validate());
    let base = gemm_sim_config();
    let launch = gemm_launch(&p);
    let v2 = gemm::build(GemmVersion::NoCritical, &p);
    let v3 = gemm::build(GemmVersion::Vectorized, &p);
    session.gate(&[&v2, &v3]);
    let hls = &session.hls();
    let cache = AccelCache::new();
    let engine = BatchEngine::new(jobs);

    if session.mode == Mode::Analytical {
        writeln!(
            w,
            "== ablation kernels through the analytical fast mode (base config) ==\n"
        )?;
        for (tag, k) in [("v2 (no-critical)", &v2), ("v3 (vectorized)", &v3)] {
            match analytic_report(&cache, k, &base, &launch) {
                Some(r) => {
                    writeln!(
                        w,
                        "  {tag:<20} {:>12} predicted cycles   bound: {}",
                        r.total_cycles, r.bound
                    )?;
                }
                None => writeln!(w, "  {tag:<20} unresolvable")?,
            }
        }
        writeln!(
            w,
            "\nThe roofline model prices steady-state bandwidth and latency; it abstracts\n\
             away MSHR depth, bank hashing and line-buffer state — exactly the mechanisms\n\
             this binary ablates. Run --mode=cycle for the actual grids."
        )?;
        return Ok(());
    }

    // --- build the whole study as one dependency graph -------------------
    const MSHRS: [u32; 4] = [1, 2, 4, 8];
    const HASHING: [(&str, bool); 2] = [("hashed", true), ("linear", false)];
    const LINE_BUFS: [(&str, bool); 2] = [("enabled", true), ("disabled", false)];
    const PERIODS: [u64; 4] = [500, 2_000, 10_000, 50_000];

    let mut graph: TaskGraph<'_, AblNode> = TaskGraph::new();
    let (cache, launch, base, v2, v3) = (&cache, &launch, &base, &v2, &v3);
    let c2 = graph.add(
        NodeKind::Compile,
        "compile:v2",
        &[],
        move |_: &NodeCtx<'_, AblNode>| {
            cache.get_or_compile(v2, hls);
            Ok(AblNode::Compiled)
        },
    );
    let c3 = graph.add(
        NodeKind::Compile,
        "compile:v3",
        &[],
        move |_: &NodeCtx<'_, AblNode>| {
            cache.get_or_compile(v3, hls);
            Ok(AblNode::Compiled)
        },
    );

    // MSHR grid: v2 and v3 at each depth, then one reduce for the table.
    let mut mshr_ids = Vec::new();
    for &mshrs in MSHRS.iter() {
        for (kernel, tag, dep) in [(v2, "v2", c2), (v3, "v3", c3)] {
            let cfg = SimConfig {
                port_mshrs: mshrs,
                ..base.clone()
            };
            mshr_ids.push(graph.add(
                NodeKind::Run,
                format!("mshr{mshrs}_{tag}"),
                &[dep],
                move |_: &NodeCtx<'_, AblNode>| {
                    run_unprofiled_with(cache, kernel, hls, &cfg, launch)
                        .map(|r| AblNode::Sim(Box::new(r)))
                },
            ));
        }
    }
    let mshr_reduce = graph.add(
        NodeKind::Reduce,
        "mshr_table",
        &mshr_ids,
        move |ctx: &NodeCtx<'_, AblNode>| {
            let mut block = String::new();
            for (i, &mshrs) in MSHRS.iter().enumerate() {
                match (&ctx.dep(2 * i).outcome, &ctx.dep(2 * i + 1).outcome) {
                    (Ok(AblNode::Sim(r2)), Ok(AblNode::Sim(r3))) => writeln!(
                        block,
                        "{:>6} {:>14} {:>14} {:>7.2}x",
                        mshrs,
                        r2.total_cycles,
                        r3.total_cycles,
                        r2.total_cycles as f64 / r3.total_cycles as f64
                    )
                    .unwrap(),
                    (a, b) => {
                        let e = a.as_ref().err().or(b.as_ref().err()).unwrap();
                        writeln!(block, "{mshrs:>6} failed: {e}").unwrap();
                    }
                }
            }
            Ok(AblNode::Section(block))
        },
    );

    // Bank-hashing pair (v2 only).
    let mut hash_ids = Vec::new();
    for &(label, hash) in HASHING.iter() {
        let cfg = SimConfig {
            dram_bank_hash: hash,
            ..base.clone()
        };
        hash_ids.push(graph.add(
            NodeKind::Run,
            label,
            &[c2],
            move |_: &NodeCtx<'_, AblNode>| {
                run_unprofiled_with(cache, v2, hls, &cfg, launch).map(|r| AblNode::Sim(Box::new(r)))
            },
        ));
    }
    let hash_reduce = graph.add(
        NodeKind::Reduce,
        "hash_table",
        &hash_ids,
        move |ctx: &NodeCtx<'_, AblNode>| {
            let mut block = String::new();
            for ((label, _), dep) in HASHING.iter().zip(ctx.deps()) {
                match &dep.outcome {
                    Ok(AblNode::Sim(r2)) => writeln!(
                        block,
                        "  {label:<7} v2: {:>12} cycles, {:>9} contended requests",
                        r2.total_cycles, r2.stats.dram_contended
                    )
                    .unwrap(),
                    Ok(_) => unreachable!("run node produced a non-sim payload"),
                    Err(e) => writeln!(block, "  {label:<7} failed: {e}").unwrap(),
                }
            }
            Ok(AblNode::Section(block))
        },
    );

    // Line-buffer pair (v2 only).
    let mut lbuf_ids = Vec::new();
    for &(label, lbuf) in LINE_BUFS.iter() {
        let mut cfg = base.clone();
        cfg.timing.line_buffers = lbuf;
        lbuf_ids.push(graph.add(
            NodeKind::Run,
            label,
            &[c2],
            move |_: &NodeCtx<'_, AblNode>| {
                run_unprofiled_with(cache, v2, hls, &cfg, launch).map(|r| AblNode::Sim(Box::new(r)))
            },
        ));
    }
    let lbuf_reduce = graph.add(
        NodeKind::Reduce,
        "linebuf_table",
        &lbuf_ids,
        move |ctx: &NodeCtx<'_, AblNode>| {
            let mut block = String::new();
            for ((label, _), dep) in LINE_BUFS.iter().zip(ctx.deps()) {
                match &dep.outcome {
                    Ok(AblNode::Sim(r2)) => writeln!(
                        block,
                        "  {label:<9} v2: {:>12} cycles, hit rate {:>5.1}%, {:>9} line fetches",
                        r2.total_cycles,
                        r2.stats.read_hit_rate() * 100.0,
                        r2.stats.line_fetches
                    )
                    .unwrap(),
                    Ok(_) => unreachable!("run node produced a non-sim payload"),
                    Err(e) => writeln!(block, "  {label:<9} failed: {e}").unwrap(),
                }
            }
            Ok(AblNode::Section(block))
        },
    );

    // Sampling-period grid (profiled v3).
    let mut period_ids = Vec::new();
    for &period in PERIODS.iter() {
        let prof = ProfilingConfig {
            sampling_period: period,
            ..Default::default()
        };
        period_ids.push(graph.add(
            NodeKind::Run,
            format!("period{period}"),
            &[c3],
            move |_: &NodeCtx<'_, AblNode>| {
                let run = run_profiled_with(cache, v3, hls, base, &prof, launch)?;
                Ok(AblNode::Trace {
                    bytes: run.trace.flushed_bytes,
                    records: run.trace.records.len(),
                    flushes: run.trace.flush_count,
                })
            },
        ));
    }
    let period_reduce = graph.add(
        NodeKind::Reduce,
        "sampling_table",
        &period_ids,
        move |ctx: &NodeCtx<'_, AblNode>| {
            let mut block = String::new();
            for (&period, dep) in PERIODS.iter().zip(ctx.deps()) {
                match &dep.outcome {
                    Ok(AblNode::Trace {
                        bytes,
                        records,
                        flushes,
                    }) => writeln!(block, "{period:>10} {bytes:>12} {records:>10} {flushes:>8}")
                        .unwrap(),
                    Ok(_) => unreachable!("run node produced a non-trace payload"),
                    Err(e) => writeln!(block, "{period:>10} failed: {e}").unwrap(),
                }
            }
            Ok(AblNode::Section(block))
        },
    );

    let out = engine.run_graph(graph);
    let section = |id: NodeId| -> &str {
        match out.reports[id.index()].outcome.as_ref() {
            Ok(AblNode::Section(s)) => s,
            Ok(_) => unreachable!("reduce node produced a non-section payload"),
            Err(e) => unreachable!("reduce node failed: {e}"),
        }
    };

    writeln!(
        w,
        "== MSHR depth: what Partial Vectorization's gain depends on ==\n"
    )?;
    writeln!(
        w,
        "{:>6} {:>14} {:>14} {:>8}",
        "MSHRs", "v2 cycles", "v3 cycles", "v3 gain"
    )?;
    write!(w, "{}", section(mshr_reduce))?;

    writeln!(
        w,
        "\n== DRAM bank hashing: power-of-2 strides vs the bank map ==\n"
    )?;
    write!(w, "{}", section(hash_reduce))?;

    writeln!(
        w,
        "\n== per-port line buffers: sequential-stream reuse ==\n"
    )?;
    write!(w, "{}", section(lbuf_reduce))?;

    writeln!(
        w,
        "\n== sampling period: trace volume vs temporal resolution (§IV-B.2) ==\n"
    )?;
    writeln!(
        w,
        "{:>10} {:>12} {:>10} {:>8}",
        "period", "trace bytes", "records", "flushes"
    )?;
    write!(w, "{}", section(period_reduce))?;
    // The profiled grid above ran under this plan (v3 is already cached,
    // so re-fetching it here is free).
    if let Some(plan) = &cache.get_or_compile(v3, hls).probe_plan {
        writeln!(w, "\n{}", plan.summary())?;
    }

    let stats = cache.stats();
    let runs = out
        .reports
        .iter()
        .filter(|r| matches!(r.kind, NodeKind::Run))
        .count();
    writeln!(
        w,
        "\n({jobs} workers; {} runs shared {} compiled kernels)",
        runs, stats.entries
    )
}
