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
//!                         [--bench-json PATH] [--lint[=deny|warn|off]]
//!                         [--perf-lint[=deny|warn|off]]
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

use bench::args::{Args, Mode};
use bench::engine::BatchEngine;
use bench::graph::{NodeCtx, NodeId, NodeKind, TaskGraph};
use bench::harness::SnapshotTimer;
use bench::{
    analytic_report, gemm_launch, gemm_sim_config, lint_gate, perf_lint_gate, run_profiled_with,
    run_unprofiled_with,
};
use fpga_sim::{RunResult, SimConfig};
use hls_profiling::ProfilingConfig;
use kernels::gemm::{self, GemmParams, GemmVersion};
use nymble_hls::{AccelCache, HlsConfig};
use std::fmt::Write as _;

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

fn main() {
    let timer = SnapshotTimer::start();
    let args = Args::parse();
    let dim = args.i64("--dim").unwrap_or(64);
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
    let p = GemmParams {
        dim,
        ..Default::default()
    };
    let base = gemm_sim_config();
    let launch = gemm_launch(&p);
    let v2 = gemm::build(GemmVersion::NoCritical, &p);
    let v3 = gemm::build(GemmVersion::Vectorized, &p);
    if let Err(report) = lint_gate(&[&v2, &v3], lint) {
        eprintln!("{report}");
        std::process::exit(1);
    }
    if let Err(report) = perf_lint_gate(&[&v2, &v3], perf_lint) {
        eprintln!("{report}");
        std::process::exit(1);
    }
    let hls = HlsConfig {
        probe: profile.probe(),
        ..HlsConfig::default()
    };
    let hls = &hls;
    let cache = AccelCache::new();
    let engine = BatchEngine::new(jobs);

    if mode == Mode::Analytical {
        println!("== ablation kernels through the analytical fast mode (base config) ==\n");
        let mut total = 0u64;
        for (tag, k) in [("v2 (no-critical)", &v2), ("v3 (vectorized)", &v3)] {
            match analytic_report(&cache, k, &base, &launch) {
                Some(r) => {
                    total += r.total_cycles;
                    println!(
                        "  {tag:<20} {:>12} predicted cycles   bound: {}",
                        r.total_cycles, r.bound
                    );
                }
                None => println!("  {tag:<20} unresolvable"),
            }
        }
        println!(
            "\nThe roofline model prices steady-state bandwidth and latency; it abstracts\n\
             away MSHR depth, bank hashing and line-buffer state — exactly the mechanisms\n\
             this binary ablates. Run --mode=cycle for the actual grids."
        );
        if let Some(path) = &bench_json {
            let snap = timer
                .finish("repro_ablations", mode, total)
                .param("dim", dim);
            snap.write(path).expect("write --bench-json");
            println!("\nperf snapshot written to {}", path.display());
        }
        return;
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
        let cfg = SimConfig {
            line_buffers: lbuf,
            ..base.clone()
        };
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
    let total_sim: u64 = out
        .reports
        .iter()
        .filter_map(|r| match r.outcome.as_ref() {
            Ok(AblNode::Sim(res)) => Some(res.total_cycles),
            _ => None,
        })
        .sum();

    println!("== MSHR depth: what Partial Vectorization's gain depends on ==\n");
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "MSHRs", "v2 cycles", "v3 cycles", "v3 gain"
    );
    print!("{}", section(mshr_reduce));

    println!("\n== DRAM bank hashing: power-of-2 strides vs the bank map ==\n");
    print!("{}", section(hash_reduce));

    println!("\n== per-port line buffers: sequential-stream reuse ==\n");
    print!("{}", section(lbuf_reduce));

    println!("\n== sampling period: trace volume vs temporal resolution (§IV-B.2) ==\n");
    println!(
        "{:>10} {:>12} {:>10} {:>8}",
        "period", "trace bytes", "records", "flushes"
    );
    print!("{}", section(period_reduce));
    // The profiled grid above ran under this plan (v3 is already cached,
    // so re-fetching it here is free).
    if let Some(plan) = &cache.get_or_compile(v3, hls).probe_plan {
        println!("\n{}", plan.summary());
    }

    let stats = cache.stats();
    let runs = out
        .reports
        .iter()
        .filter(|r| matches!(r.kind, NodeKind::Run))
        .count();
    println!(
        "\n({jobs} workers; {} runs shared {} compiled kernels)",
        runs, stats.entries
    );
    if let Some(path) = &bench_json {
        let probe_alms = cache
            .get_or_compile(v3, hls)
            .probe_plan
            .as_ref()
            .map(|pl| pl.cost_alms as f64)
            .unwrap_or(0.0);
        let snap = timer
            .finish("repro_ablations", mode, total_sim)
            .param("dim", dim)
            .param("jobs", jobs)
            .param("profile", profile.name())
            .with_extra("probe_overhead", probe_alms)
            .with_extra("worker_utilization", out.stats.utilization())
            .with_extra("sched_steals", out.stats.steals as f64)
            .with_extra("sched_parks", out.stats.parks as f64)
            .with_extra("sched_makespan_seconds", out.stats.makespan.as_secs_f64());
        snap.write(path).expect("write --bench-json");
        println!("\nperf snapshot written to {}", path.display());
    }
}
