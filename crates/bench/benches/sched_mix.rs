//! Makespan of a heterogeneous workload mix on the DAG scheduler vs the
//! same work on a fixed fan-out pool.
//!
//! The mix is one long profiled GEMM run plus four short profiled π runs,
//! each followed by a deliberately heavy trace analysis. The fixed-pool
//! baseline fans the five runs out and then performs every analysis
//! serially after the join — the pre-DAG structure of the sweeps. The
//! graph version makes each analysis an `Analyze` node dependent only on
//! its own run, so short-run analyses overlap the long GEMM simulation.
//!
//! On a machine with ≥ 4 hardware threads the DAG makespan must be
//! shorter than the fixed-pool makespan at `--jobs 4`; both orderings
//! must reduce to the same checksum.
//!
//! Run with `cargo bench --bench sched_mix`.

use bench::args::default_jobs;
use bench::engine::BatchEngine;
use bench::graph::{NodeCtx, NodeKind, TaskGraph};
use bench::harness::Group;
use bench::{
    gemm_launch, gemm_sim_config, pi_launch, pi_sim_config, run_profiled_with, ProfiledRun,
};
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use nymble_hls::{AccelCache, HlsConfig};
use nymble_ir::Kernel;
use paraver::analysis::StateProfile;
use paraver::states;
use std::cell::Cell;

const JOBS: usize = 4;
const THREADS: u32 = 4;
/// Repetitions of the state-profile pass per analysis: enough work that
/// overlapping analyses with the long GEMM run is visible in the makespan.
const ANALYZE_REPS: usize = 120;

/// One workload of the mix: a kernel plus its launch/sim configuration.
struct Workload {
    label: String,
    kernel: Kernel,
    sim: fpga_sim::SimConfig,
    launch: Vec<fpga_sim::memimg::LaunchArg>,
}

fn mix() -> Vec<Workload> {
    let gp = GemmParams {
        dim: 48,
        threads: THREADS,
        ..Default::default()
    };
    let mut v = vec![Workload {
        label: "gemm_v3".to_string(),
        kernel: gemm::build(GemmVersion::Vectorized, &gp),
        sim: gemm_sim_config(),
        launch: gemm_launch(&gp),
    }];
    // Step counts divisible by threads × block size (the π kernel's launch
    // contract), spanning a 2x range so the mix stays heterogeneous.
    for steps in [32_000u64, 40_000, 48_000, 64_000] {
        let pp = PiParams {
            steps,
            threads: THREADS,
            bs: 8,
        };
        v.push(Workload {
            label: format!("pi_{steps}"),
            kernel: pi::build(&pp),
            sim: pi_sim_config(),
            launch: pi_launch(&pp),
        });
    }
    v
}

/// The heavy post-processing step: fold repeated state profiles of the
/// trace into a checksum (order-independent across runs — the caller sums).
fn analyze(pr: &ProfiledRun) -> u64 {
    let mut acc = pr.result.total_cycles ^ (pr.trace.records.len() as u64);
    for _ in 0..ANALYZE_REPS {
        let prof = StateProfile::compute(&pr.trace.records, THREADS);
        acc = acc
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add((prof.fraction(states::RUNNING) * 1e9) as u64);
    }
    acc
}

/// Fixed-pool shape: fan the five runs out as dependency-free `Run` nodes,
/// join, then analyze serially.
fn flat_pass(engine: &BatchEngine, cache: &AccelCache, hls: &HlsConfig, mix: &[Workload]) -> u64 {
    let mut graph: TaskGraph<'_, ProfiledRun> = TaskGraph::new();
    for w in mix {
        graph.add(NodeKind::Run, w.label.clone(), &[], move |_| {
            run_profiled_with(
                cache,
                &w.kernel,
                hls,
                &w.sim,
                &Default::default(),
                &w.launch,
            )
        });
    }
    engine
        .run_graph(graph)
        .reports
        .iter()
        .map(|r| analyze(r.outcome.as_ref().expect("mix run")))
        .fold(0u64, u64::wrapping_add)
}

/// DAG shape: each analysis depends only on its own run, so it overlaps
/// every other still-running simulation.
fn dag_pass(engine: &BatchEngine, cache: &AccelCache, hls: &HlsConfig, mix: &[Workload]) -> u64 {
    enum MixNode {
        Ran(Box<ProfiledRun>),
        Sum(u64),
    }
    let mut graph: TaskGraph<'_, MixNode> = TaskGraph::new();
    let analyze_ids: Vec<_> = mix
        .iter()
        .map(|w| {
            let run = graph.add(
                NodeKind::Run,
                w.label.clone(),
                &[],
                move |_: &NodeCtx<'_, MixNode>| {
                    run_profiled_with(
                        cache,
                        &w.kernel,
                        hls,
                        &w.sim,
                        &Default::default(),
                        &w.launch,
                    )
                    .map(|pr| MixNode::Ran(Box::new(pr)))
                },
            );
            graph.add(
                NodeKind::Analyze,
                format!("analyze:{}", w.label),
                &[run],
                move |ctx: &NodeCtx<'_, MixNode>| {
                    let MixNode::Ran(pr) = ctx.dep(0).outcome.as_ref().expect("mix run") else {
                        unreachable!("run node produced a non-run payload")
                    };
                    Ok(MixNode::Sum(analyze(pr)))
                },
            )
        })
        .collect();
    let reduce = graph.add(
        NodeKind::Reduce,
        "checksum",
        &analyze_ids,
        |ctx: &NodeCtx<'_, MixNode>| {
            let mut acc = 0u64;
            for dep in ctx.deps() {
                let MixNode::Sum(s) = dep.outcome.as_ref().expect("analysis") else {
                    unreachable!("analyze node produced a non-sum payload")
                };
                acc = acc.wrapping_add(*s);
            }
            Ok(MixNode::Sum(acc))
        },
    );
    let out = engine.run_graph(graph);
    let MixNode::Sum(total) = out.reports[reduce.index()]
        .outcome
        .as_ref()
        .expect("reduce")
    else {
        unreachable!("reduce node produced a non-sum payload")
    };
    *total
}

fn main() {
    let hls = HlsConfig::default();
    let cache = AccelCache::new();
    let engine = BatchEngine::new(JOBS);
    let mix = mix();
    // Compile everything up front so both passes measure pure scheduling
    // (every run hits the cache).
    for w in &mix {
        cache.get_or_compile(&w.kernel, &hls);
    }

    let g = Group::new("sched_mix", 3);
    let flat_sum = Cell::new(0u64);
    let flat = g.bench(&format!("flat_pool/jobs={JOBS}"), || {
        flat_sum.set(flat_pass(&engine, &cache, &hls, &mix));
    });
    let dag_sum = Cell::new(0u64);
    let dag = g.bench(&format!("dag_overlap/jobs={JOBS}"), || {
        dag_sum.set(dag_pass(&engine, &cache, &hls, &mix));
    });
    assert_eq!(
        flat_sum.get(),
        dag_sum.get(),
        "DAG overlap changed an analysis checksum"
    );

    let speedup = flat.as_secs_f64() / dag.as_secs_f64();
    let hw = default_jobs();
    eprintln!(
        "[bench] sched_mix/speedup                       DAG overlap is {speedup:.2}x vs fixed pool ({hw} hardware threads)"
    );
    if hw >= 4 {
        assert!(
            dag < flat,
            "expected a shorter DAG makespan on a {hw}-thread machine: dag {:.3}s vs flat {:.3}s",
            dag.as_secs_f64(),
            flat.as_secs_f64()
        );
    } else {
        eprintln!(
            "[bench] sched_mix/speedup                       threshold skipped: only {hw} hardware thread(s)"
        );
    }
}
