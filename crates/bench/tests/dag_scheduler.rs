//! Scheduler-level guarantees of the work-stealing DAG executor, checked
//! directly on [`bench::graph::TaskGraph`] (the sweep-level determinism
//! suite lives in `batch_engine.rs`):
//!
//! * **every edge is respected** — a dependency's body *finishes* before
//!   any dependent's body starts, across random DAG shapes and worker
//!   counts (miniprop property);
//! * **every node runs exactly once and the graph drains** — a deadlock
//!   would hang the test, a lost node would fail the completion count;
//! * **reduce output is byte-identical** at `--jobs 1`, `2` and `8`, and a
//!   sweep reduces to the same checksum as a fan-out-then-analyze pool;
//! * **nodes overlap** — at `--jobs 2` and `4`, on any core count: the
//!   bodies sleep on a shared counter instead of computing.

use bench::engine::BatchEngine;
use bench::graph::{NodeCtx, NodeId, NodeKind, NodeReport, TaskGraph};
use bench::{pi_launch, pi_sim_config, run_profiled_with, ProfiledRun};
use kernels::pi::{self, PiParams};
use miniprop::forall;
use nymble_hls::{AccelCache, HlsConfig};
use paraver::analysis::StateProfile;
use paraver::states;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Random DAGs (up to 40 nodes, edges only point backwards — the same
/// invariant `TaskGraph::add` enforces) executed at 1, 2 or 8 workers.
/// Each node takes a globally ordered stamp when its body starts and
/// another when it ends; for every edge `d -> i` the dependency's *end*
/// stamp must precede the dependent's *start* stamp.
#[test]
fn random_dags_complete_and_respect_every_edge() {
    forall(48, |rng| {
        let n = rng.range_usize(1, 40);
        let jobs = *rng.pick(&[1usize, 2, 8]);
        let clock = AtomicU64::new(0);
        let clock = &clock;
        let mut graph: TaskGraph<'_, (u64, u64)> = TaskGraph::new();
        let mut ids: Vec<NodeId> = Vec::with_capacity(n);
        let mut deps_of: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            let dep_idx: Vec<usize> = (0..i).filter(|_| rng.chance(1, 4)).collect();
            let dep_handles: Vec<NodeId> = dep_idx.iter().map(|&d| ids[d]).collect();
            let id = graph.add(
                NodeKind::Run,
                format!("n{i}"),
                &dep_handles,
                move |_: &NodeCtx<'_, (u64, u64)>| {
                    let start = clock.fetch_add(1, Ordering::SeqCst);
                    // A little non-uniform work so workers interleave.
                    std::hint::black_box((0..(i as u64 % 7) * 500).sum::<u64>());
                    let end = clock.fetch_add(1, Ordering::SeqCst);
                    Ok((start, end))
                },
            );
            ids.push(id);
            deps_of.push(dep_idx);
        }

        let out = BatchEngine::new(jobs).run_graph(graph);
        assert_eq!(out.reports.len(), n, "jobs={jobs}: report per node");
        assert_eq!(
            out.stats.total_executed(),
            n as u64,
            "jobs={jobs}: every node executed exactly once"
        );
        for (i, deps) in deps_of.iter().enumerate() {
            let &(start_i, end_i) = out.reports[i]
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("jobs={jobs}: node {i} failed: {e}"));
            assert!(start_i < end_i, "stamps are globally ordered");
            for &d in deps {
                let &(_, end_d) = out.reports[d].outcome.as_ref().unwrap();
                assert!(
                    end_d < start_i,
                    "jobs={jobs}: edge {d} -> {i} violated (dep ended at {end_d}, \
                     dependent started at {start_i})"
                );
            }
        }
    });
}

/// The diamond every sweep is built from — Compile -> Run* -> Analyze* ->
/// Reduce — must produce a byte-identical reduced string at every worker
/// count, because the Reduce node iterates its dependencies in edge
/// declaration order regardless of completion order.
#[test]
fn reduce_output_is_byte_identical_across_worker_counts() {
    let render = |jobs: usize| {
        let mut graph: TaskGraph<'_, String> = TaskGraph::new();
        let compile = graph.add(
            NodeKind::Compile,
            "compile",
            &[],
            |_: &NodeCtx<'_, String>| Ok("ok".to_string()),
        );
        let analyze_ids: Vec<NodeId> = (0..12)
            .map(|i| {
                let run = graph.add(
                    NodeKind::Run,
                    format!("run{i}"),
                    &[compile],
                    move |_: &NodeCtx<'_, String>| {
                        // Uneven workloads: completion order differs from
                        // submission order whenever jobs > 1.
                        std::hint::black_box((0..((12 - i) as u64) * 2_000).sum::<u64>());
                        Ok(format!("r{i}={}", i * i))
                    },
                );
                graph.add(
                    NodeKind::Analyze,
                    format!("analyze{i}"),
                    &[run],
                    move |ctx: &NodeCtx<'_, String>| {
                        Ok(format!("[{}]", ctx.dep(0).outcome.as_ref().unwrap()))
                    },
                )
            })
            .collect();
        let reduce = graph.add(
            NodeKind::Reduce,
            "table",
            &analyze_ids,
            |ctx: &NodeCtx<'_, String>| {
                let mut s = String::new();
                for dep in ctx.deps() {
                    s.push_str(dep.outcome.as_ref().unwrap());
                    s.push('\n');
                }
                Ok(s)
            },
        );
        let out = BatchEngine::new(jobs).run_graph(graph);
        out.reports[reduce.index()]
            .outcome
            .as_ref()
            .unwrap()
            .clone()
    };
    let serial = render(1);
    assert!(serial.contains("[r0=0]") && serial.contains("[r11=121]"));
    for jobs in [2, 8] {
        assert_eq!(serial, render(jobs), "jobs={jobs}: reduce output differs");
    }
}

/// π runs of uneven length, analysed two ways: fanned out and analysed
/// after the join, or each followed by its own `Analyze` node and summed in
/// a `Reduce`. Both shapes reduce to the same checksum.
#[test]
fn dag_and_flat_shapes_reduce_to_the_same_checksum() {
    let (cache, hls, sim) = (AccelCache::new(), HlsConfig::default(), pi_sim_config());
    let pis = [256, 384, 512, 640].map(|steps| PiParams {
        steps,
        ..Default::default()
    });
    let run = |p: &PiParams| {
        let prof = Default::default();
        let pr = run_profiled_with(&cache, &pi::build(p), &hls, &sim, &prof, &pi_launch(p))?;
        Ok((Some(Box::new(pr)), 0))
    };
    let analyze = |pr: &ProfiledRun| {
        let t = &pr.trace;
        (0..3).fold(pr.result.total_cycles, |acc, _| {
            let running =
                StateProfile::compute(&t.records, t.meta.num_threads).fraction(states::RUNNING);
            acc.wrapping_mul(0x100_0000_01b3)
                .wrapping_add((running * 1e9) as u64)
        })
    };
    // A run carries its trace; an analysis or the reduce carries a sum.
    type Node = (Option<Box<ProfiledRun>>, u64);
    let ran = |r: &NodeReport<Node>| analyze(r.outcome.as_ref().unwrap().0.as_ref().unwrap());
    let sum = |r: &NodeReport<Node>| r.outcome.as_ref().unwrap().1;
    let engine = BatchEngine::new(2);

    let mut flat: TaskGraph<'_, Node> = TaskGraph::new();
    for p in &pis {
        flat.add(NodeKind::Run, "run", &[], move |_| run(p));
    }
    let flat_reports = engine.run_graph(flat).reports;
    let flat_sum = flat_reports.iter().map(ran).fold(0, u64::wrapping_add);

    let mut dag: TaskGraph<'_, Node> = TaskGraph::new();
    let analyses: Vec<NodeId> = pis
        .iter()
        .map(|p| {
            let r = dag.add(NodeKind::Run, "run", &[], move |_| run(p));
            dag.add(NodeKind::Analyze, "analyze", &[r], move |ctx| {
                Ok((None, ran(ctx.dep(0))))
            })
        })
        .collect();
    let reduce = dag.add(NodeKind::Reduce, "sum", &analyses, move |ctx| {
        Ok((None, ctx.deps().map(sum).fold(0, u64::wrapping_add)))
    });
    let dag_sum = sum(&engine.run_graph(dag).reports[reduce.index()]);
    assert_eq!(flat_sum, dag_sum, "the DAG shape changed the checksum");
}

/// Every wait in the overlap tests ends this long after the test starts, so
/// an engine that runs the nodes one at a time fails instead of hanging.
const DEADLINE: Duration = Duration::from_millis(1500);

/// Sleep until `count` reaches `n`; false if `deadline` passes first.
fn reached(count: &AtomicUsize, n: usize, deadline: Instant) -> bool {
    while count.load(Ordering::SeqCst) < n {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// At `--jobs 2` a short run's analysis completes while a long run is
/// inside its body: the long run enters (count 1) and waits for the
/// analysis (count 2), which waits for the long run to enter.
#[test]
fn analyze_completes_while_a_long_run_is_inside_its_body() {
    let (count, deadline) = (&AtomicUsize::new(0), Instant::now() + DEADLINE);
    let mut graph: TaskGraph<'_, bool> = TaskGraph::new();
    let long = graph.add(NodeKind::Run, "long", &[], move |_| {
        count.fetch_add(1, Ordering::SeqCst);
        Ok(reached(count, 2, deadline))
    });
    let short = graph.add(NodeKind::Run, "short", &[], |_| Ok(true));
    let analyze = graph.add(NodeKind::Analyze, "analyze", &[short], move |_| {
        let long_inside = reached(count, 1, deadline);
        count.fetch_add(1, Ordering::SeqCst);
        Ok(long_inside)
    });
    let out = BatchEngine::new(2).run_graph(graph);
    let met = |id: NodeId| out.reports[id.index()].outcome.as_ref().is_ok_and(|&m| m);
    assert!(
        met(analyze),
        "the long run was not inside its body while the analysis ran"
    );
    assert!(
        met(long),
        "the analysis did not complete while the long run was inside its body"
    );
}

/// At `--jobs 4` four runs are inside their bodies at once: each bumps the
/// count and waits for all four.
#[test]
fn four_runs_are_inside_their_bodies_at_once() {
    let (count, deadline) = (&AtomicUsize::new(0), Instant::now() + DEADLINE);
    let mut graph: TaskGraph<'_, bool> = TaskGraph::new();
    for _ in 0..4 {
        graph.add(NodeKind::Run, "run", &[], move |_| {
            count.fetch_add(1, Ordering::SeqCst);
            Ok(reached(count, 4, deadline))
        });
    }
    let out = BatchEngine::new(4).run_graph(graph);
    let met = out
        .reports
        .iter()
        .filter(|r| r.outcome.as_ref().is_ok_and(|&m| m))
        .count();
    assert_eq!(
        met, 4,
        "only {met} of 4 runs saw all four inside their bodies"
    );
}
