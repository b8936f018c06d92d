//! # engine — work-stealing DAG scheduler for experiment sweeps
//!
//! A sweep (the GEMM version table, the π scaling study, an ablation grid)
//! is a dependency graph: compile kernels → run N simulations → per-run
//! analysis → cross-run tables. [`BatchEngine::run_graph`] executes a
//! [`TaskGraph`] of such nodes on a work-stealing worker pool while keeping
//! every observable output — tables, trace bundles, error reports —
//! **byte-identical to a serial run**:
//!
//! * each worker owns a deque; it pops its own front (LIFO, so a node it
//!   just released runs hot in cache) and steals from the *back* of a
//!   victim's deque when its own is empty;
//! * a node becomes runnable the instant its last dependency completes —
//!   the completing worker decrements each dependent's indegree and pushes
//!   newly released nodes onto its own deque;
//! * idle workers park on a condvar guarded by a queued/completed counter
//!   pair; the counters are updated under that same mutex *before* deque
//!   pushes, so no wakeup is ever lost and the queue accounting can never
//!   underflow;
//! * results land in a slot vector indexed by node-insertion order, so the
//!   returned reports (and everything reduced from them) never depend on
//!   which worker finished first;
//! * node failures are values ([`crate::BenchError`] inside
//!   [`NodeReport::outcome`]) and **dependents still run** — error policy
//!   (diagnostic table row vs. abort) belongs to the dependent, not the
//!   scheduler. A panicking node is recorded as [`BenchError::NodePanic`]
//!   so the graph drains, then the panic is re-raised.
//!
//! [`BatchEngine::run_graph`] is the engine's only entry point: a flat list
//! of independent jobs is simply a graph of dependency-free `Run` nodes.
//! Everything is plain `std::thread::scope` + `Mutex`/`Condvar` + atomics —
//! no external runtime — and the executor is workload-agnostic: the planned
//! `nymble-serve` daemon can schedule its jobs onto the same scheduler.

use crate::graph::{NodeCtx, NodeKind, NodeReport, NodeTask, TaskGraph};
use crate::BenchError;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Scheduler-health counters for one graph execution.
#[derive(Clone, Debug)]
pub struct SchedStats {
    /// Workers the graph actually ran on (`jobs` clamped to node count).
    pub workers: usize,
    /// Nodes claimed from another worker's deque.
    pub steals: u64,
    /// Times a worker parked on the idle condvar.
    pub parks: u64,
    /// Nodes executed per worker (sums to the node count).
    pub executed: Vec<u64>,
    /// Wall-clock time each worker spent inside node bodies.
    pub busy: Vec<Duration>,
    /// End-to-end wall-clock time of the graph (spawn to join).
    pub makespan: Duration,
}

impl SchedStats {
    fn empty(workers: usize) -> Self {
        SchedStats {
            workers,
            steals: 0,
            parks: 0,
            executed: vec![0; workers],
            busy: vec![Duration::ZERO; workers],
            makespan: Duration::ZERO,
        }
    }

    /// Total nodes executed across all workers.
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum()
    }
}

/// Result of executing a whole [`TaskGraph`]: one report per node, indexed
/// by node-insertion order, plus scheduler-health counters.
pub struct GraphRun<T> {
    /// One report per node, in node-insertion order.
    pub reports: Vec<NodeReport<T>>,
    /// Work-stealing statistics for this execution.
    pub stats: SchedStats,
}

/// Queue accounting shared by all workers, guarded by one mutex so the
/// parking test (`queued == 0 && completed < n`) is race-free.
struct Coord {
    /// Nodes currently sitting in some worker's deque.
    queued: usize,
    /// Nodes whose report has been recorded.
    completed: usize,
}

/// Work-stealing scheduler executing [`TaskGraph`]s deterministically.
pub struct BatchEngine {
    jobs: usize,
}

impl BatchEngine {
    /// An engine with `jobs` workers (clamped to at least one).
    pub fn new(jobs: usize) -> Self {
        BatchEngine { jobs: jobs.max(1) }
    }

    /// Execute a [`TaskGraph`]: every node runs exactly once, after all of
    /// its dependencies, on a pool of `jobs` work-stealing workers.
    /// Reports come back indexed by node-insertion order.
    ///
    /// If any node body panicked, the panic is re-raised here *after* the
    /// graph has drained (so sibling nodes still complete and report).
    pub fn run_graph<'a, T: Send + Sync>(&self, graph: TaskGraph<'a, T>) -> GraphRun<T> {
        let n = graph.nodes.len();
        let workers = self.jobs.min(n.max(1));
        if n == 0 {
            return GraphRun {
                reports: Vec::new(),
                stats: SchedStats::empty(workers),
            };
        }

        // Decompose the graph into executor state: forward edges, atomic
        // indegrees, one claim-once cell per node body, one result slot
        // per node.
        let mut deps_of: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut kinds: Vec<NodeKind> = Vec::with_capacity(n);
        // A claim-once cell: the node's label plus its boxed body.
        type Cell<'a, T> = Mutex<Option<(String, NodeTask<'a, T>)>>;
        let mut cells: Vec<Cell<'a, T>> = Vec::with_capacity(n);
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots: Vec<usize> = Vec::new();
        let indegree: Vec<AtomicUsize> = graph
            .nodes
            .iter()
            .map(|node| AtomicUsize::new(node.deps.len()))
            .collect();
        for (i, node) in graph.nodes.into_iter().enumerate() {
            for &d in &node.deps {
                dependents[d].push(i);
            }
            if node.deps.is_empty() {
                roots.push(i);
            }
            deps_of.push(node.deps);
            kinds.push(node.kind);
            cells.push(Mutex::new(Some((node.label, node.task))));
        }
        let slots: Vec<OnceLock<NodeReport<T>>> = (0..n).map(|_| OnceLock::new()).collect();
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let coord = Mutex::new(Coord {
            queued: 0,
            completed: 0,
        });
        let idle = Condvar::new();
        let steals = AtomicU64::new(0);
        let parks = AtomicU64::new(0);
        let executed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let busy_ns: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

        // Seed the deques round-robin with the graph's roots. The count is
        // published before any worker spawns, so the accounting invariant
        // (coord.queued == Σ deque lengths, under the coord lock) holds
        // from the first instant.
        {
            for (k, &i) in roots.iter().enumerate() {
                deques[k % workers]
                    .lock()
                    .expect("deque poisoned")
                    .push_back(i);
            }
            coord.lock().expect("coord poisoned").queued = roots.len();
        }

        let t0 = Instant::now();
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let deques = &deques;
                let coord = &coord;
                let idle = &idle;
                let slots = &slots;
                let cells = &cells;
                let deps_of = &deps_of;
                let dependents = &dependents;
                let kinds = &kinds;
                let indegree = &indegree;
                let steals = &steals;
                let parks = &parks;
                let executed = &executed;
                let busy_ns = &busy_ns;
                let first_panic = &first_panic;
                handles.push(s.spawn(move || loop {
                    // Own deque first (front: LIFO, freshly released nodes
                    // run while their inputs are hot), then steal from the
                    // back of the first non-empty victim.
                    let mut picked = deques[w].lock().expect("deque poisoned").pop_front();
                    if picked.is_none() && workers > 1 {
                        for off in 1..workers {
                            let v = (w + off) % workers;
                            if let Some(j) = deques[v].lock().expect("deque poisoned").pop_back() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                picked = Some(j);
                                break;
                            }
                        }
                    }
                    let i = match picked {
                        Some(i) => {
                            // The increment happened under the coord lock
                            // before the node was pushed, so this can
                            // never underflow.
                            coord.lock().expect("coord poisoned").queued -= 1;
                            i
                        }
                        None => {
                            let guard = coord.lock().expect("coord poisoned");
                            if guard.completed == n {
                                return;
                            }
                            if guard.queued > 0 {
                                // A node was published between our scan
                                // and this check — rescan.
                                continue;
                            }
                            // Nothing queued, graph not drained: every
                            // remaining node is blocked on one currently
                            // executing. Park until a completion.
                            parks.fetch_add(1, Ordering::Relaxed);
                            drop(idle.wait(guard).expect("coord poisoned"));
                            continue;
                        }
                    };

                    let (label, task) = cells[i]
                        .lock()
                        .expect("node cell poisoned")
                        .take()
                        .expect("node claimed twice");
                    let ctx = NodeCtx {
                        index: i,
                        worker: w,
                        kind: kinds[i],
                        dep_ids: &deps_of[i],
                        slots,
                    };
                    let start = Instant::now();
                    let outcome = match catch_unwind(AssertUnwindSafe(|| task(&ctx))) {
                        Ok(res) => res,
                        Err(payload) => {
                            let message = panic_message(payload.as_ref());
                            let mut first = first_panic.lock().expect("panic slot poisoned");
                            if first.is_none() {
                                *first = Some(payload);
                            }
                            Err(BenchError::NodePanic {
                                label: label.clone(),
                                message,
                            })
                        }
                    };
                    let wall = start.elapsed();
                    busy_ns[w].fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
                    executed[w].fetch_add(1, Ordering::Relaxed);
                    let report = NodeReport {
                        label,
                        index: i,
                        worker: w,
                        kind: kinds[i],
                        wall,
                        outcome,
                    };
                    if slots[i].set(report).is_err() {
                        unreachable!("node {i} reported twice");
                    }

                    // Release dependents whose last dependency this was.
                    // AcqRel on the indegree pairs with the OnceLock write
                    // above: the releasing worker's slot store
                    // happens-before the released node's body.
                    let mut released: Vec<usize> = Vec::new();
                    for &d in &dependents[i] {
                        if indegree[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                            released.push(d);
                        }
                    }
                    // Publish the accounting BEFORE the deque pushes (see
                    // the claim path above), then make the nodes visible
                    // and wake parked workers.
                    {
                        let mut guard = coord.lock().expect("coord poisoned");
                        guard.completed += 1;
                        guard.queued += released.len();
                    }
                    if !released.is_empty() {
                        let mut dq = deques[w].lock().expect("deque poisoned");
                        for &d in released.iter().rev() {
                            dq.push_front(d);
                        }
                    }
                    idle.notify_all();
                }));
            }
            // Join every worker rather than only letting the scope wait for
            // it: the scope returns once each closure has finished, while
            // the OS thread may still be exiting and holding its allocator
            // arena. The next graph's workers would then find no free arena
            // and create another, so peak memory would depend on thread
            // timing instead of on the work.
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let makespan = t0.elapsed();

        if let Some(payload) = first_panic.into_inner().expect("panic slot poisoned") {
            std::panic::resume_unwind(payload);
        }

        let reports: Vec<NodeReport<T>> = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.into_inner()
                    .unwrap_or_else(|| panic!("node {i} produced no report"))
            })
            .collect();
        let stats = SchedStats {
            workers,
            steals: steals.into_inner(),
            parks: parks.into_inner(),
            executed: executed.into_iter().map(AtomicU64::into_inner).collect(),
            busy: busy_ns
                .into_iter()
                .map(|ns| Duration::from_nanos(ns.into_inner()))
                .collect(),
            makespan,
        };
        GraphRun { reports, stats }
    }
}

/// Best-effort rendering of a panic payload for [`BenchError::NodePanic`].
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use fpga_sim::SimError;

    #[test]
    fn results_come_back_in_submission_order() {
        let engine = BatchEngine::new(4);
        let mut graph: TaskGraph<'_, usize> = TaskGraph::new();
        for i in 0..32 {
            graph.add(NodeKind::Run, format!("job{i}"), &[], move |ctx| {
                assert_eq!(ctx.index, i);
                // Uneven work so completion order differs from
                // submission order.
                let spin = (31 - i) * 1000;
                std::hint::black_box((0..spin).sum::<usize>());
                Ok(i * 10)
            });
        }
        let reports = engine.run_graph(graph).reports;
        assert_eq!(reports.len(), 32);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.label, format!("job{i}"));
            assert_eq!(*r.outcome.as_ref().unwrap(), i * 10);
        }
    }

    #[test]
    fn a_failing_run_does_not_abort_the_sweep() {
        let engine = BatchEngine::new(2);
        let mut graph: TaskGraph<'_, u32> = TaskGraph::new();
        for i in 0..6 {
            graph.add(NodeKind::Run, format!("r{i}"), &[], move |_| {
                if i == 3 {
                    Err(SimError::InvalidConfig("injected".into()).into())
                } else {
                    Ok(i)
                }
            });
        }
        let reports = engine.run_graph(graph).reports;
        assert_eq!(reports.len(), 6);
        assert!(reports[3].outcome.is_err());
        for (i, r) in reports.iter().enumerate() {
            if i != 3 {
                assert_eq!(*r.outcome.as_ref().unwrap(), i as u32);
            }
        }
    }

    #[test]
    fn borrowed_state_can_be_shared_across_jobs() {
        // TaskGraph is lifetime-generic: jobs may borrow sweep-local state
        // (kernels, caches) without 'static gymnastics.
        let data = [1u64, 2, 3, 4];
        let engine = BatchEngine::new(2);
        let mut graph: TaskGraph<'_, u64> = TaskGraph::new();
        for (i, v) in data.iter().enumerate() {
            graph.add(NodeKind::Run, format!("b{i}"), &[], move |_| Ok(v * 2));
        }
        let out: Vec<u64> = engine
            .run_graph(graph)
            .reports
            .into_iter()
            .map(|r| r.outcome.unwrap())
            .collect();
        assert_eq!(out, vec![2, 4, 6, 8]);
    }

    #[test]
    fn dependencies_run_before_dependents_and_results_flow_through_ctx() {
        let engine = BatchEngine::new(4);
        let mut graph: TaskGraph<'_, u64> = TaskGraph::new();
        let a = graph.add(NodeKind::Compile, "a", &[], |_| Ok(2));
        let b = graph.add(NodeKind::Run, "b", &[a], |ctx| {
            Ok(ctx.dep(0).outcome.as_ref().unwrap() * 3)
        });
        let c = graph.add(NodeKind::Run, "c", &[a], |ctx| {
            Ok(ctx.dep(0).outcome.as_ref().unwrap() * 5)
        });
        let d = graph.add(NodeKind::Reduce, "d", &[b, c], |ctx| {
            assert_eq!(ctx.dep_count(), 2);
            assert_eq!(ctx.dep(0).label, "b");
            Ok(ctx.deps().map(|r| r.outcome.as_ref().unwrap()).sum())
        });
        let out = engine.run_graph(graph);
        assert_eq!(out.reports.len(), 4);
        assert_eq!(*out.reports[d.index()].outcome.as_ref().unwrap(), 16);
        assert_eq!(out.reports[a.index()].kind, NodeKind::Compile);
        assert_eq!(out.stats.total_executed(), 4);
    }

    #[test]
    fn a_failed_dependency_is_visible_to_its_dependent() {
        let engine = BatchEngine::new(2);
        let mut graph: TaskGraph<'_, String> = TaskGraph::new();
        let runs: Vec<NodeId> = (0..6)
            .map(|i| {
                graph.add(NodeKind::Run, format!("r{i}"), &[], move |_| {
                    if i == 3 {
                        Err(SimError::InvalidConfig("injected".into()).into())
                    } else {
                        Ok(i.to_string())
                    }
                })
            })
            .collect();
        let reduce = graph.add(NodeKind::Reduce, "table", &runs, |ctx| {
            // Dependents always run; turning the failure into a row is
            // this node's decision.
            let rows: Vec<String> = ctx
                .deps()
                .map(|d| match &d.outcome {
                    Ok(v) => v.clone(),
                    Err(e) => format!("{} failed: {e}", d.label),
                })
                .collect();
            Ok(rows.join(";"))
        });
        let out = engine.run_graph(graph);
        // The failing run does not abort its siblings.
        assert!(out.reports[runs[3].index()].outcome.is_err());
        for (i, id) in runs.iter().enumerate().filter(|&(i, _)| i != 3) {
            assert_eq!(
                *out.reports[id.index()].outcome.as_ref().unwrap(),
                i.to_string()
            );
        }
        let table = out.reports[reduce.index()].outcome.as_ref().unwrap();
        assert!(table.starts_with("0;1;2;r3 failed:"), "{table}");
        assert!(table.ends_with(";4;5"), "{table}");
    }

    #[test]
    fn a_panicking_node_drains_the_graph_then_reraises() {
        let engine = BatchEngine::new(2);
        let ran_sibling = std::sync::atomic::AtomicBool::new(false);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut graph: TaskGraph<'_, u32> = TaskGraph::new();
            graph.add(NodeKind::Run, "boom", &[], |_| panic!("kapow"));
            graph.add(NodeKind::Run, "sibling", &[], |_| {
                ran_sibling.store(true, Ordering::SeqCst);
                Ok(1)
            });
            engine.run_graph(graph)
        }));
        assert!(result.is_err(), "panic re-raised after the graph drained");
        assert!(
            ran_sibling.load(Ordering::SeqCst),
            "sibling still executed despite the panic"
        );
    }

    #[test]
    fn wide_diamond_graph_executes_every_node_once() {
        let engine = BatchEngine::new(8);
        // Node bodies borrow sweep-local state (a counter, a data slice)
        // without 'static gymnastics.
        let hits = AtomicU64::new(0);
        let data: Vec<u64> = (0..40).collect();
        let mut graph: TaskGraph<'_, u64> = TaskGraph::new();
        let root = graph.add(NodeKind::Compile, "root", &[], |_| Ok(1));
        let mids: Vec<NodeId> = data
            .iter()
            .map(|i| {
                let hits = &hits;
                graph.add(NodeKind::Run, format!("m{i}"), &[root], move |ctx| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    Ok(ctx.dep(0).outcome.as_ref().unwrap() + i)
                })
            })
            .collect();
        let sink = graph.add(NodeKind::Reduce, "sink", &mids, |ctx| {
            Ok(ctx.deps().map(|r| r.outcome.as_ref().unwrap()).sum())
        });
        let out = engine.run_graph(graph);
        assert_eq!(hits.load(Ordering::SeqCst), 40);
        // Σ (1 + i) for i in 0..40
        assert_eq!(*out.reports[sink.index()].outcome.as_ref().unwrap(), 820);
        assert_eq!(out.stats.total_executed(), 42);
        assert!(out.stats.makespan > Duration::ZERO);
    }
}
