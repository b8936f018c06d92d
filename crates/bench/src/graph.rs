//! # graph — typed task graphs for experiment sweeps
//!
//! A sweep is not a flat list of runs. The GEMM version table compiles five
//! kernels, simulates each, profiles each trace, and reduces everything
//! into one table; the π study compiles *once* and fans out over problem
//! sizes. [`TaskGraph`] makes that structure explicit: a DAG of typed
//! nodes ([`NodeKind::Compile`], [`NodeKind::Run`], [`NodeKind::Analyze`],
//! [`NodeKind::Reduce`]) with explicit dependency edges, executed by the
//! work-stealing scheduler in [`crate::engine`].
//!
//! Three properties keep graphs deterministic and deadlock-free:
//!
//! * **Acyclic by construction.** [`TaskGraph::add`] only accepts
//!   dependencies on nodes that already exist, so every edge points
//!   backwards and no cycle can ever be expressed.
//! * **Dependency results are readable.** A node's closure receives a
//!   [`NodeCtx`] whose [`NodeCtx::dep`] returns the finished
//!   [`NodeReport`] of each dependency — the scheduler guarantees the
//!   dependency completed (and its write is visible) before the dependent
//!   starts. Error policy is therefore the *node's* decision: a `Reduce`
//!   node turns a failed `Run` dependency into a diagnostic table row
//!   instead of the scheduler cancelling half the sweep.
//! * **Reduction in submission order.** Reports come back indexed by
//!   node-insertion order, and `Reduce` nodes iterate their dependencies
//!   in the order the edges were declared — so the reduced output never
//!   depends on worker count or completion order.

use crate::BenchError;
use std::sync::OnceLock;
use std::time::Duration;

/// What a node *is*, for scheduling statistics and progress labels. The
/// executor treats all kinds identically; the kind documents the role the
/// node plays in a sweep (and shows up in scheduler health metrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// HLS front-end work: populate the [`nymble_hls::AccelCache`] entry
    /// its dependents will hit. A cache miss blocks only this node's
    /// dependents, never the rest of the sweep.
    Compile,
    /// One simulator run (or any other leaf workload).
    Run,
    /// Per-run post-processing that can overlap still-running simulations:
    /// trace-bundle writes, state profiles, diagnosis.
    Analyze,
    /// Cross-run aggregation in submission order: tables, figures,
    /// summary rows.
    Reduce,
}

/// Handle to a node of a [`TaskGraph`], used to declare edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's index in the graph (and in the report vector returned by
    /// [`crate::engine::BatchEngine::run_graph`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A node body: runs on some worker thread once every dependency finished.
pub(crate) type NodeTask<'a, T> =
    Box<dyn FnOnce(&NodeCtx<'_, T>) -> Result<T, BenchError> + Send + 'a>;

pub(crate) struct NodeSpec<'a, T> {
    pub(crate) label: String,
    pub(crate) kind: NodeKind,
    pub(crate) deps: Vec<usize>,
    pub(crate) task: NodeTask<'a, T>,
}

/// A DAG of typed tasks, acyclic by construction (edges may only point at
/// already-added nodes). `T` is the payload every node produces; the
/// sweep builder uses one generic enum (`Compiled` / `Ran(..)` / `Row(..)`
/// / `Table(..)`) for all three sweeps.
#[derive(Default)]
pub struct TaskGraph<'a, T> {
    pub(crate) nodes: Vec<NodeSpec<'a, T>>,
}

impl<'a, T> TaskGraph<'a, T> {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph { nodes: Vec::new() }
    }

    /// Add a node that runs after every node in `deps`. Dependencies must
    /// be handles previously returned by *this* graph's `add` — which is
    /// what makes every graph a DAG by construction.
    ///
    /// # Panics
    /// Panics when a dependency handle does not point backwards (i.e. it
    /// came from a different, larger graph).
    pub fn add(
        &mut self,
        kind: NodeKind,
        label: impl Into<String>,
        deps: &[NodeId],
        task: impl FnOnce(&NodeCtx<'_, T>) -> Result<T, BenchError> + Send + 'a,
    ) -> NodeId {
        let id = self.nodes.len();
        for d in deps {
            assert!(
                d.0 < id,
                "dependency {} of node {id} is not an earlier node of this graph",
                d.0
            );
        }
        self.nodes.push(NodeSpec {
            label: label.into(),
            kind,
            deps: deps.iter().map(|d| d.0).collect(),
            task: Box::new(task),
        });
        NodeId(id)
    }
}

/// Execution context handed to each node body.
pub struct NodeCtx<'s, T> {
    /// The node's index in the graph (stable across worker counts).
    pub index: usize,
    /// Worker that executes the node (informational; never affects output).
    pub worker: usize,
    /// The node's declared kind.
    pub kind: NodeKind,
    pub(crate) dep_ids: &'s [usize],
    pub(crate) slots: &'s [OnceLock<NodeReport<T>>],
}

impl<T> NodeCtx<'_, T> {
    /// Number of declared dependencies.
    pub fn dep_count(&self) -> usize {
        self.dep_ids.len()
    }

    /// The finished report of the `i`-th dependency (in edge-declaration
    /// order). The scheduler releases a node only after every dependency
    /// completed, so this never blocks.
    pub fn dep(&self, i: usize) -> &NodeReport<T> {
        self.slots[self.dep_ids[i]]
            .get()
            .expect("scheduler released a node before its dependency completed")
    }

    /// All dependency reports, in edge-declaration order.
    pub fn deps(&self) -> impl Iterator<Item = &NodeReport<T>> + '_ {
        (0..self.dep_count()).map(|i| self.dep(i))
    }
}

/// Outcome of one graph node, indexed by node-insertion order.
pub struct NodeReport<T> {
    /// The node's label.
    pub label: String,
    /// Node index in the graph (equals this report's position in the
    /// result vector).
    pub index: usize,
    /// Worker that executed the node.
    pub worker: usize,
    /// The node's declared kind.
    pub kind: NodeKind,
    /// Wall-clock time of the node body.
    pub wall: Duration,
    /// The node's payload, or its typed failure. A node whose body
    /// panicked reports [`BenchError::NodePanic`] here (and the panic is
    /// re-raised once the whole graph has drained).
    pub outcome: Result<T, BenchError>,
}

impl<T> NodeReport<T> {
    /// The same report with its payload mapped through `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> NodeReport<U> {
        NodeReport {
            label: self.label,
            index: self.index,
            worker: self.worker,
            kind: self.kind,
            wall: self.wall,
            outcome: self.outcome.map(f),
        }
    }
}
