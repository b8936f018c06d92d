//! Dataflow-graph lowering of loop bodies.
//!
//! One DFG node per datapath operator evaluation. Edges:
//!
//! * intra-iteration data dependences (through expression operands and
//!   thread-local variables),
//! * loop-carried dependences: a variable read *before* its definition in the
//!   body (the `sum` of `sum += a*b`) creates a distance-1 edge from the
//!   definition back to the use — the recurrence that bounds the initiation
//!   interval,
//! * sequence points: inner non-unrolled loops, critical sections and
//!   barriers become single VLO nodes ordered after everything before them
//!   and before everything after them, matching Nymble's "execution of the
//!   outer loop's graph is paused during execution of the inner loop".
//!
//! Fully-unrolled inner loops are expanded in place (their trip count must be
//! a compile-time constant, enforced by the builder's intended use; a
//! non-constant bound falls back to a single replica and is flagged).

use crate::op::{classify_binop, classify_unop, OpClass};
use nymble_ir::expr::Expr;
use nymble_ir::stmt::{Stmt, Unroll};
use nymble_ir::{ExprId, Kernel, ScalarType, Type, VarId};
use std::collections::HashMap;

/// Index of a node in a [`Dfg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One datapath operator instance.
#[derive(Clone, Debug)]
pub struct DfgNode {
    pub op: OpClass,
    /// SIMD lanes the operator processes (area scales with this).
    pub width: u8,
    /// Intra-iteration dependences (must finish before this starts).
    pub deps: Vec<NodeId>,
}

/// A lowered loop/region body.
#[derive(Clone, Debug, Default)]
pub struct Dfg {
    pub nodes: Vec<DfgNode>,
    /// Loop-carried (distance-1) dependences as `(def, use)` pairs.
    pub carried: Vec<(NodeId, NodeId)>,
    /// True when an unrolled inner loop had a non-constant trip count and
    /// was lowered as a single replica (schedule is then approximate).
    pub approximate_unroll: bool,
}

impl Dfg {
    /// Number of operator nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the body contains no datapath operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Count nodes of one class.
    pub fn count(&self, op: OpClass) -> usize {
        self.nodes.iter().filter(|n| n.op == op).count()
    }
}

struct Lowerer<'k> {
    k: &'k Kernel,
    /// Static type of every expression (`nymble_ir::validate::infer_types`).
    types: &'k [Type],
    dfg: Dfg,
    /// Node that last defined each variable in this iteration.
    var_def: HashMap<VarId, NodeId>,
    /// Reads of variables not (yet) defined this iteration: candidates for
    /// loop-carried edges.
    early_uses: Vec<(VarId, NodeId)>,
    /// Nodes created since the last sequence point (a sequence point
    /// must wait for all of them).
    since_seq: Vec<NodeId>,
    /// Last sequence point: everything after depends on it.
    last_seq: Option<NodeId>,
    /// Last external store (stores stay ordered on the write port).
    last_store: Option<NodeId>,
    /// Per-statement memo of lowered expressions: a shared sub-expression is
    /// one operator node, not one per textual use.
    expr_cache: HashMap<ExprId, Option<NodeId>>,
}

impl<'k> Lowerer<'k> {
    fn new(k: &'k Kernel, types: &'k [Type]) -> Self {
        Lowerer {
            k,
            types,
            dfg: Dfg::default(),
            var_def: HashMap::new(),
            early_uses: Vec::new(),
            since_seq: Vec::new(),
            last_seq: None,
            last_store: None,
            expr_cache: HashMap::new(),
        }
    }

    fn push(&mut self, op: OpClass, width: u8, mut deps: Vec<NodeId>) -> NodeId {
        if let Some(sp) = self.last_seq {
            deps.push(sp);
        }
        deps.sort_unstable();
        deps.dedup();
        let id = NodeId(self.dfg.nodes.len() as u32);
        self.dfg.nodes.push(DfgNode { op, width, deps });
        self.since_seq.push(id);
        id
    }

    fn seq_point(&mut self, op: OpClass) -> NodeId {
        let deps = std::mem::take(&mut self.since_seq);
        let id = {
            let mut deps = deps;
            if let Some(sp) = self.last_seq {
                deps.push(sp);
            }
            deps.sort_unstable();
            deps.dedup();
            let id = NodeId(self.dfg.nodes.len() as u32);
            self.dfg.nodes.push(DfgNode { op, width: 1, deps });
            id
        };
        self.last_seq = Some(id);
        self.since_seq.push(id);
        id
    }

    /// Create a node whose operands may include early (carried) variable
    /// reads: the early uses are registered against the node itself, so the
    /// recurrence II measures def→use on the right consumer.
    fn push_with_early(
        &mut self,
        op: OpClass,
        width: u8,
        deps: Vec<NodeId>,
        early: Vec<nymble_ir::VarId>,
    ) -> NodeId {
        let n = self.push(op, width, deps);
        for v in early {
            self.early_uses.push((v, n));
        }
        n
    }

    /// Lower an expression; `None` means a zero-latency wire (constants,
    /// argument taps, induction-variable reads). Shared sub-expressions map
    /// to the same node (memoised per statement).
    fn ty(&self, id: ExprId) -> Type {
        self.types[id.0 as usize]
    }

    /// The operator class's scalar kind: float operands use the FP units.
    fn op_scalar(&self, operand: ExprId) -> ScalarType {
        if self.ty(operand).scalar.is_float() {
            ScalarType::F32
        } else {
            ScalarType::I64
        }
    }

    fn expr(&mut self, id: ExprId) -> Option<NodeId> {
        if let Some(n) = self.expr_cache.get(&id) {
            return *n;
        }
        let n = self.expr_uncached(id);
        self.expr_cache.insert(id, n);
        n
    }

    fn expr_uncached(&mut self, id: ExprId) -> Option<NodeId> {
        match self.k.expr(id) {
            Expr::Const(_) | Expr::Arg(_) | Expr::ThreadId | Expr::NumThreads => None,
            Expr::Var(v) => self.var_def.get(v).copied(),
            Expr::Unary(op, a) => {
                let (scalar, lanes) = (self.op_scalar(*a), self.ty(id).lanes);
                let (deps, early) = self.operand_deps(&[*a]);
                Some(self.push_with_early(classify_unop(*op, scalar), lanes, deps, early))
            }
            Expr::Binary(op, a, b) => {
                let (scalar, lanes) = (self.op_scalar(*a), self.ty(id).lanes);
                let (deps, early) = self.operand_deps(&[*a, *b]);
                Some(self.push_with_early(classify_binop(*op, scalar), lanes, deps, early))
            }
            Expr::Select {
                cond,
                then_v,
                else_v,
            } => {
                let lanes = self.ty(id).lanes;
                let (deps, early) = self.operand_deps(&[*cond, *then_v, *else_v]);
                Some(self.push_with_early(OpClass::IntAlu, lanes, deps, early))
            }
            Expr::Cast(_, a) => {
                let (deps, early) = self.operand_deps(&[*a]);
                Some(self.push_with_early(OpClass::Cast, 1, deps, early))
            }
            Expr::LoadExt { index, ty, .. } => {
                let (deps, early) = self.operand_deps(&[*index]);
                Some(self.push_with_early(OpClass::ExtLoad, ty.lanes, deps, early))
            }
            Expr::LoadLocal { index, ty, .. } => {
                let (deps, early) = self.operand_deps(&[*index]);
                Some(self.push_with_early(OpClass::LocalLoad, ty.lanes, deps, early))
            }
            Expr::Lane(a, _) | Expr::Splat(a, _) => self.expr(*a),
        }
    }

    /// Lower operand expressions: returns `(dependence nodes, early variable
    /// reads)`. An early read is a `Var` with no definition yet this
    /// iteration — a carried-dependence candidate the *caller's* node
    /// consumes.
    fn operand_deps(&mut self, operands: &[ExprId]) -> (Vec<NodeId>, Vec<nymble_ir::VarId>) {
        let mut deps = Vec::with_capacity(operands.len());
        let mut early = Vec::new();
        for o in operands {
            if let Expr::Var(v) = self.k.expr(*o) {
                if !self.var_def.contains_key(v) {
                    early.push(*v);
                    continue;
                }
            }
            if let Some(n) = self.expr(*o) {
                deps.push(n);
            }
        }
        (deps, early)
    }

    fn stmt(&mut self, s: &Stmt) {
        self.expr_cache.clear();
        match s {
            Stmt::Assign { var, expr } => {
                if let Some(n) = self.expr(*expr) {
                    self.var_def.insert(*var, n);
                } else {
                    // Wire-only assignment (e.g. x = const): no node; the
                    // variable now reads as a wire. Remove any stale def.
                    self.var_def.remove(var);
                }
            }
            Stmt::StoreExt { index, value, .. } => {
                let (mut deps, early) = self.operand_deps(&[*index, *value]);
                if let Some(ls) = self.last_store {
                    deps.push(ls);
                }
                let lanes = self.ty(*value).lanes;
                let n = self.push_with_early(OpClass::ExtStore, lanes, deps, early);
                self.last_store = Some(n);
            }
            Stmt::StoreLocal { index, value, .. } => {
                let (deps, early) = self.operand_deps(&[*index, *value]);
                let lanes = self.ty(*value).lanes;
                self.push_with_early(OpClass::LocalStore, lanes, deps, early);
            }
            Stmt::For {
                start,
                end,
                step,
                body,
                unroll,
                ..
            } => {
                if *unroll == Unroll::Full {
                    let trip = const_trip(self.k, *start, *end, *step).unwrap_or_else(|| {
                        self.dfg.approximate_unroll = true;
                        1
                    });
                    for _ in 0..trip {
                        for s in body {
                            self.stmt(s);
                        }
                    }
                } else {
                    // Bound computation feeds the inner-loop controller.
                    let _ = self.operand_deps(&[*start, *end, *step]);
                    self.seq_point(OpClass::InnerLoop);
                }
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                let (cdeps, _early_cond) = self.operand_deps(&[*cond]);
                // Predicated lowering: both branches execute; variable
                // definitions merge through multiplexers.
                let saved: HashMap<VarId, NodeId> = self.var_def.clone();
                for s in then_b {
                    self.stmt(s);
                }
                let then_defs = std::mem::replace(&mut self.var_def, saved.clone());
                for s in else_b {
                    self.stmt(s);
                }
                let else_defs = std::mem::replace(&mut self.var_def, saved);
                let mut merged: Vec<VarId> =
                    then_defs.keys().chain(else_defs.keys()).copied().collect();
                merged.sort_unstable();
                merged.dedup();
                for v in merged {
                    let t = then_defs.get(&v).copied();
                    let e = else_defs.get(&v).copied();
                    if t == self.var_def.get(&v).copied() && e == self.var_def.get(&v).copied() {
                        continue;
                    }
                    let mut deps: Vec<NodeId> = cdeps.clone();
                    deps.extend(t);
                    deps.extend(e);
                    let mux = self.push(OpClass::IntAlu, 1, deps);
                    self.var_def.insert(v, mux);
                }
            }
            Stmt::Critical { body } => {
                // The critical region is a sequence-point VLO; its body ops
                // still exist (they execute while holding the semaphore) and
                // are ordered inside by the same mechanism.
                self.seq_point(OpClass::CriticalRegion);
                for s in body {
                    self.stmt(s);
                }
                self.seq_point(OpClass::CriticalRegion);
            }
            Stmt::Barrier => {
                self.seq_point(OpClass::InnerLoop);
            }
            Stmt::Preload {
                src_off,
                dst_off,
                len,
                ..
            }
            | Stmt::WriteBack {
                dst_off: src_off,
                src_off: dst_off,
                len,
                ..
            } => {
                let _ = self.operand_deps(&[*src_off, *dst_off, *len]);
                self.seq_point(OpClass::Burst);
            }
        }
    }

    fn finish(mut self) -> Dfg {
        // Resolve carried dependences: early uses of variables that *were*
        // defined later in the body.
        for (v, user) in std::mem::take(&mut self.early_uses) {
            if let Some(def) = self.var_def.get(&v) {
                if user.0 < self.dfg.nodes.len() as u32 {
                    self.dfg.carried.push((*def, user));
                }
            }
        }
        self.dfg
    }

    // Placeholder field init helper (kept for struct literal tidiness).
    #[allow(dead_code)]
    fn _unused(&self) {}
}

/// Evaluate the trip count of a loop whose bounds are all constants.
pub fn const_trip(k: &Kernel, start: ExprId, end: ExprId, step: ExprId) -> Option<u64> {
    let cval = |e: ExprId| match k.expr(e) {
        Expr::Const(v) => Some(v.as_i64()),
        _ => None,
    };
    let (s, e, st) = (cval(start)?, cval(end)?, cval(step)?);
    if st == 0 {
        return None;
    }
    Some(if st > 0 {
        ((e - s).max(0) as u64).div_ceil(st as u64)
    } else {
        ((s - e).max(0) as u64).div_ceil((-st) as u64)
    })
}

/// Lower a statement block (a loop body, the kernel top level, or a critical
/// body) into a DFG; `types` are `k`'s expression types
/// (`nymble_ir::validate::infer_types`).
pub fn lower_block(k: &Kernel, types: &[Type], body: &[Stmt]) -> Dfg {
    let mut l = Lowerer::new(k, types);
    for s in body {
        l.stmt(s);
    }
    l.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::validate::infer_types;
    use nymble_ir::{KernelBuilder, MapDir};

    #[test]
    fn reduction_creates_carried_edge() {
        let mut kb = KernelBuilder::new("red", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let sum = kb.var("sum", Type::F32);
        let n = kb.c_i64(8);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(sum);
            let s = kb.add(cur, v);
            kb.set(sum, s);
        });
        let k = kb.finish();
        let body = match &k.body[0] {
            Stmt::For { body, .. } => body,
            _ => unreachable!(),
        };
        let dfg = lower_block(&k, &infer_types(&k).unwrap(), body);
        assert_eq!(dfg.count(OpClass::ExtLoad), 1);
        assert_eq!(dfg.count(OpClass::FAdd), 1);
        assert_eq!(dfg.carried.len(), 1, "sum += v is loop-carried");
        let (def, _use) = dfg.carried[0];
        assert_eq!(dfg.nodes[def.0 as usize].op, OpClass::FAdd);
    }

    #[test]
    fn unrolled_loop_expands() {
        let mut kb = KernelBuilder::new("unroll", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let x = kb.var("x", Type::F32);
        let zero = kb.c_i64(0);
        let four = kb.c_i64(4);
        let one = kb.c_i64(1);
        kb.for_unrolled("v", zero, four, one, |kb, v| {
            let l = kb.load(a, v, Type::F32);
            let cur = kb.get(x);
            let s = kb.add(cur, l);
            kb.set(x, s);
        });
        let k = kb.finish();
        let dfg = lower_block(&k, &infer_types(&k).unwrap(), &k.body);
        assert_eq!(dfg.count(OpClass::ExtLoad), 4, "4 replicas");
        assert_eq!(dfg.count(OpClass::FAdd), 4);
        assert!(!dfg.approximate_unroll);
    }

    #[test]
    fn inner_loop_is_sequence_point() {
        let mut kb = KernelBuilder::new("nest", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let x = kb.var("x", Type::F32);
        let n = kb.c_i64(4);
        kb.for_range("i", n, |kb, _| {
            let n2 = kb.c_i64(4);
            kb.for_range("j", n2, |kb, j| {
                let l = kb.load(a, j, Type::F32);
                kb.set(x, l);
            });
            // Op after the inner loop must depend on its node.
            let cur = kb.get(x);
            let c = kb.c_f32(1.0);
            let s = kb.add(cur, c);
            kb.set(x, s);
        });
        let k = kb.finish();
        let outer_body = match &k.body[0] {
            Stmt::For { body, .. } => body,
            _ => unreachable!(),
        };
        let dfg = lower_block(&k, &infer_types(&k).unwrap(), outer_body);
        let inner_idx = dfg
            .nodes
            .iter()
            .position(|n| n.op == OpClass::InnerLoop)
            .expect("inner loop node");
        let fadd = dfg
            .nodes
            .iter()
            .find(|n| n.op == OpClass::FAdd)
            .expect("fadd after loop");
        assert!(
            fadd.deps.contains(&NodeId(inner_idx as u32)),
            "post-loop op must be sequenced after the inner-loop node"
        );
    }

    #[test]
    fn stores_stay_ordered() {
        let mut kb = KernelBuilder::new("st", 1);
        let o = kb.buffer("O", ScalarType::F32, MapDir::From);
        let c0 = kb.c_i64(0);
        let c1 = kb.c_i64(1);
        let v = kb.c_f32(1.0);
        let v2 = kb.c_f32(2.0);
        kb.store(o, c0, v);
        kb.store(o, c1, v2);
        let k = kb.finish();
        let dfg = lower_block(&k, &infer_types(&k).unwrap(), &k.body);
        let stores: Vec<usize> = dfg
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.op == OpClass::ExtStore)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(stores.len(), 2);
        assert!(dfg.nodes[stores[1]]
            .deps
            .contains(&NodeId(stores[0] as u32)));
    }

    #[test]
    fn const_trip_eval() {
        let mut kb = KernelBuilder::new("t", 1);
        let s = kb.c_i64(2);
        let e = kb.c_i64(10);
        let st = kb.c_i64(3);
        let k = kb.kernel_in_progress();
        assert_eq!(const_trip(k, s, e, st), Some(3)); // 2,5,8
    }
}
