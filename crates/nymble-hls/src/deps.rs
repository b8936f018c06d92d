//! Symbolic loop-carried dependence analysis.
//!
//! The scheduler derives a pipelined loop's recurrence initiation interval
//! from carried dataflow edges (`finish[def] − start[use]`) of the compiled
//! DFG. This module derives the same bound *symbolically* on the IR,
//! without compiling: a recurrence exists when the last assignment to a
//! variable in a loop body transitively reads the variable's carried
//! value, and its latency is the operator-chain depth along that path,
//! priced with the scheduler's own [`OpClass::latency`]. It backs the
//! [`crate::perf`] walker's symbolic loop timing and the `NP001` finding
//! of `nymble-lint`.

use crate::op::{classify_binop, classify_unop, OpClass};
use nymble_ir::{Expr, ExprId, Kernel, ScalarType, Stmt, Type, VarId};
use std::collections::HashMap;

/// Scheduler latency of an operator class, in the walker's units.
fn latency(class: OpClass) -> u64 {
    u64::from(class.latency())
}

/// Latency contributed by the operator at expression node `e` itself
/// (its output delay relative to its inputs); leaves cost 0. Operators are
/// classified as the DFG lowering does: by the static type of the (left)
/// operand in `types` ([`nymble_ir::validate::infer_types`]).
fn node_latency(k: &Kernel, types: &[Type], e: ExprId) -> u64 {
    let operand = |a: &ExprId| {
        if types[a.0 as usize].scalar.is_float() {
            ScalarType::F32
        } else {
            ScalarType::I64
        }
    };
    latency(match k.expr(e) {
        Expr::Unary(op, a) => classify_unop(*op, operand(a)),
        Expr::Binary(op, a, _) => classify_binop(*op, operand(a)),
        Expr::Cast(..) => OpClass::Cast,
        Expr::Select { .. } => OpClass::IntAlu,
        Expr::LoadExt { .. } => OpClass::ExtLoad,
        Expr::LoadLocal { .. } => OpClass::LocalLoad,
        _ => return 0,
    })
}

/// Total operator latency of the whole expression tree (an upper bound on
/// the critical path; used for pipeline depth estimates).
fn expr_chain_latency(k: &Kernel, types: &[Type], e: ExprId) -> u64 {
    let children = k.expr(e).children();
    let deepest = children
        .into_iter()
        .map(|c| expr_chain_latency(k, types, c))
        .max()
        .unwrap_or(0);
    deepest + node_latency(k, types, e)
}

/// Crude pipeline-depth estimate: the summed operator-chain latency of the
/// body's statements (an upper bound; negligible against `(trip−1)·II`).
pub(crate) fn body_depth(k: &Kernel, types: &[Type], body: &[Stmt]) -> u64 {
    body.iter()
        .map(|s| match s {
            Stmt::Assign { expr, .. } => expr_chain_latency(k, types, *expr),
            Stmt::StoreExt { index, value, .. } | Stmt::StoreLocal { index, value, .. } => {
                expr_chain_latency(k, types, *index).max(expr_chain_latency(k, types, *value)) + 1
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                expr_chain_latency(k, types, *cond)
                    + body_depth(k, types, then_b).max(body_depth(k, types, else_b))
            }
            Stmt::For { body, .. } => body_depth(k, types, body),
            _ => 0,
        })
        .sum()
}

/// One detected loop-carried dependence.
#[derive(Clone, Debug, PartialEq)]
pub struct Recurrence {
    /// Variable (or memory) the value is carried through.
    pub name: String,
    /// Operator-chain latency from the carried use to the new definition —
    /// a lower bound on the loop's initiation interval.
    pub latency: u64,
    /// Carried through a local/external memory rather than a register.
    pub through_memory: bool,
}

/// Latency distance of an expression from the carried value: `Some(d)`
/// when evaluating `e` reads (directly or transitively) a variable whose
/// entry in `dist` is `Some`, where `d` includes the operators between
/// the carried read and `e`'s output.
fn expr_dist(
    k: &Kernel,
    types: &[Type],
    e: ExprId,
    dist: &HashMap<VarId, Option<u64>>,
) -> Option<u64> {
    match k.expr(e) {
        Expr::Var(v) => dist.get(v).copied().flatten(),
        Expr::Const(_) | Expr::Arg(_) | Expr::ThreadId | Expr::NumThreads => None,
        other => {
            let through = other
                .children()
                .filter_map(|c| expr_dist(k, types, c, dist))
                .max()?;
            Some(through + node_latency(k, types, e))
        }
    }
}

/// Structural equality of two expression trees (same shape and leaves).
fn same_expr(k: &Kernel, a: ExprId, b: ExprId) -> bool {
    if a == b {
        return true;
    }
    match (k.expr(a), k.expr(b)) {
        (Expr::Const(x), Expr::Const(y)) => x == y,
        (Expr::Arg(x), Expr::Arg(y)) => x == y,
        (Expr::ThreadId, Expr::ThreadId) | (Expr::NumThreads, Expr::NumThreads) => true,
        (Expr::Var(x), Expr::Var(y)) => x == y,
        (Expr::Unary(ox, x), Expr::Unary(oy, y)) => ox == oy && same_expr(k, *x, *y),
        (Expr::Binary(ox, xa, xb), Expr::Binary(oy, ya, yb)) => {
            ox == oy && same_expr(k, *xa, *ya) && same_expr(k, *xb, *yb)
        }
        (Expr::Cast(tx, x), Expr::Cast(ty, y)) => tx == ty && same_expr(k, *x, *y),
        (
            Expr::Select {
                cond: cx,
                then_v: tx,
                else_v: ex,
            },
            Expr::Select {
                cond: cy,
                then_v: ty,
                else_v: ey,
            },
        ) => same_expr(k, *cx, *cy) && same_expr(k, *tx, *ty) && same_expr(k, *ex, *ey),
        (
            Expr::LoadExt {
                buf: bx, index: ix, ..
            },
            Expr::LoadExt {
                buf: by, index: iy, ..
            },
        ) => bx == by && same_expr(k, *ix, *iy),
        (
            Expr::LoadLocal {
                mem: mx, index: ix, ..
            },
            Expr::LoadLocal {
                mem: my, index: iy, ..
            },
        ) => mx == my && same_expr(k, *ix, *iy),
        (Expr::Lane(x, lx), Expr::Lane(y, ly)) => lx == ly && same_expr(k, *x, *y),
        (Expr::Splat(x, lx), Expr::Splat(y, ly)) => lx == ly && same_expr(k, *x, *y),
        _ => false,
    }
}

/// Latency of the path from node `needle` (matched structurally against a
/// load) to the root of `root`'s tree, `None` if unreachable.
fn path_latency_from_load(
    k: &Kernel,
    types: &[Type],
    root: ExprId,
    is_needle: &impl Fn(&Kernel, ExprId) -> bool,
) -> Option<u64> {
    if is_needle(k, root) {
        return Some(0);
    }
    let through = k
        .expr(root)
        .children()
        .filter_map(|c| path_latency_from_load(k, types, c, is_needle))
        .max()?;
    Some(through + node_latency(k, types, root))
}

/// Collect the variables assigned anywhere in a (flattened) loop body.
fn assigned_vars(body: &[Stmt], out: &mut Vec<VarId>) {
    for s in body {
        match s {
            Stmt::Assign { var, .. } if !out.contains(var) => out.push(*var),
            Stmt::If { then_b, else_b, .. } => {
                assigned_vars(then_b, out);
                assigned_vars(else_b, out);
            }
            Stmt::For { body, .. } | Stmt::Critical { body } => assigned_vars(body, out),
            _ => {}
        }
    }
}

/// Run one ordered pass over the body tracking each variable's latency
/// distance from `target`'s carried value. An assignment *overwrites* the
/// distance (a kill when the value no longer depends on the carry).
fn carry_pass(k: &Kernel, types: &[Type], body: &[Stmt], dist: &mut HashMap<VarId, Option<u64>>) {
    for s in body {
        match s {
            Stmt::Assign { var, expr } => {
                let d = expr_dist(k, types, *expr, dist);
                dist.insert(*var, d);
            }
            Stmt::If { then_b, else_b, .. } => {
                // Either branch may or may not run: merge conservatively,
                // keeping the longest surviving carry distance.
                let mut dt = dist.clone();
                let mut de = dist.clone();
                carry_pass(k, types, then_b, &mut dt);
                carry_pass(k, types, else_b, &mut de);
                let keys: Vec<VarId> = dist
                    .keys()
                    .chain(dt.keys())
                    .chain(de.keys())
                    .copied()
                    .collect();
                for v in keys {
                    let m = [dist.get(&v), dt.get(&v), de.get(&v)]
                        .into_iter()
                        .flatten()
                        .filter_map(|o| *o)
                        .max();
                    dist.insert(v, m);
                }
            }
            // Nested loops/criticals are their own scheduling regions; the
            // enclosing loop is not pipelined then, so stay conservative
            // and treat their assignments as opaque kills of nothing.
            Stmt::For { .. } | Stmt::Critical { .. } => {}
            _ => {}
        }
    }
}

/// Detect loop-carried dependences in `body` (the body of a candidate
/// pipelined loop): register recurrences (`acc = f(acc, …)`, possibly via
/// intermediate variables) and memory recurrences (a store whose value
/// reads the same element it overwrites). `types` are the kernel's static
/// expression types ([`nymble_ir::validate::infer_types`]), which classify
/// each operator as the DFG lowering does.
pub fn body_recurrences(k: &Kernel, types: &[Type], body: &[Stmt]) -> Vec<Recurrence> {
    let mut out = Vec::new();

    // Register recurrences: seed the target's distance at 0, run the body
    // once in order; a surviving positive distance on the target after the
    // full pass is a carried chain whose latency bounds the II.
    let mut targets = Vec::new();
    assigned_vars(body, &mut targets);
    for v in targets {
        let mut dist: HashMap<VarId, Option<u64>> = HashMap::new();
        dist.insert(v, Some(0));
        carry_pass(k, types, body, &mut dist);
        if let Some(Some(lat)) = dist.get(&v) {
            if *lat >= 1 {
                out.push(Recurrence {
                    name: k.var(v).name.clone(),
                    latency: *lat,
                    through_memory: false,
                });
            }
        }
    }

    // Memory recurrences: a store whose stored value loads the same
    // element of the same memory. The carried path runs load → operators
    // → store, so its latency includes both memory endpoints.
    fn scan_stores(k: &Kernel, types: &[Type], body: &[Stmt], out: &mut Vec<Recurrence>) {
        for s in body {
            match s {
                Stmt::StoreLocal { mem, index, value } => {
                    let needle = |k: &Kernel, e: ExprId| {
                        matches!(k.expr(e), Expr::LoadLocal { mem: m, index: i, .. }
                            if m == mem && same_expr(k, *i, *index))
                    };
                    if let Some(p) = path_latency_from_load(k, types, *value, &needle) {
                        out.push(Recurrence {
                            name: k.local_mem(*mem).name.clone(),
                            latency: latency(OpClass::LocalLoad) + p + latency(OpClass::LocalStore),
                            through_memory: true,
                        });
                    }
                }
                Stmt::StoreExt { buf, index, value } => {
                    let needle = |k: &Kernel, e: ExprId| {
                        matches!(k.expr(e), Expr::LoadExt { buf: b, index: i, .. }
                            if b == buf && same_expr(k, *i, *index))
                    };
                    if let Some(p) = path_latency_from_load(k, types, *value, &needle) {
                        out.push(Recurrence {
                            name: k.arg(*buf).name.clone(),
                            latency: latency(OpClass::ExtLoad) + p + latency(OpClass::ExtStore),
                            through_memory: true,
                        });
                    }
                }
                Stmt::If { then_b, else_b, .. } => {
                    scan_stores(k, types, then_b, out);
                    scan_stores(k, types, else_b, out);
                }
                _ => {}
            }
        }
    }
    scan_stores(k, types, body, &mut out);
    out.sort_by(|a, b| b.latency.cmp(&a.latency).then(a.name.cmp(&b.name)));
    out
}

/// Largest recurrence-implied II of a body (1 when no recurrence).
pub(crate) fn recurrence_ii(k: &Kernel, types: &[Type], body: &[Stmt]) -> u64 {
    body_recurrences(k, types, body)
        .first()
        .map(|r| r.latency)
        .unwrap_or(1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, MapDir};

    fn types(k: &Kernel) -> Vec<Type> {
        nymble_ir::validate::infer_types(k).expect("valid kernel")
    }

    fn loop_body(k: &Kernel) -> &[Stmt] {
        match &k.body[..] {
            [Stmt::For { body, .. }, ..] => body,
            other => panic!("expected leading loop, got {other:?}"),
        }
    }

    #[test]
    fn fadd_fmul_chain_recurrence() {
        // acc = (acc + A[i]) * c — carried chain FAdd + FMul = 8.
        let mut kb = KernelBuilder::new("rec", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let acc = kb.var("acc", Type::F32);
        let n = kb.c_i64(16);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            let c = kb.c_f32(1.5);
            let m = kb.mul(s, c);
            kb.set(acc, m);
        });
        let k = kb.finish();
        let recs = body_recurrences(&k, &types(&k), loop_body(&k));
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert_eq!(recs[0].name, "acc");
        assert_eq!(
            recs[0].latency,
            latency(OpClass::FAdd) + latency(OpClass::FMul)
        );
        assert!(!recs[0].through_memory);
        assert_eq!(recurrence_ii(&k, &types(&k), loop_body(&k)), 8);
    }

    #[test]
    fn overwritten_temp_is_not_a_recurrence() {
        // t = A[i]; C[i] = t — t is assigned fresh each iteration.
        let mut kb = KernelBuilder::new("fresh", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::From);
        let t = kb.var("t", Type::F32);
        let n = kb.c_i64(16);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            kb.set(t, v);
            let cur = kb.get(t);
            kb.store(c, i, cur);
        });
        let k = kb.finish();
        assert!(body_recurrences(&k, &types(&k), loop_body(&k)).is_empty());
        assert_eq!(recurrence_ii(&k, &types(&k), loop_body(&k)), 1);
    }

    #[test]
    fn chained_through_intermediate_var() {
        // t = acc + x; acc = t * y — still a carried chain on acc.
        let mut kb = KernelBuilder::new("chain", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let acc = kb.var("acc", Type::F32);
        let t = kb.var("t", Type::F32);
        let n = kb.c_i64(16);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(t, s);
            let tv = kb.get(t);
            let m = kb.mul(tv, v);
            kb.set(acc, m);
        });
        let k = kb.finish();
        let recs = body_recurrences(&k, &types(&k), loop_body(&k));
        let acc_rec = recs
            .iter()
            .find(|r| r.name == "acc")
            .expect("acc recurrence");
        assert_eq!(
            acc_rec.latency,
            latency(OpClass::FAdd) + latency(OpClass::FMul)
        );
    }

    #[test]
    fn memory_recurrence_through_external_buffer() {
        // H[i] = H[i] + 1 — read-modify-write through DRAM.
        let mut kb = KernelBuilder::new("hist", 1);
        let h = kb.buffer("H", ScalarType::I32, MapDir::ToFrom);
        let n = kb.c_i64(16);
        kb.for_range("i", n, |kb, i| {
            let cur = kb.load(h, i, Type::I32);
            let one = kb.c_i32(1);
            let inc = kb.add(cur, one);
            kb.store(h, i, inc);
        });
        let k = kb.finish();
        let recs = body_recurrences(&k, &types(&k), loop_body(&k));
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert!(recs[0].through_memory);
        assert_eq!(
            recs[0].latency,
            latency(OpClass::ExtLoad) + latency(OpClass::IntAlu) + latency(OpClass::ExtStore)
        );
    }
}
