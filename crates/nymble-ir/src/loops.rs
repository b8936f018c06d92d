//! Stable loop identities.
//!
//! The HLS scheduler produces one pipeline schedule per (non-unrolled) loop;
//! the timed executor must charge each dynamic iteration reported by the
//! walker against the right schedule. Both sides therefore need an agreed
//! naming of loops: [`LoopMap`] assigns each `Stmt::For` in a kernel a
//! [`LoopId`] by pre-order traversal.
//!
//! Identity is keyed on the statement's address inside the kernel's (heap
//! allocated, hence stable) block vectors, so a `LoopMap` is valid only for
//! the exact [`Kernel`] value it was built from — not for clones.
//!
//! [`var_steers_cost`] is the one static fact the cost walker needs about a
//! loop beyond its identity: whether its iterations can be priced
//! differently, or the body priced once stands for all of them.

use crate::expr::{Expr, ExprId};
use crate::kernel::{Kernel, VarId};
use crate::stmt::{Block, Stmt, Unroll};
use std::collections::HashMap;

/// Index of a loop in pre-order over the kernel body.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

/// Static facts about one loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopInfo {
    /// Loop nesting depth (0 = outermost in the kernel body).
    pub depth: u32,
    /// `#pragma unroll` — inlined into the parent dataflow graph.
    pub unrolled: bool,
    /// Whether the loop body (transitively) contains external memory
    /// accesses, i.e. variable-latency operations.
    pub has_vlo: bool,
    /// Whether the loop contains an inner (non-unrolled) loop.
    pub has_inner_loop: bool,
    /// Source-level name of the induction variable, for diagnostics.
    pub var_name: String,
}

/// Pre-order loop numbering for one kernel instance.
pub struct LoopMap {
    ids: HashMap<usize, LoopId>,
    infos: Vec<LoopInfo>,
}

impl LoopMap {
    /// Build the map for `k`.
    pub fn build(k: &Kernel) -> Self {
        let mut m = LoopMap {
            ids: HashMap::new(),
            infos: Vec::new(),
        };
        visit(k, &k.body, 0, &mut m);
        m
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True when the kernel has no loops.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Id of a `For` statement belonging to the mapped kernel.
    ///
    /// # Panics
    /// Panics if `s` is not a `For` of the kernel this map was built from.
    pub fn id_of(&self, s: &Stmt) -> LoopId {
        *self
            .ids
            .get(&(s as *const Stmt as usize))
            .expect("statement is not a registered loop of this kernel")
    }

    /// Static info for a loop.
    pub fn info(&self, id: LoopId) -> &LoopInfo {
        &self.infos[id.0 as usize]
    }

    /// Iterate `(LoopId, &LoopInfo)` in pre-order.
    pub fn iter(&self) -> impl Iterator<Item = (LoopId, &LoopInfo)> {
        self.infos
            .iter()
            .enumerate()
            .map(|(i, info)| (LoopId(i as u32), info))
    }
}

/// Does loop variable `var` steer the static cost of `body`, i.e. can two
/// iterations of the loop be priced differently?
///
/// The static cost walker (`nymble_hls::perf`) reads the values of only
/// these expressions; everything else prices by its structure alone:
///
/// * an inner loop's `start`/`end`/`step` (its trip count, and the
///   induction values its own body sees);
/// * an `If` condition (which branch is priced);
/// * a `Preload`/`WriteBack` length or offset (the burst);
/// * an external-access index: a `LoadExt` index anywhere (the loaded
///   value can itself feed a bound) or a `StoreExt` index (stride and
///   cross-thread sharing analysis).
///
/// The predicate is true when `var` occurs in any of them, at any depth of
/// `body`. Data flow through assigned scalars and local memory is not
/// followed: the walkers bind induction variables only, so those values
/// are equally unknown on every iteration. When it is false, every
/// iteration costs the same and the body priced once, times the trip, is
/// exact.
pub fn var_steers_cost(k: &Kernel, body: &[Stmt], var: VarId) -> bool {
    let uses = |e: ExprId| expr_uses_var(k, e, var);
    let ext_index = |e: ExprId| ext_index_uses_var(k, e, var);
    body.iter().any(|s| match s {
        Stmt::Assign { expr, .. } => ext_index(*expr),
        Stmt::StoreExt { index, value, .. } => uses(*index) || ext_index(*value),
        Stmt::StoreLocal { index, value, .. } => ext_index(*index) || ext_index(*value),
        Stmt::For { body, .. } => s.operands().any(uses) || var_steers_cost(k, body, var),
        Stmt::If { then_b, else_b, .. } => {
            s.operands().any(uses)
                || var_steers_cost(k, then_b, var)
                || var_steers_cost(k, else_b, var)
        }
        Stmt::Critical { body } => var_steers_cost(k, body, var),
        Stmt::Preload { .. } | Stmt::WriteBack { .. } => s.operands().any(uses),
        Stmt::Barrier => false,
    })
}

fn expr_uses_var(k: &Kernel, id: ExprId, var: VarId) -> bool {
    match k.expr(id) {
        Expr::Var(v) => *v == var,
        e => e.children().any(|c| expr_uses_var(k, c, var)),
    }
}

/// Does an external load inside `id` take an index that uses `var`?
fn ext_index_uses_var(k: &Kernel, id: ExprId, var: VarId) -> bool {
    match k.expr(id) {
        Expr::LoadExt { index, .. } => expr_uses_var(k, *index, var),
        e => e.children().any(|c| ext_index_uses_var(k, c, var)),
    }
}

fn block_has_vlo(k: &Kernel, b: &Block) -> bool {
    fn expr_has_vlo(k: &Kernel, id: crate::expr::ExprId) -> bool {
        let e = k.expr(id);
        e.is_vlo() || e.children().any(|c| expr_has_vlo(k, c))
    }
    b.iter().any(|s| match s {
        Stmt::Assign { expr, .. } => expr_has_vlo(k, *expr),
        Stmt::StoreExt { .. } | Stmt::Preload { .. } | Stmt::WriteBack { .. } => true,
        Stmt::StoreLocal { index, value, .. } => expr_has_vlo(k, *index) || expr_has_vlo(k, *value),
        Stmt::For { body, .. } | Stmt::Critical { body } => block_has_vlo(k, body),
        Stmt::If {
            cond,
            then_b,
            else_b,
        } => expr_has_vlo(k, *cond) || block_has_vlo(k, then_b) || block_has_vlo(k, else_b),
        Stmt::Barrier => false,
    })
}

fn block_has_loop(b: &Block) -> bool {
    b.iter().any(|s| match s {
        Stmt::For { unroll, .. } => *unroll == Unroll::None,
        Stmt::Critical { body } => block_has_loop(body),
        Stmt::If { then_b, else_b, .. } => block_has_loop(then_b) || block_has_loop(else_b),
        _ => false,
    })
}

fn visit(k: &Kernel, b: &Block, depth: u32, m: &mut LoopMap) {
    for s in b {
        match s {
            Stmt::For {
                var, body, unroll, ..
            } => {
                let id = LoopId(m.infos.len() as u32);
                m.ids.insert(s as *const Stmt as usize, id);
                m.infos.push(LoopInfo {
                    depth,
                    unrolled: *unroll == Unroll::Full,
                    has_vlo: block_has_vlo(k, body),
                    has_inner_loop: block_has_loop(body),
                    var_name: k.var(*var).name.clone(),
                });
                visit(k, body, depth + 1, m);
            }
            Stmt::Critical { body } => visit(k, body, depth, m),
            Stmt::If { then_b, else_b, .. } => {
                visit(k, then_b, depth, m);
                visit(k, else_b, depth, m);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::types::ScalarType;
    use crate::{MapDir, Type};

    #[test]
    fn preorder_numbering_and_flags() {
        let mut kb = KernelBuilder::new("t", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let n = kb.c_i64(4);
        kb.for_range("i", n, |kb, _i| {
            let n2 = kb.c_i64(4);
            kb.for_range("j", n2, |kb, j| {
                let v = kb.load(a, j, Type::F32);
                let x = kb.var("x", Type::F32);
                kb.set(x, v);
            });
        });
        let n3 = kb.c_i64(2);
        kb.for_range("k", n3, |_, _| {});
        let k = kb.finish();
        let m = LoopMap::build(&k);
        assert_eq!(m.len(), 3);
        let infos: Vec<_> = m.iter().map(|(_, i)| i.clone()).collect();
        assert_eq!(infos[0].var_name, "i");
        assert_eq!(infos[0].depth, 0);
        assert!(infos[0].has_vlo, "outer sees inner's external load");
        assert!(infos[0].has_inner_loop);
        assert_eq!(infos[1].var_name, "j");
        assert_eq!(infos[1].depth, 1);
        assert!(infos[1].has_vlo);
        assert!(!infos[1].has_inner_loop);
        assert_eq!(infos[2].var_name, "k");
        assert!(!infos[2].has_vlo);
    }

    #[test]
    fn only_priced_expressions_steer_cost() {
        let mut kb = KernelBuilder::new("t", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::From);
        let m = kb.local_mem("L", Type::F32, 16);
        let x = kb.var("x", Type::F32);
        let n = kb.c_i64(4);
        // Local memory and scalar data flow: priced by structure alone.
        kb.for_range("local", n, |kb, i| {
            let v = kb.load_local(m, i, Type::F32);
            kb.set(x, v);
            let z = kb.c_i64(0);
            let w = kb.get(x);
            kb.store(c, z, w);
        });
        kb.for_range("load", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            kb.set(x, v);
        });
        kb.for_range("store", n, |kb, i| {
            let w = kb.get(x);
            kb.store(c, i, w);
        });
        kb.for_range("guard", n, |kb, i| {
            let z = kb.c_i64(0);
            let gt = kb.bin(crate::BinOp::Gt, i, z);
            kb.if_then(gt, |_| {});
        });
        kb.for_range("bound", n, |kb, i| {
            kb.for_range("inner", i, |_, _| {});
        });
        kb.for_range("burst", n, |kb, i| {
            let z = kb.c_i64(0);
            let len = kb.c_i64(4);
            kb.preload(m, a, i, z, len);
        });
        let k = kb.finish();
        let steers: Vec<(&str, bool)> = k
            .body
            .iter()
            .map(|s| match s {
                Stmt::For { var, body, .. } => {
                    (k.var(*var).name.as_str(), var_steers_cost(&k, body, *var))
                }
                _ => unreachable!("only loops at top level"),
            })
            .collect();
        assert_eq!(
            steers,
            [
                ("local", false),
                ("load", true),
                ("store", true),
                ("guard", true),
                ("bound", true),
                ("burst", true),
            ]
        );
    }

    #[test]
    fn id_of_matches_statement_identity() {
        let mut kb = KernelBuilder::new("t", 1);
        let n = kb.c_i64(1);
        kb.for_range("i", n, |_, _| {});
        let k = kb.finish();
        let m = LoopMap::build(&k);
        let s = &k.body[0];
        assert_eq!(m.id_of(s), LoopId(0));
    }
}
