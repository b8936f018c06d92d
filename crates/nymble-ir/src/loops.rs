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
//! [`var_steers_cost`] answers the one question about a loop the cost
//! walker asks beyond its timing: whether its iterations can be priced
//! differently, or the body priced once stands for all of them. The
//! walker derives that and its other per-loop facts once per walk, into a
//! table indexed by [`LoopId`] (`nymble_hls::perf`); the map itself
//! carries only identities, because every simulator lowering builds one.

use crate::expr::{Expr, ExprId};
use crate::kernel::{Kernel, VarId};
use crate::stmt::{Block, Stmt};
use std::collections::HashMap;

/// Index of a loop in pre-order over the kernel body.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

/// Pre-order loop numbering for one kernel instance: each loop's `For`
/// statement, borrowed from the kernel.
pub struct LoopMap<'k> {
    ids: HashMap<usize, LoopId>,
    loops: Vec<&'k Stmt>,
}

impl<'k> LoopMap<'k> {
    /// Build the map for `k`.
    pub fn build(k: &'k Kernel) -> Self {
        let mut m = LoopMap {
            ids: HashMap::new(),
            loops: Vec::new(),
        };
        m.visit(&k.body);
        m
    }

    fn visit(&mut self, b: &'k Block) {
        for s in b {
            match s {
                Stmt::For { body, .. } => {
                    self.ids
                        .insert(s as *const Stmt as usize, LoopId(self.loops.len() as u32));
                    self.loops.push(s);
                    self.visit(body);
                }
                Stmt::Critical { body } => self.visit(body),
                Stmt::If { then_b, else_b, .. } => {
                    self.visit(then_b);
                    self.visit(else_b);
                }
                _ => {}
            }
        }
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// True when the kernel has no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
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

    /// Iterate `(LoopId, For statement)` in pre-order.
    pub fn iter(&self) -> impl Iterator<Item = (LoopId, &'k Stmt)> + '_ {
        self.loops
            .iter()
            .enumerate()
            .map(|(i, s)| (LoopId(i as u32), *s))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::stmt::Unroll;
    use crate::types::ScalarType;
    use crate::{MapDir, Type};

    #[test]
    fn preorder_numbering_and_flags() {
        let mut kb = KernelBuilder::new("t", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let n = kb.c_i64(4);
        kb.for_range("i", n, |kb, _i| {
            kb.for_range("j", n, |kb, j| {
                let v = kb.load(a, j, Type::F32);
                let x = kb.var("x", Type::F32);
                kb.set(x, v);
            });
        });
        let tid = kb.thread_id();
        kb.if_(
            tid,
            |kb| kb.for_range("then", n, |_, _| {}),
            |kb| kb.for_range("else", n, |_, _| {}),
        );
        kb.critical(|kb| kb.for_range("crit", n, |_, _| {}));
        let (zero, one) = (kb.c_i64(0), kb.c_i64(1));
        kb.for_unrolled("u", zero, n, one, |_, _| {});
        let k = kb.finish();

        // The loops by their paths in the tree, in pre-order.
        let child = |s: &Stmt, i: usize| match s {
            Stmt::For { body, .. } | Stmt::Critical { body } => &body[i] as *const Stmt,
            _ => unreachable!("not a block statement"),
        };
        let Stmt::If { then_b, else_b, .. } = &k.body[1] else {
            unreachable!("if expected")
        };
        let by_path = [
            &k.body[0] as *const Stmt,
            child(&k.body[0], 0),
            &then_b[0],
            &else_b[0],
            child(&k.body[2], 0),
            &k.body[3],
        ];

        let m = LoopMap::build(&k);
        assert_eq!(m.len(), by_path.len());
        let mut names = Vec::new();
        for ((id, s), want) in m.iter().zip(by_path) {
            assert_eq!(s as *const Stmt, want, "loop {id:?} is the wrong statement");
            assert_eq!(m.id_of(s), id);
            let Stmt::For { var, unroll, .. } = s else {
                unreachable!("the map lists loops only")
            };
            names.push((k.var(*var).name.as_str(), *unroll == Unroll::Full));
        }
        assert_eq!(
            names,
            [
                ("i", false),
                ("j", false),
                ("then", false),
                ("else", false),
                ("crit", false),
                ("u", true),
            ]
        );
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
