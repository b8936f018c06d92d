//! Kernel validation: referential integrity and structural rules.
//!
//! Nymble rejects programs its execution model cannot realise; this pass
//! mirrors the checks that matter for the simulator and scheduler:
//! every id must be in range, fully-unrolled loops may not contain
//! synchronisation (a barrier inside an unrolled dataflow graph has no
//! hardware realisation), and critical sections may not nest (the single
//! hardware semaphore of Fig. 1 is not re-entrant).
//!
//! Every expression also has one static [`Type`] ([`infer_types`]), and
//! statements must agree with it: an `Assign` matches its variable's
//! declared type, a store matches the buffer or local element type, the
//! arms of a `Select` agree, vector operands have matching lane counts, and
//! indices, bounds and conditions are scalars. The walker's instruction
//! tape ([`crate::tape`]) is specialised on these types.

use crate::expr::{BinOp, Expr, ExprId, UnOp};
use crate::kernel::{ArgKind, Kernel};
use crate::stmt::{Block, Stmt, Unroll};
use crate::types::{ScalarType, Type, Value};
use std::fmt;

/// A validation failure, with a human-readable description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationError(pub String);

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel validation failed: {}", self.0)
    }
}

impl std::error::Error for ValidationError {}

fn err(msg: impl Into<String>) -> ValidationError {
    ValidationError(msg.into())
}

/// Validate a kernel. Called automatically by
/// [`crate::builder::KernelBuilder::finish`].
pub fn validate(k: &Kernel) -> Result<(), ValidationError> {
    if k.num_threads == 0 {
        return Err(err("num_threads must be >= 1"));
    }
    for v in &k.vars {
        if v.ty.lanes == 0 {
            return Err(err(format!("variable `{}` has zero lanes", v.name)));
        }
    }
    for m in &k.local_mems {
        if m.elem.lanes == 0 {
            return Err(err(format!(
                "local mem `{}` has zero-lane elements",
                m.name
            )));
        }
    }
    let types = infer_types(k)?;
    check_block(k, &types, &k.body, false, false)?;
    Ok(())
}

/// Check every expression of `k` and return its static type, indexed by
/// [`ExprId`].
///
/// The rules are the walker's runtime semantics: arithmetic takes the left
/// operand's scalar type, comparisons give `I32`, and lane-wise operations
/// need equal lane counts.
pub fn infer_types(k: &Kernel) -> Result<Vec<Type>, ValidationError> {
    let mut tys: Vec<Type> = Vec::with_capacity(k.exprs.len());
    for (i, e) in k.exprs.iter().enumerate() {
        let id = ExprId(i as u32);
        check_expr(k, id, e)?;
        // Operand ids must point backwards (only earlier expressions have
        // a type yet): the builder always appends operands before their
        // users, which also guarantees acyclicity.
        let ty = |c: &ExprId| {
            tys.get(c.0 as usize).copied().ok_or_else(|| {
                err(format!(
                    "expression {id:?} references non-prior expression {c:?} (cycle?)"
                ))
            })
        };
        let scalar = |c: &ExprId, what: &str| {
            let t = ty(c)?;
            if t.lanes == 1 {
                Ok(t.scalar)
            } else {
                Err(err(format!("expression {id:?}: vector {what}")))
            }
        };
        let t = match e {
            Expr::Const(v) => const_type(v)
                .ok_or_else(|| err(format!("expression {id:?}: malformed vector constant")))?,
            Expr::Arg(a) => match k.arg(*a).kind {
                ArgKind::Scalar(st) => Type::scalar(st),
                ArgKind::Buffer { .. } => unreachable!("rejected by check_expr"),
            },
            Expr::ThreadId | Expr::NumThreads => Type::I32,
            Expr::Var(v) => k.var(*v).ty,
            Expr::Unary(op, a) => {
                let t = ty(a)?;
                if *op == UnOp::Not && t.scalar.is_float() {
                    return Err(err(format!("expression {id:?}: bitwise not on float")));
                }
                t
            }
            Expr::Binary(op, a, b) => {
                let (ta, tb) = (ty(a)?, ty(b)?);
                if ta.lanes != tb.lanes {
                    return Err(err(format!(
                        "expression {id:?}: {op:?} of {} and {} lanes",
                        ta.lanes, tb.lanes
                    )));
                }
                let bitwise = matches!(
                    op,
                    BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                );
                if bitwise && ta.scalar.is_float() {
                    return Err(err(format!("expression {id:?}: bitwise {op:?} on float")));
                }
                let st = if op.is_comparison() {
                    ScalarType::I32
                } else {
                    ta.scalar
                };
                Type::vector(st, ta.lanes)
            }
            Expr::Select {
                cond,
                then_v,
                else_v,
            } => {
                scalar(cond, "select condition")?;
                let (tt, te) = (ty(then_v)?, ty(else_v)?);
                if tt != te {
                    return Err(err(format!(
                        "expression {id:?}: select arms disagree ({tt:?} vs {te:?})"
                    )));
                }
                tt
            }
            Expr::Cast(st, a) => {
                scalar(a, "cast operand")?;
                Type::scalar(*st)
            }
            Expr::LoadExt { index, ty: lt, .. } => {
                scalar(index, "load index")?;
                *lt
            }
            Expr::LoadLocal { index, ty: lt, .. } => {
                scalar(index, "local load index")?;
                *lt
            }
            Expr::Lane(a, lane) => {
                let t = ty(a)?;
                if *lane >= t.lanes {
                    return Err(err(format!(
                        "expression {id:?}: lane {lane} of a {}-lane value",
                        t.lanes
                    )));
                }
                Type::scalar(t.scalar)
            }
            Expr::Splat(a, lanes) => Type::vector(scalar(a, "splat operand")?, *lanes),
        };
        tys.push(t);
    }
    Ok(tys)
}

/// The type of a constant: a scalar, or a flat vector of at least two
/// lanes of one scalar type.
fn const_type(v: &Value) -> Option<Type> {
    let Value::Vec(lanes) = v else {
        return Some(v.ty());
    };
    let scalar = |l: &Value| (!matches!(l, Value::Vec(_))).then(|| l.ty().scalar);
    let st = scalar(lanes.first()?)?;
    let flat = lanes.iter().all(|l| scalar(l) == Some(st));
    (flat && (2..=u8::MAX as usize).contains(&lanes.len()))
        .then(|| Type::vector(st, lanes.len() as u8))
}

/// Referential integrity of one expression (ids in range, loads from
/// buffers of the loaded type).
fn check_expr(k: &Kernel, id: ExprId, e: &Expr) -> Result<(), ValidationError> {
    match e {
        Expr::Arg(a) => {
            let arg = k
                .args
                .get(a.0 as usize)
                .ok_or_else(|| err(format!("expression {id:?}: unknown arg {a:?}")))?;
            if matches!(arg.kind, ArgKind::Buffer { .. }) {
                return Err(err(format!(
                    "expression {id:?}: buffer argument `{}` read as scalar; use a load",
                    arg.name
                )));
            }
        }
        Expr::Var(v) if v.0 as usize >= k.vars.len() => {
            return Err(err(format!("expression {id:?}: unknown var {v:?}")));
        }
        Expr::LoadExt { buf, ty, .. } => {
            let arg = k
                .args
                .get(buf.0 as usize)
                .ok_or_else(|| err(format!("expression {id:?}: unknown buffer {buf:?}")))?;
            match arg.kind {
                ArgKind::Buffer { elem, .. } => {
                    if elem != ty.scalar {
                        return Err(err(format!(
                            "expression {id:?}: loads {:?} from `{}` declared {:?}",
                            ty.scalar, arg.name, elem
                        )));
                    }
                }
                ArgKind::Scalar(_) => {
                    return Err(err(format!(
                        "expression {id:?}: load from scalar argument `{}`",
                        arg.name
                    )))
                }
            }
            if ty.lanes == 0 {
                return Err(err(format!("expression {id:?}: zero-lane load")));
            }
        }
        Expr::LoadLocal { mem, ty, .. } => {
            let m = k
                .local_mems
                .get(mem.0 as usize)
                .ok_or_else(|| err(format!("expression {id:?}: unknown local mem {mem:?}")))?;
            if m.elem != *ty {
                return Err(err(format!(
                    "expression {id:?}: local mem `{}` element type mismatch",
                    m.name
                )));
            }
        }
        Expr::Splat(_, lanes) if *lanes < 2 => {
            return Err(err(format!("expression {id:?}: splat to < 2 lanes")));
        }
        _ => {}
    }
    Ok(())
}

fn check_block(
    k: &Kernel,
    tys: &[Type],
    b: &Block,
    in_unrolled: bool,
    in_critical: bool,
) -> Result<(), ValidationError> {
    let ty = |e: &ExprId| tys[e.0 as usize];
    let scalar = |s: &Stmt, e: &ExprId| {
        if ty(e).lanes == 1 {
            Ok(())
        } else {
            Err(err(format!("{}: vector operand {e:?}", s.mnemonic())))
        }
    };
    for s in b {
        match s {
            Stmt::Assign { var, expr } => {
                let decl = k
                    .vars
                    .get(var.0 as usize)
                    .ok_or_else(|| err(format!("assign to unknown var {var:?}")))?;
                if ty(expr) != decl.ty {
                    return Err(err(format!(
                        "assign of {:?} to `{}` declared {:?}",
                        ty(expr),
                        decl.name,
                        decl.ty
                    )));
                }
            }
            Stmt::StoreExt { buf, index, value } => {
                let arg = k
                    .args
                    .get(buf.0 as usize)
                    .ok_or_else(|| err(format!("store to unknown buffer {buf:?}")))?;
                let ArgKind::Buffer { elem, .. } = arg.kind else {
                    return Err(err(format!("store to scalar argument `{}`", arg.name)));
                };
                scalar(s, index)?;
                if ty(value).scalar != elem {
                    return Err(err(format!(
                        "store of {:?} to `{}` declared {elem:?}",
                        ty(value),
                        arg.name
                    )));
                }
            }
            Stmt::StoreLocal { mem, index, value } => {
                let m = k
                    .local_mems
                    .get(mem.0 as usize)
                    .ok_or_else(|| err(format!("store to unknown local mem {mem:?}")))?;
                scalar(s, index)?;
                if ty(value) != m.elem {
                    return Err(err(format!(
                        "store of {:?} to local mem `{}` of {:?}",
                        ty(value),
                        m.name,
                        m.elem
                    )));
                }
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
                unroll,
            } => {
                for e in [start, end, step] {
                    scalar(s, e)?;
                }
                if k.vars.get(var.0 as usize).map(|v| v.ty.lanes) != Some(1) {
                    return Err(err(format!("loop variable {var:?} is not a scalar var")));
                }
                check_block(
                    k,
                    tys,
                    body,
                    in_unrolled || *unroll == Unroll::Full,
                    in_critical,
                )?;
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                scalar(s, cond)?;
                check_block(k, tys, then_b, in_unrolled, in_critical)?;
                check_block(k, tys, else_b, in_unrolled, in_critical)?;
            }
            Stmt::Critical { body } => {
                if in_critical {
                    return Err(err(
                        "nested critical sections: the hardware semaphore is not re-entrant",
                    ));
                }
                if in_unrolled {
                    return Err(err("critical section inside a fully-unrolled loop"));
                }
                check_block(k, tys, body, in_unrolled, true)?;
            }
            Stmt::Barrier => {
                if in_unrolled {
                    return Err(err("barrier inside a fully-unrolled loop"));
                }
                if in_critical {
                    return Err(err(
                        "barrier inside a critical section would deadlock all threads",
                    ));
                }
            }
            Stmt::Preload {
                mem,
                src: buf,
                src_off,
                dst_off,
                len,
            }
            | Stmt::WriteBack {
                mem,
                dst: buf,
                src_off,
                dst_off,
                len,
            } => {
                let what = s.mnemonic();
                let m = k
                    .local_mems
                    .get(mem.0 as usize)
                    .ok_or_else(|| err(format!("{what}: unknown local mem {mem:?}")))?;
                let arg = k
                    .args
                    .get(buf.0 as usize)
                    .ok_or_else(|| err(format!("{what}: unknown buffer {buf:?}")))?;
                let ArgKind::Buffer { elem, .. } = arg.kind else {
                    return Err(err(format!("{what}: scalar argument `{}`", arg.name)));
                };
                if m.elem.scalar != elem {
                    return Err(err(format!(
                        "{what}: local mem `{}` of {:?} against `{}` declared {elem:?}",
                        m.name, m.elem, arg.name
                    )));
                }
                for e in [src_off, dst_off, len] {
                    scalar(s, e)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {

    use crate::builder::KernelBuilder;
    use crate::types::{ScalarType, Type};
    use crate::MapDir;

    #[test]
    fn lane_inference() {
        let mut kb = KernelBuilder::new("t", 1);
        let s = kb.c_f32(1.0);
        let v = kb.splat(s, 4);
        let tys = super::infer_types(kb.kernel_in_progress()).unwrap();
        assert_eq!(tys[v.0 as usize].lanes, 4);
    }

    #[test]
    fn accepts_wellformed() {
        let mut kb = KernelBuilder::new("ok", 2);
        let buf = kb.buffer("A", ScalarType::F32, MapDir::To);
        let v = kb.var("x", Type::F32);
        let idx = kb.c_i64(0);
        let ld = kb.load(buf, idx, Type::F32);
        kb.set(v, ld);
        assert!(kb.try_finish().is_ok());
    }

    #[test]
    fn rejects_nested_critical() {
        let mut kb = KernelBuilder::new("bad", 2);
        kb.critical(|kb| {
            kb.critical(|_| {});
        });
        let e = kb.try_finish().unwrap_err();
        assert!(e.0.contains("nested critical"), "{e}");
    }

    #[test]
    fn rejects_barrier_in_critical() {
        let mut kb = KernelBuilder::new("bad", 2);
        kb.critical(|kb| kb.barrier());
        let e = kb.try_finish().unwrap_err();
        assert!(e.0.contains("deadlock"), "{e}");
    }

    /// The `in_critical` flag must survive arbitrary nesting: a barrier
    /// buried in a `for` loop inside the critical body is just as deadly as
    /// a direct child.
    #[test]
    fn rejects_barrier_in_loop_inside_critical() {
        let mut kb = KernelBuilder::new("bad", 2);
        kb.critical(|kb| {
            let n = kb.c_i64(4);
            kb.for_range("i", n, |kb, _| kb.barrier());
        });
        let e = kb.try_finish().unwrap_err();
        assert!(e.0.contains("deadlock"), "{e}");
    }

    /// ...and through `if` branches, including the else branch.
    #[test]
    fn rejects_barrier_in_branch_inside_critical() {
        for in_else in [false, true] {
            let mut kb = KernelBuilder::new("bad", 2);
            kb.critical(|kb| {
                let t = kb.thread_id();
                let z = kb.c_i64(0);
                let c = kb.bin(crate::BinOp::Eq, t, z);
                kb.if_(
                    c,
                    |kb| {
                        if !in_else {
                            kb.barrier()
                        }
                    },
                    |kb| {
                        if in_else {
                            kb.barrier()
                        }
                    },
                );
            });
            let e = kb.try_finish().unwrap_err();
            assert!(e.0.contains("deadlock"), "in_else={in_else}: {e}");
        }
    }

    /// A barrier *after* a critical section is fine — the flag must reset
    /// when the section closes.
    #[test]
    fn accepts_barrier_after_critical() {
        let mut kb = KernelBuilder::new("ok", 2);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        kb.critical(|kb| {
            let z = kb.c_i64(0);
            let one = kb.c_f32(1.0);
            kb.store(out, z, one);
        });
        kb.barrier();
        assert!(kb.try_finish().is_ok());
    }

    #[test]
    fn rejects_barrier_in_unrolled_loop() {
        let mut kb = KernelBuilder::new("bad", 2);
        let zero = kb.c_i64(0);
        let four = kb.c_i64(4);
        let one = kb.c_i64(1);
        kb.for_unrolled("i", zero, four, one, |kb, _| kb.barrier());
        let e = kb.try_finish().unwrap_err();
        assert!(e.0.contains("unrolled"), "{e}");
    }

    #[test]
    fn rejects_type_mismatched_load() {
        let mut kb = KernelBuilder::new("bad", 1);
        let buf = kb.buffer("A", ScalarType::F32, MapDir::To);
        let v = kb.var("x", Type::F64);
        let idx = kb.c_i64(0);
        let ld = kb.load(buf, idx, Type::F64); // F64 load from F32 buffer
        kb.set(v, ld);
        let e = kb.try_finish().unwrap_err();
        assert!(e.0.contains("declared"), "{e}");
    }

    /// Build a one-thread kernel with `build` and expect a validation error
    /// containing `want`.
    fn rejects(want: &str, build: impl FnOnce(&mut KernelBuilder)) {
        let mut kb = KernelBuilder::new("bad", 1);
        build(&mut kb);
        let e = kb.try_finish().unwrap_err();
        assert!(e.0.contains(want), "want `{want}`: {e}");
    }

    /// Every expression has one static type; statements must agree with
    /// it.
    #[test]
    fn rejects_statically_mistyped_kernels() {
        rejects("assign of", |kb| {
            let v = kb.var("x", Type::I32);
            let c = kb.c_i64(1);
            kb.set(v, c);
        });
        rejects("select arms disagree", |kb| {
            let (c, a, b) = (kb.c_i32(1), kb.c_f32(1.0), kb.c_f64(2.0));
            let sel = kb.select(c, a, b);
            let v = kb.var("x", Type::F32);
            kb.set(v, sel);
        });
        rejects("lanes", |kb| {
            let s = kb.c_f32(1.0);
            let vec = kb.splat(s, 4);
            let sum = kb.add(vec, s);
            let v = kb.var("x", Type::vector(ScalarType::F32, 4));
            kb.set(v, sum);
        });
        rejects("store of", |kb| {
            let buf = kb.buffer("A", ScalarType::F32, MapDir::From);
            let (i, x) = (kb.c_i64(0), kb.c_f64(1.0));
            kb.store(buf, i, x);
        });
        rejects("vector", |kb| {
            let buf = kb.buffer("A", ScalarType::F32, MapDir::To);
            let i = kb.c_i64(0);
            let idx = kb.splat(i, 2);
            let ld = kb.load(buf, idx, Type::F32);
            let v = kb.var("x", Type::F32);
            kb.set(v, ld);
        });
    }

    #[test]
    fn rejects_scalar_read_of_buffer() {
        let mut kb = KernelBuilder::new("bad", 1);
        let buf = kb.buffer("A", ScalarType::F32, MapDir::To);
        let v = kb.var("x", Type::F32);
        let a = kb.arg(buf);
        kb.set(v, a);
        let e = kb.try_finish().unwrap_err();
        assert!(e.0.contains("read as scalar"), "{e}");
    }
}
