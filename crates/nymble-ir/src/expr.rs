//! Expression arena.
//!
//! Expressions are stored in a per-kernel arena ([`crate::Kernel::exprs`]) and
//! referenced by [`ExprId`]. The arena form is what the HLS scheduler lowers
//! into dataflow-graph nodes: every `Binary`/`Unary`/`LoadExt`/… node becomes
//! a datapath operator with a latency and a resource class.

use crate::kernel::{ArgId, LocalMemId, VarId};
use crate::types::{ScalarType, Type, Value};

/// Index of an expression in the kernel's expression arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Binary operators. Integer and floating-point flavours are distinguished by
/// the operand type, not the opcode (as in LLVM IR before instruction
/// selection); the scheduler assigns latencies accordingly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl BinOp {
    /// Comparison operators produce an `I32` boolean regardless of operand type.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    Abs,
    Sqrt,
}

/// One node in the expression arena.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Compile-time constant.
    Const(Value),
    /// Read of a scalar kernel argument (bound at launch, e.g. `DIM`).
    Arg(ArgId),
    /// `omp_get_thread_num()` — hardware thread id, hardwired per context.
    ThreadId,
    /// `omp_get_num_threads()` — the accelerator's hardware thread count.
    NumThreads,
    /// Read of a thread-local variable (loop induction variable, accumulator…).
    Var(VarId),
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Binary operation. Lane-wise for vectors.
    Binary(BinOp, ExprId, ExprId),
    /// `cond ? a : b`, lowered to a datapath multiplexer.
    Select {
        cond: ExprId,
        then_v: ExprId,
        else_v: ExprId,
    },
    /// Scalar type conversion.
    Cast(ScalarType, ExprId),
    /// Load of `ty` from an external (DRAM) buffer argument at an element
    /// index; with `ty.lanes > 1` this is the paper's vectorized 128-bit
    /// access (`*((VECTOR*)&A[...])`). A variable-latency operation.
    LoadExt { buf: ArgId, index: ExprId, ty: Type },
    /// Load from an on-chip local memory (BRAM); fixed low latency.
    LoadLocal {
        mem: LocalMemId,
        index: ExprId,
        ty: Type,
    },
    /// Extract lane `lane` of a vector expression.
    Lane(ExprId, u8),
    /// Broadcast a scalar into a `lanes`-wide vector.
    Splat(ExprId, u8),
}

impl Expr {
    /// Children of this node, for generic traversal.
    pub fn children(&self) -> Vec<ExprId> {
        match self {
            Expr::Const(_) | Expr::Arg(_) | Expr::ThreadId | Expr::NumThreads | Expr::Var(_) => {
                Vec::new()
            }
            Expr::Unary(_, a) | Expr::Cast(_, a) | Expr::Lane(a, _) | Expr::Splat(a, _) => {
                vec![*a]
            }
            Expr::Binary(_, a, b) => vec![*a, *b],
            Expr::Select {
                cond,
                then_v,
                else_v,
            } => vec![*cond, *then_v, *else_v],
            Expr::LoadExt { index, .. } | Expr::LoadLocal { index, .. } => vec![*index],
        }
    }

    /// True for operations whose delay cannot be statically bounded
    /// (variable-latency operations, §III-B): external memory accesses.
    pub fn is_vlo(&self) -> bool {
        matches!(self, Expr::LoadExt { .. })
    }
}

/// Evaluate a binary operation on two scalar values (lane-wise on two
/// vectors). Comparison results are `I32` 0/1; arithmetic takes the left
/// operand's scalar type, converting the right operand to it.
///
/// The per-scalar helpers below are the one definition of the datapath
/// arithmetic: this function and the walker's instruction tape
/// ([`crate::tape`]) both call them.
pub fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Value {
    // Lane-wise vector handling first.
    if let (Value::Vec(va), Value::Vec(vb)) = (a, b) {
        assert_eq!(va.len(), vb.len(), "vector width mismatch in {op:?}");
        let lanes: Vec<Value> = va
            .iter()
            .zip(vb.iter())
            .map(|(x, y)| eval_binop(op, x, y))
            .collect();
        return Value::Vec(lanes.into_boxed_slice());
    }
    let ty = a.ty().scalar;
    if op.is_comparison() {
        let r = if ty.is_float() {
            cmp_f64(op, a.as_f64(), b.as_f64())
        } else {
            cmp_i64(op, a.as_i64(), b.as_i64())
        };
        return Value::I32(r as i32);
    }
    match (a, ty) {
        // f32 math is performed in f32 to reproduce the paper's
        // single-precision behaviour (including the π-study instability).
        (Value::F32(x), _) => {
            let y = match b {
                Value::F32(v) => *v,
                _ => b.as_f64() as f32,
            };
            Value::F32(f32_binop(op, *x, y))
        }
        (_, ScalarType::F64) => Value::F64(f64_binop(op, a.as_f64(), b.as_f64())),
        _ => Value::from_i64(ty, int_binop(op, a.as_i64(), b.as_i64())),
    }
}

/// Evaluate a unary operation (lane-wise on a vector).
pub fn eval_unop(op: UnOp, a: &Value) -> Value {
    if let Value::Vec(va) = a {
        let lanes: Vec<Value> = va.iter().map(|x| eval_unop(op, x)).collect();
        return Value::Vec(lanes.into_boxed_slice());
    }
    let ty = a.ty().scalar;
    if ty.is_float() {
        Value::from_f64(ty, float_unop(op, a.as_f64()))
    } else {
        Value::from_i64(ty, int_unop(op, a.as_i64()))
    }
}

/// Integer arithmetic in i64, wrapping; the caller truncates to the
/// result type. Division and remainder by zero give 0 (the hardware
/// divider's quiet output).
#[inline(always)]
pub(crate) fn int_binop(op: BinOp, x: i64, y: i64) -> i64 {
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div if y == 0 => 0,
        BinOp::Div => x.wrapping_div(y),
        BinOp::Rem if y == 0 => 0,
        BinOp::Rem => x.wrapping_rem(y),
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::Shr => x.wrapping_shr(y as u32),
        _ => unreachable!("comparison {op:?} as arithmetic"),
    }
}

macro_rules! float_binop {
    ($name:ident, $t:ty) => {
        /// Floating-point arithmetic; bitwise operators are rejected by
        /// validation.
        #[inline(always)]
        pub(crate) fn $name(op: BinOp, x: $t, y: $t) -> $t {
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => panic!("bitwise op {op:?} on float"),
            }
        }
    };
}
float_binop!(f32_binop, f32);
float_binop!(f64_binop, f64);

macro_rules! compare {
    ($name:ident, $t:ty) => {
        /// A comparison operator applied to two operands.
        #[inline(always)]
        pub(crate) fn $name(op: BinOp, x: $t, y: $t) -> bool {
            match op {
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                _ => unreachable!("arithmetic {op:?} as comparison"),
            }
        }
    };
}
compare!(cmp_i64, i64);
compare!(cmp_f64, f64);

/// Integer unary operation in i64, wrapping (`Abs` of the minimum value is
/// itself, as on the hardware).
#[inline(always)]
pub(crate) fn int_unop(op: UnOp, x: i64) -> i64 {
    match op {
        UnOp::Neg => x.wrapping_neg(),
        UnOp::Abs => x.wrapping_abs(),
        UnOp::Not => !x,
        UnOp::Sqrt => (x as f64).sqrt() as i64,
    }
}

/// Floating-point unary operation, computed in f64 for either width.
#[inline(always)]
pub(crate) fn float_unop(op: UnOp, x: f64) -> f64 {
    match op {
        UnOp::Neg => -x,
        UnOp::Abs => x.abs(),
        UnOp::Sqrt => x.sqrt(),
        UnOp::Not => panic!("bitwise not on float"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic() {
        assert_eq!(
            eval_binop(BinOp::Add, &Value::I32(2), &Value::I32(3)),
            Value::I32(5)
        );
        assert_eq!(
            eval_binop(BinOp::Mul, &Value::I64(-4), &Value::I64(4)),
            Value::I64(-16)
        );
        // Division by zero is defined as 0 (hardware divider quiet output).
        assert_eq!(
            eval_binop(BinOp::Div, &Value::I32(1), &Value::I32(0)),
            Value::I32(0)
        );
    }

    #[test]
    fn float_arithmetic_stays_f32() {
        let r = eval_binop(BinOp::Div, &Value::F32(4.0), &Value::F32(1.0 + 0.5));
        assert_eq!(r, Value::F32(4.0 / 1.5f32));
    }

    #[test]
    fn comparisons_yield_i32() {
        assert_eq!(
            eval_binop(BinOp::Lt, &Value::F32(1.0), &Value::F32(2.0)),
            Value::I32(1)
        );
        assert_eq!(
            eval_binop(BinOp::Ge, &Value::I32(1), &Value::I32(2)),
            Value::I32(0)
        );
    }

    #[test]
    fn vector_lanewise() {
        let a = Value::Vec(vec![Value::F32(1.0), Value::F32(2.0)].into_boxed_slice());
        let b = Value::Vec(vec![Value::F32(10.0), Value::F32(20.0)].into_boxed_slice());
        let r = eval_binop(BinOp::Add, &a, &b);
        assert_eq!(r.lane(0), &Value::F32(11.0));
        assert_eq!(r.lane(1), &Value::F32(22.0));
    }

    #[test]
    fn unops() {
        assert_eq!(eval_unop(UnOp::Neg, &Value::I32(5)), Value::I32(-5));
        assert_eq!(eval_unop(UnOp::Sqrt, &Value::F64(9.0)), Value::F64(3.0));
        assert_eq!(eval_unop(UnOp::Not, &Value::I32(0)), Value::I32(-1));
    }

    #[test]
    fn vlo_classification() {
        let load = Expr::LoadExt {
            buf: ArgId(0),
            index: ExprId(0),
            ty: Type::F32,
        };
        assert!(load.is_vlo());
        let ll = Expr::LoadLocal {
            mem: LocalMemId(0),
            index: ExprId(0),
            ty: Type::F32,
        };
        assert!(!ll.is_vlo());
    }
}
