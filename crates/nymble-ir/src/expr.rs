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
    /// Children of this node, for generic traversal (no allocation).
    pub fn children(&self) -> impl Iterator<Item = ExprId> {
        let c = match self {
            Expr::Const(_) | Expr::Arg(_) | Expr::ThreadId | Expr::NumThreads | Expr::Var(_) => {
                [None; 3]
            }
            Expr::Unary(_, a)
            | Expr::Cast(_, a)
            | Expr::Lane(a, _)
            | Expr::Splat(a, _)
            | Expr::LoadExt { index: a, .. }
            | Expr::LoadLocal { index: a, .. } => [Some(*a), None, None],
            Expr::Binary(_, a, b) => [Some(*a), Some(*b), None],
            Expr::Select {
                cond,
                then_v,
                else_v,
            } => [Some(*cond), Some(*then_v), Some(*else_v)],
        };
        c.into_iter().flatten()
    }
}

// The per-scalar helpers below are the one definition of the datapath
// arithmetic: the walker's instruction tape ([`crate::tape`]) and the
// static walker's integer evaluator (`tape::eval_int`) both call them.

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

    use crate::interp::{Interpreter, LaunchArg};
    use crate::kernel::MapDir;
    use crate::KernelBuilder;

    /// Run a one-thread kernel on the tape: `f` builds values over the
    /// buffer BUF, which holds `init`, and value `i` is stored at `BUF[i]`.
    /// Returns BUF afterwards.
    fn run_tape(
        init: &[Value],
        f: impl FnOnce(&mut KernelBuilder, ArgId) -> Vec<ExprId>,
    ) -> Vec<Value> {
        let mut kb = KernelBuilder::new("t", 1);
        let buf = kb.buffer("BUF", init[0].ty().scalar, MapDir::ToFrom);
        for (i, v) in f(&mut kb, buf).into_iter().enumerate() {
            let idx = kb.c_i64(i as i64);
            kb.store(buf, idx, v);
        }
        let r = Interpreter::run(&kb.finish(), &[LaunchArg::Buffer(init.to_vec())]);
        (0..init.len())
            .map(|i| r.buffers[0].get(i).unwrap())
            .collect()
    }

    #[test]
    fn int_arithmetic() {
        assert_eq!(int_binop(BinOp::Add, 2, 3), 5);
        assert_eq!(int_binop(BinOp::Mul, -4, 4), -16);
        // Division by zero is defined as 0 (hardware divider quiet output).
        assert_eq!(int_binop(BinOp::Div, 1, 0), 0);
        assert_eq!(int_binop(BinOp::Rem, 1, 0), 0);
    }

    #[test]
    fn float_arithmetic_stays_f32() {
        let got = run_tape(&[Value::F32(0.0)], |kb, _| {
            let (four, one, half) = (kb.c_f32(4.0), kb.c_f32(1.0), kb.c_f32(0.5));
            let d = kb.add(one, half);
            vec![kb.div(four, d)]
        });
        assert_eq!(got, [Value::F32(4.0 / 1.5f32)]);
    }

    #[test]
    fn comparisons_yield_i32() {
        // Validation accepts only `I32` values into an i32 buffer.
        let got = run_tape(&[7, 7].map(Value::I32), |kb, _| {
            let (f1, f2, i1, i2) = (kb.c_f32(1.0), kb.c_f32(2.0), kb.c_i32(1), kb.c_i32(2));
            vec![kb.bin(BinOp::Lt, f1, f2), kb.bin(BinOp::Ge, i1, i2)]
        });
        assert_eq!(got, [Value::I32(1), Value::I32(0)]);
    }

    #[test]
    fn vector_lanewise() {
        let init = [1.0, 2.0, 10.0, 20.0].map(Value::F32);
        let got = run_tape(&init, |kb, buf| {
            let (z, two) = (kb.c_i64(0), kb.c_i64(2));
            let v2 = Type::vector(ScalarType::F32, 2);
            let (a, b) = (kb.load(buf, z, v2), kb.load(buf, two, v2));
            vec![kb.add(a, b)]
        });
        assert_eq!(got, [11.0, 22.0, 10.0, 20.0].map(Value::F32));
    }

    #[test]
    fn unops() {
        assert_eq!(int_unop(UnOp::Neg, 5), -5);
        assert_eq!(float_unop(UnOp::Sqrt, 9.0), 3.0);
        assert_eq!(int_unop(UnOp::Not, 0), -1);
    }
}
