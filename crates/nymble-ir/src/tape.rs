//! Kernel lowering: one flat, typed instruction tape per kernel.
//!
//! [`Program::lower`] compiles a validated kernel once; every
//! [`crate::walker::Walker`] of a run executes the shared result. The
//! structured statement tree becomes flat `StmtCode` records (child
//! blocks as index ranges, the loop's [`LoopId`] resolved, the statement's
//! [`OpCounts`] computed statically), and each statement's expression DAG
//! becomes a straight run of `Inst`s over a `u64` register file.
//!
//! * **Order.** A statement's expressions are emitted in DFS post-order,
//!   operands left to right, each node only the first time the statement
//!   reaches it. That is the order the datapath evaluates them in: a shared
//!   node is one operator, evaluated once per statement execution, and
//!   both `Select` arms are always evaluated. So `Access` and `LocalRead`
//!   events keep their order, and the op counts are a static property of
//!   the statement.
//! * **Registers.** Integers are held sign-extended to 64 bits, floats as
//!   their IEEE-754 pattern ([`Value::to_bits`]). A vector occupies `lanes`
//!   consecutive registers and lane-wise operations become one scalar
//!   instruction per lane. Leaves cost nothing at run time: constants sit
//!   in the initial register image, arguments and the thread id are
//!   written once per walker, and variable reads, lane extracts and
//!   value-preserving casts alias their operand's registers.
//! * **Types.** Every instruction is specialised on the static operand
//!   types of `validate::infer_types` and on its operator (`F32Add`,
//!   `CmpILt`, …), so executing one is one dispatch. Where today's value
//!   semantics convert an operand (arithmetic takes the left operand's
//!   type, float comparisons run in f64, conditions test non-zero), the
//!   lowering emits an explicit conversion instruction. The arithmetic
//!   itself is the per-scalar helpers of [`crate::expr`]; [`eval_int`], the
//!   static cost walker's evaluator of integer bounds, calls the same
//!   helpers.
//! * **Op counts.** The profiling unit classifies compute into integer and
//!   floating-point operations (§IV-B.2b). Every `Binary`/`Unary`/`Select`
//!   evaluation counts one operation per lane, classified by its *result*
//!   scalar type; comparisons, selects and casts count as integer ops.
//!   Loads count separately, as memory operations. [`OpCounter`] is the one
//!   definition: the lowering and the static cost walker
//!   (`nymble_hls::perf`) both count through it.

use crate::buffer::Buffer;
use crate::expr::{
    cmp_f64, cmp_i64, f32_binop, f64_binop, float_unop, int_binop, int_unop, BinOp, Expr, ExprId,
    UnOp,
};
use crate::kernel::{ArgId, ArgKind, Kernel, LocalMemId, VarId};
use crate::loops::{LoopId, LoopMap};
use crate::stmt::{Stmt, Unroll};
use crate::types::{ScalarType, Type, Value};
use crate::validate::infer_types;
use crate::walker::{Emit, EventSink, MemAccess, StepEvent};

/// Operation counts of one statement execution (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Integer (and address/compare/select) operations.
    pub int_ops: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// External-memory load operations (requests, not bytes).
    pub ext_loads: u64,
    /// Local-memory load operations.
    pub local_loads: u64,
}

impl OpCounts {
    /// Element-wise sum.
    pub fn add(&mut self, o: OpCounts) {
        self.int_ops += o.int_ops;
        self.flops += o.flops;
        self.ext_loads += o.ext_loads;
        self.local_loads += o.local_loads;
    }
}

/// Counts the [`OpCounts`] of statements by the rules of the module docs,
/// each expression node once per statement. A generation-stamped `seen`
/// vector keeps a count free of allocation.
pub struct OpCounter<'k> {
    kernel: &'k Kernel,
    types: &'k [Type],
    /// `seen[id] == stmt_gen`: the node is counted for the current
    /// statement.
    seen: Vec<u32>,
    stmt_gen: u32,
}

impl<'k> OpCounter<'k> {
    /// A counter for `kernel`, whose expressions have the static `types`
    /// of [`infer_types`].
    pub fn new(kernel: &'k Kernel, types: &'k [Type]) -> Self {
        OpCounter {
            kernel,
            types,
            seen: vec![0; kernel.exprs.len()],
            stmt_gen: 0,
        }
    }

    /// Op counts of one execution of `s`: its own operands, not its nested
    /// blocks.
    pub fn stmt(&mut self, s: &Stmt) -> OpCounts {
        self.stmt_gen += 1;
        let mut ops = OpCounts::default();
        for e in s.operands() {
            self.expr(e, &mut ops);
        }
        ops
    }

    fn expr(&mut self, id: ExprId, ops: &mut OpCounts) {
        let slot = id.0 as usize;
        if self.seen[slot] == self.stmt_gen {
            return;
        }
        self.seen[slot] = self.stmt_gen;
        let lanes = self.types[slot].lanes as u64;
        let types = self.types;
        let float = |e: &ExprId| types[e.0 as usize].scalar.is_float();
        let e = self.kernel.expr(id);
        match e {
            Expr::Unary(_, a) if float(a) => ops.flops += lanes,
            Expr::Binary(op, a, _) if !op.is_comparison() && float(a) => ops.flops += lanes,
            Expr::Unary(..) | Expr::Binary(..) | Expr::Select { .. } => ops.int_ops += lanes,
            Expr::Cast(..) => ops.int_ops += 1,
            Expr::LoadExt { .. } => ops.ext_loads += 1,
            Expr::LoadLocal { .. } => ops.local_loads += 1,
            _ => {}
        }
        for c in e.children() {
            self.expr(c, ops);
        }
    }
}

/// A leaf of an integer expression, which [`eval_int`] asks its caller for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntLeaf {
    Var(VarId),
    /// A scalar argument.
    Arg(ArgId),
    ThreadId,
    /// A scalar external load at an evaluated element index.
    Load {
        buf: ArgId,
        index: i64,
    },
}

/// Evaluate the integer expression `id` with the tape's semantics: every
/// node at its static type in `types` ([`infer_types`]), through the
/// per-scalar helpers the tape's instructions call. An `I32` node wraps to
/// 32 bits, a shift takes its count modulo 64 before that wrap, and
/// division or remainder by zero gives 0. `leaf` supplies variables,
/// scalar arguments, the thread id and external loads.
///
/// `None` when `leaf` does, or when the value depends on a float, a vector
/// or a local-memory load.
pub fn eval_int(
    kernel: &Kernel,
    types: &[Type],
    id: ExprId,
    leaf: &impl Fn(IntLeaf) -> Option<i64>,
) -> Option<i64> {
    let ty = types[id.0 as usize];
    if ty.lanes != 1 || ty.scalar.is_float() {
        return None;
    }
    let int = |e: &ExprId| eval_int(kernel, types, *e, leaf);
    let v = match kernel.expr(id) {
        Expr::Const(v) => v.as_i64(),
        Expr::NumThreads => kernel.num_threads as i64,
        Expr::ThreadId => leaf(IntLeaf::ThreadId)?,
        Expr::Arg(a) => leaf(IntLeaf::Arg(*a))?,
        Expr::Var(v) => leaf(IntLeaf::Var(*v))?,
        Expr::Unary(op, a) => int_unop(*op, int(a)?),
        Expr::Binary(op, a, b) if op.is_comparison() => cmp_i64(*op, int(a)?, int(b)?) as i64,
        Expr::Binary(op, a, b) => int_binop(*op, int(a)?, int(b)?),
        Expr::Select {
            cond,
            then_v,
            else_v,
        } => int(if int(cond)? != 0 { then_v } else { else_v })?,
        Expr::Cast(_, a) => int(a)?,
        Expr::LoadExt { buf, index, .. } => leaf(IntLeaf::Load {
            buf: *buf,
            index: int(index)?,
        })?,
        Expr::LoadLocal { .. } | Expr::Lane(..) | Expr::Splat(..) => return None,
    };
    Some(match ty.scalar {
        ScalarType::I32 => v as i32 as i64,
        _ => v,
    })
}

/// Index into a walker's register file.
pub(crate) type Reg = u32;

/// A value-level conversion between register representations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Conv {
    /// f32 → i64, saturating.
    F32ToI64,
    /// f64 → i64, saturating.
    F64ToI64,
    /// Integer → f32, rounded through f64.
    IntToF32,
    IntToF64,
    F32ToF64,
    F64ToF32,
    /// i64 → i32, wrapping (kept sign-extended).
    Wrap32,
    /// Truthiness of a float: `x != 0.0` as 0/1.
    F32Truth,
    F64Truth,
}

impl Conv {
    #[inline(always)]
    fn apply(self, x: u64) -> u64 {
        match self {
            Conv::F32ToI64 => f32_of(x) as i64 as u64,
            Conv::F64ToI64 => f64::from_bits(x) as i64 as u64,
            Conv::IntToF32 => (x as i64 as f64 as f32).to_bits() as u64,
            Conv::IntToF64 => (x as i64 as f64).to_bits(),
            Conv::F32ToF64 => (f32_of(x) as f64).to_bits(),
            Conv::F64ToF32 => (f64::from_bits(x) as f32).to_bits() as u64,
            Conv::Wrap32 => x as i32 as i64 as u64,
            Conv::F32Truth => (f32_of(x) != 0.0) as u64,
            Conv::F64Truth => (f64::from_bits(x) != 0.0) as u64,
        }
    }
}

// The flat instruction set. One row per operator: the operator, then its
// instruction for each operand type. From this one table come the `Inst`
// variants, the lowering's choice of variant (`Inst::binary`,
// `Inst::compare`, `Inst::unary`, `Inst::conv`) and the arms of `run`, so
// `run` dispatches once per instruction. Each arm calls a register-level
// wrapper of a `crate::expr` helper with a constant operator, which the
// inlined helper's `match` folds away.
macro_rules! instruction_set {
    (
        arith { $($aop:ident => $ai64:ident $ai32:ident $af32:ident $af64:ident,)* }
        bitwise { $($bop:ident => $bi64:ident $bi32:ident,)* }
        compare { $($cop:ident => $ci:ident $cf32:ident $cf64:ident,)* }
        unary { $($uop:ident => $ui64:ident $ui32:ident $uf32:ident $uf64:ident,)* }
        bitwise_unary { $($nop:ident => $ni64:ident $ni32:ident,)* }
        conv { $($conv:ident => $cv:ident,)* }
    ) => {
        /// One typed scalar instruction. Arithmetic is `(d, a, b)`: register
        /// `d` gets the operator applied to registers `a` and `b` (or to `a`
        /// alone).
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum Inst {
            $($ai64(Reg, Reg, Reg), $ai32(Reg, Reg, Reg), $af32(Reg, Reg, Reg), $af64(Reg, Reg, Reg),)*
            $($bi64(Reg, Reg, Reg), $bi32(Reg, Reg, Reg),)*
            $($ci(Reg, Reg, Reg), $cf32(Reg, Reg, Reg), $cf64(Reg, Reg, Reg),)*
            $($ui64(Reg, Reg), $ui32(Reg, Reg), $uf32(Reg, Reg), $uf64(Reg, Reg),)*
            $($ni64(Reg, Reg), $ni32(Reg, Reg),)*
            $($cv(Reg, Reg),)*
            /// `(d, c, t, e)`: `d = c != 0 ? t : e` (`c` is a truth value or
            /// an integer).
            Select(Reg, Reg, Reg, Reg),
            /// `(d, a)`: copy.
            Mov(Reg, Reg),
            /// External load of `lanes` elements at the i64 index in `idx`;
            /// emits the `Access` event.
            LoadExt {
                buf: ArgId,
                d: Reg,
                idx: Reg,
                lanes: u8,
                elem_bytes: u8,
            },
            /// Local-memory load; `first_read` emits the statement's one
            /// `LocalRead` event for this memory.
            LoadLocal {
                mem: LocalMemId,
                d: Reg,
                idx: Reg,
                lanes: u8,
                first_read: bool,
            },
        }

        impl Inst {
            /// The instruction computing arithmetic `op` on two operands of
            /// type `ty`.
            fn binary(op: BinOp, ty: ScalarType) -> fn(Reg, Reg, Reg) -> Inst {
                use ScalarType::*;
                match (op, ty) {
                    $((BinOp::$aop, I64) => Inst::$ai64,
                      (BinOp::$aop, I32) => Inst::$ai32,
                      (BinOp::$aop, F32) => Inst::$af32,
                      (BinOp::$aop, F64) => Inst::$af64,)*
                    $((BinOp::$bop, I64) => Inst::$bi64,
                      (BinOp::$bop, I32) => Inst::$bi32,)*
                    _ => unreachable!("{op:?} on {ty:?} fails validation"),
                }
            }

            /// The comparison `op` of two integers (`I32` or `I64`), two f32s
            /// (`F32`, compared in f64) or two f64s (`F64`).
            fn compare(op: BinOp, ty: ScalarType) -> fn(Reg, Reg, Reg) -> Inst {
                use ScalarType::*;
                match (op, ty) {
                    $((BinOp::$cop, I32 | I64) => Inst::$ci,
                      (BinOp::$cop, F32) => Inst::$cf32,
                      (BinOp::$cop, F64) => Inst::$cf64,)*
                    _ => unreachable!("{op:?} is not a comparison"),
                }
            }

            /// The unary `op` on an operand of type `ty`.
            fn unary(op: UnOp, ty: ScalarType) -> fn(Reg, Reg) -> Inst {
                use ScalarType::*;
                match (op, ty) {
                    $((UnOp::$uop, I64) => Inst::$ui64,
                      (UnOp::$uop, I32) => Inst::$ui32,
                      (UnOp::$uop, F32) => Inst::$uf32,
                      (UnOp::$uop, F64) => Inst::$uf64,)*
                    $((UnOp::$nop, I64) => Inst::$ni64,
                      (UnOp::$nop, I32) => Inst::$ni32,)*
                    _ => unreachable!("{op:?} on {ty:?} fails validation"),
                }
            }

            /// The instruction applying `conv`.
            fn conv(conv: Conv) -> fn(Reg, Reg) -> Inst {
                match conv {
                    $(Conv::$conv => Inst::$cv,)*
                }
            }
        }

        /// Execute one statement's expression code.
        ///
        /// Loads read through `mem` into the register file and emit their
        /// events; `local` holds the thread's local memories of `kernel`,
        /// each as `len × lanes` registers.
        #[inline]
        pub(crate) fn run<S: EventSink + ?Sized>(
            code: &[Inst],
            regs: &mut [u64],
            local: &[Vec<u64>],
            mem: &[Buffer],
            out: &mut Emit<'_, S>,
            kernel: &Kernel,
        ) {
            for inst in code {
                match *inst {
                    $(Inst::$ai64(d, a, b) => regs[d as usize] = i64_bin(BinOp::$aop, regs[a as usize], regs[b as usize]),
                      Inst::$ai32(d, a, b) => regs[d as usize] = i32_bin(BinOp::$aop, regs[a as usize], regs[b as usize]),
                      Inst::$af32(d, a, b) => regs[d as usize] = f32_bin(BinOp::$aop, regs[a as usize], regs[b as usize]),
                      Inst::$af64(d, a, b) => regs[d as usize] = f64_bin(BinOp::$aop, regs[a as usize], regs[b as usize]),)*
                    $(Inst::$bi64(d, a, b) => regs[d as usize] = i64_bin(BinOp::$bop, regs[a as usize], regs[b as usize]),
                      Inst::$bi32(d, a, b) => regs[d as usize] = i32_bin(BinOp::$bop, regs[a as usize], regs[b as usize]),)*
                    $(Inst::$ci(d, a, b) => regs[d as usize] = i64_cmp(BinOp::$cop, regs[a as usize], regs[b as usize]),
                      Inst::$cf32(d, a, b) => regs[d as usize] = f32_cmp(BinOp::$cop, regs[a as usize], regs[b as usize]),
                      Inst::$cf64(d, a, b) => regs[d as usize] = f64_cmp(BinOp::$cop, regs[a as usize], regs[b as usize]),)*
                    $(Inst::$ui64(d, a) => regs[d as usize] = i64_un(UnOp::$uop, regs[a as usize]),
                      Inst::$ui32(d, a) => regs[d as usize] = i32_un(UnOp::$uop, regs[a as usize]),
                      Inst::$uf32(d, a) => regs[d as usize] = f32_un(UnOp::$uop, regs[a as usize]),
                      Inst::$uf64(d, a) => regs[d as usize] = f64_un(UnOp::$uop, regs[a as usize]),)*
                    $(Inst::$ni64(d, a) => regs[d as usize] = i64_un(UnOp::$nop, regs[a as usize]),
                      Inst::$ni32(d, a) => regs[d as usize] = i32_un(UnOp::$nop, regs[a as usize]),)*
                    $(Inst::$cv(d, a) => regs[d as usize] = Conv::$conv.apply(regs[a as usize]),)*
                    Inst::Select(d, c, t, e) => {
                        let pick = if regs[c as usize] != 0 { t } else { e };
                        regs[d as usize] = regs[pick as usize];
                    }
                    Inst::Mov(d, a) => regs[d as usize] = regs[a as usize],
                    Inst::LoadExt {
                        buf,
                        d,
                        idx,
                        lanes,
                        elem_bytes,
                    } => {
                        let i = regs[idx as usize] as i64 as u64;
                        mem[buf.0 as usize].load(i, &mut regs[d as usize..d as usize + lanes as usize]);
                        out.event(StepEvent::Access(MemAccess {
                            buf,
                            byte_off: i * elem_bytes as u64,
                            bytes: elem_bytes as u32 * lanes as u32,
                            is_write: false,
                        }));
                    }
                    Inst::LoadLocal {
                        mem: lm,
                        d,
                        idx,
                        lanes,
                        first_read,
                    } => {
                        if first_read {
                            out.event(StepEvent::LocalRead { mem: lm });
                        }
                        let i = regs[idx as usize] as i64 as usize;
                        let words = &local[lm.0 as usize];
                        let n = lanes as usize;
                        let w = local_word(kernel, lm, i, n, words.len());
                        regs[d as usize..d as usize + n].copy_from_slice(&words[w..w + n]);
                    }
                }
            }
        }
    };
}

// Columns: the operand type, in the order i64, i32, f32, f64. Bitwise
// operators take integers only (validation rejects float operands), and a
// comparison has one integer column for both widths.
instruction_set! {
    arith {
        Add => I64Add I32Add F32Add F64Add,
        Sub => I64Sub I32Sub F32Sub F64Sub,
        Mul => I64Mul I32Mul F32Mul F64Mul,
        Div => I64Div I32Div F32Div F64Div,
        Rem => I64Rem I32Rem F32Rem F64Rem,
        Min => I64Min I32Min F32Min F64Min,
        Max => I64Max I32Max F32Max F64Max,
    }
    bitwise {
        And => I64And I32And,
        Or => I64Or I32Or,
        Xor => I64Xor I32Xor,
        Shl => I64Shl I32Shl,
        Shr => I64Shr I32Shr,
    }
    compare {
        Lt => CmpILt CmpF32Lt CmpF64Lt,
        Le => CmpILe CmpF32Le CmpF64Le,
        Gt => CmpIGt CmpF32Gt CmpF64Gt,
        Ge => CmpIGe CmpF32Ge CmpF64Ge,
        Eq => CmpIEq CmpF32Eq CmpF64Eq,
        Ne => CmpINe CmpF32Ne CmpF64Ne,
    }
    unary {
        Neg => I64Neg I32Neg F32Neg F64Neg,
        Abs => I64Abs I32Abs F32Abs F64Abs,
        Sqrt => I64Sqrt I32Sqrt F32Sqrt F64Sqrt,
    }
    bitwise_unary {
        Not => I64Not I32Not,
    }
    conv {
        F32ToI64 => ConvF32ToI64,
        F64ToI64 => ConvF64ToI64,
        IntToF32 => ConvIntToF32,
        IntToF64 => ConvIntToF64,
        F32ToF64 => ConvF32ToF64,
        F64ToF32 => ConvF64ToF32,
        Wrap32 => ConvWrap32,
        F32Truth => ConvF32Truth,
        F64Truth => ConvF64Truth,
    }
}

// Register-level wrappers of the `crate::expr` helpers: unpack the
// operands' register bits, apply the operator, pack the result.

#[inline(always)]
fn f32_of(x: u64) -> f32 {
    f32::from_bits(x as u32)
}

#[inline(always)]
fn i64_bin(op: BinOp, x: u64, y: u64) -> u64 {
    int_binop(op, x as i64, y as i64) as u64
}

/// i32 arithmetic: computed in i64, then wrapped.
#[inline(always)]
fn i32_bin(op: BinOp, x: u64, y: u64) -> u64 {
    int_binop(op, x as i64, y as i64) as i32 as i64 as u64
}

#[inline(always)]
fn f32_bin(op: BinOp, x: u64, y: u64) -> u64 {
    f32_binop(op, f32_of(x), f32_of(y)).to_bits() as u64
}

#[inline(always)]
fn f64_bin(op: BinOp, x: u64, y: u64) -> u64 {
    f64_binop(op, f64::from_bits(x), f64::from_bits(y)).to_bits()
}

#[inline(always)]
fn i64_cmp(op: BinOp, x: u64, y: u64) -> u64 {
    cmp_i64(op, x as i64, y as i64) as u64
}

/// f32 comparison, in f64 (exactly).
#[inline(always)]
fn f32_cmp(op: BinOp, x: u64, y: u64) -> u64 {
    cmp_f64(op, f32_of(x) as f64, f32_of(y) as f64) as u64
}

#[inline(always)]
fn f64_cmp(op: BinOp, x: u64, y: u64) -> u64 {
    cmp_f64(op, f64::from_bits(x), f64::from_bits(y)) as u64
}

#[inline(always)]
fn i64_un(op: UnOp, x: u64) -> u64 {
    int_unop(op, x as i64) as u64
}

#[inline(always)]
fn i32_un(op: UnOp, x: u64) -> u64 {
    int_unop(op, x as i64) as i32 as i64 as u64
}

/// f32 unary operation, computed in f64.
#[inline(always)]
fn f32_un(op: UnOp, x: u64) -> u64 {
    (float_unop(op, f32_of(x) as f64) as f32).to_bits() as u64
}

#[inline(always)]
fn f64_un(op: UnOp, x: u64) -> u64 {
    float_unop(op, f64::from_bits(x)).to_bits()
}

/// A contiguous run of statements: a block of the kernel's body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BlockRange {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl BlockRange {
    /// Placeholder for a child block not lowered yet.
    const EMPTY: BlockRange = BlockRange { start: 0, end: 0 };
}

/// What a statement does once its expressions have been evaluated. Operand
/// registers hold i64 values (indices, offsets, bounds), truth values
/// (conditions) or values of the destination's type (stored values).
#[derive(Clone, Copy, Debug)]
pub(crate) enum StmtKind {
    Assign {
        dst: Reg,
        src: Reg,
        lanes: u8,
    },
    StoreExt {
        buf: ArgId,
        idx: Reg,
        val: Reg,
        ty: Type,
        elem_bytes: u32,
    },
    StoreLocal {
        mem: LocalMemId,
        idx: Reg,
        val: Reg,
        lanes: u8,
    },
    For {
        loop_id: LoopId,
        var: Reg,
        var_ty: ScalarType,
        start: Reg,
        end: Reg,
        step: Reg,
        body: BlockRange,
        unrolled: bool,
    },
    If {
        cond: Reg,
        then_b: BlockRange,
        else_b: BlockRange,
    },
    Critical {
        body: BlockRange,
    },
    Barrier,
    Preload {
        mem: LocalMemId,
        src: ArgId,
        src_off: Reg,
        dst_off: Reg,
        len: Reg,
        elem: Type,
    },
    WriteBack {
        mem: LocalMemId,
        dst: ArgId,
        dst_off: Reg,
        src_off: Reg,
        len: Reg,
        elem: Type,
    },
}

/// One statement: its expression code, its static op counts and its kind.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StmtCode {
    /// `insts[code.0..code.1]` evaluates the statement's expressions.
    pub(crate) code: (u32, u32),
    pub(crate) ops: OpCounts,
    pub(crate) kind: StmtKind,
}

/// A kernel compiled for the walkers: lowered once per run and shared by
/// every thread behind an `Arc`.
#[derive(Debug)]
pub struct Program {
    pub(crate) insts: Vec<Inst>,
    pub(crate) stmts: Vec<StmtCode>,
    pub(crate) body: BlockRange,
    /// Initial register image: constants set, everything else zero.
    pub(crate) init_regs: Vec<u64>,
    /// `(register, argument)` of every scalar argument.
    pub(crate) arg_regs: Vec<(Reg, ArgId)>,
    pub(crate) tid_reg: Reg,
    /// First register and type of every variable, indexed by [`VarId`].
    pub(crate) var_regs: Vec<(Reg, Type)>,
    /// Element type and length of every local memory.
    pub(crate) local_mems: Vec<(Type, u64)>,
    num_loops: usize,
}

impl Program {
    /// Compile `kernel` to its instruction tape.
    ///
    /// # Panics
    /// Panics if the kernel fails static typing; every kernel accepted by
    /// [`crate::validate::validate`] lowers.
    pub fn lower(kernel: &Kernel) -> Program {
        let types = infer_types(kernel).expect("lowering a kernel that fails validation");
        let mut l = Lowering {
            k: kernel,
            types: &types,
            counter: OpCounter::new(kernel, &types),
            loops: LoopMap::build(kernel),
            insts: Vec::new(),
            stmts: Vec::new(),
            init_regs: Vec::new(),
            node_reg: vec![None; kernel.exprs.len()],
            seen: vec![0; kernel.exprs.len()],
            stmt_gen: 0,
            arg_reg: vec![0; kernel.args.len()],
            var_regs: Vec::new(),
            tid_reg: 0,
            local_reads: Vec::new(),
        };
        l.tid_reg = l.alloc(1);
        let mut arg_regs = Vec::new();
        for (i, a) in kernel.args.iter().enumerate() {
            if let ArgKind::Scalar(_) = a.kind {
                l.arg_reg[i] = l.alloc(1);
                arg_regs.push((l.arg_reg[i], ArgId(i as u32)));
            }
        }
        l.var_regs = kernel
            .vars
            .iter()
            .map(|v| (l.alloc(v.ty.lanes), v.ty))
            .collect();
        let body = l.block(&kernel.body);
        Program {
            insts: l.insts,
            stmts: l.stmts,
            body,
            init_regs: l.init_regs,
            arg_regs,
            tid_reg: l.tid_reg,
            var_regs: l.var_regs,
            local_mems: kernel.local_mems.iter().map(|m| (m.elem, m.len)).collect(),
            num_loops: l.loops.len(),
        }
    }

    /// Number of loops, numbered like [`LoopMap`].
    pub fn num_loops(&self) -> usize {
        self.num_loops
    }

    /// First register and type of variable `v`.
    pub(crate) fn var(&self, v: VarId) -> (Reg, Type) {
        self.var_regs[v.0 as usize]
    }
}

struct Lowering<'k> {
    k: &'k Kernel,
    types: &'k [Type],
    counter: OpCounter<'k>,
    loops: LoopMap<'k>,
    insts: Vec<Inst>,
    stmts: Vec<StmtCode>,
    init_regs: Vec<u64>,
    /// Registers of each computed node, allocated on first use and reused
    /// by every statement that evaluates the node.
    node_reg: Vec<Option<Reg>>,
    /// `seen[id] == stmt_gen`: the node is already evaluated by the
    /// statement being lowered.
    seen: Vec<u32>,
    stmt_gen: u32,
    arg_reg: Vec<Reg>,
    var_regs: Vec<(Reg, Type)>,
    tid_reg: Reg,
    /// Local memories read by the statement being lowered.
    local_reads: Vec<LocalMemId>,
}

impl Lowering<'_> {
    fn alloc(&mut self, lanes: u8) -> Reg {
        let r = self.init_regs.len() as Reg;
        self.init_regs
            .resize(self.init_regs.len() + lanes.max(1) as usize, 0);
        r
    }

    fn ty(&self, e: ExprId) -> Type {
        self.types[e.0 as usize]
    }

    /// Lower a block: its statements take consecutive slots, and nested
    /// blocks are lowered after them.
    fn block(&mut self, b: &[Stmt]) -> BlockRange {
        let start = self.stmts.len() as u32;
        let placeholder = StmtCode {
            code: (0, 0),
            ops: OpCounts::default(),
            kind: StmtKind::Barrier,
        };
        self.stmts.resize(start as usize + b.len(), placeholder);
        for (i, s) in b.iter().enumerate() {
            let code = self.stmt(s);
            self.stmts[start as usize + i] = code;
        }
        BlockRange {
            start,
            end: start + b.len() as u32,
        }
    }

    fn stmt(&mut self, s: &Stmt) -> StmtCode {
        self.stmt_gen += 1;
        self.local_reads.clear();
        let first = self.insts.len() as u32;
        // Operands in the walker's evaluation order; child blocks are
        // lowered only after this statement's code is complete.
        let mut kind = match s {
            Stmt::Assign { var, expr } => {
                let src = self.expr(*expr);
                let (dst, ty) = self.var_regs[var.0 as usize];
                StmtKind::Assign {
                    dst,
                    src,
                    lanes: ty.lanes,
                }
            }
            Stmt::StoreExt { buf, index, value } => {
                let idx = self.index(*index);
                let val = self.expr(*value);
                StmtKind::StoreExt {
                    buf: *buf,
                    idx,
                    val,
                    ty: self.ty(*value),
                    elem_bytes: self.k.buffer_elem_size(*buf),
                }
            }
            Stmt::StoreLocal { mem, index, value } => {
                let idx = self.index(*index);
                let val = self.expr(*value);
                StmtKind::StoreLocal {
                    mem: *mem,
                    idx,
                    val,
                    lanes: self.ty(*value).lanes,
                }
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                unroll,
                ..
            } => {
                let (start, end, step) = (self.index(*start), self.index(*end), self.index(*step));
                let (var, ty) = self.var_regs[var.0 as usize];
                StmtKind::For {
                    loop_id: self.loops.id_of(s),
                    var,
                    var_ty: ty.scalar,
                    start,
                    end,
                    step,
                    body: BlockRange::EMPTY,
                    unrolled: *unroll == Unroll::Full,
                }
            }
            Stmt::If { cond, .. } => {
                let c = self.expr(*cond);
                StmtKind::If {
                    cond: self.truth(self.ty(*cond).scalar, c),
                    then_b: BlockRange::EMPTY,
                    else_b: BlockRange::EMPTY,
                }
            }
            Stmt::Critical { .. } => StmtKind::Critical {
                body: BlockRange::EMPTY,
            },
            Stmt::Barrier => StmtKind::Barrier,
            Stmt::Preload {
                mem,
                src,
                src_off,
                dst_off,
                len,
            } => StmtKind::Preload {
                mem: *mem,
                src: *src,
                src_off: self.index(*src_off),
                dst_off: self.index(*dst_off),
                len: self.index(*len),
                elem: self.k.local_mem(*mem).elem,
            },
            Stmt::WriteBack {
                mem,
                dst,
                dst_off,
                src_off,
                len,
            } => StmtKind::WriteBack {
                mem: *mem,
                dst: *dst,
                dst_off: self.index(*dst_off),
                src_off: self.index(*src_off),
                len: self.index(*len),
                elem: self.k.local_mem(*mem).elem,
            },
        };
        let code = (first, self.insts.len() as u32);
        let ops = self.counter.stmt(s);
        match (&mut kind, s) {
            (StmtKind::For { body: b, .. }, Stmt::For { body, .. })
            | (StmtKind::Critical { body: b }, Stmt::Critical { body }) => *b = self.block(body),
            (
                StmtKind::If {
                    then_b: t,
                    else_b: e,
                    ..
                },
                Stmt::If { then_b, else_b, .. },
            ) => {
                *t = self.block(then_b);
                *e = self.block(else_b);
            }
            _ => {}
        }
        StmtCode { code, ops, kind }
    }

    fn emit(&mut self, i: Inst) {
        self.insts.push(i);
    }

    /// A fresh register holding `conv(r)`.
    fn conv(&mut self, conv: Conv, r: Reg) -> Reg {
        let d = self.alloc(1);
        self.emit(Inst::conv(conv)(d, r));
        d
    }

    /// `r` (of type `ty`) read as an i64, as [`Value::as_i64`] reads.
    fn as_i64(&mut self, ty: ScalarType, r: Reg) -> Reg {
        match ty {
            ScalarType::F32 => self.conv(Conv::F32ToI64, r),
            ScalarType::F64 => self.conv(Conv::F64ToI64, r),
            ScalarType::I32 | ScalarType::I64 => r,
        }
    }

    /// `r` (of type `ty`) read as an f64, as [`Value::as_f64`] reads.
    fn as_f64(&mut self, ty: ScalarType, r: Reg) -> Reg {
        match ty {
            ScalarType::F32 => self.conv(Conv::F32ToF64, r),
            ScalarType::F64 => r,
            ScalarType::I32 | ScalarType::I64 => self.conv(Conv::IntToF64, r),
        }
    }

    /// `r` (of type `ty`) as an f32, rounded through f64.
    fn as_f32(&mut self, ty: ScalarType, r: Reg) -> Reg {
        match ty {
            ScalarType::F32 => r,
            ScalarType::F64 => self.conv(Conv::F64ToF32, r),
            ScalarType::I32 | ScalarType::I64 => self.conv(Conv::IntToF32, r),
        }
    }

    /// A register that is non-zero exactly when `r` is true.
    fn truth(&mut self, ty: ScalarType, r: Reg) -> Reg {
        match ty {
            ScalarType::F32 => self.conv(Conv::F32Truth, r),
            ScalarType::F64 => self.conv(Conv::F64Truth, r),
            ScalarType::I32 | ScalarType::I64 => r,
        }
    }

    /// Evaluate a scalar operand used as an index, offset or bound.
    fn index(&mut self, e: ExprId) -> Reg {
        let r = self.expr(e);
        self.as_i64(self.ty(e).scalar, r)
    }

    /// The node's own registers, allocated on first use.
    fn node_reg(&mut self, id: ExprId) -> Reg {
        match self.node_reg[id.0 as usize] {
            Some(r) => r,
            None => {
                let r = self.alloc(self.ty(id).lanes);
                self.node_reg[id.0 as usize] = Some(r);
                r
            }
        }
    }

    /// Emit code evaluating `id` (once per statement) and return the first
    /// register of its value.
    fn expr(&mut self, id: ExprId) -> Reg {
        let slot = id.0 as usize;
        if self.seen[slot] == self.stmt_gen {
            return self.node_reg[slot].expect("evaluated node has registers");
        }
        let ty = self.ty(id);
        let k = self.k;
        let r = match k.expr(id) {
            Expr::Const(v) => match self.node_reg[slot] {
                Some(r) => r,
                None => {
                    let r = self.node_reg(id);
                    let bits: Vec<u64> = match v {
                        Value::Vec(ls) => ls.iter().map(Value::to_bits).collect(),
                        s => vec![s.to_bits()],
                    };
                    self.init_regs[r as usize..r as usize + bits.len()].copy_from_slice(&bits);
                    r
                }
            },
            Expr::NumThreads => {
                let r = self.node_reg(id);
                self.init_regs[r as usize] = Value::I32(k.num_threads as i32).to_bits();
                r
            }
            Expr::Arg(a) => self.arg_reg[a.0 as usize],
            Expr::ThreadId => self.tid_reg,
            Expr::Var(v) => self.var_regs[v.0 as usize].0,
            Expr::Unary(op, a) => {
                let ra = self.expr(*a);
                let st = self.ty(*a).scalar;
                let d = self.node_reg(id);
                let unop = Inst::unary(*op, st);
                for l in 0..ty.lanes as Reg {
                    self.emit(unop(d + l, ra + l));
                }
                d
            }
            Expr::Binary(op, a, b) => {
                let ra = self.expr(*a);
                let rb = self.expr(*b);
                let (ta, tb) = (self.ty(*a).scalar, self.ty(*b).scalar);
                let d = self.node_reg(id);
                for l in 0..ty.lanes as Reg {
                    self.binop(*op, d + l, ta, ra + l, tb, rb + l);
                }
                d
            }
            Expr::Select {
                cond,
                then_v,
                else_v,
            } => {
                // Both arms are evaluated: the datapath computes both and
                // multiplexes (no short-circuit in hardware).
                let rc = self.expr(*cond);
                let rt = self.expr(*then_v);
                let re = self.expr(*else_v);
                let c = self.truth(self.ty(*cond).scalar, rc);
                let d = self.node_reg(id);
                for l in 0..ty.lanes as Reg {
                    self.emit(Inst::Select(d + l, c, rt + l, re + l));
                }
                d
            }
            Expr::Cast(to, a) => {
                let ra = self.expr(*a);
                let from = self.ty(*a).scalar;
                // A cast's value lives in a fresh temporary per statement,
                // or aliases the operand when the cast preserves the value.
                match to {
                    ScalarType::I32 | ScalarType::I64 => {
                        let r = self.as_i64(from, ra);
                        if *to == ScalarType::I32 && from != ScalarType::I32 {
                            self.conv(Conv::Wrap32, r)
                        } else {
                            r
                        }
                    }
                    ScalarType::F32 => self.as_f32(from, ra),
                    ScalarType::F64 => self.as_f64(from, ra),
                }
            }
            Expr::LoadExt { buf, index, ty } => {
                let idx = self.index(*index);
                let d = self.node_reg(id);
                self.emit(Inst::LoadExt {
                    buf: *buf,
                    d,
                    idx,
                    lanes: ty.lanes,
                    elem_bytes: ty.scalar.size_bytes() as u8,
                });
                d
            }
            Expr::LoadLocal { mem, index, ty } => {
                let idx = self.index(*index);
                let first_read = !self.local_reads.contains(mem);
                if first_read {
                    self.local_reads.push(*mem);
                }
                let d = self.node_reg(id);
                self.emit(Inst::LoadLocal {
                    mem: *mem,
                    d,
                    idx,
                    lanes: ty.lanes,
                    first_read,
                });
                d
            }
            Expr::Lane(a, lane) => self.expr(*a) + *lane as Reg,
            Expr::Splat(a, _) => {
                let ra = self.expr(*a);
                let d = self.node_reg(id);
                for l in 0..ty.lanes as Reg {
                    self.emit(Inst::Mov(d + l, ra));
                }
                d
            }
        };
        self.seen[slot] = self.stmt_gen;
        self.node_reg[slot] = Some(r);
        r
    }

    /// One lane of a binary operation: convert the right operand (and, for
    /// float comparisons, the left) the way the value semantics do.
    fn binop(&mut self, op: BinOp, d: Reg, ta: ScalarType, a: Reg, tb: ScalarType, b: Reg) {
        let inst = match ta {
            ScalarType::F32 if op.is_comparison() && tb == ScalarType::F32 => {
                Inst::compare(op, ScalarType::F32)(d, a, b)
            }
            ScalarType::F32 | ScalarType::F64 if op.is_comparison() => {
                let a = self.as_f64(ta, a);
                Inst::compare(op, ScalarType::F64)(d, a, self.as_f64(tb, b))
            }
            ScalarType::I32 | ScalarType::I64 if op.is_comparison() => {
                Inst::compare(op, ta)(d, a, self.as_i64(tb, b))
            }
            ScalarType::F32 => Inst::binary(op, ta)(d, a, self.as_f32(tb, b)),
            ScalarType::F64 => Inst::binary(op, ta)(d, a, self.as_f64(tb, b)),
            ScalarType::I32 | ScalarType::I64 => Inst::binary(op, ta)(d, a, self.as_i64(tb, b)),
        };
        self.emit(inst);
    }
}

/// The first word of element `idx` of local memory `lm`, whose `words`
/// words hold elements of `lanes` words each.
///
/// # Panics
/// Panics unless the whole element is inside the memory.
#[inline(always)]
pub(crate) fn local_word(
    kernel: &Kernel,
    lm: LocalMemId,
    idx: usize,
    lanes: usize,
    words: usize,
) -> usize {
    match idx.checked_mul(lanes) {
        Some(w) if w.checked_add(lanes).is_some_and(|end| end <= words) => w,
        _ => local_out_of_bounds(kernel, lm, idx, words / lanes),
    }
}

#[cold]
#[inline(never)]
fn local_out_of_bounds(kernel: &Kernel, lm: LocalMemId, idx: usize, len: usize) -> ! {
    panic!(
        "local memory `{}` index {} out of bounds ({})",
        kernel.local_mem(lm).name,
        idx,
        len
    )
}
