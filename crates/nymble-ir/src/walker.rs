//! The per-thread semantic engine.
//!
//! A [`Walker`] executes one hardware thread of a kernel *functionally* and
//! reports what it did as a stream of [`StepEvent`]s. It deliberately knows
//! nothing about time: the untimed gold interpreter
//! ([`crate::interp::Interpreter`]) and the cycle-level FPGA simulator
//! (`fpga-sim`) both drive walkers, attributing cost (or not) to each event.
//!
//! ## Pausing protocol
//!
//! The walker is an explicit-stack interpreter, so a driver can suspend a
//! thread at synchronisation points:
//!
//! * On [`StepEvent::CriticalEnter`] the walker has *not yet* executed the
//!   critical body. The driver must not call [`Walker::step`] again until the
//!   (simulated) hardware semaphore has been acquired — mutual exclusion is
//!   the driver's responsibility, which lets the timed simulator model
//!   spinning precisely.
//! * On [`StepEvent::Barrier`] the driver steps the walker again only when
//!   all threads have arrived.
//!
//! All other events are informational; the walker can be stepped immediately.

use crate::expr::{eval_binop, eval_unop, Expr, ExprId};
use crate::kernel::{ArgId, ArgKind, Kernel, LocalMemId, VarId};
use crate::loops::{LoopId, LoopMap};
use crate::opcount::OpCounts;
use crate::stmt::{Stmt, Unroll};
use crate::types::{ScalarType, Type, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Functional data storage the walker reads and writes through.
///
/// The gold interpreter backs this with plain `Vec`s; the FPGA simulator
/// backs it with the simulated external-DRAM image so that data transfers and
/// values stay consistent with the timing model.
pub trait DataMemory {
    /// Load `ty` from buffer `buf` at *element* index `elem_idx` (a vector
    /// load reads `ty.lanes` consecutive elements).
    fn load_ext(&mut self, buf: ArgId, elem_idx: u64, ty: Type) -> Value;
    /// Store `v` to buffer `buf` at element index `elem_idx` (vector stores
    /// write all lanes consecutively).
    fn store_ext(&mut self, buf: ArgId, elem_idx: u64, v: Value);
}

/// One external-memory access, as observed on the thread's Avalon master.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Which buffer argument.
    pub buf: ArgId,
    /// Byte offset inside the buffer.
    pub byte_off: u64,
    /// Transfer size in bytes (element size × lanes; a burst for
    /// preload/write-back).
    pub bytes: u32,
    /// Direction.
    pub is_write: bool,
}

/// What a [`Walker::step`] call observed.
#[derive(Clone, Debug, PartialEq)]
pub enum StepEvent {
    /// A statement's worth of datapath compute was executed.
    /// Zero-valued counts are suppressed (no event).
    Ops(OpCounts),
    /// An individual external-memory access (variable-latency operation).
    Access(MemAccess),
    /// A preloader burst (external→local or local→external). Reported as a
    /// single access because the preloader issues one Avalon burst; carries
    /// the local memory involved so a timed driver can model DMA completion
    /// dependencies (blocked vs. double-buffered GEMM, Figs. 8 vs. 9).
    Burst { access: MemAccess, mem: LocalMemId },
    /// The current statement read from local memory `mem`. Emitted at most
    /// once per statement; a timed driver stalls the thread until any
    /// outstanding preloader DMA into `mem` has completed.
    LocalRead { mem: LocalMemId },
    /// Entered a non-unrolled loop; `trip` is the dynamic trip count.
    LoopEnter { loop_id: LoopId, trip: u64 },
    /// A new iteration of loop `loop_id` is about to execute.
    LoopIter { loop_id: LoopId },
    /// Left loop `loop_id`.
    LoopExit { loop_id: LoopId },
    /// About to enter a critical section: the thread will spin on the
    /// hardware semaphore. See the pausing protocol in the module docs.
    CriticalEnter,
    /// Left a critical section (semaphore released).
    CriticalExit,
    /// Arrived at a barrier. See the pausing protocol.
    Barrier,
    /// The thread has executed its whole body. Terminal: subsequent `step`
    /// calls return `Finished` again.
    Finished,
}

enum Frame<'k> {
    /// Plain statement sequence.
    Block { stmts: &'k [Stmt], idx: usize },
    /// Active counted loop (bounds pre-evaluated).
    Loop {
        /// The loop's stable id, resolved once at entry so per-iteration
        /// events need no [`LoopMap`] lookup.
        loop_id: LoopId,
        var: VarId,
        body: &'k [Stmt],
        next: i64,
        end: i64,
        step: i64,
        unrolled: bool,
        /// Body frame must be pushed for iteration `next` on resume.
        pending_iter: bool,
    },
    /// Critical section in flight (so we can emit CriticalExit on leave).
    Critical { body: &'k [Stmt], entered: bool },
}

/// Explicit-stack interpreter for one hardware thread.
///
/// Holds the loop map behind an [`Arc`] (shared by every thread of a run)
/// so a walker set plus its kernel borrow forms a self-contained, `Send`
/// simulation state.
pub struct Walker<'k> {
    kernel: &'k Kernel,
    loops: Arc<LoopMap>,
    tid: u32,
    /// Scalar argument values, indexed by `ArgId` (buffer slots unused).
    scalar_args: Vec<Value>,
    vars: Vec<Value>,
    local: Vec<Vec<Value>>,
    stack: Vec<Frame<'k>>,
    queue: VecDeque<StepEvent>,
    finished: bool,
    /// Local memories read by the statement currently being evaluated
    /// (deduplicates [`StepEvent::LocalRead`] to one per statement).
    stmt_local_reads: Vec<LocalMemId>,
    /// Per-statement memoisation of shared sub-expressions: the arena is a
    /// DAG (e.g. `x` in `x*x`), and a shared node is one datapath operator —
    /// it must evaluate, count and issue memory requests exactly once per
    /// statement execution.
    eval_gen: u64,
    eval_cache: Vec<Option<(u64, Value)>>,
    /// `shared[id]` — the expression is referenced more than once (by other
    /// expressions or statements), so it *can* be evaluated multiple times
    /// per statement and must go through the memo cache. Single-reference
    /// nodes — the vast majority — skip the cache bookkeeping entirely.
    shared: Vec<bool>,
}

/// Count every reference to each expression (expression children plus
/// statement operands); a node referenced at least twice may be evaluated
/// more than once within one statement and therefore must be memoised.
fn shared_expr_map(kernel: &Kernel) -> Vec<bool> {
    let mut refs = vec![0u32; kernel.exprs.len()];
    for e in kernel.exprs.iter() {
        for c in e.children() {
            refs[c.0 as usize] = refs[c.0 as usize].saturating_add(1);
        }
    }
    fn bump(refs: &mut [u32], id: ExprId) {
        refs[id.0 as usize] = refs[id.0 as usize].saturating_add(1);
    }
    fn visit_block(b: &[Stmt], refs: &mut [u32]) {
        for s in b {
            match s {
                Stmt::Assign { expr, .. } => bump(refs, *expr),
                Stmt::StoreExt { index, value, .. } | Stmt::StoreLocal { index, value, .. } => {
                    bump(refs, *index);
                    bump(refs, *value);
                }
                Stmt::For {
                    start,
                    end,
                    step,
                    body,
                    ..
                } => {
                    bump(refs, *start);
                    bump(refs, *end);
                    bump(refs, *step);
                    visit_block(body, refs);
                }
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    bump(refs, *cond);
                    visit_block(then_b, refs);
                    visit_block(else_b, refs);
                }
                Stmt::Critical { body } => visit_block(body, refs),
                Stmt::Preload {
                    src_off,
                    dst_off,
                    len,
                    ..
                } => {
                    bump(refs, *src_off);
                    bump(refs, *dst_off);
                    bump(refs, *len);
                }
                Stmt::WriteBack {
                    dst_off,
                    src_off,
                    len,
                    ..
                } => {
                    bump(refs, *dst_off);
                    bump(refs, *src_off);
                    bump(refs, *len);
                }
                Stmt::Barrier => {}
            }
        }
    }
    visit_block(&kernel.body, &mut refs);
    refs.into_iter().map(|r| r >= 2).collect()
}

impl<'k> Walker<'k> {
    /// Create a walker for hardware thread `tid`.
    ///
    /// `scalar_args` must have one entry per kernel argument; entries for
    /// buffer arguments are ignored (pass any placeholder).
    pub fn new(kernel: &'k Kernel, loops: Arc<LoopMap>, tid: u32, scalar_args: Vec<Value>) -> Self {
        assert!(tid < kernel.num_threads, "thread id out of range");
        assert_eq!(
            scalar_args.len(),
            kernel.args.len(),
            "one launch value per kernel argument"
        );
        for (i, arg) in kernel.args.iter().enumerate() {
            if let ArgKind::Scalar(st) = arg.kind {
                assert_eq!(
                    scalar_args[i].ty().scalar,
                    st,
                    "scalar arg `{}` launch value has wrong type",
                    arg.name
                );
            }
        }
        let vars = kernel
            .vars
            .iter()
            .map(|v| Value::zero(v.ty))
            .collect::<Vec<_>>();
        let local = kernel
            .local_mems
            .iter()
            .map(|m| vec![Value::zero(m.elem); m.len as usize])
            .collect::<Vec<_>>();
        Walker {
            kernel,
            loops,
            tid,
            scalar_args,
            vars,
            local,
            stack: vec![Frame::Block {
                stmts: &kernel.body,
                idx: 0,
            }],
            queue: VecDeque::new(),
            finished: false,
            stmt_local_reads: Vec::new(),
            eval_gen: 0,
            eval_cache: vec![None; kernel.exprs.len()],
            shared: shared_expr_map(kernel),
        }
    }

    /// The hardware thread id this walker executes.
    pub fn thread_id(&self) -> u32 {
        self.tid
    }

    /// Read back a thread-local variable (for result checks in tests).
    pub fn var_value(&self, v: VarId) -> &Value {
        &self.vars[v.0 as usize]
    }

    /// Advance the thread until the next observable event.
    pub fn step<M: DataMemory + ?Sized>(&mut self, mem: &mut M) -> StepEvent {
        if let Some(ev) = self.queue.pop_front() {
            return ev;
        }
        if self.finished {
            return StepEvent::Finished;
        }
        loop {
            // Work the top frame until an event is produced.
            let Some(frame) = self.stack.last_mut() else {
                self.finished = true;
                return StepEvent::Finished;
            };
            match frame {
                Frame::Block { stmts, idx } => {
                    if *idx >= stmts.len() {
                        self.stack.pop();
                        // Leaving a critical body: emit the exit event.
                        if let Some(Frame::Critical { entered: true, .. }) = self.stack.last() {
                            self.stack.pop();
                            return StepEvent::CriticalExit;
                        }
                        continue;
                    }
                    let s = &stmts[*idx];
                    *idx += 1;
                    if let Some(ev) = self.exec_stmt(s, mem) {
                        return ev;
                    }
                    if let Some(ev) = self.queue.pop_front() {
                        return ev;
                    }
                }
                Frame::Loop {
                    loop_id,
                    var,
                    body,
                    next,
                    end,
                    step,
                    unrolled,
                    pending_iter,
                } => {
                    let done = if *step >= 0 {
                        *next >= *end
                    } else {
                        *next <= *end
                    };
                    if done {
                        let unrolled = *unrolled;
                        let loop_id = *loop_id;
                        self.stack.pop();
                        if !unrolled {
                            return StepEvent::LoopExit { loop_id };
                        }
                        continue;
                    }
                    // Start the next iteration.
                    let vslot = var.0 as usize;
                    let ty = self.kernel.vars[vslot].ty.scalar;
                    let cur = *next;
                    *next += *step;
                    *pending_iter = false;
                    let body: &'k [Stmt] = body;
                    let unrolled = *unrolled;
                    let loop_id = *loop_id;
                    self.vars[vslot] = Value::from_i64(ty, cur);
                    self.stack.push(Frame::Block {
                        stmts: body,
                        idx: 0,
                    });
                    if !unrolled {
                        return StepEvent::LoopIter { loop_id };
                    }
                }
                Frame::Critical { body, entered } => {
                    // We only reach here the second time (after the driver
                    // granted the lock): push the body and mark entered.
                    *entered = true;
                    let body: &'k [Stmt] = body;
                    self.stack.push(Frame::Block {
                        stmts: body,
                        idx: 0,
                    });
                }
            }
        }
    }

    /// Execute a single statement; may return a primary event and queue more.
    fn exec_stmt<M: DataMemory + ?Sized>(&mut self, s: &'k Stmt, mem: &mut M) -> Option<StepEvent> {
        self.stmt_local_reads.clear();
        self.eval_gen += 1;
        match s {
            Stmt::Assign { var, expr } => {
                let mut ops = OpCounts::default();
                let v = self.eval(*expr, mem, &mut ops);
                self.vars[var.0 as usize] = v;
                self.emit_ops(ops)
            }
            Stmt::StoreExt { buf, index, value } => {
                let mut ops = OpCounts::default();
                let idx = self.eval(*index, mem, &mut ops).as_i64() as u64;
                let v = self.eval(*value, mem, &mut ops);
                let bytes = v.ty().size_bytes();
                let elem_size = self.kernel.buffer_elem_size(*buf) as u64;
                mem.store_ext(*buf, idx, v);
                self.queue.push_back(StepEvent::Access(MemAccess {
                    buf: *buf,
                    byte_off: idx * elem_size,
                    bytes,
                    is_write: true,
                }));
                self.emit_ops(ops)
            }
            Stmt::StoreLocal {
                mem: lm,
                index,
                value,
            } => {
                let mut ops = OpCounts::default();
                let idx = self.eval(*index, mem, &mut ops).as_i64() as usize;
                let v = self.eval(*value, mem, &mut ops);
                self.write_local(*lm, idx, v);
                self.emit_ops(ops)
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
                unroll,
            } => {
                let mut ops = OpCounts::default();
                let s0 = self.eval(*start, mem, &mut ops).as_i64();
                let e0 = self.eval(*end, mem, &mut ops).as_i64();
                let st = self.eval(*step, mem, &mut ops).as_i64();
                assert!(st != 0, "zero loop step");
                let trip = if st > 0 {
                    ((e0 - s0).max(0) as u64).div_ceil(st as u64)
                } else {
                    ((s0 - e0).max(0) as u64).div_ceil((-st) as u64)
                };
                let unrolled = *unroll == Unroll::Full;
                let loop_id = self.loops.id_of(s);
                if !unrolled {
                    self.queue.push_back(StepEvent::LoopEnter { loop_id, trip });
                }
                self.stack.push(Frame::Loop {
                    loop_id,
                    var: *var,
                    body,
                    next: s0,
                    end: e0,
                    step: st,
                    unrolled,
                    pending_iter: true,
                });
                self.emit_ops(ops)
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                let mut ops = OpCounts::default();
                let c = self.eval(*cond, mem, &mut ops).as_bool();
                let block: &'k [Stmt] = if c { then_b } else { else_b };
                if !block.is_empty() {
                    self.stack.push(Frame::Block {
                        stmts: block,
                        idx: 0,
                    });
                }
                self.emit_ops(ops)
            }
            Stmt::Critical { body } => {
                self.stack.push(Frame::Critical {
                    body,
                    entered: false,
                });
                Some(StepEvent::CriticalEnter)
            }
            Stmt::Barrier => Some(StepEvent::Barrier),
            Stmt::Preload {
                mem: lm,
                src,
                src_off,
                dst_off,
                len,
            } => {
                let mut ops = OpCounts::default();
                let soff = self.eval(*src_off, mem, &mut ops).as_i64() as u64;
                let doff = self.eval(*dst_off, mem, &mut ops).as_i64() as u64;
                let n = self.eval(*len, mem, &mut ops).as_i64() as u64;
                let elem_ty = self.kernel.local_mem(*lm).elem;
                let scalar_size = elem_ty.scalar.size_bytes() as u64;
                let lanes = elem_ty.lanes as u64;
                for i in 0..n {
                    // Source element index is in *scalar* elements of the
                    // buffer; each local element may be a vector.
                    let v = mem.load_ext(*src, soff + i * lanes, elem_ty);
                    self.write_local(*lm, (doff + i) as usize, v);
                }
                self.queue.push_back(StepEvent::Burst {
                    access: MemAccess {
                        buf: *src,
                        byte_off: soff * scalar_size,
                        bytes: (n * lanes * scalar_size) as u32,
                        is_write: false,
                    },
                    mem: *lm,
                });
                self.emit_ops(ops)
            }
            Stmt::WriteBack {
                mem: lm,
                dst,
                dst_off,
                src_off,
                len,
            } => {
                let mut ops = OpCounts::default();
                let doff = self.eval(*dst_off, mem, &mut ops).as_i64() as u64;
                let soff = self.eval(*src_off, mem, &mut ops).as_i64() as u64;
                let n = self.eval(*len, mem, &mut ops).as_i64() as u64;
                let elem_ty = self.kernel.local_mem(*lm).elem;
                let scalar_size = elem_ty.scalar.size_bytes() as u64;
                let lanes = elem_ty.lanes as u64;
                for i in 0..n {
                    let v = self.local[lm.0 as usize][(soff + i) as usize].clone();
                    mem.store_ext(*dst, doff + i * lanes, v);
                }
                self.queue.push_back(StepEvent::Burst {
                    access: MemAccess {
                        buf: *dst,
                        byte_off: doff * scalar_size,
                        bytes: (n * lanes * scalar_size) as u32,
                        is_write: true,
                    },
                    mem: *lm,
                });
                self.emit_ops(ops)
            }
        }
    }

    fn emit_ops(&mut self, ops: OpCounts) -> Option<StepEvent> {
        if ops.int_ops == 0 && ops.flops == 0 && ops.ext_loads == 0 && ops.local_loads == 0 {
            return self.queue.pop_front();
        }
        Some(StepEvent::Ops(ops))
    }

    fn write_local(&mut self, lm: LocalMemId, idx: usize, v: Value) {
        let memv = &mut self.local[lm.0 as usize];
        assert!(
            idx < memv.len(),
            "local memory `{}` index {} out of bounds ({})",
            self.kernel.local_mem(lm).name,
            idx,
            memv.len()
        );
        memv[idx] = v;
    }

    /// Evaluate an expression, counting ops and queueing access events.
    /// Shared sub-expressions are evaluated once per statement (memoised);
    /// single-reference nodes — evaluated exactly once per statement by
    /// construction — bypass the cache and its value clones.
    fn eval<M: DataMemory + ?Sized>(
        &mut self,
        id: ExprId,
        mem: &mut M,
        ops: &mut OpCounts,
    ) -> Value {
        if !self.shared[id.0 as usize] {
            return self.eval_uncached(id, mem, ops);
        }
        if let Some((g, v)) = &self.eval_cache[id.0 as usize] {
            if *g == self.eval_gen {
                return v.clone();
            }
        }
        let v = self.eval_uncached(id, mem, ops);
        self.eval_cache[id.0 as usize] = Some((self.eval_gen, v.clone()));
        v
    }

    fn eval_uncached<M: DataMemory + ?Sized>(
        &mut self,
        id: ExprId,
        mem: &mut M,
        ops: &mut OpCounts,
    ) -> Value {
        match self.kernel.expr(id) {
            Expr::Const(v) => v.clone(),
            Expr::Arg(a) => self.scalar_args[a.0 as usize].clone(),
            Expr::ThreadId => Value::I32(self.tid as i32),
            Expr::NumThreads => Value::I32(self.kernel.num_threads as i32),
            Expr::Var(v) => self.vars[v.0 as usize].clone(),
            Expr::Unary(op, a) => {
                let av = self.eval(*a, mem, ops);
                let lanes = av.ty().lanes.max(1) as u64;
                if av.ty().scalar.is_float() {
                    ops.flops += lanes;
                } else {
                    ops.int_ops += lanes;
                }
                eval_unop(*op, &av)
            }
            Expr::Binary(op, a, b) => {
                let av = self.eval(*a, mem, ops);
                let bv = self.eval(*b, mem, ops);
                let lanes = av.ty().lanes.max(1) as u64;
                if op.is_comparison() || !av.ty().scalar.is_float() {
                    ops.int_ops += lanes;
                } else {
                    ops.flops += lanes;
                }
                eval_binop(*op, &av, &bv)
            }
            Expr::Select {
                cond,
                then_v,
                else_v,
            } => {
                // Both sides are evaluated: the datapath computes both and
                // multiplexes (no short-circuit in hardware).
                let c = self.eval(*cond, mem, ops);
                let tv = self.eval(*then_v, mem, ops);
                let ev = self.eval(*else_v, mem, ops);
                ops.int_ops += tv.ty().lanes.max(1) as u64;
                if c.as_bool() {
                    tv
                } else {
                    ev
                }
            }
            Expr::Cast(ty, a) => {
                let av = self.eval(*a, mem, ops);
                ops.int_ops += 1;
                match ty {
                    ScalarType::I32 | ScalarType::I64 => Value::from_i64(*ty, av.as_i64()),
                    ScalarType::F32 | ScalarType::F64 => Value::from_f64(*ty, av.as_f64()),
                }
            }
            Expr::LoadExt { buf, index, ty } => {
                let idx = self.eval(*index, mem, ops).as_i64() as u64;
                let v = mem.load_ext(*buf, idx, *ty);
                ops.ext_loads += 1;
                let elem_size = ty.scalar.size_bytes() as u64;
                self.queue.push_back(StepEvent::Access(MemAccess {
                    buf: *buf,
                    byte_off: idx * elem_size,
                    bytes: ty.size_bytes(),
                    is_write: false,
                }));
                v
            }
            Expr::LoadLocal { mem: lm, index, ty } => {
                let idx = self.eval(*index, mem, ops).as_i64() as usize;
                ops.local_loads += 1;
                if !self.stmt_local_reads.contains(lm) {
                    self.stmt_local_reads.push(*lm);
                    self.queue.push_back(StepEvent::LocalRead { mem: *lm });
                }
                let memv = &self.local[lm.0 as usize];
                assert!(
                    idx < memv.len(),
                    "local memory `{}` index {} out of bounds ({})",
                    self.kernel.local_mem(*lm).name,
                    idx,
                    memv.len()
                );
                let v = memv[idx].clone();
                debug_assert_eq!(v.ty().scalar, ty.scalar);
                v
            }
            Expr::Lane(a, lane) => {
                let av = self.eval(*a, mem, ops);
                av.lane(*lane as usize).clone()
            }
            Expr::Splat(a, lanes) => {
                let av = self.eval(*a, mem, ops);
                Value::Vec(vec![av; *lanes as usize].into_boxed_slice())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::types::ScalarType;
    use crate::MapDir;

    /// Plain-vector memory for tests.
    pub struct VecMem {
        pub bufs: Vec<Vec<Value>>,
    }

    impl DataMemory for VecMem {
        fn load_ext(&mut self, buf: ArgId, elem_idx: u64, ty: Type) -> Value {
            let b = &self.bufs[buf.0 as usize];
            if ty.lanes <= 1 {
                b[elem_idx as usize].clone()
            } else {
                let lanes: Vec<Value> = (0..ty.lanes as u64)
                    .map(|l| b[(elem_idx + l) as usize].clone())
                    .collect();
                Value::Vec(lanes.into_boxed_slice())
            }
        }
        fn store_ext(&mut self, buf: ArgId, elem_idx: u64, v: Value) {
            let b = &mut self.bufs[buf.0 as usize];
            match v {
                Value::Vec(lanes) => {
                    for (l, lv) in lanes.iter().enumerate() {
                        b[elem_idx as usize + l] = lv.clone();
                    }
                }
                s => b[elem_idx as usize] = s,
            }
        }
    }

    fn drive_to_finish(w: &mut Walker, mem: &mut VecMem) -> Vec<StepEvent> {
        let mut evs = Vec::new();
        loop {
            let ev = w.step(mem);
            let fin = ev == StepEvent::Finished;
            evs.push(ev);
            if fin {
                return evs;
            }
        }
    }

    #[test]
    fn sums_buffer_with_loop_events() {
        let mut kb = KernelBuilder::new("sum", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let n = kb.scalar_arg("N", ScalarType::I64);
        let acc = kb.var("acc", Type::F32);
        let z = kb.c_f32(0.0);
        kb.set(acc, z);
        let n_e = kb.arg(n);
        kb.for_range("i", n_e, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(acc, s);
        });
        let accv = kb.get(acc);
        let zero = kb.c_i64(0);
        kb.store(out, zero, accv);
        let k = kb.finish();
        let loops = LoopMap::build(&k);
        let mut mem = VecMem {
            bufs: vec![
                (0..4).map(|i| Value::F32(i as f32)).collect(),
                vec![Value::F32(-1.0)],
                vec![],
            ],
        };
        let args = vec![Value::I32(0), Value::I32(0), Value::I64(4)];
        let mut w = Walker::new(&k, std::sync::Arc::new(loops), 0, args);
        let evs = drive_to_finish(&mut w, &mut mem);
        assert_eq!(mem.bufs[1][0], Value::F32(0.0 + 1.0 + 2.0 + 3.0));
        let iters = evs
            .iter()
            .filter(|e| matches!(e, StepEvent::LoopIter { .. }))
            .count();
        assert_eq!(iters, 4);
        let enters: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                StepEvent::LoopEnter { trip, .. } => Some(*trip),
                _ => None,
            })
            .collect();
        assert_eq!(enters, vec![4]);
        let loads = evs
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    StepEvent::Access(MemAccess {
                        is_write: false,
                        ..
                    })
                )
            })
            .count();
        assert_eq!(loads, 4);
        let stores = evs
            .iter()
            .filter(|e| matches!(e, StepEvent::Access(MemAccess { is_write: true, .. })))
            .count();
        assert_eq!(stores, 1);
    }

    #[test]
    fn critical_pauses_until_stepped() {
        let mut kb = KernelBuilder::new("c", 2);
        let out = kb.buffer("OUT", ScalarType::I32, MapDir::ToFrom);
        kb.critical(|kb| {
            let z = kb.c_i64(0);
            let cur = kb.load(out, z, Type::I32);
            let one = kb.c_i32(1);
            let inc = kb.add(cur, one);
            let z2 = kb.c_i64(0);
            kb.store(out, z2, inc);
        });
        let k = kb.finish();
        let loops = LoopMap::build(&k);
        let mut mem = VecMem {
            bufs: vec![vec![Value::I32(10)]],
        };
        let mut w = Walker::new(&k, std::sync::Arc::new(loops), 0, vec![Value::I32(0)]);
        assert_eq!(w.step(&mut mem), StepEvent::CriticalEnter);
        // Value untouched while paused.
        assert_eq!(mem.bufs[0][0], Value::I32(10));
        // Driver grants the lock by stepping again; run through the body.
        let mut saw_exit = false;
        loop {
            match w.step(&mut mem) {
                StepEvent::CriticalExit => saw_exit = true,
                StepEvent::Finished => break,
                _ => {}
            }
        }
        assert!(saw_exit);
        assert_eq!(mem.bufs[0][0], Value::I32(11));
    }

    #[test]
    fn unrolled_loops_emit_no_loop_events() {
        let mut kb = KernelBuilder::new("u", 1);
        let acc = kb.var("acc", Type::I32);
        let zero = kb.c_i64(0);
        let four = kb.c_i64(4);
        let one = kb.c_i64(1);
        kb.for_unrolled("i", zero, four, one, |kb, i| {
            let cur = kb.get(acc);
            let i32v = kb.cast(ScalarType::I32, i);
            let s = kb.add(cur, i32v);
            kb.set(acc, s);
        });
        let k = kb.finish();
        let loops = LoopMap::build(&k);
        let mut mem = VecMem { bufs: vec![] };
        let mut w = Walker::new(&k, std::sync::Arc::new(loops), 0, vec![]);
        let evs = drive_to_finish(&mut w, &mut mem);
        assert!(
            !evs.iter().any(|e| matches!(
                e,
                StepEvent::LoopEnter { .. }
                    | StepEvent::LoopIter { .. }
                    | StepEvent::LoopExit { .. }
            )),
            "unrolled loop must be invisible to the timing model: {evs:?}"
        );
        assert_eq!(w.var_value(VarId(0)), &Value::I32(1 + 2 + 3));
    }

    #[test]
    fn thread_id_and_num_threads() {
        let mut kb = KernelBuilder::new("t", 4);
        let v = kb.var("x", Type::I32);
        let tid = kb.thread_id();
        let nt = kb.num_threads_expr();
        let s = kb.mul(tid, nt);
        kb.set(v, s);
        let k = kb.finish();
        let loops = LoopMap::build(&k);
        let mut mem = VecMem { bufs: vec![] };
        let mut w = Walker::new(&k, std::sync::Arc::new(loops), 3, vec![]);
        drive_to_finish(&mut w, &mut mem);
        assert_eq!(w.var_value(VarId(0)), &Value::I32(12));
    }

    #[test]
    fn preload_bursts_and_copies() {
        let mut kb = KernelBuilder::new("p", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let lm = kb.local_mem("buf", Type::F32, 8);
        let two = kb.c_i64(2);
        let zero = kb.c_i64(0);
        let four = kb.c_i64(4);
        kb.preload(lm, a, two, zero, four);
        // OUT[0] = buf[1] (== A[3])
        let one = kb.c_i64(1);
        let v = kb.load_local(lm, one, Type::F32);
        let z2 = kb.c_i64(0);
        kb.store(out, z2, v);
        let k = kb.finish();
        let loops = LoopMap::build(&k);
        let mut mem = VecMem {
            bufs: vec![
                (0..8).map(|i| Value::F32(i as f32 * 10.0)).collect(),
                vec![Value::F32(0.0)],
            ],
        };
        let mut w = Walker::new(
            &k,
            std::sync::Arc::new(loops),
            0,
            vec![Value::I32(0), Value::I32(0)],
        );
        let evs = drive_to_finish(&mut w, &mut mem);
        assert_eq!(mem.bufs[1][0], Value::F32(30.0));
        let bursts: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                StepEvent::Burst { access, .. } => Some(*access),
                _ => None,
            })
            .collect();
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].bytes, 16, "4 f32 elements in one burst");
        assert_eq!(bursts[0].byte_off, 8);
    }
}
