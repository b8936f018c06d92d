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
//! [`Walker::run`] hands events, in order, to an [`EventSink`] and keeps
//! going while the sink returns `true`; it stops after the first `false`.
//! [`Walker::step`] is `run` with a sink that takes one event. A walker
//! executes each statement whole, before the first of its events reaches
//! the sink, so a pause inside a statement only holds its remaining events
//! back: the next `run` delivers them first. A driver can therefore pause
//! after any event and interleave threads without changing what each
//! thread reads or writes. Two events are synchronisation points:
//!
//! * On [`StepEvent::CriticalEnter`] the walker has *not yet* executed the
//!   critical body. The sink must return `false` unless the (simulated)
//!   hardware semaphore is already acquired, and the driver must not run
//!   the walker again until it is — mutual exclusion is the driver's
//!   responsibility, which lets the timed simulator model spinning
//!   precisely.
//! * On [`StepEvent::Barrier`] the sink returns `false`, and the driver
//!   runs the walker again only when all threads have arrived.
//!
//! The sink must also return `false` on [`StepEvent::Finished`], which ends
//! the stream. All other events are informational: a sink may return `true`
//! and let the walker continue.

use crate::kernel::{ArgId, ArgKind, Kernel, LocalMemId, VarId};
use crate::loops::LoopId;
use crate::tape::{self, BlockRange, OpCounts, Program, Reg, StmtKind};
use crate::types::{ScalarType, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Functional data storage the walker reads and writes through, one scalar
/// element per register ([`Value::to_bits`] encoding).
///
/// Its one implementation is [`Buffer`](crate::Buffer) slices: the gold
/// interpreter walks over its own buffers, the FPGA simulator over the
/// simulated external-DRAM image (`fpga_sim::memimg`), so data transfers
/// and values stay consistent with the timing model.
pub trait DataMemory {
    /// Load `out.len()` consecutive elements of buffer `buf`, starting at
    /// element index `elem_idx` (a vector load reads all its lanes).
    fn load_ext(&mut self, buf: ArgId, elem_idx: u64, out: &mut [u64]);
    /// Store `lanes` to buffer `buf` at consecutive element indices
    /// starting at `elem_idx`, as elements of the buffer's type.
    fn store_ext(&mut self, buf: ArgId, elem_idx: u64, lanes: &[u64]);
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

/// One observable action of a walker, as [`Walker::run`] hands it to an
/// [`EventSink`] (or [`Walker::step`] returns it).
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
    /// The thread has executed its whole body. Terminal: a later `run` or
    /// `step` delivers `Finished` again.
    Finished,
}

/// The receiver of a [`Walker::run`]'s events; see the pausing protocol in
/// the module docs.
pub trait EventSink {
    /// Take the next event; return `false` to pause the walker after it.
    fn event(&mut self, ev: StepEvent) -> bool;
}

impl<F: FnMut(StepEvent) -> bool> EventSink for F {
    fn event(&mut self, ev: StepEvent) -> bool {
        self(ev)
    }
}

/// A statement's event output: events go to the sink until it pauses, and
/// the rest of the statement's events wait in the walker's `pending` queue.
pub(crate) struct Emit<'a, S: ?Sized> {
    sink: &'a mut S,
    pending: &'a mut VecDeque<StepEvent>,
    open: bool,
}

impl<S: EventSink + ?Sized> Emit<'_, S> {
    #[inline(always)]
    pub(crate) fn event(&mut self, ev: StepEvent) {
        if self.open {
            self.open = self.sink.event(ev);
        } else {
            self.pending.push_back(ev);
        }
    }
}

enum Frame {
    /// Statements `next..end` of a block still to run.
    Block { next: u32, end: u32 },
    /// Active counted loop (bounds pre-evaluated).
    Loop {
        loop_id: LoopId,
        var: Reg,
        var_ty: ScalarType,
        body: BlockRange,
        next: i64,
        end: i64,
        step: i64,
        unrolled: bool,
    },
    /// Critical section in flight (so we can emit CriticalExit on leave).
    Critical { body: BlockRange, entered: bool },
}

impl Frame {
    fn block(b: BlockRange) -> Frame {
        Frame::Block {
            next: b.start,
            end: b.end,
        }
    }
}

/// Explicit-stack interpreter for one hardware thread.
///
/// Executes the kernel's [`Program`], shared by every thread of a run
/// behind an [`Arc`], on a private `u64` register file; a walker set plus
/// its kernel borrow forms a self-contained, `Send` simulation state.
pub struct Walker<'k> {
    kernel: &'k Kernel,
    prog: Arc<Program>,
    tid: u32,
    regs: Vec<u64>,
    /// Local memories, each `len × lanes` registers.
    local: Vec<Vec<u64>>,
    stack: Vec<Frame>,
    /// Events of a statement a paused sink has not taken yet.
    pending: VecDeque<StepEvent>,
}

impl<'k> Walker<'k> {
    /// Create a walker for hardware thread `tid` of `kernel`, executing
    /// `prog` (which must be [`Program::lower`] of the same kernel).
    ///
    /// `scalar_args` must have one entry per kernel argument; entries for
    /// buffer arguments are ignored (pass any placeholder).
    pub fn new(kernel: &'k Kernel, prog: Arc<Program>, tid: u32, scalar_args: Vec<Value>) -> Self {
        assert!(tid < kernel.num_threads, "thread id out of range");
        assert_eq!(
            scalar_args.len(),
            kernel.args.len(),
            "one launch value per kernel argument"
        );
        for (i, arg) in kernel.args.iter().enumerate() {
            if let ArgKind::Scalar(st) = arg.kind {
                assert!(
                    !matches!(scalar_args[i], Value::Vec(_)) && scalar_args[i].ty().scalar == st,
                    "scalar arg `{}` launch value has wrong type",
                    arg.name
                );
            }
        }
        let mut regs = prog.init_regs.clone();
        regs[prog.tid_reg as usize] = Value::I32(tid as i32).to_bits();
        for &(r, a) in &prog.arg_regs {
            regs[r as usize] = scalar_args[a.0 as usize].to_bits();
        }
        let local = prog
            .local_mems
            .iter()
            .map(|(elem, len)| vec![0; *len as usize * elem.lanes as usize])
            .collect();
        let stack = vec![Frame::block(prog.body)];
        Walker {
            kernel,
            prog,
            tid,
            regs,
            local,
            stack,
            pending: VecDeque::new(),
        }
    }

    /// The hardware thread id this walker executes.
    pub fn thread_id(&self) -> u32 {
        self.tid
    }

    /// Read back a thread-local variable (for result checks in tests).
    pub fn var_value(&self, v: VarId) -> Value {
        let (r, ty) = self.prog.var(v);
        let lane = |l: u32| Value::from_bits(ty.scalar, self.regs[(r + l) as usize]);
        if ty.lanes == 1 {
            lane(0)
        } else {
            Value::Vec((0..ty.lanes as u32).map(lane).collect())
        }
    }

    /// Advance the thread until the next observable event.
    pub fn step<M: DataMemory + ?Sized>(&mut self, mem: &mut M) -> StepEvent {
        let mut next = None;
        self.run(mem, &mut |ev| {
            next = Some(ev);
            false
        });
        next.expect("run delivers at least one event")
    }

    /// Run the thread, handing each event to `sink`, until the sink returns
    /// `false` (see the pausing protocol in the module docs).
    pub fn run<M: DataMemory + ?Sized, S: EventSink + ?Sized>(
        &mut self,
        mem: &mut M,
        sink: &mut S,
    ) {
        while let Some(ev) = self.pending.pop_front() {
            if !sink.event(ev) {
                return;
            }
        }
        loop {
            // Work the top frame until the sink pauses.
            let Some(frame) = self.stack.last_mut() else {
                let more = sink.event(StepEvent::Finished);
                debug_assert!(!more, "an EventSink must pause on Finished");
                return;
            };
            let ev = match frame {
                Frame::Block { next, end } => {
                    if *next >= *end {
                        self.stack.pop();
                        // Leaving a critical body: emit the exit event.
                        if let Some(Frame::Critical { entered: true, .. }) = self.stack.last() {
                            self.stack.pop();
                            StepEvent::CriticalExit
                        } else {
                            continue;
                        }
                    } else {
                        let s = *next;
                        *next += 1;
                        if !self.exec_stmt(s, mem, sink) {
                            return;
                        }
                        continue;
                    }
                }
                Frame::Loop {
                    loop_id,
                    var,
                    var_ty,
                    body,
                    next,
                    end,
                    step,
                    unrolled,
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
                        if unrolled {
                            continue;
                        }
                        StepEvent::LoopExit { loop_id }
                    } else {
                        // Start the next iteration.
                        let cur = *next;
                        *next += *step;
                        let (body, unrolled, loop_id) = (*body, *unrolled, *loop_id);
                        self.regs[*var as usize] = var_ty.bits_from_i64(cur);
                        self.stack.push(Frame::block(body));
                        if unrolled {
                            continue;
                        }
                        StepEvent::LoopIter { loop_id }
                    }
                }
                Frame::Critical { body, entered } => {
                    // We only reach here after the driver granted the lock:
                    // push the body and mark entered.
                    *entered = true;
                    let body = *body;
                    self.stack.push(Frame::block(body));
                    continue;
                }
            };
            if !sink.event(ev) {
                return;
            }
        }
    }

    /// Execute statement `si` whole and emit its events: `Ops` first, then
    /// its loads in tape order, then its own access, loop entry or
    /// synchronisation event. Returns whether the sink is still taking
    /// events.
    fn exec_stmt<M: DataMemory + ?Sized, S: EventSink + ?Sized>(
        &mut self,
        si: u32,
        mem: &mut M,
        sink: &mut S,
    ) -> bool {
        let Walker {
            kernel,
            prog,
            regs,
            local,
            stack,
            pending,
            ..
        } = self;
        let s = &prog.stmts[si as usize];
        let ops = s.ops;
        let mut out = Emit {
            sink,
            pending,
            open: true,
        };
        if ops.int_ops != 0 || ops.flops != 0 || ops.ext_loads != 0 || ops.local_loads != 0 {
            out.event(StepEvent::Ops(ops));
        }
        let code = &prog.insts[s.code.0 as usize..s.code.1 as usize];
        tape::run(code, regs, local, mem, &mut out, kernel);
        let i64_at = |r: Reg| regs[r as usize] as i64;
        match s.kind {
            StmtKind::Assign { dst, src, lanes } => {
                let (d, a, n) = (dst as usize, src as usize, lanes as usize);
                regs.copy_within(a..a + n, d);
            }
            StmtKind::StoreExt {
                buf,
                idx,
                val,
                ty,
                elem_bytes,
            } => {
                let i = i64_at(idx) as u64;
                let v = val as usize;
                mem.store_ext(buf, i, &regs[v..v + ty.lanes as usize]);
                out.event(StepEvent::Access(MemAccess {
                    buf,
                    byte_off: i * elem_bytes as u64,
                    bytes: ty.size_bytes(),
                    is_write: true,
                }));
            }
            StmtKind::StoreLocal {
                mem: lm,
                idx,
                val,
                lanes,
            } => {
                let i = i64_at(idx) as usize;
                let (v, n) = (val as usize, lanes as usize);
                let words = &mut local[lm.0 as usize];
                tape::check_local(kernel, lm, i, words.len() / n);
                words[i * n..i * n + n].copy_from_slice(&regs[v..v + n]);
            }
            StmtKind::For {
                loop_id,
                var,
                var_ty,
                start,
                end,
                step,
                body,
                unrolled,
            } => {
                let (s0, e0, st) = (i64_at(start), i64_at(end), i64_at(step));
                assert!(st != 0, "zero loop step");
                let trip = if st > 0 {
                    ((e0 - s0).max(0) as u64).div_ceil(st as u64)
                } else {
                    ((s0 - e0).max(0) as u64).div_ceil((-st) as u64)
                };
                if !unrolled {
                    out.event(StepEvent::LoopEnter { loop_id, trip });
                }
                stack.push(Frame::Loop {
                    loop_id,
                    var,
                    var_ty,
                    body,
                    next: s0,
                    end: e0,
                    step: st,
                    unrolled,
                });
            }
            StmtKind::If {
                cond,
                then_b,
                else_b,
            } => {
                let block = if regs[cond as usize] != 0 {
                    then_b
                } else {
                    else_b
                };
                if block.start < block.end {
                    stack.push(Frame::block(block));
                }
            }
            StmtKind::Critical { body } => {
                stack.push(Frame::Critical {
                    body,
                    entered: false,
                });
                out.event(StepEvent::CriticalEnter);
            }
            StmtKind::Barrier => out.event(StepEvent::Barrier),
            StmtKind::Preload {
                mem: lm,
                src,
                src_off,
                dst_off,
                len,
                elem,
            } => {
                let (soff, doff, n) = (
                    i64_at(src_off) as u64,
                    i64_at(dst_off) as u64,
                    i64_at(len) as u64,
                );
                let scalar_size = elem.scalar.size_bytes() as u64;
                let lanes = elem.lanes as u64;
                let words = &mut local[lm.0 as usize];
                let mem_len = words.len() / lanes as usize;
                for i in 0..n {
                    // Source element index is in *scalar* elements of the
                    // buffer; each local element may be a vector.
                    let at = (doff + i) as usize;
                    tape::check_local(kernel, lm, at, mem_len);
                    let w = at * lanes as usize;
                    mem.load_ext(src, soff + i * lanes, &mut words[w..w + lanes as usize]);
                }
                out.event(StepEvent::Burst {
                    access: MemAccess {
                        buf: src,
                        byte_off: soff * scalar_size,
                        bytes: (n * lanes * scalar_size) as u32,
                        is_write: false,
                    },
                    mem: lm,
                });
            }
            StmtKind::WriteBack {
                mem: lm,
                dst,
                dst_off,
                src_off,
                len,
                elem,
            } => {
                let (doff, soff, n) = (
                    i64_at(dst_off) as u64,
                    i64_at(src_off) as u64,
                    i64_at(len) as u64,
                );
                let scalar_size = elem.scalar.size_bytes() as u64;
                let lanes = elem.lanes as u64;
                let words = &local[lm.0 as usize];
                for i in 0..n {
                    let w = (soff + i) as usize * lanes as usize;
                    mem.store_ext(dst, doff + i * lanes, &words[w..w + lanes as usize]);
                }
                out.event(StepEvent::Burst {
                    access: MemAccess {
                        buf: dst,
                        byte_off: doff * scalar_size,
                        bytes: (n * lanes * scalar_size) as u32,
                        is_write: true,
                    },
                    mem: lm,
                });
            }
        }
        out.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::types::Type;
    use crate::{Buffer, MapDir};

    fn f32s(xs: impl IntoIterator<Item = f32>) -> Buffer {
        let values: Vec<Value> = xs.into_iter().map(Value::F32).collect();
        Buffer::from_values("B", ScalarType::F32, &values)
    }

    fn walker(k: &Kernel, tid: u32, args: Vec<Value>) -> Walker<'_> {
        Walker::new(k, Arc::new(Program::lower(k)), tid, args)
    }

    fn drive_to_finish(w: &mut Walker, mem: &mut [Buffer]) -> Vec<StepEvent> {
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

    /// Pauses after every `k`-th event (`k == 0`: only at `Finished`),
    /// keeping every event it took.
    struct PauseEvery {
        k: usize,
        seen: Vec<StepEvent>,
    }

    impl EventSink for PauseEvery {
        fn event(&mut self, ev: StepEvent) -> bool {
            let fin = ev == StepEvent::Finished;
            self.seen.push(ev);
            !fin && (self.k == 0 || !self.seen.len().is_multiple_of(self.k))
        }
    }

    #[test]
    fn run_paused_anywhere_matches_the_step_loop() {
        let mut kb = KernelBuilder::new("pauses", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::ToFrom);
        let lm = kb.local_mem("lm", Type::F32, 8);
        let (z, z2, eight) = (kb.c_i64(0), kb.c_i64(0), kb.c_i64(8));
        kb.preload(lm, a, z, z2, eight);
        let n = kb.c_i64(4);
        kb.for_range("i", n, |kb, i| {
            // Two external loads, a local read and a store in one
            // statement: every k ≤ 3 pauses inside it.
            let one = kb.c_i64(1);
            let next = kb.add(i, one);
            let x = kb.load(a, i, Type::F32);
            let y = kb.load(a, next, Type::F32);
            let l = kb.load_local(lm, i, Type::F32);
            let xy = kb.add(x, y);
            let sum = kb.add(xy, l);
            kb.store(out, i, sum);
        });
        kb.critical(|kb| {
            let four = kb.c_i64(4);
            let cur = kb.load(out, four, Type::F32);
            let one = kb.c_f32(1.0);
            let inc = kb.add(cur, one);
            let four2 = kb.c_i64(4);
            kb.store(out, four2, inc);
        });
        let k = kb.finish();
        let fresh = || vec![f32s((0..8).map(|i| i as f32)), f32s([0.5; 5])];
        let args = || vec![Value::I32(0), Value::I32(0)];
        let mut mem = fresh();
        let want = drive_to_finish(&mut walker(&k, 0, args()), &mut mem);
        assert!(
            want.windows(3).any(|w| matches!(
                w,
                [
                    StepEvent::Ops(_),
                    StepEvent::Access(_),
                    StepEvent::Access(_)
                ]
            )),
            "the loop statement reports its two loads after its ops: {want:?}"
        );
        assert!(want.contains(&StepEvent::CriticalEnter));
        assert!(want.iter().any(|e| matches!(e, StepEvent::Burst { .. })));
        for every in [1, 2, 3, 0] {
            let mut w = walker(&k, 0, args());
            let mut got = fresh();
            let mut sink = PauseEvery {
                k: every,
                seen: Vec::new(),
            };
            let mut runs = 0;
            while sink.seen.last() != Some(&StepEvent::Finished) {
                w.run(&mut got[..], &mut sink);
                runs += 1;
                assert!(runs <= want.len(), "k={every}: runs without progress");
            }
            assert_eq!(sink.seen, want, "k={every}: event stream");
            assert_eq!(got, mem, "k={every}: final buffers");
            let expect_runs = if every == 0 {
                1
            } else {
                want.len().div_ceil(every)
            };
            assert_eq!(runs, expect_runs, "k={every}: one run per pause");
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
        let mut mem = vec![
            f32s((0..4).map(|i| i as f32)),
            f32s([-1.0]),
            Buffer::empty(ScalarType::I64),
        ];
        let args = vec![Value::I32(0), Value::I32(0), Value::I64(4)];
        let mut w = walker(&k, 0, args);
        let evs = drive_to_finish(&mut w, &mut mem);
        assert_eq!(mem[1].get(0), Some(Value::F32(0.0 + 1.0 + 2.0 + 3.0)));
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
        let mut mem = [Buffer::from_values(
            "OUT",
            ScalarType::I32,
            &[Value::I32(10)],
        )];
        let mut w = walker(&k, 0, vec![Value::I32(0)]);
        assert_eq!(w.step(&mut mem[..]), StepEvent::CriticalEnter);
        // Value untouched while paused.
        assert_eq!(mem[0].get(0), Some(Value::I32(10)));
        // Driver grants the lock by stepping again; run through the body.
        let mut saw_exit = false;
        loop {
            match w.step(&mut mem[..]) {
                StepEvent::CriticalExit => saw_exit = true,
                StepEvent::Finished => break,
                _ => {}
            }
        }
        assert!(saw_exit);
        assert_eq!(mem[0].get(0), Some(Value::I32(11)));
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
        let mut w = walker(&k, 0, vec![]);
        let evs = drive_to_finish(&mut w, &mut []);
        assert!(
            !evs.iter().any(|e| matches!(
                e,
                StepEvent::LoopEnter { .. }
                    | StepEvent::LoopIter { .. }
                    | StepEvent::LoopExit { .. }
            )),
            "unrolled loop must be invisible to the timing model: {evs:?}"
        );
        assert_eq!(w.var_value(VarId(0)), Value::I32(1 + 2 + 3));
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
        let mut w = walker(&k, 3, vec![]);
        drive_to_finish(&mut w, &mut []);
        assert_eq!(w.var_value(VarId(0)), Value::I32(12));
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
        let mut mem = [f32s((0..8).map(|i| i as f32 * 10.0)), f32s([0.0])];
        let mut w = walker(&k, 0, vec![Value::I32(0), Value::I32(0)]);
        let evs = drive_to_finish(&mut w, &mut mem);
        assert_eq!(mem[1].get(0), Some(Value::F32(30.0)));
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
