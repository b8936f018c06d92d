//! Untimed gold-model interpreter.
//!
//! Drives one [`Walker`] per hardware thread with a deterministic
//! round-robin schedule, honouring critical-section mutual exclusion and
//! barriers. This is the functional reference the cycle-level simulator (and
//! the case-study kernels) are verified against.
//!
//! A launch is given as [`LaunchArg`] values, the one launch type of the
//! workspace (the simulator takes the same); [`bind_launch`] turns it into
//! the walkers' scalar arguments and typed flat [`Buffer`]s. The walkers
//! run over those buffers, and [`InterpResult::buffers`] returns them.

use crate::buffer::Buffer;
use crate::kernel::{ArgId, ArgKind, Kernel};
use crate::tape::{OpCounts, Program};
use crate::types::Value;
use crate::walker::{MemAccess, StepEvent, Walker};
use std::collections::VecDeque;
use std::sync::Arc;

/// A launch value for one kernel argument.
#[derive(Clone, Debug)]
pub enum LaunchArg {
    /// Scalar argument value.
    Scalar(Value),
    /// Buffer contents (element values). For `map(from:)` buffers, pass the
    /// desired initial (usually zero) contents; results are read back from
    /// the run's result buffers.
    Buffer(Vec<Value>),
}

/// Bind `launch` to `kernel`'s signature: the scalar-argument vector the
/// walkers take (buffer slots hold a placeholder) and one typed buffer per
/// argument (scalar slots are empty).
///
/// # Panics
/// Panics when the launch has the wrong length, a launch value's kind
/// differs from the declaration, or a buffer element is not of the declared
/// element type.
pub fn bind_launch(kernel: &Kernel, launch: &[LaunchArg]) -> (Vec<Value>, Vec<Buffer>) {
    assert_eq!(
        launch.len(),
        kernel.args.len(),
        "one launch argument per kernel argument"
    );
    kernel
        .args
        .iter()
        .zip(launch)
        .map(|(arg, la)| match (&arg.kind, la) {
            (ArgKind::Scalar(st), LaunchArg::Scalar(v)) => (v.clone(), Buffer::empty(*st)),
            (ArgKind::Buffer { elem, .. }, LaunchArg::Buffer(b)) => {
                (Value::I32(0), Buffer::from_values(&arg.name, *elem, b))
            }
            _ => panic!("launch argument kind mismatch for `{}`", arg.name),
        })
        .unzip()
}

/// Outcome of a gold-model run.
#[derive(Clone, Debug)]
pub struct InterpResult {
    /// Final buffer contents, indexed like the kernel arguments (scalar
    /// argument slots hold empty buffers).
    pub buffers: Vec<Buffer>,
    /// Total dynamic operation counts over all threads.
    pub ops: OpCounts,
    /// External-memory traffic in bytes (reads, writes), including preloader
    /// bursts.
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Number of critical-section entries observed (sanity statistics).
    pub critical_entries: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    Runnable,
    WaitingLock,
    InCritical,
    AtBarrier,
    Done,
}

/// One observed external-memory access of a traced gold-model run
/// (see [`Interpreter::run_traced`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynAccess {
    /// Hardware thread that issued the access.
    pub thread: u32,
    /// Which buffer argument.
    pub buf: ArgId,
    /// First element index touched (byte offset / element size).
    pub elem: u64,
    /// Number of consecutive elements covered (vector lanes / burst length).
    pub lanes: u64,
    /// Direction.
    pub is_write: bool,
    /// Whether the thread held the critical-section lock.
    pub in_critical: bool,
    /// Barrier phase of the issuing thread: 0 before its first barrier
    /// release, incremented at each release it participates in.
    pub phase: u64,
}

/// Dynamic observations of a traced run — the oracle `nymble-lint` is
/// validated against: a lint-clean kernel must show no cross-thread
/// same-element conflict within a phase (NL001/NL003 soundness on the
/// executed schedule) and uniform per-thread barrier arrival counts
/// (NL002: divergent control flow shows up as differing counts).
#[derive(Clone, Debug, Default)]
pub struct DynTrace {
    /// Every external-buffer access, in deterministic execution order.
    pub accesses: Vec<DynAccess>,
    /// Barrier arrivals per thread. The hardware barrier waits for *all*
    /// threads, so unequal counts mean some threads would wait forever.
    pub barrier_arrivals: Vec<u64>,
}

impl DynTrace {
    /// First pair of accesses that conflict on the executed schedule:
    /// same buffer element, different threads, at least one write, same
    /// barrier phase, not both under the critical-section lock.
    pub fn find_conflict(&self) -> Option<(&DynAccess, &DynAccess)> {
        for (i, a) in self.accesses.iter().enumerate() {
            for b in &self.accesses[i + 1..] {
                if a.thread == b.thread
                    || a.buf != b.buf
                    || a.phase != b.phase
                    || !(a.is_write || b.is_write)
                    || (a.in_critical && b.in_critical)
                {
                    continue;
                }
                let overlap = a.elem < b.elem + b.lanes && b.elem < a.elem + a.lanes;
                if overlap {
                    return Some((a, b));
                }
            }
        }
        None
    }

    /// Whether every thread arrived at barriers the same number of times.
    pub fn barriers_uniform(&self) -> bool {
        self.barrier_arrivals.windows(2).all(|w| w[0] == w[1])
    }
}

/// The untimed interpreter.
pub struct Interpreter;

impl Interpreter {
    /// Run `kernel` to completion with the given launch arguments.
    ///
    /// # Panics
    /// Panics on malformed launches (wrong arg count / types) and on
    /// deadlock, which cannot occur for kernels accepted by the validator.
    pub fn run(kernel: &Kernel, launch: &[LaunchArg]) -> InterpResult {
        Self::exec(kernel, launch, false).0
    }

    /// [`Interpreter::run`], additionally recording every external-memory
    /// access (thread, element range, critical/phase context) and the
    /// per-thread barrier arrival counts — the dynamic oracle the
    /// `nymble-lint` static analyzer is validated against.
    ///
    /// Note the interpreter releases a barrier when all *live* (not yet
    /// finished) threads have arrived, so a kernel with thread-divergent
    /// barriers still runs to completion here; the divergence is visible in
    /// [`DynTrace::barrier_arrivals`] (real hardware, which waits for all
    /// `num_threads`, would deadlock — that is what NL002 flags).
    pub fn run_traced(kernel: &Kernel, launch: &[LaunchArg]) -> (InterpResult, DynTrace) {
        Self::exec(kernel, launch, true)
    }

    /// The run; external accesses are recorded only when `traced`.
    fn exec(kernel: &Kernel, launch: &[LaunchArg], traced: bool) -> (InterpResult, DynTrace) {
        let (scalar_args, mut bufs) = bind_launch(kernel, launch);
        let prog = Arc::new(Program::lower(kernel));
        let n = kernel.num_threads as usize;
        let mut walkers: Vec<Walker> = (0..n)
            .map(|t| Walker::new(kernel, prog.clone(), t as u32, scalar_args.clone()))
            .collect();
        let mut states = vec![ThreadState::Runnable; n];
        let mut lock_held_by: Option<usize> = None;
        let mut lock_queue: VecDeque<usize> = VecDeque::new();
        let mut barrier_count = 0usize;
        let mut done = 0usize;
        let mut ops = OpCounts::default();
        let (mut br, mut bw) = (0u64, 0u64);
        let mut crit_entries = 0u64;
        let mut accesses: Vec<DynAccess> = Vec::new();
        let mut barrier_arrivals = vec![0u64; n];
        let mut phase = vec![0u64; n];
        let mut record = |t: usize, a: &MemAccess, in_crit: bool, ph: u64| {
            if !traced {
                return;
            }
            let esz = kernel.buffer_elem_size(a.buf) as u64;
            accesses.push(DynAccess {
                thread: t as u32,
                buf: a.buf,
                elem: a.byte_off / esz,
                lanes: (a.bytes as u64 / esz).max(1),
                is_write: a.is_write,
                in_critical: in_crit,
                phase: ph,
            });
        };

        // Round-robin over runnable threads. A full sweep with no progress
        // means deadlock (impossible for validated kernels — defensive).
        while done < n {
            let mut progressed = false;
            for t in 0..n {
                if states[t] != ThreadState::Runnable && states[t] != ThreadState::InCritical {
                    continue;
                }
                progressed = true;
                let in_crit = states[t] == ThreadState::InCritical;
                match walkers[t].step(&mut bufs[..]) {
                    StepEvent::Ops(o) => ops.add(o),
                    StepEvent::Access(a) => {
                        if a.is_write {
                            bw += a.bytes as u64;
                        } else {
                            br += a.bytes as u64;
                        }
                        record(t, &a, in_crit, phase[t]);
                    }
                    StepEvent::Burst { access, .. } => {
                        if access.is_write {
                            bw += access.bytes as u64;
                        } else {
                            br += access.bytes as u64;
                        }
                        record(t, &access, in_crit, phase[t]);
                    }
                    StepEvent::LocalRead { .. } => {}
                    StepEvent::LoopEnter { .. }
                    | StepEvent::LoopIter { .. }
                    | StepEvent::LoopExit { .. } => {}
                    StepEvent::CriticalEnter => {
                        crit_entries += 1;
                        if lock_held_by.is_none() {
                            lock_held_by = Some(t);
                            states[t] = ThreadState::InCritical;
                        } else {
                            states[t] = ThreadState::WaitingLock;
                            lock_queue.push_back(t);
                        }
                    }
                    StepEvent::CriticalExit => {
                        assert_eq!(lock_held_by, Some(t), "exit from lock not held");
                        states[t] = ThreadState::Runnable;
                        lock_held_by = lock_queue.pop_front();
                        if let Some(next) = lock_held_by {
                            states[next] = ThreadState::InCritical;
                        }
                    }
                    StepEvent::Barrier => {
                        states[t] = ThreadState::AtBarrier;
                        barrier_count += 1;
                        barrier_arrivals[t] += 1;
                        // Threads that already finished never reach the
                        // barrier; all *live* threads must arrive.
                        if barrier_count == n - done {
                            barrier_count = 0;
                            for (s, st) in states.iter_mut().enumerate() {
                                if *st == ThreadState::AtBarrier {
                                    *st = ThreadState::Runnable;
                                    phase[s] += 1;
                                }
                            }
                        }
                    }
                    StepEvent::Finished => {
                        states[t] = ThreadState::Done;
                        done += 1;
                        // A thread retiring can satisfy a pending barrier:
                        // if every still-live thread is already parked
                        // there, release them now (arrival alone would
                        // never re-check the condition).
                        if barrier_count > 0 && barrier_count == n - done {
                            barrier_count = 0;
                            for (s, st) in states.iter_mut().enumerate() {
                                if *st == ThreadState::AtBarrier {
                                    *st = ThreadState::Runnable;
                                    phase[s] += 1;
                                }
                            }
                        }
                    }
                }
            }
            assert!(progressed || done == n, "interpreter deadlock");
        }

        (
            InterpResult {
                buffers: bufs,
                ops,
                bytes_read: br,
                bytes_written: bw,
                critical_entries: crit_entries,
            },
            DynTrace {
                accesses,
                barrier_arrivals,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::types::ScalarType;
    use crate::{MapDir, Type};

    /// Each of 4 threads increments a shared counter 10 times inside a
    /// critical section; the result must be exactly 40 (mutual exclusion).
    #[test]
    fn critical_increments_are_atomic() {
        let mut kb = KernelBuilder::new("atomic", 4);
        let out = kb.buffer("OUT", ScalarType::I32, MapDir::ToFrom);
        let n = kb.c_i64(10);
        kb.for_range("i", n, |kb, _| {
            kb.critical(|kb| {
                let z = kb.c_i64(0);
                let cur = kb.load(out, z, Type::I32);
                let one = kb.c_i32(1);
                let inc = kb.add(cur, one);
                let z2 = kb.c_i64(0);
                kb.store(out, z2, inc);
            });
        });
        let k = kb.finish();
        let r = Interpreter::run(&k, &[LaunchArg::Buffer(vec![Value::I32(0)])]);
        assert_eq!(r.buffers[0].get(0), Some(Value::I32(40)));
        assert_eq!(r.critical_entries, 40);
    }

    /// Barrier: phase 1 writes per-thread slots, phase 2 reads a neighbour's
    /// slot. Without the barrier this would read stale zeros under some
    /// interleavings; with it, every thread must see the neighbour's write.
    #[test]
    fn barrier_orders_phases() {
        let nthreads = 4;
        let mut kb = KernelBuilder::new("barrier", nthreads);
        let buf = kb.buffer("BUF", ScalarType::I32, MapDir::ToFrom);
        let out = kb.buffer("OUT", ScalarType::I32, MapDir::From);
        let tid = kb.thread_id();
        let tid64 = kb.cast(ScalarType::I64, tid);
        let hundred = kb.c_i32(100);
        let tid2 = kb.thread_id();
        let val = kb.add(tid2, hundred);
        kb.store(buf, tid64, val);
        kb.barrier();
        // read neighbour (tid+1) % n
        let tid3 = kb.thread_id();
        let one = kb.c_i32(1);
        let np = kb.num_threads_expr();
        let succ = kb.add(tid3, one);
        let wrapped = kb.bin(crate::BinOp::Rem, succ, np);
        let widx = kb.cast(ScalarType::I64, wrapped);
        let neigh = kb.load(buf, widx, Type::I32);
        let tid4 = kb.thread_id();
        let oidx = kb.cast(ScalarType::I64, tid4);
        kb.store(out, oidx, neigh);
        let k = kb.finish();
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(vec![Value::I32(0); nthreads as usize]),
                LaunchArg::Buffer(vec![Value::I32(0); nthreads as usize]),
            ],
        );
        for t in 0..nthreads as usize {
            let expect = 100 + ((t + 1) % nthreads as usize) as i32;
            assert_eq!(r.buffers[1].get(t), Some(Value::I32(expect)), "thread {t}");
        }
    }

    #[test]
    fn traffic_accounting() {
        let mut kb = KernelBuilder::new("traffic", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let n = kb.c_i64(8);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            kb.store(out, i, v);
        });
        let k = kb.finish();
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(vec![Value::F32(1.0); 8]),
                LaunchArg::Buffer(vec![Value::F32(0.0); 8]),
            ],
        );
        assert_eq!(r.bytes_read, 32);
        assert_eq!(r.bytes_written, 32);
        assert_eq!(r.ops.ext_loads, 8);
    }

    /// The traced run observes the race in a two-thread full-range store
    /// loop, and clean per-thread decomposition shows no conflict.
    #[test]
    fn traced_run_observes_races_and_phases() {
        // Racy: both threads store OUT[0..4).
        let mut kb = KernelBuilder::new("racy", 2);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let n = kb.c_i64(4);
        kb.for_range("i", n, |kb, i| {
            let one = kb.c_f32(1.0);
            kb.store(out, i, one);
        });
        let k = kb.finish();
        let (_, trace) =
            Interpreter::run_traced(&k, &[LaunchArg::Buffer(vec![Value::F32(0.0); 4])]);
        assert_eq!(trace.accesses.len(), 8, "2 threads x 4 stores");
        assert!(trace.find_conflict().is_some(), "the race is observable");
        assert!(trace.barriers_uniform(), "no barriers at all");

        // Clean: thread t stores OUT[t], then a barrier, then OUT[t] again.
        let mut kb = KernelBuilder::new("clean", 2);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let tid = kb.thread_id();
        let one = kb.c_f32(1.0);
        kb.store(out, tid, one);
        kb.barrier();
        let tid2 = kb.thread_id();
        let two = kb.c_f32(2.0);
        kb.store(out, tid2, two);
        let k = kb.finish();
        let (_, trace) =
            Interpreter::run_traced(&k, &[LaunchArg::Buffer(vec![Value::F32(0.0); 2])]);
        assert!(trace.find_conflict().is_none(), "disjoint per-thread slots");
        assert_eq!(trace.barrier_arrivals, vec![1, 1]);
        assert!(trace.barriers_uniform());
        // The second store happens in phase 1 for both threads.
        assert!(trace.accesses.iter().any(|a| a.phase == 1));
    }

    #[test]
    #[should_panic(expected = "declared F32")]
    fn launch_buffer_type_mismatch_panics() {
        let mut kb = KernelBuilder::new("bad", 1);
        let _ = kb.buffer("A", ScalarType::F32, MapDir::To);
        let k = kb.finish();
        let _ = Interpreter::run(&k, &[LaunchArg::Buffer(vec![Value::F64(1.0)])]);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn launch_kind_mismatch_panics() {
        let mut kb = KernelBuilder::new("bad", 1);
        let _ = kb.buffer("A", ScalarType::F32, MapDir::To);
        let k = kb.finish();
        let _ = Interpreter::run(&k, &[LaunchArg::Scalar(Value::I32(0))]);
    }
}
