//! The timed executor: drives one walker per hardware thread and attributes
//! cycle costs per the compiled schedules (see the crate docs for the model).
//!
//! The simulation core is [`SimRun`]: a pure, re-entrant value holding the
//! complete run state (threads, memory image, DRAM, semaphore), advanced one
//! walker event at a time by [`SimRun::step`]. It is `Send`, so a batch
//! scheduler can carry runs across worker threads, and it returns typed
//! [`SimError`]s instead of panicking, so one broken configuration cannot
//! abort a whole sweep. [`Executor::run`] remains the one-call driver built
//! on top of it.

use crate::config::SimConfig;
use crate::device::{DeviceEvent, DeviceQueue, DeviceStats};
use crate::dram::{Dram, LineBuffer};
use crate::error::{BlockedReason, BlockedThread, SimError};
use crate::memimg::{LaunchArg, MemImage};
use crate::queue::{DispatchQueue, ReadyQueue};
use crate::semaphore::{Acquire, Semaphore};
use crate::snoop::{Snoop, SnoopPair, SnoopRing, StatsSnoop, ThreadState};
use crate::stats::RunStats;
use crate::wheel::WheelQueue;
use nymble_hls::accel::Accelerator;
use nymble_ir::loops::{LoopId, LoopMap};
use nymble_ir::walker::{StepEvent, Walker};
use nymble_ir::{Kernel, Value};
use std::collections::VecDeque;

/// How the executor prices one loop's iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LoopMode {
    /// Pure-datapath innermost loop: iterations overlap at the initiation
    /// interval; total = `depth + (n-1)·II` plus stalls.
    Pipelined { ii: u64, depth: u64 },
    /// Contains inner regions (loops / critical sections / bursts): the
    /// outer graph pauses for them, so statements charge individually.
    Sequential,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Runnable at `Thread::time`.
    Ready,
    /// Queued on the semaphore; woken by a grant.
    SpinWait,
    /// Arrived at the barrier.
    AtBarrier,
    /// Body complete.
    Done,
}

struct LoopCtx {
    mode: LoopMode,
    entered_first: bool,
}

struct Thread<'k> {
    walker: Walker<'k>,
    time: u64,
    status: Status,
    loops: Vec<LoopCtx>,
    read_port_free: u64,
    write_port_free: u64,
    line_bufs: Vec<LineBuffer>,
    /// Scratch line buffer for the `line_buffers = false` ablation: reused
    /// (and invalidated) per access instead of constructed per access.
    scratch_buf: LineBuffer,
    mem_ready: Vec<u64>,
    /// Outstanding line-fetch completion times on the read port (MSHRs).
    inflight: VecDeque<u64>,
    /// Worst VLO delay beyond the scheduled minimum accrued in the current
    /// pipelined-loop iteration; applied at the next iteration boundary.
    /// Loads within one iteration overlap (the stage waits for all of them),
    /// so the stall is the max, not the sum.
    iter_stall: u64,
}

impl Thread<'_> {
    fn innermost_pipelined(&self) -> Option<(u64, u64)> {
        match self.loops.last() {
            Some(LoopCtx {
                mode: LoopMode::Pipelined { ii, depth },
                ..
            }) => Some((*ii, *depth)),
            _ => None,
        }
    }
}

/// Result of a timed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Final external-buffer contents (indexed like kernel arguments).
    pub buffers: Vec<Vec<Value>>,
    /// Total cycles from host start to last thread completion.
    pub total_cycles: u64,
    /// Ground-truth statistics.
    pub stats: RunStats,
}

impl RunResult {
    /// Achieved GFLOP/s at the given configuration's clock.
    pub fn gflops(&self, cfg: &SimConfig) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.stats.total_flops() as f64 / cfg.cycles_to_seconds(self.total_cycles) / 1e9
    }

    /// Mean external-memory request throughput in GB/s.
    pub fn throughput_gbps(&self, cfg: &SimConfig) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.stats.total_bytes() as f64 / cfg.cycles_to_seconds(self.total_cycles) / 1e9
    }
}

/// Outcome of one [`SimRun::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepStatus {
    /// Threads remain; call [`SimRun::step`] again.
    Running,
    /// Every thread finished; `run_end` has been reported to the snoop.
    Done,
}

/// The complete state of one in-flight simulation: a pure, re-entrant value
/// advanced by [`SimRun::step`] until [`StepStatus::Done`].
///
/// `SimRun` borrows the kernel and accelerator immutably (so one compiled
/// [`Accelerator`] can back any number of concurrent runs) and owns
/// everything mutable — the per-thread walkers, the memory image, the DRAM
/// and semaphore models. It is `Send`: a scheduler may construct it on one
/// thread and drive it on another.
///
/// The core is generic over its [`DispatchQueue`]: the default is the
/// [`WheelQueue`] calendar queue (O(1)-amortized dispatch at high thread
/// counts); `SimRun::<ReadyQueue>` is the binary-heap core, retained for
/// A/B benchmarking and differential testing. Both produce bit-identical
/// snoop streams — the queue only decides *how* the next `(time, tid)`
/// minimum is found, never *which* thread it is.
pub struct SimRun<'k, Q: DispatchQueue = WheelQueue> {
    cfg: SimConfig,
    modes: Vec<LoopMode>,
    mem: MemImage,
    dram: Dram,
    sem: Semaphore,
    devices: DeviceQueue,
    threads: Vec<Thread<'k>>,
    /// The discrete-event ready queue: holds exactly the `Ready` threads,
    /// keyed by `(wakeup_time, thread_id)`.
    ready: Q,
    /// Run-ahead slot: the thread just dispatched, held out of the queue
    /// while it remains the global `(time, tid)` minimum (see
    /// [`SimRun::step`]). Never set by `step_baseline`/`step_legacy`.
    current: Option<u32>,
    barrier_arrivals: Vec<usize>,
    done: usize,
    total_cycles: u64,
    started: bool,
}

// The core must stay schedulable across worker threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SimRun<'_>>();
    assert_send::<SimRun<'_, ReadyQueue>>();
};

impl<'k> SimRun<'k> {
    /// Set up a run of `kernel` (compiled as `accel`) with `launch`
    /// arguments under `cfg` on the default wheel-queue core. Validates the
    /// configuration up front.
    pub fn new(
        kernel: &'k Kernel,
        accel: &Accelerator,
        cfg: &SimConfig,
        launch: &[LaunchArg],
    ) -> Result<Self, SimError> {
        Self::with_queue(kernel, accel, cfg, launch)
    }
}

impl<'k, Q: DispatchQueue> SimRun<'k, Q> {
    /// [`SimRun::new`] for an explicitly chosen dispatch queue, e.g.
    /// `SimRun::<ReadyQueue>::with_queue(..)` for the binary-heap core.
    pub fn with_queue(
        kernel: &'k Kernel,
        accel: &Accelerator,
        cfg: &SimConfig,
        launch: &[LaunchArg],
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let loop_map = std::sync::Arc::new(LoopMap::build(kernel));
        let modes: Vec<LoopMode> = (0..loop_map.len())
            .map(|i| loop_mode(accel, LoopId(i as u32)))
            .collect();

        let (mem, scalars) = MemImage::new(kernel, launch);
        let dram = Dram::new(cfg);
        let n = kernel.num_threads as usize;
        let n_bufs = kernel.args.len();
        let n_mems = kernel.local_mems.len();

        let threads: Vec<Thread<'k>> = (0..n)
            .map(|t| Thread {
                walker: Walker::new(kernel, loop_map.clone(), t as u32, scalars.clone()),
                time: t as u64 * cfg.launch_interval,
                status: Status::Ready,
                loops: Vec::new(),
                read_port_free: 0,
                write_port_free: 0,
                line_bufs: vec![LineBuffer::default(); n_bufs],
                scratch_buf: LineBuffer::default(),
                mem_ready: vec![0; n_mems],
                inflight: VecDeque::new(),
                iter_stall: 0,
            })
            .collect();

        let mut ready = Q::new(n);
        for (t, th) in threads.iter().enumerate() {
            ready.push(th.time, t as u32);
        }

        Ok(SimRun {
            cfg: cfg.clone(),
            modes,
            mem,
            dram,
            sem: Semaphore::default(),
            devices: DeviceQueue::new(n),
            threads,
            ready,
            current: None,
            barrier_arrivals: Vec::new(),
            done: 0,
            total_cycles: 0,
            started: false,
        })
    }

    /// Whether every thread has finished.
    pub fn is_done(&self) -> bool {
        self.done == self.threads.len()
    }

    /// Total cycles from host start to the latest completed thread so far
    /// (final once [`Self::is_done`]).
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Device-completion wakeup statistics accumulated so far: how many
    /// times threads were woken by line fetches, channel grants and DMA
    /// completions, and how many cycles they slept waiting.
    pub fn device_stats(&self) -> DeviceStats {
        self.devices.stats
    }

    /// Threads that are blocked right now, with their barrier/lock states.
    ///
    /// Sorted by thread id, and each entry names the resource: who holds the
    /// semaphore and how many waiters are queued ahead, or how many threads
    /// the barrier has collected out of the live set.
    fn blocked_threads(&self) -> Vec<BlockedThread> {
        let live = self
            .threads
            .iter()
            .filter(|t| t.status != Status::Done)
            .count() as u32;
        let arrived = self.barrier_arrivals.len() as u32;
        let mut waiting: Vec<BlockedThread> = self
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                let reason = match t.status {
                    Status::SpinWait => BlockedReason::SemaphoreWait {
                        holder: self.sem.owner(),
                        queued_ahead: self.sem.queue_position(i as u32).unwrap_or(0) as u32,
                    },
                    Status::AtBarrier => BlockedReason::AtBarrier {
                        arrived,
                        expected: live,
                    },
                    Status::Ready | Status::Done => return None,
                };
                Some(BlockedThread {
                    thread: i as u32,
                    at_cycle: t.time,
                    reason,
                })
            })
            .collect();
        waiting.sort_by_key(|b| b.thread);
        waiting
    }

    /// First-call bookkeeping: emit the initial idle→running launch timeline.
    fn begin<S: Snoop + ?Sized>(&mut self, snoop: &mut S) {
        if !self.started {
            self.started = true;
            // Initial state timeline: every thread idle from cycle 0 until
            // the host software starts it.
            for (t, th) in self.threads.iter().enumerate() {
                snoop.state_change(0, t as u32, ThreadState::Idle);
                snoop.state_change(th.time, t as u32, ThreadState::Running);
            }
        }
    }

    /// Advance the runnable thread with the smallest clock by one walker
    /// event, reporting pipeline activity to `snoop`.
    ///
    /// Dispatch is O(1) amortized on the wheel core: the dispatched thread
    /// is *held out* of the queue while it remains the global `(time, tid)`
    /// minimum (checked against [`DispatchQueue::peek`]), so the common
    /// pattern — a pipelined loop re-queueing its own thread a few cycles
    /// ahead — costs one comparison, no queue traffic at all. The held
    /// thread is dispatched exactly when a pop would have dispatched it
    /// (thread ids are unique, so the strict tuple compare is exact), which
    /// keeps the snoop stream bit-identical to the pop-per-event cores.
    /// Blocked threads re-enter the queue only on their explicit wakeup edge
    /// (semaphore grant, barrier release, device completion).
    ///
    /// The first call also emits the initial idle→running launch timeline;
    /// the call that completes the last thread reports `run_end`. Stepping a
    /// finished run is a no-op returning [`StepStatus::Done`].
    pub fn step<S: Snoop + ?Sized>(&mut self, snoop: &mut S) -> Result<StepStatus, SimError> {
        self.begin(snoop);
        if self.is_done() {
            return Ok(StepStatus::Done);
        }

        let tid = match self.current.take() {
            Some(c)
                if match self.ready.peek() {
                    Some(qmin) => (self.threads[c as usize].time, c) < qmin,
                    None => true,
                } =>
            {
                c
            }
            held => {
                if let Some(c) = held {
                    self.ready.push(self.threads[c as usize].time, c);
                }
                let Some((_, tid)) = self.ready.pop() else {
                    return Err(SimError::Deadlock {
                        waiting: self.blocked_threads(),
                    });
                };
                tid
            }
        };
        let ti = tid as usize;
        self.dispatch(ti, snoop);
        // Hold the dispatched thread for run-ahead unless it blocked or
        // finished — or was already re-queued by a barrier it both completed
        // and woke from.
        if self.threads[ti].status == Status::Ready && !self.ready.contains(tid) {
            self.current = Some(tid);
        }

        if self.is_done() {
            snoop.run_end(self.total_cycles);
            return Ok(StepStatus::Done);
        }
        Ok(StepStatus::Running)
    }

    /// The pop-per-event dispatch loop (the pre-wheel core's `step`): pop
    /// the minimum, dispatch, re-push. Retained as the A/B baseline for the
    /// high-thread-count scaling benchmarks and for differential testing —
    /// it must produce a snoop stream bit-identical to [`Self::step`] on any
    /// kernel. Do not mix the two steppers within one run: `step` may hold a
    /// thread out of the queue between calls.
    pub fn step_baseline<S: Snoop + ?Sized>(
        &mut self,
        snoop: &mut S,
    ) -> Result<StepStatus, SimError> {
        debug_assert!(self.current.is_none(), "step_baseline after run-ahead step");
        self.begin(snoop);
        if self.is_done() {
            return Ok(StepStatus::Done);
        }

        let Some((_, tid)) = self.ready.pop() else {
            return Err(SimError::Deadlock {
                waiting: self.blocked_threads(),
            });
        };
        let ti = tid as usize;
        self.dispatch(ti, snoop);
        // Re-queue the dispatched thread unless it blocked/finished — or was
        // already re-queued by a barrier it both completed and woke from.
        if self.threads[ti].status == Status::Ready && !self.ready.contains(tid) {
            self.ready.push(self.threads[ti].time, tid);
        }

        if self.is_done() {
            snoop.run_end(self.total_cycles);
            return Ok(StepStatus::Done);
        }
        Ok(StepStatus::Running)
    }

    /// The pre-event-queue reference stepper: picks the next thread by a
    /// linear scan over thread states instead of the ready queue, then keeps
    /// the queue coherent by explicit removal. Retained for differential
    /// property testing against [`Self::step`] — both must produce identical
    /// snoop streams on any kernel.
    #[cfg(test)]
    pub(crate) fn step_legacy<S: Snoop + ?Sized>(
        &mut self,
        snoop: &mut S,
    ) -> Result<StepStatus, SimError> {
        debug_assert!(self.current.is_none(), "step_legacy after run-ahead step");
        self.begin(snoop);
        if self.is_done() {
            return Ok(StepStatus::Done);
        }

        let Some(ti) = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Ready)
            .min_by_key(|(i, t)| (t.time, *i))
            .map(|(i, _)| i)
        else {
            return Err(SimError::Deadlock {
                waiting: self.blocked_threads(),
            });
        };
        let removed = self.ready.remove(ti as u32);
        debug_assert_eq!(
            removed,
            Some(self.threads[ti].time),
            "ready queue out of sync with thread states"
        );
        self.dispatch(ti, snoop);
        if self.threads[ti].status == Status::Ready && !self.ready.contains(ti as u32) {
            self.ready.push(self.threads[ti].time, ti as u32);
        }

        if self.is_done() {
            snoop.run_end(self.total_cycles);
            return Ok(StepStatus::Done);
        }
        Ok(StepStatus::Running)
    }

    /// Handle one walker event of thread `ti`.
    ///
    /// The caller has already removed `ti` from the ready queue; this method
    /// pushes the explicit wakeup edges — a semaphore grant re-queues the
    /// FIFO winner, a barrier release re-queues every arrival, and a memory
    /// access that must block schedules a device-completion event that
    /// re-queues this thread — so blocked threads re-enter the queue exactly
    /// when the event that unblocks them is simulated.
    fn dispatch<S: Snoop + ?Sized>(&mut self, ti: usize, snoop: &mut S) {
        let cfg = &self.cfg;
        let modes = &self.modes;
        let threads = &mut self.threads;
        let mem = &mut self.mem;
        let dram = &mut self.dram;
        let sem = &mut self.sem;
        let devices = &mut self.devices;
        let ready = &mut self.ready;
        let barrier_arrivals = &mut self.barrier_arrivals;
        let tid = ti as u32;
        // Fire the device-completion wake this dispatch realizes, if any:
        // the thread was re-queued at its completion time, so simulated time
        // has just reached it. The stall is reported here, on the wakeup
        // edge, with the same end time and length the inline model used —
        // but now in global chronological stream position.
        if let Some((_kind, stall)) = devices.take_due(tid, threads[ti].time) {
            snoop.stall(threads[ti].time, tid, stall);
        }
        let ev = threads[ti].walker.step(mem);
        match ev {
            StepEvent::Ops(c) => {
                let th = &mut threads[ti];
                snoop.ops(th.time, tid, c.int_ops, c.flops, c.local_loads);
                if th.innermost_pipelined().is_none() {
                    let work = c.int_ops + c.flops + c.local_loads;
                    th.time += cfg.stmt_base_cost + work.div_ceil(cfg.seq_issue_width as u64);
                }
            }
            StepEvent::LocalRead { mem: lm } => {
                let th = &mut threads[ti];
                let ready_at = th.mem_ready[lm.0 as usize];
                if ready_at > th.time {
                    // Blocked on the preloader: sleep until the DMA
                    // completion event; the wake reports the stall.
                    let stall = ready_at - th.time;
                    th.time = ready_at;
                    devices.schedule(tid, ready_at, DeviceEvent::DmaComplete, stall);
                }
            }
            StepEvent::Access(a) => {
                let th = &mut threads[ti];
                let addr = mem.abs_addr(a.buf, a.byte_off);
                if a.is_write {
                    let issue = th.time.max(th.write_port_free);
                    th.write_port_free = issue + 1;
                    let _ = dram.transfer(issue, addr, a.bytes, true);
                    th.line_bufs[a.buf.0 as usize].invalidate();
                    snoop.mem_write(th.time, tid, a.bytes as u64);
                } else {
                    let issue0 = th.time.max(th.read_port_free);
                    th.read_port_free = issue0 + 1;
                    // MSHR bound: retire completed fetches, then wait
                    // for the oldest if the port is saturated.
                    while th.inflight.front().is_some_and(|&r| r <= issue0) {
                        th.inflight.pop_front();
                    }
                    let issue = if th.inflight.len() >= cfg.port_mshrs as usize {
                        th.inflight.pop_front().unwrap().max(issue0)
                    } else {
                        issue0
                    };
                    let contended_before = dram.stats.contended;
                    let (ready_at, hit) = if cfg.line_buffers {
                        th.line_bufs[a.buf.0 as usize].read(dram, issue, addr, a.bytes)
                    } else {
                        th.scratch_buf.invalidate();
                        th.scratch_buf.read(dram, issue, addr, a.bytes)
                    };
                    if !hit {
                        th.inflight.push_back(ready_at);
                    }
                    snoop.mem_read(th.time, tid, a.bytes as u64);
                    if th.innermost_pipelined().is_some() {
                        // The scheduler budgeted the assumed minimum;
                        // only the excess stalls, and the VLO stage
                        // waits for the worst response of the iteration.
                        th.iter_stall = th
                            .iter_stall
                            .max(ready_at.saturating_sub(issue0 + cfg.assumed_load_latency));
                    } else {
                        // Sequential code waits the full round trip: sleep
                        // until the completion event. Classify the wake by
                        // what the request actually waited on — a queued
                        // channel/bank grant, or just the fetch round trip.
                        let stall = ready_at.saturating_sub(th.time);
                        if stall > 0 {
                            let kind = if dram.stats.contended > contended_before {
                                DeviceEvent::ChannelGrant
                            } else {
                                DeviceEvent::LineFetch
                            };
                            th.time = ready_at;
                            devices.schedule(tid, ready_at, kind, stall);
                        }
                    }
                }
            }
            StepEvent::Burst { access, mem: lm } => {
                let th = &mut threads[ti];
                // The preloader queues descriptors: the thread pays only
                // the issue cost and runs on (how Fig. 9's prefetch
                // overlaps compute); the engine executes bursts serially.
                let addr = mem.abs_addr(access.buf, access.byte_off);
                let dma_done = dram.dma_transfer(ti, th.time, addr, access.bytes);
                if access.is_write {
                    snoop.mem_write(th.time, tid, access.bytes as u64);
                } else {
                    let r = &mut th.mem_ready[lm.0 as usize];
                    *r = (*r).max(dma_done);
                    snoop.mem_read(th.time, tid, access.bytes as u64);
                }
                th.time += cfg.burst_issue_cost;
            }
            StepEvent::LoopEnter { loop_id, trip: _ } => {
                let th = &mut threads[ti];
                th.loops.push(LoopCtx {
                    mode: modes[loop_id.0 as usize],
                    entered_first: false,
                });
            }
            StepEvent::LoopIter { .. } => {
                let th = &mut threads[ti];
                snoop.iteration(th.time, tid);
                let ctx = th.loops.last_mut().expect("iter outside loop");
                match ctx.mode {
                    LoopMode::Pipelined { ii, .. } => {
                        let stall = std::mem::take(&mut th.iter_stall);
                        if ctx.entered_first {
                            th.time += ii + stall;
                        } else {
                            ctx.entered_first = true;
                            th.time += stall;
                        }
                        if stall > 0 {
                            snoop.stall(th.time, tid, stall);
                        }
                    }
                    LoopMode::Sequential => {
                        // Loop control handshake of the paused region.
                        th.time += 1;
                    }
                }
            }
            StepEvent::LoopExit { .. } => {
                let th = &mut threads[ti];
                let ctx = th.loops.pop().expect("exit outside loop");
                match ctx.mode {
                    LoopMode::Pipelined { depth, .. } => {
                        // Drain the pipeline after the last issue,
                        // including the final iteration's worst stall.
                        let stall = std::mem::take(&mut th.iter_stall);
                        th.time += depth + stall;
                        if stall > 0 {
                            snoop.stall(th.time, tid, stall);
                        }
                    }
                    LoopMode::Sequential => th.time += 1,
                }
            }
            StepEvent::CriticalEnter => {
                let th = &mut threads[ti];
                snoop.state_change(th.time, tid, ThreadState::Spinning);
                let t_req = th.time + cfg.sem_acquire_latency;
                match sem.acquire(tid, t_req) {
                    Acquire::Granted(g) => {
                        th.time = g;
                        snoop.state_change(g, tid, ThreadState::Critical);
                    }
                    Acquire::Queued => {
                        th.status = Status::SpinWait;
                    }
                }
            }
            StepEvent::CriticalExit => {
                let release_t = {
                    let th = &mut threads[ti];
                    th.time += cfg.sem_release_latency;
                    snoop.state_change(th.time, tid, ThreadState::Running);
                    th.time
                };
                if let Some((next, grant)) = sem.release(tid, release_t, cfg.spin_retry_interval) {
                    // Wakeup edge: the FIFO winner is re-scheduled directly
                    // at its grant time — the same time the spin-poll model
                    // would have observed the free semaphore.
                    let nt = &mut threads[next as usize];
                    debug_assert_eq!(nt.status, Status::SpinWait);
                    nt.time = grant.max(nt.time);
                    nt.status = Status::Ready;
                    ready.push(nt.time, next);
                    snoop.state_change(nt.time, next, ThreadState::Critical);
                }
            }
            StepEvent::Barrier => {
                threads[ti].status = Status::AtBarrier;
                barrier_arrivals.push(ti);
                try_release_barrier(threads, barrier_arrivals, ready, cfg.barrier_latency);
            }
            StepEvent::Finished => {
                let th = &mut threads[ti];
                th.status = Status::Done;
                self.total_cycles = self.total_cycles.max(th.time);
                snoop.state_change(th.time, tid, ThreadState::Idle);
                self.done += 1;
                // A finished thread never reaches the barrier: re-check
                // whether the remaining arrivals complete it.
                try_release_barrier(threads, barrier_arrivals, ready, cfg.barrier_latency);
            }
        }
    }

    /// Consume a completed run, folding the observer-derived per-thread
    /// statistics together with the DRAM model's ground truth.
    ///
    /// Panics if the run is not [`Self::is_done`] — the caller drives
    /// [`Self::step`] to completion first.
    pub fn into_result(self, stats_snoop: StatsSnoop) -> RunResult {
        assert!(
            self.is_done(),
            "into_result() before the run completed: drive step() to Done first"
        );
        let mut stats = RunStats {
            per_thread: stats_snoop.into_stats(),
            line_fetches: self.dram.stats.line_fetches,
            channel_bytes: self.dram.stats.channel_bytes,
            dram_contended: self.dram.stats.contended,
            line_hits: self.dram.stats.line_hits,
            read_requests: self.dram.stats.read_requests,
        };
        stats.per_thread.sort_by_key(|t| t.start_cycle);

        RunResult {
            buffers: self.mem.into_buffers(),
            total_cycles: self.total_cycles,
            stats,
        }
    }
}

/// The cycle-level executor: the one-call driver over [`SimRun`].
pub struct Executor;

impl Executor {
    /// Run `kernel` (compiled as `accel`) with `launch` arguments under
    /// `cfg`, reporting pipeline activity to `snoop`, on the default
    /// wheel-queue core with run-ahead dispatch.
    ///
    /// Returns [`SimError::InvalidConfig`] if `cfg` fails validation and
    /// [`SimError::Deadlock`] if every live thread blocks on the semaphore
    /// or barrier.
    pub fn run(
        kernel: &Kernel,
        accel: &Accelerator,
        cfg: &SimConfig,
        launch: &[LaunchArg],
        snoop: &mut dyn Snoop,
    ) -> Result<RunResult, SimError> {
        let mut sim = SimRun::new(kernel, accel, cfg, launch)?;
        // The executor's ground-truth statistics are just another observer
        // of the snooped signals, fanned out alongside the caller's snoop.
        // The pair is statically dispatched so the stats derivation inlines
        // into the event loop; the caller's virtually-dispatched observer
        // sits behind a ring buffer so its per-signal indirection is paid in
        // batches, off the dispatch fast path.
        let mut stats_snoop = StatsSnoop::new(kernel.num_threads);
        {
            let mut ring = SnoopRing::new(snoop);
            let mut pair = SnoopPair::new(&mut stats_snoop, &mut ring);
            while sim.step(&mut pair)? == StepStatus::Running {}
        }
        Ok(sim.into_result(stats_snoop))
    }

    /// [`Executor::run`], additionally reporting the [`DeviceStats`] the
    /// run accumulated — how many thread wakeups each device event class
    /// (line fetch, channel grant, DMA completion) delivered and how long
    /// threads slept on them. Used by the scaling benchmarks, where the
    /// wake mix is part of the recorded snapshot.
    pub fn run_with_device_stats(
        kernel: &Kernel,
        accel: &Accelerator,
        cfg: &SimConfig,
        launch: &[LaunchArg],
        snoop: &mut dyn Snoop,
    ) -> Result<(RunResult, DeviceStats), SimError> {
        let mut sim = SimRun::new(kernel, accel, cfg, launch)?;
        let mut stats_snoop = StatsSnoop::new(kernel.num_threads);
        {
            let mut ring = SnoopRing::new(snoop);
            let mut pair = SnoopPair::new(&mut stats_snoop, &mut ring);
            while sim.step(&mut pair)? == StepStatus::Running {}
        }
        let devices = sim.device_stats();
        Ok((sim.into_result(stats_snoop), devices))
    }

    /// [`Executor::run`] on the binary-heap core with pop-per-event
    /// dispatch and unbuffered snoop fan-out — the pre-wheel executor,
    /// retained as the A/B baseline for the scaling benchmarks. Produces
    /// bit-identical results and snoop streams to [`Executor::run`].
    pub fn run_heap_baseline(
        kernel: &Kernel,
        accel: &Accelerator,
        cfg: &SimConfig,
        launch: &[LaunchArg],
        snoop: &mut dyn Snoop,
    ) -> Result<RunResult, SimError> {
        let mut sim = SimRun::<ReadyQueue>::with_queue(kernel, accel, cfg, launch)?;
        let mut stats_snoop = StatsSnoop::new(kernel.num_threads);
        {
            let mut pair = SnoopPair::new(&mut stats_snoop, snoop);
            while sim.step_baseline(&mut pair)? == StepStatus::Running {}
        }
        Ok(sim.into_result(stats_snoop))
    }
}

/// Release the barrier when every live thread has arrived: all arrivals are
/// re-scheduled (wakeup edge) at `max(arrival times) + barrier_latency`.
fn try_release_barrier<Q: DispatchQueue>(
    threads: &mut [Thread<'_>],
    barrier_arrivals: &mut Vec<usize>,
    ready: &mut Q,
    barrier_latency: u64,
) {
    if barrier_arrivals.is_empty() {
        return;
    }
    let live = threads.iter().filter(|t| t.status != Status::Done).count();
    if barrier_arrivals.len() != live {
        return;
    }
    let release = barrier_arrivals
        .iter()
        .map(|&bi| threads[bi].time)
        .max()
        .unwrap_or(0)
        + barrier_latency;
    for &bi in barrier_arrivals.iter() {
        threads[bi].status = Status::Ready;
        threads[bi].time = release;
        ready.push(release, bi as u32);
    }
    barrier_arrivals.clear();
}

/// Decide the pricing mode of a loop from its compiled schedule.
fn loop_mode(accel: &Accelerator, id: LoopId) -> LoopMode {
    match accel.pipelined(id) {
        Some((ii, depth)) => LoopMode::Pipelined { ii, depth },
        None => LoopMode::Sequential,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snoop::NullSnoop;
    use nymble_hls::accel::{compile, HlsConfig};
    use nymble_ir::interp::{buffer_as_f32, Interpreter, LaunchArg as GoldArg};
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    fn fast_cfg() -> SimConfig {
        SimConfig::default().with_fast_launch()
    }

    fn dot_kernel(n: i64, threads: u32) -> Kernel {
        let mut kb = KernelBuilder::new("dot", threads);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let b = kb.buffer("B", ScalarType::F32, MapDir::To);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::ToFrom);
        let sum = kb.var("sum", Type::F32);
        let z = kb.c_f32(0.0);
        kb.set(sum, z);
        let tid = kb.thread_id();
        let tid64 = kb.cast(ScalarType::I64, tid);
        let nt = kb.num_threads_expr();
        let nt64 = kb.cast(ScalarType::I64, nt);
        let n_e = kb.c_i64(n);
        kb.for_each("k", tid64, n_e, nt64, |kb, k| {
            let av = kb.load(a, k, Type::F32);
            let bv = kb.load(b, k, Type::F32);
            let p = kb.mul(av, bv);
            let cur = kb.get(sum);
            let s = kb.add(cur, p);
            kb.set(sum, s);
        });
        kb.critical(|kb| {
            let zero = kb.c_i64(0);
            let cur = kb.load(out, zero, Type::F32);
            let sv = kb.get(sum);
            let upd = kb.add(cur, sv);
            let zero2 = kb.c_i64(0);
            kb.store(out, zero2, upd);
        });
        kb.finish()
    }

    fn run_dot(n: i64, threads: u32) -> (RunResult, f32) {
        let k = dot_kernel(n, threads);
        let acc = compile(&k, &HlsConfig::default());
        let a: Vec<Value> = (0..n).map(|i| Value::F32(i as f32 * 0.5)).collect();
        let b: Vec<Value> = (0..n).map(|i| Value::F32((i % 7) as f32)).collect();
        let launch = vec![
            LaunchArg::Buffer(a.clone()),
            LaunchArg::Buffer(b.clone()),
            LaunchArg::Buffer(vec![Value::F32(0.0)]),
        ];
        let r = Executor::run(&k, &acc, &fast_cfg(), &launch, &mut NullSnoop).unwrap();
        // Gold model for the expected value.
        let gold = Interpreter::run(
            &k,
            &[
                GoldArg::Buffer(a),
                GoldArg::Buffer(b),
                GoldArg::Buffer(vec![Value::F32(0.0)]),
            ],
        );
        let expect = buffer_as_f32(&gold.buffers[2])[0];
        (r, expect)
    }

    #[test]
    fn dot_product_matches_gold_model() {
        let (r, expect) = run_dot(256, 4);
        let got = match &r.buffers[2][0] {
            Value::F32(v) => *v,
            other => panic!("{other:?}"),
        };
        assert!(
            (got - expect).abs() <= f32::EPSILON * expect.abs().max(1.0) * 8.0,
            "sim {got} vs gold {expect}"
        );
        assert!(r.total_cycles > 0);
        assert_eq!(r.stats.total(|t| t.critical_entries), 4);
    }

    #[test]
    fn more_threads_run_faster() {
        let (r1, _) = run_dot(4096, 1);
        let (r8, _) = run_dot(4096, 8);
        assert!(
            r8.total_cycles < r1.total_cycles,
            "8 threads ({}) should beat 1 ({})",
            r8.total_cycles,
            r1.total_cycles
        );
    }

    #[test]
    fn critical_sections_serialize() {
        // A kernel that is *only* critical sections: total critical time
        // across threads must not overlap (serialized by the semaphore).
        let mut kb = KernelBuilder::new("crit", 4);
        let out = kb.buffer("OUT", ScalarType::I32, MapDir::ToFrom);
        let n = kb.c_i64(5);
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
        let acc = compile(&k, &HlsConfig::default());
        let r = Executor::run(
            &k,
            &acc,
            &fast_cfg(),
            &[LaunchArg::Buffer(vec![Value::I32(0)])],
            &mut NullSnoop,
        )
        .unwrap();
        assert_eq!(r.buffers[0][0], Value::I32(20), "4 threads × 5 increments");
        let total_crit = r.stats.total(|t| t.critical_cycles);
        assert!(total_crit <= r.total_cycles, "critical time cannot overlap");
        let total_spin = r.stats.total(|t| t.spin_cycles);
        assert!(total_spin > 0, "threads must contend");
    }

    #[test]
    fn launch_interval_staggers_threads() {
        let k = dot_kernel(64, 4);
        let acc = compile(&k, &HlsConfig::default());
        let mk = || {
            vec![
                LaunchArg::Buffer(vec![Value::F32(1.0); 64]),
                LaunchArg::Buffer(vec![Value::F32(1.0); 64]),
                LaunchArg::Buffer(vec![Value::F32(0.0)]),
            ]
        };
        let slow = SimConfig {
            launch_interval: 100_000,
            ..Default::default()
        };
        let r = Executor::run(&k, &acc, &slow, &mk(), &mut NullSnoop).unwrap();
        assert!(r.stats.per_thread[3].start_cycle == 300_000);
        assert!(
            r.total_cycles >= 300_000,
            "ramp must dominate tiny workloads"
        );
        // Early thread finished before the last started (the Fig. 11 effect).
        assert!(r.stats.per_thread[0].end_cycle < r.stats.per_thread[3].start_cycle);
    }

    #[test]
    fn barrier_synchronizes_times() {
        let mut kb = KernelBuilder::new("bar", 3);
        let out = kb.buffer("OUT", ScalarType::I32, MapDir::ToFrom);
        // Thread-dependent work before the barrier: thread t loops t*64 times.
        let tid = kb.thread_id();
        let tid64 = kb.cast(ScalarType::I64, tid);
        let c64 = kb.c_i64(64);
        let n = kb.mul(tid64, c64);
        let acc_v = kb.var("acc", Type::I32);
        kb.for_range("i", n, |kb, _| {
            let cur = kb.get(acc_v);
            let one = kb.c_i32(1);
            let s = kb.add(cur, one);
            kb.set(acc_v, s);
        });
        kb.barrier();
        let tid2 = kb.thread_id();
        let idx = kb.cast(ScalarType::I64, tid2);
        let av = kb.get(acc_v);
        kb.store(out, idx, av);
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let r = Executor::run(
            &k,
            &acc,
            &fast_cfg(),
            &[LaunchArg::Buffer(vec![Value::I32(0); 3])],
            &mut NullSnoop,
        )
        .unwrap();
        assert_eq!(r.buffers[0][2], Value::I32(128));
        // All threads end within a small window after the barrier.
        let ends: Vec<u64> = r.stats.per_thread.iter().map(|t| t.end_cycle).collect();
        let spread = ends.iter().max().unwrap() - ends.iter().min().unwrap();
        assert!(spread < 2_000, "post-barrier work is uniform: {ends:?}");
    }

    #[test]
    fn preload_makes_local_reads_wait() {
        let mut kb = KernelBuilder::new("pre", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let o = kb.buffer("O", ScalarType::F32, MapDir::From);
        let lm = kb.local_mem("buf", Type::F32, 64);
        let z = kb.c_i64(0);
        let z2 = kb.c_i64(0);
        let len = kb.c_i64(64);
        kb.preload(lm, a, z, z2, len);
        // Immediately read: must stall until DMA completes.
        let one = kb.c_i64(1);
        let v = kb.load_local(lm, one, Type::F32);
        let z3 = kb.c_i64(0);
        kb.store(o, z3, v);
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let r = Executor::run(
            &k,
            &acc,
            &fast_cfg(),
            &[
                LaunchArg::Buffer(vec![Value::F32(3.25); 64]),
                LaunchArg::Buffer(vec![Value::F32(0.0)]),
            ],
            &mut NullSnoop,
        )
        .unwrap();
        assert_eq!(r.buffers[1][0], Value::F32(3.25));
        assert!(
            r.stats.total_stalls() > 0,
            "read-after-DMA must stall: {:?}",
            r.stats
        );
        assert_eq!(r.stats.total(|t| t.bytes_read), 256, "one 256 B burst");
    }

    #[test]
    fn sequential_vs_strided_bandwidth() {
        // Sequential streaming hits the line buffer; a large-stride walk
        // misses every access → more DRAM lines fetched for the same
        // request count.
        fn walk(stride: i64) -> RunStats {
            let len = 4096i64;
            let mut kb = KernelBuilder::new("walk", 1);
            let a = kb.buffer("A", ScalarType::F32, MapDir::To);
            let acc_v = kb.var("acc", Type::F32);
            let n = kb.c_i64(256);
            kb.for_range("i", n, |kb, i| {
                let s = kb.c_i64(stride);
                let idx = kb.mul(i, s);
                let len_e = kb.c_i64(len);
                let idxm = kb.bin(nymble_ir::BinOp::Rem, idx, len_e);
                let v = kb.load(a, idxm, Type::F32);
                let cur = kb.get(acc_v);
                let sum = kb.add(cur, v);
                kb.set(acc_v, sum);
            });
            let k = kb.finish();
            let acc = compile(&k, &HlsConfig::default());
            Executor::run(
                &k,
                &acc,
                &fast_cfg(),
                &[LaunchArg::Buffer(vec![Value::F32(1.0); len as usize])],
                &mut NullSnoop,
            )
            .unwrap()
            .stats
        }
        let seq = walk(1);
        let strided = walk(64);
        assert!(
            strided.line_fetches > seq.line_fetches * 4,
            "strided {} vs sequential {}",
            strided.line_fetches,
            seq.line_fetches
        );
    }
}
