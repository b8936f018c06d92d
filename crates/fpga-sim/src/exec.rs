//! The timed executor: drives one walker per hardware thread and attributes
//! cycle costs per the compiled schedules (see the crate docs for the model).
//!
//! The simulation core is [`SimRun`]: a pure, re-entrant value holding the
//! complete run state (threads, memory image, DRAM, semaphore), advanced one
//! *slice* at a time by [`SimRun::step`]. A slice runs the thread with the
//! smallest clock through [`Walker::run`] and prices each of its events
//! inline, in the [`EventSink`] of that walker, until the thread blocks,
//! finishes or stops being the earliest runnable thread. It is `Send`, so a
//! batch scheduler can carry runs across worker threads, and it returns
//! typed [`SimError`]s instead of panicking, so one broken configuration
//! cannot abort a whole sweep. [`Executor::run`] is the one-call entry point
//! built on top of it.

use crate::config::SimConfig;
use crate::device::{DeviceEvent, DeviceQueue, DeviceStats};
use crate::dram::{Dram, LineBuffer};
use crate::error::{BlockedReason, BlockedThread, SimError};
use crate::memimg::{LaunchArg, MemImage};
use crate::semaphore::{Acquire, Semaphore};
use crate::snoop::{Snoop, SnoopPair, SnoopRing, StatsSnoop, ThreadState};
use crate::stats::RunStats;
use crate::wheel::WheelQueue;
use nymble_hls::accel::Accelerator;
use nymble_ir::loops::LoopId;
use nymble_ir::tape::Program;
use nymble_ir::walker::{EventSink, StepEvent, Walker};
use nymble_ir::{ArgId, Buffer, Kernel};
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

struct Thread {
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

impl Thread {
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
    pub buffers: Vec<Buffer>,
    /// Total cycles from host start to last thread completion.
    pub total_cycles: u64,
    /// Ground-truth statistics.
    pub stats: RunStats,
    /// Device-completion wakeups: how many times threads were woken by line
    /// fetches, channel grants and DMA completions, and how long they slept.
    pub devices: DeviceStats,
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
/// Dispatch runs on the [`WheelQueue`] calendar queue (O(1)-amortized at
/// high thread counts). The queue only decides *how* the next `(time, tid)`
/// minimum is found, never *which* thread it is: the `cfg(test)` linear-scan
/// stepper picks threads without it and must produce a bit-identical snoop
/// stream (see `difftest`).
pub struct SimRun<'k> {
    /// One walker per hardware thread, kept apart from [`Machine`] so a
    /// walker can run over `mem` while a [`Slice`] prices its events.
    walkers: Vec<Walker<'k>>,
    mem: MemImage,
    m: Machine,
    started: bool,
}

/// The simulated hardware a [`Slice`] prices events against: every
/// thread's clock and ports, the DRAM, semaphore and device models, and the
/// ready queue.
struct Machine {
    cfg: SimConfig,
    modes: Vec<LoopMode>,
    /// DRAM base address of each kernel argument's buffer. The image holds
    /// the same layout, but a running walker borrows the image mutably.
    base: Vec<u64>,
    dram: Dram,
    sem: Semaphore,
    devices: DeviceQueue,
    threads: Vec<Thread>,
    /// The discrete-event ready queue: holds exactly the `Ready` threads
    /// that are not running a slice, keyed by `(wakeup_time, thread_id)`.
    ready: WheelQueue,
    barrier_arrivals: Vec<usize>,
    done: usize,
    total_cycles: u64,
}

// The core must stay schedulable across worker threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SimRun<'_>>();
};

/// A [`Slice`] bound no `(time, tid)` reaches: the ready queue is empty.
const NO_BOUND: (u64, u32) = (u64::MAX, u32::MAX);
/// A [`Slice`] bound no `(time, tid)` is below: price exactly one event.
#[cfg(test)]
const ONE_EVENT: (u64, u32) = (0, 0);

impl<'k> SimRun<'k> {
    /// Set up a run of `kernel` (compiled as `accel`) with `launch`
    /// arguments under `cfg`. Validates the configuration up front, and
    /// lowers the kernel once to the [`Program`] every thread's walker
    /// executes.
    ///
    /// # Panics
    /// Panics when a launch value's kind or type differs from the kernel's
    /// declaration (see [`MemImage::new`]).
    pub fn new(
        kernel: &'k Kernel,
        accel: &Accelerator,
        cfg: &SimConfig,
        launch: &[LaunchArg],
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let prog = std::sync::Arc::new(Program::lower(kernel));
        let modes: Vec<LoopMode> = (0..prog.num_loops())
            .map(|i| loop_mode(accel, LoopId(i as u32)))
            .collect();

        let (mem, scalars) = MemImage::new(kernel, launch);
        let dram = Dram::new(cfg);
        let n = kernel.num_threads as usize;
        let n_bufs = kernel.args.len();
        let n_mems = kernel.local_mems.len();
        let base = (0..n_bufs)
            .map(|b| mem.abs_addr(ArgId(b as u32), 0))
            .collect();

        let walkers = (0..n)
            .map(|t| Walker::new(kernel, prog.clone(), t as u32, scalars.clone()))
            .collect();
        let threads: Vec<Thread> = (0..n)
            .map(|t| Thread {
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

        let mut ready = WheelQueue::new(n);
        for (t, th) in threads.iter().enumerate() {
            ready.push(th.time, t as u32);
        }

        Ok(SimRun {
            walkers,
            mem,
            m: Machine {
                cfg: cfg.clone(),
                modes,
                base,
                dram,
                sem: Semaphore::default(),
                devices: DeviceQueue::new(n),
                threads,
                ready,
                barrier_arrivals: Vec::new(),
                done: 0,
                total_cycles: 0,
            },
            started: false,
        })
    }

    /// Whether every thread has finished.
    pub fn is_done(&self) -> bool {
        self.m.done == self.m.threads.len()
    }

    /// Total cycles from host start to the latest completed thread so far
    /// (final once [`Self::is_done`]).
    pub fn total_cycles(&self) -> u64 {
        self.m.total_cycles
    }

    /// Device-completion wakeup statistics accumulated so far: how many
    /// times threads were woken by line fetches, channel grants and DMA
    /// completions, and how many cycles they slept waiting.
    pub fn device_stats(&self) -> DeviceStats {
        self.m.devices.stats
    }

    /// Threads that are blocked right now, with their barrier/lock states.
    ///
    /// Sorted by thread id, and each entry names the resource: who holds the
    /// semaphore and how many waiters are queued ahead, or how many threads
    /// the barrier has collected out of the live set.
    fn blocked_threads(&self) -> Vec<BlockedThread> {
        let m = &self.m;
        let live = m
            .threads
            .iter()
            .filter(|t| t.status != Status::Done)
            .count() as u32;
        let arrived = m.barrier_arrivals.len() as u32;
        let mut waiting: Vec<BlockedThread> = m
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                let reason = match t.status {
                    Status::SpinWait => BlockedReason::SemaphoreWait {
                        holder: m.sem.owner(),
                        queued_ahead: m.sem.queue_position(i as u32).unwrap_or(0) as u32,
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
            for (t, th) in self.m.threads.iter().enumerate() {
                snoop.state_change(0, t as u32, ThreadState::Idle);
                snoop.state_change(th.time, t as u32, ThreadState::Running);
            }
        }
    }

    /// Advance the run by one *slice*: pop the runnable thread with the
    /// smallest `(time, tid)` and price its walker events inline, reporting
    /// pipeline activity to `snoop`, until the thread blocks, finishes, or
    /// is no longer below the queue minimum.
    ///
    /// The queue minimum is read once per slice, and again only when the
    /// slice itself queues a thread (a semaphore grant; a barrier release
    /// ends the slice). A slice ends exactly where a pop-per-event dispatch
    /// would switch threads (thread ids are unique, so the strict tuple
    /// compare is exact), which keeps the snoop stream bit-identical to it.
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
        let Some((_, tid)) = self.m.ready.pop() else {
            return Err(SimError::Deadlock {
                waiting: self.blocked_threads(),
            });
        };
        let bound = self.m.ready.peek().unwrap_or(NO_BOUND);
        self.slice(tid, bound, snoop);
        if self.is_done() {
            snoop.run_end(self.m.total_cycles);
            return Ok(StepStatus::Done);
        }
        Ok(StepStatus::Running)
    }

    /// The pre-event-queue reference stepper: picks the next thread by a
    /// linear scan over thread states instead of the ready queue, keeps the
    /// queue coherent by explicit removal, and prices one walker event per
    /// call through the same [`Slice`] sink. The single oracle for
    /// differential property testing against [`Self::step`] — both must
    /// produce identical snoop streams on any kernel.
    #[cfg(test)]
    pub(crate) fn step_legacy<S: Snoop + ?Sized>(
        &mut self,
        snoop: &mut S,
    ) -> Result<StepStatus, SimError> {
        self.begin(snoop);
        if self.is_done() {
            return Ok(StepStatus::Done);
        }

        let Some(ti) = self
            .m
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
        let removed = self.m.ready.remove(ti as u32);
        debug_assert_eq!(
            removed,
            Some(self.m.threads[ti].time),
            "ready queue out of sync with thread states"
        );
        self.slice(ti as u32, ONE_EVENT, snoop);

        if self.is_done() {
            snoop.run_end(self.m.total_cycles);
            return Ok(StepStatus::Done);
        }
        Ok(StepStatus::Running)
    }

    /// Run thread `tid`, already out of the ready queue, while its
    /// `(time, tid)` stays below `bound`; then queue it again if it is still
    /// runnable and a barrier it released has not queued it already.
    fn slice<S: Snoop + ?Sized>(&mut self, tid: u32, bound: (u64, u32), snoop: &mut S) {
        let mut sink = Slice {
            m: &mut self.m,
            snoop,
            tid,
            bound,
        };
        self.walkers[tid as usize].run(self.mem.buffers_mut(), &mut sink);
        let th = &self.m.threads[tid as usize];
        if th.status == Status::Ready && !self.m.ready.contains(tid) {
            self.m.ready.push(th.time, tid);
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
            line_fetches: self.m.dram.stats.line_fetches,
            channel_bytes: self.m.dram.stats.channel_bytes,
            dram_contended: self.m.dram.stats.contended,
            line_hits: self.m.dram.stats.line_hits,
            read_requests: self.m.dram.stats.read_requests,
        };
        stats.per_thread.sort_by_key(|t| t.start_cycle);

        RunResult {
            buffers: self.mem.into_buffers(),
            total_cycles: self.m.total_cycles,
            stats,
            devices: self.m.devices.stats,
        }
    }
}

/// The event sink of one slice: prices thread `tid`'s walker events on the
/// machine and keeps the walker running while the thread is runnable and
/// its `(time, tid)` is below `bound`.
///
/// Pricing pushes the explicit wakeup edges — a semaphore grant re-queues
/// the FIFO winner, a barrier release re-queues every arrival, and a memory
/// access that must block schedules a device-completion event that fires
/// when this thread is next priced — so blocked threads re-enter the queue
/// exactly when the event that unblocks them is simulated.
struct Slice<'a, S: ?Sized> {
    m: &'a mut Machine,
    snoop: &'a mut S,
    tid: u32,
    /// The smallest `(time, tid)` in the ready queue.
    bound: (u64, u32),
}

impl<S: Snoop + ?Sized> EventSink for Slice<'_, S> {
    fn event(&mut self, ev: StepEvent) -> bool {
        let Machine {
            cfg,
            modes,
            base,
            dram,
            sem,
            devices,
            threads,
            ready,
            barrier_arrivals,
            done,
            total_cycles,
        } = &mut *self.m;
        let snoop = &mut *self.snoop;
        let tid = self.tid;
        let ti = tid as usize;
        // Fire the device-completion wake this event realizes, if any: the
        // thread's clock was advanced to its completion time, and it is the
        // global minimum, so simulated time has just reached it. The stall
        // is reported here, on the wakeup edge, in global chronological
        // stream position.
        if let Some((_kind, stall)) = devices.take_due(tid, threads[ti].time) {
            snoop.stall(threads[ti].time, tid, stall);
        }
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
                let addr = base[a.buf.0 as usize] + a.byte_off;
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
                let addr = base[access.buf.0 as usize] + access.byte_off;
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
                threads[ti].loops.push(LoopCtx {
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
                    // would have observed the free semaphore. It may now be
                    // the queue minimum this slice runs against.
                    let nt = &mut threads[next as usize];
                    debug_assert_eq!(nt.status, Status::SpinWait);
                    nt.time = grant.max(nt.time);
                    nt.status = Status::Ready;
                    ready.push(nt.time, next);
                    self.bound = self.bound.min((nt.time, next));
                    snoop.state_change(nt.time, next, ThreadState::Critical);
                }
            }
            StepEvent::Barrier => {
                threads[ti].status = Status::AtBarrier;
                barrier_arrivals.push(ti);
                try_release_barrier(threads, barrier_arrivals, ready, cfg.barrier_latency);
                // Waiting, or queued again by the release it completed.
                return false;
            }
            StepEvent::Finished => {
                let th = &mut threads[ti];
                th.status = Status::Done;
                *total_cycles = (*total_cycles).max(th.time);
                snoop.state_change(th.time, tid, ThreadState::Idle);
                *done += 1;
                // A finished thread never reaches the barrier: re-check
                // whether the remaining arrivals complete it.
                try_release_barrier(threads, barrier_arrivals, ready, cfg.barrier_latency);
                return false;
            }
        }
        let th = &threads[ti];
        th.status == Status::Ready && (th.time, tid) < self.bound
    }
}

/// The cycle-level executor: the one-call driver over [`SimRun`].
pub struct Executor;

impl Executor {
    /// Run `kernel` (compiled as `accel`) with `launch` arguments under
    /// `cfg`, reporting pipeline activity to `snoop`.
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
}

/// Release the barrier when every live thread has arrived: all arrivals are
/// re-scheduled (wakeup edge) at `max(arrival times) + barrier_latency`.
fn try_release_barrier(
    threads: &mut [Thread],
    barrier_arrivals: &mut Vec<usize>,
    ready: &mut WheelQueue,
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
    use nymble_ir::interp::Interpreter;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type, Value};

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
            LaunchArg::Buffer(a),
            LaunchArg::Buffer(b),
            LaunchArg::Buffer(vec![Value::F32(0.0)]),
        ];
        let r = Executor::run(&k, &acc, &fast_cfg(), &launch, &mut NullSnoop).unwrap();
        // Gold model for the expected value.
        let expect = Interpreter::run(&k, &launch).buffers[2].to_f32()[0];
        (r, expect)
    }

    #[test]
    fn dot_product_matches_gold_model() {
        let (r, expect) = run_dot(256, 4);
        let got = r.buffers[2].to_f32()[0];
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
        assert_eq!(
            r.buffers[0].get(0),
            Some(Value::I32(20)),
            "4 threads × 5 increments"
        );
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
        assert_eq!(r.buffers[0].get(2), Some(Value::I32(128)));
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
        assert_eq!(r.buffers[1].get(0), Some(Value::F32(3.25)));
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
