//! The static cost walker: one memory-bound roofline model behind the
//! analytic fast mode (`fpga_sim::analytic`), the `NP0xx` perf-lint
//! predictions (`nymble_lint::perf`) and the auto-probe region profits
//! ([`crate::region`]).
//!
//! Estimates a kernel's cycles without simulating it, in the spirit of the
//! analytical model for memory-bound HLS kernels of Dávila-Guzmán et al.
//! (see PAPERS.md): per-thread loop costs (`depth + (n-1)·II`), a bandwidth
//! roofline that widens the effective initiation interval when the
//! aggregate request stream exceeds the DRAM channel, critical-section
//! serialization across threads, and the host's thread-launch ramp.
//!
//! Every loop takes its timing from a [`LoopSource`]:
//!
//! * [`LoopSource::Scheduled`] reads II and depth from a compiled
//!   [`Accelerator`]'s schedules ([`Accelerator::pipelined`], the
//!   executor's decision too) and prices the restart contention of
//!   re-entered loops. This is the analytic mode.
//! * [`LoopSource::Symbolic`] needs no compile: the II comes from the
//!   recurrence analysis in [`crate::deps`] and the depth from the
//!   operator chains, with no restart term. This backs [`model`] and
//!   [`region_profits`].
//!
//! Both decide whether a loop pipelines with one rule,
//! [`pipeline_eligible`]: the compiler records its answer per loop.
//!
//! None of a loop's static facts changes between two visits, so each walk
//! derives them once, into one table indexed by
//! [`LoopId`](nymble_ir::loops::LoopId) that the walkers of all threads
//! share: the pipelined `(II, depth)` from the source (both sources fill
//! the same entry), whether the induction variable steers a price, whether
//! an inner loop's bounds come from memory, and a pipelined body's
//! external accesses. A visit looks its loop up; only the source's restart
//! term stays a per-walk switch.
//!
//! Sequential loops are priced as body × trip unless their iterations can
//! cost differently. A loop of at most `EXACT_SEQ_TRIP` (16) iterations is
//! walked iteration by iteration when its induction variable steers a
//! price: an inner loop's bounds, an `If` condition, a DMA burst's length
//! or offset, or an external-access index
//! ([`nymble_ir::loops::var_steers_cost`]). With a memory image, loops
//! whose inner bounds come from memory are walked exactly up to
//! `MAX_EXACT_WALK` iterations. Every cost component is an integer sum, so
//! body × trip is exact for the rest, and only the loops that steer
//! multiply the walk.

use crate::accel::Accelerator;
use crate::deps;
use nymble_ir::expr::Expr;
use nymble_ir::kernel::{ArgKind, Kernel};
use nymble_ir::loops::{var_steers_cost, LoopMap};
use nymble_ir::stmt::{Stmt, Unroll};
use nymble_ir::tape::{eval_int, IntLeaf, OpCounter};
use nymble_ir::validate::infer_types;
use nymble_ir::{ArgId, Buffer, ExprId, MapDir, Type, Value, VarId};
use std::collections::HashMap;

/// Latency and bandwidth parameters of the platform the walker prices
/// against. The cycle simulator prices against the same value: it is the
/// `timing` field of `fpga_sim::SimConfig`, so static predictions and a run
/// share one machine description.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// DRAM access latency in cycles (request to first data).
    pub dram_latency: u64,
    /// DRAM channel payload per cycle in bytes (512-bit interface = 64 B).
    pub dram_bytes_per_cycle: u32,
    /// DRAM burst/line granularity in bytes; every miss fetches a full line.
    /// A power of two: the simulator maps an address to its line by a shift.
    pub dram_line_bytes: u32,
    /// Number of interleaved DRAM banks (a second request to a busy bank
    /// waits). A power of two: the simulator picks a line's bank by a mask.
    pub dram_banks: u32,
    /// Extra busy time a bank holds after serving a line (precharge).
    pub dram_bank_busy: u64,
    /// Cycles between successive hardware-thread starts performed by host
    /// software (§V-D: "the overhead of starting the individual threads by
    /// the software causes the earliest threads to be finished before last
    /// ones are even started").
    pub launch_interval: u64,
    /// Semaphore acquire round trip over the Avalon bus, in cycles.
    pub sem_acquire_latency: u64,
    /// Semaphore release cost, in cycles.
    pub sem_release_latency: u64,
    /// Barrier release latency once the last thread arrives.
    pub barrier_latency: u64,
    /// Issue width for sequential (non-pipelined) statement execution.
    pub seq_issue_width: u32,
    /// Fixed cost per sequential statement (control overhead).
    pub stmt_base_cost: u64,
    /// Preloader DMA descriptor issue cost, in cycles.
    pub burst_issue_cost: u64,
    /// Scheduler-assumed minimum external-load latency (must match the
    /// `ExtLoad` operator latency used at schedule time).
    pub assumed_load_latency: u64,
    /// Per-burst setup cost of the preloader DMA engine (descriptor fetch
    /// plus DRAM row activation for the strided row), in cycles.
    pub dma_setup: u64,
    /// Per-(thread, buffer) one-line read buffers in front of the ports
    /// (Nymble's "(cached) memory accesses"). Ablation knob.
    pub line_buffers: bool,
}

impl Default for Timing {
    /// The paper's Intel D5005 PAC: Stratix 10, four DDR4 banks behind a
    /// 512-bit Avalon interconnect.
    fn default() -> Self {
        Timing {
            dram_latency: 48,
            dram_bytes_per_cycle: 64,
            dram_line_bytes: 64,
            dram_banks: 16,
            dram_bank_busy: 16,
            launch_interval: 880_000,
            sem_acquire_latency: 12,
            sem_release_latency: 4,
            barrier_latency: 8,
            seq_issue_width: 4,
            stmt_base_cost: 1,
            burst_issue_cost: 4,
            assumed_load_latency: 8,
            dma_setup: 12,
            line_buffers: true,
        }
    }
}

impl Timing {
    /// Check the capacities the model divides by or sizes tables with:
    /// `seq_issue_width`, `dram_bytes_per_cycle`, `dram_line_bytes` and
    /// `dram_banks` must be nonzero, and the DRAM line size and bank count
    /// powers of two. The error names the first field that fails.
    pub fn validate(&self) -> Result<(), String> {
        for (value, name) in [
            (self.seq_issue_width, "seq_issue_width"),
            (self.dram_bytes_per_cycle, "dram_bytes_per_cycle"),
            (self.dram_line_bytes, "dram_line_bytes"),
            (self.dram_banks, "dram_banks"),
        ] {
            if value == 0 {
                return Err(format!(
                    "{name} must be nonzero (use 1 for the minimum, not 0)"
                ));
            }
        }
        for (value, name) in [
            (self.dram_line_bytes, "dram_line_bytes"),
            (self.dram_banks, "dram_banks"),
        ] {
            if !value.is_power_of_two() {
                return Err(format!("{name} must be a power of two, got {value}"));
            }
        }
        Ok(())
    }
}

/// Where a non-unrolled loop's initiation interval and depth come from.
#[derive(Clone, Copy, Debug)]
pub enum LoopSource<'a> {
    /// The compiled schedules of this accelerator, plus the
    /// restart-contention term.
    Scheduled(&'a Accelerator),
    /// Structural eligibility, the symbolic recurrence II and the
    /// operator-chain depth; no restart term and no compile needed.
    Symbolic,
}

/// The walker's summary for one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfModel {
    /// Predicted busy cycles per thread: the later of the compute chain
    /// and the thread's DMA engine (excluding launch offset).
    pub per_thread: Vec<u64>,
    /// Predicted DRAM line traffic in bytes, all threads.
    pub dram_bytes: u64,
    /// Predicted serialized critical-section cycles, summed over threads.
    pub critical_cycles: u64,
    /// Predicted DMA-engine busy cycles, summed over threads.
    pub dma_cycles: u64,
    /// Cross-thread restart-contention cycles summed over threads (already
    /// inside `per_thread`); always 0 under [`LoopSource::Symbolic`].
    pub contention: u64,
    /// Launch-ramp span: the last thread to finish, measured from host
    /// start (see the span model in [`estimate`]).
    pub ramp_span: u64,
    /// Predicted total cycles: the largest of the launch-ramp span, the
    /// serialized critical time and the bandwidth floor.
    pub total_cycles: u64,
}

/// Statically derived instrumentation profit of one region-forming
/// statement (loop nest / critical section / DMA burst), summed over all
/// hardware threads. Keyed by the statement's address — the same idiom as
/// [`LoopMap`], so the map is only valid for the exact `Kernel` value it
/// was computed from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionProfit {
    /// Busy cycles spent under the region, all threads.
    pub cycles: u64,
    /// DRAM line traffic attributable to the region, all threads.
    pub dram_bytes: u64,
    /// Serialized critical-section cycles under the region.
    pub critical_cycles: u64,
    /// DMA engine busy cycles under the region.
    pub dma_cycles: u64,
}

impl RegionProfit {
    /// Scalar stall-exposure score the counter-selection optimizer ranks
    /// regions by: busy cycles plus the serialization and DMA exposure
    /// plus the bandwidth-floor cycles of the region's line traffic. Every
    /// term is monotone in a componentwise-larger profit, so an enclosing
    /// region never scores below any region nested inside it.
    pub fn score(&self, dram_bytes_per_cycle: u32) -> u64 {
        self.cycles
            + self.critical_cycles
            + self.dma_cycles
            + self.dram_bytes / dram_bytes_per_cycle.max(1) as u64
    }
}

/// Price `kernel` under `t`, taking loop timing from `source`. `scalars`
/// are the launch values indexed like kernel arguments (buffer slots hold
/// a placeholder; an empty slice leaves every `Arg` opaque). `image`, the
/// launch-time contents of every buffer argument, lets loads from
/// device-read-only (`map(to)`) buffers resolve — so loop bounds that come
/// from memory (CSR row pointers) price statically.
///
/// `None` when `t` fails [`Timing::validate`] or a loop bound cannot be
/// resolved statically (bounds must be constants, launch scalars, image
/// loads, or affine in thread id / num_threads / enclosing induction
/// variables).
///
/// Span model: thread t starts at t·launch_interval and runs its busy
/// cycles; the run ends when the last thread finishes. Cross-thread memory
/// contention is *system* time — the shared banks are busy serving
/// everyone from the first thread onward — so the launch ramp hides under
/// it rather than stacking on top: the span is the later of (ramp +
/// contention-free busy) and the fully contended busy measured from host
/// start.
pub fn estimate(
    kernel: &Kernel,
    source: LoopSource<'_>,
    t: &Timing,
    scalars: &[Value],
    image: Option<&[Buffer]>,
) -> Option<PerfModel> {
    walk(kernel, source, t, scalars, image, false).map(|(m, _)| m)
}

/// The compile-free model: [`estimate`] with [`LoopSource::Symbolic`], no
/// launch scalars and no memory image.
pub fn model(k: &Kernel, t: &Timing) -> Option<PerfModel> {
    estimate(k, LoopSource::Symbolic, t, &[], None)
}

/// [`model`] and [`region_profits`] from a single walk of every thread.
pub(crate) fn model_with_regions(
    k: &Kernel,
    t: &Timing,
) -> Option<(PerfModel, HashMap<usize, RegionProfit>)> {
    walk(k, LoopSource::Symbolic, t, &[], None, true)
}

/// Per-region profits under `t`: walk every thread exactly like [`model`]
/// and record the subtree cost of each loop, critical section and DMA
/// burst against the statement's address. `None` when the kernel's loop
/// bounds are not statically resolvable (same condition as [`model`]).
pub fn region_profits(k: &Kernel, t: &Timing) -> Option<HashMap<usize, RegionProfit>> {
    model_with_regions(k, t).map(|(_, r)| r)
}

/// Walk every thread once; with `record`, also sum the subtree cost of
/// each region-forming statement over the threads.
fn walk(
    kernel: &Kernel,
    source: LoopSource<'_>,
    t: &Timing,
    scalars: &[Value],
    image: Option<&[Buffer]>,
    record: bool,
) -> Option<(PerfModel, HashMap<usize, RegionProfit>)> {
    t.validate().ok()?;
    let types = infer_types(kernel).ok()?;
    let loops = LoopTable::build(kernel, &types, source, t);
    let nt = kernel.num_threads.max(1) as usize;
    let mut per_thread = Vec::with_capacity(nt);
    let mut contention = Vec::with_capacity(nt);
    let mut dram_bytes = 0u64;
    let mut critical_cycles = 0u64;
    let mut dma_cycles = 0u64;
    let mut regions: HashMap<usize, RegionProfit> = HashMap::new();
    for tid in 0..nt {
        let mut w = Walker {
            ev: ThreadEval::new(kernel, &types, tid as i64, scalars, image),
            ops: OpCounter::new(kernel, &types),
            t,
            loops: &loops,
            approx: vec![false; kernel.vars.len()],
            recorded: record.then(HashMap::new),
            scale: 1,
        };
        let c = w.block_cost(&kernel.body)?;
        // A thread is done no earlier than its compute chain *and* no
        // earlier than its DMA engine has streamed every burst it issued.
        per_thread.push(c.cycles.max(c.dma_busy));
        contention.push(c.contention);
        dram_bytes += c.dram_bytes;
        critical_cycles += c.critical;
        dma_cycles += c.dma_busy;
        for (key, c) in w.recorded.into_iter().flatten() {
            let e = regions.entry(key).or_default();
            e.cycles += c.cycles;
            e.dram_bytes += c.dram_bytes;
            e.critical_cycles += c.critical;
            e.dma_cycles += c.dma_busy;
        }
    }
    let ramp_span = per_thread
        .iter()
        .zip(&contention)
        .enumerate()
        .map(|(i, (&c, &ctn))| (i as u64 * t.launch_interval + c.saturating_sub(ctn)).max(c))
        .max()
        .unwrap_or(0);
    // Critical sections cannot overlap, and all line traffic must cross
    // the shared channel.
    let memory_floor = dram_bytes / t.dram_bytes_per_cycle as u64;
    let total_cycles = ramp_span.max(critical_cycles).max(memory_floor);
    Some((
        PerfModel {
            per_thread,
            dram_bytes,
            critical_cycles,
            dma_cycles,
            contention: contention.iter().sum(),
            ramp_span,
            total_cycles,
        },
        regions,
    ))
}

/// Can the loop body be pipelined? The one rule for a loop's mode, which
/// [`crate::accel::compile`] records for the executor: any nested
/// sequential region (inner non-unrolled loop, critical section, barrier,
/// DMA burst) forces sequential execution.
pub fn pipeline_eligible(body: &[Stmt]) -> bool {
    body.iter().all(|s| match s {
        Stmt::For { body, unroll, .. } => *unroll == Unroll::Full && pipeline_eligible(body),
        Stmt::Critical { .. } | Stmt::Barrier | Stmt::Preload { .. } | Stmt::WriteBack { .. } => {
            false
        }
        Stmt::If { then_b, else_b, .. } => pipeline_eligible(then_b) && pipeline_eligible(else_b),
        _ => true,
    })
}

/// Constant evaluation of integer expressions for one hardware thread,
/// under the loop-variable bindings of a static walk: the leaves of
/// [`eval_int`], which evaluates with the tape's semantics.
pub struct ThreadEval<'k> {
    kernel: &'k Kernel,
    /// Static types of `kernel`'s expressions ([`infer_types`]).
    types: &'k [Type],
    scalars: &'k [Value],
    image: Option<&'k [Buffer]>,
    tid: i64,
    /// Bindings of loop induction variables (`VarId.0` → value).
    bindings: Vec<Option<i64>>,
}

impl<'k> ThreadEval<'k> {
    /// An evaluator for thread `tid` of `kernel`, whose expressions have
    /// the static `types`. `scalars` and `image` are the launch values (as
    /// for [`estimate`]); without them `Arg` and external loads stay
    /// opaque.
    pub fn new(
        kernel: &'k Kernel,
        types: &'k [Type],
        tid: i64,
        scalars: &'k [Value],
        image: Option<&'k [Buffer]>,
    ) -> Self {
        ThreadEval {
            kernel,
            types,
            scalars,
            image,
            tid,
            bindings: vec![None; kernel.vars.len()],
        }
    }

    /// Bind `var` to `value`, returning its previous binding.
    pub fn bind(&mut self, var: VarId, value: Option<i64>) -> Option<i64> {
        std::mem::replace(&mut self.bindings[var.0 as usize], value)
    }

    /// `(start, step, trip count)` of a loop; `None` when a bound does not
    /// resolve or the step is zero.
    pub fn loop_range(&self, start: ExprId, end: ExprId, step: ExprId) -> Option<(i64, i64, u64)> {
        let s0 = self.eval_i64(start)?;
        let e0 = self.eval_i64(end)?;
        let st = self.eval_i64(step)?;
        let trip = match st {
            0 => return None,
            st if st > 0 => ((e0 - s0).max(0) as u64).div_ceil(st as u64),
            st => ((s0 - e0).max(0) as u64).div_ceil((-st) as u64),
        };
        Some((s0, st, trip))
    }

    /// Best-effort constant evaluation of an integer expression under the
    /// thread id and the loop-variable bindings.
    pub fn eval_i64(&self, id: ExprId) -> Option<i64> {
        eval_int(self.kernel, self.types, id, &|leaf| match leaf {
            IntLeaf::Var(v) => self.bindings[v.0 as usize],
            IntLeaf::Arg(a) => self.scalars.get(a.0 as usize).map(Value::as_i64),
            IntLeaf::ThreadId => Some(self.tid),
            IntLeaf::Load { buf, index } => {
                // Only with a memory image, and only from device-read-only
                // buffers: `map(to)` contents never change during the run,
                // so the pristine launch image is the load's value on every
                // iteration. Writable buffers stay opaque — the device may
                // have overwritten them by the time the load executes.
                let img = self.image?;
                let ArgKind::Buffer {
                    map: MapDir::To, ..
                } = self.kernel.args[buf.0 as usize].kind
                else {
                    return None;
                };
                let v = img[buf.0 as usize].get(usize::try_from(index).ok()?)?;
                Some(v.as_i64())
            }
        })
    }
}

/// One loop's static facts: what the walker reads about a loop beyond its
/// bounds, the same on every visit.
#[derive(Default)]
struct LoopFacts {
    /// Pipelined `(ii, depth)`, or `None` when the loop runs sequentially.
    pipelined: Option<(u64, u64)>,
    /// A sequential loop's induction variable steers a price
    /// ([`var_steers_cost`]).
    steers: bool,
    /// A sequential loop's body holds a loop whose bounds come from
    /// external memory ([`has_mem_dependent_loop`]).
    mem_bounds: bool,
    /// A pipelined loop's external accesses ([`ext_accesses`]).
    accesses: Vec<ExtAccess>,
}

/// Every loop's [`LoopFacts`], indexed by
/// [`LoopId`](nymble_ir::loops::LoopId): derived once per
/// walk from the [`LoopSource`] and shared by the walkers of all threads.
/// Unrolled loops keep the default entry; they are priced as their body.
struct LoopTable<'k> {
    map: LoopMap<'k>,
    facts: Vec<LoopFacts>,
    /// Price restart contention: only the scheduled source does.
    restart: bool,
}

impl<'k> LoopTable<'k> {
    fn build(kernel: &'k Kernel, types: &[Type], source: LoopSource<'_>, t: &Timing) -> Self {
        let map = LoopMap::build(kernel);
        let facts = map
            .iter()
            .map(|(id, s)| {
                let Stmt::For {
                    var,
                    body,
                    unroll: Unroll::None,
                    ..
                } = s
                else {
                    return LoopFacts::default();
                };
                let pipelined = match source {
                    LoopSource::Scheduled(accel) => accel.pipelined(id),
                    LoopSource::Symbolic => pipeline_eligible(body).then(|| {
                        (
                            deps::recurrence_ii(kernel, types, body),
                            deps::body_depth(kernel, types, body).max(t.assumed_load_latency),
                        )
                    }),
                };
                let sequential = pipelined.is_none();
                LoopFacts {
                    pipelined,
                    steers: sequential && var_steers_cost(kernel, body, *var),
                    mem_bounds: sequential && has_mem_dependent_loop(kernel, body),
                    accesses: if sequential {
                        Vec::new()
                    } else {
                        ext_accesses(kernel, body)
                    },
                }
            })
            .collect();
        LoopTable {
            map,
            facts,
            restart: matches!(source, LoopSource::Scheduled(_)),
        }
    }

    fn facts(&self, s: &Stmt) -> &LoopFacts {
        &self.facts[self.map.id_of(s).0 as usize]
    }
}

/// Per-block static cost summary for one thread.
#[derive(Clone, Copy, Debug, Default)]
struct BlockCost {
    /// Thread-local busy cycles.
    cycles: u64,
    /// DRAM line traffic in bytes attributed to this block.
    dram_bytes: u64,
    /// Cycles spent inside critical sections (included in `cycles` too).
    critical: u64,
    /// Busy cycles of this thread's preloader DMA channel (bursts run on
    /// the engine, overlapped with compute, but serialize per master).
    dma_busy: u64,
    /// Cross-thread memory-contention cycles (included in `cycles` too).
    /// Tracked separately because contention is system time — when every
    /// thread queues on the same banks, the host launch ramp hides under
    /// it instead of stacking on top (see the span model in [`estimate`]).
    contention: u64,
}

impl BlockCost {
    fn add(&mut self, o: BlockCost) {
        self.cycles += o.cycles;
        self.dram_bytes += o.dram_bytes;
        self.critical += o.critical;
        self.dma_busy += o.dma_busy;
        self.contention += o.contention;
    }
    fn scale(&self, n: u64) -> BlockCost {
        BlockCost {
            cycles: self.cycles * n,
            dram_bytes: self.dram_bytes * n,
            critical: self.critical * n,
            dma_busy: self.dma_busy * n,
            contention: self.contention * n,
        }
    }
}

/// Sequential loops at most this long whose induction variable steers a
/// price ([`var_steers_cost`]) are walked iteration by iteration (exact
/// induction values, exact branch resolution) instead of priced as
/// body-at-iteration-0 × trip. Keeps double buffering's parity/boundary
/// guards honest while long loops stay O(1) in their trip count; a short
/// loop whose iterations all cost the same takes the body × trip path,
/// which is exact for it.
const EXACT_SEQ_TRIP: u64 = 16;

/// Ceiling on the image-driven exact walk (per thread): keeps the model
/// O(rows) on irregular kernels while refusing pathological trip counts.
const MAX_EXACT_WALK: u64 = 1 << 16;

/// The cost walk of one thread.
struct Walker<'k> {
    ev: ThreadEval<'k>,
    /// Prices each statement's operations as the tape counts them.
    ops: OpCounter<'k>,
    t: &'k Timing,
    loops: &'k LoopTable<'k>,
    /// Which bindings are first-iteration approximations (the loop's cost
    /// is body-at-iter-0 × trip) rather than exact per-iteration values.
    approx: Vec<bool>,
    /// When `Some`, subtree costs of region-forming statements accumulate
    /// here, keyed by statement address (see [`region_profits`]).
    recorded: Option<HashMap<usize, BlockCost>>,
    /// Iteration multiplier of the enclosing extrapolated/unrolled loops:
    /// blocks walked once but executed `scale` times record scaled costs.
    scale: u64,
}

impl Walker<'_> {
    fn bw(&self) -> u64 {
        self.t.dram_bytes_per_cycle as u64
    }

    fn line(&self) -> u64 {
        self.t.dram_line_bytes as u64
    }

    /// Round trip of one line fetch.
    fn miss(&self) -> u64 {
        self.line().div_ceil(self.bw()) + self.t.dram_latency
    }

    /// Accumulate one region-forming statement's subtree cost (times the
    /// enclosing extrapolation multiplier) when recording is on.
    fn record(&mut self, s: &Stmt, c: BlockCost) {
        let scale = self.scale;
        if let Some(map) = self.recorded.as_mut() {
            map.entry(s as *const Stmt as usize)
                .or_default()
                .add(c.scale(scale));
        }
    }

    /// Walk `block` once on behalf of `n` executions of it.
    fn block_cost_times(&mut self, n: u64, block: &[Stmt]) -> Option<BlockCost> {
        let saved = self.scale;
        self.scale = saved.saturating_mul(n);
        let c = self.block_cost(block);
        self.scale = saved;
        c
    }

    /// Cost of one straight-line block.
    fn block_cost(&mut self, block: &[Stmt]) -> Option<BlockCost> {
        let mut total = BlockCost::default();
        for s in block {
            total.add(self.stmt_cost(s)?);
        }
        Some(total)
    }

    fn stmt_cost(&mut self, s: &Stmt) -> Option<BlockCost> {
        let t = self.t;
        match s {
            Stmt::Assign { .. } | Stmt::StoreLocal { .. } => Some(BlockCost {
                cycles: self.seq_stmt_cycles(s),
                ..Default::default()
            }),
            Stmt::StoreExt { value, .. } => {
                let bytes = self.ev.types[value.0 as usize].size_bytes() as u64;
                Some(BlockCost {
                    cycles: self.seq_stmt_cycles(s),
                    dram_bytes: bytes.max(self.line() / 2),
                    ..Default::default()
                })
            }
            Stmt::Preload { mem, len, .. } | Stmt::WriteBack { mem, len, .. } => {
                let n = self.ev.eval_i64(*len)? as u64;
                let bytes = n * self.ev.kernel.local_mem(*mem).elem.size_bytes() as u64;
                // Thread pays issue cost; the DMA engine streams the burst
                // (setup + channel occupancy per burst, serialized per
                // master).
                let occupancy = bytes.max(1).div_ceil(self.bw());
                let out = BlockCost {
                    cycles: t.burst_issue_cost + t.stmt_base_cost,
                    dram_bytes: bytes,
                    dma_busy: t.dma_setup + occupancy,
                    ..Default::default()
                };
                self.record(s, out);
                Some(out)
            }
            Stmt::Critical { body } => {
                let inner = self.block_cost(body)?;
                let c = t.sem_acquire_latency + inner.cycles + t.sem_release_latency;
                let out = BlockCost {
                    cycles: c,
                    critical: c,
                    ..inner
                };
                self.record(s, out);
                Some(out)
            }
            Stmt::Barrier => Some(BlockCost {
                cycles: t.barrier_latency,
                ..Default::default()
            }),
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                // Resolve the branch when possible; otherwise price the
                // more expensive side (the datapath computes both). A
                // condition that depends on an enclosing loop's induction
                // variable would resolve to its *first-iteration* value
                // only (the static walk binds induction variables to
                // iteration 0), so it is treated as unresolvable — e.g.
                // double buffering's `if (kb < nblocks)` compute guard
                // holds on every iteration but the first.
                let mut out = BlockCost {
                    cycles: self.seq_stmt_cycles(s),
                    ..Default::default()
                };
                let resolved = if self.uses_bound_var(*cond) {
                    None
                } else {
                    self.ev.eval_i64(*cond)
                };
                match resolved {
                    Some(c) => out.add(self.block_cost(if c != 0 { then_b } else { else_b })?),
                    None => {
                        let a = self.block_cost(then_b)?;
                        let b = self.block_cost(else_b)?;
                        out.add(if a.cycles >= b.cycles { a } else { b });
                    }
                }
                Some(out)
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
                unroll,
            } => {
                let (s0, st, trip) = self.ev.loop_range(*start, *end, *step)?;
                // Bind the induction variable to the first iteration's
                // value so inner bounds/strides that depend on it resolve.
                let slot = var.0 as usize;
                let saved = self.ev.bind(*var, Some(s0));
                let saved_approx = std::mem::replace(&mut self.approx[slot], true);
                let out = if *unroll == Unroll::Full {
                    // Inlined into the parent graph: body cost × trip, no
                    // loop control events.
                    self.block_cost_times(trip, body).map(|c| c.scale(trip))
                } else {
                    self.loop_cost(s, trip, (s0, st), body)
                };
                self.ev.bind(*var, saved);
                self.approx[slot] = saved_approx;
                let mut c = out?;
                c.cycles += self.bound_load_cycles(s);
                self.record(s, c);
                Some(c)
            }
        }
    }

    /// Cost of one non-unrolled loop with a statically known trip count.
    /// `(s0, st)` are the induction variable's start value and step.
    fn loop_cost(
        &mut self,
        stmt: &Stmt,
        trip: u64,
        (s0, st): (i64, i64),
        body: &[Stmt],
    ) -> Option<BlockCost> {
        if trip == 0 {
            return Some(BlockCost::default());
        }
        let facts = self.loops.facts(stmt);
        if let Some((ii, depth)) = facts.pipelined {
            // Traffic and roofline: bytes the loop moves per iteration.
            let tr = self.iter_traffic(stmt, &facts.accesses);
            // Effective II: the channel serves all threads; a thread
            // cannot issue iterations faster than its share of the
            // bandwidth sustains its per-iteration line traffic.
            let mem_ii = tr.line_bytes * self.ev.kernel.num_threads as u64 / self.bw();
            // Latency term: the VLO stage waits for the worst response of
            // each iteration, so a read miss stalls the pipeline by the
            // round trip beyond the scheduler's assumed load latency
            // (`iter_stall` in the executor). `lat_iter` is that stall
            // amortized over iterations by each stream's miss frequency.
            let eff_ii = (ii + tr.lat_iter).max(mem_ii);
            let restart = if self.loops.restart {
                self.restart_contention(trip, tr.indep_miss_freq)
            } else {
                0
            };
            return Some(BlockCost {
                cycles: depth + restart + (trip - 1) * eff_ii,
                dram_bytes: tr.line_bytes * trip,
                contention: restart,
                ..Default::default()
            });
        }
        // Sequential region: per-iteration body cost + loop control.
        // Memory-dependent inner bounds (CSR row lengths) vary per
        // iteration, so body-at-iteration-0 × trip would price every row
        // like the first — walk those exactly whenever the image can
        // resolve them.
        let Stmt::For { var, .. } = stmt else {
            unreachable!("loop_cost on non-For")
        };
        let exact = (trip <= EXACT_SEQ_TRIP && facts.steers)
            || (self.ev.image.is_some() && trip <= MAX_EXACT_WALK && facts.mem_bounds);
        if exact {
            // Walk every iteration with its true induction value, so
            // iteration-dependent branches and strides price exactly
            // (double buffering's `kb < nblocks` guard).
            let slot = var.0 as usize;
            let saved_approx = std::mem::replace(&mut self.approx[slot], false);
            let mut total = BlockCost::default();
            for it in 0..trip {
                self.ev.bind(*var, Some(s0 + it as i64 * st));
                let Some(c) = self.block_cost(body) else {
                    self.approx[slot] = saved_approx;
                    return None;
                };
                total.add(c);
                total.cycles += 1; // LoopIter handshake
            }
            self.approx[slot] = saved_approx;
            total.cycles += 1; // LoopExit
            return Some(total);
        }
        let body_c = self.block_cost_times(trip, body)?;
        Some(BlockCost {
            cycles: trip * (body_c.cycles + 1) + 1, // + LoopIter handshakes, LoopExit
            ..body_c.scale(trip)
        })
    }

    /// Restart contention: every time a pipelined loop is re-entered (each
    /// outer sequential iteration — e.g. each CSR row), the T threads
    /// re-synchronize on the sequential region and then blast coincident
    /// pipeline-fill bursts of their *independent* miss streams (gathers,
    /// per-thread strided walks) at the DRAM. Once filled, the steady-state
    /// misses are spread over the effective II and rarely collide, so the
    /// cost is per loop entry, not per iteration. Measured against the
    /// cycle simulator on CSR SpMV the penalty has two regimes, both taking
    /// the quadratic κ·(T·m)²·hold as an upper bound (κ = 4.5; this also
    /// vanishes for GEMM/π, whose independent miss frequency is ≈ 0 — their
    /// streams are shared or line-buffered):
    ///
    /// * **Burst regime** (T ≲ banks/m): collision probability and queue
    ///   depth both scale with burst intensity, so the quadratic itself is
    ///   the cost, clamped by 2× full serialization (each fetch exposing
    ///   its round trip plus the queue ahead of it).
    /// * **Saturated regime** (T ≳ banks/m): the banks never drain between
    ///   rows and the per-fetch delay grows linearly with T; the whole
    ///   sweep's total flattens out. Calibrated: `m·trip·(κ_sat·T·hold −
    ///   miss_stall)` with κ_sat = 9.4, within ±15% of the simulator from
    ///   T = 16 to 256.
    ///
    /// Shared lockstep streams are excluded here; they are priced by the
    /// `shared_miss_streams` term of `iter_traffic`.
    fn restart_contention(&self, trip: u64, indep_miss_freq: f64) -> u64 {
        let nt = self.ev.kernel.num_threads as u64;
        if nt <= 1 || indep_miss_freq <= 0.0 {
            return 0;
        }
        let t = self.t;
        let line_occupancy = self.line().div_ceil(self.bw());
        let hold_per_bank = (line_occupancy + t.dram_bank_busy) as f64 / t.dram_banks as f64;
        let m = indep_miss_freq;
        let burst = nt as f64 * m;
        let quad = 4.5 * burst * burst * hold_per_bank;
        let miss_stall = self.miss().saturating_sub(t.assumed_load_latency) as f64;
        let serial = trip as f64 * m * (miss_stall + burst * hold_per_bank);
        let sat = trip as f64 * m * (9.4 * nt as f64 * hold_per_bank - miss_stall);
        quad.min((2.0 * serial).max(sat)).max(0.0).round() as u64
    }

    /// Per-iteration DRAM traffic of a pipelined loop body. Line traffic
    /// honours the per-(thread, buffer) line buffer: an access stream
    /// whose stride stays inside a line fetches each line once; a stride
    /// of a line or more fetches a full line per access. Read misses also
    /// contribute an amortized latency stall (`lat_iter`): writes are
    /// posted, but a missing load makes the iteration wait the full round
    /// trip minus the assumed load latency already budgeted in the
    /// schedule.
    fn iter_traffic(&mut self, stmt: &Stmt, accesses: &[ExtAccess]) -> IterTraffic {
        let line = self.line();
        let miss_stall = self.miss().saturating_sub(self.t.assumed_load_latency);
        let mut out = IterTraffic::default();
        let Stmt::For {
            var, start, step, ..
        } = stmt
        else {
            return out;
        };
        let (Some(s0), Some(st)) = (self.ev.eval_i64(*start), self.ev.eval_i64(*step)) else {
            return out;
        };
        let k = self.ev.kernel;
        let mut shared_miss_streams = 0u64;
        for a in accesses {
            // Stride analysis: evaluate the index at iteration 0 and 1.
            let saved = self.ev.bind(*var, Some(s0));
            let i0 = self.ev.eval_i64(a.index);
            self.ev.bind(*var, Some(s0 + st));
            let i1 = self.ev.eval_i64(a.index);
            self.ev.bind(*var, saved);
            // A data-dependent index (gather through a loaded value) is
            // priced line-per-access even when the memory image could
            // evaluate it: the first two iterations' difference is not a
            // stride.
            let gather = expr_has_load(k, a.index);
            let stride_bytes = match (i0, i1) {
                (Some(x), Some(y)) if !gather => (y - x).unsigned_abs() * a.bytes as u64,
                // Unresolvable index: assume line-per-access.
                _ => line,
            };
            let lat = if self.t.line_buffers && stride_bytes < line {
                // Sequential-ish: each line is fetched once and reused; a
                // miss (and its stall) happens once per line's worth of
                // iterations.
                out.line_bytes += stride_bytes.max(a.bytes as u64).min(line);
                out.indep_miss_freq += stride_bytes as f64 / line as f64;
                miss_stall * stride_bytes / line
            } else {
                out.line_bytes += line;
                // A gather index is never "shared": the sharing probe
                // re-reads the same stale outer-loop bindings for both
                // thread ids, so a load-dependent index trivially collides
                // with itself even though each thread gathers through its
                // own rows.
                if !a.is_write && !gather && self.shared_across_threads(*var, *start, a.index, i0) {
                    shared_miss_streams += 1;
                } else {
                    out.indep_miss_freq += 1.0;
                }
                miss_stall
            };
            // Within one iteration concurrent misses overlap (the VLO
            // stage waits for the worst response), so streams combine by
            // max.
            if !a.is_write {
                out.lat_iter = out.lat_iter.max(lat);
            }
        }
        // Thread-invariant miss streams (every thread walks the same
        // lines, e.g. a shared B column) put the threads in near-lockstep:
        // each iteration T coincident bursts of `shared_miss_streams` line
        // fetches queue on the one-line-per-occupancy channel, so a burst
        // waits behind the other threads' bursts.
        let nt = k.num_threads as u64;
        if nt > 1 && shared_miss_streams > 0 {
            out.lat_iter += (nt - 1) * shared_miss_streams * line.div_ceil(self.bw());
        }
        out
    }

    /// Would another thread's iteration-0 address be the same? Detects
    /// miss streams shared across threads (every thread reading the same B
    /// column). Heuristic: re-evaluates the loop start and index under a
    /// different thread id; enclosing induction bindings are not
    /// re-derived, so tid-dependence routed through *outer* loop variables
    /// is missed — those streams start on different rows and rarely
    /// collide anyway.
    fn shared_across_threads(
        &mut self,
        var: VarId,
        start: ExprId,
        index: ExprId,
        i0: Option<i64>,
    ) -> bool {
        let Some(i0) = i0 else { return false };
        let tid = self.ev.tid;
        self.ev.tid = (tid + 1) % self.ev.kernel.num_threads as i64;
        let saved = self.ev.bindings[var.0 as usize];
        let alt = self.ev.eval_i64(start).and_then(|s| {
            self.ev.bind(var, Some(s));
            self.ev.eval_i64(index)
        });
        self.ev.bind(var, saved);
        self.ev.tid = tid;
        alt == Some(i0)
    }

    /// Sequential-region cycles of one statement, from the tape's op
    /// counts ([`OpCounter`]) as the executor prices its `StepEvent::Ops`:
    /// base cost + (integer, float and local-load operations) / issue
    /// width. External loads in sequential code wait the full DRAM round
    /// trip; the model assumes they miss, which holds for the dominant
    /// pattern (read-modify-write in critical sections invalidates the
    /// port line buffer).
    fn seq_stmt_cycles(&mut self, s: &Stmt) -> u64 {
        let ops = self.ops.stmt(s);
        let work = ops.int_ops + ops.flops + ops.local_loads;
        let width = self.t.seq_issue_width as u64;
        self.t.stmt_base_cost + work.div_ceil(width) + ops.ext_loads * self.miss()
    }

    /// Cycles to evaluate a loop's bound expressions when they load from
    /// external memory (the CSR `row_ptr[r]..row_ptr[r+1]` pattern). Zero
    /// for the common affine-bound loops. With line buffers on, adjacent
    /// pointers into the same buffer share a fetched line, so each distinct
    /// buffer pays one round trip per evaluation; without them every load
    /// pays its own.
    fn bound_load_cycles(&mut self, s: &Stmt) -> u64 {
        let k = self.ev.kernel;
        let loads = self.ops.stmt(s).ext_loads;
        if loads == 0 {
            return 0;
        }
        if !self.t.line_buffers {
            return loads * self.miss();
        }
        fn collect_bufs(kernel: &Kernel, id: ExprId, out: &mut Vec<u32>) {
            let e = kernel.expr(id);
            if let Expr::LoadExt { buf, .. } = e {
                if !out.contains(&buf.0) {
                    out.push(buf.0);
                }
            }
            for c in e.children() {
                collect_bufs(kernel, c, out);
            }
        }
        let mut bufs = Vec::new();
        for e in s.operands() {
            collect_bufs(k, e, &mut bufs);
        }
        bufs.len() as u64 * self.miss()
    }

    /// Does the expression reference a loop induction variable whose
    /// binding is a first-iteration *approximation*? (Exactly-walked short
    /// loops bind true per-iteration values, which are safe to resolve
    /// against.)
    fn uses_bound_var(&self, id: ExprId) -> bool {
        match self.ev.kernel.expr(id) {
            Expr::Var(v) => self.ev.bindings[v.0 as usize].is_some() && self.approx[v.0 as usize],
            e => e.children().any(|c| self.uses_bound_var(c)),
        }
    }
}

/// Per-iteration DRAM behaviour of a pipelined loop body.
#[derive(Clone, Copy, Debug, Default)]
struct IterTraffic {
    /// DRAM line traffic in bytes per iteration (amortized).
    line_bytes: u64,
    /// Amortized pipeline stall cycles per iteration from read-miss
    /// latency (beyond the scheduler's assumed load latency).
    lat_iter: u64,
    /// Expected line fetches per iteration from *thread-independent*
    /// streams (gathers, per-thread strided walks): a line-per-access
    /// stream contributes 1, a sequential stream its per-line miss
    /// frequency. Shared (lockstep) streams are excluded — they are priced
    /// by the coincident-burst term instead.
    indep_miss_freq: f64,
}

/// Does the expression read external memory anywhere? Such values are
/// data-dependent: the image can evaluate them at one iteration, but the
/// result carries no structure (a gather index's "stride" between the
/// first two iterations says nothing about the rest).
fn expr_has_load(kernel: &Kernel, id: ExprId) -> bool {
    let e = kernel.expr(id);
    matches!(e, Expr::LoadExt { .. }) || e.children().any(|c| expr_has_load(kernel, c))
}

/// Does any loop (at any nesting depth) in `block` draw its bounds from
/// external memory? Those trips vary per enclosing iteration.
fn has_mem_dependent_loop(kernel: &Kernel, block: &[Stmt]) -> bool {
    block.iter().any(|s| match s {
        Stmt::For {
            start,
            end,
            step,
            body,
            ..
        } => {
            expr_has_load(kernel, *start)
                || expr_has_load(kernel, *end)
                || expr_has_load(kernel, *step)
                || has_mem_dependent_loop(kernel, body)
        }
        Stmt::If { then_b, else_b, .. } => {
            has_mem_dependent_loop(kernel, then_b) || has_mem_dependent_loop(kernel, else_b)
        }
        Stmt::Critical { body } => has_mem_dependent_loop(kernel, body),
        _ => false,
    })
}

/// One external access found by [`ext_accesses`].
#[derive(Clone, Copy, Debug)]
pub struct ExtAccess {
    /// Buffer argument accessed.
    pub buf: ArgId,
    /// Index expression of the access (for stride analysis).
    pub index: ExprId,
    /// Payload bytes per access.
    pub bytes: u32,
    /// Posted store (no response latency) vs. load.
    pub is_write: bool,
}

/// All external accesses (loads and stores) directly inside a loop body,
/// in statement order, excluding nested non-unrolled loops (they cost
/// themselves).
pub fn ext_accesses(kernel: &Kernel, body: &[Stmt]) -> Vec<ExtAccess> {
    fn walk_expr(kernel: &Kernel, id: ExprId, out: &mut Vec<ExtAccess>) {
        match kernel.expr(id) {
            Expr::LoadExt { buf, index, ty } => {
                out.push(ExtAccess {
                    buf: *buf,
                    index: *index,
                    bytes: ty.size_bytes(),
                    is_write: false,
                });
                walk_expr(kernel, *index, out);
            }
            e => {
                for c in e.children() {
                    walk_expr(kernel, c, out);
                }
            }
        }
    }
    fn walk_block(kernel: &Kernel, block: &[Stmt], out: &mut Vec<ExtAccess>) {
        for s in block {
            match s {
                Stmt::Assign { expr, .. } => walk_expr(kernel, *expr, out),
                Stmt::StoreExt { buf, index, value } => {
                    out.push(ExtAccess {
                        buf: *buf,
                        index: *index,
                        bytes: kernel.buffer_elem_size(*buf),
                        is_write: true,
                    });
                    walk_expr(kernel, *index, out);
                    walk_expr(kernel, *value, out);
                }
                Stmt::StoreLocal { index, value, .. } => {
                    walk_expr(kernel, *index, out);
                    walk_expr(kernel, *value, out);
                }
                Stmt::If { then_b, else_b, .. } => {
                    walk_block(kernel, then_b, out);
                    walk_block(kernel, else_b, out);
                }
                Stmt::For { body, unroll, .. } if *unroll == Unroll::Full => {
                    walk_block(kernel, body, out);
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk_block(kernel, body, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    #[test]
    fn model_prices_a_simple_pipelined_reduction() {
        let mut kb = KernelBuilder::new("red", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let acc = kb.var("acc", Type::F32);
        let n = kb.c_i64(100);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(acc, s);
        });
        let k = kb.finish();
        let p = Timing {
            launch_interval: 200,
            ..Timing::default()
        };
        let m = model(&k, &p).expect("resolvable");
        assert_eq!(m.per_thread.len(), 1);
        // 100 sequential f32 loads: at least 4 bytes of line traffic each.
        assert!(m.dram_bytes >= 400, "dram {}", m.dram_bytes);
        // II ≥ FAdd latency → at least (trip−1)·4 cycles.
        assert!(m.per_thread[0] >= 99 * 4, "busy {}", m.per_thread[0]);
    }

    #[test]
    fn unresolvable_scalar_bound_returns_none() {
        let mut kb = KernelBuilder::new("dyn", 1);
        let n = kb.scalar_arg("N", ScalarType::I64);
        let bound = kb.arg(n);
        kb.for_range("i", bound, |_, _| {});
        let k = kb.finish();
        assert!(model(&k, &Timing::default()).is_none());
    }

    #[test]
    fn region_profits_nest_monotonically() {
        // outer sequential loop { inner pipelined loop; critical }: the
        // outer region's profit must dominate both nested regions'.
        let mut kb = KernelBuilder::new("nest", 2);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
        let acc = kb.var("acc", Type::F32);
        let rows = kb.c_i64(8);
        let cols = kb.c_i64(64);
        kb.for_range("i", rows, |kb, _i| {
            kb.for_range("j", cols, |kb, j| {
                let v = kb.load(a, j, Type::F32);
                let cur = kb.get(acc);
                let s = kb.add(cur, v);
                kb.set(acc, s);
            });
            kb.critical(|kb| {
                let zero = kb.c_i64(0);
                let cur = kb.load(c, zero, Type::F32);
                let mine = kb.get(acc);
                let s = kb.add(cur, mine);
                kb.store(c, zero, s);
            });
        });
        let k = kb.finish();
        let p = Timing::default();
        let profits = region_profits(&k, &p).expect("resolvable");
        let outer = &k.body[0];
        let Stmt::For { body, .. } = outer else {
            panic!("outer loop expected");
        };
        let inner = &body[0];
        let crit = &body[1];
        assert!(matches!(inner, Stmt::For { .. }));
        assert!(matches!(crit, Stmt::Critical { .. }));
        let key = |s: &Stmt| s as *const Stmt as usize;
        let po = profits[&key(outer)];
        let pi = profits[&key(inner)];
        let pc = profits[&key(crit)];
        assert!(po.cycles >= pi.cycles + pc.cycles, "{po:?} {pi:?} {pc:?}");
        assert!(po.dram_bytes >= pi.dram_bytes);
        assert_eq!(po.critical_cycles, pc.critical_cycles);
        assert!(pc.critical_cycles > 0, "critical section serializes");
        let bw = p.dram_bytes_per_cycle;
        assert!(po.score(bw) >= pi.score(bw).max(pc.score(bw)));
        // Profits are summed over both threads: the model's single-thread
        // walk of the same loop must not exceed the two-thread total.
        assert!(po.cycles > pi.cycles, "outer adds critical + handshakes");
    }

    #[test]
    fn region_profits_none_when_unresolvable() {
        let mut kb = KernelBuilder::new("dyn", 1);
        let n = kb.scalar_arg("N", ScalarType::I64);
        let bound = kb.arg(n);
        kb.for_range("i", bound, |_, _| {});
        let k = kb.finish();
        assert!(region_profits(&k, &Timing::default()).is_none());
    }

    #[test]
    fn extrapolated_loop_scales_inner_region_profit() {
        // A long (trip > EXACT_SEQ_TRIP) sequential outer loop is walked
        // once and extrapolated; the critical inside must still be priced
        // per full execution count (trip × per-entry cost).
        let mut kb = KernelBuilder::new("extr", 1);
        let c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
        let n = kb.c_i64(100);
        kb.for_range("i", n, |kb, i| {
            kb.critical(|kb| {
                let cur = kb.load(c, i, Type::F32);
                kb.store(c, i, cur);
            });
        });
        let k = kb.finish();
        let p = Timing::default();
        let profits = region_profits(&k, &p).expect("resolvable");
        let outer = &k.body[0];
        let Stmt::For { body, .. } = outer else {
            panic!("outer loop expected");
        };
        let crit = &body[0];
        let pc = profits[&(crit as *const Stmt as usize)];
        let per_entry = p.sem_acquire_latency + p.sem_release_latency;
        assert!(
            pc.critical_cycles >= 100 * per_entry,
            "expected ≥ trip × per-entry serialization, got {pc:?}"
        );
    }

    #[test]
    fn a_shared_node_is_priced_once_per_statement() {
        // `h[f(x[i])] = h[f(x[i])] + 1` with one `f(x[i])` node: the store
        // statement loads `x[i]` once and `h[..]` once, as the tape does.
        let mut kb = KernelBuilder::new("hist", 1);
        let x = kb.buffer("X", ScalarType::I32, MapDir::To);
        let h = kb.buffer("H", ScalarType::I32, MapDir::ToFrom);
        let n = kb.c_i64(100);
        kb.for_range("i", n, |kb, i| {
            kb.critical(|kb| {
                let xi = kb.load(x, i, Type::I32);
                let mask = kb.c_i32(15);
                let bin = kb.bin(nymble_ir::BinOp::And, xi, mask);
                let cur = kb.load(h, bin, Type::I32);
                let one = kb.c_i32(1);
                let next = kb.add(cur, one);
                kb.store(h, bin, next);
            });
        });
        let k = kb.finish();
        let t = Timing::default();
        let m = model(&k, &t).expect("resolvable");
        // Two integer ops (`&`, `+`) issue in one cycle; two loads miss.
        let miss = t.dram_line_bytes.div_ceil(t.dram_bytes_per_cycle) as u64 + t.dram_latency;
        let store = t.stmt_base_cost + 1 + 2 * miss;
        let per_entry = t.sem_acquire_latency + store + t.sem_release_latency;
        assert_eq!(m.critical_cycles, 100 * per_entry);
    }
}
