//! Analytical fast mode: a memory-bound roofline-style performance model.
//!
//! Estimates a kernel's total cycles without simulating it, in the spirit of
//! the analytical model for memory-bound HLS kernels of Dávila-Guzmán et al.
//! (see PAPERS.md): per-thread loop costs from the compiled schedules
//! (`depth + (n-1)·II`), a bandwidth roofline that widens the effective
//! initiation interval when the aggregate request stream exceeds the DRAM
//! channel, critical-section serialization across threads, and the host's
//! thread-launch ramp.
//!
//! Sequential loops are priced as body × trip unless their iterations can
//! cost differently. A loop of at most `EXACT_SEQ_TRIP` (16) iterations is
//! walked iteration by iteration when its induction variable steers a
//! price: an inner loop's bounds, an `If` condition, a DMA burst's length
//! or offset, or an external-access index
//! ([`nymble_ir::loops::var_steers_cost`], the predicate
//! `nymble_lint::perf` calls too). Loops whose inner bounds come from
//! memory are walked exactly up to `MAX_EXACT_WALK` iterations. Every cost
//! component is an integer sum, so body × trip is exact for the rest, and
//! only the loops that steer multiply the walk.
//!
//! The model is cross-validated against the cycle-level simulator on the
//! GEMM/π reproduction suite (see `crates/bench/tests/analytic_validation.rs`)
//! and is intended for sweep pre-screening: configurations worth a real
//! simulation are found in microseconds instead of minutes.

use crate::config::SimConfig;
use crate::memimg::MemImage;
use nymble_hls::accel::Accelerator;
use nymble_hls::op::OpClass;
use nymble_ir::expr::Expr;
use nymble_ir::kernel::{ArgKind, Kernel};
use nymble_ir::loops::{var_steers_cost, LoopId, LoopMap};
use nymble_ir::stmt::{Stmt, Unroll};
use nymble_ir::{ExprId, MapDir, Value};

/// What the model predicts limits the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// The datapath issue rate (pipeline II / sequential issue width).
    Compute,
    /// The shared DRAM channel bandwidth.
    Memory,
    /// Critical-section serialization on the hardware semaphore.
    Serialization,
    /// The host's software thread-launch interval.
    LaunchRamp,
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Compute => write!(f, "compute"),
            Bound::Memory => write!(f, "memory"),
            Bound::Serialization => write!(f, "serialization"),
            Bound::LaunchRamp => write!(f, "launch-ramp"),
        }
    }
}

/// The analytical model's prediction for one run.
#[derive(Clone, Debug)]
pub struct AnalyticReport {
    /// Predicted total cycles from host start to last thread completion.
    pub total_cycles: u64,
    /// Predicted busy cycles per thread (excluding launch offset).
    pub per_thread: Vec<u64>,
    /// The dominant limiter.
    pub bound: Bound,
    /// Predicted DRAM bytes moved (line traffic, both directions).
    pub dram_bytes: u64,
    /// Total critical-section cycles across threads (serialized resource).
    pub critical_cycles: u64,
}

/// Scalar launch values, indexed like kernel arguments (buffer slots hold a
/// placeholder). The same shape [`nymble_ir::walker::Walker::new`] takes.
pub type ScalarArgs = [Value];

struct Ctx<'k> {
    kernel: &'k Kernel,
    accel: &'k Accelerator,
    cfg: &'k SimConfig,
    loops: &'k LoopMap,
    scalars: &'k ScalarArgs,
    /// Pristine launch-time memory image for resolving loads from
    /// device-read-only (`map(to)`) buffers — lets memory-dependent loop
    /// bounds (CSR row pointers) price statically. `None` = loads are
    /// opaque.
    mem: Option<&'k MemImage>,
    tid: i64,
    /// Bindings of loop induction variables during the static walk
    /// (`VarId.0` → value), for bound/stride evaluation.
    bindings: Vec<Option<i64>>,
    /// Which bindings are first-iteration approximations (the loop's cost
    /// is body-at-iter-0 × trip) rather than exact per-iteration values.
    approx: Vec<bool>,
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
    /// it instead of stacking on top (see the span model in
    /// [`estimate_impl`]).
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

/// Estimate the run analytically. Returns `None` when the kernel's loop
/// bounds cannot be resolved statically (bounds must be constants, scalar
/// launch arguments, or affine in thread id / num_threads / enclosing
/// induction variables).
pub fn estimate(
    kernel: &Kernel,
    accel: &Accelerator,
    cfg: &SimConfig,
    scalars: &ScalarArgs,
) -> Option<AnalyticReport> {
    estimate_impl(kernel, accel, cfg, scalars, None)
}

/// [`estimate`] with a launch-time memory image: loads from device-read-only
/// (`map(to)`) buffers resolve against the pristine image, so kernels whose
/// loop bounds come from memory — CSR SpMV's `row_ptr[r]..row_ptr[r+1]`
/// inner loop — price statically too. Loops with memory-dependent inner
/// bounds are walked iteration by iteration (each row priced with its true
/// non-zero count) instead of body-at-iteration-0 × trip.
pub fn estimate_with_image(
    kernel: &Kernel,
    accel: &Accelerator,
    cfg: &SimConfig,
    scalars: &ScalarArgs,
    mem: &MemImage,
) -> Option<AnalyticReport> {
    estimate_impl(kernel, accel, cfg, scalars, Some(mem))
}

fn estimate_impl(
    kernel: &Kernel,
    accel: &Accelerator,
    cfg: &SimConfig,
    scalars: &ScalarArgs,
    mem: Option<&MemImage>,
) -> Option<AnalyticReport> {
    let loops = LoopMap::build(kernel);
    let n = kernel.num_threads as usize;
    let mut per_thread = Vec::with_capacity(n);
    let mut contention = Vec::with_capacity(n);
    let mut dram_bytes = 0u64;
    let mut critical_cycles = 0u64;
    for t in 0..n {
        let mut ctx = Ctx {
            kernel,
            accel,
            cfg,
            loops: &loops,
            scalars,
            mem,
            tid: t as i64,
            bindings: vec![None; kernel.vars.len()],
            approx: vec![false; kernel.vars.len()],
        };
        let c = block_cost(&mut ctx, &kernel.body)?;
        // A thread is done no earlier than its compute chain *and* no
        // earlier than its DMA engine has streamed every burst it issued.
        per_thread.push(c.cycles.max(c.dma_busy));
        contention.push(c.contention);
        dram_bytes += c.dram_bytes;
        critical_cycles += c.critical;
    }

    // Span model: thread t starts at t·launch_interval and runs its busy
    // cycles; the run ends when the last thread finishes. Cross-thread
    // memory contention is *system* time — the shared banks are busy
    // serving everyone from the first thread onward — so the launch ramp
    // hides under it rather than stacking on top: the span is the later
    // of (ramp + contention-free busy) and the fully contended busy
    // measured from host start.
    let ramp_span = per_thread
        .iter()
        .zip(&contention)
        .enumerate()
        .map(|(t, (&c, &ctn))| (t as u64 * cfg.launch_interval + c.saturating_sub(ctn)).max(c))
        .max()
        .unwrap_or(0);

    // Serialization floor: critical sections cannot overlap, so the run is
    // at least first-start + total critical time.
    let serial_floor = critical_cycles;

    // Memory floor: all line traffic must cross the shared channel.
    let memory_floor = dram_bytes / cfg.dram_bytes_per_cycle.max(1) as u64;

    let total = ramp_span.max(serial_floor).max(memory_floor);
    let max_busy = per_thread.iter().copied().max().unwrap_or(0);
    let bound = if total == ramp_span {
        if (kernel.num_threads as u64 - 1) * cfg.launch_interval > max_busy {
            Bound::LaunchRamp
        } else if memory_floor * 10 >= total * 7 {
            Bound::Memory
        } else {
            Bound::Compute
        }
    } else if total == serial_floor {
        Bound::Serialization
    } else {
        Bound::Memory
    };

    Some(AnalyticReport {
        total_cycles: total,
        per_thread,
        bound,
        dram_bytes,
        critical_cycles,
    })
}

/// Cost of one straight-line block for the context thread.
fn block_cost(ctx: &mut Ctx<'_>, block: &[Stmt]) -> Option<BlockCost> {
    let mut total = BlockCost::default();
    for s in block {
        total.add(stmt_cost(ctx, s)?);
    }
    Some(total)
}

fn stmt_cost(ctx: &mut Ctx<'_>, s: &Stmt) -> Option<BlockCost> {
    let cfg = ctx.cfg;
    match s {
        Stmt::Assign { .. } | Stmt::StoreLocal { .. } => Some(BlockCost {
            cycles: seq_stmt_cycles(ctx, s),
            ..Default::default()
        }),
        Stmt::StoreExt { value, .. } => {
            let bytes = expr_bytes(ctx, *value) as u64;
            Some(BlockCost {
                cycles: seq_stmt_cycles(ctx, s),
                dram_bytes: bytes.max(cfg.dram_line_bytes as u64 / 2),
                ..Default::default()
            })
        }
        Stmt::Preload { len, .. } | Stmt::WriteBack { len, .. } => {
            let n = eval_i64(ctx, *len)? as u64;
            let elem = match s {
                Stmt::Preload { mem, .. } | Stmt::WriteBack { mem, .. } => {
                    ctx.kernel.local_mem(*mem).elem.size_bytes() as u64
                }
                _ => unreachable!(),
            };
            let bytes = n * elem;
            // Thread pays issue cost; the DMA engine streams the burst
            // (setup + channel occupancy per burst, serialized per master).
            let occupancy = (bytes.max(1)).div_ceil(cfg.dram_bytes_per_cycle as u64);
            Some(BlockCost {
                cycles: cfg.burst_issue_cost + cfg.stmt_base_cost,
                dram_bytes: bytes,
                dma_busy: cfg.dma_setup + occupancy,
                ..Default::default()
            })
        }
        Stmt::Critical { body } => {
            let inner = block_cost(ctx, body)?;
            let c = cfg.sem_acquire_latency + inner.cycles + cfg.sem_release_latency;
            Some(BlockCost {
                cycles: c,
                dram_bytes: inner.dram_bytes,
                critical: c,
                dma_busy: inner.dma_busy,
                contention: inner.contention,
            })
        }
        Stmt::Barrier => Some(BlockCost {
            cycles: cfg.barrier_latency,
            ..Default::default()
        }),
        Stmt::If {
            cond,
            then_b,
            else_b,
        } => {
            // Resolve the branch when possible; otherwise price the more
            // expensive side (the datapath computes both). A condition that
            // depends on an enclosing loop's induction variable would
            // resolve to its *first-iteration* value only (the static walk
            // binds induction variables to iteration 0), so it is treated
            // as unresolvable — e.g. double buffering's `if (kb < nblocks)`
            // compute guard holds on every iteration but the first.
            let base = BlockCost {
                cycles: seq_stmt_cycles(ctx, s),
                ..Default::default()
            };
            let mut out = base;
            let resolved = if uses_bound_var(ctx, *cond) {
                None
            } else {
                eval_i64(ctx, *cond)
            };
            match resolved {
                Some(c) => out.add(block_cost(ctx, if c != 0 { then_b } else { else_b })?),
                None => {
                    let a = block_cost(ctx, then_b)?;
                    let b = block_cost(ctx, else_b)?;
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
            let s0 = eval_i64(ctx, *start)?;
            let e0 = eval_i64(ctx, *end)?;
            let st = eval_i64(ctx, *step)?;
            if st == 0 {
                return None;
            }
            let trip = if st > 0 {
                ((e0 - s0).max(0) as u64).div_ceil(st as u64)
            } else {
                ((s0 - e0).max(0) as u64).div_ceil((-st) as u64)
            };
            // Bind the induction variable to the first iteration's value so
            // inner bounds/strides that depend on it resolve.
            let slot = var.0 as usize;
            let saved = ctx.bindings[slot];
            let saved_approx = ctx.approx[slot];
            ctx.bindings[slot] = Some(s0);
            ctx.approx[slot] = true;

            let out = if *unroll == Unroll::Full {
                // Inlined into the parent graph: body cost × trip, no loop
                // control events.
                let body_c = block_cost(ctx, body)?;
                Some(body_c.scale(trip))
            } else {
                let id = ctx.loops.id_of(s);
                loop_cost(ctx, s, id, trip, (s0, st), body)
            };
            ctx.bindings[slot] = saved;
            ctx.approx[slot] = saved_approx;
            out.map(|mut c| {
                c.cycles += bound_load_cycles(ctx, s);
                c
            })
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

/// Does the expression read external memory anywhere? Such values are
/// data-dependent: the image can evaluate them at one iteration, but the
/// result carries no structure (a gather index's "stride" between the
/// first two iterations says nothing about the rest).
fn expr_has_load(kernel: &Kernel, id: ExprId) -> bool {
    let e = kernel.expr(id);
    matches!(e, Expr::LoadExt { .. }) || e.children().into_iter().any(|c| expr_has_load(kernel, c))
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

/// Cost of one non-unrolled loop with a statically known trip count.
/// `(s0, st)` are the induction variable's start value and step.
fn loop_cost(
    ctx: &mut Ctx<'_>,
    stmt: &Stmt,
    id: LoopId,
    trip: u64,
    (s0, st): (i64, i64),
    body: &[Stmt],
) -> Option<BlockCost> {
    let cfg = ctx.cfg;
    if trip == 0 {
        return Some(BlockCost::default());
    }
    let pipelined = pipelined_schedule(ctx.accel, id);
    match pipelined {
        Some((ii, depth)) => {
            // Traffic and roofline: bytes the loop moves per iteration.
            let tr = iter_traffic(ctx, stmt, body);
            // Effective II: the channel serves all threads; a thread cannot
            // issue iterations faster than its share of the bandwidth
            // sustains its per-iteration line traffic.
            let bw = cfg.dram_bytes_per_cycle.max(1) as u64;
            let mem_ii = tr.line_bytes * ctx.kernel.num_threads as u64 / bw;
            // Latency term: the VLO stage waits for the worst response of
            // each iteration, so a read miss stalls the pipeline by the
            // round trip beyond the scheduler's assumed load latency
            // (`iter_stall` in the executor). `lat_iter` is that stall
            // amortized over iterations by each stream's miss frequency.
            let eff_ii = (ii + tr.lat_iter).max(mem_ii);
            // Restart contention: every time this loop is re-entered (each
            // outer sequential iteration — e.g. each CSR row), the T
            // threads re-synchronize on the sequential region and then
            // blast coincident pipeline-fill bursts of their *independent*
            // miss streams (gathers, per-thread strided walks) at the
            // DRAM. Once filled, the steady-state misses are spread over
            // `eff_ii` and rarely collide, so the cost is per loop entry,
            // not per iteration. Measured against the cycle simulator on
            // CSR SpMV the penalty has two regimes, both taking the
            // quadratic κ·(T·m)²·hold as an upper bound (κ = 4.5; this
            // also vanishes for GEMM/π, whose independent miss frequency
            // is ≈ 0 — their streams are shared or line-buffered):
            //
            // * **Burst regime** (T ≲ banks/m): collision probability and
            //   queue depth both scale with burst intensity, so the
            //   quadratic itself is the cost, clamped by 2× full
            //   serialization (each fetch exposing its round trip plus
            //   the queue ahead of it).
            // * **Saturated regime** (T ≳ banks/m): the banks never
            //   drain between rows and the per-fetch delay grows linearly
            //   with T; the whole sweep's total flattens out. Calibrated:
            //   `m·trip·(κ_sat·T·hold − miss_stall)` with κ_sat = 9.4,
            //   within ±15% of the simulator from T = 16 to 256.
            //
            // Shared lockstep streams are excluded here; they are priced
            // by the `shared_miss_streams` term in `iter_traffic`.
            let nt = ctx.kernel.num_threads as u64;
            let restart = if nt > 1 && tr.indep_miss_freq > 0.0 {
                let line = cfg.dram_line_bytes as u64;
                let hold_per_bank =
                    (line.div_ceil(bw) + cfg.dram_bank_busy) as f64 / cfg.dram_banks.max(1) as f64;
                let m = tr.indep_miss_freq;
                let burst = nt as f64 * m;
                let quad = 4.5 * burst * burst * hold_per_bank;
                let miss_stall = (line.div_ceil(bw) + cfg.dram_latency)
                    .saturating_sub(cfg.assumed_load_latency)
                    as f64;
                let serial = trip as f64 * m * (miss_stall + burst * hold_per_bank);
                let sat = trip as f64 * m * (9.4 * nt as f64 * hold_per_bank - miss_stall);
                quad.min((2.0 * serial).max(sat)).max(0.0).round() as u64
            } else {
                0
            };
            let cycles = depth + restart + (trip - 1) * eff_ii;
            Some(BlockCost {
                cycles,
                dram_bytes: tr.line_bytes * trip,
                critical: 0,
                dma_busy: 0,
                contention: restart,
            })
        }
        None => {
            // Sequential region: per-iteration body cost + loop control.
            // Memory-dependent inner bounds (CSR row lengths) vary per
            // iteration, so body-at-iteration-0 × trip would price every
            // row like the first — walk those exactly whenever the image
            // can resolve them.
            let var = match stmt {
                Stmt::For { var, .. } => *var,
                _ => unreachable!("loop_cost on non-For"),
            };
            let exact = (trip <= EXACT_SEQ_TRIP && var_steers_cost(ctx.kernel, body, var))
                || (ctx.mem.is_some()
                    && trip <= MAX_EXACT_WALK
                    && has_mem_dependent_loop(ctx.kernel, body));
            if exact {
                // Walk every iteration with its true induction value, so
                // iteration-dependent branches and strides price exactly
                // (double buffering's `kb < nblocks` guard).
                let slot = var.0 as usize;
                let saved_approx = ctx.approx[slot];
                ctx.approx[slot] = false;
                let mut total = BlockCost::default();
                for it in 0..trip {
                    ctx.bindings[slot] = Some(s0 + it as i64 * st);
                    let Some(c) = block_cost(ctx, body) else {
                        ctx.approx[slot] = saved_approx;
                        return None;
                    };
                    total.add(c);
                    total.cycles += 1; // LoopIter handshake
                }
                ctx.approx[slot] = saved_approx;
                total.cycles += 1; // LoopExit
                return Some(total);
            }
            let body_c = block_cost(ctx, body)?;
            let per_iter = body_c.cycles + 1; // LoopIter handshake
            Some(BlockCost {
                cycles: trip * per_iter + 1, // + LoopExit
                dram_bytes: body_c.dram_bytes * trip,
                critical: body_c.critical * trip,
                dma_busy: body_c.dma_busy * trip,
                contention: body_c.contention * trip,
            })
        }
    }
}

/// Per-iteration DRAM behaviour of a pipelined loop body.
#[derive(Clone, Copy, Debug, Default)]
struct IterTraffic {
    /// DRAM line traffic in bytes per iteration (amortized).
    line_bytes: u64,
    /// Requested payload bytes per iteration.
    req_bytes: u64,
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

/// Per-iteration DRAM traffic of a pipelined loop body. Line traffic
/// honours the per-(thread, buffer) line buffer: an access stream whose
/// stride stays inside a line fetches each line once; a stride of a line
/// or more fetches a full line per access. Read misses also contribute an
/// amortized latency stall (`lat_iter`): writes are posted, but a missing
/// load makes the iteration wait the full round trip minus the assumed
/// load latency already budgeted in the schedule.
fn iter_traffic(ctx: &mut Ctx<'_>, stmt: &Stmt, body: &[Stmt]) -> IterTraffic {
    let line = ctx.cfg.dram_line_bytes as u64;
    let bw = ctx.cfg.dram_bytes_per_cycle.max(1) as u64;
    // Round trip of one line fetch, minus the latency the pipelined
    // schedule already tolerates (mirrors `iter_stall` in the executor).
    let miss_stall =
        (line.div_ceil(bw) + ctx.cfg.dram_latency).saturating_sub(ctx.cfg.assumed_load_latency);
    let mut out = IterTraffic::default();
    let (var, start, step) = match stmt {
        Stmt::For {
            var, start, step, ..
        } => (*var, *start, *step),
        _ => return out,
    };
    let (Some(s0), Some(st)) = (eval_i64(ctx, start), eval_i64(ctx, step)) else {
        return out;
    };
    let mut accesses: Vec<ExtAccess> = Vec::new();
    collect_ext_accesses(ctx.kernel, body, &mut accesses);
    let mut shared_miss_streams = 0u64;
    for a in accesses {
        out.req_bytes += a.bytes as u64;
        // Stride analysis: evaluate the index at iteration 0 and 1.
        let slot = var.0 as usize;
        let saved = ctx.bindings[slot];
        ctx.bindings[slot] = Some(s0);
        let i0 = eval_i64(ctx, a.index);
        ctx.bindings[slot] = Some(s0 + st);
        let i1 = eval_i64(ctx, a.index);
        ctx.bindings[slot] = saved;
        // A data-dependent index (gather through a loaded value) is priced
        // line-per-access even when the memory image could evaluate it: the
        // first two iterations' difference is not a stride.
        let stride_bytes = if expr_has_load(ctx.kernel, a.index) {
            line
        } else {
            match (i0, i1) {
                (Some(x), Some(y)) => (y - x).unsigned_abs() * a.bytes as u64,
                // Unresolvable index: assume line-per-access.
                _ => line,
            }
        };
        let lat = if ctx.cfg.line_buffers && stride_bytes < line {
            // Sequential-ish: each line is fetched once and reused; a miss
            // (and its stall) happens once per line's worth of iterations.
            out.line_bytes += stride_bytes.max(a.bytes as u64).min(line);
            out.indep_miss_freq += stride_bytes as f64 / line as f64;
            miss_stall * stride_bytes / line
        } else {
            out.line_bytes += line;
            // A gather index is never "shared": the sharing probe re-reads
            // the same stale outer-loop bindings for both thread ids, so a
            // load-dependent index trivially collides with itself even
            // though each thread gathers through its own rows.
            if !a.is_write
                && !expr_has_load(ctx.kernel, a.index)
                && shared_across_threads(ctx, var, start, a.index, i0)
            {
                shared_miss_streams += 1;
            } else {
                out.indep_miss_freq += 1.0;
            }
            miss_stall
        };
        // Within one iteration concurrent misses overlap (the VLO stage
        // waits for the worst response), so streams combine by max.
        if !a.is_write {
            out.lat_iter = out.lat_iter.max(lat);
        }
    }
    // Thread-invariant miss streams (every thread walks the same lines,
    // e.g. a shared B column) put the threads in near-lockstep: each
    // iteration T coincident bursts of `shared_miss_streams` line fetches
    // queue on the one-line-per-occupancy channel, so a burst waits behind
    // the other threads' bursts.
    let nt = ctx.kernel.num_threads as u64;
    if nt > 1 && shared_miss_streams > 0 {
        out.lat_iter += (nt - 1) * shared_miss_streams * line.div_ceil(bw);
    }
    out
}

/// Would another thread's iteration-0 address be the same? Detects miss
/// streams shared across threads (every thread reading the same B column).
/// Heuristic: re-evaluates the loop start and index under a different
/// thread id; enclosing induction bindings are not re-derived, so
/// tid-dependence routed through *outer* loop variables is missed — those
/// streams start on different rows and rarely collide anyway.
fn shared_across_threads(
    ctx: &mut Ctx<'_>,
    var: nymble_ir::VarId,
    start: ExprId,
    index: ExprId,
    i0: Option<i64>,
) -> bool {
    let Some(i0) = i0 else { return false };
    let tid_saved = ctx.tid;
    let slot = var.0 as usize;
    let saved = ctx.bindings[slot];
    ctx.tid = (tid_saved + 1) % ctx.kernel.num_threads as i64;
    let alt = eval_i64(ctx, start).and_then(|s| {
        ctx.bindings[slot] = Some(s);
        eval_i64(ctx, index)
    });
    ctx.bindings[slot] = saved;
    ctx.tid = tid_saved;
    alt == Some(i0)
}

/// One external access found by [`collect_ext_accesses`].
#[derive(Clone, Copy, Debug)]
struct ExtAccess {
    /// Index expression of the access (for stride analysis).
    index: ExprId,
    /// Payload bytes per access.
    bytes: u32,
    /// Posted store (no response latency) vs. load.
    is_write: bool,
}

/// All external accesses (loads and stores) directly inside `block`,
/// excluding nested non-unrolled loops (they cost themselves).
fn collect_ext_accesses(kernel: &Kernel, block: &[Stmt], out: &mut Vec<ExtAccess>) {
    fn walk_expr(kernel: &Kernel, id: ExprId, out: &mut Vec<ExtAccess>) {
        match kernel.expr(id) {
            Expr::LoadExt { index, ty, .. } => {
                out.push(ExtAccess {
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
    for s in block {
        match s {
            Stmt::Assign { expr, .. } => walk_expr(kernel, *expr, out),
            Stmt::StoreExt { buf, index, value } => {
                let bytes = kernel.buffer_elem_size(*buf);
                out.push(ExtAccess {
                    index: *index,
                    bytes,
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
                collect_ext_accesses(kernel, then_b, out);
                collect_ext_accesses(kernel, else_b, out);
            }
            Stmt::For { body, unroll, .. } if *unroll == Unroll::Full => {
                collect_ext_accesses(kernel, body, out);
            }
            _ => {}
        }
    }
}

/// Pipelined `(ii, depth)` of a loop, mirroring the executor's
/// `loop_mode` decision.
fn pipelined_schedule(accel: &Accelerator, id: LoopId) -> Option<(u64, u64)> {
    let sched = accel.loop_schedules[id.0 as usize].as_ref()?;
    let dfg = accel.loop_dfgs[id.0 as usize].as_ref()?;
    let has_region = dfg.count(OpClass::InnerLoop) > 0
        || dfg.count(OpClass::CriticalRegion) > 0
        || dfg.count(OpClass::Burst) > 0;
    if has_region {
        None
    } else {
        Some((sched.ii as u64, sched.depth as u64))
    }
}

/// Sequential-region cycles of one statement (mirrors the executor's
/// `StepEvent::Ops` pricing: base cost + work / issue width). External
/// loads in sequential code wait the full DRAM round trip; the model
/// assumes they miss, which holds for the dominant pattern (read-modify-
/// write in critical sections invalidates the port line buffer).
fn seq_stmt_cycles(ctx: &Ctx<'_>, s: &Stmt) -> u64 {
    let work = stmt_op_count(ctx.kernel, s);
    let line = ctx.cfg.dram_line_bytes as u64;
    let bw = ctx.cfg.dram_bytes_per_cycle.max(1) as u64;
    let miss = line.div_ceil(bw) + ctx.cfg.dram_latency;
    let loads = stmt_ext_loads(ctx.kernel, s);
    ctx.cfg.stmt_base_cost + work.div_ceil(ctx.cfg.seq_issue_width as u64) + loads * miss
}

/// Cycles to evaluate a loop's bound expressions when they load from
/// external memory (the CSR `row_ptr[r]..row_ptr[r+1]` pattern). Zero for
/// the common affine-bound loops. With line buffers on, adjacent pointers
/// into the same buffer share a fetched line, so each distinct buffer pays
/// one round trip per evaluation; without them every load pays its own.
fn bound_load_cycles(ctx: &Ctx<'_>, s: &Stmt) -> u64 {
    let loads = stmt_ext_loads(ctx.kernel, s);
    if loads == 0 {
        return 0;
    }
    let line = ctx.cfg.dram_line_bytes as u64;
    let bw = ctx.cfg.dram_bytes_per_cycle.max(1) as u64;
    let miss = line.div_ceil(bw) + ctx.cfg.dram_latency;
    if !ctx.cfg.line_buffers {
        return loads * miss;
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
    if let Stmt::For {
        start, end, step, ..
    } = s
    {
        collect_bufs(ctx.kernel, *start, &mut bufs);
        collect_bufs(ctx.kernel, *end, &mut bufs);
        collect_bufs(ctx.kernel, *step, &mut bufs);
    }
    bufs.len() as u64 * miss
}

/// External loads a statement's directly-evaluated expressions perform.
fn stmt_ext_loads(kernel: &Kernel, s: &Stmt) -> u64 {
    fn expr_loads(kernel: &Kernel, id: ExprId) -> u64 {
        let e = kernel.expr(id);
        let own = matches!(e, Expr::LoadExt { .. }) as u64;
        own + e
            .children()
            .into_iter()
            .map(|c| expr_loads(kernel, c))
            .sum::<u64>()
    }
    match s {
        Stmt::Assign { expr, .. } => expr_loads(kernel, *expr),
        Stmt::StoreExt { index, value, .. } | Stmt::StoreLocal { index, value, .. } => {
            expr_loads(kernel, *index) + expr_loads(kernel, *value)
        }
        Stmt::If { cond, .. } => expr_loads(kernel, *cond),
        Stmt::For {
            start, end, step, ..
        } => expr_loads(kernel, *start) + expr_loads(kernel, *end) + expr_loads(kernel, *step),
        _ => 0,
    }
}

/// Static operation count of the expressions a statement evaluates directly.
fn stmt_op_count(kernel: &Kernel, s: &Stmt) -> u64 {
    fn expr_ops(kernel: &Kernel, id: ExprId) -> u64 {
        let e = kernel.expr(id);
        let own = match e {
            Expr::Unary(..) | Expr::Binary(..) | Expr::Cast(..) | Expr::Select { .. } => 1,
            Expr::LoadLocal { .. } => 1,
            _ => 0,
        };
        own + e
            .children()
            .into_iter()
            .map(|c| expr_ops(kernel, c))
            .sum::<u64>()
    }
    match s {
        Stmt::Assign { expr, .. } => expr_ops(kernel, *expr),
        Stmt::StoreExt { index, value, .. } | Stmt::StoreLocal { index, value, .. } => {
            expr_ops(kernel, *index) + expr_ops(kernel, *value)
        }
        Stmt::If { cond, .. } => expr_ops(kernel, *cond),
        Stmt::For {
            start, end, step, ..
        } => expr_ops(kernel, *start) + expr_ops(kernel, *end) + expr_ops(kernel, *step),
        _ => 0,
    }
}

/// Does the expression reference a loop induction variable whose binding
/// is a first-iteration *approximation*? (Exactly-walked short loops bind
/// true per-iteration values, which are safe to resolve against.)
fn uses_bound_var(ctx: &Ctx<'_>, id: ExprId) -> bool {
    match ctx.kernel.expr(id) {
        Expr::Var(v) => ctx.bindings[v.0 as usize].is_some() && ctx.approx[v.0 as usize],
        e => e.children().into_iter().any(|c| uses_bound_var(ctx, c)),
    }
}

/// Best-effort constant evaluation of an integer expression under the
/// context's thread id and loop-variable bindings.
fn eval_i64(ctx: &Ctx<'_>, id: ExprId) -> Option<i64> {
    match ctx.kernel.expr(id) {
        Expr::Const(v) => Some(v.as_i64()),
        Expr::ThreadId => Some(ctx.tid),
        Expr::NumThreads => Some(ctx.kernel.num_threads as i64),
        Expr::Arg(a) => match ctx.kernel.args[a.0 as usize].kind {
            ArgKind::Scalar(_) => Some(ctx.scalars[a.0 as usize].as_i64()),
            _ => None,
        },
        Expr::Var(v) => ctx.bindings[v.0 as usize],
        Expr::Cast(_, a) => eval_i64(ctx, *a),
        Expr::Unary(op, a) => {
            let av = eval_i64(ctx, *a)?;
            Some(nymble_ir::expr::eval_unop(*op, &Value::I64(av)).as_i64())
        }
        Expr::Binary(op, a, b) => {
            let av = eval_i64(ctx, *a)?;
            let bv = eval_i64(ctx, *b)?;
            if matches!(op, nymble_ir::BinOp::Div | nymble_ir::BinOp::Rem) && bv == 0 {
                return None;
            }
            Some(nymble_ir::expr::eval_binop(*op, &Value::I64(av), &Value::I64(bv)).as_i64())
        }
        Expr::Select {
            cond,
            then_v,
            else_v,
        } => {
            let c = eval_i64(ctx, *cond)?;
            if c != 0 {
                eval_i64(ctx, *then_v)
            } else {
                eval_i64(ctx, *else_v)
            }
        }
        Expr::LoadExt { buf, index, .. } => {
            // Only with a memory image, and only from device-read-only
            // buffers: `map(to)` contents never change during the run, so
            // the pristine launch image is the load's value on every
            // iteration. Writable buffers stay opaque — the device may have
            // overwritten them by the time the load executes.
            let img = ctx.mem?;
            let ArgKind::Buffer {
                map: MapDir::To, ..
            } = ctx.kernel.args[buf.0 as usize].kind
            else {
                return None;
            };
            let idx = eval_i64(ctx, *index)?;
            let v = img.buffer(*buf).get(usize::try_from(idx).ok()?)?;
            Some(v.as_i64())
        }
        _ => None,
    }
}

/// Bytes moved by the value expression of an external store.
fn expr_bytes(ctx: &Ctx<'_>, id: ExprId) -> u32 {
    match ctx.kernel.expr(id) {
        Expr::Const(v) => v.ty().size_bytes(),
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_hls::accel::{compile, HlsConfig};
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    #[test]
    fn simple_pipelined_loop_is_depth_plus_ii() {
        let mut kb = KernelBuilder::new("axpy", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let acc_v = kb.var("acc", Type::F32);
        let n = kb.c_i64(100);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc_v);
            let s = kb.add(cur, v);
            kb.set(acc_v, s);
        });
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default().with_fast_launch();
        let r = estimate(&k, &acc, &cfg, &[Value::I32(0)]).expect("static bounds");
        assert!(r.total_cycles > 0);
        assert_eq!(r.per_thread.len(), 1);
        // 100 sequential f32 loads: well under one line per iteration.
        assert!(r.dram_bytes >= 400, "dram bytes {}", r.dram_bytes);
    }

    #[test]
    fn unresolvable_bounds_return_none() {
        // Loop bound loaded from memory: not statically resolvable.
        let mut kb = KernelBuilder::new("dyn", 1);
        let a = kb.buffer("A", ScalarType::I64, MapDir::To);
        let z = kb.c_i64(0);
        let bound = kb.load(a, z, Type::I64);
        kb.for_range("i", bound, |_, _| {});
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default();
        assert!(estimate(&k, &acc, &cfg, &[Value::I32(0)]).is_none());
    }

    #[test]
    fn launch_ramp_dominates_tiny_kernels() {
        let mut kb = KernelBuilder::new("tiny", 8);
        let x = kb.var("x", Type::I32);
        let c = kb.c_i32(1);
        kb.set(x, c);
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default(); // full 880k launch interval
        let r = estimate(&k, &acc, &cfg, &[]).expect("static");
        assert_eq!(r.bound, Bound::LaunchRamp);
        assert!(r.total_cycles >= 7 * cfg.launch_interval);
    }

    #[test]
    fn critical_only_kernel_is_serialization_bound() {
        let mut kb = KernelBuilder::new("crit", 4);
        let out = kb.buffer("OUT", ScalarType::I32, MapDir::ToFrom);
        let n = kb.c_i64(200);
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
        let cfg = SimConfig::default().with_fast_launch();
        let r = estimate(&k, &acc, &cfg, &[Value::I32(0)]).expect("static");
        assert_eq!(r.bound, Bound::Serialization);
        assert!(r.critical_cycles > 0);
    }
}
