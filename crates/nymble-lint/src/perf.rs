//! Performance diagnostics (`NP0xx`): a static mirror of the analytical
//! performance model in `fpga_sim::analytic`, plus the passes that turn
//! its intermediate quantities into actionable findings.
//!
//! The walker prices the kernel exactly the way the analytical simulator
//! does — per-thread busy cycles, DRAM line traffic, critical-section
//! serialization, launch ramp — but needs no compiled accelerator: the
//! pipelined initiation interval comes from the symbolic recurrence
//! analysis in [`crate::deps`], and loop pipelining eligibility is decided
//! structurally (no nested sequential region in the body). The resulting
//! [`PerfModel`] is what every diagnostic's quantitative prediction is
//! priced against, and what `bench` cross-validates against
//! `fpga_sim::analytic` within 25% on the triggering fixtures.
//!
//! Loops are priced by the same invariance rule as the analytic model; both
//! walkers call the one predicate [`nymble_ir::loops::var_steers_cost`]
//! rather than each keeping a copy. A sequential loop of at most
//! `EXACT_SEQ_TRIP` (16) iterations is walked iteration by iteration only
//! when its induction variable steers a price: an inner loop's bounds, an
//! `If` condition, a DMA burst's length or offset, or an external-access
//! index. Any other loop is its body priced once, times the trip. That is
//! exact, because every cost component is an integer sum and no iteration
//! prices differently. So only the loops that steer multiply the walk: a
//! nest costs the product of its steering short trips, not of all its
//! trips.

use crate::deps;
use crate::diag::{Code, Diagnostic, PredMetric};
use nymble_ir::loops::var_steers_cost;
use nymble_ir::stmt::Unroll;
use nymble_ir::{Expr, ExprId, Kernel, Stmt, Value, VarId};
use std::collections::HashMap;

/// The latency/bandwidth parameters the model prices against. Defaults
/// mirror `fpga_sim::SimConfig::default()`; `hls-profiling` rebuilds one
/// from the actual run's `SimConfig` when confronting predictions with a
/// measured trace.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfParams {
    pub dram_latency: u64,
    pub dram_bytes_per_cycle: u64,
    pub dram_line_bytes: u64,
    pub launch_interval: u64,
    pub sem_acquire_latency: u64,
    pub sem_release_latency: u64,
    pub barrier_latency: u64,
    pub seq_issue_width: u64,
    pub stmt_base_cost: u64,
    pub burst_issue_cost: u64,
    pub assumed_load_latency: u64,
    pub dma_setup: u64,
    pub line_buffers: bool,
}

impl Default for PerfParams {
    fn default() -> Self {
        PerfParams {
            dram_latency: 48,
            dram_bytes_per_cycle: 64,
            dram_line_bytes: 64,
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

impl PerfParams {
    /// The benchmark harness's fast-launch setting
    /// (`SimConfig::with_fast_launch`).
    pub fn with_launch_interval(mut self, v: u64) -> Self {
        self.launch_interval = v;
        self
    }
}

/// The static performance model's summary for one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfModel {
    /// Predicted busy cycles per thread (compute vs DMA max, like
    /// `AnalyticReport::per_thread`).
    pub per_thread: Vec<u64>,
    /// Predicted DRAM line traffic in bytes, all threads.
    pub dram_bytes: u64,
    /// Predicted serialized critical-section cycles, summed over threads.
    pub critical_cycles: u64,
    /// Predicted total cycles (launch ramp vs serialization vs bandwidth
    /// floor, like `AnalyticReport::total_cycles`).
    pub total_cycles: u64,
}

/// Price the kernel under `p`. `None` when loop bounds are not statically
/// resolvable (scalar launch arguments, data-dependent trips).
pub fn model(k: &Kernel, p: &PerfParams) -> Option<PerfModel> {
    walk(k, p, false).map(|(m, _)| m)
}

/// [`model`] and [`region_profits`] from a single walk of every thread.
pub fn model_with_regions(
    k: &Kernel,
    p: &PerfParams,
) -> Option<(PerfModel, HashMap<usize, RegionProfit>)> {
    walk(k, p, true)
}

/// Walk every thread once; with `record`, also sum the subtree cost of
/// each region-forming statement over the threads.
fn walk(
    k: &Kernel,
    p: &PerfParams,
    record: bool,
) -> Option<(PerfModel, HashMap<usize, RegionProfit>)> {
    let nt = k.num_threads.max(1) as usize;
    let mut per_thread = Vec::with_capacity(nt);
    let mut dram_bytes = 0u64;
    let mut critical_cycles = 0u64;
    let mut sums: HashMap<usize, RegionProfit> = HashMap::new();
    for t in 0..nt {
        let mut w = CostWalker::new(k, p, t as i64);
        if record {
            w.recorded = Some(HashMap::new());
        }
        let c = w.block_cost(&k.body)?;
        per_thread.push(c.cycles.max(c.dma_busy));
        dram_bytes += c.dram_bytes;
        critical_cycles += c.critical;
        for (key, c) in w.recorded.take().into_iter().flatten() {
            let e = sums.entry(key).or_default();
            e.cycles += c.cycles;
            e.dram_bytes += c.dram_bytes;
            e.critical_cycles += c.critical;
            e.dma_cycles += c.dma_busy;
        }
    }
    let ramp_span = per_thread
        .iter()
        .enumerate()
        .map(|(t, &c)| t as u64 * p.launch_interval + c)
        .max()
        .unwrap_or(0);
    let memory_floor = dram_bytes / p.dram_bytes_per_cycle.max(1);
    let total_cycles = ramp_span.max(critical_cycles).max(memory_floor);
    Some((
        PerfModel {
            per_thread,
            dram_bytes,
            critical_cycles,
            total_cycles,
        },
        sums,
    ))
}

/// Statically derived instrumentation profit of one region-forming
/// statement (loop nest / critical section / DMA burst), summed over all
/// hardware threads. Keyed by the statement's address — the same idiom as
/// [`nymble_ir::loops::LoopMap`], so the map is only valid for the exact `Kernel`
/// value it was computed from.
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
    pub fn score(&self, dram_bytes_per_cycle: u64) -> u64 {
        self.cycles
            + self.critical_cycles
            + self.dma_cycles
            + self.dram_bytes / dram_bytes_per_cycle.max(1)
    }
}

/// Per-region profits under `p`: walk every thread exactly like [`model`]
/// and record the subtree cost of each loop, critical section and DMA
/// burst against the statement's address. `None` when the kernel's loop
/// bounds are not statically resolvable (same condition as [`model`]).
pub fn region_profits(k: &Kernel, p: &PerfParams) -> Option<HashMap<usize, RegionProfit>> {
    model_with_regions(k, p).map(|(_, r)| r)
}

// ---------------------------------------------------------------------------
// The cost walker (static mirror of `fpga_sim::analytic`).
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
struct Cost {
    cycles: u64,
    dram_bytes: u64,
    critical: u64,
    dma_busy: u64,
}

impl Cost {
    fn add(&mut self, o: Cost) {
        self.cycles += o.cycles;
        self.dram_bytes += o.dram_bytes;
        self.critical += o.critical;
        self.dma_busy += o.dma_busy;
    }
    fn scale(&self, n: u64) -> Cost {
        Cost {
            cycles: self.cycles * n,
            dram_bytes: self.dram_bytes * n,
            critical: self.critical * n,
            dma_busy: self.dma_busy * n,
        }
    }
}

/// Sequential loops at most this long whose induction variable steers a
/// price ([`var_steers_cost`]) are walked iteration by iteration (same
/// rule as the analytical simulator's `EXACT_SEQ_TRIP`).
const EXACT_SEQ_TRIP: u64 = 16;

struct CostWalker<'k> {
    k: &'k Kernel,
    p: &'k PerfParams,
    tid: i64,
    bindings: Vec<Option<i64>>,
    approx: Vec<bool>,
    /// When `Some`, subtree costs of region-forming statements accumulate
    /// here, keyed by statement address (see [`region_profits`]).
    recorded: Option<HashMap<usize, Cost>>,
    /// Iteration multiplier of the enclosing extrapolated/unrolled loops:
    /// blocks walked once but executed `scale` times record scaled costs.
    scale: u64,
}

impl<'k> CostWalker<'k> {
    fn new(k: &'k Kernel, p: &'k PerfParams, tid: i64) -> Self {
        CostWalker {
            k,
            p,
            tid,
            bindings: vec![None; k.vars.len()],
            approx: vec![false; k.vars.len()],
            recorded: None,
            scale: 1,
        }
    }

    /// Accumulate one region-forming statement's subtree cost (times the
    /// enclosing extrapolation multiplier) when recording is on.
    fn record(&mut self, s: &Stmt, c: Cost) {
        let scale = self.scale;
        if let Some(map) = self.recorded.as_mut() {
            map.entry(s as *const Stmt as usize)
                .or_default()
                .add(c.scale(scale));
        }
    }

    fn block_cost(&mut self, block: &[Stmt]) -> Option<Cost> {
        let mut total = Cost::default();
        for s in block {
            total.add(self.stmt_cost(s)?);
        }
        Some(total)
    }

    fn stmt_cost(&mut self, s: &Stmt) -> Option<Cost> {
        let p = self.p;
        match s {
            Stmt::Assign { .. } | Stmt::StoreLocal { .. } => Some(Cost {
                cycles: self.seq_stmt_cycles(s),
                ..Default::default()
            }),
            Stmt::StoreExt { value, .. } => {
                let bytes = expr_bytes(self.k, *value) as u64;
                Some(Cost {
                    cycles: self.seq_stmt_cycles(s),
                    dram_bytes: bytes.max(p.dram_line_bytes / 2),
                    ..Default::default()
                })
            }
            Stmt::Preload { mem, len, .. } | Stmt::WriteBack { mem, len, .. } => {
                let n = self.eval_i64(*len)? as u64;
                let elem = self.k.local_mem(*mem).elem.size_bytes() as u64;
                let bytes = n * elem;
                let occupancy = bytes.max(1).div_ceil(p.dram_bytes_per_cycle.max(1));
                let out = Cost {
                    cycles: p.burst_issue_cost + p.stmt_base_cost,
                    dram_bytes: bytes,
                    critical: 0,
                    dma_busy: p.dma_setup + occupancy,
                };
                self.record(s, out);
                Some(out)
            }
            Stmt::Critical { body } => {
                let inner = self.block_cost(body)?;
                let c = p.sem_acquire_latency + inner.cycles + p.sem_release_latency;
                let out = Cost {
                    cycles: c,
                    dram_bytes: inner.dram_bytes,
                    critical: c,
                    dma_busy: inner.dma_busy,
                };
                self.record(s, out);
                Some(out)
            }
            Stmt::Barrier => Some(Cost {
                cycles: p.barrier_latency,
                ..Default::default()
            }),
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                let mut out = Cost {
                    cycles: self.seq_stmt_cycles(s),
                    ..Default::default()
                };
                let resolved = if self.uses_bound_var(*cond) {
                    None
                } else {
                    self.eval_i64(*cond)
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
                let s0 = self.eval_i64(*start)?;
                let e0 = self.eval_i64(*end)?;
                let st = self.eval_i64(*step)?;
                if st == 0 {
                    return None;
                }
                let trip = if st > 0 {
                    ((e0 - s0).max(0) as u64).div_ceil(st as u64)
                } else {
                    ((s0 - e0).max(0) as u64).div_ceil((-st) as u64)
                };
                let slot = var.0 as usize;
                let saved = self.bindings[slot];
                let saved_approx = self.approx[slot];
                self.bindings[slot] = Some(s0);
                self.approx[slot] = true;
                let out = if *unroll == Unroll::Full {
                    let saved_scale = self.scale;
                    self.scale = saved_scale.saturating_mul(trip);
                    let c = self.block_cost(body);
                    self.scale = saved_scale;
                    c.map(|c| c.scale(trip))
                } else {
                    self.loop_cost(s, trip, (s0, st), body)
                };
                self.bindings[slot] = saved;
                self.approx[slot] = saved_approx;
                if let Some(c) = out {
                    self.record(s, c);
                }
                out
            }
        }
    }

    fn loop_cost(
        &mut self,
        stmt: &Stmt,
        trip: u64,
        (s0, st): (i64, i64),
        body: &[Stmt],
    ) -> Option<Cost> {
        let p = self.p;
        if trip == 0 {
            return Some(Cost::default());
        }
        if pipeline_eligible(body) {
            let ii = deps::recurrence_ii(self.k, body);
            let depth = body_depth(self.k, body).max(p.assumed_load_latency);
            let tr = self.iter_traffic(stmt, body);
            let bw = p.dram_bytes_per_cycle.max(1);
            let mem_ii = tr.line_bytes * self.k.num_threads as u64 / bw;
            let eff_ii = (ii + tr.lat_iter).max(mem_ii);
            Some(Cost {
                cycles: depth + (trip - 1) * eff_ii,
                dram_bytes: tr.line_bytes * trip,
                critical: 0,
                dma_busy: 0,
            })
        } else {
            let var = match stmt {
                Stmt::For { var, .. } => *var,
                _ => unreachable!("loop_cost on non-For"),
            };
            if trip <= EXACT_SEQ_TRIP && var_steers_cost(self.k, body, var) {
                let slot = var.0 as usize;
                let saved_approx = self.approx[slot];
                self.approx[slot] = false;
                let mut total = Cost::default();
                for it in 0..trip {
                    self.bindings[slot] = Some(s0 + it as i64 * st);
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
            let saved_scale = self.scale;
            self.scale = saved_scale.saturating_mul(trip);
            let body_c = self.block_cost(body);
            self.scale = saved_scale;
            let body_c = body_c?;
            let per_iter = body_c.cycles + 1;
            Some(Cost {
                cycles: trip * per_iter + 1,
                dram_bytes: body_c.dram_bytes * trip,
                critical: body_c.critical * trip,
                dma_busy: body_c.dma_busy * trip,
            })
        }
    }

    /// Per-iteration DRAM traffic of a pipelined loop body (mirror of
    /// `analytic::iter_traffic`, including the line-buffer stride rules
    /// and the shared-stream contention term).
    fn iter_traffic(&mut self, stmt: &Stmt, body: &[Stmt]) -> IterTraffic {
        let line = self.p.dram_line_bytes;
        let bw = self.p.dram_bytes_per_cycle.max(1);
        let miss_stall =
            (line.div_ceil(bw) + self.p.dram_latency).saturating_sub(self.p.assumed_load_latency);
        let mut out = IterTraffic::default();
        let (var, start, step) = match stmt {
            Stmt::For {
                var, start, step, ..
            } => (*var, *start, *step),
            _ => return out,
        };
        let (Some(s0), Some(st)) = (self.eval_i64(start), self.eval_i64(step)) else {
            return out;
        };
        let mut accesses = Vec::new();
        collect_ext_accesses(self.k, body, &mut accesses);
        let mut shared_miss_streams = 0u64;
        for a in accesses {
            let slot = var.0 as usize;
            let saved = self.bindings[slot];
            self.bindings[slot] = Some(s0);
            let i0 = self.eval_i64(a.index);
            self.bindings[slot] = Some(s0 + st);
            let i1 = self.eval_i64(a.index);
            self.bindings[slot] = saved;
            let stride_bytes = match (i0, i1) {
                (Some(x), Some(y)) => (y - x).unsigned_abs() * a.bytes as u64,
                _ => line,
            };
            let lat = if self.p.line_buffers && stride_bytes < line {
                out.line_bytes += stride_bytes.max(a.bytes as u64).min(line);
                miss_stall * stride_bytes / line
            } else {
                out.line_bytes += line;
                if !a.is_write && self.shared_across_threads(var, start, a.index, i0) {
                    shared_miss_streams += 1;
                }
                miss_stall
            };
            if !a.is_write {
                out.lat_iter = out.lat_iter.max(lat);
            }
        }
        let nt = self.k.num_threads as u64;
        if nt > 1 && shared_miss_streams > 0 {
            out.lat_iter += (nt - 1) * shared_miss_streams * line.div_ceil(bw);
        }
        out
    }

    fn shared_across_threads(
        &mut self,
        var: VarId,
        start: ExprId,
        index: ExprId,
        i0: Option<i64>,
    ) -> bool {
        let Some(i0) = i0 else { return false };
        let tid_saved = self.tid;
        let slot = var.0 as usize;
        let saved = self.bindings[slot];
        self.tid = (tid_saved + 1) % self.k.num_threads as i64;
        let alt = self.eval_i64(start).and_then(|s| {
            self.bindings[slot] = Some(s);
            self.eval_i64(index)
        });
        self.bindings[slot] = saved;
        self.tid = tid_saved;
        alt == Some(i0)
    }

    fn seq_stmt_cycles(&self, s: &Stmt) -> u64 {
        let work = stmt_op_count(self.k, s);
        let line = self.p.dram_line_bytes;
        let bw = self.p.dram_bytes_per_cycle.max(1);
        let miss = line.div_ceil(bw) + self.p.dram_latency;
        let loads = stmt_ext_loads(self.k, s);
        self.p.stmt_base_cost + work.div_ceil(self.p.seq_issue_width.max(1)) + loads * miss
    }

    fn uses_bound_var(&self, id: ExprId) -> bool {
        match self.k.expr(id) {
            Expr::Var(v) => self.bindings[v.0 as usize].is_some() && self.approx[v.0 as usize],
            e => e.children().into_iter().any(|c| self.uses_bound_var(c)),
        }
    }

    /// Best-effort constant evaluation under the thread id and loop
    /// bindings. Unlike the analytical simulator there are no launch
    /// scalars at lint time, so `Arg` is always opaque.
    fn eval_i64(&self, id: ExprId) -> Option<i64> {
        match self.k.expr(id) {
            Expr::Const(v) => Some(v.as_i64()),
            Expr::ThreadId => Some(self.tid),
            Expr::NumThreads => Some(self.k.num_threads as i64),
            Expr::Arg(_) => None,
            Expr::Var(v) => self.bindings[v.0 as usize],
            Expr::Cast(_, a) => self.eval_i64(*a),
            Expr::Unary(op, a) => {
                let av = self.eval_i64(*a)?;
                Some(nymble_ir::expr::eval_unop(*op, &Value::I64(av)).as_i64())
            }
            Expr::Binary(op, a, b) => {
                let av = self.eval_i64(*a)?;
                let bv = self.eval_i64(*b)?;
                if matches!(*op, nymble_ir::BinOp::Div | nymble_ir::BinOp::Rem) && bv == 0 {
                    return None;
                }
                Some(nymble_ir::expr::eval_binop(*op, &Value::I64(av), &Value::I64(bv)).as_i64())
            }
            Expr::Select {
                cond,
                then_v,
                else_v,
            } => {
                let c = self.eval_i64(*cond)?;
                if c != 0 {
                    self.eval_i64(*then_v)
                } else {
                    self.eval_i64(*else_v)
                }
            }
            _ => None,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct IterTraffic {
    line_bytes: u64,
    lat_iter: u64,
}

/// Can the loop body be pipelined? Structural mirror of the scheduler's
/// decision: any nested sequential region (inner non-unrolled loop,
/// critical section, barrier, DMA burst) forces sequential execution.
/// Public so `nymble-hls`'s region analysis classifies loop regions the
/// same way the profit model priced them.
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

/// Crude pipeline-depth estimate: the summed operator-chain latency of the
/// body's statements (an upper bound; negligible against `(trip−1)·II`).
fn body_depth(k: &Kernel, body: &[Stmt]) -> u64 {
    body.iter()
        .map(|s| match s {
            Stmt::Assign { expr, .. } => deps::expr_chain_latency(k, *expr),
            Stmt::StoreExt { index, value, .. } | Stmt::StoreLocal { index, value, .. } => {
                deps::expr_chain_latency(k, *index).max(deps::expr_chain_latency(k, *value)) + 1
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                deps::expr_chain_latency(k, *cond)
                    + body_depth(k, then_b).max(body_depth(k, else_b))
            }
            Stmt::For { body, .. } => body_depth(k, body),
            _ => 0,
        })
        .sum()
}

/// One external access inside a pipelined loop body.
#[derive(Clone, Copy, Debug)]
struct ExtAccess {
    buf: nymble_ir::ArgId,
    index: ExprId,
    bytes: u32,
    is_write: bool,
}

fn collect_ext_accesses(kernel: &Kernel, block: &[Stmt], out: &mut Vec<ExtAccess>) {
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

/// Scalar-operation count of one statement's expressions (mirror of
/// `analytic::stmt_op_count`): `LoadExt` is excluded — it is priced as a
/// miss by `stmt_ext_loads`, not as issue work.
fn stmt_op_count(k: &Kernel, s: &Stmt) -> u64 {
    fn expr_ops(k: &Kernel, id: ExprId) -> u64 {
        let own = match k.expr(id) {
            Expr::Unary(..)
            | Expr::Binary(..)
            | Expr::Cast(..)
            | Expr::Select { .. }
            | Expr::LoadLocal { .. } => 1,
            _ => 0,
        };
        own + k
            .expr(id)
            .children()
            .into_iter()
            .map(|c| expr_ops(k, c))
            .sum::<u64>()
    }
    match s {
        Stmt::Assign { expr, .. } => expr_ops(k, *expr),
        Stmt::StoreExt { index, value, .. } | Stmt::StoreLocal { index, value, .. } => {
            expr_ops(k, *index) + expr_ops(k, *value)
        }
        Stmt::If { cond, .. } => expr_ops(k, *cond),
        Stmt::For {
            start, end, step, ..
        } => expr_ops(k, *start) + expr_ops(k, *end) + expr_ops(k, *step),
        _ => 0,
    }
}

/// Number of external loads in one statement's expressions (each is a
/// full DRAM round-trip in sequential mode).
fn stmt_ext_loads(k: &Kernel, s: &Stmt) -> u64 {
    fn expr_loads(k: &Kernel, id: ExprId) -> u64 {
        let own = matches!(k.expr(id), Expr::LoadExt { .. }) as u64;
        own + k
            .expr(id)
            .children()
            .into_iter()
            .map(|c| expr_loads(k, c))
            .sum::<u64>()
    }
    match s {
        Stmt::Assign { expr, .. } => expr_loads(k, *expr),
        Stmt::StoreExt { index, value, .. } | Stmt::StoreLocal { index, value, .. } => {
            expr_loads(k, *index) + expr_loads(k, *value)
        }
        Stmt::If { cond, .. } => expr_loads(k, *cond),
        Stmt::For {
            start, end, step, ..
        } => expr_loads(k, *start) + expr_loads(k, *end) + expr_loads(k, *step),
        _ => 0,
    }
}

fn expr_bytes(k: &Kernel, id: ExprId) -> u32 {
    match k.expr(id) {
        Expr::Const(v) => v.ty().size_bytes(),
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// The finding passes.
// ---------------------------------------------------------------------------

/// A finding located by pre-order statement index, priced later against
/// the [`PerfModel`].
struct Pending {
    stmt_idx: usize,
    code: Code,
    message: String,
    label: &'static str,
    /// Metric the prediction is denominated in, plus a direct value when
    /// the finding computes one itself (`NP003`/`NP005`); model-priced
    /// codes fill the value at emit time.
    metric: PredMetric,
    direct_value: Option<f64>,
}

struct Finder<'k> {
    k: &'k Kernel,
    nt: usize,
    /// One cost walker per thread, used purely for per-thread constant
    /// evaluation under the current loop bindings.
    threads: Vec<CostWalker<'k>>,
    stmt_idx: usize,
    pending: Vec<Pending>,
    first_top_barrier: Option<usize>,
    /// Per local memory: is it read (`LoadLocal`) / written (`StoreLocal`)
    /// anywhere in the kernel?
    mem_read: Vec<bool>,
    mem_written: Vec<bool>,
    /// Per-thread product of enclosing non-unrolled loop trip counts
    /// (`None` = unresolvable).
    trip_prod: Vec<Option<u64>>,
}

/// Run the performance passes, returning diagnostics sorted by listing
/// position. All `NP` codes are warnings: they flag *slow*, not *wrong*.
pub(crate) fn run_perf_checks(k: &Kernel, p: &PerfParams) -> Vec<Diagnostic> {
    let nt = k.num_threads.max(1) as usize;
    let mut mem_read = vec![false; k.local_mems.len()];
    let mut mem_written = vec![false; k.local_mems.len()];
    mark_local_usage(k, &k.body, &mut mem_read, &mut mem_written);
    let mut f = Finder {
        k,
        nt,
        threads: (0..nt).map(|t| CostWalker::new(k, p, t as i64)).collect(),
        stmt_idx: 0,
        pending: Vec::new(),
        first_top_barrier: None,
        mem_read,
        mem_written,
        trip_prod: vec![Some(1); nt],
    };
    f.walk_block(&k.body, true);

    let m = model(k, p);

    // NP005: thread imbalance at a barrier, from the model's per-thread
    // busy cycles (needs both a rendezvous point and a resolvable model).
    if let (Some(bar), Some(m)) = (f.first_top_barrier, m.as_ref()) {
        if nt >= 2 {
            let max = m.per_thread.iter().copied().max().unwrap_or(0);
            let min = m.per_thread.iter().copied().min().unwrap_or(0);
            let ratio = max as f64 / (min.max(1)) as f64;
            if ratio >= 1.5 {
                f.pending.push(Pending {
                    stmt_idx: bar,
                    code: Code::NP005,
                    message: format!(
                        "threads are imbalanced at this barrier: predicted busy-cycle \
                         ratio {ratio:.2} (max {max} vs min {min} cycles); the fast \
                         threads idle until the slowest arrives"
                    ),
                    label: "barrier",
                    metric: PredMetric::ImbalanceRatio,
                    direct_value: Some((ratio * 100.0).round() / 100.0),
                });
            }
        }
    }

    let listing = nymble_ir::pretty::listing(k);
    let mut out: Vec<(usize, Code, Diagnostic)> = Vec::new();
    for pend in f.pending {
        let mut d = Diagnostic::new(
            pend.code,
            pend.message,
            vec![crate::checks::span(&listing, pend.stmt_idx, pend.label)],
        );
        let value = match (pend.direct_value, m.as_ref()) {
            (Some(v), _) => Some(v),
            (None, Some(m)) => Some(match pend.metric {
                PredMetric::TotalCycles => m.total_cycles as f64,
                PredMetric::DramBytes => m.dram_bytes as f64,
                PredMetric::SerialCycles => m.critical_cycles as f64,
                PredMetric::WastedDmaBytes | PredMetric::ImbalanceRatio => {
                    unreachable!("always priced directly")
                }
            }),
            (None, None) => None,
        };
        if let Some(v) = value {
            d = d.with_prediction(pend.metric, v);
        }
        out.push((pend.stmt_idx, pend.code, d));
    }
    out.sort_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then(a.2.message.cmp(&b.2.message))
    });
    out.into_iter().map(|(_, _, d)| d).collect()
}

fn mark_local_usage(k: &Kernel, block: &[Stmt], read: &mut [bool], written: &mut [bool]) {
    fn expr_reads(k: &Kernel, e: ExprId, read: &mut [bool]) {
        if let Expr::LoadLocal { mem, .. } = k.expr(e) {
            read[mem.0 as usize] = true;
        }
        for c in k.expr(e).children() {
            expr_reads(k, c, read);
        }
    }
    for s in block {
        match s {
            Stmt::Assign { expr, .. } => expr_reads(k, *expr, read),
            Stmt::StoreExt { index, value, .. } => {
                expr_reads(k, *index, read);
                expr_reads(k, *value, read);
            }
            Stmt::StoreLocal { mem, index, value } => {
                written[mem.0 as usize] = true;
                expr_reads(k, *index, read);
                expr_reads(k, *value, read);
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                expr_reads(k, *cond, read);
                mark_local_usage(k, then_b, read, written);
                mark_local_usage(k, else_b, read, written);
            }
            Stmt::For {
                start,
                end,
                step,
                body,
                ..
            } => {
                for e in [start, end, step] {
                    expr_reads(k, *e, read);
                }
                mark_local_usage(k, body, read, written);
            }
            Stmt::Critical { body } => mark_local_usage(k, body, read, written),
            // DMA endpoints themselves don't count as compute usage: that
            // is exactly what NP003 is probing.
            Stmt::Barrier | Stmt::Preload { .. } | Stmt::WriteBack { .. } => {}
        }
    }
}

impl<'k> Finder<'k> {
    fn walk_block(&mut self, block: &[Stmt], top_level: bool) {
        for s in block {
            let idx = self.stmt_idx;
            self.stmt_idx += 1;
            match s {
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                    unroll,
                } => {
                    // Per-thread trip counts and first-iteration bindings.
                    let mut trips: Vec<Option<u64>> = Vec::with_capacity(self.nt);
                    let mut saved = Vec::with_capacity(self.nt);
                    for w in &mut self.threads {
                        let s0 = w.eval_i64(*start);
                        let e0 = w.eval_i64(*end);
                        let st = w.eval_i64(*step);
                        let trip = match (s0, e0, st) {
                            (Some(s0), Some(e0), Some(st)) if st > 0 => {
                                Some(((e0 - s0).max(0) as u64).div_ceil(st as u64))
                            }
                            (Some(s0), Some(e0), Some(st)) if st < 0 => {
                                Some(((s0 - e0).max(0) as u64).div_ceil((-st) as u64))
                            }
                            _ => None,
                        };
                        trips.push(trip);
                        let slot = var.0 as usize;
                        saved.push((w.bindings[slot], w.approx[slot]));
                        w.bindings[slot] = s0;
                        w.approx[slot] = true;
                    }
                    let max_trip = trips.iter().filter_map(|t| *t).max().unwrap_or(0);

                    if *unroll == Unroll::None && pipeline_eligible(body) && max_trip >= 2 {
                        self.check_recurrence(idx, var, body, max_trip);
                        self.check_strides(idx, s, body, max_trip);
                    }

                    // Track enclosing trips for NP004 (critical entries).
                    let saved_prod = self.trip_prod.clone();
                    if *unroll == Unroll::None {
                        for (t, trip) in trips.iter().enumerate() {
                            self.trip_prod[t] = match (self.trip_prod[t], trip) {
                                (Some(a), Some(b)) => Some(a * b),
                                _ => None,
                            };
                        }
                    }
                    self.walk_block(body, false);
                    self.trip_prod = saved_prod;
                    for (w, (b, a)) in self.threads.iter_mut().zip(saved) {
                        let slot = var.0 as usize;
                        w.bindings[slot] = b;
                        w.approx[slot] = a;
                    }
                }
                Stmt::If { then_b, else_b, .. } => {
                    self.walk_block(then_b, false);
                    self.walk_block(else_b, false);
                }
                Stmt::Critical { body } => {
                    self.check_critical(idx);
                    self.walk_block(body, false);
                }
                Stmt::Barrier if top_level && self.first_top_barrier.is_none() => {
                    self.first_top_barrier = Some(idx);
                }
                Stmt::Preload { mem, len, .. } if !self.mem_read[mem.0 as usize] => {
                    self.check_dead_dma(idx, *mem, *len, true);
                }
                Stmt::WriteBack { mem, len, .. } if !self.mem_written[mem.0 as usize] => {
                    self.check_dead_dma(idx, *mem, *len, false);
                }
                _ => {}
            }
        }
    }

    /// NP001: a pipelined loop whose recurrence chain exceeds one cycle
    /// cannot start an iteration per cycle — II is at least the chain.
    fn check_recurrence(&mut self, idx: usize, var: &VarId, body: &[Stmt], max_trip: u64) {
        let recs = deps::body_recurrences(self.k, body);
        let Some(worst) = recs.first() else { return };
        if worst.latency < 2 {
            return;
        }
        let kind = if worst.through_memory {
            "memory-carried"
        } else {
            "loop-carried"
        };
        self.pending.push(Pending {
            stmt_idx: idx,
            code: Code::NP001,
            message: format!(
                "II >= {} due to recurrence on `{}`: pipelined loop over `{}` \
                 (trip {}) carries a {}-cycle {} dependence chain, so iterations \
                 cannot overlap past it",
                worst.latency,
                worst.name,
                self.k.var(*var).name,
                max_trip,
                worst.latency,
                kind
            ),
            label: "pipelined loop with recurrence",
            metric: PredMetric::TotalCycles,
            direct_value: None,
        });
    }

    /// NP002: a strided stream in a pipelined loop touches a fresh DRAM
    /// line every few elements, multiplying line traffic over the useful
    /// payload.
    fn check_strides(&mut self, idx: usize, stmt: &Stmt, body: &[Stmt], max_trip: u64) {
        let line = self.threads[0].p.dram_line_bytes;
        let (var, start, step) = match stmt {
            Stmt::For {
                var, start, step, ..
            } => (*var, *start, *step),
            _ => return,
        };
        let mut accesses = Vec::new();
        collect_ext_accesses(self.k, body, &mut accesses);
        let mut flagged: Vec<(nymble_ir::ArgId, u64)> = Vec::new();
        for a in accesses {
            // Evaluate the stride on the first thread whose loop resolves.
            let mut stride_bytes = None;
            for w in &mut self.threads {
                let (Some(s0), Some(st)) = (w.eval_i64(start), w.eval_i64(step)) else {
                    continue;
                };
                let slot = var.0 as usize;
                let saved = w.bindings[slot];
                w.bindings[slot] = Some(s0);
                let i0 = w.eval_i64(a.index);
                w.bindings[slot] = Some(s0 + st);
                let i1 = w.eval_i64(a.index);
                w.bindings[slot] = saved;
                if let (Some(x), Some(y)) = (i0, i1) {
                    stride_bytes = Some((y - x).unsigned_abs() * a.bytes as u64);
                    break;
                }
            }
            let Some(stride_bytes) = stride_bytes else {
                continue;
            };
            // Line traffic per access vs useful payload.
            let line_contrib = if stride_bytes < line {
                stride_bytes.max(a.bytes as u64).min(line)
            } else {
                line
            };
            let mult = line_contrib / (a.bytes as u64).max(1);
            // Small multipliers (2–3×) are usually the thread-decomposition
            // stride itself — threads interleave and jointly cover each
            // line — so only report from 4× up.
            if mult < 4 {
                continue;
            }
            let key = (a.buf, stride_bytes);
            if flagged.contains(&key) {
                continue;
            }
            flagged.push(key);
            let stride_elems = stride_bytes / (a.bytes as u64).max(1);
            self.pending.push(Pending {
                stmt_idx: idx,
                code: Code::NP002,
                message: format!(
                    "stride-{} access to `{}`: ~{}x line traffic ({} bytes of \
                     DRAM line fetched per {}-byte element, trip {})",
                    stride_elems,
                    self.k.arg(a.buf).name,
                    mult,
                    line_contrib,
                    a.bytes,
                    max_trip
                ),
                label: "strided external access",
                metric: PredMetric::DramBytes,
                direct_value: None,
            });
        }
    }

    /// NP004: a critical section entered on every iteration of a parallel
    /// loop serializes the threads on the hardware semaphore.
    fn check_critical(&mut self, idx: usize) {
        if self.nt < 2 {
            return;
        }
        // A critical entered once per thread is the cheapest correct way
        // to merge partials — only repeated entries (inside a loop with
        // trip ≥ 2) indicate a serialization pattern worth flagging.
        if !self.trip_prod.iter().any(|t| t.is_some_and(|v| v >= 2)) {
            return;
        }
        let entries: Option<u64> = self
            .trip_prod
            .iter()
            .try_fold(0u64, |acc, t| t.map(|v| acc + v));
        match entries {
            Some(total) if total >= 2 => {
                self.pending.push(Pending {
                    stmt_idx: idx,
                    code: Code::NP004,
                    message: format!(
                        "critical section executes {} times across {} threads; every \
                         entry serializes on the hardware semaphore (Amdahl bound: \
                         the serial term grows with thread count instead of shrinking)",
                        total, self.nt
                    ),
                    label: "critical section",
                    metric: PredMetric::SerialCycles,
                    direct_value: None,
                });
            }
            _ => {}
        }
    }

    /// NP003: DMA whose payload is provably unused.
    fn check_dead_dma(
        &mut self,
        idx: usize,
        mem: nymble_ir::LocalMemId,
        len: ExprId,
        preload: bool,
    ) {
        let elem = self.k.local_mem(mem).elem.size_bytes() as u64;
        let wasted: Option<u64> = self.threads.iter().try_fold(0u64, |acc, w| {
            w.eval_i64(len).map(|n| acc + n.max(0) as u64 * elem)
        });
        let name = &self.k.local_mem(mem).name;
        let message = if preload {
            format!(
                "preload into `{name}` is dead: no compute reads `{name}`, so the \
                 DMA burst only burns DRAM bandwidth"
            )
        } else {
            format!(
                "write-back from `{name}` is dead: no compute writes `{name}`, so \
                 the DMA copies untouched BRAM contents back to DRAM"
            )
        };
        self.pending.push(Pending {
            stmt_idx: idx,
            code: Code::NP003,
            message,
            label: if preload {
                "dead preload"
            } else {
                "dead write-back"
            },
            metric: PredMetric::WastedDmaBytes,
            direct_value: wasted.map(|w| w as f64),
        });
    }
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
        let p = PerfParams::default().with_launch_interval(200);
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
        assert!(model(&k, &PerfParams::default()).is_none());
    }

    #[test]
    fn recurrence_loop_is_flagged_np001() {
        let mut kb = KernelBuilder::new("rec", 2);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::From);
        let acc = kb.var("acc", Type::F32);
        let n = kb.c_i64(64);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(acc, s);
        });
        let tid = kb.thread_id();
        let fin = kb.get(acc);
        kb.store(c, tid, fin);
        let k = kb.finish();
        let ds = run_perf_checks(&k, &PerfParams::default());
        assert!(
            ds.iter().any(|d| d.code == Code::NP001),
            "expected NP001 in {ds:?}"
        );
        let d = ds.iter().find(|d| d.code == Code::NP001).unwrap();
        assert!(d.message.contains("II >= 4"), "{}", d.message);
        assert!(d.prediction.is_some());
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
        let p = PerfParams::default();
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
        assert!(region_profits(&k, &PerfParams::default()).is_none());
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
        let p = PerfParams::default();
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
    fn unit_stride_loop_is_clean() {
        let mut kb = KernelBuilder::new("copy", 2);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::From);
        let n = kb.c_i64(64);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            kb.store(c, i, v);
        });
        let k = kb.finish();
        let ds = run_perf_checks(&k, &PerfParams::default());
        // Same-index store is a memory recurrence of the *store's own*
        // element; a plain copy has none (value doesn't read C).
        assert!(ds.is_empty(), "{ds:?}");
    }
}
