//! Performance diagnostics (`NP0xx`): the passes that turn the static
//! cost walker's quantities into actionable findings.
//!
//! Every quantitative prediction is priced by
//! [`nymble_hls::perf::model`] — the same walker behind the simulator's
//! analytic mode, in its compile-free symbolic mode: pipelining decided
//! structurally, the II from the recurrence analysis in
//! [`nymble_hls::deps`]. `bench` checks each prediction against the
//! analytic estimate (within 25%) and confirms it on the cycle simulator.

use crate::diag::{Code, Diagnostic, PredMetric};
use nymble_hls::deps;
use nymble_hls::perf::{ext_accesses, model, pipeline_eligible, ThreadEval, Timing};
use nymble_ir::stmt::Unroll;
use nymble_ir::validate::infer_types;
use nymble_ir::{Expr, ExprId, Kernel, Stmt, Type, VarId};

/// A finding located by pre-order statement index, priced later against
/// the [`nymble_hls::perf::PerfModel`].
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
    /// Static types of `k`'s expressions ([`infer_types`]).
    types: &'k [Type],
    /// DRAM line size the stride findings are priced against.
    line: u64,
    nt: usize,
    /// Per-thread constant evaluation under the current loop bindings.
    threads: Vec<ThreadEval<'k>>,
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
pub(crate) fn run_perf_checks(k: &Kernel, p: &Timing) -> Vec<Diagnostic> {
    let nt = k.num_threads.max(1) as usize;
    let mut mem_read = vec![false; k.local_mems.len()];
    let mut mem_written = vec![false; k.local_mems.len()];
    mark_local_usage(k, &k.body, &mut mem_read, &mut mem_written);
    let types = infer_types(k).expect("perf-linting a kernel that fails validation");
    let mut f = Finder {
        k,
        types: &types,
        line: p.dram_line_bytes as u64,
        nt,
        threads: (0..nt)
            .map(|t| ThreadEval::new(k, &types, t as i64, &[], None))
            .collect(),
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
        // DMA endpoints themselves don't count as compute usage: that is
        // exactly what NP003 is probing.
        if !matches!(s, Stmt::Preload { .. } | Stmt::WriteBack { .. }) {
            for e in s.operands() {
                expr_reads(k, e, read);
            }
        }
        if let Stmt::StoreLocal { mem, .. } = s {
            written[mem.0 as usize] = true;
        }
        for b in s.child_blocks() {
            mark_local_usage(k, b, read, written);
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
                        trips.push(w.loop_range(*start, *end, *step).map(|(_, _, trip)| trip));
                        let s0 = w.eval_i64(*start);
                        saved.push(w.bind(*var, s0));
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
                    for (w, b) in self.threads.iter_mut().zip(saved) {
                        w.bind(*var, b);
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
        let recs = deps::body_recurrences(self.k, self.types, body);
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
        let line = self.line;
        let (var, start, step) = match stmt {
            Stmt::For {
                var, start, step, ..
            } => (*var, *start, *step),
            _ => return,
        };
        let mut flagged: Vec<(nymble_ir::ArgId, u64)> = Vec::new();
        for a in ext_accesses(self.k, body) {
            // Evaluate the stride on the first thread whose loop resolves.
            let mut stride_bytes = None;
            for w in &mut self.threads {
                let (Some(s0), Some(st)) = (w.eval_i64(start), w.eval_i64(step)) else {
                    continue;
                };
                let saved = w.bind(var, Some(s0));
                let i0 = w.eval_i64(a.index);
                w.bind(var, Some(s0 + st));
                let i1 = w.eval_i64(a.index);
                w.bind(var, saved);
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
        let ds = run_perf_checks(&k, &Timing::default());
        assert!(
            ds.iter().any(|d| d.code == Code::NP001),
            "expected NP001 in {ds:?}"
        );
        let d = ds.iter().find(|d| d.code == Code::NP001).unwrap();
        assert!(d.message.contains("II >= 4"), "{}", d.message);
        assert!(d.prediction.is_some());
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
        let ds = run_perf_checks(&k, &Timing::default());
        // Same-index store is a memory recurrence of the *store's own*
        // element; a plain copy has none (value doesn't read C).
        assert!(ds.is_empty(), "{ds:?}");
    }
}
