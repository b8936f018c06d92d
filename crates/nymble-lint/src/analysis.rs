//! The analysis engine: per-thread affine evaluation of index expressions,
//! thread-dependence taint, and collection of every memory access site with
//! its per-thread [`IndexSet`], critical/barrier-phase context, and
//! pre-order statement index (which keys into `nymble_ir::pretty::listing`
//! spans).
//!
//! `thread_id` is instantiated per hardware thread: the walker runs one
//! symbolic pass per statement but keeps one environment per thread, so a
//! loop like `for (i = my; i < w; i += NT)` gets an exact per-thread trip
//! count — including *zero* for threads whose range is empty (the late
//! phases of a tree reduction), which a purely symbolic analysis would
//! falsely flag.

use crate::affine::{IndexSet, Term};
use nymble_ir::tape::{eval_int, IntLeaf};
use nymble_ir::validate::infer_types;
use nymble_ir::{ArgId, BinOp, Expr, ExprId, Kernel, LocalMemId, Stmt, Type, UnOp, VarId};
use std::collections::{HashMap, HashSet};

/// Identity of an accessed memory: external buffer argument or local BRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum BufKey {
    Ext(ArgId),
    Local(LocalMemId),
}

/// One static access site (a load, store, or burst endpoint).
#[derive(Clone, Debug)]
pub(crate) struct Site {
    /// Pre-order statement index of the statement performing the access.
    pub stmt_idx: usize,
    pub buf: BufKey,
    pub is_write: bool,
    pub in_critical: bool,
    /// Under at least one `if`: the access may be dead, so it cannot prove
    /// an out-of-bounds fault (NL004), but it still *may* race (NL001).
    pub guarded: bool,
    /// Barrier phase (incremented at each top-level barrier).
    pub phase: u32,
    /// Set when this site is part of a detected read-modify-write pattern;
    /// the group id ties the load and the store together.
    pub rmw_group: Option<usize>,
    /// Per-thread element index sets, length `num_threads`.
    pub sets: Vec<IndexSet>,
}

/// One `barrier` statement and whether its control context is
/// thread-dependent (NL002).
#[derive(Clone, Debug)]
pub(crate) struct BarrierSite {
    pub stmt_idx: usize,
    pub divergent: bool,
}

pub(crate) struct Analysis {
    pub sites: Vec<Site>,
    pub barriers: Vec<BarrierSite>,
}

/// A linear form over loop-iteration slots: `base + Σ coeff · q_slot`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Lin {
    pub(crate) base: i64,
    /// Sorted by slot id; no zero coefficients.
    pub(crate) coeffs: Vec<(u32, i64)>,
}

impl Lin {
    pub(crate) fn konst(c: i64) -> Lin {
        Lin {
            base: c,
            coeffs: Vec::new(),
        }
    }

    pub(crate) fn as_const(&self) -> Option<i64> {
        self.coeffs.is_empty().then_some(self.base)
    }

    pub(crate) fn add(&self, o: &Lin) -> Option<Lin> {
        let base = self.base.checked_add(o.base)?;
        let mut coeffs = self.coeffs.clone();
        for &(slot, c) in &o.coeffs {
            match coeffs.binary_search_by_key(&slot, |e| e.0) {
                Ok(i) => {
                    coeffs[i].1 = coeffs[i].1.checked_add(c)?;
                    if coeffs[i].1 == 0 {
                        coeffs.remove(i);
                    }
                }
                Err(i) => coeffs.insert(i, (slot, c)),
            }
        }
        Some(Lin { base, coeffs })
    }

    fn scale(&self, f: i64) -> Option<Lin> {
        if f == 0 {
            return Some(Lin::konst(0));
        }
        let base = self.base.checked_mul(f)?;
        let mut coeffs = Vec::with_capacity(self.coeffs.len());
        for &(slot, c) in &self.coeffs {
            coeffs.push((slot, c.checked_mul(f)?));
        }
        Some(Lin { base, coeffs })
    }

    fn sub(&self, o: &Lin) -> Option<Lin> {
        self.add(&o.scale(-1)?)
    }
}

/// Abstract value of an expression for one thread.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Val {
    Lin(Lin),
    Unknown,
}

impl Val {
    pub(crate) fn konst(c: i64) -> Val {
        Val::Lin(Lin::konst(c))
    }

    pub(crate) fn as_const(&self) -> Option<i64> {
        match self {
            Val::Lin(l) => l.as_const(),
            Val::Unknown => None,
        }
    }
}

/// Control context threaded through the walk.
#[derive(Clone, Copy)]
struct Ctx {
    top_level: bool,
    in_critical: bool,
    guards: u32,
    tainted: bool,
}

pub(crate) struct Collector<'k> {
    k: &'k Kernel,
    /// Static types of `k`'s expressions ([`infer_types`]).
    types: &'k [Type],
    nt: usize,
    /// Per-thread variable environments.
    envs: Vec<HashMap<VarId, Val>>,
    /// Per loop slot, per thread: trip count (`None` = unknown).
    slot_trips: Vec<Vec<Option<u64>>>,
    tainted_vars: HashSet<VarId>,
    sites: Vec<Site>,
    barriers: Vec<BarrierSite>,
    stmt_idx: usize,
    phase: u32,
}

pub(crate) fn analyze(k: &Kernel) -> Analysis {
    let nt = k.num_threads.max(1) as usize;
    let types = infer_types(k).expect("linting a kernel that fails validation");
    let mut c = Collector {
        k,
        types: &types,
        nt,
        envs: vec![HashMap::new(); nt],
        slot_trips: Vec::new(),
        tainted_vars: taint_fixpoint(k),
        sites: Vec::new(),
        barriers: Vec::new(),
        stmt_idx: 0,
        phase: 0,
    };
    c.walk_block(
        &k.body,
        Ctx {
            top_level: true,
            in_critical: false,
            guards: 0,
            tainted: false,
        },
    );
    Analysis {
        sites: c.sites,
        barriers: c.barriers,
    }
}

// ---------------------------------------------------------------------------
// Thread-dependence taint (NL002 support).
// ---------------------------------------------------------------------------

/// Fixpoint over assignments: a variable is thread-dependent when it is
/// assigned a thread-dependent value or assigned at all under
/// thread-dependent control flow.
fn taint_fixpoint(k: &Kernel) -> HashSet<VarId> {
    let mut tainted = HashSet::new();
    // Each pass can only add variables, so |vars| passes suffice.
    for _ in 0..=k.vars.len() {
        let before = tainted.len();
        taint_block(k, &k.body, false, &mut tainted);
        if tainted.len() == before {
            break;
        }
    }
    tainted
}

fn taint_block(k: &Kernel, b: &[Stmt], ctx: bool, tainted: &mut HashSet<VarId>) {
    for s in b {
        match s {
            Stmt::Assign { var, expr } if ctx || expr_tainted(k, *expr, tainted) => {
                tainted.insert(*var);
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
                ..
            } => {
                let bt = ctx
                    || [start, end, step]
                        .into_iter()
                        .any(|e| expr_tainted(k, *e, tainted));
                if bt {
                    tainted.insert(*var);
                }
                taint_block(k, body, bt, tainted);
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                let bt = ctx || expr_tainted(k, *cond, tainted);
                taint_block(k, then_b, bt, tainted);
                taint_block(k, else_b, bt, tainted);
            }
            Stmt::Critical { body } => taint_block(k, body, ctx, tainted),
            _ => {}
        }
    }
}

fn expr_tainted(k: &Kernel, e: ExprId, tainted: &HashSet<VarId>) -> bool {
    match k.expr(e) {
        Expr::ThreadId => true,
        // Local memories are per-thread storage: their contents are
        // thread-dependent by construction.
        Expr::LoadLocal { .. } => true,
        Expr::Var(v) => tainted.contains(v),
        Expr::Const(_) | Expr::Arg(_) | Expr::NumThreads => false,
        Expr::LoadExt { index, .. } => expr_tainted(k, *index, tainted),
        other => other.children().any(|c| expr_tainted(k, c, tainted)),
    }
}

// ---------------------------------------------------------------------------
// The main walk.
// ---------------------------------------------------------------------------

impl<'k> Collector<'k> {
    fn walk_block(&mut self, b: &[Stmt], ctx: Ctx) {
        let inner = Ctx {
            top_level: false,
            ..ctx
        };
        for s in b {
            let idx = self.stmt_idx;
            self.stmt_idx += 1;
            match s {
                Stmt::Assign { var, expr } => {
                    self.record_reads(*expr, idx, ctx);
                    for t in 0..self.nt {
                        let v = self.eval(t, *expr);
                        self.envs[t].insert(*var, v);
                    }
                }
                Stmt::StoreExt { buf, index, value } => {
                    self.record_reads(*index, idx, ctx);
                    let first_read = self.sites.len();
                    self.record_reads(*value, idx, ctx);
                    let lanes = self.types[value.0 as usize].lanes as u32;
                    let sets: Vec<IndexSet> = (0..self.nt)
                        .map(|t| self.index_set(t, *index, lanes))
                        .collect();
                    // Read-modify-write detection: the stored value reads
                    // the same element of the same buffer it overwrites.
                    let rmw = self.find_rmw_load(*value, *buf, *index);
                    let site = self.sites.len();
                    if rmw {
                        for r in &mut self.sites[first_read..] {
                            if r.buf == BufKey::Ext(*buf) && r.sets == sets {
                                r.rmw_group = Some(site);
                            }
                        }
                    }
                    self.sites.push(Site {
                        stmt_idx: idx,
                        buf: BufKey::Ext(*buf),
                        is_write: true,
                        in_critical: ctx.in_critical,
                        guarded: ctx.guards > 0,
                        phase: self.phase,
                        rmw_group: rmw.then_some(site),
                        sets,
                    });
                }
                Stmt::StoreLocal { mem, index, value } => {
                    self.record_reads(*index, idx, ctx);
                    self.record_reads(*value, idx, ctx);
                    let lanes = self.types[value.0 as usize].lanes as u32;
                    let sets = (0..self.nt)
                        .map(|t| self.index_set(t, *index, lanes))
                        .collect();
                    self.sites.push(Site {
                        stmt_idx: idx,
                        buf: BufKey::Local(*mem),
                        is_write: true,
                        in_critical: ctx.in_critical,
                        guarded: ctx.guards > 0,
                        phase: self.phase,
                        rmw_group: None,
                        sets,
                    });
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                    ..
                } => {
                    for e in [start, end, step] {
                        self.record_reads(*e, idx, ctx);
                    }
                    let slot = self.slot_trips.len() as u32;
                    let mut trips = Vec::with_capacity(self.nt);
                    for t in 0..self.nt {
                        let (binding, trip) = self.bind_loop_var(t, slot, *start, *end, *step);
                        trips.push(trip);
                        self.envs[t].insert(*var, binding);
                    }
                    self.slot_trips.push(trips);
                    self.walk_block(body, inner);
                    // The post-loop value is end-dependent; keep it opaque.
                    for t in 0..self.nt {
                        self.envs[t].insert(*var, Val::Unknown);
                    }
                }
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    self.record_reads(*cond, idx, ctx);
                    // A syntactically thread-dependent condition that folds
                    // to the same constant for every thread (e.g. `tid < NT`)
                    // cannot split the group: barriers under it stay uniform.
                    let divergent = expr_tainted(self.k, *cond, &self.tainted_vars)
                        && !self.cond_uniform(*cond);
                    let branch = Ctx {
                        guards: ctx.guards + 1,
                        tainted: ctx.tainted || divergent,
                        ..inner
                    };
                    self.walk_block(then_b, branch);
                    self.walk_block(else_b, branch);
                }
                Stmt::Critical { body } => {
                    self.walk_block(
                        body,
                        Ctx {
                            in_critical: true,
                            ..inner
                        },
                    );
                }
                Stmt::Barrier => {
                    self.barriers.push(BarrierSite {
                        stmt_idx: idx,
                        divergent: ctx.tainted,
                    });
                    // Only barriers every thread reaches in lockstep — the
                    // direct children of the kernel body — separate
                    // conflict phases; nested ones are kept conservative.
                    if ctx.top_level {
                        self.phase += 1;
                    }
                }
                Stmt::Preload {
                    mem,
                    src,
                    src_off,
                    dst_off,
                    len,
                } => {
                    for e in [src_off, dst_off, len] {
                        self.record_reads(*e, idx, ctx);
                    }
                    self.push_burst(idx, ctx, BufKey::Ext(*src), *src_off, *len, false);
                    self.push_burst(idx, ctx, BufKey::Local(*mem), *dst_off, *len, true);
                }
                Stmt::WriteBack {
                    mem,
                    dst,
                    dst_off,
                    src_off,
                    len,
                } => {
                    for e in [dst_off, src_off, len] {
                        self.record_reads(*e, idx, ctx);
                    }
                    self.push_burst(idx, ctx, BufKey::Local(*mem), *src_off, *len, false);
                    self.push_burst(idx, ctx, BufKey::Ext(*dst), *dst_off, *len, true);
                }
            }
        }
    }

    /// Bind a loop variable for thread `t`: affine start plus `step · q`.
    /// The trip count is exact when `end - start` and `step` are constants
    /// for this thread (`thread_id` already instantiated).
    fn bind_loop_var(
        &mut self,
        t: usize,
        slot: u32,
        start: ExprId,
        end: ExprId,
        step: ExprId,
    ) -> (Val, Option<u64>) {
        let (sv, ev, stv) = (self.eval(t, start), self.eval(t, end), self.eval(t, step));
        let (start_lin, step_c) = match (&sv, &stv) {
            (Val::Lin(s), Val::Lin(st)) => match st.as_const() {
                Some(c) if c > 0 => (s.clone(), c),
                _ => return (Val::Unknown, None),
            },
            _ => return (Val::Unknown, None),
        };
        let trip = match &ev {
            Val::Lin(e) => e.sub(&start_lin).and_then(|d| d.as_const()).map(|span| {
                if span <= 0 {
                    0
                } else {
                    (span as u64).div_ceil(step_c as u64)
                }
            }),
            Val::Unknown => None,
        };
        let binding = match start_lin.add(&Lin {
            base: 0,
            coeffs: vec![(slot, step_c)],
        }) {
            Some(l) => Val::Lin(l),
            None => Val::Unknown,
        };
        (binding, trip)
    }

    /// Record a read site for every `LoadExt`/`LoadLocal` in the expression
    /// tree rooted at `e` (the walker evaluates loads where the consuming
    /// statement executes, so that is where the access belongs).
    fn record_reads(&mut self, e: ExprId, stmt_idx: usize, ctx: Ctx) {
        let k = self.k;
        match k.expr(e) {
            Expr::LoadExt { buf, index, ty } => {
                self.record_reads(*index, stmt_idx, ctx);
                let lanes = ty.lanes as u32;
                let sets = (0..self.nt)
                    .map(|t| self.index_set(t, *index, lanes))
                    .collect();
                self.sites.push(Site {
                    stmt_idx,
                    buf: BufKey::Ext(*buf),
                    is_write: false,
                    in_critical: ctx.in_critical,
                    guarded: ctx.guards > 0,
                    phase: self.phase,
                    rmw_group: None,
                    sets,
                });
            }
            Expr::LoadLocal { mem, index, ty } => {
                self.record_reads(*index, stmt_idx, ctx);
                let lanes = ty.lanes as u32;
                let sets = (0..self.nt)
                    .map(|t| self.index_set(t, *index, lanes))
                    .collect();
                self.sites.push(Site {
                    stmt_idx,
                    buf: BufKey::Local(*mem),
                    is_write: false,
                    in_critical: ctx.in_critical,
                    guarded: ctx.guards > 0,
                    phase: self.phase,
                    rmw_group: None,
                    sets,
                });
            }
            other => {
                for c in other.children() {
                    self.record_reads(c, stmt_idx, ctx);
                }
            }
        }
    }

    /// Does the value tree of a store read the same element of `buf` that
    /// the store writes (per-thread equivalent index)?
    fn find_rmw_load(&self, value: ExprId, buf: ArgId, store_index: ExprId) -> bool {
        let k = self.k;
        match k.expr(value) {
            Expr::LoadExt { buf: b, index, .. } if *b == buf => {
                *index == store_index
                    || (0..self.nt).all(|t| {
                        let li = self.eval(t, *index);
                        let si = self.eval(t, store_index);
                        li != Val::Unknown && li == si
                    })
            }
            other => other
                .children()
                .any(|c| self.find_rmw_load(c, buf, store_index)),
        }
    }

    fn push_burst(
        &mut self,
        stmt_idx: usize,
        ctx: Ctx,
        buf: BufKey,
        off: ExprId,
        len: ExprId,
        is_write: bool,
    ) {
        let sets = (0..self.nt)
            .map(|t| {
                let base = self.eval(t, off);
                let count = match self.eval(t, len) {
                    Val::Lin(l) => match l.as_const() {
                        Some(c) if c >= 0 => Some(c as u64),
                        _ => None,
                    },
                    Val::Unknown => None,
                };
                self.set_from_val(t, base, count)
            })
            .collect();
        self.sites.push(Site {
            stmt_idx,
            buf,
            is_write,
            in_critical: ctx.in_critical,
            guarded: ctx.guards > 0,
            phase: self.phase,
            rmw_group: None,
            sets,
        });
    }

    /// Index set of `index` for thread `t`, widened by `lanes` consecutive
    /// elements (vector access width).
    fn index_set(&self, t: usize, index: ExprId, lanes: u32) -> IndexSet {
        let v = self.eval(t, index);
        let width = if lanes > 1 { Some(lanes as u64) } else { None };
        self.set_from_val(t, v, width.or(Some(1)))
    }

    /// Convert an abstract value plus a consecutive-element count into an
    /// [`IndexSet`] using this thread's per-slot trip counts.
    fn set_from_val(&self, t: usize, v: Val, span: Option<u64>) -> IndexSet {
        let lin = match v {
            Val::Lin(l) => l,
            Val::Unknown => return IndexSet::unknown(),
        };
        let mut terms: Vec<Term> = lin
            .coeffs
            .iter()
            .map(|&(slot, coeff)| Term {
                step: coeff,
                count: self.slot_trips[slot as usize][t],
            })
            .collect();
        match span {
            Some(1) => {}
            count => terms.push(Term { step: 1, count }),
        }
        IndexSet::new(lin.base, terms)
    }

    /// Evaluate an expression to an affine value for thread `t`.
    ///
    /// Integer index arithmetic keeps a linear form: sums, differences,
    /// products and left shifts by a constant, negation and integer casts,
    /// computed exactly. An `I64` node keeps it as is; an `I32` node only
    /// while the form stays inside 32 bits over the thread's trip counts,
    /// where the tape's wrap changes nothing. Every other node (and any
    /// form that overflows) is evaluated with the tape's semantics at its
    /// static type ([`eval_int`]): a constant when its operands are
    /// constant for the thread, [`Val::Unknown`] otherwise.
    fn eval(&self, t: usize, e: ExprId) -> Val {
        let (k, env) = (self.k, &self.envs[t]);
        let lin = |c: &ExprId| match self.eval(t, *c) {
            Val::Lin(l) => Some(l),
            Val::Unknown => None,
        };
        let r = match k.expr(e) {
            Expr::Var(v) => match env.get(v) {
                Some(Val::Lin(l)) => Some(l.clone()),
                _ => None,
            },
            Expr::Unary(UnOp::Neg, a) => lin(a).and_then(|l| l.scale(-1)),
            Expr::Cast(_, a) => lin(a),
            Expr::Binary(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl), a, b) => {
                match (lin(a), lin(b)) {
                    (Some(la), Some(lb)) => match op {
                        BinOp::Add => la.add(&lb),
                        BinOp::Sub => la.sub(&lb),
                        BinOp::Mul => match (la.as_const(), lb.as_const()) {
                            (Some(c), _) => lb.scale(c),
                            (_, Some(c)) => la.scale(c),
                            _ => None,
                        },
                        _ => match lb.as_const() {
                            Some(c @ 0..=62) => la.scale(1i64 << c),
                            _ => None,
                        },
                    },
                    _ => None,
                }
            }
            _ => None,
        };
        match (r, self.types[e.0 as usize]) {
            (Some(l), Type::I64) => Val::Lin(l),
            (Some(l), Type::I32) if self.fits_i32(t, &l) => Val::Lin(l),
            _ => {
                let leaf = |l: IntLeaf| match l {
                    IntLeaf::Var(v) => env.get(&v).and_then(Val::as_const),
                    IntLeaf::ThreadId => Some(t as i64),
                    // Scalar launch arguments and loaded values are
                    // runtime values: opaque.
                    IntLeaf::Arg(_) | IntLeaf::Load { .. } => None,
                };
                eval_int(k, self.types, e, &leaf).map_or(Val::Unknown, Val::konst)
            }
        }
    }

    /// Does `l` stay inside the `I32` range on every iteration thread `t`
    /// runs? False when a loop slot's trip count is unknown.
    fn fits_i32(&self, t: usize, l: &Lin) -> bool {
        let (mut lo, mut hi) = (l.base as i128, l.base as i128);
        for &(slot, c) in &l.coeffs {
            let Some(trip) = self.slot_trips[slot as usize][t] else {
                return false;
            };
            let span = c as i128 * trip.saturating_sub(1) as i128;
            if span < 0 {
                lo += span;
            } else {
                hi += span;
            }
        }
        i32::MIN as i128 <= lo && hi <= i32::MAX as i128
    }

    /// Is `cond` provably the *same constant* for every thread? Such a
    /// condition cannot split the thread group, so a barrier under it is
    /// not divergent even when the condition is syntactically
    /// thread-dependent (e.g. `tid < NT`).
    fn cond_uniform(&self, cond: ExprId) -> bool {
        let mut first: Option<i64> = None;
        for t in 0..self.nt {
            match self.eval(t, cond).as_const() {
                Some(c) => match first {
                    None => first = Some(c),
                    Some(f) if f == c => {}
                    Some(_) => return false,
                },
                None => return false,
            }
        }
        first.is_some()
    }
}
