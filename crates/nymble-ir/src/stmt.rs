//! Structured statements.
//!
//! Nymble compiles each loop body to a dataflow graph; inner loops appear as
//! single variable-latency nodes in the surrounding graph and pause it while
//! they run (§III-B). Keeping the IR structured (a loop tree) preserves
//! exactly the information the scheduler and the execution model need.

use crate::expr::ExprId;
use crate::kernel::{ArgId, LocalMemId, VarId};

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// Loop unrolling annotation (`#pragma unroll`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unroll {
    /// Not unrolled: the loop is pipelined with its scheduled initiation
    /// interval.
    None,
    /// Fully unrolled into the surrounding dataflow graph (the paper's
    /// `#pragma unroll VECTOR_LEN` / `#pragma unroll BLOCK_SIZE` inner loops).
    /// The trip count must be a compile-time constant.
    Full,
}

/// One structured statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Write `expr` into thread-local variable `var`. Used for both initial
    /// bindings and accumulator updates (`sum += ...` becomes
    /// `Assign { var: sum, expr: Add(Var(sum), ...) }`, which creates the
    /// loop-carried dependence the scheduler turns into a recurrence II).
    Assign { var: VarId, expr: ExprId },
    /// Store `value` to external buffer `buf` at element `index`.
    /// A variable-latency operation.
    StoreExt {
        buf: ArgId,
        index: ExprId,
        value: ExprId,
    },
    /// Store to local BRAM.
    StoreLocal {
        mem: LocalMemId,
        index: ExprId,
        value: ExprId,
    },
    /// Counted loop: `for (var = start; var < end; var += step)`.
    /// `start`/`end`/`step` are evaluated once on entry (as in the paper's
    /// kernels, where bounds are loop-invariant).
    For {
        var: VarId,
        start: ExprId,
        end: ExprId,
        step: ExprId,
        body: Block,
        unroll: Unroll,
    },
    /// Two-sided conditional. Nymble predicates small conditionals into the
    /// dataflow graph; larger ones become control regions. Either branch may
    /// be empty.
    If {
        cond: ExprId,
        then_b: Block,
        else_b: Block,
    },
    /// `#pragma omp critical` — body guarded by the hardware semaphore on the
    /// Avalon bus (Fig. 1). Entering sets the thread's Paraver state to
    /// Spinning until acquisition, then Critical until exit (Fig. 2).
    Critical { body: Block },
    /// `#pragma omp barrier` — all hardware threads rendezvous.
    Barrier,
    /// Preloader burst transfer: copy `len` elements from external buffer
    /// `src` starting at element `src_off` into local memory `mem` starting
    /// at element `dst_off` (§III-A: "The preloader can be used to
    /// efficiently pre-load data from the external memory to the local
    /// memory"). One element here is one `mem.elem` (possibly a vector).
    Preload {
        mem: LocalMemId,
        src: ArgId,
        src_off: ExprId,
        dst_off: ExprId,
        len: ExprId,
    },
    /// Preloader write-back: copy `len` elements from local memory to an
    /// external buffer (the mirror of `Preload`, used for blocked GEMM's
    /// result write-back).
    WriteBack {
        mem: LocalMemId,
        dst: ArgId,
        dst_off: ExprId,
        src_off: ExprId,
        len: ExprId,
    },
}

impl Stmt {
    /// Short mnemonic for diagnostics.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Stmt::Assign { .. } => "assign",
            Stmt::StoreExt { .. } => "store.ext",
            Stmt::StoreLocal { .. } => "store.local",
            Stmt::For { .. } => "for",
            Stmt::If { .. } => "if",
            Stmt::Critical { .. } => "critical",
            Stmt::Barrier => "barrier",
            Stmt::Preload { .. } => "preload",
            Stmt::WriteBack { .. } => "writeback",
        }
    }

    /// The expressions the statement evaluates itself, in the tape's
    /// evaluation order; not those of its nested blocks.
    pub fn operands(&self) -> impl Iterator<Item = ExprId> {
        let e = match self {
            Stmt::Assign { expr: a, .. } | Stmt::If { cond: a, .. } => [Some(*a), None, None],
            Stmt::StoreExt { index, value, .. } | Stmt::StoreLocal { index, value, .. } => {
                [Some(*index), Some(*value), None]
            }
            Stmt::For {
                start: a,
                end: b,
                step: c,
                ..
            }
            | Stmt::Preload {
                src_off: a,
                dst_off: b,
                len: c,
                ..
            }
            | Stmt::WriteBack {
                dst_off: a,
                src_off: b,
                len: c,
                ..
            } => [Some(*a), Some(*b), Some(*c)],
            Stmt::Critical { .. } | Stmt::Barrier => [None; 3],
        };
        e.into_iter().flatten()
    }

    /// Child blocks, for generic traversal.
    pub fn child_blocks(&self) -> Vec<&Block> {
        match self {
            Stmt::For { body, .. } | Stmt::Critical { body } => vec![body],
            Stmt::If { then_b, else_b, .. } => vec![then_b, else_b],
            _ => Vec::new(),
        }
    }
}

/// Depth-first visit of every statement in a block tree.
pub fn visit_stmts<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for s in block {
        f(s);
        for b in s.child_blocks() {
            visit_stmts(b, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_counts_nested() {
        let inner = Stmt::Barrier;
        let loop_s = Stmt::For {
            var: VarId(0),
            start: ExprId(0),
            end: ExprId(0),
            step: ExprId(0),
            body: vec![inner],
            unroll: Unroll::None,
        };
        let crit = Stmt::Critical { body: vec![loop_s] };
        let mut n = 0;
        visit_stmts(&vec![crit], &mut |_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn mnemonics() {
        assert_eq!(Stmt::Barrier.mnemonic(), "barrier");
    }
}
