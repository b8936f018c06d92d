//! Barrier-based parallel tree reduction — the workload that exercises
//! `#pragma omp barrier` (which the paper's infrastructure supports but its
//! case studies do not use): threads alternate compute and barrier phases,
//! producing a state timeline with clearly synchronized fronts.

use nymble_ir::{BinOp, Kernel, KernelBuilder, MapDir, ScalarType, Type};

/// Build a tree sum of `n` f32 values over `threads` hardware threads
/// (`n` and `threads` powers of two, `threads <= n`).
///
/// Arguments: `DATA` (f32, tofrom — reduced in place, result in `DATA[0]`).
///
/// Phase `s` halves the active width; each thread sums its stripe of pair
/// sums, then all threads barrier before the next phase.
pub fn build(n: i64, threads: u32) -> Kernel {
    assert!(n.count_ones() == 1 && threads.count_ones() == 1);
    assert!(
        (threads as i64) <= n / 2,
        "need at least two elements per thread"
    );
    let mut kb = KernelBuilder::new("tree_reduce", threads);
    let data = kb.buffer("DATA", ScalarType::F32, MapDir::ToFrom);

    let mut width = n / 2;
    while width >= 1 {
        // for i in tid..width step nthreads: DATA[i] += DATA[i + width]
        let tid = kb.thread_id();
        let my = kb.cast(ScalarType::I64, tid);
        let nt = kb.num_threads_expr();
        let nt64 = kb.cast(ScalarType::I64, nt);
        let w = kb.c_i64(width);
        kb.for_each(&format!("i_w{width}"), my, w, nt64, |kb, i| {
            let a = kb.load(data, i, Type::F32);
            let w2 = kb.c_i64(width);
            let j = kb.add(i, w2);
            let b = kb.load(data, j, Type::F32);
            let s = kb.bin(BinOp::Add, a, b);
            kb.store(data, i, s);
        });
        kb.barrier();
        width /= 2;
    }
    kb.finish()
}

/// CPU reference: same pairwise order as the kernel (bit-identical in f32).
pub fn reference(data: &[f32]) -> f32 {
    let mut v = data.to_vec();
    let mut width = v.len() / 2;
    while width >= 1 {
        for i in 0..width {
            v[i] += v[i + width];
        }
        width /= 2;
    }
    v[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::gen_matrix;
    use nymble_ir::interp::{Interpreter, LaunchArg};
    use nymble_ir::Value;

    #[test]
    fn tree_reduce_matches_reference_bitwise() {
        let n = 64usize;
        let data = gen_matrix(8, 21); // 64 values
        let k = build(n as i64, 4);
        let r = Interpreter::run(
            &k,
            &[LaunchArg::Buffer(
                data.iter().map(|&x| Value::F32(x)).collect(),
            )],
        );
        let got = r.buffers[0].to_f32()[0];
        let expect = reference(&data);
        assert_eq!(got, expect, "pairwise order must match exactly");
    }

    #[test]
    fn barrier_count_is_log2_n() {
        let k = build(64, 4);
        let mut barriers = 0;
        nymble_ir::stmt::visit_stmts(&k.body, &mut |s| {
            if matches!(s, nymble_ir::Stmt::Barrier) {
                barriers += 1;
            }
        });
        assert_eq!(barriers, 6, "log2(64) phases");
    }

    #[test]
    #[should_panic(expected = "two elements per thread")]
    fn too_many_threads_rejected() {
        let _ = build(8, 8);
    }
}
