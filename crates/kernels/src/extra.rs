//! Auxiliary kernels: small workloads used by examples, tests and the
//! profiling-overhead sweep (designs of different sizes make the §V-B
//! "overhead shrinks with design size" effect visible).

use nymble_ir::{Kernel, KernelBuilder, MapDir, ScalarType, Type};

/// `OUT[i] = A[i] + B[i]`, i striped over threads.
pub fn vecadd(n: i64, threads: u32) -> Kernel {
    let mut kb = KernelBuilder::new("vecadd", threads);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let b = kb.buffer("B", ScalarType::F32, MapDir::To);
    let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
    let tid = kb.thread_id();
    let my = kb.cast(ScalarType::I64, tid);
    let nt = kb.num_threads_expr();
    let nt64 = kb.cast(ScalarType::I64, nt);
    let end = kb.c_i64(n);
    kb.for_each("i", my, end, nt64, |kb, i| {
        let av = kb.load(a, i, Type::F32);
        let bv = kb.load(b, i, Type::F32);
        let s = kb.add(av, bv);
        kb.store(out, i, s);
    });
    kb.finish()
}

/// Dot product with a critical-section reduction (a miniature of the naive
/// GEMM's synchronization pattern).
pub fn dot(n: i64, threads: u32) -> Kernel {
    let mut kb = KernelBuilder::new("dot", threads);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let b = kb.buffer("B", ScalarType::F32, MapDir::To);
    let out = kb.buffer("OUT", ScalarType::F32, MapDir::ToFrom);
    let sum = kb.var("sum", Type::F32);
    let z = kb.c_f32(0.0);
    kb.set(sum, z);
    let tid = kb.thread_id();
    let my = kb.cast(ScalarType::I64, tid);
    let nt = kb.num_threads_expr();
    let nt64 = kb.cast(ScalarType::I64, nt);
    let end = kb.c_i64(n);
    kb.for_each("i", my, end, nt64, |kb, i| {
        let av = kb.load(a, i, Type::F32);
        let bv = kb.load(b, i, Type::F32);
        let cur = kb.get(sum);
        let s = kb.mul_add(av, bv, cur);
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

/// One Jacobi 4-point stencil sweep over an `n×n` grid, rows striped over
/// threads (interior points only). `GRID` is read, `OUT` written.
pub fn jacobi(n: i64, threads: u32) -> Kernel {
    assert!(n >= 3, "stencil needs an interior");
    let mut kb = KernelBuilder::new("jacobi", threads);
    let grid = kb.buffer("GRID", ScalarType::F32, MapDir::To);
    let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
    let tid = kb.thread_id();
    let my = kb.cast(ScalarType::I64, tid);
    let one = kb.c_i64(1);
    let start = kb.add(my, one);
    let nt = kb.num_threads_expr();
    let nt64 = kb.cast(ScalarType::I64, nt);
    let end = kb.c_i64(n - 1);
    kb.for_each("i", start, end, nt64, |kb, i| {
        let one_j = kb.c_i64(1);
        let end_j = kb.c_i64(n - 1);
        let step_j = kb.c_i64(1);
        kb.for_each("j", one_j, end_j, step_j, |kb, j| {
            let n_e = kb.c_i64(n);
            let one_up = kb.c_i64(1);
            let up_row = kb.sub(i, one_up);
            let up0 = kb.mul(up_row, n_e);
            let up = kb.add(up0, j);
            let upv = kb.load(grid, up, Type::F32);
            let n_e2 = kb.c_i64(n);
            let one_dn = kb.c_i64(1);
            let dn_row = kb.add(i, one_dn);
            let dn0 = kb.mul(dn_row, n_e2);
            let dn = kb.add(dn0, j);
            let dnv = kb.load(grid, dn, Type::F32);
            let n_e3 = kb.c_i64(n);
            let row0 = kb.mul(i, n_e3);
            let lf0 = kb.add(row0, j);
            let onel = kb.c_i64(1);
            let lf = kb.sub(lf0, onel);
            let lfv = kb.load(grid, lf, Type::F32);
            let oner = kb.c_i64(1);
            let rt = kb.add(lf0, oner);
            let rtv = kb.load(grid, rt, Type::F32);
            let s1 = kb.add(upv, dnv);
            let s2 = kb.add(lfv, rtv);
            let s = kb.add(s1, s2);
            let q = kb.c_f32(0.25);
            let r = kb.mul(s, q);
            kb.store(out, lf0, r);
        });
    });
    kb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use nymble_ir::interp::{Interpreter, LaunchArg};
    use nymble_ir::Value;

    fn vals(v: &[f32]) -> Vec<Value> {
        v.iter().map(|&x| Value::F32(x)).collect()
    }

    #[test]
    fn vecadd_works() {
        let n = 64;
        let k = vecadd(n, 4);
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(vals(&a)),
                LaunchArg::Buffer(vals(&b)),
                LaunchArg::Buffer(vec![Value::F32(0.0); n as usize]),
            ],
        );
        let got = r.buffers[2].to_f32();
        for (i, g) in got.iter().enumerate() {
            assert_eq!(*g, 3.0 * i as f32);
        }
    }

    #[test]
    fn dot_matches_reference() {
        let n = 128;
        let a = reference::gen_matrix(12, 5)[..n].to_vec();
        let b = reference::gen_matrix(12, 6)[..n].to_vec();
        let k = dot(n as i64, 4);
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(vals(&a)),
                LaunchArg::Buffer(vals(&b)),
                LaunchArg::Buffer(vec![Value::F32(0.0)]),
            ],
        );
        let got = r.buffers[2].to_f32()[0];
        let expect = reference::dot(&a, &b);
        assert!((got - expect).abs() < 1e-3, "{got} vs {expect}");
    }

    #[test]
    fn jacobi_matches_reference() {
        let n = 16usize;
        let g = reference::gen_matrix(n, 9);
        let k = jacobi(n as i64, 3);
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(vals(&g)),
                LaunchArg::Buffer(vec![Value::F32(0.0); n * n]),
            ],
        );
        let got = r.buffers[1].to_f32();
        let expect = reference::jacobi_sweep(&g, n);
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let (g1, e1) = (got[i * n + j], expect[i * n + j]);
                assert!((g1 - e1).abs() < 1e-5, "({i},{j}): {g1} vs {e1}");
            }
        }
    }
}

/// Histogram with a critical-section-protected update — the maximally
/// contended synchronization pattern (every iteration takes the semaphore),
/// stressing the Fig. 2 state machine far beyond the naive GEMM.
///
/// `DATA` holds values in `[0, 1)`; `HIST` has `bins` slots.
pub fn histogram(n: i64, bins: i64, threads: u32) -> Kernel {
    assert!(bins > 0);
    let mut kb = KernelBuilder::new("histogram", threads);
    let data = kb.buffer("DATA", ScalarType::F32, MapDir::To);
    let hist = kb.buffer("HIST", ScalarType::I32, MapDir::ToFrom);
    let tid = kb.thread_id();
    let my = kb.cast(ScalarType::I64, tid);
    let nt = kb.num_threads_expr();
    let nt64 = kb.cast(ScalarType::I64, nt);
    let end = kb.c_i64(n);
    kb.for_each("i", my, end, nt64, |kb, i| {
        let v = kb.load(data, i, Type::F32);
        let nb = kb.c_f32(bins as f32);
        let scaled = kb.mul(v, nb);
        let bin64 = kb.cast(ScalarType::I64, scaled);
        // clamp to [0, bins-1]
        let zero = kb.c_i64(0);
        let maxb = kb.c_i64(bins - 1);
        let lo = kb.bin(nymble_ir::BinOp::Max, bin64, zero);
        let bin = kb.bin(nymble_ir::BinOp::Min, lo, maxb);
        kb.critical(|kb| {
            let cur = kb.load(hist, bin, Type::I32);
            let one = kb.c_i32(1);
            let inc = kb.add(cur, one);
            kb.store(hist, bin, inc);
        });
    });
    kb.finish()
}

/// CPU reference for [`histogram`].
pub fn histogram_ref(data: &[f32], bins: usize) -> Vec<i32> {
    let mut h = vec![0i32; bins];
    for &v in data {
        let b = ((v * bins as f32) as i64).clamp(0, bins as i64 - 1) as usize;
        h[b] += 1;
    }
    h
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use nymble_ir::interp::{Interpreter, LaunchArg};
    use nymble_ir::Value;

    #[test]
    fn histogram_matches_reference() {
        let n = 200usize;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).fract()).collect();
        let bins = 8usize;
        let gold = histogram_ref(&data, bins);
        let k = histogram(n as i64, bins as i64, 4);
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(data.iter().map(|&x| Value::F32(x)).collect()),
                LaunchArg::Buffer(vec![Value::I32(0); bins]),
            ],
        );
        let got: Vec<i32> = (0..bins)
            .map(|i| r.buffers[1].get(i).unwrap().as_i64() as i32)
            .collect();
        assert_eq!(got, gold);
        assert_eq!(
            r.critical_entries, n as u64,
            "one critical entry per element"
        );
        assert_eq!(got.iter().sum::<i32>(), n as i32, "counts conserved");
    }
}
