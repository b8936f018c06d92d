//! Sparse matrix–vector product (CSR) — an irregular-access workload that
//! exercises the IR's indirect addressing (a loaded value feeding another
//! load's index) and shows the latency-bound end of the paper's bottleneck
//! spectrum: gather accesses defeat both the line buffers and vectorization.

use nymble_ir::{Kernel, KernelBuilder, MapDir, ScalarType, Type};

/// A CSR matrix with f32 values.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    pub rows: usize,
    pub cols: usize,
    /// Row start offsets, `rows + 1` entries.
    pub row_ptr: Vec<i64>,
    /// Column index per non-zero.
    pub col_idx: Vec<i64>,
    /// Value per non-zero.
    pub values: Vec<f32>,
}

impl Csr {
    /// Check a [`Csr::random`] shape: every row draws its column indices
    /// modulo `cols`. `random` panics with the returned message when it
    /// fails.
    pub fn validate_shape(cols: usize) -> Result<(), &'static str> {
        if cols == 0 {
            return Err("the SpMV column count must be positive");
        }
        Ok(())
    }

    /// Deterministic pseudo-random sparse matrix with ~`nnz_per_row`
    /// non-zeros per row.
    pub fn random(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> Self {
        if let Err(e) = Self::validate_shape(cols) {
            panic!("{e}");
        }
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rng = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for _ in 0..rows {
            let mut cols_here: Vec<i64> = (0..nnz_per_row)
                .map(|_| (rng() % cols as u64) as i64)
                .collect();
            cols_here.sort_unstable();
            cols_here.dedup();
            for c in cols_here {
                col_idx.push(c);
                values.push(((rng() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0);
            }
            row_ptr.push(col_idx.len() as i64);
        }
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// CPU reference `y = A·x`.
    pub fn spmv_ref(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0f32; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = 0.0f32;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yr = acc;
        }
        y
    }
}

/// Build the SpMV kernel: rows striped over threads; per row, a
/// variable-trip inner loop gathers `x[col_idx[k]]`.
///
/// Arguments: `ROW_PTR` (i64), `COL_IDX` (i64), `VALS` (f32), `X` (f32),
/// `Y` (f32, from). The row count is baked into the IR.
pub fn build(rows: i64, threads: u32) -> Kernel {
    let mut kb = KernelBuilder::new("spmv", threads);
    let row_ptr = kb.buffer("ROW_PTR", ScalarType::I64, MapDir::To);
    let col_idx = kb.buffer("COL_IDX", ScalarType::I64, MapDir::To);
    let vals = kb.buffer("VALS", ScalarType::F32, MapDir::To);
    let x = kb.buffer("X", ScalarType::F32, MapDir::To);
    let y = kb.buffer("Y", ScalarType::F32, MapDir::From);
    let acc = kb.var("acc", Type::F32);

    let tid = kb.thread_id();
    let my = kb.cast(ScalarType::I64, tid);
    let nt = kb.num_threads_expr();
    let nt64 = kb.cast(ScalarType::I64, nt);
    let end = kb.c_i64(rows);
    kb.for_each("r", my, end, nt64, |kb, r| {
        let z = kb.c_f32(0.0);
        kb.set(acc, z);
        // Row bounds come from memory: a variable-trip inner loop.
        let lo = kb.load(row_ptr, r, Type::I64);
        let one = kb.c_i64(1);
        let r1 = kb.add(r, one);
        let hi = kb.load(row_ptr, r1, Type::I64);
        let step = kb.c_i64(1);
        kb.for_each("k", lo, hi, step, |kb, k| {
            let c = kb.load(col_idx, k, Type::I64);
            let v = kb.load(vals, k, Type::F32);
            let xv = kb.load(x, c, Type::F32); // gather: index from memory
            let cur = kb.get(acc);
            let s = kb.mul_add(v, xv, cur);
            kb.set(acc, s);
        });
        let a = kb.get(acc);
        kb.store(y, r, a);
    });
    kb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::interp::{Interpreter, LaunchArg};
    use nymble_ir::Value;

    #[test]
    fn spmv_matches_reference() {
        let m = Csr::random(24, 24, 5, 3);
        let x: Vec<f32> = (0..24).map(|i| (i as f32 * 0.3).sin()).collect();
        let gold = m.spmv_ref(&x);
        let k = build(m.rows as i64, 3);
        let i64v = |v: &[i64]| v.iter().map(|&x| Value::I64(x)).collect::<Vec<_>>();
        let f32v = |v: &[f32]| v.iter().map(|&x| Value::F32(x)).collect::<Vec<_>>();
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(i64v(&m.row_ptr)),
                LaunchArg::Buffer(i64v(&m.col_idx)),
                LaunchArg::Buffer(f32v(&m.values)),
                LaunchArg::Buffer(f32v(&x)),
                LaunchArg::Buffer(vec![Value::F32(0.0); m.rows]),
            ],
        );
        let got = r.buffers[4].to_f32();
        for (i, (g, e)) in got.iter().zip(&gold).enumerate() {
            assert!((g - e).abs() < 1e-4, "row {i}: {g} vs {e}");
        }
    }

    #[test]
    fn random_csr_is_wellformed() {
        let m = Csr::random(10, 16, 4, 7);
        assert_eq!(m.row_ptr.len(), 11);
        assert_eq!(m.col_idx.len(), m.values.len());
        assert!(m.row_ptr.windows(2).all(|w| w[0] <= w[1]));
        assert!(m.col_idx.iter().all(|&c| (c as usize) < m.cols));
        // Deterministic.
        assert_eq!(m, Csr::random(10, 16, 4, 7));
    }

    #[test]
    fn empty_rows_are_fine() {
        // A matrix where dedup may produce short rows; also rows=1 edge.
        let m = Csr::random(1, 4, 2, 1);
        let x = vec![1.0f32; 4];
        let k = build(1, 1);
        let i64v = |v: &[i64]| v.iter().map(|&x| Value::I64(x)).collect::<Vec<_>>();
        let f32v = |v: &[f32]| v.iter().map(|&x| Value::F32(x)).collect::<Vec<_>>();
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(i64v(&m.row_ptr)),
                LaunchArg::Buffer(i64v(&m.col_idx)),
                LaunchArg::Buffer(f32v(&m.values)),
                LaunchArg::Buffer(f32v(&x)),
                LaunchArg::Buffer(vec![Value::F32(0.0)]),
            ],
        );
        let got = r.buffers[4].to_f32()[0];
        let expect = m.spmv_ref(&x)[0];
        assert!((got - expect).abs() < 1e-5);
    }

    #[test]
    fn row_loop_steers_cost() {
        // The inner loop's bounds load `ROW_PTR[r]` and `ROW_PTR[r + 1]`.
        let k = build(64, 4);
        let nymble_ir::Stmt::For { var, body, .. } = &k.body[0] else {
            panic!("row loop expected first");
        };
        assert_eq!(k.var(*var).name, "r");
        assert!(nymble_ir::loops::var_steers_cost(&k, body, *var));
    }
}
