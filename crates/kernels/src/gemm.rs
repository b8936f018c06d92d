//! The five GEMM versions of the paper's §V-C case study.
//!
//! All versions compute `C = A × B` on `DIM×DIM` single-precision matrices
//! with `num_threads` hardware threads.
//!
//! Fidelity notes versus the paper's listings:
//!
//! * Fig. 3 writes `C[i*DIM+j] = sum` inside the critical section, which —
//!   with every thread holding only a partial `k`-slice sum — does not
//!   compute a matrix product. We implement the evident intent,
//!   `C[i*DIM+j] += sum`, so all five versions are functionally equivalent
//!   and verifiable against the CPU reference.
//! * `#pragma unroll` loops are unrolled at kernel-construction time (the
//!   builder emits the replicated body with distinct accumulators), which is
//!   what the HLS compiler's frontend would do and gives the scheduler the
//!   same dataflow graph.
//! * The blocked/double-buffered versions use the architecture's preloader
//!   (§III-A) for their block transfers; the paper's equivalent inner copy
//!   loops are recognised by Nymble and mapped to the same engine.

use nymble_ir::{BinOp, Kernel, KernelBuilder, MapDir, ScalarType, Type};

/// Parameters shared by all GEMM versions.
#[derive(Clone, Copy, Debug)]
pub struct GemmParams {
    /// Matrix dimension (the paper evaluates 512; scaled-down runs are the
    /// default for CI speed).
    pub dim: i64,
    /// Hardware threads (the paper uses 8 throughout).
    pub threads: u32,
    /// Vector width in f32 lanes (the paper's 128-bit `VECTOR` = 4).
    pub vec: u8,
    /// Block edge for the blocked/double-buffered versions.
    pub block: i64,
}

impl Default for GemmParams {
    fn default() -> Self {
        GemmParams {
            dim: 128,
            threads: 8,
            vec: 4,
            block: 8,
        }
    }
}

impl GemmParams {
    /// Paper-scale configuration (512×512, 8 threads).
    pub fn paper_scale() -> Self {
        GemmParams {
            dim: 512,
            ..Default::default()
        }
    }

    /// Check the shape constraints every version relies on; `build` panics
    /// with the returned message when they fail.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.dim <= 0 || self.threads == 0 {
            return Err("DIM and the thread count must be positive");
        }
        if self.dim % (self.vec as i64) != 0 {
            return Err("DIM must be a multiple of the vector width");
        }
        if self.block % (self.vec as i64) != 0 || self.dim % self.block != 0 {
            return Err("block must divide DIM and be a multiple of the vector width");
        }
        if self.dim % (self.threads as i64 * self.block) != 0 && self.dim % self.threads as i64 != 0
        {
            return Err("threads must evenly divide the iteration space");
        }
        Ok(())
    }
}

/// The five optimization steps of §V-C, in paper order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GemmVersion {
    /// Fig. 3: threads split the `k` loop, reduction guarded by a critical
    /// section.
    Naive,
    /// Step 2: threads own disjoint `i` rows; no critical section.
    NoCritical,
    /// Fig. 4: step 2 plus 128-bit vectorized loads of `A`.
    Vectorized,
    /// Step 4: blocking into local (BRAM) memories via the preloader.
    Blocked,
    /// Fig. 5: blocking plus double-buffered prefetch of the next block.
    DoubleBuffered,
}

impl GemmVersion {
    /// All versions in the paper's presentation order.
    pub const ALL: [GemmVersion; 5] = [
        GemmVersion::Naive,
        GemmVersion::NoCritical,
        GemmVersion::Vectorized,
        GemmVersion::Blocked,
        GemmVersion::DoubleBuffered,
    ];

    /// Display name as used in the paper's Fig. 7 legend.
    pub fn name(&self) -> &'static str {
        match self {
            GemmVersion::Naive => "Naive",
            GemmVersion::NoCritical => "No Critical Sections",
            GemmVersion::Vectorized => "Partial Vectorization",
            GemmVersion::Blocked => "Blocked",
            GemmVersion::DoubleBuffered => "Double Buffering",
        }
    }
}

/// Build the kernel for one GEMM version.
pub fn build(version: GemmVersion, p: &GemmParams) -> Kernel {
    if let Err(e) = p.validate() {
        panic!("{e}");
    }
    match version {
        GemmVersion::Naive => naive(p),
        GemmVersion::NoCritical => no_critical(p),
        GemmVersion::Vectorized => vectorized(p),
        GemmVersion::Blocked => blocked(p, false),
        GemmVersion::DoubleBuffered => blocked(p, true),
    }
}

fn naive(p: &GemmParams) -> Kernel {
    let mut kb = KernelBuilder::new("gemm_naive", p.threads);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let b = kb.buffer("B", ScalarType::F32, MapDir::To);
    let c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
    let sum = kb.var("sum", Type::F32);
    let dim = kb.c_i64(p.dim);
    kb.for_range("i", dim, |kb, i| {
        let dim_j = kb.c_i64(p.dim);
        kb.for_range("j", dim_j, |kb, j| {
            let z = kb.c_f32(0.0);
            kb.set(sum, z);
            let tid = kb.thread_id();
            let my = kb.cast(ScalarType::I64, tid);
            let nt = kb.num_threads_expr();
            let nt64 = kb.cast(ScalarType::I64, nt);
            let end = kb.c_i64(p.dim);
            kb.for_each("k", my, end, nt64, |kb, k| {
                let dim_e = kb.c_i64(p.dim);
                let row = kb.mul(i, dim_e);
                let ai = kb.add(row, k);
                let av = kb.load(a, ai, Type::F32);
                let dim_e2 = kb.c_i64(p.dim);
                let krow = kb.mul(k, dim_e2);
                let bi = kb.add(krow, j);
                let bv = kb.load(b, bi, Type::F32);
                let cur = kb.get(sum);
                let s = kb.mul_add(av, bv, cur);
                kb.set(sum, s);
            });
            kb.critical(|kb| {
                let dim_e = kb.c_i64(p.dim);
                let row = kb.mul(i, dim_e);
                let ci = kb.add(row, j);
                let cur = kb.load(c, ci, Type::F32);
                let sv = kb.get(sum);
                let upd = kb.add(cur, sv);
                kb.store(c, ci, upd);
            });
        });
    });
    kb.finish()
}

fn no_critical(p: &GemmParams) -> Kernel {
    let mut kb = KernelBuilder::new("gemm_nocrit", p.threads);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let b = kb.buffer("B", ScalarType::F32, MapDir::To);
    let c = kb.buffer("C", ScalarType::F32, MapDir::From);
    let sum = kb.var("sum", Type::F32);
    let tid = kb.thread_id();
    let my = kb.cast(ScalarType::I64, tid);
    let nt = kb.num_threads_expr();
    let nt64 = kb.cast(ScalarType::I64, nt);
    let dim = kb.c_i64(p.dim);
    kb.for_each("i", my, dim, nt64, |kb, i| {
        let dim_j = kb.c_i64(p.dim);
        kb.for_range("j", dim_j, |kb, j| {
            let z = kb.c_f32(0.0);
            kb.set(sum, z);
            let dim_k = kb.c_i64(p.dim);
            kb.for_range("k", dim_k, |kb, k| {
                let dim_e = kb.c_i64(p.dim);
                let row = kb.mul(i, dim_e);
                let ai = kb.add(row, k);
                let av = kb.load(a, ai, Type::F32);
                let dim_e2 = kb.c_i64(p.dim);
                let krow = kb.mul(k, dim_e2);
                let bi = kb.add(krow, j);
                let bv = kb.load(b, bi, Type::F32);
                let cur = kb.get(sum);
                let s = kb.mul_add(av, bv, cur);
                kb.set(sum, s);
            });
            let dim_e = kb.c_i64(p.dim);
            let row = kb.mul(i, dim_e);
            let ci = kb.add(row, j);
            let sv = kb.get(sum);
            kb.store(c, ci, sv);
        });
    });
    kb.finish()
}

fn vectorized(p: &GemmParams) -> Kernel {
    let vl = p.vec;
    let vty = Type::vector(ScalarType::F32, vl);
    let mut kb = KernelBuilder::new("gemm_vec", p.threads);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let b = kb.buffer("B", ScalarType::F32, MapDir::To);
    let c = kb.buffer("C", ScalarType::F32, MapDir::From);
    // One accumulator per lane: the `#pragma unroll VECTOR_LEN` of Fig. 4
    // gives each unrolled instance an independent dependence chain.
    let sums: Vec<_> = (0..vl)
        .map(|l| kb.var(&format!("sum{l}"), Type::F32))
        .collect();
    let tid = kb.thread_id();
    let my = kb.cast(ScalarType::I64, tid);
    let nt = kb.num_threads_expr();
    let nt64 = kb.cast(ScalarType::I64, nt);
    let dim = kb.c_i64(p.dim);
    kb.for_each("i", my, dim, nt64, |kb, i| {
        let dim_j = kb.c_i64(p.dim);
        kb.for_range("j", dim_j, |kb, j| {
            for &s in &sums {
                let z = kb.c_f32(0.0);
                kb.set(s, z);
            }
            let zero = kb.c_i64(0);
            let dim_k = kb.c_i64(p.dim);
            let step = kb.c_i64(vl as i64);
            kb.for_each("k", zero, dim_k, step, |kb, k| {
                // VECTOR vA = *((VECTOR*)&A[i*DIM + k]);
                let dim_e = kb.c_i64(p.dim);
                let row = kb.mul(i, dim_e);
                let ai = kb.add(row, k);
                let va = kb.load(a, ai, vty);
                for l in 0..vl {
                    let lane = kb.lane(va, l);
                    let off = kb.c_i64(l as i64);
                    let kv = kb.add(k, off);
                    let dim_e2 = kb.c_i64(p.dim);
                    let krow = kb.mul(kv, dim_e2);
                    let bi = kb.add(krow, j);
                    let bv = kb.load(b, bi, Type::F32);
                    let cur = kb.get(sums[l as usize]);
                    let s = kb.mul_add(lane, bv, cur);
                    kb.set(sums[l as usize], s);
                }
            });
            // Reduce the lane partials and store.
            let mut acc = kb.get(sums[0]);
            for &s in &sums[1..] {
                let sv = kb.get(s);
                acc = kb.add(acc, sv);
            }
            let dim_e = kb.c_i64(p.dim);
            let row = kb.mul(i, dim_e);
            let ci = kb.add(row, j);
            kb.store(c, ci, acc);
        });
    });
    kb.finish()
}

/// Blocked GEMM; with `double_buffer` the next block pair is prefetched
/// while computing on the current one (Fig. 5).
fn blocked(p: &GemmParams, double_buffer: bool) -> Kernel {
    let bs = p.block;
    let vl = p.vec as i64;
    let vty = Type::vector(ScalarType::F32, p.vec);
    let name = if double_buffer {
        "gemm_dbuf"
    } else {
        "gemm_blocked"
    };
    let mut kb = KernelBuilder::new(name, p.threads);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let b = kb.buffer("B", ScalarType::F32, MapDir::To);
    let c = kb.buffer("C", ScalarType::F32, MapDir::From);
    // Local tiles. A is read a scalar at a time (broadcast against a B row
    // vector); B and C are vector-element tiles. Double buffering uses two
    // physical tile sets so the preloader can fill one while the datapath
    // reads the other.
    let n_bufs = if double_buffer { 2 } else { 1 };
    let a_loc: Vec<_> = (0..n_bufs)
        .map(|i| kb.local_mem(&format!("A_local{i}"), Type::F32, (bs * bs) as u64))
        .collect();
    let b_loc: Vec<_> = (0..n_bufs)
        .map(|i| kb.local_mem(&format!("B_local{i}"), Type::F32, (bs * bs) as u64))
        .collect();
    let c_loc = kb.local_mem("C_local", Type::F32, (bs * bs) as u64);

    let tid = kb.thread_id();
    let my = kb.cast(ScalarType::I64, tid);
    let bs_e = kb.c_i64(bs);
    let my_row = kb.mul(my, bs_e);
    let nt = kb.num_threads_expr();
    let nt64 = kb.cast(ScalarType::I64, nt);
    let bs_e2 = kb.c_i64(bs);
    let stride = kb.mul(nt64, bs_e2);
    let dim = kb.c_i64(p.dim);
    let nblocks = p.dim / bs;

    kb.for_each("ib", my_row, dim, stride, |kb, ib| {
        let dim_j = kb.c_i64(p.dim);
        let zero = kb.c_i64(0);
        let bs_step = kb.c_i64(bs);
        kb.for_each("jb", zero, dim_j, bs_step, |kb, jb| {
            // Zero the C tile.
            let tile_len = kb.c_i64(bs * bs);
            kb.for_range("z", tile_len, |kb, z| {
                let zf = kb.c_f32(0.0);
                kb.store_local(c_loc, z, zf);
            });

            // Loads a (A, B) tile pair into buffer set `which` with the
            // thread's own vectorized copy loop, as the paper's listings do
            // (Fig. 5 loads `A_local[...][m] = *((VECTOR*)&A[...])`).
            let copy_tiles = |kb: &mut KernelBuilder, which: usize, kb_e: nymble_ir::ExprId| {
                let rows = kb.c_i64(bs);
                kb.for_range("r", rows, |kb, r| {
                    // A row: BS scalars as BS/VL vector loads.
                    for cv in 0..(bs / vl) {
                        let row = kb.add(ib, r);
                        let dim_e = kb.c_i64(p.dim);
                        let rowd = kb.mul(row, dim_e);
                        let base = kb.add(rowd, kb_e);
                        let off = kb.c_i64(cv * vl);
                        let asrc = kb.add(base, off);
                        // Load once into a register, then scatter lanes
                        // (one vector load feeds four BRAM writes).
                        let av_tmp = kb.var("av_tmp", vty);
                        let av = kb.load(a, asrc, vty);
                        kb.set(av_tmp, av);
                        for l in 0..p.vec {
                            let avv = kb.get(av_tmp);
                            let lane = kb.lane(avv, l);
                            let bs_c = kb.c_i64(bs);
                            let adst0 = kb.mul(r, bs_c);
                            let lidx = kb.c_i64(cv * vl + l as i64);
                            let adst = kb.add(adst0, lidx);
                            kb.store_local(a_loc[which], adst, lane);
                        }
                        // Matching B row vector.
                        let brow = kb.add(kb_e, r);
                        let dim_e2 = kb.c_i64(p.dim);
                        let browd = kb.mul(brow, dim_e2);
                        let bbase = kb.add(browd, jb);
                        let boff = kb.c_i64(cv * vl);
                        let bsrc = kb.add(bbase, boff);
                        let bv_tmp = kb.var("bv_tmp", vty);
                        let bv = kb.load(b, bsrc, vty);
                        kb.set(bv_tmp, bv);
                        for l in 0..p.vec {
                            let bvv = kb.get(bv_tmp);
                            let lane = kb.lane(bvv, l);
                            let bs_c2 = kb.c_i64(bs);
                            let bdst0 = kb.mul(r, bs_c2);
                            let lidx = kb.c_i64(cv * vl + l as i64);
                            let bdst = kb.add(bdst0, lidx);
                            kb.store_local(b_loc[which], bdst, lane);
                        }
                    }
                });
            };

            // Prefetches a tile pair through the preloader DMA (Fig. 1's
            // dedicated engine) — the double-buffered version's mechanism
            // for overlapping the next block's transfer with compute.
            let prefetch_tiles = |kb: &mut KernelBuilder, which: usize, kb_e: nymble_ir::ExprId| {
                let rows = kb.c_i64(bs);
                kb.for_range("r", rows, |kb, r| {
                    let row = kb.add(ib, r);
                    let dim_e = kb.c_i64(p.dim);
                    let rowd = kb.mul(row, dim_e);
                    let asrc = kb.add(rowd, kb_e);
                    let bs_c = kb.c_i64(bs);
                    let adst = kb.mul(r, bs_c);
                    let alen = kb.c_i64(bs);
                    kb.preload(a_loc[which], a, asrc, adst, alen);
                    let brow = kb.add(kb_e, r);
                    let dim_e2 = kb.c_i64(p.dim);
                    let browd = kb.mul(brow, dim_e2);
                    let bsrc = kb.add(browd, jb);
                    let bs_c2 = kb.c_i64(bs);
                    let bdst = kb.mul(r, bs_c2);
                    let blen = kb.c_i64(bs);
                    kb.preload(b_loc[which], b, bsrc, bdst, blen);
                });
            };

            // Computes the current (A, B) tiles from buffer set `which`
            // into the C tile. Two independent accumulators (2-way unroll
            // over k) halve the adder-recurrence bound.
            let compute_tiles = |kb: &mut KernelBuilder, which: usize| {
                let rows = kb.c_i64(bs);
                kb.for_range("x", rows, |kb, x| {
                    let cols = kb.c_i64(bs);
                    kb.for_range("y", cols, |kb, y| {
                        let bs_c0 = kb.c_i64(bs);
                        let cidx0 = kb.mul(x, bs_c0);
                        let cidx = kb.add(cidx0, y);
                        let acc0 = kb.var("acc0", Type::F32);
                        let acc1 = kb.var("acc1", Type::F32);
                        let z0 = kb.c_f32(0.0);
                        kb.set(acc0, z0);
                        let z1 = kb.c_f32(0.0);
                        kb.set(acc1, z1);
                        let zero_v = kb.c_i64(0);
                        let vs = kb.c_i64(bs);
                        let two = kb.c_i64(2);
                        kb.for_each("v", zero_v, vs, two, |kb, v| {
                            for u in 0..2i64 {
                                let uoff = kb.c_i64(u);
                                let vu = kb.add(v, uoff);
                                let bs_c = kb.c_i64(bs);
                                let aidx0 = kb.mul(x, bs_c);
                                let aidx = kb.add(aidx0, vu);
                                let av = kb.load_local(a_loc[which], aidx, Type::F32);
                                let bs_c2 = kb.c_i64(bs);
                                let bidx0 = kb.mul(vu, bs_c2);
                                let bidx = kb.add(bidx0, y);
                                let bv = kb.load_local(b_loc[which], bidx, Type::F32);
                                let acc = if u == 0 { acc0 } else { acc1 };
                                let cur = kb.get(acc);
                                let s = kb.mul_add(av, bv, cur);
                                kb.set(acc, s);
                            }
                        });
                        let a0 = kb.get(acc0);
                        let a1 = kb.get(acc1);
                        let part = kb.bin(BinOp::Add, a0, a1);
                        let cprev = kb.load_local(c_loc, cidx, Type::F32);
                        let upd = kb.add(cprev, part);
                        kb.store_local(c_loc, cidx, upd);
                    });
                });
            };

            if !double_buffer {
                let dim_k = kb.c_i64(p.dim);
                let zero2 = kb.c_i64(0);
                let bstep = kb.c_i64(bs);
                kb.for_each("kb", zero2, dim_k, bstep, |kb, kb_e| {
                    copy_tiles(kb, 0, kb_e);
                    compute_tiles(kb, 0);
                });
            } else {
                // One extra iteration: prefetch block kbi while computing
                // block kbi-1 (Fig. 5's buffer rotation, realised as two
                // physical tile sets selected by parity).
                let nb1 = kb.c_i64(nblocks + 1);
                let zero2 = kb.c_i64(0);
                let one = kb.c_i64(1);
                kb.for_each("kbi", zero2, nb1, one, |kb, kbi| {
                    let nb = kb.c_i64(nblocks);
                    let in_range = kb.bin(BinOp::Lt, kbi, nb);
                    let two = kb.c_i64(2);
                    let par = kb.bin(BinOp::Rem, kbi, two);
                    let zero3 = kb.c_i64(0);
                    let even = kb.bin(BinOp::Eq, par, zero3);
                    kb.if_then(in_range, |kb| {
                        let bs_c = kb.c_i64(bs);
                        let kb_e = kb.mul(kbi, bs_c);
                        kb.if_(
                            even,
                            |kb| prefetch_tiles(kb, 0, kb_e),
                            |kb| prefetch_tiles(kb, 1, kb_e),
                        );
                    });
                    let zero4 = kb.c_i64(0);
                    let past_first = kb.bin(BinOp::Gt, kbi, zero4);
                    kb.if_then(past_first, |kb| {
                        // Parity of kbi-1 is the opposite of kbi's.
                        kb.if_(even, |kb| compute_tiles(kb, 1), |kb| compute_tiles(kb, 0));
                    });
                });
            }

            // Write the C tile back (one burst per row).
            let rows = kb.c_i64(bs);
            kb.for_range("wr", rows, |kb, r| {
                let row = kb.add(ib, r);
                let dim_e = kb.c_i64(p.dim);
                let rowd = kb.mul(row, dim_e);
                let cdst = kb.add(rowd, jb);
                let bs_c = kb.c_i64(bs);
                let csrc = kb.mul(r, bs_c);
                let clen = kb.c_i64(bs);
                kb.write_back(c_loc, c, cdst, csrc, clen);
            });
        });
    });
    kb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use nymble_ir::interp::{buffer_as_f32, Interpreter, LaunchArg};
    use nymble_ir::Value;

    fn small() -> GemmParams {
        GemmParams {
            dim: 16,
            threads: 2,
            vec: 4,
            block: 8,
        }
    }

    fn check_version(v: GemmVersion) {
        let p = small();
        let k = build(v, &p);
        let n = (p.dim * p.dim) as usize;
        let a = reference::gen_matrix(p.dim as usize, 1);
        let b = reference::gen_matrix(p.dim as usize, 2);
        let gold = reference::gemm(&a, &b, p.dim as usize);
        let to_vals = |m: &[f32]| m.iter().map(|&x| Value::F32(x)).collect::<Vec<_>>();
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(to_vals(&a)),
                LaunchArg::Buffer(to_vals(&b)),
                LaunchArg::Buffer(vec![Value::F32(0.0); n]),
            ],
        );
        let got = buffer_as_f32(&r.buffers[2]);
        for (i, (g, e)) in got.iter().zip(gold.iter()).enumerate() {
            assert!(
                (g - e).abs() <= 1e-3 * e.abs().max(1.0),
                "{v:?} mismatch at {i}: {g} vs {e}"
            );
        }
    }

    #[test]
    fn naive_matches_reference() {
        check_version(GemmVersion::Naive);
    }

    #[test]
    fn no_critical_matches_reference() {
        check_version(GemmVersion::NoCritical);
    }

    #[test]
    fn vectorized_matches_reference() {
        check_version(GemmVersion::Vectorized);
    }

    #[test]
    fn blocked_matches_reference() {
        check_version(GemmVersion::Blocked);
    }

    #[test]
    fn double_buffered_matches_reference() {
        check_version(GemmVersion::DoubleBuffered);
    }

    #[test]
    fn naive_uses_critical_sections() {
        let p = small();
        let k = build(GemmVersion::Naive, &p);
        let n = (p.dim * p.dim) as usize;
        let a = vec![Value::F32(1.0); n];
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(a.clone()),
                LaunchArg::Buffer(a),
                LaunchArg::Buffer(vec![Value::F32(0.0); n]),
            ],
        );
        assert_eq!(
            r.critical_entries,
            (p.dim * p.dim) as u64 * p.threads as u64,
            "one critical entry per (i, j, thread)"
        );
    }

    #[test]
    fn later_versions_have_no_critical_sections() {
        for v in [
            GemmVersion::NoCritical,
            GemmVersion::Vectorized,
            GemmVersion::Blocked,
            GemmVersion::DoubleBuffered,
        ] {
            let k = build(v, &small());
            let mut has_crit = false;
            nymble_ir::stmt::visit_stmts(&k.body, &mut |s| {
                if matches!(s, nymble_ir::Stmt::Critical { .. }) {
                    has_crit = true;
                }
            });
            assert!(!has_crit, "{v:?} must not contain critical sections");
        }
    }

    /// Whether each loop named `name` steers its static cost
    /// (`nymble_ir::loops::var_steers_cost`), in pre-order.
    fn steers(k: &Kernel, name: &str) -> Vec<bool> {
        let mut out = Vec::new();
        nymble_ir::stmt::visit_stmts(&k.body, &mut |s| {
            if let nymble_ir::Stmt::For { var, body, .. } = s {
                if k.var(*var).name == name {
                    out.push(nymble_ir::loops::var_steers_cost(k, body, *var));
                }
            }
        });
        assert!(!out.is_empty(), "no loop named {name}");
        out
    }

    #[test]
    fn double_buffered_block_loop_steers_cost() {
        let p = GemmParams {
            dim: 64,
            ..GemmParams::default()
        };
        let k = build(GemmVersion::DoubleBuffered, &p);
        // Parity and range guards read `kbi`.
        assert_eq!(steers(&k, "kbi"), [true]);
    }

    #[test]
    fn blocked_compute_loops_do_not_steer_cost() {
        let p = GemmParams {
            dim: 64,
            ..GemmParams::default()
        };
        let k = build(GemmVersion::Blocked, &p);
        // The tile compute touches local memory only.
        assert_eq!(steers(&k, "x"), [false]);
        assert_eq!(steers(&k, "y"), [false]);
        // The copy loop's external indices use `r`, `jb` and `kb`.
        assert_eq!(steers(&k, "r"), [true]);
        assert_eq!(steers(&k, "jb"), [true]);
        assert_eq!(steers(&k, "kb"), [true]);
    }

    #[test]
    #[should_panic(expected = "multiple of the vector width")]
    fn rejects_unaligned_dim() {
        let p = GemmParams {
            dim: 10,
            threads: 2,
            vec: 4,
            block: 2,
        };
        let _ = build(GemmVersion::Vectorized, &p);
    }
}
