//! The π infinite-series kernel of §V-D (Fig. 10).
//!
//! Each thread integrates `4/(1+x²)` over its contiguous slice of the step
//! range, with the inner loop unrolled `BS_compute` times into independent
//! per-lane accumulators, and finally reduces into `final_sum` inside a
//! critical section. The kernel stores the raw series sum; the host applies
//! the `step` scaling.
//!
//! This kernel's interesting behaviour is *scaling*, not memory: with the
//! host starting threads one after another (the simulator's
//! `launch_interval`), small iteration counts never reach full parallelism —
//! the Paraver state views of Figs. 11–13.

use nymble_ir::{Kernel, KernelBuilder, MapDir, ScalarType, Type};

/// Parameters of the π kernel.
#[derive(Clone, Copy, Debug)]
pub struct PiParams {
    /// Total series iterations (1M / 4M / 10M in Figs. 11–13).
    pub steps: u64,
    /// Hardware threads (8 in the paper).
    pub threads: u32,
    /// `BS_compute` unroll factor.
    pub bs: u32,
}

impl Default for PiParams {
    fn default() -> Self {
        PiParams {
            steps: 1_000_000,
            threads: 8,
            bs: 8,
        }
    }
}

impl PiParams {
    /// Check the shape constraints the kernel relies on; `build` panics
    /// with the returned message when they fail.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.threads == 0 || self.bs == 0 {
            return Err("the thread count and BS_compute must be positive");
        }
        if !self
            .steps
            .is_multiple_of(self.threads as u64 * self.bs as u64)
        {
            return Err("steps must divide evenly over threads × BS_compute");
        }
        Ok(())
    }
}

/// Build the π kernel. Arguments: `STEP` (f32 scalar), `STEPS_PER_THREAD`
/// (i64 scalar) and `FINAL_SUM` (1-element f32 `tofrom` buffer).
pub fn build(p: &PiParams) -> Kernel {
    if let Err(e) = p.validate() {
        panic!("{e}");
    }
    let mut kb = KernelBuilder::new("pi", p.threads);
    let step_arg = kb.scalar_arg("STEP", ScalarType::F32);
    let spt_arg = kb.scalar_arg("STEPS_PER_THREAD", ScalarType::I64);
    let final_sum = kb.buffer("FINAL_SUM", ScalarType::F32, MapDir::ToFrom);

    // int step_per_thread = steps / num_threads;
    // int start_i = thread_num * step_per_thread;
    let spt = kb.arg(spt_arg);
    let tid = kb.thread_id();
    let tid64 = kb.cast(ScalarType::I64, tid);
    let start_i = kb.mul(tid64, spt);

    // VECTOR sum = {0.0f}: BS_compute independent accumulators.
    let sums: Vec<_> = (0..p.bs)
        .map(|l| kb.var(&format!("sum{l}"), Type::F32))
        .collect();
    for &s in &sums {
        let z = kb.c_f32(0.0);
        kb.set(s, z);
    }
    // DTYPE local_step = step;
    let local_step = kb.var("local_step", Type::F32);
    let st = kb.arg(step_arg);
    kb.set(local_step, st);

    let zero = kb.c_i64(0);
    let end = kb.arg(spt_arg);
    let bs_step = kb.c_i64(p.bs as i64);
    kb.for_each("i", zero, end, bs_step, |kb, i| {
        for (j, &sum) in sums.iter().enumerate() {
            // x = ((DTYPE)(i + start_i + j) + 0.5f) * local_step;
            let base = kb.add(i, start_i);
            let joff = kb.c_i64(j as i64);
            let idx = kb.add(base, joff);
            let xf = kb.cast(ScalarType::F32, idx);
            let half = kb.c_f32(0.5);
            let xh = kb.add(xf, half);
            let ls = kb.get(local_step);
            let x = kb.mul(xh, ls);
            // sum[j] += 4.0f / (1.0f + x*x);
            let xx = kb.mul(x, x);
            let one = kb.c_f32(1.0);
            let den = kb.add(one, xx);
            let four = kb.c_f32(4.0);
            let term = kb.div(four, den);
            let cur = kb.get(sum);
            let acc = kb.add(cur, term);
            kb.set(sum, acc);
        }
    });

    // #pragma omp critical: final_sum += sum[i] for all lanes.
    kb.critical(|kb| {
        let zero = kb.c_i64(0);
        let mut cur = kb.load(final_sum, zero, Type::F32);
        for &s in &sums {
            let sv = kb.get(s);
            cur = kb.add(cur, sv);
        }
        let zero2 = kb.c_i64(0);
        kb.store(final_sum, zero2, cur);
    });
    kb.finish()
}

/// Launch scalar values for the kernel: `(STEP, STEPS_PER_THREAD)`.
pub fn launch_scalars(p: &PiParams) -> (f32, i64) {
    (1.0f32 / p.steps as f32, (p.steps / p.threads as u64) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use nymble_ir::interp::{Interpreter, LaunchArg};
    use nymble_ir::Value;

    #[test]
    fn matches_reference_series() {
        let p = PiParams {
            steps: 64_000,
            threads: 4,
            bs: 8,
        };
        let k = build(&p);
        let (step, spt) = launch_scalars(&p);
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Scalar(Value::F32(step)),
                LaunchArg::Scalar(Value::I64(spt)),
                LaunchArg::Buffer(vec![Value::F32(0.0)]),
            ],
        );
        let raw = r.buffers[2].to_f32()[0];
        let got = raw * step;
        let expect = reference::pi_series(p.steps, p.threads, p.bs);
        assert!(
            (got - expect).abs() < 1e-4,
            "kernel {got} vs reference {expect}"
        );
        assert!(
            (got - std::f32::consts::PI).abs() < 1e-2,
            "π estimate {got}"
        );
        // One critical entry per thread (the final reduction).
        assert_eq!(r.critical_entries, p.threads as u64);
    }

    #[test]
    fn flop_count_tracks_iterations() {
        let p = PiParams {
            steps: 8_000,
            threads: 2,
            bs: 4,
        };
        let k = build(&p);
        let (step, spt) = launch_scalars(&p);
        let r = Interpreter::run(
            &k,
            &[
                LaunchArg::Scalar(Value::F32(step)),
                LaunchArg::Scalar(Value::I64(spt)),
                LaunchArg::Buffer(vec![Value::F32(0.0)]),
            ],
        );
        // 6 flops per iteration (add-half, ×step, x², 1+, 4/, accumulate)
        // plus the final per-lane reduction adds.
        let expected = p.steps * reference::PI_FLOPS_PER_ITER;
        let slack = (p.threads * p.bs + p.threads) as u64 + 4;
        assert!(
            r.ops.flops >= expected && r.ops.flops <= expected + slack,
            "flops {} vs expected ~{expected}",
            r.ops.flops
        );
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn rejects_ragged_division() {
        let _ = build(&PiParams {
            steps: 1000,
            threads: 3,
            bs: 8,
        });
    }

    #[test]
    fn validate_rejects_zero_threads_and_unroll() {
        let p = PiParams::default();
        let positive = Err("the thread count and BS_compute must be positive");
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(PiParams { threads: 0, ..p }.validate(), positive);
        assert_eq!(PiParams { bs: 0, ..p }.validate(), positive);
    }
}
