//! Bring-your-own-kernel walkthrough: a Jacobi stencil written against the
//! builder API, statically checked with `nymble-lint`, functionally
//! verified with the untimed gold interpreter, then profiled on the timed
//! simulator — the recommended workflow for any new workload.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use hls_paraver::hls::accel::{compile, HlsConfig};
use hls_paraver::hls::report;
use hls_paraver::ir::interp::{buffer_as_f32, Interpreter, LaunchArg as GoldArg};
use hls_paraver::ir::{KernelBuilder, MapDir, ScalarType, Value};
use hls_paraver::kernels::{extra, reference};
use hls_paraver::lint::{enforce, strict_check, LintLevel};
use hls_paraver::paraver::{analysis, events};
use hls_paraver::profiling::{ProfilingConfig, ProfilingUnit};
use hls_paraver::sim::memimg::LaunchArg;
use hls_paraver::sim::{Executor, SimConfig};

fn main() {
    let n = 96usize;
    let threads = 6;

    // Step 0: static analysis. The builder's opt-in strict mode runs the
    // analyzer as part of `finish()` — a kernel where every thread writes
    // the same elements never gets out of the front door.
    let mut kb = KernelBuilder::new("racy_demo", 2);
    kb.set_strict_check(strict_check(LintLevel::Deny));
    let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
    let end = kb.c_i64(4);
    kb.for_range("i", end, |kb, i| {
        let v = kb.c_f32(1.0);
        kb.store(out, i, v); // both threads write OUT[0..4): NL001
    });
    let refused = kb.try_finish().expect_err("strict mode rejects the race");
    println!("strict mode refused the racy demo kernel:\n{refused}\n");

    let kernel = extra::jacobi(n as i64, threads);
    let grid = reference::gen_matrix(n, 11);
    let vals = |m: &[f32]| m.iter().map(|&x| Value::F32(x)).collect::<Vec<_>>();

    // Step 1: functional verification against the gold interpreter.
    let gold = Interpreter::run(
        &kernel,
        &[
            GoldArg::Buffer(vals(&grid)),
            GoldArg::Buffer(vec![Value::F32(0.0); n * n]),
        ],
    );
    let expect = reference::jacobi_sweep(&grid, n);
    let got = buffer_as_f32(&gold.buffers[1]);
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            assert!((got[i * n + j] - expect[i * n + j]).abs() < 1e-5);
        }
    }
    println!(
        "gold model matches CPU reference ({} flops)",
        gold.ops.flops
    );

    // Step 2: gate, compile and inspect the schedule. The caller gates the
    // compile with the same analyzer — the stencil is clean, so `deny`
    // costs nothing and would catch regressions.
    if let Err(report) = enforce(&kernel, LintLevel::Deny) {
        panic!("lint gate rejected the stencil:\n{report}");
    }
    let acc = compile(&kernel, &HlsConfig::default());
    println!("\n{}", report::schedule_report(&kernel, &acc));

    // Step 3: timed, profiled run.
    let sim = SimConfig::default().with_fast_launch();
    let mut unit = ProfilingUnit::new(&kernel.name, threads, ProfilingConfig::default());
    let r = Executor::run(
        &kernel,
        &acc,
        &sim,
        &[
            LaunchArg::Buffer(vals(&grid)),
            LaunchArg::Buffer(vec![Value::F32(0.0); n * n]),
        ],
        &mut unit,
    )
    .expect("simulation failed");
    let trace = unit.finish();
    println!(
        "{} cycles, {:.3} GB/s, line-buffer hit rate {:.0}% (the four stencil taps share one port buffer)",
        r.total_cycles,
        r.throughput_gbps(&sim),
        r.stats.read_hit_rate() * 100.0
    );

    // Step 4: what would the trace tell us? Stall intensity over time.
    let dur = trace.meta.duration.max(1);
    let stalls = analysis::event_series(&trace.records, events::STALLS, dur.div_ceil(60), dur);
    println!(
        "\n{}",
        hls_paraver::paraver::timeline::render_series(
            &stalls.bins.iter().map(|&b| b as f64).collect::<Vec<_>>(),
            "stall cycles"
        )
    );
    println!(
        "total stall fraction {:.1}% — the stencil is memory-latency-bound",
        r.stats.total_stalls() as f64 / (r.total_cycles as f64 * threads as f64) * 100.0
    );
}
