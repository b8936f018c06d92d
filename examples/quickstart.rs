//! Quickstart: compile a small kernel with the Nymble-style HLS flow, run it
//! on the cycle-level FPGA simulator with the profiling unit attached, and
//! write + inspect a Paraver trace.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hls_paraver::hls::accel::{compile, HlsConfig};
use hls_paraver::hls::report;
use hls_paraver::ir::{KernelBuilder, MapDir, ScalarType, Type, Value};
use hls_paraver::paraver::analysis::StateProfile;
use hls_paraver::paraver::timeline::{render_states, TimelineOptions};
use hls_paraver::profiling::{ProfilingConfig, ProfilingUnit};
use hls_paraver::sim::memimg::LaunchArg;
use hls_paraver::sim::{Executor, SimConfig};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::session::write_stdout("quickstart", run)
}

fn run(w: &mut impl Write) -> io::Result<()> {
    // 1. Write a kernel with the OpenMP-flavoured builder: a dot product
    //    over 4 hardware threads with a critical-section reduction.
    let n = 4096i64;
    let mut kb = KernelBuilder::new("quickstart_dot", 4);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let b = kb.buffer("B", ScalarType::F32, MapDir::To);
    let out = kb.buffer("OUT", ScalarType::F32, MapDir::ToFrom);
    let sum = kb.var("sum", Type::F32);
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
        let z = kb.c_i64(0);
        let cur = kb.load(out, z, Type::F32);
        let sv = kb.get(sum);
        let upd = kb.add(cur, sv);
        let z2 = kb.c_i64(0);
        kb.store(out, z2, upd);
    });
    let kernel = kb.finish();

    // 2. Compile: scheduling, stage formation, fit estimation.
    let acc = compile(&kernel, &HlsConfig::default());
    writeln!(w, "{}", report::schedule_report(&kernel, &acc))?;
    writeln!(w, "{}", report::fit_summary(&kernel.name, &acc.fit))?;

    // 3. Run on the simulator with the profiling unit snooping the pipeline.
    let sim = SimConfig::default().with_fast_launch();
    let mut unit = ProfilingUnit::new(&kernel.name, kernel.num_threads, ProfilingConfig::default());
    let launch = vec![
        LaunchArg::Buffer((0..n).map(|i| Value::F32(i as f32 * 1e-3)).collect()),
        LaunchArg::Buffer(
            (0..n)
                .map(|i| Value::F32(((i % 7) as f32) * 0.25))
                .collect(),
        ),
        LaunchArg::Buffer(vec![Value::F32(0.0)]),
    ];
    let result = Executor::run(&kernel, &acc, &sim, &launch, &mut unit).expect("simulation failed");
    writeln!(
        w,
        "result = {:?} after {} cycles ({} stall cycles, {} B read)",
        result.buffers[2].to_f32()[0],
        result.total_cycles,
        result.stats.total_stalls(),
        result.stats.total(|t| t.bytes_read),
    )?;

    // 4. Decode the trace buffer into Paraver records and look at it.
    let trace = unit.finish();
    let stem = std::path::Path::new("target/traces/quickstart");
    std::fs::create_dir_all(stem.parent().unwrap()).unwrap();
    trace.write_bundle(stem).unwrap();
    writeln!(
        w,
        "\nwrote {}.prv/.pcf/.row ({} records, {} trace bytes flushed)\n",
        stem.display(),
        trace.records.len(),
        trace.flushed_bytes
    )?;
    let opts = TimelineOptions {
        width: 80,
        ..Default::default()
    };
    writeln!(
        w,
        "{}",
        render_states(
            &trace.records,
            kernel.num_threads,
            trace.meta.duration,
            &opts
        )
    )?;
    let prof = StateProfile::compute(&trace.records, kernel.num_threads);
    writeln!(
        w,
        "running {:.1}%  spinning {:.1}%  critical {:.1}%",
        prof.fraction(hls_paraver::paraver::states::RUNNING) * 100.0,
        prof.fraction(hls_paraver::paraver::states::SPINNING) * 100.0,
        prof.fraction(hls_paraver::paraver::states::CRITICAL) * 100.0,
    )?;
    Ok(())
}
