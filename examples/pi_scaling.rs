//! The §V-D scaling study as an interactive example: sweep the π kernel's
//! iteration count and watch the thread-launch ramp dissolve into parallel
//! execution (Figs. 11–13), entirely from the Paraver state view.
//!
//! ```sh
//! cargo run --release --example pi_scaling
//! ```

use hls_paraver::hls::accel::{compile, HlsConfig};
use hls_paraver::ir::Value;
use hls_paraver::kernels::pi::{build, launch_scalars, PiParams};
use hls_paraver::paraver::timeline::{render_states, TimelineOptions};
use hls_paraver::profiling::{ProfilingConfig, ProfilingUnit};
use hls_paraver::sim::memimg::LaunchArg;
use hls_paraver::sim::{Executor, SimConfig};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::session::write_stdout("pi_scaling", run)
}

fn run(w: &mut impl Write) -> io::Result<()> {
    let sim = SimConfig::default();
    writeln!(
        w,
        "host starts one thread every {} cycles — small workloads never reach full parallelism\n",
        sim.timing.launch_interval
    )?;
    for steps in [1_000_000u64, 4_000_000, 10_000_000, 40_000_000] {
        let p = PiParams {
            steps,
            threads: 8,
            bs: 8,
        };
        let kernel = build(&p);
        let acc = compile(&kernel, &HlsConfig::default());
        let (step, spt) = launch_scalars(&p);
        let mut unit = ProfilingUnit::new(
            &kernel.name,
            kernel.num_threads,
            ProfilingConfig {
                sampling_period: 100_000,
                ..Default::default()
            },
        );
        let launch = vec![
            LaunchArg::Scalar(Value::F32(step)),
            LaunchArg::Scalar(Value::I64(spt)),
            LaunchArg::Buffer(vec![Value::F32(0.0)]),
        ];
        let r = Executor::run(&kernel, &acc, &sim, &launch, &mut unit).expect("simulation failed");
        let trace = unit.finish();
        let est = r.buffers[2].to_f32()[0] * step;
        writeln!(
            w,
            "-- {steps} iterations: {:.3} GFLOP/s, pi = {est:.6} --",
            r.gflops(&sim)
        )?;
        let opts = TimelineOptions {
            width: 90,
            axis: false,
            ..Default::default()
        };
        writeln!(
            w,
            "{}",
            render_states(&trace.records, p.threads, trace.meta.duration, &opts)
        )?;
    }
    writeln!(
        w,
        "(R bars lengthen and overlap as iteration counts grow — Figs. 11 → 13)"
    )?;
    Ok(())
}
