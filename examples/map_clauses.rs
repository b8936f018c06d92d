//! The §III-A data-transfer story: Nymble's old frontend "pessimistically
//! assum[ed] that all data had to be transferred to the FPGA and back";
//! OpenMP `map` clauses let the user say exactly what moves. This example
//! prices both strategies for the GEMM launch and shows the end-to-end
//! difference.
//!
//! ```sh
//! cargo run --release --example map_clauses
//! ```

use hls_paraver::ir::{KernelBuilder, MapDir, ScalarType};
use hls_paraver::sim::host::{end_to_end_cycles, transfer_cost, HostConfig};
use hls_paraver::sim::SimConfig;
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::session::write_stdout("map_clauses", run)
}

fn run(w: &mut impl Write) -> io::Result<()> {
    let dim = 512usize;
    let n = dim * dim;
    let host = HostConfig::default();
    let sim = SimConfig::default();

    // Precise mapping, as in the paper's Fig. 3 listing:
    //   map(to: A, B) map(from: C)
    let precise = {
        let mut kb = KernelBuilder::new("gemm_precise_maps", 8);
        let _a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let _b = kb.buffer("B", ScalarType::F32, MapDir::To);
        let _c = kb.buffer("C", ScalarType::F32, MapDir::From);
        kb.finish()
    };
    // The legacy pessimistic assumption: everything tofrom.
    let pessimistic = {
        let mut kb = KernelBuilder::new("gemm_pessimistic", 8);
        let _a = kb.buffer("A", ScalarType::F32, MapDir::ToFrom);
        let _b = kb.buffer("B", ScalarType::F32, MapDir::ToFrom);
        let _c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
        kb.finish()
    };

    let lens = [n, n, n];
    let p = transfer_cost(&precise, &lens, &host);
    let q = transfer_cost(&pessimistic, &lens, &host);
    // Kernel cycles from the paper-scale measurement (EXPERIMENTS.md).
    let kernel_cycles = 69_898_123u64; // double-buffered GEMM @512

    writeln!(
        w,
        "GEMM {dim}x{dim} launch, f32 ({} MB per matrix)\n",
        n * 4 / 1_000_000
    )?;
    for (name, c) in [
        ("map(to:A,B) map(from:C)", &p),
        ("pessimistic tofrom all", &q),
    ] {
        writeln!(
            w,
            "{name:<26} H2D {:>9} cy ({:>8} B)   D2H {:>9} cy ({:>8} B)   end-to-end {:>10} cy",
            c.h2d_cycles,
            c.h2d_bytes,
            c.d2h_cycles,
            c.d2h_bytes,
            end_to_end_cycles(kernel_cycles, c, &sim)
        )?;
    }
    let saved = q.total_cycles() - p.total_cycles();
    writeln!(w,
        "\nprecise map clauses save {saved} cycles ({:.2} ms at {} MHz) per launch — {:.1}% of this kernel's runtime",
        sim.cycles_to_seconds(saved) * 1e3,
        sim.clock_mhz,
        saved as f64 / kernel_cycles as f64 * 100.0
    )?;
    Ok(())
}
