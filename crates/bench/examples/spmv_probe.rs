//! Calibration probe for the analytical model's SpMV contention term:
//! prints simulated vs. predicted cycles plus the simulator's memory
//! counters (line fetches/hits, contended DRAM grants, stalls) over a
//! small matrix-shape × thread-count grid. This is the tool the
//! restart-contention constants in `nymble_hls::perf` were
//! fitted with — rerun it after touching the memory system or the model
//! to see where the error moved before the ±15% validation suite
//! (`crates/bench/tests/analytic_validation.rs`) turns red.
//!
//! `cargo run --release -p bench --example spmv_probe`

use bench::{analytic_report, spmv_launch, spmv_sim_config};
use kernels::spmv::{self, Csr};
use nymble_hls::AccelCache;

fn probe(rows: usize, cols: usize, nnz: usize, threads: u32) {
    let m = Csr::random(rows, cols, nnz, 7);
    let k = spmv::build(m.rows as i64, threads);
    let sim = spmv_sim_config();
    let launch = spmv_launch(&m);
    let cache = AccelCache::new();
    let report = analytic_report(&cache, &k, &sim, &launch).expect("resolvable");
    let accel = cache.get_or_compile(&k, &nymble_hls::HlsConfig::default());
    let run = fpga_sim::Executor::run(&k, &accel, &sim, &launch, &mut fpga_sim::NullSnoop).unwrap();
    let err = (report.total_cycles as f64 - run.total_cycles as f64) / run.total_cycles as f64;
    let s = &run.stats;
    println!(
        "rows={rows} nnz={nnz} T={threads}: sim {} est {} err {:+.1}% | fetches {} hits {} contended {} reqs {} stalls {}",
        run.total_cycles, report.total_cycles, err * 100.0,
        s.line_fetches, s.line_hits, s.dram_contended, s.read_requests,
        s.total_stalls(),
    );
}

fn main() {
    probe(64, 256, 8, 1);
    probe(64, 256, 8, 2);
    probe(128, 256, 8, 4);
    probe(256, 256, 8, 8);
    probe(384, 64, 4, 4);
    probe(256, 256, 16, 8);
}
