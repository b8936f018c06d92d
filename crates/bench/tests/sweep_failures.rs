//! Failure rows of the sweep tables: a run the simulator rejects, or a
//! bundle that cannot be written, becomes one `"{row label} failed: {e}"`
//! line in submission order instead of aborting the sweep. The whole table
//! text is pinned, header included.

use bench::sweep::{
    gemm_sweep, pi_sweep, spmv_sweep, GemmSweepConfig, PiSweepConfig, SpmvSweepConfig,
};
use bench::{gemm_sim_config, pi_sim_config, spmv_sim_config};
use fpga_sim::SimConfig;
use hls_profiling::{PipelineConfig, ProfilingConfig};
use kernels::gemm::{GemmParams, GemmVersion};
use kernels::spmv::Csr;
use nymble_hls::HlsConfig;

const BAD_CLOCK: &str =
    "failed: invalid simulator configuration: clock_mhz must be a positive finite frequency, got 0";

/// `base` with a zero clock, which `SimConfig::validate` rejects.
fn stopped_clock(base: SimConfig) -> SimConfig {
    SimConfig {
        clock_mhz: 0.0,
        ..base
    }
}

fn gemm_cfg(sim: SimConfig, out: Option<std::path::PathBuf>) -> GemmSweepConfig {
    GemmSweepConfig {
        params: GemmParams {
            dim: 16,
            threads: 2,
            vec: 4,
            block: 8,
        },
        hls: HlsConfig::default(),
        sim,
        prof: ProfilingConfig::default(),
        pipeline: PipelineConfig::default(),
        out,
        jobs: 2,
    }
}

#[test]
fn gemm_sweep_renders_a_failed_row_per_rejected_run() {
    let sweep = gemm_sweep(&gemm_cfg(stopped_clock(gemm_sim_config()), None));
    let expected = format!(
        "version                          cycles  vs naive   vs prev     GB/s    spin%    crit%\n\
         Naive                    {BAD_CLOCK}\n\
         No Critical Sections     {BAD_CLOCK}\n\
         Partial Vectorization    {BAD_CLOCK}\n\
         Blocked                  {BAD_CLOCK}\n\
         Double Buffering         {BAD_CLOCK}\n"
    );
    assert_eq!(sweep.table, expected);
    assert!(sweep.runs.iter().all(|(_, r)| r.outcome.is_err()));
}

#[test]
fn pi_sweep_renders_a_failed_row_per_rejected_run() {
    let sweep = pi_sweep(&PiSweepConfig {
        steps: vec![20_000, 50_000],
        threads: 2,
        bs: 8,
        hls: HlsConfig::default(),
        sim: stopped_clock(pi_sim_config()),
        prof: ProfilingConfig::default(),
        pipeline: PipelineConfig::default(),
        out: None,
        jobs: 2,
    });
    let expected = format!(
        "       steps         cycles         pi    GFLOP/s\n\
         \x20      20000 {BAD_CLOCK}\n\
         \x20      50000 {BAD_CLOCK}\n"
    );
    assert_eq!(sweep.table, expected);
    assert_eq!(sweep.runs.len(), 2);
}

#[test]
fn spmv_sweep_renders_a_failed_row_per_rejected_run() {
    let sweep = spmv_sweep(&SpmvSweepConfig {
        matrix: Csr::random(16, 16, 2, 5),
        threads: vec![2, 4],
        hls: HlsConfig::default(),
        sim: stopped_clock(spmv_sim_config()),
        prof: ProfilingConfig::default(),
        out: None,
        jobs: 2,
    });
    let expected = format!(
        " threads         cycles       analytic     err%     GB/s    spin%\n\
         \x20      2 {BAD_CLOCK}\n\
         \x20      4 {BAD_CLOCK}\n"
    );
    assert_eq!(sweep.table, expected);
    assert_eq!(sweep.runs.len(), 2);
}

#[test]
fn an_unwritable_bundle_fails_the_row_but_not_the_run() {
    let dir = std::env::temp_dir().join(format!("sweep-failures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("file");
    std::fs::write(&blocker, b"x").unwrap();
    let sweep = gemm_sweep(&gemm_cfg(gemm_sim_config(), Some(blocker.join("traces"))));
    let mut lines = sweep.table.lines();
    assert!(lines.next().unwrap().starts_with("version "));
    for (v, row) in GemmVersion::ALL.iter().zip(lines) {
        let prefix = format!("{:<24} failed: ", v.name());
        assert!(row.starts_with(&prefix), "{row}");
    }
    assert_eq!(sweep.table.lines().count(), 1 + GemmVersion::ALL.len());
    for (v, r) in &sweep.runs {
        assert!(r.outcome.is_ok(), "{}: the simulation itself ran", v.name());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
