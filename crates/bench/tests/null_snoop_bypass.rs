//! `Executor::run` steps a `NullSnoop` run with its own statistics observer
//! alone, skipping the snoop ring. A run observed by a pass-through tap
//! takes the ring path; both must report the same simulation.

use bench::{gemm_launch, gemm_sim_config, pi_launch, pi_sim_config, spmv_launch, spmv_sim_config};
use fpga_sim::memimg::LaunchArg;
use fpga_sim::{Executor, NullSnoop, RunResult, SimConfig, Snoop, ThreadState};
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use kernels::spmv::{self, Csr};
use nymble_hls::accel::{compile, HlsConfig};
use nymble_ir::Kernel;

/// Counts every signal it sees and taps every wire, so the executor
/// cannot treat it as null.
#[derive(Default)]
struct Counting {
    signals: u64,
    run_ends: u64,
}

impl Snoop for Counting {
    fn state_change(&mut self, _t: u64, _tid: u32, _state: ThreadState) {
        self.signals += 1;
    }
    fn stall(&mut self, _t: u64, _tid: u32, _cycles: u64) {
        self.signals += 1;
    }
    fn ops(&mut self, _t: u64, _tid: u32, _int_ops: u64, _flops: u64, _local_ops: u64) {
        self.signals += 1;
    }
    fn mem_read(&mut self, _t: u64, _tid: u32, _bytes: u64) {
        self.signals += 1;
    }
    fn mem_write(&mut self, _t: u64, _tid: u32, _bytes: u64) {
        self.signals += 1;
    }
    fn iteration(&mut self, _t: u64, _tid: u32) {
        self.signals += 1;
    }
    fn run_end(&mut self, _t: u64) {
        self.run_ends += 1;
    }
}

/// Run `kernel` with `NullSnoop` and with a counting tap; assert both
/// report the same cycles, statistics, device wakes and buffers. Returns
/// the `NullSnoop` result.
fn assert_bypass_matches(kernel: &Kernel, sim: &SimConfig, launch: &[LaunchArg]) -> RunResult {
    let accel = compile(kernel, &HlsConfig::default());
    let null = Executor::run(kernel, &accel, sim, launch, &mut NullSnoop).expect("null run");
    let mut tap = Counting::default();
    let tapped = Executor::run(kernel, &accel, sim, launch, &mut tap).expect("tapped run");
    let name = &kernel.name;
    assert!(tap.signals > 0, "{name}: the tap saw no signal");
    assert_eq!(tap.run_ends, 1, "{name}: run_end reaches the tap once");
    assert_eq!(
        null.total_cycles, tapped.total_cycles,
        "{name}: total_cycles"
    );
    assert_eq!(null.stats, tapped.stats, "{name}: stats");
    assert_eq!(null.devices, tapped.devices, "{name}: devices");
    assert_eq!(null.buffers, tapped.buffers, "{name}: buffers");
    // Equal stats could both be empty: the null run must still derive
    // every thread's timeline from the signal stream.
    assert_eq!(null.stats.per_thread.len(), kernel.num_threads as usize);
    for (row, t) in null.stats.per_thread.iter().enumerate() {
        assert!(
            t.end_cycle > t.start_cycle,
            "{name}: stats row {row} has no timeline"
        );
        assert!(t.end_cycle <= null.total_cycles, "{name}: stats row {row}");
    }
    assert!(
        null.stats.total(|t| t.iterations) > 0,
        "{name}: no iterations counted"
    );
    null
}

#[test]
fn gemm_versions_match_through_the_bypass() {
    let p = GemmParams {
        dim: 16,
        threads: 8,
        ..GemmParams::default()
    };
    for &v in GemmVersion::ALL.iter() {
        let r = assert_bypass_matches(&gemm::build(v, &p), &gemm_sim_config(), &gemm_launch(&p));
        assert!(r.stats.total_flops() > 0, "{}", v.name());
    }
}

#[test]
fn pi_matches_through_the_bypass() {
    let p = PiParams {
        steps: 4096,
        threads: 8,
        ..PiParams::default()
    };
    let r = assert_bypass_matches(&pi::build(&p), &pi_sim_config(), &pi_launch(&p));
    assert!(r.stats.total(|t| t.critical_entries) > 0);
}

#[test]
fn gather_heavy_spmv_matches_through_the_bypass() {
    // Column indices spread over a 4096-wide vector: most gathers miss the
    // line buffer and wait for a DRAM channel grant.
    let m = Csr::random(128, 4096, 16, 3);
    let r = assert_bypass_matches(
        &spmv::build(m.rows as i64, 64),
        &spmv_sim_config(),
        &spmv_launch(&m),
    );
    assert!(r.devices.channel_grant_wakes > 0, "{:?}", r.devices);
}
