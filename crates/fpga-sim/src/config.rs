//! Simulator configuration.

use crate::error::SimError;
use nymble_hls::perf::Timing;

/// Timing parameters of the simulated platform (defaults approximate the
/// paper's Intel D5005 PAC: Stratix 10, four DDR4 banks behind a 512-bit
/// Avalon interconnect, accelerator clock in the 140–150 MHz band).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Accelerator clock in MHz (the paper's designs close timing at
    /// 140–148 MHz; used only to convert cycles to seconds/GB/s/GFLOP/s).
    pub clock_mhz: f64,
    /// DRAM access latency in cycles (request to first data).
    pub dram_latency: u64,
    /// DRAM channel payload per cycle in bytes (512-bit interface = 64 B).
    pub dram_bytes_per_cycle: u32,
    /// DRAM burst/line granularity in bytes; every miss fetches a full line.
    pub dram_line_bytes: u32,
    /// Number of interleaved banks (a second request to a busy bank waits).
    pub dram_banks: u32,
    /// Extra busy time a bank holds after serving a line (precharge).
    pub dram_bank_busy: u64,
    /// Cycles between successive hardware-thread starts performed by host
    /// software (§V-D: "the overhead of starting the individual threads by
    /// the software causes the earliest threads to be finished before last
    /// ones are even started").
    pub launch_interval: u64,
    /// Semaphore acquire round trip over the Avalon bus, in cycles.
    pub sem_acquire_latency: u64,
    /// Semaphore release cost in cycles.
    pub sem_release_latency: u64,
    /// Re-poll interval while spinning on a held semaphore.
    pub spin_retry_interval: u64,
    /// Barrier release latency once the last thread arrives.
    pub barrier_latency: u64,
    /// Issue width for sequential (non-pipelined) statement execution.
    pub seq_issue_width: u32,
    /// Fixed cost per sequential statement (control overhead).
    pub stmt_base_cost: u64,
    /// Preloader DMA descriptor issue cost, in cycles.
    pub burst_issue_cost: u64,
    /// Scheduler-assumed minimum external-load latency (must match the
    /// `ExtLoad` operator latency used at schedule time).
    pub assumed_load_latency: u64,
    /// Per-burst setup cost of the preloader DMA engine (descriptor fetch
    /// plus DRAM row activation for the strided row), in cycles.
    pub dma_setup: u64,
    /// XOR-fold the DRAM bank index (real controllers do; disabling it
    /// shows why: power-of-2 strides collapse onto one bank). Ablation knob.
    pub dram_bank_hash: bool,
    /// Per-(thread, buffer) one-line read buffers in front of the ports
    /// (Nymble's "(cached) memory accesses"). Ablation knob.
    pub line_buffers: bool,
    /// Outstanding line fetches one thread's read port sustains (Avalon
    /// pipelined-read depth / MSHRs). Bounds intra-thread memory-level
    /// parallelism: the reason the paper's *Partial Vectorization* gains
    /// ~2× rather than the full 4× of its width.
    pub port_mshrs: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        let t = Timing::default();
        SimConfig {
            clock_mhz: 148.0,
            dram_latency: t.dram_latency,
            dram_bytes_per_cycle: t.dram_bytes_per_cycle,
            dram_line_bytes: t.dram_line_bytes,
            dram_banks: t.dram_banks,
            dram_bank_busy: t.dram_bank_busy,
            launch_interval: t.launch_interval,
            sem_acquire_latency: t.sem_acquire_latency,
            sem_release_latency: t.sem_release_latency,
            spin_retry_interval: 16,
            barrier_latency: t.barrier_latency,
            seq_issue_width: t.seq_issue_width,
            stmt_base_cost: t.stmt_base_cost,
            burst_issue_cost: t.burst_issue_cost,
            dma_setup: t.dma_setup,
            assumed_load_latency: t.assumed_load_latency,
            dram_bank_hash: true,
            line_buffers: t.line_buffers,
            port_mshrs: 2,
        }
    }
}

impl SimConfig {
    /// Clock frequency in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_mhz * 1e6
    }

    /// Convert a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz()
    }

    /// The timing fields the static cost walker prices against
    /// ([`nymble_hls::perf`]), so static predictions and a run share one
    /// machine description.
    pub fn timing(&self) -> Timing {
        Timing {
            dram_latency: self.dram_latency,
            dram_bytes_per_cycle: self.dram_bytes_per_cycle,
            dram_line_bytes: self.dram_line_bytes,
            dram_banks: self.dram_banks,
            dram_bank_busy: self.dram_bank_busy,
            launch_interval: self.launch_interval,
            sem_acquire_latency: self.sem_acquire_latency,
            sem_release_latency: self.sem_release_latency,
            barrier_latency: self.barrier_latency,
            seq_issue_width: self.seq_issue_width,
            stmt_base_cost: self.stmt_base_cost,
            burst_issue_cost: self.burst_issue_cost,
            assumed_load_latency: self.assumed_load_latency,
            dma_setup: self.dma_setup,
            line_buffers: self.line_buffers,
        }
    }

    /// A configuration with negligible host launch overhead, for experiments
    /// where the problem has been scaled down relative to the paper's (the
    /// fixed software cost would otherwise dominate artificially).
    pub fn with_fast_launch(mut self) -> Self {
        self.launch_interval = 200;
        self
    }

    /// Check the configuration before a run starts.
    ///
    /// The executor used to paper over a zero `seq_issue_width` with a
    /// silent `.max(1)` clamp; a zero there (or in any of the capacities
    /// below) is a misconfiguration, not a request for the minimum, so it is
    /// rejected up front. `launch_interval == 0` stays legal — it means all
    /// threads start together.
    pub fn validate(&self) -> Result<(), SimError> {
        fn nonzero(value: u64, name: &str) -> Result<(), SimError> {
            if value == 0 {
                return Err(SimError::InvalidConfig(format!(
                    "{name} must be nonzero (use 1 for the minimum, not 0)"
                )));
            }
            Ok(())
        }
        if !(self.clock_mhz.is_finite() && self.clock_mhz > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "clock_mhz must be a positive finite frequency, got {}",
                self.clock_mhz
            )));
        }
        nonzero(self.seq_issue_width as u64, "seq_issue_width")?;
        nonzero(self.port_mshrs as u64, "port_mshrs")?;
        nonzero(self.dram_bytes_per_cycle as u64, "dram_bytes_per_cycle")?;
        nonzero(self.dram_line_bytes as u64, "dram_line_bytes")?;
        nonzero(self.dram_banks as u64, "dram_banks")?;
        // A zero re-poll interval would re-grant the semaphore to the same
        // releasing thread's timestamp forever (a livelock in the model).
        nonzero(self.spin_retry_interval, "spin_retry_interval")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = SimConfig::default();
        assert!(c.clock_mhz > 0.0);
        assert_eq!(c.dram_bytes_per_cycle, 64, "512-bit interface");
        assert!(c.assumed_load_latency < c.dram_latency);
    }

    #[test]
    fn validate_accepts_defaults_and_zero_launch_interval() {
        assert!(SimConfig::default().validate().is_ok());
        let together = SimConfig {
            launch_interval: 0,
            ..Default::default()
        };
        assert!(together.validate().is_ok(), "0 = all threads start at once");
    }

    #[test]
    fn validate_rejects_zero_capacities() {
        for (name, cfg) in [
            (
                "seq_issue_width",
                SimConfig {
                    seq_issue_width: 0,
                    ..Default::default()
                },
            ),
            (
                "port_mshrs",
                SimConfig {
                    port_mshrs: 0,
                    ..Default::default()
                },
            ),
            (
                "dram_bytes_per_cycle",
                SimConfig {
                    dram_bytes_per_cycle: 0,
                    ..Default::default()
                },
            ),
            (
                "dram_line_bytes",
                SimConfig {
                    dram_line_bytes: 0,
                    ..Default::default()
                },
            ),
            (
                "dram_banks",
                SimConfig {
                    dram_banks: 0,
                    ..Default::default()
                },
            ),
            (
                "spin_retry_interval",
                SimConfig {
                    spin_retry_interval: 0,
                    ..Default::default()
                },
            ),
        ] {
            let err = cfg.validate().expect_err(name);
            assert!(err.to_string().contains(name), "{name}: {err}");
        }
        let bad_clock = SimConfig {
            clock_mhz: 0.0,
            ..Default::default()
        };
        assert!(bad_clock.validate().is_err());
        let nan_clock = SimConfig {
            clock_mhz: f64::NAN,
            ..Default::default()
        };
        assert!(nan_clock.validate().is_err());
    }

    #[test]
    fn unit_conversion() {
        let c = SimConfig {
            clock_mhz: 100.0,
            ..Default::default()
        };
        assert!((c.cycles_to_seconds(100_000_000) - 1.0).abs() < 1e-12);
    }
}
