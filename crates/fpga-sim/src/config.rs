//! Simulator configuration.

use crate::error::SimError;
use nymble_hls::perf::Timing;

/// The simulated platform: the [`Timing`] the static cost walker prices
/// against as well (defaults approximate the paper's Intel D5005 PAC:
/// Stratix 10, four DDR4 banks behind a 512-bit Avalon interconnect,
/// accelerator clock in the 140–150 MHz band), plus the knobs only the
/// cycle simulator reads.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Accelerator clock in MHz (the paper's designs close timing at
    /// 140–148 MHz; used only to convert cycles to seconds/GB/s/GFLOP/s).
    pub clock_mhz: f64,
    /// Latencies, bandwidths and issue widths, shared with the static cost
    /// walker ([`nymble_hls::perf`]) so static predictions and a run share
    /// one machine description.
    pub timing: Timing,
    /// Re-poll interval while spinning on a held semaphore.
    pub spin_retry_interval: u64,
    /// XOR-fold the DRAM bank index (real controllers do; disabling it
    /// shows why: power-of-2 strides collapse onto one bank). Ablation knob.
    pub dram_bank_hash: bool,
    /// Outstanding line fetches one thread's read port sustains (Avalon
    /// pipelined-read depth / MSHRs). Bounds intra-thread memory-level
    /// parallelism: the reason the paper's *Partial Vectorization* gains
    /// ~2× rather than the full 4× of its width.
    pub port_mshrs: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            clock_mhz: 148.0,
            timing: Timing::default(),
            spin_retry_interval: 16,
            dram_bank_hash: true,
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

    /// A configuration with negligible host launch overhead, for experiments
    /// where the problem has been scaled down relative to the paper's (the
    /// fixed software cost would otherwise dominate artificially).
    pub fn with_fast_launch(mut self) -> Self {
        self.timing.launch_interval = 200;
        self
    }

    /// Check the configuration before a run starts.
    ///
    /// The executor used to paper over a zero `seq_issue_width` with a
    /// silent `.max(1)` clamp; a zero there (or in any of the capacities
    /// below) is a misconfiguration, not a request for the minimum, so it is
    /// rejected up front. The `timing` capacities are checked by
    /// [`Timing::validate`], which the static model applies too.
    /// `launch_interval == 0` stays legal — it means all threads start
    /// together.
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
        self.timing.validate().map_err(SimError::InvalidConfig)?;
        nonzero(self.port_mshrs as u64, "port_mshrs")?;
        // A zero re-poll interval would re-grant the semaphore to the same
        // releasing thread's timestamp forever (a livelock in the model).
        nonzero(self.spin_retry_interval, "spin_retry_interval")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(f: fn(&mut SimConfig)) -> SimConfig {
        let mut c = SimConfig::default();
        f(&mut c);
        c
    }

    #[test]
    fn defaults_are_consistent() {
        let c = SimConfig::default();
        assert!(c.clock_mhz > 0.0);
        assert_eq!(c.timing.dram_bytes_per_cycle, 64, "512-bit interface");
        assert!(c.timing.assumed_load_latency < c.timing.dram_latency);
    }

    #[test]
    fn validate_accepts_defaults_and_zero_launch_interval() {
        assert!(SimConfig::default().validate().is_ok());
        let together = with(|c| c.timing.launch_interval = 0);
        assert!(together.validate().is_ok(), "0 = all threads start at once");
    }

    #[test]
    fn validate_rejects_zero_capacities() {
        for (name, cfg) in [
            ("seq_issue_width", with(|c| c.timing.seq_issue_width = 0)),
            ("port_mshrs", with(|c| c.port_mshrs = 0)),
            (
                "dram_bytes_per_cycle",
                with(|c| c.timing.dram_bytes_per_cycle = 0),
            ),
            ("dram_line_bytes", with(|c| c.timing.dram_line_bytes = 0)),
            ("dram_banks", with(|c| c.timing.dram_banks = 0)),
            ("spin_retry_interval", with(|c| c.spin_retry_interval = 0)),
        ] {
            let err = cfg.validate().expect_err(name);
            assert!(err.to_string().contains(name), "{name}: {err}");
        }
        assert!(with(|c| c.clock_mhz = 0.0).validate().is_err());
        assert!(with(|c| c.clock_mhz = f64::NAN).validate().is_err());
    }

    #[test]
    fn validate_rejects_dram_geometry_that_is_not_a_power_of_two() {
        for (name, cfg) in [
            ("dram_line_bytes", with(|c| c.timing.dram_line_bytes = 48)),
            ("dram_banks", with(|c| c.timing.dram_banks = 12)),
        ] {
            let err = cfg.timing.validate().expect_err(name);
            assert!(err.contains(name), "{name}: {err}");
            let err = cfg.validate().expect_err(name);
            assert!(err.to_string().contains(name), "{name}: {err}");
        }
        for (line, banks) in [(64, 16), (1, 1)] {
            let mut c = SimConfig::default();
            (c.timing.dram_line_bytes, c.timing.dram_banks) = (line, banks);
            assert_eq!(c.timing.validate(), Ok(()), "{line} B lines, {banks} banks");
            assert!(c.validate().is_ok(), "{line} B lines, {banks} banks");
        }
    }

    #[test]
    fn unit_conversion() {
        let c = with(|c| c.clock_mhz = 100.0);
        assert!((c.cycles_to_seconds(100_000_000) - 1.0).abs() < 1e-12);
    }
}
