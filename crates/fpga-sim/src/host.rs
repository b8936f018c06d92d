//! Host↔device data-transfer model.
//!
//! §III-A: the OpenMP frontend replaced Nymble's old pessimistic
//! copy-everything behaviour — `map` clauses "allow users to clearly specify
//! which and how data has to be transferred, avoiding unnecessary costly
//! data transfers between CPU and FPGA memories". This module prices those
//! transfers (PCIe-class DMA into the board DRAM of Fig. 1) so the end-to-end
//! cost of a launch — not just the kernel cycles — can be compared across
//! `map` strategies.

use nymble_ir::{ArgKind, Kernel, MapDir};

/// Host-interface timing parameters.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Host→device DMA bandwidth in bytes per accelerator cycle
    /// (PCIe Gen3 x16 ≈ 12 GB/s ≈ 81 B/cycle at 148 MHz).
    pub h2d_bytes_per_cycle: f64,
    /// Device→host DMA bandwidth in bytes per accelerator cycle.
    pub d2h_bytes_per_cycle: f64,
    /// Fixed setup cost per DMA transfer, in cycles (driver + doorbell).
    pub dma_setup_cycles: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            h2d_bytes_per_cycle: 80.0,
            d2h_bytes_per_cycle: 80.0,
            dma_setup_cycles: 20_000,
        }
    }
}

/// Cycle cost of the data movement a launch implies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferCost {
    /// Host→device cycles before the kernel can start.
    pub h2d_cycles: u64,
    /// Device→host cycles after the kernel finishes.
    pub d2h_cycles: u64,
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
}

impl TransferCost {
    /// Total transfer cycles around the kernel.
    pub fn total_cycles(&self) -> u64 {
        self.h2d_cycles + self.d2h_cycles
    }
}

/// Price the transfers implied by a kernel's `map` clauses for the given
/// buffer sizes (`buffer_lens[i]` = element count of argument `i`; scalar
/// argument slots are ignored — they ride in the launch descriptor).
pub fn transfer_cost(kernel: &Kernel, buffer_lens: &[usize], cfg: &HostConfig) -> TransferCost {
    assert_eq!(buffer_lens.len(), kernel.args.len());
    let mut cost = TransferCost::default();
    let (mut h2d_transfers, mut d2h_transfers) = (0u64, 0u64);
    for (arg, &len) in kernel.args.iter().zip(buffer_lens) {
        let ArgKind::Buffer { elem, map } = arg.kind else {
            continue;
        };
        let bytes = len as u64 * elem.size_bytes() as u64;
        match map {
            MapDir::To => {
                cost.h2d_bytes += bytes;
                h2d_transfers += 1;
            }
            MapDir::From => {
                cost.d2h_bytes += bytes;
                d2h_transfers += 1;
            }
            MapDir::ToFrom => {
                cost.h2d_bytes += bytes;
                cost.d2h_bytes += bytes;
                h2d_transfers += 1;
                d2h_transfers += 1;
            }
            MapDir::Alloc => {}
        }
    }
    cost.h2d_cycles = h2d_transfers * cfg.dma_setup_cycles
        + (cost.h2d_bytes as f64 / cfg.h2d_bytes_per_cycle).ceil() as u64;
    cost.d2h_cycles = d2h_transfers * cfg.dma_setup_cycles
        + (cost.d2h_bytes as f64 / cfg.d2h_bytes_per_cycle).ceil() as u64;
    cost
}

/// End-to-end launch cost: host→device transfers, the kernel's cycles and
/// device→host transfers. A simulated run's `total_cycles` already holds
/// the thread-start ramp, so nothing is added for it here.
pub fn end_to_end_cycles(kernel_cycles: u64, transfers: &TransferCost) -> u64 {
    transfers.h2d_cycles + kernel_cycles + transfers.d2h_cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, ScalarType};

    fn kernel_with_maps() -> Kernel {
        let mut kb = KernelBuilder::new("maps", 1);
        let _to = kb.buffer("A", ScalarType::F32, MapDir::To);
        let _from = kb.buffer("C", ScalarType::F32, MapDir::From);
        let _both = kb.buffer("S", ScalarType::F32, MapDir::ToFrom);
        let _scratch = kb.buffer("T", ScalarType::F32, MapDir::Alloc);
        let _n = kb.scalar_arg("N", ScalarType::I64);
        kb.finish()
    }

    #[test]
    fn map_directions_price_correctly() {
        let k = kernel_with_maps();
        let cfg = HostConfig {
            h2d_bytes_per_cycle: 4.0,
            d2h_bytes_per_cycle: 2.0,
            dma_setup_cycles: 100,
        };
        // 1000 f32 each = 4000 bytes.
        let c = transfer_cost(&k, &[1000, 1000, 1000, 1000, 0], &cfg);
        assert_eq!(c.h2d_bytes, 8000, "to + tofrom");
        assert_eq!(c.d2h_bytes, 8000, "from + tofrom");
        assert_eq!(c.h2d_cycles, 2 * 100 + 2000);
        assert_eq!(c.d2h_cycles, 2 * 100 + 4000);
        assert_eq!(c.total_cycles(), c.h2d_cycles + c.d2h_cycles);
    }

    #[test]
    fn alloc_buffers_are_free() {
        let mut kb = KernelBuilder::new("scratch", 1);
        let _s = kb.buffer("S", ScalarType::F64, MapDir::Alloc);
        let k = kb.finish();
        let c = transfer_cost(&k, &[1_000_000], &HostConfig::default());
        assert_eq!(c.total_cycles(), 0);
        assert_eq!(c.h2d_bytes + c.d2h_bytes, 0);
    }

    #[test]
    fn pessimistic_tofrom_costs_double() {
        // The §III-A motivation: the old compiler "pessimistically assum[ed]
        // that all data had to be transferred to the FPGA and back".
        let lens = [4096usize, 4096, 4096];
        let precise = {
            let mut kb = KernelBuilder::new("precise", 1);
            let _a = kb.buffer("A", ScalarType::F32, MapDir::To);
            let _b = kb.buffer("B", ScalarType::F32, MapDir::To);
            let _c = kb.buffer("C", ScalarType::F32, MapDir::From);
            kb.finish()
        };
        let pessimistic = {
            let mut kb = KernelBuilder::new("pessimistic", 1);
            let _a = kb.buffer("A", ScalarType::F32, MapDir::ToFrom);
            let _b = kb.buffer("B", ScalarType::F32, MapDir::ToFrom);
            let _c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
            kb.finish()
        };
        let cfg = HostConfig::default();
        let p = transfer_cost(&precise, &lens, &cfg);
        let q = transfer_cost(&pessimistic, &lens, &cfg);
        assert!(q.total_cycles() > p.total_cycles());
        assert_eq!(q.h2d_bytes, 3 * 4096 * 4);
        assert_eq!(p.h2d_bytes, 2 * 4096 * 4);
        assert_eq!(q.d2h_bytes, 3 * 4096 * 4);
        assert_eq!(p.d2h_bytes, 4096 * 4);
    }

    #[test]
    fn end_to_end_sums() {
        let t = TransferCost {
            h2d_cycles: 100,
            d2h_cycles: 50,
            h2d_bytes: 0,
            d2h_bytes: 0,
        };
        assert_eq!(end_to_end_cycles(1000, &t), 1150);
    }
}
