//! External DRAM channel model with per-port line buffers.
//!
//! All hardware-thread Avalon masters (and the preloader) share one DRAM
//! channel. A request occupies the channel for `bytes / bytes_per_cycle`
//! cycles (its bandwidth cost) and its target bank for a little longer
//! (precharge); the response returns after the channel slot plus the access
//! latency. This produces the two first-order phenomena the paper's traces
//! show: *latency-bound* pointer-chasing style access (naive GEMM column
//! reads) and *bandwidth-bound* contention when eight threads stream.
//!
//! Each (thread, buffer) pair owns a one-line read buffer, modelling the
//! small per-operator caches Nymble puts in front of its memory ports
//! ("(cached) memory accesses", §III-B): sequential scalar reads hit the
//! buffered line, strided reads miss every time — which is why the paper's
//! *Partial Vectorization* and *Blocked* steps change the memory picture so
//! dramatically.

use crate::config::SimConfig;

/// Aggregate DRAM statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Line fetches served (misses in the port line buffers).
    pub line_fetches: u64,
    /// Bytes moved over the channel (lines + writes + bursts).
    pub channel_bytes: u64,
    /// Requests that found the channel busy (queueing happened).
    pub contended: u64,
    /// Total read requests seen (hits + misses).
    pub read_requests: u64,
    /// Read requests served from a port line buffer.
    pub line_hits: u64,
}

/// Shared DRAM channel.
pub struct Dram {
    latency: u64,
    bytes_per_cycle: u32,
    line_bytes: u32,
    banks: Vec<u64>,
    bank_busy: u64,
    channel_free: u64,
    bank_hash: bool,
    /// Preloader DMA channel frontiers, one per hardware-thread master
    /// (the preloader serves each thread's Avalon master independently;
    /// bursts of one thread serialize, different threads' bursts only
    /// contend for bandwidth).
    dma_free: Vec<u64>,
    dma_setup: u64,
    pub stats: DramStats,
}

impl Dram {
    /// Build from the simulator configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        Dram {
            latency: cfg.timing.dram_latency,
            bytes_per_cycle: cfg.timing.dram_bytes_per_cycle,
            line_bytes: cfg.timing.dram_line_bytes,
            banks: vec![0; cfg.timing.dram_banks as usize],
            bank_busy: cfg.timing.dram_bank_busy,
            channel_free: 0,
            bank_hash: cfg.dram_bank_hash,
            dma_free: Vec::new(),
            dma_setup: cfg.timing.dma_setup,
            stats: DramStats::default(),
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Transfer `bytes` starting at absolute address `addr`, issued at cycle
    /// `t`. Returns the completion time (when the last beat of data is
    /// available at the requester). Writes are posted — callers may ignore
    /// the completion time — but still occupy channel bandwidth.
    pub fn transfer(&mut self, t: u64, addr: u64, bytes: u32, _is_write: bool) -> u64 {
        let occupancy = (bytes.max(1)).div_ceil(self.bytes_per_cycle) as u64;
        // XOR-folded bank hashing, as DDR controllers do to spread
        // power-of-2 strides (a row-major matrix column walk would
        // otherwise hammer a single bank). Disable via config to see why.
        let line = addr / self.line_bytes as u64;
        let hashed = if self.bank_hash {
            line ^ (line >> 4) ^ (line >> 9)
        } else {
            line
        };
        let bank = (hashed % self.banks.len() as u64) as usize;
        let earliest = self.channel_free.max(self.banks[bank]);
        if earliest > t {
            self.stats.contended += 1;
        }
        let start = t.max(earliest);
        self.channel_free = start + occupancy;
        self.banks[bank] = start + occupancy + self.bank_busy;
        self.stats.channel_bytes += bytes as u64;
        start + occupancy + self.latency
    }

    /// Execute a preloader burst on `master`'s DMA channel. The engine runs
    /// bursts back to back (descriptor queue), independent of when the
    /// requesting thread issued the descriptor; each burst pays a setup cost
    /// (row activation for the strided tile row) plus channel occupancy.
    /// Returns completion time.
    pub fn dma_transfer(&mut self, master: usize, t: u64, _addr: u64, bytes: u32) -> u64 {
        if master >= self.dma_free.len() {
            self.dma_free.resize(master + 1, 0);
        }
        let occupancy = (bytes.max(1)).div_ceil(self.bytes_per_cycle) as u64;
        let start = t.max(self.dma_free[master]);
        self.dma_free[master] = start + self.dma_setup + occupancy;
        self.stats.channel_bytes += bytes as u64;
        self.dma_free[master] + self.latency
    }

    /// Fetch the line containing `addr` (a read miss). Returns completion.
    pub fn fetch_line(&mut self, t: u64, addr: u64) -> u64 {
        self.stats.line_fetches += 1;
        let line_addr = addr / self.line_bytes as u64 * self.line_bytes as u64;
        self.transfer(t, line_addr, self.line_bytes, false)
    }
}

/// One-line read buffer in front of a (thread, buffer) port pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineBuffer {
    line_addr: u64,
    valid: bool,
    /// When the line currently being fetched becomes usable.
    ready_at: u64,
}

impl LineBuffer {
    /// Service a read of `bytes` at absolute `addr` issued at `t`. Returns
    /// `(data_ready_time, hit)`. Reads spanning multiple lines fetch each.
    pub fn read(&mut self, dram: &mut Dram, t: u64, addr: u64, bytes: u32) -> (u64, bool) {
        dram.stats.read_requests += 1;
        let lb = dram.line_bytes() as u64;
        let first = addr / lb;
        let last = (addr + bytes.max(1) as u64 - 1) / lb;
        if self.valid && first == last && first == self.line_addr {
            dram.stats.line_hits += 1;
            return (t.max(self.ready_at), true);
        }
        let mut done = t;
        for line in first..=last {
            done = done.max(dram.fetch_line(t, line * lb));
        }
        self.line_addr = last;
        self.valid = true;
        self.ready_at = done;
        (done, false)
    }

    /// Invalidate (e.g. after the buffer's backing store was rewritten).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            timing: nymble_hls::perf::Timing {
                dram_latency: 50,
                dram_bytes_per_cycle: 64,
                dram_line_bytes: 64,
                dram_banks: 4,
                dram_bank_busy: 8,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn transfer_latency_and_occupancy() {
        let mut d = Dram::new(&cfg());
        // 64 B transfer: 1 cycle occupancy + 50 latency.
        assert_eq!(d.transfer(100, 0, 64, false), 151);
        // Channel now busy until 101; immediate second request (different
        // bank) queues behind the channel.
        let t2 = d.transfer(100, 64, 64, false);
        assert_eq!(t2, 152);
        assert_eq!(d.stats.contended, 1);
    }

    #[test]
    fn burst_occupies_proportionally() {
        let mut d = Dram::new(&cfg());
        // 1 KiB burst = 16 channel cycles.
        assert_eq!(d.transfer(0, 0, 1024, false), 16 + 50);
        assert_eq!(d.stats.channel_bytes, 1024);
    }

    #[test]
    fn bank_conflict_delays_same_bank() {
        let mut d = Dram::new(&cfg());
        let _ = d.transfer(0, 0, 64, false); // bank 0 busy until 1+8
        let t = d.transfer(1, 4 * 64, 64, false); // same bank (4 banks)
        assert!(t > 1 + 1 + 50, "bank precharge must delay: {t}");
        // A different bank issued at the same point only queues on the
        // channel, which frees earlier than the busy bank.
        let mut d2 = Dram::new(&cfg());
        let _ = d2.transfer(0, 0, 64, false);
        let t2 = d2.transfer(1, 64, 64, false); // bank 1
        assert!(t2 < t, "different bank {t2} must beat same bank {t}");
    }

    #[test]
    fn line_buffer_hits_sequential_misses_strided() {
        let mut d = Dram::new(&cfg());
        let mut lbuf = LineBuffer::default();
        let (t1, hit1) = lbuf.read(&mut d, 0, 0, 4);
        assert!(!hit1);
        let (t2, hit2) = lbuf.read(&mut d, t1, 4, 4);
        assert!(hit2, "same line");
        assert_eq!(t2, t1);
        let (_, hit3) = lbuf.read(&mut d, t2, 4096, 4);
        assert!(!hit3, "new line");
        assert_eq!(d.stats.line_fetches, 2);
        assert_eq!(d.stats.line_hits, 1);
        assert_eq!(d.stats.read_requests, 3);
    }

    #[test]
    fn wide_read_spanning_lines_fetches_both() {
        let mut d = Dram::new(&cfg());
        let mut lbuf = LineBuffer::default();
        let (_, hit) = lbuf.read(&mut d, 0, 60, 16); // crosses 64 B boundary
        assert!(!hit);
        assert_eq!(d.stats.line_fetches, 2);
    }

    #[test]
    fn invalidate_forces_refetch() {
        let mut d = Dram::new(&cfg());
        let mut lbuf = LineBuffer::default();
        let _ = lbuf.read(&mut d, 0, 0, 4);
        lbuf.invalidate();
        let (_, hit) = lbuf.read(&mut d, 100, 0, 4);
        assert!(!hit);
    }
}
