//! Event-driven device completions: the DRAM channel, the port line-fetch
//! machinery and the preloader DMA engines as first-class event sources.
//!
//! Before this layer, a thread blocked on memory was advanced *inline*: the
//! access handler computed the completion time, bumped the thread's clock
//! and reported the stall immediately — a busy-until scalar, not an event.
//! Now the completion is a scheduled [`DeviceEvent`]: the blocking access
//! records a pending wake in [`DeviceQueue`], the thread re-enters the ready
//! queue at the completion time (mirroring the semaphore-grant and
//! barrier-release wakeup edges), and the stall signal is emitted on the
//! wakeup edge — when simulated time actually reaches the completion.
//!
//! Two observable consequences, both deliberate:
//!
//! * the snooped signal stream is chronological: a stall ending at cycle
//!   `t` appears after every other thread's signals before `t`, where the
//!   inline model emitted it early, out of global time order;
//! * completions are attributed to a device ([`DeviceStats`]), so a run can
//!   report *why* threads slept — line fetches, channel arbitration, DMA.
//!
//! A hardware thread blocks on at most one access at a time (pipelined loads
//! overlap but never block mid-iteration; their excess latency is absorbed
//! at iteration boundaries), so the queue is a per-thread pending slot; the
//! ready-queue entry at the completion time *is* the scheduled event.

/// The device completion a blocked thread is waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceEvent {
    /// A port line fetch: the full DRAM read round trip of a missed line
    /// (or the in-flight line of a hit-under-fill).
    LineFetch,
    /// A DRAM channel/bank grant: the request found the channel or its
    /// target bank busy and queued behind other masters before its fetch.
    ChannelGrant,
    /// A preloader DMA burst completing into a local memory the thread
    /// tried to read.
    DmaComplete,
}

/// Aggregate wakeup statistics per device class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Threads woken by a line-fetch completion.
    pub line_fetch_wakes: u64,
    /// Threads woken by a contended channel grant.
    pub channel_grant_wakes: u64,
    /// Threads woken by a DMA completion.
    pub dma_wakes: u64,
    /// Total cycles threads slept waiting on device completions.
    pub blocked_cycles: u64,
}

impl DeviceStats {
    /// Total wake events across all device classes.
    pub fn total_wakes(&self) -> u64 {
        self.line_fetch_wakes + self.channel_grant_wakes + self.dma_wakes
    }
}

#[derive(Clone, Copy, Debug)]
struct Wake {
    at: u64,
    kind: DeviceEvent,
    stall: u64,
}

/// Pending device-completion wakeups, one slot per hardware thread.
#[derive(Clone, Debug)]
pub struct DeviceQueue {
    pending: Vec<Option<Wake>>,
    /// Wake counts and slept cycles, by device class.
    pub stats: DeviceStats,
}

impl DeviceQueue {
    /// Empty queue for `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        DeviceQueue {
            pending: vec![None; num_threads],
            stats: DeviceStats::default(),
        }
    }

    /// Schedule `kind` to wake thread `tid` at cycle `at`, ending a stall of
    /// `stall` cycles. The caller re-queues the thread at `at`; the wake
    /// fires via [`Self::take_due`] when the thread is next dispatched.
    ///
    /// # Panics
    /// Panics (debug) if the thread already has a pending wake — a thread
    /// blocks on one access at a time.
    pub fn schedule(&mut self, tid: u32, at: u64, kind: DeviceEvent, stall: u64) {
        debug_assert!(
            self.pending[tid as usize].is_none(),
            "thread {tid} blocked twice without waking"
        );
        debug_assert!(stall > 0, "zero-length stalls are not events");
        self.pending[tid as usize] = Some(Wake { at, kind, stall });
    }

    /// Fire thread `tid`'s pending wake, if any: returns the device class
    /// and the stall length to report, and accounts the statistics.
    pub fn take_due(&mut self, tid: u32, now: u64) -> Option<(DeviceEvent, u64)> {
        let w = self.pending[tid as usize].take()?;
        debug_assert!(
            now >= w.at,
            "thread {tid} dispatched at {now}, before its wake at {}",
            w.at
        );
        match w.kind {
            DeviceEvent::LineFetch => self.stats.line_fetch_wakes += 1,
            DeviceEvent::ChannelGrant => self.stats.channel_grant_wakes += 1,
            DeviceEvent::DmaComplete => self.stats.dma_wakes += 1,
        }
        self.stats.blocked_cycles += w.stall;
        Some((w.kind, w.stall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_then_take_accounts_stats() {
        let mut q = DeviceQueue::new(2);
        q.schedule(0, 100, DeviceEvent::LineFetch, 40);
        q.schedule(1, 120, DeviceEvent::DmaComplete, 60);
        assert_eq!(q.take_due(0, 100), Some((DeviceEvent::LineFetch, 40)));
        assert_eq!(q.take_due(0, 101), None, "wake fires once");
        assert_eq!(q.take_due(1, 130), Some((DeviceEvent::DmaComplete, 60)));
        assert_eq!(q.stats.line_fetch_wakes, 1);
        assert_eq!(q.stats.dma_wakes, 1);
        assert_eq!(q.stats.channel_grant_wakes, 0);
        assert_eq!(q.stats.blocked_cycles, 100);
        assert_eq!(q.stats.total_wakes(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "blocked twice")]
    fn double_schedule_panics() {
        let mut q = DeviceQueue::new(1);
        q.schedule(0, 10, DeviceEvent::LineFetch, 1);
        q.schedule(0, 20, DeviceEvent::ChannelGrant, 1);
    }
}
