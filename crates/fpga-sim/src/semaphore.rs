//! Hardware semaphore model (the block on the Avalon bus in Fig. 1 that
//! implements OpenMP `critical` / `barrier`).
//!
//! Grants are FIFO: a spinning thread's next poll after the release wins, in
//! arrival order. The model exposes explicit timestamps so the executor can
//! emit exact Spinning→Critical transitions for the Paraver state machine
//! (Fig. 2).

use std::collections::VecDeque;

/// Outcome of an acquire attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquire {
    /// Lock granted; the thread holds it from the returned cycle.
    Granted(u64),
    /// Lock held by another thread; the caller is queued and will be granted
    /// later via [`Semaphore::release`]'s return value.
    Queued,
}

/// FIFO hardware semaphore.
#[derive(Clone, Debug, Default)]
pub struct Semaphore {
    owner: Option<u32>,
    waiters: VecDeque<(u32, u64)>,
    /// Total cycles threads spent queued (spin-time statistic).
    pub total_spin_cycles: u64,
    /// Number of acquisitions granted.
    pub acquisitions: u64,
    /// Number of acquisitions that had to spin first.
    pub contended: u64,
}

impl Semaphore {
    /// Thread `tid` tries to acquire at cycle `t` (after its bus round
    /// trip). Either granted immediately or queued.
    pub fn acquire(&mut self, tid: u32, t: u64) -> Acquire {
        if self.owner.is_none() {
            self.owner = Some(tid);
            self.acquisitions += 1;
            Acquire::Granted(t)
        } else {
            debug_assert!(
                self.owner != Some(tid),
                "thread {tid} re-acquiring a non-reentrant semaphore"
            );
            self.waiters.push_back((tid, t));
            self.contended += 1;
            Acquire::Queued
        }
    }

    /// Thread `tid` releases at cycle `t`. Returns the next grant, if any:
    /// `(thread, grant_time)` — the executor moves that thread from its
    /// Spinning state into Critical at `grant_time`.
    ///
    /// `grant_gap` is the spin-poll granularity: the winner observes the free
    /// semaphore on its next poll.
    pub fn release(&mut self, tid: u32, t: u64, grant_gap: u64) -> Option<(u32, u64)> {
        assert_eq!(self.owner, Some(tid), "release by non-owner thread {tid}");
        self.owner = None;
        if let Some((next, since)) = self.waiters.pop_front() {
            let grant = t + grant_gap;
            self.total_spin_cycles += grant.saturating_sub(since);
            self.owner = Some(next);
            self.acquisitions += 1;
            Some((next, grant))
        } else {
            None
        }
    }

    /// Current owner, if held.
    pub fn owner(&self) -> Option<u32> {
        self.owner
    }

    /// FIFO position of a queued thread (0 = granted next), or `None` if
    /// `tid` is not waiting.
    pub fn queue_position(&self, tid: u32) -> Option<usize> {
        self.waiters.iter().position(|&(w, _)| w == tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_order_is_fifo() {
        let mut s = Semaphore::default();
        assert_eq!(s.acquire(0, 10), Acquire::Granted(10));
        assert_eq!(s.acquire(1, 12), Acquire::Queued);
        assert_eq!(s.acquire(2, 13), Acquire::Queued);
        let (n1, g1) = s.release(0, 20, 2).unwrap();
        assert_eq!((n1, g1), (1, 22));
        assert_eq!(s.owner(), Some(1));
        let (n2, g2) = s.release(1, 30, 2).unwrap();
        assert_eq!((n2, g2), (2, 32));
        assert!(s.release(2, 40, 2).is_none());
        assert_eq!(s.owner(), None);
        assert_eq!(s.acquisitions, 3);
        assert_eq!(s.contended, 2);
        // Spin cycles: thread 1 waited 12→22, thread 2 waited 13→32.
        assert_eq!(s.total_spin_cycles, 10 + 19);
    }

    #[test]
    #[should_panic(expected = "non-owner")]
    fn release_by_non_owner_panics() {
        let mut s = Semaphore::default();
        let _ = s.acquire(0, 0);
        let _ = s.release(1, 5, 1);
    }
}
