//! Hierarchical timing-wheel dispatch queue.
//!
//! [`WheelQueue`] replaces the binary heap on the executor's hot path with a
//! calendar queue: a wheel of [`SPAN`] single-cycle slots covering the near
//! future plus a heap ([`ReadyQueue`]) holding far-future overflow. Discrete-
//! event cores spend almost all their pops within a few cycles of the
//! current time (a pipelined loop re-queues its thread II cycles ahead), so
//! the common case is O(1) amortized: set a bit, link a node, scan a word.
//! Far-future events — launch-ramp starts `launch_interval` apart, 50 k-cycle
//! semaphore back-offs — land in the overflow heap and are promoted into the
//! wheel when the cursor reaches their horizon.
//!
//! The queue preserves the executor's dispatch contract *bit-for-bit*:
//! `pop` yields the lexicographically smallest `(time, thread_id)`, ties on
//! time resolving to the lowest thread id, exactly as [`ReadyQueue`] and the
//! historical scan `min_by_key(|(i, t)| (t.time, *i))` do. The wheel keeps
//! each slot's intrusive list sorted by thread id; since every in-window slot
//! holds entries of exactly one absolute time, list order *is* `(time, tid)`
//! order.
//!
//! Invariants:
//! * every wheel entry's time lies in `[cursor, cursor + SPAN)`;
//! * `push` requires `time >= cursor` (the executor never schedules into the
//!   past: wakeup times are at or after the event that computes them);
//! * overflow entries may undercut `cursor + SPAN` after the cursor advances;
//!   `pop` promotes all such entries into the wheel *before* scanning, and
//!   `peek` compares the wheel scan against the overflow minimum, so neither
//!   ever reports a stale minimum.

use crate::queue::ReadyQueue;

/// Wheel width in single-cycle slots (power of two).
pub const SPAN: u64 = 1024;
const MASK: u64 = SPAN - 1;
const WORDS: usize = (SPAN / 64) as usize;
/// Intrusive-list terminator.
const NONE: u32 = u32::MAX;

/// Where a queued thread currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    Out,
    Wheel,
    Overflow,
}

/// Timing wheel over `(time, thread)` keys with heap overflow: the
/// executor's dispatch queue.
#[derive(Clone, Debug)]
pub struct WheelQueue {
    /// Head thread id of each slot's tid-sorted intrusive list.
    slots: Vec<u32>,
    /// `next[tid]` — intrusive list link.
    next: Vec<u32>,
    /// Queued wakeup time per thread (valid while `loc[tid] != Out`).
    time_of: Vec<u64>,
    loc: Vec<Loc>,
    /// One bit per slot: occupied.
    bitmap: [u64; WORDS],
    /// Lower bound of the wheel window; advanced to each popped time.
    cursor: u64,
    overflow: ReadyQueue,
    len: usize,
}

impl WheelQueue {
    /// Empty queue sized for `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        WheelQueue {
            slots: vec![NONE; SPAN as usize],
            next: vec![NONE; num_threads],
            time_of: vec![0; num_threads],
            loc: vec![Loc::Out; num_threads],
            bitmap: [0; WORDS],
            cursor: 0,
            overflow: ReadyQueue::new(num_threads),
            len: 0,
        }
    }

    /// Number of queued threads.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no thread is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `tid` is currently queued.
    pub fn contains(&self, tid: u32) -> bool {
        self.loc[tid as usize] != Loc::Out
    }

    /// Queue `tid` with wakeup time `time`.
    ///
    /// # Panics
    /// Panics (debug) if `tid` is already queued or `time` precedes the last
    /// popped time — the executor guarantees both.
    pub fn push(&mut self, time: u64, tid: u32) {
        debug_assert!(!self.contains(tid), "thread {tid} queued twice");
        debug_assert!(
            time >= self.cursor,
            "push({time}, {tid}) into the past (cursor {})",
            self.cursor
        );
        self.time_of[tid as usize] = time;
        if time < self.cursor + SPAN {
            self.insert_wheel(time, tid);
        } else {
            self.overflow.push(time, tid);
            self.loc[tid as usize] = Loc::Overflow;
        }
        self.len += 1;
    }

    /// Smallest `(time, tid)` without removing it.
    ///
    /// The minimum may live in either tier — after the cursor advances, an
    /// un-promoted overflow entry can undercut every wheel entry — so this
    /// takes the lexicographic min of the wheel scan and the overflow peek.
    pub fn peek(&self) -> Option<(u64, u32)> {
        match (self.scan_wheel(), self.overflow.peek()) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Remove and return the smallest `(time, tid)`.
    pub fn pop(&mut self) -> Option<(u64, u32)> {
        if self.len == 0 {
            return None;
        }
        // Promote every overflow entry the window now covers: one of them
        // may precede (or tie with a smaller tid than) every wheel entry.
        self.promote();
        let (time, tid) = match self.scan_wheel() {
            Some(found) => found,
            None => {
                // Wheel empty ⇒ everything queued is far-future. Jump the
                // cursor to the overflow minimum and promote again.
                let (t, _) = self.overflow.peek().expect("len > 0 but both tiers empty");
                self.cursor = t;
                self.promote();
                self.scan_wheel().expect("promotion filled the wheel")
            }
        };
        self.unlink_head(time, tid);
        self.cursor = time;
        self.len -= 1;
        Some((time, tid))
    }

    /// Remove `tid` wherever it sits; returns its queued time, or `None` if
    /// it was not queued.
    pub fn remove(&mut self, tid: u32) -> Option<u64> {
        match self.loc[tid as usize] {
            Loc::Out => None,
            Loc::Overflow => {
                let t = self.overflow.remove(tid);
                debug_assert!(t.is_some());
                self.loc[tid as usize] = Loc::Out;
                self.len -= 1;
                t
            }
            Loc::Wheel => {
                let time = self.time_of[tid as usize];
                let slot = (time & MASK) as usize;
                // Unlink from the (tiny) slot list.
                let mut cur = self.slots[slot];
                if cur == tid {
                    self.slots[slot] = self.next[tid as usize];
                } else {
                    while self.next[cur as usize] != tid {
                        cur = self.next[cur as usize];
                        debug_assert_ne!(cur, NONE, "thread {tid} missing from its slot");
                    }
                    self.next[cur as usize] = self.next[tid as usize];
                }
                self.next[tid as usize] = NONE;
                if self.slots[slot] == NONE {
                    self.bitmap[slot / 64] &= !(1u64 << (slot % 64));
                }
                self.loc[tid as usize] = Loc::Out;
                self.len -= 1;
                Some(time)
            }
        }
    }

    /// Insert into the wheel tier (caller checked `time` is in-window).
    fn insert_wheel(&mut self, time: u64, tid: u32) {
        let slot = (time & MASK) as usize;
        debug_assert!(
            self.slots[slot] == NONE || self.time_of[self.slots[slot] as usize] == time,
            "slot aliasing: window invariant broken"
        );
        // Sorted-by-tid insert keeps list order equal to (time, tid) order.
        let head = self.slots[slot];
        if head == NONE || head > tid {
            self.next[tid as usize] = head;
            self.slots[slot] = tid;
        } else {
            let mut cur = head;
            while self.next[cur as usize] != NONE && self.next[cur as usize] < tid {
                cur = self.next[cur as usize];
            }
            self.next[tid as usize] = self.next[cur as usize];
            self.next[cur as usize] = tid;
        }
        self.bitmap[slot / 64] |= 1u64 << (slot % 64);
        self.loc[tid as usize] = Loc::Wheel;
    }

    /// Move every overflow entry now inside the window onto the wheel.
    fn promote(&mut self) {
        while let Some((t, _)) = self.overflow.peek() {
            if t >= self.cursor + SPAN {
                break;
            }
            let (t, tid) = self.overflow.pop().expect("peeked");
            self.insert_wheel(t, tid);
        }
    }

    /// First occupied slot at or after the cursor, as `(time, head_tid)`.
    ///
    /// Slot order walking forward from the cursor (wrapping once) is time
    /// order for the in-window times the wheel holds.
    fn scan_wheel(&self) -> Option<(u64, u32)> {
        let start = (self.cursor & MASK) as usize;
        let mut word = start / 64;
        // First word: ignore slots before the cursor's.
        let mut bits = self.bitmap[word] & (!0u64 << (start % 64));
        for _ in 0..=WORDS {
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                let head = self.slots[slot];
                let time = self.time_of[head as usize];
                // A wrapped scan can revisit the start word and see slots
                // belonging to the *next* lap only if the window invariant
                // broke; the debug assert in insert_wheel guards that.
                return Some((time, head));
            }
            word = (word + 1) % WORDS;
            bits = self.bitmap[word];
            if word == start / 64 {
                // Back at the start word: take the slots skipped initially.
                bits &= !(!0u64 << (start % 64));
            }
        }
        None
    }

    /// Detach `tid`, the head of its slot list, after a successful scan.
    fn unlink_head(&mut self, time: u64, tid: u32) {
        let slot = (time & MASK) as usize;
        debug_assert_eq!(self.slots[slot], tid);
        self.slots[slot] = self.next[tid as usize];
        self.next[tid as usize] = NONE;
        if self.slots[slot] == NONE {
            self.bitmap[slot / 64] &= !(1u64 << (slot % 64));
        }
        self.loc[tid as usize] = Loc::Out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_near_future() {
        let mut q = WheelQueue::new(4);
        q.push(30, 0);
        q.push(10, 1);
        q.push(20, 2);
        q.push(15, 3);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((15, 3)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 0)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_resolve_to_lowest_thread_id() {
        let mut q = WheelQueue::new(4);
        q.push(5, 3);
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 0);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn far_future_overflows_and_promotes() {
        let mut q = WheelQueue::new(4);
        // Launch-ramp style: starts far beyond the window.
        q.push(0, 0);
        q.push(880_000, 1);
        q.push(1_760_000, 2);
        q.push(2 * SPAN, 3);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((2 * SPAN, 3)));
        assert_eq!(q.pop(), Some((880_000, 1)));
        assert_eq!(q.pop(), Some((1_760_000, 2)));
    }

    #[test]
    fn overflow_entry_can_undercut_later_wheel_pushes() {
        // Push t=2000 while the cursor is 0 (overflow), advance the cursor
        // past 1000 by popping, then push an in-window entry at 2100: the
        // un-promoted overflow entry must still win, for both peek and pop.
        let mut q = WheelQueue::new(4);
        q.push(2000, 3);
        q.push(999, 0);
        assert_eq!(q.pop(), Some((999, 0)));
        q.push(2100, 1);
        assert_eq!(q.peek(), Some((2000, 3)));
        assert_eq!(q.pop(), Some((2000, 3)));
        assert_eq!(q.pop(), Some((2100, 1)));
    }

    #[test]
    fn overflow_and_wheel_tie_resolves_by_tid() {
        let mut q = WheelQueue::new(4);
        q.push(2000, 1); // overflow at cursor 0
        q.push(1999, 0);
        assert_eq!(q.pop(), Some((1999, 0))); // cursor now 1999
        q.push(2000, 2); // same time, larger tid, lands in wheel
        assert_eq!(q.peek(), Some((2000, 1)), "overflow tid must win the tie");
        assert_eq!(q.pop(), Some((2000, 1)));
        assert_eq!(q.pop(), Some((2000, 2)));
    }

    #[test]
    fn remove_from_both_tiers() {
        let mut q = WheelQueue::new(8);
        q.push(10, 0);
        q.push(10, 1);
        q.push(10, 2);
        q.push(5_000_000, 3);
        assert_eq!(q.remove(1), Some(10), "middle of a slot list");
        assert_eq!(q.remove(3), Some(5_000_000), "overflow tier");
        assert_eq!(q.remove(3), None);
        assert!(!q.contains(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), Some((10, 2)));
        // Remove-then-repush must be clean.
        q.push(20, 1);
        assert_eq!(q.pop(), Some((20, 1)));
    }

    #[test]
    fn slot_wraparound_keeps_order() {
        // Times straddling a wheel lap boundary: slot indices wrap but the
        // scan starts at the cursor, so order is preserved.
        let mut q = WheelQueue::new(4);
        q.push(SPAN - 2, 0);
        assert_eq!(q.pop(), Some((SPAN - 2, 0)));
        q.push(SPAN - 1, 1);
        q.push(SPAN + 3, 2); // wraps to slot 3 < slot SPAN-1
        q.push(2 * SPAN - 3, 3);
        assert_eq!(q.pop(), Some((SPAN - 1, 1)));
        assert_eq!(q.pop(), Some((SPAN + 3, 2)));
        assert_eq!(q.pop(), Some((2 * SPAN - 3, 3)));
    }

    #[test]
    fn matches_scan_under_random_churn() {
        // Deterministic LCG; compare against a naive sorted scan, with times
        // generated relative to the advancing "now" so far-future pushes
        // exercise the overflow tier. Mirrors queue.rs's churn test.
        let mut seed: u64 = 0x243F6A8885A308D3;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        let n = 16u32;
        let mut q = WheelQueue::new(n as usize);
        let mut model: Vec<Option<u64>> = vec![None; n as usize];
        let mut now = 0u64;
        for _ in 0..4_000 {
            let tid = (next() % n as u64) as u32;
            match model[tid as usize] {
                None => {
                    // Mix near-future (in-window) and far-future times.
                    let t = now
                        + if next() % 4 == 0 {
                            SPAN + next() % 100_000
                        } else {
                            next() % SPAN
                        };
                    q.push(t, tid);
                    model[tid as usize] = Some(t);
                }
                Some(t) => {
                    if next() % 2 == 0 {
                        assert_eq!(q.remove(tid), Some(t));
                        model[tid as usize] = None;
                    } else {
                        let want = model
                            .iter()
                            .enumerate()
                            .filter_map(|(i, t)| t.map(|t| (t, i as u32)))
                            .min();
                        assert_eq!(q.peek(), want);
                        let got = q.pop();
                        assert_eq!(got, want);
                        let (pt, ptid) = got.unwrap();
                        model[ptid as usize] = None;
                        now = pt;
                    }
                }
            }
        }
    }
}
