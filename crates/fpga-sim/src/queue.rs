//! Indexed binary min-heap over `(wakeup_time, thread_id)`.
//!
//! [`ReadyQueue`] is the far-future overflow tier of the executor's
//! [`WheelQueue`](crate::wheel::WheelQueue) and the reference the wheel is
//! property-tested against (`tests/wheel_prop.rs`). Popping yields the
//! lexicographic minimum, which reproduces the historical scan
//! `min_by_key(|(i, t)| (t.time, i))` *bit-for-bit*: ties on time resolve
//! to the lowest thread id in both.
//!
//! A per-thread position index makes membership O(1) and removal
//! O(log n), which the wheel needs to remove a thread from its overflow
//! tier.
//!
//! Invariant relied upon by the executor: a queued thread's wakeup time is
//! never mutated while it is in the queue (only the dispatched thread and
//! woken *blocked* threads change time), so no decrease-key is needed.

/// Binary min-heap of `(time, thread)` keys with a thread-position index.
#[derive(Clone, Debug)]
pub struct ReadyQueue {
    heap: Vec<(u64, u32)>,
    /// `pos[tid]` = slot in `heap` + 1; 0 = not queued.
    pos: Vec<u32>,
}

impl ReadyQueue {
    /// Empty queue sized for `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        ReadyQueue {
            heap: Vec::with_capacity(num_threads),
            pos: vec![0; num_threads],
        }
    }

    /// Number of queued threads.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no thread is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `tid` is currently queued.
    pub fn contains(&self, tid: u32) -> bool {
        self.pos[tid as usize] != 0
    }

    /// Queue `tid` with wakeup time `time`.
    ///
    /// # Panics
    /// Panics (debug) if `tid` is already queued — the executor guarantees
    /// each thread is queued at most once.
    pub fn push(&mut self, time: u64, tid: u32) {
        debug_assert!(!self.contains(tid), "thread {tid} queued twice");
        let slot = self.heap.len();
        self.heap.push((time, tid));
        self.pos[tid as usize] = slot as u32 + 1;
        self.sift_up(slot);
    }

    /// Smallest `(time, tid)` without removing it.
    pub fn peek(&self) -> Option<(u64, u32)> {
        self.heap.first().copied()
    }

    /// Remove and return the smallest `(time, tid)`.
    pub fn pop(&mut self) -> Option<(u64, u32)> {
        let min = *self.heap.first()?;
        self.remove_slot(0);
        Some(min)
    }

    /// Remove `tid` wherever it sits; returns its queued time, or `None` if
    /// it was not queued.
    pub fn remove(&mut self, tid: u32) -> Option<u64> {
        let slot = self.pos[tid as usize];
        if slot == 0 {
            return None;
        }
        let slot = slot as usize - 1;
        let time = self.heap[slot].0;
        self.remove_slot(slot);
        Some(time)
    }

    fn remove_slot(&mut self, slot: usize) {
        let (_, tid) = self.heap[slot];
        self.pos[tid as usize] = 0;
        let last = self.heap.len() - 1;
        if slot == last {
            self.heap.pop();
            return;
        }
        self.heap.swap(slot, last);
        self.heap.pop();
        let moved = self.heap[slot].1;
        self.pos[moved as usize] = slot as u32 + 1;
        // The moved element may need to travel either direction. If sift_up
        // moves it, the heap property already holds below its new slot, so
        // the subsequent sift_down is a no-op.
        self.sift_up(slot);
        self.sift_down(self.pos[moved as usize] as usize - 1);
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.heap[parent] <= self.heap[slot] {
                break;
            }
            self.swap_slots(parent, slot);
            slot = parent;
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let l = 2 * slot + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let smallest = if r < self.heap.len() && self.heap[r] < self.heap[l] {
                r
            } else {
                l
            };
            if self.heap[slot] <= self.heap[smallest] {
                break;
            }
            self.swap_slots(slot, smallest);
            slot = smallest;
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 as usize] = a as u32 + 1;
        self.pos[self.heap[b].1 as usize] = b as u32 + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = ReadyQueue::new(4);
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
        // Must match the historical scan's `min_by_key((time, index))`.
        let mut q = ReadyQueue::new(4);
        q.push(5, 3);
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 0);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn contains_and_remove_track_membership() {
        let mut q = ReadyQueue::new(8);
        for t in 0..8 {
            q.push(100 - t as u64, t);
        }
        assert!(q.contains(5));
        assert_eq!(q.remove(5), Some(95));
        assert!(!q.contains(5));
        assert_eq!(q.remove(5), None);
        assert_eq!(q.len(), 7);
        // Remaining order is still correct after the mid-heap removal.
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t).collect();
        assert_eq!(order, vec![7, 6, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn remove_then_repush_is_allowed() {
        let mut q = ReadyQueue::new(2);
        q.push(10, 0);
        q.push(20, 1);
        assert_eq!(q.remove(0), Some(10));
        q.push(30, 0);
        assert_eq!(q.pop(), Some((20, 1)));
        assert_eq!(q.pop(), Some((30, 0)));
    }

    #[test]
    fn middle_removal_sifts_up_and_repush_keeps_the_index_coherent() {
        // Removing a mid-heap leaf swaps the *last* element into its slot;
        // when that element is smaller than the slot's parent it must sift
        // *up*, and every position-index entry touched on the way must be
        // rewritten — a stale entry would corrupt any later remove/push of
        // the moved thread.
        let mut q = ReadyQueue::new(7);
        for (t, tid) in [
            (10, 0),
            (40, 1),
            (20, 2),
            (50, 3),
            (60, 4),
            (30, 5),
            (25, 6),
        ] {
            q.push(t, tid);
        }
        // tid 3 sits mid-heap; the last element (25, 6) lands in its slot
        // and must travel up past its parent (40, 1).
        assert_eq!(q.remove(3), Some(50));
        assert!(!q.contains(3));
        assert_eq!(q.len(), 6);
        // Re-pushing the removed thread with a new, smaller time must
        // slot it by the new key, not any remembered position.
        q.push(15, 3);
        assert!(q.contains(3));
        assert_eq!(q.len(), 7);
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), Some((15, 3)));
        // The thread displaced by the sift_up is still removable by id.
        assert_eq!(q.remove(1), Some(40));
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(20, 2), (25, 6), (30, 5), (60, 4)]);
    }

    #[test]
    fn matches_scan_under_random_churn() {
        // Deterministic LCG; compare the heap against a naive sorted scan.
        let mut seed: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        let n = 16u32;
        let mut q = ReadyQueue::new(n as usize);
        let mut model: Vec<Option<u64>> = vec![None; n as usize];
        for _ in 0..2_000 {
            let tid = (next() % n as u64) as u32;
            match model[tid as usize] {
                None => {
                    let t = next() % 1_000;
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
                        let (pt, ptid) = q.pop().unwrap();
                        assert_eq!(Some((pt, ptid)), want);
                        model[ptid as usize] = None;
                    }
                }
            }
        }
    }
}
