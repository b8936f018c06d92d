//! Property suite: the timing wheel (one wheel of single-cycle slots plus
//! an overflow heap) against the binary-heap reference.
//!
//! [`WheelQueue`] and [`ReadyQueue`] expose the same dispatch contract —
//! lexicographic `(time, tid)` min order, tid tie-breaking, O(1)
//! membership, removal from anywhere — but with completely different
//! internals (calendar slots + overflow heap vs. an indexed binary heap).
//! These properties drive both through identical random operation sequences
//! and demand identical observable behaviour at every step, under the one
//! executor-guaranteed precondition: pushes never go into the past
//! (`time >= ` last popped time).
//!
//! Failing seeds replay with `MINIPROP_SEED=<seed> cargo test -p fpga-sim`.

use fpga_sim::wheel::SPAN;
use fpga_sim::{ReadyQueue, WheelQueue};
use miniprop::{forall, Rng};

/// A push offset from `now`: mostly near-future (in the wheel window), with
/// a far-future tail that lands in the overflow heap, quantized half the
/// time so duplicate times across threads are common.
fn gen_offset(g: &mut Rng) -> u64 {
    let off = if g.chance(3, 4) {
        g.range_u64(0, SPAN)
    } else {
        SPAN + g.range_u64(0, 7 * SPAN)
    };
    if g.chance(1, 2) {
        off & !63
    } else {
        off
    }
}

#[test]
fn wheel_matches_heap_reference_under_random_churn() {
    forall(48, |g| {
        let n = g.range_u32(1, 64);
        let mut wheel = WheelQueue::new(n as usize);
        let mut heap = ReadyQueue::new(n as usize);
        let mut now = 0u64;
        let ops = g.range_usize(100, 1200);
        for _ in 0..ops {
            let tid = g.range_u32(0, n);
            assert_eq!(wheel.contains(tid), heap.contains(tid));
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek(), heap.peek());
            match g.range_u32(0, 10) {
                // Push an unqueued thread at or after `now`.
                0..=4 => {
                    if !heap.contains(tid) {
                        let t = now + gen_offset(g);
                        wheel.push(t, tid);
                        heap.push(t, tid);
                    }
                }
                // Pop the minimum; time only moves forward.
                5..=7 => {
                    let w = wheel.pop();
                    assert_eq!(w, heap.pop());
                    if let Some((t, _)) = w {
                        assert!(t >= now, "pop went backwards: {t} < {now}");
                        now = t;
                    }
                }
                // Remove from anywhere — head, middle, overflow tier.
                _ => {
                    assert_eq!(wheel.remove(tid), heap.remove(tid));
                }
            }
        }
        // Drain: the full remaining order must match.
        while let Some(w) = wheel.pop() {
            assert_eq!(Some(w), heap.pop());
        }
        assert!(heap.is_empty());
        assert_eq!(wheel.len(), 0);
    });
}

#[test]
fn duplicate_times_pop_in_thread_id_order() {
    forall(48, |g| {
        let n = g.range_u32(2, 48);
        let mut wheel = WheelQueue::new(n as usize);
        let mut heap = ReadyQueue::new(n as usize);
        // Every thread queued at one of only a few distinct times — heavy
        // duplication, both in-window and in overflow.
        let times: Vec<u64> = (0..g.range_usize(1, 4)).map(|_| gen_offset(g)).collect();
        for tid in 0..n {
            let t = *g.pick(&times);
            wheel.push(t, tid);
            heap.push(t, tid);
        }
        let mut last = None;
        while let Some((t, tid)) = wheel.pop() {
            assert_eq!(Some((t, tid)), heap.pop());
            if let Some((lt, ltid)) = last {
                assert!(
                    (lt, ltid) < (t, tid),
                    "order violated: ({lt},{ltid}) then ({t},{tid})"
                );
            }
            last = Some((t, tid));
        }
        assert!(heap.is_empty());
    });
}

#[test]
fn middle_removals_never_disturb_the_survivors() {
    forall(48, |g| {
        let n = g.range_u32(4, 64);
        let mut wheel = WheelQueue::new(n as usize);
        let mut heap = ReadyQueue::new(n as usize);
        for tid in 0..n {
            let t = gen_offset(g);
            wheel.push(t, tid);
            heap.push(t, tid);
        }
        // Remove an arbitrary subset — specifically not just the head.
        for tid in 0..n {
            if g.chance(1, 2) {
                let rw = wheel.remove(tid);
                assert_eq!(rw, heap.remove(tid));
                assert!(rw.is_some());
                assert!(!wheel.contains(tid));
            }
        }
        // Some removed threads come back at new times (re-queue after wake).
        for tid in 0..n {
            if !heap.contains(tid) && g.chance(1, 3) {
                let t = gen_offset(g);
                wheel.push(t, tid);
                heap.push(t, tid);
            }
        }
        while let Some(w) = wheel.pop() {
            assert_eq!(Some(w), heap.pop());
        }
        assert!(heap.is_empty());
    });
}
