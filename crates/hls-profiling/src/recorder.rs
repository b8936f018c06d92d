//! State recording (§IV-B.1).
//!
//! "The current state for each thread is stored in a register. Because the
//! state can change for multiple threads at once, each time at least one
//! thread changes its state, we record the current state for all threads
//! together with the current clock count. Each state is represented as a
//! 2-bit value ... The size of each state record is 2·N_threads + 32 bits."

use fpga_sim::ThreadState;

/// Binary tag bytes of the buffer stream.
pub const TAG_STATE: u8 = 0x01;
pub const TAG_EVENT: u8 = 0x02;
pub const TAG_REGION: u8 = 0x03;

/// Size in bytes of a packed region enter/exit record: tag byte + thread id
/// + 32-bit cycle + 16-bit region id + enter flag.
pub const REGION_RECORD_BYTES: usize = 1 + 1 + 4 + 2 + 1;

/// Pack a region boundary record (emitted under an auto-probe plan when a
/// thread crosses an instrumented region's edge).
pub fn pack_region_record(t: u64, tid: u32, region_id: u16, enter: bool) -> [u8; 9] {
    let mut rec = [0u8; REGION_RECORD_BYTES];
    rec[0] = TAG_REGION;
    rec[1] = tid as u8;
    rec[2..6].copy_from_slice(&((t & 0xFFFF_FFFF) as u32).to_le_bytes());
    rec[6..8].copy_from_slice(&region_id.to_le_bytes());
    rec[8] = enter as u8;
    rec
}

/// Unpack a region record payload (everything after the tag byte). Returns
/// `(tid, cycle_lo32, region_id, enter)`.
pub fn unpack_region_record(payload: &[u8]) -> (u32, u32, u16, bool) {
    let tid = payload[0] as u32;
    let cycle = u32::from_le_bytes(payload[1..5].try_into().expect("4-byte cycle"));
    let region = u16::from_le_bytes(payload[5..7].try_into().expect("2-byte region"));
    (tid, cycle, region, payload[7] != 0)
}

/// Size in bytes of a packed state record for `n` threads (tag byte +
/// 32-bit cycle + 2 bits per thread rounded up to bytes).
pub fn state_record_bytes(n: u32) -> usize {
    1 + 4 + (2 * n as usize).div_ceil(8)
}

/// Width in bits of the paper's hardware record (without our tag byte).
pub fn state_record_bits(n: u32) -> u32 {
    2 * n + 32
}

/// The state register file + packer.
#[derive(Clone, Debug)]
pub struct StateRecorder {
    states: Vec<ThreadState>,
    scratch: Vec<u8>,
}

impl StateRecorder {
    /// All threads start idle (no context loaded).
    pub fn new(num_threads: u32) -> Self {
        StateRecorder {
            states: vec![ThreadState::Idle; num_threads as usize],
            scratch: Vec::with_capacity(state_record_bytes(num_threads)),
        }
    }

    /// Current state of a thread.
    pub fn state(&self, tid: u32) -> ThreadState {
        self.states[tid as usize]
    }

    /// Apply a state change and pack the full record. Returns `None` when
    /// the "change" is a no-op (hardware suppresses redundant records).
    pub fn transition(&mut self, t: u64, tid: u32, state: ThreadState) -> Option<&[u8]> {
        if self.states[tid as usize] == state {
            return None;
        }
        self.states[tid as usize] = state;
        self.scratch.clear();
        self.scratch.push(TAG_STATE);
        self.scratch
            .extend_from_slice(&((t & 0xFFFF_FFFF) as u32).to_le_bytes());
        // Pack 2-bit states little-endian within bytes: thread 0 in bits 1:0.
        let mut byte = 0u8;
        for (i, s) in self.states.iter().enumerate() {
            byte |= s.encode() << ((i % 4) * 2);
            if i % 4 == 3 {
                self.scratch.push(byte);
                byte = 0;
            }
        }
        if !self.states.len().is_multiple_of(4) {
            self.scratch.push(byte);
        }
        Some(&self.scratch)
    }
}

/// The 32-bit cycle stamp of a state record payload (everything after the
/// tag byte).
pub fn state_record_cycle(payload: &[u8]) -> u32 {
    u32::from_le_bytes(payload[0..4].try_into().expect("4-byte cycle"))
}

/// Thread `tid`'s 2-bit state field of a state record payload, read in
/// place.
#[inline]
pub fn state_record_field(payload: &[u8], tid: usize) -> ThreadState {
    ThreadState::decode(payload[4 + tid / 4] >> ((tid % 4) * 2))
}

/// Unpack a state record payload (everything after the tag byte) produced by
/// [`StateRecorder::transition`]. Returns `(cycle_lo32, states)`.
pub fn unpack_state_record(payload: &[u8], n: u32) -> (u32, Vec<ThreadState>) {
    let states = (0..n as usize)
        .map(|tid| state_record_field(payload, tid))
        .collect();
    (state_record_cycle(payload), states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_width_matches_paper_formula() {
        // 8 threads: 2*8+32 = 48 bits = 6 bytes (+1 tag byte in our stream).
        assert_eq!(state_record_bits(8), 48);
        assert_eq!(state_record_bytes(8), 1 + 6);
        // 3 threads: 2*3+32 = 38 bits → 5 payload bytes.
        assert_eq!(state_record_bytes(3), 1 + 5);
    }

    #[test]
    fn transition_packs_all_threads() {
        let mut r = StateRecorder::new(8);
        let rec = r
            .transition(0x1234_5678, 5, ThreadState::Running)
            .expect("real change")
            .to_vec();
        assert_eq!(rec[0], TAG_STATE);
        let (cycle, states) = unpack_state_record(&rec[1..], 8);
        assert_eq!(cycle, 0x1234_5678);
        assert_eq!(states[5], ThreadState::Running);
        for (i, s) in states.iter().enumerate() {
            if i != 5 {
                assert_eq!(*s, ThreadState::Idle);
            }
        }
    }

    #[test]
    fn redundant_transition_suppressed() {
        let mut r = StateRecorder::new(2);
        assert!(r.transition(1, 0, ThreadState::Running).is_some());
        assert!(r.transition(2, 0, ThreadState::Running).is_none());
        assert_eq!(r.state(0), ThreadState::Running);
    }

    #[test]
    fn roundtrip_all_states() {
        let mut r = StateRecorder::new(4);
        let _ = r.transition(10, 0, ThreadState::Running);
        let _ = r.transition(11, 1, ThreadState::Spinning);
        let _ = r.transition(12, 2, ThreadState::Critical);
        let rec = r.transition(13, 3, ThreadState::Running).unwrap().to_vec();
        let (_, states) = unpack_state_record(&rec[1..], 4);
        assert_eq!(
            states,
            vec![
                ThreadState::Running,
                ThreadState::Spinning,
                ThreadState::Critical,
                ThreadState::Running
            ]
        );
    }

    #[test]
    fn region_record_roundtrips() {
        let rec = pack_region_record(0xABCD_1234_5678, 3, 517, true);
        assert_eq!(rec.len(), REGION_RECORD_BYTES);
        assert_eq!(rec[0], TAG_REGION);
        let (tid, cycle, region, enter) = unpack_region_record(&rec[1..]);
        assert_eq!((tid, cycle, region, enter), (3, 0x1234_5678, 517, true));
        let rec = pack_region_record(7, 0, 0, false);
        let (tid, cycle, region, enter) = unpack_region_record(&rec[1..]);
        assert_eq!((tid, cycle, region, enter), (0, 7, 0, false));
    }

    #[test]
    fn cycle_truncates_to_32_bits() {
        let mut r = StateRecorder::new(1);
        let rec = r
            .transition(0x1_0000_0005, 0, ThreadState::Running)
            .unwrap()
            .to_vec();
        let (cycle, _) = unpack_state_record(&rec[1..], 1);
        assert_eq!(cycle, 5, "hardware counter is 32-bit");
    }
}
