//! Trace object model.
//!
//! Paraver identifies an actor by the quadruple `cpu:appl:task:thread`
//! (1-based in the file format). The HLS profiling flow maps one FPGA
//! hardware thread to one Paraver thread of a single application/task, which
//! is how the paper's Figs. 6–13 label their rows ("THREAD 1.1.t").
//!
//! Times are in Paraver's time unit. The paper notes that "Paraver does not
//! support the notion of cycles. For all cases in the graphs where
//! microseconds are used, these are in fact cycles" (§V-A) — we adopt the
//! same convention: the time field carries *clock cycles*.
//!
//! A trace body is one [`Records`] stream in `.prv` order. It stores a
//! fixed 24-byte slot per record, the `(type, value)` pairs of all its
//! events in one arena of two side-by-side arrays (12 bytes a pair), and
//! the rare communication records out of line. [`Record`] is the borrowed
//! view of one record that [`Records::iter`] yields; nothing is allocated
//! per record. The parser sizes a stream exactly and cuts it into
//! disjoint parts that its threads fill in place.

use std::fmt;

/// Trace-level metadata that goes into the `.prv` header and `.row` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Application (kernel) name; used in file naming and row labels.
    pub app_name: String,
    /// Total trace duration in cycles (the header `ftime`).
    pub duration: u64,
    /// Number of hardware threads (Paraver threads of task 1).
    pub num_threads: u32,
    /// Capture date string embedded in the header, e.g. `04/07/2026 at 12:00`.
    /// Purely cosmetic; kept fixed-format for reproducible output.
    pub date: String,
}

impl TraceMeta {
    /// Metadata with a canonical date stamp.
    pub fn new(app_name: &str, duration: u64, num_threads: u32) -> Self {
        TraceMeta {
            app_name: app_name.to_string(),
            duration,
            num_threads,
            date: "01/01/2026 at 00:00".to_string(),
        }
    }
}

/// A type-3 point-to-point communication. Unused by the paper's flow
/// (multi-FPGA is future work) but supported for format completeness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Comm {
    pub send_thread: u32,
    pub recv_thread: u32,
    pub logical_send: u64,
    pub physical_send: u64,
    pub logical_recv: u64,
    pub physical_recv: u64,
    pub size: u64,
    pub tag: u64,
}

/// One record of a `.prv` trace body, borrowed from its [`Records`].
///
/// `thread` is 0-based here and converted to Paraver's 1-based ids on
/// write-out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Record<'a> {
    /// Type 1: `thread` is in `state` during `[begin, end)`.
    State {
        thread: u32,
        begin: u64,
        end: u64,
        state: u32,
    },
    /// Type 2: point sample of one or more `(type, value)` counters at
    /// `time`.
    Event {
        thread: u32,
        time: u64,
        events: Pairs<'a>,
    },
    /// Type 3: a point-to-point communication.
    Comm(&'a Comm),
}

impl Record<'_> {
    /// The timestamp used for sorting records into file order.
    pub fn sort_time(&self) -> u64 {
        match self {
            Record::State { begin, .. } => *begin,
            Record::Event { time, .. } => *time,
            Record::Comm(c) => c.logical_send,
        }
    }

    /// Paraver record-type discriminator (1/2/3).
    pub fn kind(&self) -> u8 {
        match self {
            Record::State { .. } => 1,
            Record::Event { .. } => 2,
            Record::Comm(_) => 3,
        }
    }
}

/// The `(type, value)` pairs of one event record, borrowed from the arena
/// of its [`Records`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Pairs<'a> {
    types: &'a [u32],
    values: &'a [u64],
}

impl<'a> Pairs<'a> {
    /// True for an event without pairs.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The `i`-th pair.
    pub fn get(&self, i: usize) -> Option<(u32, u64)> {
        Some((*self.types.get(i)?, self.values[i]))
    }

    /// The pairs in record order.
    pub fn iter(&self) -> <Self as IntoIterator>::IntoIter {
        self.into_iter()
    }
}

impl<'a> IntoIterator for Pairs<'a> {
    type Item = (u32, u64);
    type IntoIter = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, u32>>,
        std::iter::Copied<std::slice::Iter<'a, u64>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.types.iter().copied().zip(self.values.iter().copied())
    }
}

impl fmt::Debug for Pairs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The `state_thread` of a slot that is not a state, and the `tag` of a
/// comm slot. Paraver's thread ids are 1-based `u32`s, so no 0-based
/// thread id reaches it.
const NOT_STATE: u32 = u32::MAX;

/// The fixed part of one record.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// The sort time: a state's begin, an event's time, a comm's logical
    /// send.
    time: u64,
    /// A state's end; an event's pair range (`first << 32 | count`); a
    /// comm's index in `comms`.
    word: u64,
    /// A state's thread, or [`NOT_STATE`].
    state_thread: u32,
    /// A state's state id, an event's thread, or [`NOT_STATE`] for a comm.
    tag: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 24);

/// A trace body: one time-ordered stream of records (see the module doc
/// for the layout). Two streams are equal when their records are, view by
/// view, wherever their pairs sit in the arena.
#[derive(Clone, Default)]
pub struct Records {
    slots: Vec<Slot>,
    types: Vec<u32>,
    values: Vec<u64>,
    comms: Vec<Comm>,
}

impl Records {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stream with room for `records` records carrying `pairs`
    /// event pairs in all.
    pub fn with_capacity(records: usize, pairs: usize) -> Self {
        Records {
            slots: Vec::with_capacity(records),
            types: Vec::with_capacity(pairs),
            values: Vec::with_capacity(pairs),
            comms: Vec::new(),
        }
    }

    /// A stream of exactly as many placeholder records, pairs and comms
    /// as `extents` hold in all, for the [`Part`]s of [`Records::parts`]
    /// to overwrite.
    pub(crate) fn placeholders(extents: &[Extent]) -> Self {
        let mut total = Extent::default();
        for &e in extents {
            total += e;
        }
        let slot = Slot {
            time: 0,
            word: 0,
            state_thread: 0,
            tag: 0,
        };
        let comm = Comm {
            send_thread: 0,
            recv_thread: 0,
            logical_send: 0,
            physical_send: 0,
            logical_recv: 0,
            physical_recv: 0,
            size: 0,
            tag: 0,
        };
        Records {
            slots: vec![slot; total.records],
            types: vec![0; total.pairs],
            values: vec![0; total.pairs],
            comms: vec![comm; total.comms],
        }
    }

    /// The stream cut into one disjoint [`Part`] per extent, in order:
    /// part `i` owns the records, pairs and comms that follow those of
    /// parts `0..i`.
    ///
    /// # Panics
    /// If the extents add up to more than the stream holds, or to more
    /// than `u32::MAX` pairs.
    pub(crate) fn parts(&mut self, extents: &[Extent]) -> Vec<Part<'_>> {
        let (mut slots, mut types, mut values, mut comms) = (
            &mut self.slots[..],
            &mut self.types[..],
            &mut self.values[..],
            &mut self.comms[..],
        );
        let mut base = Extent::default();
        let parts = extents
            .iter()
            .map(|e| {
                let part = Part {
                    slots: take_front(&mut slots, e.records),
                    types: take_front(&mut types, e.pairs),
                    values: take_front(&mut values, e.pairs),
                    comms: take_front(&mut comms, e.comms),
                    base,
                    filled: Extent::default(),
                };
                base += *e;
                part
            })
            .collect();
        assert!(
            u32::try_from(base.pairs).is_ok(),
            "more than u32::MAX event pairs"
        );
        parts
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True for a stream without records.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The `i`-th record.
    pub fn get(&self, i: usize) -> Option<Record<'_>> {
        self.slots.get(i).map(|s| self.view(s))
    }

    /// The records in stream order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            records: self,
            slots: self.slots.iter(),
        }
    }

    /// Append a state record.
    ///
    /// # Panics
    /// On thread `u32::MAX`, which no 1-based Paraver thread id maps to.
    pub fn push_state(&mut self, thread: u32, begin: u64, end: u64, state: u32) {
        assert_ne!(thread, NOT_STATE, "thread id out of range");
        self.slots.push(Slot {
            time: begin,
            word: end,
            state_thread: thread,
            tag: state,
        });
    }

    /// Append an event record with `pairs` as its `(type, value)` pairs.
    ///
    /// # Panics
    /// On thread `u32::MAX`, or once the stream holds more than
    /// `u32::MAX` pairs.
    pub fn push_event(
        &mut self,
        thread: u32,
        time: u64,
        pairs: impl IntoIterator<Item = (u32, u64)>,
    ) {
        assert_ne!(thread, NOT_STATE, "thread id out of range");
        let first = self.types.len();
        for (ty, v) in pairs {
            self.types.push(ty);
            self.values.push(v);
        }
        let count = self.types.len() - first;
        let first = u32::try_from(first).expect("more than u32::MAX event pairs");
        let count = u32::try_from(count).expect("more than u32::MAX event pairs");
        self.slots.push(Slot {
            time,
            word: (first as u64) << 32 | count as u64,
            state_thread: NOT_STATE,
            tag: thread,
        });
    }

    /// Append a communication record.
    pub fn push_comm(&mut self, comm: Comm) {
        self.slots.push(Slot {
            time: comm.logical_send,
            word: self.comms.len() as u64,
            state_thread: NOT_STATE,
            tag: NOT_STATE,
        });
        self.comms.push(comm);
    }

    /// Append a copy of `r`, which may belong to another stream.
    pub fn push(&mut self, r: Record<'_>) {
        match r {
            Record::State {
                thread,
                begin,
                end,
                state,
            } => self.push_state(thread, begin, end, state),
            Record::Event {
                thread,
                time,
                events,
            } => self.push_event(thread, time, events),
            Record::Comm(c) => self.push_comm(*c),
        }
    }

    /// Sort the records by [`Record::sort_time`], keeping the stream order
    /// of equal times. Only the fixed slots move; the pairs stay where
    /// they are in the arena.
    pub fn sort_by_time(&mut self) {
        self.slots.sort_by_key(|s| s.time);
    }

    // Inlined with `Iter::next`: the consumers in other crates walk the
    // stream record by record, and a call per view doubles that walk.
    #[inline]
    fn view(&self, s: &Slot) -> Record<'_> {
        match (s.state_thread, s.tag) {
            (NOT_STATE, NOT_STATE) => Record::Comm(&self.comms[s.word as usize]),
            (NOT_STATE, thread) => {
                let first = (s.word >> 32) as usize;
                let range = first..first + (s.word as u32) as usize;
                Record::Event {
                    thread,
                    time: s.time,
                    events: Pairs {
                        types: &self.types[range.clone()],
                        values: &self.values[range],
                    },
                }
            }
            (thread, state) => Record::State {
                thread,
                begin: s.time,
                end: s.word,
                state,
            },
        }
    }
}

impl PartialEq for Records {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Records {}

impl fmt::Debug for Records {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> FromIterator<Record<'a>> for Records {
    fn from_iter<I: IntoIterator<Item = Record<'a>>>(iter: I) -> Self {
        let mut records = Records::new();
        for r in iter {
            records.push(r);
        }
        records
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = Record<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the records of a [`Records`] stream.
#[derive(Clone)]
pub struct Iter<'a> {
    records: &'a Records,
    slots: std::slice::Iter<'a, Slot>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = Record<'a>;

    #[inline]
    fn next(&mut self) -> Option<Record<'a>> {
        self.slots.next().map(|s| self.records.view(s))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

/// The size of a stream or of one part of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Extent {
    pub(crate) records: usize,
    pub(crate) pairs: usize,
    pub(crate) comms: usize,
}

impl std::ops::AddAssign for Extent {
    fn add_assign(&mut self, o: Extent) {
        self.records += o.records;
        self.pairs += o.pairs;
        self.comms += o.comms;
    }
}

/// The first `n` elements of `*rest`, which keeps the others.
fn take_front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (front, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    front
}

/// One part of a stream cut by [`Records::parts`], filled front to back
/// like [`Records`] appends. Parts are disjoint, so each can be filled on
/// its own thread.
pub(crate) struct Part<'a> {
    slots: &'a mut [Slot],
    types: &'a mut [u32],
    values: &'a mut [u64],
    comms: &'a mut [Comm],
    /// Where the part's pairs and comms begin in the whole stream.
    base: Extent,
    filled: Extent,
}

impl Part<'_> {
    /// What the part holds so far.
    pub(crate) fn filled(&self) -> Extent {
        self.filled
    }

    fn push_slot(&mut self, slot: Slot) {
        self.slots[self.filled.records] = slot;
        self.filled.records += 1;
    }

    /// As [`Records::push_state`].
    pub(crate) fn push_state(&mut self, thread: u32, begin: u64, end: u64, state: u32) {
        assert_ne!(thread, NOT_STATE, "thread id out of range");
        self.push_slot(Slot {
            time: begin,
            word: end,
            state_thread: thread,
            tag: state,
        });
    }

    /// The types and values of the next `count` pairs, for the caller to
    /// write before [`Part::push_event`] takes them.
    pub(crate) fn next_pairs(&mut self, count: usize) -> (&mut [u32], &mut [u64]) {
        let range = self.filled.pairs..self.filled.pairs + count;
        (&mut self.types[range.clone()], &mut self.values[range])
    }

    /// As [`Records::push_event`], with the `count` pairs that
    /// [`Part::next_pairs`] handed out.
    pub(crate) fn push_event(&mut self, thread: u32, time: u64, count: usize) {
        assert_ne!(thread, NOT_STATE, "thread id out of range");
        assert!(self.filled.pairs + count <= self.types.len());
        // `Records::parts` bounds the stream's pairs by `u32::MAX`.
        let first = (self.base.pairs + self.filled.pairs) as u64;
        self.filled.pairs += count;
        self.push_slot(Slot {
            time,
            word: first << 32 | count as u64,
            state_thread: NOT_STATE,
            tag: thread,
        });
    }

    /// As [`Records::push_comm`].
    pub(crate) fn push_comm(&mut self, comm: Comm) {
        self.comms[self.filled.comms] = comm;
        let index = (self.base.comms + self.filled.comms) as u64;
        self.filled.comms += 1;
        self.push_slot(Slot {
            time: comm.logical_send,
            word: index,
            state_thread: NOT_STATE,
            tag: NOT_STATE,
        });
    }
}

/// A state definition for the `.pcf` (id, name, RGB colour).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateDef {
    pub id: u32,
    pub name: String,
    pub color: (u8, u8, u8),
}

/// An event-type definition for the `.pcf`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventTypeDef {
    pub id: u32,
    pub label: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_time_per_kind() {
        let mut rs = Records::new();
        rs.push_state(0, 5, 9, 1);
        rs.push_event(0, 7, [(1, 2)]);
        let (s, e) = (rs.get(0).unwrap(), rs.get(1).unwrap());
        assert_eq!(s.sort_time(), 5);
        assert_eq!(e.sort_time(), 7);
        assert_eq!(s.kind(), 1);
        assert_eq!(e.kind(), 2);
    }

    #[test]
    fn views_return_what_was_pushed() {
        let comm = Comm {
            send_thread: 1,
            recv_thread: u32::MAX - 1,
            logical_send: 10,
            physical_send: 11,
            logical_recv: 20,
            physical_recv: 21,
            size: 512,
            tag: 7,
        };
        let mut rs = Records::new();
        rs.push_state(u32::MAX - 1, 0, u64::MAX, u32::MAX);
        rs.push_event(3, 4, [(u32::MAX, u64::MAX), (0, 0)]);
        rs.push_comm(comm);
        let got: Vec<Record<'_>> = rs.iter().collect();
        assert_eq!(
            got[0],
            Record::State {
                thread: u32::MAX - 1,
                begin: 0,
                end: u64::MAX,
                state: u32::MAX
            }
        );
        let Record::Event {
            thread,
            time,
            events,
        } = got[1]
        else {
            panic!("{:?}", got[1]);
        };
        assert_eq!((thread, time), (3, 4));
        assert_eq!(
            events.iter().collect::<Vec<_>>(),
            [(u32::MAX, u64::MAX), (0, 0)]
        );
        assert_eq!(got[2], Record::Comm(&comm));
    }

    /// Sorting moves the slots only, and equality looks through them:
    /// the same records with their pairs stored in another order are
    /// equal.
    #[test]
    fn equality_is_logical_after_a_sort() {
        let mut sorted = Records::new();
        sorted.push_event(0, 1, [(7, 1), (8, 2)]);
        sorted.push_state(1, 2, 5, 3);
        sorted.push_event(1, 3, [(9, 3)]);
        let mut shuffled = Records::new();
        shuffled.push_event(1, 3, [(9, 3)]);
        shuffled.push_state(1, 2, 5, 3);
        shuffled.push_event(0, 1, [(7, 1), (8, 2)]);
        assert_ne!(shuffled, sorted);
        shuffled.sort_by_time();
        assert_eq!(shuffled, sorted);
        assert_eq!(format!("{shuffled:?}"), format!("{sorted:?}"));
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn thread_u32_max_is_refused() {
        Records::new().push_state(u32::MAX, 0, 1, 0);
    }
}
