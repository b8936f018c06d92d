//! Typed flat buffers: the one representation of external-memory contents.
//!
//! A [`Buffer`] holds its element [`ScalarType`] and one `u64` per element
//! in the walker's register encoding ([`Value::to_bits`]): integers
//! sign-extended to 64 bits, floats as their IEEE-754 pattern. The gold
//! interpreter's memory, the simulator's DRAM image (`fpga_sim::memimg`)
//! and both drivers' result buffers are `Vec<Buffer>`, and the one
//! [`DataMemory`] impl over `[Buffer]` serves both drivers: a load copies
//! register bits out, a store copies them in. [`Value`] appears only at the
//! edges: the launch conversion ([`crate::interp::bind_launch`]) and
//! [`Buffer::get`].

use crate::kernel::ArgId;
use crate::types::{ScalarType, Value};
use crate::walker::DataMemory;

/// The contents of one external buffer: `len` elements of one scalar type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Buffer {
    elem: ScalarType,
    bits: Vec<u64>,
}

impl Buffer {
    /// An empty buffer of `elem` elements (a scalar argument's slot).
    pub(crate) fn empty(elem: ScalarType) -> Self {
        Buffer {
            elem,
            bits: Vec::new(),
        }
    }

    /// A buffer holding `values`, each converted to its register bits.
    ///
    /// # Panics
    /// Panics unless every value is a scalar of type `elem` (the walker's
    /// registers are typed statically); the message names buffer `name`.
    pub(crate) fn from_values(name: &str, elem: ScalarType, values: &[Value]) -> Self {
        let bits = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if matches!(v, Value::Vec(_)) || v.ty().scalar != elem {
                    panic!("buffer `{name}` element {i} is {v:?}, declared {elem:?}");
                }
                v.to_bits()
            })
            .collect();
        Buffer { elem, bits }
    }

    /// The element type.
    pub fn elem(&self) -> ScalarType {
        self.elem
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Element `i` as a value; `None` past the end.
    pub fn get(&self, i: usize) -> Option<Value> {
        self.bits.get(i).map(|&b| Value::from_bits(self.elem, b))
    }

    /// Every element as an `f32` (other element types convert with `as`).
    pub fn to_f32(&self) -> Vec<f32> {
        self.bits
            .iter()
            .map(|&b| match Value::from_bits(self.elem, b) {
                Value::F32(x) => x,
                v => v.as_f64() as f32,
            })
            .collect()
    }
}

/// The elements `[i, i + n)` of `len`, or a panic naming the access.
fn range(what: &str, len: usize, elem_idx: u64, n: usize) -> std::ops::Range<usize> {
    let i = elem_idx as usize;
    match i.checked_add(n) {
        Some(end) if end <= len => i..end,
        _ => panic!("{what} out of bounds: len {len} index {i} lanes {n}"),
    }
}

impl DataMemory for [Buffer] {
    fn load_ext(&mut self, buf: ArgId, elem_idx: u64, out: &mut [u64]) {
        let b = &self[buf.0 as usize].bits;
        out.copy_from_slice(&b[range("load", b.len(), elem_idx, out.len())]);
    }

    fn store_ext(&mut self, buf: ArgId, elem_idx: u64, lanes: &[u64]) {
        let b = &mut self[buf.0 as usize];
        let r = range("store", b.bits.len(), elem_idx, lanes.len());
        let elem = b.elem;
        for (slot, &bits) in b.bits[r].iter_mut().zip(lanes) {
            *slot = elem.canonical_bits(bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_canonicalise_through_the_element_type() {
        let mut bufs = [Buffer::from_values(
            "A",
            ScalarType::I32,
            &[Value::I32(0), Value::I32(0)],
        )];
        // Whatever high bits the register carries, memory holds the i32
        // sign-extended.
        bufs.store_ext(ArgId(0), 1, &[0x1234_5678_ffff_fffe]);
        assert_eq!(bufs[0].get(1), Some(Value::I32(-2)));
        let mut out = [0; 2];
        bufs.load_ext(ArgId(0), 0, &mut out);
        assert_eq!(out, [0, (-2i64) as u64]);
    }

    #[test]
    #[should_panic(expected = "store out of bounds: len 2 index 1 lanes 2")]
    fn stores_past_the_end_panic() {
        let mut bufs = [Buffer::from_values(
            "A",
            ScalarType::F32,
            &[Value::F32(0.0), Value::F32(0.0)],
        )];
        bufs.store_ext(ArgId(0), 1, &[0, 0]);
    }

    #[test]
    fn to_f32_converts_other_element_types() {
        let b = Buffer::from_values("H", ScalarType::I32, &[Value::I32(-3), Value::I32(7)]);
        assert_eq!(b.to_f32(), vec![-3.0, 7.0]);
        assert_eq!(b.get(2), None);
    }
}
