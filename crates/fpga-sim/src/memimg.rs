//! External-memory image: the typed flat buffer contents plus a
//! base-address layout, so accesses have absolute DRAM addresses for the
//! bank model.
//!
//! The image holds one [`Buffer`] per kernel argument, the representation
//! the gold interpreter uses too; a walker runs over
//! [`MemImage::buffers_mut`] through `nymble_ir`'s one
//! [`nymble_ir::walker::DataMemory`] impl.

use nymble_ir::interp::bind_launch;
pub use nymble_ir::interp::LaunchArg;
use nymble_ir::{ArgId, ArgKind, Buffer, Kernel, Value};

/// Functional memory image with a flat address layout: buffers are placed
/// back to back, each aligned to 4 KiB (how the OpenMP runtime's device
/// allocator would place them in the FPGA board DRAM).
pub struct MemImage {
    bufs: Vec<Buffer>,
    base: Vec<u64>,
}

impl MemImage {
    /// Lay out the buffers of `launch` according to `kernel`'s signature and
    /// return the image plus the scalar-argument vector for walkers.
    ///
    /// # Panics
    /// Panics when a launch value's kind or a buffer element's type differs
    /// from the kernel's declaration (see [`bind_launch`]).
    pub fn new(kernel: &Kernel, launch: &[LaunchArg]) -> (Self, Vec<Value>) {
        const ALIGN: u64 = 4096;
        let (scalars, bufs) = bind_launch(kernel, launch);
        let mut cursor = 0u64;
        let base = kernel
            .args
            .iter()
            .zip(&bufs)
            .map(|(arg, b)| {
                let at = cursor;
                if matches!(arg.kind, ArgKind::Buffer { .. }) {
                    let bytes = b.len() as u64 * b.elem().size_bytes() as u64;
                    cursor += bytes.div_ceil(ALIGN) * ALIGN + ALIGN;
                }
                at
            })
            .collect();
        (MemImage { bufs, base }, scalars)
    }

    /// Absolute DRAM byte address of `buf`'s byte offset.
    pub fn abs_addr(&self, buf: ArgId, byte_off: u64) -> u64 {
        self.base[buf.0 as usize] + byte_off
    }

    /// Final buffer contents (for result read-back).
    pub fn into_buffers(self) -> Vec<Buffer> {
        self.bufs
    }

    /// Every argument's contents, indexed like kernel arguments (scalar
    /// slots are empty).
    pub fn buffers(&self) -> &[Buffer] {
        &self.bufs
    }

    /// The contents, as the memory a walker runs over.
    pub fn buffers_mut(&mut self) -> &mut [Buffer] {
        &mut self.bufs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::walker::DataMemory;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType};

    #[test]
    fn layout_is_aligned_and_disjoint() {
        let mut kb = KernelBuilder::new("t", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let b = kb.buffer("B", ScalarType::F32, MapDir::To);
        let n = kb.scalar_arg("N", ScalarType::I64);
        let _ = n;
        let k = kb.finish();
        let (img, scalars) = MemImage::new(
            &k,
            &[
                LaunchArg::Buffer(vec![Value::F32(0.0); 100]),
                LaunchArg::Buffer(vec![Value::F32(0.0); 100]),
                LaunchArg::Scalar(Value::I64(100)),
            ],
        );
        assert_eq!(scalars[2], Value::I64(100));
        let a0 = img.abs_addr(a, 0);
        let b0 = img.abs_addr(b, 0);
        assert_eq!(a0 % 4096, 0);
        assert_eq!(b0 % 4096, 0);
        assert!(b0 >= a0 + 400, "buffers must not overlap");
        assert_eq!(img.buffers()[a.0 as usize].elem().size_bytes(), 4);
    }

    #[test]
    fn functional_roundtrip() {
        let mut kb = KernelBuilder::new("t", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::ToFrom);
        let b = kb.buffer("B", ScalarType::I32, MapDir::ToFrom);
        let c = kb.buffer("C", ScalarType::I64, MapDir::ToFrom);
        let d = kb.buffer("D", ScalarType::F64, MapDir::ToFrom);
        let k = kb.finish();
        let (mut img, _) = MemImage::new(
            &k,
            &[
                LaunchArg::Buffer(vec![Value::F32(0.0); 8]),
                LaunchArg::Buffer(vec![Value::I32(0); 2]),
                LaunchArg::Buffer(vec![Value::I64(0); 2]),
                LaunchArg::Buffer(vec![Value::F64(0.0); 2]),
            ],
        );
        let mem = img.buffers_mut();
        mem.store_ext(a, 3, &[Value::F32(7.5).to_bits()]);
        assert_eq!(mem[a.0 as usize].get(3), Some(Value::F32(7.5)));
        let mut two = [0; 2];
        mem.load_ext(a, 2, &mut two);
        assert_eq!(two[1], Value::F32(7.5).to_bits());

        // Each element type round-trips its register bits: a negative i32
        // stays sign-extended, an f32 -0.0 keeps its sign bit.
        let cases = [
            (a, 4, Value::F32(-0.0)),
            (b, 1, Value::I32(-5)),
            (c, 1, Value::I64(-1 << 40)),
            (d, 1, Value::F64(-2.5e-300)),
        ];
        for (buf, i, v) in cases {
            mem.store_ext(buf, i, &[v.to_bits()]);
            let mut out = [0; 1];
            mem.load_ext(buf, i, &mut out);
            assert_eq!(out[0], v.to_bits(), "{v:?}");
            assert_eq!(
                mem[buf.0 as usize].get(i as usize),
                Some(v.clone()),
                "{v:?}"
            );
        }
        let mut neg_zero = [0; 1];
        mem.load_ext(a, 4, &mut neg_zero);
        assert_eq!(neg_zero[0], 0x8000_0000, "f32 -0.0 keeps its sign bit");
    }

    #[test]
    #[should_panic(expected = "declared F32")]
    fn launch_buffer_type_mismatch_panics() {
        let mut kb = KernelBuilder::new("bad", 1);
        let _ = kb.buffer("A", ScalarType::F32, MapDir::To);
        let k = kb.finish();
        let _ = MemImage::new(&k, &[LaunchArg::Buffer(vec![Value::F64(1.0)])]);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn launch_kind_mismatch_panics() {
        let mut kb = KernelBuilder::new("bad", 1);
        let _ = kb.buffer("A", ScalarType::F32, MapDir::To);
        let k = kb.finish();
        let _ = MemImage::new(&k, &[LaunchArg::Scalar(Value::I32(0))]);
    }
}
