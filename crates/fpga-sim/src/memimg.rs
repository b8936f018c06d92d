//! External-memory image: functional buffer contents plus a base-address
//! layout so accesses have absolute DRAM addresses for the bank model.

use nymble_ir::interp::assert_buffer_type;
use nymble_ir::walker::{load_values, store_values, DataMemory};
use nymble_ir::{ArgId, ArgKind, Kernel, ScalarType, Value};

/// Launch value for one kernel argument (same shape as the gold
/// interpreter's, re-declared here to keep crate dependencies one-way).
#[derive(Clone, Debug)]
pub enum LaunchArg {
    Scalar(Value),
    Buffer(Vec<Value>),
}

/// Functional memory image with a flat address layout: buffers are placed
/// back to back, each aligned to 4 KiB (how the OpenMP runtime's device
/// allocator would place them in the FPGA board DRAM).
pub struct MemImage {
    bufs: Vec<Vec<Value>>,
    base: Vec<u64>,
    elem_size: Vec<u32>,
}

impl MemImage {
    /// Lay out the buffers of `launch` according to `kernel`'s signature and
    /// return the image plus the scalar-argument vector for walkers.
    ///
    /// # Panics
    /// Panics when a launch value's kind or a buffer element's type differs
    /// from the kernel's declaration.
    pub fn new(kernel: &Kernel, launch: &[LaunchArg]) -> (Self, Vec<Value>) {
        assert_eq!(
            launch.len(),
            kernel.args.len(),
            "one launch argument per kernel argument"
        );
        let mut bufs = Vec::with_capacity(launch.len());
        let mut base = Vec::with_capacity(launch.len());
        let mut elem_size = Vec::with_capacity(launch.len());
        let mut scalars = Vec::with_capacity(launch.len());
        let mut cursor = 0u64;
        const ALIGN: u64 = 4096;
        for (arg, la) in kernel.args.iter().zip(launch) {
            match (&arg.kind, la) {
                (ArgKind::Scalar(_), LaunchArg::Scalar(v)) => {
                    scalars.push(v.clone());
                    bufs.push(Vec::new());
                    base.push(cursor);
                    elem_size.push(0);
                }
                (ArgKind::Buffer { elem, .. }, LaunchArg::Buffer(b)) => {
                    assert_buffer_type(&arg.name, *elem, b);
                    scalars.push(Value::I32(0));
                    base.push(cursor);
                    elem_size.push(elem.size_bytes());
                    cursor +=
                        (b.len() as u64 * elem.size_bytes() as u64).div_ceil(ALIGN) * ALIGN + ALIGN;
                    bufs.push(b.clone());
                }
                _ => panic!("launch argument kind mismatch for `{}`", arg.name),
            }
        }
        (
            MemImage {
                bufs,
                base,
                elem_size,
            },
            scalars,
        )
    }

    /// Absolute DRAM byte address of `buf`'s byte offset.
    pub fn abs_addr(&self, buf: ArgId, byte_off: u64) -> u64 {
        self.base[buf.0 as usize] + byte_off
    }

    /// Final buffer contents (for result read-back).
    pub fn into_buffers(self) -> Vec<Vec<Value>> {
        self.bufs
    }

    /// Borrow a buffer's contents.
    pub fn buffer(&self, buf: ArgId) -> &[Value] {
        &self.bufs[buf.0 as usize]
    }

    /// Every argument's contents, indexed like kernel arguments (scalar
    /// slots are empty).
    pub fn buffers(&self) -> &[Vec<Value>] {
        &self.bufs
    }

    /// Element size in bytes of a buffer argument.
    pub fn elem_size(&self, buf: ArgId) -> u32 {
        self.elem_size[buf.0 as usize]
    }
}

impl DataMemory for MemImage {
    fn load_ext(&mut self, buf: ArgId, elem_idx: u64, out: &mut [u64]) {
        load_values(&self.bufs[buf.0 as usize], elem_idx, out);
    }

    fn store_ext(&mut self, buf: ArgId, elem_idx: u64, ty: ScalarType, lanes: &[u64]) {
        store_values(&mut self.bufs[buf.0 as usize], elem_idx, ty, lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, MapDir};

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
        assert_eq!(img.elem_size(a), 4);
    }

    #[test]
    fn functional_roundtrip() {
        let mut kb = KernelBuilder::new("t", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::ToFrom);
        let k = kb.finish();
        let (mut img, _) = MemImage::new(&k, &[LaunchArg::Buffer(vec![Value::F32(0.0); 8])]);
        img.store_ext(a, 3, ScalarType::F32, &[Value::F32(7.5).to_bits()]);
        assert_eq!(img.buffer(a)[3], Value::F32(7.5));
        let mut two = [0; 2];
        img.load_ext(a, 2, &mut two);
        assert_eq!(two[1], Value::F32(7.5).to_bits());
    }
}
