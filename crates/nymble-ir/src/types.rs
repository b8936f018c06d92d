//! Scalar and vector types plus runtime values.
//!
//! Nymble's datapath operates on C scalar types; the paper's vectorized GEMM
//! versions (Figs. 4 and 5) additionally use 128-bit vector types (`VECTOR`,
//! four `float` lanes). A [`Type`] is a scalar element type plus a lane count;
//! `lanes == 1` denotes a scalar.

/// Element type of a value flowing through the datapath.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer (used for address arithmetic).
    I64,
    /// IEEE-754 single precision. The paper's case studies are all
    /// single-precision (the π study even hits f32 numerical instability).
    F32,
    /// IEEE-754 double precision.
    F64,
}

impl ScalarType {
    /// Size of one element in bytes (as laid out in external memory).
    pub const fn size_bytes(self) -> u32 {
        match self {
            ScalarType::I32 | ScalarType::F32 => 4,
            ScalarType::I64 | ScalarType::F64 => 8,
        }
    }

    /// Whether the type is floating point (determines which performance
    /// counter — FLOP or integer-op — an operation feeds, §IV-B.2b).
    pub const fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }

    /// The register bits of `v` converted to this type (wrapping to i32).
    #[inline(always)]
    pub(crate) fn bits_from_i64(self, v: i64) -> u64 {
        match self {
            ScalarType::I32 => v as i32 as i64 as u64,
            ScalarType::I64 => v as u64,
            ScalarType::F32 => (v as f32).to_bits() as u64,
            ScalarType::F64 => (v as f64).to_bits(),
        }
    }

    /// `bits` as a register of this type holds them, as
    /// `Value::from_bits(self, bits).to_bits()` gives: an i32 sign-extended
    /// from its low half, an f32 zero-extended, 64-bit types unchanged.
    #[inline(always)]
    pub(crate) fn canonical_bits(self, bits: u64) -> u64 {
        match self {
            ScalarType::I32 => bits as i32 as i64 as u64,
            ScalarType::F32 => bits as u32 as u64,
            ScalarType::I64 | ScalarType::F64 => bits,
        }
    }
}

/// A (possibly vector) datapath type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Type {
    /// Element type.
    pub scalar: ScalarType,
    /// Number of SIMD lanes; 1 for scalars. The paper's `VECTOR` type is
    /// `Type { scalar: F32, lanes: 4 }` (128-bit).
    pub lanes: u8,
}

impl Type {
    /// A scalar type with a single lane.
    pub const fn scalar(scalar: ScalarType) -> Self {
        Type { scalar, lanes: 1 }
    }

    /// A vector type with `lanes` lanes.
    pub const fn vector(scalar: ScalarType, lanes: u8) -> Self {
        Type { scalar, lanes }
    }

    /// Total width of the type in bytes.
    pub const fn size_bytes(&self) -> u32 {
        self.scalar.size_bytes() * self.lanes as u32
    }

    pub const I32: Type = Type::scalar(ScalarType::I32);
    pub const I64: Type = Type::scalar(ScalarType::I64);
    pub const F32: Type = Type::scalar(ScalarType::F32);
    pub const F64: Type = Type::scalar(ScalarType::F64);
}

/// A runtime value produced by the interpreter / simulator.
///
/// Vector values hold their lanes in a boxed slice; all lanes share the same
/// scalar type. Mixed-lane vectors are rejected by [`crate::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    /// Homogeneous vector of scalar values.
    Vec(Box<[Value]>),
}

impl Value {
    /// The type of this value.
    pub fn ty(&self) -> Type {
        match self {
            Value::I32(_) => Type::I32,
            Value::I64(_) => Type::I64,
            Value::F32(_) => Type::F32,
            Value::F64(_) => Type::F64,
            Value::Vec(v) => {
                let elem = v.first().map(|e| e.ty().scalar).unwrap_or(ScalarType::F32);
                Type::vector(elem, v.len() as u8)
            }
        }
    }

    /// Interpret the value as a signed 64-bit integer (for indices, trip
    /// counts and conditions). Panics on vectors.
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I32(v) => *v as i64,
            Value::I64(v) => *v,
            Value::F32(v) => *v as i64,
            Value::F64(v) => *v as i64,
            Value::Vec(_) => panic!("vector value used as scalar index"),
        }
    }

    /// Interpret the value as f64 (for float math). Panics on vectors.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::I32(v) => *v as f64,
            Value::I64(v) => *v as f64,
            Value::F32(v) => *v as f64,
            Value::F64(v) => *v,
            Value::Vec(_) => panic!("vector value used as scalar float"),
        }
    }

    /// The canonical zero of a type (used to initialise variables and local
    /// memories, matching BRAM initialisation on the FPGA).
    pub fn zero(ty: Type) -> Value {
        let z = match ty.scalar {
            ScalarType::I32 => Value::I32(0),
            ScalarType::I64 => Value::I64(0),
            ScalarType::F32 => Value::F32(0.0),
            ScalarType::F64 => Value::F64(0.0),
        };
        if ty.lanes <= 1 {
            z
        } else {
            Value::Vec(vec![z; ty.lanes as usize].into_boxed_slice())
        }
    }

    /// The register bits of a scalar value: integers sign-extended to 64
    /// bits, floats as their IEEE-754 pattern. Panics on vectors.
    pub fn to_bits(&self) -> u64 {
        match self {
            Value::I32(v) => *v as i64 as u64,
            Value::I64(v) => *v as u64,
            Value::F32(v) => v.to_bits() as u64,
            Value::F64(v) => v.to_bits(),
            Value::Vec(_) => panic!("vector value used as one register"),
        }
    }

    /// The scalar value of type `ty` held in register bits (the inverse of
    /// [`Value::to_bits`]).
    pub fn from_bits(ty: ScalarType, bits: u64) -> Value {
        match ty {
            ScalarType::I32 => Value::I32(bits as i32),
            ScalarType::I64 => Value::I64(bits as i64),
            ScalarType::F32 => Value::F32(f32::from_bits(bits as u32)),
            ScalarType::F64 => Value::F64(f64::from_bits(bits)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(ScalarType::I32.size_bytes(), 4);
        assert_eq!(ScalarType::I64.size_bytes(), 8);
        assert_eq!(ScalarType::F32.size_bytes(), 4);
        assert_eq!(ScalarType::F64.size_bytes(), 8);
    }

    #[test]
    fn vector_type_width_matches_paper() {
        // The paper's VECTOR type is 128-bit: four f32 lanes.
        let v = Type::vector(ScalarType::F32, 4);
        assert_eq!(v.size_bytes(), 16);
    }

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero(Type::F32), Value::F32(0.0));
        let vz = Value::zero(Type::vector(ScalarType::I32, 3));
        assert_eq!(vz, Value::Vec(vec![Value::I32(0); 3].into_boxed_slice()));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::I32(7).as_i64(), 7);
        assert_eq!(Value::F32(2.5).as_f64(), 2.5);
        assert_eq!(Value::F64(-2.5).as_i64(), -2);
    }

    #[test]
    fn register_bits_roundtrip() {
        for v in [
            Value::I32(i32::MIN),
            Value::I32(-1),
            Value::I64(i64::MAX),
            Value::F32(-0.0),
            Value::F64(f64::INFINITY),
        ] {
            let ty = v.ty().scalar;
            let back = Value::from_bits(ty, v.to_bits());
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
        assert_eq!(Value::I32(-1).to_bits(), u64::MAX, "i32 sign-extends");
        assert_eq!(
            ScalarType::I32.bits_from_i64(1 << 33 | 5),
            5,
            "i32 wraps on the way in"
        );
    }

    #[test]
    fn value_type_roundtrip() {
        let v = Value::Vec(vec![Value::F32(1.0), Value::F32(2.0)].into_boxed_slice());
        assert_eq!(v.ty(), Type::vector(ScalarType::F32, 2));
    }
}
