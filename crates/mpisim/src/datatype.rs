//! MPI datatypes and reduction operators.
//!
//! The substrate moves raw bytes; datatypes give those bytes meaning for
//! reductions and for buffer sizing, mirroring the role of `MPI_Datatype` in
//! the paper's buffer-management component ("the data type argument is
//! needed to represent an MPI buffer", §3.1.3).

use std::fmt;

/// Element type of a typed message buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datatype {
    /// 8-bit opaque byte (`MPI_BYTE`).
    Byte,
    /// 32-bit signed integer (`MPI_INT`).
    Int32,
    /// 64-bit signed integer (`MPI_LONG_LONG`).
    Int64,
    /// 32-bit IEEE float (`MPI_FLOAT`).
    Float32,
    /// 64-bit IEEE float (`MPI_DOUBLE`).
    Float64,
}

impl Datatype {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            Datatype::Byte => 1,
            Datatype::Int32 | Datatype::Float32 => 4,
            Datatype::Int64 | Datatype::Float64 => 8,
        }
    }

    /// The MPI-style name of this type.
    pub fn name(self) -> &'static str {
        match self {
            Datatype::Byte => "MPI_BYTE",
            Datatype::Int32 => "MPI_INT",
            Datatype::Int64 => "MPI_LONG_LONG",
            Datatype::Float32 => "MPI_FLOAT",
            Datatype::Float64 => "MPI_DOUBLE",
        }
    }
}

impl fmt::Display for Datatype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reduction operator (`MPI_Op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

macro_rules! reduce_typed {
    ($ty:ty, $acc:expr, $inp:expr, $op:expr) => {{
        let n = std::mem::size_of::<$ty>();
        debug_assert_eq!($acc.len() % n, 0);
        for (a, b) in $acc.chunks_exact_mut(n).zip($inp.chunks_exact(n)) {
            let x = <$ty>::from_le_bytes(a.try_into().unwrap());
            let y = <$ty>::from_le_bytes(b.try_into().unwrap());
            let r: $ty = match $op {
                ReduceOp::Sum => x + y,
                ReduceOp::Prod => x * y,
                ReduceOp::Max => {
                    if y > x {
                        y
                    } else {
                        x
                    }
                }
                ReduceOp::Min => {
                    if y < x {
                        y
                    } else {
                        x
                    }
                }
            };
            a.copy_from_slice(&r.to_le_bytes());
        }
    }};
}

impl ReduceOp {
    /// Combine `input` into `acc` elementwise, interpreting both as little-
    /// endian arrays of `dtype`. Lengths must match and be a whole number of
    /// elements.
    pub fn combine(self, dtype: Datatype, acc: &mut [u8], input: &[u8]) {
        assert_eq!(
            acc.len(),
            input.len(),
            "reduction buffers must have equal length"
        );
        assert_eq!(
            acc.len() % dtype.size(),
            0,
            "reduction buffer not a whole number of {dtype} elements"
        );
        match dtype {
            Datatype::Byte => reduce_typed!(u8, acc, input, self),
            Datatype::Int32 => reduce_typed!(i32, acc, input, self),
            Datatype::Int64 => reduce_typed!(i64, acc, input, self),
            Datatype::Float32 => reduce_typed!(f32, acc, input, self),
            Datatype::Float64 => reduce_typed!(f64, acc, input, self),
        }
    }
}

/// Encode a slice of `i32` as a little-endian byte vector.
pub fn i32s_to_bytes(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Decode a little-endian byte slice as `i32`s.
pub fn bytes_to_i32s(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Encode a slice of `f64` as a little-endian byte vector.
pub fn f64s_to_bytes(vals: &[f64]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Decode a little-endian byte slice as `f64`s.
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(Datatype::Byte.size(), 1);
        assert_eq!(Datatype::Int32.size(), 4);
        assert_eq!(Datatype::Int64.size(), 8);
        assert_eq!(Datatype::Float32.size(), 4);
        assert_eq!(Datatype::Float64.size(), 8);
    }

    #[test]
    fn sum_i32() {
        let mut acc = i32s_to_bytes(&[1, 2, 3]);
        let inp = i32s_to_bytes(&[10, 20, 30]);
        ReduceOp::Sum.combine(Datatype::Int32, &mut acc, &inp);
        assert_eq!(bytes_to_i32s(&acc), vec![11, 22, 33]);
    }

    #[test]
    fn max_min_f64() {
        let mut acc = f64s_to_bytes(&[1.0, 9.0]);
        let inp = f64s_to_bytes(&[5.0, 2.0]);
        ReduceOp::Max.combine(Datatype::Float64, &mut acc, &inp);
        assert_eq!(bytes_to_f64s(&acc), vec![5.0, 9.0]);
        let mut acc = f64s_to_bytes(&[1.0, 9.0]);
        ReduceOp::Min.combine(Datatype::Float64, &mut acc, &inp);
        assert_eq!(bytes_to_f64s(&acc), vec![1.0, 2.0]);
    }

    #[test]
    fn prod_i64() {
        let mut acc = vec![];
        acc.extend(2i64.to_le_bytes());
        let mut inp = vec![];
        inp.extend(21i64.to_le_bytes());
        ReduceOp::Prod.combine(Datatype::Int64, &mut acc, &inp);
        assert_eq!(i64::from_le_bytes(acc.try_into().unwrap()), 42);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let mut acc = vec![0u8; 4];
        ReduceOp::Sum.combine(Datatype::Int32, &mut acc, &[0u8; 8]);
    }

    #[test]
    fn byte_reduction() {
        let mut acc = vec![200u8];
        ReduceOp::Max.combine(Datatype::Byte, &mut acc, &[55u8]);
        assert_eq!(acc, vec![200]);
    }

    #[test]
    fn roundtrip_helpers() {
        let vals = vec![-1i32, 0, i32::MAX];
        assert_eq!(bytes_to_i32s(&i32s_to_bytes(&vals)), vals);
        let fs = vec![0.5f64, -2.25];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&fs)), fs);
    }
}
