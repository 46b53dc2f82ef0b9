//! Storage backends for [`TensorBase`]: the trait every
//! backing buffer implements plus the f16 and i8 quantized stores and the
//! [`QTensor`] enum that carries "some quantized tensor" through the layer
//! stack without making every layer generic.

use crate::dtype::{f16_bits_to_f32, f32_to_f16_bits, f32_to_i8, i8_scale, DType};
use crate::gemm::WeightMat;
use crate::{Tensor, TensorBase};

/// A contiguous, row-major element store behind a tensor.
///
/// Implementations own their buffer and know how to convert to and from the
/// `f32` compute type; shape bookkeeping stays in [`TensorBase`], per the
/// shape/storage split the GPU-style tensor designs use.
pub trait Storage: Clone + PartialEq + std::fmt::Debug + Send + Sync {
    /// The element dtype this storage holds.
    const DTYPE: DType;

    /// Number of elements stored.
    fn len(&self) -> usize;

    /// Whether the store holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Widens every element into `out` (which must hold exactly
    /// [`Storage::len`] values).
    fn dequantize_into(&self, out: &mut [f32]);

    /// Builds a store holding the closest representable values to `data`.
    fn quantize_from(data: &[f32]) -> Self;
}

impl Storage for Vec<f32> {
    const DTYPE: DType = DType::F32;

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn dequantize_into(&self, out: &mut [f32]) {
        out.copy_from_slice(self);
    }

    fn quantize_from(data: &[f32]) -> Self {
        data.to_vec()
    }
}

/// IEEE binary16 storage: raw bit patterns, half the bytes of `f32`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct F16Storage {
    bits: Vec<u16>,
}

impl F16Storage {
    /// Wraps raw binary16 bit patterns (e.g. from a checkpoint payload).
    pub fn from_bits(bits: Vec<u16>) -> Self {
        F16Storage { bits }
    }

    /// The raw binary16 bit patterns.
    pub fn bits(&self) -> &[u16] {
        &self.bits
    }
}

impl Storage for F16Storage {
    const DTYPE: DType = DType::F16;

    fn len(&self) -> usize {
        self.bits.len()
    }

    fn dequantize_into(&self, out: &mut [f32]) {
        for (o, &h) in out.iter_mut().zip(&self.bits) {
            *o = f16_bits_to_f32(h);
        }
    }

    fn quantize_from(data: &[f32]) -> Self {
        F16Storage {
            bits: data.iter().map(|&v| f32_to_f16_bits(v)).collect(),
        }
    }
}

/// Symmetric per-tensor int8 storage: one `f32` scale for the whole tensor,
/// `value = q * scale`.
#[derive(Clone, PartialEq, Debug)]
pub struct I8Storage {
    data: Vec<i8>,
    scale: f32,
}

impl I8Storage {
    /// Wraps pre-quantized values with their scale (e.g. from a checkpoint
    /// payload).
    pub fn from_parts(data: Vec<i8>, scale: f32) -> Self {
        I8Storage { data, scale }
    }

    /// The quantized values.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The per-tensor dequantisation scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }
}

impl Storage for I8Storage {
    const DTYPE: DType = DType::I8;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn dequantize_into(&self, out: &mut [f32]) {
        for (o, &q) in out.iter_mut().zip(&self.data) {
            *o = q as f32 * self.scale;
        }
    }

    fn quantize_from(data: &[f32]) -> Self {
        let scale = i8_scale(data);
        I8Storage {
            data: data.iter().map(|&v| f32_to_i8(v, scale)).collect(),
            scale,
        }
    }
}

/// A quantized tensor of runtime-selected dtype — the non-generic handle the
/// layer stack stores so `Box<dyn Layer>` objects stay object-safe while
/// their weights change storage class at `hs_nn::Network::to_dtype` time.
#[derive(Clone, PartialEq, Debug)]
pub enum QTensor {
    /// Binary16 weight storage.
    F16(TensorBase<F16Storage>),
    /// Symmetric per-tensor int8 weight storage.
    I8(TensorBase<I8Storage>),
}

impl QTensor {
    /// Quantises an `f32` tensor into the requested storage dtype. `None`
    /// for [`DType::F32`], which needs no `QTensor` at all.
    pub fn quantize(src: &Tensor, dtype: DType) -> Option<QTensor> {
        match dtype {
            DType::F32 => None,
            DType::F16 => Some(QTensor::F16(TensorBase::quantize(src))),
            DType::I8 => Some(QTensor::I8(TensorBase::quantize(src))),
        }
    }

    /// The storage dtype.
    pub fn dtype(&self) -> DType {
        match self {
            QTensor::F16(_) => DType::F16,
            QTensor::I8(_) => DType::I8,
        }
    }

    /// The tensor dimensions.
    pub fn dims(&self) -> &[usize] {
        match self {
            QTensor::F16(t) => t.dims(),
            QTensor::I8(t) => t.dims(),
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        match self {
            QTensor::F16(t) => t.len(),
            QTensor::I8(t) => t.len(),
        }
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Widens back to an `f32` tensor (lossy relative to the original
    /// pre-quantisation values, exact for the stored ones).
    pub fn to_f32(&self) -> Tensor {
        match self {
            QTensor::F16(t) => t.to_f32(),
            QTensor::I8(t) => t.to_f32(),
        }
    }

    /// The flat GEMM operand view over the quantized elements, ready to hand
    /// to [`crate::gemm()`] or [`crate::gemm_nt`].
    pub fn as_mat(&self) -> WeightMat<'_> {
        match self {
            QTensor::F16(t) => WeightMat::F16(t.storage().bits()),
            QTensor::I8(t) => WeightMat::I8 {
                data: t.storage().data(),
                scale: t.storage().scale(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn f16_storage_round_trips_representable_values() {
        let src = Tensor::from_vec(vec![0.0, 1.0, -2.5, 0.25, -0.125], &[5]);
        let q = QTensor::quantize(&src, DType::F16).unwrap();
        assert_eq!(q.dims(), &[5]);
        assert_eq!(q.dtype(), DType::F16);
        assert_eq!(q.to_f32().as_slice(), src.as_slice());
    }

    #[test]
    fn f16_storage_is_close_on_random_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let src = Tensor::rand_uniform(&[512], -2.0, 2.0, &mut rng);
        let q = QTensor::quantize(&src, DType::F16).unwrap();
        for (a, b) in src.as_slice().iter().zip(q.to_f32().as_slice()) {
            // f16 has 11 significand bits: relative error <= 2^-11
            assert!((a - b).abs() <= a.abs() * 4.9e-4 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn i8_storage_bounds_the_quantisation_error() {
        let mut rng = StdRng::seed_from_u64(4);
        let src = Tensor::rand_uniform(&[256], -1.5, 1.5, &mut rng);
        let q = QTensor::quantize(&src, DType::I8).unwrap();
        let QTensor::I8(ref t) = q else {
            unreachable!()
        };
        let scale = t.storage().scale();
        for (a, b) in src.as_slice().iter().zip(q.to_f32().as_slice()) {
            assert!((a - b).abs() <= scale * 0.5 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn f32_needs_no_qtensor() {
        let src = Tensor::ones(&[3]);
        assert!(QTensor::quantize(&src, DType::F32).is_none());
    }

    #[test]
    fn weight_mat_views_expose_the_raw_payload() {
        let src = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        match QTensor::quantize(&src, DType::F16).unwrap().as_mat() {
            WeightMat::F16(bits) => assert_eq!(bits, &[0x3c00, 0xbc00]),
            _ => panic!("expected an f16 view"),
        }
        match QTensor::quantize(&src, DType::I8).unwrap().as_mat() {
            WeightMat::I8 { data, scale } => {
                assert_eq!(data, &[127, -127]);
                assert!((scale - 1.0 / 127.0).abs() < 1e-9);
            }
            _ => panic!("expected an i8 view"),
        }
    }
}
