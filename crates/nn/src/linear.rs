//! Fully-connected (dense) layer.

use crate::{Layer, Param, ParamStore, Workspace};
use hs_tensor::{he_normal, DType, EpilogueAct, QTensor, Tensor, WeightMat};
use rand::rngs::StdRng;

/// A fully-connected layer computing `y = x W^T + b`.
///
/// Input shape `[n, in_features]`, output shape `[n, out_features]`.
pub struct Linear {
    weight: Param,
    bias: Param,
    /// Quantized inference weight (f16 or i8). When set, `weight` is emptied
    /// (halved/quartered resident bytes are the point) and the inference
    /// GEMM streams the quantized buffer, widening on transpose. Training is
    /// disabled while quantized.
    qweight: Option<QTensor>,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a new dense layer with He-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let weight = Param::new(he_normal(&[out_features, in_features], in_features, rng));
        let bias = Param::new(Tensor::zeros(&[out_features]));
        Linear {
            weight,
            bias,
            qweight: None,
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Whether the layer currently holds a quantized weight.
    pub fn is_quantized(&self) -> bool {
        self.qweight.is_some()
    }

    /// The weight as a runtime-dtype GEMM operand.
    fn weight_mat(&self) -> WeightMat<'_> {
        match &self.qweight {
            Some(q) => q.as_mat(),
            None => WeightMat::F32(self.weight.value.as_slice()),
        }
    }

    /// Inference forward into `out` (resized in place): `y = x W^T + b`
    /// followed by `act`, with the bias add and activation fused into one
    /// pass over the output instead of two separate tensor traversals.
    pub(crate) fn infer_act_into(&self, input: &Tensor, act: EpilogueAct, out: &mut Tensor) {
        assert_eq!(input.rank(), 2, "Linear expects a [n, features] input");
        assert_eq!(
            input.dims()[1],
            self.in_features,
            "Linear expects {} input features, got {}",
            self.in_features,
            input.dims()[1]
        );
        let n = input.dims()[0];
        out.resize_to(&[n, self.out_features]);
        hs_tensor::gemm_nt(
            input.as_slice(),
            self.weight_mat(),
            out.as_mut_slice(),
            n,
            self.in_features,
            self.out_features,
        );
        let b = self.bias.value.as_slice();
        for row in out.as_mut_slice().chunks_mut(self.out_features) {
            for (o, &bv) in row.iter_mut().zip(b.iter()) {
                *o = act.apply(*o + bv);
            }
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert!(
            self.qweight.is_none(),
            "Linear: cannot train a quantized layer — call to_dtype(DType::F32) first"
        );
        assert_eq!(input.rank(), 2, "Linear expects a [n, features] input");
        assert_eq!(
            input.dims()[1],
            self.in_features,
            "Linear expects {} input features, got {}",
            self.in_features,
            input.dims()[1]
        );
        self.cached_input = Some(input.clone());
        // y = x W^T + b on the GEMM layer; matmul_nt transposes W through a
        // scratch buffer instead of materialising a Tensor, and the bias is
        // added in place rather than via another allocation.
        let mut out = input.matmul_nt(&self.weight.value);
        out.add_row_bias_assign(&self.bias.value);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            self.qweight.is_none(),
            "Linear: cannot backprop through a quantized layer — call to_dtype(DType::F32) first"
        );
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        // grad_w = grad_out^T  x  input  -> [out, in]
        let grad_w = grad_out.matmul_tn(input);
        self.weight.accumulate_grad(&grad_w);
        // grad_b = column sums of grad_out
        let grad_b = grad_out.sum_axis(0);
        self.bias.accumulate_grad(&grad_b);
        // grad_input = grad_out x W -> [n, in]
        grad_out.matmul(&self.weight.value)
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        self.infer_act_into(input, EpilogueAct::None, out);
    }

    fn as_linear(&self) -> Option<&Linear> {
        Some(self)
    }

    fn to_dtype(&mut self, dtype: DType) {
        match (dtype, self.qweight.take()) {
            (DType::F32, Some(q)) => {
                self.weight.value = q.to_f32();
                self.weight.grad = Tensor::zeros(self.weight.value.dims());
                self.cached_input = None;
            }
            (DType::F32, None) => {}
            (_, prior) => {
                // quantize from the full-precision weight when we still have
                // it; otherwise re-quantize through f32 (lossless for the
                // same dtype, best-effort across dtypes)
                let f32_weight = match &prior {
                    Some(q) => q.to_f32(),
                    None => std::mem::replace(&mut self.weight.value, Tensor::zeros(&[0])),
                };
                self.qweight = QTensor::quantize(&f32_weight, dtype);
                self.weight.value = Tensor::zeros(&[0]);
                self.weight.grad = Tensor::zeros(&[0]);
                self.cached_input = None;
            }
        }
    }

    fn param_stores(&mut self) -> Vec<ParamStore<'_>> {
        // while quantized the f32 weight is parked empty: the quantized
        // weight takes its slot and only the bias stays a trainable param
        match &mut self.qweight {
            Some(q) => vec![ParamStore::Quant(q), ParamStore::F32(&mut self.bias)],
            None => vec![
                ParamStore::F32(&mut self.weight),
                ParamStore::F32(&mut self.bias),
            ],
        }
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(5, 3, &mut rng);
        let x = Tensor::rand_uniform(&[4, 5], -1.0, 1.0, &mut rng);
        let y = crate::infer(&l, &x);
        assert_eq!(y.dims(), &[4, 3]);
    }

    #[test]
    fn identity_weight_passthrough() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 3, &mut rng);
        l.params_mut()[0].value = Tensor::eye(3);
        l.params_mut()[1].value = Tensor::zeros(&[3]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = crate::infer(&l, &x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng);

        // analytic gradient of sum(output) w.r.t. weight[0][0]
        let y = l.forward(&x);
        let grad_out = Tensor::ones(y.dims());
        let grad_in = l.backward(&grad_out);
        let analytic_w = l.params_mut()[0].grad.at(&[0, 0]);

        // numerical gradient
        let eps = 1e-3;
        let base_w = l.params_mut()[0].value.at(&[0, 0]);
        *l.params_mut()[0].value.at_mut(&[0, 0]) = base_w + eps;
        let plus = crate::infer(&l, &x).sum();
        *l.params_mut()[0].value.at_mut(&[0, 0]) = base_w - eps;
        let minus = crate::infer(&l, &x).sum();
        *l.params_mut()[0].value.at_mut(&[0, 0]) = base_w;
        let numerical = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic_w - numerical).abs() < 1e-2,
            "analytic {analytic_w} vs numerical {numerical}"
        );

        // input gradient: d sum(xW^T+b) / dx = column sums of W
        let w_col_sum = l.params_mut()[0].value.sum_axis(0);
        for j in 0..3 {
            assert!((grad_in.at(&[0, j]) - w_col_sum.at(&[j])).abs() < 1e-5);
        }
    }

    #[test]
    fn params_report_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(4, 2, &mut rng);
        let params = l.params_mut();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].value.dims(), &[2, 4]);
        assert_eq!(params[1].value.dims(), &[2]);
    }

    #[test]
    fn quantized_inference_stays_close_and_round_trips() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut l = Linear::new(16, 8, &mut rng);
        let x = Tensor::rand_uniform(&[4, 16], -1.0, 1.0, &mut rng);
        let reference = crate::infer(&l, &x);
        let w_before = l.params_mut()[0].value.clone();
        for dtype in [DType::F16, DType::I8] {
            l.to_dtype(dtype);
            assert!(l.is_quantized());
            // the f32 weight is parked empty while quantized
            assert_eq!(l.params_mut().len(), 1);
            let stores = l.param_stores();
            assert_eq!(stores.len(), 2);
            assert_eq!(stores[0].dtype(), dtype);
            assert_eq!(stores[0].dims(), &[8, 16]);
            drop(stores);
            let y = crate::infer(&l, &x);
            let tol = if dtype == DType::F16 { 5e-3 } else { 5e-2 };
            for (a, b) in reference.as_slice().iter().zip(y.as_slice()) {
                assert!(
                    (a - b).abs() <= tol * a.abs().max(1.0),
                    "{dtype}: {a} vs {b}"
                );
            }
            l.to_dtype(DType::F32);
            assert!(!l.is_quantized());
        }
        // f16 -> f32 -> (weights round-trip within f16 precision); restore
        // the pristine weights first — the i8 round trip above was lossy
        l.params_mut()[0].value = w_before.clone();
        l.to_dtype(DType::F16);
        l.to_dtype(DType::F32);
        for (a, b) in w_before
            .as_slice()
            .iter()
            .zip(l.params_mut()[0].value.as_slice())
        {
            assert!((a - b).abs() <= 4.9e-4 * a.abs().max(1e-3), "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot train a quantized layer")]
    fn training_a_quantized_layer_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut l = Linear::new(4, 2, &mut rng);
        l.to_dtype(DType::I8);
        let x = Tensor::zeros(&[1, 4]);
        let _ = l.forward(&x);
    }
}
