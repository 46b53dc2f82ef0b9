//! The [`Network`] wrapper: a trainable model whose parameters and buffers
//! can be flattened into a single weight vector for federated aggregation.

use crate::{Layer, Loss, Param, ParamStore, Sequential, Target, Workspace};
use hs_tensor::{DType, Tensor};

/// A trainable model: a [`Sequential`] stack plus the weight-vector plumbing
/// needed by federated learning (flatten / restore all parameters and
/// batch-norm buffers).
pub struct Network {
    /// The layer stack (checkpoint naming walks its top-level children).
    pub(crate) layers: Sequential,
    /// Workspace and output of [`Network::infer`].
    ws: Workspace,
    out: Tensor,
}

impl Network {
    /// Wraps a sequential layer stack into a network.
    pub fn new(layers: Sequential) -> Self {
        Network {
            layers,
            ws: Workspace::new(),
            out: Tensor::zeros(&[0]),
        }
    }

    /// The training forward pass (batch statistics, dropout, gradient
    /// caches); pair it with [`Network::backward`].
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.layers.forward(x)
    }

    /// Inference over the network's own workspace: after the first pass at
    /// a given input shape, a pass performs no allocations. Returns a
    /// reference to the network-held output (clone it if the result must
    /// outlive the next call).
    pub fn infer(&mut self, x: &Tensor) -> &Tensor {
        self.layers.infer_into(x, &mut self.out, &mut self.ws);
        &self.out
    }

    /// Inference over a caller-owned workspace. Reads only shared state, so
    /// one network (e.g. behind an `Arc`) can serve many threads, each with
    /// its own workspace; bit-identical to [`Network::infer`].
    pub fn infer_into(&self, x: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        self.layers.infer_into(x, out, ws);
    }

    /// Rewrites the layer stack for fused inference: conv/BN/activation and
    /// linear/activation runs collapse into fused layers (recursively, so
    /// the model-zoo blocks fuse their inner stacks). Training behaviour and
    /// the flattened weight layout are unchanged; see [`crate::fuse`].
    pub fn fuse_inference(&mut self) {
        self.layers.fuse_inference();
    }

    /// Forces the convolution inference backend on every [`crate::Conv2d`]
    /// in the network (recursing through blocks and fused layers); `None`
    /// restores the per-layer geometry default. Used by the backend parity
    /// tests and the conv-backend benches — see [`crate::ConvAlgo`].
    pub fn force_conv_algo(&mut self, algo: Option<crate::ConvAlgo>) {
        self.layers
            .for_each_conv2d_mut(&mut |conv| conv.force_algo(algo));
    }

    /// Back-propagates the loss gradient through every layer, accumulating
    /// parameter gradients.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.layers.backward(grad)
    }

    /// Mutable access to all trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.params_mut()
    }

    /// Converts every weight-bearing layer's inference weights to `dtype`
    /// (recursively, through blocks and fused layers). `DType::F16` halves
    /// the resident weight bytes and streams less memory through the GEMM
    /// packing layer; `DType::I8` additionally quantizes [`crate::Linear`]
    /// weights to symmetric per-tensor int8 (convolutions stay f16 — the
    /// per-tensor scale is too coarse for conv stacks — and depthwise
    /// convolutions stay f32). Converting back to `DType::F32` restores
    /// dequantized f32 weights and re-enables training; while quantized,
    /// training panics.
    pub fn to_dtype(&mut self, dtype: DType) {
        self.layers.to_dtype(dtype);
    }

    /// Mutable access to every stored parameter tensor — the checkpoint
    /// walk. Identical to [`Network::params_mut`] on an f32 network; after
    /// [`Network::to_dtype`] the quantized weights appear as
    /// [`ParamStore::Quant`] entries in the same positions.
    pub fn param_stores(&mut self) -> Vec<ParamStore<'_>> {
        self.layers.param_stores()
    }

    /// Mutable access to all non-trainable buffers (batch-norm statistics).
    pub fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers.buffers_mut()
    }

    /// Clears the accumulated gradient of every parameter.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of scalars in the flattened weight vector
    /// (parameters followed by buffers).
    pub fn num_weights(&mut self) -> usize {
        let p: usize = self.params_mut().iter().map(|p| p.len()).sum();
        let b: usize = self.buffers_mut().iter().map(|b| b.len()).sum();
        p + b
    }

    /// Flattens all parameters and buffers into a single vector.
    ///
    /// The layout is: every parameter value in layer order, followed by every
    /// buffer in layer order. [`Network::set_weights`] expects the same
    /// layout, so a vector produced by one replica of a model can be loaded
    /// into another replica built by the same constructor.
    pub fn weights(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        for p in self.params_mut() {
            out.extend_from_slice(p.value.as_slice());
        }
        for b in self.buffers_mut() {
            out.extend_from_slice(b.as_slice());
        }
        out
    }

    /// Restores all parameters and buffers from a flat vector produced by
    /// [`Network::weights`] on a structurally identical network.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match [`Network::num_weights`].
    pub fn set_weights(&mut self, flat: &[f32]) {
        let expected = self.num_weights();
        assert_eq!(
            flat.len(),
            expected,
            "weight vector length {} does not match model size {}",
            flat.len(),
            expected
        );
        let mut offset = 0;
        for p in self.params_mut() {
            let n = p.value.len();
            p.value
                .as_mut_slice()
                .copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
        for b in self.buffers_mut() {
            let n = b.len();
            b.as_mut_slice().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
    }

    /// Flattens the current parameter gradients (buffers contribute zeros),
    /// using the same layout as [`Network::weights`].
    pub fn gradients(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        for p in self.params_mut() {
            out.extend_from_slice(p.grad.as_slice());
        }
        let buffer_len: usize = self.buffers_mut().iter().map(|b| b.len()).sum();
        out.extend(std::iter::repeat_n(0.0, buffer_len));
        out
    }

    /// Runs a full training step on one batch: forward, loss, backward.
    /// Returns the batch loss; the caller applies the optimizer.
    pub fn forward_backward(&mut self, x: &Tensor, target: &Target, loss: &dyn Loss) -> f32 {
        let out = self.forward(x);
        let (l, grad) = loss.forward(&out, target);
        self.backward(&grad);
        l
    }

    /// Evaluates the mean loss on a batch without touching gradients or
    /// batch-norm running statistics ([`Network::infer`]).
    pub fn eval_loss(&mut self, x: &Tensor, target: &Target, loss: &dyn Loss) -> f32 {
        let (l, _) = loss.forward(self.infer(x), target);
        l
    }

    /// Predicted class indices for a batch ([`Network::infer`]).
    pub fn predict_classes(&mut self, x: &Tensor) -> Vec<usize> {
        self.infer(x).argmax_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrossEntropyLoss, Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(Sequential::new(vec![
            Box::new(Linear::new(6, 10, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(10, 4, &mut rng)),
        ]))
    }

    #[test]
    fn weights_round_trip() {
        let mut a = net(0);
        let mut b = net(99);
        let wa = a.weights();
        assert_eq!(wa.len(), a.num_weights());
        b.set_weights(&wa);
        assert_eq!(b.weights(), wa);
    }

    #[test]
    fn set_weights_changes_predictions() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::rand_uniform(&[4, 6], -1.0, 1.0, &mut rng);
        let mut a = net(0);
        let mut b = net(99);
        let before = b.infer(&x).clone();
        b.set_weights(&a.weights());
        let after = b.infer(&x).clone();
        let same_as_a = a.infer(&x).clone();
        assert_ne!(before.as_slice(), after.as_slice());
        assert_eq!(after.as_slice(), same_as_a.as_slice());
    }

    #[test]
    fn gradients_align_with_weights_layout() {
        let mut n = net(1);
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_uniform(&[3, 6], -1.0, 1.0, &mut rng);
        let loss = n.forward_backward(&x, &Target::Classes(vec![0, 1, 2]), &CrossEntropyLoss);
        assert!(loss.is_finite());
        let g = n.gradients();
        assert_eq!(g.len(), n.num_weights());
        assert!(g.iter().any(|&v| v != 0.0));
        n.zero_grad();
        assert!(n.gradients().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "weight vector length")]
    fn set_weights_rejects_wrong_length() {
        let mut n = net(0);
        n.set_weights(&[0.0; 3]);
    }

    #[test]
    fn predict_classes_returns_batch_size() {
        let mut n = net(0);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&[5, 6], -1.0, 1.0, &mut rng);
        assert_eq!(n.predict_classes(&x).len(), 5);
    }
}
