//! The inference fusion pass: collapses `Conv2d -> BatchNorm2d ->
//! activation` and `Linear -> activation` runs inside a [`crate::Sequential`]
//! into fused layers.
//!
//! Fusion is a *structural* rewrite with *behavioural* equivalence:
//!
//! * **Inference** ([`Layer::infer_into`]) runs the fast path — batch-norm (and
//!   the convolution bias) folded into a per-output-channel scale/shift that
//!   the GEMM applies in its micro-kernel store loop together with the
//!   activation ([`hs_tensor::Store::Epilogue`]), so a three-layer stack
//!   becomes one GEMM with zero extra passes over the activation tensor.
//! * **Training** (`forward`) and `backward` delegate to the original
//!   layers unchanged — a fused network remains exactly trainable, which the
//!   federated-learning simulator relies on.
//! * **Weight layout is invariant**: a fused layer lists the layers it
//!   replaced as its [`Layer::children_mut`], in their original order, so the
//!   default parameter and buffer walks see the same tensors in the same
//!   order and [`crate::Network::weights`] / [`crate::Network::set_weights`]
//!   round-trip identically before and after fusion; FL aggregation is
//!   oblivious to it.
//!
//! The scale/shift fold is recomputed from the batch-norm's *current*
//! running statistics on every inference forward (an `O(channels)` loop into
//! the [`crate::Workspace`]), so weight updates and server aggregation
//! between rounds are always reflected.
//!
//! Patterns that do not match — a non-ReLU-family activation, a batch-norm
//! whose width disagrees with the convolution, anything else in between —
//! are left untouched, falling back to the exact layer-by-layer path.

use crate::{Layer, Workspace};
use hs_tensor::{EpilogueAct, Tensor};

/// Rewrites a layer list, fusing `conv (-> bn) (-> act)` and `linear -> act`
/// runs. Composite layers are recursed into (via [`Layer::fuse_inference`])
/// before matching, so the blocks of the model zoo fuse their inner stacks.
pub(crate) fn fuse_layers(layers: Vec<Box<dyn Layer>>) -> Vec<Box<dyn Layer>> {
    let mut out: Vec<Box<dyn Layer>> = Vec::with_capacity(layers.len());
    let mut iter = layers.into_iter().peekable();
    while let Some(mut layer) = iter.next() {
        layer.fuse_inference();
        if let Some(conv) = layer.as_conv2d() {
            let out_channels = conv.out_channels();
            let bn_matches = iter
                .peek()
                .and_then(|l| l.as_batch_norm())
                .is_some_and(|bn| bn.channels() == out_channels);
            let bn = if bn_matches { iter.next() } else { None };
            let act_matches = iter.peek().is_some_and(|l| l.epilogue_act().is_some());
            let act = if act_matches { iter.next() } else { None };
            if bn.is_some() || act.is_some() {
                out.push(Box::new(FusedConvBnAct::new(layer, bn, act)));
            } else {
                out.push(layer);
            }
        } else if layer.as_linear().is_some() {
            if iter.peek().is_some_and(|l| l.epilogue_act().is_some()) {
                let act = iter.next().expect("peeked activation");
                out.push(Box::new(FusedLinearAct::new(layer, act)));
            } else {
                out.push(layer);
            }
        } else {
            out.push(layer);
        }
    }
    out
}

/// A fused `Conv2d (-> BatchNorm2d) (-> activation)` stack.
///
/// Owns the original layers: training and backward delegate to them
/// unchanged, they are its children (so parameters and buffers keep the
/// original order), and only the inference forward takes the folded
/// single-GEMM path.
pub struct FusedConvBnAct {
    conv: Box<dyn Layer>,
    bn: Option<Box<dyn Layer>>,
    act: Option<Box<dyn Layer>>,
    act_kind: EpilogueAct,
}

impl FusedConvBnAct {
    /// Builds the fused layer. `conv` must be a [`crate::Conv2d`]; `bn`,
    /// when present, a [`crate::BatchNorm2d`] of matching width; `act`, when
    /// present, a ReLU-family activation.
    ///
    /// # Panics
    ///
    /// Panics if the typed views of the provided layers do not match those
    /// expectations.
    pub fn new(
        conv: Box<dyn Layer>,
        bn: Option<Box<dyn Layer>>,
        act: Option<Box<dyn Layer>>,
    ) -> Self {
        assert!(conv.as_conv2d().is_some(), "FusedConvBnAct needs a Conv2d");
        if let Some(bn) = &bn {
            assert!(
                bn.as_batch_norm().is_some(),
                "FusedConvBnAct needs a BatchNorm2d"
            );
        }
        let act_kind = match &act {
            Some(a) => a
                .epilogue_act()
                .expect("FusedConvBnAct activation must be a ReLU-family layer"),
            None => EpilogueAct::None,
        };
        FusedConvBnAct {
            conv,
            bn,
            act,
            act_kind,
        }
    }

    /// Computes the folded per-output-channel scale/shift from the current
    /// batch-norm running statistics (identity scale when there is no
    /// batch-norm), with the convolution bias folded into `shift`.
    fn fold_into(&self, scale: &mut Vec<f32>, shift: &mut Vec<f32>) {
        let conv = self.conv.as_conv2d().expect("validated in new()");
        let bias = conv.bias_values();
        match &self.bn {
            Some(bn) => {
                let bn = bn.as_batch_norm().expect("validated in new()");
                bn.fold_inference(scale, shift);
                // y = scale * (conv + bias) + shift
                for ((sh, &sc), &b) in shift.iter_mut().zip(scale.iter()).zip(bias.iter()) {
                    *sh += sc * b;
                }
            }
            None => {
                scale.clear();
                scale.resize(bias.len(), 1.0);
                shift.clear();
                shift.extend_from_slice(bias);
            }
        }
    }
}

impl Layer for FusedConvBnAct {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        // exact fallback: run the original layers so batch statistics,
        // caches and gradients behave as if never fused
        let mut x = self.conv.forward(input);
        if let Some(bn) = &mut self.bn {
            x = bn.forward(&x);
        }
        if let Some(act) = &mut self.act {
            x = act.forward(&x);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = match &mut self.act {
            Some(act) => act.backward(grad_out),
            None => grad_out.clone(),
        };
        let g = match &mut self.bn {
            Some(bn) => bn.backward(&g),
            None => g,
        };
        self.conv.backward(&g)
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        self.fold_into(&mut ws.scale, &mut ws.shift);
        let conv = self.conv.as_conv2d().expect("validated in new()");
        let ep = Some((&ws.scale[..], &ws.shift[..], self.act_kind));
        conv.conv_into(input, ep, out, &mut ws.col);
    }

    fn children_mut(&mut self) -> Vec<&mut dyn Layer> {
        let mut children: Vec<&mut dyn Layer> = vec![&mut *self.conv];
        if let Some(bn) = &mut self.bn {
            children.push(&mut **bn);
        }
        if let Some(act) = &mut self.act {
            children.push(&mut **act);
        }
        children
    }

    fn name(&self) -> &'static str {
        "fused_conv_bn_act"
    }
}

/// A fused `Linear -> activation` pair: inference runs the GEMM plus one
/// combined bias+activation pass; training and backward delegate to the
/// original layers.
pub struct FusedLinearAct {
    linear: Box<dyn Layer>,
    act: Box<dyn Layer>,
    act_kind: EpilogueAct,
}

impl FusedLinearAct {
    /// Builds the fused pair. `linear` must be a [`crate::Linear`] and `act`
    /// a ReLU-family activation.
    ///
    /// # Panics
    ///
    /// Panics if the typed views of the provided layers do not match.
    pub fn new(linear: Box<dyn Layer>, act: Box<dyn Layer>) -> Self {
        assert!(
            linear.as_linear().is_some(),
            "FusedLinearAct needs a Linear"
        );
        let act_kind = act
            .epilogue_act()
            .expect("FusedLinearAct activation must be a ReLU-family layer");
        FusedLinearAct {
            linear,
            act,
            act_kind,
        }
    }
}

impl Layer for FusedLinearAct {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let x = self.linear.forward(input);
        self.act.forward(&x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.act.backward(grad_out);
        self.linear.backward(&g)
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        let linear = self.linear.as_linear().expect("validated in new()");
        linear.infer_act_into(input, self.act_kind, out);
    }

    fn children_mut(&mut self) -> Vec<&mut dyn Layer> {
        vec![&mut *self.linear, &mut *self.act]
    }

    fn name(&self) -> &'static str {
        "fused_linear_act"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BatchNorm2d, Conv2d, HardSwish, LeakyRelu, Linear, MaxPool2d, Relu, Relu6, Sequential,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_names(seq: &Sequential) -> Vec<&'static str> {
        seq.layers().iter().map(|l| l.name()).collect()
    }

    #[test]
    fn fuses_conv_bn_act_runs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut fused = Sequential::new(vec![
            Box::new(Conv2d::new(3, 8, 3, 1, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Conv2d::new(8, 8, 3, 1, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(8)),
        ]);
        fused.fuse_inference();
        assert_eq!(
            layer_names(&fused),
            vec!["fused_conv_bn_act", "max_pool2d", "fused_conv_bn_act"]
        );
    }

    #[test]
    fn fuses_conv_act_without_bn_and_linear_act() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut fused = Sequential::new(vec![
            Box::new(Conv2d::new(2, 4, 3, 1, 1, 1, &mut rng)),
            Box::new(Relu6::new()),
            Box::new(Linear::new(4, 4, &mut rng)),
            Box::new(LeakyRelu::new(0.1)),
            Box::new(Linear::new(4, 2, &mut rng)),
        ]);
        fused.fuse_inference();
        assert_eq!(
            layer_names(&fused),
            vec!["fused_conv_bn_act", "fused_linear_act", "linear"]
        );
    }

    #[test]
    fn leaves_unsupported_patterns_alone() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut fused = Sequential::new(vec![
            // hard-swish is not a GEMM-epilogue activation: bn fuses, act stays
            Box::new(Conv2d::new(2, 4, 3, 1, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(HardSwish::new()),
            // width-mismatched bn must not fuse
            Box::new(Conv2d::new(4, 4, 3, 1, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(2)),
        ]);
        fused.fuse_inference();
        assert_eq!(
            layer_names(&fused),
            vec!["fused_conv_bn_act", "hard_swish", "conv2d", "batch_norm2d"]
        );
    }

    #[test]
    fn fusion_preserves_weight_layout() {
        let mut rng = StdRng::seed_from_u64(3);
        let build = |rng: &mut StdRng| {
            crate::Network::new(Sequential::new(vec![
                Box::new(Conv2d::new(1, 4, 3, 1, 1, 1, rng)),
                Box::new(BatchNorm2d::new(4)),
                Box::new(Relu::new()),
            ]))
        };
        let mut net = build(&mut rng);
        let before = net.weights();
        net.fuse_inference();
        assert_eq!(net.weights(), before, "fusion must not reorder weights");
        // and set_weights still lands in the same places
        let bumped: Vec<f32> = before.iter().map(|v| v + 1.0).collect();
        net.set_weights(&bumped);
        assert_eq!(net.weights(), bumped);
    }
}
