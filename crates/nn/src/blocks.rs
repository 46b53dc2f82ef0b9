//! Composite building blocks used by the mobile model zoo: residual
//! connections, squeeze-excite attention, MobileNetV3 inverted residuals,
//! SqueezeNet fire modules and ShuffleNetV2 units.

use crate::{
    BatchNorm2d, Conv2d, GlobalAvgPool, HardSigmoid, HardSwish, Layer, Linear, Relu, Sequential,
    Workspace,
};
use hs_tensor::Tensor;
use rand::rngs::StdRng;

/// Extracts channels `[from, to)` of a `[n, c, h, w]` tensor.
fn slice_channels(x: &Tensor, from: usize, to: usize) -> Tensor {
    let mut out = Tensor::zeros(&[0]);
    slice_channels_into(x, from, to, &mut out);
    out
}

/// [`slice_channels`] into a caller-owned tensor (resized in place), the
/// body behind the blocks' inference paths.
fn slice_channels_into(x: &Tensor, from: usize, to: usize, out: &mut Tensor) {
    let dims = x.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(
        from < to && to <= c,
        "invalid channel slice {from}..{to} of {c}"
    );
    let hw = h * w;
    let data = x.as_slice();
    out.resize_to(&[n, to - from, h, w]);
    let o = out.as_mut_slice();
    let span = (to - from) * hw;
    for ni in 0..n {
        let base = ni * c * hw;
        o[ni * span..(ni + 1) * span].copy_from_slice(&data[base + from * hw..base + to * hw]);
    }
}

/// Concatenates two `[n, c, h, w]` tensors along the channel axis.
fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
    Tensor::concat(&[a, b], 1)
}

/// [`concat_channels`] into a caller-owned tensor (resized in place).
fn concat_channels_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (da, db) = (a.dims(), b.dims());
    assert_eq!(da[0], db[0], "concat batch mismatch");
    assert_eq!(&da[2..], &db[2..], "concat spatial mismatch");
    let (n, ca, cb) = (da[0], da[1], db[1]);
    let hw = da[2] * da[3];
    out.resize_to(&[n, ca + cb, da[2], da[3]]);
    let o = out.as_mut_slice();
    let (xa, xb) = (a.as_slice(), b.as_slice());
    let span = (ca + cb) * hw;
    for ni in 0..n {
        o[ni * span..ni * span + ca * hw].copy_from_slice(&xa[ni * ca * hw..(ni + 1) * ca * hw]);
        o[ni * span + ca * hw..(ni + 1) * span]
            .copy_from_slice(&xb[ni * cb * hw..(ni + 1) * cb * hw]);
    }
}

/// A residual connection `y = body(x) + x`.
///
/// The body must preserve the input shape.
pub struct Residual {
    body: Sequential,
}

impl Residual {
    /// Wraps a body whose output shape equals its input shape.
    pub fn new(body: Sequential) -> Self {
        Residual { body }
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let y = self.body.forward(input);
        assert_eq!(
            y.dims(),
            input.dims(),
            "residual body must preserve the input shape"
        );
        y.add(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.body.backward(grad_out).add(grad_out)
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        // the body writes straight into `out`; the skip connection folds the
        // input in afterwards, in place
        self.body.infer_into(input, out, ws);
        assert_eq!(
            out.dims(),
            input.dims(),
            "residual body must preserve the input shape"
        );
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o += x;
        }
    }

    fn children_mut(&mut self) -> Vec<&mut dyn Layer> {
        vec![&mut self.body]
    }

    fn name(&self) -> &'static str {
        "residual"
    }
}

/// `out[n, c] = x[n, c] * scale[n, c]` over every spatial position: the
/// channel gating of [`SqueezeExcite`].
fn scale_channels(x: &Tensor, scale: &Tensor, out: &mut Tensor) {
    let dims = x.dims();
    let hw = dims[2] * dims[3];
    out.resize_to(dims);
    for ((o, xs), &g) in out
        .as_mut_slice()
        .chunks_mut(hw)
        .zip(x.as_slice().chunks(hw))
        .zip(scale.as_slice())
    {
        for (ov, &xv) in o.iter_mut().zip(xs) {
            *ov = xv * g;
        }
    }
}

/// Squeeze-and-excitation channel attention.
///
/// Computes per-channel gates from globally pooled features and rescales the
/// input channels by those gates, as used inside MobileNetV3 blocks.
pub struct SqueezeExcite {
    squeeze: Sequential,
    cached_input: Option<Tensor>,
    cached_scale: Option<Tensor>,
}

impl SqueezeExcite {
    /// Creates a squeeze-excite block over `channels` with the given
    /// reduction factor (clamped so the bottleneck has at least 2 units).
    pub fn new(channels: usize, reduction: usize, rng: &mut StdRng) -> Self {
        let hidden = (channels / reduction.max(1)).max(2);
        let squeeze = Sequential::new(vec![
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(channels, hidden, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(hidden, channels, rng)),
            Box::new(HardSigmoid::new()),
        ]);
        SqueezeExcite {
            squeeze,
            cached_input: None,
            cached_scale: None,
        }
    }
}

impl Layer for SqueezeExcite {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let scale = self.squeeze.forward(input); // [n, c]
        let mut out = Tensor::zeros(&[0]);
        scale_channels(input, &scale, &mut out);
        self.cached_input = Some(input.clone());
        self.cached_scale = Some(scale);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let scale = self.cached_scale.as_ref().expect("missing cache");
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let hw = h * w;
        let go = grad_out.as_slice();
        let x = input.as_slice();
        let s = scale.as_slice();

        // gradient flowing directly through the channel scaling
        let mut grad_direct = vec![0.0f32; x.len()];
        // gradient w.r.t. the per-channel gates
        let mut grad_scale = vec![0.0f32; n * c];
        for ni in 0..n {
            for ci in 0..c {
                let off = (ni * c + ci) * hw;
                let g = s[ni * c + ci];
                let mut acc = 0.0;
                for i in 0..hw {
                    grad_direct[off + i] = go[off + i] * g;
                    acc += go[off + i] * x[off + i];
                }
                grad_scale[ni * c + ci] = acc;
            }
        }
        let grad_through_squeeze = self
            .squeeze
            .backward(&Tensor::from_vec(grad_scale, &[n, c]));
        Tensor::from_vec(grad_direct, dims).add(&grad_through_squeeze)
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        let mut scale = ws.take();
        self.squeeze.infer_into(input, &mut scale, ws); // [n, c]
        scale_channels(input, &scale, out);
        ws.give(scale);
    }

    fn children_mut(&mut self) -> Vec<&mut dyn Layer> {
        vec![&mut self.squeeze]
    }

    fn name(&self) -> &'static str {
        "squeeze_excite"
    }
}

/// A MobileNetV3 inverted-residual block: expand (1×1) → depthwise (k×k,
/// stride) → optional squeeze-excite → project (1×1), with a skip connection
/// when the shapes allow it.
pub struct InvertedResidual {
    body: Sequential,
    use_skip: bool,
}

impl InvertedResidual {
    /// Builds an inverted residual block.
    ///
    /// `use_hs` selects hard-swish (true) or ReLU (false) activations and
    /// `use_se` adds a squeeze-excite stage after the depthwise convolution.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        expand_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        use_se: bool,
        use_hs: bool,
        rng: &mut StdRng,
    ) -> Self {
        let pad = kernel / 2;
        let mut body = Sequential::empty();
        let act = |use_hs: bool| -> Box<dyn Layer> {
            if use_hs {
                Box::new(HardSwish::new())
            } else {
                Box::new(Relu::new())
            }
        };
        if expand_channels != in_channels {
            body.push(Box::new(Conv2d::new(
                in_channels,
                expand_channels,
                1,
                1,
                0,
                1,
                rng,
            )));
            body.push(Box::new(BatchNorm2d::new(expand_channels)));
            body.push(act(use_hs));
        }
        body.push(Box::new(Conv2d::depthwise(
            expand_channels,
            kernel,
            stride,
            pad,
            rng,
        )));
        body.push(Box::new(BatchNorm2d::new(expand_channels)));
        body.push(act(use_hs));
        if use_se {
            body.push(Box::new(SqueezeExcite::new(expand_channels, 4, rng)));
        }
        body.push(Box::new(Conv2d::new(
            expand_channels,
            out_channels,
            1,
            1,
            0,
            1,
            rng,
        )));
        body.push(Box::new(BatchNorm2d::new(out_channels)));
        InvertedResidual {
            body,
            use_skip: stride == 1 && in_channels == out_channels,
        }
    }
}

impl Layer for InvertedResidual {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let y = self.body.forward(input);
        if self.use_skip {
            y.add(input)
        } else {
            y
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.body.backward(grad_out);
        if self.use_skip {
            g.add(grad_out)
        } else {
            g
        }
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        // the body writes straight into `out`; the skip connection folds the
        // input in afterwards, in place
        self.body.infer_into(input, out, ws);
        if self.use_skip {
            assert_eq!(
                out.dims(),
                input.dims(),
                "skip connection requires shape-preserving body"
            );
            for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
                *o += x;
            }
        }
    }

    fn children_mut(&mut self) -> Vec<&mut dyn Layer> {
        vec![&mut self.body]
    }

    fn name(&self) -> &'static str {
        "inverted_residual"
    }
}

/// A SqueezeNet fire module: squeeze (1×1) followed by parallel 1×1 and 3×3
/// expansions concatenated along the channel axis.
pub struct Fire {
    squeeze: Sequential,
    expand1: Sequential,
    expand3: Sequential,
    expand1_channels: usize,
    expand3_channels: usize,
    cached_squeezed: Option<Tensor>,
}

impl Fire {
    /// Builds a fire module.
    pub fn new(
        in_channels: usize,
        squeeze_channels: usize,
        expand1_channels: usize,
        expand3_channels: usize,
        rng: &mut StdRng,
    ) -> Self {
        let squeeze = Sequential::new(vec![
            Box::new(Conv2d::new(in_channels, squeeze_channels, 1, 1, 0, 1, rng)),
            Box::new(Relu::new()),
        ]);
        let expand1 = Sequential::new(vec![
            Box::new(Conv2d::new(
                squeeze_channels,
                expand1_channels,
                1,
                1,
                0,
                1,
                rng,
            )),
            Box::new(Relu::new()),
        ]);
        let expand3 = Sequential::new(vec![
            Box::new(Conv2d::new(
                squeeze_channels,
                expand3_channels,
                3,
                1,
                1,
                1,
                rng,
            )),
            Box::new(Relu::new()),
        ]);
        Fire {
            squeeze,
            expand1,
            expand3,
            expand1_channels,
            expand3_channels,
            cached_squeezed: None,
        }
    }

    /// Total number of output channels (`expand1 + expand3`).
    pub fn out_channels(&self) -> usize {
        self.expand1_channels + self.expand3_channels
    }
}

impl Layer for Fire {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let squeezed = self.squeeze.forward(input);
        let e1 = self.expand1.forward(&squeezed);
        let e3 = self.expand3.forward(&squeezed);
        self.cached_squeezed = Some(squeezed);
        concat_channels(&e1, &e3)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g1 = slice_channels(grad_out, 0, self.expand1_channels);
        let g3 = slice_channels(
            grad_out,
            self.expand1_channels,
            self.expand1_channels + self.expand3_channels,
        );
        let gs1 = self.expand1.backward(&g1);
        let gs3 = self.expand3.backward(&g3);
        self.squeeze.backward(&gs1.add(&gs3))
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        let (mut sq, mut e1, mut e3) = (ws.take(), ws.take(), ws.take());
        self.squeeze.infer_into(input, &mut sq, ws);
        self.expand1.infer_into(&sq, &mut e1, ws);
        self.expand3.infer_into(&sq, &mut e3, ws);
        concat_channels_into(&e1, &e3, out);
        ws.give(e3);
        ws.give(e1);
        ws.give(sq);
    }

    fn children_mut(&mut self) -> Vec<&mut dyn Layer> {
        vec![&mut self.squeeze, &mut self.expand1, &mut self.expand3]
    }

    fn name(&self) -> &'static str {
        "fire"
    }
}

/// Channel shuffle with a fixed group count, as used between ShuffleNetV2
/// units.
pub struct ChannelShuffle {
    groups: usize,
}

impl ChannelShuffle {
    /// Creates a channel shuffle with `groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn new(groups: usize) -> Self {
        assert!(groups >= 1, "groups must be positive");
        ChannelShuffle { groups }
    }

    fn permute(&self, x: &Tensor, inverse: bool) -> Tensor {
        let mut out = Tensor::zeros(&[0]);
        self.permute_into(x, inverse, &mut out);
        out
    }

    /// [`ChannelShuffle::permute`] into a caller-owned tensor (resized in
    /// place) — the inference body.
    fn permute_into(&self, x: &Tensor, inverse: bool, out: &mut Tensor) {
        let dims = x.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let g = self.groups;
        assert_eq!(c % g, 0, "channels must divide by groups");
        let cpg = c / g;
        let hw = h * w;
        let data = x.as_slice();
        out.resize_to(dims);
        let o = out.as_mut_slice();
        for ni in 0..n {
            for gi in 0..g {
                for j in 0..cpg {
                    // forward shuffle: output channel j*g + gi takes input channel gi*cpg + j
                    let (src, dst) = if inverse {
                        (j * g + gi, gi * cpg + j)
                    } else {
                        (gi * cpg + j, j * g + gi)
                    };
                    let src_off = (ni * c + src) * hw;
                    let dst_off = (ni * c + dst) * hw;
                    o[dst_off..dst_off + hw].copy_from_slice(&data[src_off..src_off + hw]);
                }
            }
        }
    }
}

impl Layer for ChannelShuffle {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.permute(input, false)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.permute(grad_out, true)
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        self.permute_into(input, false, out);
    }

    fn name(&self) -> &'static str {
        "channel_shuffle"
    }
}

/// A ShuffleNetV2 unit.
///
/// With `stride == 1` the input channels are split in half, one half passes
/// through a 1×1 → depthwise 3×3 → 1×1 branch, and the halves are
/// concatenated and shuffled. With `stride == 2` both branches process the
/// full input and the output doubles the channel count (downsampling unit).
pub struct ShuffleUnit {
    stride: usize,
    half: usize,
    branch_main: Sequential,
    branch_proj: Option<Sequential>,
    shuffle: ChannelShuffle,
    cached_input: Option<Tensor>,
}

impl ShuffleUnit {
    /// Builds a ShuffleNetV2 unit over `channels` input channels.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 1` and `channels` is odd, or stride is not 1 or 2.
    pub fn new(channels: usize, stride: usize, rng: &mut StdRng) -> Self {
        assert!(stride == 1 || stride == 2, "stride must be 1 or 2");
        let half = if stride == 1 {
            assert_eq!(channels % 2, 0, "stride-1 shuffle unit needs even channels");
            channels / 2
        } else {
            channels
        };
        let branch_main = Sequential::new(vec![
            Box::new(Conv2d::new(half, half, 1, 1, 0, 1, rng)),
            Box::new(BatchNorm2d::new(half)),
            Box::new(Relu::new()),
            Box::new(Conv2d::depthwise(half, 3, stride, 1, rng)),
            Box::new(BatchNorm2d::new(half)),
            Box::new(Conv2d::new(half, half, 1, 1, 0, 1, rng)),
            Box::new(BatchNorm2d::new(half)),
            Box::new(Relu::new()),
        ]);
        let branch_proj = if stride == 2 {
            Some(Sequential::new(vec![
                Box::new(Conv2d::depthwise(channels, 3, 2, 1, rng)),
                Box::new(BatchNorm2d::new(channels)),
                Box::new(Conv2d::new(channels, channels, 1, 1, 0, 1, rng)),
                Box::new(BatchNorm2d::new(channels)),
                Box::new(Relu::new()),
            ]))
        } else {
            None
        };
        ShuffleUnit {
            stride,
            half,
            branch_main,
            branch_proj,
            shuffle: ChannelShuffle::new(2),
            cached_input: None,
        }
    }

    /// Number of output channels produced by the unit.
    pub fn out_channels(&self) -> usize {
        // both the stride-1 and stride-2 unit shapes emit half * 2 channels
        self.half * 2
    }
}

impl Layer for ShuffleUnit {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        let out = if self.stride == 1 {
            let x1 = slice_channels(input, 0, self.half);
            let x2 = slice_channels(input, self.half, self.half * 2);
            let y2 = self.branch_main.forward(&x2);
            concat_channels(&x1, &y2)
        } else {
            let y1 = self
                .branch_proj
                .as_mut()
                .expect("stride-2 unit has a projection branch")
                .forward(input);
            let y2 = self.branch_main.forward(input);
            concat_channels(&y1, &y2)
        };
        self.shuffle.forward(&out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.shuffle.backward(grad_out);
        if self.stride == 1 {
            let g1 = slice_channels(&g, 0, self.half);
            let g2 = slice_channels(&g, self.half, self.half * 2);
            let gx2 = self.branch_main.backward(&g2);
            // reassemble [g1 | gx2] along channels
            concat_channels(&g1, &gx2)
        } else {
            let channels = self.half;
            let g1 = slice_channels(&g, 0, channels);
            let g2 = slice_channels(&g, channels, channels * 2);
            let gx1 = self
                .branch_proj
                .as_mut()
                .expect("stride-2 unit has a projection branch")
                .backward(&g1);
            let gx2 = self.branch_main.backward(&g2);
            gx1.add(&gx2)
        }
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        let (mut y1, mut y2, mut cat) = (ws.take(), ws.take(), ws.take());
        if self.stride == 1 {
            // identity half into y1, processed half through the main branch
            let mut x2 = ws.take();
            slice_channels_into(input, 0, self.half, &mut y1);
            slice_channels_into(input, self.half, self.half * 2, &mut x2);
            self.branch_main.infer_into(&x2, &mut y2, ws);
            ws.give(x2);
        } else {
            self.branch_proj
                .as_ref()
                .expect("stride-2 unit has a projection branch")
                .infer_into(input, &mut y1, ws);
            self.branch_main.infer_into(input, &mut y2, ws);
        }
        concat_channels_into(&y1, &y2, &mut cat);
        self.shuffle.permute_into(&cat, false, out);
        ws.give(cat);
        ws.give(y2);
        ws.give(y1);
    }

    fn children_mut(&mut self) -> Vec<&mut dyn Layer> {
        // main branch first, then the projection: the weight layout order
        let mut children: Vec<&mut dyn Layer> = vec![&mut self.branch_main];
        if let Some(proj) = &mut self.branch_proj {
            children.push(proj);
        }
        children
    }

    fn name(&self) -> &'static str {
        "shuffle_unit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn slice_and_concat_channels_round_trip() {
        let mut r = rng();
        let x = Tensor::rand_uniform(&[2, 6, 3, 3], -1.0, 1.0, &mut r);
        let a = slice_channels(&x, 0, 2);
        let b = slice_channels(&x, 2, 6);
        let back = concat_channels(&a, &b);
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    fn residual_adds_identity() {
        let mut r = rng();
        let body = Sequential::new(vec![Box::new(Conv2d::new(2, 2, 3, 1, 1, 1, &mut r))]);
        let mut res = Residual::new(body);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut r);
        let y = res.forward(&x);
        assert_eq!(y.dims(), x.dims());
        let g = res.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn squeeze_excite_preserves_shape_and_bounds() {
        let mut r = rng();
        let mut se = SqueezeExcite::new(4, 4, &mut r);
        let x = Tensor::rand_uniform(&[2, 4, 5, 5], 0.0, 1.0, &mut r);
        let y = se.forward(&x);
        assert_eq!(y.dims(), x.dims());
        // hard-sigmoid gates lie in [0, 1], so |y| <= |x| element-wise
        for (xi, yi) in x.as_slice().iter().zip(y.as_slice()) {
            assert!(yi.abs() <= xi.abs() + 1e-6);
        }
        let g = se.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn inverted_residual_shapes_with_and_without_stride() {
        let mut r = rng();
        let block = InvertedResidual::new(4, 8, 4, 3, 1, true, true, &mut r);
        let x = Tensor::rand_uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r);
        assert_eq!(crate::infer(&block, &x).dims(), &[1, 4, 8, 8]);

        let down = InvertedResidual::new(4, 8, 6, 3, 2, false, false, &mut r);
        assert_eq!(crate::infer(&down, &x).dims(), &[1, 6, 4, 4]);
    }

    #[test]
    fn inverted_residual_backward_shapes() {
        let mut r = rng();
        let mut block = InvertedResidual::new(4, 8, 4, 3, 1, true, true, &mut r);
        let x = Tensor::rand_uniform(&[2, 4, 6, 6], -1.0, 1.0, &mut r);
        let y = block.forward(&x);
        let g = block.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
        assert!(!block.params_mut().is_empty());
    }

    #[test]
    fn fire_module_concatenates_expansions() {
        let mut r = rng();
        let mut fire = Fire::new(4, 2, 3, 5, &mut r);
        assert_eq!(fire.out_channels(), 8);
        let x = Tensor::rand_uniform(&[2, 4, 6, 6], -1.0, 1.0, &mut r);
        let y = fire.forward(&x);
        assert_eq!(y.dims(), &[2, 8, 6, 6]);
        let g = fire.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn channel_shuffle_is_a_permutation() {
        let mut shuffle = ChannelShuffle::new(2);
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 8, 1, 1]);
        let y = crate::infer(&shuffle, &x);
        let mut sorted: Vec<f32> = y.as_slice().to_vec();
        sorted.sort_by(f32::total_cmp);
        assert_eq!(sorted, x.as_slice());
        // backward applies the inverse permutation
        let back = shuffle.backward(&y);
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    fn channel_shuffle_carries_nan_inputs_without_panicking() {
        // Regression for the PR 4 denoise class: this test's permutation
        // check used to sort with `partial_cmp(..).unwrap()`, which panics
        // on the first NaN — `total_cmp` gives NaN a defined (last) rank.
        let mut shuffle = ChannelShuffle::new(2);
        let mut vals: Vec<f32> = (0..8).map(|v| v as f32).collect();
        vals[3] = f32::NAN;
        let x = Tensor::from_vec(vals, &[1, 8, 1, 1]);
        let y = crate::infer(&shuffle, &x);
        let mut sorted: Vec<f32> = y.as_slice().to_vec();
        sorted.sort_by(f32::total_cmp);
        assert!(
            sorted[7].is_nan(),
            "positive NaN sorts last under total_cmp"
        );
        assert_eq!(&sorted[..7], &[0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0]);
        // the permutation and its inverse carry the NaN payload through
        let back = shuffle.backward(&y);
        assert!(back.as_slice()[3].is_nan());
        for (i, (&b, &orig)) in back.as_slice().iter().zip(x.as_slice()).enumerate() {
            if i != 3 {
                assert_eq!(b, orig);
            }
        }
    }

    #[test]
    fn shuffle_unit_stride1_preserves_shape() {
        let mut r = rng();
        let mut unit = ShuffleUnit::new(8, 1, &mut r);
        let x = Tensor::rand_uniform(&[1, 8, 8, 8], -1.0, 1.0, &mut r);
        let y = unit.forward(&x);
        assert_eq!(y.dims(), &[1, 8, 8, 8]);
        let g = unit.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn shuffle_unit_stride2_downsamples_and_doubles_channels() {
        let mut r = rng();
        let mut unit = ShuffleUnit::new(8, 2, &mut r);
        assert_eq!(unit.out_channels(), 16);
        let x = Tensor::rand_uniform(&[1, 8, 8, 8], -1.0, 1.0, &mut r);
        let y = unit.forward(&x);
        assert_eq!(y.dims(), &[1, 16, 4, 4]);
        let g = unit.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }
}
