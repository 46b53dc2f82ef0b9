//! The [`Layer`] trait implemented by every building block of the network
//! stack.

use crate::{BatchNorm2d, Conv2d, Linear, Param};
use hs_tensor::{DType, EpilogueAct, QTensor, Tensor};

/// A view of one stored parameter tensor, in the fixed order the checkpoint
/// format walks them. For an f32 network every store is `F32`; after
/// [`crate::Network::to_dtype`] the quantized weights show up as `Quant`
/// stores in the same positions, so the shape-based fingerprint (and thus
/// checkpoint compatibility) is dtype-independent.
pub enum ParamStore<'a> {
    /// An `f32` parameter (value + gradient).
    F32(&'a mut Param),
    /// A quantized inference weight (no gradient; training is disabled on
    /// quantized layers).
    Quant(&'a mut QTensor),
}

impl ParamStore<'_> {
    /// The stored tensor's dimensions.
    pub fn dims(&self) -> &[usize] {
        match self {
            ParamStore::F32(p) => p.value.dims(),
            ParamStore::Quant(q) => q.dims(),
        }
    }

    /// Number of scalar elements in the stored tensor.
    pub fn len(&self) -> usize {
        match self {
            ParamStore::F32(p) => p.len(),
            ParamStore::Quant(q) => q.len(),
        }
    }

    /// Whether the stored tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage dtype of the stored tensor.
    pub fn dtype(&self) -> DType {
        match self {
            ParamStore::F32(_) => DType::F32,
            ParamStore::Quant(q) => q.dtype(),
        }
    }
}

/// Caller-owned scratch for [`Layer::infer_into`]: a stack of reusable
/// activation buffers plus the convolution scratch (im2col columns and the
/// fused epilogue's per-channel scale/shift).
///
/// Layers only read their own state during inference; everything an
/// inference pass writes besides its output lives here. One network can
/// therefore serve many threads at once, each thread holding its own
/// workspace. Containers borrow intermediate buffers with `take` and return
/// them with `give` in reverse order, so every pass over the same network
/// draws the same buffers in the same order: once a workspace has seen the
/// largest input shape, inference through it allocates nothing.
#[derive(Default)]
pub struct Workspace {
    /// Free activation buffers, used as a stack.
    free: Vec<Tensor>,
    /// im2col scratch of the convolution being run.
    pub(crate) col: Vec<f32>,
    /// Per-output-channel scale of a fused convolution epilogue.
    pub(crate) scale: Vec<f32>,
    /// Per-output-channel shift of a fused convolution epilogue.
    pub(crate) shift: Vec<f32>,
}

impl Workspace {
    /// An empty workspace; buffers are sized by the first pass through it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows an activation buffer (empty on first use).
    pub(crate) fn take(&mut self) -> Tensor {
        self.free.pop().unwrap_or_else(|| Tensor::zeros(&[0]))
    }

    /// Returns a buffer borrowed with [`Workspace::take`].
    pub(crate) fn give(&mut self, buffer: Tensor) {
        self.free.push(buffer);
    }
}

/// One-shot inference of `layer` on `input` over a fresh [`Workspace`]: the
/// allocating convenience for tests and one-off calls. Loops keep a
/// workspace and call [`Layer::infer_into`] directly.
pub fn infer(layer: &dyn Layer, input: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[0]);
    layer.infer_into(input, &mut out, &mut Workspace::new());
    out
}

/// A differentiable network building block.
///
/// A layer caches whatever it needs during [`Layer::forward`] (inputs, masks,
/// intermediate activations) and uses that cache in [`Layer::backward`] to
/// produce the gradient with respect to its input while accumulating
/// parameter gradients into its [`Param`]s.
///
/// Inference has exactly one entry point, [`Layer::infer_into`], which reads
/// only shared state (`&self`) and writes into a caller-owned output and
/// [`Workspace`]. Evaluation, serving and [`crate::Network::infer`] all run
/// it, so they compute identical bits by construction.
///
/// Layers are `Send + Sync` so client updates can run on worker threads in
/// the federated-learning simulator, and one network can run inference on
/// many threads at once.
///
/// Beyond these three methods the trait has one structural hook,
/// [`Layer::children_mut`]: a container lists its direct sub-layers once,
/// and the recursive walks — parameters, buffers, dtype conversion, fusion
/// and the conv visitor — are default methods over it. Only leaves that own
/// state override a walk ([`Conv2d`], [`Linear`], [`BatchNorm2d`]), and only
/// [`crate::Sequential`] overrides [`Layer::fuse_inference`] with its
/// pattern rewrite. The remaining defaults are the typed views of the fusion
/// pass ([`Layer::as_conv2d`], [`Layer::as_batch_norm`],
/// [`Layer::as_linear`] and [`Layer::epilogue_act`]).
pub trait Layer: Send + Sync {
    /// The training forward: batch statistics, dropout masks, and the caches
    /// [`Layer::backward`] consumes.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. the layer output) backwards,
    /// returning the gradient w.r.t. the layer input and accumulating
    /// parameter gradients.
    ///
    /// Must be called after [`Layer::forward`].
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// The inference forward (running statistics, identity dropout): writes
    /// the layer output for `input` into `out`, resizing it via
    /// [`Tensor::resize_to`] so a warm buffer is reused rather than
    /// reallocated. `out` never aliases `input`; scratch comes from `ws`.
    fn infer_into(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace);

    /// The direct sub-layers of a container, in parameter order; empty for
    /// leaves. This is the one structural hook: every recursive walk below
    /// ([`Layer::param_stores`], [`Layer::buffers_mut`],
    /// [`Layer::to_dtype`], [`Layer::fuse_inference`],
    /// [`Layer::for_each_conv2d_mut`]) defaults to visiting these children in
    /// this order, so a container names its children once and the
    /// flattened weight layout follows from it.
    fn children_mut(&mut self) -> Vec<&mut dyn Layer> {
        Vec::new()
    }

    /// Rewrites this layer's children for fused inference (conv/BN/activation
    /// and linear/activation runs collapse into fused layers; see
    /// [`crate::fuse`]). Recurses into the children by default;
    /// [`crate::Sequential`] overrides it with the pattern rewrite.
    fn fuse_inference(&mut self) {
        for child in self.children_mut() {
            child.fuse_inference();
        }
    }

    /// Mutable access to every stored parameter tensor, outermost layers
    /// first. This is the walk the checkpoint format uses: quantized weights
    /// appear here (as [`ParamStore::Quant`]) so fingerprints and save/load
    /// cover them. Recurses into the children by default; leaves that own
    /// parameters override it.
    fn param_stores(&mut self) -> Vec<ParamStore<'_>> {
        self.children_mut()
            .into_iter()
            .flat_map(|child| child.param_stores())
            .collect()
    }

    /// Mutable access to the trainable parameters: the [`ParamStore::F32`]
    /// entries of [`Layer::param_stores`], in the same order. On an f32
    /// network that is every stored tensor; after [`Layer::to_dtype`] the
    /// quantized weights drop out. Derived, never overridden, so the two
    /// walks cannot disagree.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.param_stores()
            .into_iter()
            .filter_map(|store| match store {
                ParamStore::F32(p) => Some(p),
                ParamStore::Quant(_) => None,
            })
            .collect()
    }

    /// Mutable access to non-trainable state tensors (e.g. batch-norm running
    /// statistics) that must still be exchanged between FL clients and the
    /// server. Recurses into the children by default.
    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.children_mut()
            .into_iter()
            .flat_map(|child| child.buffers_mut())
            .collect()
    }

    /// Converts this layer's inference weights to the requested storage
    /// dtype (see [`crate::Network::to_dtype`]). Recurses into the children
    /// by default; leaves with weight tensors override. Converting back to
    /// [`DType::F32`] restores dequantized `f32` weights.
    fn to_dtype(&mut self, dtype: DType) {
        for child in self.children_mut() {
            child.to_dtype(dtype);
        }
    }

    /// Typed view for the fusion pass: `Some` iff this layer is a plain
    /// [`Conv2d`].
    fn as_conv2d(&self) -> Option<&Conv2d> {
        None
    }

    /// Visits every [`Conv2d`] reachable from this layer (recursing into the
    /// children by default; [`Conv2d`] visits itself). Used to force a
    /// convolution backend network-wide in tests and the backend benches —
    /// see [`crate::ConvAlgo`].
    fn for_each_conv2d_mut(&mut self, f: &mut dyn FnMut(&mut Conv2d)) {
        for child in self.children_mut() {
            child.for_each_conv2d_mut(f);
        }
    }

    /// Typed view for the fusion pass: `Some` iff this layer is a plain
    /// [`BatchNorm2d`].
    fn as_batch_norm(&self) -> Option<&BatchNorm2d> {
        None
    }

    /// Typed view for the fusion pass: `Some` iff this layer is a plain
    /// [`Linear`].
    fn as_linear(&self) -> Option<&Linear> {
        None
    }

    /// The element-wise activation this layer computes, when it is expressible
    /// as a GEMM-epilogue activation (ReLU family). `None` for everything
    /// else, which keeps such layers out of the fusion pass.
    fn epilogue_act(&self) -> Option<EpilogueAct> {
        None
    }

    /// A short human-readable layer name used in debugging output.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal identity layer exercising the trait's default methods.
    struct Identity;

    impl Layer for Identity {
        fn forward(&mut self, input: &Tensor) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
        fn infer_into(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
            out.resize_to(input.dims());
            out.as_mut_slice().copy_from_slice(input.as_slice());
        }
        fn name(&self) -> &'static str {
            "identity"
        }
    }

    #[test]
    fn default_params_and_buffers_are_empty() {
        let mut id = Identity;
        assert!(id.params_mut().is_empty());
        assert!(id.buffers_mut().is_empty());
        let x = Tensor::ones(&[2, 2]);
        assert_eq!(id.forward(&x).as_slice(), x.as_slice());
        assert_eq!(id.backward(&x).as_slice(), x.as_slice());
    }

    #[test]
    fn layers_are_object_safe() {
        let _boxed: Box<dyn Layer> = Box::new(Identity);
    }

    #[test]
    fn default_inference_hooks_are_conservative() {
        let mut id = Identity;
        let x = Tensor::ones(&[2, 2]);
        assert_eq!(infer(&id, &x).as_slice(), x.as_slice());
        // typed views: not a conv/bn/linear/activation
        assert!(id.as_conv2d().is_none());
        assert!(id.as_batch_norm().is_none());
        assert!(id.as_linear().is_none());
        assert!(id.epilogue_act().is_none());
        // a leaf without children: fuse_inference and to_dtype are no-ops
        id.fuse_inference();
        id.to_dtype(DType::F16);
        assert!(id.param_stores().is_empty());
    }
}
