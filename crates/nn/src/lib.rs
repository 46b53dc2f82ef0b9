//! # hs-nn
//!
//! A from-scratch, CPU-only neural-network training stack built on
//! [`hs_tensor`]. It provides the layer-wise forward/backward machinery,
//! losses, an SGD optimizer and the scaled-down mobile model zoo
//! (MobileNetV3-small-style, ShuffleNetV2-style, SqueezeNet-style and a
//! simple CNN) used throughout the HeteroSwitch reproduction.
//!
//! The design intentionally mirrors a classic "layers own their gradients"
//! architecture rather than a tape-based autograd: every [`Layer`] caches
//! whatever it needs during `forward` and produces the input gradient during
//! `backward`. This keeps the federated-learning simulator simple — a model
//! is just a [`Network`] whose parameters can be flattened into a `Vec<f32>`
//! for aggregation on the server.
//!
//! The layer tree has one structural hook, [`Layer::children_mut`]: a
//! container lists its direct sub-layers once, in parameter order, and every
//! recursive walk — [`Layer::param_stores`] (and the [`Layer::params_mut`]
//! view derived from it), [`Layer::buffers_mut`], [`Layer::to_dtype`],
//! [`Layer::fuse_inference`] and [`Layer::for_each_conv2d_mut`] — is a trait
//! default over it. The flattened weight vector, the checkpoint layout and
//! the fingerprint all follow from that one order.
//!
//! Inference is one path: [`Layer::infer_into`] reads only `&self` and
//! writes through a caller-owned [`Workspace`]. [`Network::infer`] runs it
//! over the network's own workspace; sharded evaluation and the serving
//! workers run it on one shared network with one workspace per thread.
//!
//! ```
//! use hs_nn::{Linear, Network, Relu, Sequential, CrossEntropyLoss, Loss, Sgd, Target};
//! use hs_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Network::new(Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 3, &mut rng)),
//! ]));
//! let x = Tensor::rand_uniform(&[2, 4], -1.0, 1.0, &mut rng);
//! let target = Target::Classes(vec![0, 2]);
//! let logits = net.forward(&x);
//! let (loss, grad) = CrossEntropyLoss.forward(&logits, &target);
//! net.backward(&grad);
//! Sgd::new(0.1).step(&mut net);
//! assert!(loss.is_finite());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod activation;
mod blocks;
mod checkpoint;
mod conv;
mod dropout;
pub mod fuse;
mod layer;
mod linear;
mod loss;
pub mod models;
mod network;
mod norm;
mod optim;
mod param;
mod pool;
mod sequential;

pub use activation::{HardSigmoid, HardSwish, LeakyRelu, Relu, Relu6, Sigmoid, Tanh};
pub use blocks::{ChannelShuffle, Fire, InvertedResidual, Residual, ShuffleUnit, SqueezeExcite};
pub use checkpoint::{CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use conv::{batched_gemm_crossovers, set_batched_gemm, Conv2d, ConvAlgo};
pub use dropout::Dropout;
pub use fuse::{FusedConvBnAct, FusedLinearAct};
pub use hs_tensor::EpilogueAct;
pub use layer::{infer, Layer, ParamStore, Workspace};
pub use linear::Linear;
pub use loss::{BceWithLogitsLoss, CrossEntropyLoss, Loss, MseLoss, Target};
pub use network::Network;
pub use norm::BatchNorm2d;
pub use optim::Sgd;
pub use param::Param;
pub use pool::{AvgPool2d, Flatten, GlobalAvgPool, MaxPool2d};
pub use sequential::Sequential;
