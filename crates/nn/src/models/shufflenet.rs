//! Scaled-down ShuffleNetV2-style architecture.

use super::VisionConfig;
use crate::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Network, Relu, Sequential, ShuffleUnit};
use rand::rngs::StdRng;

/// Builds the ShuffleNetV2-style network evaluated in Table 5.
///
/// Structure (for a 32×32 input): a stride-2 stem, two stages each made of a
/// stride-2 downsampling shuffle unit followed by a stride-1 unit, a 1×1
/// feature-mixing convolution, global average pooling and a linear
/// classifier.
pub fn shufflenet_v2(cfg: VisionConfig, rng: &mut StdRng) -> Network {
    Network::new(Sequential::new(vec![
        // stem: /2
        Box::new(Conv2d::new(cfg.in_channels, 16, 3, 2, 1, 1, rng)),
        Box::new(BatchNorm2d::new(16)),
        Box::new(Relu::new()),
        // stage 1: 16 -> 32 channels, /2
        Box::new(ShuffleUnit::new(16, 2, rng)),
        Box::new(ShuffleUnit::new(32, 1, rng)),
        // stage 2: 32 -> 64 channels, /2
        Box::new(ShuffleUnit::new(32, 2, rng)),
        Box::new(ShuffleUnit::new(64, 1, rng)),
        // head
        Box::new(Conv2d::new(64, 96, 1, 1, 0, 1, rng)),
        Box::new(BatchNorm2d::new(96)),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Linear::new(96, cfg.num_classes, rng)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn output_matches_num_classes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = shufflenet_v2(VisionConfig::new(3, 9, 32), &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 32, 32], 0.0, 1.0, &mut rng);
        assert_eq!(net.infer(&x).dims(), &[2, 9]);
    }
}
