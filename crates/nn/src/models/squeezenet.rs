//! Scaled-down SqueezeNet-style architecture.

use super::VisionConfig;
use crate::{Conv2d, Fire, GlobalAvgPool, MaxPool2d, Network, Relu, Sequential};
use rand::rngs::StdRng;

/// Builds the SqueezeNet-style network evaluated in Table 5.
///
/// Structure (for a 32×32 input): a stride-2 stem, a max-pool, three fire
/// modules with an intermediate pool, a 1×1 convolution to the class count
/// and global average pooling — mirroring SqueezeNet's fully-convolutional
/// classifier head.
pub fn squeezenet(cfg: VisionConfig, rng: &mut StdRng) -> Network {
    Network::new(Sequential::new(vec![
        // stem: /2
        Box::new(Conv2d::new(cfg.in_channels, 32, 3, 2, 1, 1, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2)),
        // fire modules
        Box::new(Fire::new(32, 8, 16, 16, rng)),
        Box::new(Fire::new(32, 8, 24, 24, rng)),
        Box::new(MaxPool2d::new(2)),
        Box::new(Fire::new(48, 12, 32, 32, rng)),
        // fully-convolutional classifier head
        Box::new(Conv2d::new(64, cfg.num_classes, 1, 1, 0, 1, rng)),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool::new()),
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
        let mut net = squeezenet(VisionConfig::new(3, 12, 32), &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 32, 32], 0.0, 1.0, &mut rng);
        assert_eq!(net.infer(&x).dims(), &[2, 12]);
    }
}
