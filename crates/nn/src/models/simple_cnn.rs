//! The small CNN used for the synthetic-CIFAR heterogeneity study (Fig. 8).

use super::VisionConfig;
use crate::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Network, Relu, Sequential};
use rand::rngs::StdRng;

/// Builds the simple two-block CNN: two conv/bn/relu/pool stages followed by
/// a two-layer classifier head.
///
/// # Panics
///
/// Panics if `cfg.image_size` is not divisible by 4 (two 2× poolings).
pub fn simple_cnn(cfg: VisionConfig, rng: &mut StdRng) -> Network {
    assert_eq!(
        cfg.image_size % 4,
        0,
        "simple_cnn requires an image size divisible by 4"
    );
    let spatial = cfg.image_size / 4;
    let flat = 32 * spatial * spatial;
    Network::new(Sequential::new(vec![
        Box::new(Conv2d::new(cfg.in_channels, 16, 3, 1, 1, 1, rng)),
        Box::new(BatchNorm2d::new(16)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2)),
        Box::new(Conv2d::new(16, 32, 3, 1, 1, 1, rng)),
        Box::new(BatchNorm2d::new(32)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2)),
        Box::new(Flatten::new()),
        Box::new(Linear::new(flat, 64, rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(64, cfg.num_classes, rng)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn handles_single_channel_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = simple_cnn(VisionConfig::new(1, 4, 16), &mut rng);
        let x = Tensor::rand_uniform(&[3, 1, 16, 16], 0.0, 1.0, &mut rng);
        assert_eq!(net.infer(&x).dims(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn rejects_bad_image_size() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = simple_cnn(VisionConfig::new(3, 4, 18), &mut rng);
    }
}
