//! Stochastic gradient descent.

use crate::Network;
use hs_tensor::Tensor;

/// Plain SGD with optional momentum and weight decay.
///
/// The HeteroSwitch paper trains local models with vanilla SGD (appendix A.2);
/// momentum and weight decay are provided for the centralized robustness
/// study (Fig. 7) and ablations.
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient (0.0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient (0.0 disables decay).
    pub weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates a vanilla SGD optimizer with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Sets the momentum coefficient, returning the optimizer for chaining.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the weight-decay coefficient, returning the optimizer for chaining.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Applies one update step to every parameter of `net` using the
    /// gradients accumulated since the last [`Network::zero_grad`], then
    /// clears the gradients.
    pub fn step(&mut self, net: &mut Network) {
        let params = net.params_mut();
        if self.momentum > 0.0 && self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.dims()))
                .collect();
        }
        for (i, p) in params.into_iter().enumerate() {
            let mut grad = p.grad.clone();
            if self.weight_decay > 0.0 {
                grad.add_scaled(&p.value, self.weight_decay);
            }
            if self.momentum > 0.0 {
                let v = &mut self.velocity[i];
                v.scale_inplace(self.momentum);
                v.add_assign(&grad);
                p.value.add_scaled(v, -self.lr);
            } else {
                p.value.add_scaled(&grad, -self.lr);
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrossEntropyLoss, Linear, Loss, Network, Relu, Sequential, Target};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_net(rng: &mut StdRng) -> Network {
        Network::new(Sequential::new(vec![
            Box::new(Linear::new(4, 16, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(16, 3, rng)),
        ]))
    }

    #[test]
    fn sgd_reduces_loss_on_toy_problem() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = toy_net(&mut rng);
        let mut opt = Sgd::new(0.5);
        let x = hs_tensor::Tensor::rand_uniform(&[12, 4], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let target = Target::Classes(labels);

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let logits = net.forward(&x);
            let (loss, grad) = CrossEntropyLoss.forward(&logits, &target);
            net.backward(&grad);
            opt.step(&mut net);
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss should halve: {first:?} -> {last}"
        );
    }

    #[test]
    fn momentum_and_decay_still_learn() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = toy_net(&mut rng);
        let mut opt = Sgd::new(0.1).with_momentum(0.9).with_weight_decay(1e-4);
        let x = hs_tensor::Tensor::rand_uniform(&[9, 4], -1.0, 1.0, &mut rng);
        let target = Target::Classes((0..9).map(|i| i % 3).collect());

        let mut losses = Vec::new();
        for _ in 0..30 {
            let logits = net.forward(&x);
            let (loss, grad) = CrossEntropyLoss.forward(&logits, &target);
            net.backward(&grad);
            opt.step(&mut net);
            losses.push(loss);
        }
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn step_clears_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = toy_net(&mut rng);
        let x = hs_tensor::Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        let logits = net.forward(&x);
        let (_, grad) = CrossEntropyLoss.forward(&logits, &Target::Classes(vec![0, 1, 2]));
        net.backward(&grad);
        let mut opt = Sgd::new(0.01);
        opt.step(&mut net);
        for p in net.params_mut() {
            assert_eq!(p.grad.sum(), 0.0);
        }
    }
}
