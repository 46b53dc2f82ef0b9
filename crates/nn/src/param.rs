//! Trainable parameter storage: a value tensor paired with its gradient.

use hs_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A trainable parameter: the current value and its accumulated gradient.
///
/// Layers create `Param`s for their weights and biases and expose them
/// through [`crate::Layer::param_stores`]; the optimizer and the
/// federated-learning weight (de)serialisation walk every `Param` of a
/// [`crate::Network`] through [`crate::Network::params_mut`], the `f32` view
/// of that walk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to the value, accumulated by
    /// `backward` calls since the last [`Param::zero_grad`].
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zero gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.dims());
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty (zero elements).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Accumulates `grad` into the stored gradient.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape does not match the value shape.
    pub fn accumulate_grad(&mut self, grad: &Tensor) {
        assert_eq!(
            grad.dims(),
            self.value.dims(),
            "gradient shape must match parameter shape"
        );
        self.grad.add_assign(grad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::new(Tensor::zeros(&[4]));
        p.accumulate_grad(&Tensor::ones(&[4]));
        p.accumulate_grad(&Tensor::ones(&[4]));
        assert_eq!(p.grad.sum(), 8.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "gradient shape")]
    fn accumulate_rejects_shape_mismatch() {
        let mut p = Param::new(Tensor::zeros(&[4]));
        p.accumulate_grad(&Tensor::ones(&[2]));
    }
}
