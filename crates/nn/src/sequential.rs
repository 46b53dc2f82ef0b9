//! A container that chains layers in order.

use crate::{Layer, Workspace};
use hs_tensor::Tensor;

/// Runs a list of layers in sequence; the workhorse container for every model
/// in the zoo.
///
/// Inference ping-pongs between two [`Workspace`] buffers and writes the
/// last layer straight into the caller's output, so nested sequentials (the
/// bodies of the zoo's composite blocks) allocate nothing once warm.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential container from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Creates an empty container (useful with [`Sequential::push`]).
    pub fn empty() -> Self {
        Sequential::new(Vec::new())
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the container.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Read-only access to the layer list (test-only: used by the fusion
    /// pass's structural assertions).
    #[cfg(test)]
    pub(crate) fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn infer_into(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        let Some((last, rest)) = self.layers.split_last() else {
            out.resize_to(input.dims());
            out.as_mut_slice().copy_from_slice(input.as_slice());
            return;
        };
        let Some((first, mid)) = rest.split_first() else {
            return last.infer_into(input, out, ws);
        };
        // every layer but the last ping-pongs between two workspace buffers;
        // the last writes straight into `out`
        let (mut a, mut b) = (ws.take(), ws.take());
        let (mut front, mut back) = (&mut a, &mut b);
        first.infer_into(input, front, ws);
        for layer in mid {
            layer.infer_into(front, back, ws);
            std::mem::swap(&mut front, &mut back);
        }
        last.infer_into(front, out, ws);
        ws.give(b);
        ws.give(a);
    }

    fn children_mut(&mut self) -> Vec<&mut dyn Layer> {
        self.layers.iter_mut().map(|l| &mut **l as _).collect()
    }

    fn fuse_inference(&mut self) {
        let layers = std::mem::take(&mut self.layers);
        self.layers = crate::fuse::fuse_layers(layers);
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chains_layers_in_order() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = Sequential::new(vec![
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, &mut rng)),
        ]);
        let x = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        let y = seq.forward(&x);
        assert_eq!(y.dims(), &[3, 2]);
        let g = seq.backward(&Tensor::ones(&[3, 2]));
        assert_eq!(g.dims(), &[3, 4]);
    }

    #[test]
    fn aggregates_child_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = Sequential::new(vec![
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, &mut rng)),
        ]);
        // two linear layers, each with weight + bias
        assert_eq!(seq.params_mut().len(), 4);
    }

    #[test]
    fn push_grows_container() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = Sequential::empty();
        assert!(seq.is_empty());
        seq.push(Box::new(Linear::new(2, 2, &mut rng)));
        assert_eq!(seq.len(), 1);
    }
}
