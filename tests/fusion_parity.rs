//! Parity suite for the fused inference engine: the fused
//! conv+BN+activation path is pinned against the unfused layer-by-layer
//! reference across random shapes, grouped/strided/padded convolutions and
//! every supported activation — including the exact training fallback and
//! the guarantee that evaluation never mutates batch-norm running
//! statistics. That every inference entry point (`Network::infer`, sharded
//! evaluation, serving) computes the same bits is pinned separately, in
//! `tests/batch_invariance.rs`.

use heteroswitch_repro::data::{Dataset, Labels};
use heteroswitch_repro::fl::evaluate_accuracy;
use heteroswitch_repro::nn::models::{build_vision_model, ModelKind, VisionConfig};
use heteroswitch_repro::nn::{
    BatchNorm2d, Conv2d, ConvAlgo, CrossEntropyLoss, Layer, LeakyRelu, Network, Relu, Relu6,
    Sequential, Target,
};
use heteroswitch_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative tolerance of the fused path vs the unfused reference (the
/// acceptance bar: ≤ 1e-4 rel).
const REL_TOL: f32 = 1e-4;

fn assert_close(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.dims(), b.dims(), "{ctx}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= REL_TOL * x.abs().max(y.abs()).max(1.0),
            "{ctx}: element {i}: {x} vs {y}"
        );
    }
}

/// Builds `[conv, bn?, act?]` twice from one seed (identical weights): the
/// unfused reference and a to-be-fused copy.
#[allow(clippy::too_many_arguments)]
fn conv_stack(
    seed: u64,
    cin: usize,
    cout: usize,
    k: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    with_bn: bool,
    act: usize,
) -> (Network, Network) {
    let build = |rng: &mut StdRng| {
        let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(Conv2d::new(
            cin, cout, k, stride, pad, groups, rng,
        ))];
        if with_bn {
            layers.push(Box::new(BatchNorm2d::new(cout)));
        }
        match act {
            1 => layers.push(Box::new(Relu::new())),
            2 => layers.push(Box::new(LeakyRelu::new(0.1))),
            3 => layers.push(Box::new(Relu6::new())),
            _ => {}
        }
        Network::new(Sequential::new(layers))
    };
    let reference = build(&mut StdRng::seed_from_u64(seed));
    let fused = build(&mut StdRng::seed_from_u64(seed));
    (reference, fused)
}

/// Runs a few training steps on both networks (same data) so batch-norm
/// running statistics are non-trivial and identical.
fn warm_bn(reference: &mut Network, fused: &mut Network, x: &Tensor) {
    for net in [&mut *reference, &mut *fused] {
        for _ in 0..3 {
            let _ = net.forward(x);
        }
    }
}

#[test]
fn fused_conv_bn_act_matches_unfused_across_configs() {
    let mut rng = StdRng::seed_from_u64(100);
    // (cin, cout, kernel, stride, pad, groups, h, w)
    let configs = [
        (
            3usize, 8usize, 3usize, 1usize, 1usize, 1usize, 9usize, 9usize,
        ),
        (4, 6, 3, 2, 1, 2, 8, 10),  // grouped, strided
        (6, 6, 3, 1, 1, 6, 7, 7),   // depthwise
        (2, 4, 5, 2, 2, 1, 11, 13), // large kernel, heavy padding
        (4, 4, 1, 1, 0, 1, 6, 6),   // pointwise
    ];
    for (case, &(cin, cout, k, s, p, g, h, w)) in configs.iter().enumerate() {
        for with_bn in [true, false] {
            for act in 0..4usize {
                let seed = 1000 + case as u64 * 16 + act as u64 + if with_bn { 8 } else { 0 };
                let (mut reference, mut fused) =
                    conv_stack(seed, cin, cout, k, s, p, g, with_bn, act);
                let n = rng.gen_range(1..4);
                let x_warm = Tensor::rand_uniform(&[3, cin, h, w], -1.0, 1.0, &mut rng);
                warm_bn(&mut reference, &mut fused, &x_warm);
                fused.fuse_inference();

                let x = Tensor::rand_uniform(&[n, cin, h, w], -1.5, 1.5, &mut rng);
                let ctx =
                    format!("cin={cin} cout={cout} k={k} s={s} p={p} g={g} bn={with_bn} act={act}");
                let expect = reference.infer(&x).clone();
                assert_close(fused.infer(&x), &expect, &format!("{ctx} [fused]"));
            }
        }
    }
}

#[test]
fn fused_paths_match_unfused_on_every_forced_conv_backend() {
    // the fused parity contract, swept over every ConvAlgo forced
    // network-wide: backends must be interchangeable under
    // fusion (epilogue semantics included), with inapplicable geometries
    // falling back to im2col.
    let mut rng = StdRng::seed_from_u64(300);
    // (cin, cout, kernel, stride, pad, groups, h, w)
    let configs = [
        (
            4usize, 8usize, 3usize, 1usize, 1usize, 1usize, 9usize, 9usize,
        ), // dense 3×3
        (4, 6, 3, 2, 1, 2, 8, 10), // grouped, strided
        (6, 6, 3, 1, 1, 6, 7, 7),  // depthwise
        (5, 5, 5, 2, 2, 5, 11, 9), // strided depthwise, 5×5
        (4, 4, 1, 1, 0, 1, 6, 6),  // pointwise
    ];
    for algo in [ConvAlgo::Im2colGemm, ConvAlgo::DirectDepthwise] {
        for (case, &(cin, cout, k, s, p, g, h, w)) in configs.iter().enumerate() {
            for act in 0..4usize {
                let seed = 7000 + case as u64 * 8 + act as u64;
                let (mut reference, mut fused) = conv_stack(seed, cin, cout, k, s, p, g, true, act);
                let x_warm = Tensor::rand_uniform(&[2, cin, h, w], -1.0, 1.0, &mut rng);
                warm_bn(&mut reference, &mut fused, &x_warm);
                fused.fuse_inference();
                fused.force_conv_algo(Some(algo));

                let x = Tensor::rand_uniform(&[2, cin, h, w], -1.5, 1.5, &mut rng);
                let expect = reference.infer(&x).clone();
                let ctx =
                    format!("{algo:?} cin={cin} cout={cout} k={k} s={s} p={p} g={g} act={act}");
                let check = |got: &Tensor, path: &str| {
                    assert_eq!(got.dims(), expect.dims(), "{ctx} [{path}]: shape");
                    for (i, (a, b)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
                        assert!(
                            (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0),
                            "{ctx} [{path}]: element {i}: {a} vs {b}"
                        );
                    }
                };
                check(fused.infer(&x), "fused");
            }
        }
    }
}

#[test]
fn depthwise_backend_propagates_nan_like_the_unfused_path() {
    // a NaN pixel must flow through the direct depthwise kernel — fused
    // epilogue included — exactly as through the unfused conv+bn+act stack
    // (ReLU maps NaN to 0 like f32::max; LeakyReLU propagates it)
    for act in [1usize, 2] {
        let (mut reference, mut fused) = conv_stack(91, 4, 4, 3, 1, 1, 4, true, act);
        let mut rng = StdRng::seed_from_u64(92);
        let x_warm = Tensor::rand_uniform(&[2, 4, 8, 8], -1.0, 1.0, &mut rng);
        warm_bn(&mut reference, &mut fused, &x_warm);
        fused.fuse_inference();
        fused.force_conv_algo(Some(ConvAlgo::DirectDepthwise));

        let mut x = Tensor::rand_uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut rng);
        *x.at_mut(&[0, 1, 3, 3]) = f32::NAN;
        let expect = reference.infer(&x).clone();
        let got = fused.infer(&x);
        assert!(
            expect.as_slice().iter().any(|v| v.is_nan()) || act == 1,
            "test setup: the NaN should reach the output unless ReLU clears it"
        );
        for (i, (a, b)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
            assert_eq!(
                a.is_nan(),
                b.is_nan(),
                "act={act}: element {i}: NaN divergence {a} vs {b}"
            );
            if !a.is_nan() {
                assert!(
                    (a - b).abs() <= 1e-3 * a.abs().max(b.abs()).max(1.0),
                    "act={act}: element {i}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn fused_train_mode_falls_back_exactly() {
    // training through the fused network must be bit-identical to the
    // unfused stack: same outputs, same gradients, same BN statistics drift
    let (mut reference, mut fused) = conv_stack(42, 3, 6, 3, 1, 1, 1, true, 1);
    fused.fuse_inference();
    let mut rng = StdRng::seed_from_u64(43);
    for step in 0..3 {
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
        let y_ref = reference.forward(&x);
        let y_fused = fused.forward(&x);
        assert_eq!(y_ref, y_fused, "step {step}: training outputs diverged");
        let grad = Tensor::rand_uniform(y_ref.dims(), -1.0, 1.0, &mut rng);
        let gin_ref = reference.backward(&grad);
        let gin_fused = fused.backward(&grad);
        assert_eq!(gin_ref, gin_fused, "step {step}: input gradients diverged");
        assert_eq!(
            reference.gradients(),
            fused.gradients(),
            "step {step}: gradients diverged"
        );
        assert_eq!(
            reference.weights(),
            fused.weights(),
            "step {step}: weights/buffers diverged"
        );
        reference.zero_grad();
        fused.zero_grad();
    }
}

#[test]
fn fusion_is_weight_layout_invariant_on_the_model_zoo() {
    for kind in [
        ModelKind::SimpleCnn,
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ] {
        let cfg = VisionConfig::new(3, 8, 16);
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = build_vision_model(kind, cfg, &mut rng);
        let before = net.weights();
        net.fuse_inference();
        assert_eq!(net.weights(), before, "{kind:?}: fusion reordered weights");
    }
}

#[test]
fn fused_model_zoo_inference_matches_unfused() {
    let mut rng = StdRng::seed_from_u64(6);
    for kind in [
        ModelKind::SimpleCnn,
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ] {
        let cfg = VisionConfig::new(3, 8, 16);
        let mut reference = build_vision_model(kind, cfg, &mut StdRng::seed_from_u64(9));
        let mut fused = build_vision_model(kind, cfg, &mut StdRng::seed_from_u64(9));
        let x_warm = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        warm_bn(&mut reference, &mut fused, &x_warm);
        fused.fuse_inference();
        let x = Tensor::rand_uniform(&[3, 3, 16, 16], 0.0, 1.0, &mut rng);
        let expect = reference.infer(&x).clone();
        assert_close(fused.infer(&x), &expect, &format!("{kind:?} [fused]"));
    }
}

#[test]
fn planned_forward_reuses_arena_across_shapes() {
    // changing batch size between calls must be safe (arena resizes), and
    // repeated calls must be deterministic
    let (_, mut fused) = conv_stack(7, 3, 4, 3, 1, 1, 1, true, 1);
    fused.fuse_inference();
    let mut rng = StdRng::seed_from_u64(8);
    let x2 = Tensor::rand_uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
    let x5 = Tensor::rand_uniform(&[5, 3, 10, 10], -1.0, 1.0, &mut rng);
    let a1 = fused.infer(&x2).clone();
    let b1 = fused.infer(&x5).clone();
    let a2 = fused.infer(&x2).clone();
    let b2 = fused.infer(&x5).clone();
    assert_eq!(a1, a2);
    assert_eq!(b1, b2);
    assert_eq!(a1.dims()[0], 2);
    assert_eq!(b1.dims()[0], 5);
}

#[test]
fn eval_paths_never_mutate_bn_running_stats() {
    // predict_classes, eval_loss, infer and sharded evaluate_accuracy must
    // leave every weight and buffer (incl. BN running stats) untouched
    let cfg = VisionConfig::new(3, 4, 16);
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = build_vision_model(ModelKind::SimpleCnn, cfg, &mut rng);
    let x_warm = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
    for _ in 0..2 {
        let _ = net.forward(&x_warm); // make BN stats non-default
    }
    net.fuse_inference();
    let snapshot = net.weights();

    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.0, 1.0, &mut rng);
    let _ = net.predict_classes(&x);
    let _ = net.eval_loss(&x, &Target::Classes(vec![0, 1, 2, 3]), &CrossEntropyLoss);
    let _ = net.infer(&x);
    let samples: Vec<Tensor> = (0..70)
        .map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng))
        .collect();
    let labels: Vec<usize> = (0..70).map(|i| i % 4).collect();
    let data = Dataset::new(samples, Labels::Classes(labels));
    let _ = evaluate_accuracy(&net, &data);

    assert_eq!(
        net.weights(),
        snapshot,
        "an eval path mutated weights or BN running statistics"
    );
}

#[test]
fn sharded_eval_matches_exclusive_eval_on_a_real_cnn() {
    let cfg = VisionConfig::new(3, 4, 16);
    let mut rng = StdRng::seed_from_u64(12);
    let mut net = build_vision_model(ModelKind::SimpleCnn, cfg, &mut rng);
    let x_warm = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
    let _ = net.forward(&x_warm);
    net.fuse_inference();

    let n = 85; // several EVAL_BATCH shards plus a ragged tail
    let samples: Vec<Tensor> = (0..n)
        .map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng))
        .collect();
    let labels: Vec<usize> = (0..n).map(|i| (i * 7) % 4).collect();
    let data = Dataset::new(samples.clone(), Labels::Classes(labels.clone()));
    let sharded_acc = evaluate_accuracy(&net, &data);

    // exclusive-access reference, batch by batch
    let mut correct = 0usize;
    for (sample, &label) in samples.iter().zip(labels.iter()) {
        let batch = Tensor::stack(std::slice::from_ref(sample));
        if net.predict_classes(&batch)[0] == label {
            correct += 1;
        }
    }
    let expect = correct as f32 / n as f32;
    assert!(
        (sharded_acc - expect).abs() < 1e-6,
        "sharded accuracy {sharded_acc} vs exclusive {expect}"
    );
}
