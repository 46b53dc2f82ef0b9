//! End-to-end inference benchmarks for the fused engine (PR 2).
//!
//! Every rung runs the one inference path (`Layer::infer_into`), so one run
//! shows where the time goes:
//!
//! * `*_unfused`    — `Network::infer` layer at a time: conv, then a
//!   full-tensor batch-norm pass, then a full-tensor activation pass;
//! * `*_fused`      — after `Network::fuse_inference()` (conv+BN+activation
//!   collapsed into one GEMM with the scale/shift+activation epilogue in the
//!   micro-kernel store loop), over a fresh `Workspace` per call, so every
//!   buffer is allocated cold;
//! * `*_fused_plan` — the fused network through `Network::infer`'s warm
//!   workspace, which allocates nothing.
//!
//! `inference/eval_accuracy_*` measures the FL-facing quantity: whole-batch
//! sharded evaluation over the `hs_parallel` pool (run with
//! `HS_PARALLEL_THREADS=1/4` to see the scaling).

use criterion::{criterion_group, criterion_main, Criterion};
use hs_data::{Dataset, Labels};
use hs_fl::evaluate_accuracy;
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::{Network, Workspace};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// One inference over a fresh workspace: every activation buffer and the
/// conv scratch are allocated cold, as a one-off call pays them.
fn infer_cold(net: &Network, x: &Tensor) -> usize {
    let mut out = Tensor::zeros(&[0]);
    net.infer_into(x, &mut out, &mut Workspace::new());
    out.len()
}

/// Builds two weight-identical replicas of a model (same constructor seed):
/// one untouched, one fused.
fn model_pair(kind: ModelKind, cfg: VisionConfig) -> (Network, Network) {
    let mut rng = StdRng::seed_from_u64(7);
    let unfused = build_vision_model(kind, cfg, &mut rng);
    let mut rng = StdRng::seed_from_u64(7);
    let mut fused = build_vision_model(kind, cfg, &mut rng);
    fused.fuse_inference();
    (unfused, fused)
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);

    // the CIFAR-synth CNN at CIFAR geometry: the model behind the paper's
    // synthetic heterogeneity study and this PR's acceptance bar
    let cfg = VisionConfig::new(3, 10, 32);
    let (mut unfused, mut fused) = model_pair(ModelKind::SimpleCnn, cfg);
    let x = Tensor::rand_uniform(&[32, 3, 32, 32], 0.0, 1.0, &mut rng);
    c.bench_function("inference/simple_cnn_b32_unfused", |b| {
        b.iter(|| unfused.infer(black_box(&x)).len())
    });
    c.bench_function("inference/simple_cnn_b32_fused", |b| {
        b.iter(|| infer_cold(&fused, black_box(&x)))
    });
    c.bench_function("inference/simple_cnn_b32_fused_plan", |b| {
        b.iter(|| fused.infer(black_box(&x)).len())
    });
    // the PR 7 quantized tier: the same fused+planned network with f16
    // weights (convert-on-pack in the GEMM packing layer; accumulation
    // stays f32) — the same-run numerator for the CI-gated f16 speedup
    let (_, mut fused_f16) = model_pair(ModelKind::SimpleCnn, cfg);
    fused_f16.to_dtype(hs_tensor::DType::F16);
    c.bench_function("inference/simple_cnn_b32_fused_plan_f16", |b| {
        b.iter(|| fused_f16.infer(black_box(&x)).len())
    });

    // a mobile-zoo model: fusion reaches the nested block Sequentials, and
    // the conv-backend dispatch layer picks the direct depthwise kernel
    let cfg = VisionConfig::new(3, 12, 16);
    let (mut unfused, mut fused) = model_pair(ModelKind::MobileNetV3Small, cfg);
    let x = Tensor::rand_uniform(&[8, 3, 16, 16], 0.0, 1.0, &mut rng);
    c.bench_function("inference/mobilenet_b8_unfused", |b| {
        b.iter(|| unfused.infer(black_box(&x)).len())
    });
    c.bench_function("inference/mobilenet_b8_fused_plan", |b| {
        b.iter(|| fused.infer(black_box(&x)).len())
    });
    // f16 weights on the same fused+planned network (depthwise convs stay
    // f32 by design; the pointwise convs dominate the time anyway)
    let (_, mut fused_f16) = model_pair(ModelKind::MobileNetV3Small, cfg);
    fused_f16.to_dtype(hs_tensor::DType::F16);
    c.bench_function("inference/mobilenet_b8_fused_plan_f16", |b| {
        b.iter(|| fused_f16.infer(black_box(&x)).len())
    });
    // the PR 3 execution strategy on the same fused+planned network — the
    // batched small-GEMM route disabled, so every skinny 1×1 conv runs the
    // per-(sample, group) GEMM loop: the same-run denominator for the
    // CI-gated batched-GEMM speedup ratio
    hs_nn::set_batched_gemm(false);
    let (_, mut fused_nobatch) = model_pair(ModelKind::MobileNetV3Small, cfg);
    c.bench_function("inference/mobilenet_b8_fused_plan_nobatch", |b| {
        b.iter(|| fused_nobatch.infer(black_box(&x)).len())
    });
    // the PR 2 execution strategy (im2col→GEMM on every conv, batched
    // small-GEMM route off — it postdates PR 2) on the same fused+planned
    // network: the same-run denominator for the CI-gated backend-dispatch
    // speedup ratio
    let (_, mut fused_im2col) = model_pair(ModelKind::MobileNetV3Small, cfg);
    fused_im2col.force_conv_algo(Some(hs_nn::ConvAlgo::Im2colGemm));
    c.bench_function("inference/mobilenet_b8_fused_plan_im2col", |b| {
        b.iter(|| fused_im2col.infer(black_box(&x)).len())
    });
    // ...and over a cold workspace per call
    c.bench_function("inference/mobilenet_b8_fused_im2col", |b| {
        b.iter(|| infer_cold(&fused_im2col, black_box(&x)))
    });
    hs_nn::set_batched_gemm(true);
}

fn bench_sharded_eval(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let cfg = VisionConfig::new(3, 10, 32);
    let (_, fused) = model_pair(ModelKind::SimpleCnn, cfg);
    let n = 256;
    let samples: Vec<Tensor> = (0..n)
        .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..10)).collect();
    let data = Dataset::new(samples, Labels::Classes(labels));
    c.bench_function("inference/eval_accuracy_256_simple_cnn", |b| {
        b.iter(|| evaluate_accuracy(&fused, black_box(&data)))
    });

    // eval-scaling sweep: the same sharded evaluation at a 1/2/4-thread
    // parallelism target, recorded in one process via the runtime override
    // (`hs_parallel::set_num_threads`). On a single-core host the three
    // rungs collapse to the serial path and should read within noise of
    // each other; on a multi-core host they trace the scaling curve that
    // docs/PERF.md tabulates.
    for threads in [1usize, 2, 4] {
        hs_parallel::set_num_threads(Some(threads));
        c.bench_function(
            &format!("inference/eval_accuracy_256_simple_cnn_t{threads}"),
            |b| b.iter(|| evaluate_accuracy(&fused, black_box(&data))),
        );
    }
    hs_parallel::set_num_threads(None);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(12);
    targets = bench_end_to_end, bench_sharded_eval
}
criterion_main!(benches);
