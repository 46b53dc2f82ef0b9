//! Batch invariance, the serving contract in `docs/SERVING.md`: a sample's
//! logits are bit-identical whichever way it reaches the model — alone
//! through `Network::infer`, at any position of a batch of 8, through the
//! sharded evaluation path, or through `hs-serve` at 1 and 2 workers —
//! for every fused zoo model in f32 and f16.

use hs_data::{Dataset, Labels};
use hs_fl::evaluate_heart_rate;
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::Network;
use hs_serve::{BatchPolicy, ModelRegistry, Server, ServerConfig};
use hs_tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const DIMS: [usize; 3] = [3, 16, 16];

/// The unweighted architecture, as a server factory builds it.
fn build(kind: ModelKind) -> Network {
    build_vision_model(
        kind,
        VisionConfig::new(3, 6, 16),
        &mut StdRng::seed_from_u64(0),
    )
}

/// A model with trained-looking weights and batch-norm statistics.
fn published(kind: ModelKind) -> Network {
    let mut rng = StdRng::seed_from_u64(1);
    let mut net = build_vision_model(kind, VisionConfig::new(3, 6, 16), &mut rng);
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.0, 1.0, &mut rng);
    for _ in 0..2 {
        let _ = net.forward(&x);
    }
    net
}

fn assert_bits(got: &[f32], expect: &[f32], ctx: &str) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(expect), "{ctx}");
}

#[test]
fn logits_do_not_depend_on_batch_position_sharding_or_workers() {
    let mut rng = StdRng::seed_from_u64(2);
    let samples: Vec<Tensor> = (0..70)
        .map(|_| Tensor::rand_uniform(&DIMS, 0.0, 1.0, &mut rng))
        .collect();
    for kind in [
        ModelKind::SimpleCnn,
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ] {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", &mut published(kind));
        let bytes = &registry.latest("m").expect("published").bytes;
        for dtype in [DType::F32, DType::F16] {
            // the served model exactly as a server decodes it
            let mut net = build(kind);
            net.fuse_inference();
            net.to_dtype(dtype);
            net.load_checkpoint_bytes(bytes).expect("same architecture");
            let alone: Vec<Vec<f32>> = samples
                .iter()
                .map(|s| net.infer(&s.reshape(&[1, 3, 16, 16])).as_slice().to_vec())
                .collect();
            let classes = alone[0].len();

            let batch = net.infer(&Tensor::stack(&samples[..8])).clone();
            for (i, row) in batch.as_slice().chunks(classes).enumerate() {
                assert_bits(
                    row,
                    &alone[i],
                    &format!("{kind:?} {dtype:?} batch-8 position {i}"),
                );
            }

            // sharded evaluation: logit 0 of every sample, several shards
            hs_parallel::set_num_threads(Some(3));
            let data = Dataset::new(samples.clone(), Labels::Values(vec![0.0; samples.len()]));
            let (preds, _) = evaluate_heart_rate(&net, &data, 1.0);
            hs_parallel::set_num_threads(None);
            let firsts: Vec<f32> = alone.iter().map(|l| l[0]).collect();
            assert_bits(&preds, &firsts, &format!("{kind:?} {dtype:?} sharded eval"));

            for workers in [1, 2] {
                let config =
                    ServerConfig::new(workers, 64, BatchPolicy::new(8, 2_000)).with_dtype(dtype);
                let server = Server::start(
                    Arc::clone(&registry),
                    "m",
                    move || build(kind),
                    &DIMS,
                    config,
                )
                .expect("server starts");
                let client = server.client();
                let pending: Vec<_> = samples[..16]
                    .iter()
                    .map(|s| client.submit(s.clone(), None).expect("admitted"))
                    .collect();
                for (i, p) in pending.into_iter().enumerate() {
                    let response = p.wait().expect("served");
                    let ctx = format!(
                        "{kind:?} {dtype:?} served by {workers} worker(s) in a batch of {}",
                        response.batch_size
                    );
                    assert_bits(&response.logits, &alone[i], &ctx);
                }
                server.shutdown();
            }
        }
    }
}
