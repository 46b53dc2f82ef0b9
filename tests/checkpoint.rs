//! Checkpoint property tests across the whole model zoo: bit-exact
//! round trips (fresh and fused, before and after training), cross-model
//! fingerprint rejection, truncated-file rejection, and the byte-stable
//! golden header.

use hs_nn::models::{build_vision_model, ecg_net, ModelKind, VisionConfig};
use hs_nn::{CheckpointError, CrossEntropyLoss, Network, Sgd, Target, CHECKPOINT_MAGIC};
use hs_tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ZOO: [ModelKind; 4] = [
    ModelKind::SimpleCnn,
    ModelKind::MobileNetV3Small,
    ModelKind::ShuffleNetV2,
    ModelKind::SqueezeNet,
];

fn zoo_cfg() -> VisionConfig {
    VisionConfig::new(3, 5, 16)
}

fn zoo_model(kind: ModelKind, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    build_vision_model(kind, zoo_cfg(), &mut rng)
}

fn weight_bits(net: &mut Network) -> Vec<u32> {
    net.weights().iter().map(|v| v.to_bits()).collect()
}

/// One SGD step so parameters *and* batch-norm running buffers move away
/// from their initial values.
fn train_one_step(net: &mut Network, rng: &mut StdRng) {
    let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, rng);
    net.forward_backward(&x, &Target::Classes(vec![0, 1]), &CrossEntropyLoss);
    Sgd::new(0.05).step(net);
    net.zero_grad();
}

#[test]
fn round_trip_is_bit_exact_across_the_zoo_fresh_and_trained() {
    for kind in ZOO {
        let mut original = zoo_model(kind, 1);
        // fresh
        let bytes = original.to_checkpoint_bytes();
        let mut replica = zoo_model(kind, 2);
        replica.load_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(
            weight_bits(&mut original),
            weight_bits(&mut replica),
            "{kind:?} fresh round trip must be exact to the bit"
        );
        // post-training (parameters and BN running stats both moved)
        let mut rng = StdRng::seed_from_u64(3);
        train_one_step(&mut original, &mut rng);
        let trained = original.to_checkpoint_bytes();
        assert_ne!(trained, bytes, "{kind:?}: training must change the bytes");
        let mut replica = zoo_model(kind, 4);
        replica.load_checkpoint_bytes(&trained).unwrap();
        assert_eq!(
            weight_bits(&mut original),
            weight_bits(&mut replica),
            "{kind:?} post-training round trip must be exact to the bit"
        );
    }
}

#[test]
fn fused_and_unfused_replicas_share_checkpoints() {
    // the serving path: FL publishes from a plain global model, the server
    // loads into a fused replica — and the reverse must hold too
    for kind in ZOO {
        let mut rng = StdRng::seed_from_u64(5);
        let mut plain = zoo_model(kind, 1);
        train_one_step(&mut plain, &mut rng);
        let bytes = plain.to_checkpoint_bytes();

        let mut fused = zoo_model(kind, 2);
        fused.fuse_inference();
        assert_eq!(
            plain.fingerprint(),
            fused.fingerprint(),
            "{kind:?}: fusion must not change the topology fingerprint"
        );
        fused.load_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(
            weight_bits(&mut plain),
            weight_bits(&mut fused),
            "{kind:?} plain→fused load must be exact to the bit"
        );
        // a checkpoint re-saved from the fused replica loads back into a
        // plain one bit-exact (bytes differ only in the diagnostic buffer
        // names, which carry the fused layer names)
        let refused = fused.to_checkpoint_bytes();
        let mut plain2 = zoo_model(kind, 3);
        plain2.load_checkpoint_bytes(&refused).unwrap();
        assert_eq!(
            weight_bits(&mut plain),
            weight_bits(&mut plain2),
            "{kind:?} fused→plain load must be exact to the bit"
        );
        // and the loaded weights actually drive inference: outputs match
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let expect = plain.infer(&x).clone();
        let got = fused.infer(&x);
        for (a, b) in expect.as_slice().iter().zip(got.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-4 * a.abs().max(1.0),
                "{kind:?}: fused replica diverges after load: {a} vs {b}"
            );
        }
    }
}

#[test]
fn ecg_model_round_trips_too() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut original = ecg_net(32, &mut rng);
    let bytes = original.to_checkpoint_bytes();
    let mut replica = ecg_net(32, &mut rng);
    replica.load_checkpoint_bytes(&bytes).unwrap();
    assert_eq!(weight_bits(&mut original), weight_bits(&mut replica));
}

#[test]
fn cross_model_loads_are_rejected_by_fingerprint() {
    let mut donors: Vec<(ModelKind, Vec<u8>)> = ZOO
        .iter()
        .map(|&kind| (kind, zoo_model(kind, 1).to_checkpoint_bytes()))
        .collect();
    // every (donor, recipient) pair of *different* architectures must fail
    // with the fingerprint error, and leave the recipient untouched
    for (donor_kind, bytes) in donors.drain(..) {
        for recipient_kind in ZOO {
            if recipient_kind == donor_kind {
                continue;
            }
            let mut recipient = zoo_model(recipient_kind, 2);
            let before = recipient.weights();
            let err = recipient.load_checkpoint_bytes(&bytes).unwrap_err();
            assert!(
                matches!(err, CheckpointError::FingerprintMismatch { .. }),
                "{donor_kind:?} → {recipient_kind:?}: expected fingerprint mismatch, got {err}"
            );
            assert_eq!(recipient.weights(), before);
        }
    }
}

#[test]
fn truncated_files_are_rejected_with_actionable_errors() {
    let dir = std::env::temp_dir().join(format!("hs_ckpt_zoo_{}", std::process::id()));
    let path = dir.join("model.ckpt");
    let mut original = zoo_model(ModelKind::SimpleCnn, 1);
    original.save_checkpoint(&path).unwrap();
    let full = std::fs::read(&path).unwrap();

    let mut replica = zoo_model(ModelKind::SimpleCnn, 2);
    let before = replica.weights();
    for frac in [0.1, 0.5, 0.99] {
        let cut = (full.len() as f64 * frac) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = replica.load_checkpoint(&path).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("truncated"),
            "cut at {frac}: error should say truncated, said: {msg}"
        );
        assert_eq!(replica.weights(), before, "failed load must not mutate");
    }
    // a missing file surfaces the I/O error
    let err = replica
        .load_checkpoint(&dir.join("does_not_exist.ckpt"))
        .unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hand-encodes the frozen v1 layout (flat f32 params, no dtype tags, no
/// checksums) for an f32 network — what every pre-v2 checkpoint on disk
/// looks like.
fn encode_v1(net: &mut Network) -> Vec<u8> {
    fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    let mut out = Vec::new();
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&net.fingerprint().to_le_bytes());
    let total: usize = net.params_mut().iter().map(|p| p.len()).sum();
    out.extend_from_slice(&(total as u64).to_le_bytes());
    for p in net.params_mut() {
        for v in p.value.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let buffers = net.buffers_mut();
    out.extend_from_slice(&(buffers.len() as u64).to_le_bytes());
    for b in buffers {
        put_str(&mut out, "buffer");
        let dims = b.dims();
        out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for &d in dims {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for v in b.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

#[test]
fn v1_checkpoints_load_bit_exactly_across_the_zoo() {
    for kind in ZOO {
        let mut rng = StdRng::seed_from_u64(7);
        let mut original = zoo_model(kind, 1);
        train_one_step(&mut original, &mut rng);
        let v1 = encode_v1(&mut original);
        let mut replica = zoo_model(kind, 2);
        replica.load_checkpoint_bytes(&v1).unwrap();
        assert_eq!(
            weight_bits(&mut original),
            weight_bits(&mut replica),
            "{kind:?}: v1 load must be exact to the bit"
        );
        // and the migrated save is v2 with the same fingerprint
        let v2 = replica.to_checkpoint_bytes();
        assert_eq!(&v2[8..12], &2u32.to_le_bytes());
        assert_eq!(v2[12..20], v1[12..20], "fingerprint must survive v1→v2");
        let mut replica2 = zoo_model(kind, 3);
        replica2.load_checkpoint_bytes(&v2).unwrap();
        assert_eq!(weight_bits(&mut replica), weight_bits(&mut replica2));
    }
}

#[test]
fn quantized_replicas_round_trip_and_stay_close_across_the_zoo() {
    for kind in ZOO {
        let mut rng = StdRng::seed_from_u64(8);
        let mut f32_net = zoo_model(kind, 1);
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let expect = f32_net.infer(&x).clone();

        // f32 checkpoint → f16 replica (quantize-on-load, the serving path)
        let bytes = f32_net.to_checkpoint_bytes();
        let mut f16_net = zoo_model(kind, 2);
        f16_net.to_dtype(DType::F16);
        assert_eq!(
            f32_net.fingerprint(),
            f16_net.fingerprint(),
            "{kind:?}: quantization must not change the fingerprint"
        );
        f16_net.load_checkpoint_bytes(&bytes).unwrap();
        let got = f16_net.infer(&x).clone();
        for (a, b) in expect.as_slice().iter().zip(got.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-2 * a.abs().max(1.0),
                "{kind:?}: f16 replica drifted past 1e-2 rel: {a} vs {b}"
            );
        }

        // f16 save → f16 load is byte-stable (no quantize/dequantize churn)
        let f16_bytes = f16_net.to_checkpoint_bytes();
        let mut f16_twin = zoo_model(kind, 3);
        f16_twin.to_dtype(DType::F16);
        f16_twin.load_checkpoint_bytes(&f16_bytes).unwrap();
        assert_eq!(
            f16_twin.to_checkpoint_bytes(),
            f16_bytes,
            "{kind:?}: f16 round trip must be byte-stable"
        );
    }
}

/// FNV-1a (64-bit) over the little-endian bits of a flattened weight
/// vector: a cheap, order-sensitive digest of the weight layout.
fn fnv1a_weights(weights: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in weights {
        for b in w.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The golden weight layout of one zoo model at `zoo_cfg()`, seed 1.
struct Golden {
    kind: ModelKind,
    fingerprint: u64,
    param_stores: usize,
    buffers: usize,
    weights_fnv: u64,
}

/// Pinned by `checkpoint_header_is_byte_stable`. A reordered or dropped
/// entry in the parameter/buffer walk moves the weight digest (and usually
/// the fingerprint) of the models with composite blocks. The digest hashes
/// He-normal initial weights, whose Box-Muller draw goes through the
/// platform's `ln`/`sin`/`cos`; the values were recorded on x86-64 Linux.
const GOLDEN: [Golden; 4] = [
    Golden {
        kind: ModelKind::SimpleCnn,
        fingerprint: 0x08d9_4900_839b_10a8,
        param_stores: 12,
        buffers: 4,
        weights_fnv: 0x4a4e_c244_5bab_6477,
    },
    Golden {
        kind: ModelKind::MobileNetV3Small,
        fingerprint: 0xf11e_9952_9803_8ab1,
        param_stores: 54,
        buffers: 22,
        weights_fnv: 0xb011_e0cd_3ee2_5a1c,
    },
    Golden {
        kind: ModelKind::ShuffleNetV2,
        fingerprint: 0xbc45_e968_a61c_c09b,
        param_stores: 74,
        buffers: 36,
        weights_fnv: 0x2ca0_a7a4_be2d_c4be,
    },
    Golden {
        kind: ModelKind::SqueezeNet,
        fingerprint: 0x74e9_f485_58ac_63e5,
        param_stores: 22,
        buffers: 0,
        weights_fnv: 0xba47_dad8_359b_54e8,
    },
];

#[test]
fn checkpoint_header_is_byte_stable() {
    // golden pin of the 28-byte header (magic + version + fingerprint +
    // parameter-tensor count) and of the flattened weight layout, for every
    // zoo model at VisionConfig(3, 5, 16), seed 1. These must only ever
    // change with a deliberate format-version bump or an intentional
    // architecture change — update the constants in the same commit and say
    // why. Bumped to version 2 (and the count field from flat scalars to
    // per-tensor entries) when dtype tags and CRC-32 checksums were added;
    // the fingerprint algorithm was untouched, so the SimpleCnn fingerprint
    // survives from v1.
    assert_eq!(GOLDEN.map(|g| g.kind), ZOO);
    for g in &GOLDEN {
        let kind = g.kind;
        let mut net = zoo_model(kind, 1);
        let bytes = net.to_checkpoint_bytes();
        assert_eq!(&bytes[..8], &CHECKPOINT_MAGIC);
        assert_eq!(&bytes[8..12], &2u32.to_le_bytes()); // format version
        let mut expected_header = Vec::new();
        expected_header.extend_from_slice(b"HSNNCKPT");
        expected_header.extend_from_slice(&2u32.to_le_bytes());
        expected_header.extend_from_slice(&g.fingerprint.to_le_bytes());
        expected_header.extend_from_slice(&(g.param_stores as u64).to_le_bytes());
        assert_eq!(&bytes[..28], &expected_header[..], "{kind:?} header");
        // the golden values themselves, pinned as literals
        assert_eq!(
            net.fingerprint(),
            g.fingerprint,
            "{kind:?} topology fingerprint moved — format or architecture change?"
        );
        assert_eq!(net.param_stores().len(), g.param_stores, "{kind:?}");
        assert_eq!(net.buffers_mut().len(), g.buffers, "{kind:?}");
        assert_eq!(
            fnv1a_weights(&net.weights()),
            g.weights_fnv,
            "{kind:?} flattened weight layout moved"
        );
        // fused and f16 replicas keep the topology (and fusion the layout)
        let mut fused = zoo_model(kind, 1);
        fused.fuse_inference();
        assert_eq!(fused.fingerprint(), g.fingerprint, "{kind:?} fused");
        assert_eq!(
            fnv1a_weights(&fused.weights()),
            g.weights_fnv,
            "{kind:?} fused"
        );
        let mut f16 = zoo_model(kind, 1);
        f16.to_dtype(DType::F16);
        assert_eq!(f16.fingerprint(), g.fingerprint, "{kind:?} f16");
        assert_eq!(f16.param_stores().len(), g.param_stores, "{kind:?} f16");
    }
}
