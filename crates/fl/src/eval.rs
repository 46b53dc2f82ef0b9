//! Evaluation helpers for trained (global) models.
//!
//! Whole evaluation batches are sharded across the shared [`hs_parallel`]
//! pool against one `&Network`: each pool task runs its batches through
//! [`Network::infer_into`] over its own [`Workspace`], the same inference
//! path serving and [`Network::infer`] run, so per-device evaluation in the
//! FL simulator scales with cores without cloning model weights and a
//! sample's logits do not depend on how the batches were sharded.

use hs_data::{Dataset, Labels};
use hs_metrics::{accuracy, average_precision, GroupAccuracy};
use hs_nn::{Network, Workspace};
use hs_tensor::Tensor;

/// Maximum evaluation batch size (keeps peak memory bounded and is the
/// sharding granule for the parallel path).
const EVAL_BATCH: usize = 32;

/// Runs `consume(start, logits)` for every `EVAL_BATCH`-sized batch of
/// `data`. The batches are split into at most `num_threads()` contiguous
/// groups, one pool task each with its own workspace (batches within a
/// group run serially), so the concurrency is bounded by the parallelism
/// target — which makes `hs_parallel::set_num_threads` an effective knob
/// for the eval-scaling bench — and spawn overhead stays O(threads), not
/// O(batches). `consume` writes into disjoint per-batch regions, so it must
/// be callable concurrently.
fn for_each_batch_logits<F>(net: &Network, data: &Dataset, consume: F)
where
    F: Fn(usize, &Tensor) + Sync,
{
    let n = data.len();
    let n_batches = n.div_ceil(EVAL_BATCH);
    let run_group = |batches: std::ops::Range<usize>| {
        let (mut ws, mut logits) = (Workspace::new(), Tensor::zeros(&[0]));
        for b in batches {
            let start = b * EVAL_BATCH;
            let indices: Vec<usize> = (start..(start + EVAL_BATCH).min(n)).collect();
            let (x, _) = data.batch(&indices);
            net.infer_into(&x, &mut logits, &mut ws);
            consume(start, &logits);
        }
    };
    let groups = hs_parallel::num_threads().min(n_batches);
    if groups > 1 && !hs_parallel::inside_pool() {
        let per_group = n_batches.div_ceil(groups);
        hs_parallel::scope(|s| {
            for group in 0..groups {
                let run_group = &run_group;
                let lo = group * per_group;
                s.spawn(move || run_group(lo..(lo + per_group).min(n_batches)));
            }
        });
    } else {
        run_group(0..n_batches);
    }
}

/// Classification accuracy of `net` on a dataset with class labels.
///
/// # Panics
///
/// Panics if the dataset does not carry class labels.
pub fn evaluate_accuracy(net: &Network, data: &Dataset) -> f32 {
    let labels = match &data.labels {
        Labels::Classes(l) => l,
        _ => panic!("evaluate_accuracy requires class labels"),
    };
    if data.is_empty() {
        return 0.0;
    }
    let predictions = std::sync::Mutex::new(vec![0usize; data.len()]);
    for_each_batch_logits(net, data, |start, logits| {
        let preds = logits.argmax_rows();
        let mut guard = hs_parallel::sync::lock(&predictions);
        guard[start..start + preds.len()].copy_from_slice(&preds);
    });
    accuracy(&hs_parallel::sync::into_inner(predictions), labels)
}

/// Mean averaged precision of `net` on a multi-label dataset (the paper's
/// FLAIR metric).
///
/// # Panics
///
/// Panics if the dataset does not carry multi-hot labels.
pub fn evaluate_average_precision(net: &Network, data: &Dataset) -> f32 {
    let hot = match &data.labels {
        Labels::MultiHot(h) => h,
        _ => panic!("evaluate_average_precision requires multi-hot labels"),
    };
    if data.is_empty() {
        return 0.0;
    }
    let aps = std::sync::Mutex::new(vec![0.0f32; data.len()]);
    for_each_batch_logits(net, data, |start, logits| {
        let (n, l) = (logits.dims()[0], logits.dims()[1]);
        let local: Vec<f32> = (0..n)
            .map(|i| {
                let scores: Vec<f32> = (0..l).map(|j| logits.at(&[i, j])).collect();
                let relevant: Vec<bool> = hot[start + i].iter().map(|&v| v > 0.5).collect();
                average_precision(&scores, &relevant)
            })
            .collect();
        let mut guard = hs_parallel::sync::lock(&aps);
        guard[start..start + n].copy_from_slice(&local);
    });
    let aps = hs_parallel::sync::into_inner(aps);
    aps.iter().sum::<f32>() / aps.len() as f32
}

/// Heart-rate predictions and ground truth (both in bpm) of `net` on a
/// regression dataset whose labels were normalised by `1 / denormalize`.
///
/// # Panics
///
/// Panics if the dataset does not carry value labels.
pub fn evaluate_heart_rate(
    net: &Network,
    data: &Dataset,
    denormalize: f32,
) -> (Vec<f32>, Vec<f32>) {
    let values = match &data.labels {
        Labels::Values(v) => v,
        _ => panic!("evaluate_heart_rate requires value labels"),
    };
    let actual: Vec<f32> = values.iter().map(|v| v * denormalize).collect();
    if data.is_empty() {
        return (Vec::new(), actual);
    }
    let preds = std::sync::Mutex::new(vec![0.0f32; data.len()]);
    for_each_batch_logits(net, data, |start, out| {
        let n = out.dims()[0];
        let mut guard = hs_parallel::sync::lock(&preds);
        for i in 0..n {
            guard[start + i] = out.at(&[i, 0]) * denormalize;
        }
    });
    (hs_parallel::sync::into_inner(preds), actual)
}

/// Per-device-type accuracy of a single model over a list of named test
/// sets — the quantity behind the paper's fairness/DG tables. Each set's
/// evaluation shards its batches across the pool.
pub fn per_device_accuracy(
    net: &Network,
    device_tests: &[(String, Dataset)],
) -> Vec<GroupAccuracy> {
    device_tests
        .iter()
        .map(|(device, test)| GroupAccuracy::new(device.clone(), evaluate_accuracy(net, test)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_nn::{Linear, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn identity_like_net(features: usize, classes: usize) -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Network::new(Sequential::new(vec![Box::new(Linear::new(
            features, classes, &mut rng,
        ))]));
        // make logits equal to the input features so predictions are readable
        let weights_len = net.num_weights();
        let mut w = vec![0.0f32; weights_len];
        for c in 0..classes {
            w[c * features + c] = 1.0;
        }
        net.set_weights(&w);
        net
    }

    #[test]
    fn accuracy_of_a_perfect_model_is_one() {
        let net = identity_like_net(3, 3);
        let x: Vec<Tensor> = (0..3)
            .map(|i| {
                let mut t = Tensor::zeros(&[3]);
                t.as_mut_slice()[i] = 1.0;
                t
            })
            .collect();
        let data = Dataset::new(x, Labels::Classes(vec![0, 1, 2]));
        assert_eq!(evaluate_accuracy(&net, &data), 1.0);
    }

    #[test]
    fn sharded_accuracy_matches_serial_on_many_batches() {
        // enough samples for several EVAL_BATCH shards
        let mut net = identity_like_net(4, 4);
        let n = 3 * EVAL_BATCH + 7;
        let mut x = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let mut t = Tensor::zeros(&[4]);
            t.as_mut_slice()[i % 4] = 1.0;
            x.push(t);
            // make roughly a third of the labels wrong so accuracy is not 1.0
            labels.push(if i % 3 == 0 { (i + 1) % 4 } else { i % 4 });
        }
        let data = Dataset::new(x, Labels::Classes(labels.clone()));
        let sharded = evaluate_accuracy(&net, &data);

        // serial reference through the exclusive-access path
        let mut serial_preds = Vec::new();
        let mut start = 0;
        while start < data.len() {
            let end = (start + EVAL_BATCH).min(data.len());
            let indices: Vec<usize> = (start..end).collect();
            let (bx, _) = data.batch(&indices);
            serial_preds.extend(net.predict_classes(&bx));
            start = end;
        }
        assert_eq!(sharded, accuracy(&serial_preds, &labels));
    }

    #[test]
    fn average_precision_of_a_perfect_scorer_is_one() {
        let net = identity_like_net(4, 4);
        let x = vec![
            Tensor::from_vec(vec![5.0, 0.0, 5.0, 0.0], &[4]),
            Tensor::from_vec(vec![0.0, 5.0, 0.0, 0.0], &[4]),
        ];
        let labels = Labels::MultiHot(vec![vec![1.0, 0.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 0.0]]);
        let data = Dataset::new(x, labels);
        let ap = evaluate_average_precision(&net, &data);
        assert!((ap - 1.0).abs() < 1e-6);
    }

    #[test]
    fn heart_rate_evaluation_denormalises() {
        let net = identity_like_net(1, 1);
        let data = Dataset::new(
            vec![
                Tensor::from_vec(vec![0.4], &[1]),
                Tensor::from_vec(vec![0.3], &[1]),
            ],
            Labels::Values(vec![0.4, 0.3]),
        );
        let (preds, actual) = evaluate_heart_rate(&net, &data, 200.0);
        assert!((actual[0] - 80.0).abs() < 1e-3 && (actual[1] - 60.0).abs() < 1e-3);
        assert!((preds[0] - 80.0).abs() < 1e-3);
    }

    #[test]
    fn per_device_accuracy_labels_groups() {
        let net = identity_like_net(2, 2);
        let make = |label: usize| {
            let mut t = Tensor::zeros(&[2]);
            t.as_mut_slice()[label] = 1.0;
            Dataset::new(vec![t], Labels::Classes(vec![label]))
        };
        let tests = vec![("A".to_string(), make(0)), ("B".to_string(), make(1))];
        let groups = per_device_accuracy(&net, &tests);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].group, "A");
        assert_eq!(groups[0].accuracy, 1.0);
    }
}
