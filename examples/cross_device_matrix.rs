//! Reproduces a miniature of the paper's Table 2: train one model per device
//! type, test it on every other device type, and print the degradation
//! matrix.
//!
//! Run with `cargo run --release --example cross_device_matrix`.

use hs_data::{build_device_datasets, Imagenet12Config};
use hs_device::paper_devices;
use hs_fl::evaluate_accuracy;
use hs_metrics::DegradationMatrix;
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::{CrossEntropyLoss, Sgd};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let fleet = paper_devices();
    let cfg = Imagenet12Config {
        num_classes: 6,
        image_size: 16,
        scene_size: 24,
        train_per_class: 4,
        test_per_class: 2,
        ..Imagenet12Config::default()
    };
    let datasets = build_device_datasets(&fleet, cfg, 7);
    let vision = VisionConfig::new(3, cfg.num_classes, cfg.image_size);

    let names: Vec<String> = datasets.iter().map(|d| d.device.clone()).collect();
    let mut accuracy = Vec::new();
    for (i, train_ds) in datasets.iter().enumerate() {
        // centralized training on this device's data only
        let mut rng = StdRng::seed_from_u64(i as u64);
        let mut net = build_vision_model(ModelKind::SimpleCnn, vision, &mut rng);
        let mut opt = Sgd::new(0.05);
        for _epoch in 0..15 {
            let mut order: Vec<usize> = (0..train_ds.train.len()).collect();
            order.shuffle(&mut rng);
            for batch in order.chunks(8) {
                let (x, target) = train_ds.train.batch(batch);
                net.forward_backward(&x, &target, &CrossEntropyLoss);
                opt.step(&mut net);
            }
        }
        let row: Vec<f32> = datasets
            .iter()
            .map(|test_ds| evaluate_accuracy(&net, &test_ds.test))
            .collect();
        println!(
            "trained on {:<8} own-device accuracy {:.1}%",
            train_ds.device,
            row[i] * 100.0
        );
        accuracy.push(row);
    }

    let matrix = DegradationMatrix::new(names, accuracy);
    println!("\n{}", matrix.to_table());
    println!(
        "Overall mean cross-device degradation: {:.1}%",
        matrix.overall_mean_degradation() * 100.0
    );
}
