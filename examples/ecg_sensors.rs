//! The non-vision experiment (paper Sec. 6.6): heart-rate estimation from
//! ECG windows captured by four heterogeneous sensor types, comparing FedAvg
//! against HeteroSwitch equipped with the random Gaussian filter.
//!
//! Run with `cargo run --release --example ecg_sensors`.

use heteroswitch::{HeteroSwitchConfig, HeteroSwitchTrainer, Policy};
use hs_data::{build_ecg_datasets, split_evenly, EcgConfig};
use hs_fl::{
    evaluate_heart_rate, AggregationMethod, ClientData, ClientTrainer, FedAvgTrainer, FlConfig,
    FlSimulation, LossKind, ModelFactory,
};
use hs_metrics::heart_rate_deviation;
use hs_nn::models::ecg_net;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = EcgConfig {
        train_per_sensor: 24,
        test_per_sensor: 10,
        ..EcgConfig::default()
    };
    let datasets = build_ecg_datasets(cfg, 5);
    println!(
        "Sensor types: {:?}",
        datasets
            .iter()
            .map(|d| d.device.clone())
            .collect::<Vec<_>>()
    );

    // two clients per sensor type
    let mut clients = Vec::new();
    for (d, ds) in datasets.iter().enumerate() {
        for (i, shard) in split_evenly(&ds.train, 2, d as u64).into_iter().enumerate() {
            clients.push(ClientData {
                id: d * 2 + i,
                device: ds.device.clone(),
                data: shard,
            });
        }
    }
    let tests: Vec<(String, _)> = datasets
        .iter()
        .map(|d| (d.device.clone(), d.test.clone()))
        .collect();

    let mut fl = FlConfig::quick();
    fl.num_clients = clients.len();
    fl.clients_per_round = 4;
    fl.rounds = 20;
    fl.batch_size = 8;

    let window = cfg.window;
    let factory = || -> ModelFactory {
        Box::new(move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            ecg_net(window, &mut rng)
        })
    };
    let methods: Vec<(&str, Box<dyn ClientTrainer>)> = vec![
        ("FedAvg", Box::new(FedAvgTrainer::new(LossKind::Mse))),
        (
            "HeteroSwitch + Gaussian filter",
            Box::new(HeteroSwitchTrainer::new(
                HeteroSwitchConfig::ecg(),
                LossKind::Mse,
                Policy::Selective,
            )),
        ),
    ];

    for (name, trainer) in methods {
        let mut sim = FlSimulation::new(
            fl,
            clients.clone(),
            factory(),
            trainer,
            AggregationMethod::FedAvg,
        );
        sim.run();
        let net = sim.global_model();
        println!("\n{name}:");
        let mut deviations = Vec::new();
        for (sensor, test) in &tests {
            let (pred, actual) = evaluate_heart_rate(&net, test, 200.0);
            let deviation = heart_rate_deviation(&pred, &actual);
            println!("  {sensor:<17} heart-rate deviation {deviation:.1}%");
            deviations.push(deviation);
        }
        println!(
            "  mean deviation across sensor types: {:.1}%",
            deviations.iter().sum::<f32>() / deviations.len() as f32
        );
    }
}
