//! Cross-crate integration tests: the full pipeline from device fleet through
//! dataset generation, federated training and evaluation.

use heteroswitch::{HeteroSwitchConfig, HeteroSwitchTrainer, Policy};
use hs_data::{
    build_device_datasets, build_ecg_datasets, split_evenly, CaptureMode, EcgConfig,
    Imagenet12Config, Labels,
};
use hs_device::paper_devices;
use hs_fl::{
    evaluate_accuracy, evaluate_heart_rate, AggregationMethod, ClientData, ClientTrainer,
    FedAvgTrainer, FlConfig, FlSimulation, LossKind, ModelFactory,
};
use hs_metrics::heart_rate_deviation;
use hs_nn::models::{build_vision_model, ecg_net, ModelKind, VisionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_imagenet_cfg() -> Imagenet12Config {
    let mut cfg = Imagenet12Config::tiny();
    cfg.num_classes = 3;
    cfg.image_size = 8;
    cfg.scene_size = 16;
    cfg.train_per_class = 3;
    cfg.test_per_class = 2;
    cfg
}

fn vision_factory(cfg: Imagenet12Config) -> ModelFactory {
    let vision = VisionConfig::new(3, cfg.num_classes, cfg.image_size);
    Box::new(move |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        build_vision_model(ModelKind::SimpleCnn, vision, &mut rng)
    })
}

fn fl_population(
    cfg: Imagenet12Config,
    devices: usize,
    clients_per_device: usize,
) -> (Vec<ClientData>, Vec<(String, hs_data::Dataset)>) {
    let fleet = paper_devices();
    let datasets = build_device_datasets(&fleet[..devices], cfg, 3);
    let mut clients = Vec::new();
    for (d, ds) in datasets.iter().enumerate() {
        for (i, shard) in split_evenly(&ds.train, clients_per_device, d as u64)
            .into_iter()
            .enumerate()
        {
            clients.push(ClientData {
                id: d * clients_per_device + i,
                device: ds.device.clone(),
                data: shard,
            });
        }
    }
    let tests = datasets
        .iter()
        .map(|d| (d.device.clone(), d.test.clone()))
        .collect();
    (clients, tests)
}

#[test]
fn device_pipeline_produces_learnable_heterogeneous_data() {
    // the full scene → sensor → ISP → tensor path produces valid,
    // device-dependent training data
    let cfg = tiny_imagenet_cfg();
    let fleet = paper_devices();
    let datasets = build_device_datasets(&fleet, cfg, 9);
    assert_eq!(datasets.len(), 9);
    for ds in &datasets {
        assert_eq!(ds.train.len(), cfg.num_classes * cfg.train_per_class);
        for x in &ds.train.x {
            assert_eq!(x.dims(), &[3, cfg.image_size, cfg.image_size]);
            assert!(x.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
        }
        match &ds.train.labels {
            Labels::Classes(labels) => assert!(labels.iter().all(|&l| l < cfg.num_classes)),
            _ => panic!("expected class labels"),
        }
    }
    // heterogeneity: the same sample index differs between the most and
    // least advanced devices
    let a = &datasets[0].train.x[0];
    let b = &datasets[6].train.x[0];
    let diff: f32 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .sum::<f32>()
        / a.len() as f32;
    assert!(diff > 0.005, "device renditions should differ, got {diff}");
}

#[test]
fn raw_mode_differs_from_processed_mode() {
    let mut cfg = tiny_imagenet_cfg();
    let fleet = paper_devices();
    let processed = build_device_datasets(&fleet[..1], cfg, 5);
    cfg.mode = CaptureMode::Raw;
    let raw = build_device_datasets(&fleet[..1], cfg, 5);
    let diff: f32 = processed[0].train.x[0]
        .as_slice()
        .iter()
        .zip(raw[0].train.x[0].as_slice())
        .map(|(a, b)| (a - b).abs())
        .sum::<f32>();
    assert!(diff > 0.1, "RAW and processed captures should differ");
}

#[test]
fn federated_training_with_fedavg_and_heteroswitch_completes_and_learns() {
    let cfg = tiny_imagenet_cfg();
    let (clients, tests) = fl_population(cfg, 3, 2);
    let mut fl = FlConfig::tiny();
    fl.num_clients = clients.len();
    fl.clients_per_round = 3;
    fl.rounds = 6;
    fl.batch_size = 4;

    let trainers: Vec<(&str, Box<dyn ClientTrainer>)> = vec![
        (
            "FedAvg",
            Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
        ),
        (
            "HeteroSwitch",
            Box::new(HeteroSwitchTrainer::new(
                HeteroSwitchConfig::default(),
                LossKind::CrossEntropy,
                Policy::Selective,
            )),
        ),
    ];
    for (name, trainer) in trainers {
        let mut sim = FlSimulation::new(
            fl,
            clients.clone(),
            vision_factory(cfg),
            trainer,
            AggregationMethod::FedAvg,
        );
        let history = sim.run();
        assert_eq!(history.len(), 6, "{name} must run all rounds");
        assert!(history.iter().all(|r| r.mean_train_loss.is_finite()));
        // the loss EMA is finite after the first round
        assert!(history[0].loss_ema.is_finite());
        let groups = sim.evaluate_per_device(&tests);
        assert_eq!(groups.len(), 3);
        for g in groups {
            assert!(
                (0.0..=1.0).contains(&g.accuracy),
                "{name}: accuracy out of range on {}",
                g.group
            );
        }
    }
}

#[test]
fn heteroswitch_and_fedavg_agree_in_round_zero_then_diverge() {
    // round 0 has no EMA, so HeteroSwitch must behave exactly like FedAvg;
    // with more rounds the selective switching kicks in and the models differ
    let cfg = tiny_imagenet_cfg();
    let (clients, _) = fl_population(cfg, 2, 2);
    let mut fl = FlConfig::tiny();
    fl.num_clients = clients.len();
    fl.clients_per_round = 2;
    fl.rounds = 1;

    let run = |rounds: usize, hetero: bool| -> Vec<f32> {
        let mut fl = fl;
        fl.rounds = rounds;
        let trainer: Box<dyn ClientTrainer> = if hetero {
            Box::new(HeteroSwitchTrainer::new(
                HeteroSwitchConfig::default(),
                LossKind::CrossEntropy,
                Policy::Selective,
            ))
        } else {
            Box::new(FedAvgTrainer::new(LossKind::CrossEntropy))
        };
        let mut sim = FlSimulation::new(
            fl,
            clients.clone(),
            vision_factory(cfg),
            trainer,
            AggregationMethod::FedAvg,
        );
        sim.run();
        sim.global_weights().to_vec()
    };

    assert_eq!(run(1, false), run(1, true), "round 0 must match FedAvg");
    assert_ne!(run(4, false), run(4, true), "later rounds must diverge");
}

#[test]
fn ecg_federated_pipeline_estimates_heart_rate() {
    let mut cfg = EcgConfig::tiny();
    cfg.train_per_sensor = 12;
    cfg.test_per_sensor = 6;
    let datasets = build_ecg_datasets(cfg, 2);
    let mut clients = Vec::new();
    for (d, ds) in datasets.iter().enumerate() {
        clients.push(ClientData {
            id: d,
            device: ds.device.clone(),
            data: ds.train.clone(),
        });
    }
    let mut fl = FlConfig::tiny();
    fl.num_clients = clients.len();
    fl.clients_per_round = 2;
    fl.rounds = 15;
    fl.batch_size = 6;
    fl.lr = 0.05;

    let window = cfg.window;
    let mut sim = FlSimulation::new(
        fl,
        clients,
        Box::new(move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            ecg_net(window, &mut rng)
        }),
        Box::new(HeteroSwitchTrainer::new(
            HeteroSwitchConfig::ecg(),
            LossKind::Mse,
            Policy::Selective,
        )),
        AggregationMethod::FedAvg,
    );
    let history = sim.run();
    // training loss should trend down
    assert!(history.last().unwrap().mean_train_loss <= history[0].mean_train_loss);
    let net = sim.global_model();
    for ds in &datasets {
        let (pred, actual) = evaluate_heart_rate(&net, &ds.test, 200.0);
        let deviation = heart_rate_deviation(&pred, &actual);
        assert!(deviation.is_finite());
        assert!(
            deviation < 100.0,
            "deviation on {} should be bounded, got {deviation}%",
            ds.device
        );
    }
}

#[test]
fn centralized_training_beats_chance_on_device_data() {
    // sanity: the NN substrate can actually learn the procedural classes
    let cfg = tiny_imagenet_cfg();
    let fleet = paper_devices();
    let datasets = build_device_datasets(&fleet[..1], cfg, 21);
    let train = &datasets[0].train;
    let test = &datasets[0].test;
    let vision = VisionConfig::new(3, cfg.num_classes, cfg.image_size);
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = build_vision_model(ModelKind::SimpleCnn, vision, &mut rng);
    let mut opt = hs_nn::Sgd::new(0.1);
    for _ in 0..40 {
        let (x, target) = train.full_batch();
        net.forward_backward(&x, &target, &hs_nn::CrossEntropyLoss);
        opt.step(&mut net);
    }
    let acc = evaluate_accuracy(&net, test);
    let chance = 1.0 / cfg.num_classes as f32;
    assert!(
        acc > chance,
        "trained accuracy {acc} should beat chance {chance}"
    );
}
