//! The two federated-learning workloads.
//!
//! * `fl_heteroswitch` — the paper's Table 4 setting: the nine-device
//!   population captured through each device's ISP at the quick-scale
//!   sizes, 20 market-share clients with 5 per round, MobileNetV3-small at
//!   16 px trained by `HeteroSwitchTrainer` with both switches forced on.
//! * `fl_fleet` — a 100k-client lazy fleet, a device-stratified cohort of
//!   800 × 1.25, faulted semi-sync rounds, FedAvg on a tiny MLP at 8 px.
//!
//! Set-up builds the inputs and a simulation. Then a fixed number of
//! rounds runs back to back:
//! `--seconds` sizes it, at a per-workload rate of rounds per second that
//! fills about 85% of the seconds on a 2-core x86-64 box. Rounds differ
//! in cost with the clients they draw, so every run replays the same
//! round schedule; a run stopped by the clock would compare different
//! rounds. Spread over the loop, outside the timed rounds, the final
//! model's evaluation repeats and fresh simulations over the same inputs
//! time their first round, the cold start.
//!
//! `--seed` varies the data: the captured scenes and their capture noise,
//! and the lazy fleet's clients. What fixes the work per round stays
//! fixed: the heteroswitch population's client sizes come from
//! [`POPULATION_SEED`], so every seed trains clients of the same sizes.

use crate::clock;
use crate::layer::{timed_factory, LayerTimer, PoolWindow, TimedSource, TimedTrainer};
use crate::report::Report;
use crate::spans::{Drain, Spans};
use crate::stats::{mean, median, quantile};
use heteroswitch::{HeteroSwitchConfig, HeteroSwitchTrainer, Policy};
use hs_data::{
    assign_clients_by_share, build_device_datasets, split_evenly, Dataset, DeviceDataset,
    Imagenet12Config, LazyClientSet,
};
use hs_device::{paper_devices, FaultInjector, FaultPlan, FleetSpec};
use hs_fl::{
    AggregationMethod, ClientData, ClientSource, CohortStrategy, FedAvgTrainer, FlConfig,
    FlSimulation, LossKind, ModelFactory, SemiSyncPolicy,
};
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::{Flatten, Linear, Network, Relu, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which FL workload to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HeteroSwitch,
    Fleet,
}

impl Kind {
    /// Rounds per second of `--seconds` (about 85% of the time on a
    /// 2-core x86-64 box).
    fn rounds_per_second(self) -> f64 {
        match self {
            Kind::HeteroSwitch => 20.0,
            Kind::Fleet => 25.0,
        }
    }

    /// Set-ups per untraced pass; `setup_s` is their median. The fleet
    /// builds in milliseconds, so it takes more samples.
    fn setups(self) -> usize {
        match self {
            Kind::HeteroSwitch => 3,
            Kind::Fleet => 9,
        }
    }
}

/// An evaluation pass runs after every this many rounds.
const EVAL_EVERY: usize = 4;
/// Fresh simulations whose first round is timed as the cold start.
const COLD_SIMS: usize = 9;
/// Rounds over which `fl.completed_share` is counted, so the count repeats
/// exactly for a seed however many rounds a run fits.
const SHARE_ROUNDS: usize = 10;
/// Round-latency tail reported as `tail_ms`.
const TAIL_Q: f64 = 0.9;

/// Seed of the heteroswitch population's structure (which device each
/// client uses and how each device's data is split) and of its round
/// schedule: the quick-scale experiments' seed.
const POPULATION_SEED: u64 = 7;

/// Fleet workload sizes (the fleet-scale study's headline configuration).
const FLEET_CLIENTS: usize = 100_000;
const FLEET_COHORT: usize = 800;
const FLEET_CLASSES: usize = 4;
const FLEET_IMAGE: usize = 8;
const FLEET_TEST_CLIENTS: usize = 900;

/// The result of one pass: its report plus what the replay check compares.
pub struct Outcome {
    pub report: Report,
    pub weights: Vec<f32>,
    pub rounds: usize,
    /// Median round wall-clock, the pass's primary metric for
    /// `obs.trace_overhead`.
    pub primary_ms: f64,
}

/// Everything set-up produces.
struct Built {
    /// A fresh simulation over the set-up's inputs; every one runs the
    /// same round schedule.
    make: Box<dyn Fn() -> FlSimulation>,
    tests: Vec<(String, Dataset)>,
    update_timer: Arc<LayerTimer>,
    trained_samples: Arc<std::sync::atomic::AtomicU64>,
    factory_timer: Arc<LayerTimer>,
    materialize_timer: Option<Arc<LayerTimer>>,
    capture_s: f64,
}

/// Runs one pass; passes with the same seed and seconds run the same
/// rounds.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut report = Report::default();
    let setups = if traced { 1 } else { kind.setups() };
    let (mut setup_s, mut capture_s) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..setups {
        // drop the previous set-up first so set-ups do not stack in memory
        drop(built.take());
        let start = clock::now();
        let b = build(kind, seed);
        let sim = (b.make)();
        setup_s.push(clock::secs_since(start));
        capture_s.push(b.capture_s);
        built = Some((b, sim));
    }
    let (b, mut sim) = built.expect("at least one set-up");
    report.set("setup_s", median(&setup_s));

    let mut drain = traced.then(Drain::start);
    let pool = PoolWindow::open();
    let rounds = (kind.rounds_per_second() * seconds).round().max(1.0) as usize;
    let cold_every = rounds.div_ceil(COLD_SIMS).max(1);
    let mut round_ms = Vec::new();
    let (mut busy_s, mut eval_ms, mut cold_ms, mut factory_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut accuracies = Vec::new();
    let mut cold_samples = 0;
    let (mut drawn, mut completed, mut faulted, mut screened, mut failed) = (0, 0, 0, 0, 0u64);
    let (mut share_drawn, mut share_done) = (0usize, 0usize);
    for i in 0..rounds {
        let start = clock::now();
        let stats = sim.run_round();
        round_ms.push(clock::ms_since(start));
        drawn += stats.participants.len();
        completed += stats.completed;
        faulted += stats.dropped_crash + stats.dropped_transport + stats.dropped_deadline;
        screened += stats.rejected_corrupt;
        if stats.completed > 0 && !stats.mean_train_loss.is_finite() {
            failed += 1;
        }
        if round_ms.len() <= SHARE_ROUNDS {
            share_drawn += stats.participants.len();
            share_done += stats.completed;
        }
        if traced {
            busy_s.push(b.update_timer.take().iter().sum::<f64>() / 1e3);
            factory_ms.extend(b.factory_timer.take());
        }
        if i % EVAL_EVERY == EVAL_EVERY - 1 || i + 1 == rounds {
            let _span = hs_obs::trace::span("bench.evaluate");
            let start = clock::now();
            accuracies = sim.evaluate_per_device(&b.tests);
            eval_ms.push(clock::ms_since(start));
            // the evaluated model's build is not a training rebuild
            b.factory_timer.take();
        }
        if !traced && i % cold_every == 0 {
            let before = b.trained_samples.load(Ordering::Relaxed);
            let mut fresh = (b.make)();
            let start = clock::now();
            fresh.run_round();
            cold_ms.push(clock::ms_since(start));
            cold_samples += b.trained_samples.load(Ordering::Relaxed) - before;
        }
        if let Some(d) = drain.as_mut() {
            d.pull();
        }
    }
    let (tasks, idle_share) = pool.close();
    let trained = (b.trained_samples.load(Ordering::Relaxed) - cold_samples) as f64;
    let materialize_ms = b.materialize_timer.as_ref().map(|t| t.take());
    let spans = drain.map(Drain::finish);

    let test_samples: usize = b.tests.iter().map(|(_, d)| d.len()).sum();
    let round_total_s = round_ms.iter().sum::<f64>() / 1e3;
    let p50 = median(&round_ms);
    report.set("p50_ms", p50);
    report.set("tail_ms", quantile(&round_ms, TAIL_Q));
    report.set("throughput_per_s", trained / round_total_s);
    report.set(
        "eval_samples_per_s",
        test_samples as f64 / (median(&eval_ms) / 1e3),
    );
    if !traced {
        // first rounds are bimodal on a 2-core box; a median flips between
        // the modes from run to run, the mean does not
        report.set("cold_start_ms", mean(&cold_ms));
        report.named("first_round_ms_mean", mean(&cold_ms), "ms");
    }
    report.named("round_ms_p50", p50, "ms");
    report.named("round_ms_p90", quantile(&round_ms, TAIL_Q), "ms");
    report.named("train_samples_per_s", trained / round_total_s, "1/s");
    report.named("rounds", round_ms.len() as f64, "count");
    report.detail(
        "round_ms_deciles",
        JsonValue::Arr(
            (1..10)
                .map(|d| JsonValue::Num(quantile(&round_ms, d as f64 / 10.0)))
                .collect(),
        ),
    );
    report.attempted = drawn as u64;
    report.failed = failed;
    report.detail(
        "fl_updates",
        JsonValue::obj(vec![
            ("drawn", JsonValue::Num(drawn as f64)),
            ("aggregated", JsonValue::Num(completed as f64)),
            ("dropped_by_faults", JsonValue::Num(faulted as f64)),
            ("screened", JsonValue::Num(screened as f64)),
        ]),
    );

    let weights = sim.global_weights().to_vec();
    let finite = weights.iter().all(|w| w.is_finite());
    report.check(
        "fl_weights_finite",
        finite,
        format!("{} weights after {} rounds", weights.len(), round_ms.len()),
    );
    report.check(
        "fl_eval_finite",
        accuracies.iter().all(|g| g.accuracy.is_finite()),
        format!("{} device groups", accuracies.len()),
    );

    // per-layer numbers
    report.set("nn.factory_calls", factory_ms.len() as f64);
    report.set("nn.factory_ms", median(&factory_ms));
    report.set("data.capture_s", median(&capture_s));
    if let Some(ms) = &materialize_ms {
        report.set("data.materialize_calls", ms.len() as f64);
        report.set("data.materialize_ms_p50", median(ms));
    }
    report.set("fl.eval_ms", median(&eval_ms));
    report.set("parallel.tasks", tasks);
    report.set("parallel.idle_share", idle_share);
    report.set(
        "fl.completed_share",
        share_done as f64 / share_drawn.max(1) as f64,
    );
    if let Some(spans) = &spans {
        layer_metrics(kind, &mut report, spans, &busy_s);
    }
    report.spans = spans;

    Outcome {
        report,
        weights,
        rounds: round_ms.len(),
        primary_ms: p50,
    }
}

/// Per-layer numbers read from the traced pass's spans.
fn layer_metrics(kind: Kind, report: &mut Report, spans: &Spans, busy_s: &[f64]) {
    let updates = spans.durations_ms(match kind {
        Kind::HeteroSwitch => "bench.core_client_update",
        Kind::Fleet => "bench.fl_client_update",
    });
    match kind {
        Kind::HeteroSwitch => {
            report.set("core.client_update_calls", updates.len() as f64);
            report.set("core.client_update_ms_p50", median(&updates));
            report.set("core.client_update_busy_s", median(busy_s));
        }
        Kind::Fleet => report.set("fl.client_update_ms_p50", median(&updates)),
    }
    let round_total: f64 = spans.durations_ms("fl_round").iter().sum();
    let mut phase_total = 0.0;
    for (span, metric) in [
        ("cohort_draw", "fl.cohort_draw_ms"),
        ("fault_triage", "fl.fault_triage_ms"),
        ("client_train", "fl.client_train_ms"),
        ("screen", "fl.screen_ms"),
        ("aggregate", "fl.aggregate_ms"),
    ] {
        let ms = spans.durations_ms(span);
        phase_total += ms.iter().sum::<f64>();
        report.set(metric, median(&ms));
    }
    report.set("fl.phase_coverage", phase_total / round_total.max(1e-9));
    report.set("obs.dropped_spans", spans.dropped as f64);
}

fn build(kind: Kind, seed: u64) -> Built {
    match kind {
        Kind::HeteroSwitch => build_heteroswitch(seed),
        Kind::Fleet => build_fleet(seed),
    }
}

/// The quick-scale dataset sizes of the paper experiments.
fn imagenet_quick() -> Imagenet12Config {
    Imagenet12Config {
        num_classes: 8,
        image_size: 16,
        scene_size: 32,
        train_per_class: 5,
        test_per_class: 3,
        ..Imagenet12Config::default()
    }
}

fn build_heteroswitch(seed: u64) -> Built {
    let imagenet = imagenet_quick();
    let fl = FlConfig {
        num_clients: 20,
        clients_per_round: 5,
        batch_size: 10,
        seed: POPULATION_SEED,
        ..FlConfig::quick()
    };
    let capture = clock::now();
    let datasets = build_device_datasets(&paper_devices(), imagenet, seed);
    let capture_s = clock::secs_since(capture);
    let clients = market_share_population(&datasets, fl.num_clients, POPULATION_SEED);
    let tests = datasets
        .iter()
        .map(|d| (d.device.clone(), d.test.clone()))
        .collect();

    let vision = VisionConfig::new(3, imagenet.num_classes, imagenet.image_size);
    let (update_timer, trained_samples, factory_timer) = (
        Arc::default(),
        Arc::default(),
        Arc::new(LayerTimer::default()),
    );
    let make = {
        let (update_timer, trained_samples, factory_timer) = (
            Arc::clone(&update_timer),
            Arc::clone(&trained_samples),
            Arc::clone(&factory_timer),
        );
        Box::new(move || {
            let factory: ModelFactory = Box::new(move |s| {
                build_vision_model(
                    ModelKind::MobileNetV3Small,
                    vision,
                    &mut StdRng::seed_from_u64(s),
                )
            });
            let trainer = TimedTrainer::new(
                Box::new(HeteroSwitchTrainer::new(
                    HeteroSwitchConfig::default(),
                    LossKind::CrossEntropy,
                    Policy::AlwaysTransformAndSwad,
                )),
                "bench.core_client_update",
                Arc::clone(&update_timer),
                Arc::clone(&trained_samples),
            );
            FlSimulation::new(
                fl,
                clients.clone(),
                timed_factory(factory, Arc::clone(&factory_timer)),
                Box::new(trainer),
                AggregationMethod::FedAvg,
            )
        })
    };
    Built {
        make,
        tests,
        update_timer,
        trained_samples,
        factory_timer,
        materialize_timer: None,
        capture_s,
    }
}

/// Splits each device's captured training set across the clients the
/// market shares assign to it (every client keeps at least one sample).
fn market_share_population(
    datasets: &[DeviceDataset],
    num_clients: usize,
    seed: u64,
) -> Vec<ClientData> {
    let shares: Vec<f32> = datasets.iter().map(|d| d.share).collect();
    let assignment = assign_clients_by_share(&shares, num_clients, seed);
    let mut clients: Vec<Option<ClientData>> = (0..num_clients).map(|_| None).collect();
    for (di, device) in datasets.iter().enumerate() {
        let ids: Vec<usize> = (0..num_clients).filter(|&c| assignment[c] == di).collect();
        if ids.is_empty() {
            continue;
        }
        for (&id, shard) in ids
            .iter()
            .zip(split_evenly(&device.train, ids.len(), seed ^ di as u64))
        {
            let data = if shard.is_empty() {
                device.train.clone()
            } else {
                shard
            };
            clients[id] = Some(ClientData {
                id,
                device: device.device.clone(),
                data,
            });
        }
    }
    clients
        .into_iter()
        .enumerate()
        .map(|(id, c)| {
            c.unwrap_or_else(|| ClientData {
                id,
                device: datasets[0].device.clone(),
                data: datasets[0].train.clone(),
            })
        })
        .collect()
}

fn build_fleet(seed: u64) -> Built {
    let devices = paper_devices();
    let fleet = Arc::new(FleetSpec::from_profiles(
        FLEET_CLIENTS,
        &devices,
        (2, 4),
        seed,
    ));
    let lazy = Arc::new(LazyClientSet::new(
        Arc::clone(&fleet),
        FLEET_CLASSES,
        FLEET_IMAGE,
        seed,
    ));
    let source = Arc::new(TimedSource::new(lazy));
    let materialize_timer = Arc::clone(&source.timer);
    let fl = FlConfig {
        num_clients: FLEET_CLIENTS,
        clients_per_round: FLEET_COHORT,
        batch_size: 2,
        local_epochs: 1,
        seed,
        ..FlConfig::tiny()
    };
    let plan = FaultPlan {
        seed,
        straggler_rate: 0.2,
        straggler_slowdown: (2.0, 8.0),
        crash_rate: 0.05,
        transport_drop_rate: 0.03,
        corrupt_rate: 0.02,
    };
    let policy = SemiSyncPolicy {
        over_provision: 1.25,
        deadline_factor: 2.0,
        norm_bound_factor: 8.0,
    };
    let (update_timer, trained_samples, factory_timer) = (
        Arc::default(),
        Arc::default(),
        Arc::new(LayerTimer::default()),
    );
    let make = {
        let (update_timer, trained_samples, factory_timer) = (
            Arc::clone(&update_timer),
            Arc::clone(&trained_samples),
            Arc::clone(&factory_timer),
        );
        Box::new(move || {
            let trainer = TimedTrainer::new(
                Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
                "bench.fl_client_update",
                Arc::clone(&update_timer),
                Arc::clone(&trained_samples),
            );
            FlSimulation::with_source(
                fl,
                Arc::clone(&source) as Arc<dyn ClientSource>,
                timed_factory(Box::new(tiny_mlp), Arc::clone(&factory_timer)),
                Box::new(trainer),
                AggregationMethod::FedAvg,
            )
            .with_cohort_strategy(CohortStrategy::DeviceStratified)
            .with_faults(FaultInjector::with_fleet(plan, Arc::clone(&fleet)), policy)
        })
    };
    Built {
        make,
        tests: fleet_tests(seed),
        update_timer,
        trained_samples,
        factory_timer,
        materialize_timer: Some(materialize_timer),
        capture_s: 0.0,
    }
}

/// Per-device test sets from a separate, smaller fleet of the same device
/// types (its own seed, so no test client is a training client).
fn fleet_tests(seed: u64) -> Vec<(String, Dataset)> {
    let seed = seed ^ 0x7e57;
    let fleet = Arc::new(FleetSpec::from_profiles(
        FLEET_TEST_CLIENTS,
        &paper_devices(),
        (2, 4),
        seed,
    ));
    let set = LazyClientSet::new(Arc::clone(&fleet), FLEET_CLASSES, FLEET_IMAGE, seed);
    fleet
        .strata()
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|range| {
            let name = set.device_name(range.start).to_string();
            let mut data = Dataset::empty();
            for id in range {
                data.extend(&set.synthesize(id));
            }
            (name, data)
        })
        .collect()
}

/// The fleet workload's model: a two-layer MLP, small enough that rounds
/// measure round mechanics rather than kernels.
fn tiny_mlp(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::new(Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Linear::new(3 * FLEET_IMAGE * FLEET_IMAGE, 16, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, FLEET_CLASSES, &mut rng)),
    ]))
}
