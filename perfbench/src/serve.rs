//! The `serve_open` workload: `hs-serve` with MobileNetV3-small 16 px
//! fused f32 replicas and `ServerConfig::default()`, driven by one
//! open-loop generator thread from a fixed pool of seeded samples.
//!
//! A run is [`CYCLES`] cycles, each of:
//! 1. an idle interlude: cold starts, measured in fresh child processes
//!    that each time their first `Server::start` up to the first response
//!    (see [`cold_start_child`]), then offline evaluation;
//! 2. steady traffic at a fixed [`STEADY_RPS`];
//! 3. the same rate while a new model version is published every
//!    [`PUBLISH_EVERY`];
//! 4. overload at a fixed [`OVERLOAD_RPS`], every request with a
//!    [`DEADLINE`].
//!
//! Rates are constants, never derived from a measured capacity, so every
//! commit sees the same offered load. Each request is timed from the
//! moment it was due, not from when the generator got to send it.

use crate::clock;
use crate::layer::PoolWindow;
use crate::report::Report;
use crate::spans::{Drain, Spans};
use crate::stats::{mean, median, quantile};
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::Network;
use hs_parallel::sync;
use hs_serve::{ModelRegistry, Pending, Response, ServeClient, ServeError, Server, ServerConfig};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::JsonValue;
use std::collections::HashMap;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const STEADY_RPS: f64 = 6_000.0;
const OVERLOAD_RPS: f64 = 40_000.0;
const DEADLINE: Duration = Duration::from_millis(10);
const PUBLISH_EVERY: Duration = Duration::from_millis(100);
/// The generator's shortest sleep under overload (see [`Traffic`]): well
/// inside the deadline, and a few requests per wake-up at that rate.
const OVERLOAD_QUANTUM: Duration = Duration::from_micros(250);

const MODEL: &str = "mobilenet_v3_small";
const CLASSES: usize = 12;
const IMAGE: usize = 16;
const DIMS: [usize; 3] = [3, IMAGE, IMAGE];
/// Distinct samples the generator draws from.
const POOL: usize = 64;
/// Weight sets published in turn during the swap phase.
const VARIANTS: u64 = 4;
/// Versions the registry keeps per model while versions churn.
const RETAIN: usize = 4;
/// Set-ups per untraced pass; `setup_s` is their median.
const SETUPS: usize = 5;
/// Cold-start child processes per untraced pass, spread over the cycles.
const COLD_STARTS: usize = 96;
/// Cycles the run is cut into; each runs every phase once.
const CYCLES: usize = 8;
/// Windows each phase segment is cut into; a phase's latency percentiles
/// and goodput are the medians of the per-window values, so a stall of the
/// shared machine that hits one window does not move the result.
const WINDOWS_PER_SEGMENT: usize = 2;
/// Shares of the run's seconds for the steady, swap and overload phases.
const PHASES: [(Phase, f64); 3] = [
    (Phase::Steady, 0.4),
    (Phase::Swap, 0.3),
    (Phase::Overload, 0.3),
];
/// Relative tolerance of a served logit against the direct fused infer.
const REL_TOL: f32 = 1e-4;
/// Batch size of the offline evaluation (`eval_samples_per_s`).
const EVAL_BATCH: usize = 8;
/// Share of the run's seconds for offline evaluation, spread over the
/// cycles.
const EVAL_SHARE: f64 = 0.1;

/// The served model with weights drawn from `seed`.
fn model(seed: u64) -> Network {
    build_vision_model(
        ModelKind::MobileNetV3Small,
        VisionConfig::new(3, CLASSES, IMAGE),
        &mut StdRng::seed_from_u64(seed),
    )
}

/// The unweighted replica each worker fuses and loads checkpoints into.
fn replica() -> Network {
    model(0)
}

fn sample_pool(seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a3b1e);
    (0..POOL)
        .map(|_| Tensor::rand_uniform(&DIMS, 0.0, 1.0, &mut rng))
        .collect()
}

/// A fused replica loaded with `bytes`, as a serving worker holds it.
fn fused(bytes: &[u8]) -> Network {
    let mut net = replica();
    net.fuse_inference();
    net.load_checkpoint_bytes(bytes)
        .expect("checkpoint of the served architecture loads");
    net
}

/// The first `Network::infer` of the process, on a fresh fused replica at
/// the serving batch size: it pays the one-time batched-GEMM routing
/// probe. Call before anything else in the process infers.
pub fn first_infer_ms(seed: u64) -> f64 {
    let mut net = model(seed);
    net.fuse_inference();
    let x = Tensor::stack(&sample_pool(seed)[..EVAL_BATCH]);
    let t = clock::now();
    std::hint::black_box(net.infer(&x));
    clock::ms_since(t)
}

/// One cold start, split at the return of `Server::start`.
struct ColdStart {
    start_ms: f64,
    first_response_ms: f64,
}

/// Body of a cold-start child process: the first `Server::start` of the
/// process, up to its first response. Prints one line for the parent.
pub fn cold_start_child(seed: u64) {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(MODEL, &mut model(seed));
    let sample = sample_pool(seed).swap_remove(0);
    let t0 = clock::now();
    let server = Server::start(registry, MODEL, replica, &DIMS, ServerConfig::default())
        .expect("server starts");
    let t1 = clock::now();
    let response = server.client().infer(sample, None).expect("first request");
    let t2 = clock::now();
    server.shutdown();
    assert!(response.logits.iter().all(|v| v.is_finite()));
    println!(
        "cold_start {} {}",
        (t1 - t0) as f64 / 1e6,
        (t2 - t1) as f64 / 1e6
    );
}

/// Runs `n` child processes one after another and collects what they
/// measured.
fn cold_starts(seed: u64, n: usize) -> Result<Vec<ColdStart>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--cold-start-child", "--seed", &seed.to_string()])
                .output()
                .map_err(|e| format!("cold-start child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().find_map(|l| l.strip_prefix("cold_start "));
            match (out.status.success(), line) {
                (true, Some(line)) => {
                    let v: Vec<f64> = line.split(' ').filter_map(|t| t.parse().ok()).collect();
                    match v[..] {
                        [start_ms, first_response_ms] => Ok(ColdStart {
                            start_ms,
                            first_response_ms,
                        }),
                        _ => Err(format!("cold-start child printed {line:?}")),
                    }
                }
                _ => Err(format!(
                    "cold-start child failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )),
            }
        })
        .collect()
}

/// How one request ended.
enum Outcome {
    /// Served: the server's submit-to-completion latency and the model
    /// version that answered.
    Ok {
        latency: Duration,
        version: u64,
    },
    Rejected,
    Expired,
    Shed,
    Aborted,
}

impl From<ServeError> for Outcome {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Backpressure { .. } => Outcome::Rejected,
            ServeError::DeadlineExceeded { .. } => Outcome::Expired,
            ServeError::Shed { .. } => Outcome::Shed,
            _ => Outcome::Aborted,
        }
    }
}

/// Checks each served row, as it arrives, against a direct fused
/// `Network::infer` of the same sample on the same model version.
struct Checker<'a> {
    /// Direct-infer logits by weight variant, then sample.
    reference: Vec<Vec<Vec<f32>>>,
    /// Registry version → weight variant, filled in as versions publish.
    versions: &'a Mutex<HashMap<u64, usize>>,
    tally: Mutex<Tally>,
}

#[derive(Default)]
struct Tally {
    checked: u64,
    mismatched: u64,
    non_finite: u64,
    first_bad: String,
    /// Rows whose version was served before its publisher recorded it;
    /// checked at the end.
    unmapped: Vec<(u64, usize, Vec<f32>)>,
}

impl<'a> Checker<'a> {
    fn new(
        checkpoints: &[Vec<u8>],
        samples: &[Tensor],
        versions: &'a Mutex<HashMap<u64, usize>>,
    ) -> Self {
        let reference = checkpoints
            .iter()
            .map(|bytes| {
                let mut net = fused(bytes);
                samples
                    .iter()
                    .map(|x| {
                        net.infer(&x.reshape(&[1, 3, IMAGE, IMAGE]))
                            .as_slice()
                            .to_vec()
                    })
                    .collect()
            })
            .collect();
        Checker {
            reference,
            versions,
            tally: Mutex::default(),
        }
    }

    fn check(&self, logits: &[f32], version: u64, sample: usize) {
        let variant = sync::lock(self.versions).get(&version).copied();
        let mut t = sync::lock(&self.tally);
        t.checked += 1;
        if logits.iter().any(|v| !v.is_finite()) {
            t.non_finite += 1;
        }
        match variant {
            Some(k) => t.compare(logits, &self.reference[k][sample], version, sample),
            None => t.unmapped.push((version, sample, logits.to_vec())),
        }
    }

    /// Settles the rows checked late and reports the check.
    fn finish(self, report: &mut Report) {
        let versions = sync::lock(self.versions).clone();
        let mut t = sync::into_inner(self.tally);
        for (version, sample, logits) in std::mem::take(&mut t.unmapped) {
            match versions.get(&version) {
                Some(&k) => t.compare(&logits, &self.reference[k][sample], version, sample),
                None => t.mismatch(format!("version {version} was never published")),
            }
        }
        report.failed += t.non_finite;
        report.check(
            "served_logits_match_direct_infer",
            t.checked > 0 && t.mismatched == 0,
            format!(
                "{} of {} responses differ beyond {REL_TOL} relative{}",
                t.mismatched, t.checked, t.first_bad
            ),
        );
    }
}

impl Tally {
    fn compare(&mut self, got: &[f32], expected: &[f32], version: u64, sample: usize) {
        if !close(got, expected) {
            self.mismatch(format!(
                "version {version} sample {sample} got {got:?} expected {expected:?}"
            ));
        }
    }

    fn mismatch(&mut self, what: String) {
        self.mismatched += 1;
        if self.first_bad.is_empty() {
            self.first_bad = format!("; first: {what}");
        }
    }
}

/// One open-loop request; times are `clock` nanoseconds.
struct Shot {
    due: u64,
    sent: u64,
    outcome: Outcome,
}

impl Shot {
    /// Due time to response, in ms; a request without a response misses
    /// every limit and ranks as infinite.
    fn latency_ms(&self) -> f64 {
        match &self.outcome {
            Outcome::Ok { latency, .. } => {
                self.sent.saturating_sub(self.due) as f64 / 1e6 + latency.as_secs_f64() * 1e3
            }
            _ => f64::INFINITY,
        }
    }

    /// When the response was ready (the server's submit-to-completion
    /// latency added to the send time).
    fn done(&self) -> Option<(u64, u64)> {
        match &self.outcome {
            Outcome::Ok { latency, version } => {
                Some((self.sent + latency.as_nanos() as u64, *version))
            }
            _ => None,
        }
    }

    fn lag_us(&self) -> f64 {
        self.sent.saturating_sub(self.due) as f64 / 1e3
    }
}

/// One phase's traffic: a fixed rate, for a time, with or without a
/// per-request deadline.
struct Traffic {
    rate: f64,
    duration: Duration,
    deadline: Option<Duration>,
    /// Shortest sleep of the generator. Above zero, a schedule faster than
    /// the machine's sleep resolution goes out in bursts, one wake-up per
    /// quantum instead of per request, so the generator takes less CPU
    /// from the server it drives; the lateness this adds counts in every
    /// request's latency from its due time.
    quantum: Duration,
}

/// How often the collector polls for finished requests. Server-side
/// latencies do not depend on when the collector looks, and polling
/// wakes the collector far less often than one blocking wait per request.
const COLLECT_EVERY: Duration = Duration::from_millis(1);

/// Sends `traffic` on an absolute schedule. Request `i` is due at
/// `start + i / rate`; the generator sleeps until the next request is due
/// and sends every request already due, so a stall delays requests without
/// thinning the load. A collector thread redeems the responses and checks
/// each served row.
fn open_loop(
    client: &ServeClient,
    samples: &[Tensor],
    checker: &Checker<'_>,
    traffic: &Traffic,
    rng: &mut StdRng,
) -> Vec<Shot> {
    let n = (traffic.rate * traffic.duration.as_secs_f64()).round() as usize;
    let mut shots: Vec<Shot> = Vec::with_capacity(n);
    let (tx, rx) = mpsc::channel::<(usize, usize, Pending)>();
    let quantum = traffic.quantum.as_nanos() as u64;
    let start = clock::now();
    let answers = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut answers = Vec::with_capacity(n);
            let mut waiting: Vec<(usize, usize, Pending)> = Vec::new();
            let mut sending = true;
            while sending || !waiting.is_empty() {
                std::thread::sleep(COLLECT_EVERY);
                loop {
                    match rx.try_recv() {
                        Ok(sent) => waiting.push(sent),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            sending = false;
                            break;
                        }
                    }
                }
                let mut in_flight = Vec::with_capacity(waiting.len());
                for (i, sample, pending) in waiting.drain(..) {
                    match pending.try_wait() {
                        Ok(result) => answers.push((i, checked(result, sample, checker))),
                        Err(pending) => in_flight.push((i, sample, pending)),
                    }
                }
                waiting = in_flight;
            }
            answers
        });
        for i in 0..n {
            let due = start + (i as f64 * 1e9 / traffic.rate) as u64;
            let now = clock::now();
            if due > now {
                clock::sleep_until(due.max(now + quantum));
            }
            let sample = rng.gen_range(0..samples.len());
            let sent = clock::now();
            let budget = traffic
                .deadline
                .map(|d| Duration::from_nanos((due + d.as_nanos() as u64).saturating_sub(sent)));
            let submitted = {
                let _span = hs_obs::trace::span("bench.submit");
                client.submit(samples[sample].clone(), budget)
            };
            let outcome = match submitted {
                Ok(pending) => {
                    tx.send((i, sample, pending)).expect("collector is running");
                    Outcome::Aborted
                }
                Err(e) => Outcome::from(e),
            };
            shots.push(Shot { due, sent, outcome });
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    for (i, outcome) in answers {
        shots[i].outcome = outcome;
    }
    shots
}

/// Classifies a finished request, checking a served row on the way.
fn checked(result: Result<Response, ServeError>, sample: usize, checker: &Checker<'_>) -> Outcome {
    match result {
        Ok(r) => {
            checker.check(&r.logits, r.model_version, sample);
            Outcome::Ok {
                latency: r.latency,
                version: r.model_version,
            }
        }
        Err(e) => Outcome::from(e),
    }
}

/// Counts per outcome of one phase.
#[derive(Default)]
struct Counts {
    attempted: u64,
    ok: u64,
    rejected: u64,
    expired: u64,
    shed: u64,
    aborted: u64,
}

fn counts(shots: &[&Shot]) -> Counts {
    let mut c = Counts {
        attempted: shots.len() as u64,
        ..Counts::default()
    };
    for s in shots {
        match s.outcome {
            Outcome::Ok { .. } => c.ok += 1,
            Outcome::Rejected => c.rejected += 1,
            Outcome::Expired => c.expired += 1,
            Outcome::Shed => c.shed += 1,
            Outcome::Aborted => c.aborted += 1,
        }
    }
    c
}

/// A publish during the swap phase.
struct Publish {
    version: u64,
    at: u64,
    ms: f64,
}

/// The three traffic phases.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Steady,
    Swap,
    Overload,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Steady => "steady",
            Phase::Swap => "swap",
            Phase::Overload => "overload",
        }
    }
}

/// One stretch of one phase.
struct Segment {
    phase: Phase,
    begin: u64,
    end: u64,
    shots: Vec<Shot>,
}

/// The result of one pass.
pub struct Pass {
    pub report: Report,
    /// Steady-phase median latency, the primary metric for
    /// `obs.trace_overhead`.
    pub primary_ms: f64,
}

/// Runs the pass: [`CYCLES`] cycles of an idle interlude (cold-start
/// children and offline evaluation, untraced pass only) followed by a
/// segment of each traffic phase, then checks every response. Spreading
/// each phase over the run keeps a slow drift of the shared machine from
/// landing on one phase.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let mut report = Report::default();
    let samples = sample_pool(seed);
    // variant 0 is the model served from the start; the others are
    // published in turn during the swap phase
    let mut variants: Vec<Network> = (0..=VARIANTS)
        .map(|k| model(seed.wrapping_add(k)))
        .collect();
    let checkpoints: Vec<Vec<u8>> = variants
        .iter_mut()
        .map(|n| n.to_checkpoint_bytes())
        .collect();

    // set-up: build and publish the served model, start the server and
    // warm it with bursts that fill every batch size
    let setups = if traced { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..setups {
        if let Some((server, _)) = served.take() {
            Server::shutdown(server);
        }
        let start = clock::now();
        let registry = Arc::new(ModelRegistry::with_retention(RETAIN));
        registry.publish(MODEL, &mut model(seed));
        let server = Server::start(
            Arc::clone(&registry),
            MODEL,
            replica,
            &DIMS,
            ServerConfig::default(),
        )
        .expect("server starts");
        warm_up(&server.client(), &samples);
        setup_s.push(clock::secs_since(start));
        served = Some((server, registry));
    }
    let (server, registry) = served.expect("at least one set-up");
    report.set("setup_s", median(&setup_s));
    let client = server.client();
    let versions: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::new());
    sync::lock(&versions).insert(registry.latest_version(MODEL).expect("published"), 0);

    let checker = Checker::new(&checkpoints, &samples, &versions);
    let mut eval = Offline::new(&checkpoints[0], &samples);
    let mut cold = Vec::new();
    let stop_drain = AtomicBool::new(false);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10ad);
    let segment_len = |share: f64| Duration::from_secs_f64(seconds * share / CYCLES as f64);
    let pool = PoolWindow::open();
    let mut publishes: Vec<Publish> = Vec::new();
    let drain = traced.then(Drain::start);
    let (segments, spans) = std::thread::scope(|s| -> Result<_, String> {
        let drainer = drain.map(|mut drain| {
            let stop = &stop_drain;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(50));
                    drain.pull();
                }
                drain.finish()
            })
        });

        let mut segments = Vec::new();
        for _ in 0..CYCLES {
            if !traced {
                cold.extend(cold_starts(seed, COLD_STARTS / CYCLES)?);
                eval.measure(seconds * EVAL_SHARE / CYCLES as f64);
            }
            for (phase, share) in PHASES {
                let begin = clock::now();
                let steady = Traffic {
                    rate: STEADY_RPS,
                    duration: segment_len(share),
                    deadline: None,
                    quantum: Duration::ZERO,
                };
                let shots = match phase {
                    Phase::Steady => open_loop(&client, &samples, &checker, &steady, &mut rng),
                    Phase::Swap => {
                        let stop = AtomicBool::new(false);
                        std::thread::scope(|s| {
                            let publisher = s
                                .spawn(|| publish_loop(&registry, &mut variants, &stop, &versions));
                            let shots = open_loop(&client, &samples, &checker, &steady, &mut rng);
                            stop.store(true, Ordering::Relaxed);
                            publishes.extend(publisher.join().expect("publisher thread panicked"));
                            shots
                        })
                    }
                    Phase::Overload => {
                        let overload = Traffic {
                            rate: OVERLOAD_RPS,
                            duration: segment_len(share),
                            deadline: Some(DEADLINE),
                            quantum: OVERLOAD_QUANTUM,
                        };
                        open_loop(&client, &samples, &checker, &overload, &mut rng)
                    }
                };
                segments.push(Segment {
                    phase,
                    begin,
                    end: clock::now(),
                    shots,
                });
            }
        }
        stop_drain.store(true, Ordering::Relaxed);
        let spans = drainer.map(|d| d.join().expect("drain thread panicked"));
        Ok((segments, spans))
    })?;
    let (tasks, idle_share) = pool.close();
    server.shutdown();

    checker.finish(&mut report);

    // per-phase numbers: percentiles and goodput are medians over windows
    // of the phase's segments
    let mut phase_counts = Vec::new();
    let mut steady_p50 = 0.0;
    for phase in [Phase::Steady, Phase::Swap, Phase::Overload] {
        let segs: Vec<&Segment> = segments.iter().filter(|s| s.phase == phase).collect();
        let shots: Vec<&Shot> = segs.iter().flat_map(|s| &s.shots).collect();
        let c = counts(&shots);
        report.attempted += c.attempted;
        report.failed += c.aborted;
        let lags: Vec<f64> = shots.iter().map(|s| s.lag_us()).collect();
        let windows: Vec<Vec<f64>> = segs
            .iter()
            .flat_map(|s| {
                let lat: Vec<f64> = s.shots.iter().map(Shot::latency_ms).collect();
                let per = lat.len().div_ceil(WINDOWS_PER_SEGMENT).max(1);
                lat.chunks(per).map(<[f64]>::to_vec).collect::<Vec<_>>()
            })
            .collect();
        let windowed =
            |f: &dyn Fn(&[f64]) -> f64| median(&windows.iter().map(|w| f(w)).collect::<Vec<_>>());
        match phase {
            Phase::Steady => {
                steady_p50 = windowed(&|w| quantile(w, 0.5));
                let p90 = windowed(&|w| quantile(w, 0.9));
                let p99 = windowed(&|w| quantile(w, 0.99));
                report.set("p50_ms", steady_p50);
                report.set("tail_ms", p90);
                report.set("serve.steady_p99_ms", p99);
                report.named("p50_ms", steady_p50, "ms");
                report.named("p90_ms", p90, "ms");
                report.named("p99_ms", p99, "ms");
                // the lag that the steady latencies include
                report.set("bench.generator_lag_us_p99", quantile(&lags, 0.99));
                report.named("generator_lag_us_p99", quantile(&lags, 0.99), "us");
                report.set("serve.steady.rejected", c.rejected as f64);
                report.set("serve.steady.expired", c.expired as f64);
                report.set("serve.steady.shed", c.shed as f64);
            }
            Phase::Swap => {
                report.set("serve.swap_p99_ms", windowed(&|w| quantile(w, 0.99)));
                report.set("serve.swap.rejected", c.rejected as f64);
                report.set("serve.swap.expired", c.expired as f64);
                report.set("serve.swap.shed", c.shed as f64);
                let swap_ms = swap_latencies(&publishes, &shots);
                let publish_ms: Vec<f64> = publishes.iter().map(|p| p.ms).collect();
                report.set("serve.swap_ms", median(&swap_ms));
                report.set("serve.publish_ms", median(&publish_ms));
                report.named("swap_ms", median(&swap_ms), "ms");
                report.named("publishes", publishes.len() as f64, "count");
            }
            Phase::Overload => {
                // a window of n requests spans n / rate seconds of schedule
                let limit_ms = DEADLINE.as_secs_f64() * 1e3;
                let goodput = windowed(&|w| {
                    w.iter().filter(|&&l| l <= limit_ms).count() as f64 * OVERLOAD_RPS
                        / w.len() as f64
                });
                report.set("throughput_per_s", goodput);
                report.named("goodput_rps", goodput, "1/s");
                report.set("serve.overload.rejected", c.rejected as f64);
                report.set("serve.overload.expired", c.expired as f64);
                report.set("serve.overload.shed", c.shed as f64);
            }
        }
        phase_counts.push((
            phase.name().to_string(),
            JsonValue::obj(vec![
                ("attempted", JsonValue::Num(c.attempted as f64)),
                ("ok", JsonValue::Num(c.ok as f64)),
                ("rejected", JsonValue::Num(c.rejected as f64)),
                ("expired", JsonValue::Num(c.expired as f64)),
                ("shed", JsonValue::Num(c.shed as f64)),
                ("aborted", JsonValue::Num(c.aborted as f64)),
                (
                    "generator_lag_us_p99",
                    JsonValue::Num(quantile(&lags, 0.99)),
                ),
            ]),
        ));
    }
    report.detail("phases", JsonValue::Obj(phase_counts));
    report.set("parallel.tasks", tasks);
    report.set("parallel.idle_share", idle_share);

    if !traced {
        eval.report(&mut report);
        let total: Vec<f64> = cold
            .iter()
            .map(|c| c.start_ms + c.first_response_ms)
            .collect();
        let start: Vec<f64> = cold.iter().map(|c| c.start_ms).collect();
        let first: Vec<f64> = cold.iter().map(|c| c.first_response_ms).collect();
        // the routing probe makes cold starts bimodal; a median flips
        // between the modes from run to run, the mean does not
        let mean = mean(&total);
        report.set("cold_start_ms", mean);
        report.named("cold_start_ms_mean", mean, "ms");
        report.named("cold_start_ms_p50", median(&total), "ms");
        report.named("cold_start_ms_p90", quantile(&total, 0.9), "ms");
        report.set("serve.start_ms", median(&start));
        report.set("serve.first_response_ms", median(&first));
        report.detail(
            "cold_start_ms",
            JsonValue::Arr(total.into_iter().map(JsonValue::Num).collect()),
        );
    }
    if let Some(spans) = &spans {
        let phase_windows = |p: Phase| -> Vec<(u64, u64)> {
            segments
                .iter()
                .filter(|s| s.phase == p)
                .map(|s| (s.begin, s.end))
                .collect()
        };
        span_metrics(
            &mut report,
            spans,
            &phase_windows(Phase::Steady),
            &phase_windows(Phase::Overload),
        );
    }
    report.spans = spans;
    Ok(Pass {
        report,
        primary_ms: steady_p50,
    })
}

/// Fills the queue with bursts so the first timed requests meet warm
/// workers at every batch size.
fn warm_up(client: &ServeClient, samples: &[Tensor]) {
    for _ in 0..4 {
        let pending: Vec<Pending> = samples
            .iter()
            .filter_map(|x| client.submit(x.clone(), None).ok())
            .collect();
        for p in pending {
            p.wait().expect("warm-up request");
        }
    }
}

/// Publishes variants 1.. in turn every [`PUBLISH_EVERY`] until stopped.
fn publish_loop(
    registry: &ModelRegistry,
    variants: &mut [Network],
    stop: &AtomicBool,
    versions: &Mutex<HashMap<u64, usize>>,
) -> Vec<Publish> {
    let mut out = Vec::new();
    let start = clock::now();
    while !stop.load(Ordering::Relaxed) {
        clock::sleep_until(start + PUBLISH_EVERY.as_nanos() as u64 * (out.len() as u64 + 1));
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let variant = 1 + out.len() % (variants.len() - 1);
        let at = clock::now();
        let version = {
            let _span = hs_obs::trace::span("bench.publish");
            registry.publish(MODEL, &mut variants[variant])
        };
        let ms = clock::ms_since(at);
        sync::lock(versions).insert(version, variant);
        out.push(Publish { version, at, ms });
    }
    out
}

/// For each publish, the time until the first response carrying its
/// version; publishes no response carried are left out.
fn swap_latencies(publishes: &[Publish], shots: &[&Shot]) -> Vec<f64> {
    let mut first: HashMap<u64, u64> = HashMap::new();
    for (done, version) in shots.iter().filter_map(|s| s.done()) {
        first
            .entry(version)
            .and_modify(|t| *t = (*t).min(done))
            .or_insert(done);
    }
    publishes
        .iter()
        .filter_map(|p| {
            first
                .get(&p.version)
                .map(|t| t.saturating_sub(p.at) as f64 / 1e6)
        })
        .collect()
}

fn close(got: &[f32], expected: &[f32]) -> bool {
    let scale = expected.iter().fold(1e-3f32, |m, v| m.max(v.abs()));
    got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(g, e)| (g - e).abs() <= REL_TOL * scale)
}

/// Offline classification on a fused replica: `eval_samples_per_s` at
/// batch [`EVAL_BATCH`], plus the direct `Network::infer`, fuse and
/// checkpoint-load timings.
struct Offline<'a> {
    net: Network,
    checkpoint: &'a [u8],
    batches: Vec<Tensor>,
    singles: Vec<Tensor>,
    pass_rate: Vec<f64>,
    b8_us: Vec<f64>,
    b1_us: Vec<f64>,
}

impl<'a> Offline<'a> {
    fn new(checkpoint: &'a [u8], samples: &[Tensor]) -> Self {
        Offline {
            net: fused(checkpoint),
            checkpoint,
            batches: samples.chunks(EVAL_BATCH).map(Tensor::stack).collect(),
            singles: samples
                .iter()
                .map(|x| x.reshape(&[1, 3, IMAGE, IMAGE]))
                .collect(),
            pass_rate: Vec::new(),
            b8_us: Vec::new(),
            b1_us: Vec::new(),
        }
    }

    /// Classifies the sample pool in batches, again and again for
    /// `seconds`.
    fn measure(&mut self, seconds: f64) {
        let start = clock::now();
        while clock::secs_since(start) < seconds {
            let pass = clock::now();
            let mut n = 0;
            for b in &self.batches {
                let t = clock::now();
                n += std::hint::black_box(self.net.infer(b)).dims()[0];
                self.b8_us.push(clock::ms_since(t) * 1e3);
            }
            self.pass_rate.push(n as f64 / clock::secs_since(pass));
            for x in self.singles.iter().take(EVAL_BATCH) {
                let t = clock::now();
                std::hint::black_box(self.net.infer(x));
                self.b1_us.push(clock::ms_since(t) * 1e3);
            }
        }
    }

    fn report(&self, report: &mut Report) {
        report.set("eval_samples_per_s", median(&self.pass_rate));
        report.set("nn.infer_b8_us", median(&self.b8_us));
        report.set("nn.infer_b1_us", median(&self.b1_us));
        let (mut fuse_ms, mut load_ms) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            let mut fresh = replica();
            let t = clock::now();
            fresh.fuse_inference();
            fuse_ms.push(clock::ms_since(t));
            let t = clock::now();
            fresh
                .load_checkpoint_bytes(self.checkpoint)
                .expect("checkpoint loads");
            load_ms.push(clock::ms_since(t));
        }
        report.set("nn.fuse_ms", median(&fuse_ms));
        report.set("nn.checkpoint_load_ms", median(&load_ms));
    }
}

/// Per-layer numbers from the spans the server emits, each over the
/// phase whose end-to-end metric it explains.
fn span_metrics(
    report: &mut Report,
    spans: &Spans,
    steady: &[(u64, u64)],
    overload: &[(u64, u64)],
) {
    let within = |name: &'static str, windows: &[(u64, u64)]| -> Vec<hs_obs::SpanRecord> {
        spans
            .named(name)
            .filter(|r| {
                windows
                    .iter()
                    .any(|&(a, b)| r.t_start_ns >= a && r.t_start_ns < b)
            })
            .copied()
            .collect()
    };
    let us = |r: &hs_obs::SpanRecord| (r.t_end_ns - r.t_start_ns) as f64 / 1e3;
    let queue: Vec<f64> = within("queue_wait", steady).iter().map(us).collect();
    report.set("serve.queue_wait_p50_us", quantile(&queue, 0.5));
    report.set("serve.queue_wait_p99_us", quantile(&queue, 0.99));
    let batches = within("batch_execute", overload);
    let exec: Vec<f64> = batches.iter().map(us).collect();
    report.set("serve.exec_us_p50", quantile(&exec, 0.5));
    report.set(
        "serve.batch_mean",
        batches.iter().map(|r| r.payload as f64).sum::<f64>() / batches.len().max(1) as f64,
    );
    report.set("obs.dropped_spans", spans.dropped as f64);
}
