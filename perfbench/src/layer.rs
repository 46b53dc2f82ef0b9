//! Timers the benchmark wraps around calls into each layer, from outside
//! the program: a [`ClientTrainer`], a [`ClientSource`] and a
//! [`ModelFactory`] that delegate to the real ones. Each wrapped call also
//! opens an `hs_obs` span, so it shows in the Chrome trace and the
//! self-time table.
//!
//! Timers record only while tracing is on: the untraced pass that yields
//! the end-to-end numbers pays one relaxed load per call.

use crate::clock;
use hs_data::{Dataset, LazyClientSet};
use hs_fl::{ClientContext, ClientSource, ClientTrainer, ClientUpdate, ModelFactory};
use hs_nn::Network;
use hs_obs::trace;
use hs_parallel::sync;
use rand::rngs::StdRng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Durations of the calls into one layer, in milliseconds.
#[derive(Default)]
pub struct LayerTimer {
    samples: Mutex<Vec<f64>>,
}

impl LayerTimer {
    /// Runs `f` inside span `name`, recording its duration when tracing is
    /// on.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !trace::enabled() {
            return f();
        }
        let _span = trace::span(name);
        let start = clock::now();
        let out = f();
        let ms = clock::ms_since(start);
        sync::lock(&self.samples).push(ms);
        out
    }

    /// The recorded durations, taking them out of the timer.
    pub fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *sync::lock(&self.samples))
    }
}

/// A [`ClientTrainer`] that times each local update and counts the samples
/// trained on.
pub struct TimedTrainer {
    inner: Box<dyn ClientTrainer>,
    span: &'static str,
    timer: Arc<LayerTimer>,
    samples: Arc<AtomicU64>,
}

impl TimedTrainer {
    pub fn new(
        inner: Box<dyn ClientTrainer>,
        span: &'static str,
        timer: Arc<LayerTimer>,
        samples: Arc<AtomicU64>,
    ) -> Self {
        TimedTrainer {
            inner,
            span,
            timer,
            samples,
        }
    }
}

impl ClientTrainer for TimedTrainer {
    fn client_update(
        &self,
        net: &mut Network,
        data: &Dataset,
        ctx: &ClientContext<'_>,
        rng: &mut StdRng,
    ) -> ClientUpdate {
        self.samples.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.timer
            .time(self.span, || self.inner.client_update(net, data, ctx, rng))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`ClientSource`] over a lazy fleet that times each materialisation.
pub struct TimedSource {
    inner: Arc<LazyClientSet>,
    pub timer: Arc<LayerTimer>,
}

impl TimedSource {
    pub fn new(inner: Arc<LazyClientSet>) -> Self {
        TimedSource {
            inner,
            timer: Arc::default(),
        }
    }
}

impl ClientSource for TimedSource {
    fn num_clients(&self) -> usize {
        ClientSource::num_clients(&*self.inner)
    }

    fn num_samples(&self, client_id: usize) -> usize {
        ClientSource::num_samples(&*self.inner, client_id)
    }

    fn materialize(&self, client_id: usize) -> Dataset {
        self.timer.time("bench.materialize", || {
            ClientSource::materialize(&*self.inner, client_id)
        })
    }

    fn strata(&self) -> Vec<Range<usize>> {
        ClientSource::strata(&*self.inner)
    }
}

/// Wraps a [`ModelFactory`] so each model build is timed.
pub fn timed_factory(inner: ModelFactory, timer: Arc<LayerTimer>) -> ModelFactory {
    Box::new(move |seed| timer.time("bench.model_factory", || inner(seed)))
}

/// Shared-pool activity over an interval, from `hs_parallel::pool_stats`.
pub struct PoolWindow {
    start: hs_parallel::PoolStats,
    at: u64,
}

impl PoolWindow {
    pub fn open() -> Self {
        PoolWindow {
            start: hs_parallel::pool_stats(),
            at: clock::now(),
        }
    }

    /// `(tasks run, idle share)`: queued tasks executed since `open`, and
    /// worker idle time over workers × wall time (0 without workers).
    pub fn close(&self) -> (f64, f64) {
        let end = hs_parallel::pool_stats();
        let wall_ns = clock::now().saturating_sub(self.at) as f64;
        let tasks = end.tasks_run.saturating_sub(self.start.tasks_run) as f64;
        let idle = end.idle_ns.saturating_sub(self.start.idle_ns) as f64;
        let share = if end.workers == 0 || wall_ns == 0.0 {
            0.0
        } else {
            idle / (end.workers as f64 * wall_ns)
        };
        (tasks, share)
    }
}
