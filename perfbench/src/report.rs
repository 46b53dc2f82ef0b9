//! What one run measured, and how it is printed.
//!
//! `E2E` and `LAYERS` are the metric tables `BENCHMARK.json` lists. Every
//! workload reports every end-to-end metric (each defined per workload in
//! `perfbench/README.md`); a per-layer metric of a layer the workload does
//! not exercise reads 0.

use crate::spans::Spans;
use serde::json::JsonValue;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, reported with tracing off.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("eval_samples_per_s", "1/s"),
    ("cold_start_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, reported by the traced run.
pub const LAYERS: &[(&str, &str)] = &[
    ("nn.infer_b1_us", "us"),
    ("nn.infer_b8_us", "us"),
    ("nn.first_infer_ms", "ms"),
    ("nn.crossover_classes", "count"),
    ("nn.checkpoint_load_ms", "ms"),
    ("nn.fuse_ms", "ms"),
    ("nn.factory_calls", "count"),
    ("nn.factory_ms", "ms"),
    ("core.client_update_calls", "count"),
    ("core.client_update_ms_p50", "ms"),
    ("core.client_update_busy_s", "s"),
    ("data.capture_s", "s"),
    ("data.materialize_calls", "count"),
    ("data.materialize_ms_p50", "ms"),
    ("fl.client_update_ms_p50", "ms"),
    ("fl.cohort_draw_ms", "ms"),
    ("fl.fault_triage_ms", "ms"),
    ("fl.client_train_ms", "ms"),
    ("fl.screen_ms", "ms"),
    ("fl.aggregate_ms", "ms"),
    ("fl.phase_coverage", "ratio"),
    ("fl.completed_share", "ratio"),
    ("fl.eval_ms", "ms"),
    ("parallel.tasks", "count"),
    ("parallel.idle_share", "ratio"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.exec_us_p50", "us"),
    ("serve.batch_mean", "req/batch"),
    ("serve.steady_p99_ms", "ms"),
    ("serve.steady.rejected", "count"),
    ("serve.steady.expired", "count"),
    ("serve.steady.shed", "count"),
    ("serve.swap.rejected", "count"),
    ("serve.swap.expired", "count"),
    ("serve.swap.shed", "count"),
    ("serve.overload.rejected", "count"),
    ("serve.overload.expired", "count"),
    ("serve.overload.shed", "count"),
    ("serve.start_ms", "ms"),
    ("serve.first_response_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("serve.swap_ms", "ms"),
    ("serve.swap_p99_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("obs.dropped_spans", "count"),
    ("bench.generator_lag_us_p99", "us"),
];

/// One correctness check and its outcome.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload pass measured.
#[derive(Default)]
pub struct Report {
    /// End-to-end and per-layer values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// The workload's own names for its numbers (e.g. `round_ms_p90`,
    /// `goodput_rps`): `(name, value, unit)`, printed for people.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted: FL updates drawn, or requests sent.
    pub attempted: u64,
    /// Operations that failed: panics, aborts and non-finite results.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Per-phase counts and other detail for the report file.
    pub detail: Vec<(String, JsonValue)>,
    /// The traced pass's spans.
    pub spans: Option<Spans>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            E2E.iter().chain(LAYERS).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn detail(&mut self, key: impl Into<String>, value: JsonValue) {
        self.detail.push((key.into(), value));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The metrics object of the result line: every end-to-end metric
    /// (`trace == false`) or every per-layer metric (`trace == true`).
    pub fn metrics_json(&self, trace: bool) -> JsonValue {
        let table = if trace { LAYERS } else { E2E };
        let fields = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                (
                    name.to_string(),
                    JsonValue::obj(vec![
                        ("value", JsonValue::Num(value)),
                        ("unit", JsonValue::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(fields)
    }
}
