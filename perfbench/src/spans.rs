//! Reading the program's spans back: an incremental drain of the
//! per-thread `hs_obs` rings, per-name duration samples, the self-time
//! table and the Chrome trace artifact.
//!
//! Rings hold a fixed number of records per thread, so a long traced pass
//! is drained while it runs. Each ring is read in write order, and a drain
//! keeps only what follows the last record the previous drain saw, so no
//! record is counted twice. Records lost to wraparound between drains are
//! reported as `obs.dropped_spans`.

use hs_obs::export::{chrome_trace, validate_chrome_trace};
use hs_obs::trace::{self, SpanRecord, ThreadTrace, TraceSnapshot};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Records gathered from every thread since [`Drain::start`].
pub struct Drain {
    last_seen: HashMap<u64, u64>,
    threads: BTreeMap<u64, Vec<SpanRecord>>,
}

impl Drain {
    /// Discards older records and turns tracing on.
    pub fn start() -> Self {
        trace::reset();
        trace::set_enabled(true);
        Drain {
            last_seen: HashMap::new(),
            threads: BTreeMap::new(),
        }
    }

    /// Copies the records written since the previous pull.
    pub fn pull(&mut self) {
        self.absorb(&trace::snapshot());
    }

    fn absorb(&mut self, snapshot: &TraceSnapshot) {
        for thread in &snapshot.threads {
            let fresh_from = self
                .last_seen
                .get(&thread.tid)
                .and_then(|id| thread.records.iter().rposition(|r| r.span_id == *id))
                .map_or(0, |i| i + 1);
            if let Some(last) = thread.records.last() {
                self.last_seen.insert(thread.tid, last.span_id);
            }
            self.threads
                .entry(thread.tid)
                .or_default()
                .extend_from_slice(&thread.records[fresh_from..]);
        }
    }

    /// Turns tracing off and returns everything gathered. A ring's
    /// records written since `start` are its overwritten plus retained
    /// ones; whatever of those no pull copied was lost.
    pub fn finish(mut self) -> Spans {
        trace::set_enabled(false);
        let snapshot = trace::snapshot();
        self.absorb(&snapshot);
        let dropped = snapshot
            .threads
            .iter()
            .map(|t| {
                let written = t.dropped + t.records.len() as u64;
                let copied = self.threads.get(&t.tid).map_or(0, Vec::len) as u64;
                written.saturating_sub(copied)
            })
            .sum();
        Spans {
            threads: self.threads,
            dropped,
        }
    }
}

/// The records of one traced pass.
pub struct Spans {
    pub threads: BTreeMap<u64, Vec<SpanRecord>>,
    /// Records lost to ring wraparound before a pull copied them.
    pub dropped: u64,
}

/// Self-time totals for one span name.
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Spans {
    pub fn records(&self) -> impl Iterator<Item = &SpanRecord> {
        self.threads.values().flatten()
    }

    /// Durations in milliseconds of every span named `name`, in record
    /// order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.records()
            .filter(|r| r.name == name && r.t_end_ns > r.t_start_ns)
            .map(|r| (r.t_end_ns - r.t_start_ns) as f64 / 1e6)
            .collect()
    }

    /// Records named `name` (spans and instants).
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.records().filter(move |r| r.name == name)
    }

    /// Per-name span time and self time: a span's duration minus the part
    /// of its interval that its child spans cover. Sorted by self time,
    /// largest first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for r in self.records() {
            if r.parent != 0 && r.t_end_ns > r.t_start_ns {
                children
                    .entry(r.parent)
                    .or_default()
                    .push((r.t_start_ns, r.t_end_ns));
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for r in self.records() {
            if r.t_end_ns <= r.t_start_ns {
                continue;
            }
            let total = r.t_end_ns - r.t_start_ns;
            let covered = children
                .get_mut(&r.span_id)
                .map_or(0, |kids| covered_ns(kids, r.t_start_ns, r.t_end_ns));
            let entry = by_name.entry(r.name).or_insert(SelfTime {
                name: r.name,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            entry.count += 1;
            entry.total_ms += total as f64 / 1e6;
            entry.self_ms += (total - covered) as f64 / 1e6;
        }
        let mut rows: Vec<SelfTime> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        rows
    }

    /// Writes the most recent `max_events` records as a Chrome trace,
    /// validated with `validate_chrome_trace` first. Returns the number of
    /// events written.
    pub fn write_chrome_trace(&self, path: &Path, max_events: usize) -> Result<usize, String> {
        let per_thread = max_events / self.threads.len().max(1);
        let snapshot = TraceSnapshot {
            threads: self
                .threads
                .iter()
                .map(|(&tid, records)| ThreadTrace {
                    tid,
                    dropped: 0,
                    records: records[records.len().saturating_sub(per_thread)..].to_vec(),
                })
                .collect(),
        };
        let json = chrome_trace(&snapshot);
        let events = validate_chrome_trace(&json)?;
        serde::json::write_file(path, &json).map_err(|e| e.to_string())?;
        Ok(events)
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_is_the_union_clipped_to_the_parent() {
        let mut kids = vec![(15, 30), (10, 20), (40, 60)];
        // [10,30) ∪ [40,50) inside [0,50)
        assert_eq!(covered_ns(&mut kids, 0, 50), 30);
        assert_eq!(covered_ns(&mut [], 0, 50), 0);
    }
}
