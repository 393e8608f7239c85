//! Metric catalogue, operation tally and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload from the timed pass.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("first_query_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("resident_mb", "MB"),
    ("query_heap_mb", "MB"),
];

/// Per-layer metrics, reported by every workload from the traced pass;
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dodgr.build_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("ingest.batch_ms", "ms"),
    ("ingest.first_batch_ms", "ms"),
    ("ingest.new_edges", "count"),
    ("service.reshard_ms", "ms"),
    ("service.world_ms", "ms"),
    ("service.storage_mb", "MB"),
    ("service.shard_cache_mb", "MB"),
    ("push_pull.dry_run_ms", "ms"),
    ("push_pull.dry_run_records", "count"),
    ("push_pull.push_ms", "ms"),
    ("push_pull.pull_ms", "ms"),
    ("push_pull.pull_spread_ms", "ms"),
    ("push_pull.pulled_vertices", "count"),
    ("push_only.push_ms", "ms"),
    ("push_only.push_spread_ms", "ms"),
    ("delta.survey_ms", "ms"),
    ("delta.triangles", "count"),
    ("engine.compares", "count"),
    ("engine.candidates", "count"),
    ("engine.matches", "count"),
    ("engine.compares_per_candidate", "ratio"),
    ("engine.matches_per_candidate", "ratio"),
    ("engine.gallop_runs", "count"),
    ("engine.blocked_runs", "count"),
    ("engine.scalar_runs", "count"),
    ("comm.bytes_remote", "B"),
    ("comm.bytes_total", "B"),
    ("comm.records_remote", "count"),
    ("comm.envelopes_remote", "count"),
    ("comm.bytes_encoded", "B"),
    ("comm.bytes_decoded_in_place", "B"),
    ("comm.bytes_per_candidate", "B"),
    ("trace.query_p50_ms", "ms"),
];

/// Samples per metric name; each metric reports the median of its
/// samples.
#[derive(Default)]
pub struct Samples {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    /// The median of `name`'s samples; 0 when it has none.
    pub fn median(&self, name: &str) -> f64 {
        crate::stats::median(self.by_name.get(name).map_or(&[], Vec::as_slice))
    }
}

/// Attempted and failed operations per kind. A wrong answer and an
/// `Err` both count as a failure; a wrong answer also clears
/// [`Tally::correct`].
#[derive(Default)]
pub struct Tally {
    kinds: Vec<(&'static str, u64, u64)>,
    wrong: u64,
}

impl Tally {
    /// Records one operation of `kind`: `Ok(true)` succeeded with a
    /// checked answer, `Ok(false)` answered wrongly, `Err` failed.
    pub fn record<E>(&mut self, kind: &'static str, outcome: Result<bool, E>) {
        let failed = !matches!(outcome, Ok(true));
        if matches!(outcome, Ok(false)) {
            self.wrong += 1;
        }
        match self.kinds.iter_mut().find(|k| k.0 == kind) {
            Some(k) => {
                k.1 += 1;
                k.2 += failed as u64;
            }
            None => self.kinds.push((kind, 1, failed as u64)),
        }
    }

    /// Records a check that is part of no timed operation (set-up
    /// answers, end-of-stream comparisons) as an operation of `kind`.
    pub fn check(&mut self, kind: &'static str, ok: bool) {
        self.record::<()>(kind, Ok(ok));
    }

    /// No answer was wrong.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// Operations attempted, all kinds.
    pub fn attempted(&self) -> u64 {
        self.kinds.iter().map(|k| k.1).sum()
    }

    /// Operations failed, all kinds.
    pub fn failed(&self) -> u64 {
        self.kinds.iter().map(|k| k.2).sum()
    }

    /// One line per kind: `ops <kind> attempted=<n> failed=<n>`.
    pub fn lines(&self) -> Vec<String> {
        self.kinds
            .iter()
            .map(|(kind, a, f)| format!("ops {kind} attempted={a} failed={f}"))
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// of `catalogue` with its value and unit, as one JSON object.
pub fn result_json(
    tally: &Tally,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted(),
        tally.failed(),
        metrics.join(", ")
    )
}
