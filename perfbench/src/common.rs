//! Run settings and the helpers the three workloads share.

use std::collections::BTreeMap;
use std::time::Instant;

use tripoll_core::{KernelStats, QueryOutcome, ResidentGraph, ResidentQuery, SurveyReport};
use tripoll_gen::DatasetSize;
use tripoll_ygm::wire::Wire;
use tripoll_ygm::CommStats;

use crate::report::{Samples, Tally, PER_LAYER};
use crate::stats;

/// Simulated ranks of every query.
pub const RANKS: usize = 2;

/// Warmed queries run after each set-up's first query, before its
/// measured ones.
pub const WARMUP: usize = 1;

/// Part `i` of `total` split into `parts` near-equal whole parts.
pub fn share(total: usize, parts: usize, i: usize) -> usize {
    total * (i + 1) / parts - total * i / parts
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Generator preset of the inputs.
    pub preset: DatasetSize,
    /// Seed the inputs derive from.
    pub seed: u64,
    /// Cold set-ups per run of `web_count` and `reddit_closure`, each
    /// followed by its first query, its warm-up and its share of the
    /// measured queries, so that set-up samples spread through the run.
    pub setups: usize,
    /// Measured operations: queries, or whole streams for
    /// `stream_ingest`.
    pub rounds: usize,
}

/// What one pass of a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations per kind, with failures.
    pub tally: Tally,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets the pass's metrics from the run's samples: the median of
    /// every per-layer metric for the traced pass, the end-to-end ones
    /// for the timed pass. `lat_ms` and `heap_mb` hold one sample per
    /// measured query.
    pub fn finish(&mut self, trace: bool, samples: &Samples, lat_ms: &[f64], heap_mb: &[f64]) {
        if trace {
            for &(name, _) in PER_LAYER {
                self.set(name, samples.median(name));
            }
            self.set("trace.query_p50_ms", stats::median(lat_ms));
            return;
        }
        for name in ["setup_s", "first_query_ms", "resident_mb"] {
            self.set(name, samples.median(name));
        }
        let (p, tail) = stats::tail(lat_ms);
        self.set("query_p50_ms", stats::median(lat_ms));
        self.set("query_tail_ms", tail);
        self.set("query_heap_mb", heap_mb.iter().copied().fold(0.0, f64::max));
        let label = p.map_or("median (under 40 samples)".to_string(), |p| format!("p{p}"));
        self.notes
            .push(format!("query: {} samples, tail = {label}", lat_ms.len()));
    }
}

/// The query every workload sends: 2 ranks, the program's defaults.
pub fn query() -> ResidentQuery {
    ResidentQuery::new(RANKS)
}

/// Runs `f` and returns its result with its wall time in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// `(slowest, fastest)` rank's time in phase `name`, ms.
pub fn phase_span<'a>(reports: impl Iterator<Item = &'a SurveyReport>, name: &str) -> (f64, f64) {
    let secs: Vec<f64> = reports.map(|r| r.phase_seconds(name) * 1e3).collect();
    let max = secs.iter().copied().fold(f64::MIN, f64::max);
    let min = secs.iter().copied().fold(f64::MAX, f64::min);
    (max, min)
}

/// Records of phase `name`, summed over ranks.
pub fn phase_records<'a>(reports: impl Iterator<Item = &'a SurveyReport>, name: &str) -> u64 {
    reports
        .flat_map(|r| r.phases.iter().filter(|p| p.name == name))
        .map(|p| p.stats.records_total())
        .sum()
}

/// Kernel counters summed over the ranks of one query.
pub fn kernel_sum<'a>(kernels: impl Iterator<Item = &'a KernelStats>) -> KernelStats {
    let mut total = KernelStats::default();
    for k in kernels {
        total += *k;
    }
    total
}

/// Adds one query's push-pull phase figures: push, pull, the pull
/// barrier spread and the pulled adjacency lists.
pub fn add_push_pull(samples: &mut Samples, outcomes: &[QueryOutcome]) {
    let reports = || outcomes.iter().map(|o| &o.report);
    samples.add("push_pull.push_ms", phase_span(reports(), "push").0);
    let (pull_max, pull_min) = phase_span(reports(), "pull");
    samples.add("push_pull.pull_ms", pull_max);
    samples.add("push_pull.pull_spread_ms", pull_max - pull_min);
    samples.add(
        "push_pull.pulled_vertices",
        reports().map(|r| r.pulled_vertices).sum::<u64>() as f64,
    );
}

/// Adds one query's dry-run figures (non-zero only when it captured a
/// plan).
pub fn add_dry_run(samples: &mut Samples, outcomes: &[QueryOutcome]) {
    let reports = || outcomes.iter().map(|o| &o.report);
    samples.add("push_pull.dry_run_ms", phase_span(reports(), "dry-run").0);
    samples.add(
        "push_pull.dry_run_records",
        phase_records(reports(), "dry-run") as f64,
    );
}

/// Adds one query's kernel and communication counters, summed over
/// ranks.
pub fn add_engine_comm<'a>(
    samples: &mut Samples,
    kernel: KernelStats,
    reports: impl Iterator<Item = &'a SurveyReport>,
) {
    let comm: Vec<CommStats> = reports.map(SurveyReport::local_stats).collect();
    let comm = CommStats::sum(&comm);
    let cand = kernel.candidates.max(1) as f64;
    for (name, v) in [
        ("engine.compares", kernel.compares as f64),
        ("engine.candidates", kernel.candidates as f64),
        ("engine.matches", kernel.matches as f64),
        (
            "engine.compares_per_candidate",
            kernel.compares as f64 / cand,
        ),
        ("engine.matches_per_candidate", kernel.matches as f64 / cand),
        ("engine.gallop_runs", kernel.gallop_runs as f64),
        ("engine.blocked_runs", kernel.blocked_runs as f64),
        ("engine.scalar_runs", kernel.scalar_runs as f64),
        ("comm.bytes_remote", comm.bytes_remote as f64),
        ("comm.bytes_total", comm.bytes_total() as f64),
        ("comm.records_remote", comm.records_remote as f64),
        ("comm.envelopes_remote", comm.envelopes_remote as f64),
        ("comm.bytes_encoded", comm.bytes_encoded as f64),
        (
            "comm.bytes_decoded_in_place",
            comm.bytes_decoded_in_place as f64,
        ),
        ("comm.bytes_per_candidate", comm.bytes_remote as f64 / cand),
    ] {
        samples.add(name, v);
    }
}

/// The service probe of the traced pass, run on a graph whose shard
/// cache is cold: a first no-op query (re-shard plus world spawn) and
/// a warmed one (world spawn alone). Adds `service.reshard_ms` (their
/// difference) and `service.world_ms`.
pub fn probe_service<VM, EM>(samples: &mut Samples, g: &ResidentGraph<VM, EM>)
where
    VM: Wire + Clone + Send + Sync + 'static,
    EM: Wire + Clone + Send + Sync + 'static,
{
    let q = query();
    let (_, first) = timed(|| g.run(&q, |_, _| ()));
    let (_, warm) = timed(|| g.run(&q, |_, _| ()));
    samples.add("service.reshard_ms", first - warm);
    samples.add("service.world_ms", warm);
}

#[cfg(test)]
mod tests {
    use super::share;

    #[test]
    fn shares_are_even_and_add_up() {
        for parts in 1..20 {
            for total in [0, 1, 7, 190, 191] {
                let s: Vec<usize> = (0..parts).map(|i| share(total, parts, i)).collect();
                assert_eq!(s.iter().sum::<usize>(), total);
                assert!(s.iter().max().unwrap() - s.iter().min().unwrap() <= 1);
            }
        }
    }
}
