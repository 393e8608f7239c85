//! `reddit_closure`: the closure-time survey (paper §5.7, Alg. 4) of
//! the Reddit stand-in, Push-Only, in the resident graph's per-query
//! world.
//!
//! Set-up is a restart from a snapshot saved beforehand, outside the
//! timing. Every query's joint histogram is checked against one built
//! from the serial oracle's triangles.

use std::path::{Path, PathBuf};

use tripoll_analysis::hist::JointHistogram;
use tripoll_core::surveys::closure_times::closure_time_survey;
use tripoll_core::{
    kernel_stats_take, EngineMode, KernelStats, ResidentGraph, ResidentQuery, SurveyReport,
};
use tripoll_gen::reddit_like;
use tripoll_graph::Partition;

use crate::alloc::{self, mb};
use crate::common::{self, kernel_sum, phase_span, query, timed, Outcome, Plan};
use crate::oracle;
use crate::report::Samples;

type Graph = ResidentGraph<(), u64>;
type RankResult = (JointHistogram, SurveyReport, KernelStats);

/// One closure-time survey: each rank's histogram, report and kernel
/// counters.
fn closure_query(g: &Graph, q: &ResidentQuery) -> Vec<RankResult> {
    g.run(q, |comm, dg| {
        let _ = kernel_stats_take();
        let (hist, report) = closure_time_survey(comm, dg, EngineMode::PushOnly, |t: &u64| *t);
        (hist, report, kernel_stats_take())
    })
}

fn is_right(ranks: &[RankResult], expect: &JointHistogram) -> bool {
    ranks.iter().all(|(h, _, _)| h == expect)
}

/// A snapshot file beside the benchmark's executable (inside the build
/// directory), removed when dropped.
struct SnapshotFile(PathBuf);

impl SnapshotFile {
    fn new() -> Self {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(Path::to_path_buf))
            .unwrap_or_else(|| PathBuf::from("."));
        SnapshotFile(dir.join(format!("perfbench-{}.tplsnap", std::process::id())))
    }
}

impl Drop for SnapshotFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs the workload; `trace` selects the traced pass.
pub fn run(plan: &Plan, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let list = reddit_like(plan.preset, plan.seed);
    let (triangles, expect) = oracle::closure_histogram(list.as_slice());
    let mut samples = Samples::default();

    let snap = SnapshotFile::new();
    let (g0, build_ms) = timed(|| Graph::build(&list, |_| (), Partition::Hashed));
    samples.add("dodgr.build_ms", build_ms);
    out.notes.push(format!(
        "input: reddit_like {:?} seed {}: {} vertices, {} edges, {triangles} triangles",
        plan.preset,
        plan.seed,
        g0.num_vertices(),
        list.len()
    ));
    let saved = g0.save_snapshot(&snap.0, common::RANKS);
    out.tally.record("snapshot_save", saved.map(|()| true));
    drop(g0);
    drop(list);
    let bytes = std::fs::metadata(&snap.0).map_or(0, |m| m.len());
    samples.add("snapshot.bytes", bytes as f64);

    let q = query();
    let mut lat = Vec::with_capacity(plan.rounds);
    let mut heap = Vec::with_capacity(plan.rounds);
    for cycle in 0..plan.setups {
        let live0 = alloc::live();
        let (loaded, load_ms) = timed(|| Graph::load_snapshot(&snap.0));
        out.tally.record("setup", loaded.as_ref().map(|_| true));
        let Ok(g) = loaded else { continue };
        let built = alloc::live();
        samples.add("setup_s", load_ms / 1e3);
        samples.add("snapshot.load_ms", load_ms);
        samples.add("service.storage_mb", mb(alloc::delta(live0, built)));
        if trace {
            common::probe_service(&mut samples, &g);
        }
        let (ranks, first_ms) = timed(|| closure_query(&g, &q));
        out.tally.check("first_query", is_right(&ranks, &expect));
        samples.add("first_query_ms", first_ms);
        drop(ranks);
        samples.add(
            "service.shard_cache_mb",
            mb(alloc::delta(built, alloc::live())),
        );
        for _ in 0..common::WARMUP {
            let ranks = closure_query(&g, &q);
            out.tally.check("warmup", is_right(&ranks, &expect));
        }
        samples.add("resident_mb", mb(alloc::delta(live0, alloc::live())));

        for _ in 0..common::share(plan.rounds, plan.setups, cycle) {
            let base = alloc::reset_peak();
            let (ranks, t) = timed(|| closure_query(&g, &q));
            heap.push(mb(alloc::delta(base, alloc::peak())));
            lat.push(t);
            out.tally.check("query", is_right(&ranks, &expect));
            if trace {
                let (push_max, push_min) = phase_span(ranks.iter().map(|r| &r.1), "push");
                samples.add("push_only.push_ms", push_max);
                samples.add("push_only.push_spread_ms", push_max - push_min);
                let kernel = kernel_sum(ranks.iter().map(|r| &r.2));
                common::add_engine_comm(&mut samples, kernel, ranks.iter().map(|r| &r.1));
            }
        }
    }

    out.finish(trace, &samples, &lat, &heap);
    out
}
