//! `stream_ingest`: the Reddit stand-in arriving in timestamp order.
//!
//! Set-up is a cold build of the first 80 % of the edges. The other
//! 20 % arrive as batches of 1 % of the edges; each batch is ingested
//! (`ingest_batch_with`), surveyed incrementally (`survey_delta`,
//! folding count and closure times into a `SurveyDelta`) and then
//! *refreshed*: the first full Push-Pull survey of the grown graph.
//! The query a streaming client waits for is ingest plus delta survey;
//! the refresh is the first full query on a cold shard cache.
//!
//! Checks: every triangle a delta reports holds one of its batch's new
//! edges; after every batch the set-up survey plus the merged deltas
//! equals the refresh (`full(G ∪ B) == full(G) + delta(G, B)`); the
//! last refresh equals the serial oracle on all edges.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use tripoll_analysis::hist::JointHistogram;
use tripoll_core::{
    QueryOutcome, ResidentGraph, ResidentQuery, SurveyDelta, SurveyDeltaSink, TriangleMeta,
    TriangleSample,
};
use tripoll_gen::reddit_like;
use tripoll_graph::{EdgeList, Partition};

use crate::alloc::{self, mb};
use crate::common::{self, kernel_sum, query, timed, Outcome, Plan};
use crate::oracle;
use crate::report::Samples;

type Graph = ResidentGraph<(), u64>;

/// Share of the edges in the base graph, in percent.
const BASE_PERCENT: usize = 80;
/// Batch size, in percent of the edges.
const BATCH_PERCENT: usize = 1;

fn sample(tm: &TriangleMeta<'_, (), u64>) -> TriangleSample {
    TriangleSample {
        p: tm.p,
        q: tm.q,
        r: tm.r,
        degree_p: 0,
        degree_q: 0,
        degree_r: 0,
        t_pq: *tm.meta_pq,
        t_pr: *tm.meta_pr,
        t_qr: *tm.meta_qr,
    }
}

/// A full Push-Pull survey folded into a `SurveyDelta`.
fn full_survey(g: &Graph, q: &ResidentQuery) -> (SurveyDelta, Vec<QueryOutcome>) {
    let sink = SurveyDeltaSink::new();
    let s = sink.clone();
    let outcomes = g.survey(q, move |_c, tm| s.record(sample(tm)));
    (sink.take(), outcomes)
}

/// What a delta survey's callback collects: the fold and the vertex
/// triples, so that each triangle can be checked afterwards.
type DeltaFold = Arc<Mutex<(SurveyDelta, Vec<[u64; 3]>)>>;

fn holds_new_edge(tri: &[u64; 3], new: &HashSet<(u64, u64)>) -> bool {
    let [p, q, r] = *tri;
    [(p, q), (p, r), (q, r)]
        .iter()
        .any(|&(a, b)| new.contains(&(a.min(b), a.max(b))))
}

/// Runs the workload; `trace` selects the traced pass.
pub fn run(plan: &Plan, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut edges = reddit_like(plan.preset, plan.seed).into_vec();
    edges.sort_unstable_by_key(|&(u, v, t)| (t, u, v));
    let (triangles, expect) = oracle::closure_histogram(&edges);
    let cut = edges.len() * BASE_PERCENT / 100;
    let batch_len = (edges.len() * BATCH_PERCENT).div_ceil(100);
    let base = EdgeList::from_vec(edges[..cut].to_vec());
    let batches: Vec<&[(u64, u64, u64)]> = edges[cut..].chunks(batch_len).collect();
    out.notes.push(format!(
        "input: reddit_like {:?} seed {} in timestamp order: {} edges, {triangles} triangles; \
         base {cut} edges, {} batches of {batch_len}",
        plan.preset,
        plan.seed,
        edges.len(),
        batches.len()
    ));

    let q = query();
    let mut samples = Samples::default();
    let mut lat = Vec::with_capacity(plan.rounds * batches.len());
    let mut heap = Vec::with_capacity(plan.rounds * batches.len());
    let build = |out: &mut Outcome, samples: &mut Samples| {
        let live0 = alloc::live();
        let (g, build_ms) = timed(|| Graph::build(&base, |_| (), Partition::Hashed));
        let built = alloc::live();
        out.tally.check("setup", true);
        samples.add("setup_s", build_ms / 1e3);
        samples.add("dodgr.build_ms", build_ms);
        samples.add("service.storage_mb", mb(alloc::delta(live0, built)));
        (g, live0, built)
    };
    for _ in 0..plan.rounds {
        // One extra cold build per stream doubles the set-up samples,
        // spread through the run like the streams themselves.
        drop(build(&mut out, &mut samples));
        let (g, live0, built) = build(&mut out, &mut samples);
        let (mut running, _) = full_survey(&g, &q);
        samples.add(
            "service.shard_cache_mb",
            mb(alloc::delta(built, alloc::live())),
        );

        let mut last = None;
        for (i, batch) in batches.iter().enumerate() {
            let base_heap = alloc::reset_peak();
            let (ingested, ingest_ms) = timed(|| g.ingest_batch_with(batch, |_| ()));
            out.tally.record("ingest", ingested.as_ref().map(|_| true));
            let Ok(d) = ingested else { break };
            if trace {
                let first = if i == 0 {
                    "ingest.first_batch_ms"
                } else {
                    "ingest.batch_ms"
                };
                samples.add(first, ingest_ms);
                samples.add("ingest.new_edges", d.new_edges().len() as f64);
                common::probe_service(&mut samples, &g);
            }

            let fold: DeltaFold = Arc::default();
            let f = fold.clone();
            let (surveyed, delta_ms) = timed(|| {
                g.survey_delta(&d, &q, move |_c, tm| {
                    let mut f = f.lock().expect("delta fold poisoned");
                    f.0.record(sample(tm));
                    f.1.push([tm.p, tm.q, tm.r]);
                })
            });
            heap.push(mb(alloc::delta(base_heap, alloc::peak())));
            lat.push(ingest_ms + delta_ms);
            let (delta, tris) = std::mem::take(&mut *fold.lock().expect("delta fold poisoned"));
            let new: HashSet<(u64, u64)> = d.new_edges().iter().copied().collect();
            let right = tris.iter().all(|t| holds_new_edge(t, &new));
            out.tally.record("delta", surveyed.as_ref().map(|_| right));
            let Ok(outcomes) = surveyed else { break };
            if trace {
                samples.add("delta.survey_ms", delta_ms);
                samples.add("delta.triangles", delta.count() as f64);
                let kernel = kernel_sum(outcomes.iter().map(|o| &o.kernel));
                common::add_engine_comm(&mut samples, kernel, outcomes.iter().map(|o| &o.report));
            }
            running.merge(&delta);

            let ((refresh, outcomes), refresh_ms) = timed(|| full_survey(&g, &q));
            samples.add("first_query_ms", refresh_ms);
            out.tally.check("refresh", refresh == running);
            if trace {
                common::add_dry_run(&mut samples, &outcomes);
                common::add_push_pull(&mut samples, &outcomes);
            }
            last = Some(refresh);
        }
        let whole = last.is_some_and(|r| {
            r.count() == triangles && JointHistogram::from_pairs(r.closure_times()) == expect
        });
        out.tally.check("oracle", whole);
        drop(running);
        samples.add("resident_mb", mb(alloc::delta(live0, alloc::live())));
    }

    out.finish(trace, &samples, &lat, &heap);
    out
}
