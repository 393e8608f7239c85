//! `web_count`: warmed Push-Pull triangle counts of the
//! web-cc12-hostgraph stand-in through the resident service.
//!
//! Set-up is a cold `ResidentGraph::build`; every query counts all
//! triangles and is checked against the serial oracle, both by the
//! callback tally and by the summed kernel matches.
//!
//! The graph is the stand-in at one fixed generator seed, with its
//! vertex ids permuted by a bijection drawn from the run's seed. The
//! web generator's size swings with its seed (133k to 181k edges and
//! 266k to 414k triangles over seeds 11 to 18 at the small preset),
//! which would bury every change under the spread between seeds; a
//! relabeling keeps the work fixed while the seed still moves rank
//! ownership, hashing and degree-order tie-breaks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tripoll_core::{QueryOutcome, ResidentGraph, ResidentQuery};
use tripoll_gen::webcc12_like;
use tripoll_graph::{EdgeList, Partition};
use tripoll_ygm::hash::hash64;

use crate::alloc::{self, mb};
use crate::common::{self, kernel_sum, query, timed, Outcome, Plan};
use crate::oracle;
use crate::report::Samples;

type Graph = ResidentGraph<bool, ()>;

/// One count: the callback tally and each rank's outcome.
fn count_query(g: &Graph, q: &ResidentQuery) -> (u64, Vec<QueryOutcome>) {
    let n = Arc::new(AtomicU64::new(0));
    let tally = n.clone();
    let outcomes = g.survey(q, move |_c, _tm| {
        tally.fetch_add(1, Ordering::Relaxed);
    });
    (n.load(Ordering::Relaxed), outcomes)
}

/// Generator seed of the web graph (the repository's default bench
/// seed).
pub const GRAPH_SEED: u64 = 42;

/// A bijection of `0..n` drawn from `seed`: `perm[old] = new`.
fn relabeling(n: u64, seed: u64) -> Vec<u64> {
    let salt = hash64(seed ^ 0x5eed_1abe1);
    let mut order: Vec<u64> = (0..n).collect();
    order.sort_unstable_by_key(|&v| (hash64(v ^ salt), v));
    let mut perm = vec![0; n as usize];
    for (new, &old) in order.iter().enumerate() {
        perm[old as usize] = new as u64;
    }
    perm
}

fn is_right(count: u64, outcomes: &[QueryOutcome], expect: u64) -> bool {
    count == expect && kernel_sum(outcomes.iter().map(|o| &o.kernel)).matches == expect
}

/// Runs the workload; `trace` selects the traced pass.
pub fn run(plan: &Plan, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let web = webcc12_like(plan.preset, GRAPH_SEED);
    let vertices = web.vertices();
    let perm = relabeling(vertices, plan.seed);
    let relabeled = web
        .edges
        .iter()
        .map(|&(u, v)| (perm[u as usize], perm[v as usize], ()))
        .collect();
    let list = EdgeList::from_vec(relabeled).canonicalize();
    drop((web, perm));
    let expect = {
        let topo: Vec<(u64, u64)> = list.as_slice().iter().map(|&(u, v, _)| (u, v)).collect();
        oracle::triangle_count(&topo)
    };
    out.notes.push(format!(
        "input: webcc12_like {:?} seed {GRAPH_SEED}, ids permuted by seed {}: \
         {vertices} vertices, {} edges, {expect} triangles",
        plan.preset,
        plan.seed,
        list.len()
    ));

    let q = query();
    let mut samples = Samples::default();
    let mut lat = Vec::with_capacity(plan.rounds);
    let mut heap = Vec::with_capacity(plan.rounds);
    for cycle in 0..plan.setups {
        let live0 = alloc::live();
        let (g, build_ms) = timed(|| Graph::build(&list, |_| false, Partition::Hashed));
        let built = alloc::live();
        out.tally.check("setup", true);
        samples.add("setup_s", build_ms / 1e3);
        samples.add("dodgr.build_ms", build_ms);
        samples.add("service.storage_mb", mb(alloc::delta(live0, built)));
        if trace {
            common::probe_service(&mut samples, &g);
        }
        let ((count, outcomes), first_ms) = timed(|| count_query(&g, &q));
        out.tally
            .check("first_query", is_right(count, &outcomes, expect));
        samples.add("first_query_ms", first_ms);
        common::add_dry_run(&mut samples, &outcomes);
        drop(outcomes);
        samples.add(
            "service.shard_cache_mb",
            mb(alloc::delta(built, alloc::live())),
        );
        for _ in 0..common::WARMUP {
            let (count, outcomes) = count_query(&g, &q);
            out.tally
                .check("warmup", is_right(count, &outcomes, expect));
        }
        samples.add("resident_mb", mb(alloc::delta(live0, alloc::live())));

        for _ in 0..common::share(plan.rounds, plan.setups, cycle) {
            let base = alloc::reset_peak();
            let ((count, outcomes), t) = timed(|| count_query(&g, &q));
            heap.push(mb(alloc::delta(base, alloc::peak())));
            lat.push(t);
            out.tally.check("query", is_right(count, &outcomes, expect));
            if trace {
                common::add_push_pull(&mut samples, &outcomes);
                let kernel = kernel_sum(outcomes.iter().map(|o| &o.kernel));
                common::add_engine_comm(&mut samples, kernel, outcomes.iter().map(|o| &o.report));
            }
        }
    }

    out.finish(trace, &samples, &lat, &heap);
    out
}
