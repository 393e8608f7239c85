//! Answers computed apart from the program under test: the serial
//! reference enumerator of `tripoll-analysis` over a plain CSR, with
//! timestamps looked up in the input edge list.

use std::collections::HashMap;

use tripoll_analysis::hist::{ceil_log2, JointHistogram};
use tripoll_analysis::reference;
use tripoll_graph::Csr;

/// The triangle count of an undirected edge set.
pub fn triangle_count(edges: &[(u64, u64)]) -> u64 {
    reference::triangle_count(&Csr::from_edges(edges))
}

/// The triangle count and the closure-time histogram of a timestamped
/// edge set (paper Alg. 4): for each triangle with sorted edge times
/// `t1 <= t2 <= t3`, one count at `(ceil_log2(t2 - t1),
/// ceil_log2(t3 - t1))`. A repeated edge keeps its first timestamp.
pub fn closure_histogram(edges: &[(u64, u64, u64)]) -> (u64, JointHistogram) {
    let mut time: HashMap<(u64, u64), u64> = HashMap::with_capacity(edges.len());
    for &(u, v, t) in edges {
        time.entry((u.min(v), u.max(v))).or_insert(t);
    }
    let topo: Vec<(u64, u64)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
    let csr = Csr::from_edges(&topo);
    let t = |a: u64, b: u64| time[&(a.min(b), a.max(b))];
    let mut hist = JointHistogram::new();
    let mut count = 0;
    reference::enumerate_triangles(&csr, |p, q, r| {
        let mut ts = [t(p, q), t(p, r), t(q, r)];
        ts.sort_unstable();
        hist.add(ceil_log2(ts[1] - ts[0]), ceil_log2(ts[2] - ts[0]), 1);
        count += 1;
    });
    (count, hist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_triangle_lands_in_its_bucket() {
        // Times 100, 104, 164: open 4 -> bucket 2, close 64 -> bucket 6.
        let (count, hist) = closure_histogram(&[(0, 1, 100), (2, 1, 104), (2, 0, 164)]);
        assert_eq!(count, 1);
        assert_eq!(hist, JointHistogram::from_pairs([((2, 6), 1)]));
    }

    #[test]
    fn four_clique_buckets_every_triangle() {
        // K4 on {0,1,2,3}, edge (a,b) at time 10^a + 10^b; a pendant
        // edge and a repeated edge change nothing.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in a + 1..4 {
                edges.push((a as u64, b as u64, 10u64.pow(a) + 10u64.pow(b)));
            }
        }
        edges.push((3, 9, 1));
        edges.push((1, 0, 999_999));
        let (count, hist) = closure_histogram(&edges);
        assert_eq!(count, 4);
        assert_eq!(hist.total(), 4);
        let mut expect = JointHistogram::new();
        for [a, b, c] in [[0u32, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]] {
            let t = |x: u32, y: u32| 10u64.pow(x) + 10u64.pow(y);
            let mut ts = [t(a, b), t(a, c), t(b, c)];
            ts.sort_unstable();
            expect.add(ceil_log2(ts[1] - ts[0]), ceil_log2(ts[2] - ts[0]), 1);
        }
        assert_eq!(hist, expect);
        let topo: Vec<_> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(triangle_count(&topo), 4);
    }
}
