//! Frozen copy of the max-concurrent-flow kernel as it stood *before* the
//! CSR / reusable-workspace / early-exit refactor: nested `Vec<Vec<..>>`
//! adjacency, fresh `dist`/`parent`/heap allocations on every Dijkstra call,
//! a cloned `remaining` vector per source per phase, no destination-aware
//! SSSP pruning, and a sequential dual-bound sweep.
//!
//! This exists **only** as the reference `solver_regression` compares the
//! current kernel against (within the FPTAS gap, [`crate::assert_same_quality`]);
//! no library code uses it (the workspace's single production Dijkstra is
//! `tb_graph::sssp_csr`). Treat it as a test oracle, not an implementation to
//! extend.

use tb_flow::{FlowProblem, ThroughputBounds};
use tb_graph::Graph;
use tb_traffic::TrafficMatrix;

/// Pre-refactor per-call Dijkstra: allocates `dist`, `parent` and the heap
/// on every invocation and always settles the whole component.
fn shortest_path_tree(
    n: usize,
    out_arcs: &[Vec<(usize, usize)>],
    src: usize,
    arc_len: &[f64],
) -> (Vec<f64>, Vec<Option<(usize, usize)>>) {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry {
        dist: f64,
        node: usize,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .dist
                .partial_cmp(&self.dist)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[src] = 0.0;
    heap.push(Entry {
        dist: 0.0,
        node: src,
    });
    while let Some(Entry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, aid) in &out_arcs[u] {
            let nd = d + arc_len[aid];
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = Some((u, aid));
                heap.push(Entry { dist: nd, node: v });
            }
        }
    }
    (dist, parent)
}

/// Pre-refactor solver loop (identical math; allocation-heavy layout).
pub fn solve(
    cfg: &tb_flow::FleischerConfig,
    graph: &Graph,
    tm: &TrafficMatrix,
) -> ThroughputBounds {
    let prob = FlowProblem::new(graph, tm);
    let n = prob.num_nodes();
    let m = prob.num_arcs();
    let eps = cfg.epsilon;
    if m == 0 {
        return ThroughputBounds::exact(0.0);
    }
    // Nested adjacency, as the seed stored it.
    let mut out_arcs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (aid, a) in prob.arcs().iter().enumerate() {
        out_arcs[a.from].push((a.to, aid));
    }

    // Reachability check (the seed ran this as a separate BFS sweep).
    for s in prob.sources() {
        let dist = tb_graph::bfs_distances(graph, s.src);
        if s.dests
            .iter()
            .any(|&(dst, _)| dist[dst] == tb_graph::shortest_path::UNREACHABLE)
        {
            return ThroughputBounds::exact(0.0);
        }
    }

    let scale = prob.volumetric_estimate(graph).max(1e-12);
    let demands: Vec<Vec<f64>> = prob
        .sources()
        .iter()
        .map(|s| s.dests.iter().map(|&(_, d)| d * scale).collect())
        .collect();

    let caps: Vec<f64> = prob.arcs().iter().map(|a| a.cap).collect();
    let delta = (m as f64 / (1.0 - eps)).powf(-1.0 / eps);
    let mut len: Vec<f64> = caps.iter().map(|&c| delta / c).collect();
    let mut d_l: f64 = len.iter().zip(&caps).map(|(l, c)| l * c).sum();

    let mut flow_arc = vec![0.0f64; m];
    let mut routed: Vec<Vec<f64>> = demands.iter().map(|d| vec![0.0; d.len()]).collect();
    let mut best_lower = 0.0f64;
    let mut best_upper = f64::INFINITY;
    let mut avail = caps.clone();
    let mut used = vec![0.0f64; m];
    let mut touched: Vec<usize> = Vec::with_capacity(m);

    let evaluate = |routed: &[Vec<f64>], flow_arc: &[f64], len: &[f64], d_l: f64| {
        let mut mu = f64::INFINITY;
        for (f, c) in flow_arc.iter().zip(&caps) {
            if *f > 1e-15 {
                mu = mu.min(c / f);
            }
        }
        let lower = if mu.is_finite() {
            let mut worst = f64::INFINITY;
            for (r, d) in routed.iter().zip(&demands) {
                for (rj, dj) in r.iter().zip(d) {
                    worst = worst.min(rj / dj);
                }
            }
            if worst.is_finite() {
                worst * mu
            } else {
                0.0
            }
        } else {
            0.0
        };
        let mut alpha = 0.0;
        for (si, s) in prob.sources().iter().enumerate() {
            let (dist, _) = shortest_path_tree(n, &out_arcs, s.src, len);
            for (j, &(dst, _)) in s.dests.iter().enumerate() {
                alpha += demands[si][j] * dist[dst];
            }
        }
        let upper = if alpha > 0.0 {
            d_l / alpha
        } else {
            f64::INFINITY
        };
        (lower, upper)
    };

    let mut phase = 0usize;
    'phases: while phase < cfg.max_phases && d_l < 1.0 {
        for (si, s) in prob.sources().iter().enumerate() {
            let mut remaining = demands[si].clone();
            loop {
                if d_l >= 1.0 {
                    break 'phases;
                }
                let (_dist, parent) = shortest_path_tree(n, &out_arcs, s.src, &len);
                touched.clear();
                let mut progressed = false;
                for (j, &(dst, _)) in s.dests.iter().enumerate() {
                    if remaining[j] <= 1e-15 {
                        continue;
                    }
                    let mut bottleneck = f64::INFINITY;
                    let mut cur = dst;
                    while cur != s.src {
                        let (p, aid) = parent[cur].expect("reachable by check above");
                        bottleneck = bottleneck.min(avail[aid]);
                        cur = p;
                    }
                    let f = remaining[j].min(bottleneck);
                    if f <= 1e-15 {
                        continue;
                    }
                    let mut cur = dst;
                    while cur != s.src {
                        let (p, aid) = parent[cur].unwrap();
                        if used[aid] == 0.0 {
                            touched.push(aid);
                        }
                        avail[aid] -= f;
                        used[aid] += f;
                        cur = p;
                    }
                    remaining[j] -= f;
                    routed[si][j] += f;
                    progressed = true;
                }
                for &aid in &touched {
                    let u = used[aid];
                    flow_arc[aid] += u;
                    let old = len[aid];
                    let new = old * (1.0 + eps * u / caps[aid]);
                    d_l += (new - old) * caps[aid];
                    len[aid] = new;
                    used[aid] = 0.0;
                    avail[aid] = caps[aid];
                }
                touched.clear();
                if !progressed || remaining.iter().all(|&r| r <= 1e-15) {
                    break;
                }
            }
        }
        phase += 1;
        if phase.is_multiple_of(cfg.check_interval) {
            let (lo, up) = evaluate(&routed, &flow_arc, &len, d_l);
            best_lower = best_lower.max(lo);
            best_upper = best_upper.min(up);
            if best_upper.is_finite() && (best_upper - best_lower) / best_upper <= cfg.target_gap {
                break 'phases;
            }
        }
    }
    let (lo, up) = evaluate(&routed, &flow_arc, &len, d_l);
    best_lower = best_lower.max(lo);
    best_upper = best_upper.min(up);
    if !best_upper.is_finite() {
        best_upper = best_lower;
    }
    ThroughputBounds {
        lower: best_lower * scale,
        upper: best_upper * scale,
    }
}
